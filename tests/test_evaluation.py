import signal
from contextlib import contextmanager

import numpy as np
import pytest

from elmdetect.corpus import DocumentSet, stratified_folds
from elmdetect.errors import ElmDetectError
from elmdetect.evaluation import (
    auc,
    build_report,
    confusion,
    cross_validate,
    evaluate_fold,
    metrics,
    roc_auc,
    roc_curve,
)
from elmdetect import evaluation
from elmdetect.training import TrainConfig

from oracles import mann_whitney_auc, oracle_roc_curve
from synthetic import dual_signal_corpus, planted_token_corpus


class TestConfusion:
    def test_perfect_split(self):
        cm = confusion([0.9, 0.1], [1, 0])
        assert (cm["tp"], cm["tn"], cm["fp"], cm["fn"]) == (1, 1, 0, 0)

    def test_boundary_score_predicts_fake(self):
        cm = confusion([0.5], [0])
        assert cm["fp"] == 1

    def test_all_fake_scored_zero(self):
        cm = confusion([0.0] * 5, [1] * 5)
        assert cm["fn"] == 5 and sum(cm.values()) == 5

    def test_length_mismatch(self):
        with pytest.raises(ElmDetectError, match="1 scores vs 2 labels"):
            confusion([0.5], [1, 0])

    def test_empty(self):
        with pytest.raises(ElmDetectError, match="cannot build a confusion matrix from zero documents"):
            confusion([], [])

    def test_total_matches_input_size(self):
        rng = np.random.default_rng(0)
        scores = rng.random(37)
        labels = rng.integers(0, 2, 37)
        assert sum(confusion(scores, labels).values()) == 37


class TestMetrics:
    def test_hand_computed_case(self):
        m = metrics({"tp": 50, "tn": 40, "fp": 10, "fn": 0}, auc_value=0.95)
        assert m["accuracy"] == pytest.approx(0.9)
        assert m["precision"] == pytest.approx(50 / 60)
        assert m["recall"] == pytest.approx(1.0)
        assert m["f1"] == pytest.approx(2 * (50 / 60) / (50 / 60 + 1.0))
        assert m["roc_auc"] == 0.95

    def test_degenerate_conventions(self):
        m = metrics({"tp": 0, "tn": 5, "fp": 0, "fn": 5}, auc_value=0.5)
        assert m["precision"] == 0.0
        assert m["recall"] == 0.0
        assert m["f1"] == 0.0
        assert m["accuracy"] == 0.5

    def test_f1_is_harmonic_mean(self):
        m = metrics({"tp": 30, "tn": 20, "fp": 10, "fn": 5}, auc_value=0.8)
        assert m["f1"] == pytest.approx(2 * m["precision"] * m["recall"] / (m["precision"] + m["recall"]))

    def test_empty_matrix(self):
        with pytest.raises(ElmDetectError, match="empty confusion matrix"):
            metrics({"tp": 0, "tn": 0, "fp": 0, "fn": 0}, 0.5)


@contextmanager
def deadline(seconds: int):
    """Raise TimeoutError in the body after `seconds`, so that a loop that
    never ends fails its test instead of stalling the suite."""

    def expire(signum, frame):
        raise TimeoutError(f"did not return within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestRoc:
    def test_perfect_separation(self):
        curve = roc_curve([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
        assert (0.0, 1.0) in zip(*curve[:2])
        assert auc(curve) == 1.0

    def test_identical_scores_give_diagonal(self):
        curve = roc_curve([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0])
        assert curve[:2] == ((0.0, 1.0), (0.0, 1.0))
        assert auc(curve) == 0.5

    def test_three_score_example(self):
        assert roc_auc([0.8, 0.6, 0.4], [1, 0, 1]) == pytest.approx(0.5)

    def test_single_class_rejected(self):
        with pytest.raises(ElmDetectError, match="ROC needs both classes present"):
            roc_curve([0.1, 0.9], [1, 1])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_score_rejected(self, bad):
        with deadline(10), pytest.raises(ElmDetectError, match="1 of 3 scores are not finite"):
            roc_curve([0.2, bad, 0.7], [0, 1, 1])

    def test_curve_monotone_and_anchored(self):
        rng = np.random.default_rng(1)
        scores = rng.random(50)
        labels = np.r_[np.ones(25, dtype=int), np.zeros(25, dtype=int)]
        fprs, tprs, _ = roc_curve(scores, labels)
        assert (fprs[0], tprs[0]) == (0.0, 0.0)
        assert (fprs[-1], tprs[-1]) == (1.0, 1.0)
        assert list(fprs) == sorted(fprs)
        assert list(tprs) == sorted(tprs)

    def test_threshold_semantics(self):
        scores = [0.9, 0.7, 0.7, 0.3]
        labels = [1, 1, 0, 0]
        for fpr, tpr, cut in zip(*roc_curve(scores, labels)):
            preds = [1 if s >= cut else 0 for s in scores]
            tp = sum(1 for p, y in zip(preds, labels) if p == 1 and y == 1)
            fp = sum(1 for p, y in zip(preds, labels) if p == 1 and y == 0)
            assert tpr == pytest.approx(tp / 2)
            assert fpr == pytest.approx(fp / 2)

    def test_trapezoid_equals_mann_whitney_on_200_random_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n = int(rng.integers(2, 51))
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            # quantized scores force plenty of ties
            scores = np.round(rng.random(n), 1)
            got = roc_auc(scores.tolist(), labels.tolist())
            expected = mann_whitney_auc(scores.tolist(), labels.tolist())
            assert abs(got - expected) <= 1e-9

    def test_matches_row_by_row_sweep_on_200_tied_instances(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            n = int(rng.integers(2, 201))
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            scores = np.round(rng.random(n), int(rng.integers(1, 3)))
            curve = roc_curve(scores, labels)
            assert curve == oracle_roc_curve(scores, labels)
            # tuples of Python floats, so the CSV reprs do not change
            assert all(type(column) is tuple for column in curve)
            assert all(type(x) is float for column in curve for x in column)

    def test_rank_invariance_under_monotone_transform(self):
        rng = np.random.default_rng(7)
        scores = rng.random(30)
        labels = rng.integers(0, 2, 30)
        labels[0], labels[1] = 0, 1
        a = roc_auc(scores.tolist(), labels.tolist())
        b = roc_auc((scores**3 + 2).tolist(), labels.tolist())
        assert a == pytest.approx(b, abs=1e-12)


class TestFoldAggregation:
    def make_results(self):
        results = []
        for fold in range(3):
            scores = [0.9, 0.8, 0.2, 0.1 + 0.05 * fold]
            labels = [1, 1, 0, 0]
            ids = [f"d{fold}:{i}" for i in range(4)]
            results.append(evaluate_fold(fold, "base", ids, scores, labels))
            better = [min(s + 0.05, 1.0) if y else s for s, y in zip(scores, labels)]
            results.append(evaluate_fold(fold, "enhanced", ids, better, labels))
        return results

    def test_metric_set_recomputable_from_scores(self):
        for r in self.make_results():
            recomputed = metrics(
                confusion(r.scores, r.labels), roc_auc(r.scores, r.labels)
            )
            assert recomputed == r.metrics

    def test_report_rebuild_identical(self):
        results = self.make_results()
        a = build_report(results, k=3)
        b = build_report(list(results), k=3)
        assert a["mean_metrics"] == b["mean_metrics"]
        assert a["deltas"] == b["deltas"]
        assert a["fold_accuracies"] == b["fold_accuracies"]

    def test_deltas_are_enhanced_minus_base(self):
        report = build_report(self.make_results(), k=3)
        for name, delta in report["deltas"]["enhanced"].items():
            expected = report["mean_metrics"]["enhanced"][name] - report["mean_metrics"]["base"][name]
            assert delta == pytest.approx(expected)

    def test_permuting_documents_leaves_metrics_unchanged(self):
        rng = np.random.default_rng(3)
        scores = list(rng.random(20))
        labels = list(rng.integers(0, 2, 20))
        labels[0], labels[1] = 0, 1
        base = evaluate_fold(0, "base", [str(i) for i in range(20)], scores, labels)
        perm = rng.permutation(20)
        shuffled = evaluate_fold(
            0,
            "base",
            [str(i) for i in perm],
            [scores[i] for i in perm],
            [labels[i] for i in perm],
        )
        assert base.metrics == shuffled.metrics


class TestCrossValidate:
    def fast_config(self, variant):
        return TrainConfig(
            variant=variant,
            epochs=2,
            batch_size=16,
            max_seq_len=16,
            seed=11,
            progress=False,
        )

    def test_end_to_end_report_shape(self):
        corpus = planted_token_corpus(n=48, seed=5)
        plan = stratified_folds(corpus, 3, seed=5)
        results = cross_validate(
            corpus, plan, [self.fast_config("base"), self.fast_config("features_only")]
        )
        report = build_report(results, plan.k)
        assert report["k"] == 3
        assert set(report["variants"]) == {"base", "features_only"}
        assert len(results) == 6
        for r in results:
            assert len(r.scores) == len(r.labels) == len(r.doc_ids)
        assert "features_only" in report["significance"]

    def test_scores_do_not_depend_on_the_variant_list(self):
        """A task is seeded from its variant's place in VARIANTS, so leaving
        out or reordering the other variants keeps its scores bit for bit."""
        corpus = dual_signal_corpus(n=60, seed=3)
        plan = stratified_folds(corpus, 3, seed=7)
        seen = {}
        for variants in (("base", "enhanced"), ("enhanced", "base"), ("base", "features_only", "enhanced"), ("enhanced",)):
            for r in cross_validate(corpus, plan, [self.fast_config(v) for v in variants]):
                assert seen.setdefault((r.variant, r.fold), r.scores) == r.scores, (variants, r.variant)

    def test_every_document_scored_exactly_once_per_variant(self):
        corpus = planted_token_corpus(n=30, seed=2)
        plan = stratified_folds(corpus, 3, seed=2)
        results = cross_validate(corpus, plan, [self.fast_config("base")])
        seen = [d for r in results for d in r.doc_ids]
        assert sorted(seen) == sorted(d.id for d in corpus)

    def test_plan_must_cover_corpus(self):
        corpus = planted_token_corpus(n=20, seed=1)
        plan = stratified_folds(corpus, 2, seed=1)
        smaller = DocumentSet(tuple(list(corpus)[:10]))
        with pytest.raises(ValueError):
            cross_validate(smaller, plan, [self.fast_config("base")])

    def test_diverged_scores_fail_the_task_with_its_fold(self, monkeypatch):
        corpus = planted_token_corpus(n=20, seed=1)
        plan = stratified_folds(corpus, 2, seed=1)
        monkeypatch.setattr(evaluation, "predict_scores", lambda model, docs: np.full(len(docs), np.nan))
        with deadline(60), pytest.raises(RuntimeError, match="fold 0 variant base failed: .* not finite"):
            cross_validate(corpus, plan, [self.fast_config("base")])

    def test_requires_at_least_one_variant(self):
        corpus = planted_token_corpus(n=20, seed=1)
        plan = stratified_folds(corpus, 2, seed=1)
        with pytest.raises(ValueError):
            cross_validate(corpus, plan, [])
