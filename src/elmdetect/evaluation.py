"""Confusion matrices, classification metrics, ROC/AUC, and the
cross-validation driver that produces the model-comparison report.

The positive class is fake news (label 1); a score >= THRESHOLD (0.5)
predicts fake.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .corpus import DocumentSet, FoldPlan
from .errors import ElmDetectError
from .features import FeatureExtractor
from .significance import paired_t_test, wilcoxon_signed_rank
from .training import VARIANTS, TrainConfig, predict_scores, train

METRIC_NAMES = ("accuracy", "precision", "recall", "f1", "roc_auc")
THRESHOLD = 0.5

# Published reference metrics on the COVID19-FNIR benchmark, used for
# side-by-side display in the run report (fractions, not percent).
FNIR_REFERENCE_RESULTS = {
    "base": {"accuracy": 0.9490, "precision": 0.9367, "recall": 0.9633, "f1": 0.9497, "roc_auc": 0.9843},
    "features_only": {"accuracy": 0.9005, "precision": 0.9081, "recall": 0.8913, "f1": 0.8996, "roc_auc": 0.9662},
    "enhanced": {"accuracy": 0.9737, "precision": 0.9688, "recall": 0.9850, "f1": 0.9741, "roc_auc": 0.9950},
    "combined": {"accuracy": 0.9937, "precision": 0.9888, "recall": 0.9980, "f1": 0.9941, "roc_auc": 0.9980},
}


def confusion(scores: Sequence[float], labels: Sequence[int]) -> dict[str, int]:
    """Count {tp, tn, fp, fn}, in the column order of confusion_*.csv, with
    fake (1) as the positive class."""
    if len(scores) != len(labels):
        raise ElmDetectError(f"{len(scores)} scores vs {len(labels)} labels")
    if len(scores) == 0:
        raise ElmDetectError("cannot build a confusion matrix from zero documents")
    tp = tn = fp = fn = 0
    for s, y in zip(scores, labels):
        predicted = 1 if s >= THRESHOLD else 0
        if predicted == 1 and y == 1:
            tp += 1
        elif predicted == 0 and y == 0:
            tn += 1
        elif predicted == 1 and y == 0:
            fp += 1
        else:
            fn += 1
    return {"tp": tp, "tn": tn, "fp": fp, "fn": fn}


def metrics(cm: dict[str, int], auc_value: float) -> dict[str, float]:
    """The METRIC_NAMES -> value dict of a confusion count and an AUC:
    accuracy, precision, recall and F1 from the counts, degenerate cases 0."""
    tp, tn, fp, fn = cm["tp"], cm["tn"], cm["fp"], cm["fn"]
    total = tp + tn + fp + fn
    if total == 0:
        raise ElmDetectError("empty confusion matrix")
    precision = tp / (tp + fp) if (tp + fp) > 0 else 0.0
    recall = tp / (tp + fn) if (tp + fn) > 0 else 0.0
    f1 = 2.0 * precision * recall / (precision + recall) if (precision + recall) > 0 else 0.0
    return dict(zip(METRIC_NAMES, ((tp + tn) / total, precision, recall, f1, auc_value)))


def roc_curve(scores: Sequence[float], labels: Sequence[int]) -> tuple[tuple[float, ...], ...]:
    """(fpr, tpr, thresholds) of the threshold sweep over the distinct
    scores, descending, from (0, 0) to (1, 1): tied scores share one point,
    and thresholds[i] is the score cut that gives point i under the >= rule.
    A NaN or infinite score is rejected: NaN equals no cut, so the sweep
    could never pass it."""
    scores = np.asarray(scores, dtype=np.float64)
    if not np.isfinite(scores).all():
        raise ElmDetectError(f"{np.count_nonzero(~np.isfinite(scores))} of {len(scores)} scores are not finite")
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise ElmDetectError("ROC needs both classes present")
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    # the last row of each run of tied scores
    ends = np.flatnonzero(np.append(sorted_scores[1:] != sorted_scores[:-1], True))
    tp = np.cumsum(labels[order] == 1)[ends]
    fp = ends + 1 - tp
    fpr, tpr = [0.0, *(fp / n_neg).tolist()], [0.0, *(tp / n_pos).tolist()]
    thresholds = [np.inf, *sorted_scores[ends].tolist()]
    return tuple(fpr), tuple(tpr), tuple(thresholds)


def auc(curve: tuple[Sequence[float], Sequence[float], Sequence[float]]) -> float:
    """Trapezoidal area under an (fpr, tpr, thresholds) curve; equals the
    normalized rank statistic with ties counted one half."""
    fpr, tpr, _ = curve
    return float(np.trapezoid(tpr, fpr))


def roc_auc(scores: Sequence[float], labels: Sequence[int]) -> float:
    return auc(roc_curve(scores, labels))


@dataclass
class FoldResult:
    """Everything recorded for one (fold, variant) evaluation; `fold`,
    `variant`, `metrics` and `confusion` are its report.json entry."""

    fold: int
    variant: str
    doc_ids: tuple[str, ...]
    scores: tuple[float, ...]
    labels: tuple[int, ...]
    confusion: dict[str, int]
    metrics: dict[str, float]


def evaluate_fold(
    fold: int,
    variant: str,
    doc_ids: Sequence[str],
    scores: Sequence[float],
    labels: Sequence[int],
) -> FoldResult:
    cm = confusion(scores, labels)
    return FoldResult(
        fold=fold,
        variant=variant,
        doc_ids=tuple(doc_ids),
        scores=tuple(float(s) for s in scores),
        labels=tuple(int(y) for y in labels),
        confusion=cm,
        metrics=metrics(cm, roc_auc(scores, labels)),
    )


def build_report(results: Sequence[FoldResult], k: int) -> dict:
    """The result entries of report.json: per-variant mean metrics, deltas
    against the base model, the paired significance tests over per-fold
    accuracies, the published reference metrics and one entry per fold;
    pure, so a report can be rebuilt from persisted results without
    retraining."""
    variants = list(dict.fromkeys(r.variant for r in results))
    mean_metrics: dict[str, dict[str, float]] = {}
    fold_accuracies: dict[str, list[float]] = {}
    for variant in variants:
        rows = sorted((r for r in results if r.variant == variant), key=lambda r: r.fold)
        mean_metrics[variant] = {name: float(np.mean([r.metrics[name] for r in rows])) for name in METRIC_NAMES}
        fold_accuracies[variant] = [r.metrics["accuracy"] for r in rows]
    deltas: dict[str, dict[str, float]] = {}
    significance: dict[str, dict] = {}
    if "base" in variants:
        base_metrics = mean_metrics["base"]
        for variant in variants:
            if variant == "base":
                continue
            deltas[variant] = {name: mean_metrics[variant][name] - base_metrics[name] for name in METRIC_NAMES}
            significance[variant] = _significance(fold_accuracies["base"], fold_accuracies[variant])
    return {
        "k": k,
        "variants": variants,
        "mean_metrics": mean_metrics,
        "deltas": deltas,
        "fold_accuracies": fold_accuracies,
        "significance": significance,
        "reference_results": {v: FNIR_REFERENCE_RESULTS[v] for v in variants if v in FNIR_REFERENCE_RESULTS},
        "per_fold": [
            {"fold": r.fold, "variant": r.variant, "metrics": r.metrics, "confusion": r.confusion} for r in results
        ],
    }


def _significance(base_acc: list[float], variant_acc: list[float]) -> dict:
    out: dict = {}
    for test, error_key in ((wilcoxon_signed_rank, "wilcoxon_error"), (paired_t_test, "t_test_error")):
        try:
            out.update(test(base_acc, variant_acc))
        except ElmDetectError as exc:
            out[error_key] = str(exc)
    return out


def cross_validate(
    corpus: DocumentSet,
    fold_plan: FoldPlan,
    configs: Sequence[TrainConfig],
    extractor: FeatureExtractor | None = None,
) -> list[FoldResult]:
    """Train and evaluate every (fold, variant) pair, fold by fold.

    Each task gets its own model and an RNG seeded from (global seed, fold,
    the variant's index in VARIANTS), so its results depend neither on the
    order of the tasks nor on which other variants run; a failed fold
    aborts the run with its fold index.
    """
    if len(fold_plan.assignments) != len(corpus):
        raise ValueError("fold plan does not cover the corpus")
    if not configs:
        raise ValueError("at least one variant config is required")
    variants = [c.variant for c in configs]
    for variant in variants:
        if variants.count(variant) > 1:
            raise ValueError(f"variant {variant!r} is listed more than once")
    extractor = extractor or FeatureExtractor()
    docs = list(corpus)

    results = []
    for fold in range(fold_plan.k):
        train_docs = [docs[i] for i in fold_plan.train_indices(fold)]
        test_docs = [docs[i] for i in fold_plan.test_indices(fold)]
        for config in configs:
            seed = int(
                np.random.SeedSequence([config.seed, fold, VARIANTS.index(config.variant)]).generate_state(1)[0]
            )
            results.append(_run_task(fold, replace(config, seed=seed), train_docs, test_docs, extractor))
    return results


def _run_task(fold: int, config: TrainConfig, train_docs, test_docs, extractor: FeatureExtractor) -> FoldResult:
    """Train and score one (fold, variant) task. The model, with its layer
    caches, is freed on return, before the next task trains."""
    try:
        model = train(train_docs, config, extractor=extractor)
        scores = predict_scores(model, test_docs)
        result = evaluate_fold(
            fold, config.variant, [d.id for d in test_docs], scores.tolist(), [d.label for d in test_docs]
        )
    except Exception as exc:
        raise RuntimeError(f"fold {fold} variant {config.variant} failed: {exc}") from exc
    _audit_no_leakage(model.fit_doc_ids, train_docs, test_docs)
    return result


def _audit_no_leakage(fit_ids, train_docs, test_docs) -> None:
    fit = set(fit_ids)
    if not fit.issubset({d.id for d in train_docs}):
        raise RuntimeError("model was fitted on documents outside the training fold")
    if fit & {d.id for d in test_docs}:
        raise RuntimeError("model fitting leaked test-fold documents")
