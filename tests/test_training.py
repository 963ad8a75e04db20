import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from elmdetect import network
from elmdetect.errors import ElmDetectError
from elmdetect.features import FeatureExtractor
from elmdetect.network import (
    DROPOUT_RATE,
    EMBEDDING_DIM,
    KERNEL_SIZE,
    LSTM_UNITS,
    PAD_INDEX,
    ConvLayer,
    LstmLayer,
    Network,
)
from elmdetect.textstats import tokenize
from elmdetect.training import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    AdamState,
    VARIANT_SPECS,
    VARIANTS,
    TrainConfig,
    Vocabulary,
    _encode_batch,
    _feature_batch,
    adam_step,
    bce_loss,
    load_model,
    predict_scores,
    save_model,
    train,
)

from oracles import oracle_adam, oracle_early_stop
from synthetic import NEUTRAL_WORDS, dual_signal_corpus, make_doc, planted_token_corpus


class TestBceLoss:
    def test_midpoint_is_ln2(self):
        assert bce_loss(np.array([0.5, 0.5]), np.array([0.0, 1.0])) == pytest.approx(math.log(2))

    def test_confident_wrong(self):
        assert bce_loss(np.array([0.9]), np.array([0.0])) == pytest.approx(-math.log(0.1))

    def test_perfect_prediction_clamps_near_zero(self):
        assert 0.0 < bce_loss(np.array([1.0]), np.array([1.0])) < 2e-7
        assert 0.0 < bce_loss(np.array([0.0]), np.array([0.0])) < 2e-7

    def test_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            assert bce_loss(rng.random(3), rng.integers(0, 2, 3).astype(float)) >= 0.0

    def test_is_the_mean_of_per_row_losses(self):
        preds = np.array([0.2, 0.7, 0.9])
        labels = np.array([0.0, 1.0, 0.0])
        rows = [-math.log(0.8), -math.log(0.7), -math.log(0.1)]
        assert bce_loss(preds, labels) == pytest.approx(sum(rows) / 3)


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        p = np.array([1.0, -2.0])
        adam_step(p, np.zeros(2), AdamState(p), lr=0.001)
        assert p.tolist() == [1.0, -2.0]

    def test_single_step_hand_unrolled(self):
        # m_hat = v_hat = 1 after one step with g = 1
        p = np.array([0.0])
        state = AdamState(p)
        adam_step(p, np.ones(1), state, lr=0.001)
        expected = -0.001 * 1.0 / (math.sqrt(1.0) + 1e-8)
        assert p[0] == pytest.approx(expected, abs=1e-15)
        assert p[0] == pytest.approx(-0.000999999995, abs=1e-11)
        assert state.t == 1

    def test_constant_gradient_monotone_decrease(self):
        p = np.array([0.0])
        state = AdamState(p)
        values = []
        for _ in range(5):
            adam_step(p, np.ones(1), state, lr=0.001)
            values.append(p[0])
        assert values == sorted(values, reverse=True)

    def test_shape_mismatch(self):
        p = np.zeros(3)
        with pytest.raises(ElmDetectError, match=r"params \(3,\), grads \(2,\) and state \(3,\) differ"):
            adam_step(p, np.zeros(2), AdamState(p), lr=0.001)
        with pytest.raises(ElmDetectError, match=r"params \(3,\), grads \(3,\) and state \(2,\) differ"):
            adam_step(p, np.zeros(3), AdamState(np.zeros(2)), lr=0.001)

    def test_flat_steps_match_the_per_array_oracle(self):
        """Five flat steps over a whole network equal Adam run one layer
        array at a time, bit for bit."""
        model = train(list(planted_token_corpus(32, seed=5)), quick_config("enhanced", epochs=1))
        net, rng = model.model, np.random.default_rng(6)
        pieces = [p.copy() for layer in net.layers for p in layer.params.values()]
        m, v = [np.zeros_like(p) for p in pieces], [np.zeros_like(p) for p in pieces]
        state = AdamState(net.params)
        for t in range(1, 6):
            net.grads[...] = rng.normal(size=net.grads.size)
            grads = [g.copy() for layer in net.layers for g in layer.grads.values()]
            adam_step(net.params, net.grads, state, 0.01)
            oracle_adam(pieces, grads, m, v, t, 0.01, ADAM_BETA1, ADAM_BETA2, ADAM_EPS)
        assert np.array_equal(net.params, np.concatenate([p.reshape(-1) for p in pieces]))


class TestEarlyStopOracle:
    def test_traced_patience_two_sequence(self):
        # stop after epoch 4 and restore the epoch-2 parameters
        assert oracle_early_stop([0.6, 0.5, 0.55, 0.56], patience=2) == (4, 2)

    def test_improvement_resets_patience(self):
        assert oracle_early_stop([0.6, 0.61, 0.5, 0.51], patience=2) == (4, 3)

    def test_disabled_never_stops(self):
        assert oracle_early_stop([1.0] * 19, patience=0) == (19, 19)


class TestVocabulary:
    def test_min_frequency_cutoff_and_special_ids(self):
        vocab = Vocabulary.build([["a", "a", "b"], ["a", "c", "c"]])
        assert set(vocab.token_to_id) == {"a", "c"}
        assert min(vocab.token_to_id.values()) == 2  # 0 = pad, 1 = oov
        assert vocab.size == 4

    def test_encode_pads_truncates_and_maps_oov(self):
        vocab = Vocabulary.build([["a", "a", "b", "b"]])
        a, b = vocab.token_to_id["a"], vocab.token_to_id["b"]
        ids = vocab.encode([["a", "zzz", "b"], ["a"] * 10, [], ("b",)], max_len=4)
        assert ids.dtype == np.int64
        assert ids.tolist() == [[a, 1, b, 0], [a] * 4, [0] * 4, [b, 0, 0, 0]]
        assert vocab.encode([], max_len=4).shape == (0, 4)

    def test_deterministic_ordering(self):
        lists = [["b", "a", "b", "a", "c", "c"]]
        assert Vocabulary.build(lists).token_to_id == Vocabulary.build(lists).token_to_id


def quick_config(variant="base", **overrides):
    defaults = dict(
        variant=variant,
        epochs=3,
        batch_size=16,
        max_seq_len=16,
        seed=1,
        progress=False,
    )
    defaults.update(overrides)
    return TrainConfig(**defaults)


class TestTrain:
    def test_errors_on_degenerate_inputs(self):
        with pytest.raises(ElmDetectError, match="training set is empty"):
            train([], quick_config())
        docs = [make_doc(f"text {i}.", 1, doc_id=str(i)) for i in range(4)]
        with pytest.raises(ElmDetectError, match="0 documents of class 0"):
            train(docs, quick_config())

    def test_a_class_with_one_document_is_rejected(self):
        """One document of a class leaves it no validation row, and the
        validation loss would be the mean of no rows, NaN."""
        docs = [make_doc(f"text {i}.", i % 2, doc_id=str(i)) for i in range(3)]
        with pytest.raises(ElmDetectError, match="1 documents of class 1"):
            train(docs, quick_config())
        docs.append(make_doc("text 3.", 1, doc_id="3"))
        model = train(docs, quick_config(epochs=1))
        assert all(math.isfinite(loss) for loss in model.history[0])

    def test_history_and_fingerprint(self):
        corpus = planted_token_corpus(32, seed=0)
        model = train(list(corpus), quick_config())
        assert 1 <= len(model.history) <= 3
        assert model.best_epoch >= 1
        assert set(model.fit_doc_ids) <= {d.id for d in corpus}
        assert len(model.fit_doc_ids) < len(corpus)  # validation rows carved out

    def test_same_seed_identical_history(self):
        corpus = planted_token_corpus(32, seed=0)
        a = train(list(corpus), quick_config(epochs=2))
        b = train(list(corpus), quick_config(epochs=2))
        assert a.history == b.history
        assert np.array_equal(
            predict_scores(a, list(corpus)), predict_scores(b, list(corpus))
        )

    def test_vocab_and_scaler_fit_on_train_rows_only(self):
        corpus = planted_token_corpus(40, seed=1)
        model = train(list(corpus), quick_config("enhanced"))
        fit_ids = set(model.fit_doc_ids)
        assert fit_ids <= {d.id for d in corpus}
        # scaler bounds must come from fit rows only
        fit_docs = [d for d in corpus if d.id in fit_ids]
        raw = model.extractor.matrix(fit_docs)
        assert np.allclose(model.scaler.mins, raw.min(axis=0))

    def test_restored_params_hit_best_val_loss(self):
        """Early stopping hands back the parameters of the best validation
        epoch, not those of the last one: they score the validation rows to
        exactly the loss recorded for that epoch. With patience 0 the model
        keeps the last epoch's parameters, though an earlier epoch scored a
        lower validation loss."""
        corpus = planted_token_corpus(48, seed=3)
        for patience, variant in itertools.product((3, 0), ("base", "features_only", "enhanced")):
            cfg = quick_config(variant, epochs=8, early_stop_patience=patience, learning_rate=0.05)
            model = train(list(corpus), cfg)
            vals = [v for _, v in model.history]
            best = int(np.argmin(vals)) + 1
            assert best < len(model.history), (patience, variant)  # the last epoch was not the best
            assert model.best_epoch == (best if patience > 0 else len(model.history)), (patience, variant)
            fit_ids = set(model.fit_doc_ids)
            val_docs = [d for d in corpus if d.id not in fit_ids]
            y_val = np.array([d.label for d in val_docs], dtype=np.float64)
            loss = bce_loss(predict_scores(model, val_docs), y_val)
            assert loss == vals[model.best_epoch - 1], (patience, variant)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_layer_arrays_are_views_into_the_flat_buffers(self, variant, tmp_path):
        corpus = planted_token_corpus(32, seed=4)
        model = train(list(corpus), quick_config(variant, epochs=1))
        save_model(model, tmp_path / "model.json")
        for m in (model, load_model(tmp_path / "model.json")):
            net = m.model
            assert net.params.shape == net.grads.shape
            sizes = 0
            for layer in net.layers:
                for name, p in layer.params.items():
                    assert np.shares_memory(p, net.params), name
                    assert np.shares_memory(layer.grads[name], net.grads), name
                    sizes += p.size
            assert sizes == net.params.size
            in_order = [p.reshape(-1) for layer in net.layers for p in layer.params.values()]
            assert np.array_equal(np.concatenate(in_order), net.params)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_forward_is_fuse_of_the_text_states(self, variant):
        """A forward is `fuse` of `text_states`, bit for bit, so the fusion
        can run again on stored states."""
        corpus = list(planted_token_corpus(32, seed=4))
        model = train(corpus, quick_config(variant, epochs=1))
        net, text = model.model, VARIANT_SPECS[variant].text
        ids, feats = _encode_batch(model, corpus), _feature_batch(model, corpus)
        states = net.text_states(ids, train=False)
        assert states.dtype == np.float32
        assert states.shape == (len(corpus), LSTM_UNITS if text else 0)
        np.testing.assert_array_equal(net.fuse(states, feats), net.forward(ids, feats, train=False))
        assert net.layers == ([net.embedding, net.conv, net.lstm, net.head] if text else [net.hidden, net.head])

    def test_stopping_point_follows_patience_rule(self):
        corpus = planted_token_corpus(48, seed=3)
        stopped = []
        for patience in (0, 1, 2):
            cfg = quick_config(epochs=8, early_stop_patience=patience, learning_rate=0.05)
            model = train(list(corpus), cfg)
            vals = [v for _, v in model.history]
            # epochs that did not run would not have improved, so the rule stops where training did
            padded = vals + [math.inf] * (cfg.epochs - len(vals))
            assert oracle_early_stop(padded, patience) == (len(vals), model.best_epoch), patience
            stopped.append(len(vals) < cfg.epochs)
        assert stopped == [False, True, True]

    def test_progress_lines_are_key_value(self, capsys):
        corpus = planted_token_corpus(32, seed=4)
        train(list(corpus), quick_config(epochs=1, progress=True))
        lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("epoch=")]
        assert lines
        for ln in lines:
            keys = [item.split("=")[0] for item in ln.split()]
            assert keys == ["epoch", "train_loss", "val_loss"]

    def test_each_variant_trains_and_predicts(self):
        corpus = planted_token_corpus(40, seed=5)
        for variant, spec in VARIANT_SPECS.items():
            model = train(list(corpus), quick_config(variant, epochs=1))
            assert model.config.variant == variant
            assert (model.vocab is not None) == spec.text
            assert (model.scaler is not None) == spec.features
            assert (model.extended is not None) == spec.extended
            p = predict_scores(model, [corpus[0]])[0]
            assert 0.0 < p < 1.0

    @pytest.mark.parametrize("variant", list(VARIANT_SPECS))
    def test_no_documents_score_to_an_empty_array(self, variant):
        model = train(list(planted_token_corpus(32, seed=6)), quick_config(variant, epochs=1))
        scores = predict_scores(model, [])
        assert scores.shape == (0,)
        assert scores.dtype == np.float64

    def test_max_seq_len_past_the_longest_document_changes_nothing(self):
        corpus = list(planted_token_corpus(40, seed=13))
        assert max(len(tokenize(d.clean_text)) for d in corpus) < 20
        a = train(corpus, quick_config("enhanced", max_seq_len=20))
        b = train(corpus, quick_config("enhanced", max_seq_len=100))
        assert a.history == b.history
        assert np.array_equal(predict_scores(a, corpus), predict_scores(b, corpus))

    def test_scores_do_not_depend_on_batching(self):
        corpus = list(planted_token_corpus(40, seed=14))
        docs = [make_doc("zorblat", 1, doc_id="short"), *corpus, make_doc("?!", 0, doc_id="empty")]
        for variant in VARIANTS:
            model = train(corpus, quick_config(variant, epochs=1, max_seq_len=100))
            whole = predict_scores(model, docs)
            halves = np.concatenate([predict_scores(model, docs[:21]), predict_scores(model, docs[21:])])
            singles = np.array([predict_scores(model, [d])[0] for d in docs])
            assert np.array_equal(halves, whole), variant
            assert np.array_equal(singles, whole), variant

    def test_a_one_row_chunk_scores_as_inside_a_larger_chunk(self, monkeypatch):
        """A budget of one 30-token row leaves the 30-token document alone
        in the last chunk, which runs as two copies of its row; its score
        is the same bits as in one chunk of all the documents. Its row
        holds one distinct id, so the conv runs its two-row floor."""
        corpus = list(planted_token_corpus(40, seed=21))
        model = train(corpus, quick_config("base", epochs=1, max_seq_len=30))
        docs = [*corpus[:16], make_doc("zorblat " * 30, 1, doc_id="long")]
        assert max(len(d.tokens) for d in corpus) < 30
        chunks = []
        forward = Network.forward

        def recording_forward(self, ids, feats, train, rng=None):
            chunks.append(ids)
            return forward(self, ids, feats, train, rng)

        monkeypatch.setattr(Network, "forward", recording_forward)
        alone = predict_scores(replace(model, config=replace(model.config, batch_size=1)), docs)
        last = chunks[-1]
        assert last.shape == (2, 30) and np.unique(last).size == 1  # one row, run twice
        chunks.clear()
        together = predict_scores(replace(model, config=replace(model.config, batch_size=len(docs))), docs)
        assert [len(ids) for ids in chunks] == [len(docs)]
        assert alone[-1] == together[-1]
        assert np.array_equal(alone, together)

    def test_scoring_runs_the_conv_and_lstm_in_float32(self, monkeypatch):
        model = train(list(planted_token_corpus(40, seed=22)), quick_config("enhanced", epochs=1))
        dtypes = []
        for layer in (ConvLayer, LstmLayer):
            def recording_forward(self, x, *args, _forward=layer.forward, **kwargs):
                dtypes.append((type(self).__name__, x.dtype))
                return _forward(self, x, *args, **kwargs)

            monkeypatch.setattr(layer, "forward", recording_forward)
        scores = predict_scores(model, list(planted_token_corpus(40, seed=23)))
        assert scores.dtype == np.float64
        assert {name for name, _ in dtypes} == {"ConvLayer", "LstmLayer"}
        assert {dtype for _, dtype in dtypes} == {np.dtype(np.float32)}

    def test_scoring_runs_documents_in_length_order(self, monkeypatch):
        """Documents of 3 to 100 tokens, 16 rows' worth of 100 tokens per
        chunk: the chunks come in length order, and each takes as many rows
        as fit its budget of rows times its longest row."""
        model = train(list(planted_token_corpus(40, seed=17)), quick_config("base", epochs=1, max_seq_len=100))
        rng = np.random.default_rng(18)
        docs = [make_doc(" ".join(rng.choice(NEUTRAL_WORDS, rng.integers(3, 101))), i % 2, f"d{i}") for i in range(64)]
        chunks = []
        forward = Network.forward

        def recording_forward(self, ids, feats, train, rng=None):
            chunks.append(np.count_nonzero(ids != PAD_INDEX, axis=1))
            return forward(self, ids, feats, train, rng)

        monkeypatch.setattr(Network, "forward", recording_forward)
        predict_scores(model, docs)
        budget = model.config.batch_size * model.config.max_seq_len
        lengths = np.concatenate(chunks)
        assert sorted(lengths) == sorted(len(d.tokens) for d in docs)
        assert np.all(np.diff(lengths) >= 0)
        for chunk, after in zip(chunks, chunks[1:]):
            assert len(chunk) * max(KERNEL_SIZE, chunk.max()) <= budget
            assert (len(chunk) + 1) * max(KERNEL_SIZE, after[0]) > budget  # the next row did not fit
        assert len(chunks[-1]) * max(KERNEL_SIZE, chunks[-1].max()) <= budget
        assert 1 < len(chunks) < len(docs) // model.config.batch_size

    def test_a_model_without_ids_scores_batch_size_rows_in_input_order(self, monkeypatch):
        model = train(list(planted_token_corpus(40, seed=24)), quick_config("features_only", epochs=1))
        docs = list(planted_token_corpus(40, seed=25))
        chunks = []
        forward = Network.forward

        def recording_forward(self, ids, feats, train, rng=None):
            chunks.append(feats)
            return forward(self, ids, feats, train, rng)

        monkeypatch.setattr(Network, "forward", recording_forward)
        predict_scores(model, docs)
        assert [len(c) for c in chunks] == [16, 16, 8]
        assert np.array_equal(np.concatenate(chunks), _feature_batch(model, docs))

    def test_scores_follow_their_documents_through_the_length_order(self):
        corpus = list(planted_token_corpus(40, seed=19))
        model = train(corpus, quick_config("enhanced", epochs=1, max_seq_len=100))
        docs = [*corpus, make_doc("?!", 0, doc_id="empty"), make_doc("zorblat", 1, doc_id="short")]
        assert len(docs) > 2 * model.config.batch_size
        perm = np.random.default_rng(20).permutation(len(docs))
        shuffled = predict_scores(model, [docs[i] for i in perm])
        assert np.array_equal(shuffled, predict_scores(model, docs)[perm])

    def test_scoring_memory_does_not_grow_with_the_corpus(self):
        """The network runs batch_size rows at a time, so scoring four times
        as many 100-token documents needs about the same peak memory."""
        model = train(list(planted_token_corpus(40, seed=15)), quick_config("enhanced", epochs=1, max_seq_len=100))
        rng = np.random.default_rng(16)
        docs = [make_doc(" ".join(rng.choice(NEUTRAL_WORDS, 100)), i % 2, doc_id=f"d{i}") for i in range(256)]

        def peak_bytes(n):
            tracemalloc.start()
            try:
                predict_scores(model, docs[:n])
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # one-off allocations, and the token and feature rows each document
        # keeps cached, land in this first call over every document
        peak_bytes(256)
        assert peak_bytes(256) < 1.2 * peak_bytes(64)

    def test_a_chunk_of_few_distinct_ids_peaks_below_its_per_position_embedding(self):
        """A score_bulk-sized chunk, 246 rows of 8-16 tokens over 195
        distinct ids, embeds one row per distinct id: its tracemalloc peak
        measured 2.56 MB, where gathering every position's embedding in
        float64 and casting it peaked at 4.79 MB."""
        rng = np.random.default_rng(0)
        net = Network(3000, 10, rng)
        lengths = rng.integers(8, 17, 246)
        ids = rng.zipf(1.3, size=(246, 16)) % 200 + 2
        ids[np.arange(16) >= lengths[:, None]] = PAD_INDEX
        feats = rng.random((246, 10))
        net.predict(ids, feats, len(ids))  # one chunk; one-off allocations land here
        tracemalloc.start()
        try:
            net.predict(ids, feats, len(ids))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.0e6

    def test_base_learns_at_the_default_max_seq_len(self):
        """Posts of 8-18 tokens padded to 100: the head must read each row
        where its tokens end, not after 80-odd steps of padding."""
        cfg = TrainConfig(variant="base", epochs=3, learning_rate=0.01, early_stop_patience=0, progress=False)
        model = train(list(dual_signal_corpus(n=300, seed=0)), cfg)
        assert min(val for _, val in model.history) < math.log(2) - 0.05


class TestMixedPrecision:
    def test_training_step_gradients_match_the_step_in_float64(self, monkeypatch):
        """A training step runs the text path in float32. Its gradients,
        relative to their largest magnitude, stay within 1e-5 of the same
        step run in float64 through the layers; measured at most 1.2e-6
        over 20 seeds."""
        rng = np.random.default_rng(3)
        net = Network(60, 3, rng)
        monkeypatch.setattr(network, "DROPOUT_RATE", 0.0)  # every mask is all ones
        lengths = rng.integers(1, 30, size=16)
        ids = rng.integers(2, 60, size=(16, 40))
        ids[np.arange(40) >= lengths[:, None]] = PAD_INDEX
        feats, y = rng.random((16, 3)), rng.integers(0, 2, 16).astype(float)
        p = net.forward(ids, feats, train=True, rng=rng)
        net.backward_logit((p - y) / 16)
        mixed = [{name: g.copy() for name, g in layer.grads.items()} for layer in net.layers]
        for layer in net.layers:
            for g in layer.grads.values():
                g[...] = 0.0
        rows, index = net.embedding.forward(ids[:, : max(KERNEL_SIZE, lengths.max())])
        text = net.lstm.forward(net.conv.forward(rows[index]), last=np.maximum(lengths - KERNEL_SIZE, 0))
        p64 = net.head.forward(np.concatenate([text, feats], axis=1))
        dz = net.head.backward_logit((p64 - y) / 16)
        net.embedding.backward(net.conv.backward(net.lstm.backward(dz[:, :LSTM_UNITS])))
        np.testing.assert_allclose(p, p64, rtol=0, atol=1e-7)
        differs = False
        for layer, grads in zip(net.layers, mixed):
            for name, g in grads.items():
                want = layer.grads[name]
                assert g.dtype == want.dtype == np.float64
                np.testing.assert_allclose(g, want, rtol=0, atol=1e-5 * np.abs(want).max(), err_msg=name)
                differs |= not np.array_equal(g, want)
        assert differs  # the step did not run in float64


    @pytest.mark.parametrize("variant", ["base", "enhanced", "combined"])
    def test_scores_stay_near_the_float64_forward(self, variant):
        """`predict_scores` runs the text path in float32; its scores stay
        within 5e-6 of the same model run through the layers in float64.
        Measured at most 7.5e-7 over 48 models (two corpora, four seeds,
        these three variants, lr 0.05 and 0.001)."""
        corpus = list(dual_signal_corpus(n=120, seed=1))
        cfg = TrainConfig(variant=variant, epochs=3, learning_rate=0.05, early_stop_patience=0, seed=1, progress=False)
        model = train(corpus[:90], cfg)
        net, ids, feats = model.model, _encode_batch(model, corpus), _feature_batch(model, corpus)
        lengths = np.count_nonzero(ids != PAD_INDEX, axis=1)
        rows, index = net.embedding.forward(ids[:, : max(KERNEL_SIZE, lengths.max())])
        assert rows.dtype == np.float64
        fmap = net.conv.forward(rows[index], train=False)
        text = net.lstm.forward(fmap, last=np.maximum(lengths - KERNEL_SIZE, 0), train=False)
        reference = net.head.forward(np.concatenate([text, feats], axis=1))
        scores = predict_scores(model, corpus)
        np.testing.assert_allclose(scores, reference, rtol=0, atol=5e-6)
        assert not np.array_equal(scores, reference)  # scoring did not run in float64

    def test_a_training_step_has_the_bits_of_embedding_every_position(self):
        """A training forward embeds the distinct ids and the conv runs its
        GEMMs over those rows only. Its states, probabilities and gradients
        are the same bits as the chain that gathers every position's float64
        row and casts it: conv, dropout from the same generator, LSTM."""
        rng = np.random.default_rng(8)
        net = Network(60, 3, rng)
        lengths = rng.integers(1, 30, size=16)
        ids = rng.zipf(1.5, size=(16, 40)) % 58 + 2
        ids[np.arange(40) >= lengths[:, None]] = PAD_INDEX
        feats, y = rng.random((16, 3)), rng.integers(0, 2, 16).astype(float)
        states = net.text_states(ids, train=True, rng=np.random.default_rng(9))
        p = net.fuse(states, feats)
        net.grads.fill(0.0)
        net.backward_logit((p - y) / 16)
        grads = net.grads.copy()

        net.grads.fill(0.0)
        trimmed = ids[:, : max(KERNEL_SIZE, lengths.max())]
        net.embedding.forward(trimmed)  # keeps the ids for its backward
        emb = net.embedding.params["weights"][trimmed].astype(np.float32)
        fmap = net.dropout.forward(net.conv.forward(emb), train=True, rng=np.random.default_rng(9))
        want_states = net.lstm.forward(fmap, last=np.maximum(lengths - KERNEL_SIZE, 0))
        want_p = net.head.forward(np.concatenate([want_states, feats], axis=1))
        dz = net.head.backward_logit((want_p - y) / 16)
        net.embedding.backward(net.conv.backward(net.dropout.backward(net.lstm.backward(dz[:, :LSTM_UNITS]))))
        assert states.dtype == np.float32
        assert np.array_equal(states, want_states)
        assert np.array_equal(p, want_p)
        assert np.array_equal(grads, net.grads)
        assert np.count_nonzero(net.embedding.grads["weights"])  # the chain reached the embedding


class TestPredictIsolation:
    def test_base_ignores_raw_punctuation(self):
        corpus = planted_token_corpus(32, seed=7)
        model = train(list(corpus), quick_config("base", epochs=1))
        a = make_doc("hello, world news", 0, doc_id="pa")
        b = make_doc("hello world NEWS!!!", 0, doc_id="pb")
        # same clean-token sequence after lowercasing; punctuation differs
        assert predict_scores(model, [a])[0] == predict_scores(model, [b])[0]

    def test_features_only_invariant_to_feature_preserving_reorder(self):
        corpus = planted_token_corpus(32, seed=8)
        model = train(list(corpus), quick_config("features_only", epochs=1))
        a = make_doc("Alpha beta. Gamma delta.", 0, doc_id="ra")
        b = make_doc("Gamma delta. Alpha beta.", 0, doc_id="rb")
        assert model.extractor.elm(a) == model.extractor.elm(b)
        assert predict_scores(model, [a])[0] == predict_scores(model, [b])[0]

    def test_enhanced_depends_only_on_clean_tokens_and_features(self):
        corpus = planted_token_corpus(32, seed=9)
        model = train(list(corpus), quick_config("enhanced", epochs=1))
        a = make_doc("hello world.", 0, doc_id="ea")
        b = make_doc("hello  world.", 0, doc_id="eb")  # extra space cleans away
        assert a.clean_text == b.clean_text
        assert model.extractor.elm(a) == model.extractor.elm(b)
        assert predict_scores(model, [a])[0] == predict_scores(model, [b])[0]

    def test_enhanced_prediction_in_unit_interval(self):
        corpus = planted_token_corpus(32, seed=10)
        model = train(list(corpus), quick_config("enhanced", epochs=1))
        for doc in list(corpus)[:8]:
            assert 0.0 < predict_scores(model, [doc])[0] < 1.0


class TestCheckpoint:
    @pytest.mark.parametrize("variant", ["base", "features_only", "enhanced", "combined"])
    def test_round_trip_bit_exact(self, variant, tmp_path):
        corpus = planted_token_corpus(40, seed=11)
        model = train(list(corpus), quick_config(variant, epochs=1))
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.config == model.config
        assert loaded.history == model.history
        assert loaded.model.params.dtype == np.float64
        assert np.array_equal(model.model.params, loaded.model.params)  # bit-exact
        docs = list(corpus)[:6]
        assert np.array_equal(predict_scores(model, docs), predict_scores(loaded, docs))

    def test_tampered_config_hash_rejected(self, tmp_path):
        import json

        corpus = planted_token_corpus(32, seed=12)
        model = train(list(corpus), quick_config(epochs=1))
        path = tmp_path / "model.json"
        save_model(model, path)
        payload = json.loads(path.read_text())
        payload["config"]["learning_rate"] = 0.999
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="hash"):
            load_model(path)

    @pytest.mark.parametrize(
        "version",
        # 1: per-gate LSTM parameters; 2: trained to read the state after the padding;
        # 3: the config held the fixed Adam, dropout, vocabulary and validation-split settings;
        # 4: the parameters were stored one named array per layer parameter;
        # 5: the flat array held the LSTM's Wx, Wh and b and the conv's (F, kernel, dim) filters;
        # 6: no lexicon digest, so a model loaded with other lexicons than its own scored without error
        [1, 2, 3, 4, 5, 6],
    )
    def test_older_checkpoint_version_rejected(self, version, tmp_path):
        import json

        corpus = planted_token_corpus(32, seed=12)
        path = tmp_path / "model.json"
        save_model(train(list(corpus), quick_config(epochs=1)), path)
        payload = json.loads(path.read_text())
        payload["format_version"] = version
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=f"version {version}"):
            load_model(path)

    def test_lexicons_must_be_those_the_model_was_trained_with(self, tmp_path):
        """A model trained with custom lexicons is refused with the bundled
        ones, which would score it differently, and scores bit for bit with
        an extractor of equal lexicons."""
        docs = list(dual_signal_corpus(n=60, seed=4))
        lexicons = {
            "sentiment": dict.fromkeys(NEUTRAL_WORDS[::2], 0.5),
            "urgency": dict.fromkeys(NEUTRAL_WORDS[1::4], 1.0),
        }
        model = train(docs, quick_config("features_only", epochs=1), extractor=FeatureExtractor(**lexicons))
        path = tmp_path / "model.json"
        save_model(model, path)
        with pytest.raises(ElmDetectError, match="lexicons are not those the checkpoint was trained with"):
            load_model(path)
        loaded = load_model(path, FeatureExtractor(**{name: dict(lex) for name, lex in lexicons.items()}))
        assert np.array_equal(predict_scores(loaded, docs), predict_scores(model, docs))
        bundled = replace(loaded, extractor=FeatureExtractor())
        assert not np.array_equal(predict_scores(bundled, docs), predict_scores(model, docs))

    def test_parameter_count_that_does_not_fit_the_model_rejected(self, tmp_path):
        """With one token fewer in the vocabulary the embedding has one row
        fewer, so the file holds more parameters than the model it builds."""
        import json

        corpus = planted_token_corpus(32, seed=12)
        path = tmp_path / "model.json"
        model = train(list(corpus), quick_config(epochs=1))
        save_model(model, path)
        payload = json.loads(path.read_text())
        del payload["vocab"][max(payload["vocab"], key=payload["vocab"].get)]
        path.write_text(json.dumps(payload))
        n = model.model.params.size
        with pytest.raises(ValueError, match=f"holds {n} parameters, the model it describes has {n - EMBEDDING_DIM}"):
            load_model(path)


class TestTrainConfig:
    def test_defaults_match_training_regime(self):
        cfg = TrainConfig()
        assert cfg.epochs == 10
        assert cfg.batch_size == 32
        assert cfg.learning_rate == 0.001
        assert cfg.max_seq_len == 100
        assert (ADAM_BETA1, ADAM_BETA2, ADAM_EPS) == (0.9, 0.999, 1e-8)
        assert DROPOUT_RATE == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(variant="bogus").validate()
        with pytest.raises(ValueError):
            TrainConfig(epochs=0).validate()
        with pytest.raises(ValueError, match=f"max_seq_len must be >= {KERNEL_SIZE}"):
            TrainConfig(max_seq_len=KERNEL_SIZE - 1).validate()
        TrainConfig(max_seq_len=KERNEL_SIZE).validate()
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            TrainConfig(seed=-1).validate()
