import tracemalloc

import numpy as np
import pytest

from elmdetect import network
from elmdetect.errors import ElmDetectError
from elmdetect.network import (
    ConvLayer,
    DenseHead,
    DenseLayer,
    DropoutLayer,
    EmbeddingTable,
    LstmLayer,
    Network,
    PAD_INDEX,
    sigmoid,
)
from elmdetect.training import bce_loss

from oracles import grads_close, numeric_grad, oracle_conv, oracle_embedding_grad, oracle_lstm

# Largest error of float32 input against the float64 oracle, relative to the
# largest magnitude of the quantity: measured at most 1.4e-6 for the LSTM and
# conv outputs, input gradients and parameter gradients over 20 seeds of
# each case below.
FLOAT32_REL_TOL = 1e-5


def assert_matches_oracle(got, want, dtype, name=""):
    """Within 1e-12 for float64 input; for float32 input, within
    FLOAT32_REL_TOL of the largest magnitude of the float64 oracle's value."""
    if dtype == np.float64:
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12, err_msg=name)
    else:
        np.testing.assert_allclose(got, want, rtol=0, atol=FLOAT32_REL_TOL * np.abs(want).max(), err_msg=name)


def projection_loss(forward, weights):
    """Scalar loss = sum(forward() * fixed random weights)."""
    return lambda: float((forward() * weights).sum())


def zero_grads(layer):
    for g in layer.grads.values():
        g[...] = 0.0


def embedded(table, ids):
    """Each position's embedding row, from the distinct rows and their index."""
    rows, index = table.forward(ids)
    return rows[index]


class TestEmbedding:
    def test_pad_rows_are_zero(self):
        table = EmbeddingTable(5, 4, np.random.default_rng(0))
        out = embedded(table, np.array([[PAD_INDEX, PAD_INDEX, PAD_INDEX]]))
        assert out.shape == (1, 3, 4)
        assert np.all(out == 0.0)

    def test_lookup_identity(self):
        table = EmbeddingTable(4, 3, np.random.default_rng(0))
        table.params["weights"][2] = [7.0, 8.0, 9.0]
        assert np.array_equal(embedded(table, np.array([[2]]))[0, 0], [7.0, 8.0, 9.0])

    def test_out_of_vocab_rejected(self):
        table = EmbeddingTable(4, 3, np.random.default_rng(0))
        with pytest.raises(ElmDetectError, match=r"token ids must lie in \[0, 4\), got range \[4, 4\]"):
            table.forward(np.array([[4]]))
        with pytest.raises(ElmDetectError, match=r"token ids must lie in \[0, 4\), got range \[-1, -1\]"):
            table.forward(np.array([[-1]]))

    def test_distinct_rows_index_back_to_the_ids(self):
        table = EmbeddingTable(9, 3, np.random.default_rng(0))
        ids = np.array([[5, 2, 5, 0], [8, 2, 0, 0]])
        rows, index = table.forward(ids)
        assert rows.dtype == np.float64
        assert np.array_equal(rows, table.params["weights"][[0, 2, 5, 8]])
        assert index.tolist() == [[2, 1, 2, 0], [3, 1, 0, 0]]
        assert np.array_equal(rows[index], table.params["weights"][ids])

    @pytest.mark.parametrize("bad, shown", [(-1, r"\[-1, 3\]"), (4, r"\[0, 4\]")])
    def test_an_eval_forward_rejects_an_id_out_of_range(self, bad, shown):
        """The range is checked before the presence mask, where a negative
        id would wrap around."""
        net = Network(4, 0, np.random.default_rng(0))
        ids = np.array([[2, 3, bad, 1], [1, 2, 0, 0]])
        with pytest.raises(ElmDetectError, match=r"token ids must lie in \[0, 4\), got range " + shown):
            net.text_states(ids, train=False)

    def test_gradient_counts_repetitions(self):
        table = EmbeddingTable(6, 3, np.random.default_rng(0))
        ids = np.array([[2, 3, 2, 2]])
        table.forward(ids)
        zero_grads(table)
        table.backward(np.ones((1, 4, 3)))
        grad = table.grads["weights"]
        assert np.all(grad[2] == 3.0)
        assert np.all(grad[3] == 1.0)
        assert np.all(grad[PAD_INDEX] == 0.0)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        table = EmbeddingTable(7, 4, rng)
        ids = np.array([[2, 5, 2, 6, 1]])
        proj = rng.normal(size=(1, 5, 4))
        loss = projection_loss(lambda: embedded(table, ids), proj)
        loss()
        zero_grads(table)
        table.backward(proj)
        numeric = numeric_grad(loss, table.params["weights"])
        numeric[PAD_INDEX] = 0.0  # pad row is pinned
        assert grads_close(table.grads["weights"], numeric)

    @pytest.mark.parametrize("batch, steps, vocab", [(1, 1, 5), (1, 9, 4), (3, 17, 6), (32, 100, 400), (2, 6, 1)])
    def test_gradient_matches_the_add_at_oracle(self, batch, steps, vocab):
        """float32 rows, as a training step feeds them, sum to the oracle's
        bits; float64 rows agree within rounding. vocab 1 is all padding."""
        rng = np.random.default_rng(batch * steps)
        table = EmbeddingTable(vocab, 8, rng)
        ids = rng.integers(0, vocab, (batch, steps))
        ids[:, steps - steps // 3 :] = PAD_INDEX  # trailing padding, plus any drawn above
        dout = rng.normal(size=(batch, steps, 8))
        for dtype in (np.float32, np.float64):
            table.forward(ids)
            zero_grads(table)
            table.backward(dout.astype(dtype))
            want = oracle_embedding_grad(vocab, ids, dout.astype(dtype))
            if dtype == np.float32:
                assert np.array_equal(table.grads["weights"], want)
            else:
                np.testing.assert_allclose(table.grads["weights"], want, rtol=0, atol=1e-12)


class TestConv:
    def test_identity_filter_with_relu(self):
        layer = ConvLayer(n_filters=1, kernel_size=1, in_dim=1, rng=np.random.default_rng(0))
        layer.params["taps"][...] = 1.0
        layer.params["bias"][...] = 0.0
        out = layer.forward(np.array([[[2.0], [-3.0], [5.0]]]))
        assert out.shape == (1, 3, 1)
        assert out.ravel().tolist() == [2.0, 0.0, 5.0]

    def test_zero_filters_zero_output(self):
        layer = ConvLayer(n_filters=2, kernel_size=3, in_dim=4, rng=np.random.default_rng(0))
        layer.params["taps"][...] = 0.0
        out = layer.forward(np.ones((1, 5, 4)))
        assert np.all(out == 0.0)

    def test_output_length(self):
        layer = ConvLayer(n_filters=2, kernel_size=3, in_dim=4, rng=np.random.default_rng(0))
        assert layer.forward(np.ones((1, 9, 4))).shape == (1, 7, 2)

    def test_sequence_too_short(self):
        layer = ConvLayer(n_filters=2, kernel_size=3, in_dim=4, rng=np.random.default_rng(0))
        with pytest.raises(ElmDetectError, match="sequence length 2 < kernel size 3"):
            layer.forward(np.ones((1, 2, 4)))

    def test_gradients_match_finite_differences(self):
        for seed, kernel_size in [(0, 3), (1, 3), (2, 2), (3, 1)]:
            layer, emb, proj = _smooth_conv_case(seed, kernel_size)
            loss = projection_loss(lambda: layer.forward(emb), proj)
            loss()
            zero_grads(layer)
            demb = layer.backward(proj)
            assert grads_close(layer.grads["taps"], numeric_grad(loss, layer.params["taps"]))
            assert grads_close(layer.grads["bias"], numeric_grad(loss, layer.params["bias"]))
            assert grads_close(demb, numeric_grad(loss, emb))


def conv_oracle(layer, emb, dout):
    """`oracle_conv` of the layer's taps read as ``(F, kernel, dim)``
    filters, with the filter gradient returned as a taps gradient."""
    dim, kernel, nf = layer.in_dim, layer.kernel_size, layer.n_filters
    filters = layer.params["taps"].reshape(dim, kernel, nf).transpose(2, 1, 0)
    out, demb, grads = oracle_conv(filters, layer.params["bias"], emb, dout)
    return out, demb, {"taps": grads["filters"].transpose(2, 1, 0).reshape(dim, -1), "bias": grads["bias"]}


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_conv_matches_the_offset_sum_oracle(dtype):
    rng = np.random.default_rng(21)
    layer = ConvLayer(n_filters=64, kernel_size=3, in_dim=100, rng=rng)
    emb = rng.normal(size=(4, 20, 100))
    dout = rng.normal(size=(4, 18, 64))
    out = layer.forward(emb.astype(dtype))
    demb = layer.backward(dout.astype(dtype))
    assert out.dtype == demb.dtype == dtype
    want_out, want_demb, want_grads = conv_oracle(layer, emb, dout)
    assert_matches_oracle(out, want_out, dtype)
    assert_matches_oracle(demb, want_demb, dtype)
    for name, grad in want_grads.items():
        assert_matches_oracle(layer.grads[name], grad, dtype, name)


@pytest.mark.parametrize("kernel_size, length", [(1, 1), (1, 6), (2, 2), (2, 9), (3, 3), (3, 11)])
def test_conv_of_each_kernel_size_matches_the_offset_sum_oracle(kernel_size, length):
    rng = np.random.default_rng(kernel_size * 100 + length)
    layer = ConvLayer(n_filters=8, kernel_size=kernel_size, in_dim=6, rng=rng)
    layer.params["bias"][...] = rng.normal(size=8)
    emb = rng.normal(size=(3, length, 6))
    dout = rng.normal(size=(3, length - kernel_size + 1, 8))
    out = layer.forward(emb)
    demb = layer.backward(dout)
    want_out, want_demb, want_grads = conv_oracle(layer, emb, dout)
    assert_matches_oracle(out, want_out, np.float64)
    assert_matches_oracle(demb, want_demb, np.float64)
    for name, grad in want_grads.items():
        assert_matches_oracle(layer.grads[name], grad, np.float64, name)


def test_conv_holds_no_array_larger_than_its_input_and_pre_activation():
    """Besides views of its input, a training forward keeps only the
    output it returns, in place of a pre-activation, and the index."""
    rng = np.random.default_rng(22)
    layer = ConvLayer(n_filters=64, kernel_size=3, in_dim=100, rng=rng)
    emb = rng.normal(size=(4, 20, 100))
    out = layer.forward(emb)
    held = [v for v in vars(layer).values() if isinstance(v, np.ndarray) and not np.shares_memory(v, emb)]
    assert sum(a.nbytes for a in held) <= out.nbytes + layer._index.nbytes


def test_conv_eval_forward_keeps_nothing_and_equals_the_training_forward():
    rng = np.random.default_rng(23)
    layer = ConvLayer(n_filters=64, kernel_size=3, in_dim=100, rng=rng)
    emb = rng.normal(size=(4, 20, 100))
    out = layer.forward(emb, train=False)
    assert layer._table is None and layer._index is None and layer._out is None
    with pytest.raises(RuntimeError):
        layer.backward(np.ones_like(out))
    assert np.array_equal(out, layer.forward(emb))


def test_a_training_conv_keeps_one_row_per_distinct_id():
    """Ids 0, 2, 3 and 4 fill the 10 positions the batch is cut to, so the
    conv keeps four embedding rows for its backward, not one per position."""
    net = Network(10, 3, np.random.default_rng(25))
    ids = np.array([[2, 3, 2, 3, 2, 0], [3, 2, 4, 0, 0, 0]])
    net.forward(ids, np.zeros((2, 3)), train=True, rng=np.random.default_rng(0))
    assert net.conv._table.shape == (4, network.EMBEDDING_DIM)
    assert net.conv._index.shape == (2, 5)


@pytest.mark.parametrize("case", ["one_id", "every_position_distinct", "padded_rows"])
def test_conv_forward_over_a_row_index_is_the_forward_of_the_gathered_rows(case):
    """Bit for bit on float32 input, eval and training alike. A table of one
    row runs its GEMMs on two copies of it, since one row would run as a
    GEMV and round differently."""
    rng = np.random.default_rng(24)
    layer = ConvLayer(n_filters=64, kernel_size=3, in_dim=100, rng=rng)
    batch, length = 4, 12
    if case == "one_id":
        table, index = rng.normal(size=(1, 100)), np.zeros((batch, length), np.intp)
    elif case == "every_position_distinct":
        table, index = rng.normal(size=(batch * length, 100)), rng.permutation(batch * length).reshape(batch, length)
    else:
        table, index = rng.normal(size=(6, 100)), rng.integers(1, 6, size=(batch, length))
        table[PAD_INDEX] = 0.0
        index[np.arange(length) >= np.array([[12], [7], [3], [9]])] = PAD_INDEX
    table = table.astype(np.float32)
    for train in (False, True):
        assert np.array_equal(layer.forward(table, train, index), layer.forward(table[index], train))


def _smooth_conv_case(seed, kernel_size, margin=1e-3):
    """Random B=3 conv case whose pre-activations stay away from the ReLU
    kink."""
    for attempt in range(100):
        rng = np.random.default_rng((seed, attempt))
        layer = ConvLayer(n_filters=4, kernel_size=kernel_size, in_dim=5, rng=rng)
        emb = rng.normal(size=(3, 7, 5))
        taps = layer.params["taps"].reshape(5, kernel_size, 4)
        pre = layer.params["bias"] + sum(emb[:, j : j + 8 - kernel_size] @ taps[:, j] for j in range(kernel_size))
        if np.abs(pre).min() > margin:
            proj = rng.normal(size=(3, 8 - kernel_size, 4))
            return layer, emb, proj
    raise AssertionError("could not find a smooth conv case")


class TestDropout:
    def test_eval_mode_is_identity(self):
        x = np.arange(12.0).reshape(3, 4)
        layer = DropoutLayer()
        assert np.array_equal(layer.forward(x, train=False, rng=np.random.default_rng(0)), x)
        assert np.array_equal(layer.backward(x), x)

    def test_train_mode_preserves_expectation(self):
        rng = np.random.default_rng(42)
        layer = DropoutLayer()
        x = np.linspace(0.5, 2.0, 8)[None]
        acc = np.zeros_like(x)
        trials = 10_000
        for _ in range(trials):
            acc += layer.forward(x, train=True, rng=rng)
        mean = acc / trials
        assert np.all(np.abs(mean - x) <= 0.05 * np.abs(x))

    def test_survivors_scaled_by_inverse_keep(self):
        rng = np.random.default_rng(3)
        x = np.ones((1, 1000))
        out = DropoutLayer().forward(x, train=True, rng=rng)
        assert set(np.unique(out)) == {0.0, 2.0}

    def test_backward_applies_same_mask(self):
        rng = np.random.default_rng(9)
        layer = DropoutLayer()
        x = np.ones((4, 4))
        out = layer.forward(x, train=True, rng=rng)
        grad = layer.backward(np.ones((4, 4)))
        assert np.array_equal(grad, out)


# column of each gate's block in the stacked W of a 1-unit LSTM
GATE_COLUMN = {"i": 0, "f": 1, "g": 2, "o": 3}


def lstm_views(layer, w):
    """The input weights, bias and recurrent weights in the rows of the
    layer's stacked ``W`` (or of its gradient)."""
    dim = layer.in_dim
    return {"Wx": w[:dim], "b": w[dim], "Wh": w[dim + 1 :]}


def final_tanh_c(layer, seq):
    """tanh of the final cell state, as h / o: the output gate is recomputed
    from the parameters and the state one step before the end."""
    h = layer.forward(seq)
    h_prev = layer.forward(seq[:, :-1]) if seq.shape[1] > 1 else np.zeros_like(h)
    o = slice(3 * layer.hidden, 4 * layer.hidden)
    p = lstm_views(layer, layer.params["W"])
    return h / sigmoid(seq[:, -1] @ p["Wx"][:, o] + h_prev @ p["Wh"][:, o] + p["b"][o])


ORACLE_CASES = pytest.mark.parametrize(
    "batch, steps, in_dim, hidden, last",
    [(1, 1, 3, 4, [0]), (4, 7, 3, 5, [6, 0, 3, 3]), (32, 98, 64, 100, None)],
    ids=["b1_t1", "rows_end_apart", "b32_t98"],
)


def check_lstm_against_the_oracle(batch, steps, in_dim, hidden, last, dtype):
    """The layer fed `dtype` input against the float64 per-step oracle."""
    rng = np.random.default_rng(steps)
    layer = LstmLayer(in_dim, hidden, rng)
    seq = rng.normal(size=(batch, steps, in_dim))
    dh = rng.normal(size=(batch, hidden))
    last = np.full(batch, steps - 1) if last is None else np.array(last)
    out = layer.forward(seq.astype(dtype), last=last)
    dseq = layer.backward(dh)
    assert out.dtype == dseq.dtype == dtype
    want_out, want_dseq, want_grads = oracle_lstm(lstm_views(layer, layer.params["W"]), seq, last, dh)
    assert_matches_oracle(out, want_out, dtype)
    assert_matches_oracle(dseq, want_dseq, dtype)
    grads = lstm_views(layer, layer.grads["W"])
    for name, grad in want_grads.items():
        assert_matches_oracle(grads[name], grad, dtype, name)


class TestLstm:
    def test_stacked_parameter_shapes(self):
        layer = LstmLayer(3, 5, np.random.default_rng(0))
        assert [(n, p.shape) for n, p in layer.params.items()] == [("W", (3 + 1 + 5, 20))]
        # row in_dim is the bias: forget bias 1.0, every other gate bias 0.0
        assert layer.params["W"][3].tolist() == [0.0] * 5 + [1.0] * 5 + [0.0] * 10

    def test_zero_weights_fixed_point(self):
        layer = LstmLayer(2, 3, np.random.default_rng(0))
        for p in layer.params.values():
            p[...] = 0.0
        seq = np.ones((1, 4, 2))
        h = layer.forward(seq)
        assert np.all(h == 0.0)
        assert np.all(final_tanh_c(layer, seq) == 0.0)

    def test_hand_evaluated_single_step(self):
        layer = LstmLayer(1, 1, np.random.default_rng(0))
        for p in layer.params.values():
            p[...] = 0.0
        layer.params["W"][0, GATE_COLUMN["i"]] = 1.0
        seq = np.array([[[1.0]]])
        h = layer.forward(seq)
        # i = sigmoid(1) ~ 0.7311, g = tanh(0) = 0 -> c = 0, h = 0
        assert final_tanh_c(layer, seq)[0, 0] == 0.0
        assert h[0, 0] == 0.0

    def test_hand_evaluated_with_cell_input(self):
        layer = LstmLayer(1, 1, np.random.default_rng(0))
        for p in layer.params.values():
            p[...] = 0.0
        layer.params["W"][0, GATE_COLUMN["i"]] = 1.0
        layer.params["W"][0, GATE_COLUMN["g"]] = 1.0
        seq = np.array([[[1.0]]])
        h = layer.forward(seq)
        i = 1 / (1 + np.exp(-1.0))
        g = np.tanh(1.0)
        c = i * g
        assert abs(final_tanh_c(layer, seq)[0, 0] - np.tanh(c)) < 1e-12
        assert abs(h[0, 0] - 0.5 * np.tanh(c)) < 1e-12  # o = sigmoid(0) = 0.5

    def test_hidden_state_bounded(self):
        rng = np.random.default_rng(0)
        layer = LstmLayer(3, 5, rng)
        h = layer.forward(rng.normal(size=(1, 20, 3)) * 10)
        assert np.all(np.abs(h) <= 1.0)

    def test_gate_activations_bounded(self):
        """The gates that reproduce the layer's state after every step lie
        in (0, 1), and the cell candidate in (-1, 1)."""
        rng = np.random.default_rng(4)
        layer = LstmLayer(2, 3, rng)
        seq = rng.normal(size=(2, 6, 2))
        p, hsz = lstm_views(layer, layer.params["W"]), layer.hidden
        h = c = np.zeros((2, hsz))
        for t in range(seq.shape[1]):
            pre = seq[:, t] @ p["Wx"] + h @ p["Wh"] + p["b"]
            i, f, o = (sigmoid(pre[:, k * hsz : (k + 1) * hsz]) for k in (0, 1, 3))
            g = np.tanh(pre[:, 2 * hsz : 3 * hsz])
            for gate in (i, f, o):
                assert np.all((gate > 0) & (gate < 1))
            assert np.all((g > -1) & (g < 1))
            c = f * c + i * g
            h = o * np.tanh(c)
            np.testing.assert_allclose(layer.forward(seq, last=np.full(2, t)), h, rtol=0, atol=1e-12)

    def test_dimension_mismatch(self):
        layer = LstmLayer(3, 4, np.random.default_rng(0))
        with pytest.raises(ElmDetectError, match="expected input dim 3, got 2"):
            layer.forward(np.ones((1, 5, 2)))

    def test_bptt_matches_finite_differences(self):
        for seed in range(3):
            rng = np.random.default_rng(seed + 100)
            layer = LstmLayer(3, 4, rng)
            seq = rng.normal(size=(2, 5, 3))
            proj = rng.normal(size=(2, 4))
            loss = projection_loss(lambda: layer.forward(seq), proj)
            loss()
            zero_grads(layer)
            dseq = layer.backward(proj)
            for name, p in layer.params.items():
                assert grads_close(layer.grads[name], numeric_grad(loss, p)), name
            assert grads_close(dseq, numeric_grad(loss, seq))

    def test_bptt_with_rows_ending_at_different_steps(self):
        for seed, last in ((0, [4, 0, 2]), (1, [1, 3, 1]), (2, [0, 0, 4])):
            rng = np.random.default_rng(seed + 200)
            layer = LstmLayer(3, 4, rng)
            seq = rng.normal(size=(3, 5, 3))
            proj = rng.normal(size=(3, 4))
            loss = projection_loss(lambda: layer.forward(seq, last=np.array(last)), proj)
            loss()
            zero_grads(layer)
            dseq = layer.backward(proj)
            for name, p in layer.params.items():
                assert grads_close(layer.grads[name], numeric_grad(loss, p)), name
            assert grads_close(dseq, numeric_grad(loss, seq))
            for b, end in enumerate(last):
                assert np.all(dseq[b, end + 1 :] == 0.0)

    def test_row_read_at_last_step_ignores_later_steps(self):
        rng = np.random.default_rng(7)
        layer = LstmLayer(3, 4, rng)
        seq = rng.normal(size=(2, 6, 3))
        h = layer.forward(seq, last=np.array([2, 5]))
        # a batch of one may round differently in the matmuls
        np.testing.assert_allclose(h[0], layer.forward(seq[:1, :3])[0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(h[1], layer.forward(seq[1:])[0], rtol=0, atol=1e-12)

    def test_default_reads_every_row_after_the_final_step(self):
        rng = np.random.default_rng(8)
        layer = LstmLayer(3, 4, rng)
        seq = rng.normal(size=(3, 5, 3))
        proj = rng.normal(size=(3, 4))
        h = layer.forward(seq)
        dseq = layer.backward(proj)
        grads = [g.copy() for g in layer.grads.values()]
        zero_grads(layer)
        assert np.array_equal(h, layer.forward(seq, last=np.array([4, 4, 4])))
        assert np.array_equal(dseq, layer.backward(proj))
        for g, again in zip(grads, layer.grads.values()):
            assert np.array_equal(g, again)

    @ORACLE_CASES
    def test_matches_the_per_step_oracle(self, batch, steps, in_dim, hidden, last):
        check_lstm_against_the_oracle(batch, steps, in_dim, hidden, last, np.float64)

    @ORACLE_CASES
    def test_float32_input_matches_the_per_step_oracle(self, batch, steps, in_dim, hidden, last):
        check_lstm_against_the_oracle(batch, steps, in_dim, hidden, last, np.float32)

    def test_second_backward_raises(self):
        rng = np.random.default_rng(5)
        layer = LstmLayer(3, 4, rng)
        layer.forward(rng.normal(size=(2, 5, 3)))
        layer.backward(np.ones((2, 4)))
        with pytest.raises(RuntimeError):
            layer.backward(np.ones((2, 4)))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize(
        "batch, steps, last",
        [
            (2, 1, [0, 0]),
            (2, 9, [8, 0]),
            (4, 7, [6, 0, 3, 3]),
            (5, 33, [32, 1, 17, 0, 32]),
            (7, 20, [0, 19, 5, 0, 12, 5, 2]),
            (32, 98, None),
        ],
        ids=["b2_t1", "b2_one_row_runs_on", "b4_rows_end_apart", "b5_rows_end_apart", "b7_lone_longest", "b32_t98"],
    )
    def test_eval_forward_equals_the_training_forward(self, batch, steps, last, dtype):
        """Bit for bit: with two rows or more, projecting each step's input
        on its own, over only the rows still running (at least two), gives
        the same bits as projecting every step of every row at once. A lone
        longest row runs its late steps beside one row that has ended."""
        rng = np.random.default_rng(steps)
        layer = LstmLayer(64, 100, rng)
        seq = rng.normal(size=(batch, steps, 64)).astype(dtype)
        last = None if last is None else np.array(last)
        out = layer.forward(seq, last, train=False)
        assert out.dtype == dtype
        assert np.array_equal(out, layer.forward(seq, last))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("steps, last", [(1, 0), (2, 1), (9, 4), (98, 97)])
    def test_one_row_eval_forward_agrees_with_the_training_forward(self, steps, last, dtype):
        """A one-row step is a matrix-vector product, which may round
        differently from the training forward's one GEMM over all steps."""
        rng = np.random.default_rng(steps + 300)
        layer = LstmLayer(64, 100, rng)
        seq = rng.normal(size=(1, steps, 64)).astype(dtype)
        want = layer.forward(seq, np.array([last]))
        assert_matches_oracle(layer.forward(seq, np.array([last]), train=False), want, dtype)

    def test_eval_forward_steps_only_the_rows_still_running(self, monkeypatch):
        """A step of the eval loop computes max(running, 2) rows, where a
        training step computes every row."""
        rows = []

        def counting_cell(a, *args):
            rows.append(len(a))
            return cell(a, *args)

        cell = network._lstm_cell
        monkeypatch.setattr(network, "_lstm_cell", counting_cell)
        rng = np.random.default_rng(7)
        layer = LstmLayer(8, 6, rng)
        last = np.array([3, 0, 9, 3, 0, 1, 3])
        seq = rng.normal(size=(7, 10, 8)).astype(np.float32)
        layer.forward(seq, last, train=False)
        running = [np.count_nonzero(last >= t) for t in range(10)]
        assert running == [7, 5, 4, 4, 1, 1, 1, 1, 1, 1]
        assert rows == [max(n, 2) for n in running]
        rows.clear()
        layer.forward(seq, last)
        assert rows == [7] * 10

    def test_backward_after_an_eval_forward_raises(self):
        rng = np.random.default_rng(6)
        layer = LstmLayer(3, 4, rng)
        layer.forward(rng.normal(size=(2, 5, 3)))
        layer.forward(rng.normal(size=(2, 5, 3)), train=False)
        with pytest.raises(RuntimeError):
            layer.backward(np.ones((2, 4)))

    def test_eval_forward_memory_does_not_grow_with_the_length(self):
        """A 32-row float64 eval forward holds one step of state and one
        scaled copy of W, so 200 steps peak as high as 20, under 1 MiB (a
        training forward keeps all T steps: about 4 MB at 20 steps and 34 MB
        at 200)."""
        rng = np.random.default_rng(9)
        layer = LstmLayer(64, 100, rng)
        peaks = []
        for steps in (20, 100, 200):
            seq = rng.normal(size=(32, steps, 64))
            tracemalloc.start()
            try:
                layer.forward(seq, train=False)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) - min(peaks) < 2**14, peaks
        assert max(peaks) < 2**20, peaks

    @pytest.mark.parametrize("last", [[0, 5], [-1, 2], [1, 2, 3]])
    def test_last_out_of_range_rejected(self, last):
        layer = LstmLayer(3, 4, np.random.default_rng(0))
        with pytest.raises(ValueError):
            layer.forward(np.ones((2, 5, 3)), last=np.array(last))


class TestDenseHead:
    def test_zero_weights_give_half(self):
        head = DenseHead(4, np.random.default_rng(0))
        head.params["w"][...] = 0.0
        assert head.forward(np.ones((1, 4))).tolist() == [0.5]

    def test_large_bias_saturates(self):
        head = DenseHead(2, np.random.default_rng(0))
        head.params["w"][...] = 0.0
        head.params["b"][...] = 20.0
        p = head.forward(np.zeros((1, 2)))
        assert p.shape == (1,)
        assert abs(p[0] - 0.9999999979388463) < 1e-12

    def test_output_in_open_interval(self):
        # model logits are O(1): h is bounded by 1 and features lie in [0,1]
        rng = np.random.default_rng(0)
        head = DenseHead(6, rng)
        p = head.forward(rng.normal(size=(20, 6)) * 5)
        assert np.all((p > 0.0) & (p < 1.0))

    def test_dimension_mismatch(self):
        head = DenseHead(3, np.random.default_rng(0))
        with pytest.raises(ElmDetectError, match="expected input dim 3, got 5"):
            head.forward(np.ones((1, 5)))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        head = DenseHead(5, rng)
        z = rng.normal(size=(3, 5))
        proj = rng.normal(size=(3,))
        loss = projection_loss(lambda: head.forward(z), proj)
        loss()
        zero_grads(head)
        dz = head.backward(proj)
        assert grads_close(head.grads["w"], numeric_grad(loss, head.params["w"]))
        assert grads_close(head.grads["b"], numeric_grad(loss, head.params["b"]))
        assert grads_close(dz, numeric_grad(loss, z))


class TestDenseLayer:
    def test_gradients(self):
        rng = np.random.default_rng(13)
        layer = DenseLayer(4, 3, rng=rng)
        x = rng.normal(size=(3, 4)) + 0.5
        layer.forward(x)
        assert np.abs(layer._pre).min() > 1e-3  # smooth case for this seed
        proj = rng.normal(size=(3, 3))
        loss = projection_loss(lambda: layer.forward(x), proj)
        loss()
        zero_grads(layer)
        dx = layer.backward(proj)
        assert grads_close(layer.grads["W"], numeric_grad(loss, layer.params["W"]))
        assert grads_close(layer.grads["b"], numeric_grad(loss, layer.params["b"]))
        assert grads_close(dx, numeric_grad(loss, x))


class TestNetwork:
    def test_backward_without_a_text_path_matches_finite_differences(self):
        """The network of a variant without a text path runs in float64 end
        to end: after `backward_logit` of the cross-entropy gradient p - y,
        every entry of `grads` matches central differences of `bce_loss`."""
        rng = np.random.default_rng(1)
        net = Network(None, 10, rng)
        ids, feats = np.zeros((8, 0), np.int64), rng.random((8, 10))
        y = rng.integers(0, 2, 8).astype(float)
        p = net.forward(ids, feats, train=True)
        assert np.abs(net.hidden._pre).min() > 1e-3  # smooth case for this seed
        net.backward_logit((p - y) / len(y))
        loss = lambda: bce_loss(net.forward(ids, feats, train=True), y)
        assert grads_close(net.grads, numeric_grad(loss, net.params))


def test_float32_input_computes_in_float32_into_float64_gradients():
    rng = np.random.default_rng(31)
    conv, lstm, dropout = ConvLayer(4, 3, 5, rng=rng), LstmLayer(4, 6, rng), DropoutLayer()
    emb = rng.normal(size=(2, 7, 5)).astype(np.float32)
    fmap = conv.forward(emb)
    dropped = dropout.forward(fmap, train=True, rng=rng)
    h = lstm.forward(dropped, last=np.array([4, 2]))
    assert fmap.dtype == dropped.dtype == h.dtype == np.float32
    dfmap = dropout.backward(lstm.backward(np.ones((2, 6))))
    demb = conv.backward(dfmap)
    assert dfmap.dtype == demb.dtype == np.float32
    for layer in (conv, lstm):
        for name, p in layer.params.items():
            assert p.dtype == layer.grads[name].dtype == np.float64, name
            assert np.any(layer.grads[name] != 0.0), name


def test_dropout_draws_the_same_stream_and_mask_in_either_dtype():
    x = np.random.default_rng(0).normal(size=(3, 50))
    masks = []
    for dtype in (np.float64, np.float32):
        layer, rng = DropoutLayer(), np.random.default_rng(5)
        layer.forward(x.astype(dtype), train=True, rng=rng)
        masks.append(layer.backward(np.ones(x.shape, dtype)))
        assert masks[-1].dtype == dtype
        assert rng.random() == np.random.default_rng(5).random(x.size + 1)[-1]  # one float64 draw per entry
    np.testing.assert_array_equal(masks[0] == 0, masks[1] == 0)


def test_sigmoid_overflow_safe():
    big = np.array([-1000.0, 0.0, 1000.0])
    out = sigmoid(big)
    assert out[0] == 0.0 and out[1] == 0.5 and out[2] == 1.0
    assert np.all(np.isfinite(out))


def test_forward_backward_deterministic():
    def run():
        rng = np.random.default_rng(77)
        layer = LstmLayer(3, 4, rng)
        seq = rng.normal(size=(2, 6, 3))
        out = layer.forward(seq)
        zero_grads(layer)
        layer.backward(np.ones((2, 4)))
        return out.copy(), {k: v.copy() for k, v in layer.grads.items()}

    out1, grads1 = run()
    out2, grads2 = run()
    assert np.array_equal(out1, out2)
    for k in grads1:
        assert np.array_equal(grads1[k], grads2[k])
