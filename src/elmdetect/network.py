"""Minimal tensor/layer engine: forward passes and exact analytic gradients.

Layers take arrays with a leading batch dimension and cache whatever the
backward pass needs. The convolution and the LSTM, whose caches grow with
the sequence, cache only in a training forward (``train=True``, the
default): an eval forward keeps nothing, and a backward after it raises
``RuntimeError``. An eval forward of the convolution takes one embedding
row per distinct token id and each position's index into them, and runs
its GEMMs over those rows only; an eval forward of the LSTM runs each step
over only the rows still running at it. So in eval the largest arrays are
the convolution's output and one tap's gathered products, and the
embeddings are one row per distinct id. Parameters and their gradients are
float64. The convolution, dropout and LSTM compute in the dtype of their
input: they cast their parameters to it at forward, keep their caches in
it, and add their gradients into the float64 ``grads`` dicts, so float32
input gives float32 compute over float64 master weights (Micikevicius et
al., "Mixed Precision Training", arXiv:1710.03740). ``Network`` feeds them
float32 in every forward: training steps, validation and scoring alike.
Every backward returns the gradient w.r.t. the layer input. A single
example is a batch of one, but then the LSTM's GEMMs run as GEMVs, which
round differently, so ``training`` scores a lone row as a batch of two
copies. Each layer stores its weights in the layout its GEMMs read, so no
forward or backward restacks them: the convolution one ``(dim, kernel *
F)`` tap matrix, the LSTM one ``(in_dim + 1 + H, 4H)`` matrix whose rows
match its ``[x, 1, h]`` inputs. In a ``Network`` the layers' ``params``
and ``grads`` dicts hold views into the model's one flat parameter buffer
and one flat gradient buffer, so layers update those arrays only in place,
and ``train`` zeroes every gradient with one ``fill`` per step.

``Network`` chains the layers in two fixed steps: ``text_states``
(embedding, convolution, dropout, recurrence) and then ``fuse`` (the
optional feature layer, concatenation, sigmoid head). So explicit per-layer
backprop is used instead of a general autodiff graph; tests verify every
layer, and the network without a text path as a whole, against central
finite differences.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import ElmDetectError

EMBEDDING_DIM = 100
CONV_FILTERS = 64
KERNEL_SIZE = 3
LSTM_UNITS = 100
DROPOUT_RATE = 0.5
FEATURE_HIDDEN = 32  # units of the dense ReLU layer of a variant without a text path

PAD_INDEX = 0
OOV_INDEX = 1


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function as 0.5 + 0.5 tanh(x/2): one ufunc, and tanh
    saturates to +-1 instead of overflowing."""
    return 0.5 + 0.5 * np.tanh(0.5 * np.asarray(x, dtype=np.float64))


def _glorot(rng: np.random.Generator, shape, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def _one_block(dtype, *shapes: tuple[int, ...]) -> list[np.ndarray]:
    """Empty arrays of the given shapes and dtype, laid end to end in one
    allocation.

    A layer cache of several large arrays, freed after each backward, is
    partly handed back to the operating system, and the next batch faults
    those pages in afresh; one block of the same total size is kept and
    reused by the allocator.
    """
    sizes = [math.prod(shape) for shape in shapes]
    block = np.empty(sum(sizes), dtype)
    starts = np.cumsum([0, *sizes])
    return [block[lo : lo + n].reshape(shape) for lo, n, shape in zip(starts, sizes, shapes)]


def _lstm_cell(a, c_prev, c, h, scale, shift) -> None:
    """One LSTM step over the rows of ``a``, their gate pre-activations with
    the i/f/o columns halved: overwrites ``a`` with the gate activations and
    writes the new cell state into ``c``, which may be ``c_prev``, and the
    new hidden state into ``h``."""
    np.tanh(a, out=a)
    a *= scale
    a += shift
    i, f, g, o = a.reshape(len(a), 4, -1).transpose(1, 0, 2)
    np.multiply(f, c_prev, out=c)
    c += i * g
    np.multiply(o, np.tanh(c), out=h)


class Layer:
    """Base: ordered parameter dict plus matching gradient accumulators."""

    def __init__(self):
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}

    def _register(self, name: str, value: np.ndarray) -> np.ndarray:
        value = np.ascontiguousarray(value, dtype=np.float64)
        self.params[name] = value
        self.grads[name] = np.zeros_like(value)
        return value


class EmbeddingTable(Layer):
    """Token-id lookup table. Row 0 is padding: all zeros, zero gradient."""

    def __init__(self, vocab_size: int, dim: int, rng: np.random.Generator):
        super().__init__()
        self.vocab_size = vocab_size
        self.dim = dim
        weights = rng.uniform(-0.05, 0.05, size=(vocab_size, dim))
        weights[PAD_INDEX] = 0.0
        self._register("weights", weights)
        self._ids: np.ndarray | None = None

    def _check(self, ids: np.ndarray) -> None:
        if ids.size and (ids.min() < 0 or ids.max() >= self.vocab_size):
            raise ElmDetectError(
                f"token ids must lie in [0, {self.vocab_size}), got range "
                f"[{ids.min()}, {ids.max()}]"
            )

    def forward(self, ids: np.ndarray) -> np.ndarray:
        ids = np.asarray(ids)
        self._check(ids)
        self._ids = ids
        return self.params["weights"][ids]

    def distinct(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The distinct ids of ``ids``, ascending, and the index of each
        position's id among them, so that ``rows[index]`` equals ``ids``.

        They are found with a presence mask over the vocabulary, after the
        range check, so that a negative id raises instead of wrapping
        around. ``np.unique`` would sort every position, and its first call
        in a process added about 0.6 MB of resident memory, the mask 0.05 MB.
        """
        ids = np.asarray(ids)
        self._check(ids)
        present = np.zeros(self.vocab_size, bool)
        present[ids] = True
        rows = np.flatnonzero(present)
        slot = np.empty(self.vocab_size, np.intp)
        slot[rows] = np.arange(rows.size)
        return rows, slot[ids]

    def backward(self, dout: np.ndarray) -> None:
        # one segment sum over the rows sorted by id; padding, the smallest
        # id, sorts first and is skipped, since its row has zero gradient
        ids = self._ids.reshape(-1)
        order = np.argsort(ids, kind="stable")
        sorted_ids = ids[order]
        first = np.searchsorted(sorted_ids, PAD_INDEX + 1)
        order, sorted_ids = order[first:], sorted_ids[first:]
        starts = np.flatnonzero(np.diff(sorted_ids, prepend=PAD_INDEX))
        rows = dout.reshape(-1, self.dim)[order].astype(np.float64, copy=False)
        self.grads["weights"][sorted_ids[starts]] += np.add.reduceat(rows, starts, axis=0)
        return None


class ConvLayer(Layer):
    """Valid 1-D convolution over the token axis, ReLU activation.

    The filters are stored as one tap matrix ``taps (dim, kernel * F)``:
    column ``j * F + f`` is tap ``j`` of filter ``f``. Forward multiplies the
    embedding of every position by each tap's block of ``F`` columns, one
    GEMM ``(B * L, dim) @ (dim, F)`` per tap, and adds tap
    ``j``'s output taken ``j`` positions later to the bias (the kn2row scheme
    of Vasudevan et al., arXiv:1704.04428), so no window is copied. One GEMM
    for all taps at once is no faster, and its ``(B, L, kernel * F)``
    temporary raised the peak memory of a run. Backward writes the output
    gradient into those shifted blocks of one zeroed ``(B, L, kernel * F)``
    array and gets the filter gradient and the input gradient from one GEMM
    each. An eval forward (``train=False``) keeps neither the input nor the
    pre-activation and applies the ReLU in place.

    ``forward(table, train, index)`` convolves ``table[index]``: ``table``
    holds ``U`` embedding rows and ``index (B, L)`` each position's row in
    it. An eval forward then runs each tap's GEMM over the ``U`` rows only,
    never fewer than two, and gathers each position's product by its row
    index, so a batch whose positions repeat few distinct tokens costs ``U``
    rows of GEMM, not ``B * L`` (the pre-computed hidden layer of Devlin et
    al., ACL 2014, §3.3). A GEMM of two rows or more rounds each row the
    same whatever its row count, and the taps are added in the same order,
    so the result is the same bits as the forward of ``table[index]``. Its
    largest arrays are the output and one tap's gathered products. A
    training forward gathers ``table[index]`` first, since its backward
    needs every position's input.
    """

    def __init__(self, n_filters: int, kernel_size: int, in_dim: int, rng: np.random.Generator):
        super().__init__()
        self.n_filters = n_filters
        self.kernel_size = kernel_size
        self.in_dim = in_dim
        filters = _glorot(rng, (n_filters, kernel_size, in_dim), kernel_size * in_dim, n_filters)
        self._register("taps", filters.transpose(2, 1, 0).reshape(in_dim, -1))
        self._register("bias", np.zeros(n_filters))
        self._emb: np.ndarray | None = None
        self._pre: np.ndarray | None = None

    def forward(self, emb: np.ndarray, train: bool = True, index: np.ndarray | None = None) -> np.ndarray:
        if index is not None and train:
            emb, index = emb[index], None
        batch, length = emb.shape[:2] if index is None else index.shape
        dim = emb.shape[-1]
        h, nf = self.kernel_size, self.n_filters
        if length < h:
            raise ElmDetectError(f"sequence length {length} < kernel size {h}")
        if dim != self.in_dim:
            raise ElmDetectError(f"expected embedding dim {self.in_dim}, got {dim}")
        out_len = length - h + 1
        self._emb = self._pre = None
        w = self.params["taps"].astype(emb.dtype, copy=False)
        pre = np.empty((batch, out_len, nf), emb.dtype)
        pre[...] = self.params["bias"]
        if index is None:
            flat = emb.reshape(-1, dim)
            for j in range(h):
                pre += (flat @ w[:, j * nf : (j + 1) * nf]).reshape(batch, length, nf)[:, j : j + out_len]
        else:
            table = np.repeat(emb, 2, axis=0) if len(emb) == 1 else emb  # one row would run as a GEMV
            for j in range(h):
                pre += (table @ w[:, j * nf : (j + 1) * nf])[index[:, j : j + out_len]]
        if not train:
            return np.maximum(pre, 0.0, out=pre)
        self._emb = emb
        self._pre = pre
        return np.maximum(pre, 0.0)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        if self._pre is None:
            raise RuntimeError("ConvLayer.backward needs a train-mode forward first")
        h, nf, dim = self.kernel_size, self.n_filters, self.in_dim
        emb, pre = self._emb, self._pre
        batch, length, _ = emb.shape
        out_len = pre.shape[1]
        dpre = dout * (pre > 0)
        dtaps = np.zeros((batch, length, h * nf), emb.dtype)
        for j in range(h):
            dtaps[:, j : j + out_len, j * nf : (j + 1) * nf] = dpre
        dtaps = dtaps.reshape(-1, h * nf)
        self.grads["taps"] += emb.reshape(-1, dim).T @ dtaps
        self.grads["bias"] += dpre.reshape(-1, nf).sum(axis=0)
        return (dtaps @ self.params["taps"].astype(emb.dtype, copy=False).T).reshape(batch, length, dim)


class DropoutLayer:
    """Inverted dropout at DROPOUT_RATE: survivors are scaled by
    1/(1 - DROPOUT_RATE); eval is identity."""

    def __init__(self):
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, train: bool, rng: np.random.Generator | None = None) -> np.ndarray:
        if not train:
            self._mask = None
            return x
        # float64 draws whatever the dtype, so the random stream is the same
        self._mask = np.divide(rng.random(x.shape) >= DROPOUT_RATE, 1.0 - DROPOUT_RATE, dtype=x.dtype)
        return x * self._mask

    def backward(self, dout: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return dout
        return dout * self._mask


class LstmLayer(Layer):
    """Single-layer LSTM returning each row's hidden state at its last real
    step.

    The four gates (input, forget, cell, output) are stacked, in that order,
    along the last axis of one parameter ``W (in_dim + 1 + H, 4H)``, whose
    rows are ``[Wx; b; Wh]``: the input weights, the bias and the recurrent
    weights. A training forward projects the input of every step with one
    GEMM of the rows ``[x_t, 1]`` by ``W[: in_dim + 1]``, bias included
    (Appleyard et al. 2016, arXiv:1604.01946); each step then does one
    recurrent GEMM by ``W[in_dim + 1 :]`` and one ``tanh`` over all four
    gates, since sigmoid(x) = 0.5 + 0.5 tanh(x/2) and the i/f/o columns are
    halved first (exact in binary). The cache is time-major, ``(T, B, .)``,
    so a step reads and writes contiguous blocks. Each cached input row is
    ``[x_t, 1, h_(t-1)]``, the operand of both the input projection and the
    gradient of ``W``.

    ``forward(seq, last, train=False)`` keeps no history and no cache. It
    orders the rows by ``last``, longest first, so the rows still running at
    a step are a prefix of that order, and each step projects the input of
    only those rows, but never fewer than two, and runs their recurrent GEMM
    and gate arithmetic (the variable-length batches of Appleyard et al.).
    It holds one step of each row, in one allocation, whatever the length.
    For two rows or more a GEMM gives the same bits per row whatever its row
    count, so eval and training forwards agree exactly.

    ``forward(seq, last)`` returns ``h`` of row ``b`` after step ``last[b]``;
    steps past it are padding, and neither reach the output nor receive
    gradient. Without ``last`` every row is read after the final step.

    Backward is full backprop through time. Its loop keeps only the
    recurrent GEMM and the gate arithmetic and writes each step's gate
    gradient over that step's cached activations; after the loop one GEMM
    gives ``W``'s gradient and one more the input's. It consumes the cache:
    a second ``backward`` needs a new training ``forward``.
    """

    def __init__(self, in_dim: int, hidden: int, rng: np.random.Generator):
        super().__init__()
        self.in_dim = in_dim
        self.hidden = hidden
        # one gate block at a time, in gate order
        wx = np.hstack([_glorot(rng, (in_dim, hidden), in_dim, hidden) for _ in range(4)])
        wh = np.hstack([_glorot(rng, (hidden, hidden), hidden, hidden) for _ in range(4)])
        b = np.zeros(4 * hidden)
        b[hidden : 2 * hidden] = 1.0  # forget bias 1.0 keeps early cell memory open on short sequences
        self._register("W", np.vstack([wx, b, wh]))
        # tanh of the scaled pre-activation, times scale, plus shift, is each gate
        self._scale = np.repeat([0.5, 0.5, 1.0, 0.5], hidden)
        self._shift = np.repeat([0.5, 0.5, 0.0, 0.5], hidden)
        self._is_tanh = np.repeat([0.0, 0.0, 1.0, 0.0], hidden)
        self._cache: tuple | None = None

    def forward(self, seq: np.ndarray, last: np.ndarray | None = None, train: bool = True) -> np.ndarray:
        batch, steps, dim = seq.shape
        if dim != self.in_dim:
            raise ElmDetectError(f"expected input dim {self.in_dim}, got {dim}")
        if steps < 1:
            raise ElmDetectError("LSTM needs at least one timestep")
        last = np.full(batch, steps - 1) if last is None else np.asarray(last)
        if last.shape != (batch,) or np.any((last < 0) | (last >= steps)):
            raise ValueError(f"last must hold one step in [0, {steps}) for each of {batch} rows")
        self._cache = None  # frees the last forward's arrays before this one allocates
        dtype, hsz = seq.dtype, self.hidden
        scale, shift = self._scale.astype(dtype), self._shift.astype(dtype)
        w = np.multiply(self.params["W"], scale, dtype=dtype)
        wx, wh = w[: dim + 1], w[dim + 1 :]
        order = np.argsort(last, kind="stable")
        ends = np.searchsorted(last[order], np.arange(steps + 1))  # order[ends[t] : ends[t + 1]] end at step t
        if not train:
            return self._packed_forward(seq, wx, wh, order[::-1], (batch - ends).tolist(), scale, shift)
        xh, acts, cs = _one_block(
            dtype, (steps + 1, batch, dim + 1 + hsz), (steps, batch, 4 * hsz), (steps + 1, batch, hsz)
        )
        xh[:, :, dim] = 1.0
        xh[0, :, dim + 1 :] = cs[0] = 0.0
        hs = xh[:, :, dim + 1 :]  # hs[t + 1] is h after step t
        xh[:steps, :, :dim] = seq.transpose(1, 0, 2)
        # every step's input projection, bias included, in one GEMM
        np.matmul(xh[:steps, :, : dim + 1].reshape(-1, dim + 1), wx, out=acts.reshape(-1, 4 * hsz))
        for t in range(steps):
            if t:  # h before the first step is 0
                acts[t] += hs[t] @ wh
            _lstm_cell(acts[t], cs[t], cs[t + 1], hs[t + 1], scale, shift)
        self._cache = (xh, acts, cs, order, ends)
        return hs[last + 1, np.arange(batch)]

    def _packed_forward(self, seq, wx, wh, order, running, scale, shift) -> np.ndarray:
        """The eval loop over the rows in ``order``, longest first:
        ``running[t]`` of them are still running at step t, a prefix of that
        order, and the step computes the first ``max(running[t], 2)``."""
        batch, steps, dim = seq.shape
        hsz = self.hidden
        # r, the recurrent product, goes last: laid right after a, a 32-row
        # eval ran about 10% slower
        x, a, c, h, r = _one_block(
            seq.dtype, (batch, dim + 1), (batch, 4 * hsz), (batch, hsz), (batch, hsz), (batch, 4 * hsz)
        )
        x[:, dim] = 1.0
        c[...] = 0.0
        out = np.empty((batch, hsz), seq.dtype)
        for t in range(steps):
            if not running[t]:
                break
            n = min(batch, max(running[t], 2))
            xn, an, cn, hn = x[:n], a[:n], c[:n], h[:n]
            xn[:, :dim] = seq[order[:n], t]
            np.matmul(xn, wx, out=an)
            if t:  # h before the first step is 0
                an += np.matmul(hn, wh, out=r[:n])
            _lstm_cell(an, cn, cn, hn, scale, shift)
            done = running[t + 1]  # rows done..running[t] - 1 of the order end at step t
            out[order[done : running[t]]] = h[done : running[t]]
        return out

    def backward(self, dh_final: np.ndarray) -> np.ndarray:
        """Backprop of the gradient w.r.t. each row's returned state, which
        enters that row at its last real step."""
        if self._cache is None:
            raise RuntimeError("LstmLayer.backward needs a train-mode forward first; backward consumes its cache")
        xh, acts, cs, order, ends = self._cache
        self._cache = None
        steps, batch, _ = acts.shape
        dtype, hsz, dim, w = acts.dtype, self.hidden, self.in_dim, self.params["W"]
        wh_t = np.ascontiguousarray(w[dim + 1 :].T, dtype)
        is_tanh = self._is_tanh.astype(dtype)
        dh = np.zeros((batch, hsz), dtype)
        dc = np.zeros((batch, hsz), dtype)
        dact = np.empty((batch, 4 * hsz), dtype)  # gradient w.r.t. each gate's activation
        di, df, dg, do = dact.reshape(batch, 4, hsz).transpose(1, 0, 2)
        gates = acts.reshape(steps, batch, 4, hsz).transpose(0, 2, 1, 3)
        for t in range(steps - 1, -1, -1):
            rows = order[ends[t] : ends[t + 1]]
            if rows.size:
                dh[rows] += dh_final[rows]
            a, tanh_c = acts[t], np.tanh(cs[t + 1])  # recomputed: less memory than a cached copy
            i, f, g, o = gates[t]
            np.multiply(dh, tanh_c, out=do)
            dc += (dh - do * tanh_c) * o  # dh * o * (1 - tanh_c**2)
            np.multiply(dc, g, out=di)
            np.multiply(dc, cs[t], out=df)
            np.multiply(dc, i, out=dg)
            dc *= f
            # the gate gradient overwrites the activations: the derivative is
            # (1 - a) * a for a sigmoid gate and (1 - a) * (1 + a) for tanh
            deriv = 1.0 - a
            a += is_tanh
            a *= deriv
            a *= dact
            if t:  # the state before the first step is a constant
                dh = a @ wh_t
        dpre = acts.reshape(-1, 4 * hsz)
        self.grads["W"] += xh[:steps].reshape(-1, dim + 1 + hsz).T @ dpre
        return (dpre @ w[:dim].T.astype(dtype, copy=False)).reshape(steps, batch, dim).transpose(1, 0, 2)


class DenseLayer(Layer):
    """Fully connected layer with ReLU (the feature head's hidden layer)."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator):
        super().__init__()
        self.in_dim = in_dim
        self._register("W", _glorot(rng, (in_dim, out_dim), in_dim, out_dim))
        self._register("b", np.zeros(out_dim))
        self._x: np.ndarray | None = None
        self._pre: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.shape[1] != self.in_dim:
            raise ElmDetectError(f"expected input dim {self.in_dim}, got {x.shape[1]}")
        self._x = x
        pre = x @ self.params["W"] + self.params["b"]
        self._pre = pre
        return np.maximum(pre, 0.0)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        dpre = dout * (self._pre > 0)
        self.grads["W"] += self._x.T @ dpre
        self.grads["b"] += dpre.sum(axis=0)
        return dpre @ self.params["W"].T


class DenseHead(Layer):
    """Final fully connected layer with sigmoid activation: one probability.

    The logit is a sum over each row of ``z * w``, not the GEMV ``z @ w``:
    the GEMV rounds a row differently depending on how many rows it is
    given, and a score must not depend on the batching.
    """

    def __init__(self, in_dim: int, rng: np.random.Generator):
        super().__init__()
        self.in_dim = in_dim
        self._register("w", _glorot(rng, (in_dim,), in_dim, 1))
        self._register("b", np.zeros(1))
        self._z: np.ndarray | None = None
        self._p: np.ndarray | None = None

    def forward(self, z: np.ndarray) -> np.ndarray:
        if z.shape[1] != self.in_dim:
            raise ElmDetectError(f"expected input dim {self.in_dim}, got {z.shape[1]}")
        self._z = z
        p = sigmoid((z * self.params["w"]).sum(axis=1) + self.params["b"][0])
        self._p = p
        return p

    def backward(self, dprob: np.ndarray) -> np.ndarray:
        p = self._p
        return self.backward_logit(dprob * p * (1.0 - p))

    def backward_logit(self, dlogit: np.ndarray) -> np.ndarray:
        """Backward from the pre-sigmoid gradient (used with the fused
        cross-entropy gradient p - y)."""
        self.grads["w"] += self._z.T @ dlogit
        self.grads["b"] += np.array([dlogit.sum()])
        return dlogit[:, None] * self.params["w"][None, :]


class Network:
    """The model of one variant: a text path, then a fusion.

    ``text_states`` runs embedding -> conv -> dropout -> LSTM over the token
    ids and gives each row's final LSTM state; ``fuse`` runs the feature
    layer, when there is one, joins the states with the features and
    applies the sigmoid head. A network built without a vocabulary has no
    text path, and its states are ``(n, 0)``. The dense ReLU feature layer
    is built when there is no text path.

    The layers are built, and draw from ``rng``, in ``layers`` order. Their
    parameters are then moved into one flat float64 array, ``params``, and
    their gradients into another, ``grads``, layer by layer in that order;
    each layer's ``params[name]`` and ``grads[name]`` become views into them.
    """

    def __init__(self, vocab_size: int | None, feature_dim: int, rng: np.random.Generator):
        text = vocab_size is not None
        self.layers: list[Layer] = []
        if text:
            self.embedding = EmbeddingTable(vocab_size, EMBEDDING_DIM, rng)
            self.conv = ConvLayer(CONV_FILTERS, KERNEL_SIZE, EMBEDDING_DIM, rng)
            self.dropout = DropoutLayer()
            self.lstm = LstmLayer(CONV_FILTERS, LSTM_UNITS, rng)
            self.layers += [self.embedding, self.conv, self.lstm]
        self.state_dim = LSTM_UNITS if text else 0
        self.hidden = None if text else DenseLayer(feature_dim, FEATURE_HIDDEN, rng)
        if self.hidden is not None:
            self.layers.append(self.hidden)
            feature_dim = FEATURE_HIDDEN
        self.head = DenseHead(self.state_dim + feature_dim, rng)
        self.layers.append(self.head)
        self.params = np.concatenate([p.reshape(-1) for layer in self.layers for p in layer.params.values()])
        self.grads = np.zeros_like(self.params)
        start = 0
        for layer in self.layers:
            for name, p in layer.params.items():
                end = start + p.size
                layer.params[name] = self.params[start:end].reshape(p.shape)
                layer.grads[name] = self.grads[start:end].reshape(p.shape)
                start = end

    def text_states(self, ids: np.ndarray, train: bool, rng=None) -> np.ndarray:
        """The float32 ``(n, state_dim)`` LSTM states of end-padded id rows.

        The batch is cut to its longest row (at least one conv window), and
        each row's state is read after its last conv window made only of
        real tokens, so the result does not depend on how far the rows were
        padded.

        Every forward, training or eval, runs the conv, dropout and LSTM in
        float32, about twice as fast, while the parameters, their gradients,
        Adam, the head and the probabilities stay float64. Per row, a GEMM
        of two rows or more gives the same float32 bits whatever its row
        count, but a one-row GEMM runs as a GEMV, which rounds differently;
        ``training`` never scores a one-row batch, and the head sums each row
        on its own, so a score does not depend on the batching.

        A training forward embeds every position, since the conv's backward
        needs each one. An eval forward embeds and casts one row per
        distinct id and passes the conv each position's row index, so the
        conv's GEMMs run once per distinct id; its scores are the same bits.
        """
        if not self.state_dim:
            return np.empty((len(ids), 0), np.float32)
        lengths = np.count_nonzero(ids != PAD_INDEX, axis=1)
        ids = ids[:, : max(KERNEL_SIZE, int(lengths.max()))]
        index = None
        if not train:
            ids, index = self.embedding.distinct(ids)
        fmap = self.conv.forward(self.embedding.forward(ids).astype(np.float32), train, index)
        fmap = self.dropout.forward(fmap, train=train, rng=rng)
        return self.lstm.forward(fmap, last=np.maximum(lengths - KERNEL_SIZE, 0), train=train)

    def fuse(self, states: np.ndarray, feats: np.ndarray) -> np.ndarray:
        """Probabilities from the text states and the scaled features."""
        if self.hidden is not None:
            feats = self.hidden.forward(feats)
        # An empty part is left out, not concatenated: concatenation would
        # make float64 copies of float32 states, and the head's weight
        # gradient `z.T @ dlogit` rounds differently for them.
        parts = [part for part in (states, feats) if part.shape[1]]
        return self.head.forward(np.concatenate(parts, axis=1) if len(parts) > 1 else parts[0])

    def forward(self, ids: np.ndarray, feats: np.ndarray, train: bool, rng=None) -> np.ndarray:
        """Probabilities for end-padded id rows and their scaled features."""
        return self.fuse(self.text_states(ids, train, rng), feats)

    def backward_logit(self, dlogit: np.ndarray) -> None:
        """Backward of the last training forward from the gradient of each
        row's pre-sigmoid logit, into ``grads``."""
        dz = self.head.backward_logit(dlogit)
        if self.hidden is not None:
            self.hidden.backward(dz[:, self.state_dim :])
        if self.state_dim:
            dfmap = self.dropout.backward(self.lstm.backward(dz[:, : self.state_dim]))
            self.embedding.backward(self.conv.backward(dfmap))
