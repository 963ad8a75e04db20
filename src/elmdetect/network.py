"""Minimal tensor/layer engine: forward passes and exact analytic gradients.

Layers take arrays with a leading batch dimension and cache whatever the
backward pass needs. The convolution and the LSTM, whose caches grow with
the sequence, cache only in a training forward (``train=True``, the
default): an eval forward keeps nothing, and a backward after it raises
``RuntimeError``. Parameters and their gradients are float64. The
convolution, dropout and LSTM compute in the dtype of their input: they cast
their parameters to it at forward, keep their caches in it, and add their
gradients into the float64 ``grads`` dicts, so float32 input gives float32
compute over float64 master weights (Micikevicius et al., "Mixed Precision
Training", arXiv:1710.03740). Every backward returns the gradient w.r.t. the
layer input. A single example is a batch of one. When ``training`` builds
the layers, their ``params`` and ``grads`` dicts hold views into the model's
one flat parameter buffer and one flat gradient buffer, so layers update
those arrays only in place, and ``train`` zeroes every gradient with one
``fill`` per step; ``zero_grads`` is for a layer used on its own.

The pipeline is a fixed chain (embedding, convolution, dropout, recurrence,
concatenation, sigmoid head), so explicit per-layer backprop is used instead
of a general autodiff graph; tests verify every layer against central finite
differences.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import (
    DimensionMismatchError,
    EmptySequenceError,
    IndexOutOfVocabError,
    SequenceTooShortError,
)

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


class Layer:
    """Base: ordered parameter dict plus matching gradient accumulators."""

    def __init__(self):
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}

    def _register(self, name: str, value: np.ndarray) -> np.ndarray:
        value = np.asarray(value, dtype=np.float64)
        self.params[name] = value
        self.grads[name] = np.zeros_like(value)
        return value

    def zero_grads(self) -> None:
        for g in self.grads.values():
            g[...] = 0.0


class EmbeddingTable(Layer):
    """Token-id lookup table. Row 0 is padding: all zeros, zero gradient."""

    def __init__(self, vocab_size: int, dim: int = EMBEDDING_DIM, rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.vocab_size = vocab_size
        self.dim = dim
        weights = rng.uniform(-0.05, 0.05, size=(vocab_size, dim))
        weights[PAD_INDEX] = 0.0
        self._register("weights", weights)
        self._ids: np.ndarray | None = None

    def forward(self, ids: np.ndarray) -> np.ndarray:
        ids = np.asarray(ids)
        if ids.size and (ids.min() < 0 or ids.max() >= self.vocab_size):
            raise IndexOutOfVocabError(
                f"token ids must lie in [0, {self.vocab_size}), got range "
                f"[{ids.min()}, {ids.max()}]"
            )
        self._ids = ids
        return self.params["weights"][ids]

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

    Forward multiplies the embedding of every position by each tap's
    filters, one GEMM ``(B * L, dim) @ (dim, F)`` per tap, and adds tap
    ``j``'s output taken ``j`` positions later to the bias (the kn2row scheme
    of Vasudevan et al., arXiv:1704.04428), so no window is copied. One GEMM
    for all taps at once is no faster, and its ``(B, L, kernel * F)``
    temporary raised the peak memory of a run. Backward writes the output
    gradient into those shifted blocks of one zeroed ``(B, L, kernel * F)``
    array and gets the filter gradient and the input gradient from one GEMM
    each. An eval forward (``train=False``) keeps neither the input nor the
    pre-activation and applies the ReLU in place.
    """

    def __init__(
        self,
        n_filters: int = CONV_FILTERS,
        kernel_size: int = KERNEL_SIZE,
        in_dim: int = EMBEDDING_DIM,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.n_filters = n_filters
        self.kernel_size = kernel_size
        self.in_dim = in_dim
        self._register(
            "filters",
            _glorot(rng, (n_filters, kernel_size, in_dim), kernel_size * in_dim, n_filters),
        )
        self._register("bias", np.zeros(n_filters))
        self._emb: np.ndarray | None = None
        self._pre: np.ndarray | None = None

    def _tap_matrix(self, dtype) -> np.ndarray:
        """The filters as ``(dim, kernel * F)``: column ``j * F + f`` is tap
        ``j`` of filter ``f``."""
        return self.params["filters"].transpose(2, 1, 0).reshape(self.in_dim, -1).astype(dtype)

    def forward(self, emb: np.ndarray, train: bool = True) -> np.ndarray:
        batch, length, dim = emb.shape
        h, nf = self.kernel_size, self.n_filters
        if length < h:
            raise SequenceTooShortError(f"sequence length {length} < kernel size {h}")
        if dim != self.in_dim:
            raise DimensionMismatchError(f"expected embedding dim {self.in_dim}, got {dim}")
        out_len = length - h + 1
        self._emb = self._pre = None
        flat, w = emb.reshape(-1, dim), self._tap_matrix(emb.dtype)
        pre = np.empty((batch, out_len, nf), emb.dtype)
        pre[...] = self.params["bias"]
        for j in range(h):
            pre += (flat @ w[:, j * nf : (j + 1) * nf]).reshape(batch, length, nf)[:, j : j + out_len]
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
        self.grads["filters"] += (emb.reshape(-1, dim).T @ dtaps).reshape(dim, h, nf).transpose(2, 1, 0)
        self.grads["bias"] += dpre.reshape(-1, nf).sum(axis=0)
        return (dtaps @ self._tap_matrix(emb.dtype).T).reshape(batch, length, dim)


class DropoutLayer:
    """Inverted dropout: survivors are scaled by 1/(1-rate); eval is identity."""

    def __init__(self, rate: float):
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, train: bool, rng: np.random.Generator | None = None) -> np.ndarray:
        if not train or self.rate == 0.0:
            self._mask = None
            return x
        # float64 draws whatever the dtype, so the random stream is the same
        self._mask = np.divide(rng.random(x.shape) >= self.rate, 1.0 - self.rate, dtype=x.dtype)
        return x * self._mask

    def backward(self, dout: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return dout
        return dout * self._mask


class LstmLayer(Layer):
    """Single-layer LSTM returning each row's hidden state at its last real
    step.

    The four gates (input, forget, cell, output) are stacked, in that order,
    along the last axis of three parameters: ``Wx (in_dim, 4H)``,
    ``Wh (H, 4H)`` and ``b (4H,)``. A training forward projects the input
    of every step with one GEMM before the loop, bias included (Appleyard et
    al. 2016, arXiv:1604.01946); each step then does one recurrent GEMM and
    one ``tanh`` over all four gates, since sigmoid(x) = 0.5 + 0.5 tanh(x/2)
    and the i/f/o columns are halved first (exact in binary). The cache is
    time-major, ``(T, B, .)``, so a step reads and writes contiguous blocks.
    Each cached input row is ``[x_t, 1, h_(t-1)]``, the operand of both the
    input projection and the weight gradient.

    ``forward(seq, last, train=False)`` runs the same loop but keeps no
    history and no cache: it projects each step's input on its own and holds
    one step's activations, two ``[x, 1, h]`` rows and two cell states,
    whatever the length. For two rows or more the GEMM gives the same bits
    per row either way, so eval and training forwards agree exactly.

    ``forward(seq, last)`` returns ``h`` of row ``b`` after step ``last[b]``;
    steps past it are padding, and neither reach the output nor receive
    gradient. Without ``last`` every row is read after the final step.

    Backward is full backprop through time. Its loop keeps only the
    recurrent GEMM and the gate arithmetic and writes each step's gate
    gradient over that step's cached activations; after the loop one GEMM
    gives ``Wx``, ``b`` and ``Wh``'s gradients and one more the input's. It
    consumes the cache: a second ``backward`` needs a new training
    ``forward``.
    """

    def __init__(
        self,
        in_dim: int,
        hidden: int = LSTM_UNITS,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.in_dim = in_dim
        self.hidden = hidden
        # one gate block at a time, in gate order
        self._register("Wx", np.hstack([_glorot(rng, (in_dim, hidden), in_dim, hidden) for _ in range(4)]))
        self._register("Wh", np.hstack([_glorot(rng, (hidden, hidden), hidden, hidden) for _ in range(4)]))
        b = np.zeros(4 * hidden)
        b[hidden : 2 * hidden] = 1.0  # forget bias 1.0 keeps early cell memory open on short sequences
        self._register("b", b)
        # tanh of the scaled pre-activation, times scale, plus shift, is each gate
        self._scale = np.repeat([0.5, 0.5, 1.0, 0.5], hidden)
        self._shift = np.repeat([0.5, 0.5, 0.0, 0.5], hidden)
        self._is_tanh = np.repeat([0.0, 0.0, 1.0, 0.0], hidden)
        self._cache: tuple | None = None

    def forward(self, seq: np.ndarray, last: np.ndarray | None = None, train: bool = True) -> np.ndarray:
        batch, steps, dim = seq.shape
        if dim != self.in_dim:
            raise DimensionMismatchError(f"expected input dim {self.in_dim}, got {dim}")
        if steps < 1:
            raise EmptySequenceError("LSTM needs at least one timestep")
        last = np.full(batch, steps - 1) if last is None else np.asarray(last)
        if last.shape != (batch,) or np.any((last < 0) | (last >= steps)):
            raise ValueError(f"last must hold one step in [0, {steps}) for each of {batch} rows")
        self._cache = None  # frees the last forward's arrays before this one allocates
        dtype, hsz = seq.dtype, self.hidden
        scale, shift = self._scale.astype(dtype), self._shift.astype(dtype)
        p = self.params
        w = np.vstack([p["Wx"], p["b"], p["Wh"]], dtype=dtype) * scale
        wx, wh = w[: dim + 1], w[dim + 1 :]
        order = np.argsort(last, kind="stable")
        ends_at = np.split(order, np.searchsorted(last[order], np.arange(1, steps)))  # rows by last step
        # Training keeps every step for backward. Eval keeps one step of
        # activations and the two rows of xh and cs that a step reads and
        # writes, so step t uses row t % n and fills row (t + 1) % n.
        kept = steps if train else 1
        n = kept + 1
        xh, acts, cs = _one_block(dtype, (n, batch, dim + 1 + hsz), (kept, batch, 4 * hsz), (n, batch, hsz))
        xh[:, :, dim] = 1.0
        xh[0, :, dim + 1 :] = cs[0] = 0.0
        hs = xh[:, :, dim + 1 :]  # hs[(t + 1) % n] is h after step t
        out = np.empty((batch, hsz), dtype)
        for t in range(steps):
            now, nxt, a = t % n, (t + 1) % n, acts[t % kept]
            if t % kept == 0:  # project the input of the next `kept` steps, bias included
                xh[now : now + kept, :, :dim] = seq[:, t : t + kept].transpose(1, 0, 2)
                np.matmul(xh[now : now + kept, :, : dim + 1].reshape(-1, dim + 1), wx, out=acts.reshape(-1, 4 * hsz))
            if t:  # h before the first step is 0
                a += hs[now] @ wh
            np.tanh(a, out=a)
            a *= scale
            a += shift
            i, f, g, o = a.reshape(batch, 4, hsz).transpose(1, 0, 2)
            np.multiply(f, cs[now], out=cs[nxt])
            cs[nxt] += i * g
            np.multiply(o, np.tanh(cs[nxt]), out=hs[nxt])
            rows = ends_at[t]
            if rows.size:
                out[rows] = hs[nxt, rows]
        if train:
            self._cache = (xh, acts, cs, ends_at)
        return out

    def backward(self, dh_final: np.ndarray) -> np.ndarray:
        """Backprop of the gradient w.r.t. each row's returned state, which
        enters that row at its last real step."""
        if self._cache is None:
            raise RuntimeError("LstmLayer.backward needs a train-mode forward first; backward consumes its cache")
        xh, acts, cs, ends_at = self._cache
        self._cache = None
        steps, batch, _ = acts.shape
        dtype, hsz, dim = acts.dtype, self.hidden, self.in_dim
        wh_t = np.ascontiguousarray(self.params["Wh"].T, dtype)
        is_tanh = self._is_tanh.astype(dtype)
        dh = np.zeros((batch, hsz), dtype)
        dc = np.zeros((batch, hsz), dtype)
        dact = np.empty((batch, 4 * hsz), dtype)  # gradient w.r.t. each gate's activation
        di, df, dg, do = dact.reshape(batch, 4, hsz).transpose(1, 0, 2)
        gates = acts.reshape(steps, batch, 4, hsz).transpose(0, 2, 1, 3)
        for t in range(steps - 1, -1, -1):
            rows = ends_at[t]
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
        dw = xh[:steps].reshape(-1, dim + 1 + hsz).T @ dpre
        self.grads["Wx"] += dw[:dim]
        self.grads["b"] += dw[dim]
        self.grads["Wh"] += dw[dim + 1 :]
        return (dpre @ self.params["Wx"].T.astype(dtype, copy=False)).reshape(steps, batch, dim).transpose(1, 0, 2)


class DenseLayer(Layer):
    """Fully connected layer with ReLU (the feature head's hidden layer)."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.in_dim = in_dim
        self._register("W", _glorot(rng, (in_dim, out_dim), in_dim, out_dim))
        self._register("b", np.zeros(out_dim))
        self._x: np.ndarray | None = None
        self._pre: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.shape[1] != self.in_dim:
            raise DimensionMismatchError(f"expected input dim {self.in_dim}, got {x.shape[1]}")
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
    """Final fully connected layer with sigmoid activation: one probability."""

    def __init__(self, in_dim: int, rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.in_dim = in_dim
        self._register("w", _glorot(rng, (in_dim,), in_dim, 1))
        self._register("b", np.zeros(1))
        self._z: np.ndarray | None = None
        self._p: np.ndarray | None = None

    def forward(self, z: np.ndarray) -> np.ndarray:
        if z.shape[1] != self.in_dim:
            raise DimensionMismatchError(f"expected input dim {self.in_dim}, got {z.shape[1]}")
        self._z = z
        p = sigmoid(z @ self.params["w"] + self.params["b"][0])
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
