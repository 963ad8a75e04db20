"""Fixed-shape timings of the LSTM and convolution layers, with their
computed operation counts.

Every repetition draws fresh inputs from a generator seeded by the run's
seed, builds nothing else and times only the layer calls. The operation
count is the GEMM work of the layer as the paper's model defines it, two
operations per multiply-add, and does not depend on how a kernel is
written; `gflops` divides it by the measured time.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

from elmdetect.network import CONV_FILTERS, EMBEDDING_DIM, KERNEL_SIZE, LSTM_UNITS, ConvLayer, LstmLayer

BATCH = 32
STEPS = (16, 100)
REPEATS = {16: 15, 100: 7}


def lstm_flop(batch: int, steps: int, in_dim: int = CONV_FILTERS, hidden: int = LSTM_UNITS) -> float:
    """Forward GEMM operations: per step, input and recurrent projections
    into the four gates."""
    return 2.0 * steps * batch * 4 * hidden * (in_dim + hidden)


def conv_flop(batch: int, length: int) -> float:
    """Forward GEMM operations of the valid convolution."""
    out_len = length - KERNEL_SIZE + 1
    return 2.0 * batch * out_len * KERNEL_SIZE * EMBEDDING_DIM * CONV_FILTERS


def _median_ms(fn, make_input, repeats: int) -> float:
    fn(make_input())  # first call pays one-time allocation costs
    times = []
    for _ in range(repeats):
        x = make_input()
        t0 = time.perf_counter()
        fn(x)
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def time_kernels(seed: int) -> dict[str, float]:
    """Per-layer metric name -> value, for B=32 and T in STEPS.

    Backward needs as much work again as forward for the weight gradients
    and once more for the input gradients, so fwd+bwd is three forwards.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xCE11]))
    out: dict[str, float] = {}
    lstm = LstmLayer(CONV_FILTERS, LSTM_UNITS, rng)
    for steps in STEPS:
        def lstm_input():
            return rng.standard_normal((BATCH, steps, CONV_FILTERS))

        def fwd_bwd(x):
            h = lstm.forward(x)
            lstm.backward(np.ones_like(h))

        tag = f"b{BATCH}_t{steps}"
        out[f"network.lstm.fwd_ms.{tag}"] = _median_ms(lstm.forward, lstm_input, REPEATS[steps])
        out[f"network.lstm.fwd_bwd_ms.{tag}"] = _median_ms(fwd_bwd, lstm_input, REPEATS[steps])
        out[f"network.lstm.fwd_mflop.{tag}"] = lstm_flop(BATCH, steps) / 1e6
        out[f"network.lstm.fwd_bwd_mflop.{tag}"] = 3 * lstm_flop(BATCH, steps) / 1e6

    steps = STEPS[-1]
    tag = f"b{BATCH}_t{steps}"
    conv = ConvLayer(CONV_FILTERS, KERNEL_SIZE, EMBEDDING_DIM, rng)

    def conv_fwd_bwd(x):
        y = conv.forward(x)
        conv.backward(np.ones_like(y))

    out[f"network.conv.fwd_bwd_ms.{tag}"] = _median_ms(
        conv_fwd_bwd, lambda: rng.standard_normal((BATCH, steps, EMBEDDING_DIM)), REPEATS[steps]
    )
    out[f"network.conv.fwd_bwd_mflop.{tag}"] = 3 * conv_flop(BATCH, steps) / 1e6
    out[f"network.lstm.gflops.{tag}"] = (
        out[f"network.lstm.fwd_bwd_mflop.{tag}"] / out[f"network.lstm.fwd_bwd_ms.{tag}"]
    )
    return out
