"""Every function and method the benchmark's span tracer wraps must exist,
and the benchmark's layer timings must run.

`perfbench/spans.py` skips a target it cannot find with a note, so a renamed
function would only drop the per-layer metric built on it; this test makes
the rename fail instead. `perfbench/kernels.py` calls the LSTM and conv
layers directly, so a layer change that breaks those calls fails here
before it fails a traced benchmark run.
"""
import importlib
import importlib.util
import inspect
import math
from pathlib import Path

import pytest
from synthetic import dual_signal_corpus

from elmdetect import training

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def span_targets():
    return load_perfbench("spans").TARGETS


@pytest.mark.parametrize(
    "module_name, attr", [pytest.param(m, a, id=f"{m}.{a}") for _, m, a in span_targets()]
)
def test_span_target_exists(module_name, attr):
    module = importlib.import_module(module_name)
    owner_name, _, member = attr.rpartition(".")
    if owner_name:
        owner = getattr(module, owner_name, None)
        # the tracer patches the class's own attribute, not an inherited one
        assert inspect.isclass(owner) and member in vars(owner), f"{module_name}.{attr} not found"
        assert callable(getattr(owner, member))
    else:
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr} not found"


def test_every_kernel_timing_is_finite_and_positive():
    metrics = load_perfbench("kernels").time_kernels(0)
    assert metrics
    for name, value in metrics.items():
        assert math.isfinite(value) and value > 0, (name, value)


# span names of the scoring path that one predict_scores call must reach
SCORING_SPANS = (
    "textstats.tokenize",
    "features.matrix",
    "training.encode",
    "network.embedding.fwd",
    "network.conv.fwd",
    "network.lstm.fwd",
    "network.head",
)


def test_predict_scores_reaches_every_scoring_path_target():
    """A refactor that goes around a traced function fails here, instead of
    leaving the benchmark's metric on it at 0."""
    fit = list(dual_signal_corpus(n=24, seed=1))
    model = training.train(fit, training.TrainConfig(variant="enhanced", epochs=1, max_seq_len=16, progress=False))
    # documents the model has not seen, so their tokens and rows are made in the call
    docs = list(dual_signal_corpus(n=12, seed=2))
    tracer = load_perfbench("spans").Tracer()
    tracer.install()
    try:
        # looked up after install, as the benchmark does, so that the tracer sees it
        scores = training.predict_scores(model, docs)
    finally:
        tracer.uninstall()
    assert scores.shape == (len(docs),)
    assert not tracer.notes
    assert tracer.calls["training.predict"] == 1
    missing = [name for name in SCORING_SPANS if tracer.calls[name] == 0]
    assert not missing, f"predict_scores did not reach {missing}"
    assert tracer.calls["textstats.tokenize"] == 2 * len(docs)
