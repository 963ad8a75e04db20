"""Every function and method the benchmark's span tracer wraps must exist,
every name the benchmark imports from the package must exist, and the
benchmark's layer timings must run.

`perfbench/spans.py` skips a target it cannot find with a note, so a renamed
function would only drop the per-layer metric built on it; this test makes
the rename fail instead. A renamed import would break only the benchmark
runs that reach it, so the imports are checked here too. `perfbench/kernels.py`
calls the LSTM and conv layers directly, so a layer change that breaks those
calls fails here before it fails a traced benchmark run.
"""
import ast
import importlib
import importlib.util
import inspect
import math
from pathlib import Path

import numpy as np
import pytest
from synthetic import dual_signal_corpus

import elmdetect
from elmdetect import auc, roc_curve, training
from elmdetect.evaluation import roc_auc

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


def perfbench_imports():
    """(file, module, name) of every `from elmdetect... import name` in perfbench/*.py."""
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "elmdetect":
                yield from ((path.name, node.module, alias.name) for alias in node.names)


@pytest.mark.parametrize(
    "module_name, name", [pytest.param(m, n, id=f"{f}:{m}.{n}") for f, m, n in sorted(set(perfbench_imports()))]
)
def test_every_name_the_benchmark_imports_exists(module_name, name):
    module = importlib.import_module(module_name)
    assert hasattr(module, name) or importlib.util.find_spec(f"{module_name}.{name}"), f"{module_name}.{name}"


def test_perfbench_imports_are_found():
    assert {("run.py", "elmdetect", "auc"), ("run.py", "elmdetect", "roc_curve")} <= set(perfbench_imports())


def test_the_traced_score_runs_auc_call_is_roc_auc():
    """`perfbench/run.py` reports each variant's AUC as auc(roc_curve(scores, labels))."""
    rng = np.random.default_rng(5)
    for _ in range(20):
        labels = [0, 1, *rng.integers(0, 2, size=30).tolist()]
        scores = np.round(rng.random(len(labels)), 1).tolist()
        assert auc(roc_curve(scores, labels)) == roc_auc(scores, labels)


@pytest.mark.parametrize("name", elmdetect.__all__)
def test_every_exported_name_resolves(name):
    assert getattr(elmdetect, name, None) is not None, name
