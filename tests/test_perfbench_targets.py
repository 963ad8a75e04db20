"""Every function and method the benchmark's span tracer wraps must exist.

`perfbench/spans.py` skips a target it cannot find with a note, so a renamed
function would only drop the per-layer metric built on it; this test makes
the rename fail instead.
"""
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def span_targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


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
