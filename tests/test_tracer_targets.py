"""The span tracer in ``bench/tracer.py`` patches charcalc's functions by
module attribute and its methods in each class's own namespace; a target it
cannot find is skipped silently and its per-layer metrics read 0.  This
checks that every target still exists where the tracer looks for it."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"

# Spans whose target was removed on purpose; their metrics read 0.
RETIRED = {"series.pow"}  # GradedSeries.__pow__: powers go through power_coefficients


def load_tracer():
    spec = importlib.util.spec_from_file_location("charcalc_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = load_tracer()


@pytest.mark.parametrize("span, module, attr", TRACER.FUNCTIONS, ids=[f[0] for f in TRACER.FUNCTIONS])
def test_function_target_resolves(span, module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))


@pytest.mark.parametrize(
    "span, module, cls, attr", TRACER.METHODS, ids=[m[0] for m in TRACER.METHODS]
)
def test_method_target_in_own_namespace(span, module, cls, attr):
    owner = getattr(importlib.import_module(module), cls)
    assert (attr in vars(owner)) is (span not in RETIRED)
