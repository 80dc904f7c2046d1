"""The benchmark tracer still finds every name it wraps in the package."""

import importlib.util
import inspect
from pathlib import Path

import blaschkelab as bl

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def test_tracing_targets_exist():
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    # Tracer.install reads owner.__dict__[attr]; a missing name stops the benchmark at install
    missing = [(owner.__name__, attr) for owner, attr, _ in tracing.TARGETS if attr not in owner.__dict__]
    assert missing == []
    # the kept_ratio metric reads the degree as positional argument 3
    assert list(inspect.signature(bl.span_invariant).parameters)[3] == "degree"
