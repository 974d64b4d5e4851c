"""The benchmark tracer (perfbench/tracing.py) wraps pdclab functions by name
from outside the package; every name it wraps must exist, and undoing the
instrumentation must leave pdclab exactly as it was."""

import importlib.util
from pathlib import Path

import pdclab
from pdclab import analytic, cli, dynamics, hilbert, meanfield, metrology

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
NAMESPACES = (pdclab, analytic, cli, dynamics, hilbert, meanfield, metrology)


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def snapshot() -> dict:
    return {(ns.__name__, name): value for ns in NAMESPACES for name, value in vars(ns).items()}


def test_tracer_targets_exist_and_undo_restores_every_function():
    tracing = load_tracing()
    before = snapshot()
    undo = tracing.instrument(tracing.Tracer())  # AttributeError on a missing target
    try:
        during = snapshot()
    finally:
        undo()
    wrapped = {key for key, value in during.items() if value is not before[key]}
    for module, functions in tracing.SPANS.values():
        for fn in functions:
            assert (f"pdclab.{module}", fn) in wrapped
    assert {("pdclab.dynamics", name) for name in ("spla", "np", "solve_ivp")} <= wrapped
    after = snapshot()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
