"""The benchmark tracer (perfbench/tracing.py) wraps pdclab functions by name
from outside the package; every name it wraps must exist, and undoing the
instrumentation must leave pdclab exactly as it was, also when it is installed
before the first solver call has loaded scipy."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pdclab
from pdclab import analytic, cli, dynamics, hilbert, meanfield, metrology

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"
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


# A fresh interpreter: the tracer wraps dynamics.spla, the deferred reference
# to scipy.sparse.linalg, before any solver call has imported it.
COLD_PROBE = """
import importlib.util, json, sys
from pdclab import dynamics

cold = "scipy.sparse.linalg" not in sys.modules
spec = importlib.util.spec_from_file_location("perfbench_tracing", {tracing!r})
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
spla = dynamics.spla
tracer = tracing.Tracer()
undo = tracing.instrument(tracer)
params = dynamics.SystemParams(g=0.2, lambda_a=1.0, gamma_a=10.0, gamma_b=1.0)
# d = 32: the trace block's side 272 lies above the dense route's cap, so the
# solve takes the sparse LU that the tracer wraps
dynamics.steady_state(dynamics.build_reduced_model(params, 32))
undo()
print(json.dumps({{
    "cold": cold,
    "calls": dict(tracer.calls()),
    "fill": tracer.counts["dynamics.lu_fill_nnz"],
    "restored": dynamics.spla is spla,
    "cap": dynamics._DENSE_SOLVE_MAX_SIDE,
}}))
"""


def test_tracer_installed_before_scipy_loads_counts_one_lu_per_steady_state():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", COLD_PROBE.format(tracing=str(TRACING))],
        capture_output=True, text=True, env=env, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["cold"]
    assert result["cap"] < 272  # the trace block of the probe's model
    # a certified steady state factorizes its trace block once
    assert result["calls"]["dynamics.steady_state"] == 1
    assert result["calls"]["dynamics.lu_factor"] == 1
    assert result["fill"] > 0
    assert result["restored"]
