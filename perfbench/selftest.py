"""Tests of the benchmark itself: every checker rejects a wrong output, the
tracer's arithmetic holds, and the metric names the command prints are the
ones BENCHMARK.json declares.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the repository's own test run; it takes
about a minute.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from pdclab import analytic, cli, dynamics, hilbert  # noqa: E402
from pdclab.dynamics import SystemParams  # noqa: E402
from pdclab.errors import SteadyStateDegenerateError  # noqa: E402

REDUCED = dict(g=0.1, lambda_a=1.0, gamma_a=10.0, gamma_b=1.0, kappa_e=0.005)
FULL = dict(g=0.4, lambda_a=0.2, gamma_a=1.0, gamma_b=1.0)


def _bump(rho: np.ndarray, size: float) -> np.ndarray:
    """A Hermitian, trace-preserving perturbation between levels 0 and 1."""
    out = rho.copy()
    out[0, 1] += size
    out[1, 0] += size
    return out


# --- steady_sweep checkers ----------------------------------------------------------


@pytest.fixture(scope="module")
def reduced():
    params = SystemParams(**REDUCED)
    rho = dynamics.steady_state(dynamics.build_reduced_model(params, 16)).rho.matrix
    nb = float(np.real(np.arange(16) @ np.diag(rho)))
    return rho, nb, analytic.moment_ss(1, 1, params).real


def test_reduced_check_accepts_the_solver_output(reduced):
    rho, nb, series = reduced
    assert checks.check_reduced_steady(REDUCED, 16, rho, nb, series) == []


def test_reduced_check_rejects_a_perturbed_rho(reduced):
    rho, nb, series = reduced
    problems = checks.check_reduced_steady(REDUCED, 16, _bump(rho, 1e-6), nb, series)
    assert any("stationarity residual" in p for p in problems)


def test_reduced_check_rejects_a_shifted_nb(reduced):
    rho, nb, series = reduced
    problems = checks.check_reduced_steady(REDUCED, 16, rho, nb * (1 + 1e-5), series)
    assert any("moment series" in p for p in problems)


def test_state_check_rejects_trace_hermiticity_and_positivity_defects(reduced):
    rho = reduced[0]
    assert any("trace" in p for p in checks.state_problems(1.01 * rho, "x"))
    skew = rho.copy()
    skew[0, 1] += 1e-6
    assert any("Hermiticity" in p for p in checks.state_problems(skew, "x"))
    assert any("negative" in p for p in checks.state_problems(_bump(rho, 0.5), "x"))


def test_full_check_accepts_the_solver_output_and_rejects_a_perturbed_rho():
    rho = dynamics.steady_state(dynamics.build_full_model(SystemParams(**FULL), 3, 6)).rho.matrix
    assert checks.check_full_steady(FULL, 3, 6, rho) == []
    problems = checks.check_full_steady(FULL, 3, 6, _bump(rho, 1e-6))
    assert any("stationarity residual" in p for p in problems)
    drift = [p for p in checks.check_full_steady(dict(FULL, lambda_a=0.21), 3, 6, rho) if "d<a>/dt" in p]
    assert drift


def test_degenerate_check_needs_the_error_with_a_kernel():
    assert checks.check_degenerate(SteadyStateDegenerateError("x", kernel_dim=2)) == []
    assert checks.check_degenerate(SteadyStateDegenerateError("x", kernel_dim=None))
    assert checks.check_degenerate(SteadyStateDegenerateError("x", kernel_dim=1))
    assert checks.check_degenerate(None)


# --- spectra_dynamics checkers ------------------------------------------------------


def test_reference_gap_matches_the_dense_gap_and_rejects_a_shifted_one():
    gap = dynamics.spectral_gap(dynamics.build_reduced_model(SystemParams(**REDUCED), 12))
    ref = checks.reference_gap(REDUCED, 12)
    assert checks.check_gap(gap, ref, 1e-8, "d=12") == []
    assert checks.check_gap(gap * (1 + 1e-6), ref, 1e-8, "d=12")


def test_criterion6_checks_reject_a_flat_or_unpinned_gap():
    assert checks.check_gap_collapse(1e-3, 2e-5) == []
    assert checks.check_gap_collapse(1e-3, 2e-4)
    assert checks.check_gap_pinned(0.98, 1.0) == []
    assert checks.check_gap_pinned(0.3, 1.0)


@pytest.fixture(scope="module")
def criterion4():
    """The three criterion-4 evolutions of a spectra_dynamics round."""
    items = {it.name: it for it in workloads.spectra_dynamics(1, ROOT, {})}
    for k in range(2):
        items[f"evolve_open_{k}"].run(None)
    rhos, _ = items["evolve_open_2_criterion4"].run(None)
    return rhos, workloads.C4_STEP


def test_criterion4_check_accepts_the_evolutions_and_rejects_a_perturbed_state(criterion4):
    rhos, step = criterion4
    own = (checks.photon_uncertainty(rhos, step), checks.gaussian_qfi(rhos, step))
    assert checks.check_criterion4(rhos, step, own) == []
    shifted = (rhos[0], rhos[1], _bump(rhos[2], 1e-4))
    assert checks.check_criterion4(shifted, step, own)
    assert checks.check_criterion4(rhos, step, (own[0] * 1.001, own[1]))


def test_gaussian_qfi_of_a_coherent_family_is_four_times_the_amplitude_slope():
    space = hilbert.FockSpace(30)
    step = 1e-3
    rhos = tuple(
        hilbert.density_from_state(hilbert.coherent_state(1.0 + 0.5 * x, space)).matrix
        for x in (-step, 0.0, step)
    )
    assert checks.gaussian_qfi(rhos, step) == pytest.approx(4 * 0.5**2, rel=1e-6)


# --- cli_scenarios checker ----------------------------------------------------------


@pytest.fixture(scope="module")
def cli_outputs(tmp_path_factory):
    out = {}
    for name in ("meanfield", "occupation", "sensor"):
        path = ROOT / "configs" / f"{name}.cfg"
        out_dir = tmp_path_factory.mktemp(name)
        assert cli.main(["run", str(path), "--out-dir", str(out_dir)]) == 0
        files = {f.name: f.read_bytes() for f in sorted(out_dir.iterdir())}
        out[name] = checks.parse_cfg(path.read_text()), files
    return out


def test_cli_check_accepts_the_shipped_configs(cli_outputs):
    for cfg, files in cli_outputs.values():
        assert checks.check_cli_item(cfg, 0, files, files) == []


def test_cli_check_rejects_an_output_differing_by_one_byte(cli_outputs):
    cfg, files = cli_outputs["occupation"]
    changed = dict(files)
    data = bytearray(changed["occupation_occupation.csv"])
    data[-2] = ord("0") if data[-2] != ord("0") else ord("1")
    changed["occupation_occupation.csv"] = bytes(data)
    problems = checks.check_cli_item(cfg, 0, changed, files)
    assert any("differ from the first run" in p for p in problems)


def _edit_csv(files, fname, column, value):
    rows = checks.read_table(files[fname])
    rows[0][column] = value
    header = list(rows[0])
    text = ",".join(header) + "\n" + "".join(",".join(r[c] for c in header) + "\n" for r in rows)
    return dict(files, **{fname: text.encode()})


def test_cli_check_rejects_wrong_closed_forms_and_verdicts(cli_outputs):
    cfg, files = cli_outputs["meanfield"]
    for column, value in (("lambda_c", "0.51"), ("branches", "2")):
        bad = _edit_csv(files, "meanfield_meanfield.csv", column, value)
        assert checks.check_cli_item(cfg, 0, bad, bad)
    cfg, files = cli_outputs["occupation"]
    bad = _edit_csv(files, "occupation_occupation.csv", "Nb_three_level", "1e-9")
    assert checks.check_cli_item(cfg, 0, bad, bad)
    cfg, files = cli_outputs["sensor"]
    bad = _edit_csv(files, "sensor_sensor.csv", "delta2_lambda", "3.1")
    assert checks.check_cli_item(cfg, 0, bad, bad)
    payload = json.loads(files["sensor_qfi.json"])
    payload["comparisons"][0]["pass"] = False
    bad = dict(files, **{"sensor_qfi.json": json.dumps(payload).encode()})
    assert checks.check_cli_item(cfg, 0, bad, bad)
    assert checks.check_cli_item(cfg, 1, files, files)


# --- tracing ------------------------------------------------------------------------


def test_self_time_subtracts_direct_children():
    tracer = tracing.Tracer()
    tracer.spans = [["outer", 0.0, 10.0, -1], ["inner", 1.0, 4.0, 0], ["leaf", 2.0, 3.0, 1]]
    assert tracer.self_times() == {"outer": 7.0, "inner": 2.0, "leaf": 1.0}
    merged = tracing.Tracer()
    merged.merge(tracer.record())
    merged.merge(tracer.record())
    assert merged.self_times() == {"outer": 14.0, "inner": 4.0, "leaf": 2.0}


def test_each_nondegenerate_steady_state_factorizes_twice_and_undo_restores():
    items = [it for it in workloads.steady_sweep(3, ROOT, {}) if "degenerate" not in it.name]
    original = dynamics.steady_state
    for item in items[:3] + items[4:]:
        tracer = tracing.Tracer()
        undo = tracing.instrument(tracer)
        try:
            item.run(None)
        finally:
            undo()
        calls = tracer.calls()
        assert calls["dynamics.steady_state"] == 1
        assert calls["dynamics.lu_factor"] == 2, item.name
        assert tracer.counts["dynamics.lu_fill_nnz"] > 0
    assert dynamics.steady_state is original


# --- BENCHMARK.json and the command -------------------------------------------------

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_is_well_formed(declared):
    import run

    assert set(declared) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)
    metrics = declared["end_to_end"] + declared["per_layer"]
    names = [m["name"] for m in metrics + declared["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in metrics)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in declared["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in declared["end_to_end"])
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_the_declared_metrics(declared, trace):
    cmd = [sys.executable, *declared["command"][1:], "--workload", "steady_sweep"]
    cmd += ["--seed", "5", "--seconds", "0.1", "--trace", trace]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    kind = "per_layer" if trace == "1" else "end_to_end"
    declared_units = {m["name"]: m["unit"] for m in declared[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared_units
    if trace == "1":
        values = {k: v["value"] for k, v in result["metrics"].items()}
        assert values["dynamics.lu_factor_calls"] == 2 * values["dynamics.steady_state_calls"]


def test_command_fails_without_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "steady_sweep", "--seed", "1"]
    out = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert out.returncode != 0
    assert out.stdout == ""
