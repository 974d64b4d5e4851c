"""The three workloads: inputs drawn from the seed, the items of one round,
and the check each item's output must pass.

One round runs every item of a workload once, in a fixed order; a run is a
whole number of rounds. Physical parameters are drawn from narrow ranges
around fixed points: the sparse LU's pivoting, and with it the fill-in, moves
with the parameter values, so wide ranges would make the cost of an item
depend on the seed.
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
from pdclab import analytic, dynamics, hilbert, metrology
from pdclab.dynamics import SystemParams
from pdclab.errors import SteadyStateDegenerateError

CONFIGS = ("meanfield", "normal", "occupation", "sensor")
BENCH_DIR = Path(__file__).resolve().parent

# criterion-4 setting: three couplings g - h, g, g + h, evolved to t = 250
C4_PARAMS = dict(g=0.1, lambda_a=12.0, gamma_a=10.0, gamma_b=0.0, kappa_e=0.018)
C4_DIM, C4_TIME, C4_STEP = 34, 250.0, 1e-3


@dataclass
class Item:
    name: str
    run: Callable  # run(tracer or None) -> output; the timed call
    check: Callable  # check(output) -> list of problems; run after the loop


def _reduced_draw(rng) -> dict:
    return dict(
        g=rng.uniform(0.08, 0.12),
        lambda_a=rng.uniform(0.8, 1.2),
        gamma_a=10.0,
        gamma_b=rng.uniform(0.9, 1.1),
        kappa_e=rng.uniform(0.0, 0.01),
    )


def _full_draw(rng) -> dict:
    return dict(
        g=rng.uniform(0.3, 0.5),
        lambda_a=rng.uniform(0.15, 0.25),
        gamma_a=rng.uniform(0.9, 1.1),
        gamma_b=rng.uniform(0.9, 1.1),
    )


# --- steady_sweep ------------------------------------------------------------------


def steady_sweep(seed: int, root: Path, env: dict) -> list[Item]:
    rng = np.random.default_rng(seed)
    items = []
    for d in (24, 48, 64, 96):
        items.append(_reduced_steady_item(_reduced_draw(rng), d))
    for d_a in (4, 5):
        items.append(_full_steady_item(_full_draw(rng), d_a, 12))
    degenerate = _reduced_draw(rng)
    degenerate["gamma_b"] = 0.0
    items.append(_degenerate_item(degenerate, 24))
    return items


def _reduced_steady_item(p: dict, d: int) -> Item:
    params = SystemParams(**p)
    nb_series = analytic.moment_ss(1, 1, params).real

    def run(_tracer):
        rho = dynamics.steady_state(dynamics.build_reduced_model(params, d)).rho
        return rho.matrix, hilbert.expectation(hilbert.number_operator(rho.space), rho).real

    def check(out):
        rho, nb = out
        return checks.check_reduced_steady(p, d, rho, nb, nb_series)

    return Item(f"steady_reduced_d{d}", run, check)


def _full_steady_item(p: dict, d_a: int, d_b: int) -> Item:
    params = SystemParams(**p)

    def run(_tracer):
        return dynamics.steady_state(dynamics.build_full_model(params, d_a, d_b)).rho.matrix

    return Item(
        f"steady_full_{d_a}x{d_b}", run, lambda rho: checks.check_full_steady(p, d_a, d_b, rho)
    )


def _degenerate_item(p: dict, d: int) -> Item:
    params = SystemParams(**p)

    def run(_tracer):
        try:
            dynamics.steady_state(dynamics.build_reduced_model(params, d))
        except SteadyStateDegenerateError as exc:
            return exc
        return None

    return Item(f"steady_degenerate_d{d}", run, checks.check_degenerate)


# --- spectra_dynamics --------------------------------------------------------------


def spectra_dynamics(seed: int, root: Path, env: dict) -> list[Item]:
    rng = np.random.default_rng(seed)
    pinned = {d: _reduced_draw(rng) for d in (24, 32, 40)}
    collapse = dict(
        g=rng.uniform(0.08, 0.12),
        lambda_a=rng.uniform(0.008, 0.012),
        gamma_a=10.0,
        gamma_b=0.0,
        kappa_e=1e-5,
    )
    # references are computed on first use, outside the timed loop
    refs: dict = {}

    def reference(key, fn):
        if key not in refs:
            refs[key] = fn()
        return refs[key]

    def gap_item(name, p, d, check):
        params = SystemParams(**p)
        return Item(
            name,
            lambda _tracer: dynamics.spectral_gap(dynamics.build_reduced_model(params, d)),
            check,
        )

    def check_pinned(d, p):
        def check(gap):
            if d <= 24:
                ref = reference((d, "own"), lambda: checks.reference_gap(p, d))
                problems = checks.check_gap(gap, ref, 1e-8, f"gap d={d}")
            else:
                ref = reference((d, "d-4"), lambda: checks.reference_gap(p, d - 4))
                problems = checks.check_gap(gap, ref, 0.01, f"gap d={d} vs d={d - 4}")
            return problems + checks.check_gap_pinned(gap, p["gamma_b"])

        return check

    def check_collapse(gap):
        ref = reference("collapse", lambda: checks.reference_gap(collapse, 24))
        low = dict(collapse, g=collapse["g"] / 100.0)
        gap_lo = reference("collapse_lo", lambda: checks.reference_gap(low, 24))
        problems = checks.check_gap(gap, ref, 1e-8, "gamma_b=0 gap d=24")
        return problems + checks.check_gap_collapse(gap, gap_lo)

    items = [gap_item(f"gap_d{d}", p, d, check_pinned(d, p)) for d, p in pinned.items()]
    items.append(gap_item("gap_gamma_b0_d24", collapse, 24, check_collapse))

    space = hilbert.FockSpace(C4_DIM)
    evolved: dict[float, np.ndarray] = {}
    evolutions = []
    for dg in (-C4_STEP, 0.0, C4_STEP):
        params = SystemParams(**dict(C4_PARAMS, g=C4_PARAMS["g"] + dg))
        seed_state = hilbert.coherent_state(0.8 * analytic.moment_gb0(0, 1, params), space)
        rho0 = hilbert.density_from_state(seed_state)
        evolutions.append(_evolve(params, rho0, evolved, dg))
    items += [Item(f"evolve_open_{k}", evolutions[k], lambda _: []) for k in (0, 1)]
    # the third evolution completes the family, so its item also computes the
    # criterion-4 metrology (about a millisecond) from the three states
    items.append(
        Item("evolve_open_2_criterion4", _criterion4(evolutions[2], evolved), _check_criterion4)
    )
    return items


def _evolve(params, rho0, evolved: dict, dg: float):
    def run(_tracer):
        rho = dynamics.evolve_open(dynamics.build_reduced_model(params, C4_DIM), rho0, C4_TIME)
        evolved[dg] = rho
        return rho.matrix

    return run


def _criterion4(evolve, evolved: dict):
    """The last evolution, then photon-counting delta^2 g and Gaussian QFI
    from this round's three evolved states."""
    g = C4_PARAMS["g"]

    def family(x):
        return evolved[round(x - g, 9)]

    def run(tracer):
        evolve(tracer)
        d2 = metrology.error_propagation(metrology.photon_stats(family, g, step=C4_STEP))
        qfi = metrology.qfi_gaussian_family(
            lambda x: metrology.gaussian_moments(family(x)), g, step=C4_STEP
        ).value
        rhos = tuple(evolved[dg].matrix for dg in (-C4_STEP, 0.0, C4_STEP))
        return rhos, (d2, qfi)

    return run


def _check_criterion4(out):
    rhos, reported = out
    return checks.check_criterion4(rhos, C4_STEP, reported)


# --- cli_scenarios -----------------------------------------------------------------


def cli_scenarios(seed: int, root: Path, env: dict) -> list[Item]:
    """`python -m pdclab.cli run configs/<name>.cfg`, one subprocess per item.

    The seed plays no part: the inputs are the shipped configs."""
    out_root = root / ".perfbench_out" / "cli"
    shutil.rmtree(out_root, ignore_errors=True)
    out_root.mkdir(parents=True)
    items = []
    first: dict[str, dict] = {}
    for name in CONFIGS:
        path = root / "configs" / f"{name}.cfg"
        cfg = checks.parse_cfg(path.read_text())
        items.append(_cli_item(name, path, cfg, out_root, env, first))
    return items


def _cli_item(name: str, path: Path, cfg: dict, out_root: Path, env: dict, first: dict):
    runs = itertools.count()

    def run(tracer):
        out_dir = out_root / f"{name}-{next(runs)}"
        cmd = [sys.executable]
        if tracer is None:
            cmd += ["-m", "pdclab.cli"]
        else:
            cmd += [str(BENCH_DIR / "traced_cli.py"), str(out_dir / "spans.json")]
        cmd += ["run", str(path), "--out-dir", str(out_dir), "--threads", "1"]
        out_dir.mkdir()
        with open(out_dir / "stdout.txt", "wb") as log:
            proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if tracer is not None and proc.returncode == 0:
            tracer.merge(json.loads((out_dir / "spans.json").read_text()))
        return proc.returncode, out_dir, usage.ru_maxrss

    def check(out):
        code, out_dir, _ = out
        files = {
            f.name: f.read_bytes()
            for f in sorted(out_dir.iterdir())
            if f.suffix in (".csv", ".json") and f.name != "spans.json"
        }
        reference = first.setdefault(name, files)
        return checks.check_cli_item(cfg, code, files, reference)

    return Item(f"cli_{name}", run, check)


ITEMS = {
    "cli_scenarios": cli_scenarios,
    "steady_sweep": steady_sweep,
    "spectra_dynamics": spectra_dynamics,
}
