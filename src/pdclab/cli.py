"""Scenario runner: parameter sweeps and analytic-vs-numeric comparison reports.

Configs are flat ``key = value`` text files with dotted keys (one scenario per
file). Every task writes one CSV plus one JSON sidecar carrying the metadata
(parameters, truncations, tolerances, schema version) and the comparison rows.
Output is deterministic: no timestamps, fixed column order, rows sorted by the
sweep value even when computed in parallel, floats at 17 significant digits.

Exit codes: 0 all comparisons pass, 1 a tolerance failed, 2 config error,
3 solver failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import InitVar, asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import analytic, dynamics, meanfield, metrology
from .dynamics import SystemParams
from .errors import ConfigError, PdclabError
from .hilbert import expectation, number_operator

SCHEMA_VERSION = 3

_PARAM_FIELDS = tuple(f.name for f in fields(SystemParams))

_DEFAULTS = {
    "truncation.signal_dim": 40,
    "tolerances.rel": 1e-6,
    "tolerances.floor": 1e-12,
}

OCCUPATION_GRID = (0.02, 0.05, 0.1, 0.2, 0.5)


@dataclass
class Scenario:
    name: str
    params: SystemParams
    tasks: list[str]
    sweep: tuple[str, tuple[float, ...]] | None
    signal_dim: int
    rel_tol: float
    floor: float


def _rel_dev(reference: float, value: float, floor: float) -> float:
    return abs(reference - value) / max(abs(reference), floor)


@dataclass
class ComparisonRow:
    quantity: str
    analytic: float
    numeric: float
    rel_dev: float = field(init=False)
    passed: bool = field(init=False)
    tolerance: float = 1e-6
    floor: InitVar[float] = 1e-12  # denominator floor of rel_dev

    def __post_init__(self, floor: float):
        self.rel_dev = _rel_dev(self.analytic, self.numeric, floor)
        self.passed = self.rel_dev < self.tolerance


# --- config parsing -------------------------------------------------------------

def _parse_scalar(key: str, raw: str):
    raw = raw.strip()
    try:
        if key.startswith("truncation."):
            return int(raw)
        return float(raw)
    except ValueError:
        raise ConfigError(f"cannot parse numeric value for {key}: {raw!r}") from None


def parse_config(path: str | Path) -> Scenario:
    """Read one scenario from a dotted-key config file."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    known_scalar = {f"params.{f}" for f in _PARAM_FIELDS} | set(_DEFAULTS)
    raw: dict[str, str] = {}
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        raw[key] = value

    allowed = known_scalar | {"name", "tasks", "sweep.parameter", "sweep.values"}
    unknown = sorted(set(raw) - allowed)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")

    params_kwargs = {}
    for f in _PARAM_FIELDS:
        key = f"params.{f}"
        if key in raw:
            params_kwargs[f] = _parse_scalar(key, raw[key])
    for required in ("g", "lambda_a", "gamma_a", "gamma_b"):
        if required not in params_kwargs:
            raise ConfigError(f"missing required key params.{required}")
    try:
        params = SystemParams(**params_kwargs)
    except ValueError as exc:
        raise ConfigError(f"invalid parameters: {exc}") from None

    tasks_raw = raw.get("tasks", "")
    tasks = [t.strip() for t in tasks_raw.split(",") if t.strip()]
    if not tasks:
        raise ConfigError("empty task list")
    for t in tasks:
        if t not in TASKS:
            raise ConfigError(f"unknown task {t!r} (choose from {', '.join(TASKS)})")

    sweep = None
    if "sweep.parameter" in raw or "sweep.values" in raw:
        if not ("sweep.parameter" in raw and "sweep.values" in raw):
            raise ConfigError("sweep needs both sweep.parameter and sweep.values")
        sweep_param = raw["sweep.parameter"].strip()
        if sweep_param not in _PARAM_FIELDS:
            raise ConfigError(f"sweep.parameter must be one of {_PARAM_FIELDS}")
        try:
            values = tuple(
                float(v) for v in raw["sweep.values"].replace(",", " ").split()
            )
        except ValueError:
            raise ConfigError("sweep.values must be a list of numbers") from None
        if not values:
            raise ConfigError("sweep.values is empty")
        if any(not math.isfinite(v) for v in values):
            raise ConfigError("sweep.values must be finite")
        sweep = (sweep_param, values)

    def setting(key: str):
        return _parse_scalar(key, raw[key]) if key in raw else _DEFAULTS[key]

    tolerances = {}
    for key in ("tolerances.rel", "tolerances.floor"):
        value = setting(key)
        if not (math.isfinite(value) and value > 0):
            raise ConfigError(f"{key} must be finite and > 0, got {value!r}")
        tolerances[key] = value

    name = raw.get("name", path.stem).strip()
    if not name or not all(c.isalnum() or c in "-_" for c in name):
        raise ConfigError(f"scenario name must be alphanumeric/-/_: {name!r}")

    return Scenario(
        name=name,
        params=params,
        tasks=tasks,
        sweep=sweep,
        signal_dim=setting("truncation.signal_dim"),
        rel_tol=tolerances["tolerances.rel"],
        floor=tolerances["tolerances.floor"],
    )


def _sweep_points(scenario: Scenario) -> list[tuple[float, SystemParams]]:
    if scenario.sweep is None:
        return [(scenario.params.g, scenario.params)]
    name, values = scenario.sweep
    return [(v, replace(scenario.params, **{name: v})) for v in sorted(values)]


def _g_points(default_grid):
    """Points over g: the swept values if g is swept, else default_grid(params).

    A sweep over any other parameter is a ConfigError: the table's one axis is g.
    """

    def points(scenario: Scenario) -> list[tuple[float, SystemParams]]:
        if scenario.sweep is None:
            grid = default_grid(scenario.params)
        elif scenario.sweep[0] == "g":
            grid = sorted(scenario.sweep[1])
        else:
            raise ConfigError(f"this task sweeps only g, not {scenario.sweep[0]}")
        return [(g, replace(scenario.params, g=g)) for g in grid]

    return points


def _parallel(points, worker, threads: int):
    if threads <= 1 or len(points) <= 1:
        return [worker(pt) for pt in points]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(worker, points))


# --- tasks ----------------------------------------------------------------------
#
# A worker maps one point (scenario, value, params) to one table row. A rule
# maps the sorted table to (quantity, analytic, numeric, tolerance) tuples.

def _each_point(prefix: str, analytic_col: str, numeric_col: str, tolerance):
    """Rule with one comparison per point; tolerance(scenario) sets its bound."""

    def rule(scenario: Scenario, table):
        tol = tolerance(scenario)
        return [
            (f"{prefix}@{row['value']:g}", row[analytic_col], row[numeric_col], tol)
            for row in table
        ]

    return rule


def _steady_moments(scenario: Scenario, value: float, p: SystemParams):
    series = analytic.moment_ss(1, 1, p).real
    result, dim = dynamics.auto_truncated_steady(
        lambda d: dynamics.build_reduced_model(p, d),
        start_dim=min(scenario.signal_dim, 24),
        max_dim=scenario.signal_dim,
    )
    numeric = expectation(number_operator(result.rho.space), result.rho).real
    rel = _rel_dev(series, numeric, scenario.floor)
    return {"value": value, "Nb_series": series, "Nb_liouville": numeric, "dim": dim,
            "rel_dev": rel}


def _qfi(scenario: Scenario, value: float, p: SystemParams):
    # gamma_b = 0 steady state is a displaced vacuum: moments factorize,
    # so the Gaussian model carries the amplitude and a vacuum covariance
    def fam(g):
        amp = analytic.moment_gb0(0, 1, replace(p, g=g))
        disp = np.array([math.sqrt(2.0) * amp.imag, math.sqrt(2.0) * amp.real])
        return metrology.GaussianMoments(disp, 0.5 * np.eye(2))

    closed = analytic.qfi_gb0_closed(p)
    numeric = metrology.qfi_gaussian_family(fam, p.g).value
    rel = _rel_dev(closed, numeric, scenario.floor)
    return {"value": value, "F_closed": closed, "F_gaussian": numeric, "rel_dev": rel}


def _uncertainty(scenario: Scenario, value: float, p: SystemParams):
    if p.gamma_b > 0:
        closed = meanfield.delta2_g_normal(p, "printed").delta2
        other = meanfield.delta2_g_normal(p, "moments").delta2
        quantity, tol = "delta2_g_printed_vs_moments", max(scenario.rel_tol, 1e-5)
    elif p.kappa_e > 0:
        closed = analytic.delta2_g("gb0_kappa", "photon", p).delta2
        other = 1.0 / analytic.qfi_gb0_closed(p)
        quantity, tol = "delta2_g_photon_vs_qcrb", 1e-10
    else:
        closed = analytic.delta2_g("gb0", "photon", p).delta2
        other = p.g**3 / p.lambda_a
        quantity, tol = "delta2_g_photon_vs_scaling", 1e-12
    rel = _rel_dev(closed, other, scenario.floor)
    return {"value": value, "delta2_closed": closed, "delta2_other": other,
            "rel_dev": rel, "comparison": (f"{quantity}@{value:g}", closed, other, tol)}


def _meanfield(scenario: Scenario, value: float, p: SystemParams):
    lam_c = analytic.critical_lambda(p)
    sols = meanfield.steady_solutions(p)
    branches = sum(1 for s in sols if s.branch != "normal")
    normal_stable = meanfield.build_W(p, sols[0]).stable
    above = p.lambda_a > lam_c
    coherent = (branches == 2) == above and normal_stable == (not above)
    return {"value": value, "lambda_a": p.lambda_a, "lambda_c": lam_c,
            "branches": branches, "normal_stable": normal_stable, "coherent": coherent}


def _gap(scenario: Scenario, value: float, p: SystemParams):
    dim = min(scenario.signal_dim, 24)
    gap = dynamics.spectral_gap(dynamics.build_reduced_model(p, dim))
    estimate = 2.0 * (p.kappa + p.kappa_e) if p.gamma_b == 0 else p.gamma_b
    return {"value": value, "gap": gap, "rate_estimate": estimate, "dim": dim}


def _occupation(scenario: Scenario, g: float, p: SystemParams):
    nb_three = dynamics.three_level_occupation(p)
    nb_exact = analytic.moment_ss(1, 1, p).real
    rel = _rel_dev(nb_exact, nb_three, scenario.floor)
    return {"g": g, "Nb_three_level": nb_three, "Nb_exact": nb_exact, "rel_dev": rel}


def _occupation_rule(scenario: Scenario, table):
    devs = [row["rel_dev"] for row in table]
    monotone = all(a < b for a, b in zip(devs, devs[1:]))
    first = table[0]
    return [
        ("occupation_rel_dev_strictly_decreasing_toward_small_g",
         1.0, float(monotone), 0.5),
        (f"occupation_Nb_three_level@g={first['g']:g}",
         first["Nb_three_level"], first["Nb_exact"], 0.02),
    ]


def _sensor_grid(p: SystemParams):
    g_star = math.sqrt(p.gamma_a * p.kappa_e / 2.0) if p.kappa_e > 0 else p.g
    return [g_star * f for f in (0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0)]


def _sensor(scenario: Scenario, g: float, p: SystemParams):
    d2, d2_nb, opt = analytic.lambda_sensor(p)
    return {"g": g, "delta2_lambda": d2, "delta2_vs_Nb": d2_nb, "optimum": opt}


def _sensor_rule(scenario: Scenario, table):
    p = scenario.params
    # delta2_lambda * Nb = lambda_a^2 holds identically; report the worst point
    floor = scenario.floor
    worst = max(
        table, key=lambda row: _rel_dev(row["delta2_lambda"], row["delta2_vs_Nb"], floor)
    )
    rows = [(f"sensor_identity_delta2_vs_Nb_route@g={worst['g']:g}",
             worst["delta2_lambda"], worst["delta2_vs_Nb"], 1e-12)]
    if p.kappa_e > 0:
        best = min(table, key=lambda row: row["delta2_lambda"])
        g_true = math.sqrt(p.gamma_a * p.kappa_e / 2.0)
        spacing = max(
            abs(b["g"] - a["g"]) for a, b in zip(table, table[1:])
        ) if len(table) > 1 else abs(best["g"])
        tol = max(spacing / max(g_true, floor), scenario.rel_tol)
        rows.append(("sensor_grid_argmin_vs_closed", g_true, best["g"], tol))
        # the optimum over g is the same at every point
        opt = table[0]["optimum"]
        rows.append(("sensor_min_value_vs_stated", opt.stated_value, opt.value, 1e-10))
    return rows


@dataclass(frozen=True)
class Task:
    """What one task computes; `_run_task` does the work all tasks share."""

    help: str
    columns: tuple[str, ...]  # the first column is the sort key
    worker: Callable  # (scenario, value, params) -> table row
    rule: Callable  # (scenario, table) -> [(quantity, analytic, numeric, tolerance)]
    points: Callable = _sweep_points  # scenario -> [(value, params)]
    requires: tuple[Callable, str] | None = None  # (predicate on params, error)


TASKS = {
    "steady_moments": Task(
        "signal occupation: moment series vs Liouvillian steady state",
        ("value", "Nb_series", "Nb_liouville", "dim", "rel_dev"),
        _steady_moments,
        _each_point("Nb_series_vs_liouville", "Nb_series", "Nb_liouville",
                    lambda sc: sc.rel_tol),
    ),
    "qfi": Task(
        "gamma_b=0 Gaussian QFI: closed form vs moment-family route",
        ("value", "F_closed", "F_gaussian", "rel_dev"),
        _qfi,
        _each_point("qfi_gaussian_vs_closed", "F_closed", "F_gaussian",
                    lambda sc: max(sc.rel_tol, 1e-5)),
        requires=(lambda p: p.gamma_b == 0 and p.kappa_e > 0,
                  "qfi task needs gamma_b = 0 and kappa_e > 0"),
    ),
    "uncertainty": Task(
        "delta^2 g: closed form vs independently assembled route",
        ("value", "delta2_closed", "delta2_other", "rel_dev"),
        _uncertainty,
        lambda sc, table: [row["comparison"] for row in table],
        # the two routes coincide only for a zero-temperature bath
        requires=(lambda p: p.gamma_b == 0 or p.nbar == 0,
                  "uncertainty task compares routes at nbar = 0"),
    ),
    "meanfield": Task(
        "phase structure: branch existence / stability / critical drive",
        ("value", "lambda_a", "lambda_c", "branches", "normal_stable", "coherent"),
        _meanfield,
        lambda sc, table: [("phase_boundary_three_way_coherence", 1.0,
                            float(all(row["coherent"] for row in table)), 0.5)],
    ),
    "gap": Task(
        "Liouvillian spectral gap of the reduced model vs rate estimate",
        ("value", "gap", "rate_estimate", "dim"),
        _gap,
        # the estimate is a scale, not an identity: factor-2 agreement
        _each_point("gap_vs_rate_estimate", "rate_estimate", "gap", lambda sc: 1.0),
    ),
    "occupation": Task(
        "occupation regression: three-level closed form vs exact steady state",
        ("g", "Nb_three_level", "Nb_exact", "rel_dev"),
        _occupation,
        _occupation_rule,
        points=_g_points(lambda p: OCCUPATION_GRID),
    ),
    "sensor": Task(
        "delta^2 lambda_a sweep with optimal-coupling check",
        ("g", "delta2_lambda", "delta2_vs_Nb"),
        _sensor,
        _sensor_rule,
        points=_g_points(_sensor_grid),
        # lambda_a^2 / N_b is 0/0 without drive, and the moment route needs g > 0
        requires=(lambda p: p.gamma_b == 0 and p.lambda_a != 0 and p.g > 0,
                  "requires lambda_a != 0, g > 0 and gamma_b = 0 (sensor task)"),
    ),
}


def _checked_points(task: Task, scenario: Scenario) -> list[tuple[float, SystemParams]]:
    """The task's points, with its precondition checked at every one."""
    points = task.points(scenario)
    if task.requires is not None and not all(task.requires[0](p) for _, p in points):
        raise ConfigError(task.requires[1])
    return points


def _run_task(task: Task, scenario: Scenario, points, threads: int):
    """Make the sorted table over the points, build the comparisons."""
    table = _parallel(points, lambda pt: task.worker(scenario, *pt), threads)
    table.sort(key=lambda row: row[task.columns[0]])
    comparisons = task.rule(scenario, table)
    return [ComparisonRow(*c, floor=scenario.floor) for c in comparisons], table


# --- output ----------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def write_csv(path: Path, columns, table):
    lines = [",".join(columns)]
    for row in table:
        lines.append(",".join(_fmt(row[c]) for c in columns))
    path.write_text("\n".join(lines) + "\n", newline="\n")


def _row_dict(row: ComparisonRow) -> dict:
    d = asdict(row)
    d["pass"] = d.pop("passed")
    return d


def write_json(path: Path, scenario: Scenario, task: str, columns, table, rows):
    payload = {
        "schema_version": SCHEMA_VERSION,
        "scenario": scenario.name,
        "task": task,
        "params": {f: getattr(scenario.params, f) for f in _PARAM_FIELDS},
        "truncation": {"signal_dim": scenario.signal_dim},
        "tolerances": {"rel": scenario.rel_tol, "floor": scenario.floor},
        "sweep": (
            {"parameter": scenario.sweep[0], "values": list(scenario.sweep[1])}
            if scenario.sweep
            else None
        ),
        "columns": list(columns),
        "rows": [[row[c] for c in columns] for row in table],
        "comparisons": [_row_dict(r) for r in rows],
    }
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", newline="\n")


def report(rows: list[ComparisonRow]) -> str:
    """Fixed-order text table of comparison rows."""
    if not rows:
        raise ValueError("no comparison rows to report")
    header = f"{'quantity':52s} {'analytic':>24s} {'numeric':>24s} {'rel_dev':>12s} pass"
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r.quantity:52s} {r.analytic:>24.17g} {r.numeric:>24.17g} "
            f"{r.rel_dev:>12.3e} {'yes' if r.passed else 'NO'}"
        )
    return "\n".join(lines)


# --- entry points -----------------------------------------------------------------

def run(config_path: str, out_dir: str = ".", threads: int = 1) -> int:
    try:
        scenario = parse_config(config_path)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    out = Path(out_dir)
    all_rows: list[ComparisonRow] = []
    try:
        # every task's points and preconditions before any task computes, so
        # a config error writes no file
        plan = [(name, _checked_points(TASKS[name], scenario)) for name in scenario.tasks]
        out.mkdir(parents=True, exist_ok=True)
        for name, points in plan:
            task = TASKS[name]
            rows, table = _run_task(task, scenario, points, threads)
            stem = f"{scenario.name}_{name}"
            write_csv(out / f"{stem}.csv", task.columns, table)
            write_json(out / f"{stem}.json", scenario, name, task.columns, table, rows)
            all_rows.extend(rows)
    except (ConfigError, ValueError) as exc:
        # ValueError: parameter combinations rejected by model-level validation
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except PdclabError as exc:
        print(f"solver failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3

    print(report(all_rows))
    return 0 if all(r.passed for r in all_rows) else 1


def print_defaults() -> int:
    print("# scenario template: every key shown with its default")
    print("name = scenario")
    print("tasks = steady_moments            # comma list:", ", ".join(TASKS))
    for f in _PARAM_FIELDS:
        required = f in ("g", "lambda_a", "gamma_a", "gamma_b")
        mark = "required" if required else "optional"
        print(f"params.{f} = 0.0                  # {mark}")
    print("# sweep.parameter = g")
    print("# sweep.values = 0.02, 0.05, 0.1")
    for key, value in _DEFAULTS.items():
        print(f"{key} = {value}")
    return 0


def list_tasks() -> int:
    for name, task in TASKS.items():
        print(f"{name:16s} {task.help}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pdclab", description="down-conversion metrology scenario runner"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run a scenario config")
    runp.add_argument("config")
    runp.add_argument("--out-dir", default=".")
    runp.add_argument("--threads", type=int, default=1)
    sub.add_parser("list-tasks", help="list task tags")
    sub.add_parser("print-defaults", help="print a config template")
    args = parser.parse_args(argv)

    if args.command == "run":
        return run(args.config, args.out_dir, args.threads)
    if args.command == "list-tasks":
        return list_tasks()
    return print_defaults()


if __name__ == "__main__":
    sys.exit(main())
