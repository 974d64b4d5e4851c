"""Scenario runner: parameter sweeps and analytic-vs-numeric comparison reports.

Configs are flat ``key = value`` text files with dotted keys (one scenario per
file). Every task writes one CSV plus one JSON sidecar carrying the metadata
(parameters, truncation, schema version) and the comparison rows. Each
comparison's tolerance is fixed by its task, not by the config, and is written
in its row. Output is deterministic: no timestamps, fixed column order, rows
sorted by the sweep value even when computed in parallel, floats at 17
significant digits.

Exit codes: 0 all comparisons pass, 1 a tolerance failed, 2 config error or
an output directory or file that cannot be written, 3 solver failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections.abc import Callable
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import analytic, dynamics, meanfield, metrology
from .dynamics import SystemParams
from .errors import ConfigError, PdclabError
from .hilbert import expectation, number_operator

SCHEMA_VERSION = 4

_PARAM_FIELDS = tuple(f.name for f in fields(SystemParams))
_REQUIRED_PARAMS = tuple(f.name for f in fields(SystemParams) if f.default is MISSING)

_DEFAULTS = {"truncation.signal_dim": 40}

# print-defaults gives each required param its value in configs/occupation.cfg,
# so that the printed template runs as it stands
_TEMPLATE_PARAMS = {"g": 0.1, "lambda_a": 0.01, "gamma_a": 10.0, "gamma_b": 1.0}

# denominator floor of every rel_dev: below it the bound is absolute
_REL_FLOOR = 1e-12

OCCUPATION_GRID = (0.02, 0.05, 0.1, 0.2, 0.5)


@dataclass
class Scenario:
    name: str
    params: SystemParams
    tasks: list[str]
    sweep: tuple[str, tuple[float, ...]] | None
    signal_dim: int


def _rel_dev(reference: float, value: float) -> float:
    return abs(reference - value) / max(abs(reference), _REL_FLOOR)


@dataclass
class ComparisonRow:
    quantity: str
    analytic: float
    numeric: float
    rel_dev: float = field(init=False)
    passed: bool = field(init=False)
    tolerance: float

    def __post_init__(self):
        self.rel_dev = _rel_dev(self.analytic, self.numeric)
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
    try:
        text = path.read_text()
    except OSError as exc:  # a directory, a file without read permission
        raise ConfigError(f"cannot read config {path}: {exc.strerror or exc}") from None
    for lineno, line in enumerate(text.splitlines(), 1):
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
    for required in _REQUIRED_PARAMS:
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
    for i, t in enumerate(tasks):
        if t not in TASKS:
            raise ConfigError(f"unknown task {t!r} (choose from {', '.join(TASKS)})")
        if t in tasks[:i]:
            raise ConfigError(f"task {t!r} is listed twice")

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
        if len(set(values)) != len(values):
            raise ConfigError("sweep.values repeats a value")
        sweep = (sweep_param, values)

    def setting(key: str):
        return _parse_scalar(key, raw[key]) if key in raw else _DEFAULTS[key]

    signal_dim = setting("truncation.signal_dim")
    if signal_dim < 1:  # FockSpace's domain
        raise ConfigError(f"truncation.signal_dim must be >= 1, got {signal_dim}")

    name = raw.get("name", path.stem).strip()
    if not name or not all(c.isalnum() or c in "-_" for c in name):
        raise ConfigError(f"scenario name must be alphanumeric/-/_: {name!r}")

    return Scenario(
        name=name,
        params=params,
        tasks=tasks,
        sweep=sweep,
        signal_dim=signal_dim,
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
    # imported here: concurrent.futures and the logging it loads cost ~4 ms
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(worker, points))


# --- tasks ----------------------------------------------------------------------
#
# A worker maps one point (scenario, value, params) to one table row. A rule
# maps the sorted table to (quantity, analytic, numeric, tolerance) tuples; a
# task with one comparison per point has its worker put that tuple in the row
# under "comparison", outside the columns, and _each_point collects them.

def _each_point(scenario: Scenario, table):
    """Rule with one comparison per point: the "comparison" of each row."""
    return [row["comparison"] for row in table]


def _steady_moments(scenario: Scenario, value: float, p: SystemParams):
    series = analytic.moment_ss(1, 1, p).real
    result, dim = dynamics.auto_truncated_steady(
        lambda d: dynamics.build_reduced_model(p, d),
        start_dim=min(scenario.signal_dim, 24),
        max_dim=scenario.signal_dim,
    )
    numeric = expectation(number_operator(result.rho.space), result.rho).real
    rel = _rel_dev(series, numeric)
    quantity = f"Nb_series_vs_liouville@{value:g}"
    return {"value": value, "Nb_series": series, "Nb_liouville": numeric, "dim": dim,
            "rel_dev": rel, "comparison": (quantity, series, numeric, 1e-6)}


def _qfi(scenario: Scenario, value: float, p: SystemParams):
    # gamma_b = 0 steady state is a displaced vacuum: moments factorize,
    # so the Gaussian model carries the amplitude and a vacuum covariance
    def fam(g):
        amp = analytic.moment_gb0(0, 1, replace(p, g=g))
        disp = np.array([math.sqrt(2.0) * amp.imag, math.sqrt(2.0) * amp.real])
        return metrology.GaussianMoments(disp, 0.5 * np.eye(2))

    closed = analytic.qfi_gb0_closed(p)
    numeric = metrology.qfi_gaussian_family(fam, p.g).value
    rel = _rel_dev(closed, numeric)
    return {"value": value, "F_closed": closed, "F_gaussian": numeric, "rel_dev": rel,
            "comparison": (f"qfi_gaussian_vs_closed@{value:g}", closed, numeric, 1e-5)}


def _uncertainty(scenario: Scenario, value: float, p: SystemParams):
    if p.gamma_b > 0:
        # the two routes coincide only for a zero-temperature bath
        if p.nbar != 0:
            raise ConfigError("uncertainty task compares routes at nbar = 0")
        # the moment route first: at and above threshold it raises StabilityError
        other = meanfield.delta2_g_normal(p)
        closed = analytic.delta2_g("normal_phase", "photon", p)
        quantity, tol = "delta2_g_printed_vs_moments", 1e-5
    else:
        # photon detection saturates the quantum Cramer-Rao bound at any kappa_e
        closed = analytic.delta2_g("gb0", "photon", p)
        other = 1.0 / analytic.qfi_gb0_closed(p)
        quantity, tol = "delta2_g_photon_vs_qcrb", 1e-10
    rel = _rel_dev(closed, other)
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
    # the estimate is a scale, not an identity: factor-2 agreement
    return {"value": value, "gap": gap, "rate_estimate": estimate, "dim": dim,
            "comparison": (f"gap_vs_rate_estimate@{value:g}", estimate, gap, 1.0)}


def _occupation(scenario: Scenario, g: float, p: SystemParams):
    nb_three = dynamics.three_level_occupation(p)
    nb_exact = analytic.moment_ss(1, 1, p).real
    rel = _rel_dev(nb_exact, nb_three)
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


def _sensor_optimum(p: SystemParams) -> float:
    """The coupling sqrt(gamma_a kappa_e / 2) that minimizes delta^2 lambda_a."""
    return math.sqrt(p.gamma_a * p.kappa_e / 2.0)


def _sensor_grid(p: SystemParams):
    g_star = _sensor_optimum(p) if p.kappa_e > 0 else p.g
    return [g_star * f for f in (0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0)]


def _sensor(scenario: Scenario, g: float, p: SystemParams):
    d2, d2_nb, opt = analytic.lambda_sensor(p)
    return {"g": g, "delta2_lambda": d2, "delta2_vs_Nb": d2_nb, "optimum": opt}


def _sensor_rule(scenario: Scenario, table):
    p = scenario.params
    # delta2_lambda * Nb = lambda_a^2 holds identically; report the worst point
    worst = max(table, key=lambda row: _rel_dev(row["delta2_lambda"], row["delta2_vs_Nb"]))
    rows = [(f"sensor_identity_delta2_vs_Nb_route@g={worst['g']:g}",
             worst["delta2_lambda"], worst["delta2_vs_Nb"], 1e-12)]
    if p.kappa_e > 0:
        # delta2_lambda is convex in g > 0, so the true minimizer lies between
        # the grid neighbours of the discrete argmin
        i = min(range(len(table)), key=lambda j: table[j]["delta2_lambda"])
        best = table[i]
        g_true = _sensor_optimum(p)
        gaps = [abs(table[j]["g"] - best["g"]) for j in (i - 1, i + 1) if 0 <= j < len(table)]
        tol = max(gaps, default=abs(best["g"])) / max(g_true, _REL_FLOOR)
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


TASKS = {
    "steady_moments": Task(
        "signal occupation: moment series vs Liouvillian steady state",
        ("value", "Nb_series", "Nb_liouville", "dim", "rel_dev"),
        _steady_moments,
        _each_point,
    ),
    "qfi": Task(
        "gamma_b=0 Gaussian QFI: closed form vs moment-family route",
        ("value", "F_closed", "F_gaussian", "rel_dev"),
        _qfi,
        _each_point,
    ),
    "uncertainty": Task(
        "delta^2 g: closed form vs independently assembled route",
        ("value", "delta2_closed", "delta2_other", "rel_dev"),
        _uncertainty,
        _each_point,
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
        _each_point,
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
    ),
}


def _run_task(task: Task, scenario: Scenario, points, threads: int):
    """Make the sorted table over the points, build the comparisons."""
    table = _parallel(points, lambda pt: task.worker(scenario, *pt), threads)
    table.sort(key=lambda row: row[task.columns[0]])
    comparisons = task.rule(scenario, table)
    return [ComparisonRow(*c) for c in comparisons], table


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
    """Compute every task, then write its files.

    A config error (exit 2) or a solver failure (exit 3) writes no file; an
    output directory or file that cannot be written exits 2 as well, and keeps
    the files written before it.
    """
    try:
        scenario = parse_config(config_path)
        # every task's points first, so a sweep a task cannot take fails
        # before any task computes; the library rejects a point outside a
        # task's domain when the task computes it
        plan = [(name, TASKS[name].points(scenario)) for name in scenario.tasks]
        results = [
            (name, *_run_task(TASKS[name], scenario, points, threads))
            for name, points in plan
        ]
    except (ConfigError, ValueError) as exc:
        # ValueError: parameter combinations rejected by model-level validation
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except PdclabError as exc:
        print(f"solver failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3

    out = Path(out_dir)
    all_rows: list[ComparisonRow] = []
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, rows, table in results:
            columns, stem = TASKS[name].columns, f"{scenario.name}_{name}"
            write_csv(out / f"{stem}.csv", columns, table)
            write_json(out / f"{stem}.json", scenario, name, columns, table, rows)
            all_rows.extend(rows)
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    print(report(all_rows))
    return 0 if all(r.passed for r in all_rows) else 1


def print_defaults() -> int:
    print("# scenario template, runnable as printed: each optional key shows its")
    print("# default, each required key the value of configs/occupation.cfg")
    print("name = scenario")
    print("tasks = steady_moments            # comma list:", ", ".join(TASKS))
    for f in fields(SystemParams):
        if f.default is MISSING:
            value, mark = _TEMPLATE_PARAMS[f.name], "required"
        else:
            value, mark = f.default, "optional"
        print(f"params.{f.name} = {value}                  # {mark}")
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
        if args.threads < 1:
            parser.error(f"--threads must be >= 1, got {args.threads}")
        return run(args.config, args.out_dir, args.threads)
    if args.command == "list-tasks":
        return list_tasks()
    return print_defaults()


if __name__ == "__main__":
    sys.exit(main())
