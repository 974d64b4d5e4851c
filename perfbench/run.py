"""Run one pdclab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload steady_sweep --seed 1 --seconds 30 --trace 0

Run it from the root of a pdclab checkout; it imports the package from
`src/` there. A run is a closed loop with one client: whole rounds over the
workload's items, in one process, for about `--seconds`. The outputs
are checked after the loop. The last line printed is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics of perfbench/README.md with `--trace 1`.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread everywhere: set before numpy loads, inherited by
# every child process, the same on both sides of a comparison.
THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

WORKLOADS = ("cli_scenarios", "steady_sweep", "spectra_dynamics")
# set-up probes taken before and after the timed loop, so that the median
# spans the machine's state over the whole run
SETUP_SAMPLES_BEFORE, SETUP_SAMPLES_AFTER = 3, 4

END_TO_END = {
    "best_items_per_s": "items/s",
    "best_item_geomean_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = {
    "import.pdclab_s": "s",
    "import.modules_loaded": "count",
    "cli.parse_s": "s",
    "cli.write_s": "s",
    "cli.run_s": "s",
    "dynamics.build_model_s": "s",
    "dynamics.liouvillian_s": "s",
    "dynamics.liouvillian_calls": "count",
    "dynamics.steady_state_s": "s",
    "dynamics.steady_state_calls": "count",
    "dynamics.lu_factor_s": "s",
    "dynamics.lu_factor_calls": "count",
    "dynamics.lu_fill_nnz": "count",
    "dynamics.dense_eig_s": "s",
    "dynamics.dense_eig_calls": "count",
    "dynamics.dense_eig_side_max": "count",
    "dynamics.spectral_gap_s": "s",
    "dynamics.evolve_open_s": "s",
    "dynamics.ode_rhs_evals": "count",
    "dynamics.ode_steps": "count",
    "analytic.moment_ss_s": "s",
    "analytic.moment_ss_calls": "count",
    "analytic.lambda_sensor_s": "s",
    "meanfield.solve_s": "s",
    "meanfield.delta2_g_normal_s": "s",
    "metrology.qfi_s": "s",
    "metrology.stats_s": "s",
    "hilbert.expectation_s": "s",
    "hilbert.expectation_calls": "count",
    "trace_overhead_s": "s",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe",
        action="store_true",
        help="import pdclab, build the inputs, print 'ready' and exit",
    )
    return parser.parse_args(argv)


def setup_sample(args, env: dict) -> float:
    """Seconds from spawning a fresh interpreter until its inputs are built."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe"]
    cmd += ["--workload", args.workload, "--seed", str(args.seed)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        proc.wait(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
    return elapsed


def run_rounds(items, seconds: float, tracer, instrument):
    """Whole rounds for about `seconds`. With a tracer, rounds
    alternate untraced and traced, starting untraced, and there are at least
    two. Returns (results, round times keyed by traced, wall seconds, peak
    RSS in KB at the end of the first round)."""
    results = []
    first_round_kb = None
    round_times: dict[bool, list[float]] = {False: [], True: []}
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(round_times[False]) > len(round_times[True])
        undo = instrument(tracer) if traced and instrument else None
        round_start = time.perf_counter()
        try:
            for item in items:
                t = time.perf_counter()
                try:
                    out, err = item.run(tracer if traced else None), None
                except Exception as exc:  # counted as a failed item, reported below
                    out, err = None, exc
                results.append((item, out, err, time.perf_counter() - t))
        finally:
            if undo:
                undo()
        round_times[traced].append(time.perf_counter() - round_start)
        if first_round_kb is None:
            first_round_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        done = sum(map(len, round_times.values()))
        elapsed = time.perf_counter() - start
        # stop at the round boundary nearest to `seconds`
        if elapsed + 0.5 * elapsed / done >= seconds and (tracer is None or done >= 2):
            return results, round_times, elapsed, first_round_kb


def check_results(results) -> tuple[int, list[str]]:
    failed, problems = 0, []
    for item, out, err, _ in results:
        faults = [f"raised {type(err).__name__}: {err}"] if err else item.check(out)
        if faults:
            failed += 1
            problems += [f"{item.name}: {fault}" for fault in faults]
    return failed, problems


def layer_metrics(tracer, rounds: int, round_times) -> dict[str, float]:
    """Per-layer figures per traced round (import figures per import)."""
    self_times, calls = tracer.self_times(), tracer.calls()
    values = {}
    for name in PER_LAYER:
        if name.startswith("import."):
            values[name] = statistics.median(tracer.samples[name])
        elif name == "trace_overhead_s":
            values[name] = statistics.median(round_times[True]) - statistics.median(
                round_times[False]
            )
        elif name == "dynamics.dense_eig_side_max":
            values[name] = tracer.peaks.get(name, 0)
        elif name.endswith("_calls"):
            values[name] = calls[name[: -len("_calls")]] / rounds
        elif name.endswith("_s"):
            values[name] = self_times[name[: -len("_s")]] / rounds
        else:
            values[name] = tracer.counts[name] / rounds
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    package = root / "src" / "pdclab"
    if not (package / "__init__.py").is_file() or not (root / "configs").is_dir():
        print(f"no pdclab checkout at {root}: src/pdclab or configs/ missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    env = dict(os.environ, PYTHONPATH=str(root / "src"), **THREADS)

    start = time.perf_counter()
    import pdclab

    import_s = time.perf_counter() - start
    modules_loaded = len(sys.modules)
    if Path(pdclab.__file__).resolve().parent != package.resolve():
        print(f"imported pdclab from {pdclab.__file__}, not {package}", file=sys.stderr)
        return 2

    import tracing
    import workloads

    make_items = workloads.ITEMS[args.workload]
    if args.setup_probe:
        make_items(args.seed, root, env)
        print("ready", flush=True)
        return 0

    setup = [setup_sample(args, env) for _ in range(SETUP_SAMPLES_BEFORE)]
    items = make_items(args.seed, root, env)
    tracer = tracing.Tracer() if args.trace else None
    in_process = args.workload != "cli_scenarios"
    if tracer is not None and in_process:
        tracer.sample("import.pdclab_s", import_s)
        tracer.sample("import.modules_loaded", modules_loaded)
    results, round_times, wall, first_round_kb = run_rounds(
        items, args.seconds, tracer, tracing.instrument if in_process else None
    )
    # Peak RSS over one pass of every item: in-process, the allocator's
    # high-water mark keeps creeping up over further rounds, which would tie
    # the figure to the number of rounds that fit in the run.
    if in_process:
        peak_kb = first_round_kb
    else:
        peak_kb = max((out[2] for _, out, err, _ in results if err is None), default=0)

    failed, problems = check_results(results)
    for line in problems[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    setup += [setup_sample(args, env) for _ in range(SETUP_SAMPLES_AFTER)]

    by_item: dict[str, list[float]] = {}
    for item, _, _, latency in results:
        by_item.setdefault(item.name, []).append(latency)
    if tracer is None:
        # Each item's fastest time in the run: load from the machine's other
        # tenants only ever adds time, and slows stretches of a minute or two
        # by up to 1.75 times, which moves medians over a run (README.md).
        best = [min(lats) for lats in by_item.values()]
        metrics = {
            "best_items_per_s": len(best) / sum(best),
            "best_item_geomean_s": math.exp(statistics.fmean(map(math.log, best))),
            "peak_rss_mb": peak_kb / 1024.0,
            "setup_s": statistics.median(setup),
        }
        units = END_TO_END
    else:
        metrics = layer_metrics(tracer, len(round_times[True]), round_times)
        units = PER_LAYER
        out_dir = root / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        spans_file = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
        spans_file.write_text(json.dumps(tracer.record()))

    rounds = sum(map(len, round_times.values()))
    threads = " ".join(f"{k}={v}" for k, v in THREADS.items())
    print(f"{args.workload}: {rounds} rounds, {len(results)} items in {wall:.2f} s; {threads}")
    print("item latency, s, fastest/median: " + ", ".join(
        f"{name} {min(lats):.4f}/{statistics.median(lats):.4f}" for name, lats in by_item.items()
    ))
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": len(results),
                "failed": failed,
                "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
