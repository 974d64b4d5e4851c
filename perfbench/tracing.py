"""Spans and counts around calls into pdclab, installed from outside the package.

`instrument(tracer)` rebinds the public functions of each pdclab module, in
every pdclab namespace that holds them, to wrappers that record a span
(name, start, end, parent) per call; `undo()` restores the originals. The
sparse LU, the dense Liouvillian eigensolve and the ODE integrator are
reached through dynamics' own references to scipy and numpy, which are
replaced by stand-ins that wrap only those calls. Spans stay in memory; the
caller writes them out when the run ends.

A span's self time is its duration minus the time its direct children cover.
Calls are single-threaded here (the CLI runs with --threads 1), so children
never overlap.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

# span name -> (module, public functions) whose calls the span times
SPANS = {
    "cli.run": ("cli", ("run",)),
    "cli.parse": ("cli", ("parse_config",)),
    "cli.write": ("cli", ("write_csv", "write_json")),
    "dynamics.build_model": ("dynamics", ("build_full_model", "build_reduced_model")),
    "dynamics.liouvillian": ("dynamics", ("liouvillian_matrix",)),
    "dynamics.steady_state": ("dynamics", ("steady_state",)),
    "dynamics.spectral_gap": ("dynamics", ("spectral_gap",)),
    "dynamics.evolve_open": ("dynamics", ("evolve_open",)),
    "analytic.moment_ss": ("analytic", ("moment_ss",)),
    "analytic.lambda_sensor": ("analytic", ("lambda_sensor",)),
    "meanfield.solve": ("meanfield", ("steady_solutions", "build_W")),
    "meanfield.delta2_g_normal": ("meanfield", ("delta2_g_normal",)),
    "metrology.qfi": (
        "metrology",
        ("qfi_pure", "qfi_gaussian", "qfi_gaussian_family", "qfi_spectral"),
    ),
    "metrology.stats": (
        "metrology",
        ("photon_stats", "homodyne_stats", "error_propagation", "gaussian_moments"),
    ),
    "hilbert.expectation": ("hilbert", ("expectation",)),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.peaks: dict[str, float] = {}
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._stack: list[int] = []

    def wrap(self, name: str, fn, after=None):
        """`fn` timed as span `name`; `after(result)` runs once the span has
        ended, so its cost is not charged to the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([name, time.perf_counter(), None, parent])
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[index][2] = time.perf_counter()
            if after is not None:
                after(result)
            return result

        return traced

    def peak(self, name: str, value: float):
        self.peaks[name] = max(self.peaks.get(name, value), value)

    def sample(self, name: str, value: float):
        self.samples[name].append(value)

    def merge(self, record: dict):
        """Add the spans and counts another process wrote with `record()`."""
        offset = len(self.spans)
        for name, start, end, parent in record["spans"]:
            self.spans.append([name, start, end, parent + offset if parent >= 0 else -1])
        self.counts.update(record["counts"])
        for name, value in record["peaks"].items():
            self.peak(name, value)
        for name, values in record["samples"].items():
            self.samples[name] += values

    def record(self) -> dict:
        return {
            "spans": self.spans,
            "counts": dict(self.counts),
            "peaks": self.peaks,
            "samples": dict(self.samples),
        }

    def self_times(self) -> Counter:
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: Counter = Counter()
        for (name, start, end, _), child in zip(self.spans, covered):
            out[name] += (end - start) - child
        return out

    def calls(self) -> Counter:
        return Counter(span[0] for span in self.spans)


class _StandIn:
    """A module seen through a reference that overrides some attributes."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


def instrument(tracer: Tracer):
    """Rebind pdclab's public functions to traced wrappers; returns `undo`."""
    import importlib

    import pdclab

    modules = {
        name: importlib.import_module(f"pdclab.{name}")
        for name in ("analytic", "cli", "dynamics", "hilbert", "meanfield", "metrology")
    }
    namespaces = [pdclab, *modules.values()]
    saved = []

    def rebind(namespace, attr, value):
        saved.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, value)

    for span, (module, functions) in SPANS.items():
        for fn_name in functions:
            original = getattr(modules[module], fn_name)
            wrapped = tracer.wrap(span, original)
            for namespace in namespaces:
                for attr, value in list(vars(namespace).items()):
                    if value is original:
                        rebind(namespace, attr, wrapped)

    dynamics = modules["dynamics"]
    spla, np = dynamics.spla, dynamics.np

    def eigvals(a, *args, **kwargs):
        tracer.peak("dynamics.dense_eig_side_max", a.shape[0])
        return np.linalg.eigvals(a, *args, **kwargs)

    def lu_fill(lu):
        tracer.counts["dynamics.lu_fill_nnz"] += lu.L.nnz + lu.U.nnz

    rebind(
        dynamics,
        "spla",
        _StandIn(spla, splu=tracer.wrap("dynamics.lu_factor", spla.splu, after=lu_fill)),
    )
    rebind(
        dynamics,
        "np",
        _StandIn(
            np, linalg=_StandIn(np.linalg, eigvals=tracer.wrap("dynamics.dense_eig", eigvals))
        ),
    )
    solve_ivp = dynamics.solve_ivp

    @functools.wraps(solve_ivp)
    def counted_solve_ivp(*args, **kwargs):
        sol = solve_ivp(*args, **kwargs)
        tracer.counts["dynamics.ode_rhs_evals"] += int(sol.nfev)
        tracer.counts["dynamics.ode_steps"] += len(sol.t) - 1
        return sol

    rebind(dynamics, "solve_ivp", counted_solve_ivp)

    def undo():
        while saved:
            namespace, attr, value = saved.pop()
            setattr(namespace, attr, value)

    return undo
