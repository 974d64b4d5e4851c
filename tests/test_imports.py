"""No module imports a name it never uses, no private module-level name of
the package goes unreferenced (no linter ships with the package), no
function of the package calls solve_ivp, and import pdclab loads numpy but no
scipy: no module of the package imports scipy at module level, each scipy
subpackage loads on the first call that needs it, spectral_gap and a small
steady_state load none, and every shipped config runs without scipy; all but
configs/meanfield.cfg are also held to load no numpy.ma."""

import ast
import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pdclab
from pdclab import errors
from pdclab.cli import parse_config

ROOT = Path(__file__).resolve().parent.parent
# the package's __init__ imports names only to re-export them
SCANNED = sorted(
    [p for p in (ROOT / "src" / "pdclab").glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py"))
)


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each imported name that no Name node refers to."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_scanner_finds_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport numpy as np\nfrom math import pi, tau\n"
        "x: np.ndarray = pi\n"
    )
    assert unused_imports(source) == [(2, "os"), (4, "tau")]


def test_no_unused_imports():
    assert len(SCANNED) > 10
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in SCANNED
        for line, name in unused_imports(path.read_text())
    ]
    assert not found, "unused imports:\n" + "\n".join(found)


def private_definitions(source: str) -> list[tuple[int, str]]:
    """(line, name) of each module-level private (_x, not dunder) function,
    class or assigned name."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        found += [(node.lineno, n) for n in names if n.startswith("_") and not n.startswith("__")]
    return found


def references(source: str) -> set[str]:
    """Names read as a Name or accessed as an attribute anywhere in source."""
    refs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
    return refs


def test_scanner_finds_private_definitions_and_references():
    source = (
        "import m\n_A = 1\n__all__ = []\n_b: int = 2\n"
        "def _f():\n    _local = _A\n    return m._g\nclass _C: pass\n"
    )
    assert private_definitions(source) == [(2, "_A"), (4, "_b"), (5, "_f"), (8, "_C")]
    assert {"_A", "_g"} <= references(source)
    assert not {"_b", "_f", "_C", "_local"} & references(source)


def test_no_unreferenced_private_names():
    package = sorted((ROOT / "src" / "pdclab").glob("*.py"))
    assert len(package) > 5
    sources = {path: path.read_text() for path in package}
    used = set().union(*(references(source) for source in sources.values()))
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path, source in sources.items()
        for line, name in private_definitions(source)
        if name not in used
    ]
    assert not found, "unreferenced private names:\n" + "\n".join(found)


def package_imports() -> dict[str, set[str]]:
    """Names pdclab/__init__.py imports, by the module it imports them from."""
    tree = ast.parse((ROOT / "src" / "pdclab" / "__init__.py").read_text())
    found: dict[str, set[str]] = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found.setdefault(node.module, set()).update(a.name for a in node.names)
    return found


def test_package_exports_every_public_name():
    exported = package_imports()
    modules = {p.stem for p in (ROOT / "src" / "pdclab").glob("*.py")} - {"__init__", "cli"}
    assert set(exported) == modules
    for name, names in exported.items():
        module = getattr(pdclab, name)
        if name == "errors":
            public = {
                n for n, obj in vars(errors).items()
                if inspect.isclass(obj) and issubclass(obj, errors.PdclabError)
            }
        else:
            public = set(module.__all__)
        assert names == public, f"pdclab.{name}: __all__ and the package exports differ"


def solve_ivp_callers(source: str) -> list[str]:
    """Name of the innermost enclosing function of each call to solve_ivp, by
    name or as an attribute; "<module>" for a call outside any function."""
    callers = []

    def visit(node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "solve_ivp":
                    callers.append(owner)
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return callers


def test_scanner_finds_solve_ivp_callers():
    source = (
        "import scipy.integrate as si\nfrom scipy.integrate import solve_ivp\n"
        "solve_ivp(f)\n"
        "def a():\n    def b():\n        return si.solve_ivp(lambda t, y: y)\n"
        "    return solve_ivp\n"
        "class C:\n    def c(self):\n        return [solve_ivp(f) for _ in ()]\n"
    )
    assert solve_ivp_callers(source) == ["<module>", "b", "c"]


def test_no_function_calls_solve_ivp():
    # both routes of evolve_open apply a matrix exponential; dynamics.solve_ivp
    # is kept only as the benchmark tracer's target
    found = [
        f"{path.stem}.{caller}"
        for path in sorted((ROOT / "src" / "pdclab").glob("*.py"))
        for caller in solve_ivp_callers(path.read_text())
    ]
    assert found == []


# no module-level import of scipy: each scipy name is imported by the
# function that needs it, or reached through dynamics' deferred references
DEFERRED = ("scipy",)


def module_level_imports(source: str) -> list[tuple[int, str]]:
    """(line, dotted name) of each module an import statement outside any
    function or lambda names; `from x import y` gives both x and x.y."""
    found = []

    def visit(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(child, ast.Import):
                found.extend((child.lineno, alias.name) for alias in child.names)
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                found.append((child.lineno, child.module))
                found.extend((child.lineno, f"{child.module}.{a.name}") for a in child.names)
            visit(child)

    visit(ast.parse(source))
    return found


def deferred(name: str) -> bool:
    return any(name == d or name.startswith(d + ".") for d in DEFERRED)


def test_scanner_finds_module_level_imports():
    source = (
        "import scipy.integrate as si\nfrom scipy import optimize\nimport scipyx\n"
        "try:\n    from scipy.special import gammainc\nexcept ImportError:\n    pass\n"
        "class C:\n    import scipy.special\n"
        "def f():\n    from scipy.optimize import minimize_scalar\n"
    )
    flagged = [(line, name) for line, name in module_level_imports(source) if deferred(name)]
    assert flagged == [
        (1, "scipy.integrate"), (2, "scipy"), (2, "scipy.optimize"),
        (5, "scipy.special"), (5, "scipy.special.gammainc"), (9, "scipy.special"),
    ]


def test_no_module_level_import_of_a_deferred_subpackage():
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in sorted((ROOT / "src" / "pdclab").glob("*.py"))
        for line, name in module_level_imports(path.read_text())
        if deferred(name)
    ]
    assert not found, "module-level imports of scipy:\n" + "\n".join(found)


# A fresh interpreter: the test session has loaded all of scipy long before.
# Each step prints the tracked scipy subpackages loaded so far and its result.
TRACKED = (
    "scipy.linalg", "scipy.sparse", "scipy.sparse.linalg", "scipy.sparse.csgraph",
    "scipy.optimize", "scipy.integrate", "scipy.special",
)
IMPORT_PROBE = """
import json, sys
import pdclab.cli
from pdclab.analytic import lambda_sensor
from pdclab.dynamics import (
    SystemParams, build_full_model, build_reduced_model, evolve_open, spectral_gap,
    steady_state,
)
from pdclab.hilbert import (
    FockSpace, coherent_state, density_from_state, expectation, fock_state,
    number_operator, tensor_state,
)
from pdclab.meanfield import (
    build_W, fluct_moments_analytic, fluct_moments_lyapunov, steady_solutions,
)

def step(value):
    print(json.dumps([sorted(m for m in TRACKED if m in sys.modules), value]))

TRACKED = {tracked!r}
step(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
step(abs(coherent_state(1.5 - 0.5j, FockSpace(40)).amplitudes[0]) ** 2)
step(lambda_sensor(SystemParams(g=0.2, lambda_a=1.0, gamma_a=2.0, gamma_b=0.0, kappa_e=0.05))[2].g_opt)
full = build_full_model(SystemParams(g=0.5, lambda_a=1.0, gamma_a=2.0, gamma_b=0.3), 3, 8)
trace = steady_state(full).rho.matrix.trace().real
step([sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")), trace])
p = SystemParams(g=0.2, lambda_a=1.0, gamma_a=10.0, gamma_b=1.0, nbar=0.5)
lyapunov = fluct_moments_lyapunov(build_W(p, steady_solutions(p)[0]), p).n_fluct
step(abs(lyapunov / fluct_moments_analytic(p).n_fluct - 1))
reduced = build_reduced_model(p, 16)
step(spectral_gap(reduced))
n_ss = expectation(number_operator(reduced.space), steady_state(reduced).rho).real
step(n_ss)
vac = density_from_state(fock_state(0, FockSpace(16)))
step(abs(expectation(number_operator(reduced.space), evolve_open(reduced, vac, 60.0)).real - n_ss))
full = build_full_model(SystemParams(g=0.2, lambda_a=0.01, gamma_a=10.0, gamma_b=1.0), 4, 8)
vac = tensor_state(fock_state(0, FockSpace(4)), fock_state(0, FockSpace(8)))
step(evolve_open(full, density_from_state(vac), 2.0).matrix.trace().real)
"""


def fresh_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def test_import_pdclab_defers_and_each_deferred_path_still_works():
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE.format(tracked=TRACKED)],
        capture_output=True, text=True, env=fresh_env(), cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    steps = [json.loads(line) for line in proc.stdout.splitlines()]
    (loaded, every_scipy), (special, vacuum), (optimize, g_opt) = steps[:3]
    (_, (full_scipy, full_trace)), (lyapunov, rel_dev) = steps[3:5]
    (gap_modules, gap), (steady, n_ss), (blocks, drift), (action, trace) = steps[5:]
    # import pdclab.cli loads no scipy module at all
    assert loaded == [] and every_scipy == []
    # coherent_state's tail check is numpy alone: |<0|alpha>|^2 = exp(-|alpha|^2)
    assert special == []
    assert vacuum == pytest.approx(math.exp(-2.5), rel=1e-12)
    # lambda_sensor's golden-section search finds the optimum coupling
    # sqrt(gamma_a kappa_e / 2) with no scipy at all
    assert optimize == []
    assert g_opt == pytest.approx(math.sqrt(2.0 * 0.05 / 2), rel=1e-6)
    # a full 3x8 model is built in numpy, and its steady state (trace block of
    # side 156) is solved dense: still no scipy module at all
    assert full_scipy == []
    assert full_trace == pytest.approx(1.0, abs=1e-12)
    # fluct_moments_lyapunov's solve_sylvester loads scipy.linalg and nothing sparse
    assert lyapunov == ["scipy.linalg"]
    assert rel_dev < 1e-10  # the closed form, numpy alone
    # the first spectral_gap adds no scipy subpackage: the real generator, its
    # blocks, ||L||_inf and the dense eigensolves are numpy
    assert gap_modules == lyapunov
    assert gap > 0
    # nor does the first steady_state at d = 16: its certificate is numpy
    # Arnoldi, and its trace block (side 72) is solved dense
    assert steady == lyapunov
    assert n_ss > 0
    # evolve_open's block route (expm from scipy.linalg) relaxes onto the steady state
    assert blocks == steady
    assert drift < 1e-6
    # criterion 11's full 4x8 model at t = 2 takes expm_multiply on the whole
    # of M: no ODE integrator, and none of what scipy.integrate brings
    assert "scipy.sparse.linalg" in action
    assert {"scipy.integrate", "scipy.optimize", "scipy.special"}.isdisjoint(action)
    assert trace == pytest.approx(1.0, abs=1e-9)


# A steady state whose trace-row system lies above the dense route's cap, as
# the first solver call of a fresh interpreter
SPARSE_PROBE = """
import json, sys
from pdclab.dynamics import _DENSE_SOLVE_MAX_SIDE, SystemParams, build_reduced_model, steady_state
params = SystemParams(g=0.2, lambda_a=1.0, gamma_a=10.0, gamma_b=1.0, nbar=0.5)
rho = steady_state(build_reduced_model(params, 32)).rho
print(json.dumps([_DENSE_SOLVE_MAX_SIDE, sorted(m for m in {tracked!r} if m in sys.modules),
                  rho.matrix.trace().real]))
"""


def test_a_steady_state_above_the_dense_cap_loads_the_sparse_lu():
    proc = subprocess.run(
        [sys.executable, "-c", SPARSE_PROBE.format(tracked=TRACKED)],
        capture_output=True, text=True, env=fresh_env(), cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    cap, loaded, trace = json.loads(proc.stdout.splitlines()[-1])
    assert cap < 272  # the side of the trace block at d = 32
    # splu and onenormest; scipy.sparse.linalg brings scipy.linalg
    assert loaded == ["scipy.linalg", "scipy.sparse", "scipy.sparse.linalg"]
    assert trace == pytest.approx(1.0, abs=1e-12)


# `python -m pdclab.cli run configs/<name>.cfg`, then the scipy modules it
# left in sys.modules (-X importtime does not list modules that
# importlib.import_module loads, so it cannot see the deferred references)
CONFIG_RUN = """
import json, runpy, sys
sys.argv = ["pdclab", "run", "configs/{name}.cfg", "--out-dir", {out!r}]
try:
    runpy.run_module("pdclab.cli", run_name="__main__", alter_sys=True)
except SystemExit as done:
    code = done.code
print(json.dumps([code, sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))]))
"""


def run_config(name: str, out: Path) -> list[str]:
    """Run a shipped config in a fresh interpreter; the scipy modules it loaded."""
    proc = subprocess.run(
        [sys.executable, "-c", CONFIG_RUN.format(name=name, out=str(out))],
        capture_output=True, text=True, env=fresh_env(), cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    code, scipy_modules = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0
    return scipy_modules


def test_meanfield_config_runs_without_scipy(tmp_path):
    assert run_config("meanfield", tmp_path) == []
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "meanfield_meanfield.csv", "meanfield_meanfield.json",
    ]


@pytest.mark.parametrize("name", ("normal", "occupation", "sensor"))
def test_gap_configs_run_without_scipy(name, tmp_path):
    # their spectral gaps and occupation.cfg's d = 24 steady states (trace
    # blocks of side 156, solved dense) are numpy alone, as is everything
    # else they run
    assert run_config(name, tmp_path) == []
    tasks = parse_config(ROOT / "configs" / f"{name}.cfg").tasks
    assert len(list(tmp_path.iterdir())) == 2 * len(tasks)


@pytest.mark.parametrize("name", ("normal", "occupation", "sensor"))
def test_gap_configs_load_no_numpy_ma(name, tmp_path):
    # np.unique imports numpy.ma on its first call, 9-21 ms of a fresh run, and
    # so does the first import of scipy.sparse; these runs reach neither
    script = CONFIG_RUN.format(name=name, out=str(tmp_path)) + 'print("numpy.ma" in sys.modules)\n'
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=fresh_env(), cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    *_, scipy_modules, numpy_ma = proc.stdout.splitlines()
    assert json.loads(scipy_modules) == [0, []]
    assert numpy_ma == "False"


# Threads that race on the first access through a deferred reference: a
# switch interval of 1 us interleaves them inside the import itself.
RACE_PROBE = """
import sys, threading
sys.setswitchinterval(1e-6)
from pdclab import dynamics
assert "scipy.sparse" not in sys.modules
barrier = threading.Barrier(8)
got = []

def first_access():
    barrier.wait()
    got.append((dynamics.spla.splu, dynamics.sp.csr_matrix))

threads = [threading.Thread(target=first_access) for _ in range(8)]
for t in threads:
    t.start()
for t in threads:
    t.join(timeout=60)
assert not any(t.is_alive() for t in threads)
import scipy.sparse, scipy.sparse.linalg
assert got == [(scipy.sparse.linalg.splu, scipy.sparse.csr_matrix)] * 8, got
"""


def test_threads_racing_on_the_first_access_all_see_the_module():
    proc = subprocess.run(
        [sys.executable, "-c", RACE_PROBE],
        capture_output=True, text=True, env=fresh_env(), cwd=ROOT, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
