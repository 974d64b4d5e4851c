"""No module imports a name it never uses, no private module-level name of
the package goes unreferenced (no linter ships with the package), one
function of the package calls solve_ivp, and import pdclab leaves out the
scipy subpackages that only one function each needs."""

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


def test_solve_ivp_has_one_call_site():
    # evolve_open's DOP853 route is the package's one ODE integration
    found = [
        f"{path.stem}.{caller}"
        for path in sorted((ROOT / "src" / "pdclab").glob("*.py"))
        for caller in solve_ivp_callers(path.read_text())
    ]
    assert found == ["dynamics._evolve_ode"]


# scipy subpackages that a single function each needs: imported inside it
DEFERRED = ("scipy.optimize", "scipy.integrate", "scipy.special")


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
        "import scipy.integrate as si\nfrom scipy import optimize\n"
        "try:\n    from scipy.special import gammainc\nexcept ImportError:\n    pass\n"
        "class C:\n    import scipy.special\n"
        "def f():\n    from scipy.optimize import minimize_scalar\n"
    )
    flagged = [(line, name) for line, name in module_level_imports(source) if deferred(name)]
    assert flagged == [
        (1, "scipy.integrate"), (2, "scipy.optimize"),
        (4, "scipy.special"), (4, "scipy.special.gammainc"), (8, "scipy.special"),
    ]


def test_no_module_level_import_of_a_deferred_subpackage():
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in sorted((ROOT / "src" / "pdclab").glob("*.py"))
        for line, name in module_level_imports(path.read_text())
        if deferred(name)
    ]
    assert not found, "module-level imports of deferred subpackages:\n" + "\n".join(found)


# A fresh interpreter: the test session has loaded all of scipy long before.
# Each step prints the deferred subpackages loaded so far and its result.
IMPORT_PROBE = """
import json, sys
import pdclab.cli
from pdclab.analytic import lambda_sensor
from pdclab.dynamics import SystemParams, build_full_model, evolve_open
from pdclab.hilbert import FockSpace, coherent_state, density_from_state, fock_state, tensor_state

def step(value):
    print(json.dumps([sorted(m for m in DEFERRED if m in sys.modules), value]))

DEFERRED = {deferred!r}
step(None)
step(abs(coherent_state(1.5 - 0.5j, FockSpace(40)).amplitudes[0]) ** 2)
step(lambda_sensor(SystemParams(g=0.2, lambda_a=1.0, gamma_a=2.0, gamma_b=0.0, kappa_e=0.05))[2].g_opt)
full = build_full_model(SystemParams(g=0.2, lambda_a=0.01, gamma_a=10.0, gamma_b=1.0), 4, 8)
vac = tensor_state(fock_state(0, FockSpace(4)), fock_state(0, FockSpace(8)))
step(evolve_open(full, density_from_state(vac), 2.0).matrix.trace().real)
"""


def test_import_pdclab_defers_and_each_deferred_path_still_works():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE.format(deferred=DEFERRED)],
        capture_output=True, text=True, env=env, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    (loaded, _), (special, vacuum), (optimize, g_opt), (integrate, trace) = map(
        json.loads, proc.stdout.splitlines()
    )
    assert loaded == []
    # coherent_state's tail check (gammainc) passed: |<0|alpha>|^2 = exp(-|alpha|^2)
    assert special == ["scipy.special"]
    assert vacuum == pytest.approx(math.exp(-2.5), rel=1e-12)
    # minimize_scalar finds the optimum coupling sqrt(gamma_a kappa_e / 2)
    assert "scipy.optimize" in optimize and "scipy.integrate" not in optimize
    assert g_opt == pytest.approx(math.sqrt(2.0 * 0.05 / 2), rel=1e-6)
    # criterion 11's full 4x8 model at t = 2 takes the DOP853 route
    assert "scipy.integrate" in integrate
    assert trace == pytest.approx(1.0, abs=1e-9)
