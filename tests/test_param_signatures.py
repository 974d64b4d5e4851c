"""SystemParams is the one source of each physical parameter: no public function
that takes a SystemParams also takes a parameter named after one of its fields.
The solvers own their accuracy: no public function of dynamics or hilbert takes
a tolerance parameter."""

from __future__ import annotations

import inspect
import typing
from dataclasses import fields

from pdclab import analytic, cli, dynamics, hilbert, meanfield, metrology
from pdclab.dynamics import SystemParams

FIELDS = {f.name for f in fields(SystemParams)}
MODULES = (analytic, cli, dynamics, hilbert, meanfield, metrology)
TOLERANCE_NAMES = {"tol", "rtol", "atol"}


def takes_params(fn) -> bool:
    return SystemParams in typing.get_type_hints(fn).values()


def shadowed_fields(fn) -> list[str]:
    """Parameters of fn named after a SystemParams field, if fn takes a SystemParams."""
    if not takes_params(fn):
        return []
    return [name for name in inspect.signature(fn).parameters if name in FIELDS]


def tolerance_parameters(fn) -> list[str]:
    return [name for name in inspect.signature(fn).parameters if name in TOLERANCE_NAMES]


def public_functions(modules=MODULES):
    """(qualified name, function) of every public function and public method."""
    for module in modules:
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{module.__name__}.{name}", obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    fn = getattr(member, "__func__", member)  # unwrap classmethods
                    if not attr.startswith("_") and inspect.isfunction(fn):
                        yield f"{module.__name__}.{name}.{attr}", fn


def test_checker_finds_a_shadow_parameter():
    def shadowing(params: SystemParams, nbar: float = 0.0, method: str = "printed"):
        return params, nbar, method

    def unrelated(nbar: float, g: float):
        return nbar, g

    assert shadowed_fields(shadowing) == ["nbar"]
    assert shadowed_fields(unrelated) == []


def test_no_public_function_shadows_a_params_field():
    functions = dict(public_functions())
    assert sum(takes_params(fn) for fn in functions.values()) > 10
    found = {name: shadowed_fields(fn) for name, fn in functions.items()}
    found = {name: shadows for name, shadows in found.items() if shadows}
    assert not found, f"parameters that shadow SystemParams fields: {found}"


def test_checker_finds_a_tolerance_parameter():
    def knob(model, t: float, rtol: float = 1e-8, atol: float = 1e-10):
        return model, t, rtol, atol

    def fixed(model, t: float):
        return model, t

    assert tolerance_parameters(knob) == ["rtol", "atol"]
    assert tolerance_parameters(fixed) == []


def test_no_solver_takes_a_tolerance():
    functions = dict(public_functions((dynamics, hilbert)))
    assert {"pdclab.dynamics.evolve_open", "pdclab.dynamics.steady_state",
            "pdclab.hilbert.Operator.is_hermitian"} <= set(functions)
    found = {name: tolerance_parameters(fn) for name, fn in functions.items()}
    found = {name: knobs for name, knobs in found.items() if knobs}
    assert not found, f"tolerance parameters of public solvers: {found}"
