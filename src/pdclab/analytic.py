"""Closed-form results for the down-conversion system.

Steady-state moment series of the reduced model, closed-system QFI formulas,
measurement-uncertainty formulas for every dissipative regime, the mean-field
critical drive, and the driving-strength sensor. Each closed form is
transcribed once, so that the numerical modules can be validated against it
(and vice versa: the series conventions here were themselves pinned against
the Liouvillian solver, see moment_ss).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import astuple, dataclass

from .dynamics import SystemParams
from .errors import DivergenceError, SeriesConvergenceError

__all__ = [
    "Semiclassical",
    "FullyQuantum",
    "Classical",
    "SensorOptimum",
    "qfi_closed_form",
    "optimal_allocation",
    "moment_ss",
    "moment_gb0",
    "qfi_gb0_closed",
    "delta2_g",
    "delta2_g_homodyne_phase",
    "critical_lambda",
    "lambda_sensor",
]

_SERIES_BUDGET = 100_000
# moment_ss stops once 5 consecutive terms stay below _SERIES_TOL of the sum.
_SERIES_TOL = 1e-14


# --- closed-system QFI -----------------------------------------------------

@dataclass(frozen=True)
class Semiclassical:
    """Coherent pump of mean occupation alpha_sq, signal Fock state n."""

    alpha_sq: float
    n: float


@dataclass(frozen=True)
class FullyQuantum:
    """Fock pump n1, Fock signal n2."""

    n1: float
    n2: float


@dataclass(frozen=True)
class Classical:
    """Coherent pump |alpha1|^2 = alpha1_sq, coherent signal alpha2_sq."""

    alpha1_sq: float
    alpha2_sq: float


def qfi_closed_form(initial, t: float) -> float:
    """QFI of closed evolution for time t, by initial-state class.

    The generator of g is G = a b^dag^2 + a^dag b^2; for a g-independent
    family under exp(-iHt) the QFI is 4 t^2 Var(G), which collapses to a
    closed form for each product initial state. A pump of mean occupation a1
    (coherent or Fock) with a signal Fock state n gives
    4 (a1 (2n^2 + 2n + 2) + n (n - 1)) t^2; a coherent signal of mean
    occupation a2 gives 4 (a2^2 + 4 a1 a2 + 2 a1) t^2.
    """
    if not isinstance(initial, (Semiclassical, FullyQuantum, Classical)):
        raise TypeError(f"unknown initial-state class {type(initial).__name__}")
    a1, a2 = astuple(initial)
    if a1 < 0 or a2 < 0:
        raise ValueError("occupations must be non-negative")
    if isinstance(initial, Classical):
        return 4.0 * (a2 * a2 + 4 * a1 * a2 + 2 * a1) * t * t
    return 4.0 * (a1 * (2 * a2 * a2 + 2 * a2 + 2) + a2 * (a2 - 1)) * t * t


def optimal_allocation(n_total: float, t: float) -> tuple[float, float]:
    """Best split of N photons between modes for the semiclassical state.

    Leading-order optimum: n_signal = 2N/3, F = (32/27) N^3 t^2. At finite N
    the full closed form peaks at the same grid point but its value carries a
    relative correction of order 3/N.
    """
    if n_total <= 0:
        raise ValueError("photon budget must be positive")
    return 2.0 * n_total / 3.0, (32.0 / 27.0) * n_total**3 * t * t


# --- hypergeometric moments --------------------------------------------------

def _series_f(z: float, upto: int) -> list[float]:
    """f_m = 2F1(-m, z/2; z; 2) for m = 0..upto via (z+m) f_{m+1} = m f_{m-1}.

    The terminating series obeys this two-step recurrence, which makes every
    odd f vanish and keeps the even ones in (0, 1] for z >= 0. The z = 0
    limit (gamma_b = 0) is regular here even though the direct Pochhammer sum
    has a pole. This is the one home of the recurrence: moment_ss asks for a
    longer list whenever its sum runs past the one it holds.
    """
    f = [1.0, 0.0]
    for m in range(1, upto):
        f.append(m * f[m - 1] / (z + m))
    return f[: upto + 1]


def moment_ss(l: int, k: int, params: SystemParams) -> complex:
    """Steady-state <b^dag^l b^k> of the reduced model from the moment series.

    Working convention (pinned by matching the Liouvillian null space to
    machine precision across the weak- and strong-coupling test points):

        <b^dag^l b^k> = (u*)^l u^k / (N 2^{(l+k)/2})
                        * sum_m |u|^{2m} f_{m+l} f_{m+k} / m!

    with u = -mu/sqrt(2), mu = i sqrt(4i eps / kp), eps = g lambda_a / gamma_a,
    kp = kappa + kappa_e, f_m the terminating hypergeometric values of
    _series_f at z = gamma_b / kp, and N the l = k = 0 sum. Odd l + k moments
    vanish identically (weak b -> -b symmetry of the generator). The m-sum
    stops once the running term stays below _SERIES_TOL times the partial sum
    for 5 consecutive terms.
    """
    if l < 0 or k < 0:
        raise ValueError("moment orders must be non-negative")
    if params.nbar != 0:
        raise ValueError("moment series assumes a zero-temperature signal bath")
    if params.g <= 0:
        raise ValueError("moment series requires g > 0")
    kp = params.kappa + params.kappa_e
    if kp <= 0:
        raise ValueError("moment series requires a positive two-photon rate")
    if (l + k) % 2 == 1:
        return 0.0 + 0.0j

    eps = params.g * params.lambda_a / params.gamma_a
    mu = 1j * cmath.sqrt(4j * eps / kp)
    u = -mu / math.sqrt(2.0)
    z = params.gamma_b / kp
    r = abs(u) ** 2
    off = max(l, k)
    f = _series_f(z, off + 16)

    s_sum = 0.0
    n_sum = 0.0
    w = 1.0  # r^m / m!
    consec = 0
    min_m = max(8, l + k + 4)
    m = 0
    while m < _SERIES_BUDGET:
        if len(f) <= m + off:
            f = _series_f(z, 2 * (m + off))
        c_s = w * f[m + l] * f[m + k]
        c_n = w * f[m] * f[m]
        s_sum += c_s
        n_sum += c_n
        if r == 0.0:
            break  # zero drive (u = 0): the sum is its m = 0 term
        if m >= min_m and s_sum != 0.0 and n_sum != 0.0:
            if c_s <= _SERIES_TOL * abs(s_sum) and c_n <= _SERIES_TOL * n_sum:
                consec += 1
                if consec >= 5:
                    break
            else:
                consec = 0
        m += 1
        w *= r / m
    else:
        raise SeriesConvergenceError(
            f"moment series did not converge within {_SERIES_BUDGET} terms "
            f"(|u|^2 = {r:.3e})"
        )

    return (u.conjugate() ** l) * (u**k) * s_sum / (n_sum * 2.0 ** ((l + k) / 2.0))


def moment_gb0(l: int, k: int, params: SystemParams) -> complex:
    """Steady moments on the symmetry-broken branch at gamma_b = 0.

    <b^dag^l b^k> = (i sqrt(-2i g lambda_a / (gamma_a kp)))^l
                    (-i sqrt(2i g lambda_a / (gamma_a kp)))^k,
    kp = kappa + kappa_e. A coherent-state product form; l = k = 1 gives
    N_b = 2 g lambda_a / (gamma_a kp), which is lambda_a/g at kappa_e = 0.
    """
    if l < 0 or k < 0:
        raise ValueError("moment orders must be non-negative")
    if params.gamma_b != 0:
        raise ValueError("this branch form holds only at gamma_b = 0")
    kp = params.kappa + params.kappa_e
    if kp == 0:
        raise ZeroDivisionError("zero two-photon rate: moment denominator vanishes")
    c = params.g * params.lambda_a / (params.gamma_a * kp)
    amp_dag = 1j * cmath.sqrt(-2j * c)
    amp = -1j * cmath.sqrt(2j * c)
    return amp_dag**l * amp**k


# --- measurement uncertainties ----------------------------------------------

def qfi_gb0_closed(params: SystemParams) -> float:
    """Gaussian-QFI closed form for the gamma_b = 0 steady family, kappa_e >= 0.

    F = 2 lambda_a (kappa_e gamma_a - 2g^2)^2 / (g (kappa_e gamma_a + 2g^2)^3).
    """
    if params.gamma_b != 0:
        raise ValueError("this branch form holds only at gamma_b = 0")
    g, lam = params.g, params.lambda_a
    if g <= 0:
        raise ValueError("requires g > 0")
    ke_ga = params.kappa_e * params.gamma_a
    return 2.0 * lam * (ke_ga - 2 * g * g) ** 2 / (g * (ke_ga + 2 * g * g) ** 3)


def delta2_g_homodyne_phase(params: SystemParams, phi: float) -> float:
    """Quadrature-detection uncertainty at angle phi, gamma_b = kappa_e = 0:
    2 g^3 / (lambda_a (cos phi - sin phi)^2). Other rates raise ValueError."""
    g, lam = params.g, params.lambda_a
    factor = math.cos(phi) - math.sin(phi)
    # the projection vanishes analytically at phi = pi/4 + n pi; rounding
    # leaves a ~1e-16 residue there, so test against a scale, not zero
    if abs(factor) < 1e-12 or lam == 0:
        raise DivergenceError("quadrature carries no signal at this phase")
    if params.gamma_b != 0 or params.kappa_e != 0:
        raise ValueError("the homodyne phase form holds only at gamma_b = kappa_e = 0")
    return 2.0 * g**3 / (lam * factor * factor)


def delta2_g(regime: str, observable: str, params: SystemParams) -> float:
    """Measurement uncertainty delta^2 g, by regime and observable.

    Regimes: gb0 (gamma_b = 0, any kappa_e >= 0), three_level (g -> 0 limit of
    the weak-drive model, nbar = 0), normal_phase / critical (mean-field);
    parameters outside a regime raise ValueError. In gb0, photon detection
    saturates the bound: photon and qcrb are both
    g (kappa_e gamma_a + 2g^2)^3 / (2 lambda_a (kappa_e gamma_a - 2g^2)^2),
    which is g^3 / lambda_a at kappa_e = 0; homodyne, 2 g^3 / lambda_a, has a
    closed form only at kappa_e = 0. normal_phase is the thermal form at
    params.nbar (at nbar = 0, the zero-temperature form bit for bit). The
    critical form is the printed one, (gamma_a gamma_b - 2 g lambda_a)^2 /
    (4 lambda_a^2 gamma_a gamma_b): a factor 2 gamma_a gamma_b below the limit
    of the normal-phase form (recorded inconsistency, criterion 9).
    Every form diverges at lambda_a = 0: DivergenceError.
    """
    g, lam = params.g, params.lambda_a
    ga, gb = params.gamma_a, params.gamma_b
    if lam == 0:
        raise DivergenceError("uncertainty divergent at lambda_a = 0: no drive, no signal")

    if regime == "gb0":
        if gb != 0:
            raise ValueError("the gb0 regime holds only at gamma_b = 0")
        if observable in ("photon", "qcrb"):
            ke_ga = params.kappa_e * ga
            denom = 2.0 * lam * (ke_ga - 2 * g * g) ** 2
            if denom == 0:
                raise DivergenceError(
                    "uncertainty divergent at kappa_e gamma_a = 2 g^2"
                )
            val = g * (ke_ga + 2 * g * g) ** 3 / denom
        elif observable == "homodyne":
            val = delta2_g_homodyne_phase(params, 0.0)
        else:
            raise ValueError(f"unknown observable {observable!r}")

    elif regime == "three_level":
        if params.nbar != 0:
            raise ValueError("three-level forms assume a zero-temperature signal bath")
        scale = ga * (params.kappa_e + gb) ** 2 / lam**2
        if observable == "photon":
            val = 3.0 / 16.0 * scale
        elif observable == "homodyne":
            val = scale
        elif observable == "qcrb":
            val = scale / 6.0
        else:
            raise ValueError(f"unknown observable {observable!r}")

    elif regime in ("normal_phase", "critical"):
        if observable != "photon":
            raise ValueError("mean-field forms are for photon detection")
        if 2 * g * lam > ga * gb:
            raise ValueError("supercritical parameters: not in the normal phase")
        if regime == "normal_phase":
            nbar = params.nbar
            delta = ga * ga * gb * gb - 4 * g * g * lam * lam
            bracket = (3 + 2 * nbar) * ga * ga * gb * gb + 4 * g * g * lam * lam * (
                2 * nbar - 1
            )
            val = delta**2 * bracket / (
                16 * (1 + 2 * nbar) * lam * lam * ga**4 * gb**4
            )
        else:
            val = (ga * gb - 2 * g * lam) ** 2 / (4 * lam * lam * ga * gb)

    else:
        raise ValueError(f"unknown regime {regime!r}")

    if val < 0:
        raise ValueError(f"negative uncertainty {val}")
    return val


def critical_lambda(params: SystemParams) -> float:
    """Critical drive of the mean-field transition: gamma_a gamma_b / (2g)."""
    if params.g <= 0:
        raise ValueError("critical drive undefined at g <= 0")
    return params.gamma_a * params.gamma_b / (2.0 * params.g)


# --- driving-strength sensor --------------------------------------------------

@dataclass(frozen=True)
class SensorOptimum:
    g_opt: float
    value: float
    stated_g: float  # quoted optimal coupling sqrt(gamma_a kappa_e)
    stated_value: float  # quoted optimal precision lambda_a sqrt(2 gamma_a kappa_e)
    value_at_stated_g: float


def lambda_sensor(params: SystemParams) -> tuple[float, float, SensorOptimum]:
    """Precision of the drive estimate at gamma_b = 0.

    delta^2 lambda_a = lambda_a (2g^2 + gamma_a kappa_e) / (2g), identically
    lambda_a^2 / N_b. The optimum over g is found numerically; the quoted
    optimal coupling sqrt(gamma_a kappa_e) is attached for comparison (it does
    not minimize the formula; sqrt(gamma_a kappa_e / 2) does, and reproduces
    the quoted minimum value).
    """
    if params.gamma_b != 0:
        raise ValueError("sensor formulas hold only at gamma_b = 0")
    if params.g <= 0:
        raise ValueError("requires g > 0")
    if params.lambda_a == 0:
        raise ValueError("requires lambda_a != 0: lambda_a^2 / N_b is 0/0 at zero drive")
    lam, ga, ke = params.lambda_a, params.gamma_a, params.kappa_e

    def formula(g: float) -> float:
        return lam * (2 * g * g + ga * ke) / (2 * g)

    delta2 = formula(params.g)
    n_b = moment_gb0(1, 1, params).real
    delta2_vs_nb = lam * lam / n_b

    stated_g = math.sqrt(ga * ke)
    stated_value = lam * math.sqrt(2.0 * ga * ke)
    if ke == 0:
        # no interior optimum: the formula decreases without bound as g -> 0
        opt = SensorOptimum(0.0, 0.0, 0.0, 0.0, 0.0)
    else:
        from scipy.optimize import minimize_scalar  # deferred: import pdclab skips scipy.optimize

        res = minimize_scalar(
            formula,
            bounds=(1e-12, 10.0 * math.sqrt(ga * ke)),
            method="bounded",
            options={"xatol": 1e-12},
        )
        opt = SensorOptimum(
            g_opt=float(res.x),
            value=float(res.fun),
            stated_g=stated_g,
            stated_value=stated_value,
            value_at_stated_g=formula(stated_g),
        )
    return delta2, delta2_vs_nb, opt
