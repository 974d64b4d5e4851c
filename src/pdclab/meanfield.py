"""Semiclassical steady states, stability, and linearized fluctuations.

The factorized equations of motion

    d<a>/dt = -i g <b>^2 - gamma_a <a> + lambda_a
    d<b>/dt = -2i g <a> <b>* - gamma_b <b>

always admit the normal solution (lambda_a/gamma_a, 0) and, above the
critical drive lambda_c = gamma_a gamma_b / (2g), a pair of symmetry-broken
branches. Fluctuations around a solution evolve linearly through the 4x4
matrix W in the basis (da, da^dag, db, db^dag); their stationary second
moments come either from closed forms (normal phase only) or from a Lyapunov
equation driven by the vacuum/thermal input correlators. The two routes agree
to 1e-8 and that agreement is the oracle pinning the closed-form denominator
gamma_a^2 gamma_b^2 - 4 g^2 lambda_a^2 and the anomalous-moment prefactor.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import solve_sylvester

from .dynamics import SystemParams
from .errors import ResidualError, StabilityError
from .metrology import MeasurementRecord, default_step, error_propagation

__all__ = [
    "MeanFieldSolution",
    "StabilityReport",
    "FluctuationMoments",
    "steady_solutions",
    "mean_field_residual",
    "build_W",
    "fluct_moments_analytic",
    "fluct_moments_lyapunov",
    "delta2_g_normal",
]


@dataclass(frozen=True)
class MeanFieldSolution:
    amp_a: complex
    amp_b: complex
    branch: str  # normal | superradiant_plus | superradiant_minus


@dataclass
class StabilityReport:
    W: np.ndarray
    eigenvalues: np.ndarray
    stable: bool
    marginal: bool = field(default=False)


@dataclass(frozen=True)
class FluctuationMoments:
    n_fluct: float
    anom: complex

    def __post_init__(self):
        if self.n_fluct < 0:
            raise ValueError(f"negative fluctuation occupation {self.n_fluct}")

    @property
    def fourth(self) -> float:
        """<(db^dag db)^2> by zero-mean Gaussian decoupling: 2n^2 + n + |anom|^2."""
        n = self.n_fluct
        return 2 * n * n + n + abs(self.anom) ** 2


def mean_field_residual(params: SystemParams, sol: MeanFieldSolution) -> float:
    a, b = sol.amp_a, sol.amp_b
    r1 = -1j * params.g * b * b - params.gamma_a * a + params.lambda_a
    r2 = -2j * params.g * a * b.conjugate() - params.gamma_b * b
    return max(abs(r1), abs(r2))


def _term_scale(params: SystemParams, sol: MeanFieldSolution) -> float:
    """Largest term of the steady equations at `sol`, floored at 1.

    Round-off in the residual grows with the terms that cancel in it, so the
    residual checks are relative to this scale (absolute for O(1) terms).
    """
    a, b = sol.amp_a, sol.amp_b
    return max(
        1.0,
        abs(params.g * b * b),
        abs(params.gamma_a * a),
        abs(params.lambda_a),
        abs(2 * params.g * a * b),
        abs(params.gamma_b * b),
    )


def steady_solutions(params: SystemParams) -> list[MeanFieldSolution]:
    """All semiclassical steady states at the given parameters."""
    if params.gamma_a <= 0:
        raise ValueError("mean-field solutions need gamma_a > 0")
    sols = [
        MeanFieldSolution(params.lambda_a / params.gamma_a + 0j, 0j, "normal")
    ]
    disc = 2 * params.g * params.lambda_a - params.gamma_a * params.gamma_b
    if disc > 0 and params.g > 0:
        s = cmath.sqrt(disc).real / (2 * params.g)
        x_a = params.gamma_b / (2 * params.g)
        sols.append(
            MeanFieldSolution(x_a + 0j, s - 1j * s, "superradiant_plus")
        )
        sols.append(
            MeanFieldSolution(x_a + 0j, -s + 1j * s, "superradiant_minus")
        )
    for sol in sols:
        res = mean_field_residual(params, sol)
        tol = 1e-10 * _term_scale(params, sol)
        if res > tol:
            raise ResidualError(f"steady solution residual {res:.3e} exceeds {tol:.3e}")
    return sols


def build_W(params: SystemParams, sol: MeanFieldSolution) -> StabilityReport:
    """Linearized evolution matrix around a steady solution, with stability."""
    if mean_field_residual(params, sol) > 1e-8 * _term_scale(params, sol):
        raise ValueError("solution does not satisfy the steady equations")
    g = params.g
    a, b = sol.amp_a, sol.amp_b
    w = np.array(
        [
            [-params.gamma_a, 0, -2j * g * b, 0],
            [0, -params.gamma_a, 0, 2j * g * b.conjugate()],
            [-2j * g * b.conjugate(), 0, -params.gamma_b, -2j * g * a],
            [0, 2j * g * b, 2j * g * a.conjugate(), -params.gamma_b],
        ],
        dtype=complex,
    )
    eig = np.linalg.eigvals(w)
    stable = bool(np.all(eig.real < -1e-12))
    marginal = bool(np.any(np.abs(eig.real) <= 1e-12))
    return StabilityReport(W=w, eigenvalues=eig, stable=stable, marginal=marginal)


def _require_normal_phase(params: SystemParams):
    if 2 * params.g * params.lambda_a >= params.gamma_a * params.gamma_b:
        raise StabilityError(
            "fluctuation closed forms hold only in the normal phase "
            "(2 g lambda_a < gamma_a gamma_b)"
        )


def fluct_moments_analytic(params: SystemParams) -> FluctuationMoments:
    """Closed-form stationary fluctuation moments in the normal phase.

    With nbar = params.nbar, the signal-bath occupation,
    n = (2 g^2 lambda_a^2 + gamma_a^2 gamma_b^2 nbar) / Delta,
    <(db)^2> = -i g lambda_a gamma_a gamma_b (1 + 2 nbar) / Delta,
    Delta = gamma_a^2 gamma_b^2 - 4 g^2 lambda_a^2; the fourth moment is
    identically the quoted quartic form at nbar = 0. The printed
    zero-temperature forms differ (README, Quirks).
    """
    _require_normal_phase(params)
    g, lam, nbar = params.g, params.lambda_a, params.nbar
    ga, gb = params.gamma_a, params.gamma_b
    delta = ga * ga * gb * gb - 4 * g * g * lam * lam
    n = (2 * g * g * lam * lam + ga * ga * gb * gb * nbar) / delta
    anom = -1j * g * lam * ga * gb * (1 + 2 * nbar) / delta
    return FluctuationMoments(n, anom)


def fluct_moments_lyapunov(
    report: StabilityReport, params: SystemParams
) -> FluctuationMoments:
    """Stationary fluctuation moments from the Lyapunov equation.

    Solves W M + M W^T + D = 0 for M_ij = <h_i h_j> with the diffusion matrix
    assembled from the input correlators: vacuum pump <a_in a_in^dag> = delta,
    thermal signal <b_in^dag b_in> = nbar delta, <b_in b_in^dag> = (nbar + 1)
    delta, with nbar = params.nbar. This normalization reproduces
    n_fluct = nbar for a decoupled decaying mode, which fixes every
    factor-of-2 choice.
    """
    if not report.stable:
        raise StabilityError("unstable W: no stationary covariance exists")
    d = np.zeros((4, 4), dtype=complex)
    d[0, 1] = 2.0 * params.gamma_a
    d[2, 3] = 2.0 * params.gamma_b * (params.nbar + 1.0)
    d[3, 2] = 2.0 * params.gamma_b * params.nbar
    m = solve_sylvester(report.W, report.W.T, -d)
    n = float(m[3, 2].real)
    anom = complex(m[2, 2])
    if -1e-12 < n < 0:
        n = 0.0
    return FluctuationMoments(n, anom)


def delta2_g_normal(params: SystemParams) -> float:
    """Photon-detection uncertainty of g in the normal phase, from the moments.

    Variance and sensitivity are assembled from the fluctuation moments:
    Var = fourth - n^2 with a central-difference d n / d g, then error
    propagation. This is the route independent of the quoted closed form
    analytic.delta2_g("normal_phase"): the two agree exactly at nbar = 0 and
    converge onto each other at the critical point for nbar > 0.
    """
    _require_normal_phase(params)
    mom = fluct_moments_analytic(params)
    h = default_step(params.g)
    # keep the stencil inside the normal phase: both in g > 0 and below the
    # critical coupling gamma_a gamma_b / (2 lambda_a)
    if params.g > 0:
        h = min(h, 0.25 * params.g)
    if params.lambda_a > 0:
        headroom = (
            params.gamma_a * params.gamma_b / (2 * params.lambda_a) - params.g
        )
        # n diverges at the critical coupling; stay well clear of the pole or
        # the quadratic finite-difference error swamps the derivative
        h = min(h, 0.02 * headroom)
    up = fluct_moments_analytic(replace(params, g=params.g + h))
    dn = fluct_moments_analytic(replace(params, g=params.g - h))
    rec = MeasurementRecord(
        mean=mom.n_fluct,
        variance=mom.fourth - mom.n_fluct**2,
        dmean_dg=(up.n_fluct - dn.n_fluct) / (2.0 * h),
    )
    return error_propagation(rec)
