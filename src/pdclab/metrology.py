"""Fisher-information estimators and measurement statistics.

Three QFI routes: pure-state finite differences, the Gaussian-state formula,
and, for mixed states, the Braunstein-Caves sum over the derivative of rho in
the eigenbasis of rho, which needs no eigenvector derivative and no special
case for degenerate spectra. Parameter derivatives are always central
differences with step 1e-4 * max(|g|, 1) unless overridden by a finite,
positive step; qfi_pure additionally applies one Richardson level. The
measurement side is the error-propagation uncertainty for photon counting and
quadrature detection on a state family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DivergenceError
from .hilbert import (
    DensityMatrix,
    FockSpace,
    Operator,
    StateVector,
    TensorSpace,
    annihilation,
    embed,
    expectation,
)

__all__ = [
    "MeasurementRecord",
    "GaussianMoments",
    "GaussianDerivatives",
    "QfiResult",
    "qfi_pure",
    "qfi_gaussian",
    "qfi_gaussian_family",
    "qfi_spectral",
    "error_propagation",
    "photon_stats",
    "homodyne_stats",
    "gaussian_moments",
]

# qfi_spectral sums only over eigenvalue pairs whose sum exceeds _EIGEN_FLOOR.
_EIGEN_FLOOR = 1e-12


def default_step(g: float) -> float:
    return 1e-4 * max(abs(g), 1.0)


def _fd_step(g: float, step: float | None) -> float:
    """The central-difference step: default_step(g), or step if finite and > 0."""
    if step is None:
        return default_step(g)
    if not (math.isfinite(step) and step > 0):
        raise ValueError(f"step must be finite and positive, got {step}")
    return step


def _phase_factor(phase: float) -> complex:
    return complex(math.cos(phase), math.sin(phase))


@dataclass(frozen=True)
class MeasurementRecord:
    mean: float
    variance: float
    dmean_dg: float

    def __post_init__(self):
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.variance < 0:
            raise ValueError(f"negative variance {self.variance}")


@dataclass(frozen=True)
class QfiResult:
    value: float
    method: str  # pure | gaussian | spectral
    fd_step: float

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ValueError(f"QFI must be finite, got {self.value!r}")
        if self.value < 0:
            raise ValueError(f"negative QFI {self.value}")


@dataclass
class GaussianMoments:
    """First and symmetrized second moments of X = (q, p).

    q = (b - b^dag)/(i sqrt(2)), p = (b + b^dag)/sqrt(2);
    C_ij = (1/2)<X_i X_j + X_j X_i> - <X_i><X_j>.
    """

    displacement: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        self.displacement = np.asarray(self.displacement, dtype=float).reshape(2)
        self.covariance = np.asarray(self.covariance, dtype=float).reshape(2, 2)
        if abs(self.covariance[0, 1] - self.covariance[1, 0]) > 1e-9:
            raise ValueError("covariance must be symmetric")
        if np.linalg.det(self.covariance) < 0.25 - 1e-9:
            raise ValueError("covariance below the uncertainty bound")

    @property
    def d(self) -> float:
        return math.sqrt(np.linalg.det(self.covariance))


@dataclass(frozen=True)
class GaussianDerivatives:
    """Parameter derivatives of a GaussianMoments family."""

    displacement: np.ndarray
    covariance: np.ndarray
    d: float


# --- QFI estimators ------------------------------------------------------------

def qfi_pure(
    family: Callable[[float], StateVector], g: float, step: float | None = None
) -> QfiResult:
    """F = 4(<dpsi|dpsi> - |<psi|dpsi>|^2) by central differences.

    Two step sizes feed one Richardson extrapolation level, so the leading
    O(step^2) derivative bias cancels. Each family member is a StateVector,
    normalized by construction.
    """
    h = _fd_step(g, step)
    y0 = family(g).amplitudes

    def estimate(hh: float) -> float:
        plus, minus = family(g + hh), family(g - hh)
        dpsi = (plus.amplitudes - minus.amplitudes) / (2.0 * hh)
        return 4.0 * (np.vdot(dpsi, dpsi).real - abs(np.vdot(y0, dpsi)) ** 2)

    f_h = estimate(h)
    f_h2 = estimate(h / 2.0)
    value = (4.0 * f_h2 - f_h) / 3.0
    if value < 0:
        if value < -1e-6 * max(1.0, abs(f_h)):
            raise ValueError(f"QFI estimate {value:.3e} is significantly negative")
        value = 0.0
    return QfiResult(value, "pure", h)


def qfi_gaussian(m: GaussianMoments, dm: GaussianDerivatives) -> QfiResult:
    """Gaussian-state QFI from moments and their parameter derivatives.

    F = 2d^2/(4d^2+1) Tr[(C^-1 dC)^2] + 8(dd)^2/(16d^4-1) + dX^T C^-1 dX.
    The middle term is taken as its limit 0 when 16d^4 - 1 vanishes together
    with the derivative of d (pure covariance that stays pure).
    """
    c = m.covariance
    det = np.linalg.det(c)
    if abs(det) < 1e-300:
        raise ValueError("singular covariance")
    cinv = np.linalg.inv(c)
    d = m.d
    dc = np.asarray(dm.covariance, dtype=float).reshape(2, 2)
    dx = np.asarray(dm.displacement, dtype=float).reshape(2)

    t1 = 2.0 * d * d / (4.0 * d * d + 1.0) * np.trace(cinv @ dc @ cinv @ dc)
    denom = 16.0 * d**4 - 1.0
    if abs(denom) < 1e-10:
        if abs(dm.d) < 1e-5:
            t2 = 0.0
        else:
            raise ValueError(
                "Gaussian QFI middle term singular: pure-state covariance with "
                "nonvanishing d-derivative"
            )
    else:
        t2 = 8.0 * dm.d * dm.d / denom
    t3 = float(dx @ cinv @ dx)
    value = float(t1) + t2 + t3
    return QfiResult(max(value, 0.0), "gaussian", 0.0)


def qfi_gaussian_family(
    family: Callable[[float], GaussianMoments], g: float, step: float | None = None
) -> QfiResult:
    """Gaussian QFI with the derivatives taken over a moment family."""
    h = _fd_step(g, step)
    m0 = family(g)
    mp, mm = family(g + h), family(g - h)
    dm = GaussianDerivatives(
        displacement=(mp.displacement - mm.displacement) / (2.0 * h),
        covariance=(mp.covariance - mm.covariance) / (2.0 * h),
        d=(mp.d - mm.d) / (2.0 * h),
    )
    res = qfi_gaussian(m0, dm)
    return QfiResult(res.value, "gaussian", h)


def qfi_spectral(
    rho_family: Callable[[float], DensityMatrix],
    g: float,
    step: float | None = None,
) -> QfiResult:
    """Mixed-state QFI from the derivative of rho in the eigenbasis of rho(g).

    F = sum_{k, l: E_k + E_l > eps} 2 |<k| drho |l>|^2 / (E_k + E_l)
    (Braunstein-Caves) with eps = _EIGEN_FLOOR and drho the central difference
    of the density matrix. Every term is non-negative and depends on the
    eigenbasis only through its eigenspaces, so degenerate spectra need no
    special case.
    """
    h = _fd_step(g, step)
    evals, vecs = np.linalg.eigh(rho_family(g).matrix)
    drho = (rho_family(g + h).matrix - rho_family(g - h).matrix) / (2.0 * h)
    weights = np.abs(vecs.conj().T @ drho @ vecs) ** 2
    pair_sum = evals[:, None] + evals[None, :]
    kept = pair_sum > _EIGEN_FLOOR
    return QfiResult(float(np.sum(2.0 * weights[kept] / pair_sum[kept])), "spectral", h)


# --- measurement statistics -----------------------------------------------------

def error_propagation(rec: MeasurementRecord) -> float:
    """delta^2 g = Var(M) / (d<M>/dg)^2."""
    if rec.dmean_dg == 0:
        raise DivergenceError("observable carries no signal: uncertainty divergent")
    return rec.variance / rec.dmean_dg**2


def _mode_annihilation(space, mode: int | None) -> Operator:
    if isinstance(space, TensorSpace):
        if mode is None:
            raise ValueError("composite state: specify the mode index")
        return embed(annihilation(space.factors[mode]), mode, space.factors)
    if isinstance(space, FockSpace):
        return annihilation(space)
    raise TypeError(f"unsupported space {space!r}")


def _observable_record(
    family,
    g: float,
    observable: Callable[[FockSpace | TensorSpace], Operator],
    step: float | None,
) -> MeasurementRecord:
    """Statistics of observable(space) over the family at g - h, g, g + h.

    The observable is built on the space of the state at g, so each of the
    three family points is evaluated once.
    """
    h = _fd_step(g, step)
    state0 = family(g)
    obs = observable(state0.space)
    mean = expectation(obs, state0).real
    second = expectation(obs @ obs, state0).real
    var = second - mean * mean
    if var < 0:
        if var < -1e-8:
            raise ValueError(f"variance {var:.3e} negative beyond tolerance")
        var = 0.0
    mp = expectation(obs, family(g + h)).real
    mm = expectation(obs, family(g - h)).real
    return MeasurementRecord(mean, var, (mp - mm) / (2.0 * h))


def photon_stats(
    family, g: float, mode: int | None = None, step: float | None = None
) -> MeasurementRecord:
    """Mean, variance, and g-derivative of the mode occupation b^dag b."""

    def occupation(space) -> Operator:
        b = _mode_annihilation(space, mode)
        return b.dag() @ b

    return _observable_record(family, g, occupation, step)


def homodyne_stats(
    family,
    g: float,
    phase: float = 0.0,
    mode: int | None = None,
    step: float | None = None,
) -> MeasurementRecord:
    """Statistics of the quadrature b e^{-i phase} + b^dag e^{i phase}."""

    def quadrature(space) -> Operator:
        b = _mode_annihilation(space, mode)
        return _phase_factor(-phase) * b + _phase_factor(phase) * b.dag()

    return _observable_record(family, g, quadrature, step)


def gaussian_moments(state, mode: int | None = None) -> GaussianMoments:
    """Extract (q, p) displacement and covariance from a quantum state."""
    b = _mode_annihilation(state.space, mode)
    mb = expectation(b, state)
    mb2 = expectation(b @ b, state)
    mn = expectation(b.dag() @ b, state).real
    q = math.sqrt(2.0) * mb.imag
    p = math.sqrt(2.0) * mb.real
    cqq = (2.0 * mn + 1.0 - 2.0 * mb2.real) / 2.0 - q * q
    cpp = (2.0 * mn + 1.0 + 2.0 * mb2.real) / 2.0 - p * p
    cqp = mb2.imag - q * p
    return GaussianMoments(
        displacement=np.array([q, p]),
        covariance=np.array([[cqq, cqp], [cqp, cpp]]),
    )
