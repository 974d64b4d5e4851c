"""Lindblad models and their dynamics for the down-conversion system.

Two generators are built here. The full two-mode model couples a driven pump
mode a to a signal mode b through g(a b^dag^2 + a^dag b^2) with single-photon
loss on both modes. Adiabatic elimination of the fast pump (gamma_a large)
yields the reduced single-mode model: a two-photon drive
(g lambda_a/gamma_a)(b^2 + b^dag^2) together with two-photon loss at rate
kappa + kappa_e, kappa = 2 g^2/gamma_a, plus the residual single-photon loss
gamma_b.

The dissipator convention is fixed throughout as

    rho_dot = -i[H, rho] + sum_c gamma_c (2 c rho c^dag - c^dag c rho - rho c^dag c)

so a decaying amplitude obeys d<c>/dt = -gamma_c <c> and a one-photon Fock
population decays as exp(-2 gamma t). Every Liouvillian solver here (steady
state, spectra, open evolution) works on the real generator T^H L T in a
Hermitian-operator basis (_real_generator), so the states it returns are
Hermitian by construction; trace and (on small dimensions) positivity are
checked, and violations raise instead of propagating silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.integrate import solve_ivp

from .errors import (
    DimensionMismatchError,
    IntegratorError,
    ResidualError,
    SteadyStateDegenerateError,
    TruncationError,
)
from .hilbert import (
    DensityMatrix,
    FockSpace,
    Operator,
    StateVector,
    annihilation,
    embed,
    top_level_population,
)

__all__ = [
    "SystemParams",
    "LindbladModel",
    "SteadyStateResult",
    "build_full_model",
    "build_reduced_model",
    "liouvillian_matrix",
    "evolve_closed",
    "evolve_open",
    "steady_state",
    "spectral_gap",
    "spectral_gap_converged",
    "auto_truncated_steady",
    "three_level_evolve",
    "three_level_steady",
    "three_level_occupation",
]

# Dense eigendecomposition of a Liouvillian block is O(side^3); beyond this
# side length the cost is unreasonable for a gap query.
_DENSE_EIG_MAX_SIDE = 2048

# An eigenvalue z of L is a zero mode when |Re z| <= _ZERO_MODE_CUT * ||L||_inf.
_ZERO_MODE_CUT = 1e-10

# spectral_gap_converged: the gap may move by at most _GAP_REL_TOL when the
# truncation grows by _GAP_DIM_STEP.
_GAP_DIM_STEP = 4
_GAP_REL_TOL = 0.01

# auto_truncated_steady stops once the top two Fock levels hold < _TOP_POP_TOL.
_TOP_POP_TOL = 1e-8


@dataclass(frozen=True)
class SystemParams:
    """Physical rates and amplitudes of the model.

    All quantities are dimensionless rates in the sense of the rotating-frame
    master equation, whose frame assumes the resonance omega1 = 2 omega2. nbar,
    the signal bath's thermal occupation, enters every formula only from here.
    """

    g: float
    lambda_a: float
    gamma_a: float
    gamma_b: float
    kappa_e: float = 0.0
    nbar: float = 0.0

    def __post_init__(self):
        if self.gamma_a < 0 or self.gamma_b < 0:
            raise ValueError("single-photon rates must be non-negative")
        if self.kappa_e < 0:
            raise ValueError("kappa_e must be non-negative")
        if self.nbar < 0:
            raise ValueError("thermal occupation must be non-negative")

    @property
    def kappa(self) -> float:
        """Induced two-photon rate 2 g^2/gamma_a (needs gamma_a > 0)."""
        if self.gamma_a <= 0:
            raise ValueError("kappa undefined at gamma_a = 0")
        return 2.0 * self.g * self.g / self.gamma_a


@dataclass
class LindbladModel:
    """Hamiltonian plus (rate, collapse operator) channels."""

    hamiltonian: Operator
    channels: list[tuple[float, Operator]]

    def __post_init__(self):
        if not self.hamiltonian.is_hermitian(1e-10):
            raise ValueError("model Hamiltonian is not Hermitian")
        for rate, c in self.channels:
            if rate < 0:
                raise ValueError(f"channel rate {rate} is negative")
            if c.space != self.hamiltonian.space:
                raise DimensionMismatchError("channel operator on a different space")

    @property
    def space(self):
        return self.hamiltonian.space

    @property
    def dim(self) -> int:
        return self.hamiltonian.dim


@dataclass
class SteadyStateResult:
    rho: DensityMatrix
    residual: float


def _signal_channels(params: SystemParams, b: Operator) -> list[tuple[float, Operator]]:
    # thermal bath splits into downward and upward single-photon channels
    if params.nbar > 0:
        return [
            (params.gamma_b * (params.nbar + 1.0), b),
            (params.gamma_b * params.nbar, b.dag()),
        ]
    return [(params.gamma_b, b)]


def build_full_model(params: SystemParams, d_a: int, d_b: int) -> LindbladModel:
    """Two-mode model: H = g(a b^dag^2 + a^dag b^2) + i lambda_a (a^dag - a)."""
    spaces = (FockSpace(d_a), FockSpace(d_b))
    a = embed(annihilation(spaces[0]), 0, spaces)
    b = embed(annihilation(spaces[1]), 1, spaces)
    ad, bd = a.dag(), b.dag()
    h = params.g * (a @ bd @ bd + ad @ b @ b) + (1j * params.lambda_a) * (ad - a)
    channels = [(params.gamma_a, a)] + _signal_channels(params, b)
    return LindbladModel(h, channels)


def build_reduced_model(params: SystemParams, d_b: int) -> LindbladModel:
    """Adiabatically reduced signal-mode model.

    H_b = (g lambda_a/gamma_a)(b^2 + b^dag^2), channels (gamma_b, b) and
    (kappa + kappa_e, b^2).
    """
    if params.gamma_a <= 0:
        raise ValueError("adiabatic elimination undefined at gamma_a = 0")
    space = FockSpace(d_b)
    b = annihilation(space)
    b2 = b @ b
    eps = params.g * params.lambda_a / params.gamma_a
    h = eps * (b2 + b2.dag())
    channels = _signal_channels(params, b)
    channels.append((params.kappa + params.kappa_e, b2))
    return LindbladModel(h, channels)


def liouvillian_matrix(model: LindbladModel) -> sp.csr_matrix:
    """Vectorized generator acting on vec(rho) in column-major convention.

    The superoperator is the one sparse object of the package: the dense
    Hamiltonian and collapse operators become CSR here.

    vec(A rho B) = (B^T kron A) vec(rho), hence
    L = -i(I kron H - H^T kron I)
        + sum_r r (2 conj(c) kron c - I kron c^dag c - (c^dag c)^T kron I).
    """
    d = model.dim
    ident = sp.identity(d, dtype=complex, format="csr")
    h = sp.csr_matrix(model.hamiltonian.matrix)
    lio = -1j * (sp.kron(ident, h) - sp.kron(h.T, ident))
    for rate, cop in model.channels:
        if rate == 0.0:
            continue
        c = sp.csr_matrix(cop.matrix)
        n = (c.conj().T) @ c
        lio = lio + rate * (
            2.0 * sp.kron(c.conj(), c) - sp.kron(ident, n) - sp.kron(n.T, ident)
        )
    return lio.tocsr()


def _vec(rho: np.ndarray) -> np.ndarray:
    return rho.reshape(-1, order="F")


def _unvec(v: np.ndarray, d: int) -> np.ndarray:
    return v.reshape((d, d), order="F")


def evolve_closed(
    h: Operator,
    psi0: StateVector,
    t: float,
    rtol: float = 1e-8,
    atol: float = 1e-10,
) -> StateVector:
    """Propagate |psi> under d|psi>/dt = -i H |psi| with adaptive stepping."""
    if not h.is_hermitian(1e-10):
        raise IntegratorError("closed evolution requires a Hermitian Hamiltonian")
    if h.space != psi0.space:
        raise DimensionMismatchError("Hamiltonian and state spaces differ")
    if t == 0:
        return psi0
    mat = h.matrix

    def rhs(_t, y):
        return -1j * (mat @ y)

    sol = solve_ivp(
        rhs, (0.0, t), psi0.amplitudes, method="DOP853", rtol=rtol, atol=atol
    )
    if sol.status != 0:
        raise IntegratorError(f"closed evolution failed: {sol.message}")
    y = sol.y[:, -1]
    drift = abs(np.linalg.norm(y) - 1.0)
    if drift > 1e-6:
        raise IntegratorError(f"norm drift {drift:.2e} exceeds tolerance")
    return StateVector(y / np.linalg.norm(y), psi0.space)


def evolve_open(
    model: LindbladModel,
    rho0: DensityMatrix,
    t: float,
    rtol: float = 1e-8,
    atol: float = 1e-10,
) -> DensityMatrix:
    """Integrate the master equation from rho0 for time t.

    The integration runs on the real coordinates x of _real_generator,
    dx/dt = M x, so rtol and atol apply to them and the result is Hermitian by
    construction. The trace is verified on the result; positivity is verified
    when the dimension is small enough for an eigendecomposition to be cheap.
    """
    if model.space != rho0.space:
        raise DimensionMismatchError("model and state spaces differ")
    if t == 0:
        return rho0
    d = model.dim
    basis, m = _real_generator(liouvillian_matrix(model))

    def rhs(_t, x):
        return m @ x

    x0 = (basis.conj().T @ _vec(rho0.matrix)).real
    sol = solve_ivp(rhs, (0.0, t), x0, method="DOP853", rtol=rtol, atol=atol)
    if sol.status != 0:
        raise IntegratorError(f"open evolution failed: {sol.message}")
    rho = _unvec(basis @ sol.y[:, -1], d)

    tol_eff = max(rtol, atol)
    tr_dev = abs(np.trace(rho).real - 1.0)
    if tr_dev > 10 * max(tol_eff, 1e-9):
        raise IntegratorError(f"trace drift {tr_dev:.2e} beyond 10x tolerance")
    rho = rho / np.trace(rho).real
    if d <= 128:
        lo = float(np.linalg.eigvalsh(rho)[0])
        if lo < -1e3 * tol_eff:
            raise IntegratorError(f"positivity violated: min eigenvalue {lo:.2e}")
    return DensityMatrix(rho, rho0.space, tol=1e-7)


def _trace_row_system(m: sp.csr_matrix, d: int):
    """Replace row 0 of the real generator M with the trace functional, ones
    on the d diagonal coordinates; the rhs selects trace = 1."""
    coo = m.tocoo()
    keep = coo.row != 0
    rows = np.concatenate([coo.row[keep], np.zeros(d, dtype=coo.row.dtype)])
    cols = np.concatenate([coo.col[keep], np.arange(d)])
    data = np.concatenate([coo.data[keep], np.ones(d)])
    a = sp.csc_matrix((data, (rows, cols)), shape=m.shape)
    b = np.zeros(m.shape[0])
    b[0] = 1.0
    return a, b


def _condition_number(a: sp.csc_matrix, lu) -> float:
    """1-norm condition number ||A||_1 ||A^-1||_1 from the factorization of A.

    ||A^-1||_1 is the single-column Hager-Higham estimate (the one LAPACK gecon
    uses), applied through lu.solve and its transpose (A is real); with one
    column the estimator draws no random vectors.
    """
    inv = spla.LinearOperator(
        a.shape, matvec=lu.solve, rmatvec=lambda v: lu.solve(v, trans="T"), dtype=a.dtype
    )
    return spla.norm(a, 1) * spla.onenormest(inv, t=1)


def _hermitian_basis(d: int) -> sp.csc_matrix:
    """Unitary T from real Hermitian-basis coordinates to column-major vec(rho).

    The coordinates are rho[k, k], then sqrt(2) Re rho[m, n] and
    sqrt(2) Im rho[m, n] for each m < n; column j of T is vec of the Hermitian
    basis matrix E_kk, (E_mn + E_nm)/sqrt(2) or i(E_mn - E_nm)/sqrt(2).
    """
    m, n = np.triu_indices(d, 1)
    upper, lower = m + n * d, n + m * d
    re = d + 2 * np.arange(m.size)
    h = math.sqrt(0.5)
    rows = np.concatenate([np.arange(d) * (d + 1), upper, lower, upper, lower])
    cols = np.concatenate([np.arange(d), re, re, re + 1, re + 1])
    data = np.concatenate([np.ones(d), np.full(2 * m.size, h),
                           np.full(m.size, 1j * h), np.full(m.size, -1j * h)])
    return sp.csc_matrix((data, (rows, cols)), shape=(d * d, d * d))


def _real_generator(lio: sp.csr_matrix) -> tuple[sp.csc_matrix, sp.csr_matrix]:
    """T from _hermitian_basis and the real generator M = T^H L T.

    A Lindbladian preserves Hermiticity, so M is real; its imaginary part must
    be rounding, at most 1e-12 ||L||_inf, else ResidualError. With
    vec(rho) = T x, the master equation reads dx/dt = M x.
    """
    t = _hermitian_basis(math.isqrt(lio.shape[0]))
    m = (t.conj().T @ lio @ t).tocsr()
    bound = 1e-12 * spla.norm(lio, np.inf)
    imag = abs(m.imag).max()
    if imag > bound:
        raise ResidualError(
            f"Liouvillian is not real in the Hermitian basis: imaginary part "
            f"{imag:.3e} exceeds {bound:.3e}"
        )
    m = m.real
    m.eliminate_zeros()
    return t, m


def _block_spectra(lio: sp.csr_matrix) -> np.ndarray | None:
    """Eigenvalues of L, one real invariant block of _real_generator at a time.

    Each weakly connected component of the real matrix's sparsity pattern is
    an invariant block, so the spectrum of L is the union of the blocks'
    spectra, each from one real dense eigensolve. Returns None when the
    largest block is longer than _DENSE_EIG_MAX_SIDE.
    """
    from scipy.sparse.csgraph import connected_components

    _, m = _real_generator(lio)
    _, labels = connected_components(m, connection="weak")
    sizes = np.bincount(labels)
    if sizes.max() > _DENSE_EIG_MAX_SIDE:
        return None
    blocks = np.split(np.argsort(labels, kind="stable"), np.cumsum(sizes)[:-1])
    return np.concatenate([np.linalg.eigvals(m[idx][:, idx].toarray()) for idx in blocks])


def _kernel_dimension(lio: sp.csr_matrix) -> int | None:
    """Count the zero modes of L (see _ZERO_MODE_CUT) from its block spectra,
    or None when a block is too large to eigensolve."""
    ev = _block_spectra(lio)
    if ev is None:
        return None
    return int(np.sum(np.abs(ev.real) <= _ZERO_MODE_CUT * spla.norm(lio, np.inf)))


def _clean_density(v: np.ndarray, d: int) -> np.ndarray:
    rho = _unvec(v, d)
    return rho / np.trace(rho).real


def steady_state(model: LindbladModel, tol: float = 1e-10) -> SteadyStateResult:
    """Steady state from the Liouvillian null space with trace normalization.

    Row 0 of the real generator M = T^H L T (_real_generator) is replaced by
    the trace functional, ones on the d diagonal coordinates, and the
    resulting real matrix A is factorized once; rho = unvec(T x) is then
    Hermitian by construction. A is nonsingular exactly when the kernel of L is
    one-dimensional, so the kernel counts as degenerate when the LU meets an
    exactly zero pivot or A is numerically singular: cond1(A) * eps >= 1,
    i.e. rcond <= machine epsilon, the singularity test of LAPACK xGESVX and
    MATLAB. A singular A raises SteadyStateDegenerateError carrying the count
    of L's zero modes, or None when L is too large to count them. tol is the
    acceptance bound of the solve: a residual max|L vec(rho)| above
    max(tol, 1e-12) * max(1, ||L||_inf) raises ResidualError.
    """
    if not any(rate > 0 for rate, _ in model.channels):
        raise ValueError("steady_state needs at least one dissipative channel")
    d = model.dim
    lio = liouvillian_matrix(model)
    basis, m = _real_generator(lio)
    a, b = _trace_row_system(m, d)

    try:
        lu = spla.splu(a)
        x = lu.solve(b)
        x += lu.solve(b - a @ x)  # one step of iterative refinement
        singular = not (
            np.all(np.isfinite(x))
            and _condition_number(a, lu) * np.finfo(float).eps < 1.0
        )
    except RuntimeError:  # exactly singular pivot
        singular = True
    if singular:
        kdim = _kernel_dimension(lio)
        counted = "too large to count" if kdim is None else kdim
        raise SteadyStateDegenerateError(
            f"no unique steady state: the trace-row system is singular "
            f"(Liouvillian zero modes: {counted})",
            kernel_dim=kdim,
        )

    rho = _clean_density(basis @ x, d)
    residual = float(np.abs(lio @ _vec(rho)).max())
    bound = max(tol, 1e-12) * max(1.0, spla.norm(lio, np.inf))
    if residual > bound:
        raise ResidualError(f"steady-state residual {residual:.3e} exceeds {bound:.3e}")
    return SteadyStateResult(DensityMatrix(rho, model.space, tol=1e-7), residual)


def spectral_gap(model: LindbladModel) -> float:
    """Smallest nonzero decay rate: -max{Re z : z in spec(L), Re z < -eps}.

    eps = _ZERO_MODE_CUT * ||L||_inf, the zero-mode cut of _kernel_dimension;
    the spectrum comes from _block_spectra.
    """
    lio = liouvillian_matrix(model)
    ev = _block_spectra(lio)
    if ev is None:
        raise ValueError(
            f"Liouvillian has an invariant block longer than {_DENSE_EIG_MAX_SIDE}, "
            "too large for dense spectral analysis; reduce the truncation"
        )
    eps = _ZERO_MODE_CUT * spla.norm(lio, np.inf)
    decaying = ev.real[ev.real < -eps]
    if decaying.size == 0:
        raise ValueError("no decaying modes below the zero-mode threshold")
    return float(-decaying.max())


def spectral_gap_converged(builder: Callable[[int], LindbladModel], dim: int) -> float:
    """Spectral gap with a truncation-convergence check.

    Recomputes the gap at truncation dim + _GAP_DIM_STEP and raises
    TruncationError when the two values differ by more than _GAP_REL_TOL.
    """
    g1 = spectral_gap(builder(dim))
    g2 = spectral_gap(builder(dim + _GAP_DIM_STEP))
    if abs(g1 - g2) > _GAP_REL_TOL * max(abs(g1), abs(g2)):
        raise TruncationError(
            f"spectral gap moved from {g1:.6e} to {g2:.6e} when the truncation "
            f"grew from {dim} to {dim + _GAP_DIM_STEP}"
        )
    return g2


def auto_truncated_steady(
    builder: Callable[[int], LindbladModel],
    start_dim: int,
    max_dim: int = 160,
) -> tuple[SteadyStateResult, int]:
    """Raise the truncation until the top two Fock levels hold < _TOP_POP_TOL.

    Returns the converged steady state together with the dimension used.
    """
    d = start_dim
    while True:
        result = steady_state(builder(d))
        top = top_level_population(result.rho)
        if top < _TOP_POP_TOL:
            return result, d
        if d >= max_dim:
            raise TruncationError(
                f"top-level population {top:.3e} still above {_TOP_POP_TOL} at dim {d}"
            )
        d = min(max_dim, d + max(4, d // 2))


# --- three-level approximation -------------------------------------------------

def _three_level_rates(params: SystemParams) -> tuple[float, float, float]:
    if params.gamma_a <= 0:
        raise ValueError("three-level reduction undefined at gamma_a = 0")
    if params.nbar != 0:
        raise ValueError("three-level equations assume a zero-temperature signal bath")
    lam_eff = params.g * params.lambda_a / params.gamma_a
    kprime = params.kappa + params.kappa_e
    return lam_eff, kprime, params.gamma_b


def three_level_evolve(params: SystemParams, rho0: DensityMatrix, t: float) -> DensityMatrix:
    """Integrate the five coupled equations of the lowest-three-level model.

    State variables are rho00, rho22, rho10, rho21, rho20 with
    rho11 = 1 - rho00 - rho22. The equation set is the exact restriction of
    the reduced master equation to a three-dimensional Fock space.
    """
    if rho0.dim != 3:
        raise DimensionMismatchError("three-level evolution needs a dim-3 state")
    lam, kp, gb = _three_level_rates(params)
    sq2 = math.sqrt(2.0)

    def rhs(_t, y):
        r00, r22 = y[0], y[1]
        r10 = y[2] + 1j * y[3]
        r21 = y[4] + 1j * y[5]
        r20 = y[6] + 1j * y[7]
        r11 = 1.0 - r00 - r22
        d00 = -1j * sq2 * lam * (r20 - np.conj(r20)) + 2 * gb * r11 + 4 * kp * r22
        d22 = -1j * sq2 * lam * (np.conj(r20) - r20) - 4 * (gb + kp) * r22
        d10 = 1j * sq2 * lam * np.conj(r21) + gb * (2 * sq2 * r21 - r10)
        d21 = -1j * sq2 * lam * np.conj(r10) - (3 * gb + 2 * kp) * r21
        d20 = -1j * sq2 * lam * (r00 - r22) - 2 * (gb + kp) * r20
        return [
            d00.real,
            d22.real,
            d10.real,
            d10.imag,
            d21.real,
            d21.imag,
            d20.real,
            d20.imag,
        ]

    m = rho0.matrix
    y0 = [
        m[0, 0].real,
        m[2, 2].real,
        m[1, 0].real,
        m[1, 0].imag,
        m[2, 1].real,
        m[2, 1].imag,
        m[2, 0].real,
        m[2, 0].imag,
    ]
    sol = solve_ivp(rhs, (0.0, t), y0, method="DOP853", rtol=1e-10, atol=1e-12)
    if sol.status != 0:
        raise IntegratorError(f"three-level evolution failed: {sol.message}")
    y = sol.y[:, -1]
    rho = np.zeros((3, 3), dtype=complex)
    rho[0, 0] = y[0]
    rho[2, 2] = y[1]
    rho[1, 1] = 1.0 - y[0] - y[1]
    rho[1, 0] = y[2] + 1j * y[3]
    rho[0, 1] = np.conj(rho[1, 0])
    rho[2, 1] = y[4] + 1j * y[5]
    rho[1, 2] = np.conj(rho[2, 1])
    rho[2, 0] = y[6] + 1j * y[7]
    rho[0, 2] = np.conj(rho[2, 0])
    return DensityMatrix(rho, FockSpace(3), tol=1e-7)


def three_level_steady(
    params: SystemParams, coherence_variant: str = "corrected"
) -> DensityMatrix:
    """Closed-form steady state of the three-level model.

    With A = 2g^2 + gamma_a(kappa_e + gamma_b) and
    D = 2A^2 + 4 g^2 lambda_a^2:
    rho00 = (2A^2 + g^2 lambda_a^2)/D, rho11 = 2 g^2 lambda_a^2/D,
    rho22 = g^2 lambda_a^2/D, rho10 = rho21 = 0.

    The 2-0 coherence satisfying the stationarity conditions is
    rho20 = -i sqrt(2) g A lambda_a / D ("corrected", the default, which the
    Liouvillian oracle confirms); coherence_variant="printed" selects the
    variant without the sqrt(2) for documentation purposes.
    """
    _three_level_rates(params)  # gamma_a > 0 and a zero-temperature bath
    g, lam = params.g, params.lambda_a
    a_const = 2 * g * g + params.gamma_a * (params.kappa_e + params.gamma_b)
    d_const = 2 * a_const * a_const + 4 * g * g * lam * lam
    rho = np.zeros((3, 3), dtype=complex)
    rho[0, 0] = (2 * a_const * a_const + g * g * lam * lam) / d_const
    rho[1, 1] = 2 * g * g * lam * lam / d_const
    rho[2, 2] = g * g * lam * lam / d_const
    if coherence_variant == "corrected":
        w = math.sqrt(2.0) * g * a_const * lam / d_const
    elif coherence_variant == "printed":
        w = g * a_const * lam / d_const
    else:
        raise ValueError(f"unknown coherence_variant {coherence_variant!r}")
    rho[2, 0] = -1j * w
    rho[0, 2] = 1j * w
    return DensityMatrix(rho, FockSpace(3), tol=1e-12)


def three_level_occupation(params: SystemParams) -> float:
    """Signal occupation N_b = rho11 + 2 rho22 of the three-level steady state."""
    _three_level_rates(params)  # gamma_a > 0 and a zero-temperature bath
    g, lam = params.g, params.lambda_a
    a_const = 2 * g * g + params.gamma_a * (params.kappa_e + params.gamma_b)
    return 2 * g * g * lam * lam / (a_const * a_const + 2 * g * g * lam * lam)
