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
population decays as exp(-2 gamma t). The convention has one home, _no_jump,
which forms the no-jump generator K = -iH - sum_{gamma_c > 0} gamma_c c^dag c,
so that rho_dot = K rho + rho K^dag + sum_c 2 gamma_c c rho c^dag:
liouvillian_matrix builds L from K and the jump terms, and _cyclic_dimension
reads K as it is. Every Liouvillian solver here (steady state, spectra, open
evolution) works on the real generator T^H L T in a Hermitian-operator basis
(_real_generator), so the states it returns are Hermitian by construction. The
basis (_hermitian_basis) puts the phase (1 + i)/2 on the level pairs whose
signal Fock numbers differ by an odd count; that diagonalizes the weak
symmetry rho -> U rho^T U^dag, U = exp(i pi n_b / 2), of both model builders,
so the invariant blocks of T^H L T (_blocks) split the coherences of odd
signal-number difference in two. steady_state factorizes one trace-row system:
on the trace block alone, the block of T^H L T that holds the diagonal
coordinates, when the channel operators certify an irreducible semigroup and
hence a one-dimensional kernel (_cyclic_dimension: the common kernel of the
strictly upper-triangular channels is the vacuum, and the vacuum's cyclic
subspace under K and the channels is the whole Hilbert space; Baumgartner &
Narnhofer, J. Phys. A 41, 395303 (2008); Evans, CMP 54, 293 (1977); Frigerio,
CMP 63, 269 (1978)), and on the whole of T^H L T otherwise. Each solver's
accuracy is a module constant, not a per-call option: steady_state accepts a
residual up to _RESIDUAL_TOL, and evolve_open checks trace (_TRACE_TOL) and,
on small dimensions, positivity (_MIN_EIGENVALUE); violations raise instead of
propagating silently. The three-level model is the reduced one at d = 3 and
evolves through evolve_open. Closed evolution applies exp(-iHt) exactly
(expm_multiply); the package's one ODE integration is evolve_open's DOP853
route (_evolve_ode), at _ODE_RTOL and _ODE_ATOL.
"""

from __future__ import annotations

import importlib
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

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
    Space,
    StateVector,
    TensorSpace,
    annihilation,
    embed,
    top_level_population,
)


class _Deferred:
    """A module imported on the first attribute access through this reference,
    then kept: import pdclab loads no scipy. Every access reads the module's
    attribute anew, so a patched module attribute is seen."""

    def __init__(self, name: str):
        self._name = name
        self._module = None

    def __getattr__(self, attr: str):
        # import_module holds the module's import lock, so threads that race
        # on the first access all receive the fully initialized module
        module = self._module
        if module is None:
            module = self._module = importlib.import_module(self._name)
        return getattr(module, attr)


# module attributes, not local imports, so that callers can rebind
# dynamics.spla to observe the sparse LU
sp = _Deferred("scipy.sparse")
spla = _Deferred("scipy.sparse.linalg")

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

# evolve_open exponentiates the invariant blocks of M (sides n_b) when
# sum n_b^3 <= _EXPM_RATIO * nnz(M) * t * ||L||_inf, and integrates otherwise:
# both sides scale the cost of a route, dense O(n_b^3) per block against
# O(nnz) per ODE step with a step count growing with t ||L||. Fitted from the
# crossover table of BENCH_evolve_open.json.
_EXPM_RATIO = 4.0

# evolve_open's DOP853 route (_evolve_ode) integrates at _ODE_RTOL, _ODE_ATOL;
# either route's state must keep trace 1 within _TRACE_TOL and, at d <= 128,
# a smallest eigenvalue of at least _MIN_EIGENVALUE.
_ODE_RTOL, _ODE_ATOL = 1e-10, 1e-12
_TRACE_TOL, _MIN_EIGENVALUE = 1e-8, -1e-7

# steady_state accepts a residual max|L vec(rho)| up to _RESIDUAL_TOL * max(1, ||L||_inf).
_RESIDUAL_TOL = 1e-10

# _cyclic_dimension keeps a new direction when its singular value exceeds
# _RANK_CUT times the largest inf-norm of the generators; the same relative
# cut decides the dimension of the channels' common kernel.
_RANK_CUT = 1e-10

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
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
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
        if not np.isfinite(self.hamiltonian.matrix).all():
            raise ValueError("model Hamiltonian has non-finite entries")
        if not self.hamiltonian.is_hermitian():
            raise ValueError("model Hamiltonian is not Hermitian")
        for rate, c in self.channels:
            if not math.isfinite(rate):
                raise ValueError(f"channel rate must be finite, got {rate!r}")
            if rate < 0:
                raise ValueError(f"channel rate {rate} is negative")
            if not np.isfinite(c.matrix).all():
                raise ValueError("channel operator has non-finite entries")
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
    # the cubic terms as CSR products: O(nnz) instead of dense O(n^3), with
    # the dense products' association and hence their values bit for bit
    sa, sb, sad, sbd = (sp.csr_matrix(op.matrix) for op in (a, b, ad, bd))
    pair = Operator((sa @ sbd @ sbd + sad @ sb @ sb).toarray(), a.space)
    h = params.g * pair + (1j * params.lambda_a) * (ad - a)
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


def _no_jump(model: LindbladModel) -> np.ndarray:
    """The dense no-jump generator K = -iH - sum_{rate > 0} rate c^dag c: the
    one home of the dissipator convention (jump operators sqrt(2 rate) c)."""
    k = -1j * model.hamiltonian.matrix
    for rate, c in model.channels:
        if rate > 0:
            k = k - rate * (c.matrix.conj().T @ c.matrix)
    return k


def liouvillian_matrix(model: LindbladModel) -> sp.csr_matrix:
    """Vectorized generator acting on vec(rho) in column-major convention.

    vec(A rho B) = (B^T kron A) vec(rho) and (K^dag)^T = conj(K), hence with
    the no-jump generator K of _no_jump
    L = I kron K + conj(K) kron I + sum_{rate > 0} 2 rate conj(c) kron c.
    K and the collapse operators become CSR here.
    """
    ident = sp.identity(model.dim, dtype=complex, format="csr")
    k = sp.csr_matrix(_no_jump(model))
    lio = sp.kron(ident, k) + sp.kron(k.conj(), ident)
    for rate, cop in model.channels:
        if rate > 0:
            c = sp.csr_matrix(cop.matrix)
            lio = lio + sp.kron((2.0 * rate) * c.conj(), c)
    return lio.tocsr()


def _vec(rho: np.ndarray) -> np.ndarray:
    return rho.reshape(-1, order="F")


def _unvec(v: np.ndarray, d: int) -> np.ndarray:
    return v.reshape((d, d), order="F")


def _check_time(t: float, backward: bool = False) -> None:
    if not math.isfinite(t):
        raise ValueError(f"evolution time must be finite, got {t!r}")
    if t < 0 and not backward:
        raise ValueError(f"evolution time must be non-negative, got {t!r}")


def evolve_closed(h: Operator, psi0: StateVector, t: float) -> StateVector:
    """Propagate |psi> under d|psi>/dt = -i H |psi>: exp(-iHt) psi0, the action
    of the matrix exponential (expm_multiply, Al-Mohy & Higham 2011) on psi0.

    t may be negative (backward unitary evolution) but must be finite.
    """
    _check_time(t, backward=True)
    if not h.is_hermitian():
        raise IntegratorError("closed evolution requires a Hermitian Hamiltonian")
    if h.space != psi0.space:
        raise DimensionMismatchError("Hamiltonian and state spaces differ")
    if t == 0:
        return psi0
    y = spla.expm_multiply(-1j * t * sp.csr_matrix(h.matrix), psi0.amplitudes)
    drift = abs(np.linalg.norm(y) - 1.0)
    if not drift <= 1e-6:  # NaN fails too
        raise IntegratorError(f"norm drift {drift:.2e} exceeds tolerance")
    return StateVector(y / np.linalg.norm(y), psi0.space)


def _evolve_blocks(m: sp.csr_matrix, blocks: list[np.ndarray], x0: np.ndarray,
                   t: float) -> np.ndarray:
    """x(t) = expm(t M) x0, one dense real exponential per invariant block of M."""
    from scipy.linalg import expm

    x = np.empty_like(x0)
    for idx in blocks:
        x[idx] = expm(t * m[idx][:, idx].toarray()) @ x0[idx]
    return x


def solve_ivp(*args, **kwargs):
    """scipy.integrate.solve_ivp, imported on the first call so that import
    pdclab skips scipy.integrate. A module attribute, not a local import in
    _evolve_ode, so that callers can rebind dynamics.solve_ivp to observe the
    ODE route."""
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    return scipy_solve_ivp(*args, **kwargs)


def _evolve_ode(m: sp.csr_matrix, x0: np.ndarray, t: float) -> np.ndarray:
    """x(t) of dx/dt = M x by adaptive DOP853 at _ODE_RTOL and _ODE_ATOL."""
    sol = solve_ivp(lambda _t, x: m @ x, (0.0, t), x0, method="DOP853",
                    rtol=_ODE_RTOL, atol=_ODE_ATOL)
    if sol.status != 0:
        raise IntegratorError(f"open evolution failed: {sol.message}")
    return sol.y[:, -1]


def evolve_open(model: LindbladModel, rho0: DensityMatrix, t: float) -> DensityMatrix:
    """Evolve the master equation from rho0 for a finite time t >= 0.

    The evolution runs on the real coordinates x of _real_generator,
    dx/dt = M x, so the result is Hermitian by construction. Of two routes
    the cheaper one is taken, from the invariant blocks of M (_blocks) of
    sides n_b: when every block fits the dense cap (_DENSE_EIG_MAX_SIDE) and
    sum n_b^3 <= _EXPM_RATIO * nnz(M) * t * ||L||_inf, each block is
    exponentiated (scipy.linalg.expm, accurate to rounding); otherwise DOP853
    integrates the whole of M at _ODE_RTOL and _ODE_ATOL (_evolve_ode). Either
    way the result must be finite, its trace 1 within _TRACE_TOL and, when
    d <= 128, its smallest eigenvalue at least _MIN_EIGENVALUE; a violation
    raises IntegratorError.
    """
    _check_time(t)
    if model.space != rho0.space:
        raise DimensionMismatchError("model and state spaces differ")
    if t == 0:
        return rho0
    d = model.dim
    basis, m, norm = _real_generator(liouvillian_matrix(model), model.space)
    x0 = (basis.conj().T @ _vec(rho0.matrix)).real
    blocks = _blocks(m)
    sides = np.array([idx.size for idx in blocks], dtype=float)
    if (sides.max() <= _DENSE_EIG_MAX_SIDE
            and np.sum(sides**3) <= _EXPM_RATIO * m.nnz * t * norm):
        x = _evolve_blocks(m, blocks, x0, t)
    else:
        x = _evolve_ode(m, x0, t)
    rho = _unvec(basis @ x, d)

    if not np.isfinite(rho).all():
        raise IntegratorError("open evolution produced non-finite entries")
    tr_dev = abs(np.trace(rho).real - 1.0)
    if tr_dev > _TRACE_TOL:
        raise IntegratorError(f"trace drift {tr_dev:.2e} exceeds {_TRACE_TOL:.0e}")
    rho = rho / np.trace(rho).real
    if d <= 128:
        lo = float(np.linalg.eigvalsh(rho)[0])
        if lo < _MIN_EIGENVALUE:
            raise IntegratorError(f"positivity violated: min eigenvalue {lo:.2e}")
    return DensityMatrix(rho, rho0.space)


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


def _hermitian_basis(space: Space) -> sp.csc_matrix:
    """Unitary T from real Hermitian-basis coordinates to column-major vec(rho).

    The coordinates are rho[k, k], then two per level pair m < n; column j of
    T is vec of the Hermitian basis matrix E_kk, c E_mn + conj(c) E_nm or
    i c E_mn + conj(i c) E_nm. The phase is c = 1/sqrt(2), the coordinates
    sqrt(2) Re rho[m, n] and sqrt(2) Im rho[m, n], unless the signal Fock
    numbers of m and n differ by an odd count: then c = (1 + i)/2. The signal
    mode is the last factor of a TensorSpace, or the whole FockSpace.

    The phase makes the coordinates eigenvectors, eigenvalues +-1, of
    S(rho) = U rho^T U^dag with U = exp(i pi n_b / 2). Both model builders
    commute with S (U H^T U^dag = -H, and U conj(c) U^dag is c up to a phase
    for every channel c), so the entries of T^H L T between the two
    S-sectors cancel to exact zeros and _blocks splits the coherences of odd
    signal-number difference in two. For a model without the symmetry the
    basis is as orthonormal and Hermitian, only the blocks do not split.
    """
    d = space.dim
    d_s = space.factors[-1].dim if isinstance(space, TensorSpace) else d
    m, n = np.triu_indices(d, 1)
    odd = (m % d_s + n % d_s) % 2 == 1
    upper, lower = m + n * d, n + m * d
    re = d + 2 * np.arange(m.size)
    h = math.sqrt(0.5)
    rows = np.concatenate([np.arange(d) * (d + 1), upper, lower, upper, lower])
    cols = np.concatenate([np.arange(d), re, re, re + 1, re + 1])
    data = np.concatenate([
        np.ones(d),
        np.where(odd, 0.5 + 0.5j, h), np.where(odd, 0.5 - 0.5j, h),
        np.where(odd, -0.5 + 0.5j, 1j * h), np.where(odd, -0.5 - 0.5j, -1j * h),
    ])
    return sp.csc_matrix((data, (rows, cols)), shape=(d * d, d * d))


def _real_generator(lio: sp.csr_matrix,
                    space: Space) -> tuple[sp.csc_matrix, sp.csr_matrix, float]:
    """T = _hermitian_basis(space), the real generator M = T^H L T and ||L||_inf.

    A Lindbladian preserves Hermiticity, so M is real in any orthonormal
    Hermitian basis; its imaginary part must be rounding, at most
    1e-12 ||L||_inf, else ResidualError. With vec(rho) = T x, the master
    equation reads dx/dt = M x. Entries that cancel to exact zeros, among
    them those between the sectors of _hermitian_basis's symmetry, are
    dropped from M's sparsity pattern, so _blocks sees the split.
    """
    t = _hermitian_basis(space)
    m = (t.conj().T @ lio @ t).tocsr()
    norm = spla.norm(lio, np.inf)
    bound = 1e-12 * norm
    imag = abs(m.imag).max()
    if imag > bound:
        raise ResidualError(
            f"Liouvillian is not real in the Hermitian basis: imaginary part "
            f"{imag:.3e} exceeds {bound:.3e}"
        )
    m = m.real
    m.eliminate_zeros()
    return t, m, norm


def _blocks(m: sp.csr_matrix) -> list[np.ndarray]:
    """Coordinate index sets of the invariant blocks of the real generator M.

    Each weakly connected component of M's sparsity pattern is an invariant
    block; the sets are ordered by component label, each ascending.
    """
    from scipy.sparse.csgraph import connected_components

    _, labels = connected_components(m, connection="weak")
    sizes = np.bincount(labels)
    return np.split(np.argsort(labels, kind="stable"), np.cumsum(sizes)[:-1])


def _block_spectra(m: sp.csr_matrix) -> np.ndarray | None:
    """Eigenvalues of L from its real generator M (_real_generator), one real
    invariant block (_blocks) at a time.

    The spectrum of L is the union of the blocks' spectra, each from one real
    dense eigensolve. Returns None when the largest block is longer than
    _DENSE_EIG_MAX_SIDE.
    """
    blocks = _blocks(m)
    if max(idx.size for idx in blocks) > _DENSE_EIG_MAX_SIDE:
        return None
    return np.concatenate([np.linalg.eigvals(m[idx][:, idx].toarray()) for idx in blocks])


def _kernel_dimension(m: sp.csr_matrix, norm: float) -> int | None:
    """Count the zero modes of L (see _ZERO_MODE_CUT) from the block spectra of
    its real generator M, given norm = ||L||_inf, or None when a block is too
    large to eigensolve."""
    ev = _block_spectra(m)
    if ev is None:
        return None
    return int(np.sum(np.abs(ev.real) <= _ZERO_MODE_CUT * norm))


def _cyclic_dimension(model: LindbladModel) -> int:
    """Dimension of the subspace that K and the channels generate from the
    common kernel vector of the strictly upper-triangular channels; 0 when
    there is no such channel or their common kernel is not one-dimensional.

    Only channels of nonzero rate count; K is the no-jump generator
    (_no_jump). A subspace is invariant under the semigroup exactly when K and
    every channel leave it invariant (Baumgartner & Narnhofer, J. Phys. A 41,
    395303 (2008)). The strictly upper-triangular channels in the product Fock
    basis (a, b, b^2) generate a nilpotent algebra, so every invariant
    subspace holds a common kernel vector of theirs; when that kernel is
    one-dimensional it is the vacuum e_0, and every invariant subspace holds
    the cyclic subspace of e_0. Dimension d thus leaves no proper invariant
    subspace: the semigroup is irreducible, and L has a one-dimensional kernel
    (Evans, CMP 54, 293 (1977); Frigerio, CMP 63, 269 (1978)). The subspace
    grows by block Gram-Schmidt; a new direction counts when its singular
    value exceeds _RANK_CUT times the largest inf-norm of the generators.
    """
    channels = [c.matrix for rate, c in model.channels if rate > 0]
    lowering = [c for c in channels if not np.tril(c).any()]
    if not lowering:
        return 0
    s = np.linalg.svd(np.vstack(lowering), compute_uv=False)
    if np.count_nonzero(s <= _RANK_CUT * s[0]) != 1:
        return 0
    d = model.dim
    generators = [_no_jump(model)] + channels
    cut = _RANK_CUT * max(np.abs(g).sum(axis=1).max() for g in generators)
    q = np.eye(d, 1, dtype=complex)
    new = q
    while new.shape[1] and q.shape[1] < d:
        w = np.hstack([g @ new for g in generators])
        for _ in range(2):  # classical Gram-Schmidt, repeated once for orthogonality
            w -= q @ (q.conj().T @ w)
        u, s, _ = np.linalg.svd(w, full_matrices=False)
        new = u[:, s > cut]
        q = np.hstack([q, new])
    return q.shape[1]


def _trace_block(m: sp.csr_matrix, d: int) -> np.ndarray | None:
    """Coordinates of the invariant block of M (_blocks) that holds all d
    diagonal coordinates, or None when they are split across blocks."""
    block = next(idx for idx in _blocks(m) if idx[0] == 0)
    return block if np.array_equal(block[:d], np.arange(d)) else None


def _solve_trace_row(m: sp.csr_matrix, d: int) -> np.ndarray | None:
    """x with (M x)_i = 0 for i > 0 and trace 1 on the first d coordinates,
    from one LU of _trace_row_system(m, d) and one step of iterative
    refinement; None when that system is singular: an exactly zero pivot, or
    cond1 * eps >= 1."""
    a, b = _trace_row_system(m, d)
    try:
        lu = spla.splu(a)
        x = lu.solve(b)
        x += lu.solve(b - a @ x)
        if np.all(np.isfinite(x)) and _condition_number(a, lu) * np.finfo(float).eps < 1.0:
            return x
    except RuntimeError:  # exactly singular pivot
        pass
    return None


def _clean_density(v: np.ndarray, d: int) -> np.ndarray:
    rho = _unvec(v, d)
    return rho / np.trace(rho).real


def steady_state(model: LindbladModel) -> SteadyStateResult:
    """Steady state from the Liouvillian null space with trace normalization.

    Row 0 of the real generator M = T^H L T (_real_generator), or of one of
    its invariant blocks, is replaced by the trace functional, ones on the d
    diagonal coordinates, and the resulting real matrix A is factorized once
    (_solve_trace_row); rho = unvec(T x) is then Hermitian by construction.
    When the channels certify an irreducible semigroup (_cyclic_dimension
    reaches d; Baumgartner & Narnhofer 2008, Evans 1977, Frigerio 1978), the
    kernel of L is one-dimensional and lies in the trace block, the block of
    M that holds the diagonal coordinates (_trace_block), and A is built on
    that block alone; the other blocks are nonsingular and stay zero.
    Otherwise (gamma_b = 0, g = 0 in the full model, no triangular channel)
    A is built on the whole of M, which is nonsingular exactly when the
    kernel of L is one-dimensional. Either way the kernel counts as
    degenerate when the LU meets an exactly zero pivot or A is numerically
    singular: cond1(A) * eps >= 1, i.e. rcond <= machine epsilon, the
    singularity test of LAPACK xGESVX and MATLAB. A singular A raises
    SteadyStateDegenerateError, whose message names the system (trace block
    or whole, and its side) and which carries the count of L's zero modes, or
    None when L is too large to count them. A residual max|L vec(rho)| above
    _RESIDUAL_TOL * max(1, ||L||_inf) raises ResidualError.
    """
    if not any(rate > 0 for rate, _ in model.channels):
        raise ValueError("steady_state needs at least one dissipative channel")
    d = model.dim
    lio = liouvillian_matrix(model)
    basis, m, norm = _real_generator(lio, model.space)
    block = _trace_block(m, d) if _cyclic_dimension(model) == d else None
    if block is None:
        system = f"the whole trace-row system (side {m.shape[0]})"
        x = _solve_trace_row(m, d)
    else:
        system = f"the trace-row system of the trace block (side {block.size})"
        x_block, x = _solve_trace_row(m[block][:, block], d), None
        if x_block is not None:  # the other blocks hold no part of the kernel
            x = np.zeros(m.shape[0])
            x[block] = x_block
    if x is None:
        kdim = _kernel_dimension(m, norm)
        counted = "too large to count" if kdim is None else kdim
        raise SteadyStateDegenerateError(
            f"no unique steady state: {system} is singular "
            f"(Liouvillian zero modes: {counted})",
            kernel_dim=kdim,
        )

    rho = _clean_density(basis @ x, d)
    residual = float(np.abs(lio @ _vec(rho)).max())
    bound = _RESIDUAL_TOL * max(1.0, norm)
    if residual > bound:
        raise ResidualError(f"steady-state residual {residual:.3e} exceeds {bound:.3e}")
    return SteadyStateResult(DensityMatrix(rho, model.space), residual)


def spectral_gap(model: LindbladModel) -> float:
    """Smallest nonzero decay rate: -max{Re z : z in spec(L), Re z < -eps}.

    eps = _ZERO_MODE_CUT * ||L||_inf, the zero-mode cut of _kernel_dimension;
    the spectrum comes from _block_spectra.
    """
    _, m, norm = _real_generator(liouvillian_matrix(model), model.space)
    ev = _block_spectra(m)
    if ev is None:
        raise ValueError(
            f"Liouvillian has an invariant block longer than {_DENSE_EIG_MAX_SIDE}, "
            "too large for dense spectral analysis; reduce the truncation"
        )
    eps = _ZERO_MODE_CUT * norm
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

    Returns the converged steady state together with the dimension used;
    start_dim > max_dim raises ValueError before any solve.
    """
    if start_dim > max_dim:
        raise ValueError(f"start_dim {start_dim} exceeds max_dim {max_dim}")
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

def _check_three_level(params: SystemParams) -> None:
    if params.gamma_a <= 0:
        raise ValueError("three-level reduction undefined at gamma_a = 0")
    if params.nbar != 0:
        raise ValueError("three-level equations assume a zero-temperature signal bath")


def three_level_evolve(params: SystemParams, rho0: DensityMatrix, t: float) -> DensityMatrix:
    """Evolve the lowest-three-level model, the reduced master equation on a
    three-dimensional Fock space, by evolve_open.

    t must be finite and non-negative.
    """
    _check_three_level(params)
    if rho0.dim != 3:
        raise DimensionMismatchError("three-level evolution needs a dim-3 state")
    return evolve_open(build_reduced_model(params, 3), rho0, t)


def three_level_steady(params: SystemParams) -> DensityMatrix:
    """Closed-form steady state of the three-level model.

    With A = 2g^2 + gamma_a(kappa_e + gamma_b) and
    D = 2A^2 + 4 g^2 lambda_a^2:
    rho00 = (2A^2 + g^2 lambda_a^2)/D, rho11 = 2 g^2 lambda_a^2/D,
    rho22 = g^2 lambda_a^2/D, rho10 = rho21 = 0, and
    rho20 = -i sqrt(2) g A lambda_a / D, the coherence the Liouvillian
    confirms (the printed form lacks the sqrt(2); README, Quirks).
    """
    _check_three_level(params)
    g, lam = params.g, params.lambda_a
    a_const = 2 * g * g + params.gamma_a * (params.kappa_e + params.gamma_b)
    d_const = 2 * a_const * a_const + 4 * g * g * lam * lam
    rho = np.zeros((3, 3), dtype=complex)
    rho[0, 0] = (2 * a_const * a_const + g * g * lam * lam) / d_const
    rho[1, 1] = 2 * g * g * lam * lam / d_const
    rho[2, 2] = g * g * lam * lam / d_const
    w = math.sqrt(2.0) * g * a_const * lam / d_const
    rho[2, 0] = -1j * w
    rho[0, 2] = 1j * w
    return DensityMatrix(rho, FockSpace(3), tol=1e-12)


def three_level_occupation(params: SystemParams) -> float:
    """Signal occupation N_b = rho11 + 2 rho22 of the three-level steady state."""
    rho = three_level_steady(params).matrix
    return float(rho[1, 1].real + 2 * rho[2, 2].real)
