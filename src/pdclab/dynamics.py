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
liouvillian_matrix builds L from K and the jump terms as a scipy.sparse
matrix, _shift_form reads the same terms as shifted diagonals of L, and
_cyclic_dimension reads K (model._k). Every Liouvillian solver here (steady
state, spectra, open evolution) works on the real generator M = T^H L T in a
Hermitian-operator basis, which _real_generator assembles in numpy from the
shifted diagonals as CSR arrays, each row in ascending column order, so the
states it returns are Hermitian by construction and spectral_gap loads no
scipy module. The basis's one hook, _pair_phases, puts
the phase (1 + i)/2 on the level pairs whose signal Fock numbers differ by an
odd count; that diagonalizes the weak symmetry rho -> U rho^T U^dag,
U = exp(i pi n_b / 2), of both model builders, so the invariant blocks of M
(_blocks) split the coherences of odd signal-number difference in two.
steady_state factorizes one trace-row system: on the trace block alone, the
block of M that holds the diagonal coordinates, when the channels certify an
irreducible semigroup and hence a one-dimensional kernel (_cyclic_dimension:
the common kernel of the strictly upper-triangular channels is the vacuum,
whose Krylov space under K plus the channels, from one Hessenberg reduction,
is the whole Hilbert space; Baumgartner & Narnhofer 2008), and on the whole
of M otherwise, which is all that a refused certificate costs. Each solver's
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
from functools import cached_property
from typing import Callable, NamedTuple

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

# _real_generator assembles M a run of positions at a time, about _CHUNK
# position-shift slots per run, so that its temporaries stay small enough for
# the allocator to reuse rather than page in afresh.
_CHUNK = 8192

# steady_state accepts a residual max|L vec(rho)| up to _RESIDUAL_TOL * max(1, ||L||_inf).
_RESIDUAL_TOL = 1e-10

# _cyclic_dimension's Krylov space ends at a Hessenberg subdiagonal entry at
# or below _RANK_CUT times the largest inf-norm of K and the channels; the same
# relative cut decides the dimension of the channels' common kernel.
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
    """Hamiltonian plus (rate, collapse operator) channels; treated as immutable."""

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

    @cached_property
    def _k(self) -> np.ndarray:  # K of _no_jump, formed once per model
        return _no_jump(self)


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
    K and the collapse operators become CSR here, and L stores no zero (kron
    keeps those of the dense blocks of a small, dense K). The solvers do not
    build this matrix: they read L from the same terms as shifted diagonals
    (_shift_form).
    """
    ident = sp.identity(model.dim, dtype=complex, format="csr")
    k = sp.csr_matrix(_no_jump(model))
    lio = sp.kron(ident, k) + sp.kron(k.conj(), ident)
    for rate, cop in model.channels:
        if rate > 0:
            c = sp.csr_matrix(cop.matrix)
            lio = lio + sp.kron((2.0 * rate) * c.conj(), c)
    lio = lio.tocsr()
    lio.eliminate_zeros()
    return lio


def _diagonals(a: np.ndarray) -> dict[int, np.ndarray]:
    """The diagonals of a square matrix that hold a nonzero entry, by ascending
    offset o: v[m] = a[m, m + o], zero where m + o leaves the matrix."""
    d = a.shape[0]
    rows, cols = np.nonzero(a)
    found = {}
    for o in (np.flatnonzero(np.bincount(cols - rows + d, minlength=2 * d)) - d).tolist():
        v = np.zeros(d, dtype=complex)
        diagonal = np.diagonal(a, o)
        v[max(0, -o):max(0, -o) + diagonal.size] = diagonal
        found[o] = v
    return found


class _ShiftForm(NamedTuple):
    """L as shifted diagonals: (L rho)[m, n] = sum_s w[s, m, n] rho[m + a_s, n + b_s]
    with (a_s, b_s) = shifts[s], ordered by (b, a) as the columns of a row of
    liouvillian_matrix. w[s] vanishes where the target leaves the space."""

    shifts: np.ndarray
    w: np.ndarray

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """L rho, the shifts summed in their order."""
        d = rho.shape[0]
        pad = int(np.abs(self.shifts).max(initial=0))
        padded = np.zeros((d + 2 * pad, d + 2 * pad), dtype=complex)
        padded[pad:pad + d, pad:pad + d] = rho
        out = np.zeros((d, d), dtype=complex)
        for (a, b), w in zip(self.shifts.tolist(), self.w):
            out += w * padded[pad + a:pad + a + d, pad + b:pad + b + d]
        return out

    def inf_norm(self) -> float:
        """||L||_inf, summed as scipy.sparse sums the rows of liouvillian_matrix:
        the nonzero |entries| of each row in column order, by np.add.reduceat."""
        count, d = self.w.shape[:2]
        mag = np.abs(self.w).reshape(count, d * d).T
        nonzero = mag != 0
        per_row = np.count_nonzero(nonzero, axis=1)
        if not per_row.any():
            return 0.0
        starts = (np.cumsum(per_row) - per_row)[per_row > 0]
        return float(np.add.reduceat(mag[nonzero], starts).max())


def _shift_form(model: LindbladModel) -> _ShiftForm:
    """The terms of liouvillian_matrix as shifted diagonals, each shift's terms
    summed in that order: offset o of K gives the shift (o, 0) from I kron K and
    (0, o) from conj(K) kron I, and the offsets o1, o2 of a channel c give
    (o1, o2), w[m, n] = 2 rate conj(c[n, n + o2]) c[m, m + o1]. Every shift
    (a, b) comes with its mirror (b, a)."""
    d = model.dim
    k = _diagonals(model._k)
    terms = [((o, 0), v[:, None]) for o, v in k.items()]
    terms += [((0, o), v.conj()) for o, v in k.items()]
    for rate, c in model.channels:
        if rate > 0:
            diagonals = _diagonals(c.matrix)
            for o2, v2 in diagonals.items():
                left = (2.0 * rate) * v2.conj()
                terms += [((o1, o2), left * v1[:, None]) for o1, v1 in diagonals.items()]
    shifts = sorted({s for s, _ in terms}, key=lambda s: (s[1], s[0]))
    index = {s: i for i, s in enumerate(shifts)}
    w = np.zeros((len(shifts), d, d), dtype=complex)
    for s, term in terms:
        w[index[s]] += term
    return _ShiftForm(np.array(shifts, dtype=np.intp).reshape(-1, 2), w)


def _pair_phases(space: Space) -> np.ndarray:
    """The phase c of each level pair m < n, in np.triu_indices order.

    The real coordinates of a Hermitian rho are rho[k, k], then two per pair:
    those of the Hermitian basis matrices c E_mn + conj(c) E_nm and
    i c E_mn + conj(i c) E_nm. The phase is c = 1/sqrt(2), the coordinates
    sqrt(2) Re rho[m, n] and sqrt(2) Im rho[m, n], unless the signal Fock
    numbers of m and n differ by an odd count: then c = (1 + i)/2. The signal
    mode is the last factor of a TensorSpace, or the whole FockSpace.

    The phase makes the coordinates eigenvectors, eigenvalues +-1, of
    S(rho) = U rho^T U^dag with U = exp(i pi n_b / 2). Both model builders
    commute with S (U H^T U^dag = -H, and U conj(c) U^dag is c up to a phase
    for every channel c), so the entries of the real generator between the two
    S-sectors cancel to exact zeros and _blocks splits the coherences of odd
    signal-number difference in two. For a model without the symmetry the
    basis is as orthonormal and Hermitian, only the blocks do not split.
    """
    d = space.dim
    d_s = space.factors[-1].dim if isinstance(space, TensorSpace) else d
    m, n = np.triu_indices(d, 1)
    odd = (m % d_s + n % d_s) % 2 == 1
    return np.where(odd, 0.5 + 0.5j, math.sqrt(0.5))


def _coordinates(rho: np.ndarray, space: Space) -> np.ndarray:
    """The real coordinates x of rho (_pair_phases); of its Hermitian part when
    rho is not Hermitian."""
    d = space.dim
    c = _pair_phases(space)
    t = np.stack([c, 1j * c], axis=1)
    m, n = np.triu_indices(d, 1)
    x = np.empty(d * d)
    x[:d] = rho.diagonal().real
    x[d:] = (t.conj() * rho[m, n, None] + t * rho[n, m, None]).real.ravel()
    return x


def _density(x: np.ndarray, space: Space) -> np.ndarray:
    """The Hermitian matrix whose real coordinates (_pair_phases) are x."""
    d = space.dim
    c = _pair_phases(space)
    m, n = np.triu_indices(d, 1)
    pairs = x[d:].reshape(-1, 2)
    upper = c * pairs[:, 0] + (1j * c) * pairs[:, 1]
    rho = np.diag(x[:d].astype(complex))
    rho[m, n] = upper
    rho[n, m] = upper.conj()
    return rho


class _Csr(NamedTuple):
    """A real square matrix as CSR arrays, numpy alone."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return self.indptr.size - 1, self.indptr.size - 1

    @property
    def nnz(self) -> int:
        return self.data.size

    def block(self, idx: np.ndarray) -> _Csr:
        """The matrix on an invariant block idx, in the block's coordinates."""
        local = np.empty(self.shape[0], dtype=np.intp)
        local[idx] = np.arange(idx.size)
        counts = self.indptr[idx + 1] - self.indptr[idx]
        indptr = np.concatenate([[0], np.cumsum(counts)])
        picked = np.arange(indptr[-1]) + np.repeat(self.indptr[idx] - indptr[:-1], counts)
        return _Csr(indptr, local[self.indices[picked]], self.data[picked])

    def toarray(self) -> np.ndarray:
        a = np.zeros(self.shape)
        a[np.repeat(np.arange(self.shape[0]), np.diff(self.indptr)), self.indices] = self.data
        return a


def _real_generator(model: LindbladModel) -> tuple[_ShiftForm, _Csr, float]:
    """L as shifted diagonals (_shift_form), the real generator M and ||L||_inf.

    With T the unitary from the real coordinates of _pair_phases to vec(rho),
    vec(rho) = T x turns the master equation into dx/dt = M x, M = T^H L T.
    M is read from the shifted diagonals without forming L or T: row i of M
    belongs to a position (m, n), m <= n, and T^H takes L there and at the
    mirror (n, m). A Lindbladian preserves Hermiticity, which ties the two:
    w[(b, a), n, m] = conj(w[(a, b), m, n]). That is what makes M real; a
    breach above 1e-12 ||L||_inf raises ResidualError.

    M is Re(T^H L T) with T^H L T formed from liouvillian_matrix, on the model
    builders bit for bit: each entry is a sum of at most two products at each
    of the two stages, evaluated as the sparse product (T^H L) T evaluates it.
    Entries that cancel to exact zeros, among them those between the sectors of
    _pair_phases' symmetry, are dropped, so _blocks sees the split. Each row
    lists its columns in ascending order. A position reaches the target
    (m + a, n + b) by the shift (a, b); a pair reached as (k, l) and as (l, k)
    merges the two.
    """
    lio = _shift_form(model)
    shifts, w = lio
    d, count = model.dim, len(shifts)
    alpha, beta = shifts[:, 0], shifts[:, 1]
    norm = lio.inf_norm()
    codes = (alpha + d) * (4 * d) + (beta + d)
    order = np.argsort(codes)

    def find(a, b):
        """The index of each shift (a, b), -1 where there is none."""
        wanted = (a + d) * (4 * d) + (b + d)
        at = np.searchsorted(codes[order], wanted).clip(max=max(count - 1, 0))
        return np.where(codes[order][at] == wanted, order[at], -1)

    mirror = find(beta, alpha)
    # the shift that reaches a target's mirror from (m, m + delta)
    delta = np.arange(d)
    partner = find(beta[:, None] + delta, alpha[:, None] - delta)

    # positions: the diagonal (k, k), then the pairs m < n, a run at a time
    phases = _pair_phases(model.space)
    pm, pn = np.triu_indices(d, 1)
    rm, rn = np.concatenate([np.arange(d), pm]), np.concatenate([np.arange(d), pn])
    phase = np.concatenate([np.ones(d, dtype=complex), phases])
    runs = max(1, round(rm.size * count / _CHUNK))
    bounds = np.linspace(0, rm.size, runs + 1).astype(int).tolist()
    parts = [_generator_rows(lio, mirror, partner, np.append(phases, 1.0),
                             rm[i:j], rn[i:j], phase[i:j]) for i, j in zip(bounds, bounds[1:])]
    breach = max(part[0] for part in parts)
    bound = 1e-12 * norm
    if breach > bound:
        raise ResidualError(
            f"Liouvillian is not real in the Hermitian basis: it breaks Hermiticity "
            f"by {breach:.3e}, above {bound:.3e}"
        )
    indptr = np.zeros(d * d + 1, dtype=np.intp)
    np.cumsum(np.concatenate([part[1] for part in parts]), out=indptr[1:])
    m = _Csr(indptr, np.concatenate([part[2] for part in parts]),
             np.concatenate([part[3] for part in parts]))
    return lio, m, norm


def _generator_rows(lio: _ShiftForm, mirror: np.ndarray, partner: np.ndarray,
                    target_phase: np.ndarray, rm: np.ndarray, rn: np.ndarray,
                    phase: np.ndarray):
    """The rows of M (_real_generator) at positions (rm, rn): the Hermiticity
    breach there, each row's entry count, and the rows' columns, ascending in
    each row, and values.
    mirror[s] is the shift (b, a) of shift s = (a, b), partner[s, delta] the
    shift that reaches the mirror of s's target from (m, m + delta), and
    target_phase the pair phases with a last entry 1 for a diagonal target."""
    shifts, w = lio
    d, count = w.shape[1], len(shifts)
    alpha, beta = shifts[:, 0], shifts[:, 1]
    diagonal = rm == rn
    shift = np.arange(count)[:, None]
    flat = w.reshape(-1)
    at = flat[shift * (d * d) + (rm * d + rn)]
    mirrored = flat[mirror[:, None] * (d * d) + (rn * d + rm)]
    breach = np.abs(mirrored - at.conj()).max(initial=0.0)
    mirrored[:, diagonal] = 0  # a diagonal coordinate has no mirror

    tk, tl = rm + alpha[:, None], rn + beta[:, None]
    inside = (tk >= 0) & (tk < d) & (tl >= 0) & (tl < d)
    lo, hi = np.minimum(tk, tl), np.maximum(tk, tl)
    pair = inside & (lo != hi)
    target = np.where(pair, lo * (2 * d - lo - 1) // 2 + hi - lo - 1, target_phase.size - 1)
    cols = np.where(pair, d + 2 * target, tk)
    flip = tk > tl  # the target is the mirror (l, k) of its pair
    c = target_phase[target]
    np.conjugate(c, out=c, where=flip)
    del tk, tl, lo, hi, target  # each stage releases its arrays before the next
    partner = partner[:, rn - rm]
    merged = np.nonzero(pair & (partner > shift))
    other = partner[merged]
    partners = (other, merged[1])

    # T^H L for the real row of each position: at the target, the term of
    # (m, n); at its mirror, the term of (n, m). The imaginary row is the same
    # rotated by -i and by i.
    up, down = phase.conj() * at, phase * mirrored
    up_j, down_j, up_k, down_k = up[merged], down[merged], up[partners], down[partners]
    up[merged], down[merged] = up_j + down_k, down_j + up_k

    p, q = up * c, down * c.conj()
    x, y = p.real + q.real, p.imag - q.imag
    sign = np.where(flip, -1.0, 1.0)
    # (column real/imaginary, row real/imaginary, slot, position)
    values = np.empty((2, 2, count, rm.size))
    values[1, 0], values[1, 1] = -sign * y, sign * x
    values[0, 0], values[0, 1] = x, y
    # merged, the imaginary row meets the mirror's term rotated the other way
    p, q = (up_j - down_k) * c[merged], (down_j - up_k) * c[merged].conj()
    values[1, 1][merged] = sign[merged] * (p.real + q.real)
    values[0, 1][merged] = p.imag - q.imag
    values[1] *= pair  # a diagonal coordinate is one column
    del at, mirrored, partner, up, down, c, p, q, x, y, sign, flip

    kept = values != 0
    kept[:, :, other, merged[1]] = False  # merged into its partner's slot
    kept[:, 1][..., diagonal] = False  # a diagonal position has one row
    # Each row lists its slots by ascending column, a pair's real column first:
    # entry holds the flat indices of values in (position, row, slot by column,
    # column) order, then those of the kept entries alone.
    size = count * rm.size
    by_column = np.argsort(cols.T, axis=1) * rm.size + np.arange(rm.size)[:, None]
    entry = by_column[:, None, :, None] + np.arange(2)[:, None, None] * size
    entry = entry + np.arange(2) * (2 * size)
    kept = kept.reshape(-1)[entry]
    entry = entry[kept]
    width = np.count_nonzero(kept, axis=(2, 3)).ravel()
    rows = np.stack([np.ones(rm.size, dtype=bool), ~diagonal], axis=1).ravel()
    indices = cols.reshape(-1)[entry % size] + entry // (2 * size)
    return breach, width[rows], indices, values.reshape(-1)[entry]


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


def _evolve_blocks(m: _Csr, blocks: list[np.ndarray], x0: np.ndarray,
                   t: float) -> np.ndarray:
    """x(t) = expm(t M) x0, one dense real exponential per invariant block of M."""
    from scipy.linalg import expm

    x = np.empty_like(x0)
    for idx in blocks:
        x[idx] = expm(t * m.block(idx).toarray()) @ x0[idx]
    return x


def solve_ivp(*args, **kwargs):
    """scipy.integrate.solve_ivp, imported on the first call so that import
    pdclab skips scipy.integrate. A module attribute, not a local import in
    _evolve_ode, so that callers can rebind dynamics.solve_ivp to observe the
    ODE route."""
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    return scipy_solve_ivp(*args, **kwargs)


def _evolve_ode(m: _Csr, x0: np.ndarray, t: float) -> np.ndarray:
    """x(t) of dx/dt = M x by adaptive DOP853 at _ODE_RTOL and _ODE_ATOL, on
    M's arrays wrapped as a scipy.sparse matrix for the matrix-vector products."""
    a = sp.csr_matrix((m.data, m.indices, m.indptr), shape=m.shape)
    sol = solve_ivp(lambda _t, x: a @ x, (0.0, t), x0, method="DOP853",
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
    _, m, norm = _real_generator(model)
    x0 = _coordinates(rho0.matrix, model.space)
    blocks = _blocks(m)
    sides = np.array([idx.size for idx in blocks], dtype=float)
    if (sides.max() <= _DENSE_EIG_MAX_SIDE
            and np.sum(sides**3) <= _EXPM_RATIO * m.nnz * t * norm):
        x = _evolve_blocks(m, blocks, x0, t)
    else:
        x = _evolve_ode(m, x0, t)
    rho = _density(x, model.space)

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


def _trace_row_system(m: _Csr, d: int):
    """Replace row 0 of the real generator M with the trace functional, ones
    on the d diagonal coordinates; the rhs selects trace = 1."""
    rows = np.repeat(np.arange(m.shape[0]), np.diff(m.indptr))
    first = m.indptr[1]  # row 0's entries come first
    rows = np.concatenate([rows[first:], np.zeros(d, dtype=rows.dtype)])
    cols = np.concatenate([m.indices[first:], np.arange(d)])
    data = np.concatenate([m.data[first:], np.ones(d)])
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


def _blocks(m: _Csr) -> list[np.ndarray]:
    """Coordinate index sets of the invariant blocks of the real generator M.

    Each weakly connected component of M's sparsity pattern is an invariant
    block; the sets are ordered by their smallest coordinate, each ascending,
    as scipy.sparse.csgraph.connected_components labels them. Each component
    is labelled by its smallest coordinate in numpy alone: every entry
    (i, j) whose labels differ hooks the larger label onto the smaller,
    then pointer jumping sends every label to its root, until the two labels
    of every entry agree. A label only ever falls to another coordinate of its
    component, so each component ends on its minimum.
    """
    rows = np.repeat(np.arange(m.shape[0]), np.diff(m.indptr))
    labels = np.arange(m.shape[0])
    while True:
        lr, lc = labels[rows], labels[m.indices]
        differ = lr != lc
        if not differ.any():
            break
        np.minimum.at(labels, np.maximum(lr, lc)[differ], np.minimum(lr, lc)[differ])
        while True:  # pointer jumping: labels[i] <= i, so the chains end at roots
            up = labels[labels]
            if np.array_equal(up, labels):
                break
            labels = up
    order = np.argsort(labels, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(labels[order])) + 1)


def _block_spectra(m: _Csr) -> np.ndarray | None:
    """Eigenvalues of L from its real generator M (_real_generator), one real
    invariant block (_blocks) at a time.

    The spectrum of L is the union of the blocks' spectra, each from one real
    dense eigensolve. Returns None when the largest block is longer than
    _DENSE_EIG_MAX_SIDE.
    """
    blocks = _blocks(m)
    if max(idx.size for idx in blocks) > _DENSE_EIG_MAX_SIDE:
        return None
    return np.concatenate([np.linalg.eigvals(m.block(idx).toarray()) for idx in blocks])


def _kernel_dimension(m: _Csr, norm: float) -> int | None:
    """Count the zero modes of L (see _ZERO_MODE_CUT) from the block spectra of
    its real generator M, given norm = ||L||_inf, or None when a block is too
    large to eigensolve."""
    ev = _block_spectra(m)
    if ev is None:
        return None
    return int(np.sum(np.abs(ev.real) <= _ZERO_MODE_CUT * norm))


def _cyclic_dimension(model: LindbladModel) -> int:
    """Dimension of the Krylov space of G = K + sum_c c from the common kernel
    vector of the strictly upper-triangular channels; 0 when there is no such
    channel or their common kernel is not one-dimensional.

    K is _no_jump's, and the channels of nonzero rate enter G unweighted. A
    subspace is invariant under the semigroup exactly when K and every channel
    leave it invariant (Baumgartner & Narnhofer, J. Phys. A 41, 395303 (2008)).
    The strictly upper-triangular channels in the product Fock basis
    (a, b, b^2) generate a nilpotent algebra, so every invariant subspace holds
    a common kernel vector of theirs; when that kernel is one-dimensional it is
    the vacuum e_0, and every invariant subspace holds its Krylov space under
    G. Dimension d thus leaves no proper invariant subspace: the semigroup is
    irreducible, and L has a one-dimensional kernel (Evans, CMP 54, 293 (1977);
    Frigerio, CMP 63, 269 (1978)); a smaller one only sends steady_state to the
    whole of M. scipy.linalg.hessenberg neither permutes nor scales G, so
    H = Q^H G Q keeps Q e_0 = e_0 and runs Arnoldi on G from e_0 (Golub & Van
    Loan, Matrix Computations, 7.4): the Krylov space ends at the first
    |H[k + 1, k]| <= _RANK_CUT times the largest inf-norm of K and the
    channels, at dimension k + 1.
    """
    from scipy.linalg import hessenberg

    channels = [c.matrix for rate, c in model.channels if rate > 0]
    lowering = [c for c in channels if not np.tril(c).any()]
    if not lowering:
        return 0
    s = np.linalg.svd(np.vstack(lowering), compute_uv=False)
    if np.count_nonzero(s <= _RANK_CUT * s[0]) != 1:
        return 0
    generators = [model._k] + channels
    cut = _RANK_CUT * max(np.abs(g).sum(axis=1).max() for g in generators)
    h = hessenberg(sum(generators), overwrite_a=True, check_finite=False)
    ends = np.abs(np.diagonal(h, -1)) <= cut
    return int(ends.argmax()) + 1 if ends.any() else model.dim


def _trace_block(m: _Csr, d: int) -> np.ndarray | None:
    """Coordinates of the invariant block of M (_blocks) that holds all d
    diagonal coordinates, or None when they are split across blocks."""
    block = next(idx for idx in _blocks(m) if idx[0] == 0)
    return block if np.array_equal(block[:d], np.arange(d)) else None


def _solve_trace_row(m: _Csr, d: int) -> np.ndarray | None:
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


def _clean_density(x: np.ndarray, space: Space) -> np.ndarray:
    rho = _density(x, space)
    return rho / np.trace(rho).real


def steady_state(model: LindbladModel) -> SteadyStateResult:
    """Steady state from the Liouvillian null space with trace normalization.

    Row 0 of the real generator M (_real_generator), or of one of its
    invariant blocks, is replaced by the trace functional, ones on the d
    diagonal coordinates, and the resulting real matrix A is factorized once
    (_solve_trace_row); rho, the matrix of the solution's coordinates, is then
    Hermitian by construction.
    When the channels certify an irreducible semigroup (_cyclic_dimension
    reaches d), L has a one-dimensional kernel in the trace block, the block
    of M that holds the diagonal coordinates (_trace_block), and A is built
    on that block alone; the other blocks are nonsingular and stay zero.
    Otherwise (gamma_b = 0, g = 0 in the full model, no triangular channel)
    A is built on the whole of M, which is nonsingular exactly when the
    kernel of L is one-dimensional. Either way the kernel counts as
    degenerate when the LU meets an exactly zero pivot or A is numerically
    singular: cond1(A) * eps >= 1, i.e. rcond <= machine epsilon, the
    singularity test of LAPACK xGESVX and MATLAB. A singular A raises
    SteadyStateDegenerateError, whose message names the system (trace block
    or whole, and its side) and which carries the count of L's zero modes, or
    None when L is too large to count them. A residual max|L vec(rho)|, from
    the shifted diagonals of L, above _RESIDUAL_TOL * max(1, ||L||_inf) raises
    ResidualError.
    """
    if not any(rate > 0 for rate, _ in model.channels):
        raise ValueError("steady_state needs at least one dissipative channel")
    d = model.dim
    lio, m, norm = _real_generator(model)
    block = _trace_block(m, d) if _cyclic_dimension(model) == d else None
    if block is None:
        system = f"the whole trace-row system (side {m.shape[0]})"
        x = _solve_trace_row(m, d)
    else:
        system = f"the trace-row system of the trace block (side {block.size})"
        x_block, x = _solve_trace_row(m.block(block), d), None
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

    rho = _clean_density(x, model.space)
    residual = float(np.abs(lio.apply(rho)).max())
    bound = _RESIDUAL_TOL * max(1.0, norm)
    if residual > bound:
        raise ResidualError(f"steady-state residual {residual:.3e} exceeds {bound:.3e}")
    return SteadyStateResult(DensityMatrix(rho, model.space), residual)


def spectral_gap(model: LindbladModel) -> float:
    """Smallest nonzero decay rate: -max{Re z : z in spec(L), Re z < -eps}.

    eps = _ZERO_MODE_CUT * ||L||_inf, the zero-mode cut of _kernel_dimension;
    the spectrum comes from _block_spectra. numpy alone: no scipy module loads.
    """
    _, m, norm = _real_generator(model)
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
