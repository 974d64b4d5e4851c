"""Truncated bosonic Fock spaces, mode operators, and canonical states.

A single mode lives on the levels |0>, ..., |dim-1>. Multi-mode systems use an
ordered tensor product of such spaces, with the pump mode first and the signal
mode second throughout the package. Operators and states carry their space so
that dimension mismatches are caught at the boundary instead of deep inside a
solver.

Storage has one rule: states, density matrices and operators on a space of
dim n are dense complex arrays. The Liouvillian solvers read the superoperator,
of side n^2, as shifted diagonals of these arrays and assemble its real
generator as numpy CSR arrays (dynamics._real_generator). Conversions to
scipy.sparse CSR happen where sparse products or factorizations need them:
dynamics.liouvillian_matrix, which builds the superoperator for callers
outside the solvers, dynamics.evolve_closed for the Hamiltonian it
exponentiates, and dynamics._Csr.scipy for the sparse LU of
dynamics.steady_state and the action of the exponential (expm_multiply) in
dynamics.evolve_open.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .errors import DimensionMismatchError, TruncationError

__all__ = [
    "FockSpace",
    "TensorSpace",
    "Operator",
    "StateVector",
    "DensityMatrix",
    "annihilation",
    "number_operator",
    "identity_operator",
    "embed",
    "tensor_state",
    "fock_state",
    "coherent_state",
    "density_from_state",
    "expectation",
    "top_level_population",
]

# StateVector accepts amplitudes whose norm is within _NORM_TOL of 1.
_NORM_TOL = 1e-10
# Operator.is_hermitian accepts max|O - O^dag| up to _HERMITIAN_TOL.
_HERMITIAN_TOL = 1e-10
# coherent_state raises when its truncation drops more than _COHERENT_TAIL_TOL
# of the Poisson weight.
_COHERENT_TAIL_TOL = 1e-10


@dataclass(frozen=True)
class FockSpace:
    """Truncated single-mode Fock space keeping levels 0..dim-1."""

    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"FockSpace dim must be >= 1, got {self.dim}")


@dataclass(frozen=True)
class TensorSpace:
    """Ordered tensor product of Fock spaces (pump first, signal second)."""

    factors: tuple[FockSpace, ...]

    def __post_init__(self):
        if not self.factors:
            raise ValueError("TensorSpace needs at least one factor")

    @property
    def dim(self) -> int:
        return math.prod(f.dim for f in self.factors)


Space = FockSpace | TensorSpace


@dataclass
class Operator:
    """A linear operator tagged with the space it acts on.

    The matrix is a dense complex ndarray. Instances are treated as immutable.
    """

    matrix: np.ndarray
    space: Space

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        n = self.space.dim
        if self.matrix.shape != (n, n):
            raise DimensionMismatchError(
                f"operator matrix {self.matrix.shape} does not match space dim {n}"
            )

    @property
    def dim(self) -> int:
        return self.space.dim

    def dag(self) -> "Operator":
        return Operator(self.matrix.conj().T, self.space)

    def _check(self, other: "Operator"):
        if self.space != other.space:
            raise DimensionMismatchError("operators act on different spaces")

    def __matmul__(self, other: "Operator") -> "Operator":
        self._check(other)
        return Operator(self.matrix @ other.matrix, self.space)

    def __add__(self, other: "Operator") -> "Operator":
        self._check(other)
        return Operator(self.matrix + other.matrix, self.space)

    def __sub__(self, other: "Operator") -> "Operator":
        return self + (-1.0) * other

    def __rmul__(self, scalar: complex) -> "Operator":
        return Operator(scalar * self.matrix, self.space)

    __mul__ = __rmul__

    def is_hermitian(self) -> bool:
        return np.abs(self.matrix - self.matrix.conj().T).max() <= _HERMITIAN_TOL


@dataclass
class StateVector:
    """Normalized pure state with finite amplitudes on a (possibly
    tensor-product) space."""

    amplitudes: np.ndarray
    space: Space

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.amplitudes.shape != (self.space.dim,):
            raise DimensionMismatchError(
                f"state of length {self.amplitudes.shape} on space dim {self.space.dim}"
            )
        if not np.isfinite(self.amplitudes).all():
            raise ValueError("state has non-finite amplitudes")
        nrm = np.linalg.norm(self.amplitudes)
        if abs(nrm - 1.0) > _NORM_TOL:
            raise ValueError(f"state norm {nrm} deviates from 1 beyond {_NORM_TOL}")

    @property
    def dim(self) -> int:
        return self.space.dim


@dataclass
class DensityMatrix:
    """Mixed state with finite entries, Hermitian and of unit trace within tol.

    Positivity is not checked; min_eigenvalue reports it.
    """

    matrix: np.ndarray
    space: Space
    tol: float = field(default=1e-8, repr=False)

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        n = self.space.dim
        if self.matrix.shape != (n, n):
            raise DimensionMismatchError(
                f"density matrix {self.matrix.shape} on space dim {n}"
            )
        if not np.isfinite(self.matrix).all():
            raise ValueError("density matrix has non-finite entries")
        herm_dev = np.abs(self.matrix - self.matrix.conj().T).max()
        if herm_dev > self.tol:
            raise ValueError(f"density matrix not Hermitian: deviation {herm_dev}")
        tr_dev = abs(np.trace(self.matrix) - 1.0)
        if tr_dev > self.tol:
            raise ValueError(f"density matrix trace deviates from 1 by {tr_dev}")

    @property
    def dim(self) -> int:
        return self.space.dim

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.matrix)[0])


def annihilation(space: FockSpace) -> Operator:
    """Mode annihilation operator with <n-1|a|n> = sqrt(n)."""
    d = space.dim
    off = np.sqrt(np.arange(1, d, dtype=float))
    return Operator(np.diag(off.astype(complex), 1), space)


def number_operator(space: FockSpace) -> Operator:
    return Operator(np.diag(np.arange(space.dim, dtype=complex)), space)


def identity_operator(space: Space) -> Operator:
    return Operator(np.eye(space.dim, dtype=complex), space)


def embed(op: Operator, slot: int, spaces: tuple[FockSpace, ...]) -> Operator:
    """Lift a single-mode operator into the ordered tensor product.

    Returns identity x ... x op x ... x identity with op in position ``slot``.
    """
    if not 0 <= slot < len(spaces):
        raise DimensionMismatchError(f"slot {slot} outside {len(spaces)} factors")
    if op.space != spaces[slot]:
        raise DimensionMismatchError(
            f"operator dim {op.dim} does not match factor {slot} dim {spaces[slot].dim}"
        )
    blocks = [op.matrix if i == slot else np.eye(f.dim, dtype=complex)
              for i, f in enumerate(spaces)]
    return Operator(reduce(np.kron, blocks), TensorSpace(tuple(spaces)))


def tensor_state(*states: StateVector) -> StateVector:
    """Tensor product of pure states, in the given mode order."""
    amps = states[0].amplitudes
    factors: list[FockSpace] = []
    for s in states:
        if not isinstance(s.space, FockSpace):
            raise DimensionMismatchError("tensor_state expects single-mode factors")
    factors.append(states[0].space)
    for s in states[1:]:
        amps = np.kron(amps, s.amplitudes)
        factors.append(s.space)
    return StateVector(amps, TensorSpace(tuple(factors)))


def fock_state(n: int, space: FockSpace) -> StateVector:
    if not 0 <= n < space.dim:
        raise DimensionMismatchError(f"level {n} outside space of dim {space.dim}")
    amps = np.zeros(space.dim, dtype=complex)
    amps[n] = 1.0
    return StateVector(amps, space)


def _poisson_tail(log_terms: np.ndarray, mean: float) -> float:
    """P(N >= d) for N ~ Poisson(mean), from log_terms[n] = n log(mean) -
    lgamma(n + 1), n < d: 1 - exp(logsumexp(log_terms) - mean), summed in the
    log domain, so exp(-mean) never underflows at large mean."""
    top = log_terms.max()
    return -math.expm1(top + math.log(float(np.sum(np.exp(log_terms - top)))) - mean)


def coherent_state(alpha: complex, space: FockSpace) -> StateVector:
    """Coherent state with amplitudes ~ alpha^n/sqrt(n!), renormalized.

    Raises TruncationError when the retained weight falls below
    1 - _COHERENT_TAIL_TOL, i.e. when the truncation visibly clips the Poisson
    tail, and ValueError for a non-finite alpha.
    """
    if not cmath.isfinite(alpha):
        raise ValueError(f"coherent amplitude must be finite, got {alpha!r}")
    d = space.dim
    n = np.arange(d)
    # log-domain magnitudes avoid overflow for large |alpha|
    if alpha == 0:
        amps = np.zeros(d, dtype=complex)
        amps[0] = 1.0
        return StateVector(amps, space)
    logmag = n * np.log(abs(alpha)) - 0.5 * np.array([math.lgamma(k + 1) for k in n])
    phase = np.exp(1j * n * np.angle(alpha))
    amps = np.exp(logmag - logmag.max()) * phase
    tail = _poisson_tail(2 * logmag, abs(alpha) ** 2)
    if tail > _COHERENT_TAIL_TOL:
        raise TruncationError(
            f"coherent state |alpha|^2={abs(alpha)**2:.3g} keeps only "
            f"{1 - tail:.12f} of its weight at dim {d}"
        )
    return StateVector(amps / np.linalg.norm(amps), space)


def density_from_state(psi: StateVector) -> DensityMatrix:
    m = np.outer(psi.amplitudes, psi.amplitudes.conj())
    return DensityMatrix(m, psi.space)


def expectation(op: Operator, state: StateVector | DensityMatrix) -> complex:
    """<psi|O|psi> for pure states, Tr(rho O) for density matrices."""
    if op.space != state.space:
        raise DimensionMismatchError("operator and state spaces differ")
    if isinstance(state, StateVector):
        return complex(np.vdot(state.amplitudes, op.matrix @ state.amplitudes))
    return complex(np.trace(op.matrix @ state.matrix))


def top_level_population(rho: DensityMatrix, mode: int = 0) -> float:
    """Total population in the top two Fock levels of one mode.

    Used by truncation auto-raise: a converged steady state should leave the
    top of the ladder essentially empty.
    """
    space = rho.space
    if isinstance(space, FockSpace):
        dims = (space.dim,)
    else:
        dims = tuple(f.dim for f in space.factors)
    if not 0 <= mode < len(dims):
        raise DimensionMismatchError(f"mode {mode} outside {len(dims)} factors")
    pops = np.real(np.diag(rho.matrix)).reshape(dims)
    d = dims[mode]
    idx = [slice(None)] * len(dims)
    idx[mode] = slice(max(d - 2, 0), d)
    return float(pops[tuple(idx)].sum())
