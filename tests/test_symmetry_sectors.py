"""The phased Hermitian basis and the blocks of the real generator it splits.

`_pair_phases` puts the phase (1 + i)/2 on the level pairs whose signal Fock
numbers differ by an odd count. In that basis the weak symmetry
S(rho) = U rho^T U^dag, U = exp(i pi n_b / 2), of both model builders is
diagonal with entries +-1, so the real generator M has exact zeros between
its two sectors and `_blocks` finds them. The unphased basis it replaced
(every pair at 1/sqrt(2), coordinates sqrt(2) Re and sqrt(2) Im of rho[m, n])
is kept here as the test-local reference, patched in through the one hook.
"""

import math

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from pdclab import dynamics
from pdclab.dynamics import (
    LindbladModel,
    SystemParams,
    _blocks,
    _kernel_dimension,
    _real_generator,
    build_full_model,
    build_reduced_model,
    evolve_open,
    liouvillian_matrix,
    spectral_gap,
    steady_state,
)
from pdclab.errors import SteadyStateDegenerateError
from pdclab.hilbert import DensityMatrix, FockSpace, TensorSpace, annihilation
from test_real_generator import hermitian_basis


def _plain_phases(space) -> np.ndarray:
    """The unphased basis: E_kk, (E_mn + E_nm)/sqrt(2), i(E_mn - E_nm)/sqrt(2)."""
    d = space.dim
    return np.full(d * (d - 1) // 2, math.sqrt(0.5), dtype=complex)


@pytest.fixture
def plain_basis(monkeypatch):
    """Run the solvers on the unphased basis."""
    def use():
        monkeypatch.setattr(dynamics, "_pair_phases", _plain_phases)
    return use


def _block_sides(model) -> list[int]:
    _, m, _ = _real_generator(model)
    return sorted(idx.size for idx in _blocks(m))


REDUCED = dict(g=0.2, lambda_a=0.5, gamma_a=4.0, kappa_e=0.05)
FULL = dict(g=0.3, lambda_a=0.4, gamma_a=1.0)


@pytest.mark.parametrize(
    "model, sides",
    [
        (build_reduced_model(SystemParams(**REDUCED, gamma_b=1.0), 40), [380, 400, 400, 420]),
        (build_reduced_model(SystemParams(**REDUCED, gamma_b=1.0, nbar=0.5), 40),
         [380, 400, 400, 420]),
        (build_full_model(SystemParams(**FULL, gamma_b=1.0), 4, 12), [552, 576, 576, 600]),
        (build_reduced_model(SystemParams(**REDUCED, gamma_b=0.0), 24),
         [66, 66, 78, 78, 144, 144]),
    ],
    ids=["reduced-40-cold", "reduced-40-thermal", "full-4x12", "reduced-24-gb0"],
)
def test_the_symmetry_splits_the_odd_coherence_block(model, sides):
    # the split comes from exact zeros in M: _real_generator drops only
    # entries equal to 0.0, so rounding that merged the sectors would fail here
    assert _block_sides(model) == sides


@pytest.mark.parametrize(
    "model",
    [
        build_reduced_model(SystemParams(**REDUCED, gamma_b=0.5, nbar=0.5), 7),
        build_full_model(SystemParams(**FULL, gamma_b=0.5, nbar=0.5), 2, 5),
    ],
    ids=["reduced-7", "full-2x5"],
)
def test_the_phased_basis_diagonalizes_the_symmetry(model):
    # S vec(rho) = vec(U rho^T U^dag) as a matrix, U = diag(u), u = i^(n_b); in the
    # phased basis T^H S T is diagonal with entries +-1 (to the rounding of
    # the unphased pairs' 1/sqrt(2)), and L commutes with S
    d = model.dim
    space = model.space
    d_s = space.factors[-1].dim if isinstance(space, TensorSpace) else d
    u = np.array([1, 1j, -1, -1j])[np.arange(d) % d_s % 4]
    # (U rho^T U^dag)[i, j] = u_i conj(u_j) rho[j, i], vec index i + j d
    i, j = np.indices((d, d))
    s = np.zeros((d * d, d * d), dtype=complex)
    s[(i + j * d).ravel(), (j + i * d).ravel()] = np.outer(u, u.conj()).ravel()
    t = hermitian_basis(space).toarray()
    sym = t.conj().T @ s @ t
    signs = np.sign(np.diag(sym).real)
    assert np.abs(sym - np.diag(signs)).max() <= 1e-15
    assert set(signs) == {1, -1}
    lio = liouvillian_matrix(model).toarray()
    assert np.abs(s @ lio - lio @ s).max() <= 1e-14 * np.abs(lio).sum(axis=1).max()


def _random_state(space, seed: int = 3) -> DensityMatrix:
    """A full-rank mixed state: every coherence, odd and even, is nonzero."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(space.dim, space.dim)) + 1j * rng.normal(size=(space.dim, space.dim))
    rho = a @ a.conj().T
    return DensityMatrix(rho / np.trace(rho).real, space)


def _comparison_grid():
    for d in (16, 24):
        for label, extra in (("cold", {}), ("thermal", {"nbar": 0.5})):
            yield f"reduced-{d}-{label}", build_reduced_model(
                SystemParams(**REDUCED, gamma_b=0.5, **extra), d)
        yield f"reduced-{d}-gb0", build_reduced_model(SystemParams(**REDUCED, gamma_b=0.0), d)
    for d_a, d_b in ((3, 8), (4, 8)):
        for gamma_b in (0.5, 0.0):
            yield f"full-{d_a}x{d_b}-{gamma_b}", build_full_model(
                SystemParams(**FULL, gamma_b=gamma_b), d_a, d_b)


def _solver_outputs(model):
    """(gap, zero-mode count, steady rho or kernel dimension, rho(t = 40))."""
    _, m, norm = _real_generator(model)
    try:
        steady = steady_state(model).rho.matrix
    except SteadyStateDegenerateError as err:
        steady = err.kernel_dim
    evolved = evolve_open(model, _random_state(model.space), 40.0).matrix
    return spectral_gap(model), _kernel_dimension(m, norm), steady, evolved


def test_the_phased_basis_matches_the_plain_basis(plain_basis):
    """Gap within 1e-12 ||L||_inf (absolute: at gamma_b = 0 the gap can be a
    truncation near-zero mode, where a relative bound measures rounding),
    equal zero-mode counts, steady states within 1e-12 and one long-horizon
    evolution within 1e-10."""
    cases = list(_comparison_grid())
    phased = [_solver_outputs(model) for _, model in cases]
    plain_basis()
    kernels = set()
    for (label, model), (gap, kernel, steady, evolved) in zip(cases, phased):
        ref_gap, ref_kernel, ref_steady, ref_evolved = _solver_outputs(model)
        scale = spla.norm(liouvillian_matrix(model), np.inf)
        assert abs(gap - ref_gap) <= 1e-12 * scale, label
        assert kernel == ref_kernel, label
        if isinstance(steady, np.ndarray):
            assert np.abs(steady - ref_steady).max() <= 1e-12, label
        else:
            assert steady == ref_steady == kernel, label
        assert np.abs(evolved - ref_evolved).max() <= 1e-10, label
        kernels.add(kernel)
    assert kernels == {1, 2, 4}  # unique and degenerate kernels are both met


def test_a_model_without_the_symmetry_keeps_a_correct_basis(plain_basis):
    # x(b + b^dag) breaks U H^T U^dag = -H: U turns it into -i x(b - b^dag)
    space = FockSpace(12)
    b = annihilation(space)
    b2 = b @ b
    h = 0.3 * (b + b.dag()) + 0.2 * (b2 + b2.dag())
    model = LindbladModel(h, [(0.5, b)])
    sides = _block_sides(model)
    gap, rho = spectral_gap(model), steady_state(model).rho.matrix
    plain_basis()
    assert sides == _block_sides(model)
    scale = spla.norm(liouvillian_matrix(model), np.inf)
    assert abs(gap - spectral_gap(model)) <= 1e-12 * scale
    assert np.abs(rho - steady_state(model).rho.matrix).max() <= 1e-12
