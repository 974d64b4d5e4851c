"""The real generator M assembled from the shifted diagonals of L, against the
complex sparse product T^H L T it replaced.

`_real_generator` reads L as shifted diagonals of K and the channels
(`_shift_form`) and builds M in numpy without forming L or T. The slow path is
kept here as the reference: L from the public `liouvillian_matrix`, T from the
phases of the hook `_pair_phases`, M = Re(T^H L T) with exact zeros dropped.
The two must share M's sparsity pattern, and hence its blocks, and the order
of each row's columns, which sets the rounding of M x in evolve_open's ODE
route; where L stores explicit zeros (scipy.sparse.kron keeps the dense
blocks of a small, dense K), the product's order follows them and only the
pattern is compared. M's entries and ||L||_inf agree to rounding (on the
model builders bit for bit), and so does the residual max|L vec(rho)| that
`steady_state` takes from the shifts.
"""

import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from pdclab import dynamics
from pdclab.dynamics import (
    LindbladModel,
    SystemParams,
    _blocks,
    _real_generator,
    build_full_model,
    build_reduced_model,
    liouvillian_matrix,
)
from pdclab.hilbert import FockSpace, Operator, annihilation, number_operator

EPS = np.finfo(float).eps


def hermitian_basis(space) -> sp.csc_matrix:
    """Unitary T from real coordinates to column-major vec(rho): column k is
    vec(E_kk), then per pair m < n vec(c E_mn + conj(c) E_nm) and
    vec(i c E_mn + conj(i c) E_nm), c from _pair_phases."""
    d = space.dim
    c = dynamics._pair_phases(space)
    m, n = np.triu_indices(d, 1)
    upper, lower = m + n * d, n + m * d
    re = d + 2 * np.arange(m.size)
    rows = np.concatenate([np.arange(d) * (d + 1), upper, lower, upper, lower])
    cols = np.concatenate([np.arange(d), re, re, re + 1, re + 1])
    data = np.concatenate([np.ones(d), c, c.conj(), 1j * c, (1j * c).conj()])
    return sp.csc_matrix((data, (rows, cols)), shape=(d * d, d * d))


def slow_generator(lio, space) -> sp.csr_matrix:
    """Re(T^H L T) with exact zeros dropped, each row's columns in the order
    the sparse product leaves them."""
    t = hermitian_basis(space)
    m = (t.conj().T @ lio @ t).tocsr().real
    m.eliminate_zeros()
    return m


def _comparable(model):
    """The fast and the slow M as scipy.sparse matrices, and L: each row's
    columns sorted when L stores explicit zeros."""
    _, m, _ = _real_generator(model)
    lio = liouvillian_matrix(model)
    fast = sp.csr_matrix((m.data, m.indices, m.indptr), shape=m.shape)
    slow = slow_generator(lio, model.space)
    if np.any(lio.data == 0):
        fast.sort_indices()
        slow.sort_indices()
    return fast, slow, lio


def _hand_built():
    space = FockSpace(12)
    b = annihilation(space)
    b2 = b @ b
    # x(b + b^dag) breaks the symmetry of _pair_phases
    asymmetric = 0.3 * (b + b.dag()) + 0.2 * (b2 + b2.dag())
    yield "no-symmetry", LindbladModel(asymmetric, [(0.5, b)])
    # n_b's shift (0, 0) adds to the one K and conj(K) share
    yield "dephasing", LindbladModel(0.2 * (b2 + b2.dag()), [(0.5, b), (0.3, number_operator(space))])
    yield "complex-channel", LindbladModel(
        0.2 * (b2 + b2.dag()), [(0.7, Operator(np.exp(0.4j) * b.matrix + 0.3j * b2.matrix, space))])
    rng = np.random.default_rng(11)
    a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    dense = Operator(0.5 * (a + a.conj().T), FockSpace(6))  # every offset of K is present
    yield "dense-6", LindbladModel(dense, [(0.4, annihilation(FockSpace(6)))])


def _builder_grid():
    base = dict(g=0.2, lambda_a=0.5, gamma_a=4.0, kappa_e=0.05)
    for d in (3, 8, 24, 40):
        yield f"reduced-{d}-cold", build_reduced_model(SystemParams(**base, gamma_b=0.5), d)
        yield f"reduced-{d}-thermal", build_reduced_model(
            SystemParams(**base, gamma_b=0.5, nbar=0.5), d)
        yield f"reduced-{d}-gb0", build_reduced_model(SystemParams(**base, gamma_b=0.0), d)
        yield f"reduced-{d}-ke0", build_reduced_model(
            SystemParams(**dict(base, kappa_e=0.0), gamma_b=0.5), d)
    full = dict(g=0.3, lambda_a=0.4, gamma_a=1.0)
    for d_a, d_b in ((3, 8), (4, 12)):
        for gamma_b in (0.5, 0.0):
            yield f"full-{d_a}x{d_b}-{gamma_b}", build_full_model(
                SystemParams(**full, gamma_b=gamma_b), d_a, d_b)
    yield "full-g0", build_full_model(SystemParams(**dict(full, g=0.0), gamma_b=0.5), 3, 8)


BUILDERS = list(_builder_grid())
HAND_BUILT = list(_hand_built())


def _random_state(d: int, seed: int = 5) -> np.ndarray:
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


@pytest.mark.parametrize("label, model", BUILDERS + HAND_BUILT,
                         ids=[label for label, _ in BUILDERS + HAND_BUILT])
def test_assembly_matches_the_triple_product(label, model):
    shifted, m, norm = _real_generator(model)
    fast, slow, lio = _comparable(model)
    scale = spla.norm(lio, np.inf)
    # the same pattern in the same order, hence the same blocks
    assert [b.tolist() for b in _blocks(m)] == [b.tolist() for b in _blocks(slow)]
    assert fast.shape == slow.shape
    assert np.array_equal(fast.indptr, slow.indptr)
    assert np.array_equal(fast.indices, slow.indices)
    assert np.abs(fast.data - slow.data).max(initial=0.0) <= 4 * EPS * scale
    assert norm == pytest.approx(scale, rel=4 * EPS)
    # max|L vec(rho)| on a full-rank state, from the shifts and from L
    rho = _random_state(model.dim)
    residual = np.abs(shifted.apply(rho)).max()
    direct = np.abs(lio @ rho.reshape(-1, order="F")).max()
    assert residual == pytest.approx(direct, rel=4 * EPS)


def test_assembly_is_bit_identical_on_the_model_builders():
    # real channel operators make every product of the assembly exact or
    # phase-safe, so the two routes round identically
    for label, model in BUILDERS:
        fast, slow, lio = _comparable(model)
        assert np.array_equal(fast.data, slow.data), label
        assert _real_generator(model)[2] == spla.norm(lio, np.inf), label


def test_the_grid_meets_liouvillians_with_explicit_zeros():
    # only these two compare patterns alone; the rest compare the order too
    zeros = [label for label, model in BUILDERS + HAND_BUILT
             if np.any(liouvillian_matrix(model).data == 0)]
    assert zeros == ["reduced-3-thermal", "dense-6"]


@pytest.mark.parametrize("label, model", BUILDERS[:4] + HAND_BUILT,
                         ids=[label for label, _ in BUILDERS[:4] + HAND_BUILT])
def test_coordinate_maps_are_the_basis_and_its_adjoint(label, model):
    # _coordinates is Re(T^H vec(rho)), _density is unvec(T x)
    space = model.space
    t = hermitian_basis(space)
    rho = _random_state(model.dim, seed=8)
    x = dynamics._coordinates(rho, space)
    assert np.array_equal(x, (t.conj().T @ rho.reshape(-1, order="F")).real)
    back = (t @ x).reshape(rho.shape, order="F")
    assert np.array_equal(dynamics._density(x, space), back)
    assert np.abs(back - rho).max() <= 1e-15


def test_a_zero_liouvillian_has_an_empty_generator():
    # H = 0 and no channel: no shifted diagonal at all
    model = LindbladModel(Operator(np.zeros((3, 3)), FockSpace(3)), [])
    lio, m, norm = _real_generator(model)
    assert lio.shifts.shape == (0, 2)
    assert m.nnz == 0 and m.shape == (9, 9) and norm == 0.0
    assert not lio.apply(np.eye(3)).any()


def test_shifted_diagonals_rebuild_the_liouvillian():
    # vec((L rho)) for rho = E_kl is column k + l d of L: the shifts hold every entry
    model = HAND_BUILT[1][1]
    d = model.dim
    lio = _real_generator(model)[0]
    dense = liouvillian_matrix(model).toarray()
    cols = []
    for k in range(d * d):
        e = np.zeros(d * d, dtype=complex)
        e[k] = 1.0
        cols.append(lio.apply(e.reshape((d, d), order="F")).reshape(-1, order="F"))
    assert np.array_equal(np.array(cols).T, dense)
    assert math.isclose(lio.inf_norm(), np.abs(dense).sum(axis=1).max(), rel_tol=4 * EPS)
