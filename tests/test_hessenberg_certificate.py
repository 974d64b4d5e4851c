"""The steady-state uniqueness certificate, `dynamics._cyclic_dimension`.

It counts the Krylov space of G = K + sum_c c from the vacuum by numpy
Arnoldi. Two replaced routes are kept here as test-local references. The
first grew the vacuum's cyclic subspace under K and every channel separately
by block Gram-Schmidt. The Krylov space of G lies inside that cyclic
subspace, so the count can never exceed that reference's; on the builders'
models the two agree. The second read the same Krylov space off one
Householder Hessenberg reduction of G (scipy.linalg.hessenberg), whose
subdiagonal magnitudes are Arnoldi's; the two counts agree.
"""

import sys
import threading
from functools import partial

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from pdclab import dynamics
from pdclab.dynamics import (
    LindbladModel,
    SystemParams,
    build_full_model,
    build_reduced_model,
    spectral_gap,
    steady_state,
)
from pdclab.hilbert import FockSpace, Operator, annihilation
from test_steady_uniqueness import _dephasing_model, _full_grid, _grid


def _gated_generators(model):
    """K and the channels of nonzero rate, with the cut of _RANK_CUT times
    their largest inf-norm; None when the certificate's gate refuses: no
    strictly upper-triangular channel, or a common kernel of those channels
    that is not one-dimensional."""
    channels = [c.matrix for rate, c in model.channels if rate > 0]
    lowering = [c for c in channels if not np.tril(c).any()]
    if not lowering:
        return None
    s = np.linalg.svd(np.vstack(lowering), compute_uv=False)
    if np.count_nonzero(s <= dynamics._RANK_CUT * s[0]) != 1:
        return None
    generators = [dynamics._no_jump(model)] + channels
    return generators, dynamics._RANK_CUT * max(np.abs(g).sum(axis=1).max() for g in generators)


def _gram_schmidt_dimension(model) -> int:
    """The replaced certificate: the vacuum's cyclic subspace under K and the
    channels of nonzero rate, grown by block Gram-Schmidt with a singular
    value cut of _RANK_CUT times the largest inf-norm of the generators."""
    gated = _gated_generators(model)
    if gated is None:
        return 0
    generators, cut = gated
    d = model.dim
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


def _hessenberg_dimension(model) -> int:
    """The replaced Hessenberg count: scipy.linalg.hessenberg neither permutes
    nor scales G, so H = Q^H G Q keeps Q e_0 = e_0, and the Krylov space ends
    at the first |H[k + 1, k]| at or below the certificate's cut."""
    from scipy.linalg import hessenberg

    gated = _gated_generators(model)
    if gated is None:
        return 0
    generators, cut = gated
    h = hessenberg(sum(generators), check_finite=False)
    ends = np.abs(np.diagonal(h, -1)) <= cut
    return int(ends.argmax()) + 1 if ends.any() else model.dim


def _rotated(model: LindbladModel) -> LindbladModel:
    """The model under a diagonal unitary U that fixes the vacuum: the same
    certificate count, but K, the channels and the Krylov vectors of G become
    complex, so that an inner product without its conjugate shows."""
    u = np.exp(0.7j * np.arange(model.dim))

    def rotate(op: Operator) -> Operator:
        return Operator(u[:, None] * op.matrix * u.conj(), op.space)

    return LindbladModel(rotate(model.hamiltonian),
                         [(rate, rotate(c)) for rate, c in model.channels])


def _refusals():
    yield "lossless", build_reduced_model(
        SystemParams(g=0.2, lambda_a=0.5, gamma_a=4.0, gamma_b=0.0, kappa_e=0.05), 16
    )
    uncoupled = build_full_model(SystemParams(g=0.0, lambda_a=0.4, gamma_a=1.0, gamma_b=0.5), 4, 12)
    yield "uncoupled", uncoupled
    yield "uncoupled-rotated", _rotated(uncoupled)
    yield "dephasing", _dephasing_model(6)


def _large():
    params = SystemParams(g=0.2, lambda_a=0.5, gamma_a=4.0, gamma_b=0.5, kappa_e=0.05, nbar=0.5)
    for d in (96, 160):
        yield f"reduced-{d}", build_reduced_model(params, d)
    yield "full-8x20", build_full_model(SystemParams(g=0.3, lambda_a=0.4, gamma_a=1.0, gamma_b=0.5), 8, 20)


CERTIFICATE_GRIDS = (
    [pytest.param(partial(_grid, d), id=str(d)) for d in (8, 16, 40)]
    + [pytest.param(partial(_full_grid, *dims), id=f"full-{dims[0]}x{dims[1]}")
       for dims in ((3, 8), (4, 10), (4, 12))]
    + [pytest.param(_refusals, id="refusals"), pytest.param(_large, id="large")]
)


@pytest.mark.parametrize("models", CERTIFICATE_GRIDS)
def test_hessenberg_dimension_matches_block_gram_schmidt(models):
    dims = [(label, dynamics._cyclic_dimension(model), _gram_schmidt_dimension(model))
            for *label, model in models()]
    for label, new, reference in dims:
        assert new == reference, label


@pytest.mark.parametrize("models", CERTIFICATE_GRIDS)
def test_arnoldi_dimension_matches_the_hessenberg_reduction(models):
    for *label, model in models():
        assert dynamics._cyclic_dimension(model) == _hessenberg_dimension(model), label


def _drawn_model(rng):
    """A builder model at random parameters: g down to 0, lambda_a down to 0,
    gamma_b on a ladder from 0 through 1e-14 to 1, nbar up to 3."""
    params = SystemParams(
        g=float(rng.choice([0.0, rng.uniform(0.01, 1.0)], p=[0.15, 0.85])),
        lambda_a=float(rng.choice([0.0, rng.uniform(0.01, 2.0)], p=[0.15, 0.85])),
        gamma_a=float(rng.uniform(0.5, 10.0)),
        gamma_b=float(rng.choice([0.0, 1e-14, 1e-8, 0.3, 1.0])),
        kappa_e=float(rng.choice([0.0, rng.uniform(0.0, 0.2)])),
        nbar=float(rng.choice([0.0, rng.uniform(0.0, 3.0)])),
    )
    if rng.random() < 0.5:
        return params, build_reduced_model(params, int(rng.integers(3, 41)))
    return params, build_full_model(params, int(rng.integers(2, 6)), int(rng.integers(3, 13)))


@pytest.mark.parametrize("seed", (0, 1, 2))
def test_seeded_builder_sweep_matches_block_gram_schmidt(seed):
    rng = np.random.default_rng(seed)
    verdicts = set()
    for _ in range(60):
        params, model = _drawn_model(rng)
        new, reference = dynamics._cyclic_dimension(model), _gram_schmidt_dimension(model)
        assert new <= reference, (params, model.dim)  # soundness
        assert new == reference, (params, model.dim)
        assert new == _hessenberg_dimension(model), (params, model.dim)
        verdicts.add((new == model.dim, new == 0))
    # the draws certify some models and refuse others, with and without a
    # one-dimensional lowering kernel
    assert verdicts == {(True, False), (False, True), (False, False)}


def test_a_refused_model_costs_only_the_whole_matrix_lu(monkeypatch):
    """G can lose directions that K and the channels reach apart: with
    H = i(b^2 - b^dag^2) and channels b and b^dag^2, G = K + b + b^dag^2 maps
    the vacuum onto itself, so G's Krylov space is the vacuum alone, while
    b^dag^2 and b reach every level. The certificate then refuses, and
    steady_state answers with one LU of the whole generator: the same state as
    the trace block gives, which the block Gram-Schmidt route certified. Both
    systems are below the dense route's cap, so the cap is 0 here: each is
    one sparse LU."""
    space = FockSpace(8)
    b = annihilation(space)
    b2 = b @ b
    model = LindbladModel(Operator(1j * (b2 - b2.dag()).matrix, space), [(0.5, b), (0.2, b2.dag())])
    assert dynamics._cyclic_dimension(model) == 1
    assert _gram_schmidt_dimension(model) == 8
    sides = []

    def counting_splu(a, *args, **kwargs):
        sides.append(a.shape[0])
        return real_splu(a, *args, **kwargs)

    real_splu = spla.splu
    monkeypatch.setattr(spla, "splu", counting_splu)
    monkeypatch.setattr(dynamics, "_DENSE_SOLVE_MAX_SIDE", 0)
    whole = steady_state(model).rho.matrix
    assert sides == [64]
    monkeypatch.setattr(dynamics, "_cyclic_dimension", lambda model: model.dim)
    block = steady_state(model).rho.matrix
    assert sides[1:] == [20]
    assert np.abs(whole - block).max() <= 1e-12


def test_each_model_forms_its_no_jump_generator_once(monkeypatch):
    # the certificate, the shifted diagonals and the gap read one K per model
    formed = []
    real_no_jump = dynamics._no_jump

    def counting_no_jump(model):
        formed.append(model)
        return real_no_jump(model)

    monkeypatch.setattr(dynamics, "_no_jump", counting_no_jump)
    params = SystemParams(g=0.2, lambda_a=0.5, gamma_a=4.0, gamma_b=0.5, kappa_e=0.05)
    for model in (build_reduced_model(params, 16), build_full_model(params, 3, 8)):
        formed.clear()
        steady_state(model)
        spectral_gap(model)
        assert len(formed) == 1 and formed[0] is model


def test_threads_sharing_a_model_read_one_no_jump_generator():
    # threads that race on a model's first K all see the same state; a switch
    # interval of 1 us interleaves them inside the solve
    model = build_reduced_model(SystemParams(g=0.2, lambda_a=0.5, gamma_a=4.0, gamma_b=0.5), 16)
    barrier = threading.Barrier(8)
    states = []

    def solve():
        barrier.wait()
        states.append(steady_state(model).rho.matrix)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=solve) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(states) == 8
    assert all(np.array_equal(rho, states[0]) for rho in states)
    assert np.array_equal(model._k, dynamics._no_jump(model))
