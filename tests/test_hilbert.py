"""Fock-space primitives: operators, states, embeddings."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from pdclab.errors import DimensionMismatchError, TruncationError
from pdclab.hilbert import (
    DensityMatrix,
    FockSpace,
    Operator,
    StateVector,
    TensorSpace,
    annihilation,
    coherent_state,
    density_from_state,
    embed,
    expectation,
    fock_state,
    identity_operator,
    number_operator,
    tensor_state,
    top_level_population,
)
from pdclab.hilbert import _COHERENT_TAIL_TOL, _poisson_tail


# one storage rule on every dimension, including both sides of 64
DIMS = (6, 63, 64, 100)


def _dense(op):
    assert type(op.matrix) is np.ndarray and op.matrix.dtype == complex
    return op.matrix


def test_annihilation_matrix_elements():
    for d in DIMS:
        a = _dense(annihilation(FockSpace(d)))
        for n in range(1, d):
            assert a[n - 1, n] == pytest.approx(math.sqrt(n))
        # everything off the superdiagonal vanishes
        assert np.count_nonzero(a) == d - 1


def test_number_operator_is_a_dag_a():
    for d in DIMS:
        space = FockSpace(d)
        a = annihilation(space)
        n_direct = _dense(number_operator(space))
        n_built = _dense(a.dag() @ a)
        assert np.allclose(n_direct, n_built)
        assert np.allclose(np.diag(n_direct), np.arange(d))


def test_commutator_is_identity_below_truncation_edge():
    for d in DIMS:
        a = annihilation(FockSpace(d))
        comm = _dense(a @ a.dag() - a.dag() @ a)
        diag = np.real(np.diag(comm))
        assert np.allclose(diag[:-1], 1.0)
        # the top level absorbs the truncation: [a, a+] = 1 - d |d-1><d-1|
        assert diag[-1] == pytest.approx(1.0 - d)


def test_operator_rejects_sparse_storage():
    with pytest.raises(TypeError):
        Operator(sp.identity(4, dtype=complex, format="csr"), FockSpace(4))


def test_fock_states_orthonormal():
    space = FockSpace(5)
    states = [fock_state(n, space) for n in range(5)]
    overlaps = np.array(
        [[np.vdot(si.amplitudes, sj.amplitudes) for sj in states] for si in states]
    )
    assert np.allclose(overlaps, np.eye(5))
    n_op = number_operator(space)
    for n, s in enumerate(states):
        assert expectation(n_op, s) == pytest.approx(n)


def test_fock_state_outside_space_raises():
    with pytest.raises(DimensionMismatchError):
        fock_state(5, FockSpace(5))


@settings(max_examples=40, deadline=None)
@given(
    re=st.floats(-1.2, 1.2, allow_nan=False),
    im=st.floats(-1.2, 1.2, allow_nan=False),
)
def test_coherent_state_poisson_statistics(re, im):
    alpha = complex(re, im)
    space = FockSpace(32)
    psi = coherent_state(alpha, space)
    assert np.linalg.norm(psi.amplitudes) == pytest.approx(1.0)
    n_op = number_operator(space)
    mean_n = expectation(n_op, psi).real
    mean_n2 = expectation(n_op @ n_op, psi).real
    assert mean_n == pytest.approx(abs(alpha) ** 2, abs=1e-9)
    # Poissonian variance
    assert mean_n2 - mean_n**2 == pytest.approx(abs(alpha) ** 2, abs=1e-8)
    probs = np.abs(psi.amplitudes) ** 2
    a2 = abs(alpha) ** 2
    pmf = [math.exp(-a2) * a2**n / math.factorial(n) for n in range(8)]
    assert np.allclose(probs[:8], pmf, atol=1e-9)


def test_coherent_state_annihilation_eigenvector():
    space = FockSpace(40)
    alpha = 0.9 - 0.4j
    psi = coherent_state(alpha, space)
    a = annihilation(space)
    assert expectation(a, psi) == pytest.approx(alpha, abs=1e-10)


def test_coherent_state_clipped_tail_raises():
    with pytest.raises(TruncationError):
        coherent_state(3.0, FockSpace(10))


def test_coherent_state_tail_at_large_occupation():
    # exp(-800) underflows, but the Poisson tail P(N >= 1200) is only ~8.8e-40
    space = FockSpace(1200)
    psi = coherent_state(math.sqrt(800.0), space)
    mean_n = expectation(number_operator(space), psi).real
    assert mean_n == pytest.approx(800.0, rel=1e-12)
    with pytest.raises(TruncationError):
        coherent_state(math.sqrt(800.0), FockSpace(820))


def test_poisson_tail_matches_the_incomplete_gamma():
    # P(N >= d) is the regularized lower incomplete gamma P(d, mean); the
    # log-domain sum loses a few eps * mean to rounding (at most 2.05 here)
    from scipy.special import gammainc

    for mean in (0.01, 0.5, 2.0, 10.0, 37.5, 100.0, 250.0, 900.0, 2000.0):
        top = int(mean + 12 * math.sqrt(mean)) + 40  # past the Poisson bulk
        for d in range(1, top, max(1, top // 60)):
            n = np.arange(d)
            log_terms = n * math.log(mean) - np.array([math.lgamma(k + 1) for k in n])
            error = abs(_poisson_tail(log_terms, mean) - float(gammainc(d, mean)))
            assert error <= 8 * np.finfo(float).eps * max(1.0, mean), (mean, d)


def test_coherent_state_tail_verdict_flips_where_the_incomplete_gamma_does():
    from scipy.special import gammainc

    for mean in (0.3, 4.0, 30.0, 200.0, 800.0):
        d = next(d for d in range(1, 2000) if gammainc(d, mean) <= _COHERENT_TAIL_TOL)
        assert gammainc(d - 1, mean) > _COHERENT_TAIL_TOL
        coherent_state(math.sqrt(mean), FockSpace(d))
        with pytest.raises(TruncationError):
            coherent_state(math.sqrt(mean), FockSpace(d - 1))


def test_tensor_state_is_kron():
    sa, sb = FockSpace(3), FockSpace(4)
    psi_a = fock_state(1, sa)
    psi_b = fock_state(2, sb)
    joint = tensor_state(psi_a, psi_b)
    assert joint.dim == 12
    expected = np.kron(psi_a.amplitudes, psi_b.amplitudes)
    assert np.allclose(joint.amplitudes, expected)


def test_embed_number_operators_commute_and_factorize():
    sa, sb = FockSpace(4), FockSpace(5)
    na = embed(number_operator(sa), 0, (sa, sb))
    nb = embed(number_operator(sb), 1, (sa, sb))
    comm = (na @ nb - nb @ na).matrix
    assert np.abs(comm).max() == 0.0
    joint = tensor_state(fock_state(2, sa), fock_state(3, sb))
    assert expectation(na, joint) == pytest.approx(2.0)
    assert expectation(nb, joint) == pytest.approx(3.0)


def test_embed_action_matches_kron():
    # products of dimension 9, 63, 64 and 100
    for d_a, d_b in ((3, 3), (7, 9), (8, 8), (10, 10)):
        sa, sb = FockSpace(d_a), FockSpace(d_b)
        a, b = annihilation(sa), annihilation(sb)
        emb_a, emb_b = _dense(embed(a, 0, (sa, sb))), _dense(embed(b, 1, (sa, sb)))
        assert np.array_equal(emb_a, np.kron(a.matrix, np.eye(d_b)))
        assert np.array_equal(emb_b, np.kron(np.eye(d_a), b.matrix))


def test_operator_algebra_round_trip():
    for d in DIMS:
        space = FockSpace(d)
        a = annihilation(space)
        ident = identity_operator(space)
        x = a + a.dag()
        assert x.is_hermitian()
        assert not a.is_hermitian()
        assert np.allclose(_dense(2.5 * x), 2.5 * _dense(x))
        diff = _dense(x @ ident - x)
        assert np.abs(diff).max() == 0.0


def test_operator_space_mismatch_raises():
    with pytest.raises(DimensionMismatchError):
        annihilation(FockSpace(4)) @ annihilation(FockSpace(5))


def test_density_from_state_pure():
    psi = coherent_state(0.7, FockSpace(20))
    rho = density_from_state(psi)
    assert np.trace(rho.matrix).real == pytest.approx(1.0)
    assert np.allclose(rho.matrix @ rho.matrix, rho.matrix, atol=1e-12)
    assert rho.min_eigenvalue() >= -1e-14
    n_op = number_operator(rho.space)
    assert expectation(n_op, rho) == pytest.approx(expectation(n_op, psi))


def test_density_matrix_rejects_bad_trace_and_nonhermitian():
    space = FockSpace(3)
    with pytest.raises(ValueError):
        DensityMatrix(0.5 * np.eye(3), space)
    bad = np.eye(3, dtype=complex) / 3.0
    bad[0, 1] = 0.2
    with pytest.raises(ValueError):
        DensityMatrix(bad, space)


@pytest.mark.parametrize("bad", (math.nan, math.inf))
def test_density_matrix_rejects_non_finite_entries(bad):
    with pytest.raises(ValueError, match="non-finite"):
        DensityMatrix(np.full((2, 2), bad), FockSpace(2))
    rho = np.diag([0.5, 0.5]).astype(complex)
    rho[0, 1] = rho[1, 0] = bad
    with pytest.raises(ValueError, match="non-finite"):
        DensityMatrix(rho, FockSpace(2))


@pytest.mark.parametrize("bad", (math.nan, math.inf))
def test_pure_states_reject_non_finite_amplitudes(bad):
    # abs(nan - 1) > tol is False: the norm check alone lets NaN through
    with pytest.raises(ValueError, match="non-finite"):
        StateVector(np.array([bad, 0.0]), FockSpace(2))
    with pytest.raises(ValueError, match="coherent amplitude must be finite"):
        coherent_state(complex(bad), FockSpace(4))


def test_state_vector_requires_normalization():
    with pytest.raises(ValueError):
        StateVector(np.array([1.0, 1.0]), FockSpace(2))


def test_top_level_population_tracks_tail():
    space = FockSpace(16)
    psi = coherent_state(1.0, space)
    rho = density_from_state(psi)
    pop = top_level_population(rho)
    expected = float(np.sum(np.abs(psi.amplitudes[-2:]) ** 2))
    assert pop == pytest.approx(expected)
    assert pop < 1e-6


def test_tensor_space_dim_and_top_level_by_mode():
    sa, sb = FockSpace(3), FockSpace(4)
    ts = TensorSpace((sa, sb))
    assert ts.dim == 12
    joint = tensor_state(fock_state(2, sa), fock_state(0, sb))
    rho = density_from_state(joint)
    assert top_level_population(rho, mode=0) == pytest.approx(1.0)
    assert top_level_population(rho, mode=1) == pytest.approx(0.0)
