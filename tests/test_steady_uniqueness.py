"""Uniqueness of the Liouvillian steady state: one LU, its rcond, and kernel counts.

`steady_state` decides uniqueness from the condition estimate of the one
trace-row LU it builds. The slow path it replaced solved a second system whose
row 0 is a random normalization functional and compared the two states; that
probe is kept here as a test-local reference.
"""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

from pdclab import dynamics
from pdclab.dynamics import (
    SystemParams,
    _kernel_dimension,
    _trace_row_system,
    build_full_model,
    build_reduced_model,
    liouvillian_matrix,
    steady_state,
)
from pdclab.errors import ResidualError, SteadyStateDegenerateError

_DENSE_COUNTS: dict[tuple, int] = {}


def _zero_modes(block: np.ndarray, scale: float) -> int:
    ev = np.linalg.eigvals(block)
    return int(np.sum(np.abs(ev.real) <= 1e-10 * scale))


def _dense_kernel_count(lio) -> int:
    """Eigenvalues of the whole dense L with |Re z| <= 1e-10 ||L||_inf."""
    return _zero_modes(lio.toarray(), spla.norm(lio, np.inf))


def _parity_kernel_count(lio, d: int) -> int:
    """The dense count of a reduced-model L, one analytic parity sector at a time.

    vec(rho)[m + n d] = rho[m, n]. The Hamiltonian b^2 + b^dag^2 and the
    channels b, b^dag and b^2 all keep (m - n) mod 2 of |m><n|, so L is block
    diagonal in that parity; the off-diagonal blocks are checked to be zero.
    Their matrix elements are real, and the diagonal similarity
    |m><n| -> i^floor((m - n) / 2) |m><n| makes each sector real: the
    Hamiltonian moves m - n by 2 and so picks up the missing factor i, the
    dissipators keep m - n. Each sector is then one real eigensolve of side d^2/2.
    """
    key = (lio.shape, lio.indptr.tobytes(), lio.indices.tobytes(), lio.data.tobytes())
    if key not in _DENSE_COUNTS:
        m, n = np.arange(d * d) % d, np.arange(d * d) // d
        even, odd = np.flatnonzero((m - n) % 2 == 0), np.flatnonzero((m - n) % 2 == 1)
        assert lio[even][:, odd].count_nonzero() == lio[odd][:, even].count_nonzero() == 0
        scale = spla.norm(lio, np.inf)
        count = 0
        for idx in (even, odd):
            phase = np.array([1, 1j, -1, -1j])[((m[idx] - n[idx]) // 2) % 4]
            block = phase[:, None] * lio[idx][:, idx].toarray() / phase
            assert not block.imag.any()
            count += _zero_modes(block.real, scale)
        _DENSE_COUNTS[key] = count
    return _DENSE_COUNTS[key]


def _trace_row_rho(lio, d: int) -> np.ndarray:
    """Plain trace-row solve with one step of iterative refinement."""
    a, b = _trace_row_system(lio, d)
    lu = spla.splu(a)
    x = lu.solve(b)
    x += lu.solve(b - a @ x)
    rho = x.reshape((d, d), order="F")
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


def _row_replaced_solve(lio, row: np.ndarray) -> np.ndarray:
    """Solve L x = 0 with row 0 replaced by the normalization row (x . row = 1)."""
    coo = lio.tocoo()
    keep = coo.row != 0
    nz = np.nonzero(row)[0]
    rows = np.concatenate([coo.row[keep], np.zeros(len(nz), dtype=coo.row.dtype)])
    cols = np.concatenate([coo.col[keep], nz])
    data = np.concatenate([coo.data[keep], row[nz]])
    a = sp.csc_matrix((data, (rows, cols)), shape=lio.shape)
    b = np.zeros(lio.shape[0], dtype=complex)
    b[0] = 1.0
    # minimum degree on A^T + A puts the dense row last; COLAMD orders by
    # A^T A, which that row makes full
    lu = spla.splu(a, permc_spec="MMD_AT_PLUS_A")
    x = lu.solve(b)
    x += lu.solve(b - a @ x)
    return x


def _probe_verdict(model, tol: float = 1e-10) -> tuple[tuple[str, int], np.ndarray]:
    """The random-row uniqueness probe: a second normalization row must select
    the same state as the trace row, else the kernel is degenerate. Returns the
    verdict with the kernel dimension, and the trace-row state."""
    d = model.dim
    lio = liouvillian_matrix(model)
    rho = _trace_row_rho(lio, d)
    rng = np.random.default_rng(7)
    w = rng.normal(size=lio.shape[0]) + 1j * rng.normal(size=lio.shape[0])
    w /= np.linalg.norm(w)
    try:
        x2 = _row_replaced_solve(lio, w)
    except RuntimeError:
        return ("degenerate", _parity_kernel_count(lio, d)), rho
    rho2 = x2.reshape((d, d), order="F")
    tr2 = np.trace(rho2)
    if abs(tr2) < 1e-12 * np.abs(x2).max() * d:
        return ("degenerate", _parity_kernel_count(lio, d)), rho
    rho2 = 0.5 * (rho2 + rho2.conj().T)
    rho2 = rho2 / np.trace(rho2).real
    if np.abs(rho2 - rho).max() > max(1e-6, 1e3 * tol):
        return ("degenerate", _parity_kernel_count(lio, d)), rho
    return ("unique", 1), rho


def _grid(d: int):
    """(gamma_b, nbar, reduced model at truncation d) over the uniqueness grid."""
    for gamma_b in (0.0, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2, 1.0):
        for nbar in (0.0, 0.5):
            params = SystemParams(
                g=0.2, lambda_a=0.5, gamma_a=4.0, gamma_b=gamma_b, kappa_e=0.05, nbar=nbar
            )
            yield gamma_b, nbar, build_reduced_model(params, d)


@pytest.mark.parametrize("d", (8, 16))
def test_parity_sector_count_equals_whole_matrix_count(d):
    counts = []
    for gamma_b, nbar, model in _grid(d):
        lio = liouvillian_matrix(model)
        counts.append(_dense_kernel_count(lio))
        assert _parity_kernel_count(lio, d) == counts[-1], (gamma_b, nbar)
    assert max(counts) > 1 and counts[-1] == 1  # degenerate and unique cases


@pytest.mark.parametrize("d", (8, 16, 40))
def test_one_lu_agrees_with_the_random_row_probe(d, monkeypatch):
    """Same verdicts and kernel dimensions as the probe; rho is the trace-row solve.

    gamma_b runs from the degenerate manifold (0) through 1e-10 to 1. The grid
    leaves out gamma_b ~ 1e-14: there the probe's verdict is rounding noise, as
    its mismatch (9e-6 to 2e-5) sits within a factor 20 of its own 1e-6 cut.
    """
    splu_calls = []

    def counting_splu(*args, **kwargs):
        splu_calls.append(args[0].shape)
        return real_splu(*args, **kwargs)

    real_splu = spla.splu
    for gamma_b, nbar, model in _grid(d):
        expected, rho = _probe_verdict(model)
        splu_calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(spla, "splu", counting_splu)
            try:
                result = steady_state(model)
            except SteadyStateDegenerateError as exc:
                verdict = ("degenerate", exc.kernel_dim)
            else:
                verdict = ("unique", 1)  # a nonsingular solve means a 1-dim kernel
        assert verdict == expected, (gamma_b, nbar)
        if verdict[0] == "unique":
            assert len(splu_calls) == 1, (gamma_b, nbar)
            assert np.array_equal(result.rho.matrix, rho), (gamma_b, nbar)
    assert expected == ("unique", 1)  # the grid ends on a unique model


@pytest.mark.parametrize("d_a, d_b", ((3, 8), (4, 10)))
@pytest.mark.parametrize("nbar", (0.0, 0.5))
def test_full_model_lossless_signal_is_degenerate(d_a, d_b, nbar):
    # b-parity is a strong symmetry at gamma_b = 0: one steady state per sector
    params = SystemParams(g=0.3, lambda_a=0.4, gamma_a=1.0, gamma_b=0.0, nbar=nbar)
    with pytest.raises(SteadyStateDegenerateError) as err:
        steady_state(build_full_model(params, d_a, d_b))
    assert err.value.kernel_dim == 2


def test_zero_liouvillian_is_degenerate():
    # d = 2 truncates b^2 to zero, and gamma_b = 0 leaves no other channel
    params = SystemParams(g=0.1, lambda_a=1.0, gamma_a=10.0, gamma_b=0.0)
    model = build_reduced_model(params, 2)
    assert liouvillian_matrix(model).count_nonzero() == 0
    with pytest.raises(SteadyStateDegenerateError) as err:
        steady_state(model)
    assert err.value.kernel_dim == 4


@pytest.mark.parametrize(
    "model, blocks, kernel_dim",
    [
        (build_reduced_model(SystemParams(g=0.2, lambda_a=0.5, gamma_a=4.0, gamma_b=0.0, kappa_e=0.05), 12), 4, 4),
        (build_reduced_model(SystemParams(g=0.2, lambda_a=0.5, gamma_a=4.0, gamma_b=0.5, kappa_e=0.05), 12), 2, 1),
        (build_full_model(SystemParams(g=0.3, lambda_a=0.4, gamma_a=1.0, gamma_b=0.0), 3, 8), 4, 2),
    ],
    ids=["reduced-gb0", "reduced-gb0.5", "full-3x8-gb0"],
)
def test_kernel_dimension_by_blocks_equals_dense_count(model, blocks, kernel_dim):
    lio = liouvillian_matrix(model)
    assert connected_components(abs(lio), connection="weak")[0] == blocks
    assert _kernel_dimension(lio) == _dense_kernel_count(lio) == kernel_dim


UNIQUE = SystemParams(g=0.2, lambda_a=0.5, gamma_a=4.0, gamma_b=0.5, kappa_e=0.05)


def test_singular_solve_raises_whatever_the_kernel_count(monkeypatch):
    # a singular trace-row system has no fallback, even when the count finds
    # a single zero mode
    monkeypatch.setattr(dynamics, "_condition_number", lambda a, lu: np.inf)
    monkeypatch.setattr(dynamics, "_kernel_dimension", lambda lio: 1)
    with pytest.raises(SteadyStateDegenerateError) as err:
        steady_state(build_reduced_model(UNIQUE, 8))
    assert err.value.kernel_dim == 1


def test_residual_above_tol_raises(monkeypatch):
    clean = dynamics._clean_density

    def perturbed(x, d):
        rho = clean(x, d)
        rho[0, 0] += 1e-6
        rho[1, 1] -= 1e-6
        return rho

    monkeypatch.setattr(dynamics, "_clean_density", perturbed)
    model = build_reduced_model(UNIQUE, 8)
    with pytest.raises(ResidualError):
        steady_state(model)
    # tol is the acceptance bound of the solve: a loose one accepts the same state
    result = steady_state(model, tol=1e-3)
    assert 1e-10 < result.residual <= 1e-3 * spla.norm(liouvillian_matrix(model), np.inf)
