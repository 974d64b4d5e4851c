"""Uniqueness of the Liouvillian steady state: one LU, its rcond, and kernel counts.

`steady_state` decides uniqueness from the condition estimate of the one
trace-row LU it builds on the real generator M: on the trace block
alone when the channel operators certify an irreducible semigroup, on the
whole generator otherwise; the whole-matrix path stays reachable by refusing
the certificate and is the reference of the trace-block path. The slow path
both replaced solved a second system whose row 0 is a random normalization
functional and compared the two states; that probe, and the complex vec(rho)
trace-row solve before the real one, are kept here as test-local references.
Kernel counts and spectral gaps come from real block spectra; the
whole-matrix complex eigensolve they replaced is the test-local reference for
both. The blocks come from a numpy partition of M's pattern, held to
scipy.sparse.csgraph.connected_components, and ||L||_inf to
scipy.sparse.linalg.norm.
"""

from functools import partial

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

from pdclab import dynamics
from pdclab.dynamics import (
    LindbladModel,
    SystemParams,
    _kernel_dimension,
    _real_generator,
    build_full_model,
    build_reduced_model,
    evolve_open,
    liouvillian_matrix,
    spectral_gap,
    steady_state,
)
from pdclab.errors import ResidualError, SteadyStateDegenerateError
from pdclab.hilbert import (
    FockSpace, Operator, annihilation, density_from_state, embed, expectation, fock_state,
    number_operator,
)
from test_real_generator import hermitian_basis

_DENSE_COUNTS: dict[tuple, int] = {}

UNIQUE = SystemParams(g=0.2, lambda_a=0.5, gamma_a=4.0, gamma_b=0.5, kappa_e=0.05)


def _zero_modes(block: np.ndarray, scale: float) -> int:
    ev = np.linalg.eigvals(block)
    return int(np.sum(np.abs(ev.real) <= 1e-10 * scale))


def _block_kernel_count(model) -> int | None:
    """_kernel_dimension on the real generator and norm that steady_state builds."""
    _, m, norm = _real_generator(model)
    return _kernel_dimension(m, norm)


def _as_scipy(m) -> sp.csr_matrix:
    """A CSR matrix, numpy arrays or scipy.sparse, as scipy.sparse."""
    return sp.csr_matrix((m.data, m.indices, m.indptr), shape=m.shape)


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


def _trace_row_rho(lio, d: int) -> tuple[np.ndarray, float]:
    """The complex trace-row solve: row 0 of L replaced by the trace functional
    on vec(rho), one step of iterative refinement. Returns rho and the
    one-column Hager-Higham estimate of cond1 of the row-replaced matrix."""
    coo = lio.tocoo()
    keep = coo.row != 0
    rows = np.concatenate([coo.row[keep], np.zeros(d, dtype=coo.row.dtype)])
    cols = np.concatenate([coo.col[keep], np.arange(d) * (d + 1)])
    data = np.concatenate([coo.data[keep], np.ones(d, dtype=complex)])
    a = sp.csc_matrix((data, (rows, cols)), shape=lio.shape)
    b = np.zeros(lio.shape[0], dtype=complex)
    b[0] = 1.0
    lu = spla.splu(a)
    x = lu.solve(b)
    x += lu.solve(b - a @ x)
    inv = spla.LinearOperator(
        a.shape, matvec=lu.solve, rmatvec=lambda v: lu.solve(v, trans="H"), dtype=a.dtype
    )
    cond = spla.norm(a, 1) * spla.onenormest(inv, t=1)
    rho = x.reshape((d, d), order="F")
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real, cond


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


def _probe_verdict(model, tol: float = 1e-10) -> tuple[tuple[str, int], np.ndarray, float]:
    """The random-row uniqueness probe: a second normalization row must select
    the same state as the trace row, else the kernel is degenerate. Returns the
    verdict with the kernel dimension, and the complex trace-row state with its
    cond1 estimate."""
    d = model.dim
    lio = liouvillian_matrix(model)
    rho, cond = _trace_row_rho(lio, d)
    rng = np.random.default_rng(7)
    w = rng.normal(size=lio.shape[0]) + 1j * rng.normal(size=lio.shape[0])
    w /= np.linalg.norm(w)
    try:
        x2 = _row_replaced_solve(lio, w)
    except RuntimeError:
        return ("degenerate", _parity_kernel_count(lio, d)), rho, cond
    rho2 = x2.reshape((d, d), order="F")
    tr2 = np.trace(rho2)
    if abs(tr2) < 1e-12 * np.abs(x2).max() * d:
        return ("degenerate", _parity_kernel_count(lio, d)), rho, cond
    rho2 = 0.5 * (rho2 + rho2.conj().T)
    rho2 = rho2 / np.trace(rho2).real
    if np.abs(rho2 - rho).max() > max(1e-6, 1e3 * tol):
        return ("degenerate", _parity_kernel_count(lio, d)), rho, cond
    return ("unique", 1), rho, cond


def _grid(d: int):
    """(gamma_b, nbar, reduced model at truncation d) over the uniqueness grid."""
    for gamma_b in (0.0, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2, 1.0):
        for nbar in (0.0, 0.5):
            params = SystemParams(
                g=0.2, lambda_a=0.5, gamma_a=4.0, gamma_b=gamma_b, kappa_e=0.05, nbar=nbar
            )
            yield gamma_b, nbar, build_reduced_model(params, d)


def _full_grid(d_a: int, d_b: int):
    """The full model at gamma_b = 0.5, in _grid's form."""
    params = SystemParams(g=0.3, lambda_a=0.4, gamma_a=1.0, gamma_b=0.5)
    yield 0.5, 0.0, build_full_model(params, d_a, d_b)


def _near_decoupled_grid():
    """A reduced model at gamma_b = 1e-6 with kappa_e = 0, in _grid's form:
    the parity sectors are coupled by gamma_b alone."""
    params = SystemParams(g=0.2, lambda_a=0.5, gamma_a=4.0, gamma_b=1e-6, nbar=0.5)
    yield 1e-6, 0.5, build_reduced_model(params, 48)


def _trace_block_side(model) -> int:
    """Side of the weakly connected component of the real generator that
    holds coordinate 0, the diagonal rho[0, 0]."""
    _, m, _ = _real_generator(model)
    labels = connected_components(_as_scipy(m), connection="weak")[1]
    return int(np.count_nonzero(labels == labels[0]))


def _certified(model) -> bool:
    return dynamics._cyclic_dimension(model) == model.dim


@pytest.mark.parametrize("d", (8, 16))
def test_parity_sector_count_equals_whole_matrix_count(d):
    counts = []
    for gamma_b, nbar, model in _grid(d):
        lio = liouvillian_matrix(model)
        counts.append(_dense_kernel_count(lio))
        assert _parity_kernel_count(lio, d) == counts[-1], (gamma_b, nbar)
    assert max(counts) > 1 and counts[-1] == 1  # degenerate and unique cases


@pytest.mark.parametrize(
    "grid",
    [pytest.param(partial(_grid, d), id=str(d)) for d in (8, 16, 40)]
    + [pytest.param(partial(_full_grid, *dims), id=f"full-{dims[0]}x{dims[1]}")
       for dims in ((3, 8), (4, 10), (4, 12))],
)
def test_one_lu_agrees_with_the_random_row_probe(grid, monkeypatch):
    """Same verdicts and kernel dimensions as the probe; rho agrees with the
    complex trace-row solve to within that solve's own cond1 * eps. A unique
    steady state costs one LU: of the trace block's side when the channels
    certify the model, of the whole generator's side otherwise. The cap of
    the dense route is 0 here, so every system takes the sparse LU that this
    test observes; test_dense_route_matches_the_sparse_route holds the dense
    route to it.

    gamma_b runs from the degenerate manifold (0) through 1e-10 to 1. The grid
    leaves out gamma_b ~ 1e-14: there the probe's verdict is rounding noise, as
    its mismatch (9e-6 to 2e-5) sits within a factor 20 of its own 1e-6 cut.
    The rcond verdict is noise there too: at gamma_b = 1e-14, nbar = 0.5 and
    d = 16 the certified trace block passes cond1 * eps < 1 and the model
    counts as unique, while the whole-matrix LU fails it and counts the model
    as degenerate.
    """
    splu_calls = []

    def counting_splu(*args, **kwargs):
        splu_calls.append(args[0].shape)
        return real_splu(*args, **kwargs)

    real_splu = spla.splu
    for gamma_b, nbar, model in grid():
        expected, rho, cond = _probe_verdict(model)
        splu_calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(spla, "splu", counting_splu)
            patch.setattr(dynamics, "_DENSE_SOLVE_MAX_SIDE", 0)
            try:
                result = steady_state(model)
            except SteadyStateDegenerateError as exc:
                verdict = ("degenerate", exc.kernel_dim)
            else:
                verdict = ("unique", 1)  # a nonsingular solve means a 1-dim kernel
        assert verdict == expected, (gamma_b, nbar)
        if verdict[0] == "unique":
            side = _trace_block_side(model) if _certified(model) else model.dim**2
            assert splu_calls == [(side, side)], (gamma_b, nbar)
            dev = np.abs(result.rho.matrix - rho).max()
            assert dev <= cond * np.finfo(float).eps, (gamma_b, nbar, dev, cond)
    assert expected == ("unique", 1)  # the grid ends on a unique model


@pytest.mark.parametrize(
    "grid",
    [pytest.param(partial(_grid, d), id=str(d)) for d in (8, 16, 40)]
    + [pytest.param(partial(_full_grid, *dims), id=f"full-{dims[0]}x{dims[1]}")
       for dims in ((3, 8), (4, 10), (4, 12))]
    + [pytest.param(_near_decoupled_grid, id="reduced-gb1e-6")],
)
def test_trace_block_path_matches_the_whole_matrix_path(grid, monkeypatch):
    """Each certified model gives the same verdict, kernel_dim and, within
    1e-12, rho on the trace block as on the whole generator, the path that a
    refused certificate takes. Uncertified models take that path already.
    Both paths run through the sparse LU (the dense route's cap is 0): at the
    default cap a dense trace block differs from the whole M by conditioning,
    1.1e-10 and 1.6e-9 at gamma_b = 1e-10 for d = 8 and 16, and
    test_dense_route_matches_the_sparse_route bounds each route's share of
    that by cond1 * eps."""

    def solve(model):
        try:
            return ("unique", 1), steady_state(model).rho.matrix
        except SteadyStateDegenerateError as exc:
            return ("degenerate", exc.kernel_dim), None

    monkeypatch.setattr(dynamics, "_DENSE_SOLVE_MAX_SIDE", 0)
    certified = 0
    for gamma_b, nbar, model in grid():
        if not _certified(model):
            continue
        certified += 1
        verdict, rho = solve(model)
        with monkeypatch.context() as patch:
            patch.setattr(dynamics, "_cyclic_dimension", lambda model: 0)
            whole_verdict, whole_rho = solve(model)
        assert verdict == whole_verdict, (gamma_b, nbar)
        if rho is not None:
            assert np.abs(rho - whole_rho).max() <= 1e-12, (gamma_b, nbar)
    assert certified


def _trace_row_matrix(model) -> np.ndarray:
    """The dense trace-row matrix A that steady_state solves: on the trace
    block when the channels certify the model, on the whole generator
    otherwise."""
    d = model.dim
    _, m, _ = _real_generator(model)
    block = dynamics._trace_block(m, d) if _certified(model) else None
    a = (m if block is None else m.block(block)).toarray()
    a[0] = 0.0
    a[0, :d] = 1.0
    return a


@pytest.mark.parametrize(
    "grid",
    [pytest.param(partial(_grid, d), id=str(d)) for d in (8, 16)]
    + [pytest.param(partial(_full_grid, 3, 8), id="full-3x8")],
)
def test_dense_route_matches_the_sparse_route(grid, monkeypatch):
    """The dense trace-row solve against the sparse LU that it replaces up to
    _DENSE_SOLVE_MAX_SIDE, each system forced onto one route and then the
    other by the cap: the same verdict and kernel_dim, and rho within
    cond1 * eps, cond1 the exact 1-norm condition number of the solved
    system. The grids run from gamma_b = 0 through 1e-10 to 1, cold and
    thermal."""

    def solve(model, cap):
        with monkeypatch.context() as patch:
            patch.setattr(dynamics, "_DENSE_SOLVE_MAX_SIDE", cap)
            try:
                return ("unique", 1), steady_state(model).rho.matrix
            except SteadyStateDegenerateError as exc:
                return ("degenerate", exc.kernel_dim), None

    verdicts = set()
    for gamma_b, nbar, model in grid():
        verdict, rho = solve(model, model.dim**2)
        sparse_verdict, sparse_rho = solve(model, 0)
        assert verdict == sparse_verdict, (gamma_b, nbar)
        verdicts.add(verdict[0])
        if rho is not None:
            a = _trace_row_matrix(model)
            cond = np.linalg.norm(a, 1) * np.linalg.norm(np.linalg.inv(a), 1)
            dev = np.abs(rho - sparse_rho).max()
            assert dev <= cond * np.finfo(float).eps, (gamma_b, nbar, dev, cond)
    assert "unique" in verdicts


@pytest.mark.parametrize(
    "model",
    [
        build_reduced_model(UNIQUE, 16),
        build_reduced_model(SystemParams(g=0.2, lambda_a=0.5, gamma_a=4.0, gamma_b=0.5, kappa_e=0.05, nbar=0.5), 16),
        build_reduced_model(SystemParams(g=0.2, lambda_a=0.5, gamma_a=4.0, gamma_b=1e-6, kappa_e=0.05), 16),
        build_full_model(SystemParams(g=0.3, lambda_a=0.4, gamma_a=1.0, gamma_b=0.5), 4, 12),
    ],
    ids=["reduced-cold", "reduced-thermal", "reduced-gb1e-6", "full-4x12"],
)
def test_channels_certify_irreducible_models(model):
    assert dynamics._cyclic_dimension(model) == model.dim


def _dephasing_model(d: int) -> LindbladModel:
    # n_b is diagonal, so no channel is strictly triangular; every Fock
    # population is conserved and L has d zero modes
    n = number_operator(FockSpace(d))
    return LindbladModel(n, [(0.3, n)])


def test_certificate_refusals_take_the_whole_matrix_path(monkeypatch):
    """Where the certificate stops: the kernel of b^2 alone is two-dimensional
    at gamma_b = 0; at g = 0 the pump's coherent state times the signal vacuum
    is unique but not full rank, and the cyclic subspace of the vacuum is the
    pump's 4 levels of 48; a lone dephasing channel is not triangular. Each
    model is answered by one LU of the whole generator, the sparse one with
    the dense route's cap at 0."""
    splu_sides = []

    def counting_splu(a, *args, **kwargs):
        splu_sides.append(a.shape[0])
        return real_splu(a, *args, **kwargs)

    real_splu = spla.splu
    monkeypatch.setattr(spla, "splu", counting_splu)
    monkeypatch.setattr(dynamics, "_DENSE_SOLVE_MAX_SIDE", 0)
    lossless = build_reduced_model(
        SystemParams(g=0.2, lambda_a=0.5, gamma_a=4.0, gamma_b=0.0, kappa_e=0.05), 16
    )
    uncoupled = build_full_model(SystemParams(g=0.0, lambda_a=0.4, gamma_a=1.0, gamma_b=0.5), 4, 12)
    dephasing = _dephasing_model(6)
    assert [dynamics._cyclic_dimension(m) for m in (lossless, uncoupled, dephasing)] == [0, 4, 0]

    for model, kernel_dim in ((lossless, 4), (dephasing, 6)):
        splu_sides.clear()
        side = model.dim**2
        with pytest.raises(SteadyStateDegenerateError,
                           match=rf"the whole trace-row system \(side {side}\) is singular") as err:
            steady_state(model)
        assert err.value.kernel_dim == kernel_dim
        assert splu_sides == [side]

    splu_sides.clear()
    rho = steady_state(uncoupled).rho
    assert splu_sides == [48 * 48]
    # the signal stays in its vacuum; the pump sits near the coherent state
    # alpha = lambda_a / gamma_a = 0.4, up to the truncation at 4 levels
    spaces = rho.space.factors
    a = embed(annihilation(spaces[0]), 0, spaces)
    n_b = embed(number_operator(spaces[1]), 1, spaces)
    assert abs(expectation(n_b, rho)) < 1e-14
    assert expectation(a, rho) == pytest.approx(0.4, abs=1e-3)


@pytest.mark.parametrize(
    "nbar, d_a, d_b",
    [(0.0, 3, 8), (0.0, 4, 10), (0.5, 3, 8), (0.5, 4, 10), (0.0, 4, 12)],
)
def test_full_model_lossless_signal_is_degenerate(nbar, d_a, d_b):
    # b-parity is a strong symmetry at gamma_b = 0: one steady state per sector.
    # At 4x12 L has side 2304, above the dense cap; its largest real block is 576.
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
        (build_reduced_model(SystemParams(g=0.2, lambda_a=0.5, gamma_a=4.0, gamma_b=0.0, kappa_e=0.05), 12), (4, 6), 4),
        (build_reduced_model(SystemParams(g=0.2, lambda_a=0.5, gamma_a=4.0, gamma_b=0.5, kappa_e=0.05), 12), (2, 4), 1),
        (build_full_model(SystemParams(g=0.3, lambda_a=0.4, gamma_a=1.0, gamma_b=0.0), 3, 8), (4, 6), 2),
    ],
    ids=["reduced-gb0", "reduced-gb0.5", "full-3x8-gb0"],
)
def test_kernel_dimension_by_blocks_equals_dense_count(model, blocks, kernel_dim):
    # blocks: (components of L, components of the real T^H L T), which splits
    # finer: at gamma_b > 0 the phased basis splits the odd coherences in two
    lio = liouvillian_matrix(model)
    t = hermitian_basis(model.space)
    real = (t.conj().T @ lio @ t).real
    real.eliminate_zeros()
    assert connected_components(abs(lio), connection="weak")[0] == blocks[0]
    assert connected_components(real, connection="weak")[0] == blocks[1]
    assert _block_kernel_count(model) == _dense_kernel_count(lio) == kernel_dim


def _csgraph_blocks(m) -> list[np.ndarray]:
    """The partition _blocks replaced: scipy's weakly connected components,
    each an ascending index set, in label order."""
    _, labels = connected_components(_as_scipy(m), connection="weak")
    sizes = np.bincount(labels)
    return np.split(np.argsort(labels, kind="stable"), np.cumsum(sizes)[:-1])


def _assert_same_partition(m):
    got, ref = dynamics._blocks(m), _csgraph_blocks(m)
    assert len(got) == len(ref)
    for mine, theirs in zip(got, ref):
        assert np.array_equal(mine, theirs)


@pytest.mark.parametrize(
    "model",
    [
        build_reduced_model(UNIQUE, 12),
        build_reduced_model(SystemParams(g=0.2, lambda_a=0.5, gamma_a=4.0, gamma_b=0.5, nbar=0.5), 12),
        build_reduced_model(SystemParams(g=0.2, lambda_a=0.5, gamma_a=4.0, gamma_b=0.0, kappa_e=0.05), 12),
        build_full_model(SystemParams(g=0.3, lambda_a=0.4, gamma_a=1.0, gamma_b=0.5), 3, 8),
        build_full_model(SystemParams(g=0.3, lambda_a=0.4, gamma_a=1.0, gamma_b=0.5, nbar=0.5), 3, 6),
        build_full_model(SystemParams(g=0.0, lambda_a=0.4, gamma_a=1.0, gamma_b=0.5), 3, 6),
    ],
    ids=["reduced-cold", "reduced-thermal", "reduced-gb0", "full-cold", "full-thermal", "full-g0"],
)
def test_blocks_and_norm_match_the_scipy_routes(model):
    # _blocks against connected_components, ||L||_inf against spla.norm, bit for bit
    _, m, norm = _real_generator(model)
    _assert_same_partition(m)
    assert norm == spla.norm(liouvillian_matrix(model), np.inf)


@pytest.mark.parametrize("seed", range(6))
def test_blocks_match_connected_components_on_random_patterns(seed):
    # sparse non-symmetric patterns with isolated coordinates, one of them 0
    rng = np.random.default_rng(seed)
    n = 300
    a = sp.random(n, n, density=rng.uniform(0.002, 0.01), random_state=rng, format="lil")
    isolated = rng.choice(n, size=20, replace=False)
    a[isolated, :] = 0
    a[:, isolated] = 0
    a[0, :] = a[:, 0] = 0
    a = a.tocsr()
    a.eliminate_zeros()
    blocks = dynamics._blocks(a)
    assert 20 < len(blocks) < n
    _assert_same_partition(a)


def test_blocks_of_a_zero_matrix_are_single_coordinates():
    zero = sp.csr_matrix((7, 7))
    _assert_same_partition(zero)
    assert [b.tolist() for b in dynamics._blocks(zero)] == [[k] for k in range(7)]


def test_zero_liouvillian_has_no_spectral_gap():
    # no channel and H = 0: every eigenvalue is a zero mode
    model = LindbladModel(Operator(np.zeros((3, 3)), FockSpace(3)), [])
    with pytest.raises(ValueError, match="no decaying modes"):
        spectral_gap(model)


def _dense_spectrum(lio) -> tuple[float, int]:
    """(gap, zero-mode count) from one complex eigensolve of the whole dense L."""
    ev = np.linalg.eigvals(lio.toarray())
    eps = 1e-10 * spla.norm(lio, np.inf)
    return float(-ev.real[ev.real < -eps].max()), int(np.sum(np.abs(ev.real) <= eps))


def _spectral_grid():
    for d in (6, 12, 20):
        for gamma_b in (0.0, 1e-6, 0.5):
            for nbar in (0.0, 0.5):
                for kappa_e in (0.0, 0.05):
                    params = SystemParams(g=0.2, lambda_a=0.5, gamma_a=4.0,
                                          gamma_b=gamma_b, kappa_e=kappa_e, nbar=nbar)
                    yield f"reduced-{d}-{gamma_b}-{nbar}-{kappa_e}", build_reduced_model(params, d)
    for gamma_b in (0.0, 0.5):
        params = SystemParams(g=0.3, lambda_a=0.4, gamma_a=1.0, gamma_b=gamma_b)
        yield f"full-3x8-{gamma_b}", build_full_model(params, 3, 8)


def test_block_spectra_match_the_whole_matrix_eigensolve():
    """spectral_gap to rel 1e-10 and _kernel_dimension exactly, against the
    dense route, over the degenerate gamma_b = 0 manifold and its neighbours.

    Both routes are backward stable, so on gaps of 1e-8 to 1e-6 (gamma_b = 1e-6,
    or gamma_b = kappa_e = 0) they agree only to a few eps ||L||_inf (measured
    at most 4); the absolute floor 100 eps ||L||_inf sits six decades below the
    zero-mode cut.
    """
    counts = set()
    for label, model in _spectral_grid():
        lio = liouvillian_matrix(model)
        gap, kernel_dim = _dense_spectrum(lio)
        floor = 100 * np.finfo(float).eps * spla.norm(lio, np.inf)
        assert spectral_gap(model) == pytest.approx(gap, rel=1e-10, abs=floor), label
        assert _block_kernel_count(model) == kernel_dim, label
        counts.add(kernel_dim)
    assert counts == {1, 2, 4}  # unique and degenerate kernels are both met


@pytest.mark.parametrize(
    "model",
    [
        build_reduced_model(SystemParams(g=0.2, lambda_a=0.5, gamma_a=4.0, gamma_b=0.5, kappa_e=0.05, nbar=0.5), 12),
        build_reduced_model(SystemParams(g=0.2, lambda_a=0.5, gamma_a=4.0, gamma_b=0.0), 9),
        build_full_model(SystemParams(g=0.3, lambda_a=0.4, gamma_a=1.0, gamma_b=0.5, nbar=0.5), 3, 6),
    ],
    ids=["reduced-thermal", "reduced-gb0", "full-3x6-thermal"],
)
def test_hermitian_basis_is_unitary_and_makes_the_liouvillian_real(model):
    lio = liouvillian_matrix(model)
    t = hermitian_basis(model.space)
    assert np.diff(t.indptr).max() == 2  # two entries per off-diagonal column
    assert np.abs((t.conj().T @ t).toarray() - np.eye(lio.shape[0])).max() < 1e-15
    m = (t.conj().T @ lio @ t).toarray()
    scale = spla.norm(lio, np.inf)
    assert np.abs(m.imag).max() <= 1e-12 * scale
    # the real part alone carries L
    back = (t @ sp.csr_matrix(m.real) @ t.conj().T).toarray()
    assert np.abs(back - lio.toarray()).max() <= 1e-14 * scale


def test_block_spectra_reject_a_generator_that_breaks_hermiticity(monkeypatch):
    """M is read from the upper triangle of L, which takes L to preserve
    Hermiticity: w[(b, a), n, m] = conj(w[(a, b), m, n]) within 1e-12 ||L||_inf.

    A LindbladModel cannot break that: L rho = K rho + rho K^dag + the jumps
    preserves Hermiticity for any K, so an anti-Hermitian part of H at the
    _HERMITIAN_TOL edge enters as a damping and every solver accepts it (as
    did T^H L T, whose imaginary part stays exactly zero there). A breach of
    the assembly is caught by every solver: with rho -> i L rho patched into
    the shifted diagonals, spectral_gap, steady_state and evolve_open raise.
    """
    space = FockSpace(4)
    b = annihilation(space)
    a = np.random.default_rng(0).normal(size=(4, 4, 2)) @ [1.0, 1j]
    skew = 5e-11j * (a + a.conj().T) / np.abs(a + a.conj().T).max()
    h = Operator((b + b.dag()).matrix * 0.3 + skew, space)
    assert np.abs(h.matrix - h.matrix.conj().T).max() == pytest.approx(1e-10, rel=1e-12)
    model = LindbladModel(h, [(1e-3, b)])
    assert spectral_gap(model) == pytest.approx(1e-3, rel=1e-6)
    assert steady_state(model).residual < 1e-10

    shift_form = dynamics._shift_form
    monkeypatch.setattr(dynamics, "_shift_form",
                        lambda model: shift_form(model)._replace(w=1j * shift_form(model).w))
    vacuum = density_from_state(fock_state(0, space))
    for solve in (spectral_gap, steady_state, lambda model: evolve_open(model, vacuum, 1.0)):
        with pytest.raises(ResidualError, match="not real in the Hermitian basis"):
            solve(model)


def test_dense_cap_bounds_the_largest_real_block(monkeypatch):
    # at gamma_b > 0 the reduced model at d = 89 has real blocks up to 2025,
    # within the cap of 2048; d = 90 has one of 2070
    params = SystemParams(g=0.2, lambda_a=0.5, gamma_a=4.0, gamma_b=0.5)
    model = build_reduced_model(params, 90)
    assert _block_kernel_count(model) is None
    with pytest.raises(ValueError, match="block longer than 2048"):
        spectral_gap(model)
    # d = 89 still counts; its four dense eigensolves take about 14 s, so a
    # stand-in that records the sides and returns zeros replaces them
    sides = []

    def recorded(a):
        sides.append(a.shape[0])
        return np.zeros(a.shape[0])

    model = build_reduced_model(params, 89)
    monkeypatch.setattr(np.linalg, "eigvals", recorded)
    assert _block_kernel_count(model) == 89 * 89
    assert sorted(sides) == [1936, 1980, 1980, 2025]


def test_singular_solve_raises_whatever_the_kernel_count(monkeypatch):
    # a singular trace-row system has no fallback, even when the count finds
    # a single zero mode; the message names the system that was singular.
    # The sparse LU's condition estimate is patched, so the dense route's cap
    # is 0
    monkeypatch.setattr(dynamics, "_DENSE_SOLVE_MAX_SIDE", 0)
    monkeypatch.setattr("scipy.sparse.linalg.onenormest", lambda *args, **kwargs: np.inf)
    monkeypatch.setattr(dynamics, "_kernel_dimension", lambda m, norm: 1)
    model = build_reduced_model(UNIQUE, 8)
    side = _trace_block_side(model)
    assert side < 64
    with pytest.raises(SteadyStateDegenerateError,
                       match=rf"trace-row system of the trace block \(side {side}\) is singular") as err:
        steady_state(model)
    assert err.value.kernel_dim == 1
    monkeypatch.setattr(dynamics, "_cyclic_dimension", lambda model: 0)
    with pytest.raises(SteadyStateDegenerateError,
                       match=r"the whole trace-row system \(side 64\) is singular") as err:
        steady_state(model)
    assert err.value.kernel_dim == 1


def test_one_real_generator_and_one_norm_per_solver_call(monkeypatch):
    # the degenerate branch counts zero modes on the generator and ||L||_inf
    # the solve already built; spectral_gap builds each once as well, and no
    # solver forms the complex Liouvillian matrix
    params = SystemParams(g=0.2, lambda_a=0.5, gamma_a=4.0, gamma_b=0.0, kappa_e=0.05)
    degenerate = build_reduced_model(params, 8)
    kernel_dim = _dense_kernel_count(liouvillian_matrix(degenerate))
    built, norms, counted = [], [], []
    real_generator, real_kernel_dimension = dynamics._real_generator, dynamics._kernel_dimension

    def recording_generator(model):
        built.append(real_generator(model))
        return built[-1]

    def recording_norm(shift_form):
        norms.append(real_norm(shift_form))
        return norms[-1]

    def recording_kernel_dimension(m, norm):
        counted.append((m, norm))
        return real_kernel_dimension(m, norm)

    def refused(model):
        raise AssertionError("a solver built the complex Liouvillian")

    real_norm = dynamics._ShiftForm.inf_norm
    monkeypatch.setattr(dynamics, "_real_generator", recording_generator)
    monkeypatch.setattr(dynamics._ShiftForm, "inf_norm", recording_norm)
    monkeypatch.setattr(dynamics, "_kernel_dimension", recording_kernel_dimension)
    monkeypatch.setattr(dynamics, "liouvillian_matrix", refused)
    with pytest.raises(SteadyStateDegenerateError) as err:
        steady_state(degenerate)
    assert err.value.kernel_dim == kernel_dim == 2
    assert len(built) == len(norms) == len(counted) == 1
    (_, m, norm), = built
    (counted_m, counted_norm), = counted
    assert counted_m is m and counted_norm == norm and norms == [norm]
    spectral_gap(build_reduced_model(UNIQUE, 8))
    assert len(built) == len(norms) == 2


@pytest.mark.filterwarnings("error")
def test_condition_estimate_of_a_large_model_warns_nothing():
    # the estimator's iterate here holds entries so small that a complex sign
    # step Y / |Y| overflows; the real estimate must stay silent
    params = SystemParams(g=0.1, lambda_a=0.5, gamma_a=10.0, gamma_b=0.01, kappa_e=0.01)
    steady_state(build_reduced_model(params, 160))


def test_residual_above_tol_raises(monkeypatch):
    clean = dynamics._clean_density

    def perturbed(x, space):
        rho = clean(x, space)
        rho[0, 0] += 1e-6
        rho[1, 1] -= 1e-6
        return rho

    monkeypatch.setattr(dynamics, "_clean_density", perturbed)
    model = build_reduced_model(UNIQUE, 8)
    with pytest.raises(ResidualError):
        steady_state(model)
    # _RESIDUAL_TOL is the acceptance bound of the solve: a loose one accepts
    # the same state
    monkeypatch.setattr(dynamics, "_RESIDUAL_TOL", 1e-3)
    result = steady_state(model)
    assert 1e-10 < result.residual <= 1e-3 * spla.norm(liouvillian_matrix(model), np.inf)
