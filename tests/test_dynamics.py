"""Lindblad generators, integration, steady states, spectral gaps."""

import math
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from pdclab import dynamics
from pdclab.analytic import moment_gb0
from pdclab.dynamics import (
    LindbladModel,
    SteadyStateResult,
    SystemParams,
    auto_truncated_steady,
    build_full_model,
    build_reduced_model,
    evolve_closed,
    evolve_open,
    liouvillian_matrix,
    spectral_gap,
    spectral_gap_converged,
    steady_state,
    three_level_evolve,
    three_level_occupation,
    three_level_steady,
)
from pdclab.errors import (
    IntegratorError,
    SteadyStateDegenerateError,
    TruncationError,
)
from pdclab.hilbert import (
    DensityMatrix,
    FockSpace,
    Operator,
    StateVector,
    annihilation,
    coherent_state,
    density_from_state,
    embed,
    expectation,
    fock_state,
    number_operator,
    tensor_state,
    top_level_population,
)

WORK = SystemParams(g=0.4, lambda_a=0.9, gamma_a=6.0, gamma_b=0.5, kappa_e=0.1)


def decay_only_model(gamma: float, dim: int):
    """No Hamiltonian, one loss channel: analytically solvable reference."""
    from pdclab.dynamics import LindbladModel
    from pdclab.hilbert import identity_operator

    space = FockSpace(dim)
    h = 0.0 * identity_operator(space)
    return LindbladModel(h, [(gamma, annihilation(space))])


def test_system_params_validation():
    with pytest.raises(ValueError):
        SystemParams(g=0.1, lambda_a=1.0, gamma_a=-1.0, gamma_b=1.0)
    with pytest.raises(ValueError):
        SystemParams(g=0.1, lambda_a=1.0, gamma_a=1.0, gamma_b=1.0, kappa_e=-0.2)
    with pytest.raises(ValueError):
        SystemParams(g=0.1, lambda_a=1.0, gamma_a=1.0, gamma_b=1.0, nbar=-0.5)
    p = SystemParams(g=0.3, lambda_a=1.0, gamma_a=4.0, gamma_b=0.0)
    assert p.kappa == pytest.approx(2 * 0.3**2 / 4.0)
    with pytest.raises(ValueError):
        _ = SystemParams(g=0.3, lambda_a=1.0, gamma_a=0.0, gamma_b=1.0).kappa


def _with_complex_channels(model):
    # a phase on each channel leaves the master equation as it is, but the
    # channels become complex, so the conj of the jump term is tested
    return LindbladModel(model.hamiltonian, [(rate, np.exp(0.7j) * c) for rate, c in model.channels])


@pytest.mark.parametrize(
    "model",
    (
        build_reduced_model(WORK, 8),
        _with_complex_channels(build_reduced_model(WORK, 8)),
        build_reduced_model(SystemParams(g=0.4, lambda_a=0.9, gamma_a=6.0, gamma_b=0.5, nbar=0.5), 8),
        build_reduced_model(SystemParams(g=0.4, lambda_a=0.9, gamma_a=6.0, gamma_b=0.0), 8),
        build_full_model(WORK, 3, 6),
        build_full_model(SystemParams(g=0.4, lambda_a=0.9, gamma_a=6.0, gamma_b=0.5, nbar=0.5), 3, 6),
    ),
    ids=(
        "reduced",
        "reduced-complex-channels",
        "reduced-thermal",
        "reduced-gamma_b=0",
        "full-3x6",
        "full-3x6-thermal",
    ),
)
def test_liouvillian_action_matches_master_equation(model):
    # the per-term master equation is the reference for the no-jump form of L;
    # at gamma_b = 0 the zero-rate channel must be skipped by L and K alike
    d = model.dim
    lio = liouvillian_matrix(model)
    rng = np.random.default_rng(3)
    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = x @ x.conj().T
    rho /= np.trace(rho)
    h = model.hamiltonian.matrix
    rhs = -1j * (h @ rho - rho @ h)
    for rate, c in model.channels:
        cm = c.matrix
        cdc = cm.conj().T @ cm
        rhs += rate * (2 * cm @ rho @ cm.conj().T - cdc @ rho - rho @ cdc)
    via_lio = (lio @ rho.flatten(order="F")).reshape((d, d), order="F")
    assert np.abs(via_lio - rhs).max() < 1e-12 * np.abs(rhs).max() + 1e-14


def _sparse_ladder(d):
    off = np.sqrt(np.arange(1, d, dtype=float)).astype(complex)
    return sp.diags(off, 1, shape=(d, d), format="csr")


def _sparse_model(params, dims):
    """The model's operators assembled in scipy.sparse, as a duck-typed model.

    liouvillian_matrix reads only .dim, .hamiltonian.matrix and each channel's
    .matrix, so these operators go through the same superoperator assembly.
    """
    def signal(b):
        if params.nbar > 0:
            return [(params.gamma_b * (params.nbar + 1.0), b),
                    (params.gamma_b * params.nbar, b.conj().T)]
        return [(params.gamma_b, b)]

    if len(dims) == 1:
        b = _sparse_ladder(dims[0])
        b2 = b @ b
        h = (params.g * params.lambda_a / params.gamma_a) * (b2 + b2.conj().T)
        channels = signal(b) + [(params.kappa + params.kappa_e, b2)]
    else:
        eye_a = sp.identity(dims[0], dtype=complex, format="csr")
        eye_b = sp.identity(dims[1], dtype=complex, format="csr")
        a = sp.kron(_sparse_ladder(dims[0]), eye_b, format="csr")
        b = sp.kron(eye_a, _sparse_ladder(dims[1]), format="csr")
        ad, bd = a.conj().T, b.conj().T
        h = params.g * (a @ bd @ bd + ad @ b @ b) + (1j * params.lambda_a) * (ad - a)
        channels = [(params.gamma_a, a)] + signal(b)
    return SimpleNamespace(
        dim=h.shape[0],
        hamiltonian=SimpleNamespace(matrix=h),
        channels=[(rate, SimpleNamespace(matrix=c)) for rate, c in channels],
    )


@pytest.mark.parametrize("nbar", (0.0, 0.5))
def test_liouvillian_is_bit_identical_to_sparse_operator_assembly(nbar):
    # dense operators on both sides of 64, the old sparse switch-over
    params = SystemParams(g=0.3, lambda_a=0.7, gamma_a=2.0, gamma_b=0.4, kappa_e=0.1, nbar=nbar)
    grid = [((d,), build_reduced_model(params, d)) for d in (8, 63, 64, 96, 160)]
    grid += [(dims, build_full_model(params, *dims)) for dims in ((4, 12), (6, 14), (8, 12))]
    for dims, model in grid:
        assert all(type(c.matrix) is np.ndarray for _, c in model.channels)
        assert type(model.hamiltonian.matrix) is np.ndarray
        lio = liouvillian_matrix(model)
        ref = liouvillian_matrix(_sparse_model(params, dims))
        assert lio.shape == ref.shape, dims
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(lio, name), getattr(ref, name)), (dims, name)


@pytest.mark.parametrize("dims", ((3, 6), (4, 12), (6, 14)))
@pytest.mark.parametrize(
    "params",
    (
        SystemParams(g=0.3, lambda_a=0.7, gamma_a=2.0, gamma_b=0.4, kappa_e=0.1),
        SystemParams(g=0.2, lambda_a=1.3, gamma_a=1.0, gamma_b=0.5, nbar=0.5),
        SystemParams(g=0.1234567, lambda_a=-0.987654, gamma_a=3.0, gamma_b=0.0),
    ),
    ids=("cold", "thermal", "gamma_b=0"),
)
def test_full_hamiltonian_equals_the_dense_product_form(params, dims):
    # g(a b^dag^2 + a^dag b^2) by dense products of the embedded operators;
    # (a b^dag) b^dag and a (b^dag b^dag) differ in the last bit from 4x12 on
    spaces = (FockSpace(dims[0]), FockSpace(dims[1]))
    a = embed(annihilation(spaces[0]), 0, spaces)
    b = embed(annihilation(spaces[1]), 1, spaces)
    ad, bd = a.dag(), b.dag()
    reference = params.g * (a @ bd @ bd + ad @ b @ b) + (1j * params.lambda_a) * (ad - a)
    assert np.array_equal(build_full_model(params, *dims).hamiltonian.matrix, reference.matrix)


def test_single_excitation_decays_at_twice_gamma():
    gamma, t = 0.7, 0.9
    model = decay_only_model(gamma, 4)
    rho0 = density_from_state(fock_state(1, FockSpace(4)))
    rho_t = evolve_open(model, rho0, t)
    assert rho_t.matrix[1, 1].real == pytest.approx(math.exp(-2 * gamma * t), rel=1e-8)
    assert rho_t.matrix[0, 0].real == pytest.approx(
        1 - math.exp(-2 * gamma * t), rel=1e-8
    )


def test_amplitude_decays_at_gamma():
    gamma, t = 0.5, 1.3
    space = FockSpace(24)
    model = decay_only_model(gamma, 24)
    alpha = 0.8 - 0.3j
    rho0 = density_from_state(coherent_state(alpha, space))
    rho_t = evolve_open(model, rho0, t)
    amp = expectation(annihilation(space), rho_t)
    assert amp == pytest.approx(alpha * math.exp(-gamma * t), abs=1e-8)


def test_pure_decay_spectral_gap_is_gamma():
    gamma = 0.37
    model = decay_only_model(gamma, 5)
    # slowest nonzero mode is the single-quantum coherence at rate gamma
    assert spectral_gap(model) == pytest.approx(gamma, rel=1e-10)


def test_steady_state_reduced_model_properties():
    model = build_reduced_model(WORK, 24)
    result = steady_state(model)
    assert [f.name for f in fields(SteadyStateResult)] == ["rho", "residual"]
    assert result.residual < 1e-10
    rho = result.rho
    assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-12)
    assert rho.min_eigenvalue() > -1e-12
    # stationarity under the generator itself
    lio = liouvillian_matrix(model)
    drift = np.abs(lio @ rho.matrix.flatten(order="F")).max()
    assert drift < 1e-10


def _vec_rho_evolution(model, rho0, t, rtol, atol) -> np.ndarray:
    """DOP853 on the complex vec(rho) form, the route evolve_open replaced."""
    lio = liouvillian_matrix(model)
    y0 = rho0.matrix.reshape(-1, order="F")
    sol = solve_ivp(lambda _t, y: lio @ y, (0.0, t), y0, method="DOP853", rtol=rtol, atol=atol)
    rho = sol.y[:, -1].reshape(rho0.matrix.shape, order="F")
    return rho / np.trace(rho).real


def _evolution_cases():
    # criterion 4: g - h, g, g + h from 0.8 of the steady amplitude, d = 34, t = 250
    for g in (0.1 - 1e-3, 0.1, 0.1 + 1e-3):
        p = SystemParams(g=g, lambda_a=12.0, gamma_a=10.0, gamma_b=0.0, kappa_e=0.018)
        seed = coherent_state(0.8 * moment_gb0(0, 1, p), FockSpace(34))
        yield f"criterion-4-g={g}", build_reduced_model(p, 34), density_from_state(seed), 250.0
    p = SystemParams(g=0.3, lambda_a=0.4, gamma_a=1.0, gamma_b=0.5, nbar=0.5)
    psi = tensor_state(fock_state(0, FockSpace(3)), fock_state(1, FockSpace(8)))
    yield "full-3x8-thermal", build_full_model(p, 3, 8), density_from_state(psi), 5.0


def test_evolve_open_matches_the_vec_rho_integration():
    # the reference's tolerances; the bound is ten times the larger
    rtol, atol = 1e-8, 1e-10
    for label, model, rho0, t in _evolution_cases():
        ref = _vec_rho_evolution(model, rho0, t, rtol, atol)
        rho = evolve_open(model, rho0, t).matrix
        assert np.array_equal(rho, rho.conj().T), label
        assert np.abs(rho - ref).max() <= 10 * max(rtol, atol), label


def _criterion4_case(g=0.1):
    p = SystemParams(g=g, lambda_a=12.0, gamma_a=10.0, gamma_b=0.0, kappa_e=0.018)
    seed = coherent_state(0.8 * moment_gb0(0, 1, p), FockSpace(34))
    return build_reduced_model(p, 34), density_from_state(seed), 250.0


def _full_4x8_case():
    # criterion 11's full-model integration
    p = SystemParams(g=0.2, lambda_a=0.01, gamma_a=10.0, gamma_b=1.0)
    vac = tensor_state(fock_state(0, FockSpace(4)), fock_state(0, FockSpace(8)))
    return build_full_model(p, 4, 8), density_from_state(vac), 2.0


def _route_cases():
    yield "criterion-4", *_criterion4_case()
    p = SystemParams(g=0.4, lambda_a=0.9, gamma_a=6.0, gamma_b=0.5, kappa_e=0.1, nbar=0.5)
    vac = density_from_state(fock_state(0, FockSpace(16)))
    yield "reduced-d16-thermal-t60", build_reduced_model(p, 16), vac, 60.0
    p = SystemParams(g=0.3, lambda_a=0.4, gamma_a=1.0, gamma_b=0.5, nbar=0.5)
    psi = tensor_state(fock_state(0, FockSpace(3)), fock_state(1, FockSpace(8)))
    yield "full-3x8-thermal", build_full_model(p, 3, 8), density_from_state(psi), 5.0
    yield "full-4x8-t2", *_full_4x8_case()


def test_evolve_open_block_exponential_matches_the_ode_route():
    rtol, atol = 1e-10, 1e-12
    for label, model, rho0, t in _route_cases():
        _, m, _ = dynamics._real_generator(model)
        x0 = dynamics._coordinates(rho0.matrix, model.space)
        via_expm = dynamics._evolve_blocks(m, dynamics._blocks(m), x0, t)
        via_ode = dynamics._evolve_ode(m, x0, t)
        assert np.abs(via_expm - via_ode).max() <= 10 * max(rtol, atol), label
        # the public route, whichever it takes, is as accurate
        rho = evolve_open(model, rho0, t).matrix
        via_expm_rho = dynamics._density(via_expm, model.space)
        assert np.abs(rho - via_expm_rho).max() <= 1e-10, label


def test_evolve_open_picks_the_route_by_cost(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return solve_ivp(*args, **kwargs)

    monkeypatch.setattr(dynamics, "solve_ivp", counted)
    evolve_open(*_criterion4_case())
    assert calls == []
    evolve_open(*_full_4x8_case())
    assert calls == [(0.0, 2.0)]


def test_evolve_open_rejects_a_non_finite_result(monkeypatch):
    def nan_everywhere(x, d):
        x[:] = np.nan

    def nan_off_the_diagonal(x, d):
        x[d] = np.nan  # sqrt(2) Re rho[0, 1]: the trace stays finite

    def trace_scaled(x, d):
        x *= 1 + 1e-6

    def negative_level(x, d):
        x[:] = 0.0
        x[:2] = 1.5, -0.5  # trace 1, eigenvalue -0.5

    corruptions = [(nan_everywhere, "non-finite"), (nan_off_the_diagonal, "non-finite"),
                   (trace_scaled, "trace drift"), (negative_level, "positivity violated")]
    # x0 as the route's result, corrupted; either route's result meets the guards
    for route, (model, rho0, t) in [("_evolve_blocks", _criterion4_case()),
                                    ("_evolve_ode", _full_4x8_case())]:
        for corrupt, message in corruptions:
            def corrupted(*args, corrupt=corrupt, d=model.dim):
                x = args[-2].copy()  # x0 of (m, x0, t) and of (m, blocks, x0, t)
                corrupt(x, d)
                return x

            monkeypatch.setattr(dynamics, route, corrupted)
            with pytest.raises(IntegratorError, match=message):
                evolve_open(model, rho0, t)
        monkeypatch.undo()  # the next case must meet its own route's corruption alone


@pytest.mark.parametrize("t", (math.nan, math.inf, -math.inf, -5.0))
def test_evolutions_reject_invalid_times(t):
    p = SystemParams(g=0.3, lambda_a=0.7, gamma_a=5.0, gamma_b=0.4, kappa_e=0.2)
    rho0 = density_from_state(fock_state(0, FockSpace(3)))
    with pytest.raises(ValueError, match="evolution time"):
        evolve_open(build_reduced_model(p, 3), rho0, t)
    with pytest.raises(ValueError, match="evolution time"):
        three_level_evolve(p, rho0, t)
    h = build_reduced_model(p, 3).hamiltonian
    if math.isfinite(t):  # closed evolution runs backward in time
        psi = evolve_closed(h, fock_state(0, FockSpace(3)), t)
        back = evolve_closed(h, psi, -t)
        assert np.abs(back.amplitudes - fock_state(0, FockSpace(3)).amplitudes).max() < 1e-8
    else:
        with pytest.raises(ValueError, match="evolution time"):
            evolve_closed(h, fock_state(0, FockSpace(3)), t)


def test_steady_state_agrees_with_long_time_evolution():
    model = build_reduced_model(WORK, 16)
    direct = steady_state(model).rho
    rho0 = density_from_state(fock_state(0, FockSpace(16)))
    evolved = evolve_open(model, rho0, 60.0)
    n_op = number_operator(FockSpace(16))
    assert expectation(n_op, evolved).real == pytest.approx(
        expectation(n_op, direct).real, rel=1e-6
    )


def test_two_photon_only_loss_is_degenerate():
    p = SystemParams(g=0.2, lambda_a=0.5, gamma_a=4.0, gamma_b=0.0, kappa_e=0.05)
    model = build_reduced_model(p, 12)
    with pytest.raises(SteadyStateDegenerateError) as err:
        steady_state(model)
    assert err.value.kernel_dim == 4


def test_full_model_approaches_reduced_as_pump_decay_grows():
    """Adiabatic elimination check: fix eps = g lambda/gamma_a and kappa.

    The effective signal parameters stay put while gamma_a grows. The reduced
    model keeps the paper's kappa = 2 g^2/gamma_a, twice the rate elimination
    gives (see the next test), so the deviation settles near 2.6% here rather
    than vanishing; the test pins that it stays bounded and does not grow.
    """
    eps, kappa, gamma_b = 0.05, 0.025, 1.0
    devs = []
    for gamma_a in (10.0, 40.0):
        g = math.sqrt(kappa * gamma_a / 2.0)
        lam = eps * gamma_a / g
        p = SystemParams(g=g, lambda_a=lam, gamma_a=gamma_a, gamma_b=gamma_b)
        nb_reduced = _steady_occupation(build_reduced_model(p, 14), 14)
        full = steady_state(build_full_model(p, 6, 14))
        nb_op = _signal_number(6, 14)
        nb_full = np.real(np.trace(nb_op @ full.rho.matrix))
        devs.append(abs(nb_full - nb_reduced) / nb_reduced)
    assert devs[0] < 0.25
    assert devs[1] < devs[0]


def test_adiabatic_elimination_gives_half_the_paper_two_photon_rate():
    """Eliminating the pump in this dissipator convention gives the b^2 rate
    g^2/gamma_a; build_reduced_model keeps the paper's kappa = 2 g^2/gamma_a.

    At fixed eps = g lambda/gamma_a and kappa, the two-mode N_b converges onto
    a reduced model with rate g^2/gamma_a as 1/gamma_a, while the shipped
    reduced model stays far off.
    """
    eps, kappa, gamma_b, d_a, d_b = 0.2, 1.0, 0.05, 4, 20
    b = annihilation(FockSpace(d_b))
    b2 = b @ b
    devs, shipped = [], []
    for gamma_a in (100.0, 400.0):
        g = math.sqrt(kappa * gamma_a / 2.0)
        p = SystemParams(g=g, lambda_a=eps * gamma_a / g, gamma_a=gamma_a, gamma_b=gamma_b)
        eliminated = LindbladModel(eps * (b2 + b2.dag()), [(gamma_b, b), (g * g / gamma_a, b2)])
        full = steady_state(build_full_model(p, d_a, d_b))
        nb_full = np.real(np.trace(_signal_number(d_a, d_b) @ full.rho.matrix))
        devs.append(abs(_steady_occupation(eliminated, d_b) / nb_full - 1.0))
        shipped.append(_steady_occupation(build_reduced_model(p, d_b), d_b) / nb_full - 1.0)
    assert devs[0] / devs[1] >= 3.5
    assert all(abs(dev) > 0.5 for dev in shipped)


@pytest.mark.parametrize("where", ("nan rate", "inf rate", "nan channel", "nan hamiltonian"))
def test_lindblad_model_rejects_non_finite_input(where):
    # no solver runs: each model must fail at construction
    reduced = build_reduced_model(WORK, 8)
    h, channels = reduced.hamiltonian, list(reduced.channels)
    b = annihilation(FockSpace(8))
    if where == "nan rate":
        channels.append((math.nan, b))
    elif where == "inf rate":
        channels.append((math.inf, b))
    elif where == "nan channel":
        bad = b.matrix.copy()
        bad[0, 1] = np.nan
        channels.append((0.3, Operator(bad, b.space)))
    else:
        bad = h.matrix.copy()
        bad[2, 0] = bad[0, 2] = np.nan
        h = Operator(bad, h.space)
    with pytest.raises(ValueError, match="finite"):
        LindbladModel(h, channels)


def _steady_occupation(model, dim):
    rho = steady_state(model).rho
    return expectation(number_operator(FockSpace(dim)), rho).real


def _signal_number(d_a, d_b):
    return np.kron(np.eye(d_a), np.diag(np.arange(d_b, dtype=float)))


def test_auto_truncated_steady_grows_until_tail_is_clean():
    p = SystemParams(g=0.3, lambda_a=4.0, gamma_a=6.0, gamma_b=0.5)
    result, dim = auto_truncated_steady(lambda d: build_reduced_model(p, d), start_dim=6)
    assert dim > 6
    assert top_level_population(result.rho) < 1e-8


def test_auto_truncated_steady_rejects_a_start_above_the_cap():
    p = SystemParams(g=0.3, lambda_a=4.0, gamma_a=6.0, gamma_b=0.5)
    with pytest.raises(ValueError, match="exceeds max_dim"):
        auto_truncated_steady(lambda d: build_reduced_model(p, d), start_dim=40, max_dim=24)


def test_auto_truncated_steady_raises_when_the_cap_leaves_the_top_populated():
    # the drive of the test above still fills the top levels at d = 8
    p = SystemParams(g=0.3, lambda_a=4.0, gamma_a=6.0, gamma_b=0.5)
    with pytest.raises(TruncationError, match="still above 1e-08 at dim 8"):
        auto_truncated_steady(lambda d: build_reduced_model(p, d), start_dim=6, max_dim=8)


def test_spectral_gap_converged_raises_when_the_gap_moves():
    # d = 4 against d = 8: the gap moves by about 23%, far above _GAP_REL_TOL
    p = SystemParams(g=0.3, lambda_a=4.0, gamma_a=6.0, gamma_b=0.5)
    with pytest.raises(TruncationError, match="grew from 4 to 8"):
        spectral_gap_converged(lambda d: build_reduced_model(p, d), 4)


def test_spectral_gap_converged_stable_under_growth():
    p = SystemParams(g=0.2, lambda_a=0.8, gamma_a=5.0, gamma_b=0.7)
    gap = spectral_gap_converged(lambda d: build_reduced_model(p, d), 10)
    gap_bigger = spectral_gap(build_reduced_model(p, 18))
    assert gap == pytest.approx(gap_bigger, rel=0.02)


def test_evolve_closed_phase_rotation():
    space = FockSpace(24)
    omega = 1.3
    h = omega * number_operator(space)
    psi0 = coherent_state(0.7, space)
    t = 0.8
    psi_t = evolve_closed(h, psi0, t)
    amp = expectation(annihilation(space), psi_t)
    assert amp == pytest.approx(0.7 * np.exp(-1j * omega * t), abs=1e-8)


def test_evolve_closed_rejects_nonhermitian():
    space = FockSpace(4)
    with pytest.raises(IntegratorError):
        evolve_closed(annihilation(space), fock_state(0, space), 0.1)


def test_evolve_closed_rejects_a_non_finite_result(monkeypatch):
    # NaN > tol is False: a plain drift check lets a NaN state through
    nan_action = SimpleNamespace(expm_multiply=lambda a, v: np.full_like(v, np.nan))
    monkeypatch.setattr(dynamics, "spla", nan_action)
    space = FockSpace(4)
    with pytest.raises(IntegratorError, match="norm drift"):
        evolve_closed(number_operator(space), fock_state(1, space), 0.3)


@pytest.mark.parametrize("t", (0.7, -0.7))
def test_evolve_closed_matches_the_dense_exponential(t):
    p = SystemParams(g=0.3, lambda_a=0.7, gamma_a=5.0, gamma_b=0.4)
    h = build_full_model(p, 3, 8).hamiltonian
    rng = np.random.default_rng(7)
    amps = rng.normal(size=h.dim) + 1j * rng.normal(size=h.dim)
    psi0 = StateVector(amps / np.linalg.norm(amps), h.space)
    reference = expm(-1j * t * h.matrix) @ psi0.amplitudes
    assert np.abs(evolve_closed(h, psi0, t).amplitudes - reference).max() <= 1e-12


def test_three_level_steady_matches_liouvillian_and_frozen_values():
    p = SystemParams(g=0.3, lambda_a=0.7, gamma_a=5.0, gamma_b=0.4, kappa_e=0.2)
    closed = three_level_steady(p)
    numeric = steady_state(build_reduced_model(p, 3)).rho
    assert np.abs(closed.matrix - numeric.matrix).max() < 1e-12
    assert closed.matrix[0, 0].real == pytest.approx(0.993515087347803, rel=1e-13)
    assert closed.matrix[1, 1].real == pytest.approx(0.004323275101464618, rel=1e-13)
    assert closed.matrix[2, 2].real == pytest.approx(0.002161637550732309, rel=1e-13)
    assert closed.matrix[2, 0] == pytest.approx(-0.046291973852163236j, rel=1e-13)
    # populations obey the 2:1 ratio and the coherence is purely imaginary
    assert closed.matrix[1, 1].real == pytest.approx(
        2 * closed.matrix[2, 2].real, rel=1e-12
    )
    assert closed.matrix[2, 0].real == 0.0


def test_three_level_printed_coherence_differs_by_sqrt2():
    p = SystemParams(g=0.3, lambda_a=0.7, gamma_a=5.0, gamma_b=0.4, kappa_e=0.2)
    corrected = three_level_steady(p).matrix[2, 0]
    # the paper's printed rho20 = -i g A lambda_a / D
    a_const = 2 * p.g**2 + p.gamma_a * (p.kappa_e + p.gamma_b)
    d_const = 2 * a_const**2 + 4 * (p.g * p.lambda_a) ** 2
    printed = -1j * p.g * a_const * p.lambda_a / d_const
    assert corrected == pytest.approx(math.sqrt(2.0) * printed, rel=1e-14)


def test_three_level_occupation_consistent_with_steady_state():
    p = SystemParams(g=0.2, lambda_a=1.5, gamma_a=8.0, gamma_b=0.6, kappa_e=0.0)
    rho = three_level_steady(p).matrix
    direct = rho[1, 1].real + 2 * rho[2, 2].real
    assert three_level_occupation(p) == pytest.approx(direct, rel=1e-13)


@pytest.mark.parametrize(
    "closed_form", (three_level_steady, three_level_occupation), ids=("steady", "occupation")
)
def test_three_level_closed_forms_reject_a_thermal_bath(closed_form):
    p = SystemParams(g=0.3, lambda_a=0.7, gamma_a=5.0, gamma_b=0.4, kappa_e=0.2, nbar=0.5)
    with pytest.raises(ValueError, match="zero-temperature"):
        closed_form(p)
    with pytest.raises(ValueError, match="gamma_a = 0"):
        closed_form(SystemParams(g=0.3, lambda_a=0.7, gamma_a=0.0, gamma_b=0.4))


def test_three_level_relaxes_to_steady_state():
    p = SystemParams(g=0.3, lambda_a=0.7, gamma_a=5.0, gamma_b=0.4, kappa_e=0.2)
    rho0 = DensityMatrix(np.diag([0.2, 0.5, 0.3]).astype(complex), FockSpace(3))
    late = three_level_evolve(p, rho0, 60.0)
    assert np.abs(late.matrix - three_level_steady(p).matrix).max() < 1e-9


def test_reduced_model_thermal_channel_occupation():
    # no drive: the signal thermalizes to nbar
    p = SystemParams(g=0.0, lambda_a=0.0, gamma_a=2.0, gamma_b=0.8, nbar=0.6)
    model = build_reduced_model(p, 30)
    rho = steady_state(model).rho
    n = expectation(number_operator(FockSpace(30)), rho).real
    assert n == pytest.approx(0.6, rel=1e-8)
