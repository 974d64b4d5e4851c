"""Lindblad generators, integration, steady states, spectral gaps."""

import math
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.integrate import solve_ivp

from pdclab.analytic import moment_gb0
from pdclab.dynamics import (
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
)
from pdclab.hilbert import (
    DensityMatrix,
    FockSpace,
    annihilation,
    coherent_state,
    density_from_state,
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


def test_liouvillian_action_matches_master_equation():
    model = build_reduced_model(WORK, 8)
    lio = liouvillian_matrix(model)
    rng = np.random.default_rng(3)
    x = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    rho = x @ x.conj().T
    rho /= np.trace(rho)
    h = model.hamiltonian.matrix
    rhs = -1j * (h @ rho - rho @ h)
    for rate, c in model.channels:
        cm = c.matrix
        cdc = cm.conj().T @ cm
        rhs += rate * (2 * cm @ rho @ cm.conj().T - cdc @ rho - rho @ cdc)
    via_lio = (lio @ rho.flatten(order="F")).reshape((8, 8), order="F")
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


def test_single_excitation_decays_at_twice_gamma():
    gamma, t = 0.7, 0.9
    model = decay_only_model(gamma, 4)
    rho0 = density_from_state(fock_state(1, FockSpace(4)))
    rho_t = evolve_open(model, rho0, t, rtol=1e-10, atol=1e-12)
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
    rho_t = evolve_open(model, rho0, t, rtol=1e-10, atol=1e-12)
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
    # the bound is the one evolve_open's trace check applies
    rtol, atol = 1e-8, 1e-10
    for label, model, rho0, t in _evolution_cases():
        ref = _vec_rho_evolution(model, rho0, t, rtol, atol)
        rho = evolve_open(model, rho0, t, rtol=rtol, atol=atol).matrix
        assert np.array_equal(rho, rho.conj().T), label
        assert np.abs(rho - ref).max() <= 10 * max(rtol, atol), label


def test_steady_state_agrees_with_long_time_evolution():
    model = build_reduced_model(WORK, 16)
    direct = steady_state(model).rho
    rho0 = density_from_state(fock_state(0, FockSpace(16)))
    evolved = evolve_open(model, rho0, 60.0, rtol=1e-10, atol=1e-12)
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

    The effective signal parameters stay put while gamma_a grows, so the
    two-mode steady state must approach the reduced one.
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


def test_three_level_evolution_matches_dim3_liouvillian():
    p = SystemParams(g=0.3, lambda_a=0.7, gamma_a=5.0, gamma_b=0.4, kappa_e=0.2)
    rho0_mat = np.diag([0.6, 0.3, 0.1]).astype(complex)
    rho0_mat[2, 0] = 0.05j
    rho0_mat[0, 2] = -0.05j
    rho0 = DensityMatrix(rho0_mat, FockSpace(3))
    t = 2.5
    via_odes = three_level_evolve(p, rho0, t)
    via_lio = evolve_open(build_reduced_model(p, 3), rho0, t, rtol=1e-11, atol=1e-13)
    assert np.abs(via_odes.matrix - via_lio.matrix).max() < 1e-8


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
    printed = three_level_steady(p, coherence_variant="printed").matrix[2, 0]
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
