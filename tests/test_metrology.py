"""Fisher-information estimators and measurement statistics."""

import math

import numpy as np
import pytest
from scipy.linalg import expm, solve_sylvester

from pdclab.analytic import FullyQuantum, Semiclassical, qfi_closed_form
from pdclab.dynamics import SystemParams, build_full_model, evolve_closed, three_level_steady
from pdclab.errors import DivergenceError
from pdclab.hilbert import (
    DensityMatrix,
    FockSpace,
    StateVector,
    annihilation,
    coherent_state,
    density_from_state,
    fock_state,
    tensor_state,
)
from pdclab.metrology import (
    GaussianDerivatives,
    GaussianMoments,
    MeasurementRecord,
    QfiResult,
    default_step,
    error_propagation,
    gaussian_moments,
    homodyne_stats,
    photon_stats,
    qfi_gaussian,
    qfi_gaussian_family,
    qfi_pure,
    qfi_spectral,
)


def sld_qfi_oracle(rho_family, g, h):
    """F = Tr(drho L) with the symmetric logarithmic derivative L solved from
    rho L + L rho = 2 drho (Sylvester), for full-rank rho.

    No eigendecomposition enters, so this is an independent route to the sum
    qfi_spectral evaluates in the eigenbasis of rho.
    """
    r0 = rho_family(g).matrix
    drho = (rho_family(g + h).matrix - rho_family(g - h).matrix) / (2.0 * h)
    sld = solve_sylvester(r0, r0, 2.0 * drho)
    return float(np.trace(drho @ sld).real)


# --- pure-state estimator -------------------------------------------------------

def test_qfi_pure_displacement_family_is_4():
    space = FockSpace(40)
    result = qfi_pure(lambda a: coherent_state(a, space), 1.0)
    assert result.value == pytest.approx(4.0, rel=1e-8)
    assert result.method == "pure"


def test_qfi_pure_phase_family_is_4_var_n():
    space = FockSpace(40)
    alpha = 1.3
    base = coherent_state(alpha, space).amplitudes
    levels = np.arange(40)

    def family(theta):
        return StateVector(np.exp(-1j * theta * levels) * base, space)

    value = qfi_pure(family, 0.37).value
    assert value == pytest.approx(4.0 * alpha**2, rel=1e-8)


def _closed_family(alpha, n_signal, d_a, d_b, t, pump_fock=None):
    """Two-mode closed evolution family in the coupling."""
    sa, sb = FockSpace(d_a), FockSpace(d_b)
    if pump_fock is None:
        pump = coherent_state(alpha, sa)
    else:
        pump = fock_state(pump_fock, sa)
    psi0 = tensor_state(pump, fock_state(n_signal, sb))

    def family(g):
        p = SystemParams(g=g, lambda_a=0.0, gamma_a=1.0, gamma_b=0.0)
        h = build_full_model(p, d_a, d_b).hamiltonian
        return evolve_closed(h, psi0, t)

    return family


def test_qfi_pure_matches_semiclassical_closed_form():
    t = 0.1
    family = _closed_family(alpha=1.0, n_signal=1, d_a=16, d_b=12, t=t)
    value = qfi_pure(family, 1.0).value
    expected = qfi_closed_form(Semiclassical(1.0, 1.0), t)
    assert expected == pytest.approx(24.0 * t * t)
    assert value == pytest.approx(expected, rel=1e-6)


def test_qfi_pure_matches_fully_quantum_closed_form():
    t = 0.1
    family = _closed_family(alpha=0.0, n_signal=1, d_a=8, d_b=12, t=t, pump_fock=2)
    value = qfi_pure(family, 1.0).value
    expected = qfi_closed_form(FullyQuantum(2.0, 1.0), t)
    assert value == pytest.approx(expected, rel=1e-6)


# --- spectral estimator -----------------------------------------------------------

def test_qfi_spectral_rank_one_matches_pure():
    space = FockSpace(30)
    alpha = 1.1
    base = coherent_state(alpha, space).amplitudes
    levels = np.arange(30)

    def pure_family(theta):
        return StateVector(np.exp(-1j * theta * levels) * base, space)

    def rho_family(theta):
        return density_from_state(pure_family(theta))

    spectral = qfi_spectral(rho_family, 0.2).value
    pure = qfi_pure(pure_family, 0.2).value
    assert spectral == pytest.approx(pure, rel=1e-6)
    assert spectral == pytest.approx(4.0 * alpha**2, rel=1e-6)


def test_qfi_spectral_mixed_family_matches_matrix_oracle():
    def rho_family(g):
        p = SystemParams(g=g, lambda_a=0.7, gamma_a=5.0, gamma_b=0.4, kappa_e=0.2)
        return three_level_steady(p)

    g0 = 0.3
    h = default_step(g0)
    route_a = qfi_spectral(rho_family, g0).value
    route_b = sld_qfi_oracle(rho_family, g0, h)
    assert route_a == pytest.approx(route_b, rel=1e-6)
    assert route_a > 0


@pytest.mark.parametrize(
    "diagonal, generator, expected",
    [
        # 1/2 I + g sigma_x: Bloch vector (2g, 0, 0), F = |dr/dg|^2 = 4
        ((0.5, 0.5), [[0, 1], [1, 0]], 4.0),
        # diag(0.4, 0.4, 0.2) + g (E01 + E10): F = 2 * 2 * 1 / (0.4 + 0.4) = 5
        ((0.4, 0.4, 0.2), [[0, 1, 0], [1, 0, 0], [0, 0, 0]], 5.0),
    ],
    ids=["qubit", "qutrit"],
)
def test_qfi_spectral_on_a_degenerate_spectrum(diagonal, generator, expected):
    # at g = 0 the perturbation splits a degenerate eigenvalue; the splitting
    # carries the whole signal
    space = FockSpace(len(diagonal))

    def rho_family(g):
        return DensityMatrix(np.diag(diagonal) + g * np.array(generator, dtype=complex), space)

    assert qfi_spectral(rho_family, 0.0).value == pytest.approx(expected, abs=1e-8)


@pytest.mark.parametrize("step", [0.0, -1e-4, math.nan])
@pytest.mark.parametrize(
    "estimator", ["qfi_pure", "qfi_gaussian_family", "qfi_spectral", "photon_stats"]
)
def test_finite_difference_step_must_be_finite_and_positive(estimator, step):
    space = FockSpace(10)

    def pure_family(g):
        return coherent_state(g, space)

    def rho_family(g):
        return density_from_state(pure_family(g))

    call = {
        "qfi_pure": lambda: qfi_pure(pure_family, 0.5, step=step),
        "qfi_gaussian_family": lambda: qfi_gaussian_family(
            lambda g: gaussian_moments(rho_family(g)), 0.5, step=step
        ),
        "qfi_spectral": lambda: qfi_spectral(rho_family, 0.5, step=step),
        "photon_stats": lambda: photon_stats(rho_family, 0.5, step=step),
    }[estimator]
    with pytest.raises(ValueError, match="step must be finite and positive"):
        call()


# --- Gaussian estimator -----------------------------------------------------------

def _squeezed_thermal(xi, nbar, dim):
    space = FockSpace(dim)
    a = annihilation(space).matrix
    squeeze = expm(0.5 * xi * (a @ a - a.conj().T @ a.conj().T))
    n = np.arange(dim)
    probs = (nbar / (1 + nbar)) ** n / (1 + nbar)
    rho = squeeze @ np.diag(probs) @ squeeze.conj().T
    rho /= np.trace(rho).real
    return DensityMatrix(rho, space, tol=1e-9)


def test_gaussian_moments_known_states():
    space = FockSpace(30)
    vac = gaussian_moments(density_from_state(fock_state(0, space)))
    assert np.allclose(vac.covariance, 0.5 * np.eye(2), atol=1e-12)
    assert np.allclose(vac.displacement, 0.0, atol=1e-12)

    alpha = 0.8 - 0.5j
    coh = gaussian_moments(density_from_state(coherent_state(alpha, space)))
    assert np.allclose(coh.covariance, 0.5 * np.eye(2), atol=1e-9)
    assert coh.displacement[0] == pytest.approx(math.sqrt(2) * alpha.imag, abs=1e-9)
    assert coh.displacement[1] == pytest.approx(math.sqrt(2) * alpha.real, abs=1e-9)

    one = gaussian_moments(density_from_state(fock_state(1, space)))
    assert np.allclose(one.covariance, 1.5 * np.eye(2), atol=1e-12)


def test_gaussian_moments_of_squeezed_thermal_match_symplectic_form():
    xi, nbar = 0.3, 0.4
    nu = 2 * nbar + 1
    m = gaussian_moments(_squeezed_thermal(xi, nbar, 40))
    assert m.covariance[0, 0] == pytest.approx(0.5 * nu * math.exp(2 * xi), rel=1e-9)
    assert m.covariance[1, 1] == pytest.approx(0.5 * nu * math.exp(-2 * xi), rel=1e-9)
    assert abs(m.covariance[0, 1]) < 1e-10
    assert m.d == pytest.approx(0.5 * nu, rel=1e-9)


def test_qfi_gaussian_squeezing_parameter_closed_form():
    """F(xi) = 4 nu^2/(nu^2+1) for a squeezed thermal state, any xi."""
    xi0, nbar = 0.25, 0.4
    nu = 2 * nbar + 1

    def fam(xi):
        return gaussian_moments(_squeezed_thermal(xi, nbar, 42))

    gauss = qfi_gaussian_family(fam, xi0).value
    assert gauss == pytest.approx(4 * nu**2 / (nu**2 + 1), rel=1e-6)

    spectral = qfi_spectral(lambda xi: _squeezed_thermal(xi, nbar, 42), xi0).value
    assert spectral == pytest.approx(gauss, rel=1e-5)


def test_qfi_gaussian_pure_squeezed_vacuum_is_2():
    # d = 1/2 exactly: exercises the treated singularity of the middle term
    def fam(xi):
        return gaussian_moments(density_from_state(_squeezed_vacuum(xi, 44)))

    assert qfi_gaussian_family(fam, 0.2).value == pytest.approx(2.0, rel=1e-6)


def _squeezed_vacuum(xi, dim):
    space = FockSpace(dim)
    a = annihilation(space).matrix
    squeeze = expm(0.5 * xi * (a @ a - a.conj().T @ a.conj().T))
    amps = squeeze[:, 0]
    return StateVector(amps / np.linalg.norm(amps), space)


def test_qfi_gaussian_displacement_route():
    # pure displacement: F = dX^T C^-1 dX = 2 |dX|^2 at vacuum covariance
    m = GaussianMoments(np.array([0.3, -0.2]), 0.5 * np.eye(2))
    dm = GaussianDerivatives(np.array([1.0, 2.0]), np.zeros((2, 2)), 0.0)
    assert qfi_gaussian(m, dm).value == pytest.approx(2.0 * 5.0, rel=1e-12)


def test_gaussian_moments_validation():
    with pytest.raises(ValueError):
        GaussianMoments(np.zeros(2), np.array([[0.5, 0.1], [0.0, 0.5]]))
    with pytest.raises(ValueError):
        # det C < 1/4 violates the uncertainty bound
        GaussianMoments(np.zeros(2), 0.3 * np.eye(2))


# --- measurement statistics -------------------------------------------------------

def test_photon_stats_on_coherent_family():
    space = FockSpace(40)

    def family(g):
        return density_from_state(coherent_state(g, space))

    rec = photon_stats(family, 1.2)
    assert rec.mean == pytest.approx(1.2**2, rel=1e-9)
    assert rec.variance == pytest.approx(1.2**2, rel=1e-8)
    assert rec.dmean_dg == pytest.approx(2 * 1.2, rel=1e-7)
    assert error_propagation(rec) == pytest.approx(0.25, rel=1e-7)


@pytest.mark.parametrize("stats", (photon_stats, homodyne_stats))
def test_stats_evaluate_each_family_point_once(stats):
    space = FockSpace(20)
    calls = []

    def family(g):
        calls.append(g)
        return density_from_state(coherent_state(g, space))

    stats(family, 0.8)
    assert len(calls) == 3
    assert calls[0] == 0.8


def test_homodyne_stats_vacuum_noise():
    space = FockSpace(30)

    def family(g):
        return density_from_state(coherent_state(g, space))

    rec = homodyne_stats(family, 0.9, phase=0.0)
    # M = b + b^dag: mean 2 Re(alpha), unit vacuum variance
    assert rec.mean == pytest.approx(1.8, rel=1e-9)
    assert rec.variance == pytest.approx(1.0, rel=1e-8)
    assert rec.dmean_dg == pytest.approx(2.0, rel=1e-8)


def test_homodyne_phase_rotation():
    space = FockSpace(30)
    alpha = 0.6 + 0.4j

    def family(g):
        return density_from_state(coherent_state(g * alpha / abs(alpha), space))

    phi = 0.7
    rec = homodyne_stats(family, abs(alpha), phase=phi)
    expected_mean = 2 * (alpha * complex(math.cos(phi), -math.sin(phi))).real
    assert rec.mean == pytest.approx(expected_mean, rel=1e-8)


def test_error_propagation_zero_derivative_raises():
    with pytest.raises(DivergenceError):
        error_propagation(MeasurementRecord(mean=1.0, variance=0.5, dmean_dg=0.0))


def test_measurement_record_rejects_negative_variance():
    with pytest.raises(ValueError):
        MeasurementRecord(mean=0.0, variance=-0.1, dmean_dg=1.0)


@pytest.mark.parametrize("bad", (math.nan, math.inf))
@pytest.mark.parametrize("field", ("mean", "variance", "dmean_dg"))
def test_measurement_record_rejects_non_finite_fields(field, bad):
    values = {"mean": 1.0, "variance": 1.0, "dmean_dg": 1.0, field: bad}
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        MeasurementRecord(**values)


@pytest.mark.parametrize("bad", (math.nan, math.inf))
def test_qfi_result_rejects_a_non_finite_value(bad):
    with pytest.raises(ValueError, match="QFI must be finite"):
        QfiResult(bad, "pure", 0.0)


def test_default_step_scales_with_g():
    assert default_step(0.01) == pytest.approx(1e-4)
    assert default_step(5.0) == pytest.approx(5e-4)


def test_photon_stats_tensor_space_needs_mode():
    sa, sb = FockSpace(4), FockSpace(4)

    def family(g):
        return density_from_state(
            tensor_state(fock_state(1, sa), fock_state(0, sb))
        )

    with pytest.raises(ValueError):
        photon_stats(family, 0.5)
    rec = photon_stats(family, 0.5, mode=0)
    assert rec.mean == pytest.approx(1.0)
    assert rec.variance == pytest.approx(0.0, abs=1e-10)
