"""Closed forms: moments, QFI, uncertainties, sensor figures of merit."""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdclab.analytic import (
    Classical,
    FullyQuantum,
    Semiclassical,
    SensorOptimum,
    critical_lambda,
    delta2_g,
    delta2_g_homodyne_phase,
    lambda_sensor,
    moment_gb0,
    moment_ss,
    optimal_allocation,
    qfi_closed_form,
    _series_f,
    qfi_gb0_closed,
)
from pdclab.dynamics import (
    SystemParams,
    build_full_model,
    build_reduced_model,
    evolve_closed,
    steady_state,
    three_level_steady,
)
from pdclab.errors import DivergenceError, SeriesConvergenceError
from pdclab.hilbert import (
    FockSpace,
    annihilation,
    coherent_state,
    expectation,
    number_operator,
    tensor_state,
)
from pdclab.metrology import error_propagation, photon_stats, qfi_pure

WORK = SystemParams(g=0.4, lambda_a=0.9, gamma_a=6.0, gamma_b=0.5, kappa_e=0.1)


# --- terminating hypergeometric values f_m = 2F1(-m, z/2; z; 2) ---------------

def test_hyp2f1_hand_value():
    # m=2, y=1, z=2: 1 - 2 + 4/3
    assert _series_f(2.0, 2)[2] == pytest.approx(1.0 / 3.0, rel=1e-15)


def test_hyp2f1_trivial_cases():
    # m=0: 1; m=1: 1 - 2 y / z, which vanishes at z = 2y
    assert _series_f(1.3, 1) == [1.0, 0.0]


def _hyp2f1_fraction_oracle(m: int, y: Fraction, z: Fraction) -> Fraction:
    """Direct Pochhammer-ratio sum in exact rational arithmetic."""
    total = Fraction(0)
    for n in range(m + 1):
        num = Fraction(1)
        for i in range(n):
            num *= (-m + i) * (y + i)
            num /= z + i
        total += num * Fraction(2) ** n / math.factorial(n)
    return total


@settings(max_examples=60, deadline=None)
@given(m=st.integers(0, 14), y_num=st.integers(1, 32), y_den=st.integers(1, 8))
def test_hyp2f1_matches_exact_rational_sum(m, y_num, y_den):
    # the recurrence of _series_f against the direct sum at z = 2y, the only
    # z the moment series uses
    y = Fraction(y_num, y_den)
    exact = _hyp2f1_fraction_oracle(m, y, 2 * y)
    assert _series_f(float(2 * y), m)[m] == pytest.approx(float(exact), rel=1e-9, abs=1e-11)


@settings(max_examples=40, deadline=None)
@given(y=st.floats(0.05, 20.0, allow_nan=False))
def test_hyp2f1_recurrence_structure_at_z_2y(y):
    """With z = 2y the odd-index values vanish and f2 = 1/(z+1)."""
    f = _series_f(2.0 * y, 4)
    assert f[1] == f[3] == 0.0
    assert f[2] == pytest.approx(1.0 / (2.0 * y + 1.0), rel=1e-12)
    # even values stay in (0, 1]: damped products of positive ratios
    assert 0.0 < f[4] <= f[2] <= 1.0


# --- steady-state moment series -----------------------------------------------

def test_moment_ss_frozen_values():
    assert moment_ss(1, 1, WORK) == pytest.approx(0.01697801432998975, rel=1e-13)
    assert moment_ss(2, 2, WORK) == pytest.approx(0.008886527163983506, rel=1e-13)
    m02 = moment_ss(0, 2, WORK)
    assert m02.real == 0.0
    assert m02.imag == pytest.approx(-0.09345174023847068, rel=1e-13)


def test_moment_ss_normalization_and_parity():
    assert moment_ss(0, 0, WORK) == 1.0 + 0.0j
    # weak Z2 symmetry: odd total order moments vanish identically
    assert moment_ss(0, 1, WORK) == 0.0
    assert moment_ss(1, 2, WORK) == 0.0
    assert moment_ss(2, 1, WORK) == 0.0


@settings(max_examples=30, deadline=None)
@given(
    g=st.floats(0.05, 1.0),
    lam=st.floats(0.05, 3.0),
    gamma_a=st.floats(1.0, 12.0),
    gamma_b=st.floats(0.05, 3.0),
    l=st.integers(0, 2),
    k=st.integers(0, 2),
)
def test_moment_ss_hermiticity_property(g, lam, gamma_a, gamma_b, l, k):
    p = SystemParams(g=g, lambda_a=lam, gamma_a=gamma_a, gamma_b=gamma_b)
    assert moment_ss(l, k, p) == pytest.approx(
        moment_ss(k, l, p).conjugate(), rel=1e-12, abs=1e-15
    )


def test_moment_ss_against_liouvillian_steady_state():
    model = build_reduced_model(WORK, 24)
    rho = steady_state(model).rho
    b = annihilation(FockSpace(24))
    for l, k in [(1, 1), (0, 2), (2, 2), (1, 0)]:
        num = np.linalg.matrix_power(b.matrix, k)
        dag = np.linalg.matrix_power(b.dag().matrix, l)
        numeric = complex(np.trace(dag @ num @ rho.matrix))
        assert moment_ss(l, k, WORK) == pytest.approx(numeric, abs=1e-10)


def test_moment_ss_at_zero_drive_is_the_vacuum():
    # u = 0: every term past m = 0 vanishes, so the series is its first term
    p = SystemParams(g=0.4, lambda_a=0.0, gamma_a=6.0, gamma_b=0.5, kappa_e=0.1)
    rho = steady_state(build_reduced_model(p, 16)).rho
    numeric = expectation(number_operator(FockSpace(16)), rho)
    assert numeric == 0.0
    assert moment_ss(1, 1, p) == numeric
    assert moment_ss(0, 0, p) == 1.0
    assert moment_ss(0, 2, p) == 0.0


def test_moment_ss_small_gamma_b_limit_is_tanh_branch():
    # with the single-photon loss switched almost off the series sum gives the
    # symmetrized branch (lambda/2g) tanh(lambda/g), not the displaced branch
    p = SystemParams(g=0.5, lambda_a=0.4, gamma_a=5.0, gamma_b=1e-12)
    expected = (0.4 / (2 * 0.5)) * math.tanh(0.4 / 0.5)
    assert moment_ss(1, 1, p).real == pytest.approx(expected, rel=1e-9)


def test_moment_ss_diverging_series_raises():
    p = SystemParams(g=1e-4, lambda_a=20.0, gamma_a=1.0, gamma_b=0.0)
    with pytest.raises(SeriesConvergenceError):
        moment_ss(1, 1, p)


def test_moment_ss_rejects_zero_coupling():
    p = SystemParams(g=0.0, lambda_a=1.0, gamma_a=1.0, gamma_b=1.0)
    with pytest.raises(ValueError, match="g > 0"):
        moment_ss(1, 1, p)
    # g > 0 whose kappa = 2 g^2 / gamma_a underflows to 0, with kappa_e = 0
    p = SystemParams(g=1e-200, lambda_a=1.0, gamma_a=1.0, gamma_b=1.0)
    assert p.kappa == 0.0
    with pytest.raises(ValueError, match="positive two-photon rate"):
        moment_ss(1, 1, p)


@pytest.mark.parametrize("l, k", [(-1, 1), (2, -2)])
def test_moments_reject_negative_orders(l, k):
    p = SystemParams(g=0.2, lambda_a=0.8, gamma_a=4.0, gamma_b=0.5)
    with pytest.raises(ValueError, match="orders must be non-negative"):
        moment_ss(l, k, p)
    with pytest.raises(ValueError, match="orders must be non-negative"):
        moment_gb0(l, k, replace(p, gamma_b=0.0))


def test_moment_ss_rejects_thermal_bath():
    p = SystemParams(g=0.3, lambda_a=0.5, gamma_a=2.0, gamma_b=0.5, nbar=0.4)
    with pytest.raises(ValueError):
        moment_ss(1, 1, p)


# --- displaced branch at gamma_b = 0 -------------------------------------------

def test_moment_gb0_occupation_and_factorization():
    p = SystemParams(g=0.2, lambda_a=0.8, gamma_a=4.0, gamma_b=0.0, kappa_e=0.0)
    # at kappa_e = 0 the occupation is lambda/g
    occ = moment_gb0(1, 1, p)
    assert occ == pytest.approx(0.8 / 0.2, rel=1e-14)
    amp = moment_gb0(0, 1, p)
    assert abs(amp) ** 2 == pytest.approx(occ.real, rel=1e-14)
    # moments factorize: the branch behaves like a displaced state
    m22 = moment_gb0(2, 2, p)
    assert m22 == pytest.approx(abs(amp) ** 4, rel=1e-13)
    m12 = moment_gb0(1, 2, p)
    assert m12 == pytest.approx(amp.conjugate() * amp * amp, rel=1e-13)


def test_moment_gb0_requires_gamma_b_zero():
    with pytest.raises(ValueError):
        moment_gb0(1, 1, WORK)


def test_moment_gb0_no_two_photon_loss_diverges():
    p = SystemParams(g=0.0, lambda_a=0.8, gamma_a=4.0, gamma_b=0.0, kappa_e=0.0)
    with pytest.raises((ZeroDivisionError, ValueError)):
        moment_gb0(1, 1, p)


# --- closed-evolution QFI -------------------------------------------------------

def test_qfi_closed_forms_hand_values():
    t = 1.0
    assert qfi_closed_form(Semiclassical(1.0, 1.0), t) == pytest.approx(24.0)
    assert qfi_closed_form(FullyQuantum(1.0, 1.0), t) == pytest.approx(24.0)
    # signal vacuum: pump-limited 8 alpha^2 t^2
    assert qfi_closed_form(Semiclassical(2.0, 0.0), t) == pytest.approx(16.0)
    assert qfi_closed_form(FullyQuantum(2.0, 0.0), t) == pytest.approx(16.0)
    # coherent x coherent: 4 (a2^2 + 4 a1 a2 + 2 a1) t^2
    assert qfi_closed_form(Classical(2.0, 3.0), t) == pytest.approx(148.0)
    # time enters squared
    assert qfi_closed_form(Semiclassical(1.0, 1.0), 2.0) == pytest.approx(96.0)


@pytest.mark.parametrize("a1, a2, d_a, d_b", [(0.5, 1.0, 12, 16), (1.0, 0.5, 14, 14)])
def test_qfi_closed_form_classical_matches_closed_evolution(a1, a2, d_a, d_b):
    # criterion 3's set-up with a coherent signal: 4 t^2 Var(G) of coherent x coherent
    t = 0.1
    psi0 = tensor_state(
        coherent_state(math.sqrt(a1), FockSpace(d_a)),
        coherent_state(math.sqrt(a2), FockSpace(d_b)),
    )

    def family(g):
        h = build_full_model(SystemParams(g=g, lambda_a=0.0, gamma_a=1.0, gamma_b=0.0),
                             d_a, d_b).hamiltonian
        return evolve_closed(h, psi0, t)

    value = qfi_pure(family, 1.0).value
    assert qfi_closed_form(Classical(a1, a2), t) == pytest.approx(value, rel=1e-6)


def test_qfi_closed_form_input_validation():
    with pytest.raises(ValueError):
        qfi_closed_form(Semiclassical(-1.0, 0.0), 1.0)
    with pytest.raises(TypeError):
        qfi_closed_form("coherent", 1.0)


def test_optimal_allocation_super_heisenberg():
    n_star, f_star = optimal_allocation(30.0, 1.0)
    assert n_star == pytest.approx(20.0)
    assert f_star == pytest.approx(32000.0)
    # N^3 scaling: doubling the budget multiplies F by 8
    _, f_double = optimal_allocation(60.0, 1.0)
    assert f_double / f_star == pytest.approx(8.0, rel=1e-14)
    with pytest.raises(ValueError):
        optimal_allocation(0.0, 1.0)


# --- uncertainty closed forms ---------------------------------------------------

def test_delta2_g_gb0_scalings():
    p = SystemParams(g=0.2, lambda_a=0.8, gamma_a=4.0, gamma_b=0.0)
    # the kappa_e form reduces to g^3 / lambda_a at kappa_e = 0
    assert delta2_g("gb0", "photon", p) == pytest.approx(0.2**3 / 0.8, rel=1e-14)
    assert delta2_g("gb0", "qcrb", p) == delta2_g("gb0", "photon", p)
    hom = delta2_g("gb0", "homodyne", p)
    assert hom == pytest.approx(2 * 0.2**3 / 0.8, rel=1e-14)
    assert delta2_g_homodyne_phase(p, 0.0) == pytest.approx(hom, rel=1e-14)
    # the pi/4 quadrature carries no information about g
    with pytest.raises(DivergenceError):
        delta2_g_homodyne_phase(p, math.pi / 4.0)


def test_delta2_g_gb0_kappa_saturates_qcrb():
    p = SystemParams(g=0.1, lambda_a=1.0, gamma_a=10.0, gamma_b=0.0, kappa_e=0.1)
    photon = delta2_g("gb0", "photon", p)
    assert photon == pytest.approx(0.055248229904206594, rel=1e-14)
    assert qfi_gb0_closed(p) == pytest.approx(18.100127401979627, rel=1e-14)
    assert photon * qfi_gb0_closed(p) == pytest.approx(1.0, rel=1e-12)
    assert delta2_g("gb0", "qcrb", p) == pytest.approx(photon, rel=1e-14)


def test_qfi_gb0_closed_requires_gamma_b_zero():
    p = SystemParams(g=0.1, lambda_a=1.0, gamma_a=10.0, gamma_b=0.5, kappa_e=0.1)
    with pytest.raises(ValueError, match="holds only at gamma_b = 0"):
        qfi_gb0_closed(p)


def test_delta2_g_gb0_kappa_divergence_at_impedance_match():
    # kappa_e gamma_a = 2 g^2 makes the closed form blow up
    p = SystemParams(g=1.0, lambda_a=1.0, gamma_a=2.0, gamma_b=0.0, kappa_e=1.0)
    with pytest.raises(DivergenceError):
        delta2_g("gb0", "photon", p)


def test_delta2_g_three_level_prefactor_chain():
    p = SystemParams(g=1e-4, lambda_a=0.1, gamma_a=1.0, gamma_b=0.5, kappa_e=0.1)
    scale = p.gamma_a * (p.kappa_e + p.gamma_b) ** 2 / p.lambda_a**2
    qcrb = delta2_g("three_level", "qcrb", p)
    photon = delta2_g("three_level", "photon", p)
    homodyne = delta2_g("three_level", "homodyne", p)
    assert qcrb == pytest.approx(scale / 6.0, rel=1e-13)
    assert photon == pytest.approx(scale * 3.0 / 16.0, rel=1e-13)
    assert homodyne == pytest.approx(scale, rel=1e-13)
    assert qcrb <= photon <= homodyne
    assert photon == pytest.approx(6.749999999999998, rel=1e-14)


def test_delta2_g_three_level_photon_matches_error_propagation():
    # photon counting on the closed-form three-level family, numerically
    # differentiated; <b> = 0 there, so homodyne has no such route
    p = SystemParams(g=1e-4, lambda_a=0.1, gamma_a=1.0, gamma_b=0.5, kappa_e=0.1)
    rec = photon_stats(lambda g: three_level_steady(replace(p, g=g)), p.g)
    numeric = error_propagation(rec)
    assert numeric == pytest.approx(delta2_g("three_level", "photon", p), rel=1e-5)


def test_delta2_g_normal_phase_frozen_value():
    p = SystemParams(g=1.0, lambda_a=0.2, gamma_a=1.0, gamma_b=1.0)
    assert delta2_g("normal_phase", "photon", p) == pytest.approx(
        3.1310999999999987, rel=1e-13
    )


def test_delta2_g_normal_phase_reads_the_thermal_bracket_from_params():
    p = SystemParams(g=0.4, lambda_a=0.5, gamma_a=2.0, gamma_b=1.5)
    big_g = (p.gamma_a * p.gamma_b) ** 2
    g2l2 = (p.g * p.lambda_a) ** 2
    for nb in (0.0, 0.3, 2.0, 7.5):
        bracket = (3 + 2 * nb) * big_g + 4 * g2l2 * (2 * nb - 1)
        expected = (big_g - 4 * g2l2) ** 2 * bracket / (
            16 * (1 + 2 * nb) * p.lambda_a**2 * big_g**2
        )
        value = delta2_g("normal_phase", "photon", replace(p, nbar=nb))
        assert value == pytest.approx(expected, rel=1e-13), nb
    # a warm bath lowers the cold value 6.4735 to 3.0621 at nbar = 2
    assert delta2_g("normal_phase", "photon", replace(p, nbar=2.0)) == pytest.approx(
        3.0621498074074074, rel=1e-13
    )


def test_delta2_g_thermal_monotone_decreasing_in_nbar_subcritical():
    # d/dnbar of the bracket ratio is proportional to 4 g^2 lambda^2 - G,
    # negative below threshold: a hotter bath lowers the photon-counting
    # uncertainty, saturating at Delta^2 (G + 4g^2 lam^2)/(16 lam^2 ga^4 gb^4)
    p = SystemParams(g=0.7, lambda_a=0.3, gamma_a=1.2, gamma_b=0.9)
    values = [
        delta2_g("normal_phase", "photon", replace(p, nbar=nb)) for nb in (0, 1, 2, 5)
    ]
    assert all(a > b for a, b in zip(values, values[1:]))
    g2l2 = (p.g * p.lambda_a) ** 2
    big_g = (p.gamma_a * p.gamma_b) ** 2
    delta = big_g - 4 * g2l2
    asym = delta**2 * (big_g + 4 * g2l2) / (
        16 * p.lambda_a**2 * p.gamma_a**4 * p.gamma_b**4
    )
    hot = delta2_g("normal_phase", "photon", replace(p, nbar=1e6))
    assert hot == pytest.approx(asym, rel=1e-5)


def test_delta2_g_critical_variants_differ_by_2_gamma_gamma():
    p = SystemParams(g=1.0, lambda_a=0.2, gamma_a=1.0, gamma_b=1.0)
    printed = delta2_g("critical", "photon", p)
    # the critical limit of the normal-phase form, as criterion 9 computes it
    derived = (p.gamma_a * p.gamma_b - 2 * p.g * p.lambda_a) ** 2 / (2 * p.lambda_a**2)
    assert printed == pytest.approx(2.2499999999999996, rel=1e-13)
    assert derived == pytest.approx(
        printed * 2.0 * p.gamma_a * p.gamma_b, rel=1e-13
    )


@pytest.mark.parametrize(
    "regime, observable",
    [("gb0", "photon"), ("gb0", "homodyne"), ("gb0", "qcrb"),
     ("three_level", "qcrb"), ("normal_phase", "photon"), ("critical", "photon")],
)
def test_delta2_g_diverges_at_zero_drive(regime, observable):
    p = SystemParams(g=0.4, lambda_a=0.0, gamma_a=6.0, gamma_b=0.5, kappa_e=0.1)
    with pytest.raises(DivergenceError, match="lambda_a = 0"):
        delta2_g(regime, observable, p)


def test_delta2_g_unknown_regime_raises():
    with pytest.raises(ValueError):
        delta2_g("anti_normal", "photon", WORK)
    # the thermal form is normal_phase at params.nbar, not a regime of its own
    with pytest.raises(ValueError, match="unknown regime 'thermal'"):
        delta2_g("thermal", "photon", WORK)
    # gb0 covers every kappa_e >= 0: there is no separate kappa_e regime
    with pytest.raises(ValueError, match="unknown regime 'gb0_kappa'"):
        delta2_g("gb0_kappa", "photon", replace(WORK, gamma_b=0.0))


@pytest.mark.parametrize(
    "regime, observable, params, reason",
    [
        ("gb0", "photon", dict(gamma_b=1.5), "gamma_b = 0"),
        ("gb0", "homodyne", dict(kappa_e=0.1), "gamma_b = kappa_e = 0"),
        ("gb0", "photon", dict(gamma_b=1.5, kappa_e=0.1), "gamma_b = 0"),
        ("three_level", "qcrb", dict(gamma_b=0.5, nbar=0.4), "zero-temperature"),
        ("gb0", "parity", dict(), "unknown observable 'parity'"),
        ("three_level", "parity", dict(gamma_b=0.5), "unknown observable 'parity'"),
        ("normal_phase", "homodyne", dict(gamma_b=0.5), "mean-field forms are for photon"),
        ("critical", "qcrb", dict(gamma_b=0.5), "mean-field forms are for photon"),
        # 2 g lambda_a = 0.32 above gamma_a gamma_b = 0.04
        ("normal_phase", "photon", dict(gamma_b=0.01), "supercritical"),
    ],
    ids=["gb0-gamma_b", "gb0-kappa_e", "gb0_kappa-gamma_b", "three_level-nbar",
         "gb0-observable", "three_level-observable", "normal_phase-observable",
         "critical-observable", "normal_phase-supercritical"],
)
def test_delta2_g_rejects_params_outside_its_regime(regime, observable, params, reason):
    p = replace(SystemParams(g=0.2, lambda_a=0.8, gamma_a=4.0, gamma_b=0.0), **params)
    with pytest.raises(ValueError, match=reason):
        delta2_g(regime, observable, p)


@pytest.mark.parametrize(
    "params", [dict(gamma_b=1.5), dict(kappa_e=0.3), dict(gamma_b=1.5, kappa_e=0.3)],
    ids=["gamma_b", "kappa_e", "both"],
)
def test_delta2_g_homodyne_phase_rejects_params_outside_its_regime(params):
    p = replace(SystemParams(g=0.2, lambda_a=0.8, gamma_a=4.0, gamma_b=0.0), **params)
    with pytest.raises(ValueError, match="gamma_b = kappa_e = 0"):
        delta2_g_homodyne_phase(p, 0.0)


# --- mean-field critical drive ------------------------------------------------

def test_critical_lambda():
    p = SystemParams(g=0.5, lambda_a=0.1, gamma_a=2.0, gamma_b=0.6)
    assert critical_lambda(p) == pytest.approx(2.0 * 0.6 / 1.0, rel=1e-14)
    with pytest.raises(ValueError):
        critical_lambda(SystemParams(g=0.0, lambda_a=0.1, gamma_a=2.0, gamma_b=0.6))


# --- drive sensor ---------------------------------------------------------------

def test_lambda_sensor_identity_and_optimum():
    p = SystemParams(g=0.1, lambda_a=1.0, gamma_a=10.0, gamma_b=0.0, kappa_e=0.1)
    d2, d2_nb, opt = lambda_sensor(p)
    assert d2 == pytest.approx(5.1, rel=1e-14)
    assert d2 == pytest.approx(d2_nb, rel=1e-14)
    assert opt.g_opt == pytest.approx(math.sqrt(10.0 * 0.1 / 2.0), rel=1e-8)
    assert opt.value == pytest.approx(1.0 * math.sqrt(2.0 * 10.0 * 0.1), rel=1e-10)
    # the quoted optimal coupling gives a strictly larger uncertainty
    assert opt.stated_g == pytest.approx(math.sqrt(10.0 * 0.1))
    assert opt.value_at_stated_g == pytest.approx(1.5, rel=1e-12)
    assert opt.value_at_stated_g > opt.value


def test_lambda_sensor_has_no_interior_optimum_without_intrinsic_loss():
    # at kappa_e = 0 delta^2 lambda_a = lambda_a g falls without bound as g -> 0
    p = SystemParams(g=0.1, lambda_a=1.0, gamma_a=10.0, gamma_b=0.0)
    d2, d2_nb, opt = lambda_sensor(p)
    assert d2 == pytest.approx(0.1, rel=1e-14)
    assert d2 == pytest.approx(d2_nb, rel=1e-14)
    assert opt == SensorOptimum(0.0, 0.0, 0.0, 0.0, 0.0)


def test_lambda_sensor_requires_lossless_signal():
    with pytest.raises(ValueError):
        lambda_sensor(WORK)


def test_lambda_sensor_requires_a_positive_coupling():
    p = SystemParams(g=0.0, lambda_a=1.0, gamma_a=10.0, gamma_b=0.0, kappa_e=0.1)
    with pytest.raises(ValueError, match="g > 0"):
        lambda_sensor(p)


def test_lambda_sensor_undefined_at_zero_drive():
    # N_b = 0 there, so the lambda_a^2 / N_b route is 0/0
    p = SystemParams(g=0.1, lambda_a=0.0, gamma_a=10.0, gamma_b=0.0, kappa_e=0.1)
    with pytest.raises(ValueError, match="lambda_a != 0"):
        lambda_sensor(p)


@pytest.mark.parametrize("lambda_a", (0.01, 1.0, 3.0))
@pytest.mark.parametrize("gamma_a", (0.5, 2.0, 10.0))
@pytest.mark.parametrize("kappa_e", (1e-6, 1e-3, 0.1, 10.0))
def test_lambda_sensor_optimum_matches_scipy_bounded_minimizer(lambda_a, gamma_a, kappa_e):
    # scipy's bounded Brent minimizer on the same bracket and xatol is the reference
    from scipy.optimize import minimize_scalar

    p = SystemParams(g=0.1, lambda_a=lambda_a, gamma_a=gamma_a, gamma_b=0.0, kappa_e=kappa_e)
    opt = lambda_sensor(p)[2]
    ref = minimize_scalar(
        lambda g: lambda_a * (2 * g * g + gamma_a * kappa_e) / (2 * g),
        bounds=(1e-12, 10.0 * math.sqrt(gamma_a * kappa_e)),
        method="bounded",
        options={"xatol": 1e-12},
    )
    assert opt.value == pytest.approx(ref.fun, rel=1e-13)
    # the CLI's sensor_min_value_vs_stated bound
    assert abs(opt.value - opt.stated_value) <= 1e-10 * abs(opt.stated_value)
    assert opt.g_opt == pytest.approx(math.sqrt(gamma_a * kappa_e / 2.0), rel=1e-6)
