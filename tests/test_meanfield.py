"""Factorized steady states, stability, fluctuation moments."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdclab.analytic import critical_lambda, delta2_g
from pdclab.dynamics import SystemParams
from pdclab.errors import StabilityError
from pdclab.meanfield import (
    MeanFieldSolution,
    build_W,
    delta2_g_normal,
    fluct_moments_analytic,
    fluct_moments_lyapunov,
    mean_field_residual,
    steady_solutions,
)

SUB = SystemParams(g=1.0, lambda_a=0.1, gamma_a=10.0, gamma_b=1.0)
SUPER = SystemParams(g=1.0, lambda_a=1.0, gamma_a=1.0, gamma_b=1.0)


def subcritical_params(g, gamma_a, gamma_b, frac):
    lam_c = gamma_a * gamma_b / (2 * g)
    return SystemParams(g=g, lambda_a=frac * lam_c, gamma_a=gamma_a, gamma_b=gamma_b)


# --- steady branches -------------------------------------------------------------

def test_normal_branch_always_present():
    sols = steady_solutions(SUB)
    assert len(sols) == 1
    normal = sols[0]
    assert normal.branch == "normal"
    assert normal.amp_a == pytest.approx(SUB.lambda_a / SUB.gamma_a)
    assert normal.amp_b == 0.0
    assert mean_field_residual(SUB, normal) < 1e-14


def test_superradiant_pair_above_threshold():
    sols = steady_solutions(SUPER)
    assert [s.branch for s in sols] == [
        "normal",
        "superradiant_plus",
        "superradiant_minus",
    ]
    plus, minus = sols[1], sols[2]
    # pump amplitude pins to gamma_b / 2g
    assert plus.amp_a == pytest.approx(0.5, rel=1e-14)
    assert minus.amp_a == pytest.approx(0.5, rel=1e-14)
    s = math.sqrt(2 * 1.0 * 1.0 - 1.0) / 2.0
    assert plus.amp_b == pytest.approx(s - 1j * s, rel=1e-14)
    assert minus.amp_b == pytest.approx(-s + 1j * s, rel=1e-14)
    for sol in sols:
        assert mean_field_residual(SUPER, sol) < 1e-13


@settings(max_examples=40, deadline=None)
@given(
    g=st.floats(0.05, 2.0),
    gamma_a=st.floats(0.5, 8.0),
    gamma_b=st.floats(0.1, 4.0),
    boost=st.floats(1.05, 6.0),
)
def test_all_branches_are_exact_roots(g, gamma_a, gamma_b, boost):
    lam = boost * gamma_a * gamma_b / (2 * g)
    p = SystemParams(g=g, lambda_a=lam, gamma_a=gamma_a, gamma_b=gamma_b)
    sols = steady_solutions(p)
    assert len(sols) == 3
    for sol in sols:
        assert mean_field_residual(p, sol) < 1e-9 * max(1.0, lam)


# --- linear stability ------------------------------------------------------------

def test_normal_phase_stability_eigenvalues():
    report = build_W(SUB, steady_solutions(SUB)[0])
    assert report.stable and not report.marginal
    reals = np.sort(report.eigenvalues.real)
    assert reals == pytest.approx([-10.0, -10.0, -1.02, -0.98], rel=1e-12)


def test_phase_coherence_across_threshold():
    sols = steady_solutions(SUPER)
    assert not build_W(SUPER, sols[0]).stable
    assert build_W(SUPER, sols[1]).stable
    assert build_W(SUPER, sols[2]).stable


def test_marginal_flag_exactly_at_threshold():
    p = SystemParams(g=1.0, lambda_a=0.5, gamma_a=1.0, gamma_b=1.0)
    report = build_W(p, steady_solutions(p)[0])
    assert report.marginal
    assert not report.stable


def test_build_w_rejects_non_solution():
    with pytest.raises(ValueError):
        build_W(SUB, MeanFieldSolution(amp_a=99.0, amp_b=0.0, branch="normal"))


# --- fluctuation moments ----------------------------------------------------------

def test_fluct_moments_frozen_example():
    fm = fluct_moments_analytic(SystemParams(g=1.0, lambda_a=0.1, gamma_a=1.0, gamma_b=1.0))
    assert fm.n_fluct == pytest.approx(0.02083333333333334, rel=1e-14)
    assert fm.anom == pytest.approx(-0.10416666666666667j, rel=1e-14)
    assert fm.fourth == pytest.approx(0.03255208333333334, rel=1e-14)


@settings(max_examples=30, deadline=None)
@given(
    g=st.floats(0.05, 2.0),
    gamma_a=st.floats(0.5, 8.0),
    gamma_b=st.floats(0.1, 4.0),
    frac=st.floats(0.05, 0.9),
)
def test_fourth_moment_identity_zero_temperature(g, gamma_a, gamma_b, frac):
    p = subcritical_params(g, gamma_a, gamma_b, frac)
    fm = fluct_moments_analytic(p)
    g2l2 = (p.g * p.lambda_a) ** 2
    big_g = (p.gamma_a * p.gamma_b) ** 2
    delta = big_g - 4 * g2l2
    quoted = 3.0 * g2l2 * big_g / delta**2
    assert fm.fourth == pytest.approx(quoted, rel=1e-10)
    # assembled from second moments: 2 n^2 + n + |anom|^2
    assert fm.fourth == pytest.approx(
        2 * fm.n_fluct**2 + fm.n_fluct + abs(fm.anom) ** 2, rel=1e-12
    )


@settings(max_examples=25, deadline=None)
@given(
    g=st.floats(0.05, 2.0),
    gamma_a=st.floats(0.5, 8.0),
    gamma_b=st.floats(0.1, 4.0),
    frac=st.floats(0.05, 0.9),
    nbar=st.sampled_from([0.0, 0.5, 2.0]),
)
def test_lyapunov_route_matches_analytic(g, gamma_a, gamma_b, frac, nbar):
    p = replace(subcritical_params(g, gamma_a, gamma_b, frac), nbar=nbar)
    report = build_W(p, steady_solutions(p)[0])
    analytic_fm = fluct_moments_analytic(p)
    lyap_fm = fluct_moments_lyapunov(report, p)
    scale = max(1.0, analytic_fm.n_fluct)
    assert abs(lyap_fm.n_fluct - analytic_fm.n_fluct) < 1e-10 * scale
    assert abs(lyap_fm.anom - analytic_fm.anom) < 1e-10 * max(1.0, abs(analytic_fm.anom))
    assert abs(lyap_fm.fourth - analytic_fm.fourth) < 1e-9 * max(1.0, analytic_fm.fourth)


def test_lyapunov_thermal_fixed_point_without_coupling():
    p = SystemParams(g=0.0, lambda_a=0.0, gamma_a=2.0, gamma_b=1.0)
    report = build_W(p, steady_solutions(p)[0])
    fm = fluct_moments_lyapunov(report, replace(p, nbar=1.7))
    assert fm.n_fluct == pytest.approx(1.7, rel=1e-12)
    assert abs(fm.anom) < 1e-14


def test_fluctuation_moments_read_the_bath_from_params():
    p = SystemParams(g=0.4, lambda_a=0.5, gamma_a=2.0, gamma_b=1.5, nbar=2.0)
    g2l2 = (p.g * p.lambda_a) ** 2
    big_g = (p.gamma_a * p.gamma_b) ** 2
    delta = big_g - 4 * g2l2
    n_hand = (2 * g2l2 + big_g * p.nbar) / delta  # 2.045; 0.00905 in vacuum
    report = build_W(p, steady_solutions(p)[0])
    for fm in (fluct_moments_analytic(p), fluct_moments_lyapunov(report, p)):
        assert fm.n_fluct == pytest.approx(n_hand, rel=1e-12)
        assert fm.n_fluct == pytest.approx(2.0452488687782804, rel=1e-12)


def test_lyapunov_requires_stability():
    report = build_W(SUPER, steady_solutions(SUPER)[0])
    with pytest.raises(StabilityError):
        fluct_moments_lyapunov(report, SUPER)


# --- uncertainty routes -----------------------------------------------------------

def test_delta2_routes_agree_at_zero_temperature():
    p = SystemParams(g=1.0, lambda_a=0.2, gamma_a=1.0, gamma_b=1.0)
    printed = delta2_g("normal_phase", "photon", p)
    moments = delta2_g_normal(p)
    assert printed == pytest.approx(moments, rel=1e-6)


def test_delta2_supercritical_raises():
    with pytest.raises(StabilityError):
        delta2_g_normal(SUPER)


def test_delta2_routes_converge_at_criticality():
    g, gamma_a, gamma_b = 1.0, 1.0, 1.0
    lam_c = critical_lambda(SystemParams(g=g, lambda_a=1.0, gamma_a=gamma_a, gamma_b=gamma_b))
    p = SystemParams(g=g, lambda_a=0.9999 * lam_c, gamma_a=gamma_a, gamma_b=gamma_b)
    limit = (gamma_a * gamma_b - 2 * g * p.lambda_a) ** 2 / (2 * p.lambda_a**2)
    printed = delta2_g("normal_phase", "photon", p)
    moments = delta2_g_normal(p)
    assert printed == pytest.approx(limit, rel=2e-3)
    assert moments == pytest.approx(limit, rel=2e-3)
    # thermal occupation drops out in the critical limit
    warm = delta2_g("normal_phase", "photon", replace(p, nbar=5.0))
    assert warm == pytest.approx(printed, rel=5e-3)
