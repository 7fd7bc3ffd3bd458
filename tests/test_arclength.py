import dataclasses
import math

import numpy as np
import pytest

from lensshrinker import (MonitorViolation, angle_of, arclength, find_x0,
                          integrate_profile, picard_analytic, polar_monitors,
                          seed_from_series)
from lensshrinker.arclength import (annulus_log_halfwidth, curvature_arrays,
                                    profile_summary, profile_to_csv,
                                    shrinker_residual, transversality_floor,
                                    turning_floor)
from lensshrinker.series import R_STAR

SQRT2 = math.sqrt(2.0)
A_SUITE = (0.1, 0.5, 1.0, SQRT2)


# ---------------------------------------------------------------------------
# circle regression through the full pipeline
# ---------------------------------------------------------------------------

def test_circle_crossing_data(circle_profile):
    p = circle_profile
    assert p.s_bar == pytest.approx(math.pi / SQRT2, abs=1e-8)
    assert p.xi == pytest.approx(SQRT2, abs=1e-8)
    assert p.up[-1] == pytest.approx(0.0, abs=1e-8)
    assert p.vp[-1] == pytest.approx(-1.0, abs=1e-8)
    assert p.alpha == pytest.approx(-math.pi / 2.0, abs=1e-8)
    assert p.v_residual < 1e-10


def test_circle_whole_curve_regression(circle_profile):
    p = circle_profile
    dev = np.hypot(p.u - SQRT2 * np.sin(p.s / SQRT2),
                   p.v - SQRT2 * np.cos(p.s / SQRT2))
    assert np.max(dev) < 1e-8


def test_circle_curvature_constant(circle_profile):
    k_alg, k_var, k_int = curvature_arrays(circle_profile)
    assert np.max(np.abs(k_alg + 1.0 / SQRT2)) < 1e-9
    assert np.max(np.abs(k_var + 1.0 / SQRT2)) < 1e-9
    assert np.max(np.abs(k_int + 1.0 / SQRT2)) < 1e-9


def test_curvature_formula_on_exact_circle_states():
    # symbolic check of the algebraic form on the exact solution
    t = np.linspace(0.1, math.pi / 2.0 - 0.1, 25)
    u, v = SQRT2 * np.sin(t), SQRT2 * np.cos(t)
    up, vp = np.cos(t), -np.sin(t)
    k = -vp / u + u * vp - v * up
    assert np.allclose(k, -1.0 / SQRT2, rtol=1e-14)


def test_s_star_on_circle(circle_profile):
    # u = sqrt(2) sin(s/sqrt2) passes 1 at s = sqrt(2) asin(1/sqrt2)
    assert circle_profile.s_star == pytest.approx(
        SQRT2 * math.asin(1.0 / SQRT2), abs=1e-9)


# ---------------------------------------------------------------------------
# curvature identities and axis limit
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("a", A_SUITE)
def test_curvature_identities_along_profiles(a, profiles):
    _, p = profiles[a]
    k_alg, k_var, k_int = curvature_arrays(p)
    assert np.max(np.abs(k_alg - k_int)) < 1e-8
    assert np.max(np.abs(k_alg - k_var)) < 1e-8


@pytest.mark.parametrize("a", A_SUITE)
def test_curvature_axis_limit(a, profiles):
    _, p = profiles[a]
    # exact limit from the series seed
    h = picard_analytic(a, R_STAR)
    assert h.deriv2(0.0) == pytest.approx(-a / 2.0, abs=1e-14)
    # and the first computed state (the seed; the axis state is skipped)
    # agrees to the seed-abscissa resolution
    k_alg, k_var, k_int = (k[0] for k in curvature_arrays(p))
    assert k_alg == pytest.approx(-a / 2.0, abs=1e-4)
    assert k_var == pytest.approx(-a / 2.0, abs=1e-4)


def test_curvature_rejects_axis_state(circle_profile):
    # the 1/u forms are undefined on the axis, so the axis state is left out
    p = circle_profile
    assert p.u[0] == 0.0 and np.all(p.u[1:] > 0.0)
    assert all(len(k) == len(p.s) - 1 for k in curvature_arrays(p))


# ---------------------------------------------------------------------------
# polar monitors
# ---------------------------------------------------------------------------

def test_transversality_floor_value_at_one():
    # (pi sqrt(e) / 8) e^{-1/2} = pi / 8
    assert transversality_floor(1.0) == pytest.approx(math.pi / 8.0, rel=1e-14)


@pytest.mark.parametrize("a", [0.1, 1.0, SQRT2])
def test_graph_floor_dominates_global_floor(a):
    assert a / (1.0 + a * a) > transversality_floor(a)


@pytest.mark.parametrize("a", A_SUITE)
def test_polar_monitors_pass(a, profiles):
    _, p = profiles[a]
    report = polar_monitors(p, a)
    assert report.all_passed
    rows = report.to_json_list()
    assert {r["monitor_id"] for r in rows} == {
        "radial_transversality_global", "radial_transversality_graph",
        "radial_speed_cone", "annulus_lower", "annulus_upper",
        "turning_rate", "theta_decreasing"}


def test_theta_runs_from_half_pi_to_zero(profiles):
    for a in A_SUITE:
        _, p = profiles[a]
        theta = np.arctan2(p.v, p.u)
        assert theta[0] == pytest.approx(math.pi / 2.0, abs=1e-12)
        assert abs(theta[-1]) < 1e-9
        assert np.all(np.diff(theta) < 0.0)  # injectivity certificate


def test_rho_stays_in_annulus(profiles):
    for a in A_SUITE:
        _, p = profiles[a]
        rho = np.hypot(p.u, p.v)
        band = annulus_log_halfwidth(a)
        assert np.all(np.log(rho) > -band)
        assert np.all(np.log(rho) < band)


def test_turning_floor_positive_and_consistent(profiles):
    for a in (0.5, 1.0, SQRT2):
        _, p = profiles[a]
        c_a = turning_floor(a)
        assert c_a > 0.0
        assert p.s_bar < math.pi / (2.0 * c_a)


def test_small_height_floors_underflow_gracefully():
    assert turning_floor(1e-3) == 0.0
    assert annulus_log_halfwidth(1e-3) > 100.0


# ---------------------------------------------------------------------------
# residual, drift, small-height crossing
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("a", A_SUITE)
def test_shrinker_residual_small(a, profiles):
    _, p = profiles[a]
    assert np.max(np.abs(shrinker_residual(p))) < 1e-8


def test_defect_fails_a_profile_with_a_wrong_rhs(monkeypatch, profiles):
    # phi' off by 1e-6 passes every geometric monitor; only the defect sees it
    rhs = arclength.arclength_rhs

    def skewed(s, y):
        f = rhs(s, y)
        f[2] *= 1.0 + 1e-6
        return f

    monkeypatch.setattr(arclength, "arclength_rhs", skewed)
    with pytest.raises(MonitorViolation) as err:
        angle_of(1.0)
    message = str(err.value)
    assert "'shrinker_residual'" in message
    others = set(profiles[1.0][1].monitors) - {"shrinker_residual"}
    assert not [name for name in others if f"'{name}'" in message]


def test_defect_sees_a_dense_output_off_the_ode(profiles):
    _, p = profiles[1.0]
    d = p.dense
    v_up = np.array([1.0, 1.01, 1.0, 1.0, 1.0])  # the v rows scaled by 1.01
    bent = dataclasses.replace(
        p, dense=dataclasses.replace(d, y_old=d.y_old * v_up, F=d.F * v_up))
    assert np.max(shrinker_residual(bent)) > 1e-3


@pytest.mark.parametrize("a", A_SUITE)
def test_unit_speed_drift(a, profiles):
    # the tangent is (cos phi, sin phi), so unit speed holds to roundoff
    _, p = profiles[a]
    assert np.max(np.abs(p.up ** 2 + p.vp ** 2 - 1.0)) < 1e-15


@pytest.mark.parametrize("a", A_SUITE)
def test_profile_stays_in_open_quadrant(a, profiles):
    _, p = profiles[a]
    assert np.all(p.v[:-1] > 0.0)
    assert abs(p.v[-1]) < 1e-10
    assert np.all(p.u[1:] > 0.0)
    assert p.u[0] == 0.0
    assert (p.v[0], p.up[0], p.vp[0]) == (a, 1.0, 0.0)
    assert np.all(np.diff(p.s) > 0.0)


def test_small_height_crossing_near_x0():
    x0 = find_x0()
    h = picard_analytic(0.01, R_STAR)
    seed = seed_from_series(h, 0.01, 1e-3)
    p = integrate_profile(seed, 0.01, h)
    assert abs(p.xi - x0) < 0.05
    assert -0.2 < p.alpha < 0.0


def test_profile_exports(tmp_path, profiles):
    _, p = profiles[1.0]
    path = tmp_path / "profile.csv"
    profile_to_csv(p, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "s,u,v,up,vp,k_alg,k_int,rho,theta,residual_shrinker"
    assert len(lines) == int(np.sum(p.u > 0.0)) + 1
    summary = profile_summary(p)
    assert set(summary) == {"a", "s_bar", "s_star", "xi_a", "alpha", "monitors"}
    assert summary["xi_a"] == p.xi
