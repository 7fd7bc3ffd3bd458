import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import A_STAR
from lensshrinker import (MonitorViolation, NoCrossing, angle_of, arclength,
                          dop853, find_x0, integrate_profile, picard_analytic,
                          polar_monitors)
from lensshrinker.arclength import (DEFAULT_TOL, DEFECT_PER_TOL,
                                    MONITOR_SLACK_TOL, X_SEED,
                                    annulus_log_halfwidth, curvature_arrays,
                                    monitor_slacks, profile_summary,
                                    profile_to_csv, seed_quadratures,
                                    shrinker_residual, transversality_floor)
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


def test_no_crossing_before_the_arclength_cap(monkeypatch):
    # the circle crosses at s_bar = pi / sqrt(2) ~ 2.22, past s0 + 1
    monkeypatch.setattr(arclength, "ARCLENGTH_HARD_CAP", 1.0)
    with pytest.raises(NoCrossing, match="arclength cap"):
        integrate_profile(picard_analytic(SQRT2, R_STAR), SQRT2)


def test_a_crossing_above_the_event_tolerance_raises(monkeypatch):
    # |v(s_bar)| is at least 0, so no crossing meets a negative tolerance
    monkeypatch.setattr(arclength, "EVENT_TOL", -1.0)
    with pytest.raises(NoCrossing, match="crossing refinement"):
        integrate_profile(picard_analytic(SQRT2, R_STAR), SQRT2)


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
    rows = polar_monitors(p, a).to_json_list()
    assert all(r["pass"] for r in rows)
    assert [r["monitor_id"] for r in rows] == [
        "radial_transversality_global", "annulus_upper", "theta_decreasing"]
    assert all(r["worst_slack"] == p.monitors[r["monitor_id"]] for r in rows)


def test_one_table_holds_every_monitor(profiles):
    _, p = profiles[1.0]
    assert set(p.monitors) == {
        "radial_transversality_global", "annulus_upper", "theta_decreasing",
        "shrinker_residual", "graph_height_lower", "graph_height_upper",
        "graph_slope_lower", "graph_ratio_monotone", "graph_concavity",
        "graph_slope_negative", "graph_transversality"}
    assert monitor_slacks(p, DEFAULT_TOL, shrinker_residual(p)) == p.monitors


def test_readme_tables_list_every_monitor(profiles):
    # the backticked first cells of README's two monitor tables
    readme = Path(__file__).resolve().parents[1] / "README.md"
    names, tables, in_table = set(), 0, False
    for line in readme.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line == "| monitor | inequality | states |":
            tables, in_table = tables + 1, True
        elif not line.startswith("|"):
            in_table = False
        elif in_table and line.startswith("| `"):
            names.add(line.split("`")[1])
    assert tables == 2
    assert names == set(profiles[1.0][1].monitors)


def _failing(profile) -> set:
    """Monitors a perturbed copy fails, apart from the ODE defect, which
    every state moved off the ODE fails by design."""
    slacks = monitor_slacks(profile, DEFAULT_TOL, shrinker_residual(profile))
    return {k for k, v in slacks.items()
            if v < MONITOR_SLACK_TOL and k != "shrinker_residual"}


def _with(p, i, **state):
    """Copy of p whose state i takes the given u, v, up or vp values."""
    arrays = {k: getattr(p, k).copy() for k in state}
    for k, value in state.items():
        arrays[k][i] = value
    return dataclasses.replace(p, **arrays)


def _shift_v(dv):
    return lambda p, i: _with(p, i, v=p.v[i] + dv)


def _turn(dphi):
    def perturb(p, i):
        phi = math.atan2(p.vp[i], p.up[i]) + dphi
        return _with(p, i, up=math.cos(phi), vp=math.sin(phi))
    return perturb


def _swapped(p, i):
    """p with states i and i + 1 swapped."""
    q = _with(p, i, u=p.u[i + 1], v=p.v[i + 1])
    return _with(q, i + 1, u=p.u[i], v=p.v[i])


# one control per monitor: (monitor, a, the state is the first with u above
# this, perturbation of that state); shrinker_residual's is
# test_defect_fails_a_profile_with_a_wrong_rhs
CONTROLS = [
    ("radial_transversality_global", 1.0, 1.45, _turn(1.0)),
    # one state 40x farther out, same angle
    ("annulus_upper", 1.0, 1.2,
     lambda p, i: _with(p, i, u=40.0 * p.u[i], v=40.0 * p.v[i])),
    ("theta_decreasing", 1.0, 1.2, _swapped),
    ("graph_height_lower", 1.0, 0.0, _shift_v(-1e-6)),
    ("graph_height_upper", 1.0, 0.0, _shift_v(4e-7)),
    ("graph_slope_lower", 1.0, 0.0, _turn(-0.01)),
    ("graph_ratio_monotone", 1.0, 0.0025, _shift_v(-1e-6)),
    ("graph_concavity", 1.0, 0.47, _turn(-0.3)),
    # the seed is the one state the merged slope bound alone sees
    ("graph_slope_negative", 1.0, 0.0, lambda p, i: _with(p, i, vp=1e-6)),
    ("graph_transversality", 0.1, 0.2, _turn(0.01)),
]


@pytest.mark.parametrize("target, a, u_min, perturb", CONTROLS,
                         ids=[row[0] for row in CONTROLS])
def test_monitor_fails_alone(target, a, u_min, perturb, profiles):
    _, p = profiles[a]
    i = int(np.argmax(p.u > u_min))
    assert _failing(perturb(p, i)) == {target}


def test_every_monitor_has_a_control(profiles):
    controlled = {row[0] for row in CONTROLS} | {"shrinker_residual"}
    assert controlled == set(profiles[1.0][1].monitors)


def test_theta_decreasing_sees_a_slow_drift(profiles):
    # ten states, each 5e-10 rad above the one before: every adjacent step
    # is within the tolerance, the rise over all ten is not
    _, p = profiles[1.0]
    i = int(np.argmax(p.u > 1.2))
    k = np.arange(i + 1, i + 11)
    rho = np.hypot(p.u[k], p.v[k])
    theta = math.atan2(p.v[i], p.u[i]) + 5e-10 * (k - i)
    drifted = _with(p, k, u=rho * np.cos(theta), v=rho * np.sin(theta))
    assert _failing(drifted) == {"theta_decreasing"}
    slacks = monitor_slacks(drifted, DEFAULT_TOL, shrinker_residual(drifted))
    assert slacks["theta_decreasing"] == pytest.approx(-5e-9, rel=1e-3)


def test_graph_ratio_monotone_sees_a_slow_drift(profiles):
    # states 2..11 each 5e-10 below the one before in F = f / sqrt(1 - x^2):
    # every adjacent step is within the tolerance, the fall over all ten is not
    _, p = profiles[1.0]
    k = np.arange(2, 12)
    ratio = p.v[1] / math.sqrt(1.0 - p.u[1] ** 2) - 5e-10 * (k - 1)
    drifted = _with(p, k, v=ratio * np.sqrt(1.0 - p.u[k] ** 2))
    assert _failing(drifted) == {"graph_ratio_monotone"}
    slacks = monitor_slacks(drifted, DEFAULT_TOL, shrinker_residual(drifted))
    assert slacks["graph_ratio_monotone"] == pytest.approx(-5e-9, rel=1e-3)


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


def test_small_height_floors_underflow_gracefully():
    assert annulus_log_halfwidth(1e-3) > 100.0


# ---------------------------------------------------------------------------
# residual, drift, small-height crossing
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("a", A_SUITE)
def test_shrinker_residual_small(a, profiles):
    _, p = profiles[a]
    assert np.max(np.abs(shrinker_residual(p))) < 1e-8


def test_defect_fails_a_profile_with_a_wrong_rhs(monkeypatch, profiles):
    # phi' off by 1e-6 passes every geometric monitor; only the defect sees
    # it.  The skew goes into the source form, which the stage code inlines
    form = arclength.ANGLE_FORM
    rates = list(form.rates)
    rates[2] = f"({rates[2]}) * (1.0 + 1e-6)"
    skewed = dop853.rhs(form.time, " ".join(form.state), form.body, rates)
    monkeypatch.setattr(arclength, "ANGLE_FORM", skewed)
    with pytest.raises(MonitorViolation) as err:
        angle_of(1.0)
    message = str(err.value)
    assert "'shrinker_residual'" in message
    others = set(profiles[1.0][1].monitors) - {"shrinker_residual"}
    assert not [name for name in others if f"'{name}'" in message]


def test_a_nan_monitor_slack_fails_the_solve(monkeypatch):
    slacks = arclength.monitor_slacks

    def one_nan(*args):
        return {**slacks(*args), "annulus_upper": math.nan}

    monkeypatch.setattr(arclength, "monitor_slacks", one_nan)
    with pytest.raises(MonitorViolation, match="'annulus_upper': nan"):
        integrate_profile(picard_analytic(1.0, R_STAR), 1.0)


@pytest.mark.parametrize("a", [0.005, A_STAR, SQRT2])
def test_a_solve_evaluates_its_dense_output_once(a, monkeypatch):
    # the states and the defect's rates come from one vectorized pass
    calls = []
    horner_at = dop853.DenseOutput._horner_at

    def counted(self, t):
        calls.append(len(t))
        return horner_at(self, t)

    monkeypatch.setattr(dop853.DenseOutput, "_horner_at", counted)
    p = integrate_profile(picard_analytic(a, R_STAR), a)
    assert calls == [len(p.s)]


@pytest.mark.parametrize("a", [1e-160, 0.005, A_STAR, SQRT2])
def test_the_defect_monitor_is_the_worst_shrinker_residual(a):
    # the solve's defect, from the pass that gives the states, is
    # shrinker_residual's to the bit; the states at the axis and at the
    # seed are the exact axis point and series seed
    h = picard_analytic(a, R_STAR)
    p = integrate_profile(h, a)
    assert (DEFECT_PER_TOL * DEFAULT_TOL - np.max(shrinker_residual(p))
            == p.monitors["shrinker_residual"])
    s0, iphi0, iv0 = seed_quadratures(h, a, X_SEED)
    phi = np.array([0.0, math.atan(h.deriv(X_SEED))])
    assert p.s[1] == s0
    for got, want in ((p.u, [0.0, X_SEED]), (p.v, [a, a + h(X_SEED)]),
                      (p.up, np.cos(phi)), (p.vp, np.sin(phi)),
                      (p.i_phi, [0.0, iphi0]), (p.i_v, [0.0, iv0])):
        assert got[:2].tobytes() == np.array(want).tobytes()


def test_defect_sees_a_dense_output_off_the_ode(profiles):
    _, p = profiles[1.0]
    d = p.dense
    v_up = np.array([1.0, 1.01, 1.0, 1.0, 1.0])  # the v rows scaled by 1.01
    bent = dataclasses.replace(
        p, dense=dataclasses.replace(d, y_old=d.y_old * v_up, F=d.F * v_up))
    assert np.max(shrinker_residual(bent)) > 1e-3


def test_a_profile_and_its_dense_output_are_read_only():
    # one profile goes to many readers, so no reader may change its arrays
    _, p = angle_of(0.9)
    for name in ("s", "u", "v", "up", "vp", "i_phi", "i_v"):
        array = getattr(p, name)
        with pytest.raises(ValueError, match="read-only"):
            array[3] = 7.0
        with pytest.raises(ValueError, match="read-only"):
            array += 1.0
    for name in ("ts", "h", "y_old", "F"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(p.dense, name)[0] = 7.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.u = p.u.copy()
    # a changed copy is still made by replace, and leaves p as it was
    u = p.u.copy()
    u[3] = 7.0
    q = dataclasses.replace(p, u=u)
    assert q.u[3] == 7.0 and p.u[3] != 7.0 and q.dense is p.dense


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


@pytest.mark.parametrize("a", [0.0, -0.5, math.nan, math.inf])
def test_integrate_profile_rejects_a_height_that_is_not_positive_and_finite(a):
    with pytest.raises(ValueError, match="positive and finite"):
        integrate_profile(picard_analytic(0.5, R_STAR), a)


def test_small_height_crossing_near_x0():
    x0 = find_x0()
    p = integrate_profile(picard_analytic(0.01, R_STAR), 0.01)
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
