import math
from pathlib import Path

import numpy as np
import pytest

from conftest import A_STAR
from lensshrinker import (MonitorViolation, NoCrossing, angle_of, arclength,
                          dop853, find_x0, integrate_profile, picard_analytic,
                          polar_monitors, series, shooting)
from lensshrinker.arclength import (DEFAULT_TOL, DEFECT_PER_TOL,
                                    MONITOR_SLACK_TOL, X_SEED,
                                    annulus_log_halfwidth, curvature_arrays,
                                    dense_pass, profile_summary,
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
    assert dense_pass(p.dense, p.a, DEFAULT_TOL)[0] == p.monitors


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


def _slacks(profile) -> dict:
    """The worst slack of each monitor that integrate_profile's pass reads
    off the profile's dense output."""
    return dense_pass(profile.dense, profile.a, DEFAULT_TOL)[0]


def _failing(profile) -> set:
    """Monitors a perturbed copy fails, apart from the ODE defect, which
    every state moved off the ODE fails by design."""
    return {k for k, v in _slacks(profile).items()
            if v < MONITOR_SLACK_TOL and k != "shrinker_residual"}


def _ends(p):
    """(u, v, phi) at the end of each piece of p's dense output: its old
    state plus its row 0, the pass's bits."""
    return p.dense.y_old[:, :3] + p.dense.F[:, 0, :3]


def _held(p, pieces, **state):
    """Copy of p whose dense output holds each piece of pieces at one
    state, so that the pass sees every stored state on the piece there:
    the piece's end state with the given u, v or phi (numbers, or arrays
    over pieces), and rows of zeros."""
    y_old, F = p.dense.y_old.copy(), p.dense.F.copy()
    y_old[pieces] += F[pieces, 0]
    for name, value in state.items():
        y_old[pieces, ("u", "v", "phi").index(name)] = value
    F[pieces] = 0.0
    return p._replace(dense=p.dense._replace(y_old=y_old.ravel().tolist(),
                                             F=F.ravel().tolist()))


def _shift_v(dv):
    return lambda p, k: _held(p, k, v=_ends(p)[k, 1] + dv)


def _turn(dphi):
    return lambda p, k: _held(p, k, phi=_ends(p)[k, 2] + dphi)


def _back(p, k):
    """p with piece k held where piece k - 1 starts, at its own tangent."""
    u, v, _ = _ends(p)[k - 2]
    return _held(p, k, u=u, v=v)


def _ratio_below(p, k):
    """p with piece k held 1e-6 below the F = f / sqrt(1 - x^2) at the end
    of piece k - 1."""
    (u0, v0, _), (u, _, _) = _ends(p)[k - 1:k + 1]
    return _held(p, k, v=(v0 / math.sqrt(1.0 - u0 * u0) - 1e-6)
                 * math.sqrt(1.0 - u * u))


# one control per monitor: (monitor, a, the piece is the first whose end
# has u above this, perturbation of that piece); shrinker_residual's is
# test_defect_fails_a_profile_with_a_wrong_rhs
CONTROLS = [
    ("radial_transversality_global", 1.0, 1.45, _turn(1.0)),
    # one piece held 40x farther out, same angle
    ("annulus_upper", 1.0, 1.2,
     lambda p, k: _held(p, k, u=40.0 * _ends(p)[k, 0],
                        v=40.0 * _ends(p)[k, 1])),
    ("theta_decreasing", 1.0, 1.3, _back),
    ("graph_height_lower", 1.0, 0.0, _shift_v(-1e-6)),
    ("graph_height_upper", 1.0, 0.0, _shift_v(4e-7)),
    ("graph_slope_lower", 1.0, 0.0, _turn(-0.01)),
    ("graph_ratio_monotone", 1.0, 0.01, _ratio_below),
    ("graph_concavity", 1.0, 0.5, _turn(-0.4)),
    # the seed is the one state the merged slope bound alone sees
    ("graph_slope_negative", 1.0, 0.0, lambda p, k: _held(p, k, phi=1e-6)),
    ("graph_transversality", 0.1, 0.2, _turn(0.01)),
]


@pytest.mark.parametrize("target, a, u_min, perturb", CONTROLS,
                         ids=[row[0] for row in CONTROLS])
def test_monitor_fails_alone(target, a, u_min, perturb, profiles):
    _, p = profiles[a]
    k = int(np.argmax(_ends(p)[:, 0] > u_min))
    assert _failing(perturb(p, k)) == {target}


def test_every_monitor_has_a_control(profiles):
    controlled = {row[0] for row in CONTROLS} | {"shrinker_residual"}
    assert controlled == set(profiles[1.0][1].monitors)


def test_theta_decreasing_sees_a_slow_drift(profiles):
    # the four pieces after piece i held at the end of piece i, each turned
    # 5e-10 rad above the one before about the origin: every adjacent step
    # is within the tolerance, the rise over all four is not
    _, p = profiles[1.0]
    ends = _ends(p)
    i = int(np.argmax(ends[:, 0] > 1.0))
    k = np.arange(i + 1, i + 5)
    u, v, phi = ends[i]
    theta = math.atan2(v, u) + 5e-10 * (k - i)
    drifted = _held(p, k, u=math.hypot(u, v) * np.cos(theta),
                    v=math.hypot(u, v) * np.sin(theta), phi=phi)
    assert _failing(drifted) == {"theta_decreasing"}
    assert _slacks(drifted)["theta_decreasing"] == pytest.approx(-2e-9,
                                                                 rel=1e-3)


def test_graph_ratio_monotone_sees_a_slow_drift(profiles):
    # pieces 1..10 held at the seed, each 5e-10 below the one before in
    # F = f / sqrt(1 - x^2): every adjacent step is within the tolerance,
    # the fall over all ten is not
    _, p = profiles[1.0]
    k = np.arange(1, 11)
    u, v, phi = _ends(p)[0]
    root = math.sqrt(1.0 - u * u)
    drifted = _held(p, k, u=u, v=(v / root - 5e-10 * k) * root, phi=phi)
    assert _failing(drifted) == {"graph_ratio_monotone"}
    assert _slacks(drifted)["graph_ratio_monotone"] == pytest.approx(
        -5e-9, rel=1e-3)


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
    # a NaN band makes the annulus slack NaN, which no comparison passes
    monkeypatch.setattr(arclength, "annulus_log_halfwidth",
                        lambda a: math.nan)
    with pytest.raises(MonitorViolation, match="'annulus_upper': nan"):
        integrate_profile(picard_analytic(1.0, R_STAR), 1.0)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_a_state_that_is_not_finite_makes_every_slack_nan(value, profiles):
    # the folds' comparisons would pass over a NaN, so the sum of every
    # state and defect decides
    _, p = profiles[1.0]
    slacks = _slacks(_held(p, 5, v=value))
    assert all(math.isnan(x) for x in slacks.values())
    assert set(slacks) == set(p.monitors)
    # a row that is not finite makes the rates, and so the defect, at the
    # piece's end not finite (and its interior states too)
    F = p.dense.F.copy()
    F[5, 1, 0] = value
    bent = p._replace(dense=p.dense._replace(F=F.ravel().tolist()))
    assert all(math.isnan(x) for x in _slacks(bent).values())


@pytest.mark.parametrize("a", [0.005, A_STAR, SQRT2])
def test_a_solve_evaluates_its_dense_output_once(a, monkeypatch):
    # the solve's monitors come from one pass over the pieces, which keeps
    # no state; the arrays and the defect from one more, which keeps them,
    # on the first read; and nothing makes a vectorized (numpy) evaluation
    calls = []
    plain = arclength.dense_pass

    def counted(*args, **kwargs):
        out = plain(*args, **kwargs)
        calls.append(len(out[-1][0]))
        return out

    def vectorized(self, t):
        raise AssertionError("a vectorized evaluation")

    monkeypatch.setattr(arclength, "dense_pass", counted)
    monkeypatch.setattr(dop853.DenseOutput, "_horner_at", vectorized)
    p = integrate_profile(picard_analytic(a, R_STAR), a)
    assert calls == [0]
    curvature_arrays(p)
    shrinker_residual(p)
    assert calls == [0, len(p.s)]


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
    bent = p._replace(dense=d._replace(
        y_old=(d.y_old * v_up).ravel().tolist(),
        F=(d.F * v_up).ravel().tolist()))
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
    u = p.u
    with pytest.raises(AttributeError):
        p.u = p.u.copy()
    assert p.u is u
    # the states derive from the dense output alone, so no changed copy
    # takes states of its own
    with pytest.raises(ValueError, match="unexpected field names"):
        p._replace(u=u.copy())


def _records() -> dict:
    # one of each record of the profile path, by its class's name
    _, p = angle_of(0.9)
    constants = series.derive_contraction_constants(0.9, R_STAR)
    row = shooting.AngleSample(0.9, p.s_bar, p.xi, p.alpha)
    records = [p, p.dense, p.series, constants,
               series.contraction_certificate(constants),
               polar_monitors(p, 0.9), shooting.PipelineConfig(), row,
               shooting.AngleTable([row], []),
               shooting.ShootReport([row], 0.9, 0.0, [], p)]
    return {type(r).__name__: r for r in records}


@pytest.mark.parametrize("name", [
    "LensProfile", "DenseOutput", "EvenSeries", "ContractionConstants",
    "CertificateReport", "PolarReport", "PipelineConfig", "AngleSample",
    "AngleTable", "ShootReport"])
def test_a_record_refuses_assignment_to_each_field(name):
    # a record passes from solve to reader unchanged: writing any field
    # raises and leaves the value as it was
    record = _records()[name]
    for field in record._fields:
        value = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, 7.0)
        assert getattr(record, field) is value


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
