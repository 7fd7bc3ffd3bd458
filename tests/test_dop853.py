"""The in-repo DOP853 against scipy's solve_ivp as an independent reference."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from conftest import A_STAR
from lensshrinker import PipelineConfig, angle_of, arclength, dop853
from lensshrinker.arclength import (X_SEED, integrate_profile, profile_summary,
                                    seed_quadratures)
from lensshrinker.cluster import resample_profile
from lensshrinker.dop853 import _brentq, _horner, _horner_column
from lensshrinker.errors import StepFailure

SQRT2 = math.sqrt(2.0)
HEIGHTS = [float(a) for a in np.geomspace(0.005, SQRT2, 11)]
EPS = np.finfo(float).eps


def _scipy_solve(profile, cfg):
    """solve_ivp from the series at X_SEED, with the arclength cap and the
    events of integrate_profile."""
    a, h = profile.a, profile.series
    s0, iphi0, iv0 = seed_quadratures(h, a, X_SEED)
    s_max = s0 + arclength.ARCLENGTH_HARD_CAP

    def crossing(s, y):
        return y[1]

    def u_passes_one(s, y):
        return y[0] - 1.0

    crossing.terminal, crossing.direction = True, -1
    u_passes_one.direction = 1
    return solve_ivp(arclength.arclength_rhs, (s0, s_max),
                     [X_SEED, a + h(X_SEED), math.atan(h.deriv(X_SEED)),
                      iphi0, iv0],
                     method="DOP853", rtol=cfg.ode_tol, atol=cfg.ode_tol,
                     dense_output=True, events=[crossing, u_passes_one])


@pytest.mark.parametrize("a", HEIGHTS)
def test_matches_scipy_dop853(a):
    cfg = PipelineConfig()
    _, p = angle_of(a, cfg)
    ref = _scipy_solve(p, cfg)
    assert ref.status == 1
    steps = p.dense.ts[1:]  # breakpoint 0 is the axis
    # accepted steps up to the crossing step, bit for bit
    assert len(steps) == len(ref.t) == p.n_steps + 1
    assert np.array_equal(steps[:-1], ref.t[:-1])
    assert p.nfev == ref.nfev
    s_bar, s_star = ref.t_events[0][0], ref.t_events[1][0]
    assert abs(p.s_bar - s_bar) <= 4 * EPS * s_bar
    assert abs(p.s_star - s_star) <= 4 * EPS * s_bar
    assert abs(p.alpha - ref.y_events[0][0][2]) <= 1e-15
    assert abs(p.xi - ref.y_events[0][0][0]) <= 1e-15
    # the evidence behind the constant crossing bound arclength.EVENT_TOL
    assert p.v_residual <= 1e-15
    # dense states on the profile grid of every step before the crossing step
    head = slice(1, 1 + (p.n_steps - 1) * (arclength.DENSE_POINTS_PER_STEP + 1))
    u, v, phi, i_phi, i_v = ref.sol(p.s[head])
    for got, want in ((p.u, u), (p.v, v), (p.up, np.cos(phi)),
                      (p.vp, np.sin(phi)), (p.i_phi, i_phi), (p.i_v, i_v)):
        assert np.array_equal(got[head], want)


def test_nfev_counts_every_rhs_call(monkeypatch):
    calls = []
    rhs = arclength.arclength_rhs

    def counting_rhs(s, y):
        calls.append(s)
        return rhs(s, y)

    monkeypatch.setattr(arclength, "arclength_rhs", counting_rhs)
    _, p = angle_of(0.786004)
    assert p.nfev == len(calls) > 0
    assert p.n_steps > 0 and p.n_rejected >= 0
    # the counters stay out of the reproducible summary
    assert set(profile_summary(p)) == {"a", "s_bar", "s_star", "xi_a",
                                       "alpha", "monitors"}


@pytest.mark.parametrize("a, counters", [
    (0.05, (317, 17, 5)), (A_STAR, (410, 24, 4)), (SQRT2, (455, 27, 4))])
def test_work_counters_are_pinned(a, counters):
    # (nfev, n_steps, n_rejected) at the default tolerance, as absolute
    # numbers: test_matches_scipy_dop853 already ties nfev and the steps to
    # scipy's, so this adds n_rejected and catches a change that moves both
    # sides alike
    _, p = angle_of(a)
    assert (p.nfev, p.n_steps, p.n_rejected) == counters


@pytest.mark.parametrize("a, hexes", [
    (0.05, ("-0x1.26ef2714bb8a4p-4", "0x1.c7349d85c9343p+0",
            "0x1.000801d8a92e2p+0", "0x1.c6f01efcc580bp+0")),
    (A_STAR, ("-0x1.0c152382d7367p+0", "0x1.e984a8d2f0c57p+0",
              "0x1.080505b03bed9p+0", "0x1.a76c4fc34054cp+0")),
    (SQRT2, ("-0x1.921fb544417a6p+0", "0x1.1c5831add5dfbp+1",
             "0x1.1c5831add6338p+0", "0x1.6a09e667fcf1ep+0"))])
def test_profile_bits_are_pinned(a, hexes):
    # (alpha, s_bar, s_star, xi) to the last bit: a change in the order of
    # any float operation of a step or an event root moves one of them
    alpha, p = angle_of(a)
    assert alpha == p.alpha
    assert tuple(float(x).hex() for x in (p.alpha, p.s_bar, p.s_star,
                                          p.xi)) == hexes


def test_a_star_is_pinned(lens_report):
    assert lens_report.a_star == A_STAR


@pytest.mark.parametrize("tol", [1e-14, 99 * EPS, math.nan, math.inf, -1.0])
def test_rejects_tolerances_outside_the_floor(tol):
    with pytest.raises(ValueError, match="floor"):
        dop853.integrate(lambda t, y: [-y[0]], 0.0, [1.0], 1.0, tol=tol)


def test_rtol_floor_is_admitted_and_tightened_100_fails_loudly():
    sol = dop853.integrate(lambda t, y: [-y[0]], 0.0, [1.0], 1.0,
                           tol=dop853.RTOL_FLOOR)
    assert sol.dense(np.array([1.0]))[0, 0] == pytest.approx(math.exp(-1.0),
                                                             rel=1e-13)
    with pytest.raises(ValueError, match="floor"):
        angle_of(0.786004, PipelineConfig().tightened(100.0))


@pytest.mark.parametrize("g", [lambda x: x ** 3 - 0.1,
                               lambda x: math.exp(x) - 2.0],
                         ids=["cubic", "exp"])
def test_brentq_bisects_where_the_interpolation_underflows(g):
    # at |f| ~ 2^-530 the inverse quadratic step's denominator
    # dblk * dpre * (fblk - fpre) underflows to 0; scipy's C code bisects on
    # the inf or NaN that IEEE division gives there, and so must _brentq
    def f(x):
        return 2.0 ** -530 * g(x)

    assert _brentq(f, 0.0, 1.0) == brentq(f, 0.0, 1.0, xtol=4 * EPS,
                                          rtol=4 * EPS)


def test_event_roots_and_terminal_stop():
    # y = cos t: the downward zero at pi/2 ends the solve; the upward pass of
    # y' = -sin t through -1/2 (at 5 pi / 6) lies beyond it and is not kept
    sol = dop853.integrate(lambda t, y: [y[1], -y[0]], 0.0, [1.0, 0.0], 10.0,
                           tol=1e-12,
                           events=[((0, 0.0), -1, True),
                                   ((1, -0.5), 1, False),
                                   ((1, -0.5), -1, False)])
    assert sol.terminated
    assert sol.dense.ts[-1] == sol.t_events[0][0] == pytest.approx(math.pi / 2,
                                                            abs=1e-12)
    assert sol.t_events[1] == []
    assert sol.t_events[2][0] == pytest.approx(math.pi / 6, abs=1e-12)
    assert sol.y_events[2][0][1] == pytest.approx(-0.5, abs=1e-12)
    n_steps = len(sol.dense.h)
    assert sol.nfev == 2 + 12 * (n_steps + sol.n_rejected) + 3 * n_steps


def test_roots_in_one_step_are_kept_in_time_order():
    # y = t crosses 2.5, 3.5 and 4.5 inside the one step [1.93, 5.92] (the
    # step size grows while the error estimate is zero); the terminal root
    # at 3.5 keeps the root before it and drops the one after it, as solve_ivp
    events = [((0, 4.5), 1, False), ((0, 3.5), 1, True), ((0, 2.5), 1, False)]
    sol = dop853.integrate(lambda t, y: [1.0], 0.0, [0.0], 10.0,
                           tol=1e-12, events=events)
    assert sol.dense.ts[-2] < 2.5 and sol.dense.ts[-2] + sol.dense.h[-1] > 4.5
    ref_events = []
    for (i, level), direction, terminal in events:
        def event(t, y, i=i, level=level):
            return y[i] - level
        event.direction, event.terminal = direction, terminal
        ref_events.append(event)
    ref = solve_ivp(lambda t, y: [1.0], (0.0, 10.0), [0.0], method="DOP853",
                    rtol=1e-12, atol=1e-12, dense_output=True,
                    events=ref_events)
    assert [list(te) for te in ref.t_events] == sol.t_events
    assert sol.t_events[0] == []
    assert sol.t_events[1] == [pytest.approx(3.5, abs=1e-14)]
    assert sol.t_events[2] == [pytest.approx(2.5, abs=1e-14)]
    assert sol.terminated and sol.nfev == ref.nfev


def test_column_horner_is_one_column_of_horner():
    rng = np.random.default_rng(17)
    for _ in range(20):
        F, y_old = rng.standard_normal((7, 5)), rng.standard_normal(5)
        for x in (0.0, 1.0, *rng.random(5)):
            full = _horner(F, y_old, x)
            for i in range(5):
                got = _horner_column(F[:, i].tolist(), float(y_old[i]), x)
                assert got.hex() == float(full[i]).hex()


@pytest.mark.parametrize("component", [2, -1])
def test_event_component_outside_the_state_raises(component):
    with pytest.raises(ValueError, match="event component"):
        dop853.integrate(lambda t, y: [y[1], -y[0]], 0.0, [1.0, 0.0], 1.0,
                         tol=1e-10,
                         events=[((component, 0.0), -1, True)])


def test_matches_scipy_on_van_der_pol():
    # a second problem, with many rejected steps and states of both signs:
    # the steps, nfev and the dense output equal solve_ivp's bit for bit
    def vdp(t, y):
        return [y[1], 5.0 * (1 - y[0] ** 2) * y[1] - y[0]]

    sol = dop853.integrate(vdp, 0.0, [2.0, 0.0], 20.0, tol=1e-9)
    ref = solve_ivp(vdp, (0.0, 20.0), [2.0, 0.0], method="DOP853",
                    rtol=1e-9, atol=1e-9, dense_output=True)
    d = sol.dense
    assert sol.n_rejected > 10 and sol.nfev == ref.nfev
    assert np.array_equal(d.ts, ref.t)
    x = np.array([0.0, 0.25, 0.5, 0.75])
    points = (d.ts[:-1, None] + np.diff(d.ts)[:, None] * x).ravel()
    assert np.array_equal(d(points), ref.sol(points))


def test_step_failure_on_a_blow_up():
    with pytest.raises(StepFailure):
        dop853.integrate(lambda t, y: [y[0] ** 2], 0.0, [1.0], 2.0,
                         tol=1e-10)


def test_step_failure_on_a_nan_state():
    # a NaN state makes the step size NaN, which h < min_step never catches
    with pytest.raises(StepFailure):
        dop853.integrate(lambda t, y: [-y[0]], 0.0, [math.nan], 1.0,
                         tol=1e-10)


@pytest.mark.parametrize("t_bound", [0.0, -1.0, math.nan])
def test_rejects_an_empty_interval(t_bound):
    with pytest.raises(ValueError, match="t_bound"):
        dop853.integrate(lambda t, y: [-y[0]], 0.0, [1.0], t_bound,
                         tol=1e-10)


def test_dense_output_follows_the_circle_from_the_axis(circle_profile):
    p = circle_profile
    s = np.linspace(0.0, p.s_bar, 2001)
    s = np.concatenate([np.linspace(0.0, p.dense.ts[1], 50), s])
    u, v = p.dense(s)[:2]
    dev = np.hypot(u - SQRT2 * np.sin(s / SQRT2), v - SQRT2 * np.cos(s / SQRT2))
    assert np.max(dev) < 1e-11


def test_dense_derivative_is_the_rhs_at_step_ends_and_the_slope_inside():
    def pendulum(t, y):
        return [y[1], -math.sin(y[0])]

    d = dop853.integrate(pendulum, 0.0, [1.0, 0.0], 10.0, tol=1e-10).dense
    ends = d.ts[1:]  # each belongs to the step it ends
    f_ends = np.array([pendulum(t, y) for t, y in zip(ends, d(ends).T)]).T
    assert np.max(np.abs(d.derivative(ends) - f_ends)) < 1e-14
    inside = d.ts[:-1] + 0.37 * d.h
    dt = 1e-5 * d.h
    central = (d(inside + dt) - d(inside - dt)) / (2 * dt)
    assert np.max(np.abs(d.derivative(inside) - central)) < 1e-9


def test_resampling_ignores_the_stored_state_set(profiles):
    # the mesh comes from the dense output, so thinning the stored states
    # (keeping the axis point and the crossing) leaves it unchanged
    p = profiles[0.5][1]
    keep = np.r_[0, np.arange(1, len(p.s) - 1, 3), len(p.s) - 1]
    thin = dataclasses.replace(p, s=p.s[keep], u=p.u[keep], v=p.v[keep])
    for a, b in zip(resample_profile(p, 256), resample_profile(thin, 256)):
        assert np.array_equal(a, b)


def test_integrate_profile_rejects_rtol_below_floor():
    _, p = angle_of(0.5)
    with pytest.raises(ValueError):
        integrate_profile(p.series, 0.5, tol=1e-15)


@pytest.mark.parametrize("tol", [math.nan, math.inf])
def test_integrate_profile_rejects_tolerances_outside_the_floor(tol):
    # the one tol is also each solve's atol: a NaN or inf one must stop
    # integrate_profile as it stops dop853.integrate
    _, p = angle_of(0.5)
    with pytest.raises(ValueError, match="floor"):
        integrate_profile(p.series, 0.5, tol=tol)
