"""The in-repo DOP853 against scipy's solve_ivp as an independent reference."""

import copy
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from lensshrinker import PipelineConfig, angle_of, arclength, dop853
from lensshrinker.arclength import integrate_profile, profile_summary
from lensshrinker.cluster import resample_profile
from lensshrinker.errors import StepFailure
from lensshrinker.graph_profile import seed_from_series, seed_quadratures

SQRT2 = math.sqrt(2.0)
HEIGHTS = [float(a) for a in np.geomspace(0.005, SQRT2, 11)]
EPS = np.finfo(float).eps


def _scipy_solve(profile, cfg):
    """solve_ivp on the same seed, bound and events as integrate_profile."""
    a, h = profile.a, profile.series
    seed = seed_from_series(h, a, cfg.x_seed)
    s0, iphi0, iv0 = seed_quadratures(h, a, seed.x)
    c_a = arclength.turning_floor(a)
    s_max = min(math.pi / (2.0 * c_a) if c_a > 0.0 else math.inf,
                s0 + arclength.ARCLENGTH_HARD_CAP)

    def crossing(s, y):
        return y[1]

    def u_passes_one(s, y):
        return y[0] - 1.0

    crossing.terminal, crossing.direction = True, -1
    u_passes_one.direction = 1
    return solve_ivp(arclength.arclength_rhs, (s0, s_max),
                     [seed.x, seed.f, math.atan(seed.fp), iphi0, iv0],
                     method="DOP853", rtol=cfg.ode_rtol, atol=cfg.ode_atol,
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


@pytest.mark.parametrize("rtol, atol", [
    (1e-14, 1e-12), (99 * EPS, 1e-12), (math.nan, 1e-12), (math.inf, 1e-12),
    (1e-12, math.inf), (1e-12, math.nan), (1e-12, -1.0)])
def test_rejects_tolerances_outside_the_floor(rtol, atol):
    with pytest.raises(ValueError):
        dop853.integrate(lambda t, y: [-y[0]], 0.0, [1.0], 1.0,
                         rtol=rtol, atol=atol)


def test_rtol_floor_is_admitted_and_tightened_100_fails_loudly():
    sol = dop853.integrate(lambda t, y: [-y[0]], 0.0, [1.0], 1.0,
                           rtol=dop853.RTOL_FLOOR, atol=0.0)
    assert sol.dense(np.array([1.0]))[0, 0] == pytest.approx(math.exp(-1.0),
                                                             rel=1e-13)
    with pytest.raises(ValueError, match="floor"):
        angle_of(0.786004, PipelineConfig().tightened(100.0))


def test_event_roots_and_terminal_stop():
    # y = cos t: the downward zero at pi/2 ends the solve; the upward pass of
    # y' = -sin t through -1/2 (at 5 pi / 6) lies beyond it and is not kept
    sol = dop853.integrate(lambda t, y: [y[1], -y[0]], 0.0, [1.0, 0.0], 10.0,
                           rtol=1e-12, atol=1e-12,
                           events=[(lambda y: y[0], -1, True),
                                   (lambda y: y[1] + 0.5, 1, False),
                                   (lambda y: y[1] + 0.5, -1, False)])
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
    events = [(lambda y: y[0] - 4.5, 1, False), (lambda y: 3.5 - y[0], -1, True),
              (lambda y: y[0] - 2.5, 1, False)]
    sol = dop853.integrate(lambda t, y: [1.0], 0.0, [0.0], 10.0,
                           rtol=1e-12, atol=1e-12, events=events)
    assert sol.dense.ts[-2] < 2.5 and sol.dense.ts[-2] + sol.dense.h[-1] > 4.5
    ref_events = []
    for g, direction, terminal in events:
        def event(t, y, g=g):
            return g(y)
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


def test_step_failure_on_a_blow_up():
    with pytest.raises(StepFailure):
        dop853.integrate(lambda t, y: [y[0] ** 2], 0.0, [1.0], 2.0,
                         rtol=1e-10, atol=1e-10)


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

    d = dop853.integrate(pendulum, 0.0, [1.0, 0.0], 10.0, rtol=1e-10,
                         atol=1e-10).dense
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
    thin = copy.deepcopy(p)
    keep = np.r_[0, np.arange(1, len(p.s) - 1, 3), len(p.s) - 1]
    thin.s, thin.u, thin.v = p.s[keep], p.u[keep], p.v[keep]
    for a, b in zip(resample_profile(p, 256), resample_profile(thin, 256)):
        assert np.array_equal(a, b)


def test_integrate_profile_rejects_rtol_below_floor():
    _, p = angle_of(0.5)
    seed = seed_from_series(p.series, 0.5, 1e-3)
    with pytest.raises(ValueError):
        integrate_profile(seed, 0.5, p.series, rtol=1e-15)
