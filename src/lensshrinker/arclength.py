"""The profile curve from the series seed to the horizontal axis.

The curve gamma(s) = (u(s), v(s)), parametrized by arclength, is integrated
in angle form.  With the unit tangent (u', v') = (cos phi, sin phi),

    u'   = cos phi,
    v'   = sin phi,
    phi' = -sin phi / u + u sin phi - v cos phi,

so unit speed holds by construction, and the third equation is the
shrinker identity -v' u'' + u' v'' + v'/u - u v' + v u' = 0 itself, with
the curvature k = phi'.  Two quadratures ride in the state vector,

    i_phi(s) = int_0^s e^{-(u^2+v^2)/2} u' v' / u dt,
    i_v(s)   = int_0^s e^{-(u^2+v^2)/2} v dt,

because the curvature admits two integral forms tied to the
axis-orthogonal start,

    k = i_phi e^{(u^2+v^2)/2} / u
      = -v'/u - e^{(u^2+v^2)/2} i_v / u,

whose pointwise agreement with the algebraic form -v'/u + u v' - v u' is
the central consistency oracle of the pipeline.

One adaptive 8th-order Runge-Kutta solve (the in-repo DOP853 of
:mod:`lensshrinker.dop853`) runs from the series seed at u = x_seed (the
axis series supplies the segment [0, x_seed] and its quadratures) to the
first v = 0, located by root refinement on the dense output; the first
passage of u through 1 is recorded as s_star.
Transversality floors, polar annulus bounds and the strict decrease of the
polar angle (which certifies that the curve cannot self-intersect) are
monitored on the computed states, together with the graph-region
inequalities of :mod:`lensshrinker.graph_profile` and the defect of the
dense output, which tests whether the stored curve solves the ODE.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dop853, graph_profile
from .errors import MonitorViolation, NoCrossing
from .series import EvenSeries

MONITOR_SLACK_TOL = -1e-9
# bound on the dense output's ODE defect, per unit of max(rtol, atol)
DEFECT_PER_TOL = 1e4
ARCLENGTH_HARD_CAP = 50.0
# dense-output states kept strictly inside each accepted step, so that the
# monitors see the curve between the steps of the adaptive integrator
DENSE_POINTS_PER_STEP = 4

DEFAULT_RTOL = 1e-12
DEFAULT_ATOL = 1e-12
DEFAULT_EVENT_TOL = 1e-12


@dataclass
class LensProfile:
    """The full profile curve from the axis to the horizontal crossing.

    Arrays hold the exact axis point at s = 0, then the dense output at
    every accepted step (the first is the series seed) and at
    DENSE_POINTS_PER_STEP interior points of each step, then the refined
    crossing state; ``s`` is strictly increasing up to s_bar and (up, vp) =
    (cos phi, sin phi).  ``series`` is the axis series that seeded the curve.
    ``dense`` gives (u, v, phi, i_phi, i_v) on [0, s_bar]: a cubic Hermite
    piece on [0, x_seed], then DOP853's; ``nfev``, ``n_steps`` and
    ``n_rejected`` count right-hand-side calls, accepted and rejected steps.
    """

    a: float
    s: np.ndarray
    u: np.ndarray
    v: np.ndarray
    up: np.ndarray
    vp: np.ndarray
    i_phi: np.ndarray
    i_v: np.ndarray
    s_bar: float
    s_star: float
    xi: float
    alpha: float
    v_residual: float
    monitors: dict
    series: EvenSeries
    dense: dop853.DenseOutput
    nfev: int
    n_steps: int
    n_rejected: int


def arclength_rhs(s, y):
    """State (u, v, phi, i_phi, i_v); the angle-form ODE plus quadratures."""
    u, v, phi = y[0], y[1], y[2]
    c, sn = math.cos(phi), math.sin(phi)
    e = math.exp(-0.5 * (u * u + v * v))
    return [c, sn,
            -sn / u + u * sn - v * c,
            e * c * sn / u,
            e * v]


def transversality_floor(a: float) -> float:
    """Lower bound (pi sqrt(e) / 8) a e^{-a^2/2} for the radial transversality
    (-u v' + v u') / rho along the whole curve."""
    return math.pi * math.sqrt(math.e) / 8.0 * a * math.exp(-0.5 * a * a)


def annulus_log_halfwidth(a: float) -> float:
    """Half-width of the band |log rho| < C pi/2 with C = sqrt(1-K^2)/K."""
    K = transversality_floor(a)
    return math.sqrt(1.0 - K * K) / K * math.pi / 2.0


def turning_floor(a: float) -> float:
    """Strict lower bound for -theta' along the curve; underflows to zero
    for tiny a, where the bound is void anyway."""
    K = transversality_floor(a)
    return K * math.exp(-annulus_log_halfwidth(a))


def integrate_profile(seed: graph_profile.ProfileSample, a: float,
                      series: EvenSeries, *, rtol: float = DEFAULT_RTOL,
                      atol: float = DEFAULT_ATOL,
                      event_tol: float = DEFAULT_EVENT_TOL) -> LensProfile:
    """Integrate the angle form from the series seed to the crossing v = 0.

    The curve starts at the seed (x_seed, f, f') with phi = atan f';
    arclength and quadratures start from their values on [0, x_seed], taken
    from the seeding series.  The crossing is event-detected on the dense
    output and refined until |v(s_bar)| <= event_tol; s_star is the first
    passage of u through 1.  Integration fails safe at s_max = pi / (2 c_a)
    -- reaching it contradicts the guaranteed crossing and raises
    NoCrossing.

    All proved monitors are evaluated on the returned states; a violation
    beyond tolerance raises MonitorViolation, and an integrator failure
    raises StepFailure.  rtol below 100 eps, or a non-finite rtol or atol,
    raises ValueError.
    """
    if a <= 0.0:
        raise ValueError("a must be positive")
    s0, iphi0, iv0 = graph_profile.seed_quadratures(series, a, seed.x)
    c_a = turning_floor(a)
    s_max = min(math.pi / (2.0 * c_a) if c_a > 0.0 else math.inf,
                s0 + ARCLENGTH_HARD_CAP)

    sol = dop853.integrate(arclength_rhs, s0,
                           [seed.x, seed.f, math.atan(seed.fp), iphi0, iv0],
                           s_max, rtol=rtol, atol=atol,
                           events=[(lambda y: y[1], -1, True),
                                   (lambda y: y[0] - 1.0, 1, False)])
    if not sol.terminated:
        raise NoCrossing(f"no v=0 crossing before s_max={s_max} at a={a}; "
                         "this contradicts the guaranteed crossing")
    s_bar = float(sol.t_events[0][0])
    y_bar = sol.y_events[0][0]
    v_residual = abs(float(y_bar[1]))
    if v_residual > event_tol:
        raise NoCrossing(f"event refinement left |v(s_bar)|={v_residual}")
    s_star = float(sol.t_events[1][0]) if sol.t_events[1] else math.nan

    d = sol.dense
    frac = np.arange(DENSE_POINTS_PER_STEP + 1) / (DENSE_POINTS_PER_STEP + 1)
    grid = (d.ts[:-1, None] + np.diff(d.ts)[:, None] * frac).ravel()
    y_axis = np.array([0.0, a, 0.0, 0.0, 0.0])
    u, v, phi, i_phi, i_v = np.column_stack([y_axis, d(grid), y_bar])
    # the axis segment [0, s0] as one cubic Hermite piece; phi'(0) = h''(0)
    k0, e0 = series.deriv2(0.0), math.exp(-0.5 * a * a)
    axis = dop853.hermite_rows(s0, y_axis, d.y_old[0],
                               np.array([1.0, 0.0, k0, e0 * k0, e0 * a]),
                               sol.f0)
    dense = dop853.DenseOutput(np.append(0.0, d.ts), np.append(s0, d.h),
                               np.vstack([y_axis, d.y_old]),
                               np.concatenate([axis[None], d.F]))
    profile = LensProfile(a=a, s=np.concatenate([[0.0], grid, [s_bar]]),
                          u=u, v=v, up=np.cos(phi), vp=np.sin(phi),
                          i_phi=i_phi, i_v=i_v, s_bar=s_bar, s_star=s_star,
                          xi=float(y_bar[0]), alpha=float(y_bar[2]),
                          v_residual=v_residual, monitors={}, series=series,
                          dense=dense, nfev=sol.nfev, n_steps=len(d.h),
                          n_rejected=sol.n_rejected)
    report = polar_monitors(profile, a)
    profile.monitors = {m.monitor_id: m.worst_slack for m in report.results}
    profile.monitors["shrinker_residual"] = float(
        DEFECT_PER_TOL * max(rtol, atol) - np.max(shrinker_residual(profile)))
    profile.monitors.update(
        {f"graph_{name}": float(slack) for name, slack
         in graph_profile.evaluate_monitors(profile, a).items()})
    bad = {k: v for k, v in profile.monitors.items() if v < MONITOR_SLACK_TOL}
    if bad:
        raise MonitorViolation(f"profile monitors violated at a={a}: {bad}")
    return profile


def curvature_arrays(profile: LensProfile) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Algebraic, variation-of-constants and integral curvature on the states
    with u > 0; the integral forms agree with the first only along true
    solutions started orthogonally to the axis, a sharp consistency check."""
    m = profile.u > 0.0
    u, v = profile.u[m], profile.v[m]
    up, vp = profile.up[m], profile.vp[m]
    grow = np.exp(0.5 * (u * u + v * v)) / u
    k_alg = -vp / u + u * vp - v * up
    k_var = profile.i_phi[m] * grow
    k_int = -vp / u - grow * profile.i_v[m]
    return k_alg, k_var, k_int


def shrinker_residual(profile: LensProfile) -> np.ndarray:
    """Defect of the dense output at the stored states with u > 0: the max
    over (u, v, phi) of |y'(s) - F(y(s))|, with y' the exact derivative of
    each step's polynomial and F the angle form, written out apart from
    arclength_rhs so that a wrong right-hand side shows.  Zero at step
    ends, where the dense rows interpolate F."""
    m = profile.u > 0.0
    u, v = profile.u[m], profile.v[m]
    c, sn = profile.up[m], profile.vp[m]  # (cos phi, sin phi)
    du, dv, dphi = profile.dense.derivative(profile.s[m])[:3]
    return np.max(np.abs([du - c, dv - sn,
                          dphi - (-sn / u + u * sn - v * c)]), axis=0)


@dataclass(frozen=True)
class MonitorResult:
    monitor_id: str
    valid_range: str
    worst_slack: float
    passed: bool

    def to_dict(self) -> dict:
        return {"monitor_id": self.monitor_id, "range": self.valid_range,
                "worst_slack": self.worst_slack, "pass": self.passed}


@dataclass(frozen=True)
class PolarReport:
    a: float
    results: tuple[MonitorResult, ...]
    all_passed: bool

    def to_json_list(self) -> list[dict]:
        return [r.to_dict() for r in self.results]


def polar_monitors(profile: LensProfile, a: float) -> PolarReport:
    """Evaluate the transversality, annulus and turning bounds on the states.

    The radial transversality (-u v' + v u')/rho must exceed the global
    floor K_a everywhere and a/(1+a^2) up to the first passage of u = 1;
    |rho'| stays below sqrt(1-K_a^2); log rho stays inside the certified
    annulus band; -theta' stays above the turning floor, and theta strictly
    decreases (from exactly pi/2 on the axis to 0 at the crossing, to the
    event tolerance), which certifies injectivity.  Pure report, never raises.
    """
    s = profile.s
    u, v = profile.u, profile.v
    up, vp = profile.up, profile.vp
    rho = np.hypot(u, v)
    trans = (-u * vp + v * up) / rho
    K_a = transversality_floor(a)
    band = annulus_log_halfwidth(a)
    c_a = turning_floor(a)
    rho_p = (u * up + v * vp) / rho
    theta = np.arctan2(v, u)
    minus_theta_p = trans / rho
    graph_part = (s <= profile.s_star) if math.isfinite(profile.s_star) \
        else np.zeros(len(s), dtype=bool)

    def worst(values) -> float:
        return float(np.min(values)) if len(values) else math.inf

    slacks = {
        "radial_transversality_global": worst(trans - K_a),
        "radial_transversality_graph": worst(trans[graph_part]
                                             - a / (1.0 + a * a)),
        "radial_speed_cone": worst((1.0 - K_a * K_a) - rho_p ** 2),
        "annulus_lower": worst(np.log(rho) + band),
        "annulus_upper": worst(band - np.log(rho)),
        "turning_rate": worst(minus_theta_p - c_a),
        "theta_decreasing": worst(-np.diff(theta)),
    }
    ranges = {
        "radial_transversality_global": "[0, s_bar]",
        "radial_transversality_graph": "[0, s_star]",
        "radial_speed_cone": "[0, s_bar]",
        "annulus_lower": "[0, s_bar]",
        "annulus_upper": "[0, s_bar]",
        "turning_rate": "[0, s_bar]",
        "theta_decreasing": "[0, s_bar]",
    }
    results = tuple(
        MonitorResult(name, ranges[name], float(slack),
                      bool(slack >= MONITOR_SLACK_TOL))
        for name, slack in slacks.items())
    return PolarReport(a, results, all(r.passed for r in results))


def profile_to_csv(profile: LensProfile, path) -> None:
    """Write s, u, v, up, vp, k_alg, k_int, rho, theta, residual_shrinker."""
    m = profile.u > 0.0
    k_alg, _, k_int = curvature_arrays(profile)
    res = shrinker_residual(profile)
    s = profile.s[m]
    u, v = profile.u[m], profile.v[m]
    up, vp = profile.up[m], profile.vp[m]
    rho = np.hypot(u, v)
    theta = np.arctan2(v, u)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("s,u,v,up,vp,k_alg,k_int,rho,theta,residual_shrinker\n")
        for row in zip(s, u, v, up, vp, k_alg, k_int, rho, theta, res):
            fh.write(",".join(f"{x:.17g}" for x in row) + "\n")


def profile_summary(profile: LensProfile) -> dict:
    """JSON-ready summary {a, s_bar, s_star, xi_a, alpha, monitors}."""
    return {
        "a": profile.a,
        "s_bar": profile.s_bar,
        "s_star": profile.s_star,
        "xi_a": profile.xi,
        "alpha": profile.alpha,
        "monitors": {k: float(v) for k, v in profile.monitors.items()},
    }
