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

The axis series seeds the curve: it supplies the segment [0, X_SEED], the
state at u = X_SEED and the quadratures over that segment.  From there one
adaptive 8th-order Runge-Kutta solve (the in-repo DOP853 of
:mod:`lensshrinker.dop853`) runs to the first v = 0, located by root
refinement on the dense output; the first passage of u through 1 is
recorded as s_star.  The dense output, a cubic Hermite piece on the axis
segment and then DOP853's pieces, is assembled once, and one evaluation of
it gives every stored state and the derivative that the defect monitor
reads.  The right-hand side is written once as source,
``ANGLE_FORM``, which the solve takes: DOP853 compiles it inline into its
stages and into the callable of its initial step.  ``arclength_rhs`` is
that source compiled to a callable for solvers that take one.
One function, :func:`monitor_slacks`, checks every monitored inequality on
the computed states: the radial transversality floor, the outer annulus
bound and the strict decrease of the polar angle (which certifies that the
curve cannot self-intersect), the graph-region inequalities of
:mod:`lensshrinker.graph_profile`, and the defect of the dense output,
which tests whether the stored curve solves the ODE.  Bounds that these
imply are not checked again.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import dop853, graph_profile
from .errors import MonitorViolation, NoCrossing
from .series import EvenSeries, gauss_legendre_composite

MONITOR_SLACK_TOL = -1e-9
# DOP853's tolerance of each solve, unless the caller passes tol
DEFAULT_TOL = 1e-12
# bound on the dense output's ODE defect, per unit of tol
DEFECT_PER_TOL = 1e4
# bound on |v(s_bar)| after the crossing refinement, which leaves ~1e-16
EVENT_TOL = 1e-12
ARCLENGTH_HARD_CAP = 50.0
# dense-output states kept strictly inside each accepted step, so that the
# monitors see the curve between the steps of the adaptive integrator
DENSE_POINTS_PER_STEP = 4

# where the axis series hands the curve to the integrator
X_SEED = 1e-3


@dataclass(frozen=True)
class LensProfile:
    """The full profile curve from the axis to the horizontal crossing.

    Arrays hold the exact axis point at s = 0, then the dense output at
    every accepted step (the first is the series seed) and at
    DENSE_POINTS_PER_STEP interior points of each step, then the refined
    crossing state; ``s`` is strictly increasing up to s_bar and (up, vp) =
    (cos phi, sin phi).  ``series`` is the axis series that seeded the curve.
    ``dense`` gives (u, v, phi, i_phi, i_v) on [0, s_bar]: a cubic Hermite
    piece on [0, X_SEED], then DOP853's; ``nfev``, ``n_steps`` and
    ``n_rejected`` count right-hand-side calls, accepted and rejected steps.
    Frozen, so that a profile cannot change after it passed its monitors.
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


# state (u, v, phi, i_phi, i_v): the angle-form ODE plus the quadratures,
# written once; dop853 evaluates this source inline in its stages
ANGLE_FORM = dop853.rhs("s", "u v phi i_phi i_v", """
    c = cos(phi)
    sn = sin(phi)
    e = exp(-0.5 * (u * u + v * v))
""", ("c", "sn", "-sn / u + u * sn - v * c", "e * c * sn / u", "e * v"))
# the same source as a callable fun(s, y), for solvers that take one
arclength_rhs = dop853.function(ANGLE_FORM)


def transversality_floor(a: float) -> float:
    """Lower bound (pi sqrt(e) / 8) a e^{-a^2/2} for the radial transversality
    (-u v' + v u') / rho along the whole curve."""
    return math.pi * math.sqrt(math.e) / 8.0 * a * math.exp(-0.5 * a * a)


def annulus_log_halfwidth(a: float) -> float:
    """Half-width of the band |log rho| < C pi/2 with C = sqrt(1-K^2)/K."""
    K = transversality_floor(a)
    return math.sqrt(1.0 - K * K) / K * math.pi / 2.0


@functools.lru_cache(maxsize=8)
def _seed_rule(x_seed: float) -> tuple[np.ndarray, np.ndarray]:
    # the 40-node Gauss-Legendre rule on [0, x_seed]; read-only, as the
    # solves share it
    t, w = gauss_legendre_composite(0.0, x_seed, 1, 40)
    t.flags.writeable = w.flags.writeable = False
    return t, w


def seed_quadratures(h: EvenSeries, a: float,
                     x_seed: float) -> tuple[float, float, float]:
    """Initial (s, i_phi, i_v) from the series on [0, x_seed].

    40-node Gauss-Legendre on the analytic segment; the i_phi integrand
    uses the even function h'(x)/x directly, so its removable singularity at
    the axis (limit -(a/2) e^{-a^2/2}) never meets a numerical 1/x.
    """
    t, w = _seed_rule(x_seed)
    f = a + h(t)
    hp_over_x = h.deriv_over_x(t)
    fp = hp_over_x * t
    sq = np.sqrt(1.0 + fp * fp)
    e = np.exp(-0.5 * (t * t + f * f))
    return (float(np.sum(w * sq)),
            float(np.sum(w * e * hp_over_x / sq)),
            float(np.sum(w * e * f * sq)))


def integrate_profile(series: EvenSeries, a: float, *,
                      tol: float = DEFAULT_TOL) -> LensProfile:
    """Integrate the angle form from the axis series to the crossing v = 0.

    The series h seeds the curve at u = X_SEED, which must lie inside
    series.radius: v = a + h(X_SEED) and phi = atan h'(X_SEED), with
    arclength and quadratures starting from their values on [0, X_SEED].
    One DOP853 solve with tolerance tol follows; it ends with the step over
    which v falls through 0.  Brent's method refines the crossing s_bar on
    that step's dense output, which must leave |v(s_bar)| <= EVENT_TOL, and
    s_star, the first passage of u through 1, on the first step over which
    u rises through 1; an s_star not before s_bar is NaN.  The last step's
    dense piece is cut at s_bar.
    Reaching s_max = s0 + ARCLENGTH_HARD_CAP without a crossing raises
    NoCrossing.  The proved bound pi / (2 c_a) is not evaluated: it is at
    least 158 at every height, so the cap is always the smaller bound.

    monitor_slacks fills ``monitors`` from the returned states; a slack
    below MONITOR_SLACK_TOL, or NaN, raises MonitorViolation; the defect
    monitor's bound is DEFECT_PER_TOL * tol.  An integrator failure raises
    StepFailure.  An a that is not positive and finite, a series.radius at
    most X_SEED, or a tol below 100 eps or not finite raises ValueError.
    """
    if not 0.0 < a < math.inf:
        raise ValueError(f"a={a} must be positive and finite")
    if not X_SEED < series.radius:
        raise ValueError(f"the seed X_SEED={X_SEED} must lie inside the "
                         f"certified radius {series.radius}")
    s0, iphi0, iv0 = seed_quadratures(series, a, X_SEED)
    s_max = s0 + ARCLENGTH_HARD_CAP
    y_seed = [X_SEED, a + series(X_SEED), math.atan(series.deriv(X_SEED)),
              iphi0, iv0]
    sol = dop853.integrate(ANGLE_FORM, s0, y_seed, s_max, tol=tol, stop=1)
    if not sol.stopped:
        raise NoCrossing(f"no v=0 crossing before the arclength cap "
                         f"s_max={s_max} at a={a}")
    # the axis segment [0, s0] as one cubic Hermite piece, then DOP853's;
    # phi'(0) = h''(0)
    y_axis = [0.0, a, 0.0, 0.0, 0.0]
    k0, e0 = series.deriv2(0.0), math.exp(-0.5 * a * a)
    axis = dop853.hermite_rows(s0, y_axis, y_seed,
                               [1.0, 0.0, k0, e0 * k0, e0 * a], sol.f0)
    dense = dop853.DenseOutput.of([0.0, *sol.ts], [s0, *sol.h],
                                  y_axis + sol.y_old, axis + sol.F)
    n_steps = len(sol.h)
    s_bar = dense.root(1, 0.0, n_steps)
    # s_star on the first step over which u rises through 1, if before
    # s_bar; u_ends holds u at every step end
    u_ends = [*sol.y_old[::len(y_axis)], sol.y[0]]
    s_star = next((dense.root(0, 1.0, k + 1) for k in range(n_steps)
                   if u_ends[k] <= 1.0 <= u_ends[k + 1]), math.nan)
    if not s_star < s_bar:
        s_star = math.nan
    # the last piece cut at s_bar, now that the roots have read its end
    dense.ts[-1] = s_bar
    ts = dense.ts[1:]
    frac = np.arange(DENSE_POINTS_PER_STEP + 1) / (DENSE_POINTS_PER_STEP + 1)
    s = np.concatenate([[0.0], (ts[:-1, None] + np.diff(ts)[:, None]
                                * frac).ravel(), [s_bar]])
    # every stored state and its derivative from one pass over the pieces:
    # the axis piece gives y_axis at 0 and y_seed at s0 exactly (its row 0
    # is y_seed - y_axis, and v0 - a is exact, v0 being within a factor 2
    # of a), and every later point falls on a piece of DOP853
    k, p, dp = dense._horner_at(s)
    u, v, phi, i_phi, i_v = (p + dense.y_old[k]).T
    v_residual = abs(float(v[-1]))
    if v_residual > EVENT_TOL:
        raise NoCrossing(f"crossing refinement left |v(s_bar)|={v_residual}")
    profile = LensProfile(a=a, s=s, u=u, v=v, up=np.cos(phi), vp=np.sin(phi),
                          i_phi=i_phi, i_v=i_v, s_bar=s_bar, s_star=s_star,
                          xi=float(u[-1]), alpha=float(phi[-1]),
                          v_residual=v_residual, monitors={}, series=series,
                          dense=dense, nfev=sol.nfev, n_steps=n_steps,
                          n_rejected=sol.n_rejected)
    defect = _defect(profile, (dp[:, :3] / dense.h[k][:, None]).T)
    profile = replace(profile, monitors=monitor_slacks(profile, tol, defect))
    bad = {k: v for k, v in profile.monitors.items()
           if not v >= MONITOR_SLACK_TOL}
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
    k_alg = graph_profile._phi_prime(u, v, up, vp)
    k_var = profile.i_phi[m] * grow
    k_int = -vp / u - grow * profile.i_v[m]
    return k_alg, k_var, k_int


def _defect(profile: LensProfile, rates: np.ndarray) -> np.ndarray:
    # shrinker_residual from the dense output's (u', v', phi') at every
    # stored state
    m = profile.u > 0.0
    u, v = profile.u[m], profile.v[m]
    c, sn = profile.up[m], profile.vp[m]  # (cos phi, sin phi)
    du, dv, dphi = rates[:, m]
    return np.max(np.abs([du - c, dv - sn,
                          dphi - (-sn / u + u * sn - v * c)]), axis=0)


def shrinker_residual(profile: LensProfile) -> np.ndarray:
    """Defect of the dense output at the stored states with u > 0: the max
    over (u, v, phi) of |y'(s) - F(y(s))|, with y' the exact derivative of
    each step's polynomial and F the angle form, written out apart from
    ANGLE_FORM so that a wrong right-hand side shows.  Zero at step
    ends, where the dense rows interpolate F.  integrate_profile forms the
    same values from the rates of the pass that gives the states."""
    return _defect(profile, profile.dense.derivative(profile.s)[:3])


def monitor_slacks(profile: LensProfile, tol: float,
                   defect: np.ndarray) -> dict:
    """Worst slack of each monitored inequality, the minimum of its slacks
    at the stored states; it holds where its slack is >= 0.  Pure report,
    never raises.

    Polar, on all states: the radial transversality (-u v' + v u')/rho >=
    K_a, log rho below the annulus band, and a strictly decreasing polar
    angle, which certifies injectivity; each theta is compared with every
    later one, so that rises below the tolerance cannot add up.
    ``shrinker_residual`` is DEFECT_PER_TOL * tol minus ``defect``, the ODE
    defect of the dense output at the states, shrinker_residual(profile)
    to the bit.  Graph: graph_profile.graph_slacks on the view
    0 < u < 1, and before the crossing f' <= 0 from the seed on and
    phi' <= 0 after it.  Bounds these imply, f >= 0 among them, are not
    checked again (README, "How it works").
    """
    a = profile.a
    u, v, up, vp = profile.u, profile.v, profile.up, profile.vp
    rho = np.hypot(u, v)
    theta = np.arctan2(v, u)
    # state 0 is the axis point, state 1 the seed, the last the crossing
    past_seed = [arr[2:-1] for arr in (u, v, up, vp)]
    slacks = {
        "radial_transversality_global":
            (-u * vp + v * up) / rho - transversality_floor(a),
        "annulus_upper": annulus_log_halfwidth(a) - np.log(rho),
        "theta_decreasing":
            theta[:-1] - np.maximum.accumulate(theta[:0:-1])[::-1],
        "shrinker_residual": DEFECT_PER_TOL * tol - defect,
        **graph_profile.graph_slacks(profile),
        "graph_concavity": -graph_profile._phi_prime(*past_seed),
        "graph_slope_negative": -vp[1:-1] / up[1:-1],
    }
    # the ufunc's reduce itself: np.min's wrapper costs more than the
    # reduction on these ~100-point arrays, and gives the same bits
    return {name: float(np.minimum.reduce(s, initial=math.inf))
            for name, s in slacks.items()}


# the monitors of the polar bounds, each checked on [0, s_bar]
POLAR_MONITORS = ("radial_transversality_global", "annulus_upper",
                  "theta_decreasing")


@dataclass(frozen=True)
class PolarReport:
    rows: tuple[dict, ...]

    def to_json_list(self) -> list[dict]:
        return [dict(r) for r in self.rows]


def polar_monitors(profile: LensProfile, a: float) -> PolarReport:
    """The polar bounds' rows {monitor_id, range, worst_slack, pass}, read
    from ``profile.monitors``, which integrate_profile filled at height a."""
    return PolarReport(tuple(
        {"monitor_id": name, "range": "[0, s_bar]",
         "worst_slack": profile.monitors[name],
         "pass": bool(profile.monitors[name] >= MONITOR_SLACK_TOL)}
        for name in POLAR_MONITORS))


def profile_to_csv(profile: LensProfile, path) -> None:
    """Write s, u, v, up, vp, k_alg, k_int, rho, theta, residual_shrinker."""
    m = profile.u > 0.0
    k_alg, _, k_int = curvature_arrays(profile)
    u, v = profile.u[m], profile.v[m]
    np.savetxt(path, np.column_stack(
        [profile.s[m], u, v, profile.up[m], profile.vp[m], k_alg, k_int,
         np.hypot(u, v), np.arctan2(v, u), shrinker_residual(profile)]),
        fmt="%.17g", delimiter=",", comments="",
        header="s,u,v,up,vp,k_alg,k_int,rho,theta,residual_shrinker")


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
