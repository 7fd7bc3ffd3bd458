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
segment and then DOP853's pieces, is assembled once as flat lists of
Python floats, and one plain pass over its pieces (:func:`dense_pass`)
evaluates every stored state and its derivative by dop853's one Horner
routine, forms the defect, and folds every monitor's term into the worst
slack of each; no numpy is loaded, and the arrays of a profile are built
only when a reader asks for them, by the same pass, which then keeps the
states and their defect.  The right-hand side is written once as source,
``ANGLE_FORM``, which the solve takes: DOP853 compiles it inline into its
stages and into the callable of its initial step.  ``arclength_rhs`` is
that source compiled to a callable for solvers that take one.  The
monitors check every monitored inequality on the stored states: the
radial transversality floor, the outer annulus bound and the strict
decrease of the polar angle (which certifies that the curve cannot
self-intersect), the graph-region inequalities of
:mod:`lensshrinker.graph_profile`, and the defect of the dense output,
which tests whether the stored curve solves the ODE.  Bounds that these
imply are not checked again.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple

from . import dop853, graph_profile
from ._views import ArrayField, floats, readonly
from .errors import MonitorViolation, NoCrossing
from .graph_profile import phi_prime
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


def _state(i: int) -> ArrayField:
    # stored state i of a profile, from the pass over its dense output
    return ArrayField(source=lambda profile: profile._states[i])


class LensProfile(namedtuple(
        "LensProfile", "a s_bar s_star xi alpha v_residual monitors series "
        "dense nfev n_steps n_rejected")):
    """The full profile curve from the axis to the horizontal crossing.

    ``series`` is the axis series that seeded the curve.  ``dense`` gives
    (u, v, phi, i_phi, i_v) on [0, s_bar]: a cubic Hermite piece on [0,
    X_SEED], then DOP853's; ``nfev``, ``n_steps`` and ``n_rejected`` count
    right-hand-side calls, accepted and rejected steps.  The stored states
    s, u, v, up, vp, i_phi and i_v are read-only numpy arrays derived from
    ``dense`` alone, by one pass over it (dense_pass, run once per profile
    to keep its states; _views.ArrayField): the exact axis point at s = 0,
    then the dense output at every accepted step (the first is the series
    seed) and at DENSE_POINTS_PER_STEP interior points of each step, then
    the refined crossing state; ``s`` is strictly increasing up to s_bar
    and (up, vp) = (cos phi, sin phi).  A tuple, so that a profile cannot
    change after it passed its monitors; _replace makes a changed copy of
    its 12 fields, whose states are those of its dense output.
    """

    s, u, v, up, vp, i_phi, i_v = map(_state, range(7))

    @functools.cached_property
    def _states(self) -> tuple:
        # the pass's stored states and their defect, once
        return dense_pass(self.dense, self.a, DEFAULT_TOL, keep=True)[-1]


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


def seed_quadratures(h: EvenSeries, a: float,
                     x_seed: float) -> tuple[float, float, float]:
    """Initial (s, i_phi, i_v) from the series on [0, x_seed].

    40-node Gauss-Legendre on the analytic segment, the cached one-cell
    gauss_legendre_composite, each sum correctly rounded (math.fsum); the
    i_phi integrand uses the even function h'(x)/x directly, so its
    removable singularity at the axis (limit -(a/2) e^{-a^2/2}) never meets
    a numerical 1/x.
    """
    s, i_phi, i_v = [], [], []
    for t, w in zip(*gauss_legendre_composite(0.0, x_seed, 1, 40)):
        f = a + h(t)
        hp_over_x = h.deriv_over_x(t)
        fp = hp_over_x * t
        sq = math.sqrt(1.0 + fp * fp)
        e = math.exp(-0.5 * (t * t + f * f))
        s.append(w * sq)
        i_phi.append(w * e * hp_over_x / sq)
        i_v.append(w * e * f * sq)
    return math.fsum(s), math.fsum(i_phi), math.fsum(i_v)


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

    One pass over the dense output's pieces (dense_pass) fills
    ``monitors``; a slack below MONITOR_SLACK_TOL, or NaN, raises
    MonitorViolation; the defect monitor's bound is DEFECT_PER_TOL * tol.
    An integrator failure raises StepFailure.  An a that is not positive
    and finite, a series.radius at most X_SEED, or a tol below 100 eps or
    not finite raises ValueError.
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
    ts, hs, ys, F = [0.0, *sol.ts], [s0, *sol.h], y_axis + sol.y_old, \
        axis + sol.F
    dense = dop853.DenseOutput(ts, hs, ys, F)
    n_steps = len(sol.h)
    s_bar = dense.root(1, 0.0, n_steps)
    # s_star on the first step over which u rises through 1, if before
    # s_bar; u_ends holds u at every step end
    u_ends = [*sol.y_old[::len(y_axis)], sol.y[0]]
    s_star = next((dense.root(0, 1.0, k + 1) for k in range(n_steps)
                   if u_ends[k] <= 1.0 <= u_ends[k + 1]), math.nan)
    if not s_star < s_bar:
        s_star = math.nan
    # the last piece cut at s_bar, now that the roots have read its end;
    # the dense output has made no array of ts yet
    ts[-1] = s_bar
    # every stored state, its derivative and the monitors' terms from one
    # pass over the pieces: the axis piece gives y_axis at 0 and y_seed at
    # s0 exactly (its row 0 is y_seed - y_axis, and v0 - a is exact, v0
    # being within a factor 2 of a), and every later point falls on a
    # piece of DOP853
    monitors, xi, v_end, alpha, _ = dense_pass(dense, a, tol)
    v_residual = abs(v_end)
    if v_residual > EVENT_TOL:
        raise NoCrossing(f"crossing refinement left |v(s_bar)|={v_residual}")
    bad = {k: v for k, v in monitors.items() if not v >= MONITOR_SLACK_TOL}
    if bad:
        raise MonitorViolation(f"profile monitors violated at a={a}: {bad}")
    return LensProfile(a=a, s_bar=s_bar, s_star=s_star, xi=xi, alpha=alpha,
                       v_residual=v_residual, monitors=monitors,
                       series=series, dense=dense, nfev=sol.nfev,
                       n_steps=n_steps, n_rejected=sol.n_rejected)


def _curvatures(profile: LensProfile) -> tuple[list, list, list]:
    # curvature_arrays' lists
    k_alg, k_var, k_int = [], [], []
    for u, v, up, vp, i_phi, i_v in zip(*(floats(profile, k) for k in (
            "u", "v", "up", "vp", "i_phi", "i_v"))):
        if u > 0.0:
            grow = math.exp(0.5 * (u * u + v * v)) / u
            k_alg.append(phi_prime(u, v, up, vp))
            k_var.append(i_phi * grow)
            k_int.append(-vp / u - grow * i_v)
    return k_alg, k_var, k_int


def curvature_arrays(profile: LensProfile) -> tuple:
    """Algebraic, variation-of-constants and integral curvature on the states
    with u > 0, read-only arrays; the integral forms agree with the first
    only along true solutions started orthogonally to the axis, a sharp
    consistency check."""
    return tuple(map(readonly, _curvatures(profile)))


def shrinker_residual(profile: LensProfile):
    """Defect of the dense output at its stored states but the axis point,
    a read-only array: the max over (u, v, phi) of |y'(s) - F(y(s))|, with
    y(s) and y'(s) the value and exact derivative of each step's
    polynomial and F the angle form, its phi' written out in the pass
    (graph_profile.phi_prime's expression), apart from ANGLE_FORM, so that
    a wrong right-hand side shows.  Zero at step ends, where the dense rows
    interpolate F.  The pass that gives the states forms it, as
    integrate_profile's pass does for the defect monitor."""
    return readonly(profile._states[-1])


def dense_pass(dense: dop853.DenseOutput, a: float, tol: float,
               keep: bool = False) -> tuple:
    """integrate_profile's pass over the pieces of a profile's dense output
    at height a and tolerance tol: the worst slack of each monitored
    inequality by name, the minimum of its slacks at the stored states (it
    holds where its slack is >= 0), then the last state's u, v and phi,
    then the stored states s, u, v, up, vp, i_phi and i_v and the defect
    at each but the axis point, as lists, if keep, or empty lists.  Pure
    report: a state or a defect that is not finite makes every slack NaN,
    and only a state past the axis point at u = 0 or cos phi = 0, where a
    slack divides by zero, raises (ZeroDivisionError).

    The stored states are the axis point and the seed, the ends of piece
    0, then on each later piece DENSE_POINTS_PER_STEP interior points,
    evenly spaced in s, and its end.  Each state and its rates come from
    dop853._horner, or, at the end of a piece that is not cut, from rows
    0-2, which are _horner's bits at x = 1.  Every state and defect is
    added to the sum z, which is not finite if one of them is not; the
    folds' comparisons pass over a NaN.

    Polar, on all states: the radial transversality (-u v' + v u')/rho >=
    K_a, log rho below the annulus band, and a strictly decreasing polar
    angle, which certifies injectivity; each theta is compared with every
    later one (the running min tmin stands for the earlier ones), so that
    rises below the tolerance cannot add up.  ``shrinker_residual`` is
    DEFECT_PER_TOL * tol minus the ODE defect of the dense output at every
    state but the axis point, as shrinker_residual(profile) gives it.
    Graph: graph_profile.graph_terms' slacks on the view 0 < u < 1, with F
    compared with every earlier one (the running max fmax), and before the
    crossing f' <= 0 from the seed on and phi' <= 0 after it.  Bounds these
    imply, f >= 0 among them, are not checked again (README, "How it
    works").
    """
    ts, hs, Y, F = (floats(dense, k) for k in ("ts", "h", "y_old", "F"))
    horner, inf = dop853._horner, math.inf
    cos, sin, hypot, atan2, sqrt = (math.cos, math.sin, math.hypot,
                                    math.atan2, math.sqrt)
    # each monitor's running min or max of its term over the states
    radial = rise = lower = slope = transversal = fall = inf
    rho_max = defect = v_max = k_max = fp_max = -inf
    tmin, fmax, z = inf, -inf, 0.0
    kept = S, U, V, UP, VP, IP, IV, D = [], [], [], [], [], [], [], []
    e, last = DENSE_POINTS_PER_STEP + 1, len(hs) - 1
    for k in range(len(hs)):
        t, h, t1 = ts[k], hs[k], ts[k + 1]
        y0, y1, y2, y3, y4 = Y[5 * k:5 * k + 5]
        rows = F[35 * k:35 * k + 35]
        c0, c1, c2 = rows[0::5], rows[1::5], rows[2::5]
        if keep:
            c3, c4 = rows[3::5], rows[4::5]
        for j in range(1, e + 1) if k else (0, e):
            if j == e and k < last:
                s, x = t1, 1.0
                u, v, phi = c0[0] + y0, c1[0] + y1, c2[0] + y2
                r0 = (c0[0] - (c0[2] + c0[1])) / h
                r1 = (c1[0] - (c1[2] + c1[1])) / h
                r2 = (c2[0] - (c2[2] + c2[1])) / h
            else:
                s = t1 if j == e else t + (t1 - t) * (j / e)
                x = (s - t) / h
                p, dp = horner(c0, x)
                u, r0 = p + y0, dp / h
                p, dp = horner(c1, x)
                v, r1 = p + y1, dp / h
                p, dp = horner(c2, x)
                phi, r2 = p + y2, dp / h
            up, vp = cos(phi), sin(phi)
            rho, theta = hypot(u, v), atan2(v, u)
            q = (-u * vp + v * up) / rho
            if q < radial:
                radial = q
            if rho > rho_max:
                rho_max = rho
            q = tmin - theta
            if q < rise:
                rise = q
            if theta < tmin:
                tmin = theta
            if j:
                # phi' (graph_profile.phi_prime) and the defect
                pp = -vp / u + u * vp - v * up
                d = abs(r0 - up)
                q = abs(r1 - vp)
                if q > d:
                    d = q
                q = abs(r2 - pp)
                if q > d:
                    d = q
                z += u + v + up + vp + d
                if d > defect:
                    defect = d
                if keep:
                    D.append(d)
            else:
                z += u + v + up + vp
            if 0.0 < u < 1.0:
                # graph_profile.graph_terms, with the graph floor left to
                # the slack
                fp = vp / up
                root = sqrt(1.0 - u * u)
                ratio = v / root
                q = v - a * root
                if q < lower:
                    lower = q
                if v > v_max:
                    v_max = v
                q = fp + a * u / (1.0 - u * u)
                if q < slope:
                    slope = q
                q = (v - u * fp) / sqrt(1.0 + fp * fp)
                if q < transversal:
                    transversal = q
                q = ratio - fmax
                if q < fall:
                    fall = q
                if ratio > fmax:
                    fmax = ratio
            if j and (j < e or k < last):
                # the seed and the inner states
                q = vp / up
                if q > fp_max:
                    fp_max = q
                if k and pp > k_max:
                    k_max = pp
            if keep:
                S.append(s)
                U.append(u)
                V.append(v)
                UP.append(up)
                VP.append(vp)
                IP.append(horner(c3, x)[0] + y3)
                IV.append(horner(c4, x)[0] + y4)
    slacks = {
        "radial_transversality_global": radial - transversality_floor(a),
        "annulus_upper": annulus_log_halfwidth(a) - math.log(rho_max),
        "theta_decreasing": rise,
        "shrinker_residual": DEFECT_PER_TOL * tol - defect,
        "graph_height_lower": lower,
        "graph_height_upper": a - v_max,
        "graph_slope_lower": slope,
        "graph_transversality": transversal - graph_profile.graph_floor(a),
        "graph_ratio_monotone": fall,
        "graph_concavity": -k_max,
        "graph_slope_negative": -fp_max,
    }
    if not math.isfinite(z):
        slacks = dict.fromkeys(slacks, math.nan)
    return slacks, u, v, phi, kept


# the monitors of the polar bounds, each checked on [0, s_bar]
POLAR_MONITORS = ("radial_transversality_global", "annulus_upper",
                  "theta_decreasing")


class PolarReport(namedtuple("PolarReport", "rows")):
    __slots__ = ()

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
    """Write s, u, v, up, vp, k_alg, k_int, rho, theta, residual_shrinker,
    one row per state with u > 0."""
    states = [row for row in zip(*(floats(profile, k) for k in
                                   ("s", "u", "v", "up", "vp")))
              if row[1] > 0.0]
    k_alg, _, k_int = _curvatures(profile)
    _, u, v, _, _ = columns = list(zip(*states))
    graph_profile.write_csv(
        path, "s,u,v,up,vp,k_alg,k_int,rho,theta,residual_shrinker",
        [*columns, k_alg, k_int, map(math.hypot, u, v), map(math.atan2, v, u),
         profile._states[-1]])


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
