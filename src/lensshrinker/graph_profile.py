"""The graph region y = f(x) of the profile, read off the one curve.

Near the axis the profile is a graph whose height satisfies the regular ODE

    f'' = (1 + f'^2) [ f' (x - 1/x) - f ]

away from x = 0.  The curve is seeded from the axis series and integrated
once, in angle form, by :func:`lensshrinker.arclength.integrate_profile`.
The graph quantities are views of its states on the strip 0 < u < 1:

    x = u,   f = v,   f' = tan phi,   f'' = phi' / cos^3 phi.

The inequalities proved for this region -- the height bounds
a sqrt(1-x^2) < f < a, the slope bound f' > -a x/(1-x^2), monotonicity of
the comparison ratio F = f / sqrt(1-x^2) and the transversality floor
(f - x f') / sqrt(1+f'^2) >= a / sqrt(1+a^2) -- are checked on every
stored state by the pass of :func:`lensshrinker.arclength.dense_pass`,
which writes their terms out in its loop; :func:`graph_terms` writes the
same terms once per state for the CSV of the view, and a test holds the
pass's worst slacks to the extremes of the CSV's columns, to the bit.
Everything here runs on Python floats; numpy is loaded only to return
arrays.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from ._views import floats, readonly

if TYPE_CHECKING:
    from .arclength import LensProfile


def phi_prime(u: float, v: float, up: float, vp: float) -> float:
    """The curvature phi' of the angle form at a state with u > 0, from
    (u, v) and (up, vp) = (cos phi, sin phi)."""
    return -vp / u + u * vp - v * up


def graph_floor(a: float) -> float:
    """a / sqrt(1 + a^2), the floor of the graph transversality."""
    return a / math.sqrt(1.0 + a * a)


def graph_terms(u: float, v: float, up: float, vp: float, a: float,
                floor: float) -> tuple:
    """At a state with 0 < u < 1, at height a: F = f / sqrt(1 - x^2), then
    the slack, >= 0 where it holds, of graph_height_lower,
    graph_height_upper, graph_slope_lower and graph_transversality (whose
    floor is graph_floor(a))."""
    fp = vp / up
    root = math.sqrt(1.0 - u * u)
    return (v / root, v - a * root, a - v, fp + a * u / (1.0 - u * u),
            (v - u * fp) / math.sqrt(1.0 + fp * fp) - floor)


def _graph_states(profile: LensProfile) -> tuple[list, ...]:
    # (x, f, cos phi, sin phi) on the profile states with 0 < u < 1
    rows = [row for row in zip(*(floats(profile, k) for k in
                                 ("u", "v", "up", "vp")))
            if 0.0 < row[0] < 1.0]
    return tuple(map(list, zip(*rows))) if rows else ([], [], [], [])


def _view(profile: LensProfile) -> tuple[list, ...]:
    # graph_view's lists: x, f, f' and f''
    x, f, up, vp = _graph_states(profile)
    return (x, f, [s / c for c, s in zip(up, vp)],
            [phi_prime(xi, fi, c, s) / c ** 3
             for xi, fi, c, s in zip(x, f, up, vp)])


def graph_view(profile: LensProfile) -> tuple:
    """(x, f, f', f'') on the profile states with 0 < u < 1, read-only
    arrays."""
    return tuple(map(readonly, _view(profile)))


def write_csv(path, header: str, columns) -> None:
    """Write the header line, then one row of the columns' floats per line,
    each as '%.17g', comma-separated (np.savetxt's bytes)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row in zip(*columns):
            fh.write(",".join(["%.17g" % value for value in row]) + "\n")


def trajectory_to_csv(profile: LensProfile, path) -> None:
    """Write the graph view: x, f, fp, fpp, F, slack_lower, slack_upper,
    slack_transversality, one row per profile state with 0 < u < 1."""
    x, f, fp, fpp = _view(profile)
    a = profile.a
    floor = graph_floor(a)
    ratio, lower, upper, _, transversality = list(zip(
        *(graph_terms(*state, a, floor)
          for state in zip(*_graph_states(profile))))) or [()] * 5
    write_csv(path, "x,f,fp,fpp,F,slack_lower,slack_upper,"
              "slack_transversality",
              [x, f, fp, fpp, ratio, lower, upper, transversality])
