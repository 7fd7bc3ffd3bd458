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
(f - x f') / sqrt(1+f'^2) >= a / sqrt(1+a^2) -- have their pointwise
slacks in :func:`graph_slacks`, which the monitors of
:func:`lensshrinker.arclength.monitor_slacks` and the CSV of the view
both read.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .arclength import LensProfile


def _phi_prime(u, v, up, vp):
    """Curvature phi' = -sin phi / u + u sin phi - v cos phi (needs u > 0)."""
    return -vp / u + u * vp - v * up


def graph_view(profile: LensProfile) -> tuple[np.ndarray, ...]:
    """(x, f, f', f'') on the profile states with 0 < u < 1."""
    m = (profile.u > 0.0) & (profile.u < 1.0)
    x, f, up, vp = profile.u[m], profile.v[m], profile.up[m], profile.vp[m]
    return x, f, vp / up, _phi_prime(x, f, up, vp) / up ** 3


def graph_slacks(profile: LensProfile) -> dict:
    """Pointwise slack, >= 0 where it holds, of each graph-view monitor."""
    a = profile.a
    x, f, fp, _ = graph_view(profile)
    root = np.sqrt(1.0 - x * x)
    ratio = f / root
    return {
        "graph_height_lower": f - a * root,
        "graph_height_upper": a - f,
        "graph_slope_lower": fp + a * x / (1.0 - x * x),
        # each F against every later one, so that falls below the
        # tolerance cannot add up; np.diff(F) wherever F increases
        "graph_ratio_monotone":
            np.minimum.accumulate(ratio[::-1])[::-1][1:] - ratio[:-1],
        "graph_transversality": ((f - x * fp) / np.sqrt(1.0 + fp * fp)
                                 - a / math.sqrt(1.0 + a * a)),
    }


def trajectory_to_csv(profile: LensProfile, path) -> None:
    """Write the graph view: x, f, fp, fpp, F, slack_lower, slack_upper,
    slack_transversality, one row per profile state with 0 < u < 1."""
    x, f, fp, fpp = graph_view(profile)
    slack = graph_slacks(profile)
    np.savetxt(path, np.column_stack(
        [x, f, fp, fpp, f / np.sqrt(1.0 - x * x), slack["graph_height_lower"],
         slack["graph_height_upper"], slack["graph_transversality"]]),
        fmt="%.17g", delimiter=",", comments="",
        header="x,f,fp,fpp,F,slack_lower,slack_upper,slack_transversality")
