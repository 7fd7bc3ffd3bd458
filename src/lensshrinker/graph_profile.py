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
(f - x f') / sqrt(1+f'^2) >= a / sqrt(1+a^2) -- are written once as
source, ``GRAPH_TERMS``: the generated pass of
:func:`lensshrinker.arclength.dense_pass` inlines it in its monitors,
and :func:`graph_slacks` and the CSV of the view compile it to their
per-state loop.  Everything here runs on Python floats;
numpy is loaded only to return arrays.
"""

from __future__ import annotations

import math
import textwrap
from typing import TYPE_CHECKING

from ._views import floats, readonly
from .dop853 import _compiled

if TYPE_CHECKING:
    from .arclength import LensProfile


# phi' of the angle form at a state with u > 0, from (u, v) and (up, vp) =
# (cos phi, sin phi): source that the monitors' generated code inlines
PHI_PRIME = "-vp / u + u * vp - v * up"
# the graph view's monitors at a state with 0 < u < 1, as source: the
# locals fp = f' and root = sqrt(1 - x^2) that they read, then per monitor
# (name, the state's term, the slack as a format of the term, and the fold
# that the worst slack takes of the terms: the slack is monotone in the
# term, so its least value is the slack of the term's min or max)
GRAPH_LOCALS = "fp = vp / up\nroot = sqrt(1.0 - u * u)\n"
GRAPH_TERMS = (
    ("graph_height_lower", "v - a * root", "{}", "min"),
    ("graph_height_upper", "v", "a - {}", "max"),
    ("graph_slope_lower", "fp + a * u / (1.0 - u * u)", "{}", "min"),
    ("graph_transversality", "(v - u * fp) / sqrt(1.0 + fp * fp)",
     "{} - graph_floor", "min"),
)
# F = f / sqrt(1 - x^2), each compared with every later one
RATIO = "v / root"


_phi_prime = _compiled(f"def _phi_prime(u, v, up, vp):\n"
                       f"    return {PHI_PRIME}\n", "phi'")["_phi_prime"]
_phi_prime.__doc__ = "Curvature phi' (needs u > 0); PHI_PRIME as a function."

# every graph state's slack of each GRAPH_TERMS monitor, and its F
_terms = _compiled(
    "def _terms(X, FS, UP, VP, a):\n"
    "    graph_floor = a / sqrt(1.0 + a * a)\n"
    + "".join(f"    L{j} = []\n" for j in range(len(GRAPH_TERMS)))
    + "    ratio = []\n"
    "    for u, v, up, vp in zip(X, FS, UP, VP):\n"
    + textwrap.indent(GRAPH_LOCALS, " " * 8)
    + "".join(f"        L{j}.append({slack.format(f'({term})')})\n"
              for j, (_, term, slack, _) in enumerate(GRAPH_TERMS))
    + f"        ratio.append({RATIO})\n"
    f"    return [{', '.join(f'L{j}' for j in range(len(GRAPH_TERMS)))}], "
    "ratio\n", "graph terms")["_terms"]


def _falls(ratio) -> list:
    """Per state but the last, the least later F minus F: negative wherever
    F falls, however slowly (graph_ratio_monotone's slack)."""
    out, least = [], math.inf
    for i in range(len(ratio) - 1, 0, -1):
        least = ratio[i] if ratio[i] < least else least
        out.append(least - ratio[i - 1])
    return out[::-1]


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
            [_phi_prime(xi, fi, c, s) / c ** 3
             for xi, fi, c, s in zip(x, f, up, vp)])


def graph_view(profile: LensProfile) -> tuple:
    """(x, f, f', f'') on the profile states with 0 < u < 1, read-only
    arrays."""
    return tuple(map(readonly, _view(profile)))


def _slacks(profile: LensProfile) -> dict:
    # graph_slacks' lists: each slack at each graph state, in order
    terms, ratio = _terms(*_graph_states(profile), profile.a)
    slacks = {name: values for (name, *_), values in zip(GRAPH_TERMS, terms)}
    slacks["graph_ratio_monotone"] = _falls(ratio)
    return slacks


def graph_slacks(profile: LensProfile) -> dict:
    """Pointwise slack, >= 0 where it holds, of each graph-view monitor, as
    read-only arrays; it reads x, f and f' only."""
    return {name: readonly(values)
            for name, values in _slacks(profile).items()}


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
    (lower, upper, _, transversality), ratio = _terms(
        *_graph_states(profile), profile.a)
    write_csv(path, "x,f,fp,fpp,F,slack_lower,slack_upper,"
              "slack_transversality",
              [x, f, fp, fpp, ratio, lower, upper, transversality])
