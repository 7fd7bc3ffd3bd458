"""The graph region y = f(x) of the profile, read off the one curve.

Near the axis the profile is a graph whose height satisfies the regular ODE

    f'' = (1 + f'^2) [ f' (x - 1/x) - f ]

away from x = 0.  This module seeds the curve from the axis series; the
curve itself is integrated once, in angle form, by
:func:`lensshrinker.arclength.integrate_profile`.  The graph quantities are
views of its states on the strip 0 < u < 1:

    x = u,   f = v,   f' = tan phi,   f'' = phi' / cos^3 phi.

Every inequality proved for this region is monitored on those states: the
height bounds a sqrt(1-x^2) < f < a, the slope bounds -a x/(1-x^2) < f' < 0,
monotonicity of the comparison ratio F = f / sqrt(1-x^2), and the
transversality floor (f - x f') / sqrt(1+f'^2) >= a / sqrt(1+a^2).
Concavity (as phi' < 0, which stays finite at a vertical tangent), f > 0
and f' < 0 are monitored on every state between the seed and the crossing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .series import EvenSeries, gauss_legendre_composite

if TYPE_CHECKING:
    from .arclength import LensProfile


@dataclass(frozen=True)
class ProfileSample:
    """One point of the graph solution y = f(x)."""

    x: float
    f: float
    fp: float
    fpp: float


def seed_from_series(h: EvenSeries, a: float, x_seed: float) -> ProfileSample:
    """Evaluate the axis series at x_seed as the initial condition.

    Returns (x_seed, a + h, h', h''); rejects seeds at or beyond the
    certified radius of the series.
    """
    if not 0.0 < x_seed:
        raise ValueError("x_seed must be positive")
    if x_seed >= h.radius:
        raise ValueError(f"x_seed={x_seed} is not inside the certified "
                         f"radius {h.radius}")
    return ProfileSample(x_seed, a + h(x_seed), h.deriv(x_seed), h.deriv2(x_seed))


def seed_quadratures(h: EvenSeries, a: float, x_seed: float,
                     nodes: int = 40) -> tuple[float, float, float]:
    """Initial (s, i_phi, i_v) from the series on [0, x_seed].

    Gauss-Legendre on the analytic segment; the i_phi integrand uses the
    even function h'(x)/x directly, so its removable singularity at the
    axis (limit -(a/2) e^{-a^2/2}) never meets a numerical 1/x.
    """
    t, w = gauss_legendre_composite(0.0, x_seed, 1, nodes)
    f = a + h(t)
    hp_over_x = h.deriv_over_x(t)
    fp = hp_over_x * t
    sq = np.sqrt(1.0 + fp * fp)
    e = np.exp(-0.5 * (t * t + f * f))
    return (float(np.sum(w * sq)),
            float(np.sum(w * e * hp_over_x / sq)),
            float(np.sum(w * e * f * sq)))


def _phi_prime(u, v, up, vp):
    """Curvature phi' = -sin phi / u + u sin phi - v cos phi (needs u > 0)."""
    return -vp / u + u * vp - v * up


def graph_view(profile: LensProfile) -> tuple[np.ndarray, ...]:
    """(x, f, f', f'') on the profile states with 0 < u < 1."""
    m = (profile.u > 0.0) & (profile.u < 1.0)
    x, f, up, vp = profile.u[m], profile.v[m], profile.up[m], profile.vp[m]
    return x, f, vp / up, _phi_prime(x, f, up, vp) / up ** 3


def _worst(values) -> float:
    return float(np.min(values)) if len(values) else math.inf


def comparison_ratio(profile: LensProfile) -> np.ndarray:
    """F(x) = f / sqrt(1 - x^2) on the graph view; strictly increasing."""
    x, f, _, _ = graph_view(profile)
    return f / np.sqrt(1.0 - x * x)


def _transversality_slack(x, f, fp, a: float) -> np.ndarray:
    return (f - x * fp) / np.sqrt(1.0 + fp * fp) - a / math.sqrt(1.0 + a * a)


def transversality_monitor(profile: LensProfile, a: float) -> float:
    """Worst slack of (f - x f')/sqrt(1+f'^2) - a/sqrt(1+a^2) on 0 < x < 1."""
    x, f, fp, _ = graph_view(profile)
    return _worst(_transversality_slack(x, f, fp, a))


def evaluate_monitors(profile: LensProfile, a: float) -> dict:
    """Worst slack of every proved graph-region inequality (>= 0 holds)."""
    x, f, fp, _ = graph_view(profile)
    # state 0 is the axis point, state 1 the seed, the last the crossing
    u, v, up, vp = (arr[2:-1] for arr in
                    (profile.u, profile.v, profile.up, profile.vp))
    return {
        "height_lower": _worst(f - a * np.sqrt(1.0 - x * x)),
        "height_upper": _worst(a - f),
        "slope_lower": _worst(fp + a * x / (1.0 - x * x)),
        "slope_upper": _worst(-fp),
        "ratio_monotone": _worst(np.diff(comparison_ratio(profile))),
        "concavity": _worst(-_phi_prime(u, v, up, vp)),
        "height_positive": _worst(v),
        "slope_negative": _worst(-vp / up),
        "transversality": transversality_monitor(profile, a),
    }


def trajectory_to_csv(profile: LensProfile, path) -> None:
    """Write the graph view: x, f, fp, fpp, F, slack_lower, slack_upper,
    slack_transversality, one row per profile state with 0 < u < 1."""
    a = profile.a
    x, f, fp, fpp = graph_view(profile)
    root = np.sqrt(1.0 - x * x)
    slack_trans = _transversality_slack(x, f, fp, a)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,f,fp,fpp,F,slack_lower,slack_upper,slack_transversality\n")
        for row in zip(x, f, fp, fpp, f / root, f - a * root, a - f,
                       slack_trans):
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
