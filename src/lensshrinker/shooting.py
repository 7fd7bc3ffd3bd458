"""Shooting over the initial height a for the 120-degree junction condition.

Each height a in (0, sqrt(2]) yields one profile curve ending on the
horizontal axis with tangent angle alpha(a); the map is continuous, equals
-pi/2 at the circle height sqrt(2) and tends to 0 as a -> 0.  The
lens-shaped cluster needs alpha = -pi/3, equivalently u'(s_bar) = 1/2,
which bisection locates inside a validated sign-changing bracket.  Nothing
here assumes alpha(a) is monotone: the bracket endpoints are checked at
runtime, and table sampling reports every sign change it sees.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

from .arclength import LensProfile, integrate_profile
from .errors import BracketFailure, LensError
from .graph_profile import seed_from_series
from .series import R_STAR, picard_analytic

A_CIRCLE = math.sqrt(2.0)
TARGET_UP = 0.5  # u'(s_bar) at the 120-degree junction

DEFAULT_BRACKET = (0.05, A_CIRCLE)
DEFAULT_TOL_A = 1e-10


@dataclass(frozen=True)
class PipelineConfig:
    """Tolerances and knobs for the single-profile pipeline."""

    order: int = 64
    series_tol: float = 1e-14
    series_max_iter: int = 200
    series_radius: float = R_STAR
    x_seed: float = 1e-3
    ode_rtol: float = 1e-12
    ode_atol: float = 1e-12
    event_tol: float = 1e-12
    tol_a: float = DEFAULT_TOL_A
    jobs: int = 1

    def tightened(self, factor: float = 10.0) -> "PipelineConfig":
        """Copy with all integration tolerances divided by factor."""
        return replace(self,
                       series_tol=self.series_tol / factor,
                       ode_rtol=self.ode_rtol / factor,
                       ode_atol=self.ode_atol / factor,
                       event_tol=self.event_tol / factor)

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


def angle_of(a: float, cfg: PipelineConfig | None = None) -> tuple[float, LensProfile]:
    """Terminal tangent angle and full profile for one initial height.

    Composes the pipeline: axis series, then one angle-form integration
    from the series seed to the crossing.  Deterministic: identical (a, cfg)
    inputs give bitwise-identical results.
    """
    cfg = cfg or PipelineConfig()
    if not 0.0 < a <= A_CIRCLE:
        raise ValueError(f"a={a} outside the supported range (0, sqrt(2)]")
    h = picard_analytic(a, cfg.series_radius, order=cfg.order,
                        tol=cfg.series_tol, max_iter=cfg.series_max_iter)
    seed = seed_from_series(h, a, cfg.x_seed)
    profile = integrate_profile(seed, a, h, rtol=cfg.ode_rtol,
                                atol=cfg.ode_atol, event_tol=cfg.event_tol)
    return profile.alpha, profile


@dataclass(frozen=True)
class AngleSample:
    """One row of the a -> alpha(a) map."""

    a: float
    s_bar: float
    xi_a: float
    alpha: float
    monitor_pass: bool
    error: str | None = None

    def to_dict(self) -> dict:
        return {"a": self.a, "s_bar": self.s_bar, "xi_a": self.xi_a,
                "alpha": self.alpha, "monitor_pass": self.monitor_pass,
                "error": self.error}


@dataclass
class ShootReport:
    """Outcome of a shooting run and/or angle-table sweep."""

    table: list[AngleSample] = field(default_factory=list)
    a_star: float = math.nan
    alpha_residual: float = math.nan
    bracket_history: list = field(default_factory=list)
    profile: LensProfile | None = None
    sign_change_brackets: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "a_star": self.a_star,
            "alpha_residual": self.alpha_residual,
            "bracket_history": [list(b) for b in self.bracket_history],
            "sign_change_brackets": [list(b) for b in self.sign_change_brackets],
            "table": [row.to_dict() for row in self.table],
        }


def _row(a: float, cfg: PipelineConfig) -> AngleSample:
    try:
        alpha, profile = angle_of(a, cfg)
    except (LensError, ValueError) as exc:
        return AngleSample(a, math.nan, math.nan, math.nan, False,
                           f"{type(exc).__name__}: {exc}")
    ok = bool(min(profile.monitors.values()) >= -1e-9)
    return AngleSample(a, profile.s_bar, profile.xi, alpha, ok)


def sample_angle_table(a_values, cfg: PipelineConfig | None = None) -> ShootReport:
    """Tabulate (a, s_bar, xi_a, alpha) rows, recording per-row failures.

    Rows are independent; with cfg.jobs > 1 they are computed in a process
    pool.  The returned report also lists every sub-bracket on which
    u'(s_bar) - 1/2 changes sign, since the angle map is not known to be
    monotone.
    """
    cfg = cfg or PipelineConfig()
    a_values = sorted(float(a) for a in a_values)
    if cfg.jobs > 1:
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            rows = list(pool.map(_row, a_values, [cfg] * len(a_values)))
    else:
        rows = [_row(a, cfg) for a in a_values]
    report = ShootReport(table=rows)
    good = [r for r in rows if r.error is None]
    for lo, hi in zip(good[:-1], good[1:]):
        g_lo = math.cos(lo.alpha) - TARGET_UP
        g_hi = math.cos(hi.alpha) - TARGET_UP
        if g_lo == 0.0 or g_lo * g_hi < 0.0:
            report.sign_change_brackets.append((lo.a, hi.a))
    return report


def find_lens(a_lo: float = DEFAULT_BRACKET[0], a_hi: float = DEFAULT_BRACKET[1],
              tol_a: float | None = None,
              cfg: PipelineConfig | None = None) -> ShootReport:
    """Bisect u'(s_bar) = 1/2 inside a validated bracket.

    The endpoints must satisfy alpha(a_lo) > -pi/3 > alpha(a_hi); by
    continuity of the crossing data in a, plain bisection then converges,
    halving the bracket each step until its width drops below tol_a.  The
    report carries the full bracket history, the located height a_star,
    its profile, and the residual |u'(s_bar) - 1/2|.
    """
    cfg = cfg or PipelineConfig()
    tol_a = cfg.tol_a if tol_a is None else tol_a
    if not 0.0 < a_lo < a_hi <= A_CIRCLE:
        raise BracketFailure(f"invalid bracket ({a_lo}, {a_hi})")

    def g(a: float) -> tuple[float, LensProfile]:
        alpha, profile = angle_of(a, cfg)
        return float(profile.up[-1]) - TARGET_UP, profile

    g_lo, prof_lo = g(a_lo)
    g_hi, prof_hi = g(a_hi)
    if not (g_lo > 0.0 > g_hi):
        raise BracketFailure(
            f"bracket endpoints do not straddle the junction condition: "
            f"g({a_lo})={g_lo:.6g}, g({a_hi})={g_hi:.6g}")

    report = ShootReport()
    report.table.append(_sample_from(prof_lo))
    report.table.append(_sample_from(prof_hi))
    lo, hi = a_lo, a_hi
    report.bracket_history.append((lo, hi))
    while hi - lo > tol_a:
        mid = 0.5 * (lo + hi)
        g_mid, prof_mid = g(mid)
        if g_mid > 0.0:
            lo = mid
        else:
            hi = mid
        report.bracket_history.append((lo, hi))
    a_star = 0.5 * (lo + hi)
    _, profile = angle_of(a_star, cfg)
    report.a_star = a_star
    report.alpha_residual = abs(float(profile.up[-1]) - TARGET_UP)
    report.profile = profile
    report.table.append(_sample_from(profile))
    report.table.sort(key=lambda row: row.a)
    return report


def _sample_from(profile: LensProfile) -> AngleSample:
    ok = bool(min(profile.monitors.values()) >= -1e-9)
    return AngleSample(profile.a, profile.s_bar, profile.xi,
                       profile.alpha, ok)


def angle_table_to_csv(report: ShootReport, path) -> None:
    """Write a, s_bar, xi_a, alpha_deg, pass rows."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("a,s_bar,xi_a,alpha_deg,pass\n")
        for row in report.table:
            fh.write(f"{row.a:.17g},{row.s_bar:.17g},{row.xi_a:.17g},"
                     f"{math.degrees(row.alpha):.17g},{row.monitor_pass}\n")
