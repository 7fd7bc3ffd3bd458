"""The acceptance gate that ``lensshrinker verify`` and the acceptance tests
run: eight criteria, each recomputing quantities with a known exact value or
a proved bound.  Every tolerance of the gate is defined here, apart from the
monitor slack and the ODE defect bound, which come from arclength."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from . import series as se
from .arclength import (DEFECT_PER_TOL, MONITOR_SLACK_TOL, curvature_arrays,
                        shrinker_residual)
from .cluster import SHEET_ANNULUS, build_cluster, mesh_checks
from .dop853 import RTOL_FLOOR
from .shooting import A_CIRCLE, PipelineConfig, angle_of, find_lens

# the contract, pinned by tests/test_acceptance.py
CIRCLE_TOL = 1e-8  # s_bar, the angle in degrees and the curve at a = sqrt2
JUNCTION_TOL = 1e-9  # |u' - 1/2| and |v' + sqrt3/2| at a*
CURVATURE_TOL = 1e-8  # the curvature identities and k(0+) = -a/2
ORACLE_TOL = 1e-8  # sup |series - C2 grid oracle|
A_SUITE = (0.1, 0.5, 1.0, A_CIRCLE)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"[{'PASS' if self.passed else 'FAIL'}] {self.name}: {self.detail}"


def shared_solves() -> SimpleNamespace:
    """angle_of(a, cfg) and find_lens(cfg) for one run of the gate, each
    solved once per (a, cfg); both are deterministic, so sharing them
    between criteria moves no verdict and no detail."""
    return SimpleNamespace(
        angle_of=functools.cache(lambda a, cfg: angle_of(a, cfg)),
        find_lens=functools.cache(lambda cfg: find_lens(cfg=cfg)))


def _criterion(name):
    """Make fn(cfg, solves) -> (passed, detail) a criterion (cfg, solves)
    -> CheckResult, with solves from shared_solves (a fresh one if None)."""
    def make(fn):
        def criterion(cfg: PipelineConfig, solves=None) -> CheckResult:
            passed, detail = fn(cfg, solves or shared_solves())
            return CheckResult(name, bool(passed), detail)
        criterion.name, criterion.__name__ = name, fn.__name__
        return criterion
    return make


@_criterion("criterion 1 (circle regression)")
def criterion_1_circle_regression(cfg, solves):
    alpha, profile = solves.angle_of(A_CIRCLE, cfg)
    s_bar_err = abs(profile.s_bar - math.pi / A_CIRCLE)
    alpha_err = abs(alpha + math.pi / 2.0)
    dev = np.max(np.hypot(profile.u - A_CIRCLE * np.sin(profile.s / A_CIRCLE),
                          profile.v - A_CIRCLE * np.cos(profile.s / A_CIRCLE)))
    ok = (s_bar_err < CIRCLE_TOL and alpha_err < math.radians(CIRCLE_TOL)
          and dev < CIRCLE_TOL)
    return ok, (f"|s_bar - pi/sqrt2|={s_bar_err:.2e}, "
                f"|alpha + pi/2|={alpha_err:.2e} rad, max deviation={dev:.2e}")


@_criterion("criterion 2 (junction height found)")
def criterion_2_junction_located(cfg, solves):
    report = solves.find_lens(cfg)
    # at the floor no tighter solve exists, and the drift reads 0
    tight = solves.find_lens(
        cfg._replace(ode_tol=max(cfg.ode_tol / 10, RTOL_FLOOR)))
    drift = abs(tight.a_star - report.a_star)
    profile = report.profile
    res_v = abs(float(profile.vp[-1]) + math.sqrt(3.0) / 2.0)
    worst = min(profile.monitors.values())
    defect = float(np.max(shrinker_residual(profile)))
    bound = DEFECT_PER_TOL * cfg.ode_tol
    ok = (0.0 < report.a_star < A_CIRCLE and report.alpha_residual < JUNCTION_TOL
          and res_v < JUNCTION_TOL and drift < 1e-7
          and worst >= MONITOR_SLACK_TOL and defect < bound)
    return ok, (f"a*={report.a_star:.12f}, |u'-1/2|={report.alpha_residual:.2e}, "
                f"|v'+sqrt3/2|={res_v:.2e}, refinement drift={drift:.2e}, "
                f"worst monitor slack={worst:.2e}, "
                f"ODE defect={defect:.2e} (bound {bound:.0e})")


@_criterion("criterion 3 (small-height asymptotics)")
def criterion_3_small_height_asymptotics(cfg, solves):
    x0 = se.find_x0()
    gaps, alphas = [], []
    for a in (0.01, 0.005):
        alpha, profile = solves.angle_of(a, cfg)
        gaps.append(abs(profile.xi - x0))
        alphas.append(abs(alpha))
    ok = max(gaps) < 0.05 and alphas[1] < alphas[0]
    return ok, (f"x0={x0:.6f}, |xi - x0|={gaps[0]:.2e}/{gaps[1]:.2e}, "
                f"|alpha|={alphas[0]:.4e} > {alphas[1]:.4e}")


@_criterion("criterion 4 (curvature identity suite)")
def criterion_4_curvature_identities(cfg, solves):
    suite = ([solves.angle_of(a, cfg)[1] for a in A_SUITE]
             + [solves.find_lens(cfg).profile])
    worst_int = worst_var = axis_err = 0.0
    for p in suite:
        k_alg, k_var, k_int = curvature_arrays(p)
        worst_int = max(worst_int, float(np.max(np.abs(k_alg - k_int))))
        worst_var = max(worst_var, float(np.max(np.abs(k_alg - k_var))))
        axis_err = max(axis_err, abs(p.series.deriv2(0.0) + p.a / 2.0))
    ok = max(worst_int, worst_var, axis_err) < CURVATURE_TOL
    return ok, (f"max|k_alg-k_int|={worst_int:.2e}, max|k_alg-k_var|="
                f"{worst_var:.2e}, |k(0+) + a/2|={axis_err:.2e}")


@_criterion("criterion 5 (inequality monitors)")
def criterion_5_inequality_monitors(cfg, solves):
    tightest = []  # (slack, monitor, a) of the tightest monitor per height
    defect = 0.0
    for a in A_SUITE:
        _, profile = solves.angle_of(a, cfg)
        tightest.append(min((v, k, a) for k, v in profile.monitors.items()))
        defect = max(defect, float(np.max(shrinker_residual(profile))))
    worst, name, worst_a = min(tightest)
    bound = DEFECT_PER_TOL * cfg.ode_tol
    ok = worst >= MONITOR_SLACK_TOL and defect < bound
    return ok, (f"worst slack={worst:.3e} ({name} at a={worst_a:.6g}), "
                f"max ODE defect={defect:.2e} (bound {bound:.0e})")


@_criterion("criterion 6 (operator and series suite)")
def criterion_6_operator_suite(cfg, solves):
    roundtrip = 0.0
    for c in np.random.default_rng(42).standard_normal((100, 21)):  # order 40
        back = se.apply_L(se.invert_L(se.EvenSeries(c))).coeffs
        roundtrip = max(roundtrip,
                        np.max(np.abs(back - c)) / (np.max(np.abs(c)) or 1.0))
    J = se.j_function(60)
    kernel_err = np.max(np.abs(se.apply_L(se.eta_coefficients(60)).coeffs))
    lj = se.apply_L(J).coeffs
    unit_err = abs(lj[0] - 1.0) + np.max(np.abs(lj[1:]))
    norm_ok = all(se.weighted_norm(J, r) <= 0.5 * r * math.exp(r * r / 2.0)
                  for r in (0.5, 1.0, 2.0))
    # the C2 certificate at its reference constants: a = sqrt2, R = 6a, L = 1/2
    cert = se.contraction_certificate(se.ContractionConstants(
        A_CIRCLE, 1.0 / (36.0 * A_CIRCLE), 6.0 * A_CIRCLE, 0.5, "C2"))
    ratios = []  # ||h + aJ|| / a^3: the gap to the linear solution is cubic
    for a in (1e-3, 0.01, 0.02, 0.05, 0.1):
        h = se.picard_analytic(a, 1.0)
        ratios.append(se.weighted_norm(h + a * se.j_function(h.order), 1.0) / a**3)
    ok = (max(roundtrip, kernel_err, unit_err) < 1e-13 and norm_ok
          and cert.certified and max(ratios) < 0.1
          and max(ratios) / min(ratios) < 2.0)
    return ok, (f"roundtrip={roundtrip:.2e}, |L eta|={kernel_err:.2e}, "
                f"|L J - 1|={unit_err:.2e}, J norm bound={norm_ok}, "
                f"certificate={cert.certified}, "
                f"||h+aJ||/a^3 in [{min(ratios):.4f}, {max(ratios):.4f}]")


@_criterion("criterion 7 (cross-oracle agreement)")
def criterion_7_cross_oracle(cfg, solves):
    # picard_c2_oracle raises unless its C2 certificate (R = 6a, L = 1/2)
    # holds, so a = sqrt2 also checks that certificate at its largest a
    sup = 0.0
    for a in (0.5, 1.0, A_CIRCLE):
        xs, f, _, _ = se.picard_c2_oracle(a, se.R_STAR)
        h = se.picard_analytic(a, se.R_STAR)
        sup = max(sup, float(np.max(np.abs(f - a - h(xs)))))
    quotient = 0.0  # of h'' in a; the C2 estimate bounds it by 37/12
    for a1, a2 in ((0.5, 1.0), (1.0, A_CIRCLE), (0.2, 0.7)):
        fpp1 = se.picard_c2_oracle(a1, se.R_STAR, grid=65)[3]
        fpp2 = se.picard_c2_oracle(a2, se.R_STAR, grid=65)[3]
        gap = float(np.max(np.abs(fpp1 - fpp2)))
        quotient = max(quotient, gap / abs(a1 - a2))
    ok = sup < ORACLE_TOL and quotient <= 37.0 / 12.0
    return ok, (f"sup|series - grid|={sup:.2e}, "
                f"Lipschitz quotient={quotient:.4f} <= {37 / 12:.4f}")


@_criterion("criterion 8 (mesh validity)")
def criterion_8_mesh_validity(cfg, solves):
    _, profile = solves.angle_of(A_CIRCLE, cfg)
    mesh = build_cluster(profile, n_theta=32, n_s=128, n_r=8)
    caps = np.unique(mesh.triangles[mesh.sheet_id != SHEET_ANNULUS])
    radius_err = float(np.max(np.abs(
        np.linalg.norm(mesh.vertices[caps], axis=1) - A_CIRCLE)))
    names = {name: ok for name, ok, _ in mesh_checks(mesh)}
    ok = all(names.values()) and radius_err < 1e-6
    return ok, f"checks={names}, sphere radius error={radius_err:.2e}"


CRITERIA = (criterion_1_circle_regression, criterion_2_junction_located,
            criterion_3_small_height_asymptotics,
            criterion_4_curvature_identities, criterion_5_inequality_monitors,
            criterion_6_operator_suite, criterion_7_cross_oracle,
            criterion_8_mesh_validity)


def run_all(cfg: PipelineConfig, verbose: bool = True) -> list[CheckResult]:
    """Results of every criterion under cfg; a crash is a failed result.
    The criteria share one shared_solves, so no height is solved twice."""
    results, solves = [], shared_solves()
    for criterion in CRITERIA:
        try:
            result = criterion(cfg, solves)
        except Exception as exc:  # reported under the criterion's name
            result = CheckResult(criterion.name, False,
                                 f"{type(exc).__name__}: {exc}")
        results.append(result)
        if verbose:
            print(result.line())
    return results
