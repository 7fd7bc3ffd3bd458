"""Self-contained verification suite behind the ``verify`` command.

Each check recomputes a quantity with known exact value or proved bound and
reports pass/fail with the measured worst case.  The suite intentionally
overlaps the test suite: it is the runtime smoke check that a deployed
install still reproduces the mathematics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import series as se
from .arclength import (DEFECT_PER_TOL, MONITOR_SLACK_TOL, curvature_arrays,
                        shrinker_residual)
from .shooting import A_CIRCLE, PipelineConfig, angle_of, find_lens


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"[{'PASS' if self.passed else 'FAIL'}] {self.name}: {self.detail}"


def _result(name, passed, detail) -> CheckResult:
    return CheckResult(name, bool(passed), detail)


def check_operator_identities() -> CheckResult:
    rng = np.random.default_rng(2023)
    worst = 0.0
    for _ in range(100):
        coeffs = rng.standard_normal(21)  # order 40
        g = se.EvenSeries(coeffs)
        back = se.apply_L(se.invert_L(g))
        scale = np.max(np.abs(g.coeffs)) or 1.0
        worst = max(worst, float(np.max(np.abs(back.coeffs - g.coeffs))) / scale)
    return _result("apply_L . invert_L identity", worst < 1e-13,
                   f"worst relative coefficient error {worst:.3e}")


def check_kernel_functions() -> CheckResult:
    eta = se.eta_coefficients(60)
    J = se.j_function(60)
    l_eta = np.max(np.abs(se.apply_L(eta).coeffs))
    l_j = se.apply_L(J).coeffs.copy()
    unit_err = abs(l_j[0] - 1.0) + np.max(np.abs(l_j[1:]))
    norm_ok = all(se.weighted_norm(J, r) <= 0.5 * r * math.exp(r * r / 2.0)
                  for r in (0.5, 1.0, 2.0))
    ok = l_eta < 1e-13 and unit_err < 1e-13 and norm_ok
    return _result("kernel and particular solution",
                   ok, f"|L eta|={l_eta:.2e}, |L J - 1|={unit_err:.2e}, "
                       f"norm bound holds: {norm_ok}")


def check_small_height_law() -> CheckResult:
    ratios = []
    for a in (1e-3, 1e-2, 1e-1):
        h = se.picard_analytic(a, 1.0)
        gap = se.weighted_norm(h + a * se.j_function(h.order), 1.0)
        ratios.append(gap / a**3)
    spread = max(ratios) / min(ratios)
    ok = max(ratios) < 1.0 and spread < 4.0
    return _result("cubic smallness of the linear-solution gap", ok,
                   f"||h+aJ||/a^3 in [{min(ratios):.4f}, {max(ratios):.4f}]")


def check_cross_oracle() -> CheckResult:
    # picard_c2_oracle raises unless its C2 certificate (R = 6a, L = 1/2)
    # holds, so a = sqrt2 also checks that certificate at its largest a
    r = se.R_STAR
    worst = 0.0
    for a in (0.5, 1.0, A_CIRCLE):
        samples = se.picard_c2_oracle(a, r)
        h = se.picard_analytic(a, r)
        xs = np.array([p.x for p in samples])
        grid_h = np.array([p.f - a for p in samples])
        worst = max(worst, float(np.max(np.abs(grid_h - h(xs)))))
    return _result("series vs C2 grid oracle", worst < 1e-8,
                   f"sup-norm disagreement {worst:.3e}")


def check_circle_regression(cfg: PipelineConfig) -> CheckResult:
    alpha, profile = angle_of(A_CIRCLE, cfg)
    s_bar_err = abs(profile.s_bar - math.pi / math.sqrt(2.0))
    alpha_err = abs(alpha + math.pi / 2.0)
    dev = np.max(np.hypot(
        profile.u - math.sqrt(2.0) * np.sin(profile.s / math.sqrt(2.0)),
        profile.v - math.sqrt(2.0) * np.cos(profile.s / math.sqrt(2.0))))
    ok = s_bar_err < 1e-8 and alpha_err < math.radians(1e-8) and dev < 1e-8
    return _result("exact circle regression", ok,
                   f"|s_bar - pi/sqrt2|={s_bar_err:.2e}, "
                   f"|alpha + pi/2|={alpha_err:.2e}, max deviation={dev:.2e}")


def check_profile_monitors(cfg: PipelineConfig) -> CheckResult:
    tightest = []  # (slack, monitor, a) of the tightest monitor per height
    worst_curv = 0.0
    for a in (0.1, 0.5, 1.0, A_CIRCLE):
        _, profile = angle_of(a, cfg)
        tightest.append(min((v, k, a) for k, v in profile.monitors.items()))
        k_alg, k_var, k_int = curvature_arrays(profile)
        worst_curv = max(worst_curv,
                         float(np.max(np.abs(k_alg - k_int))),
                         float(np.max(np.abs(k_alg - k_var))))
    worst_slack, name, worst_a = min(tightest)
    ok = worst_slack >= MONITOR_SLACK_TOL and worst_curv < 1e-8
    return _result("inequality monitors and curvature identities", ok,
                   f"worst monitor slack {worst_slack:.3e} "
                   f"({name} at a={worst_a:.6g}), "
                   f"worst curvature split {worst_curv:.3e}")


def check_junction_shoot(cfg: PipelineConfig) -> CheckResult:
    report = find_lens(cfg=cfg)
    profile = report.profile
    res_v = abs(float(profile.vp[-1]) + math.sqrt(3.0) / 2.0)
    defect = float(np.max(shrinker_residual(profile)))
    bound = DEFECT_PER_TOL * cfg.ode_tol
    ok = (0.0 < report.a_star < A_CIRCLE and report.alpha_residual < 1e-9
          and res_v < 1e-9 and defect < bound)
    return _result("junction shooting", ok,
                   f"a*={report.a_star:.12f}, |u'-1/2|={report.alpha_residual:.2e}, "
                   f"|v'+sqrt3/2|={res_v:.2e}, "
                   f"ODE defect={defect:.2e} (bound {bound:.0e})")


def check_small_height_crossing(cfg: PipelineConfig) -> CheckResult:
    x0 = se.find_x0()
    gaps, alphas = [], []
    for a in (0.01, 0.005):
        alpha, profile = angle_of(a, cfg)
        gaps.append(abs(profile.xi - x0))
        alphas.append(abs(alpha))
    ok = max(gaps) < 0.05 and alphas[1] < alphas[0]
    return _result("small-height crossing near x0", ok,
                   f"|xi - x0| up to {max(gaps):.2e}, "
                   f"|alpha| decreasing: {alphas[1] < alphas[0]}")


def check_mesh(cfg: PipelineConfig) -> CheckResult:
    from .cluster import SHEET_ANNULUS, build_cluster, mesh_checks

    _, profile = angle_of(A_CIRCLE, cfg)
    mesh = build_cluster(profile, n_theta=32, n_s=128, n_r=8)
    caps = np.unique(mesh.triangles[mesh.sheet_id != SHEET_ANNULUS])
    radii = np.linalg.norm(mesh.vertices[caps], axis=1)
    sphere_err = float(np.max(np.abs(radii - math.sqrt(2.0))))
    names = {name: ok for name, ok, _ in mesh_checks(mesh)}
    ok = all(names.values()) and sphere_err < 1e-6
    return _result("degenerate sphere mesh", ok,
                   f"checks {names}, radius error {sphere_err:.2e}")


SERIES_CHECKS = (
    check_operator_identities,
    check_kernel_functions,
    check_small_height_law,
    check_cross_oracle,
)
PIPELINE_CHECKS = (
    check_circle_regression,
    check_profile_monitors,
    check_small_height_crossing,
    check_junction_shoot,
    check_mesh,
)


def run_all(cfg: PipelineConfig, verbose: bool = True):
    """Run the series checks, then the pipeline checks under cfg; returns
    the list of results."""
    results = []
    for fn in SERIES_CHECKS + PIPELINE_CHECKS:
        try:
            res = fn(cfg) if fn in PIPELINE_CHECKS else fn()
        except Exception as exc:  # a crash is a failure, not an abort
            res = CheckResult(fn.__name__, False, f"{type(exc).__name__}: {exc}")
        results.append(res)
        if verbose:
            print(res.line())
    return results
