import math

import numpy as np
import pytest

from lensshrinker import (EvenSeries, MonitorViolation, PipelineConfig,
                          angle_of, arclength, graph_view, integrate_profile,
                          j_function, picard_analytic)
from lensshrinker.arclength import X_SEED, seed_quadratures
from lensshrinker.graph_profile import trajectory_to_csv
from lensshrinker.series import R_STAR

SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# seeding
# ---------------------------------------------------------------------------

def test_seed_limits_toward_axis():
    # the series seed (x, a + h, h', h'') tends to (0, a, 0, -a/2)
    a = 0.8
    h = picard_analytic(a, R_STAR)
    for x_seed in (1e-3, 1e-5, 1e-7):
        assert abs(h(x_seed)) < a * x_seed
        assert abs(h.deriv(x_seed)) < a * x_seed
        assert h.deriv2(x_seed) == pytest.approx(-a / 2.0, rel=1e-5)
    assert h.deriv2(1e-9) == pytest.approx(-a / 2.0, rel=1e-12)


@pytest.mark.parametrize("x_seed", [1e-3, 5e-4])
def test_integrate_profile_starts_from_the_series(x_seed, monkeypatch):
    monkeypatch.setattr(arclength, "X_SEED", x_seed)
    a = 0.8
    h = picard_analytic(a, R_STAR)
    p = integrate_profile(h, a)
    assert (p.u[1], p.v[1]) == (x_seed, a + h(x_seed))
    assert p.vp[1] / p.up[1] == pytest.approx(h.deriv(x_seed), rel=1e-14)
    assert p.s[1] == pytest.approx(x_seed, rel=1e-6)


def test_seed_rejects_outside_certified_radius():
    h = picard_analytic(1.0, R_STAR)
    for radius in (X_SEED, 0.5 * X_SEED):
        short = EvenSeries(h.coeffs, radius)
        with pytest.raises(ValueError, match="X_SEED"):
            integrate_profile(short, 1.0)


def test_seed_tracks_linear_solution_for_small_height():
    a = 1e-2
    h = picard_analytic(a, R_STAR)
    J = j_function(64)
    x_seed = 1e-3
    rel = abs((a + h(x_seed)) / a - (1.0 - J(x_seed)))
    assert rel < 10.0 * a * a


# ---------------------------------------------------------------------------
# the graph view of the exact circle
# ---------------------------------------------------------------------------

def test_circle_pointwise_regression(circle_profile):
    x, f, _, _ = graph_view(circle_profile)
    assert x[0] == 1e-3 and x[-1] > 0.9
    assert np.max(np.abs(f - np.sqrt(2.0 - x * x))) < 1e-9


def test_circle_arclength_at_one(circle_profile):
    # u = sqrt(2) sin(s/sqrt2) passes 1 at s = pi sqrt(2) / 4
    assert circle_profile.s_star == pytest.approx(math.pi * SQRT2 / 4.0,
                                                  abs=1e-10)


# ---------------------------------------------------------------------------
# monitors
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("a", [0.1, 0.5, 1.0, SQRT2])
def test_proved_bounds_hold(a, profiles):
    _, p = profiles[a]
    graph = {k: v for k, v in p.monitors.items() if k.startswith("graph_")}
    assert len(graph) == 7
    assert min(graph.values()) >= -1e-9
    xs, fs, fps, fpps = graph_view(p)
    assert np.all(fs > a * np.sqrt(1.0 - xs * xs))
    assert np.all(fs < a)
    assert np.all(fps < 0.0)
    assert np.all(fps > -a * xs / (1.0 - xs * xs))
    assert np.all(fpps < 0.0)


def test_comparison_ratio_increases(profiles):
    assert profiles[1.0][1].monitors["graph_ratio_monotone"] > 0.0


def test_samples_strictly_increasing_from_seed(profiles):
    p = profiles[1.0][1]
    x, _, _, _ = graph_view(p)
    assert p.u[1] == x[0] == 1e-3
    assert np.all(np.diff(x) > 0.0)
    assert np.all(np.diff(p.s) > 0.0)


def test_height_at_one_is_interior(profiles):
    for a in (0.1, 1.0, SQRT2):
        p = profiles[a][1]
        assert p.u[1] < 1.0 < p.xi
        f1 = float(np.interp(1.0, p.u, p.v))
        assert 0.0 < f1 < a


def test_transversality_floor_at_origin_is_trivial():
    # at x = 0 the floor reads a - a/sqrt(1+a^2) > 0
    for a in (0.1, 1.0, 2.0):
        assert a - a / math.sqrt(1.0 + a * a) > 0.0


def test_transversality_on_exact_circle():
    # for the circle the quantity is the constant sqrt(2)
    xs = np.linspace(0.01, 0.99, 50)
    f = np.sqrt(2.0 - xs * xs)
    fp = -xs / f
    val = (f - xs * fp) / np.sqrt(1.0 + fp * fp)
    assert np.allclose(val, SQRT2, rtol=1e-13)
    assert np.all(val >= SQRT2 / math.sqrt(3.0))


def test_transversality_monitor_positive(profiles):
    for a in (0.1, 1.0, SQRT2):
        assert profiles[a][1].monitors["graph_transversality"] > 0.0


def test_monitor_violation_on_inconsistent_seed():
    # a series curving upward seeds a positive slope, which contradicts
    # every slope bound
    bad = EvenSeries([0.0, +0.25])
    with pytest.raises(MonitorViolation, match="graph_slope_negative"):
        integrate_profile(bad, 1.0)


# ---------------------------------------------------------------------------
# numerical consistency
# ---------------------------------------------------------------------------

def test_seed_independence(profiles, monkeypatch):
    _, ref = profiles[1.0]
    monkeypatch.setattr(arclength, "X_SEED", 5e-4)
    p = integrate_profile(picard_analytic(1.0, R_STAR), 1.0)
    assert p.u[1] == 5e-4
    for name in ("alpha", "s_bar", "xi"):
        assert abs(getattr(p, name) - getattr(ref, name)) < 1e-10


def test_step_size_convergence():
    coarse = angle_of(1.0, PipelineConfig(ode_tol=1e-9))[1]
    fine = angle_of(1.0, PipelineConfig(ode_tol=5e-10))[1]
    for name in ("alpha", "s_bar", "xi"):
        assert abs(getattr(coarse, name) - getattr(fine, name)) < 1e-9


def test_quadrature_seed_values():
    # over [0, x_seed] the arclength is x_seed to fourth order
    a = 1.0
    h = picard_analytic(a, R_STAR)
    s0, iphi0, iv0 = seed_quadratures(h, a, 1e-3)
    assert s0 == pytest.approx(1e-3, rel=1e-6)
    # i_phi integrand tends to -(a/2) e^{-a^2/2} at the axis
    assert iphi0 == pytest.approx(-0.5 * math.exp(-0.5) * 1e-3, rel=1e-5)
    assert iv0 == pytest.approx(math.exp(-0.5) * 1e-3, rel=1e-5)


def test_csv_export(tmp_path, profiles):
    p = profiles[0.5][1]
    path = tmp_path / "traj.csv"
    trajectory_to_csv(p, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,f,fp,fpp,F,slack_lower,slack_upper,slack_transversality"
    assert len(lines) == int(np.sum((p.u > 0.0) & (p.u < 1.0))) + 1
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == pytest.approx(p.u[1], rel=1e-16)
