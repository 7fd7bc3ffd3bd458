import json
import math
import os
import re
import signal
import time
from types import SimpleNamespace

import numpy as np
import pytest

from lensshrinker import (BracketFailure, PipelineConfig, angle_of, dop853,
                          find_lens, find_x0, sample_angle_table, shooting)
from lensshrinker.shooting import angle_table_to_csv, junction_residual

SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# the angle map
# ---------------------------------------------------------------------------

def test_angle_at_circle_height(profiles):
    alpha, _ = profiles[SQRT2]
    assert alpha == pytest.approx(-math.pi / 2.0, abs=1e-8)


def test_angle_small_height():
    alpha, _ = angle_of(0.01)
    assert -0.2 < alpha < 0.0


def test_angles_negative_everywhere(profiles):
    for a, (alpha, _) in profiles.items():
        assert alpha < 0.0


def test_angle_of_rejects_out_of_range():
    for a in (0.0, -1.0, 1.5):
        with pytest.raises(ValueError):
            angle_of(a)


def test_angle_deterministic():
    a1, p1 = angle_of(0.6)
    a2, p2 = angle_of(0.6)
    assert a1 == a2
    assert np.array_equal(p1.u, p2.u)
    assert np.array_equal(p1.vp, p2.vp)
    assert p1.s_bar == p2.s_bar


# ---------------------------------------------------------------------------
# the junction search
# ---------------------------------------------------------------------------

def test_find_lens_locates_junction(lens_report):
    rep = lens_report
    assert 0.0 < rep.a_star < SQRT2
    assert rep.alpha_residual < 1e-9
    p = rep.profile
    assert abs(p.up[-1] - 0.5) < 1e-9
    assert abs(p.vp[-1] + math.sqrt(3.0) / 2.0) < 1e-9
    assert p.alpha == pytest.approx(-math.pi / 3.0, abs=1e-9)
    assert min(p.monitors.values()) >= -1e-9


def test_junction_residual_reads_the_terminal_tangent(profiles):
    # cos alpha is the stored u'(s_bar) bit for bit, so the table's
    # sign changes and the shoot's g are one function
    for _, p in profiles.values():
        assert junction_residual(p.alpha) == float(p.up[-1]) - 0.5


def test_find_lens_brackets_nest_and_straddle(lens_report):
    hist = lens_report.bracket_history
    for lo, hi, g_lo, g_hi in hist:
        assert lo < hi and g_lo > 0.0 >= g_hi
    for (lo0, hi0, *_), (lo1, hi1, *_) in zip(hist[:-1], hist[1:]):
        assert lo0 <= lo1 < hi1 <= hi0
        assert (lo1, hi1) != (lo0, hi0)
    lo, hi, g_lo, g_hi = hist[-1]
    assert hi - lo <= 1e-10
    assert lens_report.a_star in (lo, hi)
    assert lens_report.profile.a == lens_report.a_star
    assert lens_report.alpha_residual == min(abs(g_lo), abs(g_hi))


def test_find_lens_evaluation_budget(monkeypatch):
    # bisection to tol_a = 1e-10 took 37 solves; every ITP solve is a
    # bracket endpoint, and no height, a* included, is solved twice
    seen = []

    def counting_angle_of(a, cfg=None):
        seen.append(a)
        return angle_of(a, cfg)

    monkeypatch.setattr(shooting, "angle_of", counting_angle_of)
    rep = find_lens()
    assert len(seen) <= 12
    ends = [a for row in rep.bracket_history for a in row[:2]]
    assert set(seen) == set(ends)
    assert len(set(seen)) == len(seen)


def _stub_angle_of(g):
    # with junction_residual the identity, the shoot's g is the stub's
    # alpha itself, so g stays exact
    def stub(a, cfg=None):
        return g(a), SimpleNamespace(a=a, s_bar=1.0, xi=1.0, alpha=g(a),
                                     monitors={"stub": 0.0})
    return stub


@pytest.mark.parametrize("g", [
    lambda a: 0.25 if a < 0.7123456789 else -0.25,  # a step: no slope to use
    lambda a: -(a - 0.7123456789) ** 3,             # a flat cubic root
], ids=["step", "flat_cubic"])
def test_find_lens_minmax_steps(monkeypatch, g):
    monkeypatch.setattr(shooting, "angle_of", _stub_angle_of(g))
    monkeypatch.setattr(shooting, "junction_residual", lambda alpha: alpha)
    a_lo, a_hi, tol_a = 0.05, SQRT2, 1e-10
    hist = find_lens(a_lo, a_hi, tol_a).bracket_history
    assert len(hist) - 1 <= math.ceil(math.log2((a_hi - a_lo) / tol_a)) + 2
    for lo, hi, g_lo, g_hi in hist:
        assert g_lo == g(lo) > 0.0 >= g(hi) == g_hi
    lo, hi = hist[-1][:2]
    assert lo < 0.7123456789 <= hi and hi - lo <= tol_a


@pytest.mark.parametrize("tol_a", [math.inf, SQRT2 - 0.05, 0.0, -1e-10,
                                   math.nan])
def test_find_lens_rejects_unbounded_tol_a(tol_a):
    with pytest.raises(ValueError, match="tol_a"):
        find_lens(tol_a=tol_a)


def test_find_lens_stops_at_float_resolution(monkeypatch):
    # a tolerance below the float spacing near a* still terminates, and every
    # bracket straddles the sign change of u'(s_bar) - 1/2
    g = {}

    def recording_angle_of(a, cfg=None):
        alpha, profile = angle_of(a, cfg)
        g[a] = float(profile.up[-1]) - 0.5
        return alpha, profile

    monkeypatch.setattr(shooting, "angle_of", recording_angle_of)
    hist = find_lens(tol_a=1e-300).bracket_history
    assert len(hist) <= 64
    for lo, hi, g_lo, g_hi in hist:
        assert g[lo] == g_lo > 0.0 >= g_hi == g[hi]
    lo, hi = hist[-1][:2]
    assert np.nextafter(lo, hi) == hi


def test_find_lens_deterministic(lens_report):
    rep2 = find_lens()
    assert rep2.a_star == lens_report.a_star


def test_find_lens_rejects_bad_bracket():
    with pytest.raises(BracketFailure):
        find_lens(1.0, 1.2)
    with pytest.raises(BracketFailure):
        find_lens(0.3, 0.2)


def test_find_lens_refinement_stability(lens_report):
    cfg10 = PipelineConfig().tightened(10.0)
    rep10 = find_lens(cfg=cfg10)
    assert abs(rep10.a_star - lens_report.a_star) < 1e-7


def test_refinement_is_cauchy():
    # drift between successive tolerance decades stays bounded
    base = PipelineConfig(ode_tol=1e-10)
    a1 = find_lens(tol_a=1e-8, cfg=base).a_star
    a2 = find_lens(tol_a=1e-8, cfg=base.tightened(10.0)).a_star
    a3 = find_lens(tol_a=1e-8, cfg=base.tightened(100.0)).a_star
    d12, d23 = abs(a2 - a1), abs(a3 - a2)
    assert d23 <= 10.0 * d12 + 1e-8


# ---------------------------------------------------------------------------
# the angle table
# ---------------------------------------------------------------------------

def test_table_rows_and_trends():
    values = [0.01, 0.3, 0.7, 1.0, SQRT2]
    report = sample_angle_table(values)
    assert [row.a for row in report.table] == sorted(values)
    assert all(row.error is None and row.monitor_pass for row in report.table)
    alphas = [row.alpha for row in report.table]
    assert alphas[0] == pytest.approx(-0.0144, abs=2e-3)
    assert alphas[-1] == pytest.approx(-math.pi / 2.0, abs=1e-8)
    # crossing abscissa approaches x0 from below as a shrinks
    x0 = find_x0()
    assert abs(report.table[0].xi_a - x0) < 1e-3
    # exactly one sign change of u'(s_bar) - 1/2 on this grid
    assert report.sign_change_brackets == [(0.7, 1.0)]


def test_table_records_failures():
    report = sample_angle_table([0.5, 2.0])
    ok = {row.a: row for row in report.table}
    assert ok[0.5].error is None and ok[0.5].monitor_pass is True
    assert ok[2.0].error is not None and ok[2.0].monitor_pass is False
    assert math.isnan(ok[2.0].alpha)


def test_table_continuity_of_arclength():
    values = [0.800, 0.801, 0.802]
    report = sample_angle_table(values)
    sbar = [row.s_bar for row in report.table]
    diffs = np.abs(np.diff(sbar))
    # empirical modulus of continuity at step 1e-3; recorded, loosely bounded
    assert np.all(diffs < 0.05)


def _table_text(report):
    # json spells each float exactly and NaN as NaN, so equal text is equal
    # bits, error rows included
    return json.dumps(report.to_dict())


def test_table_parallel_matches_serial():
    values = [1.5, 0.3, 0.7, 0.9, 1.2]  # 1.5 is an error row
    serial = sample_angle_table(values)
    assert serial.table[-1].error is not None
    assert serial.sign_change_brackets == [(0.7, 0.9)]
    for jobs in (2, 3):
        parallel = sample_angle_table(values, PipelineConfig(jobs=jobs))
        assert _table_text(parallel) == _table_text(serial)
        assert parallel.sign_change_brackets == serial.sign_change_brackets
    # one row forks nothing
    one = sample_angle_table([0.7], PipelineConfig(jobs=2))
    assert _table_text(one) == _table_text(sample_angle_table([0.7]))


def test_forked_table_generates_the_stage_code_once_in_the_caller(
        tmp_path, monkeypatch):
    log = tmp_path / "pids"
    generate = dop853._generate

    def logged(n):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        return generate(n)

    monkeypatch.setattr(dop853, "_generate", logged)
    dop853._stage_code.cache_clear()
    sample_angle_table([0.3, 0.5, 0.9, 1.2], PipelineConfig(jobs=2))
    assert log.read_text().split() == [str(os.getpid())]


def _child_raises(a, in_child):
    if in_child:
        raise RuntimeError(f"boom at a = {a}")


def _child_killed(a, in_child):
    if in_child:
        os.kill(os.getpid(), signal.SIGKILL)


def _caller_raises(a, in_child):
    if in_child:
        time.sleep(60)  # so the child must be killed, not awaited
    elif a == 0.5:  # the caller's second row, after the fork
        raise RuntimeError(f"boom at a = {a}")


@pytest.mark.parametrize("fault, error, match", [
    (_child_raises, RuntimeError, "boom at a = 0.9"),
    (_child_killed, ChildProcessError,
     re.escape("a = [0.9, 1.2] ended by signal 9")),
    (_caller_raises, RuntimeError, "boom at a = 0.5"),
], ids=["child_raises", "child_killed", "caller_raises"])
def test_forked_table_failures_leave_no_child_or_fd(monkeypatch, fault, error,
                                                    match):
    # the caller solves [0.3, 0.5], one child [0.9, 1.2]
    caller = os.getpid()
    solve = shooting.angle_of

    def angle_of(a, cfg=None):
        fault(a, os.getpid() != caller)
        return solve(a, cfg)

    monkeypatch.setattr(shooting, "angle_of", angle_of)
    fds = sorted(os.listdir("/dev/fd"))
    start = time.monotonic()
    with pytest.raises(error, match=match) as info:
        sample_angle_table([0.3, 0.5, 0.9, 1.2], PipelineConfig(jobs=2))
    assert time.monotonic() - start < 30
    if fault is _child_raises:
        assert info.value.__notes__ == ["raised while solving a = [0.9, 1.2]"]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert sorted(os.listdir("/dev/fd")) == fds


def test_table_without_fork_refuses_jobs(monkeypatch):
    monkeypatch.delattr(os, "fork")
    with pytest.raises(ValueError, match="os.fork"):
        sample_angle_table([0.5], PipelineConfig(jobs=2))
    assert sample_angle_table([0.5]).table[0].error is None


def test_table_csv(tmp_path):
    report = sample_angle_table([0.5, 1.0])
    path = tmp_path / "table.csv"
    angle_table_to_csv(report, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "a,s_bar,xi_a,alpha_deg,pass"
    assert len(lines) == 3
