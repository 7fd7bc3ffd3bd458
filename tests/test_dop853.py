"""The in-repo DOP853 against scipy's solve_ivp as an independent reference."""

import dis
import hashlib
import itertools
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import brentq as scipy_brentq

from conftest import A_STAR
import lensshrinker
from lensshrinker import (PipelineConfig, angle_of, arclength, dop853,
                          picard_analytic)
from lensshrinker.arclength import (X_SEED, integrate_profile, profile_summary,
                                    seed_quadratures)
from lensshrinker.dop853 import DenseOutput, _horner, brentq
from lensshrinker.errors import NoConvergence, StepFailure
from lensshrinker.series import R_STAR, picard_c2_oracle

SQRT2 = math.sqrt(2.0)
HEIGHTS = [float(a) for a in np.geomspace(0.005, SQRT2, 11)]
EPS = np.finfo(float).eps
# In-repo stage sums run in index order and scipy's through BLAS dots, so
# the two agree on the work done but not to the bit.  Each bound is about
# twice the largest deviation measured under the SkylakeX, Haswell and
# Sandybridge OpenBLAS kernels: step times 4.4e-6 relative (the error
# estimate cancels O(1) stage values, so its rounding moves the step
# size), event times 15 EPS * s_bar, alpha, xi and dense states 6e-15.
STEP_RTOL = 1e-5
EVENT_RTOL = 32 * EPS
STATE_TOL = 1e-14

# the test problems, as source
DECAY = dop853.rhs("t", "y", "", ["-y"])
OSCILLATOR = dop853.rhs("t", "y0 y1", "", ["y1", "-y0"])


def _scipy_solve(profile, cfg):
    """solve_ivp from the series at X_SEED, with the arclength cap and the
    events of integrate_profile."""
    a, h = profile.a, profile.series
    s0, iphi0, iv0 = seed_quadratures(h, a, X_SEED)
    s_max = s0 + arclength.ARCLENGTH_HARD_CAP

    def crossing(s, y):
        return y[1]

    def u_passes_one(s, y):
        return y[0] - 1.0

    crossing.terminal, crossing.direction = True, -1
    u_passes_one.direction = 1
    return solve_ivp(arclength.arclength_rhs, (s0, s_max),
                     [X_SEED, a + h(X_SEED), math.atan(h.deriv(X_SEED)),
                      iphi0, iv0],
                     method="DOP853", rtol=cfg.ode_tol, atol=cfg.ode_tol,
                     dense_output=True, events=[crossing, u_passes_one])


@pytest.mark.parametrize("a", HEIGHTS)
def test_matches_scipy_dop853(a):
    cfg = PipelineConfig()
    _, p = angle_of(a, cfg)
    ref = _scipy_solve(p, cfg)
    assert ref.status == 1
    steps = p.dense.ts[1:]  # breakpoint 0 is the axis
    # the same accepted steps and right-hand-side calls up to the crossing
    assert len(steps) == len(ref.t) == p.n_steps + 1
    assert np.allclose(steps[:-1], ref.t[:-1], rtol=STEP_RTOL, atol=0)
    assert p.nfev == ref.nfev
    s_bar, s_star = ref.t_events[0][0], ref.t_events[1][0]
    assert abs(p.s_bar - s_bar) <= EVENT_RTOL * s_bar
    assert abs(p.s_star - s_star) <= EVENT_RTOL * s_bar
    assert abs(p.alpha - ref.y_events[0][0][2]) <= STATE_TOL
    assert abs(p.xi - ref.y_events[0][0][0]) <= STATE_TOL
    # the evidence behind the constant crossing bound arclength.EVENT_TOL
    assert p.v_residual <= 1e-15
    # dense states on the profile grid of every step before the crossing step
    head = slice(1, 1 + (p.n_steps - 1) * (arclength.DENSE_POINTS_PER_STEP + 1))
    u, v, phi, i_phi, i_v = ref.sol(p.s[head])
    for got, want in ((p.u, u), (p.v, v), (p.up, np.cos(phi)),
                      (p.vp, np.sin(phi)), (p.i_phi, i_phi), (p.i_v, i_v)):
        assert np.max(np.abs(got[head] - want)) <= STATE_TOL


def test_nfev_counts_every_rhs_call(monkeypatch):
    # each evaluation of the angle form, by the callable or inline in the
    # stage code, runs the form's statements once, so a statement added to
    # them counts every evaluation made
    ticks = itertools.count()
    monkeypatch.setitem(dop853._MATH, "tick", ticks.__next__)
    form = arclength.ANGLE_FORM
    counting = dop853.rhs(form.time, " ".join(form.state),
                          form.body + "\ntick()", form.rates)
    monkeypatch.setattr(arclength, "ANGLE_FORM", counting)
    _, p = angle_of(0.786004)
    assert p.nfev == next(ticks) > 0
    assert p.n_steps > 0 and p.n_rejected >= 0
    # the counters stay out of the reproducible summary
    assert set(profile_summary(p)) == {"a", "s_bar", "s_star", "xi_a",
                                       "alpha", "monitors"}


@pytest.mark.parametrize("a, counters", [
    (0.05, (317, 17, 5)), (A_STAR, (410, 24, 4)), (SQRT2, (455, 27, 4))])
def test_work_counters_are_pinned(a, counters):
    # (nfev, n_steps, n_rejected) at the default tolerance, as absolute
    # numbers: test_matches_scipy_dop853 already ties nfev and the steps to
    # scipy's, so this adds n_rejected and catches a change that moves both
    # sides alike
    _, p = angle_of(a)
    assert (p.nfev, p.n_steps, p.n_rejected) == counters


@pytest.mark.parametrize("a, hexes", [
    (0.05, ("-0x1.26ef2714bb8a7p-4", "0x1.c7349d85c934dp+0",
            "0x1.000801d8a92e5p+0", "0x1.c6f01efcc580dp+0")),
    (A_STAR, ("-0x1.0c152382d7363p+0", "0x1.e984a8d2f0c54p+0",
              "0x1.080505b03bed6p+0", "0x1.a76c4fc34054dp+0")),
    (SQRT2, ("-0x1.921fb544417acp+0", "0x1.1c5831add5dfep+1",
             "0x1.1c5831add6336p+0", "0x1.6a09e667fcf1bp+0"))])
def test_profile_bits_are_pinned(a, hexes):
    # (alpha, s_bar, s_star, xi) to the last bit: a change in the order of
    # any float operation of a step or a crossing root moves one of them.
    # No sum goes through BLAS, so the bits are the same on every kernel
    alpha, p = angle_of(a)
    assert alpha == p.alpha
    assert tuple(float(x).hex() for x in (p.alpha, p.s_bar, p.s_star,
                                          p.xi)) == hexes


def test_a_star_is_pinned(lens_report):
    # Brent's a*; A_STAR, the pinned height above, is the last a* of ITP
    assert lens_report.a_star == 0.7860039861771027


# heights and radii at which a BLAS dot in the series product once gave
# coefficient bits that differed between OpenBLAS kernels
_SERIES_POINTS = [(0.3349954407339448, R_STAR), (0.4258777130659485, R_STAR),
                  (0.1, 1.0), (0.2, 1.0)]
_PINNED_BITS = f"""
from lensshrinker import angle_of, find_lens, picard_analytic
from lensshrinker.series import picard_c2_oracle
for a in (0.05, {A_STAR!r}, {SQRT2!r}):
    p = angle_of(a)[1]
    print(*(float(x).hex() for x in (p.alpha, p.s_bar, p.s_star, p.xi)))
print(find_lens().a_star.hex())
for a, r in {_SERIES_POINTS!r}:
    print(*(c.hex() for c in picard_analytic(a, r).coeffs.tolist()))
print(*(x.hex() for x in picard_c2_oracle(1.0, {R_STAR!r})[1].tolist()))
"""


@pytest.mark.parametrize("coretype", ["Haswell", "Sandybridge", "Prescott"])
def test_bits_are_the_same_under_other_blas_kernels(coretype, lens_report):
    # OpenBLAS picks its kernel by CPU when numpy loads it, and kernels round
    # a dot's sum differently; a child interpreter forced onto another
    # kernel must give this process's profile bits, a* and series
    # coefficients, and the C2 grid oracle's heights
    env = dict(os.environ, OPENBLAS_CORETYPE=coretype, PYTHONPATH=
               os.path.dirname(os.path.dirname(lensshrinker.__file__)))
    child = subprocess.run([sys.executable, "-c", _PINNED_BITS], env=env,
                           capture_output=True, text=True, check=True,
                           timeout=120)
    here = [" ".join(float(x).hex() for x in (p.alpha, p.s_bar, p.s_star,
                                                p.xi))
            for p in (angle_of(a)[1] for a in (0.05, A_STAR, SQRT2))]
    series = [" ".join(c.hex() for c in picard_analytic(a, r).coeffs.tolist())
              for a, r in _SERIES_POINTS]
    oracle = " ".join(x.hex() for x in
                      picard_c2_oracle(1.0, R_STAR)[1].tolist())
    assert child.stdout.splitlines() == [*here, lens_report.a_star.hex(),
                                         *series, oracle]


# the tableau as the module defines it, kept here so that a control that
# moves a weight of dop853's moves the generated code alone
C, A, D, E5, E3 = dop853.C, dop853.A, dop853.D, dop853.E5, dop853.E3


def _reference_stages(fun, t, h, y, f, tol):
    """dop853._generate's step and dense rows by loops over the unmoved
    tableau, each sum over its row's nonzero weights in index order; every
    stage forms every component and its time, and calls fun.  The error
    norms are _sum_of_squares of the error vectors over the scale tol +
    max(|y_new|, |y|) tol, and the dense rows are hermite_rows' rows 0-2,
    then h D K."""
    def dot(row, i):
        total = None
        for w, k in zip(np.asarray(row).tolist(), K):
            if w:
                total = w * k[i] if total is None else total + w * k[i]
        return total

    n, K = len(y), [list(f)]
    for s in range(1, 16):
        state = [y[i] + dot(A[s][:s], i) * h for i in range(n)]
        K.append(list(fun(t + C[s] * h, state)))
        if s == 12:
            y_new = state
    rows = dop853.hermite_rows(h, y, y_new, f, K[12])[:3 * n] + [
        h * dot(w, i) for w in D for i in range(n)]
    scale = [tol + max(abs(z), abs(yi)) * tol for yi, z in zip(y, y_new)]
    return (y_new, K[12], *(dop853._sum_of_squares(
        [dot(w, i) for i in range(n)], scale) for w in (E5, E3)),
            rows)


def _test_rhs(n, reads_all):
    """A coupled nonlinear right-hand side of n components x0, x1, ...: one
    that reads t and every component, or one whose statement and rates
    read neither t nor the last n // 2 components."""
    names = " ".join(f"x{i}" for i in range(n))
    if reads_all:
        return dop853.rhs("t", names, "", [
            f"sin(t + x{i}) * {1 + i} + 0.5 * x{(i - 1) % n} * x{i}"
            for i in range(n)])
    m = n - n // 2
    return dop853.rhs("t", names, "w = 0.5 * x0", [
        f"sin(x{i % m}) * {1 + i} + w * x{(i - 1) % m}"
        for i in range(n)])


def _generated_equals_reference(form, seed):
    # the functions generated from dop853's tableau against the reference,
    # on a seeded random step
    n, fun = len(form.state), dop853.function(form)
    rng = np.random.default_rng(seed)
    t, h, y = float(rng.random()), float(rng.random()), \
        rng.standard_normal(n).tolist()
    tol = 10.0 ** -rng.uniform(3.0, 13.0)
    f = fun(t, y)
    step, dense = dop853._generate(form)
    y_new, f_new, e5, e3, K = step(t, h, y, f, tol)
    got = (y_new, f_new, e5, e3, dense(t, h, y, K))
    want = _reference_stages(fun, t, h, y, f, tol)
    return repr(got) == repr(want)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_generated_stages_equal_the_loop_reference_bit_for_bit(n):
    # repr spells every float exactly, so equal reprs are equal bits; the
    # generated stages skip what the form leaves unread, the reference
    # forms it all
    for reads_all in (True, False):
        form = _test_rhs(n, reads_all)
        for seed in range(20):
            assert _generated_equals_reference(form, seed)


def test_a_coefficient_moved_by_one_ulp_fails_the_reference(monkeypatch):
    # the negative control: the comparison sees a one-ulp change in one
    # weight of stage 8, on every seeded step of either right-hand side
    row = list(A[8])
    row[7] = math.nextafter(row[7], math.inf)
    monkeypatch.setattr(dop853, "A", (*A[:8], tuple(row), *A[9:]))
    for reads_all in (True, False):
        form = _test_rhs(5, reads_all)
        for seed in range(20):
            assert not _generated_equals_reference(form, seed)


@pytest.mark.parametrize("name, index", [("e5", 7), ("e3", 5)])
def test_an_error_weight_moved_by_one_ulp_fails_the_reference(name, index,
                                                              monkeypatch):
    # the comparison sees the generated error norms: a one-ulp change in
    # one weight of E5 or E3 moves the norm on every seeded step
    weights = list(getattr(dop853, name.upper()))
    weights[index] = math.nextafter(weights[index], math.inf)
    monkeypatch.setattr(dop853, name.upper(), tuple(weights))
    for reads_all in (True, False):
        form = _test_rhs(5, reads_all)
        for seed in range(20):
            assert not _generated_equals_reference(form, seed)


def test_unread_components_and_time_are_not_formed():
    # stages 1-11 and 13-15 bind only what the form reads; stage 12 binds
    # every component, since the new state carries them all
    step, dense = dop853._generate(_test_rhs(5, reads_all=False))

    def stores(fn, name):
        return sum(ins.opname == "STORE_FAST" and ins.argval == name
                   for ins in dis.get_instructions(fn))

    assert [stores(step, f"x{i}") for i in range(5)] == [12, 12, 12, 1, 1]
    assert [stores(dense, f"x{i}") for i in range(5)] == [3, 3, 3, 0, 0]
    assert stores(step, "t") == stores(dense, "t") == 0
    step, _ = dop853._generate(_test_rhs(5, reads_all=True))
    assert stores(step, "t") == 12


def test_the_angle_form_is_one_source():
    # the callable and the stage code compile the same statements
    f = arclength.arclength_rhs
    assert f is dop853.function(arclength.ANGLE_FORM)
    assert arclength.ANGLE_FORM.state == ("u", "v", "phi", "i_phi", "i_v")
    y = [0.3, 0.7, -0.4, 0.1, 0.2]
    c, sn = math.cos(-0.4), math.sin(-0.4)
    e = math.exp(-0.5 * (0.3 * 0.3 + 0.7 * 0.7))
    assert f(1.0, y) == [c, sn, -sn / 0.3 + 0.3 * sn - 0.7 * c,
                         e * c * sn / 0.3, e * 0.7]


def test_integrate_takes_only_a_source_form():
    with pytest.raises(TypeError, match="dop853.rhs"):
        dop853.integrate(lambda t, y: [-y[0]], 0.0, [1.0], 1.0, tol=1e-10)
    # nor a callable compiled from a form: the solve reads no callable
    with pytest.raises(TypeError, match="dop853.rhs"):
        dop853.integrate(dop853.function(DECAY), 0.0, [1.0], 1.0, tol=1e-10)
    with pytest.raises(ValueError, match="length 2"):
        dop853.integrate(DECAY, 0.0, [1.0, 2.0], 1.0, tol=1e-10)


@pytest.mark.parametrize("state, body, rates", [
    ("y", "", ["-y", "y"]), ("_y", "", ["-_y"]), ("y", "_w = y", ["-_w"])])
def test_rhs_refuses_a_form_it_cannot_inline(state, body, rates):
    # a rate per component; underscored names are the stage code's own
    with pytest.raises(ValueError, match="underscore"):
        dop853.rhs("t", state, body, rates)


@pytest.mark.parametrize("tol", [1e-14, 99 * EPS, math.nan, math.inf, -1.0])
def test_rejects_tolerances_outside_the_floor(tol):
    with pytest.raises(ValueError, match="floor"):
        dop853.integrate(DECAY, 0.0, [1.0], 1.0, tol=tol)


def test_rtol_floor_is_admitted_and_tightened_100_fails_loudly():
    sol = dop853.integrate(DECAY, 0.0, [1.0], 1.0, tol=dop853.RTOL_FLOOR)
    d = DenseOutput(sol.ts, sol.h, sol.y_old, sol.F)
    assert d(np.array([1.0]))[0, 0] == pytest.approx(math.exp(-1.0),
                                                     rel=1e-13)
    cfg = PipelineConfig()
    with pytest.raises(ValueError, match="floor"):
        angle_of(0.786004, cfg._replace(ode_tol=cfg.ode_tol / 100))


@pytest.mark.parametrize("g", [lambda x: x ** 3 - 0.1,
                               lambda x: math.exp(x) - 2.0],
                         ids=["cubic", "exp"])
def test_brentq_bisects_where_the_interpolation_underflows(g):
    # at |f| ~ 2^-530 the inverse quadratic step's denominator
    # dblk * dpre * (fblk - fpre) underflows to 0; scipy's C code bisects on
    # the inf or NaN that IEEE division gives there, and so must brentq
    def f(x):
        return 2.0 ** -530 * g(x)

    assert brentq(f, 0.0, 1.0) == scipy_brentq(f, 0.0, 1.0, xtol=4 * EPS,
                                               rtol=4 * EPS)


def test_brentq_iteration_limit_raises_no_convergence():
    with pytest.raises(NoConvergence, match="Brent's method found no root "
                                            "in 2 iterations"):
        brentq(lambda x: math.exp(x) - 2.0, 0.0, 1.0, maxiter=2)
    with pytest.raises(ValueError, match="no sign change"):
        brentq(lambda x: x + 1.0, 0.0, 1.0)


@pytest.mark.parametrize("f, root", [(lambda x: x, 0.0),
                                     (lambda x: x - 1.0, 1.0),
                                     (lambda x: x * x, 0.0)],
                         ids=["low_end", "high_end", "no_sign_change"])
def test_brentq_returns_an_end_that_is_an_exact_root(f, root):
    # an end where f is exactly 0 is returned before the sign test, as by
    # scipy's brentq
    assert brentq(f, 0.0, 1.0) == root == scipy_brentq(f, 0.0, 1.0)


def test_event_roots_and_terminal_stop():
    # y = cos t: the solve ends with the step over which y falls through 0,
    # and DenseOutput.root finds pi/2 on it where solve_ivp's terminal event
    # stops; y' = -sin t falls through -1/2 at pi/6 on an earlier piece
    sol = dop853.integrate(OSCILLATOR, 0.0, [1.0, 0.0], 10.0, tol=1e-12,
                           stop=0)
    d = DenseOutput(sol.ts, sol.h, sol.y_old, sol.F)
    last = len(d.h) - 1
    assert sol.stopped and d.y_old[last, 0] >= 0.0 >= sol.y[0]
    root = d.root(0, 0.0, last)
    assert d.ts[last] < root < d.ts[-1]

    def crossing(t, y):
        return y[0]

    crossing.terminal, crossing.direction = True, -1
    ref = solve_ivp(dop853.function(OSCILLATOR), (0.0, 10.0), [1.0, 0.0],
                    method="DOP853", rtol=1e-12, atol=1e-12,
                    dense_output=True, events=[crossing])
    assert ref.status == 1 and len(ref.t) == len(d.ts)
    assert sol.nfev == ref.nfev
    assert abs(root - ref.t_events[0][0]) <= EVENT_RTOL * root
    assert root == pytest.approx(math.pi / 2, abs=1e-12)
    k = int(np.searchsorted(d.ts, math.pi / 6)) - 1
    assert d.root(1, -0.5, k) == pytest.approx(math.pi / 6, abs=1e-12)
    n_steps = len(d.h)
    assert sol.nfev == 2 + 12 * (n_steps + sol.n_rejected) + 3 * n_steps


def test_roots_in_one_step_match_solve_ivp():
    # y = (t, 3.5 - t): the last step holds the crossings of t through 2.5
    # and 4.5 and the stop at 3.5 (the step size grows while the error
    # estimate is zero); DenseOutput.root gives solve_ivp's crossing and
    # terminal event times to within the few ulps by which the stage sums
    # differ, and the crossing past the stop on the full step
    form = dop853.rhs("t", "y0 y1", "", ["1.0", "-1.0"])
    sol = dop853.integrate(form, 0.0, [0.0, 3.5], 10.0, tol=1e-12, stop=1)
    d = DenseOutput(sol.ts, sol.h, sol.y_old, sol.F)
    last = len(d.h) - 1
    assert sol.stopped and d.ts[last] < 2.5 and d.ts[-1] > 4.5

    def up_through(level):
        def event(t, y):
            return y[0] - level
        event.direction = 1
        return event

    def stop(t, y):
        return y[1]

    stop.terminal, stop.direction = True, -1
    ref = solve_ivp(dop853.function(form), (0.0, 10.0), [0.0, 3.5],
                    method="DOP853", rtol=1e-12, atol=1e-12, dense_output=True,
                    events=[up_through(2.5), stop])
    assert sol.nfev == ref.nfev and len(ref.t) == len(d.ts)
    got = [d.root(0, 2.5, last), d.root(1, 0.0, last)]
    want = [te[0] for te in ref.t_events]
    assert np.allclose(got, want, rtol=8 * EPS, atol=0)
    assert got == [pytest.approx(2.5, abs=1e-14), pytest.approx(3.5, abs=1e-14)]
    assert d.root(0, 4.5, last) == pytest.approx(4.5, abs=1e-14)


def test_root_and_derivative_read_the_one_horner():
    # _horner on one column of Python floats gives __call__'s bits on
    # every column, and root is Brent's method on it, to the bit, at the
    # level halfway between the piece's end values.  The derivative shares
    # the value's loop, and its bits are pinned
    rng = np.random.default_rng(17)
    derivs = []
    for _ in range(20):
        F, y_old = rng.standard_normal((7, 5)), rng.standard_normal(5)
        t0, h = rng.standard_normal(), rng.random() + 0.1
        d = DenseOutput([t0, t0 + h], [h], y_old.tolist(), F.ravel().tolist())
        ts = t0 + h * np.array([0.0, 1.0, *rng.random(5)])
        full = d(ts)
        for j, t in enumerate(ts.tolist()):
            for i in range(5):
                got = (_horner(F[:, i].tolist(), (t - t0) / h)[0]
                       + float(y_old[i]))
                assert got.hex() == float(full[i, j]).hex()
        for i in range(5):
            c, y0 = F[:, i].tolist(), float(y_old[i])
            level = float(full[i, 0] + full[i, 1]) / 2
            want = brentq(lambda r: _horner(c, (r - t0) / h)[0] + y0 - level,
                          t0, t0 + h)
            assert d.root(i, level, 0).hex() == want.hex()
        derivs.append(d.derivative(ts))
    digest = hashlib.sha256(np.array(derivs).tobytes()).hexdigest()
    assert digest[:16] == "d62f0f956ba6b62d"


def test_the_root_function_is_the_horner_value_to_the_bit(monkeypatch):
    # the function root hands Brent gives the bits of
    # _horner(c, x)[0] + y_old - level on random pieces and points
    handed = []

    def spy(f, xpre, xcur):
        handed.append(f)
        return xpre

    monkeypatch.setattr(dop853, "brentq", spy)
    rng = np.random.default_rng(29)
    for _ in range(50):
        F, y_old = rng.standard_normal((7, 2)), rng.standard_normal(2)
        t0, h = rng.standard_normal(), rng.random() + 0.1
        d = DenseOutput([t0, t0 + h], [h], y_old.tolist(), F.ravel().tolist())
        level = float(rng.standard_normal())
        d.root(1, level, 0)
        offset = handed.pop()
        for r in (t0, t0 + h, *(t0 + h * rng.random(8))):
            want = (_horner(F[:, 1].tolist(), (r - t0) / h)[0]
                    + float(y_old[1]) - level)
            assert offset(r).hex() == want.hex()


@pytest.mark.parametrize("component", [2, -1])
def test_stop_component_outside_the_state_raises(component):
    with pytest.raises(ValueError, match="stop component"):
        dop853.integrate(OSCILLATOR, 0.0, [1.0, 0.0], 1.0, tol=1e-10,
                         stop=component)


def test_matches_scipy_on_van_der_pol():
    # a second problem, with many rejected steps and states of both signs:
    # nfev and the steps equal solve_ivp's, and the step times and dense
    # output agree to twice the largest deviation measured under three
    # OpenBLAS kernels (2e-8 relative and 4.8e-13 on states up to 7.6)
    vdp = dop853.rhs("t", "x v", "", ["v", "5.0 * (1 - x ** 2) * v - x"])

    sol = dop853.integrate(vdp, 0.0, [2.0, 0.0], 20.0, tol=1e-9)
    ref = solve_ivp(dop853.function(vdp), (0.0, 20.0), [2.0, 0.0],
                    method="DOP853", rtol=1e-9, atol=1e-9, dense_output=True)
    d = DenseOutput(sol.ts, sol.h, sol.y_old, sol.F)
    assert sol.n_rejected > 10 and sol.nfev == ref.nfev
    assert len(d.ts) == len(ref.t)
    assert np.allclose(d.ts, ref.t, rtol=4e-8, atol=0)
    x = np.array([0.0, 0.25, 0.5, 0.75])
    points = (d.ts[:-1, None] + np.diff(d.ts)[:, None] * x).ravel()
    assert np.max(np.abs(d(points) - ref.sol(points))) <= 1e-12


def test_step_failure_on_a_blow_up():
    with pytest.raises(StepFailure):
        dop853.integrate(dop853.rhs("t", "y", "", ["y ** 2"]), 0.0, [1.0],
                         2.0, tol=1e-10)


def test_step_failure_on_a_nan_state():
    # a NaN state makes the step size NaN, which h < min_step never catches
    with pytest.raises(StepFailure):
        dop853.integrate(DECAY, 0.0, [math.nan], 1.0, tol=1e-10)


@pytest.mark.parametrize("t_bound", [0.0, -1.0, math.nan])
def test_rejects_an_empty_interval(t_bound):
    with pytest.raises(ValueError, match="t_bound"):
        dop853.integrate(DECAY, 0.0, [1.0], t_bound, tol=1e-10)


def test_dense_output_follows_the_circle_from_the_axis(circle_profile):
    p = circle_profile
    s = np.linspace(0.0, p.s_bar, 2001)
    s = np.concatenate([np.linspace(0.0, p.dense.ts[1], 50), s])
    u, v = p.dense(s)[:2]
    dev = np.hypot(u - SQRT2 * np.sin(s / SQRT2), v - SQRT2 * np.cos(s / SQRT2))
    assert np.max(dev) < 1e-11


def test_dense_derivative_is_the_rhs_at_step_ends_and_the_slope_inside():
    pendulum = dop853.rhs("t", "q p", "", ["p", "-sin(q)"])

    sol = dop853.integrate(pendulum, 0.0, [1.0, 0.0], 10.0, tol=1e-10)
    d = DenseOutput(sol.ts, sol.h, sol.y_old, sol.F)
    ends = d.ts[1:]  # each belongs to the step it ends
    fun = dop853.function(pendulum)
    f_ends = np.array([fun(t, y) for t, y in zip(ends, d(ends).T)]).T
    assert np.max(np.abs(d.derivative(ends) - f_ends)) < 1e-14
    inside = d.ts[:-1] + 0.37 * d.h
    dt = 1e-5 * d.h
    central = (d(inside + dt) - d(inside - dt)) / (2 * dt)
    assert np.max(np.abs(d.derivative(inside) - central)) < 1e-9


def test_integrate_profile_rejects_rtol_below_floor():
    _, p = angle_of(0.5)
    with pytest.raises(ValueError):
        integrate_profile(p.series, 0.5, tol=1e-15)


@pytest.mark.parametrize("tol", [math.nan, math.inf])
def test_integrate_profile_rejects_tolerances_outside_the_floor(tol):
    # the one tol is also each solve's atol: a NaN or inf one must stop
    # integrate_profile as it stops dop853.integrate
    _, p = angle_of(0.5)
    with pytest.raises(ValueError, match="floor"):
        integrate_profile(p.series, 0.5, tol=tol)
