"""DOP853, the Dormand-Prince 8(5,3) pair (Hairer, Norsett & Wanner, *Solving
ODEs I*, Sec. II.10), with dense output, and Brent's root finder.

The tableau, step control, initial step and dense output follow
scipy.integrate's DOP853 and ``brentq`` follows scipy.optimize.brentq (BSD-3,
(c) Enthought, Inc. and the SciPy Developers), so the evaluation counts and
the accepted and rejected steps are solve_ivp's.  No sum goes through BLAS.
The right-hand side is written once as source (``rhs``), a Form: a few
statements over named state components and the expressions of their rates.
integrate takes the form and makes every evaluation from it: ``function``
compiles it to the callable of the initial step, and straight-line code
generated from the tableau forms the stage states, evaluates the form's
statements inline at every stage, and forms the new state, the two error
norms and all seven dense rows from Python floats: each sum runs over its
tableau row's nonzero coefficients in index order, one rounded binary64
operation at a time, and each norm is a sum of squares in index order.
A component or the time that the form never names is not formed at a
stage, but the new state carries every component.  So the bits of a solve
depend on IEEE arithmetic and on the form alone, and are the same
whichever BLAS kernel numpy loads.  scipy's sums are BLAS
dots, in another order, so its states differ from these in the last bits.
One Horner routine, _horner, written out once, evaluates the dense
output's states and their derivative together: on numpy rows for
__call__ and derivative, and on Python floats for the function whose
root Brent's method refines and for the plain pass over a profile's
pieces (arclength.dense_pass), with the same bits.  A form's stage code
and its callable are the only code that the module generates.
The module runs on Python floats alone and loads numpy only for
DenseOutput's arrays and vectorised evaluation.
"""

from __future__ import annotations

import functools
import math
import sys
import textwrap
from collections import namedtuple

from ._views import ArrayField, floats
from .errors import NoConvergence, StepFailure

EPS = sys.float_info.epsilon
RTOL_FLOOR = 100 * EPS  # below it the error estimate is rounding noise
SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10  # step-size factor and bounds

C = (0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
     0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
     0.6512820512820513, 0.6, 0.8571428571428571, 1.0, 1.0, 0.1, 0.2,
     0.7777777777777778)
# stages 1-15 row by row below the diagonal; row 12 holds the weights B
_BELOW = (0.05260015195876773, 0.0197250569845379,
    0.0591751709536137, 0.02958758547680685, 0.0, 0.08876275643042054,
    0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792,
    0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242,
    0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596,
    -0.017578125, 0.03709200011850479, 0.0, 0.0, 0.17038392571223998,
    0.10726203044637328, -0.015319437748624402, 0.008273789163814023,
    0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
    27.59209969944671, 20.154067550477894, -43.48988418106996,
    0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
    21.230051448181193, 15.279233632882423, -33.28821096898486,
    -0.020331201708508627, -0.9371424300859873, 0.0, 0.0, 5.186372428844064,
    1.0914373489967295, -8.149787010746927, -18.52006565999696,
    22.739487099350505, 2.4936055526796523, -3.0467644718982196,
    2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
    -17.9589318631188, 27.94888452941996, -2.8589982771350235,
    -8.87285693353063, 12.360567175794303, 0.6433927460157636,
    0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
    1.8915178993145003, -5.801203960010585, 0.3111643669578199,
    -0.1521609496625161, 0.20136540080403034, 0.04471061572777259,
    0.056167502283047954, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25350021021662483,
    -0.2462390374708025, -0.12419142326381637, 0.15329179827876568,
    0.00820105229563469, 0.007567897660545699, -0.008298, 0.03183464816350214,
    0.0, 0.0, 0.0, 0.0, 0.028300909672366776, 0.053541988307438566,
    -0.05492374857139099, 0.0, 0.0, -0.00010834732869724932,
    0.0003825710908356584, -0.00034046500868740456, 0.1413124436746325,
    -0.42889630158379194, 0.0, 0.0, 0.0, 0.0, -4.697621415361164,
    7.683421196062599, 4.06898981839711, 0.3567271874552811, 0.0, 0.0, 0.0,
    -0.0013990241651590145, 2.9475147891527724, -9.15095847217987)
A = tuple(_BELOW[s * (s - 1) // 2:s * (s + 1) // 2] + (0.0,) * (16 - s)
          for s in range(16))
B = A[12][:12]
# B minus the embedded 3rd-order weights
E3 = tuple(b - {0: 0.2440944881889764, 8: 0.7338466882816118,
                11: 0.022058823529411766}.get(i, 0.0)
           for i, b in enumerate(B + (0.0,)))
E5 = (0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044,
      -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
      0.3341791187130175, 0.08192320648511571, -0.022355307863886294, 0.0)
# dense-output rows F[3:] = h D K over all 16 stages
_D = (-8.428938276109013, 0.0, 0.0, 0.0, 0.0, 0.5667149535193777,
    -3.0689499459498917, 2.38466765651207, 2.117034582445028,
    -0.871391583777973, 2.2404374302607883, 0.6315787787694688,
    -0.08899033645133331, 18.148505520854727, -9.194632392478356,
    -4.436036387594894, 10.427508642579134, 0.0, 0.0, 0.0, 0.0,
    242.28349177525817, 165.20045171727028, -374.5467547226902,
    -22.113666853125306, 7.733432668472264, -30.674084731089398,
    -9.332130526430229, 15.697238121770845, -31.139403219565178,
    -9.35292435884448, 35.81684148639408, 19.985053242002433, 0.0, 0.0, 0.0,
    0.0, -387.0373087493518, -189.17813819516758, 527.8081592054236,
    -11.57390253995963, 6.8812326946963, -1.0006050966910838,
    0.7777137798053443, -2.778205752353508, -60.19669523126412,
    84.32040550667716, 11.99229113618279, -25.69393346270375, 0.0, 0.0, 0.0,
    0.0, -154.18974869023643, -231.5293791760455, 357.6391179106141,
    93.40532418362432, -37.45832313645163, 104.0996495089623, 29.8402934266605,
    -43.53345659001114, 96.32455395918828, -39.17726167561544,
    -149.72683625798564)
D = tuple(_D[16 * r:16 * r + 16] for r in range(4))


def hermite_rows(h, y_old, y_new, f_old, f_new) -> list:
    """The 7 dense-output rows of the cubic Hermite interpolant as one flat
    list, row by row, as DenseOutput takes a piece's rows; rows 3-6 are
    zero.  The arguments are float sequences, combined element by element,
    in the order of the rows that the generated ``dense`` writes."""
    d = [b - a for a, b in zip(y_old, y_new)]
    return [*d, *(h * fo - di for fo, di in zip(f_old, d)),
            *(2 * di - h * (fn + fo) for di, fo, fn in zip(d, f_old, f_new)),
            *[0.0] * (4 * len(d))]


def _horner(F, x):
    """The piece polynomial less y_old, x (F[0] + (1-x) (F[1] + ...)), and its
    x-derivative, innermost first, on the 7 rows F[0..6]: numpy rows and an
    x that broadcasts with them, or Python floats, with the same bits.  At
    x = 1, where w = 0, the value is F[0] and the derivative F[0] - (F[2] +
    F[1]) to the bit for finite rows, each odd row's product with w being
    a zero that the next sum drops."""
    f0, f1, f2, f3, f4, f5, f6 = F
    w = 1.0 - x
    p = f6 * x + f5
    dp = f6 * w - p
    p = p * w + f4
    dp = dp * x + p
    p = p * x + f3
    dp = dp * w - p
    p = p * w + f2
    dp = dp * x + p
    p = p * x + f1
    dp = dp * w - p
    p = p * w + f0
    dp = dp * x + p
    return p * x, dp


def _shape(*tail):
    # an ArrayField shape: one block of the given trailing shape per piece
    return lambda dense: (len(floats(dense, "h")), *tail)


class DenseOutput(namedtuple("DenseOutput", "ts h y_old F")):
    """Piece k covers [ts[k], ts[k+1]] in x = (t - ts[k]) / h[k], h[k] its
    full step; a point shared by two pieces belongs to the lower one.  The
    states, their derivative and the roots all read the pieces by _horner.
    The fields hold integrate's flat lists of Python floats (ts, and per
    piece h, y_old and the 7 rows of F, row by row) and read as read-only
    arrays (_views.ArrayField); root runs on Python floats, __call__ and
    derivative on numpy."""

    ts = ArrayField()                     # (m + 1,)
    h = ArrayField()                      # (m,)
    y_old = ArrayField(_shape(-1))        # (m, n)
    F = ArrayField(_shape(7, -1))         # (m, 7, n)

    def _horner_at(self, t):
        # piece index of each point of t, and _horner at its local x
        import numpy as np
        t = np.asarray(t, dtype=float)
        k = np.clip(np.searchsorted(self.ts, t) - 1, 0, len(self.h) - 1)
        x = ((t - self.ts[k]) / self.h[k])[:, None]
        return k, *_horner(self.F[k].swapaxes(0, 1), x)

    def __call__(self, t):
        """States at the 1-d array of points t, shape (n, len(t))."""
        k, p, _ = self._horner_at(t)
        return (p + self.y_old[k]).T

    def derivative(self, t):
        """Exact t-derivative of each piece's polynomial at the points t,
        shape (n, len(t)); it equals the right-hand side at step ends."""
        k, _, dp = self._horner_at(t)
        return (dp / self.h[k][:, None]).T

    def root(self, i: int, level: float, k: int) -> float:
        """Brent's root of y[i] - level on piece k, over [ts[k], ts[k+1]],
        where it must change sign; y[i] is __call__'s to the bit."""
        ts, F, y = floats(self, "ts"), floats(self, "F"), floats(self, "y_old")
        n = len(y) // len(floats(self, "h"))
        t, h = ts[k], floats(self, "h")[k]
        c, y_old = F[7 * n * k + i::n][:7], y[n * k + i]
        return brentq(lambda r: _horner(c, (r - t) / h)[0] + y_old - level,
                      t, ts[k + 1])


# the pieces as DenseOutput takes them (flat float lists), fun(t0, y0)
# and the state after the last step as lists, whether the stop component
# fell through 0, and the work done
Solution = namedtuple("Solution", "ts h y_old F f0 y stopped nfev n_rejected")


def brentq(f, xpre, xcur, xtol=4 * EPS, rtol=4 * EPS, maxiter=100):
    """Brent's root of f on the bracket [xpre, xcur] or [xcur, xpre], where
    f changes sign, as scipy.optimize.brentq: each point f is evaluated at
    lies inside the last sign-changing bracket, and the root returned is the
    end of the last bracket with the smaller |f|, once that bracket is
    narrower than xtol + rtol |root|.  No sign change raises ValueError,
    maxiter iterations without a root NoConvergence."""
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0 or fcur == 0:
        return xpre if fpre == 0 else xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError(f"no sign change on the bracket [{xpre!r}, {xcur!r}]")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        stry = math.inf  # bisect unless interpolation gives a short step
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:  # a zero denominator bisects, as its inf or NaN does in C
                if xpre == xblk:  # secant
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # inverse quadratic interpolation
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
            except ZeroDivisionError:
                pass
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise NoConvergence(f"Brent's method found no root in {maxiter} "
                        f"iterations")


def _sum_of_squares(z, scale) -> float:
    # sum of (z_i / scale_i)^2 in index order, as the generated step forms
    # its error norms; the builtin sum() is compensated from Python 3.12 on,
    # so it would tie the bits to a version
    total = 0.0
    for zi, si in zip(z, scale):
        q = zi / si
        total += q * q
    return total


# a right-hand side as source: the time's name, the components' names, the
# statements over them and each component's rate
Form = namedtuple("Form", "time state body rates")

_MATH = {name: getattr(math, name) for name in dir(math)
         if not name.startswith("_")}


def _compiled(src: str, name: str) -> dict:
    # exec the source of a form's callable (function) or of its stage code
    # (_generate) with the math module's names
    namespace = dict(_MATH)
    exec(compile(src, f"<dop853 {name}>", "exec"), namespace)
    return namespace


def _names(form: Form) -> set:
    # the names that the form's statements and rates read or assign (and
    # the attributes they name), from their compiled code and the code
    # nested in it, a comprehension's say
    codes, names = [compile(form.body + "\n" + "\n".join(form.rates),
                            "<form>", "exec")], set()
    while codes:
        code = codes.pop()
        names.update(code.co_names, code.co_varnames)
        codes += [c for c in code.co_consts if hasattr(c, "co_names")]
    return names


def rhs(time: str, state: str, body: str, rates) -> Form:
    """The right-hand side y' = F(time, y) written once as source: the Form
    that integrate generates its stage code from and ``function`` compiles.

    state names the components in order, separated by spaces; body is
    statements over them and the time, and rates the expression of each
    component's rate.  The code reads the math module's names (cos, exp,
    ...).  A rate count other than the state's, or a name that starts with
    an underscore, which the stage code keeps for its own locals, raises
    ValueError.
    """
    form = Form(time, tuple(state.split()), textwrap.dedent(body).strip(),
                tuple(rates))
    names = {time, *form.state} | _names(form)
    if len(form.rates) != len(form.state) or \
            any(name.startswith("_") for name in names):
        raise ValueError(f"need one rate per component of {form.state} and "
                         f"no name that starts with an underscore")
    return form


@functools.cache
def function(form: Form):
    """The form compiled to fun(t, y), which returns the rates as a list:
    what integrate's initial step evaluates, and what scipy's solve_ivp can
    call."""
    src = (f"def fun({form.time}, _y):\n    {', '.join(form.state)}, = _y\n"
           + textwrap.indent(form.body + "\n", "    ")
           + f"    return [{', '.join(form.rates)}]\n")
    return _compiled(src, "rhs")["fun"]


def _generate(form: Form):
    """The functions ``step`` and ``dense`` of DOP853 with the module's
    tableau C, A, E5, E3 and D for the right-hand side ``form``, as
    compiled straight-line Python.

    step(t, h, y, f, tol) evaluates stages 1-12 from y and f = F(t, y) and
    returns (y_new, the stage-12 row, the E5 and E3 error norms, a flat
    tuple K of y_new and all 13 stage rows): each norm is the sum of squares
    of the error over scale = tol + max(|y_new|, |y|) tol, added in index
    order from 0.0 as _sum_of_squares does; the scale is NaN if y_new is,
    as np.maximum's would be, and a NaN in y makes y_new NaN.  dense(t, h,
    y, K) evaluates stages 13-15 from K and returns the 7 dense rows as one
    flat list, row by row: rows 0-2 those of hermite_rows, rows 3-6 h D K.
    Each stage binds the components and the time that the form reads (or
    assigns) to its stage state and time (stage 12 forms every component,
    the new state), runs the form's statements and sets its component i,
    the local _k{j}_{i}, to rate i.  A row's sum runs over its nonzero
    coefficients in index order, each written as the literal repr() gives
    back exactly.
    """
    n, read = len(form.state), _names(form)
    body = textwrap.indent(form.body + "\n", "    ")

    def dot(row, i):
        return " + ".join(f"{float(w)!r} * _k{j}_{i}"
                          for j, w in enumerate(row) if w)

    def each(fmt, stages=(None,)):
        # fmt for every stage j of stages and component i, each with ", "
        return "".join(fmt.format(j=j, i=i) + ", " for j in stages
                       for i in range(n))

    def stage(s):
        src = "".join(f"    {name} = _y{i} + ({dot(A[s][:s], i)}) * _h\n"
                      for i, name in enumerate(form.state)
                      if s == 12 or name in read)
        if s == 12:  # the new state, and the error norms over its scale
            src += f"    {each('_z{i}')}= {', '.join(form.state)},\n" \
                "    _e5 = _e3 = 0.0\n" + "".join(
                    f"    _s = _tol + max(abs(_z{i}), abs(_y{i})) * _tol\n"
                    f"    _q = ({dot(E5, i)}) / _s\n    _e5 += _q * _q\n"
                    f"    _q = ({dot(E3, i)}) / _s\n    _e3 += _q * _q\n"
                    for i in range(n))
        if form.time in read:
            src += f"    {form.time} = _t + {float(C[s])!r} * _h\n"
        return src + body + "".join(f"    _k{s}_{i} = {rate}\n"
                                    for i, rate in enumerate(form.rates))

    head = f"    {each('_y{i}')}= _y\n"
    K = each("_z{i}") + each("_k{j}_{i}", range(13))  # what dense reads
    src = (f"def step(_t, _h, _y, _f, _tol):\n{head}"
           f"    {each('_k0_{i}')}= _f\n"
           + "".join(stage(s) for s in range(1, 13))
           + f"    return [{each('_z{i}')}], [{each('_k12_{i}')}], _e5, _e3, "
           f"({K})\n"
           f"def dense(_t, _h, _y, _K):\n{head}    {K}= _K\n"
           f"    {each('_d{i}')}= {each('_z{i} - _y{i}')}\n"
           + "".join(stage(s) for s in range(13, 16))
           # the Hermite rows, then h D K
           + f"    return [{each('_d{i}')}{each('_h * _k0_{i} - _d{i}')}"
           + each("2 * _d{i} - _h * (_k12_{i} + _k0_{i})")
           + ", ".join(f"_h * ({dot(row, i)})" for row in D for i in range(n))
           + "]\n")
    namespace = _compiled(src, "stages")
    return namespace["step"], namespace["dense"]


@functools.cache
def _stage_code(form: Form):
    # the generated functions of the default tableau, once per form
    return _generate(form)


def integrate(form: Form, t0: float, y0, t_bound: float, *, tol: float,
              stop: int | None = None) -> Solution:
    """Integrate y' = F(t, y) forward from t0 towards t_bound, for the
    right-hand side F written as ``form`` by ``rhs``.

    The initial step evaluates ``function(form)`` and each step the same
    statements inline in the generated stage code, so every evaluation
    comes from the one source.  With a component ``stop``, the solve ends
    with the first step over which y[stop] falls through 0, from >= 0 at
    its start to <= 0 at its end; DenseOutput.root locates the zero.  tol
    is both the relative and the absolute tolerance of each step.  A form
    not made by ``rhs`` raises TypeError; a tol below 100 eps or not
    finite, a t_bound not beyond t0, a y0 whose length is not the form's or
    a stop component outside the state raises ValueError; a step below ten
    float spacings, or a NaN step, raises StepFailure.
    """
    if not isinstance(form, Form):
        raise TypeError("need a right-hand side made by dop853.rhs")
    if not RTOL_FLOOR <= tol < math.inf:
        raise ValueError(f"need tol={tol} finite and at least the floor "
                         f"100 eps = {RTOL_FLOOR}")
    if not t0 < t_bound:
        raise ValueError(f"need t0={t0} < t_bound={t_bound}")
    t, y, tol = float(t0), [float(yi) for yi in y0], float(tol)
    n = len(y)
    if n != len(form.state):
        raise ValueError(f"a state of length {n} for the components "
                         f"{form.state}")
    if stop is not None and not 0 <= stop < n:
        raise ValueError(f"stop component {stop} outside a state of "
                         f"length {n}")
    fun = function(form)
    f0 = f = [float(fi) for fi in fun(t, y)]
    # initial step size (Hairer, Norsett & Wanner, Sec. II.4)
    scale = [tol + abs(yi) * tol for yi in y]
    d0, d1 = (math.sqrt(_sum_of_squares(z, scale)) / n ** 0.5 for z in (y, f))
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t_bound - t)
    f1 = fun(t + h0, [yi + h0 * fi for yi, fi in zip(y, f)])
    d2 = math.sqrt(_sum_of_squares([b - a for a, b in zip(f, f1)], scale)) \
        / n ** 0.5 / h0
    h1 = max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15 \
        else (0.01 / max(d1, d2)) ** (1 / 8)
    h_abs = min(100 * h0, h1, t_bound - t)
    nfev = 2  # right-hand-side evaluations, counted where they are made

    step, dense_rows = _stage_code(form)
    # step starts and ends, and per step h, y_old and the rows F, flat
    ts, hs, y_old, F = [t], [], [], []
    n_rejected, stopped = 0, False
    while not stopped and t < t_bound:
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        h_abs, rejected = max(h_abs, min_step), False
        while True:
            if not h_abs >= min_step:  # also a NaN step
                raise StepFailure(f"step size {h_abs:.3g} below "
                                  f"{min_step:.3g} at t={t}")
            t_end = min(t + h_abs, t_bound)
            h = t_end - t
            h_abs = abs(h)
            y_new, f_new, e5, e3, K = step(t, h, y, f, tol)
            nfev += 12
            err = 0.0 if e5 == 0 and e3 == 0 else \
                h_abs * e5 / math.sqrt((e5 + 0.01 * e3) * n)
            grow = MAX_FACTOR if err == 0 else SAFETY * err ** (-1 / 8)
            if err < 1:
                h_abs *= min(1 if rejected else MAX_FACTOR, grow)
                break
            h_abs *= max(MIN_FACTOR, grow)
            rejected, n_rejected = True, n_rejected + 1
        F += dense_rows(t, h, y, K)
        nfev += 3
        ts.append(t_end)
        hs.append(h)
        y_old += y
        stopped = stop is not None and y[stop] >= 0 >= y_new[stop]
        # the last stage of a step is the first of the next
        t, y, f = t_end, y_new, f_new
    return Solution(ts, hs, y_old, F, f0, y, stopped, nfev, n_rejected)
