"""DOP853, the Dormand-Prince 8(5,3) pair (Hairer, Norsett & Wanner, *Solving
ODEs I*, Sec. II.10), with dense output and event location.

The tableau, step control, initial step and dense output follow
scipy.integrate's DOP853 and the event roots scipy.optimize.brentq (BSD-3,
(c) Enthought, Inc. and the SciPy Developers) operation for operation, so
steps, evaluation counts and states equal solve_ivp's bit for bit.  The step
loop keeps the step size, the stage times, the state and the error norms in
Python floats wherever that cannot change a bit.  Arithmetic on single
floats is numpy's elementwise arithmetic, one rounded operation at a time
with no fused multiply-add, so each stage state y + (A K) h, the new state,
the error scale and the Hermite rows are formed in floats; fun gets the
state as a list, and its values go straight into the stage rows.  A norm is
sqrt(z.dot(z)), as np.linalg.norm takes it, and every sum over the stages
stays a numpy dot in scipy's order.  An event is a level of one state
component, so Brent's method refines its root on that one column of the
step's dense output, in the operation order of the full evaluation.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import StepFailure

EPS = float(np.finfo(float).eps)
RTOL_FLOOR = 100 * EPS  # below it the error estimate is rounding noise
SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10  # step-size factor and bounds

C = (0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
     0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
     0.6512820512820513, 0.6, 0.8571428571428571, 1.0, 1.0, 0.1, 0.2,
     0.7777777777777778)
# stages 1-15 row by row below the diagonal; row 12 holds the weights B
A = np.zeros((16, 16))
A[np.tril_indices(16, -1)] = [0.05260015195876773, 0.0197250569845379,
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
    -0.0013990241651590145, 2.9475147891527724, -9.15095847217987]
B = A[12, :12]
A_ROWS = [A[s, :s] for s in range(16)]  # the weights of the stages before s
E3 = np.append(B, 0.0)  # B minus the embedded 3rd-order weights
E3[[0, 8, 11]] -= [0.2440944881889764, 0.7338466882816118, 0.022058823529411766]
E5 = np.array([0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044,
               -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
               0.3341791187130175, 0.08192320648511571, -0.022355307863886294,
               0.0])
# dense-output rows F[3:] = h D K over all 16 stages
D = np.reshape([-8.428938276109013, 0.0, 0.0, 0.0, 0.0, 0.5667149535193777,
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
    -149.72683625798564], (4, 16))


def hermite_rows(h, y_old, y_new, f_old, f_new) -> np.ndarray:
    """Dense-output rows of the cubic Hermite interpolant; rows 3-6 zero.
    The arguments are float sequences, combined element by element in
    numpy's operation order."""
    d = [b - a for a, b in zip(y_old, y_new)]
    F = np.zeros((7, len(d)))
    F[:3] = (d, [h * fo - di for fo, di in zip(f_old, d)],
             [2 * di - h * (fn + fo) for di, fo, fn in zip(d, f_old, f_new)])
    return F


def _horner(F, y_old, x):
    # y_old + x (F0 + (1-x) (F1 + x (F2 + (1-x) (F3 + ...)))), innermost first
    y = np.zeros(np.shape(y_old))
    for i in range(6, -1, -1):
        y += F[..., i, :]
        y *= x if i % 2 == 0 else 1 - x
    return y + y_old


def _horner_column(c, y_old, x):
    # _horner(F, y_old, x)[i] on Python floats, c = F[:, i].tolist(), in
    # _horner's operation order
    y = 0.0
    for i in range(6, -1, -1):
        y += c[i]
        y *= x if i % 2 == 0 else 1 - x
    return y + y_old


@dataclass(frozen=True)
class DenseOutput:
    """Piece k covers [ts[k], ts[k+1]] in x = (t - ts[k]) / h[k], h[k] its
    full step; a point shared by two pieces belongs to the lower one."""

    ts: np.ndarray     # (m + 1,)
    h: np.ndarray      # (m,)
    y_old: np.ndarray  # (m, n)
    F: np.ndarray      # (m, 7, n)

    def _locate(self, t):
        # piece index and local coordinate x of each point of t
        t = np.asarray(t, dtype=float)
        k = np.clip(np.searchsorted(self.ts, t) - 1, 0, len(self.h) - 1)
        return k, ((t - self.ts[k]) / self.h[k])[:, None]

    def __call__(self, t) -> np.ndarray:
        """States at the 1-d array of points t, shape (n, len(t))."""
        k, x = self._locate(t)
        return _horner(self.F[k], self.y_old[k], x).T

    def derivative(self, t) -> np.ndarray:
        """Exact t-derivative of each piece's polynomial at the points t,
        shape (n, len(t)); it equals the right-hand side at step ends."""
        k, x = self._locate(t)
        F = self.F[k]
        p = dp = 0.0  # the Horner value and its x-derivative, innermost first
        for i in range(6, -1, -1):
            m, dm = (x, 1.0) if i % 2 == 0 else (1 - x, -1.0)
            p = p + F[:, i, :]
            dp = dp * m + p * dm
            p = p * m
        return (dp / self.h[k][:, None]).T


# the dense output, fun(t0, y0), each event's roots and states, the work done
Solution = namedtuple("Solution", "dense f0 t_events y_events terminated "
                                  "nfev n_rejected")


def _brentq(f, xpre, xcur, xtol=4 * EPS, rtol=4 * EPS, maxiter=100):
    """Brent's root of f on a sign-changing bracket, as scipy's brentq."""
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0 or fcur == 0:
        return xpre if fpre == 0 else xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("event function has no sign change on the step")
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
    raise StepFailure(f"event root not found in {maxiter} iterations")


def _norm(z) -> float:
    # np.linalg.norm of a 1-d array, without its dispatch
    return math.sqrt(z.dot(z))


def integrate(fun, t0: float, y0, t_bound: float, *, tol: float,
              events=()) -> Solution:
    """Integrate y' = fun(t, y) forward from t0 towards t_bound.

    fun gets the state as a list of floats.  ``events`` holds ((component,
    level), direction, terminal) triples: the zeros of g = y[component] -
    level crossed upward (direction +1) or downward (-1) are located on the
    dense output of their step, and the first terminal one ends the solve.
    tol is both the relative and the absolute tolerance of each step.  A
    tol below 100 eps or not finite, a t_bound not beyond t0 or an event
    component outside the state raises ValueError; a step below ten float
    spacings, or a NaN step, raises StepFailure.
    """
    if not RTOL_FLOOR <= tol < math.inf:
        raise ValueError(f"need tol={tol} finite and at least the floor "
                         f"100 eps = {RTOL_FLOOR}")
    if not t0 < t_bound:
        raise ValueError(f"need t0={t0} < t_bound={t_bound}")
    t, y, tol = float(t0), np.asarray(y0, dtype=float), float(tol)
    if not all(0 <= i < len(y) for (i, _), _, _ in events):
        raise ValueError(f"event components {[e[0][0] for e in events]} "
                         f"outside a state of length {len(y)}")
    f0 = np.asarray(fun(t, y.tolist()), dtype=float)
    # initial step size (Hairer, Norsett & Wanner, Sec. II.4)
    scale = tol + np.abs(y) * tol
    d0, d1 = (_norm(z / scale) / len(y) ** 0.5 for z in (y, f0))
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t_bound - t)
    d2 = _norm((fun(t + h0, (y + h0 * f0).tolist()) - f0) / scale) \
        / len(y) ** 0.5 / h0
    h1 = max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15 \
        else (0.01 / max(d1, d2)) ** (1 / 8)
    h_abs = min(100 * h0, h1, t_bound - t)
    nfev = 2  # right-hand-side calls, counted where they are made

    K_ext = np.empty((16, len(y)))  # 12 stages, the FSAL stage, 3 dense
    K_ext[0] = f0
    K = K_ext[:13]
    KT = [K_ext[:s].T for s in range(16)]  # the stages before stage s
    # the state and f at the step start as Python floats
    y, f_list = y.tolist(), f0.tolist()
    ts, pieces = [t], []  # step starts and ends; (h, y_old, F) per step
    g = [y[i] - level for (i, level), _, _ in events]
    t_events, y_events = [[] for _ in events], [[] for _ in events]
    n_rejected, terminated = 0, False
    while not terminated and t < t_bound:
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        h_abs, rejected = max(h_abs, min_step), False
        while True:
            if not h_abs >= min_step:  # also a NaN step
                raise StepFailure(f"step size {h_abs:.3g} below "
                                  f"{min_step:.3g} at t={t}")
            t_end = min(t + h_abs, t_bound)
            h = t_end - t
            h_abs = abs(h)
            for s in range(1, 12):
                K[s] = fun(t + C[s] * h, [yi + di * h for yi, di in zip(
                    y, KT[s].dot(A_ROWS[s]).tolist())])
            y_new = [yi + h * di for yi, di in zip(y, KT[12].dot(B).tolist())]
            K[12] = fun(t + h, y_new)
            nfev += 12
            # max(|y_new|, |y|) is NaN if y_new is, as np.maximum would
            # be, and a NaN in y makes y_new NaN
            scale = np.array([tol + max(abs(zi), abs(yi)) * tol
                              for yi, zi in zip(y, y_new)])
            e5 = _norm(KT[13].dot(E5) / scale) ** 2
            e3 = _norm(KT[13].dot(E3) / scale) ** 2
            err = 0.0 if e5 == 0 and e3 == 0 else \
                h_abs * e5 / math.sqrt((e5 + 0.01 * e3) * len(scale))
            grow = MAX_FACTOR if err == 0 else SAFETY * err ** (-1 / 8)
            if err < 1:
                h_abs *= min(1 if rejected else MAX_FACTOR, grow)
                break
            h_abs *= max(MIN_FACTOR, grow)
            rejected, n_rejected = True, n_rejected + 1
        for s in range(13, 16):
            K_ext[s] = fun(t + C[s] * h, [yi + di * h for yi, di in zip(
                y, KT[s].dot(A_ROWS[s]).tolist())])
        nfev += 3
        f_new = K[12].tolist()
        F = hermite_rows(h, y, y_new, f_list, f_new)
        F[3:] = h * D.dot(K_ext)
        K[0] = K[12]  # the last stage of a step is the first of the next
        pieces.append((h, y, F))
        g_new = [y_new[i] - level for (i, level), _, _ in events]
        # roots in time order, none kept past the first terminal one
        hits = sorted(
            (_brentq(lambda r, c=F[:, i].tolist(), y0=y[i], level=level:
                     _horner_column(c, y0, (r - t) / h) - level, t, t_end), k)
            for k, ((i, level), direction, _) in enumerate(events)
            if direction * g[k] <= 0 <= direction * g_new[k])
        for root, k in hits:
            t_events[k].append(root)
            y_events[k].append(_horner(F, y, (root - t) / h))
            if events[k][2]:
                terminated, t_end = True, root
                break
        ts.append(t_end)
        t, y, f_list, g = t_end, y_new, f_new, g_new

    dense = DenseOutput(np.array(ts), *map(np.array, zip(*pieces)))
    return Solution(dense, f0, t_events, y_events, terminated, nfev,
                    n_rejected)
