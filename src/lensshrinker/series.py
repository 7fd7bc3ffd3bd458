"""Even power-series machinery for the degenerate profile equation at the axis.

The profile height f(x) = a + h(x) of the rotationally symmetric shrinker cap
satisfies, near the rotation axis x = 0,

    h'' + (1/x - x) h' + h = Q(h, a),
    Q(h, a) = -a + (x - 1/x) h'^3 - h'^2 (h + a),      h(0) = h'(0) = 0.

All solutions with this initial data are even, so everything here works on
series in x^2.  The linear operator on the left, acting on coefficients, is

    (L f)_n = (n+2)^2 f_{n+2} - (n-1) f_n             (n even),

which invert_L inverts by a two-term recursion.  The same recursion gives
the particular solution J = invert_L(1), with L J = 1 and strictly positive
coefficients, and the kernel of L is spanned by the even entire function
eta = 1 - J.  The nonlinear solution h_a is
the fixed point of h -> invert_L(Q(h, a)), certified to contract on a norm
ball via explicit inequalities on (a, r, R, L): contraction_certificate
returns the slack of each (ball, Lipschitz, contraction factor) by name.
The map is triangular in the coefficients, so picard_analytic computes the
fixed point by one forward recursion in Python floats, with no iteration;
nonlinear_Q, the whole map on a truncated series, is its reference.

A second, independent C^2 construction of the same solution iterates
h -> T^{-1} P(h, a) on a grid, where T h = h'' + h'/x is the radial Laplacian
and T^{-1} is realized by log-kernel quadrature.  It shares no code with the
series route and serves as a cross-validation oracle.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple

from ._views import ArrayField
from .dop853 import EPS, brentq
from .errors import CertificateFailure, NoContraction, NoConvergence

# Safety margin absorbing floating-point rounding in certificate inequalities.
CERT_MARGIN = 1e-12

# Ball radius certified for all initial heights a in (0, sqrt(2)]:
# the analytic certificate at this radius admits every a below ~41.
R_STAR = 1.0 / (36.0 * math.sqrt(2.0))

# highest order picard_analytic grows a series to before giving up
MAX_SERIES_ORDER = 256


# ---------------------------------------------------------------------------
# Even series container
# ---------------------------------------------------------------------------

def _horner(c, x):
    """sum_k c_k x^{2k} by Horner's rule in x^2, for the sequence of floats
    c, at a float x or elementwise on a numpy array x."""
    x2 = x * x
    out = 0.0
    for ck in reversed(c):
        out = out * x2 + ck
    return out


class EvenSeries(namedtuple("EvenSeries", "coeffs radius", defaults=(1.0,))):
    """Truncated even power series sum_k c_k x^{2k}.

    ``coeffs[k]`` is the coefficient of x^{2k}; odd-degree coefficients are
    implicitly zero, so evaluation is automatically symmetric in x -> -x.
    ``radius`` records the interval half-width the series is certified (or
    intended to be used) on; it is metadata, not a truncation device.  The
    series and its derivatives evaluate by Horner's rule in x^2, on Python
    floats (``c``, the coefficients as a tuple) or elementwise on a numpy
    array; ``coeffs`` reads as a read-only array.
    """

    coeffs = ArrayField()

    def __new__(cls, coeffs, radius=1.0):
        try:
            c = tuple(map(float, coeffs))
        except TypeError:  # not a sequence, or not of numbers
            c = ()
        if not c or getattr(coeffs, "ndim", 1) != 1:
            raise ValueError("coeffs must be a non-empty 1-d sequence")
        if not radius > 0.0:
            raise ValueError("radius must be positive")
        return super().__new__(cls, c, radius)

    # so that _replace checks and converts a changed copy as __new__ does
    _make = classmethod(lambda cls, values: cls(*values))

    @property
    def c(self) -> tuple:
        """The coefficients, a tuple of floats."""
        return self[0]

    @property
    def order(self) -> int:
        """Largest retained even degree."""
        return 2 * (len(self.c) - 1)

    def coefficient(self, n: int) -> float:
        """Coefficient of x^n (zero for odd n or n beyond the truncation)."""
        if n < 0:
            raise ValueError("degree must be nonnegative")
        if n % 2 == 1 or n > self.order:
            return 0.0
        return self.c[n // 2]

    @functools.cached_property
    def _over_x(self) -> tuple:
        # the coefficients of f'(x)/x, then those of f''
        c = self.c
        return ([2 * k * c[k] for k in range(1, len(c))],
                [2 * k * (2 * k - 1) * c[k] for k in range(1, len(c))])

    def __call__(self, x):
        return _horner(self.c, x)

    def deriv(self, x):
        """First derivative; an odd function of x."""
        return self.deriv_over_x(x) * x

    def deriv_over_x(self, x):
        """The even function f'(x)/x, finite at x = 0."""
        return _horner(self._over_x[0], x)

    def deriv2(self, x):
        return _horner(self._over_x[1], x)

    def truncated(self, order: int) -> "EvenSeries":
        """Copy truncated (or zero-padded) to the given even order."""
        if order < 0 or order % 2:
            raise ValueError("order must be even and nonnegative")
        m = order // 2 + 1
        return EvenSeries(self.c[:m] + (0.0,) * (m - len(self.c)),
                          self.radius)

    def __add__(self, other: "EvenSeries") -> "EvenSeries":
        n = max(len(self.c), len(other.c))
        a, b = (f.c + (0.0,) * (n - len(f.c)) for f in (self, other))
        return EvenSeries([0.0 + x + y for x, y in zip(a, b)],
                          min(self.radius, other.radius))

    def __sub__(self, other: "EvenSeries") -> "EvenSeries":
        return self + (-1.0) * other

    def __rmul__(self, scalar: float) -> "EvenSeries":
        return EvenSeries([float(scalar) * x for x in self.c], self.radius)

    def to_dict(self, a: float) -> dict:
        """JSON-ready export: {"a": ..., "r": ..., "coeffs": [c0, c2, ...]}."""
        return {"a": float(a), "r": self.radius, "coeffs": list(self.c)}


def weighted_norm(f: EvenSeries, r: float) -> float:
    """Norm sum_n |f_n| max(1, n) r^(n-1) over even n up to the truncation.

    The degree-0 term carries the literal weight r^(-1), so constants scale
    like |c|/r; keep that in mind when comparing norms across different r.
    """
    if not r > 0.0:
        raise ValueError("norm radius r must be positive")
    c = f.c
    total = abs(c[0]) / r
    for k in range(1, len(c)):
        n = 2 * k
        total += abs(c[k]) * n * r ** (n - 1)
    return float(total)


# ---------------------------------------------------------------------------
# The linear operators
# ---------------------------------------------------------------------------

def apply_L(f: EvenSeries) -> EvenSeries:
    """Apply h -> h'' + (1/x - x) h' + h in coefficient form.

    Output degree n carries (n+2)^2 f_{n+2} - (n-1) f_n; the truncation
    drops by one even degree.
    """
    if f.order < 2:
        raise ValueError("apply_L needs order >= 2")
    c = f.c
    return EvenSeries([(2 * k + 2) ** 2 * c[k + 1] - (2 * k - 1) * c[k]
                       for k in range(len(c) - 1)], f.radius)


def invert_L(g: EvenSeries) -> EvenSeries:
    """The unique h with h(0) = 0 and apply_L(h) = g, term by term.

    Recursion: h_{n+2} = (g_n + (n-1) h_n) / (n+2)^2 with h_0 = 0.
    """
    c = g.c
    h = [0.0] * (len(c) + 1)
    for k in range(len(c)):
        n = 2 * k
        h[k + 1] = (c[k] + (n - 1) * h[k]) / (n + 2) ** 2
    return EvenSeries(h, g.radius)


@functools.cache
def j_function(order: int) -> EvenSeries:
    """The particular solution J = invert_L(1): apply_L(J) = 1, J(0) = J'(0)
    = 0, J''(0) = 1/2, and every coefficient of degree >= 2 is positive, so
    J and all its derivatives increase on x > 0.  Cached per order; the
    series is immutable.
    """
    if order < 2 or order % 2:
        raise ValueError("order must be even and >= 2")
    return invert_L(EvenSeries([1.0] + [0.0] * (order // 2 - 1)))


def eta_coefficients(order: int) -> EvenSeries:
    """Kernel generator of the linear operator, eta = 1 - J: eta_0 = 1 and
    eta_k = -J_k.  All coefficients beyond degree 0 are strictly negative;
    eta is entire.
    """
    if order < 0 or order % 2:
        raise ValueError("order must be even and nonnegative")
    one = EvenSeries([1.0])
    return one - j_function(order) if order else one


def series_tail_ratio(f: EvenSeries, x: float) -> float:
    """Crude tail estimate |last term| * rho / (1 - rho) at |x|, using the
    two-step coefficient ratio rho of the kernel-type recursion; infinite
    when the ratio test is inconclusive at the truncation order.
    """
    return _tail_ratio(f.c[-1], f.order, x)


def _tail_ratio(last: float, n: int, x: float) -> float:
    # series_tail_ratio of a series of order n whose last coefficient is last
    rho = x * x * (n - 1) / (n + 2) ** 2
    if rho >= 1.0:
        return math.inf
    return abs(last) * x ** n * rho / (1.0 - rho)


def find_x0() -> float:
    """Abscissa where J equals one; unique since J increases strictly.

    Brent's root of J(x) - 1 for J of order 200 on [1, 3], to a few ulps;
    J(1) < 1 < J(3), and the truncation tail at 3 is far below 1e-12.
    """
    J = j_function(200)
    return brentq(lambda x: J(x) - 1.0, 1.0, 3.0)


# ---------------------------------------------------------------------------
# The nonlinearity
# ---------------------------------------------------------------------------

def _entry(a, b, n: int) -> float:
    """Coefficient n of the product of the polynomials a and b: a[k]
    b[n-k] added in increasing k, one rounded binary64 operation at a time,
    so its bits, unlike np.convolve's BLAS dots, are the same on every
    CPU."""
    lo, hi = max(0, n - len(b) + 1), min(n, len(a) - 1)
    total = a[lo] * b[n - lo]
    for k in range(lo + 1, hi + 1):
        total += a[k] * b[n - k]
    return total


def _cauchy(a, b) -> list:
    """Coefficients of the product of the polynomials a and b, by _entry."""
    return [_entry(a, b, n) for n in range(len(a) + len(b) - 1)]


def nonlinear_Q(h: EvenSeries, a: float) -> EvenSeries:
    """Q(h, a) = -a + (x - 1/x) h'^3 - h'^2 (h + a), exact in coefficients.

    Requires h(0) = 0 so that h'^3 starts at degree 3 and the division by x
    is an index shift, never a numerical 1/x.  The result is even (h even
    makes h' odd, h'^3/x and x h'^3 and h'^2 (h+a) even) and is returned at
    full polynomial length, untruncated.
    """
    c = h.c
    if c[0] != 0.0:
        raise ValueError("nonlinear_Q requires a zero constant term")
    m = len(c)
    if m < 2:
        return EvenSeries([-a], h.radius)
    # d[j] = coefficient of x^{2j+1} in h'
    d = [2.0 * j * c[j] for j in range(1, m)]
    s2 = _cauchy(d, d)            # h'^2: s2[i] at degree 2i + 2
    s3 = _cauchy(s2, d)           # h'^3: s3[i] at degree 2i + 3
    q = [0.0] * (len(s3) + 2)     # x h'^3 tops out at degree 2 len(s3) + 2
    q[0] = -a
    for i, x in enumerate(s3):
        q[i + 2] += x             # x h'^3
    for i, x in enumerate(s3):
        q[i + 1] -= x             # h'^3 / x (exact shift)
    for i, x in enumerate(s2):
        q[i + 1] -= a * x         # a h'^2 shares the shift index
    for i, x in enumerate(_cauchy(s2, c)):
        q[i + 1] -= x             # h'^2 h: degrees (2i+2) + 2j
    return EvenSeries(q, h.radius)


# ---------------------------------------------------------------------------
# Contraction certificates
# ---------------------------------------------------------------------------

class ContractionConstants(namedtuple("ContractionConstants", "a r R L flavor",
                                      defaults=("analytic",))):
    """Constants (a, r, R, L) for a certified fixed-point ball.

    flavor "analytic" certifies the series map in the weighted norm;
    flavor "C2" certifies the grid iteration in the sup norm of h''.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.flavor not in ("analytic", "C2"):
            raise ValueError("flavor must be 'analytic' or 'C2'")
        if min(self.a, self.r, self.R, self.L) <= 0.0:
            raise ValueError("all constants must be positive")
        return self

    # so that _replace checks a changed copy as __new__ does
    _make = classmethod(lambda cls, values: cls(*values))


class CertificateReport(namedtuple("CertificateReport", "slacks certified")):
    """Slack rhs - lhs of each certificate inequality, keyed by its id; the
    constants are certified when every slack is at least -CERT_MARGIN."""

    __slots__ = ()


def regime_constants(r: float) -> tuple[float, float]:
    """(C_r, K_r) of the sufficient smallness regime at interval width r."""
    C_r = math.sqrt(2.0) / (math.exp(r * r / 4.0) * math.sqrt(3.0 * (1.0 + r * r)))
    K_r = 1.0 / (r * math.exp(r * r / 2.0))
    return C_r, K_r


def contraction_certificate(c: ContractionConstants) -> CertificateReport:
    """Evaluate the ball and Lipschitz inequalities for the given constants.

    The rows are ``analytic_ball`` and ``analytic_lipschitz`` (``c2_ball``
    and ``c2_lipschitz`` for the C2 flavor), then ``contraction_factor``
    L <= 1 - CERT_MARGIN; a NaN slack fails.  Plain double-precision
    evaluation with a small rounding margin: a numerical check, not a
    validated enclosure.
    """
    a, r, R, L = c.a, c.r, c.R, c.L
    if c.flavor == "C2":
        ball = (1.5 * a + 2.25 * r**2 * R + 1.5 * a * r**2 * R**2
                + 1.5 * (r**2 + 1.5 * r**4) * R**3)
        lip = r**2 * (2.25 + 4.5 * R**2 + 3.0 * a * R**2 + 6.75 * R**2 * r**2)
        slacks = {"c2_ball": R - ball, "c2_lipschitz": L - lip}
    else:
        e = math.exp(r * r / 2.0)
        ball = e * (0.5 * a * r + 0.25 * (1.0 + r * r) * R**3
                    + 0.25 * a * r * R**2)
        lip = e * (0.75 * (1.0 + r * r) * R**2 + 0.5 * a * r * R)
        slacks = {"analytic_ball": R - ball, "analytic_lipschitz": L - lip}
    slacks["contraction_factor"] = (1.0 - CERT_MARGIN) - L
    return CertificateReport(
        slacks, all(s >= -CERT_MARGIN for s in slacks.values()))


def derive_contraction_constants(a: float, r: float) -> ContractionConstants:
    """Pick certified analytic (R, L) for the given (a, r), or raise
    NoContraction.

    The sufficient smallness regime R <= C_r sqrt(L), a <= K_r R is met
    with equality by R = a / K_r, L = (a/a0)^2 with a0 = C_r K_r, so
    a >= a0 raises (a0 ~ 41.5 at r = R_STAR), and so does an a below
    ~6.5e-161 there, where L underflows to 0.  The grid oracle's C2
    constants are fixed by its own rule, R = 6a and L = 1/2.
    """
    if not (a > 0.0 and r > 0.0):
        raise ValueError(f"a={a} and r={r} must be positive")
    C_r, K_r = regime_constants(r)
    a0 = C_r * K_r
    if a < a0:
        L = (a / a0) ** 2
        if L == 0.0:
            raise NoContraction(f"L = (a/a0)^2 underflows to 0 at a={a}, "
                                f"r={r} (a0 = C_r K_r = {a0})")
        c = ContractionConstants(a, r, a / K_r, L, "analytic")
        if contraction_certificate(c).certified:
            return c
    raise NoContraction(f"no certified ball in the smallness regime for "
                        f"a={a}, r={r} (a0 = C_r K_r = {a0})")


# ---------------------------------------------------------------------------
# Series fixed point
# ---------------------------------------------------------------------------

def picard_analytic(a: float, r: float) -> EvenSeries:
    """Taylor coefficients of the fixed point of h -> invert_L(Q(h, a)).

    The map is triangular in the coefficients: Q's degree-2k coefficient
    reads h_0..h_k only, and invert_L sets h_{k+1} from it and h_k.  So one
    forward recursion from h_0 = 0,

        h_{k+1} = (Q_k(h_0..h_k) + (2k - 1) h_k) / (2k + 2)^2,

    gives the truncated fixed point exactly, one even degree at a time; the
    first order whose tail estimate at r is at most eps * a is kept.  Q_k
    reads one new entry each of h', h'^2, h'^3 and h'^2 h, which running
    lists of Python floats complete as the recursion goes: each entry adds
    its terms in increasing index and Q_k its parts in nonlinear_Q's order,
    so the coefficients are those of nonlinear_Q to the bit (the zero pads
    that _cauchy adds change at most the sign of a zero, which Q_k's sum
    from +0 drops), at a cost quadratic in the order.  The (a, r) pair
    must admit a certified contraction ball, whose constants
    derive_contraction_constants picks; its L bounds the distance
    ||h + a J||_r of the fixed point from the linear solution.

    Returns the solution series (radius = r).  Raises NoContraction when no
    certificate exists, and NoConvergence when the tail is still above
    eps * a at MAX_SERIES_ORDER or the series leaves the certified ball.
    """
    constants = derive_contraction_constants(a, r)
    c = [0.0]  # h_k at degree 2k
    # complete entries: h' (d) and h'^3 (s3) at degree 2i + 1 and 2i + 3,
    # h'^2 (s2) and h'^2 h (p) at degree 2i + 2
    d, s2, s3, p = [], [], [], []

    for k in range(MAX_SERIES_ORDER // 2):
        q = -a
        if k:
            i = k - 1
            d.append(2.0 * k * c[k])
            s2.append(_entry(d, d, i))
            s3.append(_entry(s2, d, i))
            p.append(_entry(s2, c, i))
            q = 0.0
            if k >= 2:
                q += s3[k - 2]  # x h'^3
            q -= s3[i]          # h'^3 / x
            q -= a * s2[i]
            q -= p[i]
        c.append((q + (2 * k - 1) * c[k]) / (2 * k + 2) ** 2)
        if _tail_ratio(c[-1], 2 * k + 2, r) <= EPS * a:
            break
    else:
        raise NoConvergence(f"series tail at r={r} stays above eps * a up to "
                            f"order {MAX_SERIES_ORDER} (a={a})")
    h = EvenSeries(c, r)
    gap = weighted_norm(h + a * j_function(h.order), r)
    L = constants.L
    gap_bound = L * a * r * math.exp(r * r / 2.0) / (2.0 * (1.0 - L))
    if gap > gap_bound * (1.0 + 1e-9) + 1e-15:
        raise NoConvergence("fixed point violates the certified distance "
                            "to the linear solution")
    return h


# ---------------------------------------------------------------------------
# Independent C^2 construction on a grid
# ---------------------------------------------------------------------------

def _legendre(n: int, x: float) -> tuple[float, float]:
    # P_n(x) and P_n'(x) by the three-term recursion
    p0, p1 = 1.0, x
    for k in range(2, n + 1):
        p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
    return p1, n * (x * p1 - p0) / (x * x - 1.0)


@functools.lru_cache(maxsize=8)
def gauss_legendre_composite(lo: float, hi: float, cells: int,
                             nodes: int) -> tuple[tuple, tuple]:
    """Composite Gauss-Legendre nodes and weights on [lo, hi], ascending,
    as tuples of floats; cached, as the solves and the C2 oracle share
    them.  Each node of the one-cell rule on [-1, 1] is Newton's root of
    P_n from Chebyshev's guess, stopped once the step no longer shrinks,
    with the weight 2 / ((1 - x^2) P_n'(x)^2); the rule is mirrored, so
    it is exactly symmetric."""
    half = []  # (node, weight) of the nodes x >= 0, descending
    for i in range(nodes // 2 + nodes % 2):
        x, step = math.cos(math.pi * (i + 0.75) / (nodes + 0.5)), math.inf
        for _ in range(100):
            p, dp = _legendre(nodes, x)
            if not abs(p / dp) < step:
                break
            step = abs(p / dp)
            x -= p / dp
        x = 0.0 if 2 * i + 1 == nodes else x
        dp = _legendre(nodes, x)[1]
        half.append((x, 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)))
    rule = [(-x, w) for x, w in half[:nodes // 2]] + half[::-1]
    # the cells as np.linspace(lo, hi, cells + 1) makes their edges
    step = (hi - lo) / cells
    edges = [k * step + lo for k in range(cells)] + [hi]
    xs, ws = [], []
    for e0, e1 in zip(edges, edges[1:]):
        mid, width = 0.5 * (e0 + e1), 0.5 * (e1 - e0)
        xs += [mid + width * x for x, _ in rule]
        ws += [width * w for _, w in rule]
    return tuple(xs), tuple(ws)


def radial_laplacian_inverse(g, xs):
    """Solve h'' + h'/x = g with h(0) = h'(0) = 0 at the points xs.

    Uses the closed form h(x) = int_0^x (log x - log t) t g(t) dt with the
    substitution t = x e^{-w}, which turns the weakly singular kernel into

        h(x)  = x^2 * int_0^inf w e^{-2w} g(x e^{-w}) dw,
        h'(x) = x   * int_0^inf   e^{-2w} g(x e^{-w}) dw,

    evaluated by composite Gauss-Legendre on [0, 18] with 16 cells of 10
    nodes.  The node weights take math.exp, and each sum adds the nodes'
    terms in index order, elementwise over xs, so no BLAS kernel or SIMD
    dispatch moves a bit.  Returns (h, h').
    """
    import numpy as np
    wn, ww = gauss_legendre_composite(0.0, 18.0, 16, 10)
    ew = np.array([math.exp(-w) for w in wn])
    base_w = [q * math.exp(-2.0 * w) for w, q in zip(wn, ww)]
    gv = np.asarray(g(xs[:, None] * ew), dtype=float)
    h, hp = np.zeros(len(xs)), np.zeros(len(xs))
    for column, w, q in zip(gv.T, wn, base_w):
        h += column * (w * q)
        hp += column * q
    return xs * xs * h, xs * hp


def not_a_knot_spline(x, y):
    """Cubic spline through (x, y) with not-a-knot ends, as a callable.

    The knot slopes solve a tridiagonal system by the Thomas algorithm:
    interior rows make the second derivative continuous, the end rows make
    the third derivative continuous across the second and the second-to-last
    knot.  Points outside [x[0], x[-1]] use the end pieces.
    """
    import numpy as np
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    n = len(x)
    if n < 4:
        raise ValueError("a not-a-knot spline needs at least four knots")
    h = np.diff(x)
    d = np.diff(y) / h
    w0, w1 = h[0] + h[1], h[-2] + h[-1]
    lower = np.r_[0.0, h[1:], w1].tolist()
    diag = np.r_[h[1], 2.0 * (h[:-1] + h[1:]), h[-2]].tolist()
    upper = np.r_[w0, h[:-1], 0.0].tolist()
    rhs = np.r_[((h[0] + 2.0 * w0) * h[1] * d[0] + h[0] ** 2 * d[1]) / w0,
                3.0 * (h[1:] * d[:-1] + h[:-1] * d[1:]),
                (h[-1] ** 2 * d[-2] + (2.0 * w1 + h[-1]) * h[-2] * d[-1]) / w1
                ].tolist()
    for i in range(1, n):
        m = lower[i] / diag[i - 1]
        diag[i] -= m * upper[i - 1]
        rhs[i] -= m * rhs[i - 1]
    slope = [0.0] * n
    slope[-1] = rhs[-1] / diag[-1]
    for i in range(n - 2, -1, -1):
        slope[i] = (rhs[i] - upper[i] * slope[i + 1]) / diag[i]
    s0, s1 = np.array(slope[:-1]), np.array(slope[1:])
    # per-piece Taylor coefficients about x[k], highest degree first
    coef = np.column_stack([(s0 + s1 - 2.0 * d) / (h * h),
                            (3.0 * d - 2.0 * s0 - s1) / h, s0, y[:-1]])

    def spline(t):
        t = np.asarray(t, dtype=float)
        k = np.clip(np.searchsorted(x, t, side="right") - 1, 0, n - 2)
        dt, c = t - x[k], coef[k]
        return ((c[..., 0] * dt + c[..., 1]) * dt + c[..., 2]) * dt + c[..., 3]

    return spline


def picard_c2_oracle(a: float, r: float, grid: int = 129):
    """Independent C^2 solution of the axis Cauchy problem on a uniform grid.

    Iterates h -> T^{-1} P(h, a) where T h = h'' + h'/x and

        P(h, a) = x h' - h - a + h'^2 [h' (x - 1/x) - h - a],

    with T^{-1} realized by log-kernel quadrature and the right-hand side
    interpolated by a not-a-knot cubic spline between grid points, until
    successive iterates differ by less than 1e-13 in the sup norm (at most
    100 iterations).  The pair (a, r) must satisfy the C2 certificate with
    R = 6a, L = 1/2.

    Returns the grid and the graph solution f = a + h on it as the four
    arrays (x, f, f', f'').
    This route never touches the series machinery; it is the
    cross-validation oracle for picard_analytic.
    """
    import numpy as np
    consts = ContractionConstants(a, r, 6.0 * a, 0.5, "C2")
    report = contraction_certificate(consts)
    if not report.certified:
        raise CertificateFailure(f"C2 certificate fails for a={a}, r={r}: "
                                 f"slacks {report.slacks}")
    xs = np.linspace(0.0, r, grid)
    h = np.zeros(grid)
    hp = np.zeros(grid)
    g = np.full(grid, -a)
    for _ in range(100):
        with np.errstate(divide="ignore", invalid="ignore"):
            core = hp * (xs - 1.0 / xs) - h - a
        g = xs * hp - h - a + hp * hp * core
        g[0] = -a
        spline = not_a_knot_spline(xs, g)
        h_next, hp_next = radial_laplacian_inverse(spline, xs)
        delta = float(np.max(np.abs(h_next - h)))
        h, hp = h_next, hp_next
        if delta < 1e-13:
            break
    else:
        raise NoConvergence(f"grid iteration did not reach 1e-13 "
                            f"in 100 steps (a={a}, r={r})")
    hpp = g.copy()
    hpp[1:] -= hp[1:] / xs[1:]
    hpp[0] = -a / 2.0
    if np.max(np.abs(hpp)) > 6.0 * a + 1e-9:
        raise CertificateFailure("computed h'' exceeds the certified bound 6a")
    return xs, a + h, hp, hpp
