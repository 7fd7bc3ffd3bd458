"""Even power-series machinery for the degenerate profile equation at the axis.

The profile height f(x) = a + h(x) of the rotationally symmetric shrinker cap
satisfies, near the rotation axis x = 0,

    h'' + (1/x - x) h' + h = Q(h, a),
    Q(h, a) = -a + (x - 1/x) h'^3 - h'^2 (h + a),      h(0) = h'(0) = 0.

All solutions with this initial data are even, so everything here works on
series in x^2.  The linear operator on the left, acting on coefficients, is

    (L f)_n = (n+2)^2 f_{n+2} - (n-1) f_n             (n even),

which is inverted by a two-term recursion.  Its kernel is spanned by a single
even entire function eta; J = 1 - eta is the particular solution with
L J = 1 and strictly positive coefficients.  The nonlinear solution h_a is
the fixed point of h -> invert_L(Q(h, a)), certified to contract on a norm
ball via explicit inequalities on (a, r, R, L).

A second, independent C^2 construction of the same solution iterates
h -> T^{-1} P(h, a) on a grid, where T h = h'' + h'/x is the radial Laplacian
and T^{-1} is realized by log-kernel quadrature.  It shares no code with the
series route and serves as a cross-validation oracle.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BracketFailure, CertificateFailure, NoContraction, NoConvergence

# Safety margin absorbing floating-point rounding in certificate inequalities.
CERT_MARGIN = 1e-12

# Ball radius certified for all initial heights a in (0, sqrt(2)]:
# the analytic certificate at this radius admits every a below ~41.
R_STAR = 1.0 / (36.0 * math.sqrt(2.0))

DEFAULT_ORDER = 64
DEFAULT_PICARD_TOL = 1e-14
DEFAULT_PICARD_MAX_ITER = 200


# ---------------------------------------------------------------------------
# Even series container
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class EvenSeries:
    """Truncated even power series sum_k c_k x^{2k}.

    ``coeffs[k]`` is the coefficient of x^{2k}; odd-degree coefficients are
    implicitly zero, so evaluation is automatically symmetric in x -> -x.
    ``radius`` records the interval half-width the series is certified (or
    intended to be used) on; it is metadata, not a truncation device.
    """

    coeffs: np.ndarray
    radius: float = 1.0

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=float)
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coeffs must be a non-empty 1-d sequence")
        if not self.radius > 0.0:
            raise ValueError("radius must be positive")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def order(self) -> int:
        """Largest retained even degree."""
        return 2 * (len(self.coeffs) - 1)

    def coefficient(self, n: int) -> float:
        """Coefficient of x^n (zero for odd n or n beyond the truncation)."""
        if n < 0:
            raise ValueError("degree must be nonnegative")
        if n % 2 == 1 or n > self.order:
            return 0.0
        return float(self.coeffs[n // 2])

    def __call__(self, x):
        x2 = np.square(np.asarray(x, dtype=float))
        out = np.zeros_like(x2)
        for ck in self.coeffs[::-1]:
            out = out * x2 + ck
        return out if out.ndim else float(out)

    def deriv(self, x):
        """First derivative; an odd function of x."""
        x = np.asarray(x, dtype=float)
        out = self.deriv_over_x(x) * x
        return out if out.ndim else float(out)

    def deriv_over_x(self, x):
        """The even function f'(x)/x, finite at x = 0."""
        x2 = np.square(np.asarray(x, dtype=float))
        out = np.zeros_like(x2)
        for k in range(len(self.coeffs) - 1, 0, -1):
            out = out * x2 + 2 * k * self.coeffs[k]
        return out if out.ndim else float(out)

    def deriv2(self, x):
        x2 = np.square(np.asarray(x, dtype=float))
        out = np.zeros_like(x2)
        for k in range(len(self.coeffs) - 1, 0, -1):
            out = out * x2 + 2 * k * (2 * k - 1) * self.coeffs[k]
        return out if out.ndim else float(out)

    def norm(self, r: float | None = None) -> float:
        return weighted_norm(self, self.radius if r is None else r)

    def truncated(self, order: int) -> "EvenSeries":
        """Copy truncated (or zero-padded) to the given even order."""
        if order < 0 or order % 2:
            raise ValueError("order must be even and nonnegative")
        m = order // 2 + 1
        c = np.zeros(m)
        k = min(m, len(self.coeffs))
        c[:k] = self.coeffs[:k]
        return EvenSeries(c, self.radius)

    def __add__(self, other: "EvenSeries") -> "EvenSeries":
        n = max(len(self.coeffs), len(other.coeffs))
        c = np.zeros(n)
        c[: len(self.coeffs)] += self.coeffs
        c[: len(other.coeffs)] += other.coeffs
        return EvenSeries(c, min(self.radius, other.radius))

    def __sub__(self, other: "EvenSeries") -> "EvenSeries":
        return self + (-1.0) * other

    def __rmul__(self, scalar: float) -> "EvenSeries":
        return EvenSeries(float(scalar) * self.coeffs, self.radius)

    def to_dict(self, a: float | None = None) -> dict:
        """JSON-ready export: {"a": ..., "r": ..., "coeffs": [c0, c2, ...]}."""
        d = {"r": self.radius, "coeffs": [float(c) for c in self.coeffs]}
        if a is not None:
            d = {"a": float(a), **d}
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "EvenSeries":
        return cls(np.asarray(d["coeffs"], dtype=float), float(d["r"]))


def weighted_norm(f: EvenSeries, r: float) -> float:
    """Norm sum_n |f_n| max(1, n) r^(n-1) over even n up to the truncation.

    The degree-0 term carries the literal weight r^(-1), so constants scale
    like |c|/r; keep that in mind when comparing norms across different r.
    """
    if not r > 0.0:
        raise ValueError("norm radius r must be positive")
    c = f.coeffs
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
    c = f.coeffs
    out = np.empty(len(c) - 1)
    for k in range(len(c) - 1):
        n = 2 * k
        out[k] = (n + 2) ** 2 * c[k + 1] - (n - 1) * c[k]
    return EvenSeries(out, f.radius)


def invert_L(g: EvenSeries) -> EvenSeries:
    """The unique h with h(0) = 0 and apply_L(h) = g, term by term.

    Recursion: h_{n+2} = (g_n + (n-1) h_n) / (n+2)^2 with h_0 = 0.
    """
    c = g.coeffs
    h = np.zeros(len(c) + 1)
    for k in range(len(c)):
        n = 2 * k
        h[k + 1] = (c[k] + (n - 1) * h[k]) / (n + 2) ** 2
    return EvenSeries(h, g.radius)


def eta_coefficients(order: int = DEFAULT_ORDER) -> EvenSeries:
    """Kernel generator of the linear operator: eta_0 = 1, recursion
    eta_{n+2} = (n-1) eta_n / (n+2)^2.  All coefficients beyond degree 0
    are strictly negative; eta is entire.
    """
    if order < 0 or order % 2:
        raise ValueError("order must be even and nonnegative")
    c = np.zeros(order // 2 + 1)
    c[0] = 1.0
    for k in range(len(c) - 1):
        n = 2 * k
        c[k + 1] = (n - 1) / (n + 2) ** 2 * c[k]
    return EvenSeries(c)


def j_function(order: int = DEFAULT_ORDER) -> EvenSeries:
    """The particular solution J = 1 - eta: apply_L(J) = 1, J(0) = J'(0) = 0,
    J''(0) = 1/2, and every coefficient of degree >= 2 is positive, so J and
    all its derivatives increase on x > 0.
    """
    if order < 2:
        raise ValueError("order must be >= 2")
    c = -eta_coefficients(order).coeffs.copy()
    c[0] = 0.0
    return EvenSeries(c)


def series_tail_ratio(f: EvenSeries, x: float) -> float:
    """Crude tail estimate |last term| * rho / (1 - rho) at |x|, using the
    two-step coefficient ratio rho of the kernel-type recursion; infinite
    when the ratio test is inconclusive at the truncation order.
    """
    n = f.order
    rho = x * x * (n - 1) / (n + 2) ** 2
    if rho >= 1.0:
        return math.inf
    last = abs(f.coeffs[-1]) * x ** n
    return last * rho / (1.0 - rho)


def find_x0(order: int = 200, tol: float = 1e-12,
            bracket: tuple[float, float] = (1.0, 3.0)) -> float:
    """Abscissa where J equals one; unique since J increases strictly.

    Bisects J(x) = 1 on the bracket after checking that the truncation tail
    at the upper endpoint is below tol.
    """
    J = j_function(order)
    lo, hi = bracket
    if series_tail_ratio(J, hi) > tol:
        raise ValueError("truncation order too small for the requested tol")
    if J(hi) < 1.0:
        raise BracketFailure(f"J({hi}) < 1: enlarge the bracket")
    if J(lo) > 1.0:
        raise BracketFailure(f"J({lo}) > 1: shrink the bracket")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if J(mid) < 1.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 4.0 * np.finfo(float).eps * hi:
            break
    x0 = 0.5 * (lo + hi)
    if abs(J(x0) - 1.0) > tol:
        raise BracketFailure("bisection stalled before reaching tol")
    return x0


# ---------------------------------------------------------------------------
# The nonlinearity
# ---------------------------------------------------------------------------

def nonlinear_Q(h: EvenSeries, a: float) -> EvenSeries:
    """Q(h, a) = -a + (x - 1/x) h'^3 - h'^2 (h + a), exact in coefficients.

    Requires h(0) = 0 so that h'^3 starts at degree 3 and the division by x
    is an index shift, never a numerical 1/x.  The result is even (h even
    makes h' odd, h'^3/x and x h'^3 and h'^2 (h+a) even) and is returned at
    full polynomial length, untruncated.
    """
    if h.coeffs[0] != 0.0:
        raise ValueError("nonlinear_Q requires a zero constant term")
    c = h.coeffs
    m = len(c)
    if m < 2:
        return EvenSeries(np.array([-a]), h.radius)
    # d[j] = coefficient of x^{2j+1} in h'
    d = 2.0 * np.arange(1, m) * c[1:]
    s2 = np.convolve(d, d)        # h'^2: s2[i] at degree 2i + 2
    s3 = np.convolve(s2, d)       # h'^3: s3[i] at degree 2i + 3
    q = np.zeros(len(s3) + 2)     # x h'^3 tops out at degree 2 len(s3) + 2
    q[0] = -a
    q[2:] += s3                   # x h'^3
    q[1:-1] -= s3                 # h'^3 / x (exact shift)
    q[1:len(s2) + 1] -= a * s2    # a h'^2 shares the shift index
    q[1:] -= np.convolve(s2, c)   # h'^2 h: degrees (2i+2) + 2j
    return EvenSeries(q, h.radius)


# ---------------------------------------------------------------------------
# Contraction certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ContractionConstants:
    """Constants (a, r, R, L) for a certified fixed-point ball.

    flavor "analytic" certifies the series iteration in the weighted norm;
    flavor "C2" certifies the grid iteration in the sup norm of h''.
    """

    a: float
    r: float
    R: float
    L: float
    flavor: str = "analytic"

    def __post_init__(self):
        if self.flavor not in ("analytic", "C2"):
            raise ValueError("flavor must be 'analytic' or 'C2'")
        if min(self.a, self.r, self.R, self.L) <= 0.0:
            raise ValueError("all constants must be positive")


@dataclass(frozen=True)
class InequalityCheck:
    inequality_id: str
    lhs: float
    rhs: float
    passed: bool

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    def to_dict(self) -> dict:
        return {"inequality_id": self.inequality_id, "lhs": self.lhs,
                "rhs": self.rhs, "slack": self.slack, "pass": self.passed}


@dataclass(frozen=True)
class CertificateReport:
    constants: ContractionConstants
    checks: tuple[InequalityCheck, ...]
    certified: bool

    def to_json_list(self) -> list[dict]:
        return [c.to_dict() for c in self.checks]

    def check(self, inequality_id: str) -> InequalityCheck:
        for c in self.checks:
            if c.inequality_id == inequality_id:
                return c
        raise KeyError(inequality_id)


def _ineq(name: str, lhs: float, rhs: float) -> InequalityCheck:
    return InequalityCheck(name, lhs, rhs, lhs <= rhs + CERT_MARGIN)


def regime_constants(r: float) -> tuple[float, float]:
    """(C_r, K_r) of the sufficient smallness regime at interval width r."""
    C_r = math.sqrt(2.0) / (math.exp(r * r / 4.0) * math.sqrt(3.0 * (1.0 + r * r)))
    K_r = 1.0 / (r * math.exp(r * r / 2.0))
    return C_r, K_r


def contraction_certificate(c: ContractionConstants) -> CertificateReport:
    """Evaluate the ball and Lipschitz inequalities for the given constants.

    Plain double-precision evaluation with a small rounding margin; this is
    a numerical check, not a validated enclosure.  For the analytic flavor
    the report also carries the sufficient-regime rows R <= C_r sqrt(L) and
    a <= K_r R, which imply (but are not required by) the certificate.
    """
    a, r, R, L = c.a, c.r, c.R, c.L
    checks = []
    if c.flavor == "C2":
        ball = (1.5 * a + 2.25 * r**2 * R + 1.5 * a * r**2 * R**2
                + 1.5 * (r**2 + 1.5 * r**4) * R**3)
        lip = r**2 * (2.25 + 4.5 * R**2 + 3.0 * a * R**2 + 6.75 * R**2 * r**2)
        checks.append(_ineq("c2_ball", ball, R))
        checks.append(_ineq("c2_lipschitz", lip, L))
    else:
        e = math.exp(r * r / 2.0)
        ball = e * (0.5 * a * r + 0.25 * (1.0 + r * r) * R**3
                    + 0.25 * a * r * R**2)
        lip = e * (0.75 * (1.0 + r * r) * R**2 + 0.5 * a * r * R)
        checks.append(_ineq("analytic_ball", ball, R))
        checks.append(_ineq("analytic_lipschitz", lip, L))
    checks.append(_ineq("contraction_factor", L, 1.0 - CERT_MARGIN))
    certified = all(ch.passed for ch in checks)
    if c.flavor == "analytic":
        C_r, K_r = regime_constants(r)
        checks.append(_ineq("regime_ball", R, C_r * math.sqrt(L)))
        checks.append(_ineq("regime_height", a, K_r * R))
    return CertificateReport(c, tuple(checks), certified)


def derive_contraction_constants(a: float, r: float,
                                 flavor: str = "analytic") -> ContractionConstants:
    """Pick certified (R, L) for the given (a, r), or raise NoContraction.

    Analytic flavor: the smallness regime gives R = a / K_r, L = (a/a0)^2
    with a0 = C_r K_r, so a >= a0 raises (a0 ~ 41.5 at r = R_STAR).
    C2 flavor: the local-existence rule R = 6a, L = 1/2.
    """
    if a <= 0.0 or r <= 0.0:
        raise ValueError("a and r must be positive")
    if flavor == "C2":
        c = ContractionConstants(a, r, 6.0 * a, 0.5, "C2")
        if contraction_certificate(c).certified:
            return c
        raise NoContraction(f"C2 certificate fails at a={a}, r={r}, R=6a, L=1/2")
    C_r, K_r = regime_constants(r)
    a0 = C_r * K_r
    if a < a0:
        c = ContractionConstants(a, r, a / K_r, (a / a0) ** 2, "analytic")
        if contraction_certificate(c).certified:
            return c
    raise NoContraction(f"no certified ball in the smallness regime for "
                        f"a={a}, r={r} (a0 = C_r K_r = {a0})")


# ---------------------------------------------------------------------------
# Series fixed point
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PicardInfo:
    """Diagnostics of a converged series iteration."""

    iterations: int
    distances: tuple[float, ...]
    constants: ContractionConstants
    certificate: CertificateReport
    linear_gap: float      # || h + a J ||_r
    linear_gap_bound: float


def picard_analytic(a: float, r: float, order: int = DEFAULT_ORDER,
                    tol: float = DEFAULT_PICARD_TOL,
                    max_iter: int = DEFAULT_PICARD_MAX_ITER,
                    constants: ContractionConstants | None = None,
                    full_output: bool = False):
    """Fixed point of h -> invert_L(Q(h, a)) on series of the given order.

    Starts from h = 0 (so the first iterate is -a J) and stops when the
    weighted-norm distance between successive iterates drops below tol.
    The (a, r) pair must admit a certified contraction ball; pass explicit
    ``constants`` to override the derived ones.

    Returns the solution series (radius = r), plus a PicardInfo when
    ``full_output`` is set.

    Raises NoContraction when no certificate exists and NoConvergence when
    the iteration budget is exhausted.
    """
    if constants is None:
        constants = derive_contraction_constants(a, r, "analytic")
    report = contraction_certificate(constants)
    if not report.certified:
        raise NoContraction(f"supplied constants are not certified: {constants}")
    h = EvenSeries(np.zeros(order // 2 + 1), r)
    distances = []
    for it in range(max_iter):
        q = nonlinear_Q(h, a).truncated(order - 2)
        h_next = EvenSeries(invert_L(q).coeffs, r)
        dist = weighted_norm(h_next - h, r)
        distances.append(dist)
        h = h_next
        if dist < tol:
            break
    else:
        raise NoConvergence(f"series iteration did not reach tol={tol} "
                            f"in {max_iter} steps (a={a}, r={r})")
    gap = weighted_norm(h + a * j_function(order), r)
    L = constants.L
    gap_bound = L * a * r * math.exp(r * r / 2.0) / (2.0 * (1.0 - L))
    if gap > gap_bound * (1.0 + 1e-9) + 1e-15:
        raise NoConvergence("fixed point violates the certified distance "
                            "to the linear solution")
    if full_output:
        info = PicardInfo(len(distances), tuple(distances), constants,
                          report, gap, gap_bound)
        return h, info
    return h


# ---------------------------------------------------------------------------
# Independent C^2 construction on a grid
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=8)
def gauss_legendre_rule(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Cached Gauss-Legendre rule on [-1, 1]; read-only, as callers share it."""
    xg, wg = np.polynomial.legendre.leggauss(nodes)
    xg.flags.writeable = wg.flags.writeable = False
    return xg, wg


def gauss_legendre_composite(lo: float, hi: float, cells: int,
                             nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes and weights on [lo, hi]."""
    xg, wg = gauss_legendre_rule(nodes)
    edges = np.linspace(lo, hi, cells + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    halves = 0.5 * np.diff(edges)
    xs = (mids[:, None] + halves[:, None] * xg[None, :]).ravel()
    ws = (halves[:, None] * wg[None, :]).ravel()
    return xs, ws


def radial_laplacian_inverse(g, xs: np.ndarray, w_max: float = 18.0,
                             cells: int = 16, nodes: int = 10):
    """Solve h'' + h'/x = g with h(0) = h'(0) = 0 at the points xs.

    Uses the closed form h(x) = int_0^x (log x - log t) t g(t) dt with the
    substitution t = x e^{-w}, which turns the weakly singular kernel into

        h(x)  = x^2 * int_0^inf w e^{-2w} g(x e^{-w}) dw,
        h'(x) = x   * int_0^inf   e^{-2w} g(x e^{-w}) dw,

    evaluated by composite Gauss-Legendre on [0, w_max].  Returns (h, h').
    """
    wn, ww = gauss_legendre_composite(0.0, w_max, cells, nodes)
    ew = np.exp(-wn)
    base_w = ww * np.exp(-2.0 * wn)
    h = np.zeros(len(xs))
    hp = np.zeros(len(xs))
    for i, x in enumerate(xs):
        if x == 0.0:
            continue
        gv = np.asarray(g(x * ew), dtype=float)
        h[i] = x * x * float(np.sum(wn * base_w * gv))
        hp[i] = x * float(np.sum(base_w * gv))
    return h, hp


def picard_c2_oracle(a: float, r: float, grid: int = 129,
                     tol: float = 1e-13, max_iter: int = 100,
                     w_max: float = 18.0, cells: int = 16, nodes: int = 10):
    """Independent C^2 solution of the axis Cauchy problem on a uniform grid.

    Iterates h -> T^{-1} P(h, a) where T h = h'' + h'/x and

        P(h, a) = x h' - h - a + h'^2 [h' (x - 1/x) - h - a],

    with T^{-1} realized by log-kernel quadrature and the right-hand side
    interpolated by a cubic spline between grid points.  The pair (a, r)
    must satisfy the C2 certificate with R = 6a, L = 1/2.

    Returns the list of profile samples (x, a + h, h', h'') on the grid.
    This route never touches the series machinery; it is the
    cross-validation oracle for picard_analytic.
    """
    from scipy.interpolate import CubicSpline

    from .graph_profile import ProfileSample

    consts = ContractionConstants(a, r, 6.0 * a, 0.5, "C2")
    report = contraction_certificate(consts)
    if not report.certified:
        raise CertificateFailure(f"C2 certificate fails for a={a}, r={r}: "
                                 f"{report.to_json_list()}")
    xs = np.linspace(0.0, r, grid)
    h = np.zeros(grid)
    hp = np.zeros(grid)
    g = np.full(grid, -a)
    for _ in range(max_iter):
        with np.errstate(divide="ignore", invalid="ignore"):
            core = hp * (xs - 1.0 / xs) - h - a
        g = xs * hp - h - a + hp * hp * core
        g[0] = -a
        spline = CubicSpline(xs, g)
        h_next, hp_next = radial_laplacian_inverse(spline, xs, w_max, cells, nodes)
        delta = float(np.max(np.abs(h_next - h)))
        h, hp = h_next, hp_next
        if delta < tol:
            break
    else:
        raise NoConvergence(f"grid iteration did not reach tol={tol} "
                            f"in {max_iter} steps (a={a}, r={r})")
    hpp = g.copy()
    hpp[1:] -= hp[1:] / xs[1:]
    hpp[0] = -a / 2.0
    if np.max(np.abs(hpp)) > 6.0 * a + 1e-9:
        raise CertificateFailure("computed h'' exceeds the certified bound 6a")
    return [ProfileSample(float(x), float(a + hi), float(hpi), float(hppi))
            for x, hi, hpi, hppi in zip(xs, h, hp, hpp)]
