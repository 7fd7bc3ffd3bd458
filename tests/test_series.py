import dataclasses
import itertools
import json
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.integrate import solve_ivp

from conftest import A_STAR
from lensshrinker.arclength import X_SEED, seed_quadratures
from lensshrinker import (CertificateFailure, ContractionConstants, EvenSeries,
                          NoContraction, NoConvergence, apply_L,
                          contraction_certificate, eta_coefficients, find_x0,
                          invert_L, j_function, nonlinear_Q, picard_analytic,
                          picard_c2_oracle, series, weighted_norm)
from lensshrinker.series import (CERT_MARGIN, R_STAR, _cauchy,
                                 derive_contraction_constants,
                                 gauss_legendre_composite,
                                 not_a_knot_spline, radial_laplacian_inverse,
                                 regime_constants, series_tail_ratio)

SQRT2 = math.sqrt(2.0)
EPS = np.finfo(float).eps
C_R1, K_R1 = regime_constants(1.0)


def apply_G(g: EvenSeries) -> EvenSeries:
    """Diagonal smoothing g_n -> g_n / ((n+2) max(1, n)); bounds invert_L."""
    n = 2 * np.arange(len(g.coeffs))
    return EvenSeries(g.coeffs / ((n + 2) * np.maximum(1, n)), g.radius)


# ---------------------------------------------------------------------------
# kernel generator and particular solution
# ---------------------------------------------------------------------------

def eta_fractions(order):
    """Independent exact-arithmetic recursion for the kernel coefficients."""
    coeffs = [Fraction(1)]
    for k in range(order // 2):
        n = 2 * k
        coeffs.append(Fraction(n - 1, (n + 2) ** 2) * coeffs[-1])
    return coeffs


def test_eta_first_coefficients():
    eta = eta_coefficients(6)
    assert eta.coefficient(0) == 1.0
    assert eta.coefficient(2) == -0.25
    assert eta.coefficient(4) == -1.0 / 64.0
    assert eta.coefficient(3) == 0.0


@pytest.mark.parametrize("order", [40, 200])
def test_eta_matches_exact_recursion(order):
    eta = eta_coefficients(order)
    exact = eta_fractions(order)
    for k, frac in enumerate(exact):
        assert eta.coeffs[k] == pytest.approx(float(frac), rel=1e-15, abs=1e-300)


def test_eta_negative_beyond_constant():
    eta = eta_coefficients(60)
    assert np.all(eta.coeffs[1:] < 0.0)


def test_j_function_values():
    J = j_function(40)
    assert J(0.0) == 0.0
    assert J.deriv(0.0) == 0.0
    assert J.deriv2(0.0) == pytest.approx(0.5, abs=1e-16)
    assert np.all(J.coeffs[1:] > 0.0)
    # J grows strictly on x > 0
    xs = np.linspace(0.1, 2.5, 40)
    assert np.all(np.diff(J(xs)) > 0.0)


@pytest.mark.parametrize("order", [10, 20, 40, 60])
@pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
def test_j_norm_bound(order, r):
    J = j_function(order)
    assert weighted_norm(J, r) <= 0.5 * r * math.exp(r * r / 2.0)


def test_j_norm_bound_value_at_one():
    # bound at r=1 evaluates to ~0.8244; the norm itself is well below
    J = j_function(60)
    bound = 0.5 * math.exp(0.5)
    assert bound == pytest.approx(0.8243606353500641, rel=1e-12)
    assert weighted_norm(J, 1.0) < bound


def test_norm_of_eta_shift_equals_norm_of_j():
    eta = eta_coefficients(30)
    one = EvenSeries(np.array([1.0]))
    for r in (0.5, 1.0, 2.0):
        assert weighted_norm(eta - one, r) == pytest.approx(
            weighted_norm(j_function(30), r), rel=1e-15)


# ---------------------------------------------------------------------------
# weighted norm
# ---------------------------------------------------------------------------

def test_weighted_norm_literal_constant_weight():
    # the degree-0 weight is literally r^(-1)
    c = EvenSeries(np.array([3.0]))
    assert weighted_norm(c, 1.0) == 3.0
    assert weighted_norm(c, 2.0) == 1.5


def test_weighted_norm_single_even_term():
    f = EvenSeries(np.array([0.0, 1.0]))  # x^2
    assert weighted_norm(f, 2.0) == 4.0


def test_weighted_norm_rejects_bad_radius():
    f = EvenSeries(np.array([1.0]))
    with pytest.raises(ValueError):
        weighted_norm(f, 0.0)
    with pytest.raises(ValueError):
        weighted_norm(f, -1.0)


def test_weighted_norm_monotone_in_truncation():
    rng = np.random.default_rng(7)
    full = EvenSeries(np.abs(rng.standard_normal(17)))
    norms = [weighted_norm(full.truncated(n), 1.3) for n in range(2, 33, 2)]
    assert np.all(np.diff(norms) >= 0.0)


# ---------------------------------------------------------------------------
# linear operators
# ---------------------------------------------------------------------------

def test_apply_L_kills_kernel_and_maps_j_to_one():
    eta = eta_coefficients(60)
    J = j_function(60)
    assert np.max(np.abs(apply_L(eta).coeffs)) < 1e-20
    lj = apply_L(J).coeffs
    assert lj[0] == pytest.approx(1.0, abs=1e-15)
    assert np.max(np.abs(lj[1:])) < 1e-20


def test_apply_L_on_x_squared():
    f = EvenSeries(np.array([0.0, 1.0, 0.0]))
    out = apply_L(f)
    assert out.coefficient(0) == 4.0
    assert out.coefficient(2) == -1.0


def test_invert_L_examples():
    one = EvenSeries(np.ones(1))
    h = invert_L(one.truncated(20))
    J = j_function(22)
    assert np.allclose(h.coeffs, J.coeffs, rtol=1e-15, atol=1e-300)

    zero = EvenSeries(np.zeros(6))
    assert np.all(invert_L(zero).coeffs == 0.0)

    g = EvenSeries(np.array([4.0, -1.0]))
    h = invert_L(g)
    assert h.coefficient(2) == 1.0
    assert h.coefficient(4) == 0.0


def invert_L_fractions(g):
    h = [Fraction(0)]
    for k, gn in enumerate(g):
        n = 2 * k
        h.append(Fraction(gn + (n - 1) * h[k], (n + 2) ** 2))
    return h


def apply_L_fractions(h):
    return [(n + 2) ** 2 * h[k + 1] - (n - 1) * h[k]
            for k, n in enumerate(range(0, 2 * (len(h) - 1), 2))]


def test_roundtrip_exact_in_rational_arithmetic():
    rng = np.random.default_rng(11)
    for _ in range(20):
        g = [Fraction(int(z)) for z in rng.integers(-9, 10, size=10)]
        assert apply_L_fractions(invert_L_fractions(g)) == g


def test_roundtrip_float_matches_rational_oracle():
    rng = np.random.default_rng(12)
    for _ in range(20):
        ints = rng.integers(-9, 10, size=11)
        g = EvenSeries(ints.astype(float))
        h = invert_L(g)
        exact = invert_L_fractions([Fraction(int(z)) for z in ints])
        for k, frac in enumerate(exact):
            assert h.coeffs[k] == pytest.approx(float(frac), rel=1e-13,
                                                abs=1e-300)


def test_roundtrip_identity_float():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(100):
        g = EvenSeries(rng.standard_normal(21))
        back = apply_L(invert_L(g))
        scale = max(1.0, float(np.max(np.abs(g.coeffs))))
        worst = max(worst, float(np.max(np.abs(back.coeffs - g.coeffs))) / scale)
    assert worst < 1e-13


def test_apply_G_values():
    g = EvenSeries(np.array([1.0, 1.0, 1.0]))
    out = apply_G(g)
    assert out.coefficient(0) == 0.5
    assert out.coefficient(2) == 1.0 / 8.0
    assert out.coefficient(4) == 1.0 / 24.0


@pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
def test_inverse_norm_bound(r):
    rng = np.random.default_rng(int(r * 100))
    grow = r * r * math.exp(r * r / 2.0)
    for _ in range(100):
        g = EvenSeries(rng.standard_normal(13))
        lhs = weighted_norm(invert_L(g), r)
        rhs = grow * weighted_norm(apply_G(g), r)
        assert lhs <= rhs * (1.0 + 1e-12)


# ---------------------------------------------------------------------------
# nonlinearity
# ---------------------------------------------------------------------------

def test_q_of_zero_is_minus_a():
    zero = EvenSeries(np.zeros(5))
    q = nonlinear_Q(zero, 2.5)
    assert q.coefficient(0) == -2.5
    assert np.max(np.abs(q.coeffs[1:])) == 0.0 if len(q.coeffs) > 1 else True


def test_q_polynomial_example():
    h = EvenSeries(np.array([0.0, 1.0]))  # x^2
    q = nonlinear_Q(h, 1.0)
    assert q.coefficient(0) == -1.0
    assert q.coefficient(2) == -12.0
    assert q.coefficient(4) == 4.0
    assert all(q.coefficient(n) == 0.0 for n in (1, 3, 5, 6, 8))


def test_q_matches_pointwise_formula_at_high_order():
    rng = np.random.default_rng(11)
    x = np.array([0.05, 0.1, 0.2, 0.3, 0.4, 0.5])
    for a in (0.05, 0.8, SQRT2):
        c = rng.uniform(-1.0, 1.0, size=13)  # order 24
        c[0] = 0.0
        h = EvenSeries(c)
        q = nonlinear_Q(h, a)
        assert len(q.coeffs) == 3 * len(c) - 3
        hp = h.deriv(x)
        pointwise = -a + (x - 1.0 / x) * hp ** 3 - hp ** 2 * (h(x) + a)
        np.testing.assert_allclose(q(x), pointwise, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("la, lb", [(1, 1), (1, 3), (3, 1), (4, 4), (7, 4),
                                    (7, 5), (31, 16)])
def test_cauchy_product_is_the_plain_double_loop(la, lb):
    # nonlinear_Q's products add each entry's terms in increasing k, bit for
    # bit as this loop; np.convolve (BLAS) agrees to rounding
    rng = np.random.default_rng(la * 100 + lb)
    a, b = rng.standard_normal(la).tolist(), rng.standard_normal(lb).tolist()
    want = []
    for n in range(la + lb - 1):
        total = 0.0
        for k in range(max(0, n - lb + 1), min(la, n + 1)):
            total += a[k] * b[n - k]
        want.append(total.hex())
    got = _cauchy(np.array(a), np.array(b))
    assert [x.hex() for x in got.tolist()] == want
    np.testing.assert_allclose(got, np.convolve(a, b), rtol=0, atol=1e-13)


def test_q_rejects_nonzero_constant():
    with pytest.raises(ValueError):
        nonlinear_Q(EvenSeries(np.array([1.0, 0.5])), 1.0)


def test_even_series_is_symmetric():
    rng = np.random.default_rng(3)
    f = EvenSeries(rng.standard_normal(9))
    xs = rng.uniform(0.0, 2.0, size=12)
    assert np.array_equal(f(xs), f(-xs))
    assert f.coefficient(7) == 0.0


@pytest.mark.parametrize("a", np.geomspace(1e-6, SQRT2, 10).tolist())
def test_even_series_at_a_float_is_the_array_path_to_the_bit(a):
    # a Python float runs the Horner loop on floats: the bits of the
    # one-point array, returned as a float
    h = picard_analytic(a, R_STAR)
    for x in (0.0, -0.0, X_SEED, h.radius / 2, h.radius):
        for f in (h, h.deriv, h.deriv2, h.deriv_over_x):
            got = f(x)
            assert type(got) is float
            assert got.hex() == float(f(np.array([x]))[0]).hex()


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

def test_certificate_reference_constants_pass():
    c = ContractionConstants(SQRT2, 1.0 / (36.0 * SQRT2), 6.0 * SQRT2, 0.5, "C2")
    report = contraction_certificate(c)
    assert report.certified
    assert all(s >= -CERT_MARGIN for s in report.slacks.values())


def test_certificate_fails_at_widened_interval():
    # with the same large ball, a 12x wider interval breaks the Lipschitz
    # row, and the ball row with it; L = 1/2 still contracts
    c = ContractionConstants(SQRT2, 1.0 / (3.0 * SQRT2), 6.0 * SQRT2, 0.5, "C2")
    report = contraction_certificate(c)
    assert not report.certified
    assert report.slacks["c2_lipschitz"] < -CERT_MARGIN
    assert report.slacks["c2_ball"] < -CERT_MARGIN
    assert report.slacks["contraction_factor"] >= -CERT_MARGIN


def test_certificate_smallness_regime_equality_case():
    for r in (0.5, 1.0, 2.0):
        L = 0.5
        R = 1.0 / (math.exp(r * r / 4.0) * math.sqrt(3.0 * (1.0 + r * r)))
        a = 1.0 / (math.exp(3.0 * r * r / 4.0) * r * math.sqrt(3.0 * (1.0 + r * r)))
        report = contraction_certificate(ContractionConstants(a, r, R, L))
        assert report.certified
        # the derived constants meet R <= C_r sqrt(L), a <= K_r R with equality
        C_r, K_r = regime_constants(r)
        c = derive_contraction_constants(a, r)
        assert c.R == pytest.approx(C_r * math.sqrt(c.L), rel=1e-14)
        assert c.a == pytest.approx(K_r * c.R, rel=1e-14)


def test_certificate_certified_iff_every_slack_within_margin():
    keys = {"analytic": ["analytic_ball", "analytic_lipschitz",
                         "contraction_factor"],
            "C2": ["c2_ball", "c2_lipschitz", "contraction_factor"]}
    seen = set()
    for flavor, a, r, R, L in itertools.product(
            keys, (0.1, 1.0, 10.0), (0.1, 0.5, 2.0), (0.1, 1.0, 10.0),
            (0.1, 0.5, 0.99, 1.5)):
        report = contraction_certificate(ContractionConstants(a, r, R, L,
                                                              flavor))
        assert list(report.slacks) == keys[flavor]
        assert report.certified == all(s >= -CERT_MARGIN
                                       for s in report.slacks.values())
        seen.add((flavor, report.certified))
    assert len(seen) == 4  # each flavor both passes and fails on the grid
    nan_height = ContractionConstants(math.nan, 0.5, 1.0, 0.5)
    assert not contraction_certificate(nan_height).certified


def test_derive_constants_rejects_huge_height():
    for a in (100.0, 1e300):  # (a/a0)^2 would overflow at 1e300
        with pytest.raises(NoContraction):
            derive_contraction_constants(a, 1.0)


def test_derive_constants_names_the_underflow_of_L():
    # L = (a/a0)^2 is subnormal but positive at a = 1e-160, and 0 below
    # ~6.5e-161
    assert derive_contraction_constants(1e-160, R_STAR).L > 0.0
    for a in (1e-161, 1e-300, 5e-324):
        with pytest.raises(NoContraction, match="underflows to 0"):
            derive_contraction_constants(a, R_STAR)


@pytest.mark.parametrize("a, r", [(math.nan, R_STAR), (0.5, math.nan),
                                  (0.0, R_STAR), (0.5, -1.0)])
def test_derive_constants_rejects_a_height_or_radius_that_is_not_positive(a, r):
    with pytest.raises(ValueError, match="must be positive"):
        derive_contraction_constants(a, r)


def test_regime_constants_formulas():
    C1, K1 = regime_constants(1.0)
    assert C1 == pytest.approx(SQRT2 / (math.exp(0.25) * math.sqrt(6.0)), rel=1e-15)
    assert K1 == pytest.approx(math.exp(-0.5), rel=1e-15)


# ---------------------------------------------------------------------------
# series fixed point
# ---------------------------------------------------------------------------

def test_picard_leading_coefficient_exact():
    for a in (0.3, 1.0, SQRT2):
        h = picard_analytic(a, R_STAR)
        assert h.coefficient(0) == 0.0
        assert h.coefficient(2) == -a / 4.0           # so f''(0) = -a/2
        assert h.deriv(0.0) == 0.0
        assert h.deriv2(0.0) == pytest.approx(-a / 2.0, rel=1e-15)


def test_picard_circle_coefficients():
    # at a = sqrt(2) the solution is sqrt(2 - x^2) - sqrt(2)
    h = picard_analytic(SQRT2, R_STAR)
    assert h.coefficient(2) == pytest.approx(-SQRT2 / 4.0, rel=1e-14)
    assert h.coefficient(4) == pytest.approx(-SQRT2 / 32.0, rel=1e-13)
    assert h.coefficient(6) == pytest.approx(-SQRT2 / 128.0, rel=1e-12)


def test_picard_linear_gap_bound_holds():
    a, r = 0.2, 1.0
    h = picard_analytic(a, r)
    L = derive_contraction_constants(a, r).L
    gap_bound = L * a * r * math.exp(r * r / 2.0) / (2.0 * (1.0 - L))
    assert weighted_norm(h + a * j_function(h.order), r) <= gap_bound


def test_picard_order_is_the_first_with_tail_below_eps_a():
    heights = [float(a) for a in np.geomspace(0.005, SQRT2, 11)] + [A_STAR]
    cases = [(a, R_STAR) for a in heights] + [(0.01, 1.0)]
    for a, r in cases:
        h = picard_analytic(a, r)
        assert series_tail_ratio(h, r) <= EPS * a
        assert series_tail_ratio(h.truncated(h.order - 2), r) > EPS * a


# heights in [1e-3, sqrt(2)] and 1e-160, at R_STAR and, where it is
# certified (a below ~0.27), at r = 1
_FIXED_POINT_CASES = [
    (a, r) for r in (R_STAR, 1.0)
    for a in [*np.geomspace(1e-3, SQRT2, 10).tolist(), 1e-160]
    if r == R_STAR or a < C_R1 * K_R1]


@pytest.mark.parametrize("a, r", _FIXED_POINT_CASES)
def test_picard_is_the_exact_truncated_fixed_point(a, r):
    h = picard_analytic(a, r)
    image = invert_L(nonlinear_Q(h, a).truncated(h.order - 2))
    assert image.coeffs.tobytes() == h.coeffs.tobytes()


def taylor_by_mpmath(a, order):
    """Taylor coefficients b_0..b_order of the profile f = a + h at the
    axis, to 50 digits, from the graph equation

        x f'' = (1 + f'^2) (x^2 f' - x f - f'),    f(0) = a, f'(0) = 0:

    its x^m coefficient reads (m+1)^2 b_{m+1} = [x^m] (x^2 f' - x f
    + f'^2 (x^2 f' - x f - f')), whose right side needs b_0..b_m only."""
    with mpmath.workdps(50):
        b = [mpmath.mpf(a)]
        for m in range(order):
            fp = [(j + 1) * b[j + 1] for j in range(m)]      # f' to x^(m-1)
            g = [(fp[j - 2] if j >= 2 else 0) - (b[j - 1] if j >= 1 else 0)
                 - fp[j] for j in range(m - 1)]              # to x^(m-2)
            # f'^2 to x^m; f'(0) = 0 drops the terms i = 0 and i = k
            fp2 = [mpmath.fsum(fp[i] * fp[k - i] for i in range(1, k))
                   for k in range(m + 1)]
            rhs = (fp[m - 2] if m >= 2 else 0) - (b[m - 1] if m >= 1 else 0)
            rhs += mpmath.fsum(fp2[k] * g[m - k] for k in range(2, m + 1))
            b.append(rhs / (m + 1) ** 2)
        return b


@pytest.mark.parametrize("a, r", _FIXED_POINT_CASES)
def test_picard_matches_a_50_digit_taylor_recursion(a, r):
    h = picard_analytic(a, r)
    b = taylor_by_mpmath(a, h.order)
    assert all(b[n] == 0 for n in range(1, h.order + 1, 2))
    for k in range(1, len(h.coeffs)):
        ref = b[2 * k]
        assert abs(h.coeffs[k] - ref) <= 1e-14 * abs(ref), (k, h.coeffs[k])


def test_picard_small_height_cubic_law():
    J = j_function(64)
    ratios = []
    for a in (1e-3, 1e-2, 1e-1):
        h = picard_analytic(a, 1.0)
        ratios.append(weighted_norm(h + a * J, 1.0) / a**3)
    assert max(ratios) < 0.1
    assert max(ratios) / min(ratios) < 4.0


def test_picard_rejects_uncertified_inputs():
    with pytest.raises(NoContraction):
        picard_analytic(100.0, 1.0)


def test_picard_deterministic():
    h1 = picard_analytic(0.7, R_STAR)
    h2 = picard_analytic(0.7, R_STAR)
    assert np.array_equal(h1.coeffs, h2.coeffs)


def test_series_export_roundtrip():
    h = picard_analytic(0.9, R_STAR)
    d = json.loads(json.dumps(h.to_dict(0.9)))
    assert list(d) == ["a", "r", "coeffs"]
    assert d["a"] == 0.9 and d["r"] == R_STAR
    assert np.array_equal(np.array(d["coeffs"]), h.coeffs)


# ---------------------------------------------------------------------------
# x0
# ---------------------------------------------------------------------------

def x0_by_ode():
    """Independent route: integrate J'' = 1 - J - J'(1/x - x) from a series
    start and root-find the crossing of J = 1 on the dense output."""
    J = j_function(40)
    x_start = 1e-3

    def rhs(x, y):
        return [y[1], 1.0 - y[0] - y[1] * (1.0 / x - x)]

    def hit_one(x, y):
        return y[0] - 1.0

    hit_one.terminal = True
    sol = solve_ivp(rhs, (x_start, 3.0), [J(x_start), J.deriv(x_start)],
                    method="DOP853", rtol=1e-12, atol=1e-12, events=[hit_one])
    return float(sol.t_events[0][0])


def test_x0_against_ode_oracle():
    x0 = find_x0()
    assert x0 == pytest.approx(x0_by_ode(), abs=1e-10)
    assert x0 == pytest.approx(1.7776146054, abs=1e-9)


def test_x0_defining_property_and_monotonicity():
    x0 = find_x0()
    J = j_function(200)
    assert abs(J(x0) - 1.0) < 1e-12
    assert J(x0 - 0.1) < 1.0 < J(x0 + 0.1)
    # find_x0 searches [1, 3]: J brackets 1 there and order 200 resolves J(3)
    assert J(1.0) < 1.0 < J(3.0)
    assert series_tail_ratio(j_function(200), 3.0) < 1e-12


# ---------------------------------------------------------------------------
# independent C2 oracle
# ---------------------------------------------------------------------------

def test_log_kernel_quadrature_unit():
    xs = np.linspace(0.0, 0.03, 13)
    h, hp = radial_laplacian_inverse(lambda t: np.ones_like(t), xs)
    assert np.max(np.abs(h - xs**2 / 4.0)) < 1e-15
    assert np.max(np.abs(hp - xs / 2.0)) < 1e-15


def test_radial_laplacian_inverse_matches_the_pointwise_sums():
    xs = np.linspace(0.0, R_STAR, 33)

    def g(t):
        return np.cos(40.0 * t) - 2.0 * t

    wn, ww = gauss_legendre_composite(0.0, 18.0, 16, 10)
    base = ww * np.exp(-2.0 * wn)
    h, hp = radial_laplacian_inverse(g, xs)
    for x, h_x, hp_x in zip(xs, h, hp):
        gv = g(x * np.exp(-wn))
        assert h_x == pytest.approx(x * x * np.sum(wn * base * gv), rel=1e-14)
        assert hp_x == pytest.approx(x * np.sum(base * gv), rel=1e-14)


def test_not_a_knot_spline_matches_scipy():
    from scipy.interpolate import CubicSpline

    rng = np.random.default_rng(7)
    grids = [np.cumsum(rng.uniform(0.2, 2.0, n)) for n in (4, 5, 17, 129)]
    for x in grids + [np.linspace(0.0, R_STAR, 129)]:
        y = rng.standard_normal(len(x))
        t = np.concatenate([x, rng.uniform(x[0], x[-1], 400)])
        ref = CubicSpline(x, y)(t)
        assert np.max(np.abs(not_a_knot_spline(x, y)(t) - ref)) \
            <= 1e-13 * np.max(np.abs(ref))


def test_not_a_knot_spline_reproduces_cubics():
    x = np.cumsum(np.random.default_rng(3).uniform(0.5, 1.5, 9))
    cubic = np.polynomial.Polynomial([0.3, -2.0, 0.5, 0.25])
    t = np.linspace(x[0], x[-1], 101)
    assert np.max(np.abs(not_a_knot_spline(x, cubic(x))(t) - cubic(t))) < 1e-12
    with pytest.raises(ValueError):
        not_a_knot_spline(x[:3], cubic(x[:3]))


def test_c2_oracle_initial_conditions():
    x, f, fp, fpp = picard_c2_oracle(1.0, R_STAR, grid=65)
    assert x.shape == f.shape == fp.shape == fpp.shape == (65,)
    assert x[0] == 0.0
    assert f[0] == 1.0
    assert fp[0] == 0.0
    assert fpp[0] == pytest.approx(-0.5, abs=1e-14)


@pytest.mark.parametrize("a", [0.5, 1.0, SQRT2])
def test_cross_oracle_agreement(a):
    xs, f, fp, _ = picard_c2_oracle(a, R_STAR)
    h = picard_analytic(a, R_STAR)
    sup = np.max(np.abs(f - a - h(xs)))
    sup_p = np.max(np.abs(fp - h.deriv(xs)))
    assert sup < 1e-8
    assert sup_p < 1e-8


def test_c2_oracle_second_derivative_bound():
    for a in (0.5, 1.0, SQRT2):
        fpp = picard_c2_oracle(a, R_STAR)[3]
        assert np.max(np.abs(fpp)) <= 6.0 * a


def test_c2_oracle_lipschitz_in_height():
    pairs = [(0.5, 1.0), (1.0, SQRT2), (0.1, 0.3)]
    for a1, a2 in pairs:
        fpp1 = picard_c2_oracle(a1, R_STAR, grid=65)[3]
        fpp2 = picard_c2_oracle(a2, R_STAR, grid=65)[3]
        gap = np.max(np.abs(fpp1 - fpp2))
        assert gap <= 37.0 / 12.0 * abs(a1 - a2)


def test_series_tail_above_eps_at_the_order_cap(monkeypatch):
    monkeypatch.setattr(series, "MAX_SERIES_ORDER", 4)
    with pytest.raises(NoConvergence, match="tail"):
        picard_analytic(0.5, R_STAR)


def test_fixed_point_outside_the_certified_distance(monkeypatch):
    # an L far below the certified one shrinks the distance bound from the
    # linear solution under the fixed point's
    derive = series.derive_contraction_constants
    monkeypatch.setattr(series, "derive_contraction_constants",
                        lambda a, r: dataclasses.replace(derive(a, r),
                                                         L=1e-30))
    with pytest.raises(NoConvergence, match="certified distance"):
        picard_analytic(0.5, R_STAR)


def test_c2_oracle_rejects_uncertified_interval():
    with pytest.raises(CertificateFailure):
        picard_c2_oracle(SQRT2, 1.0 / (3.0 * SQRT2))


@pytest.mark.parametrize("rule, read", [
    ((0.0, X_SEED, 1, 40),
     lambda: seed_quadratures(picard_analytic(0.5, R_STAR), 0.5, X_SEED)),
    ((0.0, 18.0, 16, 10),
     lambda: radial_laplacian_inverse(np.cos, np.array([0.5]))),
], ids=["seed", "c2_oracle"])
def test_gauss_legendre_composite_cached_and_read_only(rule, read):
    xs, ws = gauss_legendre_composite(*rule)
    again = gauss_legendre_composite(*rule)
    assert again[0] is xs and again[1] is ws
    for arr in (xs, ws):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0
    # the cached arrays are the uncached rule's
    ref_x, ref_w = gauss_legendre_composite.__wrapped__(*rule)
    assert ref_x is not xs
    assert np.array_equal(xs, ref_x) and np.array_equal(ws, ref_w)
    # the seed quadratures and the C2 oracle's inversion read the cache
    hits = gauss_legendre_composite.cache_info().hits
    read()
    assert gauss_legendre_composite.cache_info().hits == hits + 1
