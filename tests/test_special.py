import cmath
import copy
import math
import pickle
from fractions import Fraction

import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from peocalc.errors import ConvergenceError, DomainError
from peocalc.series import FracSeries, rl_derivative, series_allclose
from peocalc.special import (
    DEFAULT_CONFIG,
    SeriesEvalConfig,
    bessel_j0,
    hermite3,
    kelvin_bei,
    kelvin_ber,
    laguerre_cos,
    laguerre_e_nm,
    laguerre_exp,
    laguerre_exp_series,
    laguerre_sin,
    mittag_leffler,
    mittag_leffler_series,
)


def independent_i0_of_2():
    # I_0(2) = sum (1)^r / (r!)^2 summed with its own loop
    total, term, r = 0.0, 1.0, 0
    while term > 1e-18:
        total += term
        r += 1
        term /= r * r
    return total


def test_laguerre_exp_at_one_matches_bessel_i0():
    got = laguerre_exp(1.0)
    assert got.value == pytest.approx(independent_i0_of_2(), rel=1e-14)
    assert got.terms < 30


def test_laguerre_exp_matches_j0_identity():
    for t in (0.5, 1.0, 2.0, 5.0, 10.0):
        le = laguerre_exp(-((t / 2.0) ** 2)).value
        assert abs(le - bessel_j0(t)) <= 1e-12


def test_laguerre_exp_term_counts_grow_with_argument():
    small = laguerre_exp(0.1).terms
    big = laguerre_exp(40.0).terms
    assert small < big


@settings(max_examples=40, deadline=None)
@given(
    st.complex_numbers(
        max_magnitude=30.0, allow_nan=False, allow_infinity=False
    )
)
def test_laguerre_exp_conjugate_symmetry(z):
    lhs = laguerre_exp(z.conjugate()).value
    rhs = laguerre_exp(z).value
    assert cmath.isclose(lhs, rhs.conjugate(), rel_tol=1e-12, abs_tol=1e-12)


def test_laguerre_exp_nonconvergence_budget():
    with pytest.raises(ConvergenceError):
        laguerre_exp(40.0, SeriesEvalConfig(max_terms=5))


def test_config_validation():
    with pytest.raises(DomainError):
        SeriesEvalConfig(rel_tol=0.0)
    with pytest.raises(DomainError):
        SeriesEvalConfig(rel_tol=math.nan)
    with pytest.raises(DomainError):
        SeriesEvalConfig(max_terms=0)


def test_config_is_an_immutable_value():
    cfg = SeriesEvalConfig(rel_tol=1e-10, max_terms=50)
    assert (cfg.rel_tol, cfg.max_terms) == (1e-10, 50)
    assert SeriesEvalConfig() == DEFAULT_CONFIG
    assert SeriesEvalConfig(1e-10, 50) == cfg and hash(SeriesEvalConfig(1e-10, 50)) == hash(cfg)
    assert cfg != SeriesEvalConfig(rel_tol=1e-10) and cfg != (1e-10, 50)
    assert repr(DEFAULT_CONFIG) == "SeriesEvalConfig(rel_tol=1e-14, max_terms=10000)"
    with pytest.raises(AttributeError):
        cfg.rel_tol = 1e-12
    with pytest.raises(AttributeError):
        cfg.other = 1
    assert (cfg.rel_tol, cfg.max_terms) == (1e-10, 50)
    assert copy.deepcopy(cfg) == cfg and pickle.loads(pickle.dumps(cfg)) == cfg


def test_laguerre_e_nm_reduces_to_laguerre_exp():
    for x in (-2.0, 0.5, 3.0):
        assert laguerre_e_nm(0, 1, x).value == pytest.approx(
            laguerre_exp(x).value, rel=1e-14
        )


def test_laguerre_e_nm_brute_force():
    # 50-term direct sums as the oracle
    for n, m, x in [(0, 2, -1.3), (2, 2, 0.75), (1, 3, 2.0), (4, 2, -4.0)]:
        want = sum(
            x**r / (math.factorial(r) * math.gamma(m * r + n + 1))
            for r in range(50)
        )
        assert laguerre_e_nm(n, m, x).value == pytest.approx(want, rel=1e-13)


def test_laguerre_e_nm_domain():
    with pytest.raises(DomainError):
        laguerre_e_nm(-1, 2, 1.0)
    with pytest.raises(DomainError):
        laguerre_e_nm(0, 0, 1.0)


def test_trig_pair_matches_kelvin_functions():
    for x in (0.5, 1.0, 2.0, 5.0):
        z = 2.0 * math.sqrt(x)
        assert abs(laguerre_cos(x).value - kelvin_ber(z)) <= 1e-12
        assert abs(laguerre_sin(x).value - kelvin_bei(z)) <= 1e-12


def test_trig_pair_squares_sum_to_modulus():
    for x in (0.25, 1.5, 4.0):
        le = laguerre_exp(complex(0.0, x)).value
        lc = laguerre_cos(x).value
        ls = laguerre_sin(x).value
        assert lc * lc + ls * ls == pytest.approx(abs(le) ** 2, rel=1e-13)


def test_trig_pair_at_zero():
    assert laguerre_cos(0.0).value == 1.0
    assert laguerre_sin(0.0).value == 0.0


def test_kelvin_oracles_against_complex_bessel_series():
    # ber(z) + i bei(z) = I_0(z e^{i pi/4}), summed here in complex arithmetic
    z = 3.0
    w = z * cmath.exp(1j * math.pi / 4.0) / 2.0
    total, term, r = 0j, complex(1.0), 0
    while abs(term) > 1e-18:
        total += term
        r += 1
        term = term * w * w / (r * r)
    assert abs(kelvin_ber(z) - total.real) <= 1e-12
    assert abs(kelvin_bei(z) - total.imag) <= 1e-12


def test_kelvin_oracles_against_scipy():
    for z in (0.5, 1.0, 2.0, 4.47213595499958, 6.0):
        assert kelvin_ber(z) == pytest.approx(scipy.special.ber(z), abs=1e-12)
        assert kelvin_bei(z) == pytest.approx(scipy.special.bei(z), abs=1e-12)


def test_bessel_j0_against_scipy():
    for t in (0.0, 0.5, 1.0, 2.404825557695773, 5.0, 10.0):
        assert bessel_j0(t) == pytest.approx(scipy.special.j0(t), abs=1e-13)


def test_bessel_j0_first_zero_by_bisection():
    lo, hi = 2.0, 3.0
    assert bessel_j0(lo) > 0 > bessel_j0(hi)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if bessel_j0(mid) > 0:
            lo = mid
        else:
            hi = mid
    assert 0.5 * (lo + hi) == pytest.approx(2.404825557695773, abs=1e-10)


# -- Mittag-Leffler -----------------------------------------------------------


def test_mittag_leffler_alpha_one_is_exp():
    for x in (-3.0, 0.1, 2.0, 50.0):
        got = mittag_leffler(1.0, 1.0, x)
        assert got.value == pytest.approx(math.exp(x), rel=1e-12)


def test_mittag_leffler_alpha_two_is_cos_for_negative_argument():
    for x in (0.5, 1.0, 3.0):
        got = mittag_leffler(2.0, 1.0, -(x * x))
        assert got.value == pytest.approx(math.cos(x), rel=1e-12, abs=1e-13)


def test_mittag_leffler_half_against_erfc():
    # E_{1/2,1}(x) = exp(x^2) erfc(-x)
    for x in (-1.0, 0.3, 1.0, 2.0):
        want = math.exp(x * x) * math.erfc(-x)
        assert mittag_leffler(0.5, 1.0, x).value == pytest.approx(want, rel=1e-11)


def test_mittag_leffler_pole_terms_contribute_zero():
    # beta = 0 makes the r = 0 term sit on a Gamma pole: E_{1,0}(x) = x e^x
    for x in (0.5, 2.0):
        assert mittag_leffler(1.0, 0.0, x).value == pytest.approx(
            x * math.exp(x), rel=1e-12
        )


def test_mittag_leffler_domain():
    with pytest.raises(DomainError):
        mittag_leffler(0.0, 1.0, 1.0)


def test_mittag_leffler_overflow_is_reported_not_silent():
    with pytest.raises(ConvergenceError):
        mittag_leffler(0.5, 1.0, 50.0)


def test_convergence_within_budget_at_desk_scale():
    cfg = DEFAULT_CONFIG
    for x in (-50.0, -10.0, 10.0, 50.0):
        assert laguerre_exp(x, cfg).terms < cfg.max_terms
        assert laguerre_e_nm(1, 2, x, cfg).terms < cfg.max_terms
        assert laguerre_cos(abs(x), cfg).terms < cfg.max_terms
        assert laguerre_sin(abs(x), cfg).terms < cfg.max_terms
        assert mittag_leffler(1.0, 1.0, x, cfg).terms < cfg.max_terms
        assert mittag_leffler(2.0, 1.0, x, cfg).terms < cfg.max_terms
    for x in (-15.0, 15.0):
        assert mittag_leffler(0.5, 1.0, x, cfg).terms < cfg.max_terms


# -- Hermite-Kampe de Feriet ---------------------------------------------------


def test_hermite3_low_orders_exact():
    x, y = Fraction(3, 2), Fraction(-2, 5)
    assert hermite3(0, x, y) == 1
    assert hermite3(1, x, y) == x
    assert hermite3(2, x, y) == x * x
    assert hermite3(3, x, y) == x**3 + 6 * y
    assert hermite3(4, x, y) == x**4 + 24 * x * y
    assert hermite3(5, x, y) == x**5 + 60 * x * x * y
    assert hermite3(6, x, y) == x**6 + 120 * x**3 * y + 360 * y * y


def test_hermite3_generating_function():
    x, y, t = 0.7, -0.4, 0.35
    partial = sum(t**n * hermite3(n, x, y) / math.factorial(n) for n in range(40))
    assert partial == pytest.approx(math.exp(t * x + t**3 * y), rel=1e-13)


def test_hermite3_three_term_structure():
    # H_{n+1} = x H_n + 3 n (n-1) y H_{n-2}, a consequence of the
    # generating function; exact over rationals
    x, y = Fraction(2, 3), Fraction(5, 7)
    h = [hermite3(n, x, y) for n in range(12)]
    for n in range(2, 11):
        assert h[n + 1] == x * h[n] + 3 * n * (n - 1) * y * h[n - 2]


def test_hermite3_large_order_uses_log_route():
    got = hermite3(200, 1.0, 0.5)
    assert math.isfinite(got) and got != 0.0


def test_hermite3_float_overflow_is_a_convergence_error():
    # 200.0 ** 200 overflows inside the float sum
    with pytest.raises(ConvergenceError, match="overflows"):
        hermite3(200, 200.0, 171.0)


@pytest.mark.parametrize("x, y", [(1e60, 1e250), (1e60, -1e250), (complex(1e60, 0.0), 1e250)])
def test_hermite3_float_product_overflow_is_a_convergence_error(x, y):
    # 60 * x**2 * y overflows to inf in a product, which raises nothing
    with pytest.raises(ConvergenceError, match="overflows"):
        hermite3(5, x, y)


def test_hermite3_large_finite_float_is_returned():
    assert hermite3(5, 1e60, 1e100) == pytest.approx(1e300 + 6e221, rel=1e-15)


def test_hermite3_domain():
    with pytest.raises(DomainError):
        hermite3(-1, 1.0, 1.0)


def _reference_hermite3(n, x, y):
    total = 0
    for r in range(n // 3 + 1):
        if n <= 170:
            c = math.factorial(n) // (math.factorial(n - 3 * r) * math.factorial(r))
        else:
            c = math.exp(math.lgamma(n + 1.0) - math.lgamma(n - 3 * r + 1.0) - math.lgamma(r + 1.0))
        total = total + c * x ** (n - 3 * r) * y**r
    return total


@pytest.mark.parametrize(
    "x, y",
    [
        (3, -2),
        (Fraction(3, 2), Fraction(-2, 5)),
        (Fraction(-7, 9), Fraction(4, 1)),
        (5, Fraction(1, 6)),
        (Fraction(2, 7), -4),
        (0, Fraction(3, 8)),
        (True, Fraction(1, 2)),
        (Fraction(5, 3), 1.25),
    ],
)
def test_hermite3_exact_inputs_match_the_term_by_term_sum(x, y):
    for n in range(31):
        got, want = hermite3(n, x, y), _reference_hermite3(n, x, y)
        assert got == want and type(got) is type(want), n
    # past n = 170 the coefficients are floats, and the old route stays
    got, want = hermite3(171, x, y), _reference_hermite3(171, x, y)
    assert got == want and type(got) is type(want)


# -- series builders -----------------------------------------------------------


def test_laguerre_exp_series_is_exact():
    s = laguerre_exp_series(Fraction(-1, 4), m=2, n_terms=4)
    assert s.terms == (
        (0, Fraction(1)),
        (2, Fraction(-1, 4)),
        (4, Fraction(1, 64)),
        (6, Fraction(-1, 2304)),
    )


def test_mittag_leffler_series_pseudo_eigenfunction():
    # termwise: rl_derivative of E_{mu,1}(m t^mu) = m * E + t^-mu/Gamma(1-mu)
    mu, m = 0.6, -0.8
    s = mittag_leffler_series(mu, m, n_terms=20)
    lhs = rl_derivative(s, mu)
    rhs = s.scale(m) + FracSeries.monomial(-mu, 1.0 / math.gamma(1.0 - mu))
    diff = lhs - rhs
    assert diff.max_abs_coeff(up_to=10 * mu) <= 1e-12
