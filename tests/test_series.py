import math
import random
from fractions import Fraction

import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from peocalc.errors import DomainError
from peocalc.gammafn import gamma
from peocalc.series import (
    FracSeries,
    laguerre_antiderivative,
    laguerre_derivative,
    laguerre_fractional_derivative,
    rl_derivative,
    rl_integral,
    series_allclose,
    series_derivative,
    series_eval,
    series_max_deviation,
    series_mul,
)


def exp_series(scale, n_terms, order=None):
    """sum scale^k t^k / k! with exact coefficients."""
    terms = [(k, Fraction(scale) ** k / math.factorial(k)) for k in range(n_terms)]
    return FracSeries(terms, n_terms - 1 if order is None else order)


# -- construction invariants ------------------------------------------------


def test_terms_sorted_and_merged():
    s = FracSeries([(2, 1.0), (0.5, 2.0), (2.0 + 1e-15, 3.0), (1, 0.0)])
    exps = [float(e) for e, _ in s.terms]
    assert exps == [0.5, 2.0]
    assert s.coeff(2) == 4.0


def test_zero_coefficients_pruned():
    s = FracSeries([(1, Fraction(1, 2)), (2, Fraction(-1, 2) + Fraction(1, 2))])
    assert len(s.terms) == 1
    assert not s.truncated


def test_underflow_pruned_but_exact_kept():
    s = FracSeries([(0, 1e-305), (1, Fraction(1, 10**310))])
    assert s.coeff(0) == 0
    assert s.coeff(1) == Fraction(1, 10**310)


def test_truncation_order_enforced():
    s = FracSeries([(0, 1), (5, 2), (7, 3)], truncation_order=5)
    assert [float(e) for e, _ in s.terms] == [0.0, 5.0]
    assert s.truncated


def test_valuation_and_zero():
    assert FracSeries.zero().is_zero()
    assert FracSeries.zero().valuation() == math.inf
    assert FracSeries([(0.5, 1), (2, 1)]).valuation() == 0.5


def test_max_abs_coeff_caps_with_the_truncation_rule():
    # the constructor keeps t^6.000000000000001 as the order-6 term, so the
    # cap at 6 must count it too
    s = FracSeries([(1, 2.0), (6.000000000000001, 5.0)], 6)
    assert s.max_abs_coeff(6) == 5.0
    assert s.max_abs_coeff(5.5) == 2.0


# -- add / mul ---------------------------------------------------------------


def test_add_matches_dict_merge_oracle():
    rng = random.Random(20260816)
    grid = [k / 4 for k in range(40)]
    for _ in range(20):
        ta = [(e, rng.uniform(-2, 2)) for e in rng.sample(grid, 10)]
        tb = [(e, rng.uniform(-2, 2)) for e in rng.sample(grid, 10)]
        merged = {}
        for e, c in ta + tb:
            merged[e] = merged.get(e, 0.0) + c
        got = FracSeries(ta) + FracSeries(tb)
        for e, c in merged.items():
            assert got.coeff(e) == pytest.approx(c, abs=1e-15)


def test_mul_exp_times_exp_inverse_is_one():
    a = exp_series(1, 11, order=10)
    b = exp_series(-1, 11, order=10)
    prod = series_mul(a, b)
    assert prod.truncated
    assert prod.coeff(0) == 1
    residual = max(
        (abs(complex(c)) for e, c in prod.terms if float(e) > 0), default=0.0
    )
    assert residual < 1e-14


def test_mul_truncation_order_is_min():
    a = FracSeries([(0, 1), (3, 1)], truncation_order=3)
    b = FracSeries([(0, 1), (4, 1)], truncation_order=4)
    prod = series_mul(a, b)
    assert float(prod.truncation_order) == 3.0
    assert prod.truncated


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=8),
            st.fractions(min_value=-4, max_value=4),
        ),
        max_size=6,
    ),
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=8),
            st.fractions(min_value=-4, max_value=4),
        ),
        max_size=6,
    ),
    st.fractions(min_value=-3, max_value=3),
)
def test_operators_linear_over_exact_coefficients(ta, tb, lam):
    a, b = FracSeries(ta), FracSeries(tb)
    combo = a.scale(lam) + b
    for op in (
        laguerre_derivative,
        laguerre_antiderivative,
        lambda s: rl_integral(s, 2),
        series_derivative,
    ):
        assert op(combo) == op(a).scale(lam) + op(b)


# -- Riemann-Liouville rules -------------------------------------------------


def test_rl_integral_half_on_sqrt_t():
    s = rl_integral(FracSeries.monomial(0.5), 0.5)
    assert len(s.terms) == 1
    e, c = s.terms[0]
    assert float(e) == pytest.approx(1.0)
    want = gamma(1.5) / gamma(2.0)
    assert c == pytest.approx(want, rel=1e-14)


def test_rl_integral_is_exact_for_integer_order():
    one = FracSeries.constant(Fraction(1))
    twice = rl_integral(rl_integral(one, 1), 1)
    assert twice.terms == ((2, Fraction(1, 2)),)


def test_rl_integral_rejects_bad_input():
    with pytest.raises(DomainError):
        rl_integral(FracSeries.monomial(0), 0.0)
    with pytest.raises(DomainError):
        rl_integral(FracSeries.monomial(-1), 0.5)


def test_rl_integral_against_quadrature():
    # independent check of the power rule at t = 1 by weighted quadrature
    t = 1.0
    for g, a in [(0.0, 0.5), (1.0, 0.5), (0.5, 0.3), (2.0, 0.7), (1.5, 0.9)]:
        got = series_eval(rl_integral(FracSeries.monomial(g), a), t)
        integral, _ = scipy.integrate.quad(
            lambda tau: tau**g, 0.0, t, weight="alg", wvar=(0.0, a - 1.0)
        )
        want = integral / gamma(a)
        assert got == pytest.approx(want, rel=1e-8)


def test_rl_semigroup_property():
    s = FracSeries([(0, 1.0), (0.5, -2.0), (2, 3.0), (3.25, 0.7)])
    for a, b in [(0.3, 0.4), (0.5, 0.5), (0.9, 1.3)]:
        lhs = rl_integral(rl_integral(s, a), b)
        rhs = rl_integral(s, a + b)
        assert series_allclose(lhs, rhs, rel_tol=1e-12)


def test_rl_derivative_of_constant():
    mu = 0.3
    d = rl_derivative(FracSeries.constant(1), mu)
    assert len(d.terms) == 1
    e, c = d.terms[0]
    assert float(e) == pytest.approx(-mu)
    assert c == pytest.approx(1.0 / gamma(1.0 - mu), rel=1e-14)


def test_rl_derivative_power_rule_against_independent_gamma():
    mu = 0.35
    for g in [0.35, 0.7, 1.0, 2.5, 3.0]:
        d = rl_derivative(FracSeries.monomial(g), mu)
        e, c = d.terms[0]
        assert float(e) == pytest.approx(g - mu)
        assert c == pytest.approx(
            math.gamma(g + 1.0) / math.gamma(g - mu + 1.0), rel=1e-13
        )


def test_rl_derivative_annihilates_t_to_mu_minus_one():
    mu = 0.4
    d = rl_derivative(FracSeries.monomial(mu - 1.0), mu)
    assert d.is_zero()


def test_rl_derivative_inverts_rl_integral():
    mu = 0.45
    s = FracSeries([(0, 1.0), (1, -0.5), (2.5, 2.0)])
    back = rl_derivative(rl_integral(s, mu), mu)
    assert series_allclose(back, s, rel_tol=1e-13)


def test_rl_derivative_order_bounds():
    with pytest.raises(DomainError):
        rl_derivative(FracSeries.monomial(1), 1.0)
    with pytest.raises(DomainError):
        rl_derivative(FracSeries.monomial(1), 0.0)


# -- Laguerre rules ----------------------------------------------------------


def test_laguerre_derivative_eigenproperty_on_pseudo_exponential():
    lam = Fraction(3, 7)
    n = 9
    s = FracSeries([(r, lam**r / Fraction(math.factorial(r)) ** 2) for r in range(n + 1)])
    d = laguerre_derivative(s)
    expect = FracSeries(
        [(r, lam ** (r + 1) / Fraction(math.factorial(r)) ** 2) for r in range(n)]
    )
    assert d == expect


def test_laguerre_antiderivative_iterates_to_squared_factorials():
    s = FracSeries.constant(Fraction(1))
    for n in range(1, 6):
        s = laguerre_antiderivative(s)
        assert s.terms == ((n, Fraction(1, math.factorial(n) ** 2)),)


def test_laguerre_antiderivative_then_derivative_is_identity():
    s = FracSeries([(1, Fraction(2, 3)), (2.5, -1.25), (4, Fraction(7))])
    assert laguerre_derivative(laguerre_antiderivative(s)) == s


def test_laguerre_fractional_matches_explicit_composition():
    a = 0.5
    for g in [0.0, 0.5, 1.0, 2.0, 3.5]:
        s = FracSeries.monomial(g, 1.0)
        one_shot = laguerre_fractional_derivative(s, a)
        step = rl_derivative(s, a)
        step = series_mul(FracSeries.monomial(a, 1.0), step)
        step = rl_derivative(step, a)
        assert series_allclose(one_shot, step, rel_tol=1e-13)


def test_laguerre_fractional_constant_contribution():
    # the literal three-step composition leaves 1/Gamma(1-a)^2 * t^(-a)
    a = 0.5
    d = laguerre_fractional_derivative(FracSeries.constant(1.0), a)
    e, c = d.terms[0]
    assert float(e) == pytest.approx(-0.5)
    assert c == pytest.approx(1.0 / math.pi, rel=1e-13)


def test_laguerre_fractional_alpha_one_is_integer_rule():
    s = FracSeries([(0, 2.0), (1, 1.0), (3, -4.0)])
    assert laguerre_fractional_derivative(s, 1) == laguerre_derivative(s)


def test_laguerre_fractional_composition_approximates_integer_rule():
    for k in (2, 4):
        for g in (1.0, 2.0, 3.0):
            s = FracSeries.monomial(g, 1.0)
            for _ in range(k):
                s = laguerre_fractional_derivative(s, 1.0 / k)
            want = laguerre_derivative(FracSeries.monomial(g, 1.0))
            assert series_allclose(s, want, rel_tol=1e-10)


def test_laguerre_fractional_domain_guard():
    with pytest.raises(DomainError):
        laguerre_fractional_derivative(FracSeries.monomial(0.25), 0.5)


# -- the change-of-variable identity used by the Bessel reduction ------------


def test_radial_operator_on_pseudo_exponential_of_minus_quarter_square():
    # s(t) = sum (-1)^r t^(2r) / (4^r (r!)^2) satisfies (1/t) d/dt (t d/dt) s = -s
    n = 8
    s = FracSeries(
        [
            (2 * r, Fraction(-1, 4) ** r / Fraction(math.factorial(r)) ** 2)
            for r in range(n + 1)
        ]
    )
    u = series_derivative(s)
    u = series_mul(FracSeries.monomial(1, Fraction(1)), u)
    u = series_derivative(u)
    u = series_mul(FracSeries.monomial(-1, Fraction(1)), u)
    s_short = FracSeries(s.terms[: n], truncation_order=2 * (n - 1))
    assert u == s_short.scale(-1)


# -- evaluation ---------------------------------------------------------------


def test_series_eval_basics():
    s = FracSeries([(0, 1.0), (0.5, 2.0), (2, -1.0)])
    t = 2.25
    assert series_eval(s, t) == pytest.approx(1.0 + 2.0 * t**0.5 - t**2)
    assert series_eval(s, 0.0) == 1.0


def test_series_eval_domain():
    with pytest.raises(DomainError):
        series_eval(FracSeries.monomial(1), -1.0)
    with pytest.raises(DomainError):
        series_eval(FracSeries.monomial(-0.5), 0.0)
    assert series_eval(FracSeries.monomial(-0.5), 4.0) == pytest.approx(0.5)


def test_series_allclose_floor_and_relative():
    a = FracSeries([(0, 1.0), (1, 1e-16)])
    b = FracSeries([(0, 1.0 + 1e-13)])
    assert series_allclose(a, b, rel_tol=1e-12)
    assert not series_allclose(a, FracSeries([(0, 1.01)]), rel_tol=1e-12)
    assert series_max_deviation(a, b) == pytest.approx(1e-13, rel=0.1)
