import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peocalc.errors import ConvergenceError, DomainError
from peocalc.special import hermite3
from peocalc.weyl import (
    GaussianRational,
    GradedOpSeries,
    Polynomial,
    WeylElement,
    apply,
    berry_graded_check,
    berry_rule_check,
    commutator,
    crofton_glaisher_check,
    graded_exp,
    poly_of_graded,
    weyl_mul,
    zassenhaus_coeff,
)

GR = GaussianRational


# -- exact scalars -------------------------------------------------------------


def test_gaussian_rational_field_ops():
    a = GR(Fraction(1, 2), Fraction(-3, 4))
    b = GR(2, 5)
    assert a + b == GR(Fraction(5, 2), Fraction(17, 4))
    assert a * b == GR(Fraction(1, 2) * 2 + Fraction(3, 4) * 5,
                       Fraction(1, 2) * 5 - Fraction(3, 4) * 2)
    assert (a / b) * b == a
    assert GR.i() * GR.i() == GR(-1)
    assert -a + a == GR(0)


def test_gaussian_rational_rejects_floats():
    with pytest.raises(TypeError):
        GR.coerce(0.5)


def test_gaussian_rational_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        GR(1) / GR(0)


def test_gaussian_rational_hashes_like_an_equal_fraction():
    assert GR(3) == 3 and hash(GR(3)) == hash(3)
    assert hash(GR(Fraction(1, 2))) == hash(Fraction(1, 2))
    assert len({GR(Fraction(1, 2)), Fraction(1, 2)}) == 1
    assert len({GR(1, 2), GR(Fraction(2, 2), 2)}) == 1


def test_gaussian_rational_truth_value():
    assert not GR(0)
    assert not GR(Fraction(0), Fraction(0))
    assert GR(Fraction(1, 2)) and GR(0, -1)


def test_gaussian_rational_equals_floats_and_complexes_exactly():
    assert GR(Fraction(1, 2)) == 0.5 and 0.5 == GR(Fraction(1, 2))
    assert GR(1, 2) == complex(1, 2) and complex(1, 2) == GR(1, 2)
    assert GR(Fraction(-3, 4)) == complex(-0.75, 0)
    # exact, the way Fraction meets float: 1/3 is not a binary fraction
    assert GR(Fraction(1, 3)) != 1 / 3
    assert GR(Fraction(1, 3), 1) != complex(1 / 3, 1)
    assert GR(1, 1) != 1.0
    for bad in (math.nan, math.inf, -math.inf, complex(math.nan, 0), complex(1, math.inf)):
        assert not GR(1) == bad and GR(1) != bad
    # equal values hash alike, so they meet in sets and dicts
    assert hash(GR(Fraction(1, 2))) == hash(0.5)
    assert hash(GR(1, 2)) == hash(complex(1, 2))
    assert hash(GR(Fraction(-5, 8), Fraction(3, 1024))) == hash(complex(-0.625, 3 / 1024))
    assert len({GR(1, 2), complex(1, 2)}) == 1
    assert len({GR(Fraction(1, 2)), 0.5, Fraction(1, 2)}) == 1


def test_gaussian_rational_integer_powers():
    z = GR(1, 1)
    assert z**0 == GR(1)
    assert z**2 == GR(0, 2)
    assert z**4 == GR(-4)
    with pytest.raises(TypeError):
        z ** -1
    # a Gaussian-rational point keeps Polynomial.eval exact
    assert Polynomial({2: 1, 0: 1}).eval(z) == GR(1, 2)


def test_gaussian_rational_mixed_arithmetic():
    # exact partners stay exact, from either side
    assert Fraction(1, 2) * GR(0, 1) == GR(0, Fraction(1, 2))
    assert isinstance(Fraction(1, 2) * GR(0, 1), GR)
    assert Fraction(1, 2) + GR(1, 1) == GR(Fraction(3, 2), 1)
    assert 1 - GR(1, 1) == GR(0, -1)
    assert GR(3, 6) / 3 == GR(1, 2)
    # floats and complexes turn the result complex
    assert GR(1, 1) + 0.5 == complex(1.5, 1)
    assert isinstance(0.5 * GR(1), complex) and 0.5 * GR(1) == 0.5
    assert 0.5 - GR(1, 1) == complex(-0.5, -1)
    assert GR(1, 1) * 1j == complex(-1, 1)
    assert complex(GR(Fraction(1, 4), -2)) == complex(0.25, -2)
    assert GR(1, -2).to_complex() == complex(1, -2)
    assert abs(GR(3, 4)) == 5.0
    with pytest.raises(TypeError):
        GR(1) + "1"


# -- normal ordering -----------------------------------------------------------


def test_d_times_x_normal_orders():
    got = weyl_mul(WeylElement.d_op(), WeylElement.x_op())
    assert got == WeylElement({(1, 1): 1, (0, 0): 1})


def test_d2_times_x2_normal_orders():
    got = weyl_mul(WeylElement.d_op(2), WeylElement.x_op(2))
    assert got == WeylElement({(2, 2): 1, (1, 1): 4, (0, 0): 2})


def test_canonical_commutator():
    # [d, x] = 1 and [x, d] = -1
    assert commutator(WeylElement.d_op(), WeylElement.x_op()) == WeylElement.one()
    assert commutator(WeylElement.x_op(), WeylElement.d_op()) == WeylElement.one().scale(GR(-1))


def test_chain_commutators():
    # [d^2, kx] = 2k d and [kx, [d^2, kx]] = -2k^2
    k = Fraction(3, 5)
    kx = WeylElement.x_op().scale(k)
    inner = commutator(WeylElement.d_op(2), kx)
    assert inner == WeylElement.d_op().scale(2 * k)
    outer = commutator(kx, inner)
    assert outer == WeylElement.scalar(-2 * k**2)


_small_coeff = st.fractions(min_value=-3, max_value=3, max_denominator=4)
_small_power = st.integers(min_value=0, max_value=2)


@st.composite
def weyl_elements(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    coeffs = {}
    for _ in range(n):
        key = (draw(_small_power), draw(_small_power))
        coeffs[key] = draw(_small_coeff)
    return WeylElement(coeffs)


@given(weyl_elements(), weyl_elements(), weyl_elements())
@settings(max_examples=40, deadline=None)
def test_product_associativity(a, b, c):
    assert weyl_mul(weyl_mul(a, b), c) == weyl_mul(a, weyl_mul(b, c))


@given(weyl_elements(), weyl_elements(), weyl_elements())
@settings(max_examples=40, deadline=None)
def test_jacobi_identity(a, b, c):
    total = (
        commutator(commutator(a, b), c)
        + commutator(commutator(b, c), a)
        + commutator(commutator(c, a), b)
    )
    assert total.is_zero


@st.composite
def polynomials(draw):
    n = draw(st.integers(min_value=0, max_value=4))
    return Polynomial({k: draw(_small_coeff) for k in range(n + 1)})


@given(weyl_elements(), weyl_elements(), polynomials())
@settings(max_examples=40, deadline=None)
def test_apply_respects_products(a, b, p):
    assert apply(weyl_mul(a, b), p) == apply(a, apply(b, p))


def test_apply_differentiates_and_multiplies():
    p = Polynomial({0: 3, 2: 1})  # x^2 + 3
    assert apply(WeylElement.d_op(), p) == Polynomial({1: 2})
    assert apply(WeylElement.x_op(), p) == Polynomial({1: 3, 3: 1})
    assert apply(WeylElement({(1, 1): 1}), p) == Polynomial({2: 2})


def test_polynomial_eval_exact_and_complex():
    p = Polynomial({0: 1, 1: 3, 3: 1})  # x^3 + 3x + 1
    assert p.eval(Fraction(1, 2)) == GR(Fraction(1, 8) + Fraction(3, 2) + 1)
    got = p.eval(1.0 + 0.0j)
    assert abs(got - 5.0) < 1e-15
    assert Polynomial().eval(Fraction(2)) == GR(0)


# -- graded layer ----------------------------------------------------------------


def test_graded_exp_of_pure_derivative():
    e = graded_exp(GradedOpSeries.single(1, WeylElement.d_op(), 16))
    for m in range(17):
        assert e.coeff(m) == WeylElement.d_op(m).scale(Fraction(1, math.factorial(m)))


def test_graded_exp_rejects_degree_zero_part():
    s = GradedOpSeries({0: WeylElement.x_op(), 1: WeylElement.d_op()}, 4)
    with pytest.raises(DomainError):
        graded_exp(s)


def test_graded_exp_monomial_guard():
    fat = WeylElement({(a, b): 1 for a in range(5) for b in range(5)})
    with pytest.raises(ArithmeticError):
        graded_exp(GradedOpSeries.single(1, fat, 12))


def test_graded_exp_monomial_guard_is_a_convergence_error():
    # exp(t(d^2 + x^2 + d)) holds 432 monomials through grade 8 and passes
    # the 500-monomial budget at grade 9
    el = WeylElement.d_op(2) + WeylElement.x_op(2) + WeylElement.d_op()
    assert graded_exp(GradedOpSeries.single(1, el, 8)).monomial_count() == 432
    with pytest.raises(ConvergenceError):
        graded_exp(GradedOpSeries.single(1, el, 10))


def test_graded_series_truncation_on_mixed_orders():
    a = GradedOpSeries.single(1, WeylElement.d_op(), 6)
    b = GradedOpSeries.single(1, WeylElement.x_op(), 3)
    assert (a * b).max_degree == 3
    assert (a + b).max_degree == 3


def test_poly_of_graded_matches_operator_powers():
    # f(T) with T = x + t d: compare against explicit graded products
    f = Polynomial({2: 1, 0: -1})  # x^2 - 1
    arg = GradedOpSeries({0: WeylElement.x_op(), 1: WeylElement.d_op()}, 4)
    got = poly_of_graded(f, arg)
    want = arg * arg - GradedOpSeries.single(0, WeylElement.one(), 4)
    assert got == want


# -- splitting and shift rules ---------------------------------------------------


@pytest.mark.parametrize(
    "a,b",
    [
        (Fraction(1), Fraction(1)),
        (Fraction(2, 3), Fraction(-1, 2)),
        (Fraction(-3), Fraction(5, 7)),
    ],
)
def test_drift_pair_splitting_rule(a, b):
    # X = -a x, Y = b d commute into a scalar, so
    # exp(t(X+Y)) = exp(-t^2 a b / 2) exp(tX) exp(tY) holds exactly.
    x_el = WeylElement.x_op().scale(-a)
    y_el = WeylElement.d_op().scale(b)
    assert commutator(x_el, y_el) == WeylElement.scalar(a * b)
    direct = graded_exp(GradedOpSeries.single(1, x_el + y_el, 6))
    product = (
        graded_exp(GradedOpSeries.single(2, WeylElement.scalar(-a * b / 2), 6))
        * graded_exp(GradedOpSeries.single(1, x_el, 6))
        * graded_exp(GradedOpSeries.single(1, y_el, 6))
    )
    assert direct == product


@pytest.mark.parametrize(
    "kappa,lam",
    [
        (Fraction(1), Fraction(1)),
        (Fraction(2, 3), Fraction(-1, 2)),
        (Fraction(-5, 4), Fraction(3, 7)),
    ],
)
def test_four_factor_chain(kappa, lam):
    # exp(t(l d^2 + k x)) splits into scalar, x, d and d^2 factors with
    # grades 3, 1, 2, 1 left to right.
    direct = graded_exp(
        GradedOpSeries.single(
            1,
            WeylElement.d_op(2).scale(lam) + WeylElement.x_op().scale(kappa),
            6,
        )
    )
    chain = (
        graded_exp(
            GradedOpSeries.single(
                3, WeylElement.scalar(kappa**2 * lam / 3), 6
            )
        )
        * graded_exp(GradedOpSeries.single(1, WeylElement.x_op().scale(kappa), 6))
        * graded_exp(
            GradedOpSeries.single(2, WeylElement.d_op().scale(kappa * lam), 6)
        )
        * graded_exp(GradedOpSeries.single(1, WeylElement.d_op(2).scale(lam), 6))
    )
    assert direct == chain


def _exp_at(el, grade, k):
    return graded_exp(GradedOpSeries.single(grade, el, k))


def _right_product(x_el, y_el, cs, k):
    # exp(tX) exp(tY) exp(t^2 C_2) ... exp(t^k C_k)
    product = _exp_at(x_el, 1, k) * _exp_at(y_el, 1, k)
    for m in range(2, k + 1):
        product = product * _exp_at(cs[m], m, k)
    return product


def _mirror_product(x_el, y_el, hats, k):
    # exp(t^k C_k') ... exp(t^2 C_2') exp(tY) exp(tX)
    mirror = _exp_at(y_el, 1, k) * _exp_at(x_el, 1, k)
    for m in range(2, k + 1):
        mirror = _exp_at(hats[m], m, k) * mirror
    return mirror


@given(weyl_elements(), weyl_elements())
@settings(max_examples=20, deadline=None)
def test_zassenhaus_low_order_formulas(x_el, y_el):
    cs = zassenhaus_coeff(x_el, y_el, 3)
    half = GR(Fraction(1, 2))
    third = GR(Fraction(1, 3))
    c2_want = commutator(y_el, x_el).scale(half)
    assert cs[2] == c2_want
    c3_want = commutator(
        c2_want, x_el + y_el.scale(GR(2))
    ).scale(third)
    assert cs[3] == c3_want


@pytest.mark.parametrize("kappa", [Fraction(1), Fraction(2, 3), Fraction(-2)])
def test_zassenhaus_on_heat_pair(kappa, orientation="right"):
    # exp(t(d^2 + k x)) splits into finitely many factors (see the four-factor
    # chain above), so every correction past C_3 vanishes
    cs = zassenhaus_coeff(
        WeylElement.d_op(2), WeylElement.x_op().scale(kappa), 20
    )
    assert sorted(cs) == list(range(2, 21))
    assert cs[2] == WeylElement.d_op().scale(-kappa)
    assert cs[3] == WeylElement.scalar(Fraction(-2, 3) * kappa**2)
    assert all(cs[m].is_zero for m in range(4, 21))


@given(weyl_elements(), weyl_elements())
@settings(max_examples=15, deadline=None)
def test_zassenhaus_reconstructs_both_orientations(x_el, y_el):
    # the oracle multiplies graded exponentials, which the recursion never forms
    k = 5
    direct = _exp_at(x_el + y_el, 1, k)
    right = zassenhaus_coeff(x_el, y_el, k, orientation="right")
    assert _right_product(x_el, y_el, right, k) == direct
    left = zassenhaus_coeff(x_el, y_el, k, orientation="left")
    assert _mirror_product(x_el, y_el, left, k) == direct


@pytest.mark.parametrize(
    "x_el,y_el,m",
    [
        (WeylElement.d_op(2) + WeylElement.x_op(2), WeylElement.d_op(), 10),
        (WeylElement.d_op(3), WeylElement.x_op(), 12),
        (WeylElement({(1, 1): 1}), WeylElement({(1, 0): 1, (0, 1): 1}), 11),
    ],
)
def test_zassenhaus_prefix_does_not_depend_on_m_max(x_el, y_el, m):
    short = zassenhaus_coeff(x_el, y_el, 8)
    long = zassenhaus_coeff(x_el, y_el, m)
    for k in range(2, 9):
        assert long[k] == short[k]


@pytest.mark.parametrize(
    "x_el,y_el,m_max,k",
    [
        # grade 8 is as far as exp(t(d^2 + x^2 + d)) stays inside the
        # monomial budget of graded_exp; the recursion runs on to grade 20
        (WeylElement.d_op(2) + WeylElement.x_op(2), WeylElement.d_op(), 20, 8),
        (WeylElement.d_op(3), WeylElement.x_op(), 14, 14),
    ],
)
def test_zassenhaus_reconstructs_at_high_grades(x_el, y_el, m_max, k):
    cs = zassenhaus_coeff(x_el, y_el, m_max)
    assert _right_product(x_el, y_el, cs, k) == _exp_at(x_el + y_el, 1, k)


@pytest.mark.parametrize(
    "x_el,y_el",
    [
        (WeylElement.d_op(2), WeylElement.x_op()),
        (WeylElement({(1, 1): 1}), WeylElement({(1, 0): 1, (0, 1): 1})),
        (WeylElement.x_op(2), WeylElement.d_op()),
    ],
)
def test_left_and_right_families_alternate(x_el, y_el):
    # zassenhaus_coeff derives the left family from the right one by this very
    # sign rule; the mirror-product reconstructions are its independent check
    right = zassenhaus_coeff(x_el, y_el, 6, orientation="right")
    left = zassenhaus_coeff(x_el, y_el, 6, orientation="left")
    for m in range(2, 7):
        sign = GR(1) if m % 2 == 1 else GR(-1)
        assert left[m] == right[m].scale(sign)


@pytest.mark.parametrize(
    "alpha,beta",
    [(Fraction(1), Fraction(1)), (Fraction(2, 3), Fraction(-1, 2))],
)
def test_zassenhaus_product_reconstructs_exponential(alpha, beta):
    x_el = WeylElement.d_op(2).scale(alpha)
    y_el = WeylElement.x_op().scale(beta)
    k = 6
    direct = _exp_at(x_el + y_el, 1, k)
    cs = zassenhaus_coeff(x_el, y_el, k, orientation="right")
    assert _right_product(x_el, y_el, cs, k) == direct
    hats = zassenhaus_coeff(x_el, y_el, k, orientation="left")
    assert _mirror_product(x_el, y_el, hats, k) == direct


@pytest.mark.parametrize("m", [1, 2, 3])
def test_crofton_glaisher_shift_rule(m):
    f = Polynomial({4: 1, 2: -2, 1: 3})
    p = Polynomial({4: Fraction(1, 2), 1: 1, 0: -2})
    assert crofton_glaisher_check(f, p, m, order=5)


def test_wrong_shift_is_detected():
    # same construction as the checker, but with the shift doubled; the
    # framework has to notice the mismatch
    order, m = 4, 2
    f = Polynomial({2: 1})
    exp_dm = graded_exp(GradedOpSeries.single(1, WeylElement.d_op(m), order))
    f_of_x = poly_of_graded(
        f, GradedOpSeries.single(0, WeylElement.x_op(), order)
    )
    wrong_arg = GradedOpSeries(
        {0: WeylElement.x_op(), 1: WeylElement.d_op(m - 1).scale(2 * m)}, order
    )
    assert exp_dm * f_of_x != poly_of_graded(f, wrong_arg) * exp_dm


@pytest.mark.parametrize("n", range(10))
def test_shift_exponential_regenerates_cubic_hermite(n):
    # exp(y d^3) x^n, collected by grade, is the two-variable cubic
    # Hermite polynomial evaluated at (x, y)
    k_top = n // 3
    e = graded_exp(GradedOpSeries.single(1, WeylElement.d_op(3), max(k_top, 1)))
    samples = [
        (Fraction(2, 3), Fraction(-5, 4)),
        (Fraction(1), Fraction(1)),
        (Fraction(-2), Fraction(3, 7)),
    ]
    for x_val, y_val in samples:
        total = Fraction(0)
        for k in range(k_top + 1):
            q = apply(e.coeff(k), Polynomial.x_power(n))
            val = q.eval(x_val)
            assert val.im == 0
            total += val.re * y_val**k
        assert total == hermite3(n, x_val, y_val)


@pytest.mark.parametrize(
    "alpha,beta",
    [
        (Fraction(1, 3), Fraction(5, 7)),
        (Fraction(-2), Fraction(1, 2)),
        (Fraction(3, 4), Fraction(-4, 5)),
    ],
)
def test_berry_graded_identity(alpha, beta):
    assert berry_graded_check(alpha, beta, order=6)


def test_berry_numeric_residual():
    assert berry_rule_check(0.1, 0.1) <= 1e-10


def test_berry_numeric_preconditions():
    with pytest.raises(DomainError):
        berry_rule_check(0.5, 0.1)
    with pytest.raises(DomainError):
        berry_rule_check(0.1, 0.1, n_terms=5)
