import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peocalc.errors import ConvergenceError, DomainError
from peocalc.gammafn import gamma, recip_gamma
from peocalc.special import laguerre_exp
from peocalc.umbral import (
    UmbralSum,
    UmbralTerm,
    VariableAllocator,
    fio_eval,
    fio_eval_series,
    laguerre_binomial_pow,
    laguerre_semigroup_check,
    ml_binomial_pow,
    ml_semigroup_discrepancy,
    term_product,
)


def test_term_normalization_drops_zero_exponents():
    t = UmbralTerm(3, {0: 2, 1: 0}, {2: 0, 3: 5})
    assert t.u_exps == {0: 2}
    assert t.v_exps == {3: 5}


def test_term_rejects_shared_variable_id():
    with pytest.raises(DomainError):
        UmbralTerm(1, {0: 1}, {0: 2})


def test_term_rejects_u_exponent_on_pole():
    with pytest.raises(DomainError):
        UmbralTerm(1, {0: 0.0 - 3.0}, {})
    # exponent zero is the formal identity u^0 = 1, normalized away before
    # any evaluation happens, so it never reaches the pole check
    assert UmbralTerm(1, {0: 0}, {}).u_exps == {}


def test_variable_allocator_never_repeats():
    alloc = VariableAllocator()
    seen = {alloc.fresh() for _ in range(100)}
    a, b = alloc.fresh_pair()
    assert len(seen) == 100 and a not in seen and b not in seen and a != b


def test_term_product_adds_exponents_on_shared_ids():
    a = UmbralTerm(2, {0: 1, 1: Fraction(1, 2)}, {5: 3})
    b = UmbralTerm(5, {0: 2}, {5: 1, 6: 4})
    p = term_product(a, b)
    assert p.coeff == 10
    assert p.u_exps == {0: 3, 1: Fraction(1, 2)}
    assert p.v_exps == {5: 4, 6: 4}


def test_pochhammer_image():
    # u^(b+n) v^b evaluates to Gamma(b+n)/Gamma(b), the rising factorial.
    b, n = Fraction(3, 2), 3
    t = UmbralTerm(1, {0: b + n}, {1: b})
    got = fio_eval(t)
    assert math.isclose(got, 13.125, rel_tol=1e-13)


def test_pochhammer_image_integer_base_exact():
    # (2)_4 = 2*3*4*5 = 120, all Gamma calls on the factorial fast path
    t = UmbralTerm(1, {0: 6}, {1: 2})
    assert fio_eval(t) == 120.0


@given(
    st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=8),
    st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=8),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
)
@settings(max_examples=60, deadline=None)
def test_disjoint_product_factorizes(ea, eb, ca, cb):
    a = UmbralTerm(ca, {0: ea}, {1: ea + 1})
    b = UmbralTerm(cb, {2: eb}, {3: eb + 2})
    merged = fio_eval(term_product(a, b))
    split = fio_eval(a) * fio_eval(b)
    assert math.isclose(merged, split, rel_tol=1e-12, abs_tol=1e-300)


@given(st.fractions(min_value=Fraction(1, 4), max_value=10, max_denominator=8))
@settings(max_examples=60, deadline=None)
def test_matched_pair_insertion_is_free(a):
    base = UmbralTerm(Fraction(7, 3), {0: Fraction(5, 2)}, {1: 4})
    padded = term_product(base, UmbralTerm(1, {10: a}, {11: a}))
    assert math.isclose(fio_eval(padded), fio_eval(base), rel_tol=1e-12)


def test_gauss_hypergeometric_value():
    # sum_r (1)_r (1)_r / (2)_r x^r / r! at x = 1/2 is -ln(1-x)/x = 2 ln 2.
    x = Fraction(1, 2)
    terms = []
    for r in range(60):
        coeff = x**r * Fraction(1, math.factorial(r))
        terms.append(
            UmbralTerm(
                coeff,
                {0: 1 + r, 1: 1 + r, 2: 2},
                {3: 1, 4: 1, 5: 2 + r},
            )
        )
    got = fio_eval_series(UmbralSum(terms))
    assert math.isclose(got, 2.0 * math.log(2.0), rel_tol=1e-13)


@pytest.mark.parametrize("x", [0.7, -2.0, 5.5])
def test_laguerre_exp_reconstruction(x):
    # le(x) = sum_r x^r / r! * [v^(r+1) image], the image being 1/r! again.
    terms = [
        UmbralTerm(x**r / math.factorial(r), {}, {0: r + 1}) for r in range(30)
    ]
    got = fio_eval_series(UmbralSum(terms))
    assert math.isclose(got, laguerre_exp(x).value, rel_tol=5e-13)


def test_non_summable_flat_magnitudes_raise():
    terms = [UmbralTerm(1.0, {}, {0: 1}) for _ in range(20)]
    with pytest.raises(ConvergenceError):
        fio_eval_series(UmbralSum(terms))


def test_non_summable_slow_decay_raises():
    terms = [UmbralTerm(1.0 / (r + 1), {}, {0: 1}) for r in range(60)]
    with pytest.raises(ConvergenceError):
        fio_eval_series(UmbralSum(terms))


def test_short_sums_skip_the_tail_check():
    terms = [UmbralTerm(1.0, {}, {0: 1}) for _ in range(5)]
    assert fio_eval_series(UmbralSum(terms)) == 5.0


def test_laguerre_binomial_small_cases():
    x, y = Fraction(2), Fraction(3)
    assert laguerre_binomial_pow(0, x, y) == 1
    assert laguerre_binomial_pow(1, x, y) == x + y
    assert laguerre_binomial_pow(2, x, y) == x**2 + 4 * x * y + y**2
    with pytest.raises(DomainError):
        laguerre_binomial_pow(-1, x, y)


@pytest.mark.parametrize("n", range(0, 11))
def test_laguerre_binomial_matches_umbral_reshaping(n):
    # u v1 v2 (u (v1 x + v2 y))^n, expanded and evaluated term by term,
    # lands on sum_r C(n,r)^2 x^r y^(n-r).
    x, y = Fraction(2, 3), Fraction(-1, 4)
    values = []
    for r in range(n + 1):
        coeff = math.comb(n, r) * x**r * y ** (n - r)
        values.append(
            fio_eval(UmbralTerm(coeff, {0: n + 1}, {1: r + 1, 2: n - r + 1}))
        )
    got = sum(values)
    want = float(laguerre_binomial_pow(n, x, y))
    # mixed signs cancel, so the roundoff floor scales with the largest
    # term, not with the final sum
    scale = max(abs(v) for v in values)
    assert abs(got - want) <= 1e-14 * scale


def test_laguerre_semigroup_exact_rational_coefficients():
    # [x^a y^b] of le(x) le(y) is 1/(a! b!)^2; the binomial side at
    # n = a + b contributes C(n,a)^2 / (n!)^2.  Equality is exact.
    for n in range(11):
        for a in range(n + 1):
            b = n - a
            binomial_side = Fraction(math.comb(n, a) ** 2, math.factorial(n) ** 2)
            product_side = Fraction(1, (math.factorial(a) * math.factorial(b)) ** 2)
            assert binomial_side == product_side


def test_laguerre_semigroup_numeric_residual():
    residual = laguerre_semigroup_check(0.7, -0.3, n_max=40)
    assert residual <= 1e-13


def test_laguerre_semigroup_tol_enforcement():
    with pytest.raises(ArithmeticError):
        laguerre_semigroup_check(0.7, -0.3, n_max=2, tol=1e-13)


def test_float_weights_past_the_float_range_raise_convergence_error():
    # (99!)^2 and C(517, 258)^2 exceed the largest float; exact inputs keep int weights
    with pytest.raises(ConvergenceError):
        laguerre_semigroup_check(0.5, 0.5, 99)
    with pytest.raises(ConvergenceError):
        laguerre_binomial_pow(517, 0.5, 0.5)
    assert laguerre_semigroup_check(0.5, 0.5, 98) < 1e-12
    assert laguerre_binomial_pow(517, 1, 1) == math.comb(1034, 517)


def test_ml_binomial_degenerates_to_laguerre_binomial():
    x, y = 0.6, -1.25
    for n in range(8):
        got = ml_binomial_pow(1.0, 1.0, n, x, y)
        want = float(laguerre_binomial_pow(n, Fraction(x), Fraction(y)))
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-300)


def test_ml_binomial_rejects_pole_arguments():
    with pytest.raises(DomainError):
        ml_binomial_pow(1.0, 0.0, 3, 1.0, 1.0)
    with pytest.raises(DomainError):
        ml_binomial_pow(0.5, -1.0, 4, 1.0, 1.0)
    # 0.5 r - 1.5 is a pole at r = n = 3 only: the Gamma(a n + b) argument
    with pytest.raises(DomainError):
        ml_binomial_pow(0.5, -1.5, 3, 1.0, 1.0)


def test_ml_semigroup_discrepancy_tables():
    # The product and binomial sides genuinely disagree; the measured ratio
    # is the binomial coefficient C(r+k, r).  Both sides are cross-checked
    # against a math.gamma reimplementation.
    alpha, beta = 0.5, 1.0
    rows = ml_semigroup_discrepancy(alpha, beta, n_max=6)
    assert len(rows) == sum(n + 1 for n in range(7))
    for row in rows:
        r, k = row["r"], row["k"]
        n = r + k
        oracle_product = 1.0 / (
            math.gamma(alpha * r + beta) * math.gamma(alpha * k + beta)
        )
        oracle_binomial = (
            math.comb(n, r)
            * math.gamma(alpha * n + beta)
            / (
                math.gamma(alpha * r + beta)
                * math.gamma(alpha * k + beta)
                * math.gamma(alpha * n + beta)
            )
        )
        assert math.isclose(row["product"], oracle_product, rel_tol=1e-12)
        assert math.isclose(row["binomial"], oracle_binomial, rel_tol=1e-12)
        assert math.isclose(row["ratio"], math.comb(n, r), rel_tol=1e-12)
        if n > 0 and 0 < r < n:
            assert not math.isclose(row["binomial"], row["product"], rel_tol=1e-6)


# -- the binomial sums against the formulas their weight tables replaced -------


def _reference_laguerre_binomial_pow(n, x, y):
    total = 0
    for s in range(n + 1):
        total = total + math.comb(n, s) ** 2 * x ** (n - s) * y**s
    return total


def _reference_semigroup_residual(x, y, n_max):
    product = laguerre_exp(x).value * laguerre_exp(y).value
    acc = 0
    for n in range(n_max + 1):
        acc = acc + _reference_laguerre_binomial_pow(n, x, y) / math.factorial(n) ** 2
    return abs(product - acc)


def _reference_ml_binomial_pow(alpha, beta, n, x, y):
    a, b = float(alpha), float(beta)
    top = gamma(a * n + b)
    total = 0
    for r in range(n + 1):
        w = top * recip_gamma(a * r + b) * recip_gamma(a * (n - r) + b)
        total = total + math.comb(n, r) * w * x**r * y ** (n - r)
    return total


def _reference_ml_rows(alpha, beta, n_max):
    a, b = float(alpha), float(beta)
    out = []
    for n in range(n_max + 1):
        for r in range(n + 1):
            k = n - r
            product = recip_gamma(a * r + b) * recip_gamma(a * k + b)
            binomial = (
                math.comb(n, r)
                * gamma(a * n + b)
                * recip_gamma(a * r + b)
                * recip_gamma(a * k + b)
                * recip_gamma(a * n + b)
            )
            ratio = binomial / product
            out.append({"r": r, "k": k, "product": product, "binomial": binomial, "ratio": ratio})
    return out


# |x| > 1 for the exact ones, so C(n, s)^2 x^k passes 2^53 and an int weight
# rounded to a float too early would show
_ONE_OF_EACH = {
    "int": [-3, 2],
    "Fraction": [Fraction(7, 3), Fraction(-5, 4)],
    "float": [1.3, -0.7],
    "complex": [complex(0.4, -1.1)],
}
_TYPE_PAIRS = [(tx, ty) for tx in _ONE_OF_EACH for ty in _ONE_OF_EACH]


@pytest.mark.parametrize("tx, ty", _TYPE_PAIRS)
def test_laguerre_binomial_sums_are_the_reference_formulas(tx, ty):
    for x in _ONE_OF_EACH[tx]:
        for y in _ONE_OF_EACH[ty]:
            for n_max in (0, 7, 40):
                got = laguerre_semigroup_check(x, y, n_max)
                want = _reference_semigroup_residual(x, y, n_max)
                assert got == want and type(got) is type(want), (x, y, n_max)
            for n in (0, 1, 9, 25):
                got = laguerre_binomial_pow(n, x, y)
                want = _reference_laguerre_binomial_pow(n, x, y)
                assert got == want and type(got) is type(want), (x, y, n)


_SCALAR_GRID_ML_BINOM = [(0.5, 1.0, 20), (0.75, 1.5, 24), (1.5, 0.5, 28), (2.5, 1.0, 32),
                         (0.4, 2.0, 20), (1.25, 1.0, 24), (0.5, 0.5, 28), (1.0, 1.0, 32)]


@pytest.mark.parametrize("alpha, beta, n", _SCALAR_GRID_ML_BINOM)
def test_ml_binomial_pow_is_the_reference_formula(alpha, beta, n):
    for x, y in [(0.31, 0.87), (-0.5, -0.25), (0.6, -0.9), (Fraction(1, 3), 0.5), (0.2 + 0.1j, 0.4)]:
        got = ml_binomial_pow(alpha, beta, n, x, y)
        want = _reference_ml_binomial_pow(alpha, beta, n, x, y)
        assert got == want and type(got) is type(want), (x, y)


@pytest.mark.parametrize("alpha, beta, n_max", [(0.5, 1.0, 12), (1.5, 0.5, 10), (2.5, 1.0, 6)])
def test_ml_semigroup_rows_are_the_reference_formula(alpha, beta, n_max):
    assert ml_semigroup_discrepancy(alpha, beta, n_max) == _reference_ml_rows(alpha, beta, n_max)
