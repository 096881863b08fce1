"""Volterra-Neumann and time-ordered solver tests.

The iterative solvers are validated three ways: closed forms compared
coefficient-by-coefficient in exact rationals, fixed-point residuals
(substitute the partial sum back into the integral equation), and
independent numeric oracles: adaptive quadrature for the convolution
kernel, scipy's expm inside a stepwise product integrator for the
noncommuting evolution.
"""

import math
import random
from fractions import Fraction
from operator import itemgetter

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import expm as scipy_expm

from peocalc.errors import DomainError
from peocalc.gammafn import beta, gamma, recip_gamma
from peocalc.series import (
    FracSeries,
    _above,
    rl_derivative,
    rl_integral,
    series_eval,
    series_max_deviation,
    series_mul,
)
from peocalc.volterra import (
    MatrixSeries,
    VNState,
    _exponent_matrices,
    _neumann,
    _rl_kernel,
    cos_recursion_coeffs,
    cos_recursion_iterate,
    cosine_series,
    dyson_evolution_operator,
    fractional_vn_monomial_closed_form,
    fractional_vn_solve,
    laguerre_vn_solve,
    matrix_series_max_deviation,
)


def clip(s: FracSeries, cap) -> FracSeries:
    return s.map_terms(
        lambda e, c: (e, c) if float(e) <= float(cap) + 1e-12 else None,
        truncation_order=cap,
        truncated=True,
    )


# -- Laguerre expansions ------------------------------------------------------


def test_linear_kernel_closed_form_exact():
    # f = -t: the sum is the Laguerre exponential of -(t/2)^2.
    f = FracSeries.monomial(1, -1, truncation_order=20)
    got = laguerre_vn_solve(f, 1, 30, 20).partial_sum
    want = FracSeries(
        [
            (2 * n, Fraction((-1) ** n, 4**n * math.factorial(n) ** 2))
            for n in range(11)
        ],
        20,
        truncated=True,
    )
    assert got == want


@pytest.mark.parametrize("m", [2, 3, 5])
def test_monomial_kernel_closed_form_exact(m):
    f = FracSeries.monomial(m, -1, truncation_order=20)
    got = laguerre_vn_solve(f, 1, 30, 20).partial_sum
    want = FracSeries(
        [
            (
                (m + 1) * n,
                Fraction((-1) ** n, (m + 1) ** (2 * n) * math.factorial(n) ** 2),
            )
            for n in range(20 // (m + 1) + 1)
        ],
        20,
        truncated=True,
    )
    assert got == want


def test_constant_kernel_closed_form_exact():
    c = Fraction(2, 3)
    f = FracSeries.constant(c, 20)
    got = laguerre_vn_solve(f, 1, 40, 20).partial_sum
    want = FracSeries(
        [(n, c**n / Fraction(math.factorial(n) ** 2)) for n in range(21)],
        20,
        truncated=True,
    )
    assert got == want


def test_laguerre_fixed_point_residual_exactly_zero():
    from peocalc.series import laguerre_antiderivative

    f = FracSeries.monomial(1, -1, truncation_order=22)
    S = laguerre_vn_solve(f, 1, 30, 20).partial_sum
    R = S - laguerre_antiderivative(series_mul(f, S)) - FracSeries.constant(1)
    assert clip(R, 20).is_zero()


def test_laguerre_iterate_valuations_climb():
    f = FracSeries.monomial(1, -1, truncation_order=30)
    st = laguerre_vn_solve(f, 1, 10, 30)
    vals = [float(it.valuation()) for it in st.iterates if not it.is_zero()]
    assert all(b >= a + 2 for a, b in zip(vals, vals[1:]))


def test_laguerre_early_termination():
    f = FracSeries.monomial(1, -1, truncation_order=50)
    st = laguerre_vn_solve(f, 1, 50, 6)
    # valuation passes 6 after a few rounds; nowhere near 50 iterates kept
    assert len(st.iterates) <= 6


def test_laguerre_rejects_singular_kernel():
    f = FracSeries.monomial(-1, 1)
    with pytest.raises(DomainError):
        laguerre_vn_solve(f, 1, 5, 10)


def test_vnstate_iterate_accessor():
    f = FracSeries.constant(1, 10)
    st = laguerre_vn_solve(f, 1, 3, 10)
    assert isinstance(st, VNState)
    assert st.iterate(0) == FracSeries.constant(1, 10)
    assert st.iterate(1).coeff(1) == 1


# -- cosine-kernel recursion ---------------------------------------------------


def test_cosine_recursion_base_row():
    row = cos_recursion_coeffs(1, 4)
    assert row == [Fraction(1, math.factorial(2 * r)) for r in range(5)]
    assert row[0] == 1


def test_cosine_recursion_second_row_head():
    assert cos_recursion_coeffs(2, 0)[0] == 1


def test_cosine_recursion_matches_generic_iterates_exactly():
    f = cosine_series(24)
    st = laguerre_vn_solve(f, 1, 6, 24)
    for n in range(1, 5):
        cap = 2 * 6 + n
        got = clip(st.iterate(n), cap)
        want = clip(cos_recursion_iterate(n, 6), cap)
        assert got == want


def test_cosine_recursion_rejects_bad_row():
    with pytest.raises(DomainError):
        cos_recursion_coeffs(0, 3)


# -- fractional expansions -------------------------------------------------------


def test_fractional_first_iterate_classical():
    f = FracSeries.monomial(1, -1, truncation_order=20)
    st = fractional_vn_solve(f, 1, 1, 5, 20)
    assert st.iterate(1) == FracSeries.monomial(2, Fraction(-1, 2), 20)


def test_fractional_beta_product_closed_form():
    f = FracSeries.monomial(1, -1, truncation_order=30)
    for a in (0.3, 0.7):
        st = fractional_vn_solve(f, a, 1, 6, 30)
        for n in range(6):
            got = series_eval(st.iterate(n), 0.9)
            want = fractional_vn_monomial_closed_form(n, a, 0.9)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_fractional_closed_form_small_cases():
    assert fractional_vn_monomial_closed_form(0, 0.5, 2.0) == 1.0
    got = fractional_vn_monomial_closed_form(1, 0.5, 1.0)
    want = -beta(2.0, 0.5) / gamma(0.5)
    assert abs(got - want) <= 1e-15


def test_fractional_relaxation_is_classical_exponential():
    f = FracSeries.constant(-1, 12)
    got = fractional_vn_solve(f, 1, 1, 20, 12).partial_sum
    want = FracSeries(
        [(n, Fraction((-1) ** n, math.factorial(n))) for n in range(13)],
        12,
        truncated=True,
    )
    assert got == want


def test_fractional_fixed_point_residual():
    f = FracSeries.monomial(1, -1, truncation_order=24)
    S = fractional_vn_solve(f, 0.7, 1, 40, 20).partial_sum
    R = S - rl_integral(series_mul(f, S), 0.7) - FracSeries.constant(1)
    assert clip(R, 20).max_abs_coeff() <= 1e-13


def test_fractional_nonhomogeneous_consistency():
    # D^alpha S - f S must reduce to the memory term t^(-alpha)/G(1-alpha).
    alpha = 0.7
    f = FracSeries.monomial(1, -1, truncation_order=24)
    S = fractional_vn_solve(f, alpha, 1, 40, 20).partial_sum
    R = (
        rl_derivative(S, alpha)
        - series_mul(f, S)
        - FracSeries.monomial(-alpha, recip_gamma(1.0 - alpha))
    )
    assert clip(R, 20 - alpha).max_abs_coeff() <= 1e-13


def test_fractional_rejects_bad_alpha():
    f = FracSeries.constant(-1, 10)
    for a in (0.0, 1.5, -0.3):
        with pytest.raises(DomainError):
            fractional_vn_solve(f, a, 1, 5, 10)


def test_fractional_float_alpha_keeps_the_iterate_at_the_order():
    # With alpha = 0.2 the fifth iterate's exponent rounds to
    # 6.000000000000001; it is the same exponent as the order 6, so it is
    # kept and summed, as it is for the exact alpha = 1/5.
    f = FracSeries.monomial(1, -1)
    got = fractional_vn_solve(f, 0.2, 1, 40, 6)
    want = fractional_vn_solve(f, Fraction(1, 5), 1, 40, 6)
    assert len(got.iterates) - 1 == len(want.iterates) - 1 == 6
    assert got.partial_sum.coeff(6) != 0
    assert [float(e) for e, _ in got.partial_sum.terms] == pytest.approx(
        [float(e) for e, _ in want.partial_sum.terms], abs=1e-14
    )
    assert series_max_deviation(got.partial_sum, want.partial_sum) <= 1e-14


@pytest.mark.parametrize(
    "terms, alpha, n_iter, order",
    [
        ([(1, -1)], 0.2, 40, 6),
        ([(1, -1)], Fraction(1, 2), 40, 8),
        ([(0, Fraction(2, 3)), (2, Fraction(-1, 4))], Fraction(3, 4), 40, 7),
        ([(0, Fraction(2, 3)), (2, Fraction(-1, 4))], 1, 40, 7),
        ([(0, 0.6), (Fraction(1, 2), -1.3), (2, 0.25)], 0.7, 40, 6),
        ([(1, 1.5)], 0.45, 3, 12),
    ],
)
def test_fractional_vn_is_the_one_by_one_dyson_recursion(terms, alpha, n_iter, order):
    f = FracSeries(terms)
    vn = fractional_vn_solve(f, alpha, 1, n_iter, order).partial_sum
    dyson = dyson_evolution_operator(MatrixSeries([[f]]), alpha, n_iter, order).entry(0, 0)
    assert vn == dyson
    assert [type(c) for _, c in vn.terms] == [type(c) for _, c in dyson.terms]


def test_convolution_kernel_equals_termwise_rule():
    # int_0^t tau^g (t-tau)^(a-1) dtau / G(a) == G(g+1)/G(g+a+1) t^(g+a),
    # checked against adaptive quadrature with the algebraic weight.
    t = 1.3
    for g, a in ((0.0, 0.5), (1.0, 0.3), (0.5, 0.7), (2.0, 0.9), (1.5, 0.45)):
        val, _ = quad(lambda x, g=g: x**g, 0.0, t, weight="alg", wvar=(0.0, a - 1.0))
        got = val * recip_gamma(a)
        want = gamma(g + 1.0) * recip_gamma(g + a + 1.0) * t ** (g + a)
        assert abs(got - want) <= 1e-8 * max(1.0, abs(want))


# -- matrix series ----------------------------------------------------------------


def test_matrix_series_validates_shape():
    with pytest.raises(DomainError):
        MatrixSeries([[FracSeries.constant(1)]*2])
    with pytest.raises(DomainError):
        MatrixSeries([[1, 0], [0, 1]])
    with pytest.raises(DomainError, match="square grid"):
        MatrixSeries([])


def test_matrix_series_max_deviation_rejects_a_size_mismatch():
    two = MatrixSeries.constant([[1, 2], [3, 4]])
    three = MatrixSeries.constant([[1, 2, 0], [3, 4, 0], [0, 0, 5]])
    for a, b in ((two, three), (three, two)):
        with pytest.raises(DomainError):
            matrix_series_max_deviation(a, b)


# -- time-ordered evolution --------------------------------------------------------


def _constant_matrix_series(rows, order):
    return MatrixSeries.constant(rows, order)


def test_dyson_classical_exponential_exact():
    rows = [[Fraction(0), Fraction(1)], [Fraction(-1), Fraction(0)]]
    U = dyson_evolution_operator(_constant_matrix_series(rows, 10), 1, 14, 10)
    P = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    for k in range(11):
        C = U.coeff_matrix(k)
        for i in range(2):
            for j in range(2):
                assert C[i][j] == P[i][j] * Fraction(1, math.factorial(k))
        P = [
            [sum(P[i][l] * rows[l][j] for l in range(2)) for j in range(2)]
            for i in range(2)
        ]


@pytest.mark.parametrize("alpha", [0.4, 1.0])
def test_dyson_constant_generator_kernel_coefficients(alpha):
    # Constant M: coefficient at exponent alpha*n must be M^n/G(alpha n + 1),
    # through exponent 8.
    rows = [[0.3, -0.8], [0.55, 0.1]]
    U = dyson_evolution_operator(
        _constant_matrix_series(rows, 8), alpha, 25, 8
    )
    P = [[1.0, 0.0], [0.0, 1.0]]
    n = 0
    while alpha * n <= 8:
        w = recip_gamma(alpha * n + 1.0)
        C = U.coeff_matrix(alpha * n)
        for i in range(2):
            for j in range(2):
                want = P[i][j] * w
                assert abs(complex(C[i][j]) - want) <= 1e-12 * max(1.0, abs(want))
        P = [
            [sum(P[i][l] * rows[l][j] for l in range(2)) for j in range(2)]
            for i in range(2)
        ]
        n += 1


def test_dyson_scalar_commuting_oracle_exact():
    # 1x1 generator f(t) = 1 - 2t at alpha = 1: the operator is exp(t - t^2),
    # expanded here exactly in rationals.
    order = 10
    f = FracSeries([(0, Fraction(1)), (1, Fraction(-2))], order, truncated=True)
    U = dyson_evolution_operator(MatrixSeries([[f]]), 1, 14, order)
    got = U.entry(0, 0)
    # exp(t - t^2) = sum (t - t^2)^k / k!
    acc = FracSeries.constant(Fraction(1), order)
    base = FracSeries([(1, Fraction(1)), (2, Fraction(-1))], order, truncated=True)
    power = FracSeries.constant(Fraction(1), order)
    for k in range(1, order + 1):
        power = series_mul(power, base)
        acc = acc + power.scale(Fraction(1, math.factorial(k)))
    assert clip(got, order) == clip(acc, order)


def test_dyson_noncommuting_vs_product_integrator():
    # M(t) = A + B t with [A, B] != 0; oracle is a midpoint product
    # integrator with Richardson extrapolation, well below the 1e-8 bar.
    a_mat = np.array([[0.0, 1.0], [0.0, 0.0]])
    b_mat = np.array([[0.0, 0.0], [1.0, 0.0]])
    grid = [
        [FracSeries.zero(22), FracSeries.constant(1, 22)],
        [FracSeries.monomial(1, 1, truncation_order=22), FracSeries.zero(22)],
    ]
    U = dyson_evolution_operator(MatrixSeries(grid), 1, 24, 22)
    got = np.array(U.eval(1.0), dtype=float)

    def stepper(n):
        u = np.eye(2)
        dt = 1.0 / n
        for k in range(n):
            tm = (k + 0.5) * dt
            u = scipy_expm((a_mat + b_mat * tm) * dt) @ u
        return u

    coarse, fine = stepper(256), stepper(512)
    oracle = (4.0 * fine - coarse) / 3.0
    assert np.max(np.abs(got - oracle)) <= 1e-8


def test_dyson_literal_variant_coincides_at_classical_order():
    rows = [[Fraction(0), Fraction(1)], [Fraction(-1), Fraction(0)]]
    m = _constant_matrix_series(rows, 8)
    lit = dyson_evolution_operator(m, 1, 10, 8, variant="literal")
    rec = dyson_evolution_operator(m, 1, 10, 8)
    assert all(lit.entry(i, j) == rec.entry(i, j) for i in range(2) for j in range(2))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("exponents", [(0,), (0, 1), (0, 2)])
def test_dyson_literal_equals_the_recursion_at_alpha_one(n, exponents):
    # At alpha = 1 the nested kernels are the fixed-point iteration, so the
    # two exact variants agree term by term, for constant and for t-dependent M.
    rng = random.Random(f"literal-vs-recursion-{n}-{exponents}")
    order = 6
    m = MatrixSeries(_random_generator(rng, n, exponents, order))
    lit = dyson_evolution_operator(m, 1, 30, order, variant="literal")
    rec = dyson_evolution_operator(m, 1, 30, order)
    for i in range(n):
        for j in range(n):
            assert lit.entry(i, j) == rec.entry(i, j)
            assert lit.entry(i, j).terms


def test_dyson_literal_second_term_constant_generator():
    # Nested outer-time kernels give M^2 t^(2a) / (2 G(a+1)^2) at n = 2,
    # a genuinely different weight from the fixed-point recursion's
    # 1/G(2a+1).
    rows = [[Fraction(0), Fraction(1)], [Fraction(-1), Fraction(0)]]
    a = 0.6
    m = _constant_matrix_series(rows, 5)
    two = dyson_evolution_operator(m, a, 2, 5, variant="literal")
    one = dyson_evolution_operator(m, a, 1, 5, variant="literal")
    got = complex(two.coeff_matrix(2 * a)[0][0]) - complex(
        one.coeff_matrix(2 * a)[0][0]
    )
    want = -1.0 / (2.0 * gamma(a + 1.0) ** 2)  # M^2 = -identity
    assert abs(got - want) <= 1e-13
    rec = dyson_evolution_operator(m, a, 2, 5)
    rec_coeff = complex(rec.coeff_matrix(2 * a)[0][0])
    assert abs(rec_coeff - (-recip_gamma(2 * a + 1.0))) <= 1e-13
    assert abs(got - rec_coeff) > 1e-3


def test_dyson_literal_requires_integer_exponents():
    grid = [[FracSeries.monomial(Fraction(1, 2), 1, truncation_order=5)]]
    with pytest.raises(DomainError):
        dyson_evolution_operator(MatrixSeries(grid), 0.5, 3, 5, variant="literal")


def _dyson_reference(grid, alpha, n_iter, order):
    # U_{n+1} = I^alpha [M U_n], U_0 = 1, entry by entry from the public
    # series operations: the Cauchy products of row i of M with column j of
    # U, summed with +, integrated and clipped at `order`.
    n = len(grid)
    current = [[FracSeries.constant(int(i == j), order) for j in range(n)] for i in range(n)]
    total = current
    for _ in range(n_iter):
        nxt = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = FracSeries.zero()
                for k in range(n):
                    acc = acc + series_mul(grid[i][k], current[k][j])
                row.append(clip(rl_integral(acc, alpha), order))
            nxt.append(row)
        if all(s.is_zero() for row in nxt for s in row):
            break
        total = [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(total, nxt)]
        current = nxt
    return [[clip(s, order) for s in row] for row in total]


def _random_generator(rng, n, exponents, order):
    def entry():
        terms = [(e, Fraction(rng.randint(-9, 9), rng.randint(1, 7))) for e in exponents]
        return FracSeries(terms, order)

    return [[entry() for _ in range(n)] for _ in range(n)]


def _assert_order_and_flag(U, order):
    for row in U.grid:
        for s in row:
            assert s.truncation_order == order and s.truncated


@pytest.mark.parametrize("n", [2, 3])
def test_dyson_time_dependent_matches_entrywise_reference_exactly(n):
    rng = random.Random(f"dyson-exact-{n}")
    for exponents in ((0, 1), (0, 1, 2), (1, 3)):
        order = 7
        grid = _random_generator(rng, n, exponents, order)
        U = dyson_evolution_operator(MatrixSeries(grid), 1, 30, order)
        want = _dyson_reference(grid, 1, 30, order)
        for i in range(n):
            for j in range(n):
                assert U.entry(i, j) == want[i][j]
                assert all(isinstance(c, (int, Fraction)) for _, c in U.entry(i, j).terms)
        _assert_order_and_flag(U, order)


@pytest.mark.parametrize("alpha", [Fraction(1, 2), Fraction(3, 4)])
@pytest.mark.parametrize("n", [2, 3])
def test_dyson_fractional_time_dependent_matches_entrywise_reference(alpha, n):
    rng = random.Random(f"dyson-frac-{alpha}-{n}")
    for exponents in ((0, 1), (0, Fraction(1, 2), 2)):
        order = 5
        grid = _random_generator(rng, n, exponents, order)
        U = dyson_evolution_operator(MatrixSeries(grid), alpha, 30, order)
        want = _dyson_reference(grid, alpha, 30, order)
        for i in range(n):
            for j in range(n):
                got, ref = U.entry(i, j).terms, want[i][j].terms
                assert [e for e, _ in got] == [e for e, _ in ref]
                for (_, a), (_, b) in zip(got, ref):
                    assert abs(a - b) <= 1e-13 * max(abs(a), abs(b))
        _assert_order_and_flag(U, order)


def test_dyson_keeps_the_row_truncation_of_the_generator():
    # M[0][1] is known only through t^3: row 0 of M U stops there, as the
    # Cauchy product of two series stops at the lower truncation order.
    order = 6
    rng = random.Random("dyson-row-cap")
    grid = _random_generator(rng, 2, (0, 1), order)
    grid[0][1] = FracSeries([(0, Fraction(2, 3)), (1, Fraction(-5, 4))], 3)
    U = dyson_evolution_operator(MatrixSeries(grid), 1, 30, order)
    want = _dyson_reference(grid, 1, 30, order)
    for i in range(2):
        for j in range(2):
            assert U.entry(i, j) == want[i][j]
    assert max(float(e) for e, _ in U.entry(0, 0).terms) <= 4
    _assert_order_and_flag(U, order)


def _fraction_neumann(m, start, shift, factor, n_iter, order):
    # The Neumann loop of the exponent map on Fraction entries, as it ran
    # before exact matrices were held over one denominator: the reference.
    n = m.n
    cap = float(order)
    caps = [min([cap] + [float(s.truncation_order) for s in row]) for row in m.grid]
    m_terms = sorted(((float(e), e, mat) for e, mat in _exponent_matrices(m).items()), key=itemgetter(0))
    current = [(0, 0.0, start)]
    total = {0: start}
    steps = []
    for _ in range(n_iter):
        groups = {}
        for emf, em, mm in m_terms:
            for eu, euf, um in current:
                if not _above(emf + euf, max(caps)):
                    kept = [[0] * n if _above(emf + euf, c) else row for row, c in zip(mm, caps)]
                    groups.setdefault(em + eu, []).append((kept, um))
        nxt = []
        for e, pairs in groups.items():
            if _above(float(e + shift), cap):
                continue
            w = factor(e)
            mat = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(n):
                    acc = 0
                    for k in range(n):
                        s = 0
                        for a, b in pairs:
                            if a[i][k] and b[k][j]:
                                s = s + a[i][k] * b[k][j]
                        acc = acc + s
                    mat[i][j] = acc * w or 0
            if any(map(any, mat)):
                nxt.append((e + shift, float(e + shift), mat))
        steps.append(nxt)
        if not nxt:
            break
        for e, _, mat in nxt:
            cur = total.get(e)
            total[e] = mat if cur is None else [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(cur, mat)]
        current = nxt
    return steps, total


def _typed(mats):
    # exponent -> entries with the types of the nonzero ones, in map order;
    # a zero entry may be int 0 or Fraction(0), and FracSeries drops both
    return [(e, type(e), [(c, c and type(c)) for row in mat for c in row]) for e, mat in mats]


def _laguerre_factor(e):
    return Fraction(1) / ((e + 1) * (e + 1))


@pytest.mark.parametrize("seed", range(12))
def test_exact_neumann_equals_the_fraction_loop(seed):
    # Integer matrices over one denominator give the values and the types the
    # Fraction loop gives: constant and t-dependent generators of size 1 to 3,
    # both kernels, identity and rational starts, one row stopping early.
    rng = random.Random(f"exact-neumann-{seed}")
    n = 1 + seed % 3
    exponents = [(0,), (0, 1), (1, 3), (0, Fraction(1, 2), 2)][seed % 4]
    order = rng.choice((5, 6, 8))
    grid = _random_generator(rng, n, exponents, order)
    if seed % 5 == 4:
        grid[0][n - 1] = FracSeries([(0, Fraction(2, 3)), (1, Fraction(-5, 4))], order // 2)
    if seed % 2:
        start = [[int(i == j) for j in range(n)] for i in range(n)]
        shift, factor = _rl_kernel(Fraction(1))
    else:
        start = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)] for _ in range(n)]
        shift, factor = 1, _laguerre_factor
    m = MatrixSeries(grid)
    steps, total = _neumann(m, start, shift, factor, 30, order, "test")
    want_steps, want_total = _fraction_neumann(m, start, shift, factor, 30, order)
    assert len(steps) == len(want_steps)
    for got, want in zip(steps, want_steps):
        assert _typed((e, mat) for e, _, mat in got) == _typed((e, mat) for e, _, mat in want)
    assert _typed(total.items()) == _typed(want_total.items())


@pytest.mark.parametrize("seed", range(4))
def test_exact_vn_iterates_equal_the_fraction_loop(seed):
    rng = random.Random(f"exact-vn-{seed}")
    terms = [(e, Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9))) for e in sorted(rng.sample(range(4), 2))]
    f, y0, order = FracSeries(terms), Fraction(rng.randint(1, 9), rng.randint(1, 9)), 12
    st = laguerre_vn_solve(f, y0, 40, order)
    want_steps, want_total = _fraction_neumann(MatrixSeries([[f]]), [[y0]], 1, _laguerre_factor, 40, order)
    want = [FracSeries.constant(y0, order)]
    want += [FracSeries([(e, mat[0][0]) for e, _, mat in step], order, truncated=True) for step in want_steps]
    assert len(st.iterates) == len(want)
    for got, ref in zip(st.iterates, want):
        assert got == ref
        assert [type(c) for _, c in got.terms] == [type(c) for _, c in ref.terms]
    ref_sum = FracSeries([(e, mat[0][0]) for e, mat in want_total.items()], order, truncated=True)
    assert st.partial_sum == ref_sum
    assert [type(c) for _, c in st.partial_sum.terms] == [type(c) for _, c in ref_sum.terms]


def test_dyson_rejects_bad_inputs():
    m = _constant_matrix_series([[Fraction(1)]], 5)
    with pytest.raises(DomainError):
        dyson_evolution_operator(m, 1.2, 3, 5)
    with pytest.raises(DomainError):
        dyson_evolution_operator(m, 1, 3, 5, variant="nested")
