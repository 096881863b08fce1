"""Closed-form solver tests.

Every solver is checked against its defining equation (residual
substitution, exact where the arithmetic allows) and against at least one
independent route to the same numbers: umbral summation for the drift
series, plain binomial shifts for the exp kernel, scipy's expm for the
classical matrix exponential, and brute-force partial sums elsewhere.
"""

import math
import random
from fractions import Fraction

import pytest
from scipy.linalg import expm as scipy_expm

from peocalc.errors import ConditioningError, ConvergenceError, DomainError
from peocalc.gammafn import recip_gamma
from peocalc.series import FracSeries, rl_derivative, series_allclose
from peocalc.solvers import (
    BivariateSeries,
    EXP_KERNEL,
    EigenKernel,
    LAGUERRE_KERNEL,
    Matrix2,
    bivariate_max_deviation,
    fractional_matrix_evolution,
    fractional_matrix_series_components,
    fractional_schrodinger,
    fractional_schrodinger_general,
    fractional_schrodinger_residual,
    fractional_schrodinger_series,
    hermite_cubic_poly,
    matrix_laguerre_exp,
    matrix_max_diff,
    matrix_pseudo_exp,
    mittag_leffler_kernel,
    pseudo_rotation,
    schrodinger_residual,
    solve_laguerre_drift,
    solve_laguerre_schrodinger,
    solve_laguerre_schrodinger_general,
    solve_laguerre_transport,
    transport_residual,
)
from peocalc.special import laguerre_exp, laguerre_sin, mittag_leffler
from peocalc.umbral import UmbralTerm, fio_eval_series
from peocalc.weyl import GaussianRational, Polynomial, WeylElement, apply


# -- kernels ---------------------------------------------------------------


def test_kernel_weight_starts_at_one():
    for kernel in (EXP_KERNEL, LAGUERRE_KERNEL, mittag_leffler_kernel(0.5)):
        assert kernel.weight(0) == 1
        assert kernel.exponent(0) == 0


def test_kernel_weights_and_exponents():
    assert EXP_KERNEL.weight(4) == Fraction(1, 24)
    assert LAGUERRE_KERNEL.weight(4) == Fraction(1, 576)
    assert EXP_KERNEL.exponent(5) == 5
    assert LAGUERRE_KERNEL.exponent(5) == 5
    ml = mittag_leffler_kernel(Fraction(1, 2))
    assert ml.exponent(5) == Fraction(5, 2)
    assert abs(ml.weight(2) - recip_gamma(2.0)) == 0.0


def test_mittag_leffler_kernel_validates_mu():
    for bad in (0, 1, Fraction(7, 5), -0.2):
        with pytest.raises(DomainError):
            mittag_leffler_kernel(bad)


def test_exp_kernel_rejects_stray_mu():
    with pytest.raises(DomainError):
        EigenKernel("exp", Fraction(1, 2))


# -- bivariate series --------------------------------------------------------


def test_bivariate_drops_zeros_and_merges_duplicate_keys():
    s = BivariateSeries({(0, 0): 0.0, (1, Fraction(1)): 2})
    t = BivariateSeries({(1, 1): 3})
    assert s.coeff(0, 0) == 0
    assert (s + t).coeff(1, 1) == 5
    assert (s - s).is_zero


def test_bivariate_mixes_exact_and_float_coefficients():
    key = (1, Fraction(1, 2))
    mixed = BivariateSeries({key: GaussianRational(1, 1)}) + BivariateSeries({key: 0.5})
    assert mixed.terms == {key: complex(1.5, 1)}
    exact = BivariateSeries({key: GaussianRational(1, 1)}).scale(Fraction(1, 2))
    assert exact.terms == {key: GaussianRational(Fraction(1, 2), Fraction(1, 2))}
    cancel = BivariateSeries({key: GaussianRational(1, 1), (0, 0): 2}) + BivariateSeries(
        {key: GaussianRational(-1, -1)}
    )
    assert cancel.terms == {(0, Fraction(0)): 2}


def test_bivariate_rejects_negative_x_degree():
    with pytest.raises(DomainError):
        BivariateSeries({(-1, 0): 1})


def test_bivariate_time_derivatives():
    s = BivariateSeries({(2, 3): Fraction(1, 2)})
    assert s.dt().coeff(2, 2) == Fraction(3, 2)
    assert s.laguerre_dt().coeff(2, 2) == Fraction(9, 2)
    assert s.dt().dt().coeff(2, 1) == 3


def test_bivariate_rl_dt_of_constant():
    mu = Fraction(1, 2)
    s = BivariateSeries({(0, 0): 1.0})
    d = s.rl_dt(mu)
    assert abs(d.coeff(0, -mu) - recip_gamma(0.5)) < 1e-15
    assert len(d.terms) == 1


def test_bivariate_rl_dt_kills_boundary_power():
    # t^(mu-1) is annihilated: the target Gamma argument hits a pole.
    mu = Fraction(3, 10)
    s = BivariateSeries({(0, mu - 1): 2.5})
    assert s.rl_dt(mu).is_zero


def test_bivariate_eval_and_restrict():
    s = BivariateSeries({(1, 0): 2, (0, Fraction(3, 2)): -1.0})
    assert abs(s.eval(0.5, 4.0) - (1.0 - 8.0)) < 1e-14
    assert s.restrict_t(1).terms == {(1, Fraction(0)): 2}
    assert s.eval(0.5, 0.0) == 1.0


# -- transport ----------------------------------------------------------------


def test_transport_constant_stays_put():
    F = solve_laguerre_transport(Polynomial({0: 1}), 2, 8)
    assert F.terms == {(0, Fraction(0)): GaussianRational(1)}


def test_transport_linear_example():
    F = solve_laguerre_transport(Polynomial({1: 1}), Fraction(1, 3), 8)
    assert F == BivariateSeries({(1, 0): 1, (0, 1): Fraction(1, 3)})


def test_transport_square_example():
    F = solve_laguerre_transport(Polynomial({2: 1}), 1, 8)
    assert F == BivariateSeries({(2, 0): 1, (1, 1): 2, (0, 2): Fraction(1, 2)})


def test_transport_exp_kernel_is_a_plain_shift():
    # With 1/n! weights the series telescopes to f(x + alpha t).
    alpha = Fraction(3, 7)
    coeffs = {3: Fraction(1), 1: Fraction(-2), 0: Fraction(5)}
    F = solve_laguerre_transport(Polynomial(coeffs), alpha, 10, EXP_KERNEL)
    shifted = {}
    for k, c in coeffs.items():
        for j in range(k + 1):
            key = (j, Fraction(k - j))
            shifted[key] = (
                shifted.get(key, Fraction(0))
                + c * math.comb(k, j) * alpha ** (k - j)
            )
    assert F == BivariateSeries(shifted)


def test_transport_residual_is_exactly_zero():
    rng = random.Random(8)
    coeffs = {k: Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for k in range(9)}
    alpha = Fraction(-4, 5)
    for kernel in (LAGUERRE_KERNEL, EXP_KERNEL):
        F = solve_laguerre_transport(Polynomial(coeffs), alpha, 12, kernel)
        assert transport_residual(F, alpha, kernel).is_zero


def test_transport_fractional_residual_small():
    f = Polynomial({3: 1, 1: -2, 0: 1})
    kernel = mittag_leffler_kernel(0.3)
    F = solve_laguerre_transport(f, 0.7, 12, kernel)
    R = transport_residual(F, 0.7, kernel, f=f)
    scale = max(1.0, F.max_abs_coeff())
    assert R.max_abs_coeff() <= 1e-13 * scale


# -- drift ---------------------------------------------------------------------


def test_drift_at_time_zero():
    assert solve_laguerre_drift(1.3, -0.7, 2.0, 0.0) == 1.0


def test_drift_without_diffusion_reduces_to_laguerre_exp():
    for alpha, x, t in ((1.0, 0.5, 0.8), (-0.6, 1.7, 0.4), (2.0, -0.9, 0.3)):
        got = solve_laguerre_drift(alpha, 0.0, x, t)
        want = laguerre_exp(-alpha * t * x).value
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_drift_single_and_double_summation_agree():
    rng = random.Random(4212)
    for _ in range(20):
        alpha = rng.uniform(-1.5, 1.5)
        beta = rng.uniform(-1.5, 1.5)
        x = rng.uniform(-2.0, 2.0)
        t = rng.uniform(0.0, 1.2)
        a = solve_laguerre_drift(alpha, beta, x, t, method="single")
        b = solve_laguerre_drift(alpha, beta, x, t, method="double")
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


def test_drift_rejects_unknown_method():
    with pytest.raises(DomainError):
        solve_laguerre_drift(1.0, 1.0, 0.5, 0.8, method="triple")


def test_drift_matches_umbral_oracle():
    # Independent route: evaluate the raw double series umbrally, with
    # 1/Gamma(n + 2r + 1) carried by a formal v-variable.
    alpha = beta = 1.0
    x, t = 0.5, 0.8
    u = -alpha * t * x
    w = -alpha * beta * t * t / 2
    terms = []
    for n in range(26):
        for r in range(13):
            c = u**n * w**r / (math.factorial(n) * math.factorial(r))
            terms.append(UmbralTerm(c, {}, {0: n + 2 * r + 1}))
    want = fio_eval_series(terms)
    got = solve_laguerre_drift(alpha, beta, x, t)
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


# -- cubic-Hermite evolution -----------------------------------------------------


def test_schrodinger_at_time_zero():
    assert solve_laguerre_schrodinger(1.0, 0.5, 0.3, 0.0, 10) == 1.0 + 0j


def test_schrodinger_without_diffusion_is_a_laguerre_phase():
    got = solve_laguerre_schrodinger(2.0, 0.0, 0.3, 0.7, 40)
    want = laguerre_exp(complex(0.0, 2.0 * 0.3 * 0.7)).value
    assert abs(got - want) <= 1e-12


def test_hermite_recurrence_witness_exact():
    # Raising by the generator: (a x + (b/2) d^2) H_n = H_(n+1) with the
    # second argument locked to a^2 b / 6.  Exact through n = 12.
    for a, b in ((Fraction(2, 3), Fraction(-3, 5)), (Fraction(1), Fraction(1, 2))):
        y = a * a * b / 6
        op = WeylElement.x_op().scale(GaussianRational.coerce(a)) + WeylElement.d_op(
            2
        ).scale(GaussianRational.coerce(b) / GaussianRational(2))
        for n in range(13):
            got = apply(op, hermite_cubic_poly(n, a, y))
            assert got == hermite_cubic_poly(n + 1, a, y)


def test_hermite_cubic_poly_matches_numeric_values():
    from peocalc.special import hermite3

    p = hermite_cubic_poly(9, Fraction(1, 2), Fraction(-1, 3))
    got = p.eval(Fraction(3))
    want = hermite3(9, 1.5, float(Fraction(-1, 3)))
    assert abs(float(got.re) - want) <= 1e-9 * max(1.0, abs(want))


def test_schrodinger_general_reduces_for_unit_state():
    N = 10
    F = solve_laguerre_schrodinger_general(
        Polynomial({0: 1}), Fraction(1), Fraction(1, 2), N
    )
    for x, t in ((0.3, 0.6), (-1.1, 0.25)):
        got = F.eval(x, t)
        want = solve_laguerre_schrodinger(1.0, 0.5, x, t, N)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_schrodinger_general_linear_state_no_diffusion():
    # phi = x, beta = 0: only the ladder x^(n+1) t^n survives, with
    # coefficient (i alpha)^n / (n!)^2.
    a = Fraction(2, 3)
    N = 6
    F = solve_laguerre_schrodinger_general(Polynomial({1: 1}), a, Fraction(0), N)
    i = GaussianRational.i()
    expect = {}
    ipow = GaussianRational(1)
    for n in range(N + 1):
        c = ipow * GaussianRational.coerce(a**n * Fraction(1, math.factorial(n) ** 2))
        expect[(n + 1, Fraction(n))] = c
        ipow = ipow * i
    assert F == BivariateSeries(expect)


def test_schrodinger_general_residual_exact():
    cases = (
        (Polynomial({0: 1}), Fraction(1), Fraction(1, 2), 10),
        (Polynomial({1: 1}), Fraction(2, 3), Fraction(0), 6),
        (Polynomial({2: 1, 0: -2}), Fraction(1, 2), Fraction(1, 3), 8),
        (Polynomial({3: 1, 1: 1}), Fraction(1), Fraction(-1, 4), 7),
        (Polynomial([1, Fraction(1, 2), 1]), Fraction(1, 3), Fraction(2, 5), 20),
    )
    for phi, a, b, n in cases:
        F = solve_laguerre_schrodinger_general(phi, a, b, n)
        assert any(e == n for (_, e), _ in F.items())
        assert schrodinger_residual(F, a, b).restrict_t(n - 1).is_zero


# -- matrix evolutions ------------------------------------------------------------


def test_matrix_diagonal_case():
    M = Matrix2.diagonal(0.7, -0.4)
    E = matrix_laguerre_exp(M, 1.3)
    assert abs(E.a - laguerre_exp(0.91).value) <= 1e-13
    assert abs(E.d - laguerre_exp(-0.52).value) <= 1e-13
    assert E.b == 0 and E.c == 0


def test_matrix_cayley_hamilton_agrees_with_series():
    rng = random.Random(20260816)
    for _ in range(20):
        while True:
            M = Matrix2(*(rng.uniform(-1.0, 1.0) for _ in range(4)))
            lp, lm = M.eigenvalues()
            if abs(lp - lm) >= 0.1:
                break
        got = matrix_laguerre_exp(M, 0.5)
        ref = matrix_laguerre_exp(M, 0.5, method="series")
        assert matrix_max_diff(got, ref) <= 1e-11


def test_pseudo_rotation_structure():
    alpha, beta, t = 2.0, 0.5, 0.9
    M = Matrix2(0.0, -alpha, beta, 0.0)
    E = matrix_laguerre_exp(M, t)
    R = pseudo_rotation(alpha, beta, t)
    assert matrix_max_diff(E, R) <= 1e-12
    assert abs(E.a - E.d) <= 1e-12
    ls = laguerre_sin(math.sqrt(alpha * beta) * t).value
    assert abs(E.b * E.c - (-(ls**2))) <= 1e-12


def test_pseudo_rotation_rejects_mixed_signs():
    with pytest.raises(DomainError):
        pseudo_rotation(1.0, -1.0, 0.5)


def test_matrix_degenerate_eigenvalues_raise():
    with pytest.raises(ConditioningError):
        matrix_laguerre_exp(Matrix2(1.0, 1.0, 0.0, 1.0), 1.0)


def test_matrix_frobenius_does_not_overflow():
    M = Matrix2.from_rows([[-1e300, 1e300], [Fraction(1, 3), 2]])
    assert M.frobenius() == pytest.approx(math.sqrt(2.0) * 1e300, rel=1e-15)
    assert Matrix2(Fraction(3), 0, 0, Fraction(-4)).frobenius() == 5.0


def test_matrix_huge_entries_raise_a_convergence_error():
    M = Matrix2.from_rows([[-1e300, 1e300], [Fraction(1, 3), 2]])
    with pytest.raises(ConvergenceError, match="overflowed"):
        matrix_pseudo_exp(M, 50.0, LAGUERRE_KERNEL)


def test_matrix_series_tail_guard():
    with pytest.raises(ConvergenceError):
        matrix_pseudo_exp(
            Matrix2.diagonal(1000.0, 500.0), 1.0, LAGUERRE_KERNEL, method="series"
        )


def test_exp_kernel_matrix_matches_scipy_expm():
    rows = ((0.3, -0.8), (0.55, 0.1))
    t = 0.7
    E = matrix_pseudo_exp(Matrix2.from_rows(rows), t, EXP_KERNEL)
    W = scipy_expm([[r * t for r in row] for row in rows])
    diff = max(
        abs(E.a - W[0][0]), abs(E.b - W[0][1]), abs(E.c - W[1][0]), abs(E.d - W[1][1])
    )
    assert diff <= 1e-12


# -- fractional evolutions ---------------------------------------------------------


def test_fractional_evolution_at_time_zero():
    M = Matrix2(0.3, -0.8, 0.55, 0.1)
    y = fractional_matrix_evolution(M, 0.5, 0.0, (1.0, -2.0))
    assert abs(y[0] - 1.0) <= 1e-14 and abs(y[1] + 2.0) <= 1e-14


def test_fractional_evolution_diagonal():
    M = Matrix2.diagonal(0.6, -0.3)
    t, mu = 1.2, 0.5
    y = fractional_matrix_evolution(M, mu, t, (1.0, 1.0))
    assert abs(y[0] - mittag_leffler(mu, 1.0, 0.6 * t**mu).value) <= 1e-13
    assert abs(y[1] - mittag_leffler(mu, 1.0, -0.3 * t**mu).value) <= 1e-13


def test_fractional_evolution_ch_vs_series():
    M = Matrix2(0.3, -0.8, 0.55, 0.1)
    for mu in (0.3, 0.5, 0.8):
        a = fractional_matrix_evolution(M, mu, 0.9, (0.5, 1.5))
        b = fractional_matrix_evolution(M, mu, 0.9, (0.5, 1.5), method="series")
        assert max(abs(a[0] - b[0]), abs(a[1] - b[1])) <= 1e-12


def _clip(s: FracSeries, cap: float) -> FracSeries:
    return s.map_terms(
        lambda e, c: (e, c) if float(e) <= cap + 1e-9 else None,
        truncation_order=cap,
        truncated=True,
    )


def test_fractional_components_satisfy_the_evolution_equation():
    # Termwise fractional derivative of each component must reproduce
    # M Y plus the memory of the initial state, through exponent 10 mu.
    M = Matrix2(0.3, -0.8, 0.55, 0.1)
    y0 = (1.0, -2.0)
    for mu in (0.3, 0.5, 0.8):
        s1, s2 = fractional_matrix_series_components(M, mu, y0, n_terms=24)
        cap = 10 * mu
        mem = recip_gamma(1.0 - mu)
        rhs1 = s1.scale(M.a) + s2.scale(M.b) + FracSeries.monomial(-mu, mem * y0[0])
        rhs2 = s1.scale(M.c) + s2.scale(M.d) + FracSeries.monomial(-mu, mem * y0[1])
        assert series_allclose(
            _clip(rl_derivative(s1, mu), cap), _clip(rhs1, cap), rel_tol=1e-12
        )
        assert series_allclose(
            _clip(rl_derivative(s2, mu), cap), _clip(rhs2, cap), rel_tol=1e-12
        )


def test_fractional_schrodinger_at_time_zero():
    assert fractional_schrodinger(1.0, 0.5, 0.5, 0.3, 0.0, 12) == 1.0 + 0j


def test_fractional_schrodinger_without_diffusion():
    alpha, mu, x, t = 1.0, 0.5, 0.4, 0.9
    got = fractional_schrodinger(alpha, 0.0, mu, x, t, 60)
    want = mittag_leffler(mu, 1.0, -alpha * x * t**mu).value
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_fractional_schrodinger_series_residual():
    mu = Fraction(1, 2)
    N = 12
    F = fractional_schrodinger_series(1, Fraction(1, 2), mu, N)
    R = fractional_schrodinger_residual(F, 1, Fraction(1, 2), mu)
    cap = mu * (N - 1)
    scale = max(1.0, F.max_abs_coeff())
    assert R.restrict_t(cap).max_abs_coeff() <= 1e-12 * scale


def test_fractional_schrodinger_series_matches_pointwise_sum():
    mu = 0.5
    F = fractional_schrodinger_series(1, Fraction(1, 2), Fraction(1, 2), 10)
    got = F.eval(0.3, 0.6)
    want = fractional_schrodinger(1.0, 0.5, mu, 0.3, 0.6, 10)
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_fractional_general_unit_state_matches_series_exactly():
    F = fractional_schrodinger_general(
        Polynomial({0: 1}), Fraction(1), Fraction(1, 2), Fraction(1, 2), 10
    )
    G = fractional_schrodinger_series(1, Fraction(1, 2), Fraction(1, 2), 10)
    assert F.terms == G.terms


def test_fractional_general_no_diffusion_closed_form():
    # beta = 0 collapses the operator argument to plain x, so the state
    # just multiplies the scalar fractional kernel at z = -alpha x.
    a = Fraction(1)
    mu = Fraction(1, 2)
    N = 12
    F = fractional_schrodinger_general(Polynomial({2: 1}), a, Fraction(0), mu, N)
    x, t = 0.4, 0.9
    want = 0.0
    for n in range(N + 1):
        want += (-float(a) * x) ** n * float(t) ** (0.5 * n) * recip_gamma(0.5 * n + 1)
    want *= x**2
    got = F.eval(x, t)
    assert abs(got - want) <= 1e-13 * max(1.0, abs(want))
    assert abs(F.coeff(5, mu * 3) - (-1.0) ** 3 * recip_gamma(2.5)) <= 1e-15


@pytest.mark.parametrize(
    "a, b, mu",
    [
        (Fraction(1, 3), Fraction(2, 5), Fraction(1, 2)),
        (Fraction(-2), Fraction(3, 7), Fraction(1, 3)),
        (Fraction(3, 2), Fraction(-1), Fraction(2, 3)),
    ],
)
def test_fractional_general_grades_follow_the_generator_recurrence(a, b, mu):
    # D^mu psi = -G psi with G = a x + (b/2) d^2 has grade-n coefficient
    # (-G)^n f / Gamma(mu n + 1); the solver's grade-n term carries n! times
    # the display's grade-n polynomial, which must be (-G)^n f / n! exactly.
    minus_g = WeylElement.x_op().scale(-a) + WeylElement.d_op(2).scale(-b / 2)
    n_max = 8
    for f in (
        Polynomial({1: 1}),
        Polynomial({0: 1, 2: Fraction(1, 2)}),
        Polynomial({3: 1}),
        Polynomial({4: 2, 1: -1}),
    ):
        want, q = {}, f
        for n in range(n_max + 1):
            w = recip_gamma(float(mu) * n + 1.0)
            for deg, c in q.coeffs.items():
                z = complex(c)
                want[(deg, mu * n)] = (z.real if z.imag == 0 else z) * w
            q = apply(minus_g, q)
        got = fractional_schrodinger_general(f, a, b, mu, n_max)
        assert got.terms == want, f
