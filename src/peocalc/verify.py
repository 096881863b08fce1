"""Built-in identity verification suites.

Each suite re-derives a batch of the library's defining identities and
measures the residuals.  Outside arithmetic (an independent matrix
exponential, trapezoid integrals for J0 and le(ix), double-exponential
quadrature for the singular convolution kernel) is hand-rolled from the
standard library so a verification run never leans on the code paths it
is checking more than the identity itself demands.

Suites: special, umbral, weyl, peo, vn; "all" chains every one.

The CLI imports this module at start-up, so it loads only `errors`,
`gammafn` and `special` of the package, and no `cmath` or `dataclasses`:
each suite imports `cmath`, `series`, `umbral`, `weyl`, `solvers` or
`volterra` where it uses them.
"""

from __future__ import annotations

import math
import time
from collections import namedtuple
from fractions import Fraction

from .errors import DomainError
from .gammafn import gamma, recip_gamma
from .special import (
    laguerre_cos,
    laguerre_exp,
    laguerre_sin,
    mittag_leffler,
)


class CheckResult(namedtuple("CheckResult", "name passed residual detail", defaults=("",))):
    # stamp, perf_counter() when the check finished, which report() turns into
    # seconds, is an attribute and not a field: equality and repr leave it out
    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self.stamp = time.perf_counter()
        return self

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f"  ({self.detail})" if self.detail else ""
        return f"{status}  {self.name}  residual={self.residual:.3e}{extra}"


def _bounded(name: str, residual: float, tol: float) -> CheckResult:
    return CheckResult(name, residual <= tol, residual, f"tol {tol:g}")


def _exact(name: str, ok: bool) -> CheckResult:
    return CheckResult(name, ok, 0.0 if ok else math.inf, "exact")


# -- standard-library oracles ------------------------------------------------


def _expm2(rows, terms: int = 24):
    """2x2 matrix exponential by scaling and squaring a Taylor sum."""
    norm = max(abs(rows[i][j]) for i in range(2) for j in range(2))
    squarings = max(0, math.ceil(math.log2(max(norm, 1e-30))) + 2)
    s = [[rows[i][j] / (2**squarings) for j in range(2)] for i in range(2)]
    acc = [[1.0, 0.0], [0.0, 1.0]]
    term = [[1.0, 0.0], [0.0, 1.0]]
    for n in range(1, terms):
        term = [[v / n for v in row] for row in _mat2_mul(term, s)]
        acc = [[acc[i][j] + term[i][j] for j in range(2)] for i in range(2)]
    for _ in range(squarings):
        acc = _mat2_mul(acc, acc)
    return acc


def _expm2_offdiag(a: float, b: float):
    """exp([[0, a], [b, 0]]) for a * b > 0, in closed form.

    The matrix squares to a b I, so with s = sqrt(ab) its exponential is
    cosh(s) I + sinh(s)/s M (Moler and Van Loan, SIAM Review 45 (2003) 3).
    """
    s = math.sqrt(a * b)
    c, k = math.cosh(s), math.sinh(s) / s
    return [[c, k * a], [k * b, c]]


def _mat2_mul(p, q):
    return [
        [sum(p[i][k] * q[k][j] for k in range(2)) for j in range(2)] for i in range(2)
    ]


def _power_kernel_integral(g: float, a: float, t: float, levels: int = 8) -> float:
    """integral_0^t x^g (t-x)^(a-1) dx by tanh-sinh quadrature.

    The distance to the singular endpoint is carried separately
    (1 - tanh is formed from exp(-2s), never by subtraction), so the
    kernel keeps full precision right up against t.
    """
    half = 0.5 * t
    h = 4.0 / 2**levels
    total = 0.0
    k = 0
    while True:
        u = k * h
        sw = 0.5 * math.pi * math.sinh(u)
        ex = math.exp(-2.0 * sw)
        one_minus = 2.0 * ex / (1.0 + ex)
        w = 0.5 * math.pi * math.cosh(u) / math.cosh(sw) ** 2
        d = half * one_minus
        pts = [(t - d, d)]
        if k:
            pts.append((d, t - d))
        contrib = 0.0
        for xx, dist in pts:
            if dist > 0.0 and xx > 0.0:
                contrib += xx**g * dist ** (a - 1.0) * w
        total += contrib
        k += 1
        if u > 4.0 and contrib < 1e-16 * max(total, 1e-300):
            break
    return total * half * h


def _trapezoid_mean(f, nodes: int = 32):
    """(1/pi) int_0^pi f(u) du for pi-periodic f, by the trapezoid rule.

    The rule converges geometrically on analytic periodic integrands
    (Trefethen and Weideman, SIAM Review 56 (2014) 385).
    """
    return sum(f(math.pi * j / nodes) for j in range(nodes)) / nodes


# -- suites -----------------------------------------------------------------


def suite_special() -> list[CheckResult]:
    import cmath

    out = []
    worst = 0.0
    for t in (0.5, 1.0, 2.0, 5.0, 10.0):
        j0 = _trapezoid_mean(lambda u: math.cos(t * math.sin(u)))
        worst = max(worst, abs(laguerre_exp(-((t / 2.0) ** 2)).value - j0))
    out.append(_bounded("laguerre_exp(-(t/2)^2) == J0(t)", worst, 1e-12))
    worst = 0.0
    for x in (0.5, 1.0, 2.0, 5.0):
        # le(ix) = ber + i bei at 2 sqrt x = (1/pi) int_0^pi exp(z cos u) du,
        # and u -> pi - u turns exp into the pi-periodic cosh
        z = 2.0 * cmath.sqrt(1j * x)
        le = _trapezoid_mean(lambda u: cmath.cosh(z * math.cos(u)))
        worst = max(
            worst, abs(laguerre_cos(x).value - le.real), abs(laguerre_sin(x).value - le.imag)
        )
    out.append(_bounded("laguerre cos/sin == Kelvin ber/bei(2 sqrt x)", worst, 1e-12))
    worst = max(
        abs(mittag_leffler(1.0, 1.0, x).value - math.exp(x)) for x in (-2.0, 0.3, 1.7)
    )
    out.append(_bounded("E_(1,1) == exp", worst, 1e-12))
    worst = max(
        abs(mittag_leffler(2.0, 1.0, x * x).value - math.cosh(x)) for x in (0.4, 1.1)
    )
    out.append(_bounded("E_(2,1)(x^2) == cosh x", worst, 1e-12))
    worst = max(
        abs(mittag_leffler(1.0, 2.0, x).value - math.expm1(x) / x) for x in (0.25, 1.5)
    )
    out.append(_bounded("E_(1,2)(x) == (e^x - 1)/x", worst, 1e-12))
    return out


def suite_umbral() -> list[CheckResult]:
    from .umbral import (
        laguerre_binomial_pow,
        laguerre_semigroup_check,
        ml_binomial_pow,
        ml_semigroup_discrepancy,
    )

    out = []
    out.append(
        _bounded(
            "laguerre semigroup residual at (0.7, -0.3)",
            laguerre_semigroup_check(0.7, -0.3),
            1e-13,
        )
    )
    # product form vs binomial-sum form, exact rationals through total
    # degree 10 at two instantiations
    ok = True
    for x, y in ((Fraction(2, 3), Fraction(-1, 5)), (Fraction(-3, 7), Fraction(1, 2))):
        product = sum(
            x**i * y**j * Fraction(1, math.factorial(i) ** 2 * math.factorial(j) ** 2)
            for i in range(11)
            for j in range(11 - i)
        )
        binomial = sum(
            laguerre_binomial_pow(n, x, y) * Fraction(1, math.factorial(n) ** 2)
            for n in range(11)
        )
        ok = ok and product == binomial
    out.append(_exact("laguerre semigroup coefficients exact through n = 10", ok))
    # the Mittag-Leffler analogue genuinely fails; report the measured gap
    rows = ml_semigroup_discrepancy(0.5, 1.0, 12)
    x, y = 0.1, 0.08
    table_product = sum(r["product"] * x ** r["r"] * y ** r["k"] for r in rows)
    direct = mittag_leffler(0.5, 1.0, x).value * mittag_leffler(0.5, 1.0, y).value
    out.append(
        _bounded(
            "ml table product side sums to E(x) E(y)",
            abs(table_product - direct),
            1e-10,
        )
    )
    table_binomial = sum(r["binomial"] * x ** r["r"] * y ** r["k"] for r in rows)
    regrouped = sum(
        ml_binomial_pow(0.5, 1.0, n, x, y) * recip_gamma(0.5 * n + 1.0)
        for n in range(13)
    )
    out.append(
        _bounded(
            "ml table binomial side matches regrouped sum",
            abs(table_binomial - regrouped),
            1e-13,
        )
    )
    gap = next(abs(r["ratio"] - 1.0) for r in rows if r["r"] == 1 and r["k"] == 1)
    out.append(
        CheckResult(
            "ml product and semigroup forms disagree (measured, expected)",
            gap > 0.5,
            gap,
            "gap must exceed 0.5",
        )
    )
    return out


def suite_weyl() -> list[CheckResult]:
    from .weyl import (
        GradedOpSeries,
        Polynomial,
        WeylElement,
        berry_graded_check,
        berry_rule_check,
        commutator,
        crofton_glaisher_check,
        graded_exp,
        zassenhaus_coeff,
    )

    out = []
    a, b = Fraction(2, 3), Fraction(-1, 2)
    x_el = WeylElement.x_op().scale(-a)
    y_el = WeylElement.d_op().scale(b)
    k = 6
    whole = graded_exp(GradedOpSeries.single(1, x_el + y_el, k))
    comm = commutator(x_el, y_el)
    split = (
        graded_exp(GradedOpSeries.single(2, comm.scale(Fraction(-1, 2)), k))
        * graded_exp(GradedOpSeries.single(1, x_el, k))
        * graded_exp(GradedOpSeries.single(1, y_el, k))
    )
    out.append(
        _exact("central-commutator splitting exact through grade 6", whole == split)
    )
    cs = zassenhaus_coeff(x_el, y_el, 3)
    want2 = commutator(y_el, x_el).scale(Fraction(1, 2))
    out.append(_exact("disentanglement C2 == [Y,X]/2", cs[2] == want2))
    want3 = commutator(want2, x_el + y_el.scale(2)).scale(Fraction(1, 3))
    out.append(_exact("disentanglement C3 == [C2, X+2Y]/3", cs[3] == want3))
    d2 = WeylElement.d_op(2)
    kx = WeylElement.x_op().scale(Fraction(2, 3))
    cs45 = zassenhaus_coeff(d2, kx, 5)
    ok = all(cs45.get(m, WeylElement.zero()).is_zero for m in (4, 5))
    out.append(_exact("corrections vanish from grade 4 for (d^2, kx)", ok))
    f = Polynomial({4: 1, 2: -2, 1: 3})
    p = Polynomial({4: Fraction(1, 2), 1: 1, 0: -2})
    ok = all(crofton_glaisher_check(f, p, m, 5) for m in (1, 2, 3))
    out.append(_exact("shift-through-exponential rule, m in {1,2,3}", ok))
    ok = berry_graded_check(Fraction(1, 3), Fraction(1, 2), 6)
    out.append(_exact("graded quadratic-generator splitting", ok))
    out.append(
        _bounded("numeric quadratic-generator rule", berry_rule_check(0.1, 0.1), 1e-10)
    )
    return out


def suite_peo() -> list[CheckResult]:
    from . import solvers
    from .series import FracSeries, rl_derivative
    from .weyl import Polynomial

    out = []
    f = Polynomial({3: 1, 1: -2, 0: 5})
    F = solvers.solve_laguerre_transport(f, Fraction(3, 7), 10)
    out.append(
        _exact(
            "laguerre transport residual",
            solvers.transport_residual(F, Fraction(3, 7)).is_zero,
        )
    )
    worst = 0.0
    for alpha, beta, x, t in ((1.0, 1.0, 0.5, 0.8), (-0.7, 0.4, 1.1, 0.5)):
        one = solvers.solve_laguerre_drift(alpha, beta, x, t)
        two = solvers.solve_laguerre_drift(alpha, beta, x, t, method="double")
        worst = max(worst, abs(one - two) / max(1.0, abs(one)))
    out.append(_bounded("drift single vs double summation", worst, 1e-12))
    phi = Polynomial({2: 1, 0: -2})
    G = solvers.solve_laguerre_schrodinger_general(
        phi, Fraction(1, 2), Fraction(1, 3), 8
    )
    out.append(
        _exact(
            "oscillator evolution residual (grades < 8)",
            solvers.schrodinger_residual(G, Fraction(1, 2), Fraction(1, 3))
            .restrict_t(7)
            .is_zero,
        )
    )
    M = solvers.Matrix2(0.3, -0.8, 0.55, 0.1)
    ch = solvers.matrix_laguerre_exp(M, 0.5)
    ser = solvers.matrix_laguerre_exp(M, 0.5, method="series")
    out.append(
        _bounded(
            "matrix two-point interpolation vs series",
            solvers.matrix_max_diff(ch, ser),
            1e-11,
        )
    )
    rot = solvers.pseudo_rotation(2.0, 0.5, 0.9)
    direct = solvers.matrix_laguerre_exp(solvers.Matrix2(0, -2.0, 0.5, 0), 0.9)
    out.append(
        _bounded(
            "pseudo-rotation structure", solvers.matrix_max_diff(rot, direct), 1e-12
        )
    )
    E = solvers.matrix_pseudo_exp(M, 0.7, solvers.EXP_KERNEL)
    W = _expm2([[0.3 * 0.7, -0.8 * 0.7], [0.55 * 0.7, 0.1 * 0.7]])
    worst = max(
        abs(E.a - W[0][0]), abs(E.b - W[0][1]), abs(E.c - W[1][0]), abs(E.d - W[1][1])
    )
    out.append(_bounded("exp-kernel matrix vs scaling-squaring", worst, 1e-12))
    worst = 0.0
    for mu in (0.3, 0.5, 0.8):
        s1, s2 = solvers.fractional_matrix_series_components(M, mu, (1.0, -2.0), 24)
        cap = 10.0 * mu
        mem = recip_gamma(1.0 - mu)
        r1 = rl_derivative(s1, mu) - (
            s1.scale(M.a) + s2.scale(M.b) + FracSeries.monomial(-mu, mem)
        )
        r2 = rl_derivative(s2, mu) - (
            s1.scale(M.c) + s2.scale(M.d) + FracSeries.monomial(-mu, mem * -2.0)
        )
        worst = max(worst, r1.max_abs_coeff(cap), r2.max_abs_coeff(cap))
    out.append(
        _bounded("fractional pseudo-eigenfunction residual (10 mu)", worst, 1e-12)
    )
    S = solvers.fractional_schrodinger_series(1, Fraction(1, 2), Fraction(1, 2), 12)
    R = solvers.fractional_schrodinger_residual(S, 1, Fraction(1, 2), Fraction(1, 2))
    scale = max(1.0, S.max_abs_coeff())
    out.append(
        _bounded(
            "fractional oscillator residual",
            R.restrict_t(Fraction(11, 2)).max_abs_coeff() / scale,
            1e-12,
        )
    )
    return out


def suite_vn() -> list[CheckResult]:
    from . import volterra
    from .series import FracSeries, series_eval

    out = []
    f = FracSeries.monomial(1, -1, truncation_order=20)
    got = volterra.laguerre_vn_solve(f, 1, 30, 20).partial_sum
    want = FracSeries(
        [
            (2 * n, Fraction((-1) ** n, 4**n * math.factorial(n) ** 2))
            for n in range(11)
        ],
        20,
        truncated=True,
    )
    out.append(_exact("neumann sum for f = -t", got == want))
    fcos = volterra.cosine_series(24)
    st = volterra.laguerre_vn_solve(fcos, 1, 5, 24)
    ok = True
    for n in range(1, 4):
        cap = 2 * 6 + n
        got_it = st.iterate(n).map_terms(
            lambda e, c: (e, c) if float(e) <= cap else None
        )
        want_it = volterra.cos_recursion_iterate(n, 6).map_terms(
            lambda e, c: (e, c) if float(e) <= cap else None
        )
        ok = ok and got_it == want_it
    out.append(_exact("cosine-kernel recursion matches iterates", ok))
    worst = 0.0
    stf = volterra.fractional_vn_solve(f, 0.5, 1, 6, 30)
    for n in range(6):
        got_v = series_eval(stf.iterate(n), 0.9)
        want_v = volterra.fractional_vn_monomial_closed_form(n, 0.5, 0.9)
        worst = max(worst, abs(got_v - want_v) / max(1.0, abs(want_v)))
    out.append(_bounded("fractional Beta-product closed form", worst, 1e-12))
    rows = [[0.3, -0.8], [0.55, 0.1]]
    worst = 0.0
    for alpha in (0.4, 1.0):
        U = volterra.dyson_evolution_operator(
            volterra.MatrixSeries.constant(rows, 8), alpha, 25, 8
        )
        P = [[1.0, 0.0], [0.0, 1.0]]
        n = 0
        while alpha * n <= 8.0 + 1e-9:
            w = recip_gamma(alpha * n + 1.0)
            C = U.coeff_matrix(alpha * n)
            for i in range(2):
                for j in range(2):
                    wantc = P[i][j] * w
                    worst = max(
                        worst, abs(complex(C[i][j]) - wantc) / max(1.0, abs(wantc))
                    )
            P = _mat2_mul(P, rows)
            n += 1
    out.append(_bounded("time-ordered series, constant generator", worst, 1e-12))
    grid = [
        [FracSeries.zero(22), FracSeries.constant(1, 22)],
        [FracSeries.monomial(1, 1, truncation_order=22), FracSeries.zero(22)],
    ]
    U = volterra.dyson_evolution_operator(volterra.MatrixSeries(grid), 1, 24, 22)
    got_m = U.eval(1.0)
    integ = {}
    for steps in (256, 512):
        acc = [[1.0, 0.0], [0.0, 1.0]]
        dt = 1.0 / steps
        for k in range(steps):
            tm = (k + 0.5) * dt
            acc = _mat2_mul(_expm2_offdiag(dt, tm * dt), acc)
        integ[steps] = acc
    rich = [
        [(4.0 * integ[512][i][j] - integ[256][i][j]) / 3.0 for j in range(2)]
        for i in range(2)
    ]
    worst = max(
        abs(complex(got_m[i][j]) - rich[i][j]) for i in range(2) for j in range(2)
    )
    out.append(_bounded("time-ordered vs product integrator", worst, 1e-8))
    worst = 0.0
    for g, a in ((0.0, 0.5), (1.0, 0.3), (1.5, 0.45)):
        got_q = _power_kernel_integral(g, a, 1.3) * recip_gamma(a)
        want_q = gamma(g + 1.0) * recip_gamma(g + a + 1.0) * 1.3 ** (g + a)
        worst = max(worst, abs(got_q - want_q) / max(1.0, abs(want_q)))
    out.append(_bounded("convolution kernel == termwise power rule", worst, 1e-10))
    return out


SUITES = {
    "special": suite_special,
    "umbral": suite_umbral,
    "weyl": suite_weyl,
    "peo": suite_peo,
    "vn": suite_vn,
}


def run_suite(name: str) -> list[CheckResult]:
    if name == "all":
        results = []
        for fn in SUITES.values():
            results.extend(fn())
        return results
    if name not in SUITES:
        raise DomainError(
            f"unknown suite {name!r}; choose from {', '.join([*SUITES, 'all'])}"
        )
    return SUITES[name]()


def report(name: str) -> list[dict]:
    """One JSON-ready row per check of suite `name` ("all" chains them).

    A check's seconds run from the previous check's stamp, or from the
    start of its suite for the first one.
    """
    names = list(SUITES) if name == "all" else [name]
    rows = []
    for suite in names:
        start = time.perf_counter()
        for r in run_suite(suite):
            rows.append(
                {
                    "suite": suite,
                    "name": r.name,
                    "passed": r.passed,
                    "residual": r.residual if math.isfinite(r.residual) else None,
                    "detail": r.detail,
                    "seconds": r.stamp - start,
                }
            )
            start = r.stamp
    return rows
