"""Seeded operation rounds for the four workloads.

A round is a fixed schedule of operation classes: the class of every slot,
its structural parameters (grade, grid size, operator pair, matrix size)
and its count never change, so every round has the same mix and each
percentile falls at the same place in that mix.  Numeric inputs (grid
points, rational scales, coefficients) are drawn fresh for every round
from ``random.Random(f"{seed}:{workload}:{round}")``.

Each operation is an ``Op``: ``thunk`` is the call that gets timed, with
every input object built beforehand; ``inputs`` is the JSON form of what
the oracle needs; ``encode`` turns the result into JSON after timing.
Inputs stay inside the domain where the program is correct today; the
README gives each cutoff and its reason.
"""

from __future__ import annotations

import cmath
import io
import json
import math
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

from peocalc import cli, gammafn, series, solvers, special, umbral, volterra, weyl
from peocalc.series import FracSeries
from peocalc.weyl import GaussianRational, GradedOpSeries, Polynomial, WeylElement

WORKLOADS = ("scalar-grid", "exact-operator", "series-evolution", "cli-session")


@dataclass
class Op:
    cls: str
    thunk: Callable[[], Any]
    inputs: Any
    encode: Callable[[Any], Any]


# -- JSON encodings shared with oracles.decode ---------------------------------


def enc_num(v):
    """Exact and float scalars: Q for Fraction/int-valued exact, C for complex."""
    if isinstance(v, GaussianRational):
        return ["G", v.re.numerator, v.re.denominator, v.im.numerator, v.im.denominator]
    if isinstance(v, bool):
        raise TypeError("bool is not a number here")
    if isinstance(v, (int, Fraction)):
        f = Fraction(v)
        return ["Q", f.numerator, f.denominator]
    if isinstance(v, complex):
        return ["C", v.real, v.imag]
    return float(v)


def enc_list(vals):
    return [enc_num(v) for v in vals]


def enc_weyl(el: WeylElement):
    return [[a, b, enc_num(c)] for (a, b), c in sorted(el.coeffs.items())]


def enc_graded(s: GradedOpSeries):
    return {"max": s.max_degree, "parts": {str(m): enc_weyl(el) for m, el in s.parts.items()}}


def enc_poly(p: Polynomial):
    return [[k, enc_num(c)] for k, c in sorted(p.coeffs.items())]


def enc_fracseries(s: FracSeries):
    return [[enc_num(e), enc_num(c)] for e, c in s.terms]


def enc_bivariate(s):
    return [[k, enc_num(e), enc_num(c)] for (k, e), c in s.items()]


def enc_vnstate(st):
    return {"iterates": len(st.iterates) - 1, "sum": enc_fracseries(st.partial_sum)}


def enc_matrix_series(ms):
    return [[enc_fracseries(ms.entry(i, j)) for j in range(ms.n)] for i in range(ms.n)]


def _sum_values(res):
    return [enc_num(r.value) for r in res]


# -- random helpers --------------------------------------------------------------


def _uniform(rng, lo, hi, n):
    return [rng.uniform(lo, hi) for _ in range(n)]


# exact-operator scales, all of one size, so that the cost of its Fraction
# arithmetic does not depend on the seed
_FAMILY = tuple(Fraction(p, q) for p in (-7, -5, 5, 7) for q in (3, 4))


def _rational(rng) -> Fraction:
    """A nonzero p/q with |p|, q <= 9: wide enough that inputs rarely repeat."""
    return Fraction(rng.choice((-9, -8, -7, -6, -5, -4, -3, -2, -1, 1, 2, 3, 4, 5, 6, 7, 8, 9)), rng.randint(1, 9))


class _Deck:
    """Draws from _FAMILY without replacement and reshuffles when spent, so
    each stretch of len(_FAMILY) draws uses every value once: the cost of a
    round's exact operations then barely depends on the seed."""

    def __init__(self, rng):
        self.rng = rng
        self.left: list = []

    def __call__(self) -> Fraction:
        if not self.left:
            self.left = list(_FAMILY)
            self.rng.shuffle(self.left)
        return self.left.pop()


# Float series inputs are redrawn where their terms cancel, so that
# S / |value| <= COND_MAX, S being the sum of the terms' absolute values.
# oracles.py holds every such value to a relative 1e-13 * COND_MAX at most
# (oracles.COND_MAX is the same number), which an ascending summation can
# meet only where the terms do not cancel more than that.
COND_MAX = 100.0


def _condition(terms) -> float:
    """S / |sum| for real or complex terms (inf at a zero)."""
    s = math.fsum(abs(t) for t in terms)
    v = abs(complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms)))
    return s / v if v else math.inf


def _series_terms(first, step):
    """first, first * step(1), first * step(1) * step(2), ... until the terms
    shrink below 1e-18 of the largest."""
    terms = [first]
    big = abs(first)
    k = 1
    while True:
        r = step(k)
        terms.append(terms[-1] * r)
        big = max(big, abs(terms[-1]))
        if abs(r) < 0.5 and abs(terms[-1]) <= 1e-18 * big:
            return terms
        k += 1


def _le_terms(x):
    return _series_terms(1.0, lambda k: x / (k * k))


def _lc_terms(x):
    return _series_terms(1.0, lambda j: -x * x / ((2 * j) ** 2 * (2 * j - 1) ** 2))


def _ls_terms(x):
    return _series_terms(x, lambda j: -x * x / ((2 * j + 1) ** 2 * (2 * j) ** 2))


def _le_nm_terms(n, m, x):
    return _series_terms(1 / math.factorial(n),
                         lambda r: x / (r * math.prod(m * (r - 1) + n + i for i in range(1, m + 1))))


def _ml_terms(a, b, x):
    return _series_terms(1 / math.gamma(b), lambda r: x * math.exp(math.lgamma(a * (r - 1) + b) - math.lgamma(a * r + b)))


def _h3_terms(n, x, y):
    return [math.factorial(n) * x ** (n - 3 * k) * y**k / (math.factorial(n - 3 * k) * math.factorial(k))
            for k in range(n // 3 + 1)]


def _conditioned(rng, n, draw, terms):
    """n points draw(rng), each redrawn until _condition(terms(point)) <= COND_MAX."""
    out = []
    while len(out) < n:
        p = draw(rng)
        if _condition(terms(p)) <= COND_MAX:
            out.append(p)
    return out


def _away_from_poles(rng, lo, hi, n, gap=0.05):
    out = []
    while len(out) < n:
        x = rng.uniform(lo, hi)
        if x > 0 or abs(x - round(x)) >= gap:
            out.append(x)
    return out


# -- scalar-grid ---------------------------------------------------------------

# (n, m) for laguerre_e_nm, (alpha, beta) for the general Mittag-Leffler slots
# and (alpha, beta, n) for the binomial power: one slot each per round.
_LE_NM = [(n, m) for m in (1, 2) for n in range(6)]
_ML_FRAC = [(a, b) for a in (0.4, 0.5, 0.75, 1.25, 1.5, 2.5) for b in (0.5, 1.5)]
_ML_BINOM = [(0.5, 1.0, 20), (0.75, 1.5, 24), (1.5, 0.5, 28), (2.5, 1.0, 32),
             (0.4, 2.0, 20), (1.25, 1.0, 24), (0.5, 0.5, 28), (1.0, 1.0, 32)]
_H3_N = (6, 9, 12, 15, 18, 24)


def _scalar_round(rng: random.Random) -> list[Op]:
    ops: list[Op] = []
    g = 16

    for _ in range(12):
        xs = _conditioned(rng, g, lambda r: r.uniform(-8.0, 40.0), _le_terms)
        ops.append(Op("le_real", lambda xs=xs: [special.laguerre_exp(x) for x in xs], xs, _sum_values))
    for _ in range(8):
        zs = _conditioned(rng, g, lambda r: cmath.rect(r.uniform(0.0, 20.0), r.uniform(0.0, 2 * math.pi)), _le_terms)
        ops.append(Op("le_complex", lambda zs=zs: [special.laguerre_exp(z) for z in zs],
                      enc_list(zs), _sum_values))
    for name, fn, terms in (("lc", special.laguerre_cos, _lc_terms), ("ls", special.laguerre_sin, _ls_terms)):
        for _ in range(6):
            xs = _conditioned(rng, g, lambda r: r.uniform(-40.0, 40.0), terms)
            ops.append(Op(name, lambda xs=xs, fn=fn: [fn(x) for x in xs], xs, _sum_values))
    for n, m in _LE_NM:
        xs = _conditioned(rng, g, lambda r: r.uniform(-15.0, 15.0), lambda x, n=n, m=m: _le_nm_terms(n, m, x))
        ops.append(Op("le_nm", lambda xs=xs, n=n, m=m: [special.laguerre_e_nm(n, m, x) for x in xs],
                      {"n": n, "m": m, "x": xs}, _sum_values))
    ml_closed = (
        ("ml_exp", 1.0, 1.0, lambda r: r.uniform(-2.0, 10.0)),
        ("ml_cos", 2.0, 1.0, lambda r: -r.uniform(0.0, 4.0) ** 2),
        ("ml_erfcx", 0.5, 1.0, lambda r: -r.uniform(0.0, 1.6)),
    )
    for name, a, b, draw in ml_closed:
        for _ in range(4):
            xs = _conditioned(rng, 8, draw, lambda x, a=a, b=b: _ml_terms(a, b, x))
            ops.append(Op(name, lambda xs=xs, a=a, b=b: [special.mittag_leffler(a, b, x) for x in xs],
                          {"alpha": a, "beta": b, "x": xs}, _sum_values))
    for a, b in _ML_FRAC:
        xs = _conditioned(rng, 8, lambda r: r.uniform(-1.5, 2.0), lambda x, a=a, b=b: _ml_terms(a, b, x))
        ops.append(Op("ml_frac", lambda xs=xs, a=a, b=b: [special.mittag_leffler(a, b, x) for x in xs],
                      {"alpha": a, "beta": b, "x": xs}, _sum_values))
    for n in _H3_N:
        pts = [(_rational(rng), _rational(rng)) for _ in range(g)]
        ops.append(Op("h3_exact", lambda pts=pts, n=n: [special.hermite3(n, x, y) for x, y in pts],
                      {"n": n, "xy": [[enc_num(x), enc_num(y)] for x, y in pts]}, enc_list))
    for n in _H3_N:
        pts = _conditioned(rng, g, lambda r: (r.uniform(-2.0, 2.0), r.uniform(-2.0, 2.0)),
                           lambda p, n=n: _h3_terms(n, *p))
        ops.append(Op("h3_float", lambda pts=pts, n=n: [special.hermite3(n, x, y) for x, y in pts],
                      {"n": n, "xy": pts}, enc_list))
    for _ in range(4):
        xs = _away_from_poles(rng, -6.0, 40.0, 2 * g)
        ops.append(Op("gamma", lambda xs=xs: [gammafn.gamma(x) for x in xs], xs, enc_list))
    for _ in range(4):
        xs = _away_from_poles(rng, -6.0, 40.0, 2 * g - 4) + [0.0, -1.0, -3.0, -5.0]
        ops.append(Op("recip_gamma", lambda xs=xs: [gammafn.recip_gamma(x) for x in xs], xs, enc_list))
    for _ in range(4):
        xs = _uniform(rng, 0.05, 300.0, 2 * g)
        ops.append(Op("log_gamma_real", lambda xs=xs: [gammafn.log_gamma_real(x) for x in xs], xs, enc_list))
    for _ in range(8):
        pts = [(rng.uniform(-4.0, 4.0), rng.uniform(-4.0, 4.0)) for _ in range(12)]
        ops.append(Op("semigroup", lambda pts=pts: [umbral.laguerre_semigroup_check(x, y) for x, y in pts],
                      pts, enc_list))
    for a, b, n in _ML_BINOM:
        # x and y of one sign: every binomial term then has the same sign
        pts = [(sign * rng.uniform(0.0, 1.0), sign * rng.uniform(0.0, 1.0))
               for sign in (rng.choice((-1.0, 1.0)) for _ in range(g))]
        ops.append(Op("ml_binom", lambda pts=pts, a=a, b=b, n=n: [umbral.ml_binomial_pow(a, b, n, x, y) for x, y in pts],
                      {"alpha": a, "beta": b, "n": n, "xy": pts}, enc_list))
    return ops


# -- exact-operator ------------------------------------------------------------

# (d-power of X, x-power of Y) menu; each pair runs once with a real rational
# scale on X and once with an imaginary one, so half the work carries i.
_PAIRS = ((2, 1), (2, 2), (3, 1), (1, 2))
_ZASS_LOW = [(p, g) for p in _PAIRS[:3] for g in (4, 5, 6)]
_ZASS_MID = [((2, 1), 7), ((3, 1), 7), ((1, 2), 8)]
# The tail: six grade-10 calls of nearly equal cost (each pair once real and
# once with i) and two dearer ones.  A run holds about 5.8 operations per
# round above its 90th percentile, so that percentile falls inside the
# grade-10 cluster whatever the number of rounds, not on the seam between
# two grades.
_ZASS_TAIL = [((2, 1), 10), ((3, 1), 10), ((1, 2), 10), ((2, 1), 10), ((3, 1), 10), ((1, 2), 10),
              ((2, 1), 11), ((3, 1), 12)]
# (pair, grade of the exponent, max degree, X carries i)
_GRADED_EXP = [((2, 1), 1, 8, False), ((1, 2), 1, 12, True), ((2, 2), 2, 10, False), ((3, 1), 3, 12, True),
               ((2, 1), 1, 10, True), ((3, 1), 2, 12, False), ((2, 2), 1, 6, False), ((1, 2), 3, 9, True)]


def _exact_round(rng: random.Random) -> list[Op]:
    ops: list[Op] = []
    decks: dict = {}

    def draw(cls, which) -> Fraction:
        return decks.setdefault((cls, which), _Deck(rng))()

    def scale(cls, which, imaginary=False) -> GaussianRational:
        q = draw(cls, which)
        return GaussianRational(0, q) if imaginary else GaussianRational(q)

    def poly(cls, degree):
        return Polynomial({k: draw(cls, "poly") for k in range(degree + 1)})

    def zass(pq, grade, imaginary, cls):
        x_el = WeylElement.d_op(pq[0]).scale(scale(cls, "x", imaginary))
        y_el = WeylElement.x_op(pq[1]).scale(scale(cls, "y"))
        ops.append(Op(cls, lambda: weyl.zassenhaus_coeff(x_el, y_el, grade),
                      {"x": enc_weyl(x_el), "y": enc_weyl(y_el), "grade": grade,
                       "ring": "gauss" if imaginary else "real"},
                      lambda r: {str(m): enc_weyl(c) for m, c in r.items()}))

    for i, (pq, grade) in enumerate(_ZASS_LOW):
        zass(pq, grade, i % 2 == 1, "zassenhaus_low")
        zass(pq, grade, i % 2 == 0, "zassenhaus_low")
    for pq, grade in _ZASS_MID:
        zass(pq, grade, False, "zassenhaus_mid")
        zass(pq, grade, True, "zassenhaus_mid")
    for i, (pq, grade) in enumerate(_ZASS_TAIL):
        zass(pq, grade, i % 2 == 1, "zassenhaus_tail")

    for (p, q), grade, max_degree, imaginary in _GRADED_EXP:
        el = (WeylElement.d_op(p).scale(scale("graded_exp", "x", imaginary))
              + WeylElement.x_op(q).scale(scale("graded_exp", "y")))
        ops.append(Op("graded_exp", lambda el=el, g=grade, k=max_degree:
                      weyl.graded_exp(GradedOpSeries.single(g, el, k)),
                      {"el": enc_weyl(el), "grade": grade, "max": max_degree}, enc_graded))
    for order, imaginary in ((4, False), (6, True), (7, False), (8, True)):
        a = scale("berry", "a", imaginary)
        b = scale("berry", "b")
        ops.append(Op("berry", lambda a=a, b=b, o=order: weyl.berry_graded_check(a, b, o),
                      {"a": enc_num(a), "b": enc_num(b), "order": order}, bool))
    for m, order in ((1, 6), (2, 5), (2, 6), (3, 4)):
        f = poly("crofton", 3)
        p = poly("crofton", 5)
        ops.append(Op("crofton", lambda f=f, p=p, m=m, o=order: weyl.crofton_glaisher_check(f, p, m, o),
                      {"f": enc_poly(f), "p": enc_poly(p), "m": m, "order": order}, bool))
    for kernel_name, n_max, degree in (("laguerre", 8, 5), ("exp", 8, 6), ("laguerre", 12, 7), ("exp", 12, 4)):
        kernel = solvers.LAGUERRE_KERNEL if kernel_name == "laguerre" else solvers.EXP_KERNEL
        f = {k: draw("transport", "f") for k in range(degree + 1)}
        alpha = draw("transport", "alpha")
        ops.append(Op("transport", lambda f=f, a=alpha, n=n_max, k=kernel: solvers.solve_laguerre_transport(f, a, n, k),
                      {"f": [[k, enc_num(c)] for k, c in f.items()], "alpha": enc_num(alpha),
                       "n_max": n_max, "kernel": kernel_name}, enc_bivariate))
    for n_max, imaginary in ((6, False), (8, True), (9, False), (10, True), (12, False), (12, True)):
        phi = poly("schrodinger_general", 3)
        a = scale("schrodinger_general", "a", imaginary)
        b = scale("schrodinger_general", "b")
        ops.append(Op("schrodinger_general",
                      lambda phi=phi, a=a, b=b, n=n_max: solvers.solve_laguerre_schrodinger_general(phi, a, b, n),
                      {"phi": enc_poly(phi), "alpha": enc_num(a), "beta": enc_num(b), "n_max": n_max},
                      enc_bivariate))
    return ops


# -- series-evolution ----------------------------------------------------------

_ALPHAS = (Fraction(1, 2), Fraction(2, 5), Fraction(3, 4))


def _series_round(rng: random.Random) -> list[Op]:
    ops: list[Op] = []

    def vn_op(cls, fn, f_terms, args, inputs):
        f = FracSeries(f_terms)
        inputs = dict(inputs, f=[[enc_num(e), enc_num(c)] for e, c in f_terms])
        ops.append(Op(cls, lambda: fn(f, *args), inputs, enc_vnstate))

    for i in range(15):
        m = i % 4
        c = _rational(rng)
        order = 10 + 2 * (i % 6)
        y0 = _rational(rng)
        vn_op("laguerre_vn_one", volterra.laguerre_vn_solve, [(m, c)], (y0, 40, order),
              {"y0": enc_num(y0), "order": order})
    for i in range(10):
        terms = [(k, _rational(rng)) for k in sorted(rng.sample(range(4), 2))]
        order = 8 + i % 4
        y0 = _rational(rng)
        vn_op("laguerre_vn_multi", volterra.laguerre_vn_solve, terms, (y0, 40, order),
              {"y0": enc_num(y0), "order": order})
    for i in range(15):
        alpha = _ALPHAS[i % 3]
        a_arg = float(alpha) if i % 2 else alpha
        c = rng.uniform(0.2, 2.0)
        order = 8 + i % 5
        vn_op("fractional_vn_one", volterra.fractional_vn_solve, [(1, -c)], (a_arg, 1, 40, order),
              {"alpha": enc_num(a_arg), "c": c, "y0": 1, "order": order})
    for i in range(5):
        alpha = _ALPHAS[i % 3]
        terms = [(0, rng.uniform(-1, 1)), (2, rng.uniform(-1, 1))]
        vn_op("fractional_vn_multi", volterra.fractional_vn_solve, terms, (alpha, 1.0, 40, 6),
              {"alpha": enc_num(alpha), "y0": 1.0, "order": 6})

    def dyson_op(cls, grid, alpha, order, variant, n):
        m = volterra.MatrixSeries(grid)
        ops.append(Op(cls, lambda: volterra.dyson_evolution_operator(m, alpha, 40, order, variant),
                      {"m": [[enc_fracseries(s) for s in row] for row in grid], "alpha": enc_num(alpha),
                       "order": order, "variant": variant, "n": n},
                      enc_matrix_series))

    def const_grid(n, order):
        return [[FracSeries.constant(_rational(rng), order) for _ in range(n)] for _ in range(n)]

    for i in range(10):
        n = 2 + i % 2
        alpha = Fraction(1) if i < 4 else _ALPHAS[i % 3]
        order = 8 if alpha == 1 else 5
        dyson_op("dyson_recursion_const", const_grid(n, order), alpha, order, "recursion", n)
    for i in range(5):
        n = 2 + i % 2
        order = 6
        grid = [[FracSeries([(0, _rational(rng)), (1, _rational(rng))], order)
                 for _ in range(n)] for _ in range(n)]
        dyson_op("dyson_recursion_tdep", grid, Fraction(1, 2) if i % 2 else Fraction(1), order, "recursion", n)
    for i in range(15):
        n = 2 + i % 2
        alpha = (Fraction(1), Fraction(1, 2), Fraction(3, 4))[i % 3]
        order = 6 if n == 2 else 4
        dyson_op("dyson_literal", const_grid(n, order), alpha, order, "literal", n)
    for i in range(10):
        a, b = _rational(rng), _rational(rng)
        mu = _ALPHAS[i % 3]
        n_max = 8 + i % 5
        ops.append(Op("fractional_schrodinger_series",
                      lambda a=a, b=b, mu=mu, n=n_max: solvers.fractional_schrodinger_series(a, b, mu, n),
                      {"alpha": enc_num(a), "beta": enc_num(b), "mu": enc_num(mu), "n_max": n_max},
                      enc_bivariate))
    for i in range(15):
        alpha = _ALPHAS[i % 3]
        a_arg = float(alpha) if i % 2 else alpha
        # exponents at least 1 keep every laguerre_fractional_derivative step legal
        exps = sorted(rng.sample(range(2, 12), 5))
        terms = [(Fraction(e, 2), _rational(rng)) for e in exps]
        if i % 2:
            terms = [(float(e), float(c)) for e, c in terms]
        s = FracSeries(terms)

        def chain(s=s, a=a_arg):
            up = series.rl_integral(s, a)
            down = series.laguerre_fractional_derivative(up, a)
            return series.rl_integral(down, 1), down

        ops.append(Op("rl_chain", chain, {"s": [[enc_num(e), enc_num(c)] for e, c in terms], "alpha": enc_num(a_arg)},
                      lambda r: [enc_fracseries(r[0]), enc_fracseries(r[1])]))
    return ops


# -- cli-session ---------------------------------------------------------------

# Config files written at set-up, one per solve kind.
CLI_CONFIGS = {
    "transport": {"kind": "transport", "initial": [5, -2, 0, 1], "alpha": "3/7", "n_max": 8},
    "drift": {"kind": "drift", "alpha": 1.0, "beta": 0.5, "t": 0.25, "x_grid": [0.0, 0.5, 1.0, 1.5]},
    "schrodinger": {"kind": "schrodinger", "alpha": "1/3", "beta": "2/5", "phi": [1, "1/2", 1], "n_max": 10},
    "matrix": {"kind": "matrix", "m": [[0.2, 0.5], [-0.3, 0.1]], "t": 0.7},
    "fractional-matrix": {"kind": "fractional-matrix", "m": [[0.2, 0.5], [-0.3, 0.1]], "mu": 0.5,
                          "t": 0.6, "y0": [1, 0]},
    "fractional-schrodinger": {"kind": "fractional-schrodinger", "alpha": "1/2", "beta": "1/3",
                               "mu": "1/2", "series": True, "n_max": 10},
    "vn": {"kind": "vn", "f": {"terms": [[1, -1]]}, "order": 20},
    "fractional-vn": {"kind": "fractional-vn", "f": {"terms": [[1, -1]]}, "alpha": 0.5, "order": 8},
    "dyson": {"kind": "dyson", "m": [[0, 1], [-1, 0]], "alpha": 1, "order": 10, "t_eval": [0.5, 1.0]},
}

# Evals are most of the script so that the median call is an eval, inside a
# cluster of calls of nearly equal cost.
CLI_EVALS = (
    ("le", "1"), ("le", "-4.5"), ("le", "17.25"), ("le", "0.5"), ("le", "-3"), ("lc", "3.5"), ("lc", "-12"),
    ("lc", "0.75"), ("lc", "25"), ("ls", "7.5"), ("ls", "-20"), ("ls", "1.5"), ("ls", "40"),
    ("le_nm", "2", "1", "4.5"), ("le_nm", "1", "1", "-7"), ("le_nm", "0", "1", "2"), ("le_nm", "3", "2", "-1.5"),
    ("ml", "0.5", "1", "0.3"), ("ml", "0.5", "1", "-1.5"), ("ml", "2", "1", "-4"), ("ml", "1", "1", "2.5"),
    ("ml", "0.75", "1.5", "-0.8"), ("ml", "1.5", "0.5", "1.2"), ("ml", "0.5", "1", "-1.25"),
    ("h3", "6", "2", "1"), ("h3", "9", "0.5", "-1.25"), ("h3", "12", "-0.75", "0.5"),
)

# The slowest suites appear several times so that the slowest tenth of the
# script is one kind of call, not the seam between two.
CLI_VERIFY = ("special", "umbral", "peo", "weyl", "weyl", "weyl", "vn", "vn", "vn")


def write_cli_configs(directory: str) -> dict[str, str]:
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for kind, cfg in CLI_CONFIGS.items():
        path = os.path.join(directory, f"{kind}.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        paths[kind] = path
    return paths


def cli_call(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(argv)
    return {"rc": rc, "out": out.getvalue(), "err": err.getvalue()}


def cli_script(config_paths: dict[str, str]) -> list[list[str]]:
    script = [["eval", *e] for e in CLI_EVALS]
    script += [["solve", config_paths[k]] for k in CLI_CONFIGS]
    script += [["plot-trig", "-10", "10", "0.25"]]
    script += [["verify", s] for s in CLI_VERIFY]
    return script


def _cli_round(script: list[list[str]]) -> list[Op]:
    return [Op("cli_" + argv[0].replace("-", "_"), lambda argv=argv: cli_call(argv),
               {"argv": argv}, lambda r: r) for argv in script]


def build_round(workload: str, seed: int, index: int, cli_paths=None) -> list[Op]:
    rng = random.Random(f"{seed}:{workload}:{index}")
    if workload == "scalar-grid":
        return _scalar_round(rng)
    if workload == "exact-operator":
        return _exact_round(rng)
    if workload == "series-evolution":
        return _series_round(rng)
    if workload == "cli-session":
        return _cli_round(cli_script(cli_paths))
    raise ValueError(f"unknown workload {workload!r}")
