"""Iterative solvers: Volterra-Neumann expansions and time-ordered series.

The pattern shared by everything here: an evolution equation whose time
derivative is a pseudo-derivative gets rewritten as a fixed-point problem
Y = Y0 + K[f Y], with K the matching antiderivative (the inverse Laguerre
derivative, or the Riemann-Liouville integral of order alpha).  Iterating
from Y0 produces a sequence whose valuations strictly climb, so any finite
truncation order is reached after finitely many rounds.  Each solver
records the iterates and their partial sum in a VNState so tests can
check the fixed-point residual rather than trusting the loop.

The time-ordered (Dyson-style) expansion does the same with a matrix
kernel, where operator ordering matters: the generator always multiplies
from the left at the latest time.  Both of its variants run on one
private form, the exponent map: a dict from each exponent to the n x n
matrix of its coefficients.  One step then costs one matrix product per
pair of exponents and one integral factor per exponent, where the
entrywise form cost n^3 series products.  A MatrixSeries (a grid of
FracSeries) is read into the map on entry and built from it on exit.

A scalar Volterra-Neumann problem is the 1 x 1 case of that recursion,
started from y0 instead of the identity, so both VN solvers and the
recursion variant run one Neumann loop, `_neumann`.  Every test of an
exponent against a truncation order here is the rule of FracSeries,
`series._above`: past the order and not the same exponent as it.

Exact runs (`_neumann` with an integer shift and int or Fraction exponents
and entries, `_dyson_literal` at alpha = 1 with such entries) hold each
matrix as integer numerators over one positive denominator, (den, rows),
reduced by one gcd a step, not one per Fraction product and sum; on exit
nonzero entries are Fraction, zeros int 0.  Other runs keep their order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import itemgetter, mul
from typing import Sequence

from .errors import DomainError
from .gammafn import beta, recip_gamma
from .series import (
    FracSeries,
    _above,
    _as_integer,
    _negligible,
    _rl_integral_factor,
    series_eval,
    series_max_deviation,
)


@dataclass(frozen=True)
class VNState:
    """Iterates of one Volterra-Neumann run plus their accumulated sum."""

    iterates: tuple
    partial_sum: object

    def iterate(self, n: int):
        return self.iterates[n]


def _vn_solve(f: FracSeries, y0, shift, factor, n_iter: int, order, label: str) -> VNState:
    # The scalar problem is the 1 x 1 Dyson recursion started from y0.
    steps, total = _neumann(MatrixSeries([[f]]), [[y0]], shift, factor, n_iter, order, label)

    def series(pairs):
        return FracSeries([(e, mat[0][0]) for e, mat in pairs], order, truncated=True)

    iterates = [FracSeries.constant(y0, order)]
    iterates += [series((e, mat) for e, _, mat in step) for step in steps]
    return VNState(tuple(iterates), series(total.items()))


def laguerre_vn_solve(f: FracSeries, y0, n_iter: int, order) -> VNState:
    """Neumann iteration for the Laguerre-derivative growth problem.

    Solves (t d/dt t d/dt-style) Y' = f Y, Y(0) = y0, by iterating
    Y_{n+1} = inverse-Laguerre-derivative of (f Y_n), which takes
    c t^e to c t^(e+1) / (e+1)^2.  Exact in rationals for rational f.
    Stops early once an iterate has no term up to `order`; the partial sum
    is truncated there as well.
    """
    if not float(f.valuation()) > -1.0:
        raise DomainError("laguerre_vn_solve needs f exponents > -1")
    def factor(e):  # one Fraction for an exact e, where Fraction(1) / k made two
        k = (e + 1) * (e + 1)
        return Fraction(1, k) if isinstance(k, (int, Fraction)) else Fraction(1) / k

    return _vn_solve(f, y0, 1, factor, n_iter, order, "laguerre_vn_solve")


def fractional_vn_solve(f: FracSeries, alpha, y0, n_iter: int, order) -> VNState:
    """Neumann iteration for the fractional relaxation problem.

    Solves D^alpha Y = f Y with memory of Y(0) = y0, iterating
    Y_{n+1} = I^alpha (f Y_n), where I^alpha is the Riemann-Liouville
    integral.  The convolution kernel (t - tau)^(alpha-1)/Gamma(alpha)
    acting on a power is exactly the termwise Gamma-quotient rule.
    """
    if not 0.0 < float(alpha) <= 1.0:
        raise DomainError(f"fractional_vn_solve needs alpha in (0, 1], got {alpha}")
    if not float(f.valuation()) > -1.0:
        raise DomainError("fractional_vn_solve needs f exponents > -1")
    return _vn_solve(f, y0, *_rl_kernel(alpha), n_iter, order, "fractional_vn_solve")


def _rl_kernel(alpha):
    """(shift, factor) of I^alpha: c t^e -> c factor(e) t^(e + shift)."""
    a_int = _as_integer(alpha)
    shift = alpha if a_int is None else a_int
    return shift, lambda e: _rl_integral_factor(e, a_int, alpha)


def fractional_vn_monomial_closed_form(n: int, alpha, t):
    """Iterate n for the kernel f = -t, in closed form.

    (-t^(alpha+1)/Gamma(alpha))^n prod_{k<n} B(k (alpha+1) + 2, alpha).
    The empty product makes n = 0 the constant 1.
    """
    if n < 0:
        raise DomainError(f"iterate index must be >= 0, got {n}")
    a = float(alpha)
    if not 0.0 < a <= 1.0:
        raise DomainError(f"needs alpha in (0, 1], got {alpha}")
    if n == 0:
        return 1.0
    base = -(float(t) ** (a + 1.0)) * recip_gamma(a)
    prod = 1.0
    for k in range(n):
        prod *= beta(k * (a + 1.0) + 2.0, a)
    return base**n * prod


# -- cosine-kernel recursion -----------------------------------------------------


def cosine_series(order) -> FracSeries:
    """Maclaurin cosine as a FracSeries, exact rationals, through `order`."""
    terms = []
    j = 0
    while 2 * j <= float(order):
        terms.append((2 * j, Fraction((-1) ** j, math.factorial(2 * j))))
        j += 1
    return FracSeries(terms, order, truncated=True)


def cos_recursion_coeffs(n: int, r_max: int) -> list[Fraction]:
    """Coefficient table row n for the cosine-kernel Neumann iterates.

    Row 1 is a_r = 1/(2r)!; each later row folds the previous one against
    the cosine coefficients:

        a_r(n) = sum_{k<=r} a_k(n-1) / ((2k + n - 1)^2 (2(r-k))!)

    All exact rationals.
    """
    if n < 1:
        raise DomainError(f"row index must be >= 1, got {n}")
    row = [Fraction(1, math.factorial(2 * r)) for r in range(r_max + 1)]
    for m in range(2, n + 1):
        row = [
            sum(
                (
                    row[k]
                    / ((2 * k + m - 1) ** 2 * math.factorial(2 * (r - k)))
                    for k in range(r + 1)
                ),
                Fraction(0),
            )
            for r in range(r_max + 1)
        ]
    return row


def cos_recursion_iterate(n: int, r_max: int) -> FracSeries:
    """Iterate n assembled from the coefficient table:

    Y_n(t) = sum_r (-1)^r t^(2r+n) a_r(n) / (2r + n)^2
    """
    coeffs = cos_recursion_coeffs(n, r_max)
    terms = [
        (2 * r + n, Fraction((-1) ** r) * c / (2 * r + n) ** 2)
        for r, c in enumerate(coeffs)
    ]
    return FracSeries(terms, 2 * r_max + n, truncated=True)


# -- matrix series ---------------------------------------------------------------


class MatrixSeries:
    """Square matrix whose entries are FracSeries in t.

    This is the public form of a matrix-valued series: it is built, read
    entry by entry, evaluated and compared.  The time-ordered solvers do
    not compute on it: they read it once into an exponent map, a dict
    from each exponent to the n x n matrix of its coefficients, iterate
    on that, and build a MatrixSeries again on exit.
    """

    __slots__ = ("grid", "n")

    def __init__(self, grid: Sequence[Sequence[FracSeries]]):
        rows = [list(row) for row in grid]
        n = len(rows)
        if not n or any(len(row) != n for row in rows):
            raise DomainError("MatrixSeries needs a square grid")
        for row in rows:
            for s in row:
                if not isinstance(s, FracSeries):
                    raise DomainError("MatrixSeries entries must be FracSeries")
        self.grid = rows
        self.n = n

    @classmethod
    def constant(cls, matrix, order=math.inf) -> "MatrixSeries":
        return cls(
            [[FracSeries.constant(c, order) for c in row] for row in matrix]
        )

    def entry(self, i: int, j: int) -> FracSeries:
        return self.grid[i][j]

    def valuation(self):
        return min(s.valuation() for row in self.grid for s in row)

    def coeff_matrix(self, exponent):
        return [
            [self.grid[i][j].coeff(exponent) for j in range(self.n)]
            for i in range(self.n)
        ]

    def eval(self, t):
        return [
            [series_eval(self.grid[i][j], t) for j in range(self.n)]
            for i in range(self.n)
        ]

    def __repr__(self):
        return f"MatrixSeries(n={self.n}, valuation={self.valuation()})"


def matrix_series_max_deviation(a: MatrixSeries, b: MatrixSeries, up_to=None) -> float:
    if a.n != b.n:
        raise DomainError(f"matrix_series_max_deviation needs equal sizes, got {a.n} and {b.n}")
    worst = 0.0
    for i in range(a.n):
        for j in range(a.n):
            x, y = a.entry(i, j), b.entry(i, j)
            if up_to is not None:
                x, y = (FracSeries(s.terms, up_to, truncated=True) for s in (x, y))
            worst = max(worst, series_max_deviation(x, y))
    return worst


def _exponent_matrices(m: MatrixSeries) -> dict:
    """M as {exponent: coefficient matrix}, with 0 where an entry lacks the power."""
    mats = {}
    for i, row in enumerate(m.grid):
        for j, s in enumerate(row):
            for e, c in s.terms:
                if e not in mats:
                    mats[e] = [[0] * m.n for _ in range(m.n)]
                mats[e][i][j] = c
    return mats


def _types(mats) -> set:
    return {type(c) for mat in mats for row in mat for c in row}


def _real_float_copy(mats: dict) -> dict:
    """mats with float entries if all are int, Fraction or float, else mats.

    Fraction * float is float(Fraction) * float, so once the other factor
    is float the copy gives the same products, faster.
    """
    if _types(mats.values()) <= {int, Fraction, float}:
        return {e: [[float(c) for c in row] for row in mat] for e, mat in mats.items()}
    return mats


def _exact(mat):
    """An int and Fraction matrix as (den, integer rows), den > 0."""
    den = math.lcm(*(c.denominator for row in mat for c in row))
    return den, [[c.numerator * (den // c.denominator) for c in row] for row in mat]


def _reduced(mat):
    """An exact matrix over its least denominator; a list matrix as given."""
    if type(mat) is tuple and (g := math.gcd(mat[0], *(x for row in mat[1] for x in row))) > 1:
        mat = mat[0] // g, [[x // g for x in row] for row in mat[1]]
    return mat


def _entries(mat):
    """A matrix's coefficients: an exact one's as Fraction, or int 0 where zero."""
    return [[x and Fraction(x, mat[0]) for x in row] for row in mat[1]] if type(mat) is tuple else mat


def _from_exponent_matrices(mats: dict, n: int, order) -> MatrixSeries:
    # FracSeries drops the zero coefficients and merges float exponents
    # that differ only by rounding.
    return MatrixSeries(
        [
            [
                FracSeries(
                    [(e, mat[i][j]) for e, mat in mats.items()], order, truncated=True
                )
                for j in range(n)
            ]
            for i in range(n)
        ]
    )


# -- time-ordered evolution operator ----------------------------------------------


def dyson_evolution_operator(
    m: MatrixSeries,
    alpha,
    n_iter: int,
    order,
    variant: str = "recursion",
) -> MatrixSeries:
    """Time-ordered evolution operator for D^alpha Y = M(t) Y.

    variant="recursion" iterates the fixed-point form

        U_{n+1}(t) = I^alpha [ M U_n ](t),   U_0 = 1,

    which keeps the generator at the latest time on the left and, for
    constant M, telescopes to the Mittag-Leffler matrix function of
    M t^alpha (the classical exponential at alpha = 1).

    variant="literal" instead nests every convolution kernel with the
    OUTER time, (t - t_k)^(alpha-1) for all k.  That reading is not the
    fixed-point iteration and the two disagree for alpha < 1 (they
    coincide at alpha = 1); it is kept so the discrepancy can be measured
    rather than argued about.  It requires integer exponents in M.
    """
    if not 0.0 < float(alpha) <= 1.0:
        raise DomainError(f"dyson needs alpha in (0, 1], got {alpha}")
    if variant == "recursion":
        if float(m.valuation()) < 0.0:
            raise DomainError("dyson needs M exponents >= 0")
        identity = [[int(i == j) for j in range(m.n)] for i in range(m.n)]
        _, total = _neumann(m, identity, *_rl_kernel(alpha), n_iter, order, "dyson_evolution_operator")
        return _from_exponent_matrices(total, m.n, order)
    if variant == "literal":
        return _dyson_literal(m, alpha, n_iter, order)
    raise DomainError(f"unknown dyson variant {variant!r}")


def _product(a, b):
    """A @ B, each entry summed over k in order; exact denominators multiply."""
    if type(a) is tuple:
        return a[0] * b[0], _product(a[1], b[1])
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def _scaled(mat, w):
    """An exact matrix times an int or Fraction w: numerators by its numerator, den by its denominator."""
    p, q = w.as_integer_ratio()
    return mat[0] * q, [[x * p for x in row] for row in mat[1]]


def _pair_products(pairs, n, w):
    """w times the sum of A @ B over the (A, B) in pairs: one exponent's K[M U].

    Entry (i, j) adds, for k = 0, 1, ..., the sum over the pairs of
    A[i][k] B[k][j], leaving out zero factors, to round as the entrywise
    Cauchy products of the series did, and so that a 0 for a missing term
    never makes an exact sum float; a negligible product with w is 0.
    Exact products add over the lcm of their denominators and reduce.
    """
    if type(pairs[0][0]) is tuple:
        return _reduced(_scaled(reduce(_mat_add, [_product(a, b) for a, b in pairs]), w))
    out = []
    for i in range(n):
        rows = [(a[i], b) for a, b in pairs]
        out_row = []
        for j in range(n):
            total = 0
            for k in range(n):
                s = 0
                for a_row, b in rows:
                    x = a_row[k]
                    if x:
                        y = b[k][j]
                        if y:
                            s = s + x * y
                total = total + s
            out_row.append(0 if _negligible(v := total * w) else v)
        out.append(out_row)
    return out


def _mat_add(a, b):
    if type(a) is tuple:  # both over the lcm of the denominators
        sa, sb = (den := math.lcm(a[0], b[0])) // a[0], den // b[0]
        return den, [[x * sa + y * sb for x, y in zip(ra, rb)] for ra, rb in zip(a[1], b[1])]
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _neumann(m: MatrixSeries, start, shift, factor, n_iter: int, order, label: str):
    """The Neumann iteration U_{k+1} = K[M U_k] on the exponent map.

    K takes c t^e to c factor(e) t^(e + shift), and U_0 is the constant
    matrix `start`.  Returns the iterates after U_0, each a list of
    (exponent, its float, coefficient matrix), and their sum with U_0 as
    an exponent map.  When the run stops on an empty iterate, that empty
    list is the last iterate.  Each iterate's valuation must exceed the
    last one's by shift + valuation(M); less means the kernel lost its
    smoothing, and the run raises.
    """
    n = m.n
    gain = float(shift) + float(m.valuation())
    cap = float(order)
    # Row i of M U stops at the least truncation order in row i of M.
    caps = [min([cap] + [float(s.truncation_order) for s in row]) for row in m.grid]
    cap_lo, cap_hi = min(caps), max(caps)
    zero_row = [0] * n

    def by_exponent(mats):
        return sorted(((float(e), e, mat) for e, mat in mats.items()), key=itemgetter(0))

    m_mats = _exponent_matrices(m)
    # an integer shift (so 1) and exact exponents make every factor(e) a Fraction
    types = _types([start, *m_mats.values()]) | {type(e) for e in m_mats}
    if exact := _as_integer(shift) is not None and types <= {int, Fraction}:
        m_mats = {e: _exact(mat) for e, mat in m_mats.items()}
    m_terms = by_exponent(m_mats)
    # A fractional shift means Gamma-quotient factors, so U is float from
    # the first step on and M is taken as a float copy after it.
    later_terms = by_exponent(_real_float_copy(m_mats)) if _as_integer(shift) is None else m_terms
    current = [(0, 0.0, _exact(start) if exact else start)]
    total = {0: start}  # as given: exact runs have shift 1 and M's exponents > -1
    steps = []
    prev_val = 0.0
    for _ in range(n_iter):
        # pair up the powers of M and U by the exponent of their product
        groups = {}
        for emf, em, mm in m_terms:
            for eu, euf, um in current:
                ef = emf + euf
                if _above(ef, cap_hi):
                    continue
                kept = mm
                if _above(ef, cap_lo):
                    rows = mm[1] if exact else mm
                    rows = [zero_row if _above(ef, c) else row for row, c in zip(rows, caps)]
                    kept = (mm[0], rows) if exact else rows
                groups.setdefault(em + eu, []).append((kept, um))
        m_terms = later_terms
        nxt = []
        for e, pairs in groups.items():
            ex = e + shift
            exf = float(ex)
            if _above(exf, cap):
                continue
            mat = _pair_products(pairs, n, factor(e))
            if any(map(any, mat[1] if exact else mat)):
                nxt.append((ex, exf, mat))
        steps.append(nxt)
        if not nxt:
            break
        val = min(exf for _, exf, _ in nxt)
        if val < prev_val + gain - 1e-12:
            raise ArithmeticError(
                f"{label}: iterate valuation {val} grew less than {gain} over {prev_val}"
            )
        prev_val = val
        for e, _, mat in nxt:
            cur = total.get(e)
            total[e] = mat if cur is None else _reduced(_mat_add(cur, mat))
        current = nxt
    if exact:  # an iterate alone at its exponent is the sum there too: convert it once
        done = {id(mat): _entries(mat) for step in steps for *_, mat in step}
        steps = [[(e, ef, done[id(mat)]) for e, ef, mat in step] for step in steps]
        total = {e: done.get(id(mat)) or _entries(mat) for e, mat in total.items()}
    return steps, total


def _add_scaled(out: dict, key, mat, c) -> None:
    # out[key] += mat * c, a list matrix in place, each entry as out[key] + (x * c)
    cur = out.get(key)
    if type(mat) is tuple:
        out[key] = _scaled(mat, c) if cur is None else _mat_add(cur, _scaled(mat, c))
    elif cur is None:
        out[key] = [[x * c for x in row] for row in mat]
    else:
        for cur_row, row in zip(cur, mat):
            cur_row[:] = [u + x * c for u, x in zip(cur_row, row)]


def _dyson_literal(m: MatrixSeries, alpha, n_iter: int, order) -> MatrixSeries:
    """Nested-kernel reading: every factor carries (t - t_k)^(alpha-1).

    Integrands live in the two-parameter basis t^a (t - s)^q, which is
    closed under the three moves needed: multiplying by integer powers of
    s, convolving against (t - s)^(alpha-1), and evaluating at s = t.
    Every a and q is a sum of integers and alphas, so the state keys them
    as integers (A, Q) in units of 1/d, with alpha = D/d in lowest terms.
    At alpha = 1 an int and Fraction M keeps the state exact, as (den, rows).
    """
    af = Fraction(alpha)
    big_d, d = af.numerator, af.denominator
    inv_g = Fraction(1) if af == 1 else recip_gamma(float(alpha))
    cap = float(order)
    # integer-exponent monomials of M, as matrices
    monomials = {}
    for e, mat in _exponent_matrices(m).items():
        ef = float(e)
        if ef < 0 or ef != math.floor(ef):
            raise DomainError(
                "the literal dyson variant needs integer exponents in M"
            )
        monomials[int(ef)] = mat
    if exact := af == 1 and _types(monomials.values()) <= {int, Fraction}:
        monomials = {k: _exact(mat) for k, mat in monomials.items()}
    # s^k expands as sum_i C(k,i) (-1)^i t^(k-i) (t-s)^i
    binomials = {k: [(-1) ** i * math.comb(k, i) for i in range(k + 1)] for k in monomials}
    # After the first step the state is float when 1/Gamma(alpha) is.
    later = _real_float_copy(monomials) if isinstance(inv_g, float) else monomials

    def integrate(state):
        # t^a (t-s)^q  ->  inv_g/(alpha+q) * [ t^(a+alpha+q) - t^a (t-s)^(alpha+q) ]
        out = {}
        for (a, q), mat in state.items():
            if _above((a + big_d + q) / d, cap):
                continue
            w = inv_g / Fraction(big_d + q, d)
            _add_scaled(out, (a + big_d + q, 0), mat, w)
            _add_scaled(out, (a, big_d + q), mat, -w)
        return out

    def left_multiply(state, mons):
        out = {}
        for k, mk in mons.items():
            for (a, q), mat in state.items():
                if _above((a + q + k * d) / d, cap):
                    continue
                prod = _product(mk, mat)
                for i, c in enumerate(binomials[k]):
                    _add_scaled(out, (a + (k - i) * d, q + i * d), prod, c)
        return out

    ident = [[Fraction(1) if i == j else Fraction(0) for j in range(m.n)] for i in range(m.n)]
    collected = {0: ident}
    state = {(0, 0): _exact(ident) if exact else ident}
    mons = monomials
    for _ in range(n_iter):
        state = {key: _reduced(mat) for key, mat in integrate(left_multiply(state, mons)).items()}
        mons = later
        if not state:
            break
        for (a, q), mat in state.items():
            if q == 0:  # evaluate at s = t: only q = 0 survives
                cur = collected.get(a)
                collected[a] = mat if cur is None else _reduced(_mat_add(cur, mat))
    return _from_exponent_matrices(
        {Fraction(a, d): _entries(mat) for a, mat in collected.items()}, m.n, order
    )
