"""Umbral evaluation of formal integrals.

The formalism: expressions are finite sums of monomials in two families of
formal variables, u-type and v-type.  Evaluation replaces each u-power by a
Gamma value and each v-power by a reciprocal Gamma value,

    u^a  ->  Gamma(a)          (a not in {0, -1, -2, ...})
    v^b  ->  1 / Gamma(b)      (poles give an exact zero)

and multiplies the results together with the scalar coefficient.  Distinct
variable ids evaluate independently, so the image of a product of terms
with disjoint variable support factorizes; inserting a matched pair
u_fresh^a * v_fresh^a changes nothing.  Those two facts are what make the
reshaping tricks behind the pseudo-exponential binomial identities legal,
and both are enforced here by tests rather than assumed.

Variable ids are plain integers, kept fresh by a per-expression
VariableAllocator.  A given id must not appear in both the u and the v
family of one term.

Binomial sums take C(n, s)^2 and (n!)^2 from one table per n_max (floats for
float or complex x: int * x rounds the int first) and each x^k, y^k or Gamma once.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction

from .errors import ConvergenceError, DomainError
from .gammafn import gamma, is_gamma_pole, recip_gamma

SUMMABILITY_TOL = 1e-13
_TAIL_FIT_WINDOW = 10


class VariableAllocator:
    """Monotone source of fresh variable ids for one expression."""

    def __init__(self, start: int = 0):
        self._next = int(start)

    def fresh(self) -> int:
        out = self._next
        self._next += 1
        return out

    def fresh_pair(self) -> tuple[int, int]:
        return self.fresh(), self.fresh()


def _clean_exponents(raw, family: str) -> dict:
    out = {}
    for var_id, exp in dict(raw or {}).items():
        if exp == 0:
            continue
        if family == "u" and is_gamma_pole(exp):
            raise DomainError(
                f"u-exponent {exp} sits on a Gamma pole (variable {var_id})"
            )
        out[int(var_id)] = exp
    return out


class UmbralTerm:
    """coeff * prod u_i^{a_i} * prod v_j^{b_j}."""

    __slots__ = ("coeff", "u_exps", "v_exps")

    def __init__(self, coeff, u_exps: Mapping | None = None, v_exps: Mapping | None = None):
        self.coeff = coeff
        self.u_exps = _clean_exponents(u_exps, "u")
        self.v_exps = _clean_exponents(v_exps, "v")
        shared = set(self.u_exps) & set(self.v_exps)
        if shared:
            raise DomainError(
                f"variable ids {sorted(shared)} appear in both families"
            )

    def __repr__(self):
        us = "".join(f" u{i}^{a}" for i, a in sorted(self.u_exps.items()))
        vs = "".join(f" v{j}^{b}" for j, b in sorted(self.v_exps.items()))
        return f"UmbralTerm({self.coeff!r}{us}{vs})"


def term_product(a: UmbralTerm, b: UmbralTerm) -> UmbralTerm:
    """Merge two terms; exponents of a shared variable id add."""
    u = dict(a.u_exps)
    for i, e in b.u_exps.items():
        u[i] = u.get(i, 0) + e
    v = dict(a.v_exps)
    for j, e in b.v_exps.items():
        v[j] = v.get(j, 0) + e
    return UmbralTerm(a.coeff * b.coeff, u, v)


class UmbralSum:
    """A finite bag of UmbralTerms (a truncated formal expansion)."""

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[UmbralTerm]):
        self.terms = tuple(terms)

    def __len__(self):
        return len(self.terms)


def fio_eval(term: UmbralTerm):
    """Image of one term: coeff * prod Gamma(a_i) * prod 1/Gamma(b_j)."""
    value = term.coeff
    for exp in term.u_exps.values():
        if is_gamma_pole(exp):
            raise DomainError(f"u-exponent {exp} sits on a Gamma pole")
        value = value * gamma(exp)
    for exp in term.v_exps.values():
        value = value * recip_gamma(exp)
    return value


def fio_eval_series(expr: UmbralSum | Sequence[UmbralTerm]):
    """Evaluate a sum of terms, largest magnitudes first, with a tail check.

    Terms are evaluated individually, ordered by decreasing |value| and
    accumulated in that order.  The last _TAIL_FIT_WINDOW nonzero
    magnitudes are fitted with a geometric ratio; the implied tail bound
    must come in below SUMMABILITY_TOL relative to max(1, |sum|), otherwise
    the expansion is declared non-summable.  Fewer than
    _TAIL_FIT_WINDOW nonzero terms counts as a finite sum.
    """
    terms = expr.terms if isinstance(expr, UmbralSum) else tuple(expr)
    values = [fio_eval(t) for t in terms]
    values.sort(key=lambda v: -abs(complex(v)))
    total = 0
    for v in values:
        total = total + v
    mags = [abs(complex(v)) for v in values if v != 0]
    if len(mags) >= _TAIL_FIT_WINDOW:
        window = mags[-_TAIL_FIT_WINDOW:]
        head, last = window[0], window[-1]
        scale = max(1.0, abs(complex(total)))
        if last > 0.0 and head > 0.0:
            ratio = (last / head) ** (1.0 / (_TAIL_FIT_WINDOW - 1))
            if ratio >= 1.0:
                raise ConvergenceError(
                    "umbral sum shows no geometric decay over its tail"
                )
            tail_bound = last * ratio / (1.0 - ratio)
            if tail_bound > SUMMABILITY_TOL * scale:
                raise ConvergenceError(
                    f"umbral tail bound {tail_bound:.3e} exceeds tolerance"
                )
    return total


# -- pseudo-exponential binomials ---------------------------------------------


def _weights(values, num) -> tuple:
    try:  # values as num, int or float; a float overflow is a ConvergenceError
        return tuple(map(num, values))
    except OverflowError:
        raise ConvergenceError("a binomial weight overflows a float") from None


def _laguerre_row(n: int, num) -> tuple:
    return _weights((math.comb(n, s) ** 2 for s in range(n + 1)), num)


@functools.lru_cache(maxsize=4)
def _laguerre_weights(n_max: int, num) -> tuple:
    """Rows C(n, s)^2 and values (n!)^2 for n <= n_max, as num (int or float)."""
    rows = tuple(_laguerre_row(n, num) for n in range(n_max + 1))
    return rows, _weights((math.factorial(n) ** 2 for n in range(n_max + 1)), num)


def _binomial_row_sum(row, xp, yp):
    """sum_s row[s] x^(n-s) y^s left to right, n = len(row) - 1, xp[k] = x^k."""
    total = 0
    for c, xk, ys in zip(row, xp[len(row) - 1 :: -1], yp):
        total = total + c * xk * ys
    return total


def laguerre_binomial_pow(n: int, x, y):
    """(x (+)_l y)^n = sum_s C(n, s)^2 x^(n-s) y^s, exact for exact inputs."""
    if n < 0:
        raise DomainError(f"laguerre_binomial_pow needs n >= 0, got {n}")
    row = _laguerre_row(n, float if type(x) in (float, complex) else int)
    xp, yp = ([z**k for k in range(n + 1)] for z in (x, y))
    return _binomial_row_sum(row, xp, yp)


def ml_binomial_pow(alpha: float, beta: float, n: int, x, y):
    """Mittag-Leffler binomial power, exactly as the closed form states:

        sum_r C(n, r) Gamma(n a + b) x^r y^(n-r)
              / (Gamma(a r + b) Gamma(a (n-r) + b))

    No Gamma argument may sit on a pole.
    """
    if n < 0:
        raise DomainError(f"ml_binomial_pow needs n >= 0, got {n}")
    a, b = float(alpha), float(beta)
    rg = []
    for arg in [a * r + b for r in range(n + 1)]:
        if is_gamma_pole(arg):
            raise DomainError(f"Gamma pole at {arg} in ml_binomial_pow")
        rg.append(recip_gamma(arg))
    top = gamma(a * n + b)  # the r = n argument, checked above
    total = 0
    for r in range(n + 1):
        w = top * rg[r] * rg[n - r]
        total = total + math.comb(n, r) * w * x**r * y ** (n - r)
    return total


def laguerre_semigroup_check(x, y, n_max: int = 40, tol: float | None = None) -> float:
    """Residual of le(x) le(y) = sum_n (x (+)_l y)^n / (n!)^2.

    Returns |product - partial sum| with the partial sum taken to n_max.
    When tol is given, a residual above it raises ArithmeticError.
    """
    from .special import laguerre_exp  # local import, no cycle at module load

    product = laguerre_exp(x).value * laguerre_exp(y).value
    rows, norms = _laguerre_weights(n_max, float if type(x) in (float, complex) else int)
    xp, yp = ([z**k for k in range(n_max + 1)] for z in (x, y))
    acc = 0
    for row, norm in zip(rows, norms):
        acc = acc + _binomial_row_sum(row, xp, yp) / norm
    residual = abs(product - acc)
    if tol is not None and residual > tol:
        raise ArithmeticError(
            f"semigroup residual {residual:.3e} exceeds tol {tol:.3e}"
        )
    return residual


def ml_semigroup_discrepancy(alpha: float, beta: float, n_max: int) -> list[dict]:
    """Coefficient tables for the Mittag-Leffler product vs semigroup forms.

    For each (r, k) with r + k <= n_max this reports the x^r y^k coefficient
    of E(x) E(y) (product side) and of sum_n (x (+)_ml y)^n / Gamma(a n + b)
    (binomial side), plus their ratio.  The two disagree; callers get the
    measured tables, nothing is patched over.
    """
    a, b = float(alpha), float(beta)
    g, rg = ([f(a * k + b) for k in range(n_max + 1)] for f in (gamma, recip_gamma))
    out = []
    for n in range(n_max + 1):
        for r in range(n + 1):
            k = n - r
            product_coeff = rg[r] * rg[k]
            binomial_coeff = math.comb(n, r) * g[n] * rg[r] * rg[k] * rg[n]
            ratio = binomial_coeff / product_coeff if product_coeff != 0 else math.nan
            out.append(
                {
                    "r": r,
                    "k": k,
                    "product": product_coeff,
                    "binomial": binomial_coeff,
                    "ratio": ratio,
                }
            )
    return out
