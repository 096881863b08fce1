"""Generalized power series in one variable with real exponents.

A FracSeries stores finitely many terms c * t**g with strictly increasing
real exponents g.  Exponents need not be integers (fractional calculus
produces families like mu*n + k), coefficients may be ints, Fractions,
floats or complex.  Exact coefficient types are preserved whenever an
operation only needs rational arithmetic; Gamma quotients of genuinely
fractional arguments give floats.

Truncation is tracked, not hidden: every series carries an inclusive
truncation_order, operations that drop terms above it set the `truncated`
flag on the result, and evaluation of a truncated series is documented as
carrying an O(t**order) tail error of the magnitude of the first omitted
term.

Termwise operator rules implemented here:

    rl_integral         c t^g -> c Gamma(g+1)/Gamma(g+a+1) t^(g+a)
    rl_derivative       c t^g -> c Gamma(g+1)/Gamma(g-mu+1) t^(g-mu)
    laguerre_derivative      c t^g -> c g^2 t^(g-1)
    laguerre_antiderivative  c t^g -> c t^(g+1) / (g+1)^2
    laguerre_fractional_derivative = rl_derivative . (t^a *) . rl_derivative
                        c t^g -> c [Gamma(g+1)/Gamma(g-a+1)]^2 t^(g-a)

The Riemann-Liouville derivative of a constant is t^(-mu)/Gamma(1-mu), not
zero, and the fractional Laguerre rule inherits a nonzero t^(-a) term on
constants for a < 1 because the three-step composition is taken literally.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import itemgetter

from .errors import DomainError
from .gammafn import gamma, recip_gamma

# Exponents closer than this (relative, floored at 1) are the same exponent.
EXPONENT_MERGE_RTOL = 1e-12
# Floating coefficients below this magnitude are treated as underflow noise.
PRUNE_MAGNITUDE = 1e-300


def _same_exponent(a: float, b: float) -> bool:
    return abs(a - b) <= EXPONENT_MERGE_RTOL * max(1.0, abs(a))


def _above(ef: float, cap: float) -> bool:
    """The truncation rule: ef is past cap and not the same exponent as it."""
    return ef > cap and not _same_exponent(cap, ef)


def _negligible(c) -> bool:
    t = type(c)
    if t is int or t is Fraction:
        return not c  # exact types never underflow
    if t is float:
        return abs(c) < PRUNE_MAGNITUDE
    if c == 0:
        return True
    if isinstance(c, (int, Fraction)):
        return False  # exact types never underflow
    try:
        return abs(c) < PRUNE_MAGNITUDE
    except OverflowError:
        return False


def _as_integer(x):
    """x as a Python int when it is exactly integral, else None."""
    if isinstance(x, bool):
        return None
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else None
    if isinstance(x, float):
        return int(x) if x.is_integer() else None
    return None


class FracSeries:
    """Finite sum of c * t**g terms, exponents strictly increasing."""

    __slots__ = ("_terms", "_order", "_truncated")

    def __init__(self, terms=(), truncation_order=math.inf, *, truncated=False):
        order_key = float(truncation_order)
        # (float exponent, exponent, coefficient), in a stable sort on the float
        collected = sorted(
            ((float(e), e, c) for e, c in terms if not _negligible(c)),
            key=itemgetter(0),
        )
        merged: list[list] = []
        for ef, e, c in collected:
            if merged and _same_exponent(merged[-1][0], ef):
                merged[-1][2] = merged[-1][2] + c
            else:
                merged.append([ef, e, c])
        kept = []
        dropped_any = False
        for ef, e, c in merged:
            if _negligible(c):
                continue
            if _above(ef, order_key):
                dropped_any = True
                continue
            kept.append((e, c))
        self._terms = tuple(kept)
        self._order = truncation_order
        self._truncated = bool(truncated or dropped_any)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, truncation_order=math.inf):
        return cls((), truncation_order)

    @classmethod
    def monomial(cls, exponent, coeff=1, truncation_order=math.inf):
        return cls(((exponent, coeff),), truncation_order)

    @classmethod
    def constant(cls, value, truncation_order=math.inf):
        return cls(((0, value),), truncation_order)

    # -- accessors ---------------------------------------------------------

    @property
    def terms(self):
        return self._terms

    @property
    def truncation_order(self):
        return self._order

    @property
    def truncated(self) -> bool:
        return self._truncated

    def is_zero(self) -> bool:
        return not self._terms

    def valuation(self):
        """Smallest exponent present (inf for the zero series)."""
        return self._terms[0][0] if self._terms else math.inf

    def coeff(self, exponent):
        target = float(exponent)
        for e, c in self._terms:
            if _same_exponent(float(e), target):
                return c
        return 0

    def max_abs_coeff(self, up_to=None) -> float:
        cap = math.inf if up_to is None else float(up_to)
        best = 0.0
        for e, c in self._terms:
            if not _above(float(e), cap):
                best = max(best, abs(complex(c)))
        return best

    def map_terms(self, fn, truncation_order=None, *, truncated=None):
        """New series from fn(exponent, coeff) -> (exponent, coeff) or None."""
        out = []
        for e, c in self._terms:
            mapped = fn(e, c)
            if mapped is not None:
                out.append(mapped)
        return FracSeries(
            out,
            self._order if truncation_order is None else truncation_order,
            truncated=self._truncated if truncated is None else truncated,
        )

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, FracSeries):
            return NotImplemented
        order = (
            self._order
            if float(self._order) <= float(other._order)
            else other._order
        )
        return FracSeries(
            self._terms + other._terms,
            order,
            truncated=self._truncated or other._truncated,
        )

    def __neg__(self):
        return self.map_terms(lambda e, c: (e, -c))

    def __sub__(self, other):
        if not isinstance(other, FracSeries):
            return NotImplemented
        return self + (-other)

    def scale(self, factor):
        if _negligible(factor):
            return FracSeries.zero(self._order)
        return self.map_terms(lambda e, c: (e, c * factor))

    def __mul__(self, other):
        if not isinstance(other, FracSeries):
            return NotImplemented
        return series_mul(self, other)

    def __eq__(self, other):
        if not isinstance(other, FracSeries):
            return NotImplemented
        if len(self._terms) != len(other._terms):
            return False
        for (ea, ca), (eb, cb) in zip(self._terms, other._terms):
            if not _same_exponent(float(ea), float(eb)) or ca != cb:
                return False
        return True

    def __hash__(self):
        return hash(tuple((float(e), complex(c)) for e, c in self._terms))

    def __repr__(self):
        if not self._terms:
            body = "0"
        else:
            body = " + ".join(f"({c!r})*t^{e}" for e, c in self._terms[:6])
            if len(self._terms) > 6:
                body += f" + [{len(self._terms) - 6} more]"
        flag = ", truncated" if self._truncated else ""
        return f"FracSeries({body}; order<={self._order}{flag})"


# -- module-level operations ----------------------------------------------


def series_mul(a: FracSeries, b: FracSeries) -> FracSeries:
    """Cauchy product; exponents add, higher-order terms are dropped."""
    order = a.truncation_order if float(a.truncation_order) <= float(b.truncation_order) else b.truncation_order
    out = []
    dropped = False
    cap = float(order)
    b_terms = [(eb, float(eb), cb) for eb, cb in b.terms]
    for ea, ca in a.terms:
        eaf = float(ea)
        for eb, ebf, cb in b_terms:
            ef = eaf + ebf
            if _above(ef, cap):
                # b's exponents increase, so the rest of the row is past the cap too
                dropped = True
                break
            out.append((ea + eb, ca * cb))
    return FracSeries(out, order, truncated=a.truncated or b.truncated or dropped)


def series_derivative(s: FracSeries) -> FracSeries:
    """Plain d/dt, termwise: c t^g -> c g t^(g-1)."""
    return s.map_terms(lambda e, c: None if e == 0 else (e - 1, c * e))


def _rl_integral_factor(g, a_int, a):
    # Gamma(g+1) / Gamma(g+a+1) for the integral direction (a > 0).
    if a_int is not None:
        ge = g if isinstance(g, (int, Fraction)) else None
        if ge is None and isinstance(g, float) and g.is_integer():
            ge = int(g)
        if ge is not None:
            den = 1
            for j in range(1, a_int + 1):
                den = den * (ge + j)
            return Fraction(1, 1) / den if isinstance(den, int) else 1 / den
        # fractional exponent, integer order: the finite product is still
        # the most accurate route
        den = 1.0
        for j in range(1, a_int + 1):
            den *= float(g) + j
        return 1.0 / den
    return gamma(float(g) + 1.0) * recip_gamma(float(g) + float(a) + 1.0)


def rl_integral(s: FracSeries, alpha) -> FracSeries:
    """Riemann-Liouville integral of order alpha > 0, termwise."""
    if not float(alpha) > 0.0:
        raise DomainError(f"rl_integral needs alpha > 0, got {alpha}")
    for e, _ in s.terms:
        if not float(e) > -1.0:
            raise DomainError(f"rl_integral needs exponents > -1, found {e}")
    a_int = _as_integer(alpha)
    shift = a_int if a_int is not None else alpha
    return s.map_terms(
        lambda e, c: (e + shift, c * _rl_integral_factor(e, a_int, alpha)),
        truncation_order=(
            s.truncation_order + shift
            if math.isfinite(float(s.truncation_order))
            else s.truncation_order
        ),
    )


def rl_derivative(s: FracSeries, mu) -> FracSeries:
    """Riemann-Liouville derivative of order 0 < mu < 1, termwise.

    A constant maps to t^(-mu)/Gamma(1-mu); exponents g with g - mu a
    negative integer are annihilated through recip_gamma's exact zero.
    """
    muf = float(mu)
    if not (0.0 < muf < 1.0):
        raise DomainError(f"rl_derivative needs 0 < mu < 1, got {mu}")

    def rule(e, c):
        ef = float(e)
        if _is_pole_arg(ef + 1.0):
            raise DomainError(
                f"rl_derivative hit a Gamma pole at exponent {e}"
            )
        factor = gamma(ef + 1.0) * recip_gamma(ef - muf + 1.0)
        return (e - mu, c * factor)

    return s.map_terms(
        rule,
        truncation_order=(
            s.truncation_order - mu
            if math.isfinite(float(s.truncation_order))
            else s.truncation_order
        ),
    )


def _is_pole_arg(x: float) -> bool:
    return x <= 0.0 and x == math.floor(x)


def _square_exact(x):
    xi = _as_integer(x)
    if xi is not None:
        return xi * xi
    if isinstance(x, Fraction):
        return x * x
    return float(x) * float(x)


def laguerre_derivative(s: FracSeries) -> FracSeries:
    """Laguerre derivative d/dt t d/dt, termwise: c t^g -> c g^2 t^(g-1)."""
    def rule(e, c):
        if e == 0:
            return None
        return (e - 1, c * _square_exact(e))

    return s.map_terms(rule)


def laguerre_antiderivative(s: FracSeries) -> FracSeries:
    """Inverse Laguerre derivative: c t^g -> c t^(g+1) / (g+1)^2."""
    out = []
    for e, c in s.terms:
        if not float(e) > -1.0:
            raise DomainError(
                f"laguerre_antiderivative needs exponents > -1, found {e}"
            )
        sq = _square_exact(e + 1)
        if isinstance(sq, int):
            sq = Fraction(sq)
        out.append((e + 1, c / sq))
    return FracSeries(
        out,
        s.truncation_order + 1
        if math.isfinite(float(s.truncation_order))
        else s.truncation_order,
        truncated=s.truncated,
    )


def laguerre_fractional_derivative(s: FracSeries, alpha) -> FracSeries:
    """Fractional Laguerre derivative, 0 < alpha <= 1.

    Defined as the literal composition rl_derivative(t^alpha *
    rl_derivative(.)), whose termwise form is
    c [Gamma(g+1)/Gamma(g-alpha+1)]^2 t^(g-alpha).  Constants therefore pick
    up a nonzero t^(-alpha)/Gamma(1-alpha)^2 contribution when alpha < 1.
    At alpha = 1 the rule is the exact g^2 power rule.
    """
    af = float(alpha)
    if not (0.0 < af <= 1.0):
        raise DomainError(
            f"laguerre_fractional_derivative needs 0 < alpha <= 1, got {alpha}"
        )
    for e, _ in s.terms:
        ef = float(e)
        if not (ef >= af or ef == 0.0):
            raise DomainError(
                f"laguerre_fractional_derivative needs exponents >= alpha "
                f"or exactly 0, found {e}"
            )
    if af == 1.0:
        return laguerre_derivative(s)

    def rule(e, c):
        ef = float(e)
        root = gamma(ef + 1.0) * recip_gamma(ef - af + 1.0)
        return (e - alpha, c * root * root)

    return s.map_terms(
        rule,
        truncation_order=(
            s.truncation_order - alpha
            if math.isfinite(float(s.truncation_order))
            else s.truncation_order
        ),
    )


def series_eval(s: FracSeries, t):
    """Evaluate sum of c * t**g at real t >= 0.

    At t = 0 a negative exponent is a domain error and only the constant
    term contributes.  For a truncated series the result carries a tail
    error on the order of the first omitted term.
    """
    tf = float(t)
    if tf < 0.0:
        raise DomainError(f"series_eval needs t >= 0, got {t}")
    if tf == 0.0:
        total = 0
        for e, c in s.terms:
            ef = float(e)
            if ef < 0.0:
                raise DomainError("series has negative exponents at t = 0")
            if ef == 0.0:
                total = total + c
        return total
    total = 0
    for e, c in s.terms:
        total = total + c * tf ** float(e)
    return total


def series_allclose(a: FracSeries, b: FracSeries, rel_tol=1e-12, abs_floor=1e-14) -> bool:
    """Coefficientwise comparison: relative error with an absolute floor."""
    for ca, cb in _aligned_coeffs(a, b):
        scale = max(abs(complex(ca)), abs(complex(cb)))
        if abs(complex(ca) - complex(cb)) > max(abs_floor, rel_tol * scale):
            return False
    return True


def series_max_deviation(a: FracSeries, b: FracSeries) -> float:
    """Max absolute coefficient difference over the union of exponents."""
    worst = 0.0
    for ca, cb in _aligned_coeffs(a, b):
        worst = max(worst, abs(complex(ca) - complex(cb)))
    return worst


def _aligned_coeffs(a: FracSeries, b: FracSeries):
    ia, ib = 0, 0
    ta, tb = a.terms, b.terms
    while ia < len(ta) or ib < len(tb):
        if ib >= len(tb):
            yield ta[ia][1], 0
            ia += 1
        elif ia >= len(ta):
            yield 0, tb[ib][1]
            ib += 1
        else:
            ea, eb = float(ta[ia][0]), float(tb[ib][0])
            if _same_exponent(ea, eb):
                yield ta[ia][1], tb[ib][1]
                ia += 1
                ib += 1
            elif ea < eb:
                yield ta[ia][1], 0
                ia += 1
            else:
                yield 0, tb[ib][1]
                ib += 1
