"""Scalar special functions of the pseudo-exponential family.

The central object is the Laguerre pseudo-exponential

    le(x)  = sum_r x^r / (r!)^2            ( = I_0(2 sqrt(x)) )

together with its associated family and the Mittag-Leffler function:

    le_nm(n, m, x) = sum_r x^r / (r! Gamma(m r + n + 1))
    lc(x) = Re le(ix)      lcos, matches ber(2 sqrt(x)) for x >= 0
    ls(x) = Im le(ix)      lsin, matches bei(2 sqrt(x)) for x >= 0
    E_{a,b}(x) = sum_r x^r / Gamma(a r + b)
    H3(n, x, y) = n! sum_{3r <= n} x^(n-3r) y^r / ((n-3r)! r!)

All infinite sums share one termination rule (SeriesEvalConfig): stop after
CONSECUTIVE_SMALL successive terms of magnitude at most rel_tol times the
running partial sum, fail with ConvergenceError past max_terms.  They return
a SeriesSum carrying the value and the number of terms taken.

bessel_j0, kelvin_ber and kelvin_bei are references for the tests.  They
sum the same ascending series as le(-x) and le(ix) in loops of their own,
so they cancel where those do; ``verify`` checks against quadrature instead.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .errors import ConvergenceError, DomainError
from .gammafn import log_gamma_real, recip_gamma

# Successive small terms that end a series sum.
CONSECUTIVE_SMALL = 3


class SeriesEvalConfig:
    """The termination rule's rel_tol and max_terms: immutable, compared by value."""

    __slots__ = ("rel_tol", "max_terms")  # _converge reads slots faster than namedtuple fields

    def __init__(self, rel_tol: float = 1e-14, max_terms: int = 10000):
        if not (rel_tol > 0.0):
            raise DomainError("rel_tol must be positive")
        if max_terms < 1:
            raise DomainError("max_terms must be at least 1")
        object.__setattr__(self, "rel_tol", rel_tol)
        object.__setattr__(self, "max_terms", max_terms)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __reduce__(self):  # (class, fields): also the key of ==, hash and repr
        return type(self), (self.rel_tol, self.max_terms)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__reduce__() == other.__reduce__()

    def __hash__(self):
        return hash(self.__reduce__())

    def __repr__(self):
        return "SeriesEvalConfig(rel_tol=%r, max_terms=%r)" % self.__reduce__()[1]


DEFAULT_CONFIG = SeriesEvalConfig()
SeriesSum = namedtuple("SeriesSum", "value terms")


def _converge(term_gen, cfg: SeriesEvalConfig, label: str) -> SeriesSum:
    total = 0
    small_run = 0
    count = 0
    for term in term_gen:
        total = total + term
        count += 1
        if not math.isfinite(abs(total)):
            raise ConvergenceError(f"{label} overflowed after {count} terms")
        if abs(term) <= cfg.rel_tol * abs(total):
            small_run += 1
            if small_run >= CONSECUTIVE_SMALL:
                return SeriesSum(total, count)
        else:
            small_run = 0
        if count >= cfg.max_terms:
            break
    raise ConvergenceError(
        f"{label} did not converge within {cfg.max_terms} terms"
    )


def laguerre_exp(x, cfg: SeriesEvalConfig = DEFAULT_CONFIG) -> SeriesSum:
    """le(x) = sum x^r / (r!)^2, entire in x."""

    def terms():
        t = 1.0 if not isinstance(x, complex) else complex(1.0)
        r = 0
        while True:
            yield t
            r += 1
            t = t * x / (r * r)

    return _converge(terms(), cfg, "laguerre_exp")


def laguerre_e_nm(n: int, m: int, x, cfg: SeriesEvalConfig = DEFAULT_CONFIG) -> SeriesSum:
    """le_n^(m)(x) = sum_r x^r / (r! Gamma(m r + n + 1))."""
    if n < 0 or m < 1:
        raise DomainError(f"laguerre_e_nm needs n >= 0 and m >= 1, got ({n}, {m})")

    def terms():
        p = 1.0 if not isinstance(x, complex) else complex(1.0)
        r = 0
        while True:
            yield p * recip_gamma(float(m * r + n + 1))
            r += 1
            p = p * x / r

    return _converge(terms(), cfg, "laguerre_e_nm")


def laguerre_cos(x: float, cfg: SeriesEvalConfig = DEFAULT_CONFIG) -> SeriesSum:
    """lc(x) = Re le(ix) for real x."""
    s = laguerre_exp(complex(0.0, float(x)), cfg)
    return SeriesSum(s.value.real, s.terms)


def laguerre_sin(x: float, cfg: SeriesEvalConfig = DEFAULT_CONFIG) -> SeriesSum:
    """ls(x) = Im le(ix) for real x."""
    s = laguerre_exp(complex(0.0, float(x)), cfg)
    return SeriesSum(s.value.imag, s.terms)


def _ml_terms(alpha: float, beta: float, x):
    """Terms x^r / Gamma(alpha r + beta), overflow-aware.

    While the Gamma argument is small the term is computed directly (r is
    necessarily small there, so x**r is safe); once the argument passes 1/2
    the magnitude is assembled in log space, which keeps huge powers and
    huge Gamma denominators from meeting head on.
    """
    a, b = float(alpha), float(beta)
    if x == 0:
        yield recip_gamma(b)
        while True:
            yield 0.0
    mag = abs(x)
    phase = x / mag  # 1.0, -1.0, or a unit complex number
    log_mag = math.log(mag)
    r = 0
    ph = phase**0
    while True:
        arg = a * r + b
        if arg < 0.5:
            yield x**r * recip_gamma(arg)
        else:
            log_term = r * log_mag - log_gamma_real(arg)
            if log_term > 709.0:
                yield math.inf * ph
            else:
                yield math.exp(log_term) * ph
        r += 1
        ph = ph * phase


def mittag_leffler(alpha: float, beta: float, x, cfg: SeriesEvalConfig = DEFAULT_CONFIG) -> SeriesSum:
    """E_{alpha,beta}(x) = sum_r x^r / Gamma(alpha r + beta).

    Terms whose Gamma argument sits on a pole contribute zero, through
    recip_gamma's exact zero there.
    """
    if not float(alpha) > 0.0:
        raise DomainError(f"mittag_leffler needs alpha > 0, got {alpha}")
    return _converge(_ml_terms(alpha, beta, x), cfg, "mittag_leffler")


def _h3_coefficient(n: int, r: int):
    # n! / ((n - 3r)! r!), exact int for moderate n
    if n <= 170:
        return math.factorial(n) // (math.factorial(n - 3 * r) * math.factorial(r))
    return math.exp(
        log_gamma_real(n + 1.0)
        - log_gamma_real(n - 3 * r + 1.0)
        - log_gamma_real(r + 1.0)
    )


def hermite3(n: int, x, y):
    """Third-order Hermite-Kampe de Feriet polynomial H_n^(3)(x, y).

    Finite sum n! sum_{3r <= n} x^(n-3r) y^r / ((n-3r)! r!); the generating
    function is exp(t x + t^3 y).  Exact for exact inputs while n <= 170, summed
    on integers for Fractions x = p/q, y = u/v: H_n(p v, q^3 v^2 u) / (q v)^n.
    """
    if n < 0:
        raise DomainError(f"hermite3 needs n >= 0, got {n}")
    if n <= 170 and Fraction in {type(x), type(y)} <= {int, Fraction}:
        p, q, u, v = x.numerator, x.denominator, y.numerator, y.denominator
        return Fraction(hermite3(n, p * v, q**3 * v**2 * u), (q * v) ** n)
    total = 0
    try:
        for r in range(n // 3 + 1):
            total = total + _h3_coefficient(n, r) * x ** (n - 3 * r) * y**r
    except OverflowError:
        total = math.inf
    # a float product that overflows gives inf without raising
    if isinstance(total, (float, complex)) and not (math.isfinite(total.real) and math.isfinite(total.imag)):
        raise ConvergenceError(f"hermite3({n}, {x}, {y}) overflows a float")
    return total


def laguerre_exp_series(c, m: int = 1, n_terms: int = 24, truncation_order=math.inf) -> FracSeries:
    """FracSeries of le(c t^m) = sum_r c^r t^(m r) / (r!)^2 (exact for exact c)."""
    from .series import FracSeries
    if m < 1:
        raise DomainError("laguerre_exp_series needs m >= 1")
    terms = []
    for r in range(n_terms):
        terms.append((m * r, c**r / Fraction(math.factorial(r)) ** 2))
    return FracSeries(terms, truncation_order)


def mittag_leffler_series(mu: float, m, n_terms: int = 24, truncation_order=math.inf) -> FracSeries:
    """FracSeries of E_{mu,1}(m t^mu) = sum_n m^n t^(mu n) / Gamma(mu n + 1)."""
    from .series import FracSeries
    if not float(mu) > 0.0:
        raise DomainError("mittag_leffler_series needs mu > 0")
    terms = []
    for n in range(n_terms):
        terms.append((mu * n, m**n * recip_gamma(mu * n + 1.0)))
    return FracSeries(terms, truncation_order)


# -- test references ---------------------------------------------------------


def bessel_j0(t: float) -> float:
    """Ascending series for J_0, in a loop apart from laguerre_exp."""
    t = float(t)
    q = 0.25 * t * t
    term = 1.0
    total = 1.0
    k = 0
    while True:
        k += 1
        term = -term * q / (k * k)
        total += term
        if abs(term) <= 1e-17 * max(1.0, abs(total)) or k > 500:
            return total


def kelvin_ber(z: float) -> float:
    """ber(z) = sum_k (-1)^k (z/2)^(4k) / ((2k)!)^2, its own loop."""
    z = float(z)
    w = (0.5 * z) ** 4
    term = 1.0
    total = 1.0
    k = 0
    while True:
        k += 1
        term = -term * w / ((2 * k - 1) * (2 * k)) ** 2
        total += term
        if abs(term) <= 1e-17 * max(1.0, abs(total)) or k > 400:
            return total


def kelvin_bei(z: float) -> float:
    """bei(z) = sum_k (-1)^k (z/2)^(4k+2) / ((2k+1)!)^2, its own loop."""
    z = float(z)
    w = (0.5 * z) ** 4
    term = (0.5 * z) ** 2
    total = term
    k = 0
    while True:
        k += 1
        term = -term * w / ((2 * k) * (2 * k + 1)) ** 2
        total += term
        if abs(term) <= 1e-17 * max(1.0, abs(total)) or k > 400:
            return total
