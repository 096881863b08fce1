"""Gamma function for real arguments, on ``math.gamma`` and ``math.lgamma``.

Everything downstream (fractional power rules, Mittag-Leffler sums, umbral
evaluation) reduces to Gamma quotients; their accuracy is that of the
standard library, a few units in the last place away from the poles.  A
complex argument raises DomainError.  Two paths differ from a bare call:

- a positive integer n <= 171 gives float((n - 1)!), correctly rounded
  where ``math.gamma`` can be an ulp off, so integer weights agree bit for
  bit with exact factorial arithmetic;
- ``recip_gamma`` is entire: exactly 0.0 at the poles, which lets power
  rules annihilate a term without special cases; exp(-lgamma(x)) past
  x = 171, where Gamma overflows but its reciprocal underflows smoothly; and
  the reflection sin(pi x) Gamma(1 - x) / pi in log space below x = -170,
  which overflows to +-inf.
"""

from __future__ import annotations

import math

from .errors import ConvergenceError, DomainError, GammaPoleError

# Largest n with (n - 1)! representable in a double (171! overflows).
_MAX_FACTORIAL_ARG = 171


def _real(z, name: str) -> float:
    if isinstance(z, complex):
        raise DomainError(f"{name} takes real arguments only, got {z!r}")
    return float(z)


def is_gamma_pole(z) -> bool:
    """True when z is exactly a pole of Gamma (zero or a negative integer)."""
    x = _real(z, "is_gamma_pole")
    return x <= 0.0 and x.is_integer()


def gamma(z) -> float:
    """Gamma(z) for real z.  Raises GammaPoleError at the poles."""
    x = _real(z, "gamma")
    if is_gamma_pole(x):
        raise GammaPoleError(f"gamma pole at {x}")
    if x.is_integer() and x <= _MAX_FACTORIAL_ARG:
        return float(math.factorial(int(x) - 1))
    try:
        return math.gamma(x)
    except OverflowError:
        return math.copysign(math.inf, x)


def log_gamma_real(x: float) -> float:
    """log Gamma(x) for real x > 0; ConvergenceError past about 2.56e305, where it overflows."""
    x = float(x)
    if x <= 0.0:
        raise DomainError(f"log_gamma_real needs x > 0, got {x}")
    try:
        return math.lgamma(x)
    except OverflowError:
        raise ConvergenceError(f"log Gamma({x}) overflows a float") from None


def recip_gamma(z) -> float:
    """1 / Gamma(z), entire in z: exactly 0.0 at z = 0, -1, -2, ..."""
    x = _real(z, "recip_gamma")
    if is_gamma_pole(x):
        return 0.0
    if x > _MAX_FACTORIAL_ARG:
        return math.exp(-math.lgamma(x))
    if 1.0 - x > _MAX_FACTORIAL_ARG:
        s = math.sin(math.pi * x)
        try:
            return s * math.exp(math.lgamma(1.0 - x)) / math.pi
        except OverflowError:
            return math.copysign(math.inf, s)
    g = gamma(x)
    # Gamma overflows only for |x| below about 1e-308, where 1/Gamma(x) = x.
    return x if math.isinf(g) else 1.0 / g


def beta(x, y):
    """Euler Beta B(x, y) = Gamma(x) Gamma(y) / Gamma(x + y) for x, y > 0."""
    xf, yf = float(x), float(y)
    if not (xf > 0.0 and yf > 0.0):
        raise DomainError(f"beta needs positive arguments, got ({x}, {y})")
    if xf + yf <= 170.0:
        return gamma(xf) * gamma(yf) / gamma(xf + yf)
    return math.exp(math.lgamma(xf) + math.lgamma(yf) - math.lgamma(xf + yf))
