"""Exact arithmetic in the Weyl algebra of x and d/dx.

Elements are kept in normal order (every x power to the left of every
derivative power) with Gaussian-rational coefficients, so all identities
checked here are exact: no floats enter until a caller evaluates something.

The product rule that powers everything is the normal-ordering expansion

    d^b x^c = sum_k k! C(b, k) C(c, k) x^(c-k) d^(b-k)

The graded layer attaches an integer degree in a formal expansion
parameter to each operator and truncates products past a chosen order.
That is enough to exponentiate nilpotent-in-grade elements exactly and to
verify shift and splitting rules as operator identities rather than
pointwise approximations.

The disentanglement corrections C_m of

    exp(t(X+Y)) = exp(tX) exp(tY) exp(t^2 C_2) exp(t^3 C_3) ...

come from nested commutators alone (``zassenhaus_coeff``): the recursion of
Casas, Murua and Nadinic (Comput. Phys. Commun. 183 (2012) 2386) on the
generator G(t) = F'(t) F(t)^-1 of the residue F, starting from
G_1 = exp(-t ad_Y) exp(-t ad_X) Y - Y and stripping one C_n per grade with
G <- exp(-t^n ad_(C_n)) G - n t^(n-1) C_n.  No exponential is formed, so the
cost follows the size of the commutators, not of the graded exponentials.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import ConvergenceError, DomainError

_MAX_MONOMIALS = 500
_HASH_MASK = (1 << sys.hash_info.width) - 1


class GaussianRational:
    """Exact complex number with Fraction real and imaginary parts.

    Arithmetic with a GaussianRational, an int or a Fraction stays exact;
    arithmetic with a float or a complex returns a complex, the way Fraction
    meets float, and equality with them is exact.  ``coerce`` is the strict input check of the exact types and
    refuses floats.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    @classmethod
    def i(cls) -> "GaussianRational":
        return cls(0, 1)

    @staticmethod
    def coerce(value) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return GaussianRational(value)
        raise TypeError(f"cannot coerce {type(value).__name__} to GaussianRational")

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __bool__(self) -> bool:
        return not self.is_zero

    def __add__(self, other):
        if isinstance(other, GaussianRational):
            return GaussianRational(self.re + other.re, self.im + other.im)
        if isinstance(other, (int, Fraction)):
            return GaussianRational(self.re + other, self.im)
        if isinstance(other, (float, complex)):
            return complex(self) + other
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (GaussianRational, int, Fraction, float, complex)):
            return self + -other
        return NotImplemented

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        if isinstance(other, GaussianRational):
            return GaussianRational(
                self.re * other.re - self.im * other.im,
                self.re * other.im + self.im * other.re,
            )
        if isinstance(other, (int, Fraction)):
            return GaussianRational(self.re * other, self.im * other)
        if isinstance(other, (float, complex)):
            return complex(self) * other
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, GaussianRational):
            d = other.re * other.re + other.im * other.im
            if d == 0:
                raise ZeroDivisionError("division by zero GaussianRational")
            return GaussianRational(
                (self.re * other.re + self.im * other.im) / d,
                (self.im * other.re - self.re * other.im) / d,
            )
        if isinstance(other, (int, Fraction)):
            return GaussianRational(self.re / other, self.im / other)
        if isinstance(other, (float, complex)):
            return complex(self) / other
        return NotImplemented

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        return math.prod([self] * k, start=_ONE)

    def __eq__(self, other):
        # Fraction == float compares exactly (and is False for nan and inf),
        # so the float and complex cases are exact too
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction, float)):
            return self.im == 0 and self.re == other
        if isinstance(other, complex):
            return self.re == other.real and self.im == other.imag
        return NotImplemented

    def __hash__(self):
        # equal numbers hash alike: a real value hashes as its Fraction, and
        # any other value the way CPython hashes the equal complex
        if self.im == 0:
            return hash(self.re)
        h = (hash(self.re) + sys.hash_info.imag * hash(self.im)) & _HASH_MASK
        if h > _HASH_MASK >> 1:
            h -= _HASH_MASK + 1
        return -2 if h == -1 else h

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    to_complex = __complex__

    def __abs__(self) -> float:
        return abs(complex(self))

    def __repr__(self):
        if self.im == 0:
            return f"GaussianRational({self.re})"
        return f"GaussianRational({self.re}, {self.im})"


_ZERO = GaussianRational(0)
_ONE = GaussianRational(1)


class WeylElement:
    """Normal-ordered operator: dict (x_pow, d_pow) -> GaussianRational."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping | None = None):
        clean = {}
        for (a, b), c in dict(coeffs or {}).items():
            if a < 0 or b < 0:
                raise DomainError(f"negative operator powers ({a}, {b})")
            g = GaussianRational.coerce(c)
            if not g.is_zero:
                clean[(int(a), int(b))] = g
        self.coeffs = clean

    @classmethod
    def zero(cls):
        return cls({})

    @classmethod
    def one(cls):
        return cls({(0, 0): 1})

    @classmethod
    def scalar(cls, c):
        return cls({(0, 0): c})

    @classmethod
    def x_op(cls, power: int = 1):
        return cls({(power, 0): 1})

    @classmethod
    def d_op(cls, power: int = 1):
        return cls({(0, power): 1})

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def monomial_count(self) -> int:
        return len(self.coeffs)

    def __add__(self, other):
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            s = out.get(key, _ZERO) + c
            if s.is_zero:
                out.pop(key, None)
            else:
                out[key] = s
        return WeylElement(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return WeylElement({k: -c for k, c in self.coeffs.items()})

    def scale(self, c) -> "WeylElement":
        g = GaussianRational.coerce(c)
        if g.is_zero:
            return WeylElement.zero()
        return WeylElement({k: v * g for k, v in self.coeffs.items()})

    def __mul__(self, other):
        return weyl_mul(self, other)

    def __eq__(self, other):
        if not isinstance(other, WeylElement):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __repr__(self):
        if not self.coeffs:
            return "WeylElement(0)"
        bits = []
        for (a, b), c in sorted(self.coeffs.items()):
            bits.append(f"({c!r})*x^{a}*d^{b}")
        return "WeylElement(" + " + ".join(bits) + ")"


def weyl_mul(left: WeylElement, right: WeylElement) -> WeylElement:
    """Product with the result put back in normal order."""
    out: dict = {}
    for (a, b), ca in left.coeffs.items():
        for (c, d), cb in right.coeffs.items():
            cc = ca * cb
            for k in range(min(b, c) + 1):
                w = math.factorial(k) * math.comb(b, k) * math.comb(c, k)
                key = (a + c - k, b + d - k)
                s = out.get(key, _ZERO) + cc * w
                if s.is_zero:
                    out.pop(key, None)
                else:
                    out[key] = s
    return WeylElement(out)


def commutator(a: WeylElement, b: WeylElement) -> WeylElement:
    return weyl_mul(a, b) - weyl_mul(b, a)


class Polynomial:
    """Polynomial in x with GaussianRational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping | Iterable | None = None):
        if coeffs is None:
            coeffs = {}
        if not isinstance(coeffs, Mapping):
            coeffs = {k: c for k, c in enumerate(coeffs)}
        clean = {}
        for k, c in coeffs.items():
            if k < 0:
                raise DomainError(f"negative polynomial degree {k}")
            g = GaussianRational.coerce(c)
            if not g.is_zero:
                clean[int(k)] = g
        self.coeffs = clean

    @classmethod
    def x_power(cls, n: int):
        return cls({n: 1})

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        return max(self.coeffs) if self.coeffs else -1

    def coeff(self, k: int) -> GaussianRational:
        return self.coeffs.get(k, _ZERO)

    def __add__(self, other):
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            s = out.get(k, _ZERO) + c
            if s.is_zero:
                out.pop(k, None)
            else:
                out[k] = s
        return Polynomial(out)

    def __sub__(self, other):
        return self + other.scale(GaussianRational(-1))

    def scale(self, c) -> "Polynomial":
        g = GaussianRational.coerce(c)
        if g.is_zero:
            return Polynomial()
        return Polynomial({k: v * g for k, v in self.coeffs.items()})

    def __mul__(self, other):
        out: dict = {}
        for i, a in self.coeffs.items():
            for j, b in other.coeffs.items():
                s = out.get(i + j, _ZERO) + a * b
                if s.is_zero:
                    out.pop(i + j, None)
                else:
                    out[i + j] = s
        return Polynomial(out)

    def eval(self, x):
        exact = isinstance(x, (int, Fraction, GaussianRational))
        keys = sorted(self.coeffs, reverse=True)
        if not keys:
            return GaussianRational(0) if exact else 0j
        # Horner over the sparse support, highest degree first
        acc = None
        prev = None
        for k in keys:
            c = self.coeffs[k] if exact else complex(self.coeffs[k])
            acc = c if acc is None else acc * x ** (prev - k) + c
            prev = k
        return acc * x ** keys[-1] if keys[-1] else acc

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __repr__(self):
        return f"Polynomial({self.coeffs!r})"


def apply(op: WeylElement, p: Polynomial) -> Polynomial:
    """Act with a normal-ordered operator on a polynomial."""
    out: dict = {}
    for (a, b), c in op.coeffs.items():
        for k, pk in p.coeffs.items():
            if k < b:
                continue
            w = math.perm(k, b)  # falling factorial k (k-1) ... (k-b+1)
            key = k - b + a
            s = out.get(key, _ZERO) + c * pk * w
            if s.is_zero:
                out.pop(key, None)
            else:
                out[key] = s
    return Polynomial(out)


class GradedOpSeries:
    """Operator-valued polynomial in a formal grading parameter.

    parts[m] is the operator sitting at degree m; products truncate past
    max_degree.  Mixing two series keeps the smaller max_degree, the same
    convention the scalar series type uses for truncation orders.
    """

    __slots__ = ("parts", "max_degree")

    def __init__(self, parts: Mapping[int, WeylElement] | None, max_degree: int):
        if max_degree < 0:
            raise DomainError("max_degree must be nonnegative")
        self.max_degree = int(max_degree)
        clean = {}
        for m, el in dict(parts or {}).items():
            if m < 0:
                raise DomainError(f"negative grade {m}")
            if m <= self.max_degree and not el.is_zero:
                clean[int(m)] = el
        self.parts = clean

    @classmethod
    def one(cls, max_degree: int):
        return cls({0: WeylElement.one()}, max_degree)

    @classmethod
    def zero(cls, max_degree: int):
        return cls({}, max_degree)

    @classmethod
    def single(cls, grade: int, el: WeylElement, max_degree: int):
        return cls({grade: el}, max_degree)

    def coeff(self, m: int) -> WeylElement:
        return self.parts.get(m, WeylElement.zero())

    @property
    def is_zero(self) -> bool:
        return not self.parts

    def valuation(self) -> int | None:
        return min(self.parts) if self.parts else None

    def monomial_count(self) -> int:
        return sum(el.monomial_count() for el in self.parts.values())

    def __add__(self, other):
        k = min(self.max_degree, other.max_degree)
        out = {m: el for m, el in self.parts.items() if m <= k}
        for m, el in other.parts.items():
            if m > k:
                continue
            s = out.get(m, WeylElement.zero()) + el
            if s.is_zero:
                out.pop(m, None)
            else:
                out[m] = s
        return GradedOpSeries(out, k)

    def __sub__(self, other):
        return self + other.scale(GaussianRational(-1))

    def scale(self, c) -> "GradedOpSeries":
        return GradedOpSeries(
            {m: el.scale(c) for m, el in self.parts.items()}, self.max_degree
        )

    def __mul__(self, other):
        k = min(self.max_degree, other.max_degree)
        out: dict = {}
        for m1, e1 in self.parts.items():
            for m2, e2 in other.parts.items():
                m = m1 + m2
                if m > k:
                    continue
                prod = weyl_mul(e1, e2)
                s = out.get(m, WeylElement.zero()) + prod
                if s.is_zero:
                    out.pop(m, None)
                else:
                    out[m] = s
        return GradedOpSeries(out, k)

    def __eq__(self, other):
        if not isinstance(other, GradedOpSeries):
            return NotImplemented
        return self.max_degree == other.max_degree and self.parts == other.parts

    def __repr__(self):
        return f"GradedOpSeries({self.parts!r}, max_degree={self.max_degree})"


def graded_exp(series: GradedOpSeries) -> GradedOpSeries:
    """exp of a graded series whose degree-0 part vanishes.

    The valuation makes the sum finite: only powers up to max_degree
    contribute.  An expansion past 500 stored monomials raises
    ConvergenceError, so a runaway input does not look like a hang.
    """
    if not series.coeff(0).is_zero:
        raise DomainError("graded_exp needs a zero degree-0 part")
    result = GradedOpSeries.one(series.max_degree)
    power = GradedOpSeries.one(series.max_degree)
    for m in range(1, series.max_degree + 1):
        power = power * series
        if power.is_zero:
            break
        result = result + power.scale(GaussianRational(Fraction(1, math.factorial(m))))
        if result.monomial_count() > _MAX_MONOMIALS:
            raise ConvergenceError(
                f"graded_exp expansion exceeded {_MAX_MONOMIALS} monomials"
            )
    return result


def poly_of_graded(f: Polynomial, arg: GradedOpSeries) -> GradedOpSeries:
    """Substitute a graded operator series into a polynomial in x."""
    result = GradedOpSeries.zero(arg.max_degree)
    power = GradedOpSeries.one(arg.max_degree)
    top = f.degree()
    for k in range(top + 1):
        c = f.coeff(k)
        if not c.is_zero:
            result = result + power.scale(c)
        if k < top:
            power = power * arg
    return result


def zassenhaus_coeff(
    x_el: WeylElement,
    y_el: WeylElement,
    m_max: int,
    orientation: str = "right",
) -> dict[int, WeylElement]:
    """Disentanglement corrections C_m, grade by grade.

    orientation="right" solves

        exp(t(X+Y)) = exp(tX) exp(tY) exp(t^2 C_2) exp(t^3 C_3) ...

    with the commutator recursion of Casas, Murua and Nadinic (Comput.
    Phys. Commun. 183 (2012) 2386, arXiv:1204.0389), which never forms an
    exponential.  It tracks the right-trivialised generator
    G(t) = F'(t) F(t)^-1 of the residue F, with g_k its t^(k-1)
    coefficient.  For F_1 = exp(-tY) exp(-tX) exp(t(X+Y)),

        G_1 = exp(-t ad_Y) exp(-t ad_X) Y - Y,
        g_k = sum_{j=1}^{k-1} (-1)^(k-1) / (j! (k-1-j)!) ad_Y^(k-1-j) ad_X^j Y,

    where ad_A B = [A, B].  The lowest term of G_(n-1) is n t^(n-1) C_n, so
    C_n = g_n / n, and stripping it, F_n = exp(-t^n C_n) F_(n-1), updates
    every g_k with k > n to

        g_k <- sum_{j >= 0, k - nj >= n} (-1)^j / j! ad_(C_n)^j g_(k-nj).

    orientation="left" solves the mirror form

        exp(t(X+Y)) = ... exp(t^3 C_3') exp(t^2 C_2') exp(tY) exp(tX),

    which is the inverse of the right form at -t, so C_m' = (-1)^(m+1) C_m.
    """
    if m_max < 2:
        raise DomainError(f"zassenhaus_coeff needs m_max >= 2, got {m_max}")
    if orientation not in ("right", "left"):
        raise DomainError(f"unknown orientation {orientation!r}")
    zero = WeylElement.zero()
    g: dict[int, WeylElement] = {}
    ad_x = y_el
    for j in range(1, m_max):
        ad_x = commutator(x_el, ad_x)
        if ad_x.is_zero:
            break
        term = ad_x
        for i in range(m_max - j):
            k = i + j + 1
            w = Fraction((-1) ** (k - 1), math.factorial(j) * math.factorial(i))
            g[k] = g.get(k, zero) + term.scale(w)
            term = commutator(y_el, term)
            if term.is_zero:
                break
    out: dict[int, WeylElement] = {}
    for n in range(2, m_max + 1):
        c_n = g.pop(n, zero).scale(Fraction(1, n))
        out[n] = c_n
        if c_n.is_zero:
            continue
        # ad_(C_n) g_n vanishes, since g_n = n C_n, so sources start at n + 1
        update = dict(g)
        for src in range(n + 1, m_max - n + 1):
            term = g.get(src, zero)
            for j in range(1, (m_max - src) // n + 1):
                term = commutator(c_n, term)
                if term.is_zero:
                    break
                k = src + n * j
                w = Fraction((-1) ** j, math.factorial(j))
                update[k] = update.get(k, zero) + term.scale(w)
        g = update
    if orientation == "left":
        for m in range(2, m_max + 1, 2):
            out[m] = -out[m]
    return out


# -- operator identity checks -------------------------------------------------


def crofton_glaisher_check(
    f: Polynomial, p: Polynomial, m: int, order: int
) -> bool:
    """Shift rule for exp of a pure derivative power.

    Checks, grade by grade through the given order, that

        exp(t d^m) f(x) == f(x + m t d^(m-1)) exp(t d^m)

    holds as a normal-ordered operator identity, and that both sides agree
    when applied to p.  Everything is exact; returns True only on exact
    agreement at every grade.
    """
    if m < 1:
        raise DomainError(f"crofton_glaisher_check needs m >= 1, got {m}")
    exp_dm = graded_exp(
        GradedOpSeries.single(1, WeylElement.d_op(m), order)
    )
    f_of_x = poly_of_graded(f, GradedOpSeries.single(0, WeylElement.x_op(), order))
    lhs = exp_dm * f_of_x

    shifted_arg = GradedOpSeries(
        {0: WeylElement.x_op(), 1: WeylElement.d_op(m - 1).scale(m)}, order
    )
    rhs = poly_of_graded(f, shifted_arg) * exp_dm

    if lhs != rhs:
        return False
    for grade in range(order + 1):
        if apply(lhs.coeff(grade), p) != apply(rhs.coeff(grade), p):
            return False
    return True


def berry_graded_check(alpha, beta, order: int = 6) -> bool:
    """Exact splitting of exp(t(a d^2 + b x)) into a pure-x factor.

    Verifies, grade by grade,

        exp(t(a d^2 + b x))
            == exp(t^3 a b^2/3 - t^2 a b d + t a d^2) exp(t b x)

    with rational a, b.  The left exponent mixes grades 3, 2 and 1; the
    graded exp handles that directly.
    """
    a = GaussianRational.coerce(alpha)
    b = GaussianRational.coerce(beta)
    direct = graded_exp(
        GradedOpSeries.single(
            1,
            WeylElement.d_op(2).scale(a) + WeylElement.x_op().scale(b),
            order,
        )
    )
    mixed = GradedOpSeries(
        {
            3: WeylElement.scalar(a * b * b / GaussianRational(3)),
            2: WeylElement.d_op().scale(-(a * b)),
            1: WeylElement.d_op(2).scale(a),
        },
        order,
    )
    split = graded_exp(mixed) * graded_exp(
        GradedOpSeries.single(1, WeylElement.x_op().scale(b), order)
    )
    return direct == split


def _float_poly_diff(p: list[float]) -> list[float]:
    return [p[k] * k for k in range(1, len(p))]


def _float_poly_xmul(p: list[float]) -> list[float]:
    return [0.0] + list(p)


def _float_poly_add(p: list[float], q: list[float], scale: float = 1.0) -> list[float]:
    n = max(len(p), len(q))
    out = [0.0] * n
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] += scale * c
    return out


def berry_rule_check(
    alpha: float,
    beta: float,
    max_degree: int = 6,
    n_terms: int = 30,
) -> float:
    """Numeric version of the splitting rule, reported as a residual.

    Applies both sides of

        exp(a d^2 + b x) p == exp(a b^2/3) exp(-a b d + a d^2) [exp(b x) p]

    to p = x^k for k up to max_degree, each exponential truncated at
    n_terms, and returns the largest coefficient deviation seen.  The
    truncation only makes sense for small a, b; arguments beyond 0.2 in
    magnitude are refused.
    """
    if abs(alpha) > 0.2 or abs(beta) > 0.2:
        raise DomainError("berry_rule_check needs |alpha|, |beta| <= 0.2")
    if n_terms < 30:
        raise DomainError("berry_rule_check needs n_terms >= 30")

    def op_lhs(p: list[float]) -> list[float]:
        # (a d^2 + b x) p
        return _float_poly_add(
            [alpha * c for c in _float_poly_diff(_float_poly_diff(p))],
            _float_poly_xmul(p),
            beta,
        )

    def op_rhs(p: list[float]) -> list[float]:
        # (-a b d + a d^2) p
        return _float_poly_add(
            [-alpha * beta * c for c in _float_poly_diff(p)],
            _float_poly_diff(_float_poly_diff(p)),
            alpha,
        )

    def exp_apply(op, p: list[float]) -> list[float]:
        total = list(p)
        term = list(p)
        for j in range(1, n_terms + 1):
            term = [c / j for c in op(term)]
            if not term:
                break
            total = _float_poly_add(total, term)
        return total

    worst = 0.0
    prefactor = math.exp(alpha * beta**2 / 3.0)
    for k in range(max_degree + 1):
        p = [0.0] * k + [1.0]
        lhs = exp_apply(op_lhs, p)
        # exp(b x) p as a truncated series, then the derivative-only factor
        ebx_p = list(p)
        term = list(p)
        for j in range(1, n_terms + 1):
            term = [beta * c / j for c in _float_poly_xmul(term)]
            ebx_p = _float_poly_add(ebx_p, term)
        rhs = [prefactor * c for c in exp_apply(op_rhs, ebx_p)]
        n = max(len(lhs), len(rhs))
        lhs += [0.0] * (n - len(lhs))
        rhs += [0.0] * (n - len(rhs))
        worst = max(worst, max(abs(u - v) for u, v in zip(lhs, rhs)))
    return worst
