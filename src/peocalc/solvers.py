"""Closed-form solvers for pseudo-evolution problems.

Each solver assembles the solution of one evolution equation whose time
derivative has been replaced by a pseudo-derivative (the squared-index
Laguerre derivative, or the Riemann-Liouville derivative of order mu),
starting from the matching pseudo-exponential kernel:

    exp kernel        weight 1/n!        exponent n
    laguerre kernel   weight 1/(n!)^2    exponent n
    mittag-leffler    weight 1/G(mu n+1) exponent mu n

Every closed form here is paired with a residual helper that substitutes
the assembled series back into its equation termwise, so tests check the
defining property rather than a reference value.

Exact arithmetic is kept as long as the inputs allow it: rational inputs
flow through Fraction and GaussianRational coefficients, and the graded
Weyl machinery expands operator solutions without rounding.  Floats enter
only through Gamma evaluations and final numeric sums.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import ConditioningError, ConvergenceError, DomainError
from .gammafn import gamma, is_gamma_pole, recip_gamma
from .series import FracSeries
from .special import (
    DEFAULT_CONFIG,
    SeriesEvalConfig,
    _converge,
    hermite3,
    laguerre_e_nm,
    laguerre_exp,
    mittag_leffler,
)
from .weyl import (
    GaussianRational,
    GradedOpSeries,
    Polynomial,
    WeylElement,
    apply,
    graded_exp,
    poly_of_graded,
)

_EIGENVALUE_GAP_RTOL = 1e-8
_MATRIX_SERIES_TERMS = 60
_MATRIX_TAIL_RTOL = 1e-14


# -- kernels -------------------------------------------------------------------


@dataclass(frozen=True)
class EigenKernel:
    """Series weights and t-exponents of one pseudo-exponential."""

    kind: str
    mu: Fraction | None = None

    def __post_init__(self):
        if self.kind not in ("exp", "laguerre", "mittag_leffler"):
            raise DomainError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "mittag_leffler":
            if self.mu is None or not 0 < float(self.mu) < 1:
                raise DomainError("mittag_leffler kernel needs mu in (0, 1)")
        elif self.mu is not None:
            raise DomainError(f"kernel {self.kind!r} takes no mu")

    def weight(self, n: int):
        if self.kind == "exp":
            return Fraction(1, math.factorial(n))
        if self.kind == "laguerre":
            return Fraction(1, math.factorial(n) ** 2)
        return recip_gamma(float(self.mu) * n + 1.0)

    def exponent(self, n: int) -> Fraction:
        if self.kind == "mittag_leffler":
            return self.mu * n
        return Fraction(n)

    def scalar_value(self, z, cfg: SeriesEvalConfig = DEFAULT_CONFIG):
        """Value of the kernel's pseudo-exponential at scalar argument z."""
        if self.kind == "exp":
            return cmath.exp(z) if isinstance(z, complex) else math.exp(z)
        if self.kind == "laguerre":
            return laguerre_exp(z, cfg).value
        return mittag_leffler(float(self.mu), 1.0, z, cfg).value


EXP_KERNEL = EigenKernel("exp")
LAGUERRE_KERNEL = EigenKernel("laguerre")


def mittag_leffler_kernel(mu) -> EigenKernel:
    return EigenKernel("mittag_leffler", Fraction(mu))


# -- bivariate series ----------------------------------------------------------


def _as_exp(e) -> Fraction:
    if isinstance(e, Fraction):
        return e
    if isinstance(e, int):
        return Fraction(e)
    if isinstance(e, float):
        return Fraction(e)  # exact binary value; keys stay consistent
    raise DomainError(f"cannot use {e!r} as a t-exponent")


def _min_order(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


class BivariateSeries:
    """Finite sum of c * x^k * t^e terms, k a nonnegative integer.

    Exponents e live as exact Fractions so that termwise operator rules
    keep cancelling keys identical.  x_order and t_order record through
    which combined orders the series is trustworthy; None means the
    assembly was exact with no truncation in that variable.
    """

    __slots__ = ("terms", "x_order", "t_order")

    def __init__(self, terms=None, x_order=None, t_order=None):
        clean = {}
        for (k, e), c in dict(terms or {}).items():
            if k < 0:
                raise DomainError(f"negative x-degree {k}")
            if c == 0:
                continue
            key = (int(k), _as_exp(e))
            if key in clean:
                c = clean[key] + c
                if c == 0:
                    del clean[key]
                    continue
            clean[key] = c
        self.terms = clean
        self.x_order = x_order
        self.t_order = None if t_order is None else _as_exp(t_order)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def items(self):
        return sorted(self.terms.items(), key=lambda kv: (kv[0][1], kv[0][0]))

    def coeff(self, k: int, e):
        return self.terms.get((k, _as_exp(e)), 0)

    def __add__(self, other):
        out = dict(self.terms)
        for key, c in other.terms.items():
            s = out.get(key, 0) + c
            if s == 0:
                out.pop(key, None)
            else:
                out[key] = s
        return BivariateSeries(
            out,
            _min_order(self.x_order, other.x_order),
            _min_order(self.t_order, other.t_order),
        )

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        return BivariateSeries(
            {key: v * c for key, v in self.terms.items()},
            self.x_order,
            self.t_order,
        )

    def xmul(self):
        return BivariateSeries(
            {(k + 1, e): c for (k, e), c in self.terms.items()},
            None if self.x_order is None else self.x_order + 1,
            self.t_order,
        )

    def dx(self):
        out = {}
        for (k, e), c in self.terms.items():
            if k >= 1:
                out[(k - 1, e)] = c * k
        return BivariateSeries(
            out,
            None if self.x_order is None else self.x_order - 1,
            self.t_order,
        )

    def dx2(self):
        return self.dx().dx()

    def dt(self):
        out = {}
        for (k, e), c in self.terms.items():
            if e != 0:
                out[(k, e - 1)] = c * e
        return BivariateSeries(
            out, self.x_order, None if self.t_order is None else self.t_order - 1
        )

    def laguerre_dt(self):
        out = {}
        for (k, e), c in self.terms.items():
            if e != 0:
                out[(k, e - 1)] = c * (e * e)
        return BivariateSeries(
            out, self.x_order, None if self.t_order is None else self.t_order - 1
        )

    def rl_dt(self, mu):
        m = _as_exp(mu)
        if not 0 < m < 1:
            raise DomainError(f"rl_dt needs 0 < mu < 1, got {mu}")
        out = {}
        for (k, e), c in self.terms.items():
            if is_gamma_pole(float(e) + 1.0):
                raise DomainError(f"rl_dt hits a Gamma pole at exponent {e}")
            factor = gamma(float(e) + 1.0) * recip_gamma(float(e - m) + 1.0)
            if factor != 0.0:
                out[(k, e - m)] = c * factor
        return BivariateSeries(
            out, self.x_order, None if self.t_order is None else self.t_order - m
        )

    def restrict_t(self, max_exp):
        cap = _as_exp(max_exp)
        return BivariateSeries(
            {key: c for key, c in self.terms.items() if key[1] <= cap},
            self.x_order,
            cap,
        )

    def max_abs_coeff(self, max_t_exp=None) -> float:
        cap = None if max_t_exp is None else _as_exp(max_t_exp)
        worst = 0.0
        for (k, e), c in self.terms.items():
            if cap is not None and e > cap:
                continue
            worst = max(worst, abs(complex(c)))
        return worst

    def eval(self, x, t):
        tf = float(t)
        if tf < 0.0:
            raise DomainError(f"eval needs t >= 0, got {t}")
        total = 0j
        for (k, e), c in self.terms.items():
            if tf == 0.0:
                if e < 0:
                    raise DomainError("negative t-exponent at t = 0")
                if e > 0:
                    continue
                tp = 1.0
            else:
                tp = tf ** float(e)
            total += complex(c) * x**k * tp
        return total

    def __eq__(self, other):
        if not isinstance(other, BivariateSeries):
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self):
        bits = [f"({c!r})*x^{k}*t^({e})" for (k, e), c in self.items()]
        return "BivariateSeries(" + (" + ".join(bits) or "0") + ")"


def bivariate_max_deviation(a: BivariateSeries, b: BivariateSeries) -> float:
    keys = set(a.terms) | set(b.terms)
    worst = 0.0
    for key in keys:
        worst = max(worst, abs(complex(a.terms.get(key, 0) - b.terms.get(key, 0))))
    return worst


def _poly_coeff_map(f) -> dict:
    """Accept a weyl Polynomial, a mapping degree->coeff, or a coeff list."""
    if isinstance(f, Polynomial):
        return dict(f.coeffs)
    if isinstance(f, Mapping):
        return {int(k): c for k, c in f.items() if c != 0}
    if isinstance(f, Sequence):
        return {k: c for k, c in enumerate(f) if c != 0}
    raise DomainError(f"cannot read polynomial coefficients from {type(f).__name__}")


# -- transport -----------------------------------------------------------------


def solve_laguerre_transport(
    f, alpha, n_max: int, kernel: EigenKernel = LAGUERRE_KERNEL
) -> BivariateSeries:
    """Evolve an initial polynomial under the pure-shift generator.

    F(x,t) = sum_n weight(n) (alpha t)^(n-like) f^(n)(x), where weight and
    the t-exponent come from the kernel.  Exact for polynomial f whenever
    n_max covers its degree; with the exp kernel this is literally
    f(x + alpha t).
    """
    coeffs = _poly_coeff_map(f)
    deg = max(coeffs) if coeffs else 0
    terms: dict = {}
    deriv = dict(coeffs)
    a_pow = 1
    for n in range(n_max + 1):
        if not deriv:
            break
        w = kernel.weight(n)
        e = kernel.exponent(n)
        for k, c in deriv.items():
            terms[(k, e)] = terms.get((k, e), 0) + c * a_pow * w
        deriv = {k - 1: c * k for k, c in deriv.items() if k >= 1}
        a_pow = a_pow * alpha
    return BivariateSeries(terms, x_order=deg, t_order=kernel.exponent(n_max))


def transport_residual(
    series: BivariateSeries, alpha, kernel: EigenKernel = LAGUERRE_KERNEL, f=None
) -> BivariateSeries:
    """Substitute a transport solution back into its evolution equation."""
    drift = series.dx().scale(alpha)
    if kernel.kind == "laguerre":
        return series.laguerre_dt() - drift
    if kernel.kind == "exp":
        return series.dt() - drift
    mu = kernel.mu
    if f is None:
        raise DomainError("the fractional transport residual needs the initial f")
    inhom_c = recip_gamma(1.0 - float(mu))
    inhom = BivariateSeries(
        {(k, -mu): c * inhom_c for k, c in _poly_coeff_map(f).items()}
    )
    return series.rl_dt(mu) - drift - inhom


# -- drift ---------------------------------------------------------------------


def solve_laguerre_drift(
    alpha,
    beta,
    x,
    t,
    cfg: SeriesEvalConfig = DEFAULT_CONFIG,
    method: str = "single",
):
    """Laguerre evolution under the generator -alpha x + beta d/dx, f = 1.

    Two independent summation routes for the same double series

        sum_{n,r} (-alpha t x)^n (-alpha beta t^2/2)^r / (n! r! G(n+2r+1))

    "single" folds the r-sum into one-index pseudo-exponentials; "double"
    walks the diagonals n + 2r = d directly.
    """
    u = -alpha * t * x
    w = -alpha * beta * t * t / 2
    if method == "single":

        def outer():
            pref = 1.0 + 0j if isinstance(u, complex) else 1.0
            n = 0
            while True:
                yield pref * laguerre_e_nm(n, 2, w, cfg).value
                n += 1
                pref = pref * u / n

        return _converge(outer(), cfg, "laguerre_drift").value
    if method == "double":

        def diagonals():
            d = 0
            while True:
                block = 0.0
                for r in range(d // 2 + 1):
                    n = d - 2 * r
                    block += u**n * w**r / (math.factorial(n) * math.factorial(r))
                yield block * recip_gamma(d + 1.0)
                d += 1

        return _converge(diagonals(), cfg, "laguerre_drift_double").value
    raise DomainError(f"unknown drift method {method!r}")


# -- cubic-Hermite evolutions ----------------------------------------------------


def solve_laguerre_schrodinger(alpha, beta, x, t, n_max: int):
    """Partial sum of the oscillator-like Laguerre evolution at (x, t).

    The series sum_n (it)^n / (n!)^2 * H3_n(alpha x, alpha^2 beta / 6)
    solves the Laguerre-time equation with generator
    i (alpha x + (beta/2) d^2/dx^2) and unit initial state.
    """
    y = alpha * alpha * beta / 6
    total = 0j
    for n in range(n_max + 1):
        total += (1j * t) ** n / math.factorial(n) ** 2 * hermite3(n, alpha * x, y)
    return total


def hermite_cubic_poly(n: int, a, y) -> Polynomial:
    """The degree-n cubic-Hermite polynomial in a x, as an exact Polynomial.

    Expands n! sum_r (a x)^(n-3r) y^r / ((n-3r)! r!) with rational (or
    Gaussian-rational) a and y, for use with the Weyl operator machinery.
    """
    coeffs: dict = {}
    for r in range(n // 3 + 1):
        k = n - 3 * r
        c = Fraction(math.factorial(n), math.factorial(k) * math.factorial(r))
        coeffs[k] = c * a**k * y**r
    return Polynomial(coeffs)


def _evolved_grades(phi: Polynomial, c3, c1, arg_parts, n_max: int) -> list[Polynomial]:
    """Grade-n polynomials of exp(w^3 c3) exp(w c1 x) phi(x + arg) 1.

    arg_parts maps grades to the operators added to x in the argument of
    phi; the result lists grades 0 through n_max, all exact.
    """
    chain = graded_exp(
        GradedOpSeries.single(3, WeylElement.scalar(c3), n_max)
    ) * graded_exp(GradedOpSeries.single(1, WeylElement.x_op().scale(c1), n_max))
    arg = GradedOpSeries({0: WeylElement.x_op(), **arg_parts}, n_max)
    full = chain * poly_of_graded(phi, arg)
    one = Polynomial({0: 1})
    return [apply(full.coeff(n), one) for n in range(n_max + 1)]


def solve_laguerre_schrodinger_general(
    phi: Polynomial, alpha, beta, n_max: int
) -> BivariateSeries:
    """Operator-expanded Laguerre evolution with polynomial initial state.

    The disentangled evolution operator, graded by powers of (i t), is

        exp(w^3 a^2 b / 6) exp(w a x) phi(x + (a b / 2) w^2 + w b d/dx) 1

    with w the grading marker.  Each grade-n polynomial picks up the
    umbral weight 1/n! and the phase i^n.  Exact for rational a, b.
    """
    a = GaussianRational.coerce(alpha)
    b = GaussianRational.coerce(beta)
    arg = {2: WeylElement.scalar(a * b / 2), 1: WeylElement.d_op().scale(b)}
    terms: dict = {}
    for n, p_n in enumerate(_evolved_grades(phi, a * a * b / 6, a, arg, n_max)):
        w = GaussianRational.i() ** n / math.factorial(n)
        for deg, c in p_n.coeffs.items():
            terms[(deg, Fraction(n))] = c * w
    return BivariateSeries(terms, x_order=phi.degree(), t_order=Fraction(n_max))


def schrodinger_residual(series: BivariateSeries, alpha, beta) -> BivariateSeries:
    """Laguerre-time derivative minus i (alpha x + beta/2 d^2) applied."""
    i = GaussianRational.i()
    a = GaussianRational.coerce(alpha)
    b = GaussianRational.coerce(beta)
    rhs = series.xmul().scale(i * a) + series.dx2().scale(i * b / 2)
    return series.laguerre_dt() - rhs


def fractional_schrodinger(alpha, beta, mu, x, t, n_max: int):
    """Partial sum of the fractional cubic-Hermite evolution at (x, t)."""
    if not 0 < float(mu) < 1:
        raise DomainError(f"fractional_schrodinger needs 0 < mu < 1, got {mu}")
    y = -alpha * alpha * beta / 6
    total = 0j
    for r in range(n_max + 1):
        total += (
            float(t) ** (float(mu) * r)
            * recip_gamma(float(mu) * r + 1.0)
            * hermite3(r, -alpha * x, y)
        )
    return total


def fractional_schrodinger_series(alpha, beta, mu, n_max: int) -> BivariateSeries:
    """The same evolution as a bivariate series, built by the recurrence

        h_{r+1} = -(alpha x + (beta/2) d^2) h_r,   h_0 = 1

    so the residual check below exercises the defining property directly.
    """
    m = _as_exp(mu)
    if not 0 < m < 1:
        raise DomainError(f"fractional_schrodinger_series needs 0 < mu < 1, got {mu}")
    a = Fraction(alpha)
    b = Fraction(beta)
    terms: dict = {}
    h = {0: Fraction(1)}
    for r in range(n_max + 1):
        w = recip_gamma(float(m) * r + 1.0)
        for k, c in h.items():
            terms[(k, m * r)] = float(c) * w
        nxt: dict = {}
        for k, c in h.items():
            nxt[k + 1] = nxt.get(k + 1, Fraction(0)) - a * c
            if k >= 2:
                d2 = c * k * (k - 1)
                nxt[k - 2] = nxt.get(k - 2, Fraction(0)) - b * d2 / 2
        h = {k: c for k, c in nxt.items() if c != 0}
    return BivariateSeries(terms, t_order=m * n_max)


def fractional_schrodinger_residual(
    series: BivariateSeries, alpha, beta, mu
) -> BivariateSeries:
    """rl_dt(series) + (alpha x + beta/2 d^2)(series) - t^(-mu)/G(1-mu)."""
    m = _as_exp(mu)
    drift = series.xmul().scale(alpha) + series.dx2().scale(beta / 2)
    inhom = BivariateSeries({(0, -m): recip_gamma(1.0 - float(m))})
    return series.rl_dt(m) + drift - inhom


def fractional_schrodinger_general(
    f: Polynomial, alpha, beta, mu, n_max: int
) -> BivariateSeries:
    """Fractional evolution of a polynomial initial state from the display

        exp(-w^3 a^2 b/6) exp(-w a x) f(x + (a b/2) w^2 - w b d/dx) 1

    graded by powers of w = (t^mu), with grade-n terms weighted by
    n! / G(mu n + 1).  The paper's display has the scalar shift at w where
    w^2 is meant.  At w^2, as in the integer-time solver above, grade n is
    (-G)^n f / n! exactly, G = a x + (b/2) d^2, as the formal solution
    sum_n (-t^mu)^n G^n f / G(mu n + 1) of D^mu psi = -G psi requires; at w
    every grade n >= 1 differs from it unless b f' = 0.
    """
    m = _as_exp(mu)
    if not 0 < m < 1:
        raise DomainError(f"fractional_schrodinger_general needs 0 < mu < 1, got {mu}")
    a = GaussianRational.coerce(alpha)
    b = GaussianRational.coerce(beta)
    arg = {2: WeylElement.scalar(a * b / 2), 1: WeylElement.d_op().scale(-b)}
    terms: dict = {}
    for n, p_n in enumerate(_evolved_grades(f, -(a * a * b) / 6, -a, arg, n_max)):
        w = recip_gamma(float(m) * n + 1.0)
        for deg, c in p_n.coeffs.items():
            cv = complex(c * math.factorial(n))
            if cv.imag == 0.0:
                cv = cv.real
            terms[(deg, m * n)] = cv * w
    return BivariateSeries(terms, x_order=f.degree(), t_order=m * n_max)


# -- 2x2 matrix evolutions -------------------------------------------------------


class Matrix2:
    """Dense 2x2 complex matrix with just enough structure for the solvers."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        self.a = complex(a)
        self.b = complex(b)
        self.c = complex(c)
        self.d = complex(d)

    @classmethod
    def identity(cls):
        return cls(1, 0, 0, 1)

    @classmethod
    def diagonal(cls, a, d):
        return cls(a, 0, 0, d)

    @classmethod
    def from_rows(cls, rows):
        (a, b), (c, d) = rows
        return cls(a, b, c, d)

    def rows(self):
        return ((self.a, self.b), (self.c, self.d))

    def __add__(self, other):
        return Matrix2(
            self.a + other.a, self.b + other.b, self.c + other.c, self.d + other.d
        )

    def __sub__(self, other):
        return Matrix2(
            self.a - other.a, self.b - other.b, self.c - other.c, self.d - other.d
        )

    def scale(self, s):
        return Matrix2(self.a * s, self.b * s, self.c * s, self.d * s)

    def __matmul__(self, other):
        return Matrix2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def matvec(self, v):
        return (self.a * v[0] + self.b * v[1], self.c * v[0] + self.d * v[1])

    def trace(self):
        return self.a + self.d

    def det(self):
        return self.a * self.d - self.b * self.c

    def frobenius(self) -> float:
        return math.hypot(abs(self.a), abs(self.b), abs(self.c), abs(self.d))

    def eigenvalues(self):
        tr = self.trace()
        disc = cmath.sqrt(tr * tr - 4 * self.det())
        return (tr + disc) / 2, (tr - disc) / 2

    def __repr__(self):
        return f"Matrix2({self.a}, {self.b}, {self.c}, {self.d})"


def matrix_max_diff(p: Matrix2, q: Matrix2) -> float:
    return max(
        abs(p.a - q.a), abs(p.b - q.b), abs(p.c - q.c), abs(p.d - q.d)
    )


def matrix_pseudo_exp(
    m: Matrix2,
    t: float,
    kernel: EigenKernel = LAGUERRE_KERNEL,
    cfg: SeriesEvalConfig = DEFAULT_CONFIG,
    method: str = "cayley_hamilton",
) -> Matrix2:
    """Pseudo-exponential of a 2x2 matrix.

    The Cayley-Hamilton route needs distinct eigenvalues and writes the
    answer as a two-point interpolation of the scalar kernel:

        f(M) = [ f(l+) (M - l- I) - f(l-) (M - l+ I) ] / (l+ - l-)

    The series route sums weight(n) M^n t^(exponent(n)) directly and is
    the cross-check oracle; it fails loudly when 60 terms are not enough.
    """
    if method == "cayley_hamilton":
        lp, lm = m.eigenvalues()
        gap = abs(lp - lm)
        if gap < _EIGENVALUE_GAP_RTOL * max(m.frobenius(), 1e-300):
            raise ConditioningError(
                f"eigenvalue gap {gap:.3e} too small for the Cayley-Hamilton path"
            )
        if kernel.kind == "mittag_leffler":
            s = float(t) ** float(kernel.mu)
        else:
            s = float(t)
        fp = kernel.scalar_value(lp * s, cfg)
        fm = kernel.scalar_value(lm * s, cfg)
        ident = Matrix2.identity()
        num = (m - ident.scale(lm)).scale(fp) - (m - ident.scale(lp)).scale(fm)
        return num.scale(1.0 / (lp - lm))
    if method == "series":
        acc = Matrix2.identity().scale(complex(kernel.weight(0)))
        power = Matrix2.identity()
        last_norm = 0.0
        for n in range(1, _MATRIX_SERIES_TERMS + 1):
            power = power @ m
            w = float(kernel.weight(n)) * float(t) ** float(kernel.exponent(n))
            term = power.scale(w)
            acc = acc + term
            last_norm = term.frobenius()
        if last_norm > _MATRIX_TAIL_RTOL * max(1.0, acc.frobenius()):
            raise ConvergenceError(
                f"matrix series tail {last_norm:.3e} still large after "
                f"{_MATRIX_SERIES_TERMS} terms"
            )
        return acc
    raise DomainError(f"unknown matrix method {method!r}")


def matrix_laguerre_exp(
    m: Matrix2,
    t: float,
    cfg: SeriesEvalConfig = DEFAULT_CONFIG,
    method: str = "cayley_hamilton",
) -> Matrix2:
    """Laguerre pseudo-exponential of M at time t."""
    return matrix_pseudo_exp(m, t, LAGUERRE_KERNEL, cfg, method)


def pseudo_rotation(alpha: float, beta: float, t: float, cfg=DEFAULT_CONFIG) -> Matrix2:
    """Closed form of the Laguerre exponential of [[0, -a], [b, 0]], a b > 0.

    The square of that generator is -(a b) I, so even and odd powers
    collapse onto the pseudo-cosine and pseudo-sine.
    """
    if not alpha * beta > 0:
        raise DomainError("pseudo_rotation needs alpha * beta > 0")
    from .special import laguerre_cos, laguerre_sin

    z = math.sqrt(alpha * beta) * t
    lc = laguerre_cos(z, cfg).value
    ls = laguerre_sin(z, cfg).value
    return Matrix2(
        lc,
        -math.sqrt(alpha / beta) * ls,
        math.sqrt(beta / alpha) * ls,
        lc,
    )


def fractional_matrix_evolution(
    m: Matrix2,
    mu,
    t: float,
    y0,
    cfg: SeriesEvalConfig = DEFAULT_CONFIG,
    method: str = "cayley_hamilton",
):
    """Evolve a 2-vector by the Mittag-Leffler pseudo-exponential of M."""
    kernel = mittag_leffler_kernel(mu)
    mat = matrix_pseudo_exp(m, t, kernel, cfg, method)
    return mat.matvec((complex(y0[0]), complex(y0[1])))


def fractional_matrix_series_components(
    m: Matrix2, mu, y0, n_terms: int = 30
) -> tuple[FracSeries, FracSeries]:
    """Component FracSeries of the fractional matrix evolution.

    Returns (Y1(t), Y2(t)) with terms M^n y0 t^(mu n) / G(mu n + 1), so the
    caller can apply the fractional power rule termwise and verify the
    evolution equation.
    """
    mf = Fraction(mu)
    if not 0 < mf < 1:
        raise DomainError(f"needs 0 < mu < 1, got {mu}")
    v = (complex(y0[0]), complex(y0[1]))
    terms1 = []
    terms2 = []
    for n in range(n_terms + 1):
        w = recip_gamma(float(mf) * n + 1.0)
        terms1.append((mf * n, v[0] * w))
        terms2.append((mf * n, v[1] * w))
        v = m.matvec(v)
    order = mf * n_terms
    s1 = FracSeries(((e, c) for e, c in terms1), truncation_order=order, truncated=True)
    s2 = FracSeries(((e, c) for e, c in terms2), truncation_order=order, truncated=True)
    return s1, s2
