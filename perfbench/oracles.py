"""Oracles for every operation class, made apart from peocalc.

Nothing here imports peocalc.  Scalars are checked against scipy.special,
mpmath and the math module; exact operators against a local arithmetic
that only ever applies differential operators to Fraction polynomials
(it has no operator product at all); series against closed forms and
against the fixed-point equation each solver must satisfy, evaluated with
math.gamma.  CLI output is parsed and checked with the same oracles.

``check(cls, inputs, output)`` returns None when the output is right and a
short reason otherwise.

Float sums are held to ``|got - want| <= SUM_TOL * min(S, COND_MAX * |want|)``,
where S is the sum of the absolute values of the series terms (computed by
the oracle).  SUM_TOL * S is the rounding error an ascending summation can
promise; the cap makes it a relative bound of SUM_TOL * COND_MAX wherever
the terms cancel by more than COND_MAX, so a value that has lost its digits
to cancellation is rejected however large S is.  The workloads draw their
points where S / |want| <= COND_MAX.
"""

from __future__ import annotations

import json
import math
import random
import re
from fractions import Fraction

import mpmath
import numpy as np
from scipy import special as sp

SUM_TOL = 1e-13
COND_MAX = 100.0
REL_TOL = 1e-12
mpmath.mp.dps = 20

# -- decoding ------------------------------------------------------------------


class QI:
    """Gaussian rational re + i im with Fraction parts (oracle-local)."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __add__(self, o):
        o = qi(o)
        return QI(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, o):
        o = qi(o)
        return QI(self.re - o.re, self.im - o.im)

    def __mul__(self, o):
        o = qi(o)
        return QI(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, o):
        o = Fraction(o)
        return QI(self.re / o, self.im / o)

    def __eq__(self, o):
        o = qi(o)
        return self.re == o.re and self.im == o.im

    def __bool__(self):
        return bool(self.re or self.im)

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"QI({self.re}, {self.im})"


def qi(v) -> QI:
    return v if isinstance(v, QI) else QI(v)


def num(v):
    """Decode workloads.enc_num."""
    if isinstance(v, list):
        tag = v[0]
        if tag == "Q":
            return Fraction(v[1], v[2])
        if tag == "G":
            return QI(Fraction(v[1], v[2]), Fraction(v[3], v[4]))
        if tag == "C":
            return complex(v[1], v[2])
        raise ValueError(f"unknown number tag {tag!r}")
    return v


def op_of(enc) -> dict:
    return {(a, b): qi(num(c)) for a, b, c in enc}


def poly_of(enc) -> dict:
    return {k: qi(num(c)) for k, c in enc}


def exp_key(e) -> Fraction:
    """Exact exponent; float exponents snap to the nearest p/q with q <= 1000."""
    e = num(e)
    if isinstance(e, float):
        return Fraction(e).limit_denominator(1000)
    return Fraction(e)


def series_of(enc) -> dict:
    out = {}
    for e, c in enc:
        k = exp_key(e)
        if k in out:
            raise ValueError(f"exponent {k} appears twice")
        out[k] = num(c)
    return out


# -- scalar helpers -------------------------------------------------------------


def _close_sum(got, want, s):
    return abs(complex(got) - complex(want)) <= SUM_TOL * min(s, COND_MAX * abs(complex(want)))


def _rel(got, want, tol=REL_TOL):
    return abs(complex(got) - complex(want)) <= tol * max(abs(complex(want)), 1e-300)


def _le(x):
    """le(x) = I0(2 sqrt x) for real or complex x, le(-y) = J0(2 sqrt y)."""
    if isinstance(x, complex):
        return complex(sp.iv(0, 2 * np.sqrt(np.complex128(x))))
    if x >= 0:
        return float(sp.i0(2 * math.sqrt(x)))
    return float(sp.j0(2 * math.sqrt(-x)))


def _le_abs(x):
    return float(sp.i0(2 * math.sqrt(abs(x))))


def _kelvin(fn, x):
    """lc(x) = ber(2 sqrt|x|), ls(x) = sign(x) bei(2 sqrt|x|).  mpmath, because
    scipy's ber and bei lose about 1e-8 absolute once 2 sqrt|x| passes 10."""
    z = 2 * math.sqrt(abs(x))
    if fn == "lc":
        return float(mpmath.ber(0, z))
    return math.copysign(1, x) * float(mpmath.bei(0, z))


def _kelvin_abs(fn, x):
    """Sum of |terms| of lc or ls: the even or odd half of I0's series,
    (I0(z) + J0(z)) / 2 or (I0(z) - J0(z)) / 2 with z = 2 sqrt|x|."""
    z = 2 * math.sqrt(abs(x))
    return float(sp.i0(z) + (1 if fn == "lc" else -1) * sp.j0(z)) / 2


def _le_nm(n, m, x):
    if m == 1:
        if x == 0:
            return 1 / math.factorial(n)
        if x > 0:
            return float(sp.iv(n, 2 * math.sqrt(x))) / x ** (n / 2)
        return float(sp.jv(n, 2 * math.sqrt(-x))) / (-x) ** (n / 2)
    return float(mpmath.hyper([], [(n + 1) / 2, (n + 2) / 2], mpmath.mpf(x) / 4) / mpmath.factorial(n))


_RGAMMA: dict = {}


def _ml_fsum(alpha, beta, x):
    """(E_{alpha,beta}(x), sum of |terms|): the terms x^r / Gamma(alpha r + beta)
    with 1/Gamma correctly rounded by mpmath (cached per alpha, beta), added
    exactly by math.fsum, so the only rounding is one or two ulps per term."""
    coeffs = _RGAMMA.setdefault((alpha, beta), [])
    terms = []
    r = 0
    while True:
        if r == len(coeffs):
            coeffs.append(float(mpmath.rgamma(mpmath.mpf(alpha) * r + mpmath.mpf(beta))))
        t = x**r * coeffs[r] if r else coeffs[0]
        terms.append(t)
        if r > 8 and abs(t) < 1e-18 * abs(terms[0] or 1) and abs(terms[-2]) < 1e-18 * abs(terms[0] or 1):
            break
        r += 1
    return math.fsum(terms), math.fsum(abs(t) for t in terms)


def _ml_closed(alpha, x):
    if alpha == 1.0:
        return math.exp(x), math.exp(abs(x))
    if alpha == 2.0:
        y = math.sqrt(-x)
        return math.cos(y), math.cosh(y)
    y = -x
    return float(sp.erfcx(y)), math.exp(y * y) * (1 + math.erf(y))


def _h3_exact(n, x, y):
    """H3 by the recurrence H_{k+1} = x H_k + 3 y k (k-1) H_{k-2}; exact for
    Fraction x, y."""
    h = [1, x, x * x]
    for k in range(2, n):
        h.append(x * h[k] + 3 * y * k * (k - 1) * h[k - 2])
    return h[n]


def _values(output):
    return [num(v) for v in output]


def check_scalar(cls, inputs, output):
    got = _values(output)
    if cls in ("le_real", "le_complex"):
        for x, g in zip(inputs, got):
            x = num(x)
            if not _close_sum(g, _le(x), _le_abs(abs(x))):
                return f"le({x}) = {g}, want {_le(x)}"
    elif cls in ("lc", "ls"):
        for x, g in zip(inputs, got):
            want = _kelvin(cls, x)
            if not _close_sum(g, want, _kelvin_abs(cls, x)):
                return f"{cls}({x}) = {g}, want {want}"
    elif cls == "le_nm":
        n, m = inputs["n"], inputs["m"]
        for x, g in zip(inputs["x"], got):
            want, s = _le_nm(n, m, x), _le_nm(n, m, abs(x))
            if not _close_sum(g, want, s):
                return f"le_nm({n},{m},{x}) = {g}, want {want}"
    elif cls in ("ml_exp", "ml_cos", "ml_erfcx"):
        for x, g in zip(inputs["x"], got):
            want, s = _ml_closed(inputs["alpha"], x)
            if not _close_sum(g, want, s):
                return f"{cls}({x}) = {g}, want {want}"
    elif cls == "ml_frac":
        a, b = inputs["alpha"], inputs["beta"]
        for x, g in zip(inputs["x"], got):
            want, s = _ml_fsum(a, b, x)
            if not _close_sum(g, want, s):
                return f"E_{a},{b}({x}) = {g}, want {want}"
    elif cls == "h3_exact":
        n = inputs["n"]
        for (x, y), g in zip(inputs["xy"], got):
            want = _h3_exact(n, num(x), num(y))
            if g != want:
                return f"H3({n},{num(x)},{num(y)}) = {g}, want {want}"
    elif cls == "h3_float":
        n = inputs["n"]
        for (x, y), g in zip(inputs["xy"], got):
            want = _h3_exact(n, Fraction(x), Fraction(y))
            s = _h3_exact(n, abs(x), abs(y))  # all terms positive; float is enough for S
            if not _close_sum(g, float(want), s):
                return f"H3({n},{x},{y}) = {g}, want {float(want)}"
    elif cls == "gamma":
        for x, g in zip(inputs, got):
            if not _rel(g, math.gamma(x)):
                return f"gamma({x}) = {g}, want {math.gamma(x)}"
    elif cls == "recip_gamma":
        for x, g in zip(inputs, got):
            pole = x <= 0 and x == math.floor(x)
            if pole and g != 0.0 or not pole and not _rel(g, 1 / math.gamma(x)):
                return f"recip_gamma({x}) = {g}"
    elif cls == "log_gamma_real":
        for x, g in zip(inputs, got):
            want = math.lgamma(x)
            if abs(g - want) > REL_TOL * max(1.0, abs(want)):
                return f"log_gamma_real({x}) = {g}, want {want}"
    elif cls == "semigroup":
        for (x, y), g in zip(inputs, got):
            if not 0 <= g <= SUM_TOL * _le_abs(x) * _le_abs(y):
                return f"semigroup residual {g} at ({x}, {y})"
    elif cls == "ml_binom":
        a, b, n = inputs["alpha"], inputs["beta"], inputs["n"]
        for (x, y), g in zip(inputs["xy"], got):
            top = math.gamma(n * a + b)
            terms = [math.comb(n, r) * top * x**r * y ** (n - r) / (math.gamma(a * r + b) * math.gamma(a * (n - r) + b))
                     for r in range(n + 1)]
            want, s = math.fsum(terms), math.fsum(abs(t) for t in terms)
            if not _close_sum(g, want, s):
                return f"ml_binom({a},{b},{n},{x},{y}) = {g}, want {want}"
    else:
        raise KeyError(cls)
    return None


# -- differential operators acting on Fraction polynomials ----------------------
#
# An operator is {(a, b): c} for sum c x^a d^b; it is only ever applied to
# polynomials {k: c}.  Two normal-ordered operators whose derivative powers
# are at most B are equal exactly when they agree on x^0 .. x^B, so every
# operator identity below is checked on that basis.


def _clean(d):
    return {k: v for k, v in d.items() if v}


def apply(op: dict, p: dict) -> dict:
    out: dict = {}
    for (a, b), c in op.items():
        for k, pk in p.items():
            if k >= b:
                key = k - b + a
                out[key] = out.get(key, QI()) + c * pk * math.perm(k, b)
    return _clean(out)


def padd(p, q, scale=1):
    out = dict(p)
    for k, c in q.items():
        out[k] = out.get(k, QI()) + c * scale
    return _clean(out)


def pscale(p, c):
    return _clean({k: v * c for k, v in p.items()})


def d_power(op: dict) -> int:
    return max((b for _, b in op), default=0)


def sadd(s, u):
    return [padd(a, b) for a, b in zip(s, u)]


def apply_graded(op, grade, s):
    """t^grade op acting on a t-series of polynomials (list by grade)."""
    out = [{} for _ in s]
    for j in range(len(s) - grade):
        out[j + grade] = apply(op, s[j])
    return out


def exp_apply(op, grade, s):
    """exp(t^grade op) s, truncated at the length of s."""
    total = list(s)
    term = list(s)
    k = 1
    while grade * k < len(s):
        term = [pscale(p, Fraction(1, k)) for p in apply_graded(op, grade, term)]
        total = sadd(total, term)
        k += 1
    return total


def _series_equal(s, u):
    return all(a == b for a, b in zip(s, u))


def _test_polys(seed_text, degree):
    """1 and a dense polynomial with seeded rational coefficients."""
    rng = random.Random(seed_text)
    dense = {k: QI(Fraction(rng.randint(-9, 9), rng.randint(1, 9))) for k in range(degree + 1)}
    return [{0: QI(1)}, _clean(dense)]


def commutator_apply(a, b, p):
    return padd(apply(a, apply(b, p)), apply(b, apply(a, p)), -1)


def check_zassenhaus(inputs, output):
    x, y, m_max = op_of(inputs["x"]), op_of(inputs["y"]), inputs["grade"]
    cs = {int(m): op_of(v) for m, v in output.items()}
    if sorted(cs) != list(range(2, m_max + 1)):
        return f"grades {sorted(cs)} returned"
    b = 3 * max(d_power(x), d_power(y)) + max(d_power(cs[2]), d_power(cs[3]))
    for k in range(b + 1):
        p = {k: QI(1)}
        xy = commutator_apply(x, y, p)
        if apply(cs[2], p) != pscale(xy, Fraction(-1, 2)):
            return "C2 != -[X,Y]/2"
        # C3 = [Y,[X,Y]]/3 + [X,[X,Y]]/6
        y_xy = padd(apply(y, xy), commutator_apply(x, y, apply(y, p)), -1)
        x_xy = padd(apply(x, xy), commutator_apply(x, y, apply(x, p)), -1)
        if apply(cs[3], p) != padd(pscale(y_xy, Fraction(1, 3)), pscale(x_xy, Fraction(1, 6))):
            return "C3 != [Y,[X,Y]]/3 + [X,[X,Y]]/6"
    xy_sum = padd(x, y)
    for p in _test_polys(json.dumps(inputs, sort_keys=True), 8):
        s = [p] + [{} for _ in range(m_max)]
        want = exp_apply(xy_sum, 1, s)
        got = s
        for m in range(m_max, 1, -1):
            got = exp_apply(cs[m], m, got)
        got = exp_apply(x, 1, exp_apply(y, 1, got))
        if not _series_equal(got, want):
            return "exp(tX) exp(tY) prod exp(t^m C_m) != exp(t(X+Y))"
    return None


def check_graded_exp(inputs, output):
    a, g, top = op_of(inputs["el"]), inputs["grade"], inputs["max"]
    if output["max"] != top:
        return "max degree changed"
    parts = {int(m): op_of(v) for m, v in output["parts"].items()}
    k_max = top // g
    if set(parts) - {g * k for k in range(k_max + 1)}:
        return f"unexpected grades {sorted(parts)}"
    basis = max([k_max * d_power(a)] + [d_power(p) for p in parts.values()])
    for j in range(basis + 1):
        want = {j: QI(1)}  # A^k x^j / k!
        for k in range(k_max + 1):
            if k:
                want = pscale(apply(a, want), Fraction(1, k))
            if apply(parts.get(g * k, {}), {j: QI(1)}) != want:
                return f"grade {g * k} part != A^{k}/{k}!"
    return None


def berry_identity(a, b, order) -> bool:
    """exp(t(a d^2 + b x)) == exp(t^3 a b^2/3) exp(-t^2 a b d) exp(t a d^2) exp(t b x)."""
    lhs_op = {(0, 2): a, (1, 0): b}
    for k in range(2 * order + 1):
        s = [{k: QI(1)}] + [{} for _ in range(order)]
        lhs = exp_apply(lhs_op, 1, s)
        rhs = exp_apply({(1, 0): b}, 1, s)
        rhs = exp_apply({(0, 2): a}, 1, rhs)
        rhs = exp_apply({(0, 1): a * b * -1}, 2, rhs)
        rhs = exp_apply({(0, 0): a * b * b / 3}, 3, rhs)
        if not _series_equal(lhs, rhs):
            return False
    return True


def crofton_identity(f, p, m, order) -> bool:
    """exp(t d^m) f(x) q == f(x + m t d^(m-1)) exp(t d^m) q on a basis and on p."""
    dm = {(0, m): QI(1)}
    shift = {(0, m - 1): QI(m)}
    fx = {(k, 0): c for k, c in f.items()}
    top = max(f, default=0)
    for q in [{k: QI(1)} for k in range(m * order + top + 1)] + [p]:
        s = [q] + [{} for _ in range(order)]
        lhs = exp_apply(dm, 1, [apply(fx, u) for u in s])
        e = exp_apply(dm, 1, s)
        rhs = [{} for _ in s]
        for k in range(top, -1, -1):  # Horner in A = x + m t d^(m-1)
            ax = [apply({(1, 0): QI(1)}, u) for u in rhs]
            rhs = sadd(ax, apply_graded(shift, 1, rhs))
            if k in f:
                rhs = sadd(rhs, [pscale(u, f[k]) for u in e])
        if not _series_equal(lhs, rhs):
            return False
    return True


def _bivariate(output):
    return {(k, exp_key(e)): qi(num(c)) if not isinstance(num(c), (float, complex)) else num(c)
            for k, e, c in output}


def check_transport(inputs, output):
    f = {k: num(c) for k, c in inputs["f"]}
    alpha, n_max = num(inputs["alpha"]), inputs["n_max"]
    power = 2 if inputs["kernel"] == "laguerre" else 1
    sol = _bivariate(output)
    if any(e > n_max or e.denominator != 1 for _, e in sol):
        return "t-exponent past n_max"
    if any(sol.get((k, Fraction(0)), QI()) != f.get(k, 0) for k in set(f) | {k for k, e in sol if e == 0}):
        return "F(x, 0) != f"
    keys = {(k, e) for k, e in sol} | {(k - 1, e + 1) for k, e in sol}
    for k, e in keys:
        if k < 0 or not 1 <= e <= n_max:
            continue
        lhs = sol.get((k, e), QI()) * e**power
        rhs = sol.get((k + 1, e - 1), QI()) * alpha * (k + 1)
        if lhs != rhs:
            return f"equation fails at x^{k} t^{e - 1}"
    return None


def check_schrodinger(inputs, output):
    phi = poly_of(inputs["phi"])
    a, b, n_max = qi(num(inputs["alpha"])), qi(num(inputs["beta"])), inputs["n_max"]
    sol = _bivariate(output)
    i = QI(0, 1)
    for k, c in phi.items():
        if sol.get((k, Fraction(0)), QI()) != c:
            return "F(x, 0) != phi"
    if any(e == 0 and k not in phi for k, e in sol):
        return "extra t^0 terms"
    degs = {k for k, _ in sol} | {0}
    for e in range(1, n_max + 1):
        for k in range(max(degs) + 3):
            lhs = sol.get((k, Fraction(e)), QI()) * e * e
            rhs = (sol.get((k - 1, Fraction(e - 1)), QI()) * a
                   + sol.get((k + 2, Fraction(e - 1)), QI()) * b * Fraction((k + 2) * (k + 1), 2)) * i
            if lhs != rhs:
                return f"equation fails at x^{k} t^{e - 1}"
    return None


def check_exact(cls, inputs, output):
    if cls.startswith("zassenhaus"):
        return check_zassenhaus(inputs, output)
    if cls == "graded_exp":
        return check_graded_exp(inputs, output)
    if cls == "berry":
        want = berry_identity(qi(num(inputs["a"])), qi(num(inputs["b"])), inputs["order"])
        return None if output is want else f"berry check returned {output}, oracle {want}"
    if cls == "crofton":
        want = crofton_identity(poly_of(inputs["f"]), poly_of(inputs["p"]), inputs["m"], inputs["order"])
        return None if output is want else f"crofton check returned {output}, oracle {want}"
    if cls == "transport":
        return check_transport(inputs, output)
    if cls == "schrodinger_general":
        return check_schrodinger(inputs, output)
    raise KeyError(cls)


# -- series ------------------------------------------------------------------------


def _coeffs_close(got: dict, want: dict, exact: bool, rel=REL_TOL, floor=1e-14, size=None):
    """Coefficients by exponent.  Exact series must match term for term.  A
    float coefficient c passes when |got - c| <= rel * size + floor * big,
    with size the magnitude of what was summed to make c (|c| unless given)
    and big the largest coefficient of the series; so a float series may
    carry or omit a term only when it is below that floor (rounding residue
    of a cancellation)."""
    want = {e: c for e, c in want.items() if c != 0}
    if exact:
        if set(got) != set(want):
            return f"exponents {sorted(set(got) ^ set(want))[:4]} differ"
        bad = [e for e, c in want.items() if got[e] != c]
        return f"coefficient at t^{bad[0]}: {got[bad[0]]} != {want[bad[0]]}" if bad else None
    big = max((abs(complex(c)) for c in want.values()), default=1.0)
    for e in set(got) | set(want):
        g, c = complex(got.get(e, 0)), complex(want.get(e, 0))
        if abs(g - c) > rel * (abs(c) if size is None else size.get(e, 0)) + floor * big:
            return f"coefficient at t^{e}: {got.get(e, 0)} != {want.get(e, 0)}"
    return None


def _vn_fixed_point(f, u, y0, order, integrate):
    """Coefficients of y0 + K[f u] through order, K given termwise."""
    fu: dict = {}
    for ef, cf in f.items():
        for eu, cu in u.items():
            fu[ef + eu] = fu.get(ef + eu, 0) + cf * cu
    want = {Fraction(0): y0}
    for g, c in fu.items():
        e, w = integrate(g)
        if e <= order:
            want[e] = want.get(e, 0) + c * w
    return want


def check_series(cls, inputs, output):
    if cls in ("laguerre_vn_one", "laguerre_vn_multi"):
        f = series_of(inputs["f"])
        y0, order = num(inputs["y0"]), inputs["order"]
        u = series_of(output["sum"])
        if cls == "laguerre_vn_one":
            (m, c), = f.items()
            want = {}
            n = 0
            while n * (m + 1) <= order:
                want[n * (m + 1)] = y0 * (c / (m + 1) ** 2) ** n / math.factorial(n) ** 2
                n += 1
        else:
            want = _vn_fixed_point(f, u, y0, order, lambda g: (g + 1, Fraction(1) / (g + 1) ** 2))
        return _coeffs_close(u, want, exact=True)
    if cls in ("fractional_vn_one", "fractional_vn_multi"):
        alpha = exp_key(inputs["alpha"])
        af = float(alpha)
        order = inputs["order"]
        u = series_of(output["sum"])
        if cls == "fractional_vn_one":
            c = inputs["c"]
            want, a, n = {}, 1.0, 0
            while n * (1 + alpha) <= order:
                g = n * (1 + alpha)
                want[g] = a
                a *= -c * math.gamma(float(g) + 2) / math.gamma(float(g) + 2 + af)
                n += 1
        else:
            f = series_of(inputs["f"])
            want = _vn_fixed_point(f, u, num(inputs["y0"]), order,
                                   lambda g: (g + alpha, math.gamma(float(g) + 1) / math.gamma(float(g) + af + 1)))
        return _coeffs_close(u, want, exact=False)
    if cls.startswith("dyson"):
        return check_dyson(cls, inputs, output)
    if cls == "fractional_schrodinger_series":
        return check_frac_schrodinger(inputs, output)
    if cls == "rl_chain":
        s = series_of(inputs["s"])
        alpha = exp_key(inputs["alpha"])
        af = float(alpha)
        final, down = series_of(output[0]), series_of(output[1])
        want_down = {g: c * math.gamma(float(g) + af + 1) / math.gamma(float(g) + 1) for g, c in s.items()}
        want_final = {g + 1: c / (g + 1) for g, c in want_down.items()}
        return _coeffs_close(down, want_down, exact=False) or _coeffs_close(final, want_final, exact=False)
    raise KeyError(cls)


def _mat_mul(a, b):
    n = len(a)
    return [[sum((a[i][k] * b[k][j] for k in range(n)), 0) for j in range(n)] for i in range(n)]


def check_dyson(cls, inputs, output):
    alpha = exp_key(inputs["alpha"])
    af = float(alpha)
    order, n = inputs["order"], inputs["n"]
    grid = [[series_of(s) for s in row] for row in inputs["m"]]
    got = [[series_of(s) for s in row] for row in output]
    exact = alpha == 1
    if cls == "dyson_recursion_tdep":
        # U = I + I^alpha [M U], coefficient by coefficient
        for i in range(n):
            for j in range(n):
                mu: dict = {}
                for k in range(n):
                    for em, cm in grid[i][k].items():
                        for eu, cu in got[k][j].items():
                            mu[em + eu] = mu.get(em + eu, 0) + cm * cu
                want = {Fraction(0): 1} if i == j else {}
                for g, c in mu.items():
                    if g + alpha <= order:
                        w = Fraction(1, 1) / (g + 1) if exact else math.gamma(float(g) + 1) / math.gamma(float(g) + af + 1)
                        want[g + alpha] = want.get(g + alpha, 0) + c * w
                err = _coeffs_close(got[i][j], want, exact)
                if err:
                    return f"U[{i}][{j}]: {err}"
        return None
    # constant M: the coefficient of t^(k alpha) is M^k w_k; |M|^k w_k (entrywise
    # absolute values) bounds what the program adds up to make it
    m = [[s.get(Fraction(0), 0) for s in row] for row in grid]
    m_abs = [[abs(v) for v in row] for row in m]
    power = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    power_abs = power
    want = [[{} for _ in range(n)] for _ in range(n)]
    size = [[{} for _ in range(n)] for _ in range(n)]
    k = 0
    while k * alpha <= order:
        if cls == "dyson_literal":
            w = Fraction(1, math.factorial(k)) if exact else 1 / (math.gamma(af + 1) ** k * math.factorial(k))
        else:
            w = Fraction(1, math.factorial(k)) if exact else 1 / math.gamma(k * af + 1)
        for i in range(n):
            for j in range(n):
                if power[i][j]:
                    want[i][j][k * alpha] = power[i][j] * w
                size[i][j][k * alpha] = float(power_abs[i][j] * w)
        power = _mat_mul(m, power)
        power_abs = _mat_mul(m_abs, power_abs)
        k += 1
    # the literal variant expands (t - s)^q binomially at every nesting level,
    # and the alternating sums cost digits: hold it to 1e-10
    rel = 1e-10 if cls == "dyson_literal" else REL_TOL
    for i in range(n):
        for j in range(n):
            err = _coeffs_close(got[i][j], want[i][j], exact, rel, size=size[i][j])
            if err:
                return f"U[{i}][{j}]: {err}"
    return None


def check_frac_schrodinger(inputs, output):
    a, b, mu, n_max = num(inputs["alpha"]), num(inputs["beta"]), exp_key(inputs["mu"]), inputs["n_max"]
    sol = _bivariate(output)
    f = {}
    for (k, e), c in sol.items():
        r = e / mu
        if r.denominator != 1 or not 0 <= r <= n_max:
            return f"unexpected exponent {e}"
        f[(k, int(r))] = complex(c).real
    if {k: c for (k, r), c in f.items() if r == 0} != {0: 1.0}:
        return "F(x, 0) != 1"
    degs = max(k for k, _ in f) + 3
    for r in range(1, n_max + 1):
        ratio = math.gamma(float(mu) * r + 1) / math.gamma(float(mu) * (r - 1) + 1)
        for k in range(degs):
            drift = float(a) * f.get((k - 1, r - 1), 0.0) + float(b) / 2 * (k + 2) * (k + 1) * f.get((k + 2, r - 1), 0.0)
            lhs = ratio * f.get((k, r), 0.0)
            if abs(lhs + drift) > REL_TOL * max(abs(lhs), abs(drift), 1e-300):
                return f"equation fails at x^{k} t^({r - 1} mu)"
    return None


# -- cli -----------------------------------------------------------------------------

_VALUE = re.compile(r"^value = (.+)$", re.M)


def _parse_value(text):
    raw = _VALUE.search(text).group(1).strip()
    if raw.endswith("j"):
        return complex(raw.replace(" ", ""))
    return float(raw)


def _eval_oracle(fn, args):
    """(want, S) for one `peocalc eval` call."""
    if fn == "le":
        x = float(args[0])
        return _le(x), _le_abs(x)
    if fn in ("lc", "ls"):
        x = float(args[0])
        return _kelvin(fn, x), _kelvin_abs(fn, x)
    if fn == "le_nm":
        n, m, x = int(args[0]), int(args[1]), float(args[2])
        return _le_nm(n, m, x), _le_nm(n, m, abs(x))
    if fn == "ml":
        a, b, x = (float(v) for v in args)
        return _ml_fsum(a, b, x)
    if fn == "h3":
        n, x, y = int(args[0]), float(args[1]), float(args[2])
        return float(_h3_exact(n, Fraction(x), Fraction(y))), _h3_exact(n, abs(x), abs(y))
    raise KeyError(fn)


_BEI_ZERO = None


def bei_first_zero() -> float:
    """First positive zero of ls(x) = bei(2 sqrt x), by mpmath root finding."""
    global _BEI_ZERO
    if _BEI_ZERO is None:
        _BEI_ZERO = float(mpmath.findroot(lambda x: mpmath.bei(0, 2 * mpmath.sqrt(x)), 6.3))
    return _BEI_ZERO


def _floats_bivariate(payload):
    return [[k, Fraction(e).limit_denominator(1000), complex(re_, im)] for k, e, re_, im in payload["terms"]]


def check_cli_solve(config, payload):
    kind = config["kind"]
    if kind == "transport":
        alpha = Fraction(config["alpha"])
        sol = {(k, e): c for k, e, c in _floats_bivariate(payload["solution"])}
        for k, c in enumerate(config["initial"]):
            if sol.get((k, 0), 0) != c:
                return "F(x, 0) != f"
        for (k, e), c in sol.items():
            if e >= 1 and not _rel(c * e * e, sol.get((k + 1, e - 1), 0) * float(alpha) * (k + 1)):
                return "transport equation fails"
        return None if payload["residual_max"] == 0 else "residual_max != 0"
    if kind == "drift":
        a, b, t = config["alpha"], config["beta"], config["t"]
        for x, v in payload["values"]:
            u, w = -a * t * x, -a * b * t * t / 2
            want = mpmath.nsum(lambda n, r: mpmath.mpf(u) ** n * mpmath.mpf(w) ** r
                               / (mpmath.factorial(n) * mpmath.factorial(r) * mpmath.gamma(n + 2 * r + 1)),
                               [0, mpmath.inf], [0, mpmath.inf])
            if not _rel(v, float(want)):
                return f"drift({x}) = {v}, want {want}"
        return None
    if kind == "schrodinger":
        phi = [[k, ["Q", Fraction(c).numerator, Fraction(c).denominator]] for k, c in enumerate(config["phi"])]
        inputs = {"phi": phi, "alpha": ["Q", *_as_q(Fraction(config["alpha"]))],
                  "beta": ["Q", *_as_q(Fraction(config["beta"]))], "n_max": config["n_max"]}
        return _check_float_schrodinger(inputs, _floats_bivariate(payload["solution"]))
    if kind == "matrix":
        m, t = np.array(config["m"], dtype=complex), config["t"]
        want, power = np.zeros((2, 2), complex), np.eye(2, dtype=complex)
        for n in range(60):
            want += power * t**n / math.factorial(n) ** 2
            power = power @ m
        got = np.array([[complex(*z) for z in row] for row in payload["result"]["entries"]])
        return None if np.allclose(got, want, rtol=REL_TOL, atol=1e-15) else "matrix pseudo-exp differs"
    if kind == "fractional-matrix":
        m, t, mu = np.array(config["m"], dtype=complex), config["t"], config["mu"]
        v, want = np.array(config["y0"], dtype=complex), np.zeros(2, complex)
        for n in range(80):
            want += v * t ** (mu * n) / math.gamma(mu * n + 1)
            v = m @ v
        got = np.array([complex(*z) for z in payload["y"]])
        return None if np.allclose(got, want, rtol=REL_TOL, atol=1e-15) else "fractional matrix differs"
    if kind == "fractional-schrodinger":
        mu = Fraction(config["mu"])
        terms = [[k, ["Q", *_as_q(e)], c.real] for k, e, c in _floats_bivariate(payload["solution"])]
        inputs = {"alpha": ["Q", *_as_q(Fraction(config["alpha"]))], "beta": ["Q", *_as_q(Fraction(config["beta"]))],
                  "mu": ["Q", *_as_q(mu)], "n_max": config["n_max"]}
        return check_frac_schrodinger(inputs, terms)
    if kind == "vn":
        report = payload["closed_form"]
        if not report["matches"] or report["max_deviation"] != 0:
            return "closed form not matched"
        got = {Fraction(e): complex(re_, im) for e, re_, im in payload["solution"]["terms"]}
        want = {2 * n: (-0.25) ** n / math.factorial(n) ** 2 for n in range(11)}
        return _coeffs_close(got, want, exact=False)
    if kind == "fractional-vn":
        got = {Fraction(e).limit_denominator(1000): re_ for e, re_, _ in payload["solution"]["terms"]}
        inputs = {"alpha": config["alpha"], "c": 1.0, "order": config["order"]}
        return check_series("fractional_vn_one", inputs, {"sum": [[float(e), c] for e, c in got.items()]})
    if kind == "dyson":
        m = [[Fraction(v) for v in row] for row in config["m"]]
        order = config["order"]
        got = [[{Fraction(e).limit_denominator(1000): re_ for e, re_, _ in s["terms"]} for s in row]
               for row in payload["solution"]["entries"]]
        power = [[Fraction(int(i == j)) for j in range(2)] for i in range(2)]
        want = [[{} for _ in range(2)] for _ in range(2)]
        for k in range(order + 1):
            for i in range(2):
                for j in range(2):
                    if power[i][j]:
                        want[i][j][Fraction(k)] = float(power[i][j] / math.factorial(k))
            power = _mat_mul(m, power)
        for i in range(2):
            for j in range(2):
                err = _coeffs_close(got[i][j], want[i][j], exact=False)
                if err:
                    return err
        for row in payload["values"]:
            t = row["t"]
            for i in range(2):
                for j in range(2):
                    v = sum(c * t ** float(e) for e, c in want[i][j].items())
                    if abs(complex(*row["u"][i][j]) - v) > 1e-14 * max(1.0, abs(v)):
                        return "t_eval value differs"
        return None
    raise KeyError(kind)


def _as_q(x):
    q = Fraction(x)
    return [q.numerator, q.denominator]


def _check_float_schrodinger(inputs, terms):
    """The schrodinger equation on the printed floats, to REL_TOL."""
    phi = poly_of(inputs["phi"])
    a, b, n_max = qi(num(inputs["alpha"])), qi(num(inputs["beta"])), inputs["n_max"]
    sol = {(k, e): c for k, e, c in terms}
    for k, c in phi.items():
        if not _rel(sol.get((k, 0), 0), complex(c)):
            return "F(x, 0) != phi"
    ca, cb = complex(a), complex(b)
    for (k, e), c in sol.items():
        if e == 0:
            continue
        lhs = c * e * e
        rhs = 1j * (ca * sol.get((k - 1, e - 1), 0) + cb * (k + 2) * (k + 1) / 2 * sol.get((k + 2, e - 1), 0))
        if not _rel(lhs, rhs, 1e-12):
            return f"schrodinger equation fails at x^{k} t^{e - 1}"
    if max(e for _, e in sol) > n_max:
        return "t-exponent past n_max"
    return None


def check_cli(cls, inputs, output):
    argv = inputs["argv"]
    if output["rc"] != 0:
        return f"exit {output['rc']}: {output['err'].strip()[:200]}"
    if cls == "cli_eval":
        got = _parse_value(output["out"])
        want, s = _eval_oracle(argv[1], argv[2:])
        return None if _close_sum(got, want, s) else f"eval {argv[1:]} = {got}, want {want}"
    if cls == "cli_solve":
        with open(argv[1]) as fh:
            config = json.load(fh)
        return check_cli_solve(config, json.loads(output["out"]))
    if cls == "cli_plot_trig":
        zero = bei_first_zero()
        for label, sign in (("negative", -1), ("positive", 1)):
            m = re.search(rf"ls zero \({label}\): x = (\S+)", output["err"])
            if not m or abs(float(m.group(1)) - sign * zero) > 1e-14 * zero:
                return f"{label} ls zero {m and m.group(1)}, want {sign * zero!r}"
        for line in output["out"].splitlines()[1:]:
            x, lc, ls = (float(v) for v in line.split(","))
            if not (_close_sum(lc, _kelvin("lc", x), _kelvin_abs("lc", x))
                    and _close_sum(ls, _kelvin("ls", x), _kelvin_abs("ls", x))):
                return f"plot-trig row x={x} differs"
        return None
    if cls == "cli_verify":
        m = re.search(r"^(\d+)/(\d+) checks passed$", output["out"], re.M)
        return None if m and m.group(1) == m.group(2) else "verify did not pass every check"
    raise KeyError(cls)


def check(cls, inputs, output):
    if cls.startswith("cli_"):
        return check_cli(cls, inputs, output)
    if cls in ("zassenhaus_low", "zassenhaus_mid", "zassenhaus_tail", "graded_exp", "berry",
               "crofton", "transport", "schrodinger_general"):
        return check_exact(cls, inputs, output)
    if cls in ("laguerre_vn_one", "laguerre_vn_multi", "fractional_vn_one", "fractional_vn_multi",
               "dyson_recursion_const", "dyson_recursion_tdep", "dyson_literal",
               "fractional_schrodinger_series", "rl_chain"):
        return check_series(cls, inputs, output)
    return check_scalar(cls, inputs, output)


def check_records(path):
    """(attempted, failed, wrong, repeated) over a worker's records file.

    ``failed`` lists operations that raised; ``wrong`` lists outputs the
    oracles reject; ``repeated`` counts operations of the first pass whose
    exact inputs repeat an earlier one.  CLI calls must also print
    byte-identical output every time the same argv repeats.
    """
    attempted = 0
    failed = []
    wrong = []
    repeated = 0
    seen_inputs: set = set()
    first_output: dict = {}
    first_pass = None
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            first_pass = first_pass or rec["pass"]
            for cls, inputs, output in rec["ops"]:
                attempted += 1
                if rec["pass"] == first_pass:
                    key_in = cls + json.dumps(inputs, sort_keys=True)
                    repeated += key_in in seen_inputs
                    seen_inputs.add(key_in)
                if isinstance(output, dict) and "__error__" in output:
                    failed.append((rec["round"], cls, output["__error__"]))
                    continue
                key = json.dumps(inputs["argv"]) if cls.startswith("cli_") else None
                if key in first_output:
                    # an output identical to one already verified is verified
                    same = first_output[key] == output
                    why = None if same else "output differs from the first call with the same argv"
                else:
                    try:
                        why = check(cls, inputs, output)
                    except Exception as e:  # an oracle that cannot read the output rejects it
                        why = f"{type(e).__name__}: {e}"
                    if key is not None:
                        first_output[key] = output
                if why is not None:
                    wrong.append((rec["round"], cls, why))
    return attempted, failed, wrong, repeated
