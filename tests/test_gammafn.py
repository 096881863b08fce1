import math

import pytest
import scipy.special

from peocalc.errors import ConvergenceError, DomainError, GammaPoleError
from peocalc.gammafn import (
    beta,
    gamma,
    is_gamma_pole,
    log_gamma_real,
    recip_gamma,
)


def rel_err(got, want):
    if want == 0:
        return abs(got)
    return abs(got - want) / abs(want)


# Step 1/64 over (-30.5, 0) and (0, 170), without the poles.  scipy.special
# is the oracle: math.gamma would compare gamma with itself.
GRID = [k / 64 for k in range(-1951, 170 * 64) if k > 0 or k % 64]


def test_factorials_to_20():
    for n in range(21):
        assert rel_err(gamma(n + 1), math.factorial(n)) <= 1e-13
    # correctly rounded (n - 1)! up to the last representable factorial
    for n in range(1, 172):
        assert gamma(float(n)) == float(math.factorial(n - 1)), n
    assert gamma(172.0) == math.inf


def test_half_integer_values():
    assert rel_err(gamma(0.5), math.sqrt(math.pi)) <= 1e-14
    assert rel_err(gamma(1.5), 0.5 * math.sqrt(math.pi)) <= 1e-14
    assert rel_err(gamma(-0.5), -2.0 * math.sqrt(math.pi)) <= 1e-13


def test_against_stdlib_gamma_on_grid():
    for x in GRID:
        assert rel_err(gamma(x), scipy.special.gamma(x)) <= 1e-14, x


def test_large_arguments_against_lgamma():
    for x in [101.25, 144.9, 169.5, 170.0]:
        assert rel_err(math.log(gamma(x)), scipy.special.gammaln(x)) <= 1e-14
    # absolute below 1: lgamma has zeros at 1 and 2
    for x in GRID:
        if x > 0.0:
            want = scipy.special.gammaln(x)
            assert abs(log_gamma_real(x) - want) <= 1e-14 * max(1.0, abs(want)), x


def test_log_gamma_real_overflow_is_a_convergence_error():
    assert rel_err(log_gamma_real(2.5e305), scipy.special.gammaln(2.5e305)) <= 1e-14
    for x in (2.6e305, 1e308):
        with pytest.raises(ConvergenceError, match="overflows"):
            log_gamma_real(x)


def test_pole_behaviour():
    for z in [0, -1, -2, -37, 0.0, -5.0]:
        assert is_gamma_pole(z)
        with pytest.raises(GammaPoleError):
            gamma(z)
        assert recip_gamma(z) == 0.0
    # real arguments only, also on the real axis
    for z in [complex(-3.0, 0.0), 1 + 1j, 0.5 - 2.3j]:
        for f in (gamma, recip_gamma, is_gamma_pole):
            with pytest.raises(DomainError):
                f(z)


def test_recip_gamma_matches_reciprocal():
    for x in [0.1, 0.5, 1.0, 3.7, 25.0, 170.0, -0.5, -2.5, -17.3] + GRID:
        assert rel_err(recip_gamma(x), scipy.special.rgamma(x)) <= 1e-14, x


def test_recip_gamma_underflows_to_zero_smoothly():
    assert recip_gamma(400.0) == 0.0
    # and its reflection overflows to a signed infinity
    assert recip_gamma(-200.5) == -math.inf


def test_beta_values():
    assert beta(2.0, 1.0) == pytest.approx(0.5, rel=1e-14)
    assert rel_err(beta(0.5, 0.5), math.pi) <= 1e-13
    # B(x, y) = B(y, x)
    assert beta(3.2, 1.7) == pytest.approx(beta(1.7, 3.2), rel=1e-14)
    for x in [k / 8 for k in range(1, 680, 7)]:
        for y in [k / 8 for k in range(1, 680, 11)]:
            assert rel_err(beta(x, y), scipy.special.beta(x, y)) <= 1e-14, (x, y)


def test_beta_against_quadrature():
    # midpoint rule on a smooth case, plenty for 1e-9
    x, y = 3.0, 4.0
    n = 20000
    acc = 0.0
    for k in range(n):
        s = (k + 0.5) / n
        acc += s ** (x - 1) * (1 - s) ** (y - 1)
    acc /= n
    assert rel_err(beta(x, y), acc) <= 1e-9


def test_beta_domain():
    with pytest.raises(DomainError):
        beta(-1.0, 2.0)
    with pytest.raises(DomainError):
        beta(1.0, 0.0)
