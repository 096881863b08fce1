"""Tests of the benchmark's oracles and tracing, against closed forms.

Each oracle must accept a known right answer and reject a slightly wrong
one.  The right answers here come from hand-derived closed forms, not from
peocalc.

    python3 -m pytest -q perfbench/test_perfbench_oracles.py
"""

import math
import os
import sys
import time
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import oracles  # noqa: E402
import workloads  # noqa: E402
from oracles import QI  # noqa: E402
from run import nearest_rank  # noqa: E402
from tracing import Recorder  # noqa: E402


def q(x):
    x = Fraction(x)
    return ["Q", x.numerator, x.denominator]


def g(re, im=0):
    re, im = Fraction(re), Fraction(im)
    return ["G", re.numerator, re.denominator, im.numerator, im.denominator]


# -- scalars -------------------------------------------------------------------


def test_le_real_accepts_bessel_values_and_rejects_a_perturbation():
    xs = [-6.0, -3.5, 0.0, 2.0, 40.0]
    right = [math.fsum(x**r / math.factorial(r) ** 2 for r in range(80)) for x in xs]
    assert oracles.check("le_real", xs, right) is None
    wrong = list(right)
    wrong[1] *= 1 + 1e-9
    assert oracles.check("le_real", xs, wrong) is not None


def test_cancelled_values_are_rejected():
    # values peocalc returns today where its ascending series cancels
    assert oracles.check("le_real", [-100.0], [0.16702466459564402]) is not None
    assert oracles.check("le_real", [-2500.0], [-1.8400490127987334e25]) is not None
    assert oracles.check("ml_erfcx", {"alpha": 0.5, "beta": 1.0, "x": [-5.0]}, [0.11067562992593349]) is not None
    assert oracles.check("ml_erfcx", {"alpha": 0.5, "beta": 1.0, "x": [-5.0]}, [0.11070463773306861]) is None


def test_scalar_inputs_stay_where_the_oracle_bound_is_met():
    assert workloads.COND_MAX == oracles.COND_MAX
    ops = workloads.build_round("scalar-grid", 3, 0)
    for op in ops:
        if op.cls in ("le_real", "le_complex"):
            conds = [oracles._le_abs(abs(oracles.num(x))) / abs(oracles._le(oracles.num(x))) for x in op.inputs]
        elif op.cls in ("lc", "ls"):
            conds = [oracles._kelvin_abs(op.cls, x) / abs(oracles._kelvin(op.cls, x)) for x in op.inputs]
        elif op.cls == "le_nm":
            n, m = op.inputs["n"], op.inputs["m"]
            conds = [oracles._le_nm(n, m, abs(x)) / abs(oracles._le_nm(n, m, x)) for x in op.inputs["x"]]
        elif op.cls in ("ml_exp", "ml_cos", "ml_erfcx", "ml_frac"):
            conds = [s / abs(v) for v, s in (oracles._ml_fsum(op.inputs["alpha"], op.inputs["beta"], x)
                                              for x in op.inputs["x"])]
        elif op.cls == "h3_float":
            n = op.inputs["n"]
            conds = [oracles._h3_exact(n, abs(x), abs(y)) / abs(float(oracles._h3_exact(n, Fraction(x), Fraction(y))))
                     for x, y in op.inputs["xy"]]
        else:
            continue
        assert max(conds) <= oracles.COND_MAX * (1 + 1e-6), op.cls


def test_mittag_leffler_oracles_agree_with_closed_forms():
    for x in (-4.0, -0.5, 0.0, 1.5):
        assert oracles._ml_fsum(1.0, 1.0, x)[0] == pytest.approx(math.exp(x), rel=1e-14)
    for y in (0.0, 1.0, 7.5):
        assert oracles._ml_fsum(2.0, 1.0, -y * y)[0] == pytest.approx(math.cos(y), abs=1e-13)
    for y in (0.0, 0.7, 2.0):
        assert oracles._ml_fsum(0.5, 1.0, -y)[0] == pytest.approx(oracles._ml_closed(0.5, -y)[0], rel=1e-13)


def test_h3_recurrence_matches_generating_function():
    # exp(t x + t^3 y): H_6 = x^6 + 120 x^3 y + 360 y^2
    x, y = Fraction(2, 3), Fraction(-5, 7)
    assert oracles._h3_exact(6, x, y) == x**6 + 120 * x**3 * y + 360 * y**2
    assert oracles.check("h3_exact", {"n": 6, "xy": [[q(x), q(y)]]}, [q(x**6 + 120 * x**3 * y + 360 * y**2)]) is None
    assert oracles.check("h3_exact", {"n": 6, "xy": [[q(x), q(y)]]}, [q(x**6)]) is not None


def test_gamma_oracles():
    xs = [0.5, 3.7, -2.5]
    assert oracles.check("gamma", xs, [math.gamma(x) for x in xs]) is None
    assert oracles.check("gamma", xs, [math.gamma(x) * (1 + 1e-11) for x in xs]) is not None
    assert oracles.check("recip_gamma", [0.0, -3.0, 2.0], [0.0, 0.0, 1.0]) is None
    assert oracles.check("recip_gamma", [0.0], [1e-300]) is not None


def test_bei_first_zero():
    assert oracles.bei_first_zero() == pytest.approx(6.3157318037968881, rel=1e-15)


# -- exact operators -------------------------------------------------------------


def test_zassenhaus_of_d_and_x():
    # [d, x] = 1 is central: exp(t(d + x)) = exp(t d) exp(t x) exp(-t^2/2)
    inputs = {"x": [[0, 1, g(1)]], "y": [[1, 0, g(1)]], "grade": 4, "ring": "real"}
    right = {"2": [[0, 0, g(Fraction(-1, 2))]], "3": [], "4": []}
    assert oracles.check("zassenhaus_low", inputs, right) is None
    assert oracles.check("zassenhaus_low", inputs, dict(right, **{"2": [[0, 0, g(Fraction(-1, 3))]]})) is not None
    assert oracles.check("zassenhaus_low", inputs, dict(right, **{"4": [[0, 0, g(1)]]})) is not None


def test_zassenhaus_c2_c3_with_i():
    # X = i d^2, Y = x: [X, Y] = 2i d, so C2 = -i d; [Y, [X, Y]] = 2i [x, d] = -2i
    # and [X, [X, Y]] = 0, so C3 = -2i/3
    inputs = {"x": [[0, 2, g(0, 1)]], "y": [[1, 0, g(1)]], "grade": 3, "ring": "gauss"}
    right = {"2": [[0, 1, g(0, -1)]], "3": [[0, 0, g(0, Fraction(-2, 3))]]}
    assert oracles.check("zassenhaus_low", inputs, right) is None
    assert oracles.check("zassenhaus_low", inputs, dict(right, **{"3": [[0, 0, g(Fraction(2, 3))]]})) is not None


def test_graded_exp_of_x():
    inputs = {"el": [[1, 0, g(1)]], "grade": 1, "max": 3}
    parts = {str(k): [[k, 0, g(Fraction(1, math.factorial(k)))]] for k in range(4)}
    assert oracles.check("graded_exp", inputs, {"max": 3, "parts": parts}) is None
    parts["3"] = [[3, 0, g(Fraction(1, 3))]]
    assert oracles.check("graded_exp", inputs, {"max": 3, "parts": parts}) is not None


def test_berry_and_crofton_identities_hold():
    assert oracles.berry_identity(QI(Fraction(1, 3)), QI(Fraction(-2, 5)), 5)
    assert oracles.berry_identity(QI(0, Fraction(1, 2)), QI(3), 4)
    f = {0: QI(1), 2: QI(Fraction(1, 2)), 3: QI(-2)}
    p = {1: QI(1), 4: QI(Fraction(1, 3))}
    assert oracles.crofton_identity(f, p, 2, 5)
    assert oracles.crofton_identity(f, p, 1, 4)


def test_transport_equation():
    # f = x^2, laguerre kernel: F = x^2 + 2 a t x + a^2 t^2 / 2
    a = Fraction(3, 7)
    right = [[2, q(0), q(1)], [1, q(1), q(2 * a)], [0, q(2), q(a * a / 2)]]
    inputs = {"f": [[2, q(1)]], "alpha": q(a), "n_max": 4, "kernel": "laguerre"}
    assert oracles.check("transport", inputs, right) is None
    right[2] = [0, q(2), q(a * a)]
    assert oracles.check("transport", inputs, right) is not None


# -- series ------------------------------------------------------------------------


def test_laguerre_vn_closed_form():
    # f = -t, y0 = 1: U = sum (-1/4)^n t^(2n) / (n!)^2
    inputs = {"f": [[q(1), q(-1)]], "y0": q(1), "order": 8}
    right = [[q(2 * n), q(Fraction(-1, 4) ** n / math.factorial(n) ** 2)] for n in range(5)]
    assert oracles.check("laguerre_vn_one", inputs, {"iterates": 4, "sum": right}) is None
    right[3][1] = q(Fraction(1, 1000))
    assert oracles.check("laguerre_vn_one", inputs, {"iterates": 4, "sum": right}) is not None


def test_dyson_rotation_generator():
    # M = [[0, 1], [-1, 0]] at alpha = 1: coefficients M^k / k!
    m = [[[[q(0), q(0)]], [[q(0), q(1)]]], [[[q(0), q(-1)]], [[q(0), q(0)]]]]
    cos_t = [[q(k), q(Fraction((-1) ** (k // 2), math.factorial(k)))] for k in range(0, 5, 2)]
    sin_t = [[q(k), q(Fraction((-1) ** (k // 2), math.factorial(k)))] for k in range(1, 5, 2)]
    neg_sin = [[e, q(-oracles.num(c))] for e, c in sin_t]
    inputs = {"m": m, "alpha": q(1), "order": 4, "variant": "recursion", "n": 2}
    assert oracles.check("dyson_recursion_const", inputs, [[cos_t, sin_t], [neg_sin, cos_t]]) is None
    assert oracles.check("dyson_recursion_const", inputs, [[cos_t, sin_t], [sin_t, cos_t]]) is not None


def test_float_series_floor():
    want = {Fraction(0): 1.0, Fraction(1): 0.5}
    assert oracles._coeffs_close({Fraction(0): 1.0, Fraction(1): 0.5, Fraction(2): 1e-17}, want, exact=False) is None
    assert oracles._coeffs_close({Fraction(0): 1.0, Fraction(1): 0.5 + 1e-9}, want, exact=False) is not None


# -- harness -----------------------------------------------------------------------


def test_nearest_rank():
    vals = list(range(1, 101))
    assert nearest_rank(vals, 1, 2) == 50
    assert nearest_rank(vals, 9, 10) == 90
    assert nearest_rank([7.0], 9, 10) == 7.0


def test_recorder_self_time_and_boundary_calls():
    rec = Recorder()

    def inner(x):
        time.sleep(0.002)
        return x

    wrapped_inner = rec._wrap("gammafn", inner)

    def outer(x):
        time.sleep(0.002)
        return sum(wrapped_inner(x) for _ in range(3))

    wrapped_outer = rec._wrap("special", outer)
    rec.active = True
    assert wrapped_outer(2) == 6
    rec.active = False
    assert wrapped_outer(2) == 6  # inactive: no spans
    assert rec.calls["special"] == 1 and rec.calls["gammafn"] == 3
    assert len(rec.spans) == 4
    assert rec.self_ns["gammafn"] >= 3 * 2_000_000
    outer_span = rec.spans[0]
    assert rec.self_ns["special"] <= outer_span[3] - outer_span[2] - rec.self_ns["gammafn"] + 1
