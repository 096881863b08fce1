import ast
import functools
import importlib
import json
import math
import os
import resource
import subprocess
import sys
from fractions import Fraction

import pytest
from scipy.special import erfc

import peocalc
from peocalc import cli
from peocalc.series import series_allclose, series_eval
from peocalc.special import SeriesEvalConfig, kelvin_bei, kelvin_ber, laguerre_exp
from peocalc.solvers import (
    pseudo_rotation,
    solve_laguerre_drift,
    solve_laguerre_schrodinger_general,
)
from peocalc.volterra import laguerre_vn_solve
from peocalc.series import FracSeries
from peocalc.weyl import Polynomial


def run_cli(argv, capsys):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# -- eval ---------------------------------------------------------------


def test_eval_le_value(capsys):
    rc, out, _ = run_cli(["eval", "le", "1.0"], capsys)
    assert rc == 0
    value = float(out.splitlines()[0].split("=")[1])
    # sum 1/(n!)^2, frozen independently
    assert abs(value - 2.2795853023360673) <= 1e-12
    assert out.splitlines()[1].startswith("terms = ")


def test_eval_h3_spec_example(capsys):
    rc, out, _ = run_cli(["eval", "h3", "3", "1.0", "2.0"], capsys)
    assert rc == 0
    assert out.splitlines()[0] == "value = 13"


def test_eval_ml_value(capsys):
    rc, out, _ = run_cli(["eval", "ml", "0.5", "1.0", "0.3"], capsys)
    assert rc == 0
    value = float(out.splitlines()[0].split("=")[1])
    want = math.exp(0.09) * erfc(-0.3)
    assert abs(value - want) <= 1e-10


def test_eval_lc_ls_at_zero(capsys):
    rc, out, _ = run_cli(["eval", "lc", "0.0"], capsys)
    assert rc == 0 and out.splitlines()[0] == "value = 1"
    rc, out, _ = run_cli(["eval", "ls", "0.0"], capsys)
    assert rc == 0 and out.splitlines()[0] == "value = 0"


def test_eval_bad_arity_exits_2(capsys):
    rc, _, err = run_cli(["eval", "le"], capsys)
    assert rc == 2
    assert "usage" in err


def test_eval_unknown_function_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["eval", "nosuch", "1.0"])
    assert exc.value.code == 2


def test_eval_non_numeric_argument_exits_2(capsys):
    rc, _, err = run_cli(["eval", "le", "abc"], capsys)
    assert rc == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["h3", "3", "0.5", "nan"], ["le", "nan"], ["lc", "inf"], ["le_nm", "1", "2", "nan"],
        ["ml", "nan", "1", "0.5"], ["le_nm", "1", "2", "-inf"], ["le", "-nan"],
        ["ml", "0.5", "-Infinity", "1"],
    ],
)
def test_eval_non_finite_argument_is_a_domain_error(argv, capsys):
    rc, out, err = run_cli(["eval", *argv], capsys)
    assert rc == 3 and out == ""
    assert "finite" in err and "overflow" not in err


@pytest.mark.parametrize("x", ["-4.5", "-3", "-.5", "-1e1"])
def test_eval_reads_a_negative_number_as_a_value(x, capsys):
    want = laguerre_exp(float(x), SeriesEvalConfig(rel_tol=1e-10, max_terms=50))
    rc, out, _ = run_cli(["eval", "le", x, "--tol", "1e-10", "--max-terms", "50"], capsys)
    assert rc == 0
    assert out == f"value = {cli._fmt(want.value)}\nterms = {want.terms}\n"
    rc, out, err = run_cli(["eval", "le", x, "--max-terms", "2"], capsys)
    assert rc == 3 and out == "" and "did not converge" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["h3", "200", "200", "171"], ["ml", "0.5", "1e308", "-1"],
        ["h3", "5", "1e60", "1e250"], ["h3", "5", "1e60", "-1e250"],
    ],
)
def test_eval_float_overflow_is_a_convergence_error(argv, capsys):
    rc, out, err = run_cli(["eval", *argv], capsys)
    assert rc == 3 and out == ""
    assert err.startswith("error: ") and "overflows a float" in err


# -- solve --------------------------------------------------------------


def write_cfg(tmp_path, name, cfg):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def test_solve_drift_matches_library(tmp_path, capsys):
    xs = [0.0, 0.5, 1.0, 2.0]
    path = write_cfg(
        tmp_path,
        "drift.json",
        {"kind": "drift", "alpha": 1, "beta": 1, "t": 0.8, "x_grid": xs},
    )
    rc, out, _ = run_cli(["solve", path], capsys)
    assert rc == 0
    payload = json.loads(out)
    assert payload["kind"] == "drift"
    for (x, v), x_want in zip(payload["values"], xs):
        assert x == x_want
        assert abs(v - solve_laguerre_drift(1.0, 1.0, x_want, 0.8)) <= 1e-14


def test_solve_vn_reports_closed_form(tmp_path, capsys):
    path = write_cfg(
        tmp_path,
        "vn.json",
        {"kind": "vn", "f": {"terms": [[1, -1]]}, "y0": 1, "n_iter": 30, "order": 20},
    )
    rc, out, _ = run_cli(["solve", path], capsys)
    assert rc == 0
    payload = json.loads(out)
    report = payload["closed_form"]
    assert report["matches"] is True
    assert report["max_deviation"] == 0.0
    assert "laguerre_exp" in report["form"]


def test_solve_matrix_gives_pseudo_rotation(tmp_path, capsys):
    path = write_cfg(
        tmp_path, "m.json", {"kind": "matrix", "m": [[0, -1], [1, 0]], "t": 0.9}
    )
    rc, out, _ = run_cli(["solve", path], capsys)
    assert rc == 0
    entries = json.loads(out)["result"]["entries"]
    want = pseudo_rotation(1.0, 1.0, 0.9)
    got = [complex(*pair) for row in entries for pair in row]
    for g, w in zip(got, (want.a, want.b, want.c, want.d)):
        assert abs(g - w) <= 1e-12


def test_solve_transport_residual_zero(tmp_path, capsys):
    path = write_cfg(
        tmp_path,
        "tr.json",
        {"kind": "transport", "initial": [5, -2, 0, 1], "alpha": "3/7", "n_max": 6},
    )
    rc, out, _ = run_cli(["solve", path], capsys)
    assert rc == 0
    payload = json.loads(out)
    assert payload["residual_max"] == 0.0
    assert payload["solution"]["type"] == "bivariate_series"


def test_solve_schrodinger_polynomial_state_at_n_max_20(tmp_path, capsys):
    cfg = {"kind": "schrodinger", "alpha": "1/3", "beta": "2/5", "phi": [1, "1/2", 1],
           "n_max": 20}
    path = write_cfg(tmp_path, "sch.json", cfg)
    rc, out, _ = run_cli(["solve", path], capsys)
    assert rc == 0
    terms = json.loads(out)["solution"]["terms"]
    assert max(e for _, e, _, _ in terms) == 20.0
    want = solve_laguerre_schrodinger_general(
        Polynomial([1, Fraction(1, 2), 1]), Fraction(1, 3), Fraction(2, 5), 20
    )
    assert terms == json.loads(json.dumps(cli.bivariate_payload(want)))["terms"]


def test_solve_unknown_kind_exits_2(tmp_path, capsys):
    path = write_cfg(tmp_path, "bad.json", {"kind": "nope"})
    rc, _, err = run_cli(["solve", path], capsys)
    assert rc == 2
    assert "unknown problem kind" in err


def test_solve_invalid_json_exits_2(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    rc, _, err = run_cli(["solve", str(p)], capsys)
    assert rc == 2


def test_solve_missing_field_exits_2(tmp_path, capsys):
    path = write_cfg(tmp_path, "miss.json", {"kind": "drift", "alpha": 1})
    rc, _, err = run_cli(["solve", path], capsys)
    assert rc == 2
    assert "missing" in err


def test_solve_precondition_violation_exits_3(tmp_path, capsys):
    path = write_cfg(
        tmp_path, "pre.json", {"kind": "vn", "f": {"terms": [[-1, 1]]}, "order": 10}
    )
    rc, _, err = run_cli(["solve", path], capsys)
    assert rc == 3
    assert "exponents" in err


def test_solve_degenerate_matrix_exits_3(tmp_path, capsys):
    path = write_cfg(
        tmp_path, "deg.json", {"kind": "matrix", "m": [[1, 1], [0, 1]], "t": 0.5}
    )
    rc, _, err = run_cli(["solve", path], capsys)
    assert rc == 3


def test_solve_matrix_with_huge_entries_exits_3(tmp_path, capsys):
    path = write_cfg(
        tmp_path, "big.json", {"kind": "matrix", "m": [[-1e300, 1e300], ["1/3", 2]], "t": 50}
    )
    rc, out, err = run_cli(["solve", path], capsys)
    assert rc == 3 and out == ""
    assert err.startswith("error: ") and "overflowed" in err


def test_solve_output_deterministic(tmp_path, capsys):
    path = write_cfg(
        tmp_path,
        "vn.json",
        {"kind": "vn", "f": {"terms": [[1, -1]]}, "order": 16},
    )
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert cli.main(["solve", path, "--out", str(out1)]) == 0
    assert cli.main(["solve", path, "--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_solve_round_trip(tmp_path, capsys):
    path = write_cfg(
        tmp_path,
        "vn.json",
        {"kind": "vn", "f": {"terms": [[1, -1]]}, "order": 20},
    )
    out = tmp_path / "sol.json"
    assert cli.main(["solve", path, "--out", str(out)]) == 0
    capsys.readouterr()
    payload = json.loads(out.read_text())["solution"]
    loaded = cli.series_from_payload(payload)
    # reload is coefficientwise equal to the in-memory solution
    f = FracSeries.monomial(1, -1, truncation_order=20)
    direct = laguerre_vn_solve(f, 1, 30, 20).partial_sum
    assert series_allclose(loaded, direct, rel_tol=1e-15)
    # and a second serialization of the reload is byte-identical
    assert cli.series_payload(loaded) == payload


def test_solve_order_flag_overrides(tmp_path, capsys):
    path = write_cfg(
        tmp_path,
        "vn.json",
        {"kind": "vn", "f": {"terms": [[1, -1]]}, "order": 20},
    )
    rc, out, _ = run_cli(["solve", path, "--order", "8"], capsys)
    assert rc == 0
    exps = [row[0] for row in json.loads(out)["solution"]["terms"]]
    assert max(exps) <= 8


def test_solve_dyson_rotation_coefficients(tmp_path, capsys):
    path = write_cfg(
        tmp_path,
        "dy.json",
        {
            "kind": "dyson",
            "m": [[0, -1], [1, 0]],
            "alpha": 1,
            "n_iter": 12,
            "order": 8,
        },
    )
    rc, out, _ = run_cli(["solve", path], capsys)
    assert rc == 0
    entries = json.loads(out)["solution"]["entries"]
    cos_terms = {e: c for e, c, _ in entries[0][0]["terms"]}
    for k in range(0, 9, 2):
        want = (-1) ** (k // 2) / math.factorial(k)
        assert abs(cos_terms[float(k)] - want) <= 1e-15


def test_solve_fractional_matrix_runs(tmp_path, capsys):
    path = write_cfg(
        tmp_path,
        "fm.json",
        {
            "kind": "fractional-matrix",
            "m": [[0, -1], [1, 0]],
            "mu": 0.5,
            "t": 0.4,
            "y0": [1, 0],
        },
    )
    rc, out, _ = run_cli(["solve", path], capsys)
    assert rc == 0
    y = json.loads(out)["y"]
    assert len(y) == 2 and all(len(pair) == 2 for pair in y)


# -- plot-trig ----------------------------------------------------------


def test_plot_trig_csv_and_zeros(capsys):
    rc, out, err = run_cli(["plot-trig", "-10", "10", "0.5"], capsys)
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "x,lc,ls"
    rows = [line.split(",") for line in lines[1:]]
    by_x = {float(r[0]): (float(r[1]), float(r[2])) for r in rows}
    assert by_x[0.0] == (1.0, 0.0)
    # lc column against the independent Kelvin oracle
    for r in rows:
        x = float(r[0])
        if x > 0:
            assert abs(float(r[1]) - kelvin_ber(2.0 * math.sqrt(x))) <= 1e-10
            assert abs(float(r[2]) - kelvin_bei(2.0 * math.sqrt(x))) <= 1e-10
    zero_lines = [line for line in err.splitlines() if line.startswith("ls zero")]
    assert len(zero_lines) == 2
    neg = float(zero_lines[0].split("=")[1])
    pos = float(zero_lines[1].split("=")[1])
    assert neg < 0 < pos
    # positive zero against a bisection of bei(2 sqrt x) itself
    lo, hi = 5.0, 8.0
    flo = kelvin_bei(2.0 * math.sqrt(lo))
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        fm = kelvin_bei(2.0 * math.sqrt(mid))
        if (flo < 0) == (fm < 0):
            lo, flo = mid, fm
        else:
            hi = mid
    assert abs(pos - 0.5 * (lo + hi)) <= 1e-8


def test_plot_trig_deterministic(capsys):
    rc1, out1, err1 = run_cli(["plot-trig", "0", "3", "0.25"], capsys)
    rc2, out2, err2 = run_cli(["plot-trig", "0", "3", "0.25"], capsys)
    assert rc1 == rc2 == 0
    assert out1 == out2 and err1 == err2


def test_plot_trig_bad_range_exits_2(capsys):
    rc, _, err = run_cli(["plot-trig", "5", "1", "0.5"], capsys)
    assert rc == 2
    rc, _, err = run_cli(["plot-trig", "0", "1", "-0.5"], capsys)
    assert rc == 2


@pytest.mark.parametrize("argv", [["0", "inf", "1"], ["0", "1", "nan"], ["--", "-inf", "1", "1"]])
def test_plot_trig_non_finite_bound_is_a_domain_error(argv, capsys):
    rc, out, err = run_cli(["plot-trig", *argv], capsys)
    assert rc == 3 and out == ""
    assert err.startswith("error: ") and "finite" in err


def test_plot_trig_out_file(tmp_path, capsys):
    out = tmp_path / "table.csv"
    rc, report, _ = run_cli(["plot-trig", "0", "8", "0.5", "--out", str(out)], capsys)
    assert rc == 0
    text = out.read_text()
    assert text.startswith("x,lc,ls\n")
    assert "\r" not in text
    # with --out, the zero report goes to stdout
    assert "ls zero (positive)" in report


# -- verify -------------------------------------------------------------


def test_verify_special_passes(capsys):
    rc, out, _ = run_cli(["verify", "special"], capsys)
    assert rc == 0
    assert "PASS" in out and "FAIL" not in out


def test_verify_all_passes(capsys):
    rc, out, _ = run_cli(["verify", "all"], capsys)
    assert rc == 0
    assert out.strip().splitlines()[-1].endswith("checks passed")


def test_verify_all_json(capsys):
    rc, out, _ = run_cli(["verify", "all", "--json"], capsys)
    assert rc == 0
    rows = json.loads(out)
    assert len(rows) == 31
    assert all(r["passed"] for r in rows)
    assert {r["suite"] for r in rows} == {"special", "umbral", "weyl", "peo", "vn"}
    for r in rows:
        assert list(r) == ["suite", "name", "passed", "residual", "detail", "seconds"]
        assert isinstance(r["residual"], float) and r["seconds"] >= 0.0
    # the same checks, in the same order, as the plain listing
    _, plain, _ = run_cli(["verify", "all"], capsys)
    names = [line.split("  ")[1] for line in plain.splitlines()[:-1]]
    assert [r["name"] for r in rows] == names


def test_verify_unknown_suite_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "nosuch"])
    assert exc.value.code == 2


# -- process-level smoke --------------------------------------------------


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "peocalc.cli", "eval", "le", "1.0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("value = ")


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "h3", "5", "1e60", "1e250"],
        ["plot-trig", "0", "inf", "1"],
        ["solve", {"kind": "matrix", "m": [[-1e300, 1e300], ["1/3", 2]], "t": 50}],
    ],
)
def test_overflow_and_non_finite_bounds_exit_3_as_a_process(argv, tmp_path):
    argv = [write_cfg(tmp_path, "cfg.json", a) if isinstance(a, dict) else a for a in argv]
    # 1 GiB of address space, so a grid that never ends fails fast
    cap = functools.partial(resource.setrlimit, resource.RLIMIT_AS, (1 << 30, 1 << 30))
    proc = subprocess.run(
        [sys.executable, "-m", "peocalc.cli", *argv],
        capture_output=True, text=True, timeout=20, preexec_fn=cap,
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == "" and proc.stderr.startswith("error: ")


# -- imports -------------------------------------------------------------

# the names `peocalc` exported before its imports became lazy, by module
PUBLIC_NAMES = {
    "errors": ["ConditioningError", "ConvergenceError", "DomainError", "GammaPoleError"],
    "gammafn": ["beta", "gamma", "log_gamma_real", "recip_gamma"],
    "series": [
        "FracSeries", "laguerre_antiderivative", "laguerre_derivative",
        "laguerre_fractional_derivative", "rl_derivative", "rl_integral",
        "series_allclose", "series_eval", "series_mul",
    ],
    "special": [
        "DEFAULT_CONFIG", "SeriesEvalConfig", "hermite3", "laguerre_cos",
        "laguerre_e_nm", "laguerre_exp", "laguerre_sin", "mittag_leffler",
    ],
    "umbral": [
        "UmbralSum", "UmbralTerm", "VariableAllocator", "fio_eval",
        "fio_eval_series", "laguerre_semigroup_check", "ml_semigroup_discrepancy",
    ],
    "weyl": [
        "GaussianRational", "GradedOpSeries", "Polynomial", "WeylElement", "apply",
        "commutator", "graded_exp", "weyl_mul", "zassenhaus_coeff",
    ],
    "volterra": [
        "MatrixSeries", "VNState", "cos_recursion_coeffs", "cos_recursion_iterate",
        "cosine_series", "dyson_evolution_operator",
        "fractional_vn_monomial_closed_form", "fractional_vn_solve",
        "laguerre_vn_solve",
    ],
    "solvers": [
        "BivariateSeries", "EigenKernel", "EXP_KERNEL", "LAGUERRE_KERNEL", "Matrix2",
        "fractional_matrix_evolution", "fractional_schrodinger",
        "matrix_laguerre_exp", "mittag_leffler_kernel", "pseudo_rotation",
        "solve_laguerre_drift", "solve_laguerre_schrodinger",
        "solve_laguerre_schrodinger_general", "solve_laguerre_transport",
    ],
    "verify": ["CheckResult", "run_suite"],
}


def test_package_exports_the_same_objects():
    want = [name for names in PUBLIC_NAMES.values() for name in names]
    assert sorted(peocalc.__all__) == sorted(want) and len(want) == 66
    for module, names in PUBLIC_NAMES.items():
        mod = importlib.import_module(f"peocalc.{module}")
        for name in names:
            assert getattr(peocalc, name) is getattr(mod, name), name
    with pytest.raises(AttributeError):
        peocalc.no_such_name


def test_imports_load_only_what_a_command_needs(tmp_path):
    # -S, because site itself imports typing on some installs
    heavy = "sorted({'dataclasses', 'typing', 'inspect', 'json', 'cmath'} & set(sys.modules))"
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import peocalc\n"
        "print(sorted(set(sys.modules) - before))\n"
        "from peocalc import laguerre_exp\n"
        "print(sorted(m for m in sys.modules if m.startswith('peocalc.')))\n"
        "from peocalc import cli\n"
        f"print({heavy})\n"
        "cli.main(['eval', 'le', '1'])\n"
        "print(sorted(m for m in sys.modules if m.startswith('peocalc.')))\n"
        f"print({heavy})\n"
        "print(cli.main(['solve', sys.argv[1], '--out', sys.argv[2]]), 'json' in sys.modules)\n"
    )
    config = write_cfg(tmp_path, "vn.json", {"kind": "vn", "f": {"terms": [[0, 1]]}, "order": 4})
    out_path = tmp_path / "out.json"
    src = os.path.dirname(os.path.dirname(peocalc.__file__))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script, config, str(out_path)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    added, after_scalar, heavy_after_import, _, _, after_eval, heavy_after_eval, _, solved = lines
    # the package loads no submodule, and no importlib or warnings either
    assert ast.literal_eval(added) == ["peocalc"]
    assert ast.literal_eval(after_scalar) == ["peocalc.errors", "peocalc.gammafn", "peocalc.special"]
    assert heavy_after_import == heavy_after_eval == "[]"
    loaded = set(ast.literal_eval(after_eval))
    assert "peocalc.verify" in loaded
    assert not loaded & {
        "peocalc.series", "peocalc.umbral", "peocalc.weyl", "peocalc.solvers", "peocalc.volterra"
    }
    # solve imports json on use and still writes its payload
    assert solved == "0 True"
    payload = json.loads(out_path.read_text())
    assert payload["kind"] == "vn" and payload["closed_form"]["matches"]
