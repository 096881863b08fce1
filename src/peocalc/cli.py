"""Command-line front end.

Four subcommands:

  eval       evaluate a special function at a point
  solve      run a solver described by a JSON config file
  plot-trig  tabulate the pseudo-trigonometric pair as CSV
  verify     run the built-in identity suites

Exit codes: 0 on success, 2 for usage or config problems, 3 when a
solver refuses its input (domain, convergence, conditioning).  Output
is deterministic: the same invocation produces byte-identical bytes,
floats are printed with repr-quality precision, CSV uses comma, dot
and LF throughout.

Start-up loads `errors`, `gammafn`, `special` and `verify` of the package
and no `series`, `umbral`, `cmath`, `dataclasses`, `typing` or `json`, which
`eval` does not use: `solve` and `verify --json` import json, the solve
handlers `series`, `solvers` and `volterra`, and the suites what they check,
on use.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys
from fractions import Fraction

from .errors import ConditioningError, ConvergenceError, DomainError
from .special import (
    DEFAULT_CONFIG,
    SeriesEvalConfig,
    hermite3,
    laguerre_cos,
    laguerre_e_nm,
    laguerre_exp,
    laguerre_sin,
    mittag_leffler,
)
from . import verify as verify_mod


class ConfigError(Exception):
    """Bad config file contents; maps to exit code 2."""


def _fmt(x: float) -> str:
    return "%.17g" % x


def _fmt_value(v) -> str:
    if isinstance(v, complex):
        return f"{_fmt(v.real)} {'+' if v.imag >= 0 else '-'} {_fmt(abs(v.imag))}j"
    if isinstance(v, (int, Fraction)):
        return str(v)
    return _fmt(float(v))


# -- config parsing helpers --------------------------------------------------

_MISSING = object()


def _get(cfg: dict, key: str, kinds, default=_MISSING):
    if key not in cfg:
        if default is not _MISSING:
            return default
        raise ConfigError(f"config is missing {key!r}")
    v = cfg[key]
    if not isinstance(v, kinds) or isinstance(v, bool):
        raise ConfigError(f"config field {key!r} has the wrong type")
    return v


def _number(v, where: str):
    """Accept a JSON number, a 'p/q' string, or an [re, im] pair."""
    if isinstance(v, bool):
        raise ConfigError(f"{where}: expected a number")
    if isinstance(v, int):
        return v
    if isinstance(v, float):
        return v
    if isinstance(v, str):
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError) as e:
            raise ConfigError(f"{where}: bad rational literal {v!r}") from e
    if isinstance(v, list) and len(v) == 2:
        re, im = v
        if all(isinstance(u, (int, float)) and not isinstance(u, bool) for u in v):
            return complex(re, im)
    raise ConfigError(f"{where}: expected a number, 'p/q', or [re, im]")


def _real(v, where: str) -> float:
    n = _number(v, where)
    if isinstance(n, complex):
        raise ConfigError(f"{where}: must be real")
    return n


def _series_from_spec(spec, order, where: str) -> FracSeries:
    from .series import FracSeries

    if not isinstance(spec, dict) or "terms" not in spec:
        raise ConfigError(f"{where}: expected an object with a 'terms' list")
    raw = spec["terms"]
    if not isinstance(raw, list):
        raise ConfigError(f"{where}: 'terms' must be a list of [exponent, coeff]")
    terms = []
    for i, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != 2:
            raise ConfigError(f"{where}: term {i} must be [exponent, coeff]")
        e = _number(row[0], f"{where} term {i} exponent")
        if isinstance(e, complex):
            raise ConfigError(f"{where}: term {i} exponent must be real")
        c = _number(row[1], f"{where} term {i} coefficient")
        terms.append((e, c))
    return FracSeries(terms, truncation_order=order, truncated=True)


def _cfg_eval(args) -> SeriesEvalConfig:
    tol = DEFAULT_CONFIG.rel_tol if args.tol is None else args.tol
    max_terms = DEFAULT_CONFIG.max_terms if args.max_terms is None else args.max_terms
    if tol <= 0 or max_terms < 1:
        raise ConfigError("--tol must be positive and --max-terms at least 1")
    return SeriesEvalConfig(rel_tol=tol, max_terms=max_terms)


# -- serialization -----------------------------------------------------------


def series_payload(s: FracSeries) -> dict:
    rows = []
    for e, c in s.terms:
        z = complex(c)
        rows.append([float(e), z.real, z.imag])
    order = s.truncation_order
    return {
        "type": "power_series",
        "terms": rows,
        "truncation_order": "inf" if order == math.inf else float(order),
        "truncated": s.truncated,
    }


def series_from_payload(p: dict) -> FracSeries:
    from .series import FracSeries

    if not isinstance(p, dict) or p.get("type") != "power_series":
        raise ConfigError("payload is not a serialized power series")
    order = p.get("truncation_order", "inf")
    order = math.inf if order == "inf" else float(order)
    terms = []
    for e, re, im in p["terms"]:
        terms.append((e, complex(re, im) if im else re))
    return FracSeries(terms, truncation_order=order, truncated=p.get("truncated", True))


def bivariate_payload(s) -> dict:
    rows = []
    for (k, e), c in s.items():
        z = complex(c)
        rows.append([k, float(e), z.real, z.imag])
    return {"type": "bivariate_series", "terms": rows}


def _matrix_payload(m: solvers.Matrix2) -> dict:
    return {
        "type": "matrix",
        "entries": [[[z.real, z.imag] for z in row] for row in m.rows()],
    }


def _matrix_series_payload(ms) -> dict:
    n = ms.n
    return {
        "type": "matrix_series",
        "entries": [
            [series_payload(ms.entry(i, j)) for j in range(n)] for i in range(n)
        ],
    }


def _emit(payload: dict, out_path) -> None:
    import json
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w", newline="\n") as fh:
            fh.write(text)
        print(f"wrote {out_path}")
    else:
        sys.stdout.write(text)


# -- eval --------------------------------------------------------------------


EVAL_TABLE = {  # name: (function(*args, cfg) -> (value, terms), argument names)
    "le": (laguerre_exp, "x"),
    "lc": (laguerre_cos, "x"),
    "ls": (laguerre_sin, "x"),
    "le_nm": (laguerre_e_nm, "n m x"),
    "ml": (mittag_leffler, "alpha beta x"),
    "h3": (lambda n, x, y, cfg: (hermite3(n, x, y), n // 3 + 1), "n x y"),
}


def _eval_args(argv, names: list) -> list:
    """n and m as ints, the rest as floats; a NaN or an infinity is a DomainError."""
    vals = [int(a) if name in ("n", "m") else float(a) for name, a in zip(names, argv)]
    if not all(map(math.isfinite, vals)):
        raise DomainError(f"eval needs finite arguments, got {' '.join(argv)}")
    return vals


def cmd_eval(args) -> int:
    fn, usage = EVAL_TABLE[args.function]
    if len(args.args) != len(usage.split()):
        print(f"usage: peocalc eval {args.function} {usage}", file=sys.stderr)
        return 2
    try:
        cfg = _cfg_eval(args)
        value, terms = fn(*_eval_args(args.args, usage.split()), cfg)
    except ValueError as e:
        if isinstance(e, DomainError):
            raise
        print(f"error: bad argument for {args.function}: {e}", file=sys.stderr)
        return 2
    print(f"value = {_fmt_value(value)}")
    print(f"terms = {terms}")
    return 0


# -- solve -------------------------------------------------------------------


def _kernel_from_cfg(cfg) -> solvers.EigenKernel:
    from . import solvers

    spec = cfg.get("kernel", "laguerre")
    if spec == "laguerre":
        return solvers.LAGUERRE_KERNEL
    if spec == "exp":
        return solvers.EXP_KERNEL
    if isinstance(spec, dict) and spec.get("name") == "mittag_leffler":
        return solvers.mittag_leffler_kernel(_real(spec.get("mu"), "kernel mu"))
    raise ConfigError(f"unknown kernel {spec!r}")


def _solve_transport(cfg, args) -> dict:
    from . import solvers

    coeffs = _get(cfg, "initial", list)
    poly = {
        k: _number(c, f"initial[{k}]") for k, c in enumerate(coeffs) if c != 0
    }
    alpha = _number(_get(cfg, "alpha", (int, float, str, list)), "alpha")
    n_max = _get(cfg, "n_max", int, 8)
    if args.order is not None:
        n_max = int(args.order)
    kernel = _kernel_from_cfg(cfg)
    sol = solvers.solve_laguerre_transport(poly, alpha, n_max, kernel)
    payload = {"kind": "transport", "solution": bivariate_payload(sol)}
    if kernel.kind != "mittag_leffler":
        res = solvers.transport_residual(sol, alpha, kernel)
        payload["residual_max"] = res.restrict_t(n_max - 1).max_abs_coeff()
    return payload


def _solve_drift(cfg, args) -> dict:
    from . import solvers

    alpha = _real(_get(cfg, "alpha", (int, float, str)), "alpha")
    beta = _real(_get(cfg, "beta", (int, float, str)), "beta")
    t = _real(_get(cfg, "t", (int, float)), "t")
    method = _get(cfg, "method", str, "single")
    if "x_grid" in cfg:
        xs = [_real(v, "x_grid entry") for v in _get(cfg, "x_grid", list)]
    else:
        xs = [_real(_get(cfg, "x", (int, float)), "x")]
    cfg_eval = _cfg_eval(args)
    values = [
        [float(x), solvers.solve_laguerre_drift(float(alpha), float(beta), float(x), t, cfg_eval, method)]
        for x in xs
    ]
    return {"kind": "drift", "t": t, "values": values}


def _solve_schrodinger(cfg, args) -> dict:
    from . import solvers

    alpha = _number(_get(cfg, "alpha", (int, float, str)), "alpha")
    beta = _number(_get(cfg, "beta", (int, float, str)), "beta")
    n_max = _get(cfg, "n_max", int, 10)
    if args.order is not None:
        n_max = int(args.order)
    if "phi" in cfg:
        from .weyl import Polynomial

        coeffs = _get(cfg, "phi", list)
        poly = Polynomial(
            {
                k: Fraction(_real(c, f"phi[{k}]"))
                for k, c in enumerate(coeffs)
                if c != 0
            }
        )
        sol = solvers.solve_laguerre_schrodinger_general(
            poly, Fraction(_real(cfg["alpha"], "alpha")), Fraction(_real(cfg["beta"], "beta")), n_max
        )
        return {"kind": "schrodinger", "solution": bivariate_payload(sol)}
    x = _real(_get(cfg, "x", (int, float)), "x")
    t = _real(_get(cfg, "t", (int, float)), "t")
    v = solvers.solve_laguerre_schrodinger(float(alpha), float(beta), x, t, n_max)
    return {"kind": "schrodinger", "value": [v.real, v.imag]}


def _matrix_from_cfg(cfg, key="m") -> solvers.Matrix2:
    from . import solvers

    rows = _get(cfg, key, list)
    if len(rows) != 2 or any(not isinstance(r, list) or len(r) != 2 for r in rows):
        raise ConfigError(f"{key!r} must be a 2x2 array")
    a, b = (_number(v, f"{key}[0]") for v in rows[0])
    c, d = (_number(v, f"{key}[1]") for v in rows[1])
    return solvers.Matrix2(complex(a), complex(b), complex(c), complex(d))


def _solve_matrix(cfg, args) -> dict:
    from . import solvers

    m = _matrix_from_cfg(cfg)
    t = _real(_get(cfg, "t", (int, float)), "t")
    method = _get(cfg, "method", str, "cayley_hamilton")
    kernel = _kernel_from_cfg(cfg)
    e = solvers.matrix_pseudo_exp(m, t, kernel, _cfg_eval(args), method)
    return {"kind": "matrix", "t": t, "result": _matrix_payload(e)}


def _solve_fractional_matrix(cfg, args) -> dict:
    from . import solvers

    m = _matrix_from_cfg(cfg)
    mu = _real(_get(cfg, "mu", (int, float, str)), "mu")
    t = _real(_get(cfg, "t", (int, float)), "t")
    y0_raw = _get(cfg, "y0", list)
    if len(y0_raw) != 2:
        raise ConfigError("'y0' must have two entries")
    y0 = tuple(complex(_number(v, "y0")) for v in y0_raw)
    method = _get(cfg, "method", str, "cayley_hamilton")
    y = solvers.fractional_matrix_evolution(m, float(mu), t, y0, _cfg_eval(args), method)
    return {"kind": "fractional-matrix", "t": t, "y": [[z.real, z.imag] for z in y]}


def _solve_fractional_schrodinger(cfg, args) -> dict:
    from . import solvers

    alpha = _number(_get(cfg, "alpha", (int, float, str)), "alpha")
    beta = _number(_get(cfg, "beta", (int, float, str)), "beta")
    mu = _get(cfg, "mu", (int, float, str))
    mu = Fraction(mu) if isinstance(mu, str) else mu
    n_max = _get(cfg, "n_max", int, 10)
    if args.order is not None:
        n_max = int(args.order)
    if cfg.get("series", False):
        sol = solvers.fractional_schrodinger_series(alpha, beta, mu, n_max)
        return {"kind": "fractional-schrodinger", "solution": bivariate_payload(sol)}
    x = _real(_get(cfg, "x", (int, float)), "x")
    t = _real(_get(cfg, "t", (int, float)), "t")
    v = solvers.fractional_schrodinger(float(alpha), float(beta), float(mu), x, t, n_max)
    return {"kind": "fractional-schrodinger", "value": [v.real, v.imag]}


def _closed_form_report(f: FracSeries, y0, partial: FracSeries, order) -> dict | None:
    """For a one-term kernel c t^m (integer m >= 0) and y0 = 1 the Neumann
    sum telescopes to laguerre_exp(c t^(m+1) / (m+1)^2); report the match."""
    from .series import FracSeries, series_max_deviation

    terms = f.terms
    if len(terms) != 1 or y0 != 1:
        return None
    e, c = terms[0]
    m = int(e)
    if m != e or m < 0:
        return None
    arg_scale = (
        Fraction(c, (m + 1) ** 2)
        if isinstance(c, (int, Fraction))
        else c / (m + 1) ** 2
    )
    closed_terms = []
    n = 0
    while n * (m + 1) <= order:
        closed_terms.append(
            (n * (m + 1), arg_scale**n * Fraction(1, math.factorial(n) ** 2))
        )
        n += 1
    closed = FracSeries(closed_terms, truncation_order=order, truncated=True)
    dev = series_max_deviation(partial, closed)
    return {
        "form": f"laguerre_exp({arg_scale} * t^{m + 1})",
        "matches": bool(partial == closed or dev <= 1e-13),
        "max_deviation": dev,
    }


def _solve_vn(cfg, args) -> dict:
    from . import volterra

    order = _real(_get(cfg, "order", (int, float), 20), "order")
    if args.order is not None:
        order = args.order
    f = _series_from_spec(_get(cfg, "f", dict), order, "f")
    y0 = _number(_get(cfg, "y0", (int, float, str, list), 1), "y0")
    n_iter = _get(cfg, "n_iter", int, 30)
    state = volterra.laguerre_vn_solve(f, y0, n_iter, order)
    payload = {
        "kind": "vn",
        "iterations": len(state.iterates) - 1,
        "solution": series_payload(state.partial_sum),
    }
    report = _closed_form_report(f, y0, state.partial_sum, order)
    if report is not None:
        payload["closed_form"] = report
    return payload


def _solve_fractional_vn(cfg, args) -> dict:
    from . import volterra

    order = _real(_get(cfg, "order", (int, float), 20), "order")
    if args.order is not None:
        order = args.order
    alpha = _real(_get(cfg, "alpha", (int, float, str)), "alpha")
    f = _series_from_spec(_get(cfg, "f", dict), order, "f")
    y0 = _number(_get(cfg, "y0", (int, float, str, list), 1), "y0")
    n_iter = _get(cfg, "n_iter", int, 30)
    state = volterra.fractional_vn_solve(f, alpha, y0, n_iter, order)
    return {
        "kind": "fractional-vn",
        "alpha": float(alpha),
        "iterations": len(state.iterates) - 1,
        "solution": series_payload(state.partial_sum),
    }


def _solve_dyson(cfg, args) -> dict:
    from . import volterra
    from .series import FracSeries

    order = _real(_get(cfg, "order", (int, float), 10), "order")
    if args.order is not None:
        order = args.order
    alpha = _real(_get(cfg, "alpha", (int, float, str)), "alpha")
    rows = _get(cfg, "m", list)
    n = len(rows)
    if n == 0 or any(not isinstance(r, list) or len(r) != n for r in rows):
        raise ConfigError("'m' must be a square array")
    grid = []
    for i, row in enumerate(rows):
        out_row = []
        for j, entry in enumerate(row):
            if isinstance(entry, dict):
                out_row.append(_series_from_spec(entry, order, f"m[{i}][{j}]"))
            else:
                v = _number(entry, f"m[{i}][{j}]")
                out_row.append(
                    FracSeries.constant(v, order) if v != 0 else FracSeries.zero(order)
                )
        grid.append(out_row)
    n_iter = _get(cfg, "n_iter", int, 30)
    variant = _get(cfg, "variant", str, "recursion")
    u = volterra.dyson_evolution_operator(
        volterra.MatrixSeries(grid), alpha, n_iter, order, variant
    )
    payload = {
        "kind": "dyson",
        "alpha": float(alpha),
        "variant": variant,
        "solution": _matrix_series_payload(u),
    }
    if "t_eval" in cfg:
        ts = [_real(v, "t_eval entry") for v in _get(cfg, "t_eval", list)]
        payload["values"] = [
            {
                "t": float(t),
                "u": [
                    [[complex(z).real, complex(z).imag] for z in row]
                    for row in u.eval(float(t))
                ],
            }
            for t in ts
        ]
    return payload


SOLVE_TABLE = {
    "transport": _solve_transport,
    "drift": _solve_drift,
    "schrodinger": _solve_schrodinger,
    "matrix": _solve_matrix,
    "fractional-matrix": _solve_fractional_matrix,
    "fractional-schrodinger": _solve_fractional_schrodinger,
    "vn": _solve_vn,
    "fractional-vn": _solve_fractional_vn,
    "dyson": _solve_dyson,
}


def cmd_solve(args) -> int:
    import json
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except OSError as e:
        print(f"error: cannot read config: {e}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as e:
        print(f"error: config is not valid JSON: {e}", file=sys.stderr)
        return 2
    if not isinstance(cfg, dict):
        print("error: config must be a JSON object", file=sys.stderr)
        return 2
    kind = cfg.get("kind")
    if kind not in SOLVE_TABLE:
        known = ", ".join(sorted(SOLVE_TABLE))
        print(f"error: unknown problem kind {kind!r}; known: {known}", file=sys.stderr)
        return 2
    payload = SOLVE_TABLE[kind](cfg, args)
    _emit(payload, args.out)
    return 0


# -- plot-trig ---------------------------------------------------------------


def _bisect_ls(lo: float, hi: float, cfg) -> float:
    flo = laguerre_sin(lo, cfg).value
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        fmid = laguerre_sin(mid, cfg).value
        if fmid == 0.0:
            return mid
        if (flo < 0) == (fmid < 0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _first_sign_change(xs, vals):
    for (a, fa), (b, fb) in zip(zip(xs, vals), zip(xs[1:], vals[1:])):
        if fa != 0.0 and fb != 0.0 and (fa < 0) != (fb < 0):
            return a, b
    return None


def cmd_plot_trig(args) -> int:
    x_min, x_max, step = args.x_min, args.x_max, args.step
    if not all(map(math.isfinite, (x_min, x_max, step))):
        raise DomainError(f"plot-trig needs finite bounds and step, got {x_min}, {x_max}, {step}")
    if not (x_min < x_max) or step <= 0:
        print("error: need x_min < x_max and step > 0", file=sys.stderr)
        return 2
    cfg = _cfg_eval(args)
    xs = []
    k = 0
    while True:
        x = x_min + k * step
        if x > x_max + 1e-12 * step:
            break
        xs.append(x)
        k += 1
    le_ix = [laguerre_exp(complex(0.0, x), cfg).value for x in xs]
    lc = [v.real for v in le_ix]
    ls = [v.imag for v in le_ix]
    lines = ["x,lc,ls"]
    lines.extend(f"{_fmt(x)},{_fmt(c)},{_fmt(s)}" for x, c, s in zip(xs, lc, ls))
    text = "\n".join(lines) + "\n"
    report_to = sys.stdout if args.out else sys.stderr
    if args.out:
        with open(args.out, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    neg_idx = [i for i, x in enumerate(xs) if x < 0]
    pos_idx = [i for i, x in enumerate(xs) if x > 0]
    for label, idx in (
        ("negative", list(reversed(neg_idx))),
        ("positive", pos_idx),
    ):
        bracket = _first_sign_change(
            [xs[i] for i in idx], [ls[i] for i in idx]
        )
        if bracket is None:
            print(f"ls zero ({label}): not bracketed in range", file=report_to)
        else:
            zero = _bisect_ls(min(bracket), max(bracket), cfg)
            print(f"ls zero ({label}): x = {_fmt(zero)}", file=report_to)
    return 0


# -- verify ------------------------------------------------------------------


def cmd_verify(args) -> int:
    if args.json:
        import json
        rows = verify_mod.report(args.suite)
        sys.stdout.write(json.dumps(rows, indent=2) + "\n")
        return 0 if all(r["passed"] for r in rows) else 1
    results = verify_mod.run_suite(args.suite)
    for r in results:
        print(r.line())
    failed = sum(1 for r in results if not r.passed)
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


# -- entry point -------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared afterwards."""
    parser = argparse.ArgumentParser(
        prog="peocalc",
        description="pseudo-evolution operator calculus toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a special function")
    p_eval.add_argument("function", choices=sorted(EVAL_TABLE))
    p_eval.add_argument("args", nargs="*")
    # read -1e5, -inf and -nan as values, as argparse reads -3; _eval_args refuses -inf and -nan
    p_eval._negative_number_matcher = re.compile(r"^-(\d|\.\d|inf|nan)", re.I)
    p_eval.add_argument("--tol", type=float, default=None)
    p_eval.add_argument("--max-terms", type=int, default=None)
    p_eval.set_defaults(func=cmd_eval)

    p_solve = sub.add_parser("solve", help="run a solver from a JSON config")
    p_solve.add_argument("config")
    p_solve.add_argument("--out", default=None)
    p_solve.add_argument("--tol", type=float, default=None)
    p_solve.add_argument("--order", type=float, default=None)
    p_solve.add_argument("--max-terms", type=int, default=None)
    p_solve.set_defaults(func=cmd_solve)

    p_plot = sub.add_parser("plot-trig", help="tabulate lc and ls as CSV")
    p_plot.add_argument("x_min", type=float)
    p_plot.add_argument("x_max", type=float)
    p_plot.add_argument("step", type=float)
    p_plot.add_argument("--out", default=None)
    p_plot.add_argument("--tol", type=float, default=None)
    p_plot.add_argument("--max-terms", type=int, default=None)
    p_plot.set_defaults(func=cmd_plot_trig)

    p_verify = sub.add_parser("verify", help="run identity verification suites")
    p_verify.add_argument("suite", choices=[*sorted(verify_mod.SUITES), "all"])
    p_verify.add_argument(
        "--json", action="store_true", help="print one JSON object per check"
    )
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except DomainError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (ConvergenceError, ConditioningError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
