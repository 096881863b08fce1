"""peocalc benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload scalar-grid --seed 1 --seconds 12 --trace 0

Run from the root of a checkout.  The run

1. measures set-up: fresh child interpreters time ``import peocalc``
   (``import peocalc.cli`` for cli-session and for every traced run)
   around the import statement, against a bytecode cache that the first
   child warms;
2. starts ``worker.py``, the measured process, which runs whole rounds of
   the workload in a closed loop and writes every input and output;
3. checks every output with ``oracles.py`` (scipy, mpmath and local exact
   arithmetic, never peocalc) after the worker has exited;
4. prints, as its last line, ``{"correct", "attempted", "failed",
   "metrics"}``: the end-to-end metrics with ``--trace 0``, the per-layer
   metrics with ``--trace 1``.

Run outputs go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("scalar-grid", "exact-operator", "series-evolution", "cli-session")
SETUP_CHILDREN = 15
PROCESS_CHILDREN = 5
CHILD_TIMEOUT = 60
WORKER_TIMEOUT = 150


def child_env(out_dir: str, site_env: bool = False) -> dict:
    """Environment of every child interpreter.

    The bytecode cache is pinned under ``out_dir`` so that a machine-wide
    PYTHONDONTWRITEBYTECODE does not make each child recompile ``src/``.
    """
    if site_env:
        env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    else:
        env = {"PATH": os.environ.get("PATH", "/usr/bin:/bin")}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPYCACHEPREFIX"] = os.path.join(out_dir, "pycache")
    return env


def import_seconds(root: str, out_dir: str, module: str, n: int) -> list[float]:
    """Time ``import module`` inside n fresh interpreters; the first warms the cache.

    Each child runs the calibration loop just before and just after the
    import, and reports the import time scaled as in calib.py.
    """
    code = (
        "import sys, time\n"
        f"sys.path.insert(0, {HERE!r})\n"
        "from calib import NOMINAL_NS, calibration_ns\n"
        f"sys.path.insert(0, {os.path.join(root, 'src')!r})\n"
        "before = calibration_ns()\n"
        "t0 = time.perf_counter_ns()\n"
        f"import {module}\n"
        "t1 = time.perf_counter_ns()\n"
        "print((t1 - t0) * NOMINAL_NS / ((before + calibration_ns()) / 2) / 1e9)\n"
    )
    times = []
    for i in range(n + 1):
        res = subprocess.run([sys.executable, "-S", "-c", code], env=child_env(out_dir),
                             capture_output=True, text=True, timeout=CHILD_TIMEOUT, check=True)
        if i:
            times.append(float(res.stdout.strip().splitlines()[-1]))
    return times


def warm_worker_imports(root: str, out_dir: str) -> None:
    """Import everything the worker imports once, so that its bytecode is
    cached and a first run in a fresh checkout does not compile (and so use
    more memory) inside the measured process.  shutil and locale are what
    argparse imports lazily during a CLI call."""
    code = f"import sys; sys.path[:0] = [{HERE!r}, {os.path.join(root, 'src')!r}]; import worker, shutil, locale"
    subprocess.run([sys.executable, "-S", "-c", code], env=child_env(out_dir),
                   capture_output=True, timeout=CHILD_TIMEOUT, check=True)


def process_ms(root: str, out_dir: str, n: int) -> float:
    """Median wall time of a spawned ``peocalc eval le 1``, site imports included."""
    env = child_env(out_dir, site_env=True)
    env["PYTHONPATH"] = os.path.join(root, "src")
    walls = []
    for _ in range(n + 1):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-m", "peocalc.cli", "eval", "le", "1"], env=env,
                       capture_output=True, timeout=CHILD_TIMEOUT, check=True)
        walls.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(walls[1:])


def nearest_rank(sorted_vals, num, den):
    """Smallest value with at least num/den of the sample at or below it."""
    k = max(1, -(-len(sorted_vals) * num // den))
    return sorted_vals[k - 1]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "peocalc", "__init__.py")):
        print("error: run from the root of a peocalc checkout (src/peocalc is missing)", file=sys.stderr)
        return 2
    out_dir = os.path.join(root, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    tag = f"{args.workload}-{args.seed}-{'trace' if args.trace else 'run'}"
    records = os.path.join(out_dir, f"{tag}.records.jsonl")

    warm_worker_imports(root, out_dir)
    module = "peocalc.cli" if args.workload == "cli-session" or args.trace else "peocalc"
    setup = import_seconds(root, out_dir, module, SETUP_CHILDREN)

    cmd = [sys.executable, "-S", os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--records", records]
    res = subprocess.run(cmd, env=child_env(out_dir), capture_output=True, text=True, timeout=WORKER_TIMEOUT)
    if res.returncode != 0:
        sys.stderr.write(res.stderr)
        print(f"error: worker exited {res.returncode}", file=sys.stderr)
        return 1
    summary = json.loads(res.stdout.strip().splitlines()[-1])

    sys.path.insert(0, HERE)
    import oracles  # scipy and mpmath load only now, in this process, after timing

    attempted, failed, wrong, repeated = oracles.check_records(records)
    for round_index, cls, why in (failed + wrong)[:10]:
        print(f"{'failed' if (round_index, cls, why) in failed else 'wrong'}: round {round_index} {cls}: {why}",
              file=sys.stderr)
    if attempted != summary["ops"]:
        print(f"error: {attempted} records for {summary['ops']} operations", file=sys.stderr)
        return 1
    first_pass = attempted // 3 if args.trace else attempted
    print(f"{args.workload} seed {args.seed}: {summary['rounds']} rounds, {attempted} operations, "
          f"{len(failed)} failed, {len(wrong)} wrong, repeated inputs {repeated / first_pass:.3f}",
          file=sys.stderr)
    if not args.trace:
        scale = sum(summary["latencies_ns"]) / summary["raw_ns"]
        print(f"times scaled by {scale:.3f} to the reference speed (calib.py)", file=sys.stderr)

    if args.trace:
        layers = summary["layers"]
        layers["cli.import_ms"] = statistics.median(setup) * 1e3
        layers["cli.process_ms"] = process_ms(root, out_dir, PROCESS_CHILDREN)
        metrics = {name: {"value": value, "unit": layer_unit(name)} for name, value in layers.items()}
    else:
        lat = sorted(v / 1e6 for v in summary["latencies_ns"])
        verified = attempted - len(failed)
        metrics = {
            "throughput_ops_s": {"value": verified / (sum(lat) / 1e3), "unit": "1/s"},
            "latency_p50_ms": {"value": nearest_rank(lat, 1, 2), "unit": "ms"},
            "latency_p90_ms": {"value": nearest_rank(lat, 9, 10), "unit": "ms"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": summary["rss_kb"] / 1024, "unit": "MB"},
        }
    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": len(failed), "metrics": metrics}))
    return 0


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name == "trace.overhead_ratio":
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
