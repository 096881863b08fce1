"""Steadiness check: how far the end-to-end metrics move on unchanged code.

    python3 perfbench/steady.py --seed-base 5000 --out .perfbench_out/steady-a.json
    python3 perfbench/steady.py --seed-base 6000 --against .perfbench_out/steady-a.json

Runs ``BENCHMARK.json``'s command for each workload ten times, each a
separate invocation with its own seed, and reports for every end-to-end
metric the median, the quartiles (``statistics.quantiles(values, n=4)``)
and the spread (Q3 - Q1) / median against the metric's bound.  With
``--against`` it also compares the medians with an earlier set and reports
any metric whose median got worse by more than its bound.  It also checks
that the share of failed operations is identical across all runs.  Exit
status 1 when any check fails.
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
ROOT = os.path.dirname(HERE)
RUNS = 10


def run_once(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    t0 = time.perf_counter()
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    wall = time.perf_counter() - t0
    if res.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {res.returncode}:\n{res.stderr}")
    out = json.loads(res.stdout.strip().splitlines()[-1])
    return out, wall


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed-base", type=int, default=1000)
    p.add_argument("--out", default=None, help="write the raw results here as JSON")
    p.add_argument("--against", default=None, help="earlier --out file to compare medians with")
    args = p.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    metrics = bench["end_to_end"]
    workloads = [w["name"] for w in bench["workloads"]]
    earlier = None
    if args.against:
        with open(args.against) as fh:
            earlier = json.load(fh)

    ok = True
    results = {}
    for workload in workloads:
        runs = []
        for i in range(RUNS):
            out, wall = run_once(bench, workload, args.seed_base + i)
            runs.append(out)
            print(f"  {workload} seed {args.seed_base + i}: {wall:.1f} s, correct={out['correct']}, "
                  f"{out['attempted']} attempted, {out['failed']} failed", file=sys.stderr)
            ok &= out["correct"]
        shares = {r["failed"] / r["attempted"] for r in runs}
        if len(shares) != 1:
            print(f"{workload}: failed share differs between runs: {sorted(shares)}")
            ok = False
        results[workload] = {"failed_share": shares.pop() if len(shares) == 1 else None, "metrics": {}}
        print(f"{workload}  ({RUNS} runs)")
        for m in metrics:
            name = m["name"]
            s = summarize([r["metrics"][name]["value"] for r in runs])
            results[workload]["metrics"][name] = s
            verdict = "ok" if s["spread"] <= m["bound"] / 3 else ("within bound" if s["spread"] <= m["bound"] else "WIDE")
            if s["spread"] > m["bound"]:
                ok = False
            line = (f"  {name:18s} median {s['median']:12.5g} {m['unit']:4s} q1 {s['q1']:12.5g} q3 {s['q3']:12.5g} "
                    f"spread {s['spread']:6.3f} bound {m['bound']:.2f} {verdict}")
            if earlier and workload in earlier:
                before = earlier[workload]["metrics"][name]["median"]
                worse = (s["median"] - before) / before
                if m["better"] == "higher":
                    worse = -worse
                line += f"  vs earlier median {before:.5g}: {worse:+.3f}"
                if worse > m["bound"]:
                    line += " WORSE"
                    ok = False
            print(line)
        if earlier and workload in earlier and earlier[workload]["failed_share"] != results[workload]["failed_share"]:
            print(f"  failed share {results[workload]['failed_share']} != earlier {earlier[workload]['failed_share']}")
            ok = False
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(results, fh, indent=1)
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
