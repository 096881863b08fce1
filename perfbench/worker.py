"""The measured process: runs one workload's rounds in a closed loop.

One caller on one thread issues each operation only after the previous
one returned.  Every operation is timed with ``perf_counter_ns`` and the
time scaled to the reference machine speed (see calib.py); its
result is encoded and written to the records file after the round, so
no oracle library is ever imported here and memory stays flat however
many rounds fit in the run.

Untraced (``--trace 0``): rounds run until ``--seconds`` have passed,
always whole rounds.  Traced (``--trace 1``): a fixed number of rounds
runs three times on the same inputs: once to warm up, once untraced and
once with the span wrappers installed.  The per-layer counts therefore
repeat exactly for a given seed, and the ratio of the last two wall
times is the tracing overhead.  The spans go next to the records file,
``<name>.spans.jsonl`` beside ``<name>.records.jsonl``.

The last line of standard output is a JSON summary for ``run.py``.
"""

from __future__ import annotations

import argparse
import gc
from array import array
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from calib import NOMINAL_NS, calibration_ns  # noqa: E402
from tracing import Recorder  # noqa: E402

CALIB_EVERY_NS = 50_000_000

# Rounds per pass of a traced run, chosen so that one pass takes a few
# seconds on a 2-core machine.
TRACE_ROUNDS = {"scalar-grid": 8, "exact-operator": 1, "series-evolution": 5, "cli-session": 3}


class Failed:
    """An operation that raised; counted as failed, not checked."""

    def __init__(self, exc: Exception):
        self.reason = f"{type(exc).__name__}: {exc}"


def run_round(ops, recorder=None):
    """Time each operation.

    Returns (latencies, raw latencies, results), latencies in ns scaled by
    calib: the calibration loop runs at the start of the round and again
    whenever 50 ms of operations have passed, and each window of
    operations is scaled by the mean of the two calibrations around it.
    """
    clock = time.perf_counter_ns
    raw = []
    scaled = []
    results = []
    before = calibration_ns()
    window = 0
    elapsed = 0
    for op in ops:
        if recorder is not None:
            recorder.active = True
        t0 = clock()
        try:
            res = op.thunk()
        except Exception as e:  # the run goes on; run.py counts it in `failed`
            res = Failed(e)
        t1 = clock()
        if recorder is not None:
            recorder.active = False
        raw.append(t1 - t0)
        results.append(res)
        window += 1
        elapsed += t1 - t0
        if elapsed >= CALIB_EVERY_NS or len(raw) == len(ops):
            after = calibration_ns()
            factor = NOMINAL_NS / ((before + after) / 2)
            scaled.extend(v * factor for v in raw[len(raw) - window:])
            before, window, elapsed = after, 0, 0
    return scaled, raw, results


def write_records(fh, index, tag, ops, results):
    rows = [[op.cls, op.inputs, {"__error__": res.reason} if isinstance(res, Failed) else op.encode(res)]
            for op, res in zip(ops, results)]
    fh.write(json.dumps({"round": index, "pass": tag, "ops": rows}) + "\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--records", required=True)
    args = p.parse_args(argv)

    cli_paths = None
    if args.workload == "cli-session":
        cli_paths = workloads.write_cli_configs(os.path.join(os.path.dirname(args.records), "cli-configs"))

    def make(index):
        return workloads.build_round(args.workload, args.seed, index, cli_paths)

    latencies = array("d")
    raw_ns = 0
    n_ops = 0
    summary: dict = {}
    with open(args.records, "w") as fh:
        if not args.trace:
            began = time.perf_counter()
            index = 0
            while index == 0 or time.perf_counter() - began < args.seconds:
                ops = make(index)
                gc.collect()
                lat, raw, results = run_round(ops)
                latencies.extend(lat)
                raw_ns += sum(raw)
                n_ops += len(ops)
                write_records(fh, index, "u", ops, results)
                del results
                index += 1
            summary["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            summary["rounds"] = index
        else:
            rounds = TRACE_ROUNDS[args.workload]
            walls = {}
            recorder = Recorder()
            for tag in ("w", "u", "t"):
                if tag == "t":
                    recorder.install()
                scaled_ns = raw_pass_ns = 0
                for index in range(rounds):
                    ops = make(index)
                    gc.collect()
                    lat, raw, results = run_round(ops, recorder if tag == "t" else None)
                    scaled_ns += sum(lat)
                    raw_pass_ns += sum(raw)
                    n_ops += len(ops)
                    write_records(fh, index, tag, ops, results)
                    del results
                walls[tag] = scaled_ns
            # self times are scaled like every other time, by the traced pass's factor
            summary["layers"] = recorder.metrics(n_ops // 3, scaled_ns / raw_pass_ns)
            summary["layers"]["trace.overhead_ratio"] = walls["t"] / walls["u"]
            summary["rounds"] = rounds
            recorder.write(args.records.replace(".records.jsonl", ".spans.jsonl"))
    summary["latencies_ns"] = latencies.tolist()
    summary["raw_ns"] = raw_ns
    summary["ops"] = n_ops
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
