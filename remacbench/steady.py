#!/usr/bin/env python3
"""Steadiness self-check for the ReMac benchmark.

    python3 remacbench/steady.py --workload W [--runs 10] [--first-seed 1]
                                 [--seconds S] [--trace 0|1]
    python3 remacbench/steady.py --corrupt-check [--workload W]

Runs one workload repeatedly through run.py, each run with another seed,
and prints for every end-to-end metric its median, first and third
quartile (Python's statistics.quantiles(values, n=4)), the quartile
spread as a share of the median, and that spread against the metric's
bound in BENCHMARK.json: "ok" below a third of the bound, "wide" below
the bound, "FAIL" beyond it. setup_s is judged like every other metric.
Exits non-zero if a run fails or a spread is beyond its bound.

--corrupt-check instead runs the workload once with a deliberately
corrupted result and passes only if the benchmark reports the failure
and exits non-zero.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace, extra=()):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace), *extra]
    proc = subprocess.run(command, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith(
        '{"correct"') else None
    return proc.returncode, result


def corrupt_check(workload, seconds):
    code, result = run_once(workload, 1, seconds, 0, ("--corrupt-op", "0"))
    caught = code != 0 and result is not None and result["failed"] >= 1 \
        and not result["correct"]
    print(f"corrupt-check {workload}: exit {code}, "
          f"failed {result['failed'] if result else '?'} -> "
          f"{'ok' if caught else 'NOT CAUGHT'}")
    return caught


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="execute-dense")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt-check", action="store_true")
    args = ap.parse_args()
    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    if args.corrupt_check:
        sys.exit(0 if corrupt_check(args.workload, min(seconds, 5)) else 1)

    metrics = spec["per_layer" if args.trace else "end_to_end"]
    values = {m["name"]: [] for m in metrics}
    ok = True
    for i in range(args.runs):
        seed = args.first_seed + i
        code, result = run_once(args.workload, seed, seconds, args.trace)
        if code != 0 or result is None or not result["correct"]:
            print(f"run seed={seed}: FAILED (exit {code})")
            ok = False
            continue
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"run seed={seed}: " + ", ".join(
            f"{m['name']}={result['metrics'][m['name']]['value']:.6g}"
            for m in metrics if "bound" in m), flush=True)

    print(f"\n{args.workload}: {args.runs} runs of {seconds:g} s")
    print(f"{'metric':30} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}  verdict")
    for m in metrics:
        vals = values[m["name"]]
        if len(vals) < 2:
            continue
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = m.get("bound")
        if bound is None:
            verdict = ""
        elif spread < bound / 3:
            verdict = "ok"
        elif spread <= bound:
            verdict = "wide"
        else:
            verdict = "FAIL"
            ok = False
        print(f"{m['name']:30} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{spread:8.4f} {bound if bound is not None else '':>6}  "
              f"{verdict}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
