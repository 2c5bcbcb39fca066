#!/usr/bin/env python3
"""Builds and runs one workload of the ReMac benchmark.

    python3 remacbench/run.py --workload execute-dense|serve-zipf
                              --seed N --seconds S --trace 0|1
                              [--record-baseline PATH] [--corrupt-op K]

Builds the library from ../src together with the benchmark binary
(CMake, Release, no sanitizer; build directory $CARGO_TARGET_DIR or
.bench_build), runs the workload, and prints:

  * the binary's human summary;
  * one full result record, {"record": {...}}, with the machine
    fingerprint (nproc, CPU model, AVX2/FMA, compiler, build type,
    sanitizer, git sha, source digest) and the metrics in separate
    sections: real wall seconds, real CPU seconds, simulated cluster
    seconds, memory, counts and ratios, never summed across sections;
  * as the last line, {"correct", "attempted", "failed", "metrics"} with
    the end-to-end metrics (--trace 0) or the per-layer metrics
    (--trace 1) that BENCHMARK.json names.

Exits non-zero, after printing the result, when any operation failed or
returned a wrong result; exits non-zero without a result when the
library sources are missing or the build or run fails.
--record-baseline writes the record to PATH and refuses a run with
failures.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("execute-dense", "serve-zipf")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"remacbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    build_dir = os.path.join(target, "remacbench-release")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed", 1)
    jobs = str(os.cpu_count() or 1)
    step = ["cmake", "--build", build_dir, "--target", "remacbench", "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        fail("build failed", 1)
    return os.path.join(build_dir, "remacbench")


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest():
    """sha256 over the library sources (identity when git is absent)."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def declared_metrics(trace):
    """Metric names BENCHMARK.json lists for this mode (None if absent)."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--record-baseline", metavar="PATH")
    ap.add_argument("--corrupt-op", type=int,
                    help="self-test: corrupt this operation's result")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"library sources not found under {ROOT}/src")

    binary = build()
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        command += ["--spans-out", os.path.join(
            out_dir, f"spans-{args.workload}-{args.seed}.json")]
    if args.corrupt_op is not None:
        command += ["--corrupt-op", str(args.corrupt_op)]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail(f"benchmark binary exited with {proc.returncode}", 1)
    record = json.loads(lines[-1])["record"]
    for line in lines[:-1]:
        print(line)

    record["machine"]["git_sha"] = git_sha()
    record["machine"]["source_digest"] = source_digest()
    sections = {}
    for m in record["metrics"]:
        sections.setdefault(m["section"], {})[m["name"]] = {
            "value": m["value"], "unit": m["unit"]}
    full = {k: v for k, v in record.items() if k != "metrics"}
    full.update(sections)
    print(json.dumps({"record": full}, sort_keys=True))

    by_name = {m["name"]: m for m in record["metrics"]}
    names = declared_metrics(args.trace) or list(by_name)
    missing = [n for n in names if n not in by_name]
    if missing:
        fail(f"metrics missing from the record: {', '.join(missing)}", 1)
    correct = proc.returncode == 0 and record["failed"] == 0
    if args.record_baseline:
        if not correct:
            fail("refusing to record a run with failures as a baseline", 3)
        with open(args.record_baseline, "w") as f:
            json.dump({"record": full}, f, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {n: {"value": by_name[n]["value"], "unit": by_name[n]["unit"]}
                    for n in names},
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
