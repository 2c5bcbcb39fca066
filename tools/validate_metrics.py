#!/usr/bin/env python3
"""Validate the telemetry block emitted by a bench run.

Usage:
    validate_metrics.py --manifest tools/metrics_manifest.txt BENCH_OUTPUT

BENCH_OUTPUT is the stdout of a bench binary run with --json: a mix of
human-readable lines and JSON lines, the last JSON line being
{"metrics": {"counters": {...}, "gauges": {...}, "histograms": {...}}}
(the block registered by bench/harness.h at exit).

Checks:
  1. a metrics block exists and is well-formed (counters are integers,
     gauges are numbers, histograms have count/sum/buckets with a +Inf
     overflow bucket);
  2. every metric in the manifest is present with the declared type;
  3. every metric present is listed in the manifest. The manifest is
     exact: a new metric must be added to it, and a deleted one cannot
     come back unnoticed.

Exit status: 0 on success, 1 on any failure.
"""

import argparse
import json
import numbers
import sys


def load_manifest(path):
    expected = {}  # name -> type
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2 or parts[0] not in (
                "counter",
                "gauge",
                "histogram",
            ):
                raise SystemExit(
                    f"{path}:{lineno}: expected '<counter|gauge|histogram> "
                    f"<name>', got: {line}"
                )
            expected[parts[1]] = parts[0]
    return expected


def find_metrics_block(path):
    """Last JSON line carrying a 'metrics' object wins."""
    block = None
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line.startswith("{"):
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(record, dict) and isinstance(
                record.get("metrics"), dict
            ):
                block = record["metrics"]
    return block


def check_wellformed(metrics, errors):
    for section in ("counters", "gauges", "histograms"):
        if not isinstance(metrics.get(section), dict):
            errors.append(f"metrics block has no '{section}' object")
    for name, value in metrics.get("counters", {}).items():
        if not isinstance(value, int):
            errors.append(f"counter {name} is not an integer: {value!r}")
    for name, value in metrics.get("gauges", {}).items():
        if not isinstance(value, numbers.Real):
            errors.append(f"gauge {name} is not a number: {value!r}")
    for name, hist in metrics.get("histograms", {}).items():
        if not isinstance(hist, dict):
            errors.append(f"histogram {name} is not an object")
            continue
        if not isinstance(hist.get("count"), int):
            errors.append(f"histogram {name} has no integer 'count'")
        if not isinstance(hist.get("sum"), numbers.Real):
            errors.append(f"histogram {name} has no numeric 'sum'")
        buckets = hist.get("buckets")
        if not isinstance(buckets, list) or not buckets:
            errors.append(f"histogram {name} has no 'buckets' array")
            continue
        if buckets[-1].get("le") != "+Inf":
            errors.append(f"histogram {name} lacks the +Inf overflow bucket")
        total = sum(b.get("count", 0) for b in buckets)
        if total != hist.get("count"):
            errors.append(
                f"histogram {name}: bucket counts sum to {total}, "
                f"'count' says {hist.get('count')}"
            )


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--manifest", required=True)
    parser.add_argument("bench_output")
    args = parser.parse_args()

    expected = load_manifest(args.manifest)
    metrics = find_metrics_block(args.bench_output)
    if metrics is None:
        print(
            f"FAIL: no {{\"metrics\": ...}} JSON line in {args.bench_output} "
            "(was the bench run with --json?)"
        )
        return 1

    errors = []
    check_wellformed(metrics, errors)

    section_of = {
        "counter": "counters",
        "gauge": "gauges",
        "histogram": "histograms",
    }
    present = {
        name: kind
        for kind, section in section_of.items()
        for name in metrics.get(section, {})
    }
    for name, kind in sorted(expected.items()):
        if name not in present:
            errors.append(f"manifest metric missing from output: {kind} {name}")
        elif present[name] != kind:
            errors.append(
                f"metric {name}: manifest says {kind}, output has "
                f"{present[name]}"
            )

    for name in sorted(set(present) - set(expected)):
        errors.append(
            f"registered metric not in the manifest: {present[name]} {name}"
        )

    if errors:
        for error in errors:
            print(f"FAIL: {error}")
        return 1

    print(
        f"OK: {len(expected)} manifest metrics present, "
        f"{len(present)} registered"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
