#!/usr/bin/env bash
# Concurrency, telemetry, performance and paper-claim checks, six gates:
#
#   tsan        build with -DREMAC_SANITIZE=thread and run the concurrent
#               suites (pool, ledger, task graph, plan service, metrics
#               registry), the parser's and the MatrixMarket reader's
#               hostile-input cases, the catalog's statistics counting
#               (Catalog, Generators*, MatrixCounts), the dense buffers
#               (DenseMatrix), the sparsity estimators and their
#               per-call memo (Sketch*, Estimator*) and the plan-level
#               suites (SystemDs, PlanGolden, PlanOpTable) under
#               ThreadSanitizer
#   asan        the same suites under AddressSanitizer
#   ubsan       the same suites under UndefinedBehaviorSanitizer, in a
#               Debug build so that assert()s run too
#   bench-smoke one quick benchmark with --json, checking that the
#               emitted metrics block registers exactly the metrics listed
#               in tools/metrics_manifest.txt (none missing, none
#               unlisted), then the bench_load serving gate (open-loop
#               Zipf load sweep writing BENCH_service.json; tracing
#               on-vs-off bitwise identity; emitted span trees checked by
#               tools/validate_trace.py; the recorded saturation curve
#               re-gated by tools/check_scaling.py so throughput may not
#               collapse as effective parallelism grows; the trace and
#               scaling checks run even when bench_load exits non-zero)
#   perf-floors the wall-clock speedup floors, run after bench-smoke so
#               that a noisy machine failing a floor never skips the
#               identity and trace checks above: the bench_kernels gate
#               (blocked GEMM, fused transpose-multiply and
#               elementwise-fusion speedup floors; writes
#               BENCH_kernels.json), then the bench_service
#               intermediate-reuse gate (matcache serving >= 2x faster
#               than per-session recompute)
#   paper       bench_paper --quick: a subset of the paper's evaluation on
#               its 1D engine, failing when any figure's claimed shape
#               (who wins, by what factor, where the crossover falls)
#               stops holding
#
# Usage: scripts/check.sh [tsan-build-dir] [asan-build-dir] \
#                         [bench-build-dir] [ubsan-build-dir]
#        (defaults: build-tsan build-asan build build-ubsan)
#
# A build dir whose CMake cache was configured with a different
# REMAC_SANITIZE value is rejected up front — delete it and rerun rather
# than letting a stale cache produce an unsanitized "sanitizer" binary.

set -uo pipefail
cd "$(dirname "$0")/.."

TSAN_DIR="${1:-build-tsan}"
ASAN_DIR="${2:-build-asan}"
BENCH_DIR="${3:-build}"
UBSAN_DIR="${4:-build-ubsan}"
# Parameterized suites print as Prefix/Suite.Test, hence */Kernels*.*.
FILTER='ThreadPool.*:LanePool.*:Ledger.*:TaskGraph.*:Sched*.*:Kernels*.*:*/Kernels*.*:Fingerprint*.*:PlanCache*.*:Service*.*:Admission*.*:MatCache*.*:MatrixBytes.*:Obs*.*:Chaos*.*:Fault*.*:Trace*.*:Contention*.*:Fusion*.*:Sketch*.*:Executor*.*:CostModel*.*:Parser.*:Catalog.*:Generators*.*:MatrixCounts.*:MatrixMarket.*:DenseMatrix.*:SystemDs.*:PlanGolden.*:PlanOpTable.*:Estimator*.*:*/Estimator*.*'

GATES=()
RESULTS=()

record() {  # record GATE pass|fail
  GATES+=("$1")
  RESULTS+=("$2")
  if [[ "$2" == pass ]]; then
    echo "== gate $1: PASS =="
  else
    echo "== gate $1: FAIL ==" >&2
  fi
}

# Fail fast if `dir` was configured with a REMAC_SANITIZE value other than
# `want` ("" for a plain build): reconfiguring over a stale cache keeps the
# old compile flags and silently runs the wrong binary.
require_cache() {
  local dir="$1" want="$2"
  [[ -e "$dir" ]] || return 0
  if [[ ! -f "$dir/CMakeCache.txt" ]]; then
    echo "error: '$dir' exists but has no CMakeCache.txt — not a CMake" \
         "build dir. Remove it (rm -rf '$dir') and rerun." >&2
    return 1
  fi
  local have
  have="$(sed -n 's/^REMAC_SANITIZE:[^=]*=//p' "$dir/CMakeCache.txt" | head -1)"
  if [[ "$have" != "$want" ]]; then
    echo "error: '$dir' was configured with REMAC_SANITIZE='$have'," \
         "this gate needs '$want'. Remove it (rm -rf '$dir') and rerun." >&2
    return 1
  fi
}

# sanitizer_gate NAME DIR SANITIZE_VALUE ENV_VAR [BUILD_TYPE]
# (BUILD_TYPE defaults to RelWithDebInfo, which compiles assert()s out)
sanitizer_gate() {
  local name="$1" dir="$2" value="$3" env_var="$4"
  local build_type="${5:-RelWithDebInfo}"
  require_cache "$dir" "$value" || return 1
  cmake -B "$dir" -S . -DREMAC_SANITIZE="$value" \
    -DCMAKE_BUILD_TYPE="$build_type" || return 1
  cmake --build "$dir" -j --target remac_tests || return 1
  echo "== running concurrent suites under $name =="
  env "$env_var=${!env_var:-halt_on_error=1}" \
    "$dir/tests/remac_tests" --gtest_filter="$FILTER"
}

# run_bench NAME ARGS...: builds bench target NAME in $BENCH_DIR, runs it
# with ARGS and tees its stdout to $BENCH_DIR/NAME.out; fails when the
# build fails, the binary is missing or the bench exits non-zero.
run_bench() {
  local name="$1"
  shift
  cmake --build "$BENCH_DIR" -j --target "$name" || return 1
  local bin="$BENCH_DIR/bench/$name"
  if [[ ! -x "$bin" ]]; then
    bin="$(find "$BENCH_DIR" -name "$name" -type f | head -1)"
  fi
  if [[ -z "$bin" ]]; then
    echo "error: $name binary not found under '$BENCH_DIR'" >&2
    return 1
  fi
  "$bin" "$@" | tee "$BENCH_DIR/$name.out"
}

bench_smoke_gate() {
  require_cache "$BENCH_DIR" "" || return 1
  cmake -B "$BENCH_DIR" -S . || return 1
  run_bench bench_smoke --quick --json || return 1
  python3 tools/validate_metrics.py --manifest tools/metrics_manifest.txt \
    "$BENCH_DIR/bench_smoke.out" || return 1
  # Serving-tier load gate: bench_load drives the open-loop Zipf workload
  # (writes BENCH_service.json), exits non-zero when tracing perturbs
  # results (bitwise on-vs-off identity), and emits per-request span
  # trees that validate_trace.py checks for rooted-tree integrity
  # (every parent exists, child intervals and durations within the
  # parent's).
  # bench_load also exits non-zero on its wall-clock saturation-scaling
  # floor, so the two checks below run whatever it returned: a loaded
  # machine failing that floor must not hide a broken span tree. Stale
  # traces and a stale BENCH_service.json are removed first, so a run that
  # wrote nothing fails the checks instead of passing on old files.
  local status=0
  local trace_dir="$BENCH_DIR/bench_load_traces"
  rm -rf "$trace_dir" BENCH_service.json && mkdir -p "$trace_dir"
  run_bench bench_load --quick --json --trace-dir="$trace_dir" || status=1
  python3 tools/validate_trace.py "$trace_dir"/trace-*.json || status=1
  # Saturation scaling gate: re-apply bench_load's hardware-aware rule to
  # the BENCH_service.json it just wrote, so a recorded curve that
  # collapses as effective parallelism grows fails the check on its own
  # gate line even when bench_load's exit code is swallowed upstream.
  python3 tools/check_scaling.py BENCH_service.json || status=1
  return $status
}

if sanitizer_gate ThreadSanitizer "$TSAN_DIR" thread TSAN_OPTIONS; then
  record tsan pass
else
  record tsan fail
fi

if sanitizer_gate AddressSanitizer "$ASAN_DIR" address ASAN_OPTIONS; then
  record asan pass
else
  record asan fail
fi

if sanitizer_gate UndefinedBehaviorSanitizer "$UBSAN_DIR" undefined \
     UBSAN_OPTIONS Debug; then
  record ubsan pass
else
  record ubsan fail
fi

if bench_smoke_gate; then
  record bench-smoke pass
else
  record bench-smoke fail
fi

# The wall-clock floors, each run even when the other fails so that one
# noisy reading does not hide the other.
perf_floors_gate() {
  require_cache "$BENCH_DIR" "" || return 1
  cmake -B "$BENCH_DIR" -S . || return 1
  local status=0
  # Kernel perf gate: bench_kernels exits non-zero when the blocked GEMM,
  # fused transpose-multiply, or elementwise-fusion speedup falls below
  # its floor.
  run_bench bench_kernels --quick --json || status=1
  # Intermediate-reuse perf gate: bench_service exits non-zero when
  # serving a shared chain from the matcache is less than 2x faster than
  # recomputing it per session.
  run_bench bench_service --quick --json || status=1
  return $status
}

if perf_floors_gate; then
  record perf-floors pass
else
  record perf-floors fail
fi

paper_gate() {
  require_cache "$BENCH_DIR" "" || return 1
  cmake -B "$BENCH_DIR" -S . || return 1
  run_bench bench_paper --quick
}

if paper_gate; then
  record paper pass
else
  record paper fail
fi

echo
echo "== summary =="
status=0
for i in "${!GATES[@]}"; do
  printf '%-12s %s\n' "${GATES[$i]}" "${RESULTS[$i]}"
  [[ "${RESULTS[$i]}" == pass ]] || status=1
done
exit $status
