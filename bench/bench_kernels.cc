// Kernel-layer micro-benchmark + regression gate (ISSUE 5).
//
// Measures the new cache-blocked GEMM against the naive reference and the
// fused transpose-multiply against the pre-PR materialize-then-multiply
// path on >= 1024^2 dense shapes, plus 1/2/8-thread scaling rows. Writes
// BENCH_kernels.json to the working directory and exits non-zero when the
// measured speedups fall below the gate thresholds, so scripts/check.sh
// fails on kernel performance regressions:
//   blocked GEMM  >= --min-gemm-speedup   (default 1.5) x naive
//   fused AtB     >= --min-fused-speedup  (default 1.3) x materialized
//   fused tape    >= --min-fusion-speedup (default 1.5) x op-at-a-time
// The fused comparison is against the pre-PR executor path (materialize
// the transpose, then naive multiply); the JSON also reports the tougher
// fused-vs-(transpose + blocked GEMM) ratio for transparency. The fusion
// phase (ISSUE 10) runs a 4-op dense elementwise chain through the
// single-pass tape interpreter versus the unfused kernel sequence that
// materializes every intermediate, verifying bitwise identity. The
// skinny phase times the six tall-thin products one GNMF / GD pass runs
// on a 120000 x 47 operand at rank 10 (30000 rows under --quick), on one
// thread; it reports GFLOP/s for information only (no floor) but exits
// non-zero if any result differs from MultiplyReferenceNaive on the
// materialized operands. The elementwise phase times V .* V on a
// 120000 x 47 dense V (also under --quick), one thread, for information
// only, and exits non-zero if the one-pass kernel's result differs in any
// bit, in format or in nnz from the copy-then-modify construction it
// replaced. The header line names the register tiles the dense products
// ran on (scalar, avx2 or avx512f: the widest the CPU supports), and every
// dense-product line prints absolute GFLOP/s next to its speedup; both
// are recorded in the JSON (tile_isa, *_gflops) for information only.
//
// This binary parses its own flags (it needs gate thresholds the shared
// harness does not know about): --quick --json --threads=N
// --min-gemm-speedup=X --min-fused-speedup=X --min-fusion-speedup=X.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
#include "matrix/fused_tape.h"
#include "matrix/kernel_internal.h"
#include "matrix/kernels.h"
#include "obs/metrics.h"
#include "sched/thread_pool.h"

namespace remac {
namespace {

using Clock = std::chrono::steady_clock;

struct Options {
  bool quick = false;
  bool json = false;
  int threads = 0;  // 0 = leave the hardware default
  double min_gemm_speedup = 1.5;
  double min_fused_speedup = 1.3;
  double min_fusion_speedup = 1.5;
};

Options ParseArgs(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto double_flag = [&](const char* prefix, double* out) {
      const size_t len = std::strlen(prefix);
      if (!StartsWith(arg, prefix)) return false;
      char* end = nullptr;
      const double value = std::strtod(arg.c_str() + len, &end);
      if (end == arg.c_str() + len || *end != '\0' || value <= 0.0) {
        std::fprintf(stderr, "%s expects a positive number, got '%s'\n",
                     prefix, arg.c_str() + len);
        std::exit(2);
      }
      *out = value;
      return true;
    };
    if (arg == "--quick") {
      options.quick = true;
    } else if (arg == "--json") {
      options.json = true;
    } else if (StartsWith(arg, "--threads=")) {
      char* end = nullptr;
      const long value = std::strtol(arg.c_str() + 10, &end, 10);
      if (end == arg.c_str() + 10 || *end != '\0' || value <= 0) {
        std::fprintf(stderr, "--threads expects a positive integer\n");
        std::exit(2);
      }
      options.threads = static_cast<int>(value);
    } else if (double_flag("--min-gemm-speedup=", &options.min_gemm_speedup) ||
               double_flag("--min-fused-speedup=",
                           &options.min_fused_speedup) ||
               double_flag("--min-fusion-speedup=",
                           &options.min_fusion_speedup)) {
      // handled
    } else {
      std::fprintf(stderr,
                   "unknown argument '%s' (expected --quick, --json, "
                   "--threads=N, --min-gemm-speedup=X, "
                   "--min-fused-speedup=X, --min-fusion-speedup=X)\n",
                   arg.c_str());
      std::exit(2);
    }
  }
  if (options.threads > 0) {
    SetKernelThreads(options.threads);
    ThreadPool::SetGlobalThreads(options.threads);
  }
  if (options.json) {
    std::atexit([] {
      std::printf("{\"metrics\": %s}\n",
                  MetricsRegistry::Global().ToJson().c_str());
    });
  }
  return options;
}

/// Gaussian entries; with `zero_frac` > 0 that share of them is exactly
/// zero (every tenth of those -0.0), so the kernels' zero skip runs.
Matrix DenseRandom(int64_t rows, int64_t cols, uint64_t seed,
                   double zero_frac = 0.0) {
  Rng rng(seed);
  DenseMatrix m(rows, cols);
  for (int64_t i = 0; i < m.size(); ++i) {
    const bool zero = zero_frac > 0.0 && rng.NextDouble() < zero_frac;
    m.data()[i] = zero ? (i % 10 == 0 ? -0.0 : 0.0) : rng.NextGaussian();
  }
  return Matrix::WrapDense(std::move(m));
}

/// Best-of-`reps` wall time of `fn` in seconds (min filters scheduler and
/// allocator noise, the standard micro-bench reduction).
template <typename Fn>
double BestOf(int reps, Fn fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto start = Clock::now();
    fn();
    const std::chrono::duration<double> elapsed = Clock::now() - start;
    best = std::min(best, elapsed.count());
  }
  return best;
}

bool BitwiseEqualDense(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols() ||
      a.is_dense() != b.is_dense() || !a.is_dense()) {
    return false;
  }
  return a.dense().size() == 0 ||
         std::memcmp(a.dense().data(), b.dense().data(),
                     a.dense().size() * sizeof(double)) == 0;
}

int RunBench(const Options& options) {
  // The gate shape stays >= 1024^2 even under --quick (the acceptance bar
  // is defined on 1024^2 dense operands); --quick only trims repetitions
  // and the thread-scaling shape.
  const int64_t n = 1024;
  const int reps = options.quick ? 2 : 4;

  // The register tiles the dense products ran on (the widest this CPU
  // supports): the GFLOP/s figures below are only comparable between runs
  // on the same tiles.
  const char* tile_isa = internal::GemmIsaName(internal::ActiveGemmIsa());
  std::printf(
      "bench_kernels: shape %lldx%lldx%lld dense, best of %d, %s tiles\n",
      static_cast<long long>(n), static_cast<long long>(n),
      static_cast<long long>(n), reps, tile_isa);
  const double cube_gflop = 2.0 * static_cast<double>(n * n * n) / 1e9;

  const Matrix a = DenseRandom(n, n, 101);
  const Matrix b = DenseRandom(n, n, 102);

  // --- 1. blocked GEMM vs naive reference -------------------------------
  Matrix blocked_out = Multiply(a, b).value();  // warm-up + result capture
  const double blocked_s = BestOf(reps, [&] { Multiply(a, b).value(); });
  const Matrix naive_out = MultiplyReferenceNaive(a, b).value();
  const double naive_s =
      BestOf(reps, [&] { MultiplyReferenceNaive(a, b).value(); });
  if (!BitwiseEqualDense(blocked_out, naive_out)) {
    std::fprintf(stderr, "FATAL: blocked GEMM differs from naive\n");
    return 1;
  }
  const double gemm_speedup = naive_s / blocked_s;
  std::printf(
      "  gemm: naive %.3fs (%.2f GFLOP/s)  blocked %.3fs (%.2f GFLOP/s)  "
      "speedup %.2fx (gate %.2fx)\n",
      naive_s, cube_gflop / naive_s, blocked_s, cube_gflop / blocked_s,
      gemm_speedup, options.min_gemm_speedup);

  // --- 2. fused AtB vs materialize-then-multiply ------------------------
  // `materialized_naive` is the pre-PR ExecMultiply path: copy t(A), then
  // run the (then untiled) multiply. `materialized_blocked` re-bases the
  // comparison on the new GEMM, isolating the win of skipping the copy.
  const Matrix fused_out = MultiplyTransposed(a, true, b, false).value();
  const double fused_s =
      BestOf(reps, [&] { MultiplyTransposed(a, true, b, false).value(); });
  const Matrix mat_out = Multiply(Transpose(a), b).value();
  const double mat_naive_s = BestOf(
      reps, [&] { MultiplyReferenceNaive(Transpose(a), b).value(); });
  const double mat_blocked_s =
      BestOf(reps, [&] { Multiply(Transpose(a), b).value(); });
  if (!BitwiseEqualDense(fused_out, mat_out)) {
    std::fprintf(stderr, "FATAL: fused AtB differs from materialized\n");
    return 1;
  }
  const double fused_speedup = mat_naive_s / fused_s;
  const double fused_vs_blocked = mat_blocked_s / fused_s;
  std::printf(
      "  fused AtB: materialized(naive) %.3fs  materialized(blocked) %.3fs  "
      "fused %.3fs (%.2f GFLOP/s)  speedup %.2fx (gate %.2fx)  vs-blocked "
      "%.2fx\n",
      mat_naive_s, mat_blocked_s, fused_s, cube_gflop / fused_s,
      fused_speedup, options.min_fused_speedup, fused_vs_blocked);

  // --- 3. fused elementwise tape vs op-at-a-time ------------------------
  // The 4-op dense chain max((a + b) * a - b, a), exactly as the fusion
  // pass would tape it (DFS input occurrences, no dedup). The unfused
  // baseline is the kernel sequence the executor ran pre-fusion: four
  // passes, three materialized n^2 intermediates.
  FusedTape tape;
  tape.rows = n;
  tape.cols = n;
  tape.num_inputs = 5;
  tape.input_scalar.assign(5, 0);
  tape.steps = {{FusedOp::kAdd, 0, 1},
                {FusedOp::kMul, 5, 2},
                {FusedOp::kSub, 6, 3},
                {FusedOp::kMax, 7, 4}};
  const std::vector<Matrix> tape_inputs = {a, b, a, b, a};
  auto run_fused = [&] {
    return ExecuteFusedTape(tape, tape_inputs, {}).value().output;
  };
  auto run_unfused = [&] {
    const Matrix t0 = Add(a, b).value();
    const Matrix t1 = ElementwiseMultiply(t0, a).value();
    const Matrix t2 = Subtract(t1, b).value();
    return ElementwiseMax(t2, a).value();
  };
  const Matrix fusion_out = run_fused();  // warm-up + result capture
  const double fusion_fused_s = BestOf(reps, [&] { run_fused(); });
  const Matrix unfused_out = run_unfused();
  const double fusion_unfused_s = BestOf(reps, [&] { run_unfused(); });
  if (!BitwiseEqualDense(fusion_out, unfused_out)) {
    std::fprintf(stderr, "FATAL: fused tape differs from unfused chain\n");
    return 1;
  }
  const double fusion_speedup = fusion_unfused_s / fusion_fused_s;
  std::printf(
      "  fusion (4-op chain): unfused %.3fs  fused %.3fs  speedup %.2fx "
      "(gate %.2fx)\n",
      fusion_unfused_s, fusion_fused_s, fusion_speedup,
      options.min_fusion_speedup);

  // --- 4. skinny shapes, one thread (informational + bitwise check) -----
  // V is the data, W / H the rank-10 factors, x the GD weights: the six
  // dense products of one GNMF / GD pass.
  struct SkinnyRow {
    const char* name;
    double seconds;
    double gflops;
  };
  std::vector<SkinnyRow> skinny;
  const int64_t skinny_rows = options.quick ? 30000 : 120000;
  {
    const int64_t d = 47, rank = 10;
    const Matrix v = DenseRandom(skinny_rows, d, 111, /*zero_frac=*/0.4);
    const Matrix w = DenseRandom(skinny_rows, rank, 112);
    const Matrix h = DenseRandom(rank, d, 113);
    const Matrix hht = DenseRandom(rank, rank, 114);
    const Matrix x = DenseRandom(d, 1, 115);
    const Matrix vx = Multiply(v, x).value();
    const struct {
      const char* name;
      const Matrix& a;
      bool a_t;
      const Matrix& b;
      bool b_t;
    } shapes[] = {{"WtV", w, true, v, false},
                  {"VHt", v, false, h, true},
                  {"WtW", w, true, w, false},
                  {"W(HHt)", w, false, hht, false},
                  {"Vx", v, false, x, false},
                  {"Vt(Vx)", v, true, vx, false}};
    SetKernelThreads(1);
    for (const auto& s : shapes) {
      auto run = [&] {
        return MultiplyTransposed(s.a, s.a_t, s.b, s.b_t).value();
      };
      const Matrix out = run();
      const Matrix expected =
          MultiplyReferenceNaive(s.a_t ? Transpose(s.a) : s.a,
                                 s.b_t ? Transpose(s.b) : s.b)
              .value();
      if (!BitwiseEqualDense(out, expected)) {
        std::fprintf(stderr, "FATAL: skinny %s differs from naive\n", s.name);
        return 1;
      }
      const double seconds = BestOf(reps, [&] { run(); });
      const int64_t depth = s.a_t ? s.a.rows() : s.a.cols();
      const double gflops =
          2.0 * static_cast<double>(out.rows() * depth * out.cols()) /
          seconds / 1e9;
      skinny.push_back({s.name, seconds, gflops});
      std::printf("  skinny %-7s (%lldx%lld): %.4fs  %.2f GFLOP/s\n", s.name,
                  static_cast<long long>(out.rows()),
                  static_cast<long long>(out.cols()), seconds, gflops);
    }
    SetKernelThreads(options.threads);  // 0 restores the hardware default
  }

  // --- 5. dense .* one thread (informational + bitwise check) -----------
  // GNMF's V = X * X on the execute-dense data shape: the kernel reads X
  // in place; the reference copies both operands, overwrites the left copy
  // and rescans it for non-zeros.
  const int64_t ew_rows = 120000, ew_cols = 47;
  double ew_seconds = 0.0;
  double ew_reference_seconds = 0.0;
  {
    const Matrix x = DenseRandom(ew_rows, ew_cols, 116, /*zero_frac=*/0.4);
    auto copy_then_modify = [&] {
      DenseMatrix a = x.ToDense();
      const DenseMatrix b = x.ToDense();
      for (int64_t i = 0; i < a.size(); ++i) a.data()[i] *= b.data()[i];
      return Matrix::FromDense(std::move(a));
    };
    SetKernelThreads(1);
    const Matrix out = ElementwiseMultiply(x, x).value();
    const Matrix expected = copy_then_modify();
    if (!BitwiseEqualDense(out, expected) || out.nnz() != expected.nnz()) {
      std::fprintf(stderr, "FATAL: dense .* differs from copy-then-modify\n");
      return 1;
    }
    ew_seconds = BestOf(reps, [&] { ElementwiseMultiply(x, x).value(); });
    ew_reference_seconds = BestOf(reps, copy_then_modify);
    std::printf("  elementwise .* (%lldx%lld): %.4fs  copy-then-modify %.4fs\n",
                static_cast<long long>(ew_rows),
                static_cast<long long>(ew_cols), ew_seconds,
                ew_reference_seconds);
    SetKernelThreads(options.threads);  // 0 restores the hardware default
  }

  // --- 6. thread scaling (informational) --------------------------------
  const int64_t sn = options.quick ? 512 : 1024;
  const Matrix sa = DenseRandom(sn, sn, 103);
  const Matrix sb = DenseRandom(sn, sn, 104);
  struct ThreadRow {
    int threads;
    double blocked_s;
    double fused_s;
  };
  std::vector<ThreadRow> rows;
  const int saved_threads = options.threads;
  for (int threads : {1, 2, 8}) {
    SetKernelThreads(threads);
    ThreadRow row;
    row.threads = threads;
    row.blocked_s = BestOf(reps, [&] { Multiply(sa, sb).value(); });
    row.fused_s =
        BestOf(reps, [&] { MultiplyTransposed(sa, true, sb, false).value(); });
    rows.push_back(row);
    std::printf("  threads=%d (%lld^3): blocked %.3fs  fused AtB %.3fs\n",
                threads, static_cast<long long>(sn), row.blocked_s,
                row.fused_s);
  }
  SetKernelThreads(saved_threads);  // 0 restores the hardware default

  const bool gemm_ok = gemm_speedup >= options.min_gemm_speedup;
  const bool fused_ok = fused_speedup >= options.min_fused_speedup;
  const bool fusion_ok = fusion_speedup >= options.min_fusion_speedup;
  const bool all_ok = gemm_ok && fused_ok && fusion_ok;

  // --- 7. BENCH_kernels.json --------------------------------------------
  FILE* out = std::fopen("BENCH_kernels.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_kernels.json\n");
    return 1;
  }
  std::fprintf(out,
               "{\"bench\": \"kernels\", \"shape\": %lld, \"reps\": %d,\n"
               " \"tile_isa\": \"%s\",\n"
               " \"gemm\": {\"naive_seconds\": %.9g, \"blocked_seconds\": "
               "%.9g, \"naive_gflops\": %.4g, \"blocked_gflops\": %.4g, "
               "\"speedup\": %.4g, \"min_required\": %.4g},\n"
               " \"fused_atb\": {\"materialized_naive_seconds\": %.9g, "
               "\"materialized_blocked_seconds\": %.9g, \"fused_seconds\": "
               "%.9g, \"fused_gflops\": %.4g, \"speedup_vs_materialized\": %.4g, "
               "\"speedup_vs_materialized_blocked\": %.4g, "
               "\"min_required\": %.4g},\n"
               " \"fusion\": {\"chain_ops\": %d, \"unfused_seconds\": %.9g, "
               "\"fused_seconds\": %.9g, \"speedup\": %.4g, "
               "\"min_required\": %.4g},\n"
               " \"skinny_rows\": %lld,\n \"skinny\": [",
               static_cast<long long>(n), reps, tile_isa, naive_s, blocked_s,
               cube_gflop / naive_s, cube_gflop / blocked_s, gemm_speedup,
               options.min_gemm_speedup, mat_naive_s, mat_blocked_s, fused_s,
               cube_gflop / fused_s, fused_speedup, fused_vs_blocked,
               options.min_fused_speedup,
               static_cast<int>(tape.steps.size()), fusion_unfused_s,
               fusion_fused_s, fusion_speedup, options.min_fusion_speedup,
               static_cast<long long>(skinny_rows));
  for (size_t i = 0; i < skinny.size(); ++i) {
    std::fprintf(out,
                 "%s{\"shape\": \"%s\", \"seconds\": %.9g, "
                 "\"gflops\": %.4g}",
                 i == 0 ? "" : ", ", skinny[i].name, skinny[i].seconds,
                 skinny[i].gflops);
  }
  std::fprintf(out,
               "],\n \"elementwise\": {\"rows\": %lld, \"cols\": %lld, "
               "\"seconds\": %.9g, \"copy_then_modify_seconds\": %.9g},\n "
               "\"thread_scaling_shape\": %lld,\n \"thread_scaling\": [",
               static_cast<long long>(ew_rows),
               static_cast<long long>(ew_cols), ew_seconds,
               ew_reference_seconds, static_cast<long long>(sn));
  for (size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(out,
                 "%s{\"threads\": %d, \"blocked_seconds\": %.9g, "
                 "\"fused_seconds\": %.9g}",
                 i == 0 ? "" : ", ", rows[i].threads, rows[i].blocked_s,
                 rows[i].fused_s);
  }
  std::fprintf(out, "],\n \"pass\": %s}\n", all_ok ? "true" : "false");
  std::fclose(out);
  std::printf("wrote BENCH_kernels.json\n");

  if (options.json) {
    std::printf(
        "{\"label\": \"kernels\", \"gemm_speedup\": %.4g, "
        "\"fused_speedup\": %.4g, \"fused_vs_blocked\": %.4g, "
        "\"fusion_speedup\": %.4g, \"pass\": %s}\n",
        gemm_speedup, fused_speedup, fused_vs_blocked, fusion_speedup,
        all_ok ? "true" : "false");
  }

  if (!gemm_ok) {
    std::fprintf(stderr,
                 "GATE FAIL: blocked GEMM speedup %.2fx < required %.2fx\n",
                 gemm_speedup, options.min_gemm_speedup);
  }
  if (!fused_ok) {
    std::fprintf(stderr,
                 "GATE FAIL: fused AtB speedup %.2fx < required %.2fx\n",
                 fused_speedup, options.min_fused_speedup);
  }
  if (!fusion_ok) {
    std::fprintf(stderr,
                 "GATE FAIL: fusion speedup %.2fx < required %.2fx\n",
                 fusion_speedup, options.min_fusion_speedup);
  }
  return all_ok ? 0 : 1;
}

}  // namespace
}  // namespace remac

int main(int argc, char** argv) {
  const remac::Options options = remac::ParseArgs(argc, argv);
  return remac::RunBench(options);
}
