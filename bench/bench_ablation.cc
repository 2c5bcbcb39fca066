// Ablation microbenchmarks (google-benchmark): local kernels, the
// block-wise search, estimator propagation, chain DP, and block-size
// sensitivity — the design choices DESIGN.md calls out.

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "algorithms/scripts.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "core/analysis.h"
#include "core/block_search.h"
#include "core/cost_graph.h"
#include "core/dp_prober.h"
#include "data/generators.h"
#include "matrix/kernels.h"
#include "plan/plan_builder.h"
#include "runtime/program_runner.h"
#include "sched/thread_pool.h"
#include "sparsity/estimator.h"

namespace remac {
namespace {

Matrix RandomDense(int64_t rows, int64_t cols, uint64_t seed) {
  Rng rng(seed);
  DenseMatrix m(rows, cols);
  for (int64_t i = 0; i < m.size(); ++i) m.data()[i] = rng.NextGaussian();
  return Matrix::WrapDense(std::move(m));
}

Matrix RandomSparse(int64_t rows, int64_t cols, double sp, uint64_t seed) {
  DatasetSpec spec;
  spec.name = "bench";
  spec.rows = rows;
  spec.cols = cols;
  spec.sparsity = sp;
  spec.seed = seed;
  return GenerateMatrix(spec);
}

void BM_DenseGemm(benchmark::State& state) {
  const int64_t n = state.range(0);
  const Matrix a = RandomDense(n, n, 1);
  const Matrix b = RandomDense(n, n, 2);
  for (auto _ : state) {
    auto c = Multiply(a, b);
    benchmark::DoNotOptimize(c);
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_DenseGemm)->Arg(128)->Arg(256)->Arg(512);

void BM_SparseDenseMul(benchmark::State& state) {
  const int64_t n = state.range(0);
  const Matrix a = RandomSparse(n * 16, n, 0.01, 3);
  const Matrix b = RandomDense(n, 32, 4);
  for (auto _ : state) {
    auto c = Multiply(a, b);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_SparseDenseMul)->Arg(256)->Arg(1024);

void BM_SparseSparseMul(benchmark::State& state) {
  const int64_t n = state.range(0);
  const Matrix a = RandomSparse(n, n, 0.01, 5);
  const Matrix b = RandomSparse(n, n, 0.01, 6);
  for (auto _ : state) {
    auto c = Multiply(a, b);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_SparseSparseMul)->Arg(1024)->Arg(4096);

/// The full compile pipeline pieces on DFP.
struct PipelineFixture {
  DataCatalog catalog;
  CompiledProgram program;
  SearchSpace space;
  MncEstimator estimator;
  std::unique_ptr<CostModel> cost_model;
  VarStats vars;
  std::unique_ptr<CostGraph> graph;
  std::vector<EliminationOption> options;

  static PipelineFixture& Get() {
    static PipelineFixture* fixture = [] {
      auto* f = new PipelineFixture();
      DatasetSpec spec;
      spec.name = "abl";
      spec.rows = 5000;
      spec.cols = 64;
      spec.sparsity = 0.01;
      spec.seed = 11;
      (void)RegisterDataset(&f->catalog, spec);
      f->program =
          CompileScript(DfpScript("abl", 20), f->catalog).value();
      const LoopStructure loop = FindLoop(f->program);
      auto outputs = InlineLoopBody(loop.loop->body).value();
      f->space = BuildSearchSpace(outputs, loop.loop_assigned,
                                  InferSymmetricVars(loop))
                     .value();
      f->cost_model = std::make_unique<CostModel>(ClusterModel(),
                                                  &f->estimator, &f->catalog);
      f->vars = PropagateProgramStats(f->program, *f->cost_model)
                    .value();
      f->graph = std::make_unique<CostGraph>(&f->space, f->cost_model.get(),
                                             &f->vars, 20);
      (void)f->graph->Build();
      f->options = BlockWiseSearch(f->space, nullptr);
      return f;
    }();
    return *fixture;
  }
};

void BM_BlockWiseSearch(benchmark::State& state) {
  PipelineFixture& f = PipelineFixture::Get();
  for (auto _ : state) {
    SearchReport report;
    auto options = BlockWiseSearch(f.space, &report);
    benchmark::DoNotOptimize(options);
  }
}
BENCHMARK(BM_BlockWiseSearch);

void BM_CostGraphBuild(benchmark::State& state) {
  PipelineFixture& f = PipelineFixture::Get();
  for (auto _ : state) {
    CostGraph graph(&f.space, f.cost_model.get(), &f.vars, 20);
    benchmark::DoNotOptimize(graph.Build());
  }
}
BENCHMARK(BM_CostGraphBuild);

void BM_EvaluateCombination(benchmark::State& state) {
  PipelineFixture& f = PipelineFixture::Get();
  std::vector<const EliminationOption*> combo;
  for (size_t i = 0; i < f.options.size() && combo.size() < 3; ++i) {
    bool ok = true;
    for (auto* c : combo) ok = ok && !OptionsConflict(*c, f.options[i]);
    if (ok) combo.push_back(&f.options[i]);
  }
  for (auto _ : state) {
    auto cost = f.graph->Evaluate(combo);
    benchmark::DoNotOptimize(cost);
  }
}
BENCHMARK(BM_EvaluateCombination);

void BM_AdaptiveProbe(benchmark::State& state) {
  PipelineFixture& f = PipelineFixture::Get();
  for (auto _ : state) {
    ProbeReport report;
    auto chosen = AdaptiveProbe(*f.graph, f.options, &report);
    benchmark::DoNotOptimize(chosen);
  }
}
BENCHMARK(BM_AdaptiveProbe);

void BM_EstimatorMultiply(benchmark::State& state) {
  const Matrix a = RandomSparse(20000, 500, 0.005, 7);
  const MncEstimator mnc;
  const MetadataEstimator md;
  MatrixStats stats;
  stats.rows = a.rows();
  stats.cols = a.cols();
  stats.sparsity = a.Sparsity();
  RowColCounts counts = a.CountRowsAndCols();
  stats.row_counts = std::move(counts.row_counts);
  stats.col_counts = std::move(counts.col_counts);
  const SparsityEstimator& est =
      state.range(0) == 0 ? static_cast<const SparsityEstimator&>(md)
                          : static_cast<const SparsityEstimator&>(mnc);
  const NodeStats sa = est.LeafStats("a", stats);
  const NodeStats sat = est.Transpose(sa);
  for (auto _ : state) {
    // An MNC estimator computes a product once and then serves it from
    // its memo; a fresh one per iteration times the propagation itself.
    const MncEstimator fresh_mnc;
    NodeStats product = state.range(0) == 0 ? md.Multiply(sat, sa)
                                            : fresh_mnc.Multiply(sat, sa);
    benchmark::DoNotOptimize(product);
  }
  state.SetLabel(state.range(0) == 0 ? "metadata" : "MNC");
}
BENCHMARK(BM_EstimatorMultiply)->Arg(0)->Arg(1);

/// Block-size sensitivity of the simulated BMM shuffle volume.
void BM_BlockSizeSweep(benchmark::State& state) {
  ClusterModel model;
  model.block_size = state.range(0);
  MatInfo a;
  a.rows = 60000;
  a.cols = 870;
  a.sparsity = 0.005;
  a.distributed = true;
  MatInfo b;
  b.rows = 870;
  b.cols = 870;
  b.sparsity = 1.0;
  b.distributed = false;
  for (auto _ : state) {
    OpCosting costing = CostMultiply(a, b, 1.0, model);
    benchmark::DoNotOptimize(costing);
  }
  OpCosting costing = CostMultiply(a, b, 1.0, model);
  state.SetLabel("shuffle=" + HumanBytes(costing.shuffle_bytes));
}
BENCHMARK(BM_BlockSizeSweep)->Arg(256)->Arg(1024)->Arg(4096);

}  // namespace
}  // namespace remac

// Custom main: peel off the harness flags (--threads=N, --scheduler=...)
// before google-benchmark sees the remaining arguments.
int main(int argc, char** argv) {
  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (remac::StartsWith(arg, "--threads=")) {
      char* end = nullptr;
      const long threads = std::strtol(arg.c_str() + 10, &end, 10);
      if (end == arg.c_str() + 10 || *end != '\0' || threads <= 0) {
        std::fprintf(stderr, "--threads expects a positive integer, got '%s'\n",
                     arg.c_str() + 10);
        return 2;
      }
      remac::SetKernelThreads(static_cast<int>(threads));
      remac::ThreadPool::SetGlobalThreads(static_cast<int>(threads));
    } else if (!remac::StartsWith(arg, "--scheduler=") && arg != "--json" &&
               arg != "--quick") {
      passthrough.push_back(argv[i]);
    }
  }
  int pass_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&pass_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(pass_argc, passthrough.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
