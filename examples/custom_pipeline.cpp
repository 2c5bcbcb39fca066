// Using the library below the one-call RunScript API: compile a script,
// run the block-wise search yourself, inspect the elimination options and
// the cost graph, pick options manually, and execute the emitted program.
// This is the integration surface for embedding ReMac in another engine
// (paper Section 5: the components are switchable).
//
//   ./example_custom_pipeline

#include <cstdio>

#include "algorithms/scripts.h"
#include "common/string_util.h"
#include "core/adaptive_optimizer.h"
#include "core/analysis.h"
#include "core/block_search.h"
#include "core/cost_graph.h"
#include "core/dp_prober.h"
#include "data/generators.h"
#include "plan/plan_builder.h"
#include "runtime/executor.h"
#include "sparsity/estimator.h"

using namespace remac;

int main() {
  // Data + script.
  DataCatalog catalog;
  DatasetSpec spec;
  spec.name = "ds";
  spec.rows = 30000;
  spec.cols = 80;
  spec.sparsity = 0.02;
  spec.seed = 33;
  if (Status st = RegisterDataset(&catalog, spec); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  const int iterations = 20;
  auto program = CompileScript(DfpScript("ds", iterations), catalog);
  if (!program.ok()) {
    std::fprintf(stderr, "%s\n", program.status().ToString().c_str());
    return 1;
  }

  // --- Automatic elimination, by hand -----------------------------------
  const LoopStructure loop = FindLoop(*program);
  auto outputs = InlineLoopBody(loop.loop->body);
  auto space = BuildSearchSpace(*outputs, loop.loop_assigned,
                                InferSymmetricVars(loop));
  std::printf("Coordinate axis: %lld factors across %zu blocks\n",
              static_cast<long long>(space->coordinate_length),
              space->blocks.size());
  for (size_t b = 0; b < space->blocks.size() && b < 6; ++b) {
    std::printf("  block %zu: %s\n", b, space->blocks[b].ToString().c_str());
  }

  SearchReport search_report;
  const auto options = BlockWiseSearch(*space, &search_report);
  std::printf("\nBlock-wise search: %lld windows in %s -> %zu options\n",
              static_cast<long long>(search_report.windows_visited),
              HumanSeconds(search_report.wall_seconds).c_str(),
              options.size());
  int shown = 0;
  for (const auto& opt : options) {
    if (opt.occurrences.front().Length() >= 3 && shown < 5) {
      std::printf("  %s\n", opt.ToString().c_str());
      ++shown;
    }
  }

  // --- Adaptive elimination, by hand ------------------------------------
  MncEstimator estimator;
  CostModel cost_model(ClusterModel(), &estimator, &catalog);
  auto vars = PropagateProgramStats(*program, cost_model);
  CostGraph graph(&*space, &cost_model, &*vars, iterations);
  if (Status st = graph.Build(); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  ProbeReport probe;
  auto chosen = AdaptiveProbe(graph, options, &probe);
  std::printf(
      "\nDP probing: %d evaluations, estimated per-iteration cost %s -> %s\n",
      probe.evaluations, HumanSeconds(probe.baseline_cost).c_str(),
      HumanSeconds(probe.chosen_cost).c_str());
  for (const auto* opt : chosen.value()) {
    std::printf("  picked %s\n", opt->ToString().c_str());
  }

  // --- Emission + execution through the packaged optimizer --------------
  OptimizerConfig config;
  config.iterations = iterations;
  ReMacOptimizer optimizer(ClusterModel(), &estimator, &catalog, config);
  OptimizeReport report;
  auto optimized = optimizer.Optimize(*program, &report);
  if (!optimized.ok()) {
    std::fprintf(stderr, "%s\n", optimized.status().ToString().c_str());
    return 1;
  }
  TransmissionLedger ledger{ClusterModel()};
  Executor executor(ClusterModel(), &catalog, &ledger);
  if (Status st = executor.Run(optimized->statements, iterations); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("\nExecuted optimized program: simulated %s [%s]\n",
              HumanSeconds(ledger.TotalSeconds()).c_str(),
              ledger.Breakdown().ToString().c_str());
  return 0;
}
