// The paper's evaluation (Section 6) in one binary: Table 2, Figures 3,
// 8(a), 8(b), 9-13 and the estimator ablation of Section 4.2.
//
//   bench_paper [FIGURE...] [--quick] [--threads=N]
//               [--scheduler=serial|taskgraph] [--json]
//
// FIGURE is table2, fig3, fig8a, fig8b, fig9, fig10, fig11, fig12, fig13
// or estimators; naming none runs them all. --quick runs a subset of the
// datasets and budgets that keeps at least one claim per figure.
//
// Each figure prints its table, then checks the shape the paper claims
// for it on the numbers just measured, one line per claim:
//
//   PASS|FAIL <figure>: <claim> (<measured>)
//
// and the binary exits 1 if any claim fails. Claims judge simulated
// execution seconds. Only the compile-cost claims of Fig 8(a) and
// Fig 10(a) judge real compile wall time, which is printed in its own
// column and never added to simulated time. EXPERIMENTS.md quotes one
// full run.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "algorithms/scripts.h"
#include "bench/harness.h"
#include "cluster/partitioner.h"
#include "distributed/blocked_matrix.h"
#include "plan/chain.h"
#include "sparsity/estimator.h"

using namespace remac;
using namespace remac::bench;

namespace {

constexpr int kIterations = 100;
constexpr double kInf = std::numeric_limits<double>::infinity();

int claims_checked = 0;
int claims_failed = 0;

/// Prints one PASS/FAIL line for a claimed shape.
void Claim(const char* figure, bool holds, const std::string& claim,
           const std::string& measured) {
  ++claims_checked;
  if (!holds) ++claims_failed;
  std::printf("%s %s: %s (%s)\n", holds ? "PASS" : "FAIL", figure,
              claim.c_str(), measured.c_str());
}

/// Fails the figure when a dataset or a run it needs errors out, so a
/// claim over the missing numbers cannot pass in its place.
bool Ran(const char* figure, const std::string& what, const Status& status) {
  if (!status.ok()) Claim(figure, false, what + " runs", status.ToString());
  return status.ok();
}

/// (fast, slow) measurements whose ratio slow / fast a claim bounds.
using Pairs = std::vector<std::pair<double, double>>;

Pairs operator+(Pairs a, const Pairs& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

/// Claims slow / fast lies in [lo, hi] for every pair. No pairs (every
/// dataset of the claim left out by --quick) means no claim.
void Band(const char* figure, const std::string& claim, const Pairs& pairs,
          double lo, double hi = kInf) {
  if (pairs.empty()) return;
  bool holds = true;
  double min = kInf;
  double max = 0.0;
  for (const auto& [fast, slow] : pairs) {
    const double ratio = slow / fast;
    holds = holds && ratio >= lo && ratio <= hi;
    min = std::min(min, ratio);
    max = std::max(max, ratio);
  }
  Claim(figure, holds, claim,
        pairs.size() == 1 ? StringFormat("%.2fx", min)
                          : StringFormat("%.2f-%.2fx over %zu cells", min,
                                         max, pairs.size()));
}

using Change = std::function<void(RunConfig&)>;

/// A default RunConfig with `change` applied.
RunConfig ConfigWith(const Change& change) {
  RunConfig config;
  change(config);
  return config;
}

/// One column of a sweep: a label and the RunConfig change it makes.
struct Arm {
  std::string label;
  Change change;
  /// Set when the arm runs only one algorithm (SPORES: partial DFP).
  const char* only_for = nullptr;
};

Arm OptimizerArm(OptimizerKind kind, const char* only_for = nullptr) {
  return {OptimizerKindName(kind),
          [kind](RunConfig& c) { c.optimizer = kind; }, only_for};
}

struct Algorithm {
  const char* name;
  std::string (*script)(const std::string& dataset, int iterations);
};

std::string PartialDfp(const std::string& dataset, int) {
  return PartialDfpScript(dataset);
}

const Algorithm kDfp{"DFP", &DfpScript};
const Algorithm kBfgs{"BFGS", &BfgsScript};
const Algorithm kGd{"GD", &GdScript};
const Algorithm kPartialDfp{"partial DFP", &PartialDfp};

const std::vector<Algorithm> kLoops = {kDfp, kBfgs, kGd};
const std::vector<std::string> kAllDatasets = {"cri1", "cri2", "cri3",
                                               "red1", "red2", "red3"};

using Metric = double (*)(const Measurement&);
double Exec(const Measurement& m) { return m.execution_seconds; }

bool Contains(const std::vector<std::string>& names, const std::string& name) {
  return std::find(names.begin(), names.end(), name) != names.end();
}

/// The runs of one sweep, keyed by algorithm, dataset and arm.
struct Cells {
  std::vector<std::string> algorithms;
  std::vector<std::string> datasets;
  std::map<std::string, Measurement> runs;

  static std::string Key(const std::string& algorithm,
                         const std::string& dataset, const std::string& arm) {
    return algorithm + "/" + dataset + "/" + arm;
  }

  /// The run of one cell; a cell that failed (and so already failed its
  /// figure) reads as NaN.
  const Measurement& At(const std::string& algorithm,
                        const std::string& dataset,
                        const std::string& arm) const {
    static const Measurement missing = [] {
      Measurement m;
      m.execution_seconds = m.compile_wall_seconds = std::nan("");
      m.breakdown.transmission_seconds = std::nan("");
      return m;
    }();
    const auto it = runs.find(Key(algorithm, dataset, arm));
    return it == runs.end() ? missing : it->second;
  }

  /// (fast arm, slow arm) per swept algorithm of `of` and per swept
  /// dataset, restricted to `only` when it is not empty.
  Pairs Compare(const std::vector<Algorithm>& of, const std::string& fast,
                const std::string& slow,
                const std::vector<std::string>& only = {},
                Metric metric = &Exec) const {
    Pairs pairs;
    for (const Algorithm& algorithm : of) {
      if (!Contains(algorithms, algorithm.name)) continue;
      for (const std::string& ds : datasets) {
        if (!only.empty() && !Contains(only, ds)) continue;
        pairs.emplace_back(metric(At(algorithm.name, ds, fast)),
                           metric(At(algorithm.name, ds, slow)));
      }
    }
    return pairs;
  }
};

/// Runs every algorithm x dataset x arm over a 100-iteration horizon,
/// prints one row per run and returns the runs.
Cells Sweep(const char* figure, const std::vector<Algorithm>& algorithms,
            const std::vector<std::string>& datasets,
            const std::vector<Arm>& arms) {
  std::printf("\n%-12s %-9s %-27s %9s %9s %9s %9s %12s\n", "algorithm",
              "dataset", "arm", "sim exec", "partition", "compute",
              "transmit", "compile wall");
  Cells cells{{}, datasets, {}};
  for (const Algorithm& algorithm : algorithms) {
    cells.algorithms.push_back(algorithm.name);
    for (const std::string& ds : datasets) {
      const Status st = EnsureDataset(ds, /*with_partial_dfp_inputs=*/true);
      for (const Arm& arm : arms) {
        if (arm.only_for && arm.only_for != std::string(algorithm.name)) {
          continue;
        }
        const std::string key = Cells::Key(algorithm.name, ds, arm.label);
        auto m = st.ok() ? MeasureScript(algorithm.script(ds, kIterations),
                                         ConfigWith(arm.change), kIterations,
                                         std::string(figure) + "/" + key)
                         : Result<Measurement>(st);
        if (!Ran(figure, key, m.status())) continue;
        const TimeBreakdown& b = m->breakdown;
        std::printf("%-12s %-9s %-27s %9s %9s %9s %9s %12s\n", algorithm.name,
                    ds.c_str(), arm.label.c_str(),
                    Fmt(m->execution_seconds).c_str(),
                    Fmt(b.input_partition_seconds).c_str(),
                    Fmt(b.computation_seconds).c_str(),
                    Fmt(b.transmission_seconds).c_str(),
                    Fmt(m->compile_wall_seconds).c_str());
        std::fflush(stdout);
        cells.runs.emplace(key, std::move(m).value());
      }
    }
  }
  std::printf("\n");
  return cells;
}

void Table2(bool) {
  Banner("Table 2", "dataset statistics (scaled synthetic stand-ins)");
  // The sparsity of the paper's Criteo/Reddit samples.
  const std::map<std::string, double> paper_sparsity = {
      {"cri1", 6.0e-1}, {"cri2", 4.5e-3}, {"cri3", 2.6e-3},
      {"red1", 5.1e-1}, {"red2", 3.9e-3}, {"red3", 9.6e-4}};
  std::printf("%-8s %10s %9s %12s %12s %10s\n", "Dataset", "Rows#",
              "Columns#", "Sparsity", "NNZ", "Footprint");
  double worst = 1.0;
  for (const std::string& ds : kAllDatasets) {
    if (!Ran("table2", ds, EnsureDataset(ds, true))) continue;
    const Matrix& m = SharedCatalog().Value(ds).value();
    std::printf("%-8s %10lld %9lld %12.2e %12lld %10s\n", ds.c_str(),
                static_cast<long long>(m.rows()),
                static_cast<long long>(m.cols()), m.Sparsity(),
                static_cast<long long>(m.nnz()),
                HumanBytes(static_cast<double>(m.SizeInBytes())).c_str());
    const double ratio = m.Sparsity() / paper_sparsity.at(ds);
    worst = std::max({worst, ratio, 1.0 / ratio});
  }
  std::printf(
      "\nPaper reference (Table 2): cri1 116.8M x 47 sp 6.0e-1 40.9GB; "
      "cri2 58.4M x 8.7K sp 4.5e-3; cri3 58.4M x 15.0K sp 2.6e-3;\n"
      "red1 120.0M x 34 sp 5.1e-1; red2 104.5M x 5.0K sp 3.9e-3; "
      "red3 104.5M x 20.0K sp 9.6e-4. Rows are scaled by ~1000 and sparse\n"
      "column counts by ~10; sparsity and the tall/fat contrast are "
      "preserved (see DESIGN.md).\n\n");
  Claim("table2", worst <= 2.0,
        "every stand-in keeps the paper's sparsity within 2x",
        StringFormat("worst %.2fx", worst));
}

void Fig3(bool) {
  Banner("Figure 3", "DFP under fixed CSE/LSE choices");
  // A denser cri2-shaped dataset: the single-node panel is disk-bound
  // (the paper runs 30-40GB against 32GB RAM), so the dataset must be
  // large relative to the n^3 update chains for the same trade-off to
  // appear at laptop scale.
  if (!SharedCatalog().Contains("fig3") &&
      !Ran("fig3", "fig3",
           RegisterDataset(&SharedCatalog(),
                           {"fig3", 50000, 870, 0.35, 1.1, 1.1, 303}))) {
    return;
  }
  // Distributed panel: a tighter per-object memory share pushes the n x n
  // intermediates (A^T A, d d^T products) into distributed CPMM land,
  // like the paper's 8.7K x 8.7K matrices on its testbed.
  ClusterModel distributed;
  distributed.driver_memory_bytes = 16LL << 20;
  std::vector<Arm> arms;
  for (const auto& [setting, cluster] :
       {std::pair<std::string, ClusterModel>{"dist", distributed},
        {"single", ClusterModel::SingleNode()}}) {
    auto arm = [&, setting = setting, cluster = cluster](
                   const char* label, OptimizerKind optimizer,
                   std::vector<std::string> forced = {}) {
      arms.push_back({setting + " " + label, [=](RunConfig& c) {
                        c.cluster = cluster;
                        c.optimizer = optimizer;
                        c.forced_option_keys = forced;
                      }});
    };
    arm("no CSE/LSE", OptimizerKind::kSystemDsNoCse);
    arm("explicit", OptimizerKind::kSystemDs);
    arm("all found (auto)", OptimizerKind::kRemacAutomatic);
    // Exactly the paper's fixed pick: the LSE of A^T A and the CSE of
    // d d^T (which, with d = Hg inlined, reads H g g^T H).
    arm("ATA,ddT only", OptimizerKind::kRemacAdaptive,
        {JoinKey({"A'", "A"}), JoinKey({"H@0", "g@1", "g@1'", "H@0"})});
    arm("efficient (adaptive)", OptimizerKind::kRemacAdaptive);
  }
  const Cells cells = Sweep("fig3", {kDfp}, {"fig3"}, arms);
  Pairs efficient;
  for (const Arm& arm : arms) {
    const std::string setting = arm.label.substr(0, arm.label.find(' '));
    const std::string adaptive = setting + " efficient (adaptive)";
    if (arm.label != adaptive) {
      efficient = efficient + cells.Compare({kDfp}, adaptive, arm.label);
    }
  }
  const auto penalty = [&](const std::string& setting) {
    return cells.At(kDfp.name, "fig3", setting + " ATA,ddT only")
               .execution_seconds /
           cells.At(kDfp.name, "fig3", setting + " explicit")
               .execution_seconds;
  };
  Claim("fig3", penalty("dist") >= 4.0 && penalty("dist") <= 50.0,
        "distributed: the ATA,ddT pick is 4-50x slower than explicit "
        "(paper 4-7x)",
        StringFormat("%.2fx", penalty("dist")));
  Claim("fig3", penalty("dist") >= 4.0 * penalty("single"),
        "that penalty is >= 4x larger distributed than on a single node",
        StringFormat("%.2fx vs %.2fx", penalty("dist"), penalty("single")));
  Band("fig3", "the efficient (adaptive) pick beats every other choice",
       efficient, 1.0);
}

void Fig8a(bool quick) {
  Banner("Figure 8(a)", "compile time to find CSE and LSE (wall)");
  if (!Ran("fig8a", "cri2", EnsureDataset("cri2", true))) return;
  // The tree-wise search stops at this many nodes; both budgets stop it
  // orders of magnitude past the block-wise search on DFP.
  const int64_t treewise_budget = quick ? 5000000 : 50000000;
  std::printf("%-12s %14s %14s %14s %14s\n", "algorithm", "SystemDS",
              "tree-wise", "block-wise", "SPORES");
  std::printf("(a trailing '>' marks a tree-wise run truncated by its node "
              "budget)\n");
  auto compile = [](const std::string& script, const Change& change) {
    auto m = CompileOnly(script, SharedCatalog(), ConfigWith(change));
    return Ran("fig8a", "compile", m.status()) ? std::move(m).value()
                                                : RunReport{};
  };
  bool block_fast = true;
  double slowest_block = 0.0;
  Pairs explosion;
  for (const Algorithm& algorithm : {kDfp, kBfgs, kGd, kPartialDfp}) {
    const std::string script = algorithm.script("cri2", 20);
    const double systemds =
        compile(script, [](RunConfig& c) {
          c.optimizer = OptimizerKind::kSystemDs;
        }).compile_wall_seconds;
    // kRemacNone: the search cost only, no elimination applied.
    const SearchReport tree =
        compile(script, [treewise_budget](RunConfig& c) {
          c.optimizer = OptimizerKind::kRemacNone;
          c.search = SearchMethod::kTreeWise;
          c.treewise_budget = treewise_budget;
        }).optimize.search;
    const double block = compile(script, [](RunConfig& c) {
                           c.optimizer = OptimizerKind::kRemacNone;
                         }).optimize.search.wall_seconds;
    // SPORES supports only the partial-DFP expression, as in the paper.
    const std::string spores =
        algorithm.script != kPartialDfp.script
            ? "n/s"
            : Fmt(compile(script, [](RunConfig& c) {
                    c.optimizer = OptimizerKind::kSpores;
                  }).compile_wall_seconds);
    std::printf("%-12s %14s %13s%s %14s %14s\n", algorithm.name,
                Fmt(systemds).c_str(), Fmt(tree.wall_seconds).c_str(),
                tree.windows_visited < 0 ? ">" : " ", Fmt(block).c_str(),
                spores.c_str());
    block_fast = block_fast && block <= 0.1;
    slowest_block = std::max(slowest_block, block);
    if (algorithm.script == kDfp.script || algorithm.script == kBfgs.script) {
      explosion.emplace_back(block, tree.wall_seconds);
    }
  }
  std::printf("\n");
  Claim("fig8a", block_fast,
        "block-wise search adds <= 0.1 s to the compile (paper +61 ms)",
        "slowest " + Fmt(slowest_block));
  Band("fig8a", "tree-wise search is >= 100x slower on DFP and BFGS",
       explosion, 100.0);
}

void Fig8b(bool quick) {
  Banner("Figure 8(b)", "execution time under automatic elimination");
  const Cells cells = Sweep(
      "fig8b", {kDfp, kBfgs, kGd, kPartialDfp},
      quick ? std::vector<std::string>{"cri1", "cri3"} : kAllDatasets,
      {OptimizerArm(OptimizerKind::kSystemDsNoCse),
       OptimizerArm(OptimizerKind::kSystemDs),
       OptimizerArm(OptimizerKind::kRemacAutomatic),
       OptimizerArm(OptimizerKind::kSpores, kPartialDfp.name)});
  const std::vector<std::string> tall = {"cri1", "red1"};
  Band("fig8b", "DFP: automatic is 3-15x faster than SystemDS on cri1/red1",
       cells.Compare({kDfp}, "automatic", "SystemDS", tall), 3.0, 15.0);
  Band("fig8b", "GD: automatic is 10-40x faster there (paper 25.8x)",
       cells.Compare({kGd}, "automatic", "SystemDS", tall), 10.0, 40.0);
  Band("fig8b", "BFGS: explicit CSE makes SystemDS 5-500x slower than "
       "SystemDS* (paper up to 11.4x)",
       cells.Compare({kBfgs}, "SystemDS*", "SystemDS"), 5.0, 500.0);
  Band("fig8b", "BFGS: automatic stays >= 5x slower than SystemDS* on the "
       "fat cri3/red3",
       cells.Compare({kBfgs}, "SystemDS*", "automatic", {"cri3", "red3"}), 5.0);
  Band("fig8b", "partial DFP: automatic matches SPORES exactly",
       cells.Compare({kPartialDfp}, "automatic", "SPORES"), 1.0, 1.0);
  Band("fig8b", "partial DFP: automatic is 1.02-2x faster than SystemDS "
       "(paper 2.2x)",
       cells.Compare({kPartialDfp}, "automatic", "SystemDS"), 1.02, 2.0);
}

void Fig9(bool quick) {
  Banner("Figure 9", "elimination strategies");
  const Cells cells = Sweep(
      "fig9", kLoops,
      quick ? std::vector<std::string>{"cri1", "cri3"} : kAllDatasets,
      {OptimizerArm(OptimizerKind::kSystemDs),
       OptimizerArm(OptimizerKind::kRemacConservative),
       OptimizerArm(OptimizerKind::kRemacAggressive),
       OptimizerArm(OptimizerKind::kRemacAdaptive)});
  Pairs best;
  for (const char* other : {"SystemDS", "conservative", "aggressive"}) {
    best = best + cells.Compare(kLoops, "adaptive", other);
  }
  Band("fig9", "BFGS and GD: conservative beats SystemDS everywhere",
       cells.Compare({kBfgs, kGd}, "conservative", "SystemDS"), 1.0);
  Band("fig9", "aggressive beats conservative on the tall dense cri1/red1",
       cells.Compare(kLoops, "aggressive", "conservative", {"cri1", "red1"}),
       1.0);
  Band("fig9", "BFGS: aggressive collapses on the sparse sets, 4-100x "
       "slower than conservative",
       cells.Compare({kBfgs}, "conservative", "aggressive",
                     {"cri2", "cri3", "red2", "red3"}),
       4.0, 100.0);
  Band("fig9", "adaptive is the best column, or within 2% of it", best,
       0.98);
}

void Fig10(bool quick) {
  Banner("Figure 10", "adaptive elimination: DP vs Enum, MD vs MNC");
  // Enum's evaluation budget: large enough to dominate DP's cost (the
  // paper's Enum runs minutes to days; exhausting the full subset lattice
  // here would be equally unbounded).
  const int64_t enum_budget = quick ? 500 : 1500;
  auto arm = [enum_budget](const char* label, CombinerKind combiner,
                           EstimatorKind estimator) {
    return Arm{label, [=](RunConfig& c) {
                 c.optimizer = OptimizerKind::kRemacAdaptive;
                 c.combiner = combiner;
                 c.estimator = estimator;
                 c.enum_budget = enum_budget;
               }};
  };
  const Cells cells = Sweep(
      "fig10", kLoops,
      quick ? std::vector<std::string>{"cri3"} : kAllDatasets,
      {arm("DP-MD", CombinerKind::kDp, EstimatorKind::kMetadata),
       arm("DP-MNC", CombinerKind::kDp, EstimatorKind::kMnc),
       arm("Enum-MD", CombinerKind::kEnumDepthFirst, EstimatorKind::kMetadata),
       arm("Enum-MNC", CombinerKind::kEnumDepthFirst, EstimatorKind::kMnc)});
  const Metric compile = [](const Measurement& m) {
    return m.compile_wall_seconds;
  };
  const Metric evaluations = [](const Measurement& m) {
    return static_cast<double>(m.optimize.probe.evaluations);
  };
  const std::vector<Algorithm> chains = {kDfp, kBfgs};
  Band("fig10", "(a) DP-MD compiles 2-100x faster than DP-MNC on DFP/BFGS",
       cells.Compare(chains, "DP-MD", "DP-MNC", {}, compile), 2.0, 100.0);
  Band("fig10", "(a) Enum runs >= 2x the plan evaluations of DP on DFP/BFGS",
       cells.Compare(chains, "DP-MD", "Enum-MD", {}, evaluations) +
           cells.Compare(chains, "DP-MNC", "Enum-MNC", {}, evaluations),
       2.0);
  Band("fig10", "(b) Enum's capped plans are never > 1% faster than DP's",
       cells.Compare(kLoops, "DP-MD", "Enum-MD") +
           cells.Compare(kLoops, "DP-MNC", "Enum-MNC"),
       0.99);
  Band("fig10", "(b) GD: DP-MNC is 1.5-2.5x faster than DP-MD on the fat "
       "cri3/red3 (paper up to 3.7x)",
       cells.Compare({kGd}, "DP-MNC", "DP-MD", {"cri3", "red3"}), 1.5, 2.5);
}

void Fig11(bool quick) {
  Banner("Figure 11", "alternative systems on the dense datasets");
  auto arm = [](const char* label, OptimizerKind optimizer,
                EngineKind engine) {
    return Arm{label, [=](RunConfig& c) {
                 c.optimizer = optimizer;
                 c.engine = engine;
               }};
  };
  const Cells cells = Sweep(
      "fig11",
      quick ? std::vector<Algorithm>{kGd} : kLoops,
      quick ? std::vector<std::string>{"cri1"}
            : std::vector<std::string>{"cri1", "red1"},
      {arm("SystemDS", OptimizerKind::kSystemDs, EngineKind::kSystemDsLike),
       arm("pbdR", OptimizerKind::kAsWritten, EngineKind::kPbdR),
       arm("SciDB", OptimizerKind::kAsWritten, EngineKind::kSciDb),
       arm("ReMac", OptimizerKind::kRemacAdaptive, EngineKind::kSystemDsLike)});
  Band("fig11", "SystemDS is >= 2x faster than pbdR and SciDB (paper 2.8x)",
       cells.Compare(kLoops, "SystemDS", "pbdR") +
           cells.Compare(kLoops, "SystemDS", "SciDB"),
       2.0);
  Band("fig11", "ReMac is fastest, 5-100x over SystemDS (paper 14.4x)",
       cells.Compare(kLoops, "ReMac", "SystemDS"), 5.0, 100.0);
}

std::vector<std::string> SkewDatasets(bool quick) {
  if (quick) return {"cri2", "zipf-0.7", "zipf-1.4"};
  return {"cri2", "zipf-0.0", "zipf-0.7", "zipf-1.4", "zipf-2.1", "zipf-2.8"};
}

/// Whether the plan hoists A^T A out of the loop (an applied LSE option
/// keyed A'A).
bool HoistsAtA(const Measurement& m) {
  const std::string key = "{" + JoinKey({"A'", "A"}) + " @";
  return std::any_of(m.optimize.applied_options.begin(),
                     m.optimize.applied_options.end(),
                     [&](const std::string& option) {
                       return StartsWith(option, "LSE") &&
                              option.find(key) != std::string::npos;
                     });
}

void Fig12(bool quick) {
  Banner("Figure 12", "time breakdown of DFP on cri2 and skewed data");
  auto arm = [](const char* label, OptimizerKind optimizer) {
    return Arm{label, [=](RunConfig& c) {
                 c.optimizer = optimizer;
                 c.count_input_partition = true;
               }};
  };
  const Cells cells =
      Sweep("fig12", {kDfp}, SkewDatasets(quick),
            {arm("SystemDS", OptimizerKind::kSystemDs),
             arm("ReMac", OptimizerKind::kRemacAdaptive)});
  Pairs share;
  std::string hoists;
  bool crossover = true;
  for (const std::string& ds : cells.datasets) {
    const Measurement& systemds = cells.At(kDfp.name, ds, "SystemDS");
    share.emplace_back(systemds.execution_seconds,
                       systemds.breakdown.transmission_seconds);
    if (!StartsWith(ds, "zipf-")) continue;
    const bool hoisted = HoistsAtA(cells.At(kDfp.name, ds, "ReMac"));
    crossover = crossover && hoisted == (std::stod(ds.substr(5)) >= 1.4);
    hoists += StringFormat("%s%s %s", hoists.empty() ? "" : ", ",
                           ds.c_str(), hoisted ? "yes" : "no");
  }
  const Metric transmit = [](const Measurement& m) {
    return m.breakdown.transmission_seconds;
  };
  Band("fig12", "transmission is 70-100% of SystemDS's time (paper 70%)",
       share, 0.7, 1.0);
  Band("fig12", "ReMac cuts SystemDS's transmission >= 2x on every dataset",
       cells.Compare({kDfp}, "ReMac", "SystemDS", {}, transmit), 2.0);
  Claim("fig12", crossover,
        "ReMac hoists A'A from zipf-1.4 up (paper: from zipf-2.1)", hoists);
}

void Fig13(bool quick) {
  Banner("Figure 13", "per-worker data proportion under skew");
  ClusterModel model;
  // Match the data scale: small blocks so the grid is non-trivial.
  model.block_size = 256;
  const HashPartitioner partitioner(model.num_workers);
  std::printf("%-10s", "dataset");
  for (int w = 0; w < model.num_workers; ++w) std::printf(" worker%d", w);
  std::printf("\n");
  double min_share = 1.0;
  double max_share = 0.0;
  for (const std::string& ds : SkewDatasets(quick)) {
    if (!Ran("fig13", ds, EnsureDataset(ds, true))) continue;
    const std::vector<double> loads =
        BlockedMatrix::Partition(SharedCatalog().Value(ds).value(), model)
            .PerWorkerBytes(partitioner);
    double total = 0.0;
    for (double l : loads) total += l;
    std::printf("%-10s", ds.c_str());
    for (double l : loads) {
      min_share = std::min(min_share, l / total);
      max_share = std::max(max_share, l / total);
      std::printf("  %6.4f", l / total);
    }
    std::printf("\n");
  }
  std::printf("\n");
  const double fair = 1.0 / model.num_workers;
  Claim("fig13", min_share >= fair - 0.1 && max_share <= fair + 0.1,
        "every worker holds 1/6 +- 0.1 of the data at every skew (hash "
        "partitioning absorbs it)",
        StringFormat("%.4f-%.4f", min_share, max_share));
}

void Estimators(bool) {
  Banner("Estimator ablation",
         "sp(A^T A) estimation error and cost vs skew (Section 4.2)");
  std::printf("%-10s %10s |", "dataset", "true sp");
  for (const char* name : {"MD", "Sample", "MNC"}) {
    std::printf(" %8s-err %8s-us |", name, name);
  }
  std::printf("\n");
  const MetadataEstimator md;
  const SamplingEstimator sampling(64);
  const MncEstimator mnc;
  const SparsityEstimator* estimators[] = {&md, &sampling, &mnc};
  double worst_md = 0.0;
  double worst_mnc = 0.0;
  for (const std::string& ds : SkewDatasets(false)) {
    if (ds == "cri2") continue;
    if (!Ran("estimators", ds, EnsureDataset(ds, true))) continue;
    const Matrix a = SharedCatalog().Value(ds).value();
    const MatrixStats& stats = *SharedCatalog().Stats(ds).value();
    const double truth =
        static_cast<double>(MultiplyNnzExact(Transpose(a), a).value()) /
        (static_cast<double>(a.cols()) * static_cast<double>(a.cols()));
    std::printf("%-10s %10.4f |", ds.c_str(), truth);
    for (const SparsityEstimator* estimator : estimators) {
      const auto start = std::chrono::steady_clock::now();
      const NodeStats leaf = estimator->LeafStats("a", stats);
      const double error = std::fabs(
          estimator->Multiply(estimator->Transpose(leaf), leaf).sparsity -
          truth);
      const double micros = std::chrono::duration<double, std::micro>(
                                std::chrono::steady_clock::now() - start)
                                .count();
      std::printf(" %12.4f %11.1f |", error, micros);
      if (estimator == &md) worst_md = std::max(worst_md, error);
      if (estimator == &mnc) worst_mnc = std::max(worst_mnc, error);
    }
    std::printf("\n");
  }
  std::printf("\n");
  Claim("estimators", worst_mnc <= 0.1,
        "MNC's error stays within 0.1 at every skew",
        StringFormat("worst %.4f", worst_mnc));
  Claim("estimators", worst_mnc < worst_md,
        "MNC's worst error is below MD's (why ReMac defaults to MNC)",
        StringFormat("MNC %.4f vs MD %.4f", worst_mnc, worst_md));
}

struct Figure {
  const char* name;
  void (*run)(bool quick);
};

constexpr Figure kFigures[] = {
    {"table2", &Table2}, {"fig3", &Fig3},   {"fig8a", &Fig8a},
    {"fig8b", &Fig8b},   {"fig9", &Fig9},   {"fig10", &Fig10},
    {"fig11", &Fig11},   {"fig12", &Fig12}, {"fig13", &Fig13},
    {"estimators", &Estimators},
};

}  // namespace

int main(int argc, char** argv) {
  // Figure names are positional; the flags go to the shared harness.
  std::vector<std::string> names;
  std::vector<char*> flags = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (argv[i][0] == '-') {
      flags.push_back(argv[i]);
    } else {
      names.push_back(argv[i]);
    }
  }
  const bool quick =
      ParseBenchArgs(static_cast<int>(flags.size()), flags.data()).quick;
  for (const std::string& name : names) {
    if (std::none_of(std::begin(kFigures), std::end(kFigures),
                     [&](const Figure& f) { return name == f.name; })) {
      std::fprintf(stderr,
                   "unknown figure '%s' (expected table2, fig3, fig8a, fig8b, "
                   "fig9, fig10, fig11, fig12, fig13 or estimators)\n",
                   name.c_str());
      return 2;
    }
  }
  for (const Figure& figure : kFigures) {
    if (names.empty() || Contains(names, figure.name)) figure.run(quick);
  }
  std::printf("\n%d of %d claims hold\n", claims_checked - claims_failed,
              claims_checked);
  return claims_failed == 0 ? 0 : 1;
}
