#ifndef REMAC_SERVICE_MATCACHE_INTERMEDIATE_KEY_H_
#define REMAC_SERVICE_MATCACHE_INTERMEDIATE_KEY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "plan/plan_builder.h"
#include "runtime/program_runner.h"

namespace remac {

/// \brief A cacheable sub-plan of an optimized program.
///
/// Candidates are the maximal pure-read subtrees: every leaf is a
/// read("...") of a catalog dataset (or a constant inside a fused
/// region) and every interior node is a matrix multiply, transpose, or
/// fused elementwise region (kFusedMap). Such a subtree's value is a
/// pure function of the referenced datasets, so it can be shared across
/// requests — and across *programs* — that compute the same chain over
/// the same data (the cross-request analogue of the paper's common
/// subexpression elimination). The candidate root is always a kMatMul or
/// kFusedMap node: the executor fuses t() children into the parent
/// multiply and never evaluates the fused transpose node itself, so a
/// transpose root would never be observed at runtime.
struct SubplanCandidate {
  /// The candidate root inside the (shared, immutable) plan tree. The
  /// runtime store matches executor callbacks against this pointer.
  PlanNodePtr node;
  /// Canonical chain key of the subtree (plan/chain.h WindowKey over the
  /// normalized factor sequence): unifies a chain with its transpose for
  /// grouping and observability. Falls back to the normalized rendering
  /// for subtrees the decomposition cannot split into a single block.
  std::string window_key;
  /// FNV-1a 64 of the exact subtree rendering. Two different
  /// parenthesizations of one chain share a window key but compute
  /// bitwise-different floats; the structural digest keeps them apart so
  /// a cache hit is always bitwise-identical to recomputing this exact
  /// tree. Cross-program sharing still works because the optimizer
  /// canonicalizes equal chains to equal parenthesizations.
  uint64_t structural_digest = 0;
  /// Datasets the subtree reads (sorted, unique) — the invalidation set.
  std::vector<std::string> datasets;
  /// Predicted FLOPs to recompute the subtree (PredictProgramCost on
  /// a one-statement wrapper program), the admission policy's benefit
  /// side. 0 when prediction failed.
  double predicted_flops = 0.0;
};

/// Extracts every maximal pure-read multiply subtree from `program`
/// (assignments, loop bodies and loop conditions), with recompute costs
/// predicted under the request's estimator/cluster/engine. Runs once per
/// plan build; the result is stored on the cached plan and shared by all
/// requests executing it.
std::vector<SubplanCandidate> ExtractIntermediateCandidates(
    const CompiledProgram& program, const DataCatalog& catalog,
    const RunConfig& config);

/// Digest of the execution-environment knobs that can change the bits a
/// candidate evaluates to: the engine personality (pbdR/SciDB force
/// dense storage) and the cluster geometry the blocked kernels chunk by
/// (summation order). Cost-only knobs (bandwidths, FLOP rates) stay out
/// so cached intermediates shared across cost configurations.
std::string ExecEnvDigest(const RunConfig& config);

/// The full cache key of one candidate under the current catalog state:
///   window_key | structural digest | per-dataset metadata fragment +
///   registration version | exec-environment digest.
/// The version term makes keys of superseded data unreachable even when
/// re-registered data lands in the same dimensions and sparsity bucket.
/// Errors if a referenced dataset is missing from the catalog.
Result<std::string> IntermediateCacheKey(const SubplanCandidate& candidate,
                                         const DataCatalog& catalog,
                                         const std::string& env_digest);

}  // namespace remac

#endif  // REMAC_SERVICE_MATCACHE_INTERMEDIATE_KEY_H_
