#ifndef REMAC_PLAN_FUSION_H_
#define REMAC_PLAN_FUSION_H_

#include <cstdint>

#include "matrix/fused_tape.h"
#include "plan/plan_builder.h"
#include "plan/plan_node.h"

namespace remac {

/// What FuseElementwiseChains did to one program.
struct FusionReport {
  int64_t regions = 0;    // kFusedMap nodes introduced
  int64_t ops_fused = 0;  // elementwise/unary ops absorbed into tapes
};

/// \brief Rewrites maximal same-shape elementwise regions into kFusedMap
/// nodes carrying a post-order FusedTape.
///
/// A region root is any matrix-shaped (non-ScalarLike) node whose op is
/// element-wise binary (+, -, *, /, min, max) or element-wise unary
/// (exp, log); it greedily absorbs every child that is itself such a node
/// with the same shape. Everything else — multiplies, transposes,
/// generators (including rand()), scalar-shaped subtrees, reads — is a
/// region input and stays a child of the kFusedMap node, in DFS
/// first-occurrence order. ScalarLike inputs become scalar-broadcast tape
/// slots. Regions of fewer than two ops are left untouched. Input
/// subtrees are processed recursively, so chains on both sides of a
/// multiply each fuse.
///
/// The pass is a pure tree rewrite on plan structure: it runs after
/// optimization (statement granularity already encodes the redundancy
/// machinery's sharing decisions, so a multi-consumer intermediate is a
/// separate statement and never absorbed). Unchanged subtrees are shared,
/// changed paths are rebuilt.
///
/// Bumps the remac.fusion.regions / remac.fusion.ops_fused counters and
/// reports the same numbers through `report` (may be null).
void FuseElementwiseChains(CompiledProgram* program,
                           FusionReport* report = nullptr);

/// Node-level entry point (used by tests and the candidate extraction in
/// the matcache): returns the rewritten tree, sharing unchanged subtrees.
PlanNodePtr FuseElementwiseTree(const PlanNodePtr& node,
                                FusionReport* report = nullptr);

}  // namespace remac

#endif  // REMAC_PLAN_FUSION_H_
