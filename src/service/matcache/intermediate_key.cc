#include "service/matcache/intermediate_key.h"

#include <algorithm>
#include <memory>
#include <set>
#include <utility>

#include "baselines/engine_modes.h"
#include "common/string_util.h"
#include "obs/cost_audit.h"
#include "plan/chain.h"
#include "plan/rewriter.h"
#include "service/program_fingerprint.h"

namespace remac {

namespace {

/// True when every leaf under `node` is a catalog read (or a constant)
/// and every interior node is a multiply, transpose, or fused elementwise
/// region — the subtree's value depends on nothing but registered
/// datasets. Generators stay out: rand() depends on the deterministic
/// stream position, and eye/ones/zeros chains are cheaper to rebuild than
/// to cache. A bare constant is not itself pure (nothing to cache); it
/// only keeps a fused region pure as a scalar-broadcast operand.
bool IsPureReadSubtree(const PlanNode& node) {
  switch (node.op) {
    case PlanOp::kReadData:
      return true;
    case PlanOp::kTranspose:
      return IsPureReadSubtree(*node.children[0]);
    case PlanOp::kMatMul:
      return IsPureReadSubtree(*node.children[0]) &&
             IsPureReadSubtree(*node.children[1]);
    case PlanOp::kFusedMap:
      for (const PlanNodePtr& child : node.children) {
        if (child->op != PlanOp::kConst && !IsPureReadSubtree(*child)) {
          return false;
        }
      }
      return true;
    default:
      return false;
  }
}

void CollectReadNames(const PlanNode& node, std::set<std::string>* out) {
  if (node.op == PlanOp::kReadData) out->insert(node.name);
  for (const PlanNodePtr& child : node.children) {
    CollectReadNames(*child, out);
  }
}

/// Collects maximal pure subtree roots, unwrapping transpose roots down
/// to the first multiply (see SubplanCandidate's doc for why).
void CollectRoots(const PlanNodePtr& node, std::vector<PlanNodePtr>* roots) {
  if (node == nullptr) return;
  if (IsPureReadSubtree(*node)) {
    PlanNodePtr root = node;
    while (root->op == PlanOp::kTranspose) root = root->children[0];
    if (root->op == PlanOp::kMatMul || root->op == PlanOp::kFusedMap) {
      roots->push_back(root);
    }
    return;  // children are part of the captured subtree
  }
  for (const PlanNodePtr& child : node->children) {
    CollectRoots(child, roots);
  }
}

void CollectFromStatements(const std::vector<CompiledStmt>& statements,
                           std::vector<PlanNodePtr>* roots) {
  for (const CompiledStmt& stmt : statements) {
    if (stmt.kind == CompiledStmt::Kind::kAssign) {
      CollectRoots(stmt.plan, roots);
    } else {
      CollectRoots(stmt.condition, roots);
      CollectFromStatements(stmt.body, roots);
    }
  }
}

/// Canonical chain key of a pure subtree: normalize (transpose push-down
/// + folding), decompose, and take the whole-block WindowKey. A pure
/// multiply chain decomposes into exactly one block; anything else falls
/// back to the normalized rendering, which is still canonical across
/// transpose placements.
std::string CanonicalWindowKey(const PlanNodePtr& node) {
  if (node->op == PlanOp::kFusedMap) {
    // A fused region's rendering embeds the canonical tape string
    // ("M,S|t0=sub(i0,i1);...") plus the input renderings — already a
    // stable cross-process key; the chain normalizer does not apply.
    return node->ToString();
  }
  PlanNodePtr normalized = NormalizeForSearch(node->Clone());
  Result<Decomposition> decomposed = DecomposeIntoBlocks(normalized);
  if (decomposed.ok() && decomposed.value().blocks.size() == 1) {
    const Block& block = decomposed.value().blocks[0];
    return WindowKey(block, 0, block.factors.size());
  }
  return normalized->ToString();
}

}  // namespace

std::vector<SubplanCandidate> ExtractIntermediateCandidates(
    const CompiledProgram& program, const DataCatalog& catalog,
    const RunConfig& config) {
  std::vector<PlanNodePtr> roots;
  CollectFromStatements(program.statements, &roots);

  const std::unique_ptr<SparsityEstimator> estimator =
      MakeEstimator(config.estimator, &catalog);
  const EngineTraits traits = TraitsFor(config.engine);

  std::vector<SubplanCandidate> candidates;
  candidates.reserve(roots.size());
  for (PlanNodePtr& root : roots) {
    SubplanCandidate candidate;
    candidate.window_key = CanonicalWindowKey(root);
    candidate.structural_digest = Fnv1a64(root->ToString());

    std::set<std::string> reads;
    CollectReadNames(*root, &reads);
    candidate.datasets.assign(reads.begin(), reads.end());

    // Recompute cost: the audit prediction over a one-statement program
    // computing exactly this subtree. Prediction failures leave 0 —
    // a strict admission knob then rejects the entry, which errs toward
    // not caching rather than caching blindly.
    CompiledProgram wrapper;
    CompiledStmt stmt;
    stmt.kind = CompiledStmt::Kind::kAssign;
    stmt.target = "__matcache";
    stmt.plan = root;
    wrapper.statements.push_back(std::move(stmt));
    Result<PredictedCost> predicted =
        PredictProgramCost(wrapper, catalog, *estimator, config.cluster,
                           traits, /*loop_iterations=*/1);
    if (predicted.ok()) {
      candidate.predicted_flops = predicted.value().TotalFlops();
    }

    candidate.node = std::move(root);
    candidates.push_back(std::move(candidate));
  }
  return candidates;
}

std::string ExecEnvDigest(const RunConfig& config) {
  return StringFormat("g%d,w%d,bs%lld", static_cast<int>(config.engine),
                      config.cluster.num_workers,
                      static_cast<long long>(config.cluster.block_size));
}

Result<std::string> IntermediateCacheKey(const SubplanCandidate& candidate,
                                         const DataCatalog& catalog,
                                         const std::string& env_digest) {
  std::string key = candidate.window_key;
  key += StringFormat("|%016llx|", static_cast<unsigned long long>(
                                       candidate.structural_digest));
  for (const std::string& name : candidate.datasets) {
    REMAC_ASSIGN_OR_RETURN(const std::string fragment,
                           DatasetMetadataFragment(name, catalog));
    key += fragment;
    key += StringFormat("v%lld;",
                        static_cast<long long>(catalog.Version(name)));
  }
  key += '|';
  key += env_digest;
  return key;
}

}  // namespace remac
