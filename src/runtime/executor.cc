#include "runtime/executor.h"

#include <tuple>
#include <utility>

#include "common/rng.h"
#include "common/string_util.h"
#include "cost/physical_model.h"
#include "matrix/fused_tape.h"
#include "matrix/kernels.h"
#include "obs/span.h"

namespace remac {

namespace {

/// Registry handles resolved once; every Executor instance (serial and
/// per-task) bumps the same process-wide counters.
struct ExecMetrics {
  Counter* ops =
      MetricsRegistry::Global().GetCounter("remac.executor.ops");
  Histogram* statement_seconds = MetricsRegistry::Global().GetHistogram(
      "remac.executor.statement_seconds");
  Histogram* multiply_seconds = MetricsRegistry::Global().GetHistogram(
      "remac.executor.multiply_seconds");
  Histogram* elementwise_seconds = MetricsRegistry::Global().GetHistogram(
      "remac.executor.elementwise_seconds");
  Histogram* transpose_seconds = MetricsRegistry::Global().GetHistogram(
      "remac.executor.transpose_seconds");
  /// Bytes of fused-region intermediates that were never materialized
  /// (one MatrixBytes-worth per interior tape step).
  Counter* fusion_bytes_avoided =
      MetricsRegistry::Global().GetCounter("remac.fusion.bytes_avoided");
  /// Fused regions whose output was computed in place inside a dying
  /// input's dense buffer.
  Counter* fusion_in_place =
      MetricsRegistry::Global().GetCounter("remac.fusion.in_place_hits");
};

ExecMetrics& Metrics() {
  static ExecMetrics metrics;
  return metrics;
}

/// Number of kInput references to `name` in the tree.
int64_t CountInputRefs(const PlanNode& node, const std::string& name) {
  int64_t count =
      node.op == PlanOp::kInput && node.name == name ? 1 : 0;
  for (const auto& child : node.children) {
    count += CountInputRefs(*child, name);
  }
  return count;
}

}  // namespace

Executor::Executor(const ClusterModel& model, const DataCatalog* catalog,
                   TransmissionLedger* ledger, EngineTraits traits)
    : PlanWalk(model, traits), catalog_(catalog), ledger_(ledger) {}

Result<RtValue> Executor::EvalAssign(const CompiledStmt& stmt) {
  StageSpan span(Metrics().statement_seconds, "statement");
  // Last-use buffer handoff: when the assignment target's previous value
  // is read exactly once by the new plan (X = X + ... style updates),
  // move it out of the environment so a fused region can steal its dense
  // buffer and run in place. Safe only here — a barrier-commit body must
  // keep start-of-iteration values readable until the joint commit, and
  // the task-graph path never calls Run.
  ArmBufferSteal(stmt);
  Result<RtValue> value = Eval(*stmt.plan);
  steal_.reset();  // unconsumed when a cache hit covered the input
  return value;
}

void Executor::ArmBufferSteal(const CompiledStmt& stmt) {
  steal_.reset();
  auto it = env_.find(stmt.target);
  if (it == env_.end() || it->second.is_scalar) return;
  if (CountInputRefs(*stmt.plan, stmt.target) != 1) return;
  steal_.emplace(stmt.target, std::move(it->second));
  it->second = RtValue{};  // benign placeholder until the re-assignment
}

Result<bool> Executor::LoopContinues(const RtValue& condition) {
  REMAC_ASSIGN_OR_RETURN(const double flag, condition.AsScalar());
  return flag != 0.0;
}

Result<RtValue> Executor::Input(const std::string& name) {
  if (steal_.has_value() && steal_->first == name) {
    RtValue stolen = std::move(steal_->second);
    steal_.reset();
    return stolen;
  }
  return Get(name);
}

const RtValue* Executor::Served(const PlanNode& node) {
  return intermediates_ != nullptr ? intermediates_->Lookup(&node) : nullptr;
}

void Executor::Offer(const PlanNode& node, const RtValue& value) {
  if (intermediates_ != nullptr) intermediates_->Offer(&node, value);
}

void Executor::CountOp() {
  ++ops_executed_;
  Metrics().ops->Add();
}

void Executor::Densify(Matrix* m) {
  if (!m->is_dense()) *m = Matrix::WrapDense(m->ToDense());
}

void Executor::Book(const OpCosting& costing) { costing.Book(ledger_); }

void Executor::BookDistributedFlops(double flops) {
  if (ledger_ != nullptr) ledger_->AddDistributedFlops(flops);
}

Result<RtValue> Executor::ReadData(const std::string& name) {
  if (catalog_ == nullptr) {
    return Status::Internal("executor has no catalog");
  }
  REMAC_ASSIGN_OR_RETURN(Matrix value, catalog_->Value(name));
  if (traits_.force_dense) Densify(&value);  // partitioned as dense
  const bool first_load = shared_datasets_ != nullptr
                              ? shared_datasets_->MarkLoaded(name)
                              : !loaded_datasets_[name];
  if (first_load) {
    loaded_datasets_[name] = true;
    if (count_input_partition_ && ledger_ != nullptr) {
      ledger_->AddInputPartition(static_cast<double>(value.SizeInBytes()) *
                                 traits_.input_partition_factor);
    }
  }
  // Input datasets live distributed: they are the cluster-scale payloads
  // (the paper's 30-40GB Criteo/Reddit matrices).
  return RtValue::FromMatrix(std::move(value), /*distributed=*/true);
}

Matrix Executor::Generate(const PlanNode& node) {
  const int64_t rows = node.shape.rows;
  const int64_t cols = node.shape.cols;
  switch (node.op) {
    case PlanOp::kEye:
      return Matrix::Identity(rows);
    case PlanOp::kOnes: {
      DenseMatrix m(rows, cols);
      for (int64_t i = 0; i < m.size(); ++i) m.data()[i] = 1.0;
      return Matrix::WrapDense(std::move(m));
    }
    case PlanOp::kRand: {
      // Uniform on [0.1, 1.1): one xoshiro step and one multiply a cell,
      // no libm call. The 0.1 floor keeps every cell strictly positive
      // for the divisions of multiplicative updates (GNMF).
      Rng rng(0x5eedULL + (rand_counter_++));
      DenseMatrix m(rows, cols);
      for (int64_t i = 0; i < m.size(); ++i) {
        m.data()[i] = 0.1 + rng.NextDouble();
      }
      return Matrix::WrapDense(std::move(m));
    }
    case PlanOp::kZeros:
    default:  // the walk calls this for generators only
      return Matrix::Zeros(rows, cols);
  }
}

Matrix Executor::ComputeTranspose(const Matrix& m) {
  StageSpan span(Metrics().transpose_seconds, "transpose");
  return Transpose(m);
}

Result<Matrix> Executor::ComputeMultiply(const RtValue& a, bool a_transposed,
                                         const RtValue& b, bool b_transposed,
                                         OpCosting* costing) {
  StageSpan span(Metrics().multiply_seconds, "multiply");
  // Fused kernels consume the transpose flags directly: no operand is
  // materialized (remac.kernel.fused_transpose counts these).
  REMAC_ASSIGN_OR_RETURN(
      Matrix out,
      MultiplyTransposed(a.matrix, a_transposed, b.matrix, b_transposed));
  // A transpose swaps the dimensions and keeps the sparsity.
  const auto op_info = [](const RtValue& v, bool transposed) {
    MatInfo info = v.Info();
    if (transposed) std::swap(info.rows, info.cols);
    return info;
  };
  *costing = CostMultiply(op_info(a, a_transposed), op_info(b, b_transposed),
                          out.Sparsity(), model_);
  return out;
}

Result<Matrix> Executor::ComputeElementwise(PlanOp op, const Matrix& a,
                                            const Matrix& b) {
  StageSpan span(Metrics().elementwise_seconds, "elementwise");
  switch (*OpInfo(op).cell) {
    case FusedOp::kAdd: return Add(a, b);
    case FusedOp::kSub: return Subtract(a, b);
    case FusedOp::kMul: return ElementwiseMultiply(a, b);
    case FusedOp::kDiv: return ElementwiseDivide(a, b);
    case FusedOp::kMin: return ElementwiseMin(a, b);
    case FusedOp::kMax: return ElementwiseMax(a, b);
    default:
      return Status::Internal("bad elementwise op");
  }
}

Result<Matrix> Executor::ComputeBroadcast(PlanOp op, const Matrix& m,
                                          double s, bool scalar_left) {
  const FusedOp cell = *OpInfo(op).cell;
  if (cell == FusedOp::kMul) return ScalarMultiply(m, s);
  if (cell == FusedOp::kDiv && !scalar_left) {
    return ScalarMultiply(m, s == 0.0 ? 0.0 : 1.0 / s);
  }
  // Operand order preserved (min/max ties and NaNs resolve to the left
  // operand, see FusedApply); scalar ./ matrix is the safe cell-wise
  // division.
  return ApplyCellwise(m, cell, s, scalar_left);
}

Matrix Executor::ComputeUnary(PlanOp op, const Matrix& m) {
  const FusedOp cell = *OpInfo(op).cell;
  if (OpInfo(op).pattern == PatternRule::kDense) {
    return ApplyCellwise(m, cell);  // exp(0) = 1 densifies
  }
  // The map keeps zeros zero, so it runs over the stored values only
  // (stored explicit zeros included, so the result is bitwise-identical
  // to the fused tape's cell-wise FusedApply regardless of how zeros are
  // represented).
  CsrMatrix csr = m.ToCsr();
  for (auto& v : csr.mutable_values()) v = FusedApply(cell, v, 0.0);
  return Matrix::FromCsr(std::move(csr));
}

Matrix Executor::ComputeLineSums(PlanOp op, const Matrix& m) {
  const bool rows = op == PlanOp::kRowSums;
  DenseMatrix out(rows ? m.rows() : 1, rows ? 1 : m.cols());
  double* sums = out.data();
  if (m.is_dense()) {
    // Summed in place, in the CSR order below. Adding the zero cells the
    // CSR form leaves out changes no bit: a sum starts at +0.0, so it is
    // never -0.0, and x + (+-0.0) == x for every x but -0.0, NaN and Inf
    // included.
    const double* cells = m.dense().data();
    for (int64_t r = 0; r < m.rows(); ++r) {
      const double* row = cells + r * m.cols();
      for (int64_t c = 0; c < m.cols(); ++c) sums[rows ? r : c] += row[c];
    }
    return Matrix::FromDense(std::move(out));
  }
  const CsrMatrix& csr = m.csr();
  for (int64_t r = 0; r < csr.rows(); ++r) {
    for (int64_t k = csr.row_ptr()[r]; k < csr.row_ptr()[r + 1]; ++k) {
      sums[rows ? r : csr.col_idx()[k]] += csr.values()[k];
    }
  }
  return Matrix::FromDense(std::move(out));
}

Matrix Executor::ComputeDiag(const Matrix& m) {
  if (m.cols() == 1) {
    std::vector<std::tuple<int64_t, int64_t, double>> triplets;
    for (int64_t i = 0; i < m.rows(); ++i) {
      const double v = m.At(i, 0);
      if (v != 0.0) triplets.emplace_back(i, i, v);
    }
    return Matrix::FromCsr(
        CsrMatrix::FromTriplets(m.rows(), m.rows(), std::move(triplets)));
  }
  DenseMatrix out(m.rows(), 1);
  for (int64_t i = 0; i < m.rows(); ++i) out.At(i, 0) = m.At(i, i);
  return Matrix::FromDense(std::move(out));
}

double Executor::ComputeReduction(PlanOp op, const Matrix& m) {
  if (op == PlanOp::kSum) return SumAll(m);
  if (op == PlanOp::kNorm) return FrobeniusNorm(m);
  double total = 0.0;  // trace
  for (int64_t i = 0; i < m.rows(); ++i) total += m.At(i, i);
  return total;
}

Result<FusedExecResult> Executor::StartTape(const FusedTape& tape,
                                            std::vector<RtValue> inputs) {
  std::vector<Matrix> matrices;
  std::vector<double> scalars;
  for (int32_t i = 0; i < tape.num_inputs; ++i) {
    RtValue& v = inputs[static_cast<size_t>(i)];
    if (v.is_scalar) {
      scalars.push_back(v.scalar);
    } else {
      matrices.push_back(std::move(v.matrix));
    }
  }
  StageSpan span(Metrics().elementwise_seconds, "fused");
  return ExecuteFusedTape(tape, std::move(matrices), scalars);
}

double Executor::TapeStepSparsity(const FusedExecResult& run,
                                  const FusedTape& tape,
                                  const TapeStep& step) {
  // The tape reports every step's exact non-zero count.
  const double cells =
      static_cast<double>(tape.rows) * static_cast<double>(tape.cols);
  return cells > 0.0 ? static_cast<double>(run.step_nnz[step.index]) / cells
                     : 0.0;
}

Matrix Executor::FinishTape(FusedExecResult&& run, const FusedTape& tape,
                            const std::vector<MatInfo>& slots) {
  // Every step but the last is an intermediate fusion never materialized.
  double bytes_avoided = 0.0;
  for (size_t j = static_cast<size_t>(tape.num_inputs); j + 1 < slots.size();
       ++j) {
    bytes_avoided +=
        MatrixBytes(slots[j].rows, slots[j].cols, slots[j].sparsity);
  }
  Metrics().fusion_bytes_avoided->Add(static_cast<int64_t>(bytes_avoided));
  if (run.in_place) Metrics().fusion_in_place->Add();
  return std::move(run.output);
}

}  // namespace remac
