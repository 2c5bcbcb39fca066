#ifndef REMAC_RUNTIME_PLAN_WALK_H_
#define REMAC_RUNTIME_PLAN_WALK_H_

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster_model.h"
#include "common/status.h"
#include "common/string_util.h"
#include "distributed/distributed_ops.h"
#include "matrix/fused_tape.h"
#include "plan/plan_builder.h"

namespace remac {

/// Engine personality knobs used to emulate the comparator systems
/// (paper Section 6.4).
struct EngineTraits {
  /// pbdR/ScaLAPACK: sparse matrices are handled as dense.
  bool force_dense = false;
  /// pbdR/SciDB: no dynamic local/distributed switch; every matrix
  /// operator runs distributed.
  bool force_distributed = false;
  /// Multiplier on the dfs cost of loading/partitioning input data
  /// (pbdR and SciDB partition inputs sequentially; SciDB additionally
  /// pays a redimension pass).
  double input_partition_factor = 1.0;
};

/// What the walk needs to read off a matrix-shaped payload. Specialized
/// for Matrix below and for the estimator's NodeStats in CostPredictor.
template <typename Payload>
struct PayloadOps;

template <>
struct PayloadOps<Matrix> {
  static MatInfo Info(const Matrix& m, bool distributed) {
    return InfoOf(m, distributed);
  }
  static double Nnz(const Matrix& m) { return static_cast<double>(m.nnz()); }
  static double Bytes(const Matrix& m) {
    return static_cast<double>(m.SizeInBytes());
  }
  static double At00(const Matrix& m) { return m.At(0, 0); }
  static Matrix OneByOne(double v) {
    DenseMatrix m(1, 1);
    m.At(0, 0) = v;
    return Matrix::WrapDense(std::move(m));
  }
};

/// A walked value: a scalar, or a matrix-shaped payload with its
/// placement (driver-local or distributed).
template <typename Payload>
struct PlanValue {
  bool is_scalar = false;
  double scalar = 0.0;
  Payload matrix;
  bool distributed = false;

  static PlanValue Scalar(double v) {
    PlanValue out;
    out.is_scalar = true;
    out.scalar = v;
    return out;
  }
  static PlanValue FromMatrix(Payload m, bool distributed) {
    PlanValue out;
    out.matrix = std::move(m);
    out.distributed = distributed;
    return out;
  }

  MatInfo Info() const {
    return PayloadOps<Payload>::Info(matrix, distributed);
  }
  /// Scalars and 1x1 matrices are interchangeable.
  bool ScalarLike() const {
    if (is_scalar) return true;
    const MatInfo info = Info();
    return info.rows == 1.0 && info.cols == 1.0;
  }
  /// Scalar view; 1x1 matrices coerce.
  Result<double> AsScalar() const {
    if (is_scalar) return scalar;
    if (ScalarLike()) return PayloadOps<Payload>::At00(matrix);
    const MatInfo info = Info();
    return Status::InvalidArgument(StringFormat(
        "cannot use a %lld x %lld matrix as a scalar",
        static_cast<long long>(info.rows), static_cast<long long>(info.cols)));
  }
  /// Matrix view; scalars become 1x1 matrices.
  Payload AsMatrix() const {
    return is_scalar ? PayloadOps<Payload>::OneByOne(scalar) : matrix;
  }
};

/// One step of a fused tape, classified the way the walk books it.
struct TapeStep {
  size_t index = 0;  // the step's result lands in slot num_inputs + index
  PlanOp op = PlanOp::kAdd;
  int32_t lhs = -1;
  int32_t rhs = -1;        // -1 for the unary maps (exp, log)
  bool broadcast = false;  // one operand is a scalar slot
  /// The matrix operand of a unary map or a broadcast.
  int32_t matrix_slot = -1;
};

/// Scalar semantics of a binary PlanOp: the FusedApply cell semantics for
/// the element-wise family, 0/1 for comparisons.
inline Result<double> ApplyScalarBinary(PlanOp op, double a, double b) {
  if (const std::optional<FusedOp> fused = OpInfo(op).cell) {
    return FusedApply(*fused, a, b);
  }
  switch (op) {
    case PlanOp::kLess: return a < b ? 1.0 : 0.0;
    case PlanOp::kGreater: return a > b ? 1.0 : 0.0;
    case PlanOp::kLessEq: return a <= b ? 1.0 : 0.0;
    case PlanOp::kGreaterEq: return a >= b ? 1.0 : 0.0;
    case PlanOp::kEqual: return a == b ? 1.0 : 0.0;
    case PlanOp::kNotEqual: return a != b ? 1.0 : 0.0;
    default:
      return Status::Internal("bad scalar binary op");
  }
}

/// \brief The one walk over compiled programs, run over a value domain.
///
/// The walk owns everything execution and cost prediction share: the
/// statement loop (static trip counts, loop variables, barrier-commit
/// staging), the op dispatch (a case for each op with an evaluation of
/// its own, the rest by its op-table family), the kMatMul transpose
/// unwrap with its degenerate-scalar fallback, scalar/1x1 classification
/// and the broadcast choice, engine-trait placement, the per-step booking
/// of kFusedMap tapes, and which OpCosting each operator books. A domain
/// (CRTP `Derived`) supplies the payload arithmetic: real matrices booked
/// into the TransmissionLedger (Executor), or estimator statistics booked
/// into a predicted charge (CostPredictor: the optimizer's cost model,
/// its statistics propagation and the cost audit). The walk prices every
/// operator but the fused transpose-multiply, which each domain prices
/// with CostMultiply on op(a) and op(b) as it sees them (ComputeMultiply):
/// the estimate domain reads a transposed operand's statistics off the
/// estimator's Transpose, whose sparsity may differ from the operand's own
/// in the last bit, so pricing it here would move estimates. The hooks a
/// domain implements are the `self().` calls below; the protected ones
/// have defaults.
template <typename Derived, typename Payload>
class PlanWalk {
 public:
  using Value = PlanValue<Payload>;

  PlanWalk(const ClusterModel& model, EngineTraits traits)
      : model_(model), traits_(traits) {}

  /// Runs a statement list. Loops run until their condition turns false
  /// (as the domain judges it) or LoopLimit is reached: by default
  /// `max_loop_iterations` or the static trip count, whichever is less.
  Status Run(const std::vector<CompiledStmt>& statements,
             int max_loop_iterations = 1000) {
    for (const auto& stmt : statements) {
      if (stmt.kind == CompiledStmt::Kind::kAssign) {
        REMAC_ASSIGN_OR_RETURN(Value value, self().EvalAssign(stmt));
        Set(stmt.target, std::move(value));
        continue;
      }
      const int64_t limit = self().LoopLimit(stmt, max_loop_iterations);
      if (!stmt.loop_var.empty()) {
        Set(stmt.loop_var, Value::Scalar(stmt.loop_begin));
      }
      for (int64_t iter = 0; iter < limit; ++iter) {
        if (stmt.condition != nullptr) {
          REMAC_ASSIGN_OR_RETURN(const Value cond, Eval(*stmt.condition));
          REMAC_ASSIGN_OR_RETURN(const bool go, self().LoopContinues(cond));
          if (!go) break;
        }
        if (stmt.barrier_commit) {
          // Temps commit immediately; outputs are staged and committed
          // together, so every output reads start-of-iteration state.
          std::vector<std::pair<std::string, Value>> staged;
          for (const auto& body_stmt : stmt.body) {
            if (body_stmt.kind != CompiledStmt::Kind::kAssign) {
              return Status::Unsupported("nested loop in barrier-commit body");
            }
            REMAC_ASSIGN_OR_RETURN(Value value, Eval(*body_stmt.plan));
            if (body_stmt.is_temp) {
              Set(body_stmt.target, std::move(value));
            } else {
              staged.emplace_back(body_stmt.target, std::move(value));
            }
          }
          for (auto& [name, value] : staged) Set(name, std::move(value));
        } else {
          REMAC_RETURN_NOT_OK(Run(stmt.body, max_loop_iterations));
        }
        if (!stmt.loop_var.empty()) {
          Set(stmt.loop_var,
              Value::Scalar(stmt.loop_begin + static_cast<double>(iter + 1)));
        }
      }
    }
    return Status::OK();
  }

  /// Evaluates one plan tree in the current environment.
  Result<Value> Eval(const PlanNode& node) {
    if (const Value* served = self().Served(node)) return *served;
    REMAC_ASSIGN_OR_RETURN(Value value, EvalImpl(node));
    value = ApplyTraits(std::move(value));
    self().Offer(node, value);
    return value;
  }

  /// Environment access.
  Result<Value> Get(const std::string& name) const {
    auto it = env_.find(name);
    if (it == env_.end()) {
      return Status::NotFound("variable '" + name + "' is not defined");
    }
    return it->second;
  }
  void Set(const std::string& name, Value value) {
    env_.insert_or_assign(name, std::move(value));
  }
  const std::map<std::string, Value>& env() const { return env_; }

 protected:
  // Default hooks; a domain shadows the ones it needs.
  Result<Value> EvalAssign(const CompiledStmt& stmt) {
    return Eval(*stmt.plan);
  }
  Result<Value> Input(const std::string& name) { return Get(name); }
  Value Literal(double v) { return Value::Scalar(v); }
  Result<Value> BlockRef(int) {
    return Status::Internal("kBlockRef reached plan evaluation");
  }
  int64_t LoopLimit(const CompiledStmt& loop, int max_loop_iterations) {
    return loop.static_trip_count >= 0
               ? std::min<int64_t>(max_loop_iterations, loop.static_trip_count)
               : max_loop_iterations;
  }
  const Value* Served(const PlanNode&) { return nullptr; }
  void Offer(const PlanNode&, const Value&) {}
  void CountOp() {}
  void Densify(Payload*) {}

  ClusterModel model_;
  EngineTraits traits_;
  std::map<std::string, Value> env_;

 private:
  using Ops = PayloadOps<Payload>;

  Derived& self() { return static_cast<Derived&>(*this); }

  /// Applies the engine personality to a produced value.
  Value ApplyTraits(Value value) {
    if (value.is_scalar) return value;
    if (traits_.force_dense) self().Densify(&value.matrix);
    const MatInfo info = value.Info();
    if (traits_.force_distributed && info.rows * info.cols > 1.0) {
      value.distributed = true;
    }
    return value;
  }

  /// Books `costing` and places the result where the costing says.
  Value Booked(Payload out, const OpCosting& costing) {
    self().Book(costing);
    return Value::FromMatrix(std::move(out), costing.result_distributed);
  }

  Result<Value> Multiply(const Value& a, bool a_transposed, const Value& b,
                         bool b_transposed) {
    OpCosting costing;
    REMAC_ASSIGN_OR_RETURN(
        Payload out,
        self().ComputeMultiply(a, a_transposed, b, b_transposed, &costing));
    return Booked(std::move(out), costing);
  }

  Result<Value> EvalImpl(const PlanNode& node) {
    // Ops with an evaluation of their own; the rest evaluate by family.
    switch (node.op) {
      case PlanOp::kInput:
        return self().Input(node.name);
      case PlanOp::kConst:
        return self().Literal(node.value);
      case PlanOp::kReadData:
        return self().ReadData(node.name);
      case PlanOp::kTranspose: {
        REMAC_ASSIGN_OR_RETURN(const Value child, Eval(*node.children[0]));
        if (child.is_scalar) return child;
        self().CountOp();
        Payload out = self().ComputeTranspose(child.matrix);
        return Booked(std::move(out), CostTranspose(child.Info(), model_));
      }
      case PlanOp::kMatMul: {
        const MultiplyOperands ops = FusedMultiplyOperands(node);
        if (!ops.lhs_transposed && !ops.rhs_transposed) {
          return EvalBinary(node);
        }
        REMAC_ASSIGN_OR_RETURN(const Value a, Eval(*ops.lhs));
        REMAC_ASSIGN_OR_RETURN(const Value b, Eval(*ops.rhs));
        if (a.is_scalar || b.is_scalar) {
          // Degenerate: fall back to materialized-transpose semantics,
          // which evaluates (and books) both subtrees a second time.
          return EvalBinary(node);
        }
        self().CountOp();
        return Multiply(a, ops.lhs_transposed, b, ops.rhs_transposed);
      }
      case PlanOp::kDiag: {
        REMAC_ASSIGN_OR_RETURN(const Value child, Eval(*node.children[0]));
        const Payload m = child.AsMatrix();
        self().CountOp();
        const MatInfo info = Ops::Info(m, false);
        if (info.cols != 1.0 && info.rows != info.cols) {
          return Status::DimensionMismatch("diag of a non-square matrix");
        }
        // Books no simulated cost; the result stays on the driver.
        return Value::FromMatrix(self().ComputeDiag(m), false);
      }
      case PlanOp::kFusedMap:
        return EvalFusedMap(node);
      case PlanOp::kBlockRef:
        return self().BlockRef(static_cast<int>(node.value));
      default:
        break;
    }
    const PlanOpInfo& row = OpInfo(node.op);
    if (row.family == OpFamily::kGenerator) {
      Payload out = self().Generate(node);
      // Only rand() output may outgrow the driver.
      const bool distributed = node.op == PlanOp::kRand &&
                               IsDistributedSize(Ops::Bytes(out), model_);
      return Value::FromMatrix(std::move(out), distributed);
    }
    if (row.family == OpFamily::kComparison ||
        (row.family == OpFamily::kElementwise && row.arity == 2)) {
      return EvalBinary(node);
    }
    // The unary families.
    REMAC_ASSIGN_OR_RETURN(const Value child, Eval(*node.children[0]));
    switch (row.family) {
      case OpFamily::kElementwise: {  // a unary cell-wise map
        if (child.is_scalar) {
          return Value::Scalar(FusedApply(*row.cell, child.scalar, 0.0));
        }
        self().CountOp();
        Payload out = self().ComputeUnary(node.op, child.matrix);
        return Booked(std::move(out), CostScalarOp(child.Info()));
      }
      case OpFamily::kReduction: {
        if (child.is_scalar) {
          return node.op == PlanOp::kNorm
                     ? Value::Scalar(std::fabs(child.scalar))
                     : child;
        }
        const MatInfo info = child.Info();
        double flops = Ops::Nnz(child.matrix);  // one pass over non-zeros
        if (node.op == PlanOp::kTrace) {
          if (info.rows != info.cols) {
            return Status::DimensionMismatch("trace of a non-square matrix");
          }
          flops = info.rows;
        } else if (node.op == PlanOp::kNorm) {
          flops *= 2.0;  // square and add
        }
        self().BookDistributedFlops(flops);
        return Value::Scalar(self().ComputeReduction(node.op, child.matrix));
      }
      case OpFamily::kLineSum: {
        const Payload m = child.AsMatrix();
        self().CountOp();
        Payload out = self().ComputeLineSums(node.op, m);
        self().BookDistributedFlops(Ops::Nnz(m));
        const bool distributed = IsDistributedSize(Ops::Bytes(out), model_);
        return Value::FromMatrix(std::move(out), distributed);
      }
      case OpFamily::kScalarFunction: {
        if (node.op == PlanOp::kNcol || node.op == PlanOp::kNrow) {
          const MatInfo info = Ops::Info(child.AsMatrix(), false);
          return Value::Scalar(node.op == PlanOp::kNcol ? info.cols
                                                        : info.rows);
        }
        REMAC_ASSIGN_OR_RETURN(const double v, child.AsScalar());
        return Value::Scalar(node.op == PlanOp::kSqrt ? std::sqrt(v)
                                                      : std::fabs(v));
      }
      default:
        return Status::Internal("unhandled op in plan evaluation");
    }
  }

  Result<Value> EvalBinary(const PlanNode& node) {
    REMAC_ASSIGN_OR_RETURN(const Value lhs, Eval(*node.children[0]));
    REMAC_ASSIGN_OR_RETURN(const Value rhs, Eval(*node.children[1]));
    const bool l_scalar = lhs.ScalarLike();
    const bool r_scalar = rhs.ScalarLike();
    const bool matmul = node.op == PlanOp::kMatMul;
    // A scalar-shaped operand degrades %*% to a product.
    const PlanOp scalar_op = matmul ? PlanOp::kMul : node.op;
    self().CountOp();
    if (l_scalar && r_scalar) {
      REMAC_ASSIGN_OR_RETURN(const double a, lhs.AsScalar());
      REMAC_ASSIGN_OR_RETURN(const double b, rhs.AsScalar());
      REMAC_ASSIGN_OR_RETURN(const double v,
                             ApplyScalarBinary(scalar_op, a, b));
      return Value::Scalar(v);
    }
    if (IsComparisonOp(node.op)) {
      return Status::InvalidArgument("comparison of non-scalar values");
    }
    if (l_scalar || r_scalar) {
      // Scalar-matrix broadcast: one CostScalarOp over the matrix side.
      const Value& mat = l_scalar ? rhs : lhs;
      REMAC_ASSIGN_OR_RETURN(const double s,
                             (l_scalar ? lhs : rhs).AsScalar());
      REMAC_ASSIGN_OR_RETURN(
          Payload out,
          self().ComputeBroadcast(scalar_op, mat.matrix, s, l_scalar));
      return Booked(std::move(out), CostScalarOp(mat.Info()));
    }
    if (matmul) return Multiply(lhs, false, rhs, false);
    REMAC_ASSIGN_OR_RETURN(
        Payload out,
        self().ComputeElementwise(node.op, lhs.matrix, rhs.matrix));
    const double sp_out = Ops::Info(out, false).sparsity;
    return Booked(std::move(out),
                  CostElementwise(lhs.Info(), rhs.Info(), sp_out, model_));
  }

  Result<Value> EvalFusedMap(const PlanNode& node) {
    if (node.fused == nullptr) {
      return Status::Internal("kFusedMap node without a tape");
    }
    const FusedTape& tape = *node.fused;
    if (node.children.size() != static_cast<size_t>(tape.num_inputs)) {
      return Status::Internal("fused region input arity mismatch");
    }
    const auto scalar_slot = [&](int32_t slot) {
      return slot >= 0 && slot < tape.num_inputs &&
             tape.input_scalar[static_cast<size_t>(slot)] != 0;
    };
    // Region inputs in slot order, scalar slots coerced to scalars.
    // `slots` holds the placement info of every matrix slot and, below,
    // of every step result.
    std::vector<Value> inputs;
    std::vector<MatInfo> slots(static_cast<size_t>(tape.num_inputs) +
                               tape.steps.size());
    for (int32_t i = 0; i < tape.num_inputs; ++i) {
      REMAC_ASSIGN_OR_RETURN(Value v, Eval(*node.children[i]));
      if (scalar_slot(i)) {
        REMAC_ASSIGN_OR_RETURN(const double s, v.AsScalar());
        v = Value::Scalar(s);
      } else if (v.is_scalar) {
        return Status::Internal("scalar value in a matrix slot of " +
                                node.ToString());
      } else {
        slots[static_cast<size_t>(i)] = v.Info();
      }
      inputs.push_back(std::move(v));
    }
    REMAC_ASSIGN_OR_RETURN(auto run,
                           self().StartTape(tape, std::move(inputs)));
    // Every step books what its standalone operator books: unary maps and
    // scalar broadcasts a CostScalarOp over the matrix side, matrix-matrix
    // steps a CostElementwise at the step's result sparsity.
    const double rows = static_cast<double>(tape.rows);
    const double cols = static_cast<double>(tape.cols);
    bool result_distributed = false;
    for (size_t j = 0; j < tape.steps.size(); ++j) {
      const FusedStep& fused = tape.steps[j];
      TapeStep step{j, PlanOpOf(fused.op), fused.lhs, fused.rhs};
      step.broadcast = fused.rhs >= 0 &&
                       (scalar_slot(fused.lhs) || scalar_slot(fused.rhs));
      step.matrix_slot =
          step.broadcast && scalar_slot(fused.lhs) ? fused.rhs : fused.lhs;
      if (scalar_slot(step.matrix_slot)) {
        return Status::Internal("fused step with no matrix operand");
      }
      const double sp = self().TapeStepSparsity(run, tape, step);
      const auto slot = [&](int32_t s) -> const MatInfo& {
        return slots[static_cast<size_t>(s)];
      };
      const OpCosting costing =
          step.rhs < 0 || step.broadcast
              ? CostScalarOp(slot(step.matrix_slot))
              : CostElementwise(slot(step.lhs), slot(step.rhs), sp, model_);
      self().Book(costing);
      self().CountOp();
      // Placed as ApplyTraits places the unfused intermediate.
      result_distributed =
          costing.result_distributed ||
          (traits_.force_distributed && rows * cols > 1.0);
      slots[static_cast<size_t>(tape.num_inputs) + j] =
          MatInfo{rows, cols, sp, result_distributed};
    }
    return Value::FromMatrix(self().FinishTape(std::move(run), tape, slots),
                             result_distributed);
  }
};

}  // namespace remac

#endif  // REMAC_RUNTIME_PLAN_WALK_H_
