#ifndef REMAC_DISTRIBUTED_DISTRIBUTED_OPS_H_
#define REMAC_DISTRIBUTED_DISTRIBUTED_OPS_H_

#include <array>

#include "cluster/cluster_model.h"
#include "cluster/transmission_ledger.h"
#include "matrix/matrix.h"

namespace remac {

/// Physical multiplication operators, following SystemDS (paper Section 2.2):
/// a purely local operator, BMM (broadcast-based: one side is small and is
/// broadcast to the partitions of the other), and CPMM (cross-product
/// shuffle-based: both sides are shuffled on the inner dimension and the
/// partial products are aggregated with a second shuffle).
enum class MultiplyMethod { kLocalOp, kBmm, kCpmm };

const char* MultiplyMethodName(MultiplyMethod method);

/// Logical description of an operand, sufficient for costing: dimensions,
/// sparsity, and whether it lives distributed across workers or locally on
/// the driver. Used with *actual* statistics by the runtime and with
/// *estimated* statistics by the optimizer's cost model, so both sides of
/// the system price an operator identically.
struct MatInfo {
  double rows = 0;
  double cols = 0;
  double sparsity = 1.0;
  bool distributed = false;

  double Bytes() const;
};

/// Work booked into the TransmissionLedger's audited accumulators: FLOPs
/// split by where they run, and bytes per transmission primitive.
struct LedgerCharge {
  double local_flops = 0.0;
  double distributed_flops = 0.0;
  /// Indexed by TransmissionPrimitive.
  std::array<double, kNumTransmissionPrimitives> bytes{};

  double TotalFlops() const { return local_flops + distributed_flops; }
  LedgerCharge& operator+=(const LedgerCharge& other);
};

/// Transmission volumes and FLOPs one operator books, plus where its
/// result lands.
struct OpCosting {
  MultiplyMethod method = MultiplyMethod::kLocalOp;
  double flops = 0.0;
  double broadcast_bytes = 0.0;
  double shuffle_bytes = 0.0;
  double collection_bytes = 0.0;
  /// Filesystem traffic: on a single-node model this carries the
  /// out-of-core streaming cost of operands that do not fit in memory
  /// (the paper's single-node experiments are disk-bound).
  double dfs_bytes = 0.0;
  bool result_distributed = false;

  /// Converts this costing to simulated seconds under `model`.
  double Seconds(const ClusterModel& model) const;

  /// What booking this costing charges. The FLOPs are local only for a
  /// local operator that moves no bytes.
  LedgerCharge Charge() const;

  /// Books Charge() into `ledger` (no-op when null).
  void Book(TransmissionLedger* ledger) const;
};

/// Whether a value of `bytes` must live distributed (exceeds the driver
/// budget share SystemDS would grant a single object).
bool IsDistributedSize(double bytes, const ClusterModel& model);

/// Whether a value of `bytes` is small enough to broadcast to workers.
bool IsBroadcastable(double bytes, const ClusterModel& model);

/// Prices a matrix multiplication a * b with result sparsity `sp_out`,
/// choosing local / BMM / CPMM. The runtime, the cost audit and the
/// optimizer's cost model all price a multiply through this function.
OpCosting CostMultiply(const MatInfo& a, const MatInfo& b, double sp_out,
                       const ClusterModel& model);

/// Prices an element-wise binary operator (add/sub/mul/div).
OpCosting CostElementwise(const MatInfo& a, const MatInfo& b, double sp_out,
                          const ClusterModel& model);

/// Prices a standalone transpose.
OpCosting CostTranspose(const MatInfo& a, const ClusterModel& model);

/// Prices a scalar-matrix operator or an element-wise unary map: one
/// map-side pass over the non-zeros, no data movement.
OpCosting CostScalarOp(const MatInfo& a);

/// Derives the MatInfo of an in-memory matrix (actual statistics).
MatInfo InfoOf(const Matrix& m, bool distributed);

}  // namespace remac

#endif  // REMAC_DISTRIBUTED_DISTRIBUTED_OPS_H_
