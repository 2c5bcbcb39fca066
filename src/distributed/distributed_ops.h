#ifndef REMAC_DISTRIBUTED_DISTRIBUTED_OPS_H_
#define REMAC_DISTRIBUTED_DISTRIBUTED_OPS_H_

#include <array>

#include "cluster/cluster_model.h"
#include "cluster/transmission_ledger.h"
#include "common/status.h"
#include "matrix/matrix.h"

namespace remac {

/// Physical multiplication operators, following SystemDS (paper Section 2.2):
/// a purely local operator, BMM (broadcast-based: one side is small and is
/// broadcast to the partitions of the other), and CPMM (cross-product
/// shuffle-based: both sides are shuffled on the inner dimension and the
/// partial products are aggregated with a second shuffle). kSumma2D is the
/// 2D tiled layout's primitive: A tiles broadcast along worker rows, B
/// tiles along worker columns, partial sums merged to the C tile owner —
/// annotated-empty tiles skip every leg.
enum class MultiplyMethod { kLocalOp, kBmm, kCpmm, kSumma2D };

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
  /// SUMMA legs (kSumma2D only; zero for the 1D methods). Row/col
  /// broadcasts ride the broadcast primitive, the partial-sum merge the
  /// shuffle primitive, so the ledger's per-primitive split distinguishes
  /// the layouts.
  double row_broadcast_bytes = 0.0;
  double col_broadcast_bytes = 0.0;
  double reduce_bytes = 0.0;
  /// Tiles the SUMMA preprocessing pass annotated empty and therefore
  /// excluded from every communication leg (reporting only).
  int64_t empty_tiles_skipped = 0;
  bool result_distributed = false;

  /// Converts this costing to simulated seconds under `model`.
  double Seconds(const ClusterModel& model) const;

  /// What booking this costing charges. The FLOPs are local only for a
  /// local operator that moves no bytes; the SUMMA legs ride the
  /// broadcast (row/column) and shuffle (merge) primitives.
  LedgerCharge Charge() const;

  /// Books Charge() into `ledger` (no-op when null).
  void Book(TransmissionLedger* ledger) const;
};

/// Whether a value of `bytes` must live distributed (exceeds the driver
/// budget share SystemDS would grant a single object).
bool IsDistributedSize(double bytes, const ClusterModel& model);

/// Whether a value of `bytes` is small enough to broadcast to workers.
bool IsBroadcastable(double bytes, const ClusterModel& model);

/// Prices a matrix multiplication a * b with result sparsity `sp_out`.
/// Chooses local / BMM / CPMM exactly as the runtime does — the 1D
/// chooser; never returns kSumma2D (see SelectMultiplyCosting).
OpCosting CostMultiply(const MatInfo& a, const MatInfo& b, double sp_out,
                       const ClusterModel& model);

/// Prices a * b on the 2D tiled layout (SUMMA over the pr x pc worker
/// grid) from estimated statistics: per-tile bytes and empty-tile
/// probabilities are derived from the uniform-sparsity assumption, the
/// exact counterpart of which the runtime computes from the real tile
/// grids. Only meaningful when both operands are distributed.
OpCosting CostSumma2D(const MatInfo& a, const MatInfo& b, double sp_out,
                      const ClusterModel& model);

/// True when a multiply priced as `one_d` is eligible for the 2D layout
/// under `model`: the 1D chooser picked CPMM (both sides distributed),
/// there is more than one worker, and dist2d is not kOff.
bool Summa2DCandidate(const OpCosting& one_d, const ClusterModel& model);

/// The layout-aware multiply chooser: prices the 1D methods via
/// CostMultiply, and when the operator is a 2D candidate also prices
/// SUMMA, returning whichever costing is cheaper in simulated seconds
/// (kForce2D always takes SUMMA). The optimizer's cost model and the cost
/// audit select through this function; ExecMultiply makes the same
/// choice with SUMMA priced on exact tiles.
OpCosting SelectMultiplyCosting(const MatInfo& a, const MatInfo& b,
                                double sp_out, const ClusterModel& model);

/// Prices an element-wise binary operator (add/sub/mul/div).
OpCosting CostElementwise(const MatInfo& a, const MatInfo& b, double sp_out,
                          const ClusterModel& model);

/// Prices a standalone transpose.
OpCosting CostTranspose(const MatInfo& a, const ClusterModel& model);

/// Prices a scalar-matrix operator or an element-wise unary map: one
/// map-side pass over the non-zeros, no data movement.
OpCosting CostScalarOp(const MatInfo& a);

class TiledMatrix2D;
class Grid2DPartitioner;

/// Prices a * b on the 2D layout from *exact* tile grids (the runtime
/// path): every leg sums real per-tile bytes, annotated-empty tiles
/// contribute zero, and the partial-sum merge counts the distinct worker
/// columns actually holding non-empty contributing tile pairs per C tile.
/// `out` is the tiled view of the already-computed product.
OpCosting CostSummaTiled(const TiledMatrix2D& a, const TiledMatrix2D& b,
                         const TiledMatrix2D& out,
                         const Grid2DPartitioner& grid,
                         const ClusterModel& model);

/// Derives the MatInfo of an in-memory matrix (actual statistics).
MatInfo InfoOf(const Matrix& m, bool distributed);

/// A computed operator result and the costing it books.
struct DistValue {
  Matrix value;
  OpCosting costing;
};

/// Computes op(a) * op(b), where op transposes when the flag is set
/// (SystemDS's fused transpose-multiply: t(A) %*% v never materializes a
/// distributed transpose), and prices it with the runtime's layout
/// choice: the 1D chooser, and for a 2D candidate SUMMA over the exact
/// tile grids. The caller books `costing`.
Result<DistValue> ExecMultiply(const Matrix& a, bool a_distributed,
                               bool a_transposed, const Matrix& b,
                               bool b_distributed, bool b_transposed,
                               const ClusterModel& model);

}  // namespace remac

#endif  // REMAC_DISTRIBUTED_DISTRIBUTED_OPS_H_
