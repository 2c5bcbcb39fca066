#include "distributed/distributed_ops.h"

#include <algorithm>

#include "cost/physical_model.h"

namespace remac {

const char* MultiplyMethodName(MultiplyMethod method) {
  switch (method) {
    case MultiplyMethod::kLocalOp:
      return "local";
    case MultiplyMethod::kBmm:
      return "BMM";
    case MultiplyMethod::kCpmm:
      return "CPMM";
  }
  return "?";
}

double MatInfo::Bytes() const { return MatrixBytes(rows, cols, sparsity); }

double OpCosting::Seconds(const ClusterModel& model) const {
  double s = 0.0;
  if (method == MultiplyMethod::kLocalOp && !result_distributed &&
      broadcast_bytes == 0.0 && shuffle_bytes == 0.0) {
    s += flops * model.WLocalFlop();
  } else {
    s += flops * model.WFlop();
  }
  s += broadcast_bytes * model.WPrimitive(TransmissionPrimitive::kBroadcast);
  s += shuffle_bytes * model.WPrimitive(TransmissionPrimitive::kShuffle);
  s += collection_bytes *
       model.WPrimitive(TransmissionPrimitive::kCollection);
  s += dfs_bytes * model.WPrimitive(TransmissionPrimitive::kDfs);
  return s;
}

/// On a single-node model, "distributed" means out-of-core: every pass
/// over such an operand streams it from disk.
void ChargeSingleNodeStreaming(const MatInfo& a, const MatInfo& b,
                               const ClusterModel& model, OpCosting* c) {
  if (model.num_workers != 1) return;
  if (a.distributed) c->dfs_bytes += a.Bytes();
  if (b.distributed) c->dfs_bytes += b.Bytes();
}

LedgerCharge& LedgerCharge::operator+=(const LedgerCharge& other) {
  local_flops += other.local_flops;
  distributed_flops += other.distributed_flops;
  for (size_t i = 0; i < bytes.size(); ++i) bytes[i] += other.bytes[i];
  return *this;
}

LedgerCharge OpCosting::Charge() const {
  LedgerCharge charge;
  if (method == MultiplyMethod::kLocalOp && broadcast_bytes == 0.0 &&
      shuffle_bytes == 0.0 && collection_bytes == 0.0) {
    charge.local_flops = flops;
  } else {
    charge.distributed_flops = flops;
  }
  const auto at = [&](TransmissionPrimitive pr) -> double& {
    return charge.bytes[static_cast<size_t>(pr)];
  };
  at(TransmissionPrimitive::kBroadcast) = broadcast_bytes;
  at(TransmissionPrimitive::kShuffle) = shuffle_bytes;
  at(TransmissionPrimitive::kCollection) = collection_bytes;
  at(TransmissionPrimitive::kDfs) = dfs_bytes;
  return charge;
}

void OpCosting::Book(TransmissionLedger* ledger) const {
  if (ledger == nullptr) return;
  const LedgerCharge charge = Charge();
  ledger->AddLocalFlops(charge.local_flops);
  ledger->AddDistributedFlops(charge.distributed_flops);
  for (size_t i = 0; i < charge.bytes.size(); ++i) {
    ledger->AddTransmission(static_cast<TransmissionPrimitive>(i),
                            charge.bytes[i]);
  }
}

bool IsDistributedSize(double bytes, const ClusterModel& model) {
  return bytes > static_cast<double>(model.driver_memory_bytes) / 4.0;
}

bool IsBroadcastable(double bytes, const ClusterModel& model) {
  return bytes <= static_cast<double>(model.driver_memory_bytes) / 8.0;
}

OpCosting CostMultiply(const MatInfo& a, const MatInfo& b, double sp_out,
                       const ClusterModel& model) {
  OpCosting c;
  c.flops = MultiplyFlops(a.rows, a.cols, b.cols, a.sparsity, b.sparsity);
  const double out_bytes = MatrixBytes(a.rows, b.cols, sp_out);
  c.result_distributed = IsDistributedSize(out_bytes, model);
  ChargeSingleNodeStreaming(a, b, model, &c);

  if (!a.distributed && !b.distributed) {
    c.method = MultiplyMethod::kLocalOp;
    // A local-by-local product whose output must be distributed pays a dfs
    // write; this is rare (it means the inputs barely fit) and we fold it
    // into a shuffle-equivalent charge.
    if (c.result_distributed) c.shuffle_bytes += out_bytes;
    return c;
  }

  const bool a_broadcastable = !a.distributed && IsBroadcastable(a.Bytes(), model);
  const bool b_broadcastable = !b.distributed && IsBroadcastable(b.Bytes(), model);
  if ((a.distributed && b_broadcastable) || (b.distributed && a_broadcastable)) {
    // BMM: broadcast the local side, multiply map-side over the blocks of
    // the distributed side, aggregate partial products by output row.
    c.method = MultiplyMethod::kBmm;
    const MatInfo& dist = a.distributed ? a : b;
    const MatInfo& local = a.distributed ? b : a;
    c.broadcast_bytes = local.Bytes();
    // Paper Equation 6: D_shuffle = size(one block product) * B_U / P_U.
    // With U split into g_r x g_c blocks, partial products of the same
    // output block-row must be aggregated only when the inner dimension is
    // split (g_inner > 1 for U=A; symmetric for U=B).
    const int64_t bs = model.block_size;
    const int64_t g_rows = NumBlocks(static_cast<int64_t>(dist.rows), bs);
    const int64_t g_cols = NumBlocks(static_cast<int64_t>(dist.cols), bs);
    const bool dist_is_left = a.distributed;
    const int64_t g_inner = dist_is_left ? g_cols : g_rows;
    if (g_inner > 1) {
      // One partial product covers a block of the distributed side joined
      // with the whole broadcast side: block_rows x b.cols when U = A,
      // a.rows x block_cols when U = B.
      const double bp_rows = dist_is_left
                                 ? std::min(static_cast<double>(bs), a.rows)
                                 : a.rows;
      const double bp_cols = dist_is_left
                                 ? b.cols
                                 : std::min(static_cast<double>(bs), b.cols);
      const double block_product_bytes = MatrixBytes(bp_rows, bp_cols, sp_out);
      const double num_blocks = static_cast<double>(g_rows * g_cols);
      const double p_u = std::max<double>(
          1.0, static_cast<double>(g_inner) / model.num_workers);
      c.shuffle_bytes += block_product_bytes * num_blocks / p_u;
    }
    if (!c.result_distributed) c.collection_bytes += out_bytes;
    return c;
  }
  // CPMM: shuffle both inputs to join on the inner dimension; partial
  // products (one per inner block split) are shuffled again for
  // aggregation.
  c.method = MultiplyMethod::kCpmm;
  c.shuffle_bytes = a.Bytes() + b.Bytes();
  const int64_t inner_splits = std::max<int64_t>(
      1, NumBlocks(static_cast<int64_t>(a.cols), model.block_size));
  c.shuffle_bytes += out_bytes * static_cast<double>(inner_splits);
  if (!c.result_distributed) c.collection_bytes += out_bytes;
  return c;
}

OpCosting CostElementwise(const MatInfo& a, const MatInfo& b, double sp_out,
                          const ClusterModel& model) {
  OpCosting c;
  c.flops = ElementwiseFlops(a.rows, a.cols,
                             std::max({a.sparsity, b.sparsity, sp_out}));
  ChargeSingleNodeStreaming(a, b, model, &c);
  const double out_bytes = MatrixBytes(a.rows, a.cols, sp_out);
  if (!a.distributed && !b.distributed) {
    c.method = MultiplyMethod::kLocalOp;
    c.result_distributed = false;
    return c;
  }
  c.method = MultiplyMethod::kBmm;  // zip with a broadcast of the local side
  if (!a.distributed) c.broadcast_bytes += a.Bytes();
  if (!b.distributed) c.broadcast_bytes += b.Bytes();
  c.result_distributed = IsDistributedSize(out_bytes, model);
  if (!c.result_distributed) c.collection_bytes += out_bytes;
  return c;
}

OpCosting CostTranspose(const MatInfo& a, const ClusterModel& model) {
  OpCosting c;
  c.flops = a.rows * a.cols * a.sparsity;  // one touch per non-zero
  if (model.num_workers == 1 && a.distributed) c.dfs_bytes += a.Bytes();
  if (!a.distributed) {
    c.method = MultiplyMethod::kLocalOp;
    c.result_distributed = false;
    return c;
  }
  // Distributed transpose re-keys every block: a full shuffle.
  c.method = MultiplyMethod::kCpmm;
  c.shuffle_bytes = a.Bytes();
  c.result_distributed = true;
  return c;
}

OpCosting CostScalarOp(const MatInfo& a) {
  OpCosting c;
  c.flops = a.rows * a.cols * a.sparsity;
  c.method = MultiplyMethod::kLocalOp;
  c.result_distributed = a.distributed;
  if (a.distributed) {
    c.method = MultiplyMethod::kBmm;  // map-side, no data movement
  }
  return c;
}

MatInfo InfoOf(const Matrix& m, bool distributed) {
  MatInfo info;
  info.rows = static_cast<double>(m.rows());
  info.cols = static_cast<double>(m.cols());
  info.sparsity = m.Sparsity();
  info.distributed = distributed;
  return info;
}

}  // namespace remac
