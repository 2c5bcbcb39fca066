#include "distributed/distributed_ops.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "cluster/grid2d_partitioner.h"
#include "cost/physical_model.h"
#include "distributed/tiled_matrix2d.h"
#include "matrix/kernels.h"
#include "obs/metrics.h"

namespace remac {

namespace {

/// Registry handles resolved once (the ExecMetrics idiom): touched on
/// every ExecMultiply so the remac.dist2d.* family registers even in runs
/// where no multiply is a 2D candidate.
struct Dist2dMetrics {
  Counter* candidates =
      MetricsRegistry::Global().GetCounter("remac.dist2d.candidates");
  Counter* selected =
      MetricsRegistry::Global().GetCounter("remac.dist2d.selected");
  Counter* empty_tiles_skipped = MetricsRegistry::Global().GetCounter(
      "remac.dist2d.empty_tiles_skipped");
  Gauge* row_broadcast_bytes = MetricsRegistry::Global().GetGauge(
      "remac.dist2d.row_broadcast_bytes");
  Gauge* col_broadcast_bytes = MetricsRegistry::Global().GetGauge(
      "remac.dist2d.col_broadcast_bytes");
  Gauge* reduce_bytes =
      MetricsRegistry::Global().GetGauge("remac.dist2d.reduce_bytes");
  Gauge* bytes_saved =
      MetricsRegistry::Global().GetGauge("remac.dist2d.bytes_saved");
};

Dist2dMetrics& D2Metrics() {
  static Dist2dMetrics metrics;
  return metrics;
}

/// Every byte an operator moves, across all primitives and SUMMA legs.
double TotalMovedBytes(const OpCosting& c) {
  return c.broadcast_bytes + c.shuffle_bytes + c.collection_bytes +
         c.dfs_bytes + c.row_broadcast_bytes + c.col_broadcast_bytes +
         c.reduce_bytes;
}

}  // namespace

const char* MultiplyMethodName(MultiplyMethod method) {
  switch (method) {
    case MultiplyMethod::kLocalOp:
      return "local";
    case MultiplyMethod::kBmm:
      return "BMM";
    case MultiplyMethod::kCpmm:
      return "CPMM";
    case MultiplyMethod::kSumma2D:
      return "SUMMA";
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
  s += (broadcast_bytes + row_broadcast_bytes + col_broadcast_bytes) *
       model.WPrimitive(TransmissionPrimitive::kBroadcast);
  s += (shuffle_bytes + reduce_bytes) *
       model.WPrimitive(TransmissionPrimitive::kShuffle);
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
      shuffle_bytes == 0.0 && collection_bytes == 0.0 &&
      row_broadcast_bytes == 0.0 && col_broadcast_bytes == 0.0 &&
      reduce_bytes == 0.0) {
    charge.local_flops = flops;
  } else {
    charge.distributed_flops = flops;
  }
  const auto at = [&](TransmissionPrimitive pr) -> double& {
    return charge.bytes[static_cast<size_t>(pr)];
  };
  at(TransmissionPrimitive::kBroadcast) =
      broadcast_bytes + row_broadcast_bytes + col_broadcast_bytes;
  at(TransmissionPrimitive::kShuffle) = shuffle_bytes + reduce_bytes;
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
  if (method == MultiplyMethod::kSumma2D) {
    Dist2dMetrics& m = D2Metrics();
    m.row_broadcast_bytes->Add(row_broadcast_bytes);
    m.col_broadcast_bytes->Add(col_broadcast_bytes);
    m.reduce_bytes->Add(reduce_bytes);
    m.empty_tiles_skipped->Add(empty_tiles_skipped);
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

namespace {

/// Probability a tile_rows x tile_cols tile of a uniform-sparsity matrix
/// has at least one non-zero.
double NonEmptyTileProb(double tile_rows, double tile_cols, double sp) {
  const double cells = tile_rows * tile_cols;
  if (cells <= 0.0) return 0.0;
  sp = std::clamp(sp, 0.0, 1.0);
  if (sp <= 0.0) return 0.0;
  if (sp >= 1.0) return 1.0;
  return 1.0 - std::pow(1.0 - sp, cells);
}

/// Expected serialized bytes of one tile under the uniform-sparsity
/// assumption: empty tiles (probability 1 - p) ship nothing, non-empty
/// ones concentrate the conserved nnz at conditional sparsity sp / p.
double ExpectedTileBytes(double tile_rows, double tile_cols, double sp) {
  const double p = NonEmptyTileProb(tile_rows, tile_cols, sp);
  if (p <= 0.0) return 0.0;
  return p * MatrixBytes(tile_rows, tile_cols,
                         std::min(1.0, std::clamp(sp, 0.0, 1.0) / p));
}

/// Expected total tile bytes of a rows x cols matrix on a bs-sized tile
/// grid: closed form over the four tile-size classes (interior, edge row,
/// edge column, corner) instead of a per-tile loop, so the DP's many
/// costing calls stay O(1).
double ExpectedGridBytes(double rows, double cols, double sp, int64_t bs) {
  const int64_t mt = NumBlocks(static_cast<int64_t>(rows), bs);
  const int64_t nt = NumBlocks(static_cast<int64_t>(cols), bs);
  if (mt <= 0 || nt <= 0) return 0.0;
  const double full = static_cast<double>(bs);
  const double edge_rows = rows - static_cast<double>(mt - 1) * full;
  const double edge_cols = cols - static_cast<double>(nt - 1) * full;
  double total = static_cast<double>((mt - 1) * (nt - 1)) *
                 ExpectedTileBytes(full, full, sp);
  total += static_cast<double>(nt - 1) *
           ExpectedTileBytes(edge_rows, full, sp);
  total += static_cast<double>(mt - 1) *
           ExpectedTileBytes(full, edge_cols, sp);
  total += ExpectedTileBytes(edge_rows, edge_cols, sp);
  return total;
}

}  // namespace

OpCosting CostSumma2D(const MatInfo& a, const MatInfo& b, double sp_out,
                      const ClusterModel& model) {
  OpCosting c;
  c.method = MultiplyMethod::kSumma2D;
  c.flops = MultiplyFlops(a.rows, a.cols, b.cols, a.sparsity, b.sparsity);
  const double out_bytes = MatrixBytes(a.rows, b.cols, sp_out);
  c.result_distributed = IsDistributedSize(out_bytes, model);
  ChargeSingleNodeStreaming(a, b, model, &c);
  const Grid2DShape g =
      Grid2DPartitioner::MakeGrid(std::max(1, model.num_workers));
  const int64_t bs = model.block_size;
  // Row broadcast: every expected-non-empty A tile reaches the other
  // pc - 1 worker columns of its worker row; symmetrically for B along
  // worker columns. Empty tiles are skipped, which ExpectedTileBytes
  // already accounts for.
  c.row_broadcast_bytes = ExpectedGridBytes(a.rows, a.cols, a.sparsity, bs) *
                          static_cast<double>(g.cols - 1);
  c.col_broadcast_bytes = ExpectedGridBytes(b.rows, b.cols, b.sparsity, bs) *
                          static_cast<double>(g.rows - 1);
  // Partial-sum merge: each worker column accumulates the inner tile
  // indices it owns locally, then the partials merge to the C tile's
  // owner — one C-tile transfer per contributing worker column beyond the
  // first. Expected contributing columns = min(expected non-empty inner
  // pairs, pc), against CPMM's full inner_splits multiplier.
  const int64_t inner_tiles = std::max<int64_t>(
      1, NumBlocks(static_cast<int64_t>(a.cols), bs));
  const double tile_r = std::min(static_cast<double>(bs), a.rows);
  const double tile_i = std::min(static_cast<double>(bs), a.cols);
  const double tile_c = std::min(static_cast<double>(bs), b.cols);
  const double contributing =
      static_cast<double>(inner_tiles) *
      NonEmptyTileProb(tile_r, tile_i, a.sparsity) *
      NonEmptyTileProb(tile_i, tile_c, b.sparsity);
  const double merge_columns =
      std::min(contributing, static_cast<double>(g.cols));
  c.reduce_bytes = ExpectedGridBytes(a.rows, b.cols, sp_out, bs) *
                   std::max(0.0, merge_columns - 1.0);
  if (!c.result_distributed) c.collection_bytes += out_bytes;
  return c;
}

bool Summa2DCandidate(const OpCosting& one_d, const ClusterModel& model) {
  return one_d.method == MultiplyMethod::kCpmm && model.num_workers > 1 &&
         model.dist2d != Dist2DMode::kOff;
}

OpCosting SelectMultiplyCosting(const MatInfo& a, const MatInfo& b,
                                double sp_out, const ClusterModel& model) {
  OpCosting one_d = CostMultiply(a, b, sp_out, model);
  if (!Summa2DCandidate(one_d, model)) return one_d;
  OpCosting summa = CostSumma2D(a, b, sp_out, model);
  if (model.dist2d == Dist2DMode::kForce2D) return summa;
  return summa.Seconds(model) < one_d.Seconds(model) ? summa : one_d;
}

OpCosting CostSummaTiled(const TiledMatrix2D& a, const TiledMatrix2D& b,
                         const TiledMatrix2D& out,
                         const Grid2DPartitioner& grid,
                         const ClusterModel& model) {
  OpCosting c;
  c.method = MultiplyMethod::kSumma2D;
  const double a_cells = static_cast<double>(a.rows()) * a.cols();
  const double b_cells = static_cast<double>(b.rows()) * b.cols();
  const double out_cells = static_cast<double>(out.rows()) * out.cols();
  const double sp_a =
      a_cells > 0 ? static_cast<double>(a.TotalNnz()) / a_cells : 0.0;
  const double sp_b =
      b_cells > 0 ? static_cast<double>(b.TotalNnz()) / b_cells : 0.0;
  const double sp_out =
      out_cells > 0 ? static_cast<double>(out.TotalNnz()) / out_cells : 0.0;
  // FLOPs and result placement are identical to the 1D methods: the
  // layout changes where bytes move, not what is computed or where the
  // result lands.
  c.flops = MultiplyFlops(static_cast<double>(a.rows()),
                          static_cast<double>(a.cols()),
                          static_cast<double>(b.cols()), sp_a, sp_b);
  const double out_bytes = MatrixBytes(static_cast<double>(out.rows()),
                                       static_cast<double>(out.cols()),
                                       sp_out);
  c.result_distributed = IsDistributedSize(out_bytes, model);
  const int pr = grid.grid_rows();
  const int pc = grid.grid_cols();
  c.row_broadcast_bytes = a.TotalBytes() * static_cast<double>(pc - 1);
  c.col_broadcast_bytes = b.TotalBytes() * static_cast<double>(pr - 1);
  c.empty_tiles_skipped = a.EmptyTiles() + b.EmptyTiles();
  // Partial-sum merge, exact: for each C tile, count the distinct worker
  // columns owning at least one non-empty contributing tile pair
  // A(tr, k) x B(k, tc); each beyond the first ships one C tile to the
  // owner. Annotated-empty C tiles cost zero bytes by TileBytes.
  const int64_t inner =
      std::min(a.grid_cols(), b.grid_rows());  // equal for valid products
  std::vector<char> seen(static_cast<size_t>(pc), 0);
  for (int64_t tr = 0; tr < out.grid_rows(); ++tr) {
    for (int64_t tc = 0; tc < out.grid_cols(); ++tc) {
      std::fill(seen.begin(), seen.end(), 0);
      int distinct = 0;
      for (int64_t k = 0; k < inner; ++k) {
        if (a.TileNnz(tr, k) == 0 || b.TileNnz(k, tc) == 0) continue;
        const int col = grid.WorkerColOf(k);
        if (!seen[static_cast<size_t>(col)]) {
          seen[static_cast<size_t>(col)] = 1;
          ++distinct;
        }
      }
      if (distinct > 1) {
        c.reduce_bytes += out.TileBytes(tr, tc) *
                          static_cast<double>(distinct - 1);
      }
    }
  }
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

/// Shape info of op(m) without materializing the transpose: sparsity is
/// invariant under transposition, so only rows/cols swap. Keeps the cost
/// model's inputs identical to the old materialize-then-cost path.
MatInfo InfoOfTransposed(const Matrix& m, bool transposed, bool distributed) {
  MatInfo info = InfoOf(m, distributed);
  if (transposed) std::swap(info.rows, info.cols);
  return info;
}

Result<DistValue> ExecMultiply(const Matrix& a, bool a_distributed,
                               bool a_transposed, const Matrix& b,
                               bool b_distributed, bool b_transposed,
                               const ClusterModel& model) {
  // Touch the dist2d metric family up front so it registers even when no
  // multiply in the process ever becomes a 2D candidate.
  Dist2dMetrics& metrics = D2Metrics();
  // Fused kernels consume the transpose flags directly — no operand is
  // ever materialized (remac.kernel.fused_transpose counts these).
  REMAC_ASSIGN_OR_RETURN(
      Matrix out, MultiplyTransposed(a, a_transposed, b, b_transposed));
  OpCosting costing =
      CostMultiply(InfoOfTransposed(a, a_transposed, a_distributed),
                   InfoOfTransposed(b, b_transposed, b_distributed),
                   out.Sparsity(), model);
  if (Summa2DCandidate(costing, model)) {
    // Price the 2D layout from exact tile grids (the preprocessing pass):
    // transposed operands are tiled as views, the product is tiled as
    // computed. Unlike the optimizer's uniform-sparsity estimate this
    // sees real skew, so the runtime's layout choice is the measured one.
    metrics.candidates->Add();
    const Grid2DPartitioner grid(model.num_workers);
    const TiledMatrix2D ta = TiledMatrix2D::Partition(a, a_transposed, model);
    const TiledMatrix2D tb = TiledMatrix2D::Partition(b, b_transposed, model);
    const TiledMatrix2D tout =
        TiledMatrix2D::Partition(out, /*transposed=*/false, model);
    const OpCosting summa = CostSummaTiled(ta, tb, tout, grid, model);
    if (model.dist2d == Dist2DMode::kForce2D ||
        summa.Seconds(model) < costing.Seconds(model)) {
      metrics.selected->Add();
      metrics.bytes_saved->Add(TotalMovedBytes(costing) -
                               TotalMovedBytes(summa));
      costing = summa;
    }
  }
  return DistValue{std::move(out), costing};
}

}  // namespace remac
