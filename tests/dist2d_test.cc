#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "cluster/grid2d_partitioner.h"
#include "cluster/transmission_ledger.h"
#include "common/rng.h"
#include "cost/physical_model.h"
#include "distributed/distributed_ops.h"
#include "distributed/tiled_matrix2d.h"
#include "matrix/kernels.h"
#include "matrix/storage_format.h"

namespace remac {
namespace {

Matrix RandomSparse(int64_t rows, int64_t cols, double sp, uint64_t seed) {
  Rng rng(seed);
  DenseMatrix m(rows, cols);
  for (int64_t i = 0; i < m.size(); ++i) {
    if (rng.NextDouble() < sp) m.data()[i] = rng.NextGaussian();
  }
  return Matrix::FromDense(std::move(m));
}

/// n x n matrix whose only non-zeros are dense `bs x bs` blocks on the
/// tile diagonal — every off-diagonal tile is annotated-empty.
Matrix BlockDiagonal(int64_t n, int64_t bs) {
  DenseMatrix m(n, n);
  for (int64_t r = 0; r < n; ++r) {
    const int64_t tile = r / bs;
    for (int64_t c = tile * bs; c < std::min(n, (tile + 1) * bs); ++c) {
      m.data()[r * n + c] = 1.0 + static_cast<double>(r + c) / n;
    }
  }
  return Matrix::FromDense(std::move(m));
}

ClusterModel SmallModel() {
  ClusterModel model;
  model.block_size = 16;
  model.driver_memory_bytes = 1 << 20;
  return model;
}

TEST(TiledMatrix2D, GridShapeAndExactNnz) {
  const Matrix m = RandomSparse(40, 33, 0.2, 1);
  const TiledMatrix2D t =
      TiledMatrix2D::Partition(m, /*transposed=*/false, SmallModel());
  EXPECT_EQ(t.grid_rows(), 3);  // ceil(40/16)
  EXPECT_EQ(t.grid_cols(), 3);  // ceil(33/16)
  EXPECT_EQ(t.rows(), 40);
  EXPECT_EQ(t.cols(), 33);
  int64_t total = 0;
  for (int64_t tr = 0; tr < t.grid_rows(); ++tr) {
    for (int64_t tc = 0; tc < t.grid_cols(); ++tc) {
      total += t.TileNnz(tr, tc);
    }
  }
  EXPECT_EQ(total, m.nnz());
  EXPECT_EQ(t.TotalNnz(), m.nnz());
}

TEST(TiledMatrix2D, AnnotationsFollowSharedThreshold) {
  const ClusterModel model = SmallModel();
  const Matrix diag = BlockDiagonal(64, 16);
  const TiledMatrix2D t = TiledMatrix2D::Partition(diag, false, model);
  ASSERT_EQ(t.grid_rows(), 4);
  ASSERT_EQ(t.grid_cols(), 4);
  for (int64_t tr = 0; tr < 4; ++tr) {
    for (int64_t tc = 0; tc < 4; ++tc) {
      if (tr == tc) {
        EXPECT_EQ(t.TileAnnotation(tr, tc), TileFormat::kDense);
        EXPECT_GT(t.TileBytes(tr, tc), 0.0);
      } else {
        EXPECT_EQ(t.TileAnnotation(tr, tc), TileFormat::kEmpty);
        // Annotated-empty tiles are never shipped: exactly zero bytes.
        EXPECT_EQ(t.TileBytes(tr, tc), 0.0);
      }
    }
  }
  EXPECT_EQ(t.EmptyTiles(), 12);

  // A tile below the dense threshold is annotated CSR and priced below
  // its dense serialization.
  const Matrix sparse = RandomSparse(16, 16, 0.1, 7);
  const TiledMatrix2D ts = TiledMatrix2D::Partition(sparse, false, model);
  ASSERT_GT(sparse.nnz(), 0);
  ASSERT_LT(sparse.Sparsity(), kDenseFormatThreshold);
  EXPECT_EQ(ts.TileAnnotation(0, 0), TileFormat::kCsr);
  EXPECT_LT(ts.TileBytes(0, 0), 16 * 16 * 8.0);
}

TEST(TiledMatrix2D, TransposedViewMatchesMaterializedTranspose) {
  const ClusterModel model = SmallModel();
  const Matrix m = RandomSparse(40, 23, 0.15, 3);
  const TiledMatrix2D view = TiledMatrix2D::Partition(m, true, model);
  const TiledMatrix2D real =
      TiledMatrix2D::Partition(Transpose(m), false, model);
  ASSERT_EQ(view.grid_rows(), real.grid_rows());
  ASSERT_EQ(view.grid_cols(), real.grid_cols());
  EXPECT_EQ(view.rows(), 23);
  EXPECT_EQ(view.cols(), 40);
  for (int64_t tr = 0; tr < view.grid_rows(); ++tr) {
    for (int64_t tc = 0; tc < view.grid_cols(); ++tc) {
      EXPECT_EQ(view.TileNnz(tr, tc), real.TileNnz(tr, tc));
    }
  }
  EXPECT_DOUBLE_EQ(view.TotalBytes(), real.TotalBytes());
}

TEST(TiledMatrix2D, PerWorkerBytesSumToTotal) {
  const Matrix m = RandomSparse(64, 64, 0.3, 2);
  const TiledMatrix2D t = TiledMatrix2D::Partition(m, false, SmallModel());
  const Grid2DPartitioner grid(6);
  const auto loads = t.PerWorkerBytes(grid);
  ASSERT_EQ(loads.size(), 6u);
  double sum = 0.0;
  for (double l : loads) sum += l;
  EXPECT_NEAR(sum, t.TotalBytes(), 1e-6);
}

/// Tile nnz of op(m) counted one stored cell at a time.
std::vector<int64_t> BruteForceTileNnz(const Matrix& m, bool transposed,
                                       int64_t ts) {
  const int64_t rows = transposed ? m.cols() : m.rows();
  const int64_t cols = transposed ? m.rows() : m.cols();
  const int64_t grid_rows = (rows + ts - 1) / ts;
  const int64_t grid_cols = (cols + ts - 1) / ts;
  std::vector<int64_t> nnz(static_cast<size_t>(grid_rows * grid_cols));
  const DenseMatrix d = m.ToDense();
  for (int64_t r = 0; r < m.rows(); ++r) {
    for (int64_t c = 0; c < m.cols(); ++c) {
      if (d.At(r, c) == 0.0) continue;  // -0.0 too; NaN counts
      const int64_t tr = (transposed ? c : r) / ts;
      const int64_t tc = (transposed ? r : c) / ts;
      ++nnz[static_cast<size_t>(tr * grid_cols + tc)];
    }
  }
  return nnz;
}

// Ragged edges in both dimensions, dense and CSR storage, both
// orientations; -0.0 cells are zeros and NaN cells are non-zeros.
TEST(TiledMatrix2D, PartitionMatchesBruteForceCount) {
  const ClusterModel model = SmallModel();  // 16 x 16 tiles
  DenseMatrix d = RandomSparse(75, 41, 0.3, 11).ToDense();
  d.At(0, 0) = -0.0;
  d.At(17, 40) = -0.0;
  d.At(3, 5) = std::numeric_limits<double>::quiet_NaN();
  d.At(74, 33) = std::numeric_limits<double>::quiet_NaN();
  d.At(74, 40) = -std::numeric_limits<double>::quiet_NaN();
  const Matrix dense = Matrix::WrapDense(d);
  const Matrix csr = Matrix::WrapCsr(dense.ToCsr());
  for (const Matrix* m : {&dense, &csr}) {
    for (const bool transposed : {false, true}) {
      const TiledMatrix2D t = TiledMatrix2D::Partition(*m, transposed, model);
      const auto want = BruteForceTileNnz(*m, transposed, 16);
      ASSERT_EQ(static_cast<size_t>(t.num_tiles()), want.size());
      for (int64_t tr = 0; tr < t.grid_rows(); ++tr) {
        for (int64_t tc = 0; tc < t.grid_cols(); ++tc) {
          EXPECT_EQ(t.TileNnz(tr, tc),
                    want[static_cast<size_t>(tr * t.grid_cols() + tc)])
              << (m->is_dense() ? "dense" : "csr")
              << (transposed ? " transposed" : "") << " tile " << tr << ","
              << tc;
        }
      }
    }
  }
}

TEST(Dist2D, CandidateRequiresCpmmWorkersAndMode) {
  ClusterModel model = SmallModel();
  MatInfo a{100000, 64, 1.0, true};
  MatInfo b{64, 100000, 1.0, true};
  const OpCosting cpmm = CostMultiply(a, b, 1.0, model);
  ASSERT_EQ(cpmm.method, MultiplyMethod::kCpmm);
  EXPECT_TRUE(Summa2DCandidate(cpmm, model));

  model.dist2d = Dist2DMode::kOff;
  EXPECT_FALSE(Summa2DCandidate(cpmm, model));
  model.dist2d = Dist2DMode::kAuto;
  model.num_workers = 1;
  EXPECT_FALSE(Summa2DCandidate(cpmm, model));

  // A local multiply is never a 2D candidate.
  const ClusterModel small = SmallModel();
  MatInfo la{10, 10, 1.0, false};
  const OpCosting local = CostMultiply(la, la, 1.0, small);
  ASSERT_EQ(local.method, MultiplyMethod::kLocalOp);
  EXPECT_FALSE(Summa2DCandidate(local, small));
}

TEST(Dist2D, EstimatedSummaPreservesFlopsAndPlacement) {
  const ClusterModel model = SmallModel();
  MatInfo a{100000, 64, 0.05, true};
  MatInfo b{64, 100000, 0.05, true};
  const OpCosting one_d = CostMultiply(a, b, 0.1, model);
  const OpCosting summa = CostSumma2D(a, b, 0.1, model);
  EXPECT_EQ(summa.method, MultiplyMethod::kSumma2D);
  // SUMMA changes only where bytes move, never the work or the result
  // placement — the bitwise-identity guarantee at the costing level.
  EXPECT_DOUBLE_EQ(summa.flops, one_d.flops);
  EXPECT_EQ(summa.result_distributed, one_d.result_distributed);
  EXPECT_GT(summa.row_broadcast_bytes, 0.0);
  EXPECT_GT(summa.col_broadcast_bytes, 0.0);
  EXPECT_EQ(summa.shuffle_bytes, 0.0);
  EXPECT_EQ(summa.broadcast_bytes, 0.0);
}

TEST(Dist2D, SelectRespectsModeKnob) {
  ClusterModel model = SmallModel();
  MatInfo a{100000, 64, 1.0, true};
  MatInfo b{64, 100000, 1.0, true};

  model.dist2d = Dist2DMode::kOff;
  EXPECT_EQ(SelectMultiplyCosting(a, b, 1.0, model).method,
            MultiplyMethod::kCpmm);

  model.dist2d = Dist2DMode::kForce2D;
  EXPECT_EQ(SelectMultiplyCosting(a, b, 1.0, model).method,
            MultiplyMethod::kSumma2D);

  model.dist2d = Dist2DMode::kAuto;
  const OpCosting chosen = SelectMultiplyCosting(a, b, 1.0, model);
  const double one_d_s = CostMultiply(a, b, 1.0, model).Seconds(model);
  const double summa_s = CostSumma2D(a, b, 1.0, model).Seconds(model);
  EXPECT_EQ(chosen.method, summa_s < one_d_s ? MultiplyMethod::kSumma2D
                                             : MultiplyMethod::kCpmm);
  EXPECT_LE(chosen.Seconds(model), std::min(one_d_s, summa_s) + 1e-12);
}

TEST(Dist2D, TiledCostSkipsEmptyTiles) {
  const ClusterModel model = SmallModel();  // 6 workers -> 2 x 3 grid
  const Grid2DPartitioner grid(model.num_workers);
  const Matrix a = BlockDiagonal(64, 16);
  const Matrix b = BlockDiagonal(64, 16);
  auto product = Multiply(a, b);
  ASSERT_TRUE(product.ok());
  const TiledMatrix2D ta = TiledMatrix2D::Partition(a, false, model);
  const TiledMatrix2D tb = TiledMatrix2D::Partition(b, false, model);
  const TiledMatrix2D tout =
      TiledMatrix2D::Partition(product.value(), false, model);
  const OpCosting c = CostSummaTiled(ta, tb, tout, grid, model);
  EXPECT_EQ(c.method, MultiplyMethod::kSumma2D);
  // 12 empty tiles on each operand are excluded from every leg.
  EXPECT_EQ(c.empty_tiles_skipped, 24);
  EXPECT_DOUBLE_EQ(c.row_broadcast_bytes,
                   ta.TotalBytes() * (grid.grid_cols() - 1));
  EXPECT_DOUBLE_EQ(c.col_broadcast_bytes,
                   tb.TotalBytes() * (grid.grid_rows() - 1));
  // Block-diagonal times block-diagonal: every C tile has exactly one
  // contributing inner index, so no cross-column partial-sum merge.
  EXPECT_DOUBLE_EQ(c.reduce_bytes, 0.0);
}

TEST(Dist2D, ExecBitwiseIdenticalAndCheaperOnBlockSparse) {
  ClusterModel off = SmallModel();
  off.dist2d = Dist2DMode::kOff;
  ClusterModel auto_mode = SmallModel();
  auto_mode.dist2d = Dist2DMode::kAuto;

  const Matrix a = BlockDiagonal(96, 16);
  const Matrix b = BlockDiagonal(96, 16);

  TransmissionLedger ledger_off(off);
  auto r_off = ExecMultiply(a, true, false, b, true, false, off);
  ASSERT_TRUE(r_off.ok());
  r_off->costing.Book(&ledger_off);

  TransmissionLedger ledger_auto(auto_mode);
  auto r_auto = ExecMultiply(a, true, false, b, true, false, auto_mode);
  ASSERT_TRUE(r_auto.ok());
  r_auto->costing.Book(&ledger_auto);

  // The 2D path books different traffic but computes the same product —
  // exact element equality, no tolerance.
  const Matrix& m_off = r_off->value;
  const Matrix& m_auto = r_auto->value;
  ASSERT_EQ(m_off.rows(), m_auto.rows());
  ASSERT_EQ(m_off.cols(), m_auto.cols());
  for (int64_t r = 0; r < m_off.rows(); ++r) {
    for (int64_t c = 0; c < m_off.cols(); ++c) {
      ASSERT_EQ(m_off.At(r, c), m_auto.At(r, c));
    }
  }
  EXPECT_EQ(r_off->costing.result_distributed,
            r_auto->costing.result_distributed);

  // On this block-sparse input the annotated tile grid moves strictly
  // fewer bytes than CPMM's inner-split shuffle.
  EXPECT_LT(ledger_auto.TotalBytes(), ledger_off.TotalBytes());
  EXPECT_DOUBLE_EQ(ledger_auto.TotalFlops(), ledger_off.TotalFlops());
}

TEST(Dist2D, ExecIdenticalOnDenseRandomEitherWay) {
  // Dense skew-free operands: whatever layout wins, results must agree
  // exactly and flops must not depend on the layout.
  ClusterModel off = SmallModel();
  off.dist2d = Dist2DMode::kOff;
  ClusterModel auto_mode = SmallModel();
  auto_mode.dist2d = Dist2DMode::kAuto;
  const Matrix a = RandomSparse(32, 48, 0.9, 11);
  const Matrix b = RandomSparse(32, 48, 0.9, 12);
  TransmissionLedger l1(off), l2(auto_mode);
  auto r1 = ExecMultiply(a, true, true, b, true, false, off);
  auto r2 = ExecMultiply(a, true, true, b, true, false, auto_mode);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  r1->costing.Book(&l1);
  r2->costing.Book(&l2);
  ASSERT_EQ(r1->value.rows(), r2->value.rows());
  for (int64_t r = 0; r < r1->value.rows(); ++r) {
    for (int64_t c = 0; c < r1->value.cols(); ++c) {
      ASSERT_EQ(r1->value.At(r, c), r2->value.At(r, c));
    }
  }
  EXPECT_DOUBLE_EQ(l1.TotalFlops(), l2.TotalFlops());
}

}  // namespace
}  // namespace remac
