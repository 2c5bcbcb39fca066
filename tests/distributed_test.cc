#include <gtest/gtest.h>

#include "common/rng.h"
#include "cost/physical_model.h"
#include "distributed/blocked_matrix.h"
#include "distributed/distributed_ops.h"
#include "matrix/kernels.h"

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

ClusterModel SmallModel() {
  ClusterModel model;
  model.block_size = 16;
  model.driver_memory_bytes = 1 << 20;  // 1 MB: small things stay local
  return model;
}

TEST(PhysicalModel, MultiplyFlopsFormula) {
  // Paper: FLOP = 3 * R_U * C_U * C_V * S_U * S_V.
  EXPECT_DOUBLE_EQ(MultiplyFlops(10, 20, 30, 0.5, 0.1), 3 * 10 * 20 * 30 * 0.05);
}

TEST(PhysicalModel, MatrixBytesFormatRule) {
  // Dense above 0.4, CSR (alpha * sp + beta) below.
  const double dense = MatrixBytes(100, 100, 0.8);
  EXPECT_DOUBLE_EQ(dense, 100 * 100 * 8.0);
  const double sparse = MatrixBytes(100, 100, 0.01);
  EXPECT_LT(sparse, dense);
  // Linear in sparsity within the CSR regime.
  const double sparse2 = MatrixBytes(100, 100, 0.02);
  const double beta = MatrixBytes(100, 100, 0.0);
  EXPECT_NEAR(sparse2 - beta, 2.0 * (sparse - beta), 1e-9);
}

TEST(PhysicalModel, NumBlocks) {
  EXPECT_EQ(NumBlocks(1000, 1024), 1);
  EXPECT_EQ(NumBlocks(1025, 1024), 2);
  EXPECT_EQ(NumBlocks(0, 1024), 0);
}

TEST(BlockedMatrix, GridShapeAndNnz) {
  const Matrix m = RandomSparse(40, 33, 0.2, 1);
  const BlockedMatrix blocked = BlockedMatrix::Partition(m, SmallModel());
  EXPECT_EQ(blocked.grid_rows(), 3);  // ceil(40/16)
  EXPECT_EQ(blocked.grid_cols(), 3);  // ceil(33/16)
  int64_t total = 0;
  for (int64_t br = 0; br < 3; ++br) {
    for (int64_t bc = 0; bc < 3; ++bc) {
      total += blocked.BlockNnz(br, bc);
    }
  }
  EXPECT_EQ(total, m.nnz());
}

TEST(BlockedMatrix, PerWorkerBytesSumToTotal) {
  const Matrix m = RandomSparse(64, 64, 0.3, 2);
  const BlockedMatrix blocked = BlockedMatrix::Partition(m, SmallModel());
  const HashPartitioner partitioner(6);
  const auto loads = blocked.PerWorkerBytes(partitioner);
  double sum = 0.0;
  for (double l : loads) sum += l;
  EXPECT_NEAR(sum, blocked.TotalBytes(), 1e-6);
}

TEST(DistributedOps, LocalWhenBothLocal) {
  const ClusterModel model = SmallModel();
  MatInfo a{10, 10, 1.0, false};
  MatInfo b{10, 10, 1.0, false};
  const OpCosting c = CostMultiply(a, b, 1.0, model);
  EXPECT_EQ(c.method, MultiplyMethod::kLocalOp);
  EXPECT_EQ(c.broadcast_bytes, 0.0);
  EXPECT_FALSE(c.result_distributed);
}

TEST(DistributedOps, BmmBroadcastsSmallSide) {
  ClusterModel model = SmallModel();
  MatInfo big{100000, 64, 1.0, true};
  MatInfo small{64, 1, 1.0, false};
  const OpCosting c = CostMultiply(big, small, 1.0, model);
  EXPECT_EQ(c.method, MultiplyMethod::kBmm);
  EXPECT_NEAR(c.broadcast_bytes, small.Bytes(), 1.0);
}

TEST(DistributedOps, CpmmWhenBothDistributed) {
  const ClusterModel model = SmallModel();
  MatInfo a{100000, 64, 1.0, true};
  MatInfo b{64, 100000, 1.0, true};
  const OpCosting c = CostMultiply(a, b, 1.0, model);
  EXPECT_EQ(c.method, MultiplyMethod::kCpmm);
  EXPECT_GE(c.shuffle_bytes, a.Bytes() + b.Bytes());
}

TEST(DistributedOps, BmmShuffleGrowsWithInnerSplits) {
  ClusterModel model = SmallModel();
  // Distributed side split along the inner dimension -> aggregation
  // shuffle; unsplit inner dimension -> none (paper Equation 6).
  MatInfo tall{1000, 8, 1.0, true};      // inner fits one block
  MatInfo wide{1000, 64, 1.0, true};     // inner split into 4 blocks
  MatInfo vec8{8, 1, 1.0, false};
  MatInfo vec64{64, 1, 1.0, false};
  const OpCosting unsplit = CostMultiply(tall, vec8, 1.0, model);
  const OpCosting split = CostMultiply(wide, vec64, 1.0, model);
  EXPECT_EQ(unsplit.shuffle_bytes, 0.0);
  EXPECT_GT(split.shuffle_bytes, 0.0);
}

TEST(DistributedOps, SmallResultsCollectToDriver) {
  const ClusterModel model = SmallModel();
  MatInfo a{10000, 64, 1.0, true};  // 80KB result < driver share
  MatInfo b{64, 1, 1.0, false};
  const OpCosting c = CostMultiply(a, b, 1.0, model);
  EXPECT_FALSE(c.result_distributed);
  EXPECT_GT(c.collection_bytes, 0.0);
}

// The executor computes every multiply with MultiplyTransposed and
// prices it with CostMultiply.
TEST(DistributedOps, ExecMultiplyMatchesKernels) {
  const Matrix a = RandomSparse(20, 12, 0.5, 3);
  const Matrix b = RandomSparse(12, 8, 0.5, 4);
  auto out = MultiplyTransposed(a, false, b, false);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->ApproxEquals(Multiply(a, b).value()));
}

TEST(DistributedOps, ExecMultiplyTransposeFusion) {
  const Matrix a = RandomSparse(9, 14, 0.5, 5);
  const Matrix b = RandomSparse(9, 7, 0.5, 6);
  auto fused = MultiplyTransposed(a, /*a_transposed=*/true, b, false);
  ASSERT_TRUE(fused.ok());
  const Matrix reference = Multiply(Transpose(a), b).value();
  EXPECT_TRUE(fused->ApproxEquals(reference));
}

TEST(DistributedOps, ElementwiseCostingBooksBroadcast) {
  const ClusterModel model = SmallModel();
  const Matrix a = RandomSparse(6, 6, 0.8, 7);
  const Matrix b = RandomSparse(6, 6, 0.8, 8);
  const Matrix out = Subtract(a, b).value();
  TransmissionLedger ledger(model);
  CostElementwise(InfoOf(a, true), InfoOf(b, false), out.Sparsity(), model)
      .Book(&ledger);
  // The local operand was broadcast.
  EXPECT_GT(ledger.BytesFor(TransmissionPrimitive::kBroadcast), 0.0);
}

TEST(DistributedOps, TransposeDistributedShuffles) {
  const ClusterModel model = SmallModel();
  MatInfo a{100000, 64, 1.0, true};
  const OpCosting c = CostTranspose(a, model);
  EXPECT_NEAR(c.shuffle_bytes, a.Bytes(), 1.0);
  EXPECT_TRUE(c.result_distributed);
  const OpCosting local = CostTranspose(MatInfo{10, 10, 1.0, false}, model);
  EXPECT_EQ(local.shuffle_bytes, 0.0);
}

TEST(DistributedOps, SecondsMatchModelWeights) {
  ClusterModel model;
  model.shuffle_bytes_per_sec = 1e6;
  model.flops_per_sec = 1e9;
  OpCosting c;
  c.method = MultiplyMethod::kCpmm;
  c.flops = 1e9;
  c.shuffle_bytes = 2e6;
  EXPECT_NEAR(c.Seconds(model), 1.0 + 2.0, 1e-9);
}

}  // namespace
}  // namespace remac
