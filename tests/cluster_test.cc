#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "cluster/cluster_model.h"
#include "cluster/partitioner.h"
#include "cluster/transmission_ledger.h"

namespace remac {
namespace {

TEST(ClusterModel, WeightsAreReciprocals) {
  ClusterModel m;
  EXPECT_DOUBLE_EQ(m.WFlop(), 1.0 / m.flops_per_sec);
  EXPECT_DOUBLE_EQ(m.WPrimitive(TransmissionPrimitive::kBroadcast),
                   1.0 / m.broadcast_bytes_per_sec);
  EXPECT_DOUBLE_EQ(m.WPrimitive(TransmissionPrimitive::kShuffle),
                   1.0 / m.shuffle_bytes_per_sec);
  EXPECT_DOUBLE_EQ(m.WPrimitive(TransmissionPrimitive::kCollection),
                   1.0 / m.collection_bytes_per_sec);
  EXPECT_DOUBLE_EQ(m.WPrimitive(TransmissionPrimitive::kDfs),
                   1.0 / m.dfs_bytes_per_sec);
}

TEST(ClusterModel, SingleNodeHasNoNetworkCost) {
  const ClusterModel m = ClusterModel::SingleNode();
  EXPECT_EQ(m.num_workers, 1);
  EXPECT_LT(m.WPrimitive(TransmissionPrimitive::kShuffle), 1e-15);
}

TEST(Ledger, ConvertsWorkToSeconds) {
  ClusterModel model;
  model.flops_per_sec = 1e9;
  model.local_flops_per_sec = 1e8;
  model.shuffle_bytes_per_sec = 1e6;
  TransmissionLedger ledger(model);
  ledger.AddDistributedFlops(2e9);       // 2 s
  ledger.AddLocalFlops(1e8);             // 1 s
  ledger.AddTransmission(TransmissionPrimitive::kShuffle, 3e6);  // 3 s
  const TimeBreakdown b = ledger.Breakdown();
  EXPECT_NEAR(b.computation_seconds, 3.0, 1e-9);
  EXPECT_NEAR(b.transmission_seconds, 3.0, 1e-9);
  EXPECT_NEAR(b.TotalSeconds(), 6.0, 1e-9);
}

TEST(Ledger, InputPartitionUsesDfsRate) {
  ClusterModel model;
  model.dfs_bytes_per_sec = 1e6;
  TransmissionLedger ledger(model);
  ledger.AddInputPartition(5e6);
  EXPECT_NEAR(ledger.Breakdown().input_partition_seconds, 5.0, 1e-9);
}

TEST(Ledger, ResetClearsEverything) {
  TransmissionLedger ledger{ClusterModel()};
  ledger.AddDistributedFlops(1e12);
  ledger.AddTransmission(TransmissionPrimitive::kBroadcast, 1e9);
  ledger.Reset();
  EXPECT_DOUBLE_EQ(ledger.TotalSeconds(), 0.0);
  EXPECT_DOUBLE_EQ(ledger.TotalFlops(), 0.0);
}

TEST(Breakdown, Accumulates) {
  TimeBreakdown a;
  a.computation_seconds = 1.0;
  TimeBreakdown b;
  b.transmission_seconds = 2.0;
  a += b;
  EXPECT_DOUBLE_EQ(a.TotalSeconds(), 3.0);
}

TEST(Partitioner, Deterministic) {
  const HashPartitioner p(6);
  EXPECT_EQ(p.WorkerOf(3, 4), p.WorkerOf(3, 4));
  EXPECT_GE(p.WorkerOf(100, 200), 0);
  EXPECT_LT(p.WorkerOf(100, 200), 6);
}

TEST(Partitioner, SpreadsUniformGridEvenly) {
  const int workers = 6;
  const HashPartitioner p(workers);
  std::vector<double> weights(60 * 60, 1.0);
  const auto loads = p.WorkerLoads(weights, 60);
  const double total = std::accumulate(loads.begin(), loads.end(), 0.0);
  EXPECT_DOUBLE_EQ(total, 3600.0);
  for (double l : loads) {
    EXPECT_NEAR(l / total, 1.0 / workers, 0.03);
  }
}

TEST(Partitioner, MixesRowsAndColumns) {
  // Blocks of one row must not all land on the same worker.
  const HashPartitioner p(4);
  std::vector<int> seen(4, 0);
  for (int64_t c = 0; c < 64; ++c) ++seen[p.WorkerOf(0, c)];
  for (int count : seen) EXPECT_GT(count, 0);
}

TEST(Partitioner, WorkerLoadsSkewedWeights) {
  // One heavy block per grid row (a skewed column), the rest light: the
  // hash mixing must still spread the heavy blocks over several workers
  // instead of stacking them on one.
  const int workers = 6;
  const HashPartitioner p(workers);
  const int64_t grid = 36;
  std::vector<double> weights(grid * grid, 1.0);
  for (int64_t r = 0; r < grid; ++r) weights[r * grid] = 1000.0;
  const auto loads = p.WorkerLoads(weights, grid);
  ASSERT_EQ(loads.size(), static_cast<size_t>(workers));
  const double total = std::accumulate(loads.begin(), loads.end(), 0.0);
  EXPECT_DOUBLE_EQ(total, 36.0 * 1000.0 + (grid * grid - 36.0));
  const double max_load = *std::max_element(loads.begin(), loads.end());
  // No worker may own more than half of the heavy column.
  EXPECT_LT(max_load, 0.5 * total);
}

TEST(Partitioner, WorkerLoadsSingleWorkerTakesEverything) {
  const HashPartitioner p(1);
  const std::vector<double> weights{1.0, 2.0, 3.0, 4.0};
  const auto loads = p.WorkerLoads(weights, 2);
  ASSERT_EQ(loads.size(), 1u);
  EXPECT_DOUBLE_EQ(loads[0], 10.0);
}

TEST(Partitioner, WorkerLoadsEmptyGrid) {
  const HashPartitioner p(4);
  const auto loads = p.WorkerLoads({}, 8);
  ASSERT_EQ(loads.size(), 4u);
  for (double l : loads) EXPECT_DOUBLE_EQ(l, 0.0);
}

TEST(Partitioner, WorkerLoadsOneByNGrid) {
  // A 1 x N grid (one block row): every block must still be accounted
  // for and the totals preserved.
  const HashPartitioner p(3);
  std::vector<double> weights(64, 2.0);
  const auto loads = p.WorkerLoads(weights, 64);
  const double total = std::accumulate(loads.begin(), loads.end(), 0.0);
  EXPECT_DOUBLE_EQ(total, 128.0);
}

}  // namespace
}  // namespace remac
