#ifndef REMAC_CLUSTER_CLUSTER_MODEL_H_
#define REMAC_CLUSTER_CLUSTER_MODEL_H_

#include <cstdint>
#include <string>

namespace remac {

/// Transmission primitives of the cost model (paper Section 4.2):
/// collection (gather to the driver), broadcast (driver to all workers),
/// shuffle (worker-to-worker exchange), and dfs (distributed filesystem IO).
enum class TransmissionPrimitive { kCollection, kBroadcast, kShuffle, kDfs };

inline constexpr int kNumTransmissionPrimitives = 4;

const char* TransmissionPrimitiveName(TransmissionPrimitive pr);

/// \brief Static description of the (simulated) cluster.
///
/// Mirrors the paper's 7-node testbed: one driver plus `num_workers`
/// workers, 1 Gbps Ethernet, block-partitioned matrices. The reciprocals
/// of these rates are the cost-model weights w_flop and w_pr. The same
/// parameters drive both the optimizer's cost model and the runtime's
/// simulated-time accounting, so "estimated" and "measured" times live on
/// one scale.
struct ClusterModel {
  /// Number of workers (the paper uses 6 Spark workers).
  int num_workers = 6;

  /// Aggregate peak floating-point throughput of the cluster (FLOP/s).
  /// w_flop = 1 / flops_per_sec.
  double flops_per_sec = 4.0e10;

  /// Single-node floating-point throughput used when an operator runs
  /// locally on the driver.
  double local_flops_per_sec = 8.0e9;

  /// Effective bandwidth of each transmission primitive (bytes/s).
  /// w_pr = 1 / bandwidth. 1 Gbps Ethernet ~= 1.25e8 B/s.
  double broadcast_bytes_per_sec = 1.25e8;
  double shuffle_bytes_per_sec = 1.25e8;
  double collection_bytes_per_sec = 1.25e8;
  double dfs_bytes_per_sec = 2.5e8;

  /// Driver memory budget: operators whose inputs and output fit run in
  /// local mode with no transmission (SystemDS's dynamic local/distributed
  /// switch, Section 5 / Section 6.4).
  int64_t driver_memory_bytes = 512LL << 20;

  /// Side length of the square blocks matrices are partitioned into
  /// (the paper inherits SystemDS's 1000 x 1000 blocks).
  int64_t block_size = 1024;

  /// Weight accessors (reciprocal rates).
  double WFlop() const { return 1.0 / flops_per_sec; }
  double WLocalFlop() const { return 1.0 / local_flops_per_sec; }
  double WPrimitive(TransmissionPrimitive pr) const;

  /// A small single-node configuration: everything local (used for the
  /// paper's Figure 3(b) single-node comparison).
  static ClusterModel SingleNode();

  std::string ToString() const;
};

}  // namespace remac

#endif  // REMAC_CLUSTER_CLUSTER_MODEL_H_
