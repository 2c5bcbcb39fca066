#ifndef REMAC_CLUSTER_TRANSMISSION_LEDGER_H_
#define REMAC_CLUSTER_TRANSMISSION_LEDGER_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

#include "cluster/cluster_model.h"

namespace remac {

/// \brief Breakdown of a run's simulated time, mirroring Figure 12.
///
/// Every component is simulated cluster time. Real compile wall time is
/// a different quantity and lives apart, in RunReport::compile_wall_seconds.
struct TimeBreakdown {
  double input_partition_seconds = 0.0;
  double computation_seconds = 0.0;
  double transmission_seconds = 0.0;
  /// Time lost to fault recovery: retry backoff, crash rescheduling and
  /// straggler delay (chaos runs only; zero on fault-free runs).
  double recovery_seconds = 0.0;

  double TotalSeconds() const {
    return input_partition_seconds + computation_seconds +
           transmission_seconds + recovery_seconds;
  }

  TimeBreakdown& operator+=(const TimeBreakdown& other);
  std::string ToString() const;
};

/// \brief Accounts all simulated work performed during execution.
///
/// The runtime executes operators for real (numerics are exact) and books
/// the FLOPs and bytes each operator *would* cost on the modeled cluster
/// here; the ledger converts them into simulated seconds using the
/// ClusterModel weights. This is the substitution for the paper's 7-node
/// Spark testbed (see DESIGN.md Section 2).
///
/// Booking is thread-safe: every accumulator is an atomic double updated
/// with a CAS add, so the task-graph executor's concurrent tasks can
/// book into one ledger directly (they normally book into private
/// per-task ledgers folded in via MergeFrom, which keeps per-task costs
/// attributable for the makespan accounting).
class TransmissionLedger {
 public:
  explicit TransmissionLedger(ClusterModel model) : model_(model) {}

  TransmissionLedger(const TransmissionLedger&) = delete;
  TransmissionLedger& operator=(const TransmissionLedger&) = delete;

  const ClusterModel& model() const { return model_; }

  /// Books FLOPs executed by the distributed engine.
  void AddDistributedFlops(double flops);
  /// Books FLOPs executed locally on the driver.
  void AddLocalFlops(double flops);
  /// Books bytes moved by a transmission primitive.
  void AddTransmission(TransmissionPrimitive pr, double bytes);
  /// Books bytes written/read while partitioning input data into the
  /// cluster (Figure 12's "input partition" bar).
  void AddInputPartition(double bytes);
  /// Books simulated fault-recovery time (retry backoff, crash
  /// rescheduling, straggler delay).
  void AddRecoverySeconds(double seconds);
  /// Records work lost to a failed attempt. The attempt's FLOPs/bytes are
  /// double-booked into the main accumulators via MergeFrom (a re-run
  /// costs the cluster twice, the way Spark re-executes lineage); this
  /// tracks the lost share so reports can attribute it.
  void AddWasted(double flops, double bytes);

  /// Adds every accumulator of `other` into this ledger (used to fold
  /// per-task ledgers into the run's main ledger).
  void MergeFrom(const TransmissionLedger& other);

  double TotalFlops() const {
    return distributed_flops_.load(std::memory_order_relaxed) +
           local_flops_.load(std::memory_order_relaxed);
  }
  double BytesFor(TransmissionPrimitive pr) const {
    return bytes_[static_cast<size_t>(pr)].load(std::memory_order_relaxed);
  }
  /// Total bytes across all transmission primitives.
  double TotalBytes() const;

  double WastedFlops() const {
    return wasted_flops_.load(std::memory_order_relaxed);
  }
  double WastedBytes() const {
    return wasted_bytes_.load(std::memory_order_relaxed);
  }
  double RecoverySeconds() const {
    return recovery_seconds_.load(std::memory_order_relaxed);
  }

  /// The simulated time breakdown accumulated so far.
  TimeBreakdown Breakdown() const;

  /// Total simulated seconds (sum of the breakdown).
  double TotalSeconds() const { return Breakdown().TotalSeconds(); }

  void Reset();

 private:
  ClusterModel model_;
  std::atomic<double> distributed_flops_{0.0};
  std::atomic<double> local_flops_{0.0};
  std::array<std::atomic<double>, kNumTransmissionPrimitives> bytes_{};
  std::atomic<double> input_partition_bytes_{0.0};
  std::atomic<double> recovery_seconds_{0.0};
  std::atomic<double> wasted_flops_{0.0};
  std::atomic<double> wasted_bytes_{0.0};
};

}  // namespace remac

#endif  // REMAC_CLUSTER_TRANSMISSION_LEDGER_H_
