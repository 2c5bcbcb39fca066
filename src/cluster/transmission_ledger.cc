#include "cluster/transmission_ledger.h"

#include "common/string_util.h"

namespace remac {

namespace {

/// Relaxed CAS add; the ledger only needs atomicity of each increment,
/// totals are read after execution quiesces.
void AtomicAdd(std::atomic<double>& accumulator, double delta) {
  double current = accumulator.load(std::memory_order_relaxed);
  while (!accumulator.compare_exchange_weak(current, current + delta,
                                            std::memory_order_relaxed)) {
  }
}

}  // namespace

TimeBreakdown& TimeBreakdown::operator+=(const TimeBreakdown& other) {
  input_partition_seconds += other.input_partition_seconds;
  computation_seconds += other.computation_seconds;
  transmission_seconds += other.transmission_seconds;
  recovery_seconds += other.recovery_seconds;
  return *this;
}

std::string TimeBreakdown::ToString() const {
  // The recovery component only appears on chaos runs; fault-free output
  // shows partition, compute and transmit.
  std::string recovery =
      recovery_seconds > 0.0
          ? StringFormat(" recovery=%s", HumanSeconds(recovery_seconds).c_str())
          : "";
  return StringFormat(
      "partition=%s compute=%s transmit=%s%s total=%s",
      HumanSeconds(input_partition_seconds).c_str(),
      HumanSeconds(computation_seconds).c_str(),
      HumanSeconds(transmission_seconds).c_str(), recovery.c_str(),
      HumanSeconds(TotalSeconds()).c_str());
}

void TransmissionLedger::AddDistributedFlops(double flops) {
  AtomicAdd(distributed_flops_, flops);
}

void TransmissionLedger::AddLocalFlops(double flops) {
  AtomicAdd(local_flops_, flops);
}

void TransmissionLedger::AddTransmission(TransmissionPrimitive pr,
                                         double bytes) {
  AtomicAdd(bytes_[static_cast<size_t>(pr)], bytes);
}

void TransmissionLedger::AddInputPartition(double bytes) {
  AtomicAdd(input_partition_bytes_, bytes);
}

void TransmissionLedger::AddRecoverySeconds(double seconds) {
  AtomicAdd(recovery_seconds_, seconds);
}

void TransmissionLedger::AddWasted(double flops, double bytes) {
  AtomicAdd(wasted_flops_, flops);
  AtomicAdd(wasted_bytes_, bytes);
}

void TransmissionLedger::MergeFrom(const TransmissionLedger& other) {
  AtomicAdd(distributed_flops_,
            other.distributed_flops_.load(std::memory_order_relaxed));
  AtomicAdd(local_flops_, other.local_flops_.load(std::memory_order_relaxed));
  for (size_t i = 0; i < bytes_.size(); ++i) {
    AtomicAdd(bytes_[i], other.bytes_[i].load(std::memory_order_relaxed));
  }
  AtomicAdd(input_partition_bytes_,
            other.input_partition_bytes_.load(std::memory_order_relaxed));
  AtomicAdd(recovery_seconds_,
            other.recovery_seconds_.load(std::memory_order_relaxed));
  AtomicAdd(wasted_flops_, other.wasted_flops_.load(std::memory_order_relaxed));
  AtomicAdd(wasted_bytes_, other.wasted_bytes_.load(std::memory_order_relaxed));
}

double TransmissionLedger::TotalBytes() const {
  double total = 0.0;
  for (const auto& b : bytes_) total += b.load(std::memory_order_relaxed);
  return total;
}

TimeBreakdown TransmissionLedger::Breakdown() const {
  TimeBreakdown b;
  b.computation_seconds =
      distributed_flops_.load(std::memory_order_relaxed) * model_.WFlop() +
      local_flops_.load(std::memory_order_relaxed) * model_.WLocalFlop();
  for (int i = 0; i < kNumTransmissionPrimitives; ++i) {
    b.transmission_seconds +=
        bytes_[static_cast<size_t>(i)].load(std::memory_order_relaxed) *
        model_.WPrimitive(static_cast<TransmissionPrimitive>(i));
  }
  b.input_partition_seconds =
      input_partition_bytes_.load(std::memory_order_relaxed) *
      model_.WPrimitive(TransmissionPrimitive::kDfs);
  b.recovery_seconds = recovery_seconds_.load(std::memory_order_relaxed);
  return b;
}

void TransmissionLedger::Reset() {
  distributed_flops_.store(0.0, std::memory_order_relaxed);
  local_flops_.store(0.0, std::memory_order_relaxed);
  for (auto& b : bytes_) b.store(0.0, std::memory_order_relaxed);
  input_partition_bytes_.store(0.0, std::memory_order_relaxed);
  recovery_seconds_.store(0.0, std::memory_order_relaxed);
  wasted_flops_.store(0.0, std::memory_order_relaxed);
  wasted_bytes_.store(0.0, std::memory_order_relaxed);
}

}  // namespace remac
