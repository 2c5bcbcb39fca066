#include "cluster/cluster_model.h"

#include "common/string_util.h"

namespace remac {

const char* TransmissionPrimitiveName(TransmissionPrimitive pr) {
  switch (pr) {
    case TransmissionPrimitive::kCollection:
      return "collection";
    case TransmissionPrimitive::kBroadcast:
      return "broadcast";
    case TransmissionPrimitive::kShuffle:
      return "shuffle";
    case TransmissionPrimitive::kDfs:
      return "dfs";
  }
  return "?";
}

double ClusterModel::WPrimitive(TransmissionPrimitive pr) const {
  switch (pr) {
    case TransmissionPrimitive::kCollection:
      return 1.0 / collection_bytes_per_sec;
    case TransmissionPrimitive::kBroadcast:
      return 1.0 / broadcast_bytes_per_sec;
    case TransmissionPrimitive::kShuffle:
      return 1.0 / shuffle_bytes_per_sec;
    case TransmissionPrimitive::kDfs:
      return 1.0 / dfs_bytes_per_sec;
  }
  return 0.0;
}

ClusterModel ClusterModel::SingleNode() {
  ClusterModel m;
  m.num_workers = 1;
  m.flops_per_sec = m.local_flops_per_sec;
  // A single node never transmits; infinite bandwidth keeps the cost model
  // well-defined if a distributed operator is costed anyway.
  m.broadcast_bytes_per_sec = 1e18;
  m.shuffle_bytes_per_sec = 1e18;
  m.collection_bytes_per_sec = 1e18;
  // dfs doubles as the out-of-core streaming path of a single node: the
  // paper's nodes carry 4TB hard disks (~150MB/s sequential).
  m.dfs_bytes_per_sec = 1.5e8;
  m.driver_memory_bytes = 16LL << 30;
  return m;
}

std::string ClusterModel::ToString() const {
  return StringFormat(
      "ClusterModel{workers=%d, flops=%.2e, mem=%lldMB, block=%lld}",
      num_workers, flops_per_sec,
      static_cast<long long>(driver_memory_bytes >> 20),
      static_cast<long long>(block_size));
}

}  // namespace remac
