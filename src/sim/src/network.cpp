#include "updsm/sim/network.hpp"

#include "updsm/common/error.hpp"
#include "updsm/sim/exec_context.hpp"

namespace updsm::sim {

Network::Network(const NetworkCosts& costs, int num_nodes) : costs_(costs) {
  UPDSM_REQUIRE(num_nodes >= 1,
                "network needs at least one node, got " << num_nodes);
  shards_.resize(static_cast<std::size_t>(num_nodes) + 1);
}

Network::Shard& Network::my_shard() {
  const int exec = current_exec_node();
  const std::size_t idx =
      exec >= 0 && static_cast<std::size_t>(exec) + 1 < shards_.size()
          ? static_cast<std::size_t>(exec) + 1
          : 0;
  return shards_[idx];
}

SimTime Network::record(MsgKind kind, NodeId from, NodeId to,
                        std::uint64_t payload_bytes) {
  if (from == to) return 0;
  auto& counter = my_shard().stats.by_kind[static_cast<std::size_t>(kind)];
  ++counter.count;
  counter.bytes += payload_bytes + costs_.header_bytes;
  return costs_.wire_time(payload_bytes);
}

void Network::note_records(MsgKind kind, std::uint64_t records) {
  my_shard().stats.by_kind[static_cast<std::size_t>(kind)].records += records;
}

void Network::record_drop(MsgKind kind) {
  ++my_shard().stats.by_kind[static_cast<std::size_t>(kind)].dropped;
}

void Network::note_dup() { ++my_shard().stats.injected_dups; }

void Network::note_delay() { ++my_shard().stats.injected_delays; }

const NetworkStats& Network::stats() const {
  merged_ = NetworkStats{};
  for (const Shard& shard : shards_) {
    for (std::size_t k = 0; k < kMsgKindCount; ++k) {
      merged_.by_kind[k].count += shard.stats.by_kind[k].count;
      merged_.by_kind[k].bytes += shard.stats.by_kind[k].bytes;
      merged_.by_kind[k].dropped += shard.stats.by_kind[k].dropped;
      merged_.by_kind[k].records += shard.stats.by_kind[k].records;
    }
    merged_.injected_dups += shard.stats.injected_dups;
    merged_.injected_delays += shard.stats.injected_delays;
  }
  return merged_;
}

void Network::reset_stats() {
  for (Shard& shard : shards_) shard = Shard{};
}

}  // namespace updsm::sim
