#include "hetscale/net/network.hpp"

#include "hetscale/support/error.hpp"

namespace hetscale::net {

namespace {
/// Index of the stats shard the calling simulation thread records into
/// during a partitioned run; -1 on unbound threads (sequential runs).
thread_local int t_partition = -1;
}  // namespace

TransferResult Network::transfer(int src_node, int dst_node, double bytes,
                                 SimTime depart) {
  HETSCALE_REQUIRE(bytes >= 0.0, "message size must be non-negative");
  HETSCALE_REQUIRE(src_node >= 0 && dst_node >= 0, "node ids must be >= 0");
  HETSCALE_REQUIRE(depart >= 0.0, "departure time must be >= 0");
  record_traffic(bytes);

  const SimTime ready = depart + params_.per_message_overhead_s;
  if (src_node == dst_node) {
    // Intra-node: a memory copy, no shared medium involved.
    const SimTime done =
        ready + params_.local.latency_s + params_.local.wire_time(bytes);
    return TransferResult{done, done};
  }
  return remote_transfer(src_node, dst_node, bytes, ready);
}

void Network::begin_partitioned(int partitions, int node_count) {
  HETSCALE_REQUIRE(partitions >= 1, "need at least one partition");
  HETSCALE_REQUIRE(lookahead_s() > 0.0,
                   "this network model provides no lookahead");
  presize_nodes(node_count);
  // Links need no shards: a partitioned machine has one rank per node, so
  // each link is written by the one thread owning that rank. Presized, the
  // shared array never grows under them.
  if (stats_.links.size() < static_cast<std::size_t>(node_count)) {
    stats_.links.resize(static_cast<std::size_t>(node_count));
  }
  shards_.assign(static_cast<std::size_t>(partitions), StatsShard{});
}

void Network::end_partitioned() {
  for (const StatsShard& shard : shards_) {
    stats_.messages += shard.stats.messages;
    stats_.bytes += shard.stats.bytes;
    stats_.wire_seconds += shard.stats.wire_seconds;
    stats_.contention_seconds += shard.stats.contention_seconds;
  }
  shards_.clear();
}

void Network::set_thread_partition(int partition) { t_partition = partition; }

NetworkStats& Network::sink() {
  if (!shards_.empty() && t_partition >= 0 &&
      static_cast<std::size_t>(t_partition) < shards_.size()) {
    return shards_[static_cast<std::size_t>(t_partition)].stats;
  }
  return stats_;
}

void Network::record_traffic(double bytes) {
  NetworkStats& stats = sink();
  ++stats.messages;
  stats.bytes += bytes;
}

void Network::record_wire(int src_node, double bytes, double wire_s,
                          double stall_s) {
  NetworkStats& stats = sink();
  stats.wire_seconds += wire_s;
  stats.contention_seconds += stall_s;
  const auto node = static_cast<std::size_t>(src_node);
  if (node >= stats_.links.size()) stats_.links.resize(node + 1);
  LinkStats& link = stats_.links[node];
  ++link.frames;
  link.bytes += bytes;
  link.wire_s += wire_s;
  link.stall_s += stall_s;
}

}  // namespace hetscale::net
