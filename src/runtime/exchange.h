#pragma once

// Modeled cost of the MPI collectives the Cray Graph Engine pipeline
// relies on (redistribution between scans/joins/filters, global solution
// syncs). Callers move the rows themselves and charge the per-rank
// virtual clocks with the alpha-beta link model:
//
//   personalized all-to-all — per rank: one alpha per peer message plus
//                max(bytes_sent, bytes_received) / bandwidth, split by
//                intra- vs inter-node traffic (AllToAll, charge_traffic).
//   gather/reduce/broadcast — log2(P) tree: each step costs
//                alpha + step_bytes / bandwidth (charge_tree_collective).
//
// Every collective ends with a clock barrier, exactly like the global
// solution syncs in the paper (§2.4.3: "ranks will sync solutions globally
// only once the evaluations are complete").

#include <cstdint>
#include <vector>

#include "runtime/topology.h"
#include "sim/virtual_clock.h"

namespace ids::runtime {

/// Per-rank traffic summary for one all-to-all, used to charge clocks.
struct TrafficSummary {
  std::uint64_t intra_sent = 0;
  std::uint64_t inter_sent = 0;
  std::uint64_t intra_recv = 0;
  std::uint64_t inter_recv = 0;
  std::uint64_t messages = 0;
};

/// Charges one rank's clock for the traffic it sourced/sank, then the
/// caller barriers.
inline void charge_traffic(sim::VirtualClock& clock, const Topology& topo,
                           const TrafficSummary& t) {
  const auto& intra = topo.fabric.intra_node;
  const auto& inter = topo.fabric.inter_node;
  sim::Nanos cost = 0;
  cost += t.messages * inter.latency;  // alpha per message (worst-case link)
  std::uint64_t intra_traffic = std::max(t.intra_sent, t.intra_recv);
  std::uint64_t inter_traffic = std::max(t.inter_sent, t.inter_recv);
  cost += sim::from_seconds(static_cast<double>(intra_traffic) /
                            intra.bytes_per_second);
  cost += sim::from_seconds(static_cast<double>(inter_traffic) /
                            inter.bytes_per_second);
  clock.advance(cost);
}

/// One personalized all-to-all: each rank's intra- and inter-node bytes
/// and message count, recorded as the caller moves rows and charged to
/// every rank's clock at the end.
class AllToAll {
 public:
  explicit AllToAll(const Topology& topo)
      : topo_(topo), traffic_(static_cast<std::size_t>(topo.num_ranks())) {}

  /// Records one message of `bytes` from rank src to rank dst (src != dst).
  void send(int src, int dst, std::uint64_t bytes) {
    TrafficSummary& ts = traffic_[static_cast<std::size_t>(src)];
    TrafficSummary& td = traffic_[static_cast<std::size_t>(dst)];
    ++ts.messages;
    if (topo_.same_node(src, dst)) {
      ts.intra_sent += bytes;
      td.intra_recv += bytes;
    } else {
      ts.inter_sent += bytes;
      td.inter_recv += bytes;
    }
  }

  /// Charges every rank's clock for its traffic (charge_traffic), then
  /// barriers.
  void charge(sim::ClockSet& clocks) const {
    for (std::size_t r = 0; r < clocks.size(); ++r) {
      charge_traffic(clocks.at(r), topo_, traffic_[r]);
    }
    clocks.barrier();
  }

 private:
  const Topology& topo_;
  std::vector<TrafficSummary> traffic_;
};

/// Charges all clocks for a log2(P)-step tree collective moving
/// `bytes_per_step` per step, then barriers.
inline void charge_tree_collective(sim::ClockSet& clocks, const Topology& topo,
                                   std::uint64_t bytes_per_step) {
  const int p = topo.num_ranks();
  int steps = 0;
  while ((1 << steps) < p) ++steps;
  const auto& link = (topo.num_nodes > 1) ? topo.fabric.inter_node
                                          : topo.fabric.intra_node;
  sim::Nanos per_step = link.transfer_cost(bytes_per_step);
  for (std::size_t r = 0; r < clocks.size(); ++r) {
    clocks.at(r).advance(static_cast<sim::Nanos>(steps) * per_step);
  }
  clocks.barrier();
}

}  // namespace ids::runtime
