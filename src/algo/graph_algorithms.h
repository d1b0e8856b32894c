#pragma once

// Distributed graph algorithms over the sharded triple store.
//
// §2.2 lists "algorithmic acceleration ... of graph algorithms such as
// PageRank" among IDS's core objectives. These implementations follow the
// engine's execution model: vertices are owned by the rank whose shard
// holds them (hash of the id), each iteration is a BSP superstep of local
// compute plus a costed message exchange, and the reported time is the
// max-over-ranks virtual time.
//
// Edges are selected by predicate (kInvalidTerm = every predicate), so an
// algorithm can run over e.g. only `chembl:inhibits` edges of the
// life-sciences graph.

#include <cstdint>
#include <unordered_map>

#include "graph/triple_store.h"
#include "runtime/topology.h"
#include "sim/time.h"

namespace ids::algo {

struct PageRankOptions {
  double damping = 0.85;
  int max_iterations = 30;
  /// Stop when the L1 delta between iterations falls below this.
  double tolerance = 1e-9;
};

struct PageRankResult {
  std::unordered_map<graph::TermId, double> rank;
  int iterations = 0;
  double modeled_seconds = 0.0;
};

/// PageRank over the directed edges with predicate `predicate`.
/// Ranks sum to 1 over all vertices incident to a selected edge.
PageRankResult pagerank(const graph::TripleStore& store,
                        const runtime::Topology& topology,
                        graph::TermId predicate = graph::kInvalidTerm,
                        const PageRankOptions& options = {});

struct ComponentsResult {
  /// Component label (the minimum vertex id in the component).
  std::unordered_map<graph::TermId, graph::TermId> component;
  std::size_t num_components = 0;
  int supersteps = 0;
  double modeled_seconds = 0.0;
};

/// Connected components by min-label propagation (undirected).
ComponentsResult connected_components(
    const graph::TripleStore& store, const runtime::Topology& topology,
    graph::TermId predicate = graph::kInvalidTerm);

}  // namespace ids::algo
