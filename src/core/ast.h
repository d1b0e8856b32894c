#pragma once

// Query representation.
//
// An IDS query spans the engine's three retrieval modalities plus model
// execution, mirroring §2.2's "keyword search, set-theoretic operations,
// and linear-algebraic methods" unified with UDF/model invocation:
//
//   patterns  — basic graph patterns matched against the triple store
//               (the set-theoretic/graph leg; joined on shared variables)
//   keywords  — bind or restrict a variable by inverted-index search
//   vectors   — restrict a variable to the top-k nearest embeddings
//   filters   — FILTER conjuncts over expression trees, including UDF
//               calls (reordered by the planner, §2.4.3)
//   distinct_var — project rows to distinct values of one variable before
//               invocation (e.g. dock each *compound* once)
//   invokes   — per-row model executions whose results become new numeric
//               columns (e.g. docking energy); optionally backed by the
//               global cache
//   order_by/limit/select — final shaping of the gathered result

#include <cstdint>
#include <string>
#include <vector>

#include "expr/expr.h"
#include "graph/triple.h"
#include "store/vector_store.h"

namespace ids::core {

struct KeywordClause {
  std::string var;                  // id variable to bind/restrict
  std::vector<std::string> tokens;
  bool conjunctive = true;          // AND of tokens (vs OR)
};

struct VectorClause {
  std::string var;                  // id variable restricted to the top-k
  std::vector<float> query;         // query embedding
  std::size_t k = 10;
  store::Metric metric = store::Metric::kCosine;
  /// Approximate search through a per-shard IVF index instead of the
  /// exact scan: probe the `nprobe` nearest of `ivf_clusters` clusters.
  /// Trades recall for a proportional cut in scan work (see
  /// store/ivf_index.h). 0 = exact scan.
  int ivf_nprobe = 0;
  int ivf_clusters = 16;
};

struct InvokeClause {
  std::string udf;                  // registered UDF name
  std::vector<expr::ExprPtr> args;  // evaluated per row
  std::string out_var;              // numeric column receiving the result
  /// Cache integration: when set and the engine has a global cache, the
  /// invocation result is stashed/reused under
  /// "<cache_prefix>/<arg values>" (the paper caches complete Vina
  /// outputs as named objects, §3.2).
  bool use_cache = false;
  std::string cache_prefix;
  /// Modeled size of the cached artifact (a full Vina output, not just the
  /// scalar we extract from it). The cache stores only the scalar's text
  /// and prices every transfer of it at this size.
  std::size_t cached_payload_bytes = 50'000;
};

struct Query {
  std::vector<graph::TriplePattern> patterns;
  std::vector<KeywordClause> keywords;
  std::vector<VectorClause> vectors;
  std::vector<expr::ExprPtr> filters;   // implicitly ANDed conjuncts
  std::string distinct_var;             // empty = no distinct stage
  std::vector<InvokeClause> invokes;
  std::string order_by;                 // numeric var; ascending
  bool order_descending = false;
  std::size_t limit = 0;                // 0 = unlimited
  std::vector<std::string> select;      // empty = all id vars
};

}  // namespace ids::core
