#pragma once

// Keyword search: a classic inverted index over entity-attached text.
//
// The keyword leg of the paper's unified query engine. Documents are
// free-text blobs attached to entity term ids (names, descriptions,
// annotations); queries are conjunctions/disjunctions of tokens resolved
// by posting-list intersection/union.

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/thread_annotations.h"
#include "graph/dictionary.h"

namespace ids::store {

class InvertedIndex {
 public:
  /// Tokenizes `text` (lowercased alnum runs) and indexes every token for
  /// `entity`. May be called repeatedly per entity. Ingest-phase only:
  /// aborts if the index is frozen.
  void add_document(graph::TermId entity, std::string_view text);

  /// Sorts and dedups every posting list eagerly, then seals the index:
  /// the ingest→serve epoch transition. After freeze() all reads are
  /// const and safe from any number of concurrent queries. Idempotent.
  void freeze();

  /// True once freeze() has sealed the index (acquire pairs with the
  /// release in freeze(), so a thread that observes frozen() also
  /// observes the prepared posting lists).
  bool frozen() const { return frozen_.load(std::memory_order_acquire); }

  /// Returns the index to the ingest phase for incremental updates. The
  /// caller owns quiescence: no queries may be in flight between
  /// reopen() and the next freeze().
  void reopen() { frozen_.store(false, std::memory_order_release); }

  /// Entities whose documents contain ALL of the tokens. Sorted ascending.
  std::vector<graph::TermId> search_and(
      const std::vector<std::string>& tokens) const;

  /// Entities whose documents contain ANY of the tokens. Sorted ascending.
  std::vector<graph::TermId> search_or(
      const std::vector<std::string>& tokens) const;

  /// Posting-list length of a token (0 if absent) — selectivity estimate.
  std::size_t posting_size(std::string_view token) const;

  /// Exposed for tests: the tokenizer used by add_document.
  static std::vector<std::string> tokenize(std::string_view text);

 private:
  /// Requires a frozen index (posting lists are prepared by freeze(), not
  /// lazily on read — serve-phase reads never mutate).
  const std::vector<graph::TermId>* posting(std::string_view token) const;

  // Posting lists mutate during ingest (add_document) and are sorted,
  // deduped, and sealed by freeze(); every serve-phase access is a read.
  std::unordered_map<std::string, std::vector<graph::TermId>> postings_
      IDS_FROZEN_AFTER(freeze);
  std::size_t documents_ IDS_FROZEN_AFTER(freeze) = 0;
  std::atomic<bool> frozen_{false};
};

}  // namespace ids::store
