#pragma once

// Lifetime layer for ids-analyzer (DESIGN.md §8): the shared substrate of
// the four view/lifetime rule families in rules_lifetime.cpp.
//
// The center of it is the *invalidation summary*: per method, "calling
// this may invalidate views (spans, string_views, references, pointers,
// iterators) previously derived from the receiver's element storage".
// Direct facts come from an IDS_INVALIDATES annotation or from the body
// calling a reallocating/rehashing container mutator (push_back, insert,
// clear, reserve, assign, ...) on a member; the facts then propagate over
// *unique* call edges restricted to same-class caller→callee pairs —
// invalidation is receiver-specific, so cross-class propagation over a
// receiver-agnostic edge set would manufacture findings the way
// over-approximated edges would for may-block.

#include <map>
#include <set>
#include <string>
#include <vector>

#include "callgraph.h"
#include "corpus.h"

namespace ids::analyzer {

/// Why a method may invalidate views into its object: the mutating
/// operation itself, and — for propagated facts — the callee it reaches.
struct InvalidationOrigin {
  std::string what;  // "keys_.assign", "IDS_INVALIDATES", ...
  std::string via;   // "" for direct facts; qualified callee when inherited
};

struct InvalidationSummaries {
  std::map<const MergedFunc*, InvalidationOrigin> origins;

  bool may_invalidate(const MergedFunc* m) const {
    return origins.count(m) != 0;
  }
  const InvalidationOrigin* origin(const MergedFunc* m) const {
    auto it = origins.find(m);
    return it == origins.end() ? nullptr : &it->second;
  }
};

/// Computes the per-method invalidation summaries (see above).
InvalidationSummaries compute_invalidation_summaries(const Corpus& corpus,
                                                     const CallGraph& graph);

/// Standard-library container mutators that may reallocate, rehash, or
/// destroy element storage — the name-matched invalidation facts applied
/// to receivers the corpus cannot type (std::vector locals, etc.).
bool is_invalidating_container_method(const std::string& name);

/// One declared local of a function body.
struct LocalInfo {
  std::string type_head;  // "vector" for std::vector<T>, "auto", "uint8_t"
  bool is_pointer = false;
  bool is_reference = false;
};

/// Locals declared in `fn`'s body, keyed by name, with the declared type's
/// head token. Function-local statics are excluded (their referents
/// survive the frame, so returning a view of one is fine). Reference
/// locals are included but flagged — [dangling-return] must skip them
/// (their referent is not frame storage).
std::map<std::string, LocalInfo> collect_locals_typed(const FuncDecl& fn);

/// By-value parameters of `fn` (no '&'/'*' in the declarator), keyed by
/// name with the type head — the set whose storage dies with the frame.
std::map<std::string, std::string> by_value_params_typed(const FuncDecl& fn);

/// Declarator classification for the identifier at `name_idx`: walks back
/// over '&'/'*'/template-argument tokens to the type head. `head` is empty
/// when the tokens before the name do not spell a declaration (plain
/// assignment, expression use). Shared by the local collector and the
/// per-statement view tracker.
struct DeclHead {
  std::string head;
  bool is_pointer = false;
  bool is_reference = false;
};
DeclHead declarator_head(const FileData& f, std::size_t name_idx,
                         std::size_t begin);

}  // namespace ids::analyzer
