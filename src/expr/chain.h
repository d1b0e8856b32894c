#pragma once

// Conjunctive-chain extraction for the planner (§2.4.3).
//
// FILTER expressions whose top is a chain of ANDs are split into
// conjuncts; each conjunct carries the UDFs it references. The planner
// orders conjuncts per rank (cheapest estimated cost first, ties broken by
// pruning power) and the engine evaluates them in that order. Because AND
// is commutative and associative and conjunct evaluation is side-effect-free
// on the solution, reordering never changes the surviving row set — only
// which conjunct gets to reject a row first.

#include <string>
#include <vector>

#include "expr/expr.h"

namespace ids::expr {

struct Conjunct {
  ExprPtr expr;
  std::vector<std::string> udfs;  // qualified names referenced in the subtree
};

/// Flattens nested ANDs into a conjunct list (left-to-right order).
/// A non-AND expression yields a single conjunct.
std::vector<Conjunct> flatten_conjuncts(const ExprPtr& root);

}  // namespace ids::expr
