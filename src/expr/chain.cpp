#include "expr/chain.h"

namespace ids::expr {

namespace {

void flatten(const ExprPtr& e, std::vector<Conjunct>* out) {
  if (e->is_and()) {
    flatten(e->children()[0], out);
    flatten(e->children()[1], out);
    return;
  }
  Conjunct c;
  c.expr = e;
  e->collect_udfs(&c.udfs);
  out->push_back(std::move(c));
}

}  // namespace

std::vector<Conjunct> flatten_conjuncts(const ExprPtr& root) {
  std::vector<Conjunct> out;
  flatten(root, &out);
  return out;
}

}  // namespace ids::expr
