#include "lifetime.h"

#include <algorithm>

#include "field_access.h"

namespace ids::analyzer {
namespace {

const MergedFunc* merged_of(const Corpus& corpus, const FuncDecl& fn) {
  auto ci = corpus.merged.find(fn.klass);
  if (ci == corpus.merged.end()) return nullptr;
  auto mi = ci->second.find(fn.name);
  return mi == ci->second.end() ? nullptr : &mi->second;
}

/// Receiver chain of the member call whose callee-name token is at `i`
/// (f.toks[i-1] is '.' or '->'). Walks back over ident and subscript-group
/// segments — `keys_.assign`, `id_cols_[i].push_back`, `this->ctrl_.clear`
/// all root — and returns the base ident ("" when the receiver is a call
/// result, cast, or parenthesized expression). `chain` gets the dotted
/// spelling for finding messages.
std::string member_call_base(const FileData& f, std::size_t i,
                             std::size_t begin, std::string* chain) {
  std::vector<std::string> parts;
  std::size_t k = i;
  while (k >= begin + 2 &&
         (tok_is(f.toks[k - 1], ".") || tok_is(f.toks[k - 1], "->"))) {
    std::size_t q = k - 2;
    while (q > begin && tok_is(f.toks[q], "]") && f.partner[q] != kNone &&
           f.partner[q] > begin && f.partner[q] >= 1) {
      q = f.partner[q] - 1;  // the token before the '[' of member[expr]
    }
    if (!tok_ident(f.toks[q])) return "";
    parts.push_back(f.toks[q].text);
    k = q;
  }
  if (parts.empty()) return "";
  if (k >= begin + 1) {
    const std::string& prev = f.toks[k - 1].text;
    if (prev == "::" || prev == ")" || prev == "]") return "";
  }
  std::string joined;
  for (auto it = parts.rbegin(); it != parts.rend(); ++it) {
    joined += (joined.empty() ? "" : ".") + *it;
  }
  *chain = joined;
  return parts.back();
}

}  // namespace

bool is_invalidating_container_method(const std::string& name) {
  static const std::set<std::string> kOps = {
      "push_back", "emplace_back", "pop_back",      "push_front",
      "pop_front", "insert",       "emplace",       "emplace_hint",
      "erase",     "clear",        "resize",        "reserve",
      "assign",    "append",       "shrink_to_fit", "rehash"};
  return kOps.count(name) != 0;
}

DeclHead declarator_head(const FileData& f, std::size_t name_idx,
                         std::size_t begin) {
  DeclHead d;
  std::size_t p = name_idx;
  while (p > begin) {
    const std::string& t = f.toks[p - 1].text;
    if (t == "&" || t == "&&") {
      d.is_reference = true;
      --p;
      continue;
    }
    if (t == "*") {
      d.is_pointer = true;
      --p;
      continue;
    }
    if (t == ">" || t == ">>") {
      // Template type: match back to the '<' and take the ident before it.
      int depth = 0;
      std::size_t m = p - 1;
      while (true) {
        const std::string& u = f.toks[m].text;
        if (u == ">") depth += 1;
        else if (u == ">>") depth += 2;
        else if (u == "<") depth -= 1;
        if (depth <= 0) break;
        if (m == begin) return DeclHead{};
        --m;
      }
      if (m >= begin + 1 && tok_ident(f.toks[m - 1]) &&
          !is_keyword(f.toks[m - 1].text)) {
        d.head = f.toks[m - 1].text;
        return d;
      }
      return DeclHead{};
    }
    break;
  }
  static const std::set<std::string> kNotTypes = {
      "const",    "constexpr", "inline",  "static",   "mutable",
      "volatile", "typename",  "extern",  "register", "thread_local",
      "explicit", "virtual",   "friend",  "struct",   "class",
      "enum",     "union",     "noexcept"};
  if (p > begin && tok_ident(f.toks[p - 1])) {
    const std::string& t = f.toks[p - 1].text;
    if (!is_keyword(t) && kNotTypes.count(t) == 0 &&
        t.rfind("IDS_", 0) != 0) {
      d.head = t;
      return d;
    }
  }
  return DeclHead{};
}

std::map<std::string, LocalInfo> collect_locals_typed(const FuncDecl& fn) {
  std::map<std::string, LocalInfo> out;
  if (!fn.has_body()) return out;
  const FileData& f = *fn.file;
  for (auto [sb, se] : statements(f, fn.body_begin, fn.body_end)) {
    bool is_static = false;
    for (std::size_t i = sb; i < se; ++i) {
      if (tok_is(f.toks[i], "static")) {
        is_static = true;
        break;
      }
      if (tok_is(f.toks[i], "=")) break;
    }
    if (is_static) continue;  // referent survives the frame
    for (std::size_t i = sb; i < se; ++i) {
      if (!tok_ident(f.toks[i]) || is_keyword(f.toks[i].text)) continue;
      if (i + 1 < se) {
        // A declared name is followed by an initializer, another
        // declarator, a subscript (arrays), a range-for ':', or the
        // statement end — anything else is expression context.
        const std::string& nx = f.toks[i + 1].text;
        if (nx != "=" && nx != "," && nx != "(" && nx != "{" && nx != "[" &&
            nx != ":") {
          continue;
        }
      }
      DeclHead d = declarator_head(f, i, sb);
      if (d.head.empty()) continue;
      out.emplace(f.toks[i].text,
                  LocalInfo{d.head, d.is_pointer, d.is_reference});
    }
  }
  return out;
}

std::map<std::string, std::string> by_value_params_typed(const FuncDecl& fn) {
  std::map<std::string, std::string> out;
  if (fn.file == nullptr || fn.params_end == kNone ||
      fn.params_end <= fn.params_begin) {
    return out;
  }
  const FileData& f = *fn.file;
  auto flush = [&](std::size_t sb, std::size_t se) {
    // Cut the segment at a top-level '=' (default argument).
    std::size_t cut = se;
    int depth = 0, angle = 0;
    for (std::size_t i = sb; i < se; ++i) {
      const std::string& t = f.toks[i].text;
      if (f.toks[i].kind != Token::Kind::kPunct) continue;
      if (t == "(" || t == "[" || t == "{") ++depth;
      else if (t == ")" || t == "]" || t == "}") --depth;
      else if (t == "<") ++angle;
      else if (t == ">") angle = std::max(0, angle - 1);
      else if (t == ">>") angle = std::max(0, angle - 2);
      else if (t == "=" && depth == 0 && angle == 0) {
        cut = i;
        break;
      }
    }
    std::size_t name_idx = kNone;
    for (std::size_t i = sb; i < cut; ++i) {
      const std::string& t = f.toks[i].text;
      if (t == "&" || t == "&&" || t == "*" || t == "...") return;  // by-ref
      if (tok_ident(f.toks[i]) && !is_keyword(t) &&
          t.rfind("IDS_", 0) != 0) {
        name_idx = i;
      }
    }
    if (name_idx == kNone) return;
    DeclHead d = declarator_head(f, name_idx, sb);
    if (!d.head.empty()) out.emplace(f.toks[name_idx].text, d.head);
  };
  std::size_t seg = fn.params_begin;
  int depth = 0, angle = 0;
  for (std::size_t i = fn.params_begin; i < fn.params_end; ++i) {
    const std::string& t = f.toks[i].text;
    if (f.toks[i].kind != Token::Kind::kPunct) continue;
    if (t == "(" || t == "[" || t == "{") ++depth;
    else if (t == ")" || t == "]" || t == "}") --depth;
    else if (t == "<") ++angle;
    else if (t == ">") angle = std::max(0, angle - 1);
    else if (t == ">>") angle = std::max(0, angle - 2);
    else if (t == "," && depth == 0 && angle == 0) {
      flush(seg, i);
      seg = i + 1;
    }
  }
  flush(seg, fn.params_end);
  return out;
}

InvalidationSummaries compute_invalidation_summaries(const Corpus& corpus,
                                                     const CallGraph& graph) {
  InvalidationSummaries s;

  // Direct facts: annotations first, then body evidence — a reallocating
  // container mutator (or std::move) applied to a member of the receiver.
  for (const FuncDecl& fn : corpus.funcs) {
    const MergedFunc* self = merged_of(corpus, fn);
    if (self == nullptr) continue;
    if (s.origins.count(self) != 0) continue;
    if (self->invalidates) {
      s.origins[self] = {"IDS_INVALIDATES", ""};
      continue;
    }
    if (fn.klass.empty() || !fn.has_body()) continue;
    const FileData& f = *fn.file;
    std::set<std::string> frame;
    for (const std::string& p : param_names(fn)) frame.insert(p);
    for (const auto& [n, info] : collect_locals_typed(fn)) frame.insert(n);
    for (std::size_t i = fn.body_begin; i + 1 < fn.body_end; ++i) {
      if (!tok_ident(f.toks[i]) || !tok_is(f.toks[i + 1], "(")) continue;
      const std::string& n = f.toks[i].text;
      if (n == "move") {
        // std::move(member_): the moved-from container's storage is gone.
        std::size_t close = f.partner[i + 1];
        if (close == i + 3 && tok_ident(f.toks[i + 2]) &&
            frame.count(f.toks[i + 2].text) == 0 &&
            !is_keyword(f.toks[i + 2].text)) {
          s.origins[self] = {"std::move(" + f.toks[i + 2].text + ")", ""};
          break;
        }
        continue;
      }
      if (!is_invalidating_container_method(n)) continue;
      if (i == fn.body_begin ||
          (!tok_is(f.toks[i - 1], ".") && !tok_is(f.toks[i - 1], "->"))) {
        continue;
      }
      std::string chain;
      std::string base = member_call_base(f, i, fn.body_begin, &chain);
      if (base.empty()) continue;
      if (base != "this" && frame.count(base) != 0) continue;
      s.origins[self] = {chain + "." + n, ""};
      break;
    }
  }

  // Fixed point over unique call edges, same-class only: a method that
  // calls an invalidating method *of its own class* inherits the fact
  // (FlatTermSet::insert → grow). Cross-class edges stay out — the callee
  // there mutates a different object than the caller's receiver.
  for (bool changed = true; changed;) {
    changed = false;
    for (const auto& [caller, callees] : graph.out_unique) {
      if (caller->klass.empty()) continue;
      if (s.origins.count(caller) != 0) continue;
      for (const MergedFunc* callee : callees) {
        if (callee->klass != caller->klass) continue;
        auto it = s.origins.find(callee);
        if (it == s.origins.end()) continue;
        s.origins[caller] = {it->second.what, callee->qualified()};
        changed = true;
        break;
      }
    }
  }
  return s;
}

}  // namespace ids::analyzer
