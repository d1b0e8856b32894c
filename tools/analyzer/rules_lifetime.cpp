// Lifetime rule families (DESIGN.md §8) — the safety gate for handing
// container views to overlapping tasks:
//
// [view-invalidation]   A view (span, string_view, reference, pointer,
//                       iterator, .data()/.c_str() result) derived from a
//                       container is used after a may-invalidate operation
//                       on that container: a reallocating/rehashing std
//                       mutator by name, or a corpus method whose
//                       invalidation summary (lifetime.h) says so.
//                       Tracking is a linear per-body walk: derivations
//                       and reassignments update the view set,
//                       invalidations mark it, a later use reports once.
// [dangling-return]     Returning a reference/pointer/view bound to a
//                       local, a by-value parameter, or a temporary.
// [temporary-bound-view] string_view/span locals and members bound to
//                       rvalue temporaries (substr results, + concats,
//                       by-value-returning calls): the owner dies at the
//                       end of the full expression.
// [task-outlives-capture] By-ref/this captures handed to an async spawner
//                       (ThreadPool::submit) in a frame that never joins
//                       the task (escape.cpp does the scan).

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "analysis.h"
#include "escape.h"
#include "field_access.h"
#include "lifetime.h"

namespace ids::analyzer {
namespace {

const MergedFunc* merged_of(const Corpus& corpus, const FuncDecl& fn) {
  auto ci = corpus.merged.find(fn.klass);
  if (ci == corpus.merged.end()) return nullptr;
  auto mi = ci->second.find(fn.name);
  return mi == ci->second.end() ? nullptr : &mi->second;
}

bool is_view_type_head(const std::string& h) {
  return h == "span" || h == "string_view";
}

/// Methods whose result is always a view into the receiver's element
/// storage, whatever it binds to.
bool is_always_view_method(const std::string& n) {
  static const std::set<std::string> k = {"data",   "c_str",  "begin",
                                          "end",    "cbegin", "cend",
                                          "rbegin", "rend",   "crbegin",
                                          "crend"};
  return k.count(n) != 0;
}

/// Element accessors that yield a view only when bound by reference
/// (`auto x = v.front()` copies).
bool is_element_view_method(const std::string& n) {
  return n == "front" || n == "back" || n == "at" || n == "top";
}

/// Calls that produce an owning temporary a view must not bind to.
bool is_temp_producer(const std::string& n) {
  static const std::set<std::string> k = {"substr", "to_string", "str",
                                          "string", "format"};
  return k.count(n) != 0;
}

/// Owning types whose element storage dies with the object — the locals
/// [dangling-return] refuses to return views into.
bool is_owning_type_head(const std::string& h) {
  return h == "string" || h == "basic_string" || h == "vector" ||
         h == "array" || h == "deque" || h == "ostringstream" ||
         h == "stringstream";
}

std::string describe_origin(const InvalidationOrigin* o) {
  if (o == nullptr) return "";
  return o->via.empty() ? o->what : o->what + " via " + o->via;
}

/// True when the receiver a producer call is made on is itself a known
/// view-typed local or by-value parameter: `sv.substr(...)` on a
/// string_view yields a view into storage the *caller* owns — not a
/// temporary — so the temporary rules must stay quiet.
bool known_view_receiver(const std::vector<std::string>& chain,
                         const std::map<std::string, LocalInfo>& locals,
                         const std::map<std::string, std::string>& params) {
  if (chain.empty()) return false;
  auto li = locals.find(chain.front());
  if (li != locals.end()) return is_view_type_head(li->second.type_head);
  auto pi = params.find(chain.front());
  return pi != params.end() && is_view_type_head(pi->second);
}

/// Pure receiver chain of the member call at `i` (f.toks[i-1] is '.' or
/// '->'): dotted idents only, a leading `this->` stripped. "" when the
/// receiver contains subscripts, call results, or casts — those don't
/// match tracked containers exactly, so staying quiet beats guessing.
std::string strict_chain(const FileData& f, std::size_t i,
                         std::size_t begin) {
  std::vector<std::string> parts;
  std::size_t k = i;
  while (k >= begin + 2 &&
         (tok_is(f.toks[k - 1], ".") || tok_is(f.toks[k - 1], "->"))) {
    if (!tok_ident(f.toks[k - 2])) return "";
    parts.push_back(f.toks[k - 2].text);
    k -= 2;
  }
  if (parts.empty()) return "";
  if (k >= begin + 1) {
    const std::string& prev = f.toks[k - 1].text;
    if (prev == "::" || prev == ")" || prev == "]") return "";
  }
  if (parts.back() == "this") parts.pop_back();
  if (parts.empty()) return "";
  std::string joined;
  for (auto it = parts.rbegin(); it != parts.rend(); ++it) {
    joined += (joined.empty() ? "" : ".") + *it;
  }
  return joined;
}

/// One right-hand side (of an initializer, assignment, or return),
/// classified just far enough for the view rules: the pure ident chain it
/// starts with, whether that chain was subscripted, the last call made on
/// it, and whether the expression starts with a call (a temporary).
struct Rhs {
  std::vector<std::string> chain;
  bool amp = false;            // leading '&'
  bool had_subscript = false;  // chain[...]  — element storage access
  bool first_is_call = false;  // f(...)...   — rooted in a temporary
  bool call_then_member = false;  // f(...).m  — member of a temporary
  std::string first_call;
  std::string final_call;
  std::size_t final_call_idx = kNone;
  bool plus = false;  // top-level '+': a concatenation temporary
  std::size_t stop = kNone;  // first token after the parsed pattern

  std::string chain_joined() const {
    std::string j;
    for (const std::string& p : chain) j += (j.empty() ? "" : ".") + p;
    return j;
  }
};

Rhs parse_rhs(const FileData& f, std::size_t r, std::size_t end) {
  Rhs out;
  {
    int depth = 0;
    for (std::size_t i = r; i < end; ++i) {
      const std::string& t = f.toks[i].text;
      if (f.toks[i].kind != Token::Kind::kPunct) continue;
      if (t == "(" || t == "[" || t == "{") ++depth;
      else if (t == ")" || t == "]" || t == "}") {
        if (depth == 0) break;
        --depth;
      } else if ((t == ";" || t == ",") && depth == 0) {
        break;
      } else if (t == "+" && depth == 0) {
        out.plus = true;
      }
    }
  }
  std::size_t k = r;
  if (k < end && tok_is(f.toks[k], "&")) {
    out.amp = true;
    ++k;
  }
  bool chain_open = true;
  bool first_elem = true;
  while (k < end) {
    if (tok_is(f.toks[k], "this") && k + 1 < end &&
        tok_is(f.toks[k + 1], "->")) {
      k += 2;
      continue;
    }
    while (k + 1 < end && tok_ident(f.toks[k]) &&
           tok_is(f.toks[k + 1], "::")) {
      k += 2;  // namespace/class qualifiers
    }
    if (k >= end || !tok_ident(f.toks[k]) || is_keyword(f.toks[k].text)) {
      break;
    }
    const std::string name = f.toks[k].text;
    ++k;
    if (k < end && tok_is(f.toks[k], "(") && f.partner[k] != kNone &&
        f.partner[k] < end) {
      out.final_call = name;
      out.final_call_idx = k - 1;
      if (first_elem) {
        out.first_is_call = true;
        out.first_call = name;
      }
      chain_open = false;
      k = f.partner[k] + 1;
      if (k < end && (tok_is(f.toks[k], ".") || tok_is(f.toks[k], "->"))) {
        if (out.first_is_call) out.call_then_member = true;
        ++k;
        first_elem = false;
        continue;
      }
      break;
    }
    if (chain_open) out.chain.push_back(name);
    first_elem = false;
    while (k < end && tok_is(f.toks[k], "[") && f.partner[k] != kNone &&
           f.partner[k] < end) {
      out.had_subscript = true;
      chain_open = false;
      k = f.partner[k] + 1;
    }
    if (k < end && (tok_is(f.toks[k], ".") || tok_is(f.toks[k], "->"))) {
      ++k;
      continue;
    }
    break;
  }
  out.stop = k;
  return out;
}

// --- [view-invalidation] + [temporary-bound-view] locals --------------------

struct ViewState {
  std::string container;
  int derived_line = 0;
  bool invalid = false;
  std::string invalidated_by;
  int invalidated_line = 0;
};

/// A deferred invalidation: takes effect after token `pos` (the mutating
/// call's closing paren), so views used *inside* the call's own arguments
/// — `v.push_back(v[0])` is required to work — stay clean.
struct PendingInvalidation {
  std::size_t pos;
  bool members_only = false;  // bare same-class call: member views only
  std::string chain;          // exact/prefix match target otherwise
  std::vector<std::string> only_members;  // IDS_INVALIDATES(...) names
  std::string why;
  int line = 0;
};

void scan_body(Analysis& a, const FuncDecl& fn, const Corpus& corpus,
               const InvalidationSummaries& sums,
               const std::map<std::string, LocalInfo>& locals,
               const std::map<std::string, std::string>& val_params,
               const std::set<std::string>& frame) {
  const FileData& f = *fn.file;
  const bool want_views = a.rule_enabled("view-invalidation");
  const bool want_temp = a.rule_enabled("temporary-bound-view");
  std::map<std::string, ViewState> views;
  std::vector<PendingInvalidation> pending;

  // Does any live view look into `chain` (or a member reached through it)?
  auto tracks_into = [&](const std::string& chain) {
    for (const auto& [name, v] : views) {
      if (!v.invalid && (v.container == chain ||
                         v.container.rfind(chain + ".", 0) == 0)) {
        return true;
      }
    }
    return false;
  };
  // First token past the statement containing `from` — where an
  // assignment to a container takes effect (its RHS still reads the old
  // storage legitimately).
  auto statement_close = [&](std::size_t from) {
    int depth = 0;
    std::size_t k = from;
    while (k < fn.body_end) {
      const std::string& u = f.toks[k].text;
      if (f.toks[k].kind == Token::Kind::kPunct) {
        if (u == "(" || u == "[" || u == "{") {
          ++depth;
        } else if (u == ")" || u == "]" || u == "}") {
          if (depth == 0) break;
          --depth;
        } else if (u == ";" && depth == 0) {
          break;
        }
      }
      ++k;
    }
    return k;
  };

  auto apply = [&](const PendingInvalidation& p) {
    for (auto& [name, v] : views) {
      if (v.invalid) continue;
      bool hit;
      if (p.members_only) {
        const std::string base = v.container.substr(0, v.container.find('.'));
        if (frame.count(base) != 0) continue;  // view into a local: unrelated
        hit = p.only_members.empty() ||
              std::find(p.only_members.begin(), p.only_members.end(), base) !=
                  p.only_members.end();
      } else {
        hit = v.container == p.chain ||
              v.container.rfind(p.chain + ".", 0) == 0;
      }
      if (hit) {
        v.invalid = true;
        v.invalidated_by = p.why;
        v.invalidated_line = p.line;
      }
    }
  };

  for (std::size_t i = fn.body_begin; i < fn.body_end; ++i) {
    while (!pending.empty()) {
      auto it = std::find_if(pending.begin(), pending.end(),
                             [&](const PendingInvalidation& p) {
                               return p.pos < i;
                             });
      if (it == pending.end()) break;
      apply(*it);
      pending.erase(it);
    }
    const Token& t = f.toks[i];
    if (!tok_ident(t)) continue;
    const std::string& n = t.text;

    // Range-for header: `for (T v : range)` declares a fresh `v` each
    // iteration — by-ref it is a new view into `range`, by-value a copy.
    // Either way it replaces whatever state a same-named outer variable
    // left behind (the analyzer does not track scopes).
    if (n == "for" && want_views && i + 1 < fn.body_end &&
        tok_is(f.toks[i + 1], "(") && f.partner[i + 1] != kNone &&
        f.partner[i + 1] <= fn.body_end) {
      const std::size_t close = f.partner[i + 1];
      std::size_t colon = kNone;
      int depth = 0;
      for (std::size_t j = i + 2; j < close; ++j) {
        if (tok_is(f.toks[j], "(") || tok_is(f.toks[j], "[") ||
            tok_is(f.toks[j], "{")) {
          ++depth;
        } else if (tok_is(f.toks[j], ")") || tok_is(f.toks[j], "]") ||
                   tok_is(f.toks[j], "}")) {
          --depth;
        } else if (depth == 0 && (tok_is(f.toks[j], ";") ||
                                  tok_is(f.toks[j], "?") ||
                                  tok_is(f.toks[j], "="))) {
          break;  // classic for / ternary / init-statement: not handled
        } else if (depth == 0 && tok_is(f.toks[j], ":")) {
          colon = j;
          break;
        }
      }
      if (colon != kNone) {
        std::size_t vi = kNone;
        bool by_ref = false;
        for (std::size_t j = i + 2; j < colon; ++j) {
          if (tok_is(f.toks[j], "&")) by_ref = true;
          if (tok_ident(f.toks[j]) && !is_keyword(f.toks[j].text)) {
            views.erase(f.toks[j].text);  // fresh declaration shadows it
            vi = j;
          }
        }
        if (vi != kNone && by_ref) {
          Rhs range = parse_rhs(f, colon + 1, close);
          if (!range.chain.empty() && !range.first_is_call &&
              range.final_call.empty() && !range.had_subscript) {
            const std::string cont = range.chain_joined();
            if (cont != f.toks[vi].text) {
              views[f.toks[vi].text] =
                  ViewState{cont, f.toks[vi].line, false, "", 0};
            }
          }
        }
      }
      continue;
    }
    if (is_keyword(n) || is_macro_name(n)) continue;
    const bool after_access =
        i > fn.body_begin &&
        (tok_is(f.toks[i - 1], ".") || tok_is(f.toks[i - 1], "->") ||
         tok_is(f.toks[i - 1], "::"));
    const bool via_this = after_access && i >= fn.body_begin + 2 &&
                          tok_is(f.toks[i - 1], "->") &&
                          tok_is(f.toks[i - 2], "this");
    const bool is_call = i + 1 < fn.body_end && tok_is(f.toks[i + 1], "(") &&
                         f.partner[i + 1] != kNone &&
                         f.partner[i + 1] <= fn.body_end;

    // --- declaration or assignment targeting n ---------------------------
    if (!after_access) {
      DeclHead dh = declarator_head(f, i, fn.body_begin);
      std::size_t r = kNone;
      std::size_t rhs_end = fn.body_end;
      if (i + 1 < fn.body_end && tok_is(f.toks[i + 1], "=")) {
        r = i + 2;
      } else if (!dh.head.empty() && is_view_type_head(dh.head) && is_call) {
        r = i + 2;  // std::span<T> s(vec) — constructor-style init
        rhs_end = f.partner[i + 1];
      } else if (!dh.head.empty() && is_view_type_head(dh.head) &&
                 i + 1 < fn.body_end && tok_is(f.toks[i + 1], "{") &&
                 f.partner[i + 1] != kNone) {
        r = i + 2;
        rhs_end = f.partner[i + 1];
      }
      if (r != kNone) {
        // Reassigning a tracked container replaces its storage: views
        // into it dangle once the statement completes.
        if (want_views && tracks_into(n)) {
          pending.push_back(PendingInvalidation{
              statement_close(r), false, n, {},
              "'" + n + "' being reassigned", t.line});
        }
        Rhs rhs = parse_rhs(f, r, rhs_end);
        const MergedFunc* rcallee =
            rhs.final_call_idx == kNone
                ? nullptr
                : resolve_call(f, rhs.final_call_idx, fn.klass, corpus);
        std::string container;
        if (!rhs.chain.empty() && !rhs.first_is_call) {
          if (!rhs.final_call.empty() &&
              is_always_view_method(rhs.final_call)) {
            container = rhs.chain_joined();
          } else if (rhs.amp) {
            container = rhs.chain_joined();
          } else if (dh.is_reference && rhs.final_call.empty() &&
                     rhs.had_subscript) {
            container = rhs.chain_joined();
          } else if (dh.is_reference &&
                     is_element_view_method(rhs.final_call)) {
            container = rhs.chain_joined();
          } else if (is_view_type_head(dh.head) && rhs.final_call.empty() &&
                     !rhs.had_subscript) {
            container = rhs.chain_joined();
          } else if (rcallee != nullptr &&
                     is_view_type_head(rcallee->ret_head)) {
            container = rhs.chain_joined();
          }
        }
        const bool lhs_viewish =
            dh.head.empty() || dh.is_pointer || dh.is_reference ||
            dh.head == "auto" || is_view_type_head(dh.head) ||
            dh.head.find("iterator") != std::string::npos;
        if (want_views) {
          if (!container.empty() && lhs_viewish && container != n) {
            views[n] = ViewState{container, t.line, false, "", 0};
          } else {
            views.erase(n);  // overwritten with a non-view value
          }
        }
        if (want_temp && !dh.head.empty() && is_view_type_head(dh.head) &&
            !dh.is_pointer && !dh.is_reference) {
          std::string bound_to;
          if (rhs.call_then_member && (is_always_view_method(rhs.final_call) ||
                                       is_temp_producer(rhs.final_call))) {
            bound_to = "the temporary returned by '" + rhs.first_call + "()'";
          } else if (!rhs.final_call.empty() && !rhs.first_is_call &&
                     is_temp_producer(rhs.final_call) &&
                     !known_view_receiver(rhs.chain, locals, val_params)) {
            bound_to = "the '" + rhs.final_call + "(...)' result";
          } else if (rhs.first_is_call && rhs.final_call == rhs.first_call &&
                     is_temp_producer(rhs.final_call)) {
            bound_to = "the '" + rhs.final_call + "(...)' result";
          } else if (rcallee != nullptr &&
                     is_owning_type_head(rcallee->ret_head)) {
            bound_to = "the temporary '" + rcallee->ret_head +
                       "' returned by '" + rhs.final_call + "()'";
          } else if (dh.head == "string_view" && rhs.plus) {
            bound_to = "a '+' concatenation temporary";
          }
          if (!bound_to.empty()) {
            a.report("temporary-bound-view", f, t.line,
                     dh.head + " '" + n + "' is bound to " + bound_to +
                         ", which dies at the end of the statement; "
                         "materialize the owner in a named variable");
          }
        }
        continue;
      }
    }

    // --- append-assignment to a tracked container ------------------------
    if (!after_access && want_views && i + 1 < fn.body_end &&
        tok_is(f.toks[i + 1], "+=") && tracks_into(n)) {
      pending.push_back(PendingInvalidation{
          statement_close(i + 2), false, n, {},
          "'" + n + " +=' growing the storage", t.line});
      continue;
    }

    // --- assignment through a member chain (x.col_ = ..., this->m_ = ...) --
    if (want_views && after_access && !is_call && i + 1 < fn.body_end &&
        (tok_is(f.toks[i + 1], "=") || tok_is(f.toks[i + 1], "+="))) {
      const std::string prefix = strict_chain(f, i, fn.body_begin);
      if (!prefix.empty() || via_this) {
        const std::string full = prefix.empty() ? n : prefix + "." + n;
        if (tracks_into(full)) {
          pending.push_back(PendingInvalidation{
              statement_close(i + 2), false, full, {},
              "'" + full + "' being reassigned", t.line});
        }
      }
      continue;
    }

    // --- member-call invalidation ----------------------------------------
    if (after_access && !via_this && is_call) {
      std::string chain = strict_chain(f, i, fn.body_begin);
      if (!chain.empty() && want_views) {
        bool inval = false;
        std::string why;
        const MergedFunc* callee = resolve_call(f, i, fn.klass, corpus);
        if (callee != nullptr) {
          if (sums.may_invalidate(callee)) {
            inval = true;
            why = "'" + chain + "." + n + "()' (" +
                  describe_origin(sums.origin(callee)) + ")";
          }
        } else if (is_invalidating_container_method(n)) {
          inval = true;
          why = "'" + chain + "." + n + "()'";
        } else {
          // Untyped receiver: when *every* corpus method of this name has
          // an invalidation summary, the call invalidates whichever class
          // it lands on (SolutionTable append on a local table).
          auto bi = corpus.by_name.find(n);
          if (bi != corpus.by_name.end() && !bi->second.empty()) {
            bool all = true;
            for (const MergedFunc* m : bi->second) {
              if (!sums.may_invalidate(m)) {
                all = false;
                break;
              }
            }
            if (all) {
              inval = true;
              why = "'" + chain + "." + n + "()' (" +
                    describe_origin(sums.origin(bi->second[0])) + ")";
            }
          }
        }
        if (inval) {
          pending.push_back(PendingInvalidation{
              f.partner[i + 1], false, chain, {}, why, t.line});
        }
      }
      continue;
    }

    // --- bare / this-> calls: same-class invalidators, std::move ---------
    if (is_call && (!after_access || via_this)) {
      const bool decl_style = !after_access && i > fn.body_begin &&
                              tok_ident(f.toks[i - 1]) &&
                              !is_keyword(f.toks[i - 1].text);
      if (!decl_style && want_views) {
        if (n == "move") {
          std::size_t close = f.partner[i + 1];
          if (close == i + 3 && tok_ident(f.toks[i + 2])) {
            pending.push_back(PendingInvalidation{
                close, false, f.toks[i + 2].text, {},
                "'std::move(" + f.toks[i + 2].text + ")'", t.line});
          }
        } else if (!fn.klass.empty()) {
          const MergedFunc* callee = resolve_call(f, i, fn.klass, corpus);
          if (callee != nullptr && callee->klass == fn.klass &&
              sums.may_invalidate(callee)) {
            pending.push_back(PendingInvalidation{
                f.partner[i + 1], true, "", callee->invalidates_args,
                "'" + n + "()' (" + describe_origin(sums.origin(callee)) +
                    ")",
                t.line});
          }
        }
      }
      continue;
    }

    // --- use of an invalidated view --------------------------------------
    if (want_views && !after_access) {
      auto vi = views.find(n);
      if (vi != views.end() && vi->second.invalid) {
        a.report("view-invalidation", f, t.line,
                 "view '" + n + "' into '" + vi->second.container +
                     "' (derived at line " +
                     std::to_string(vi->second.derived_line) +
                     ") is used after " + vi->second.invalidated_by +
                     " at line " +
                     std::to_string(vi->second.invalidated_line) +
                     " may have invalidated it; re-derive the view after "
                     "the mutation");
        views.erase(vi);  // one report per view
      }
    }
  }
}

// --- [dangling-return] ------------------------------------------------------

void check_returns(Analysis& a, const FuncDecl& fn, const Corpus& corpus,
                   const std::map<std::string, LocalInfo>& locals,
                   const std::map<std::string, std::string>& val_params) {
  const MergedFunc* self = merged_of(corpus, fn);
  std::string ret = fn.ret_head;
  if (ret.empty() && self != nullptr) ret = self->ret_head;
  const bool ret_ref = ret == "&";
  const bool ret_ptr = ret == "*";
  const bool ret_view = is_view_type_head(ret);
  if (!ret_ref && !ret_ptr && !ret_view) return;
  const FileData& f = *fn.file;

  // What does name X denote, and does its storage die with the frame?
  auto frame_owner = [&](const std::string& x, std::string* kind,
                         std::string* head) {
    auto li = locals.find(x);
    if (li != locals.end()) {
      if (li->second.is_reference) return false;  // referent isn't ours
      *kind = "local";
      *head = li->second.is_pointer ? "*" : li->second.type_head;
      return true;
    }
    auto pi = val_params.find(x);
    if (pi != val_params.end()) {
      *kind = "by-value parameter";
      *head = pi->second;
      return true;
    }
    return false;
  };

  for (std::size_t i = fn.body_begin; i < fn.body_end; ++i) {
    if (!tok_is(f.toks[i], "return")) continue;
    std::size_t j = i + 1;
    if (j >= fn.body_end || tok_is(f.toks[j], ";")) continue;
    std::string kind, head;

    // return &x;
    if (tok_is(f.toks[j], "&") && j + 2 < fn.body_end &&
        tok_ident(f.toks[j + 1]) && tok_is(f.toks[j + 2], ";")) {
      const std::string& x = f.toks[j + 1].text;
      if (ret_ptr && frame_owner(x, &kind, &head) && head != "*") {
        a.report("dangling-return", f, f.toks[j].line,
                 "returns the address of " + kind + " '" + x +
                     "'; the storage dies when the frame unwinds");
      }
      i = j + 2;
      continue;
    }

    // return x;
    if (tok_ident(f.toks[j]) && j + 1 < fn.body_end &&
        tok_is(f.toks[j + 1], ";")) {
      const std::string& x = f.toks[j].text;
      if (!is_keyword(x) && frame_owner(x, &kind, &head)) {
        if (ret_ref && head != "*") {
          a.report("dangling-return", f, f.toks[j].line,
                   "returns a reference to " + kind + " '" + x +
                       "'; the referent dies when the frame unwinds");
        } else if (ret_view && is_owning_type_head(head)) {
          a.report("dangling-return", f, f.toks[j].line,
                   "returns a " + ret + " into " + kind + " '" + x + "' (" +
                       head + "); the owner dies when the frame unwinds");
        }
      }
      i = j + 1;
      continue;
    }

    Rhs rhs = parse_rhs(f, j, fn.body_end);
    if (rhs.stop == kNone || rhs.stop >= fn.body_end ||
        !tok_is(f.toks[rhs.stop], ";")) {
      continue;  // a compound expression; stay quiet
    }
    const MergedFunc* rcallee =
        rhs.final_call_idx == kNone
            ? nullptr
            : resolve_call(f, rhs.final_call_idx, fn.klass, corpus);

    // return x.data(); / return x.c_str();
    if ((ret_ptr || ret_view) && rhs.chain.size() == 1 &&
        !rhs.first_is_call &&
        (rhs.final_call == "data" || rhs.final_call == "c_str") &&
        frame_owner(rhs.chain[0], &kind, &head) &&
        is_owning_type_head(head)) {
      a.report("dangling-return", f, f.toks[j].line,
               "returns a pointer/view into " + kind + " '" + rhs.chain[0] +
                   "' via ." + rhs.final_call +
                   "(); the owner dies when the frame unwinds");
      continue;
    }

    // return <temporary-producing call>; for view returns. A producer on
    // a known view-typed receiver (string_view::substr) yields a view the
    // caller's argument owns — not a temporary — and stays quiet.
    const bool temp_producer_return =
        (rhs.call_then_member && (is_always_view_method(rhs.final_call) ||
                                  is_temp_producer(rhs.final_call))) ||
        (!rhs.final_call.empty() && !rhs.first_is_call &&
         is_temp_producer(rhs.final_call) &&
         !known_view_receiver(rhs.chain, locals, val_params)) ||
        (rhs.first_is_call && rhs.final_call == rhs.first_call &&
         is_temp_producer(rhs.final_call)) ||
        (rcallee != nullptr && is_owning_type_head(rcallee->ret_head));
    if (ret_view && temp_producer_return) {
      a.report("dangling-return", f, f.toks[j].line,
               "returns a " + ret + " bound to a temporary ('" +
                   (rhs.call_then_member ? rhs.first_call : rhs.final_call) +
                   "' result); the owner dies before the caller can look");
    }
  }
}

// --- [temporary-bound-view] members -----------------------------------------

void check_member_views(Analysis& a, const Corpus& corpus) {
  for (const MemberSpan& s : corpus.member_spans) {
    const FileData& f = *s.file;
    std::size_t eq = kNone;
    for (std::size_t i = s.begin; i < s.end; ++i) {
      if (tok_is(f.toks[i], "=")) {
        eq = i;
        break;
      }
      if ((tok_is(f.toks[i], "(") || tok_is(f.toks[i], "{") ||
           tok_is(f.toks[i], "[")) &&
          f.partner[i] != kNone && f.partner[i] < s.end) {
        i = f.partner[i];
      }
    }
    if (eq == kNone || eq == s.begin) continue;
    std::size_t name_idx = kNone;
    for (std::size_t i = s.begin; i < eq; ++i) {
      if (tok_ident(f.toks[i]) && !is_keyword(f.toks[i].text) &&
          f.toks[i].text.rfind("IDS_", 0) != 0) {
        name_idx = i;
      }
    }
    if (name_idx == kNone) continue;
    DeclHead d = declarator_head(f, name_idx, s.begin);
    if (d.head.empty() || !is_view_type_head(d.head) || d.is_pointer ||
        d.is_reference) {
      continue;
    }
    Rhs rhs = parse_rhs(f, eq + 1, s.end);
    const MergedFunc* rcallee =
        rhs.final_call_idx == kNone
            ? nullptr
            : resolve_call(f, rhs.final_call_idx, s.klass, corpus);
    std::string bound_to;
    if (rhs.call_then_member && (is_always_view_method(rhs.final_call) ||
                                 is_temp_producer(rhs.final_call))) {
      bound_to = "the temporary returned by '" + rhs.first_call + "()'";
    } else if (!rhs.final_call.empty() && is_temp_producer(rhs.final_call) &&
               (rhs.first_is_call ? rhs.final_call == rhs.first_call
                                  : true)) {
      bound_to = "the '" + rhs.final_call + "(...)' result";
    } else if (rcallee != nullptr && is_owning_type_head(rcallee->ret_head)) {
      bound_to = "the temporary '" + rcallee->ret_head + "' returned by '" +
                 rhs.final_call + "()'";
    } else if (d.head == "string_view" && rhs.plus) {
      bound_to = "a '+' concatenation temporary";
    }
    if (bound_to.empty()) continue;
    const std::string qual =
        s.klass.empty() ? f.toks[name_idx].text
                        : s.klass + "::" + f.toks[name_idx].text;
    a.report("temporary-bound-view", f, f.toks[name_idx].line,
             d.head + " member '" + qual + "' is initialized from " +
                 bound_to + ", which dies before the member is ever read; "
                 "store an owning type instead");
  }
}

}  // namespace

void run_lifetime_rules(Analysis& a) {
  const Corpus& corpus = *a.corpus;
  const bool want_views = a.rule_enabled("view-invalidation");
  const bool want_ret = a.rule_enabled("dangling-return");
  const bool want_temp = a.rule_enabled("temporary-bound-view");
  const bool want_task = a.rule_enabled("task-outlives-capture");
  if (!want_views && !want_ret && !want_temp && !want_task) return;

  InvalidationSummaries sums;
  if (want_views) sums = compute_invalidation_summaries(corpus, *a.graph);

  for (const FuncDecl& fn : corpus.funcs) {
    if (!fn.has_body()) continue;
    const std::map<std::string, LocalInfo> locals = collect_locals_typed(fn);
    const std::map<std::string, std::string> val_params =
        by_value_params_typed(fn);
    if (want_views || want_temp) {
      std::set<std::string> frame;
      for (const auto& [n, info] : locals) frame.insert(n);
      for (const std::string& p : param_names(fn)) frame.insert(p);
      scan_body(a, fn, corpus, sums, locals, val_params, frame);
    }
    if (want_ret) check_returns(a, fn, corpus, locals, val_params);
  }
  if (want_temp) check_member_views(a, corpus);
  if (want_task) {
    std::set<const MergedFunc*> spawners = compute_async_spawners(corpus);
    for (const EscapeFinding& e : find_task_lifetime(corpus, spawners)) {
      a.findings.push_back({"task-outlives-capture", e.path, e.line,
                            e.message, {}, false});
    }
  }
}

}  // namespace ids::analyzer
