#include "escape.h"

#include <algorithm>

#include "lifetime.h"

namespace ids::analyzer {
namespace {

bool is_pool_sink_name(const std::string& n) {
  return n == "parallel_for" || n == "submit";
}

bool is_assign_op(const std::string& t) {
  static const std::set<std::string> kOps = {
      "=",  "+=", "-=",  "*=",  "/=",  "%=",
      "&=", "|=", "^=", "<<=", ">>="};
  return kOps.count(t) != 0;
}

const MergedFunc* merged_of(const Corpus& corpus, const FuncDecl& fn) {
  auto ci = corpus.merged.find(fn.klass);
  if (ci == corpus.merged.end()) return nullptr;
  auto mi = ci->second.find(fn.name);
  return mi == ci->second.end() ? nullptr : &mi->second;
}

/// Does the call at name-token `i` spawn onto the pool? By name for the
/// pool's own entry points, by unique resolution for wrappers.
bool call_spawns(const FileData& f, std::size_t i, const FuncDecl& fn,
                 const Corpus& corpus,
                 const std::set<const MergedFunc*>& spawners) {
  const std::string& n = f.toks[i].text;
  if (is_pool_sink_name(n)) return true;
  const MergedFunc* target = resolve_call(f, i, fn.klass, corpus);
  return target != nullptr && spawners.count(target) != 0;
}

struct Captures {
  bool default_ref = false;  // [&]
  bool default_val = false;  // [=]  (still captures `this` by pointer)
  bool this_cap = false;     // [this]
  bool this_by_val = false;  // [*this] — members become task-local copies
  std::set<std::string> by_ref;
  std::set<std::string> by_val;
};

Captures parse_captures(const FileData& f, std::size_t open,
                        std::size_t close) {
  Captures c;
  int depth = 0;
  std::vector<std::size_t> item;  // token indices of the current item
  auto flush = [&] {
    if (item.empty()) return;
    const std::string& first = f.toks[item[0]].text;
    if (item.size() == 1) {
      if (first == "&") c.default_ref = true;
      else if (first == "=") c.default_val = true;
      else if (first == "this") c.this_cap = true;
      else if (tok_ident(f.toks[item[0]])) c.by_val.insert(first);
    } else if (first == "*" && f.toks[item[1]].text == "this") {
      c.this_by_val = true;
    } else if (first == "&" && tok_ident(f.toks[item[1]])) {
      c.by_ref.insert(f.toks[item[1]].text);  // &x and &x = expr
    } else if (tok_ident(f.toks[item[0]])) {
      c.by_val.insert(first);  // x = expr init-capture
    }
    item.clear();
  };
  for (std::size_t i = open + 1; i < close; ++i) {
    const std::string& t = f.toks[i].text;
    if (f.toks[i].kind == Token::Kind::kPunct) {
      if (t == "(" || t == "[" || t == "{") ++depth;
      else if (t == ")" || t == "]" || t == "}") --depth;
      else if (t == "," && depth == 0) {
        flush();
        continue;
      }
    }
    if (depth == 0) item.push_back(i);
  }
  flush();
  return c;
}

/// Names declared inside [begin, end): `Type name`, `Type& name`,
/// `auto [a, b]` bindings, and every identifier of a parameter list region
/// (over-broad for the latter — type names are never mutated, so the
/// extra entries are harmless).
void collect_locals(const FileData& f, std::size_t begin, std::size_t end,
                    std::set<std::string>* locals) {
  for (std::size_t i = begin; i < end; ++i) {
    if (!tok_ident(f.toks[i]) || is_keyword(f.toks[i].text)) continue;
    std::size_t p = i;
    while (p > begin && (tok_is(f.toks[p - 1], "&") ||
                         tok_is(f.toks[p - 1], "&&") ||
                         tok_is(f.toks[p - 1], "*") ||
                         tok_is(f.toks[p - 1], ">") ||
                         tok_is(f.toks[p - 1], ">>"))) {
      --p;
    }
    if (p > begin && tok_ident(f.toks[p - 1]) &&
        !is_keyword(f.toks[p - 1].text) &&
        f.toks[p - 1].text.rfind("IDS_", 0) != 0) {
      locals->insert(f.toks[i].text);
    }
    // Structured bindings: auto [a, b] = / auto& [a, b] :
    if (tok_is(f.toks[p > begin ? p - 1 : p], "auto")) {
      locals->insert(f.toks[i].text);
    }
  }
  // auto [a, b] — the bracket group's idents.
  for (std::size_t i = begin; i + 1 < end; ++i) {
    if (!tok_is(f.toks[i], "auto")) continue;
    std::size_t j = i + 1;
    while (j < end && (tok_is(f.toks[j], "&") || tok_is(f.toks[j], "&&"))) ++j;
    if (j < end && tok_is(f.toks[j], "[") && f.partner[j] != kNone &&
        f.partner[j] < end) {
      for (std::size_t k = j + 1; k < f.partner[j]; ++k) {
        if (tok_ident(f.toks[k])) locals->insert(f.toks[k].text);
      }
    }
  }
}

/// True when the statement (within the enclosing function, before the
/// lambda) declaring `name` spells an atomic or Mutex type — a by-ref
/// capture of such a variable is synchronized by construction.
bool declared_synchronized(const FileData& f, const FuncDecl& fn,
                           std::size_t before, const std::string& name,
                           bool* found) {
  *found = false;
  for (auto [sb, se] : statements(f, fn.body_begin, before)) {
    bool has_name = false, has_sync = false;
    for (std::size_t i = sb; i < se; ++i) {
      if (!tok_ident(f.toks[i])) continue;
      if (f.toks[i].text == name) has_name = true;
      if (f.toks[i].text.rfind("atomic", 0) == 0 ||
          f.toks[i].text == "Mutex") {
        has_sync = true;
      }
    }
    if (has_name) {
      *found = true;
      return has_sync;
    }
  }
  return false;
}

/// Analyzes one lambda argument of a spawner call. Returns the index of
/// the lambda's closing body brace (so the caller can skip nested lambdas
/// — they run synchronously inside the task and their mutations are
/// judged against the *task's* locals, not as tasks of their own), or the
/// capture-list close when the lambda does not parse.
std::size_t analyze_lambda(const FuncDecl& fn, const Corpus& corpus,
                           const FieldTable& fields,
                           const std::string& spawn_name,
                           std::size_t cap_open, std::size_t call_close,
                           std::vector<EscapeFinding>* out) {
  const FileData& f = *fn.file;
  std::size_t cap_close = f.partner[cap_open];
  if (cap_close == kNone || cap_close >= call_close) return cap_open;
  Captures caps = parse_captures(f, cap_open, cap_close);

  std::set<std::string> locals;
  std::size_t p = cap_close + 1;
  if (p < call_close && tok_is(f.toks[p], "(") && f.partner[p] != kNone) {
    for (std::size_t k = p + 1; k < f.partner[p]; ++k) {
      if (tok_ident(f.toks[k])) locals.insert(f.toks[k].text);
    }
    p = f.partner[p] + 1;
  }
  while (p < call_close && !tok_is(f.toks[p], "{")) {
    if ((tok_is(f.toks[p], "(") || tok_is(f.toks[p], "[")) &&
        f.partner[p] != kNone) {
      p = f.partner[p] + 1;  // noexcept(...), attribute
    } else {
      ++p;  // mutable, ->, trailing return tokens
    }
  }
  if (p >= call_close || f.partner[p] == kNone) return cap_close;
  const std::size_t body_begin = p + 1, body_end = f.partner[p];
  collect_locals(f, body_begin, body_end, &locals);

  const std::set<std::string> fn_params = [&] {
    auto v = param_names(fn);
    return std::set<std::string>(v.begin(), v.end());
  }();

  // Brace-relative lock tracking inside the task body: any MutexLock the
  // task itself takes protects the rest of its scope.
  int depth = 0;
  std::vector<int> guard_depths;
  for (std::size_t i = body_begin; i < body_end; ++i) {
    const Token& t = f.toks[i];
    if (tok_is(t, "{")) {
      ++depth;
      continue;
    }
    if (tok_is(t, "}")) {
      guard_depths.erase(std::remove(guard_depths.begin(), guard_depths.end(),
                                     depth),
                         guard_depths.end());
      depth = std::max(0, depth - 1);
      continue;
    }
    if (!tok_ident(t)) continue;
    if (t.text == "MutexLock" && i + 2 < body_end &&
        tok_ident(f.toks[i + 1]) && tok_is(f.toks[i + 2], "(")) {
      guard_depths.push_back(depth);
      continue;
    }
    if (is_keyword(t.text)) continue;
    const std::string& n = t.text;

    // Receiver resolution: bare names and `this->member`; other member
    // accesses were already considered at their receiver token.
    bool via_this = false;
    if (i > body_begin && (tok_is(f.toks[i - 1], ".") ||
                           tok_is(f.toks[i - 1], "->") ||
                           tok_is(f.toks[i - 1], "::"))) {
      via_this = i >= 2 && tok_is(f.toks[i - 1], "->") &&
                 tok_is(f.toks[i - 2], "this");
      if (!via_this) continue;
    }

    // Subscripted access is the sanctioned per-rank disjoint-slot pattern.
    std::size_t j = i + 1;
    bool subscripted = false;
    while (j < body_end && tok_is(f.toks[j], "[") && f.partner[j] != kNone &&
           f.partner[j] < body_end) {
      j = f.partner[j] + 1;
      subscripted = true;
    }
    if (subscripted) continue;

    bool mutation = false;
    std::string how;
    if (j < body_end) {
      const std::string& op = f.toks[j].text;
      if (is_assign_op(op) || op == "++" || op == "--") {
        mutation = true;
        how = "'" + op + "'";
      } else if ((tok_is(f.toks[j], ".") || tok_is(f.toks[j], "->")) &&
                 j + 2 < body_end && tok_ident(f.toks[j + 1]) &&
                 tok_is(f.toks[j + 2], "(") &&
                 is_mutating_container_method(f.toks[j + 1].text)) {
        mutation = true;
        how = "." + f.toks[j + 1].text + "()";
      }
    }
    if (!mutation && i > body_begin &&
        (tok_is(f.toks[i - 1], "++") || tok_is(f.toks[i - 1], "--"))) {
      mutation = true;
      how = "'" + f.toks[i - 1].text + "'";
    }
    if (!mutation) continue;
    if (!guard_depths.empty()) continue;  // task holds its own lock
    if (!via_this && (locals.count(n) != 0 || caps.by_val.count(n) != 0)) {
      continue;
    }

    // Member of the enclosing class, reached through a captured `this`.
    const FieldInfo* field = fields.find(fn.klass, n);
    if (field != nullptr || via_this) {
      const bool this_escapes =
          caps.this_cap || caps.default_ref || caps.default_val;
      if (!this_escapes || caps.this_by_val) continue;
      if (field == nullptr) continue;  // unmodeled member
      if (field->protected_state()) continue;
      if (!field->type_class.empty() &&
          fields.class_safe(field->type_class) &&
          corpus.merged.count(field->type_class) != 0) {
        continue;  // internally-synchronized receiver class
      }
      out->push_back(
          {f.path, t.line,
           "task passed to '" + spawn_name + "' mutates member '" +
               field->qualified() + "' (" + how +
               ") through captured 'this' without a lock; guard it, make "
               "it atomic, or give each task its own slot"});
      continue;
    }

    // By-reference captured local (explicit, or implicit via [&]).
    const bool explicit_ref = caps.by_ref.count(n) != 0;
    if (!explicit_ref && !caps.default_ref) continue;
    if (fn_params.count(n) != 0) continue;  // origin unknown; stay quiet
    bool found = false;
    const bool synced = declared_synchronized(f, fn, cap_open, n, &found);
    if (synced) continue;
    if (!found && !explicit_ref) continue;  // likely a global or a function
    out->push_back(
        {f.path, t.line,
         "task passed to '" + spawn_name + "' mutates by-reference capture '" +
             n + "' (" + how +
         ") without a lock or atomic type; every pool worker shares it"});
  }
  return body_end;  // the closing brace: the lambda's full extent
}

/// A wait point that pins the submitted task's lifetime to the frame:
/// once the body reaches one after the submit, the captures outlive the
/// task and [task-outlives-capture] stays quiet.
bool is_join_name(const std::string& n) {
  static const std::set<std::string> kJoins = {
      "wait",      "get",        "join",           "wait_all",
      "wait_idle", "drain",      "wait_for_tasks", "wait_until_idle",
      "sync"};
  return kJoins.count(n) != 0;
}

/// One lambda handed to an async spawner in a frame with no later join:
/// flags by-ref captures of frame state, [&]-implicit references, and an
/// escaping `this`. Returns the closing body-brace index (skip extent).
std::size_t check_task_lambda(const FuncDecl& fn,
                              const std::string& spawn_name,
                              std::size_t cap_open, std::size_t call_close,
                              std::vector<EscapeFinding>* out) {
  const FileData& f = *fn.file;
  std::size_t cap_close = f.partner[cap_open];
  if (cap_close == kNone || cap_close >= call_close) return cap_open;
  Captures caps = parse_captures(f, cap_open, cap_close);
  const int line = f.toks[cap_open].line;

  std::set<std::string> task_locals;
  std::size_t p = cap_close + 1;
  if (p < call_close && tok_is(f.toks[p], "(") && f.partner[p] != kNone) {
    for (std::size_t k = p + 1; k < f.partner[p]; ++k) {
      if (tok_ident(f.toks[k])) task_locals.insert(f.toks[k].text);
    }
    p = f.partner[p] + 1;
  }
  while (p < call_close && !tok_is(f.toks[p], "{")) {
    if ((tok_is(f.toks[p], "(") || tok_is(f.toks[p], "[")) &&
        f.partner[p] != kNone) {
      p = f.partner[p] + 1;
    } else {
      ++p;
    }
  }
  if (p >= call_close || f.partner[p] == kNone) return cap_close;
  const std::size_t body_begin = p + 1, body_end = f.partner[p];
  collect_locals(f, body_begin, body_end, &task_locals);

  // Frame state the capture can dangle on: locals declared before the
  // lambda plus by-value parameters. Reference parameters stay out — their
  // referent belongs to the caller, whose lifetime this frame cannot see.
  std::set<std::string> frame;
  collect_locals(f, fn.body_begin, cap_open, &frame);
  for (const auto& [pn, head] : by_value_params_typed(fn)) frame.insert(pn);

  auto report = [&](const std::string& what, const std::string& how) {
    out->push_back(
        {f.path, line,
         "task passed to '" + spawn_name + "' captures " + what + " " + how +
             " but '" + fn.name + "' never joins it; the capture dangles "
             "if the task outlives the frame — capture by value, or "
             "wait/join before returning"});
  };
  std::set<std::string> flagged;
  for (const std::string& nm : caps.by_ref) {
    if (frame.count(nm) != 0 && flagged.insert(nm).second) {
      report("'" + nm + "'", "by reference");
    }
  }
  if (caps.default_ref) {
    for (std::size_t k = body_begin; k < body_end; ++k) {
      if (!tok_ident(f.toks[k]) || is_keyword(f.toks[k].text)) continue;
      const std::string& nm = f.toks[k].text;
      if (k > body_begin && (tok_is(f.toks[k - 1], ".") ||
                             tok_is(f.toks[k - 1], "->") ||
                             tok_is(f.toks[k - 1], "::"))) {
        continue;
      }
      if (k + 1 < body_end && tok_is(f.toks[k + 1], "(")) continue;  // call
      if (frame.count(nm) == 0 || task_locals.count(nm) != 0) continue;
      if (caps.by_val.count(nm) != 0 || caps.by_ref.count(nm) != 0) continue;
      if (flagged.insert(nm).second) {
        report("'" + nm + "'", "by reference (via [&])");
      }
    }
  }
  bool this_escapes = caps.this_cap;
  if (!this_escapes && (caps.default_ref || caps.default_val)) {
    for (std::size_t k = body_begin; k < body_end && !this_escapes; ++k) {
      if (tok_is(f.toks[k], "this")) this_escapes = true;
    }
  }
  if (this_escapes && !caps.this_by_val && !fn.klass.empty()) {
    report("'this'", "by pointer");
  }
  return body_end;
}

/// The shared spawner fixed point: seed by name, then absorb every
/// function that forwards one of its own parameters into a spawner call.
std::set<const MergedFunc*> spawner_fixed_point(
    const Corpus& corpus, const std::vector<const char*>& seeds) {
  std::set<const MergedFunc*> spawners;
  for (const char* s : seeds) {
    auto it = corpus.by_name.find(s);
    if (it == corpus.by_name.end()) continue;
    for (MergedFunc* m : it->second) spawners.insert(m);
  }
  auto name_is_seed = [&](const std::string& n) {
    for (const char* s : seeds) {
      if (n == s) return true;
    }
    return false;
  };
  for (bool changed = true; changed;) {
    changed = false;
    for (const FuncDecl& fn : corpus.funcs) {
      if (!fn.has_body()) continue;
      const MergedFunc* self = merged_of(corpus, fn);
      if (self == nullptr || spawners.count(self) != 0) continue;
      std::vector<std::string> params = param_names(fn);
      if (params.empty()) continue;
      const FileData& f = *fn.file;
      bool spawns = false;
      for (std::size_t i = fn.body_begin; i + 1 < fn.body_end && !spawns;
           ++i) {
        if (!tok_ident(f.toks[i]) || !tok_is(f.toks[i + 1], "(")) continue;
        const std::string& n = f.toks[i].text;
        if (is_keyword(n) || is_macro_name(n)) continue;
        if (!name_is_seed(n)) {
          const MergedFunc* target = resolve_call(f, i, fn.klass, corpus);
          if (target == nullptr || spawners.count(target) == 0) continue;
        }
        std::size_t close = f.partner[i + 1];
        if (close == kNone || close > fn.body_end) continue;
        for (std::size_t k = i + 2; k < close; ++k) {
          if (tok_ident(f.toks[k]) &&
              std::find(params.begin(), params.end(), f.toks[k].text) !=
                  params.end()) {
            spawns = true;
            break;
          }
        }
      }
      if (spawns) {
        spawners.insert(self);
        changed = true;
      }
    }
  }
  return spawners;
}

}  // namespace

std::set<const MergedFunc*> compute_spawners(const Corpus& corpus) {
  return spawner_fixed_point(corpus, {"parallel_for", "submit"});
}

std::set<const MergedFunc*> compute_async_spawners(const Corpus& corpus) {
  return spawner_fixed_point(corpus, {"submit"});
}

std::vector<EscapeFinding> find_escapes(
    const Corpus& corpus, const FieldTable& fields,
    const std::set<const MergedFunc*>& spawners) {
  std::vector<EscapeFinding> out;
  for (const FuncDecl& fn : corpus.funcs) {
    if (!fn.has_body()) continue;
    const FileData& f = *fn.file;
    for (std::size_t i = fn.body_begin; i + 1 < fn.body_end; ++i) {
      if (!tok_ident(f.toks[i]) || !tok_is(f.toks[i + 1], "(")) continue;
      const std::string& n = f.toks[i].text;
      if (is_keyword(n) || is_macro_name(n)) continue;
      // `Type var(init)` declarations are not calls.
      if (i > fn.body_begin && tok_ident(f.toks[i - 1]) &&
          !is_keyword(f.toks[i - 1].text)) {
        continue;
      }
      if (!call_spawns(f, i, fn, corpus, spawners)) continue;
      std::size_t close = f.partner[i + 1];
      if (close == kNone || close > fn.body_end) continue;
      for (std::size_t k = i + 2; k < close; ++k) {
        if (!tok_is(f.toks[k], "[") || f.partner[k] == kNone ||
            f.partner[k] >= close) {
          continue;
        }
        // Lambda introducers follow '(' or ','; subscripts follow a value.
        if (!tok_is(f.toks[k - 1], "(") && !tok_is(f.toks[k - 1], ",")) {
          continue;
        }
        k = analyze_lambda(fn, corpus, fields, n, k, close, &out);
      }
      i = close;
    }
  }
  return out;
}

std::vector<EscapeFinding> find_task_lifetime(
    const Corpus& corpus, const std::set<const MergedFunc*>& async_spawners) {
  std::vector<EscapeFinding> out;
  for (const FuncDecl& fn : corpus.funcs) {
    if (!fn.has_body()) continue;
    const FileData& f = *fn.file;
    for (std::size_t i = fn.body_begin; i + 1 < fn.body_end; ++i) {
      if (!tok_ident(f.toks[i]) || !tok_is(f.toks[i + 1], "(")) continue;
      const std::string& n = f.toks[i].text;
      if (is_keyword(n) || is_macro_name(n)) continue;
      if (i > fn.body_begin && tok_ident(f.toks[i - 1]) &&
          !is_keyword(f.toks[i - 1].text)) {
        continue;  // `Type var(init)` declaration
      }
      bool spawns = n == "submit";
      if (!spawns) {
        const MergedFunc* target = resolve_call(f, i, fn.klass, corpus);
        spawns = target != nullptr && async_spawners.count(target) != 0;
      }
      if (!spawns) continue;
      std::size_t close = f.partner[i + 1];
      if (close == kNone || close > fn.body_end) continue;
      // A later wait/join in the same body pins the task to the frame.
      bool joined = false;
      for (std::size_t k = close; k + 1 < fn.body_end && !joined; ++k) {
        if (tok_ident(f.toks[k]) && is_join_name(f.toks[k].text) &&
            tok_is(f.toks[k + 1], "(")) {
          joined = true;
        }
      }
      if (joined) {
        i = close;
        continue;
      }
      for (std::size_t k = i + 2; k < close; ++k) {
        if (!tok_is(f.toks[k], "[") || f.partner[k] == kNone ||
            f.partner[k] >= close) {
          continue;
        }
        if (!tok_is(f.toks[k - 1], "(") && !tok_is(f.toks[k - 1], ",")) {
          continue;
        }
        k = check_task_lambda(fn, n, k, close, &out);
      }
      i = close;
    }
  }
  return out;
}

}  // namespace ids::analyzer
