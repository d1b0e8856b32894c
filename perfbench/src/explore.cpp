// The explore workload: one user's interactive session against a larger
// graph with the keyword and vector stores built, through the deployment
// client (text queries are parsed; IVF clauses have no text syntax, so
// they go in as ASTs). A pass is a fixed, seeded script of short
// operations, one in twenty an update. Each pass starts from a clean
// profile store and a forced module reload, so every pass repeats its
// answers and modeled clocks exactly; the updates add facts under a
// predicate no query reads, so they change no answer, and re-send the
// same facts every pass, so the store stops growing after the first.

#include <algorithm>
#include <array>
#include <cstdio>
#include <map>
#include <optional>

#include "common/check.h"
#include "common/rng.h"
#include "core/parser.h"
#include "models/pic50.h"
#include "store/ivf_index.h"
#include "workloads.h"

namespace perfbench {

using namespace ids;

namespace {

constexpr int kRanks = 32;
constexpr int kReadsPerUpdate = 19;  // 1 operation in 20 is an update
constexpr std::size_t kTopK = 10;
constexpr std::size_t kNone = static_cast<std::size_t>(-1);

datagen::LifeSciConfig explore_config(std::uint64_t seed) {
  datagen::LifeSciConfig cfg;
  cfg.num_families = 1000;  // ~184k triples
  cfg.proteins_per_family = 20;
  cfg.num_related_families = 5;
  cfg.compounds_per_family = 40;
  cfg.seq_len_mean = 200;
  cfg.seq_len_jitter = 40;
  cfg.seed = input_seed(seed, 0xe4b1);
  return cfg;
}

enum class Kind { kKeyword, kVector, kJoin, kFeature, kPic50, kSw, kIvf, kUpdate };
constexpr int kReadKinds = 7;  // every kind but kUpdate
const char* const kKindNames[kReadKinds] = {"keyword", "vector", "join", "feature",
                                            "pic50",   "sw",     "ivf"};

/// Rows an answer must hold over the named id columns, worked out from
/// direct store and graph calls rather than through the engine. Sorted.
struct Expected {
  std::vector<std::string> vars;
  std::vector<std::vector<graph::TermId>> rows;
};

struct Op {
  Kind kind = Kind::kJoin;
  std::string text;                  // text queries
  std::optional<core::Query> ast;    // IVF queries
  std::vector<std::string> tokens;   // keyword ops
  std::vector<float> vec;            // vector and IVF ops
  graph::TermId family = graph::kInvalidTerm;  // feature ops
  std::int64_t min_length = 0;       // feature ops
  double min_pic50 = 0.0;            // pic50 ops
  int nprobe = 0;
  int read_id = -1;                  // fresh reads are numbered; repeats share it
  bool repeat = false;               // re-issues an earlier read verbatim
  std::size_t repeats = kNone;       // script index of the read it repeats
  std::optional<Expected> expected;  // keyword, vector, IVF, feature, pic50
};

std::string vector_text(const std::vector<float>& v) {
  std::string out = "[";
  char buf[32];
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s%.9g", i ? ", " : "", static_cast<double>(v[i]));
    out += buf;
  }
  return out + "]";
}

/// Reads per pass: every read kind weighs the same, with kFresh fresh
/// reads and kRepeats repeats of an earlier read of that kind. No measured
/// traffic stands behind these counts (neither the paper nor the related
/// work gives a query mix for an exploration session), so the weights are
/// equal rather than guessed; each kind's share of the read time is
/// reported beside the percentiles. Fixed counts give every seed the same
/// mix; the seed picks each read's parameters and the order. 91 reads and
/// 4 updates make 95 operations.
constexpr int kFresh = 10;
constexpr int kRepeats = 3;

Op make_read(Kind kind, Rng& rng, const datagen::LifeSciConfig& cfg,
             const datagen::LifeSciDataset& ds, deploy::IdsSession& s) {
  const int f = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(cfg.num_families)));
  const std::string fam = "bio:family/" + std::to_string(f);
  const graph::TermId prot =
      ds.proteins[static_cast<std::size_t>(f * cfg.proteins_per_family) +
                  rng.next_below(static_cast<std::uint64_t>(cfg.proteins_per_family))];
  Op op;
  op.kind = kind;
  switch (kind) {
    case Kind::kKeyword:
      op.tokens = {"family", std::to_string(f), rng.bernoulli(0.5) ? "reviewed" : "unreviewed"};
      op.text = "SELECT ?c ?p WHERE { ?c chembl:inhibits ?p } KEYWORD ?p MATCHES ALL (\"" +
                op.tokens[0] + "\", \"" + op.tokens[1] + "\", \"" + op.tokens[2] + "\")";
      break;
    case Kind::kVector: {
      auto v = s.vectors().get(prot);
      op.vec.assign(v.begin(), v.end());
      op.text = "SELECT ?c ?p WHERE { ?c chembl:inhibits ?p } VECTOR ?p NEAREST " +
                std::to_string(kTopK) + " COSINE " + vector_text(op.vec);
      break;
    }
    case Kind::kJoin:
      op.text = "SELECT ?c ?q WHERE { ?p bio:inFamily " + fam +
                " . ?c chembl:inhibits ?p . ?c chembl:inhibits ?q . ?q up:reviewed \"true\" }";
      break;
    case Kind::kFeature:
      op.family = s.triples().dict().lookup(fam).value_or(graph::kInvalidTerm);
      op.min_length = cfg.seq_len_mean - 20 + static_cast<int>(rng.next_below(40));
      op.text = "SELECT ?p WHERE { ?p bio:inFamily " + fam + " } FILTER ?p.length > " +
                std::to_string(op.min_length);
      break;
    case Kind::kPic50: {
      const int min_pic50 = 7 + static_cast<int>(rng.next_below(2));
      op.min_pic50 = min_pic50;
      op.text = "SELECT ?c WHERE { ?c rdf:type bio:Compound } FILTER ncnpr.pic50(?c) >= " +
                std::to_string(min_pic50);
      break;
    }
    case Kind::kSw:
      op.text = "SELECT ?p WHERE { ?p bio:inFamily " + fam +
                " } FILTER ncnpr.sw_similarity(?p) >= 0.3";
      break;
    case Kind::kIvf: {
      auto v = s.vectors().get(prot);
      op.vec.assign(v.begin(), v.end());
      op.nprobe = 2 + static_cast<int>(rng.next_below(3));
      const auto& dict = s.triples().dict();
      core::Query q;
      q.patterns.push_back(
          {graph::PatternTerm::Var("p"),
           graph::PatternTerm::Const(dict.lookup(datagen::Vocab::kType).value_or(graph::kInvalidTerm)),
           graph::PatternTerm::Const(
               dict.lookup(datagen::Vocab::kProtein).value_or(graph::kInvalidTerm))});
      core::VectorClause vc;
      vc.var = "p";
      vc.query = op.vec;
      vc.k = kTopK;
      vc.ivf_nprobe = op.nprobe;
      q.vectors.push_back(std::move(vc));
      q.select = {"p"};
      op.ast = std::move(q);
      break;
    }
    case Kind::kUpdate:
      break;
  }
  return op;
}

/// Subjects `s` of every (s, p, o) with the given constant p and o.
std::vector<graph::TermId> subjects(const graph::TripleStore& triples, graph::TermId p,
                                    graph::TermId o) {
  std::vector<graph::TermId> out;
  for (const graph::Triple& t : triples.match_all({graph::PatternTerm::Var("s"),
                                                   graph::PatternTerm::Const(p),
                                                   graph::PatternTerm::Const(o)})) {
    out.push_back(t.s);
  }
  return out;
}

/// The answer of a keyword, vector, IVF, feature or pIC50 read, without
/// the engine: keyword hits from InvertedIndex::search_and, exact top-k
/// from VectorStore::topk, IVF top-k from a per-shard IvfIndex merged the
/// way the engine merges shards, the feature filter from FeatureStore and
/// the pIC50 filter through models::pic50_from_ic50_nm, each joined with
/// the query's pattern through TripleStore::match_all. Joins and SW
/// filters get none; they are checked by the reference and by repeats.
std::optional<Expected> expected_rows(const Op& op, deploy::IdsSession& s) {
  const graph::TripleStore& triples = s.triples();
  auto id = [&](const char* iri) {
    return triples.dict().lookup(iri).value_or(graph::kInvalidTerm);
  };
  std::vector<graph::TermId> hits;
  Expected want;
  switch (op.kind) {
    case Kind::kKeyword:
      hits = s.keywords().search_and(op.tokens);
      break;
    case Kind::kVector:
      for (const store::VectorHit& h : s.vectors().topk(op.vec, kTopK, store::Metric::kCosine)) {
        hits.push_back(h.id);
      }
      break;
    case Kind::kIvf: {
      const core::VectorClause& vc = op.ast->vectors[0];
      store::IvfIndex::Params params;
      params.num_clusters = vc.ivf_clusters;
      std::vector<store::VectorHit> all;
      for (int r = 0; r < s.vectors().num_shards(); ++r) {
        auto part = store::IvfIndex(s.vectors(), r, params).topk(vc.query, vc.k, vc.metric,
                                                                  vc.ivf_nprobe);
        all.insert(all.end(), part.begin(), part.end());
      }
      std::sort(all.begin(), all.end(), [](const store::VectorHit& a, const store::VectorHit& b) {
        return a.score != b.score ? a.score > b.score : a.id < b.id;
      });
      if (all.size() > vc.k) all.resize(vc.k);
      const auto proteins = subjects(triples, id(datagen::Vocab::kType),
                                     id(datagen::Vocab::kProtein));
      want.vars = {"p"};
      for (const store::VectorHit& h : all) {
        if (std::find(proteins.begin(), proteins.end(), h.id) != proteins.end()) {
          want.rows.push_back({h.id});
        }
      }
      break;
    }
    case Kind::kFeature:
      want.vars = {"p"};
      for (graph::TermId p : subjects(triples, id(datagen::Vocab::kInFamily), op.family)) {
        auto len = s.features().get_int(p, datagen::Feat::kLength);
        if (len && *len > op.min_length) want.rows.push_back({p});
      }
      break;
    case Kind::kPic50:
      want.vars = {"c"};
      for (graph::TermId c : subjects(triples, id(datagen::Vocab::kType),
                                      id(datagen::Vocab::kCompound))) {
        auto ic50 = s.features().get_double(c, datagen::Feat::kIc50Nm);
        auto pic50 = ic50 ? models::pic50_from_ic50_nm(*ic50) : std::nullopt;
        if (pic50 && *pic50 >= op.min_pic50) want.rows.push_back({c});
      }
      break;
    default:
      return std::nullopt;
  }
  if (op.kind == Kind::kKeyword || op.kind == Kind::kVector) {
    want.vars = {"c", "p"};
    for (graph::TermId p : hits) {
      for (graph::TermId c : subjects(triples, id(datagen::Vocab::kInhibits), p)) {
        want.rows.push_back({c, p});
      }
    }
  }
  std::sort(want.rows.begin(), want.rows.end());
  return want;
}

/// True when the answer's id columns are exactly `want.vars` and its rows,
/// sorted, are `want.rows`.
bool matches(const core::QueryResult& r, const Expected& want) {
  const auto& t = r.solutions;
  if (t.id_vars().size() != want.vars.size() || t.num_rows() != want.rows.size()) return false;
  std::vector<int> cols;
  for (const auto& v : want.vars) {
    cols.push_back(t.id_var_index(v));
    if (cols.back() < 0) return false;
  }
  std::vector<std::vector<graph::TermId>> got(t.num_rows());
  for (std::size_t row = 0; row < t.num_rows(); ++row) {
    for (int c : cols) got[row].push_back(t.id_at(row, c));
  }
  std::sort(got.begin(), got.end());
  return got == want.rows;
}

/// The seeded session script: kFresh reads of every kind in a seeded
/// order, kRepeats repeats of each kind placed after the read they repeat,
/// and an update after every kReadsPerUpdate reads.
std::vector<Op> make_script(std::uint64_t seed, const datagen::LifeSciConfig& cfg,
                            const datagen::LifeSciDataset& ds, deploy::IdsSession& s) {
  Rng rng(input_seed(seed, 0x5c41));
  std::vector<Op> reads;
  for (int k = 0; k < kReadKinds; ++k) {
    for (int i = 0; i < kFresh; ++i) {
      reads.push_back(make_read(static_cast<Kind>(k), rng, cfg, ds, s));
      reads.back().read_id = static_cast<int>(reads.size()) - 1;
      reads.back().expected = expected_rows(reads.back(), s);
    }
  }
  for (std::size_t i = reads.size(); i > 1; --i) {
    std::swap(reads[i - 1], reads[rng.next_below(i)]);
  }
  for (int k = 0; k < kReadKinds; ++k) {
    for (int r = 0; r < kRepeats; ++r) {
      std::vector<std::size_t> same;
      for (std::size_t i = 0; i < reads.size(); ++i) {
        if (reads[i].kind == static_cast<Kind>(k) && !reads[i].repeat) same.push_back(i);
      }
      const std::size_t orig = same[rng.next_below(same.size())];
      Op copy = reads[orig];
      copy.repeat = true;
      const std::size_t pos = orig + 1 + rng.next_below(reads.size() - orig);
      reads.insert(reads.begin() + static_cast<std::ptrdiff_t>(pos), std::move(copy));
    }
  }
  std::vector<Op> ops;
  std::map<int, std::size_t> first;  // read_id -> script index of the fresh read
  for (std::size_t i = 0; i < reads.size(); ++i) {
    Op& op = reads[i];
    if (op.repeat) op.repeats = first.at(op.read_id);
    else first[op.read_id] = ops.size();
    ops.push_back(std::move(op));
    if ((i + 1) % kReadsPerUpdate == 0) ops.emplace_back().kind = Kind::kUpdate;
  }
  return ops;
}

struct Explore {
  deploy::DatastoreLauncher launcher;
  deploy::SessionId id = 0;
  deploy::IdsSession* session = nullptr;
  datagen::LifeSciDataset dataset;
};

std::unique_ptr<Explore> setup(Recorder& rec, const datagen::LifeSciConfig& cfg) {
  auto e = std::make_unique<Explore>();
  core::EngineOptions opts;
  opts.topology = runtime::Topology::laptop(kRanks);
  auto sid = e->launcher.launch(opts);
  IDS_CHECK(sid.ok()) << sid.status().to_string();
  e->id = sid.value();
  e->session = e->launcher.session(e->id);
  deploy::IdsSession& s = *e->session;
  rec.timed("datagen.generate", "setup.datagen.generate_s", [&] {
    e->dataset = datagen::generate_lifesci(cfg, &s.triples(), &s.features(), &s.keywords(),
                                           &s.vectors());
  });
  rec.timed("graph.finalize", "setup.graph.finalize_s", [&] { s.triples().finalize(); });
  rec.timed("store.freeze", "setup.store.freeze_s", [&] {
    s.features().freeze();
    s.keywords().freeze();
  });
  core::NcnprData target;  // the ncnpr UDFs only read the target sequence
  auto seq = s.features().get_string(e->dataset.target_protein, datagen::Feat::kSequence);
  if (seq) target.target_sequence = std::string(*seq);
  core::register_ncnpr_udfs(&s.engine(), target);
  return e;
}

/// The store calls the engine makes for a keyword / vector / IVF clause,
/// timed from outside (traced run only).
void time_store_calls(Recorder& rec, deploy::IdsSession& s, const Op& op) {
  if (op.kind == Kind::kKeyword) {
    rec.timed("store.search_and", "store.keyword_s",
              [&] { (void)s.keywords().search_and(op.tokens); });
  } else if (op.kind == Kind::kVector) {
    rec.timed("store.topk_shard", "store.vector_exact_s", [&] {
      for (int r = 0; r < s.vectors().num_shards(); ++r) {
        (void)s.vectors().topk_shard(r, op.vec, kTopK, store::Metric::kCosine);
      }
    });
  } else if (op.kind == Kind::kIvf) {
    store::IvfIndex::Params params;
    params.num_clusters = op.ast->vectors[0].ivf_clusters;
    for (int r = 0; r < s.vectors().num_shards(); ++r) {
      std::optional<store::IvfIndex> index;
      rec.timed("store.ivf_build", "store.ivf_build_s",
                [&] { index.emplace(s.vectors(), r, params); });
      rec.timed("store.ivf_topk", "store.ivf_topk_s", [&] {
        (void)index->topk(op.vec, kTopK, store::Metric::kCosine, op.nprobe);
      });
    }
  }
}

}  // namespace

void run_explore(Context& ctx) {
  const datagen::LifeSciConfig cfg = explore_config(ctx.args.seed);
  std::unique_ptr<Explore> e;
  repeat_setup(ctx, [&] {
    e.reset();
    return ctx.rec.timed("setup", "", [&] { e = setup(ctx.rec, cfg); });
  });
  deploy::IdsSession& s = *e->session;
  deploy::DatastoreClient client(&e->launcher, e->id);
  const std::vector<Op> script = make_script(ctx.args.seed, cfg, e->dataset, s);

  std::map<std::string, Digest> seen;
  std::vector<Digest> answers(script.size());  // this pass's, for the repeats
  std::array<double, kReadKinds> kind_s{};      // read seconds by kind
  ModelTimers models;
  std::uint64_t pass_index = 0;

  auto pass = [&] {
    const bool traced = ctx.rec.enabled();
    s.engine().profiler().clear();
    (void)client.reload_module("ncnpr");
    (void)client.fetch_logs();
    PoolDelta pool;
    for (std::size_t i = 0; i < script.size(); ++i) {
      const Op& op = script[i];
      ctx.rec.next_op();
      char key[32];
      std::snprintf(key, sizeof key, "op%03zu", i);
      if (op.kind == Kind::kUpdate) {
        std::vector<deploy::TripleUpdate> facts;
        for (std::size_t j = 0; j < 3; ++j) {
          const graph::TermId prot = e->dataset.proteins[(i * 3 + j) % e->dataset.proteins.size()];
          facts.push_back({"ex:note/" + std::string(key) + "-" + std::to_string(j), "ex:about",
                           s.triples().dict().name(prot)});
        }
        Status st;
        const double dt = ctx.rec.timed("client.update", "graph.update_s",
                                        [&] { st = client.update(facts); });
        ctx.samples.update.push_back(dt);
        ctx.check.op(st.ok() && has_facts(s.triples(), facts),
                     std::string(key) + ": update " + st.to_string());
        continue;
      }
      if (traced) {
        std::optional<core::Query> parsed = op.ast;
        if (!op.ast) {
          ctx.rec.timed("core.parse_query", "core.parse_s", [&] {
            auto p = core::parse_query(op.text, &s.triples().dict());
            if (p.ok()) parsed = std::move(p).value();
          });
        }
        if (parsed) replay_planner(ctx.rec, s.engine(), s.triples(), *parsed);
        time_store_calls(ctx.rec, s, op);
      }
      Result<core::QueryResult> r = Status::Internal("not run");
      const double dt = ctx.rec.timed("client.query", "", [&] {
        r = op.ast ? client.execute(*op.ast) : client.query(op.text);
      });
      ctx.samples.query.push_back(dt);
      (op.repeat ? ctx.samples.warm : ctx.samples.cold).push_back(dt);
      kind_s[static_cast<std::size_t>(op.kind)] += dt;
      answers[i] = Digest{};
      if (!r.ok()) {
        ctx.check.op(false, std::string(key) + ": " + r.status().to_string());
        continue;
      }
      core::QueryResult& res = r.value();
      if (traced) account_layers(ctx.rec, res);
      if (ctx.check.corrupt_next()) corrupt(&res);
      const Digest d = digest(res);
      answers[i] = d;
      std::string why;
      if (!ctx.check.reference(key, d)) why = "differs from the recorded reference";
      auto [it, fresh] = seen.emplace(key, d);
      if (!fresh && !(it->second == d)) {
        why = "pass " + std::to_string(pass_index) + " answer " + d.text() +
              " differs from the first pass's " + it->second.text();
      }
      if (op.repeats != kNone && answers[op.repeats].rows_hash != d.rows_hash) {
        why = "rows differ from the read it repeats";
      }
      if (op.expected && !matches(res, *op.expected)) {
        why = "rows differ from the direct store calls";
      }
      ctx.check.op(why.empty(), std::string(key) + ": " + why + ": " + op.text.substr(0, 80));
    }
    if (traced) {
      pool.finish(ctx.rec);
      add_udf_delta(ctx.rec, {}, udf_counts(s.engine().profiler()));
    }
    ++pass_index;
  };

  measure(ctx, pass, [&] { models.wrap(&s.engine()); });
  // Each kind's share of the read time, over every measured pass.
  double total_s = 0.0;
  for (double t : kind_s) total_s += t;
  std::printf("read time by kind:");
  for (int k = 0; k < kReadKinds; ++k) {
    const double share = kind_s[static_cast<std::size_t>(k)] / total_s;
    std::printf(" %s %.1f%%", kKindNames[k], 100.0 * share);
    ctx.rec.set(std::string("explore.") + kKindNames[k] + ".share", share);
  }
  std::printf("\n");
  if (ctx.args.trace) {
    models.report(ctx.rec);
    ctx.rec.set("udf.aggregate_us", time_aggregate(s.engine().profiler()));
  }
  (void)e->launcher.teardown(e->id);
}

}  // namespace perfbench
