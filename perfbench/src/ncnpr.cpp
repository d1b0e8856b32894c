// The two NCNPR workloads (paper §4-§5): ncnpr-scale (Fig 4's query at
// scale) and ncnpr-cache (Table 2's threshold sweep over the global
// cache), plus the oracle that re-checks their answers.
//
// The graphs, engine options and queries restate bench/scaling_common.h
// and bench/bench_table2_cache.cpp with the datagen seed taken from
// --seed. They are restated rather than included so the benchmark builds
// from src/ alone and stays unchanged while the paper benches evolve.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <optional>

#include "common/rng.h"
#include "core/planner.h"
#include "expr/chain.h"
#include "models/docking.h"
#include "models/dtba.h"
#include "models/pic50.h"
#include "models/smith_waterman.h"
#include "models/structure.h"
#include "workloads.h"

namespace perfbench {

using namespace ids;

std::uint64_t input_seed(std::uint64_t seed, std::uint64_t salt) {
  SplitMix64 sm(seed ^ salt);
  return sm.next();
}

namespace {

const char* const kMethods[] = {"sw_similarity", "pic50", "dtba", "dock"};
const char* const kModelNames[] = {"sw", "pic50", "dtba", "dock"};

}  // namespace

void ModelTimers::wrap(core::IdsEngine* engine) {
  for (std::size_t i = 0; i < 4; ++i) {
    const udf::UdfInfo* info =
        engine->registry().find(std::string("ncnpr.") + kMethods[i]);
    if (info == nullptr) continue;
    udf::UdfFn inner = info->fn;
    const sim::Nanos load_cost = info->module_load_cost;
    engine->registry().register_dynamic(
        "ncnpr", kMethods[i],
        [this, i, inner](const udf::UdfContext& c,
                         std::span<const expr::Value> args) -> udf::UdfResult {
          const double t0 = now_s();
          udf::UdfResult r = inner(c, args);
          nanos[i].fetch_add(static_cast<std::uint64_t>((now_s() - t0) * 1e9),
                             std::memory_order_relaxed);
          calls[i].fetch_add(1, std::memory_order_relaxed);
          return r;
        },
        load_cost);
  }
}

void ModelTimers::report(Recorder& rec) const {
  for (std::size_t i = 0; i < 4; ++i) {
    rec.add(std::string("models.") + kModelNames[i] + ".calls",
            static_cast<double>(calls[i].load()));
    rec.add(std::string("models.") + kModelNames[i] + ".s",
            static_cast<double>(nanos[i].load()) * 1e-9);
  }
}

void replay_planner(Recorder& rec, core::IdsEngine& engine,
                    const graph::TripleStore& triples, const core::Query& q) {
  rec.timed("core.order_patterns", "core.plan.patterns_s",
            [&] { (void)core::order_patterns(triples, q.patterns); });
  std::vector<expr::Conjunct> conjuncts;
  for (const auto& f : q.filters) {
    auto flat = expr::flatten_conjuncts(f);
    conjuncts.insert(conjuncts.end(), flat.begin(), flat.end());
  }
  if (conjuncts.empty()) return;
  const int p = engine.options().topology.num_ranks();
  const udf::UdfProfiler& profiler = engine.profiler();
  std::vector<std::vector<std::size_t>> orders(static_cast<std::size_t>(p));
  rec.timed("core.order_conjuncts", "core.plan.conjuncts_s", [&] {
    for (int r = 0; r < p; ++r) {
      orders[static_cast<std::size_t>(r)] = core::order_conjuncts(conjuncts, r, profiler);
    }
  });
  rec.timed("core.estimate_solution_seconds", "core.plan.estimate_s", [&] {
    for (int r = 0; r < p; ++r) {
      (void)core::estimate_solution_seconds(conjuncts, orders[static_cast<std::size_t>(r)], r,
                                            profiler);
    }
  });
}

double time_aggregate(const udf::UdfProfiler& profiler) {
  const double t0 = now_s();
  for (const char* m : kMethods) (void)profiler.aggregate(std::string("ncnpr.") + m);
  return (now_s() - t0) * 1e6 / 4.0;
}

bool has_facts(const graph::TripleStore& triples,
               const std::vector<deploy::TripleUpdate>& facts) {
  const auto& dict = triples.dict();
  for (const auto& f : facts) {
    auto s = dict.lookup(f.subject);
    auto p = dict.lookup(f.predicate);
    auto o = dict.lookup(f.object);
    if (!s || !p || !o) return false;
    graph::TriplePattern pat{graph::PatternTerm::Const(*s), graph::PatternTerm::Const(*p),
                             graph::PatternTerm::Const(*o)};
    if (triples.match_all(pat).empty()) return false;
  }
  return true;
}

namespace {

constexpr int kUpdatesPerPass = 16;

/// The NCNPR stores, built with each step in its own span so the traced
/// run can attribute set-up time (generate, graph finalize, store freeze).
core::NcnprData build_ncnpr_data(Recorder& rec, const datagen::LifeSciConfig& cfg,
                                 int num_shards) {
  core::NcnprData d;
  d.triples = std::make_unique<graph::TripleStore>(num_shards);
  d.features = std::make_unique<store::FeatureStore>(num_shards);
  d.keywords = std::make_unique<store::InvertedIndex>();
  d.vectors = std::make_unique<store::VectorStore>(
      num_shards, static_cast<int>(models::DtbaModel::kProteinDims));
  rec.timed("datagen.generate", "setup.datagen.generate_s", [&] {
    d.dataset = datagen::generate_lifesci(
        cfg, d.triples.get(), d.features.get(),
        cfg.build_keyword_index ? d.keywords.get() : nullptr,
        cfg.build_vector_store ? d.vectors.get() : nullptr);
  });
  rec.timed("graph.finalize", "setup.graph.finalize_s", [&] { d.triples->finalize(); });
  rec.timed("store.freeze", "setup.store.freeze_s", [&] {
    d.features->freeze();
    d.keywords->freeze();
  });
  auto seq = d.features->get_string(d.dataset.target_protein, datagen::Feat::kSequence);
  if (seq) d.target_sequence = std::string(*seq);
  return d;
}

/// Batch `batch` of notes about existing proteins, under a predicate no
/// query reads. A batch always holds the same facts, so from the second
/// pass on the updates re-send facts the store already has: finalize drops
/// the duplicates, the store stops growing, and every pass does the same
/// update work.
std::vector<deploy::TripleUpdate> note_batch(const graph::TripleStore& triples,
                                             const datagen::LifeSciDataset& dataset,
                                             int batch) {
  constexpr int kFacts = 64;
  std::vector<deploy::TripleUpdate> facts;
  for (int i = 0; i < kFacts; ++i) {
    const auto n = static_cast<std::size_t>(batch * kFacts + i);
    facts.push_back({"ex:note/" + std::to_string(n), "ex:about",
                     triples.dict().name(dataset.proteins[n % dataset.proteins.size()])});
  }
  return facts;
}

/// The pass's updates, each one ingest→finalize round trip and one
/// operation; it fails unless every fact sent is in the store afterwards.
void run_updates(Context& ctx, core::NcnprData& data) {
  for (int u = 0; u < kUpdatesPerPass; ++u) {
    ctx.rec.next_op();
    const auto facts = note_batch(*data.triples, data.dataset, u);
    const double dt = ctx.rec.timed("graph.update", "graph.update_s", [&] {
      data.triples->reopen();
      for (const auto& f : facts) data.triples->add(f.subject, f.predicate, f.object);
      data.triples->finalize();
    });
    ctx.samples.update.push_back(dt);
    ctx.check.op(has_facts(*data.triples, facts), "update batch " + std::to_string(u));
  }
}

/// Re-checks NCNPR answers through the public models:: functions: every
/// returned compound must pass the SW / pIC50 / DTBA thresholds through a
/// reviewed protein it inhibits, every compound that passes must be
/// returned, and a sample of the returned docking energies must equal a
/// direct docking run. Verdicts are memoized by the answer's rows hash, so
/// repeated identical answers are checked once.
class NcnprOracle {
 public:
  NcnprOracle(const core::NcnprData& data, core::NcnprThresholds t,
              const models::DockingParams& dock)
      : data_(data),
        t_(t),
        docking_(models::receptor_from_structure(
                     models::predict_structure(data.target_sequence)),
                 dock),
        target_self_(models::self_score(data.target_sequence)) {
    const auto& dict = data.triples->dict();
    auto id = [&dict](const char* iri) { return dict.lookup(iri).value_or(graph::kInvalidTerm); };
    type_ = id(datagen::Vocab::kType);
    protein_ = id(datagen::Vocab::kProtein);
    reviewed_ = id(datagen::Vocab::kReviewed);
    true_ = id(datagen::Vocab::kTrue);
    inhibits_ = id(datagen::Vocab::kInhibits);
  }

  bool check(const core::QueryResult& r, const Digest& d, std::string* why) {
    auto memo = verdicts_.find(d.rows_hash);
    if (memo != verdicts_.end()) {
      *why = memo->second;
      return memo->second.empty();
    }
    std::string verdict = evaluate(r);
    verdicts_.emplace(d.rows_hash, verdict);
    *why = verdict;
    return verdict.empty();
  }

 private:
  bool has(graph::TermId s, graph::TermId p, graph::TermId o) const {
    graph::TriplePattern pat{graph::PatternTerm::Const(s), graph::PatternTerm::Const(p),
                             graph::PatternTerm::Const(o)};
    return !data_.triples->match_all(pat).empty();
  }

  // Same arithmetic as the ncnpr.sw_similarity UDF (core/workflow.cpp).
  double sw_similarity(graph::TermId prot) {
    auto it = sw_.find(prot);
    if (it != sw_.end()) return it->second;
    double sim = -1.0;  // no sequence: the UDF yields null, which fails
    if (auto seq = data_.features->get_string(prot, datagen::Feat::kSequence)) {
      models::SwResult res = models::smith_waterman(data_.target_sequence, *seq);
      int sb = models::self_score(*seq);
      sim = 0.0;
      if (target_self_ > 0 && sb > 0) {
        sim = static_cast<double>(res.score) /
              std::sqrt(static_cast<double>(target_self_) * static_cast<double>(sb));
        sim = std::clamp(sim, 0.0, 1.0);
      }
    }
    sw_.emplace(prot, sim);
    return sim;
  }

  bool passes(graph::TermId cpd, std::string_view smiles) {
    auto ic50 = data_.features->get_double(cpd, datagen::Feat::kIc50Nm);
    if (!ic50) return false;
    auto pic50 = models::pic50_from_ic50_nm(*ic50);
    if (!pic50 || *pic50 < t_.min_pic50) return false;
    graph::TriplePattern pat{graph::PatternTerm::Const(cpd),
                             graph::PatternTerm::Const(inhibits_),
                             graph::PatternTerm::Var("prot")};
    for (const graph::Triple& tr : data_.triples->match_all(pat)) {
      const graph::TermId prot = tr.o;
      if (!has(prot, type_, protein_) || !has(prot, reviewed_, true_)) continue;
      if (sw_similarity(prot) < t_.min_sw_similarity) continue;
      auto seq = data_.features->get_string(prot, datagen::Feat::kSequence);
      if (!seq) continue;
      if (dtba_.predict(*seq, smiles).affinity >= t_.min_dtba) return true;
    }
    return false;
  }

  /// Every compound that passes the filters through some reviewed protein
  /// it inhibits, sorted: the compounds the query must return.
  const std::vector<graph::TermId>& passing_compounds() {
    if (passing_) return *passing_;
    std::vector<graph::TermId> cpds;
    graph::TriplePattern pat{graph::PatternTerm::Var("cpd"), graph::PatternTerm::Const(inhibits_),
                             graph::PatternTerm::Var("prot")};
    for (const graph::Triple& tr : data_.triples->match_all(pat)) cpds.push_back(tr.s);
    std::sort(cpds.begin(), cpds.end());
    cpds.erase(std::unique(cpds.begin(), cpds.end()), cpds.end());
    passing_.emplace();
    for (graph::TermId cpd : cpds) {
      auto smiles = data_.features->get_string(cpd, datagen::Feat::kSmiles);
      if (smiles && passes(cpd, *smiles)) passing_->push_back(cpd);
    }
    return *passing_;
  }

  std::string evaluate(const core::QueryResult& r) {
    const auto& t = r.solutions;
    const int cpd_col = t.id_var_index("cpd");
    const int energy_col = t.num_var_index("energy");
    if (cpd_col < 0) return "answer has no ?cpd column";
    const auto& dict = data_.triples->dict();
    const std::size_t n = t.num_rows();
    const std::size_t stride = std::max<std::size_t>(1, n / kDockSamples);
    for (std::size_t row = 0; row < n; ++row) {
      const graph::TermId cpd = t.id_at(row, cpd_col);
      auto smiles = data_.features->get_string(cpd, datagen::Feat::kSmiles);
      if (!smiles) return dict.name(cpd) + " has no SMILES";
      if (!passes(cpd, *smiles)) return dict.name(cpd) + " fails the filter thresholds";
      if (energy_col >= 0 && row % stride == 0) {
        const double want = docking_.dock_smiles(*smiles, 0).best_energy;
        if (want != t.num_at(row, energy_col)) {
          return dict.name(cpd) + " energy differs from a direct docking";
        }
      }
    }
    std::vector<graph::TermId> got;
    for (std::size_t row = 0; row < n; ++row) got.push_back(t.id_at(row, cpd_col));
    std::sort(got.begin(), got.end());
    if (got != passing_compounds()) {
      return "returned " + std::to_string(n) + " compounds, but " +
             std::to_string(passing_compounds().size()) + " pass the filters";
    }
    return "";
  }

  static constexpr std::size_t kDockSamples = 8;

  const core::NcnprData& data_;
  core::NcnprThresholds t_;
  models::DockingEngine docking_;
  models::DtbaModel dtba_;
  int target_self_;
  graph::TermId type_, protein_, reviewed_, true_, inhibits_;
  std::map<graph::TermId, double> sw_;
  std::map<std::uint64_t, std::string> verdicts_;
  std::optional<std::vector<graph::TermId>> passing_;
};

/// Checks `r` for operation `key`: the recorded reference (default seed),
/// the first answer seen for the same key in this run (determinism), the
/// oracle, and an optional rows-hash expectation. Counts the operation.
void check_answer(Context& ctx, const std::string& key, core::QueryResult& r,
                  std::map<std::string, Digest>* seen, NcnprOracle* oracle,
                  const std::uint64_t* want_rows_hash) {
  if (ctx.check.corrupt_next()) corrupt(&r);
  const Digest d = digest(r);
  bool ok = ctx.check.reference(key, d);
  std::string why = ok ? "" : "differs from the recorded reference";
  auto [it, fresh] = seen->emplace(key, d);
  if (!fresh && !(it->second == d)) {
    ok = false;
    why = "differs from its first run in this process: " + it->second.text() +
          " vs " + d.text();
  }
  if (want_rows_hash != nullptr && d.rows_hash != *want_rows_hash) {
    ok = false;
    why = "rows differ from the query's first answer";
  }
  std::string oracle_why;
  if (oracle != nullptr && !oracle->check(r, d, &oracle_why)) {
    ok = false;
    why = oracle_why;
  }
  ctx.check.op(ok, key + ": " + why);
}

// ---- ncnpr-scale ---------------------------------------------------------

// 64 Cray EX nodes x 32 ranks = 2048 ranks, Fig 4's smallest point. At
// 8192 ranks one set-up takes ~16 s and one query ~18 s on 4 cores, and
// at 4096 ~4.5 s and ~5.5 s: too few queries per run for a steady median
// on a shared host (run-to-run spread ~20% at 4096). 2048 ranks keeps the
// O(p^2) planner signature (~75% of the query's wall time) at ~1.3 s.
constexpr int kScaleNodes = 64;

datagen::LifeSciConfig scale_config(std::uint64_t seed) {
  datagen::LifeSciConfig cfg;
  cfg.num_families = 120;
  cfg.proteins_per_family = 12;
  cfg.num_related_families = 6;
  cfg.compounds_per_family = 60;
  cfg.seq_len_mean = 320;
  cfg.seq_len_jitter = 40;
  cfg.target_min_atoms = 18;
  cfg.target_max_atoms = 24;
  cfg.seed = input_seed(seed, 0x5ca1e);
  cfg.build_keyword_index = false;
  cfg.build_vector_store = false;
  return cfg;
}

core::EngineOptions scale_options(const datagen::LifeSciConfig& cfg) {
  core::EngineOptions opts;
  opts.topology = runtime::Topology::cray_ex(kScaleNodes);
  // Physical candidate rows scaled up to the paper's ~66M comparisons.
  opts.row_multiplier =
      66.0e6 / (static_cast<double>(cfg.num_families * cfg.compounds_per_family) *
                2.0 * cfg.reviewed_fraction);
  opts.udf_call_multiplier["ncnpr.dtba"] = 5.0;
  opts.costs.sw_seconds_per_cell = 4.5e-9;
  opts.costs.operator_overhead_seconds = 1.35;
  return opts;
}

core::NcnprThresholds scale_thresholds() {
  core::NcnprThresholds t;
  t.min_sw_similarity = 0.90;
  t.min_pic50 = 4.5;
  t.min_dtba = 7.0;
  return t;
}

struct ScaleSession {
  core::NcnprData data;
  std::unique_ptr<core::IdsEngine> engine;
};

}  // namespace

void run_scale(Context& ctx) {
  const datagen::LifeSciConfig cfg = scale_config(ctx.args.seed);
  const core::NcnprThresholds thresholds = scale_thresholds();
  std::map<std::string, Digest> seen;
  std::unique_ptr<ScaleSession> s;

  // Set-up: stores, engine, UDF registration and the warm-up query that
  // gives the planner its first profiles. The warm-up is the first query
  // a fresh engine runs, so it is also the workload's cold query.
  repeat_setup(ctx, [&] {
    s.reset();
    core::QueryResult warm;
    double cold = 0.0;
    const double seconds = ctx.rec.timed("setup", "", [&] {
      s = std::make_unique<ScaleSession>();
      s->data = build_ncnpr_data(ctx.rec, cfg, 32 * kScaleNodes);
      s->engine = std::make_unique<core::IdsEngine>(scale_options(cfg), s->data.triples.get(),
                                                    s->data.features.get());
      core::register_ncnpr_udfs(s->engine.get(), s->data);
      core::Query q = core::make_ncnpr_query(s->data, thresholds, /*with_docking=*/false);
      cold = ctx.rec.timed("engine.execute", "", [&] { warm = s->engine->execute(q); });
    });
    ctx.samples.cold.push_back(cold);
    check_answer(ctx, "warmup", warm, &seen, nullptr, nullptr);
    return seconds;
  });

  NcnprOracle oracle(s->data, thresholds, models::DockingParams{});
  const core::Query query = core::make_ncnpr_query(s->data, thresholds, /*with_docking=*/true);
  ModelTimers models;
  std::vector<double> aggregate_us;
  std::uint64_t index = 0;
  std::uint64_t first_rows = 0;

  auto pass = [&] {
    ctx.rec.next_op();
    const bool traced = ctx.rec.enabled();
    if (traced) {
      replay_planner(ctx.rec, *s->engine, *s->data.triples, query);
      aggregate_us.push_back(time_aggregate(s->engine->profiler()));
    }
    auto udf_before = traced ? udf_counts(s->engine->profiler()) : std::map<std::string, double>{};
    PoolDelta pool;
    core::QueryResult r;
    const double dt =
        ctx.rec.timed("engine.execute", "", [&] { r = s->engine->execute(query); });
    ctx.samples.query.push_back(dt);
    ctx.samples.warm.push_back(dt);
    if (traced) {
      pool.finish(ctx.rec);
      account_layers(ctx.rec, r);
      add_udf_delta(ctx.rec, udf_before, udf_counts(s->engine->profiler()));
    }
    ++index;
    if (index == 1) first_rows = digest(r).rows_hash;
    check_answer(ctx, "q" + std::to_string(index), r, &seen, &oracle, &first_rows);

    run_updates(ctx, s->data);
  };

  measure(ctx, pass, [&] { models.wrap(s->engine.get()); });
  if (ctx.args.trace) {
    models.report(ctx.rec);
    ctx.rec.set("udf.aggregate_us", median(aggregate_us));
  }
}

// ---- ncnpr-cache ---------------------------------------------------------

namespace {

constexpr double kSweep[] = {0.90, 0.40, 0.20};
constexpr int kWarmRepeats = 4;

// The Table 2 testbed graph, with its datagen seed. Family 1 sits just
// above the 0.40 threshold and families 2..20 fill the 0.20-0.40 band, so
// the sweep admits ~55 -> ~110 -> ~1150 compounds. That placement holds
// for this datagen seed only: other seeds move families across the
// thresholds and change the docking work several-fold (49 to 148
// compounds at 0.40 over six seeds), so --seed drives the order of the
// sweep and of its warm repeats instead of the graph.
datagen::LifeSciConfig cache_config() {
  datagen::LifeSciConfig cfg;
  cfg.num_families = 24;
  cfg.num_related_families = 20;
  cfg.proteins_per_family = 10;
  cfg.compounds_per_family = 55;
  cfg.seq_len_mean = 280;
  cfg.seq_len_jitter = 30;
  cfg.seed = 20251116;
  cfg.build_keyword_index = false;
  cfg.build_vector_store = false;
  cfg.related_divergences = {0.455};
  for (int f = 2; f <= 20; ++f) {
    cfg.related_divergences.push_back(0.50 + 0.14 * static_cast<double>(f - 2) / 18.0);
  }
  cfg.offfamily_min_atoms = 36;
  cfg.offfamily_max_atoms = 68;
  cfg.cross_family_edges = 0.0;
  return cfg;
}

cache::CacheConfig cache_manager_config(const runtime::Topology& topo) {
  cache::CacheConfig cc;
  cc.num_nodes = topo.total_nodes();
  cc.dram_capacity_bytes = 512ull << 20;
  cc.ssd_capacity_bytes = 4ull << 30;
  cc.serialization_service_seconds = 0.21;  // §8 serialization bottleneck
  return cc;
}

void add_cache_stats(Recorder& rec, const cache::CacheStats& s) {
  rec.add("cache.gets", static_cast<double>(s.total_hits() + s.misses));
  rec.add("cache.puts", static_cast<double>(s.puts));
  rec.add("cache.misses", static_cast<double>(s.misses));
  rec.add("cache.hits.local_dram", static_cast<double>(s.hits_local_dram));
  rec.add("cache.hits.local_ssd", static_cast<double>(s.hits_local_ssd));
  rec.add("cache.hits.remote_dram", static_cast<double>(s.hits_remote_dram));
  rec.add("cache.hits.remote_ssd", static_cast<double>(s.hits_remote_ssd));
  rec.add("cache.hits.backing", static_cast<double>(s.hits_backing));
  rec.add("cache.bytes_read", static_cast<double>(s.bytes_read));
  rec.add("cache.bytes_written", static_cast<double>(s.bytes_written));
  rec.add("cache.spills", static_cast<double>(s.spills_to_ssd));
}

}  // namespace

/// One sweep point: a fresh cache and engine for one SW threshold, as in
/// the paper's Table 2 rows.
struct SweepPoint {
  double threshold = 0.0;
  std::string tag;
  std::unique_ptr<cache::CacheManager> cache;
  std::unique_ptr<core::IdsEngine> engine;
  core::Query query;
  std::uint64_t cold_rows = 0;
  int warm_done = 0;
};

void run_cache(Context& ctx) {
  const runtime::Topology topo = runtime::Topology::cache_testbed(2, 2);
  const datagen::LifeSciConfig cfg = cache_config();
  models::DockingParams dock_params;
  dock_params.exhaustiveness = 2;

  core::NcnprData data;
  repeat_setup(ctx, [&] {
    data = core::NcnprData{};
    return ctx.rec.timed("setup", "",
                         [&] { data = build_ncnpr_data(ctx.rec, cfg, topo.num_ranks()); });
  });

  std::map<double, std::unique_ptr<NcnprOracle>> oracles;
  std::map<std::string, Digest> seen;
  ModelTimers models;
  std::vector<double> aggregate_us;
  Rng order_rng(input_seed(ctx.args.seed, 0xcac4e));

  auto run_query = [&](SweepPoint& p, bool cold) {
    ctx.rec.next_op();
    const bool traced = ctx.rec.enabled();
    if (traced) {
      replay_planner(ctx.rec, *p.engine, *data.triples, p.query);
      aggregate_us.push_back(time_aggregate(p.engine->profiler()));
    }
    core::QueryResult r;
    const double dt = ctx.rec.timed("engine.execute", "", [&] { r = p.engine->execute(p.query); });
    ctx.samples.query.push_back(dt);
    (cold ? ctx.samples.cold : ctx.samples.warm).push_back(dt);
    if (traced) account_layers(ctx.rec, r);
    if (cold) p.cold_rows = digest(r).rows_hash;
    const std::string key = p.tag + (cold ? "cold" : "warm" + std::to_string(++p.warm_done));
    // Warm answers must carry the cold query's energies bit for bit.
    check_answer(ctx, key, r, &seen, oracles[p.threshold].get(), &p.cold_rows);
  };

  auto pass = [&] {
    const bool traced = ctx.rec.enabled();
    std::vector<SweepPoint> points;
    for (double threshold : kSweep) {
      SweepPoint& p = points.emplace_back();
      p.threshold = threshold;
      char tag[16];
      std::snprintf(tag, sizeof tag, "t%.2f/", threshold);
      p.tag = tag;
      core::NcnprThresholds t;
      t.min_sw_similarity = threshold;
      t.min_pic50 = 4.0;  // Table 2 sweeps only the SW threshold
      t.min_dtba = 4.0;
      auto& oracle = oracles[threshold];
      if (!oracle) oracle = std::make_unique<NcnprOracle>(data, t, dock_params);
      p.cache = std::make_unique<cache::CacheManager>(cache_manager_config(topo));
      core::EngineOptions opts;
      opts.topology = topo;
      opts.costs.docking_seconds_per_unit *= 4.0;  // exhaustiveness 2 vs 8
      opts.cache = p.cache.get();
      p.engine = std::make_unique<core::IdsEngine>(opts, data.triples.get(), data.features.get());
      core::register_ncnpr_udfs(p.engine.get(), data, dock_params);
      if (traced) models.wrap(p.engine.get());
      p.query = core::make_ncnpr_query(data, t, /*with_docking=*/true, /*docking_cached=*/true);
    }
    // Seeded order: each point's cold query, then the warm repeats of all
    // points interleaved. Points share no state, so answers and modeled
    // clocks do not depend on the order.
    std::vector<std::size_t> cold_order, warm_order;
    for (std::size_t i = 0; i < points.size(); ++i) {
      cold_order.push_back(i);
      for (int j = 0; j < kWarmRepeats; ++j) warm_order.push_back(i);
    }
    for (auto* order : {&cold_order, &warm_order}) {
      for (std::size_t i = order->size(); i > 1; --i) {
        std::swap((*order)[i - 1], (*order)[order_rng.next_below(i)]);
      }
    }
    PoolDelta pool;
    for (std::size_t i : cold_order) run_query(points[i], true);
    for (std::size_t i : warm_order) run_query(points[i], false);
    if (traced) {
      pool.finish(ctx.rec);
      for (const SweepPoint& p : points) {
        add_cache_stats(ctx.rec, p.cache->stats());
        add_udf_delta(ctx.rec, {}, udf_counts(p.engine->profiler()));
      }
    }
    run_updates(ctx, data);
  };

  measure(ctx, pass, [] {});
  if (ctx.args.trace) {
    models.report(ctx.rec);
    ctx.rec.set("udf.aggregate_us", median(aggregate_us));
  }
}

}  // namespace perfbench
