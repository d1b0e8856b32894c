#include "core/engine.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <optional>

#include "common/check.h"
#include "common/flat_map.h"
#include "common/logging.h"
#include "common/simd.h"
#include "common/rng.h"
#include "core/planner.h"
#include "expr/chain.h"
#include "runtime/exchange.h"
#include "store/ivf_index.h"
#include "runtime/rank_exec.h"
#include "telemetry/profiler.h"

namespace ids::core {

double QueryResult::stage_seconds(std::string_view prefix) const {
  double s = 0.0;
  for (const auto& st : stages) {
    if (st.stage.starts_with(prefix)) s += st.seconds;
  }
  return s;
}

double QueryResult::seconds_excluding(std::string_view prefix) const {
  return total_seconds - stage_seconds(prefix);
}

namespace {

using graph::RowIndex;
using graph::SolutionTable;
using graph::TermId;
using graph::TriplePattern;

/// Distinct id variables of a pattern, in s, p, o order.
std::vector<std::string> pattern_vars(const TriplePattern& p) {
  std::vector<std::string> vars;
  auto add = [&vars](const graph::PatternTerm& t) {
    if (t.is_var &&
        std::find(vars.begin(), vars.end(), t.var) == vars.end()) {
      vars.push_back(t.var);
    }
  };
  add(p.s);
  add(p.p);
  add(p.o);
  return vars;
}

/// One rank's, and then one query's, own cache traffic: hits and modeled
/// bytes by serving tier, misses, and the modeled bytes put.
struct CacheTally {
  std::array<std::uint64_t, cache::kNumReadTiers> hits{};
  std::array<std::uint64_t, cache::kNumReadTiers> bytes_in{};
  std::uint64_t misses = 0;
  std::uint64_t bytes_written = 0;

  void add(const CacheTally& o) {
    for (std::size_t t = 0; t < cache::kNumReadTiers; ++t) {
      hits[t] += o.hits[t];
      bytes_in[t] += o.bytes_in[t];
    }
    misses += o.misses;
    bytes_written += o.bytes_written;
  }
};

/// The whole execution state of one query.
class QueryExecution {
 public:
  QueryExecution(const EngineOptions& opts, graph::TripleStore* triples,
                 store::FeatureStore* features,
                 store::InvertedIndex* keywords, store::VectorStore* vectors,
                 udf::UdfRegistry* registry, udf::UdfProfiler* profiler)
      : opts_(opts),
        triples_(triples),
        features_(features),
        keywords_(keywords),
        vectors_(vectors),
        registry_(registry),
        profiler_(profiler),
        tracer_(opts.tracer),
        metrics_(opts.metrics != nullptr
                     ? opts.metrics
                     : &telemetry::MetricsRegistry::global()),
        p_(opts.topology.num_ranks()),
        clocks_(static_cast<std::size_t>(p_)) {
    Rng seeder(opts.seed);
    rank_rngs_.reserve(static_cast<std::size_t>(p_));
    for (int r = 0; r < p_; ++r) {
      rank_rngs_.push_back(seeder.fork(static_cast<std::uint64_t>(r)));
    }
  }

  QueryResult run(const Query& query) {
    telemetry::ProfileScope profile_scope("engine.query");
    metrics_->counter("ids_engine_queries_total")->inc();
    query_wall_start_ = telemetry::Tracer::wall_now_ns();
    stage_wall_start_ = query_wall_start_;
    if (tracer_ != nullptr) {
      // First span index of this query, so the query ring gets exactly
      // this query's tree out of a tracer shared across queries.
      trace_base_ = tracer_->size();
      root_span_ =
          tracer_->begin_span("query", "query", telemetry::kNoSpan, -1, 0);
      // Stamp the active SIMD dispatch level so every trace records which
      // kernel variants produced it (simd.cpp exports the matching gauge).
      tracer_->add_attr(root_span_, "simd_level",
                        simd::level_name(simd::active_level()));
    }

    // Graph patterns in planner order.
    auto order = order_patterns(*triples_, query.patterns);
    for (std::size_t i = 0; i < order.size(); ++i) {
      apply_pattern(query.patterns[order[i]], i == 0);
    }
    std::size_t rows = total_rows();
    result_.rows_after_patterns = rows;

    for (const auto& kc : query.keywords) apply_keyword(kc);
    for (const auto& vc : query.vectors) apply_vector(vc);

    apply_filters(query);
    result_.rows_after_filters = total_rows();

    if (!query.distinct_var.empty()) apply_distinct(query.distinct_var);

    for (const auto& inv : query.invokes) apply_invoke(inv);

    gather_and_finish(query);
    finish_account();
    const telemetry::QueryResourceAccount& acct = result_.account;
    if (tracer_ != nullptr) {
      tracer_->add_attr(
          root_span_, "rows",
          static_cast<std::uint64_t>(result_.solutions.num_rows()));
      tracer_->add_attr(root_span_, "cache_hits", acct.cache_hits());
      tracer_->add_attr(root_span_, "cache_misses", acct.cache_misses);
      tracer_->add_attr(root_span_, "rows_partitioned", acct.rows_partitioned);
      tracer_->add_attr(root_span_, "udf_invocations", acct.udf_invocations);
      tracer_->add_attr(root_span_, "peak_solution_bytes",
                        acct.peak_solution_bytes);
      tracer_->add_attr(root_span_, "divergence_seconds",
                        acct.divergence_seconds());
      tracer_->end_span(root_span_, last_mark_);
    }
    if (opts_.query_ring != nullptr) {
      std::vector<telemetry::Span> spans;
      std::uint64_t dropped = 0;
      if (tracer_ != nullptr) {
        spans = tracer_->snapshot_tail(trace_base_);
        dropped = tracer_->dropped();
      }
      result_.account.sequence =
          opts_.query_ring->push(acct, std::move(spans), dropped);
    }
    return std::move(result_);
  }

 private:
  double speed(int r) const { return opts_.hetero.at(r); }

  /// Charges modeled *compute* time, scaled by the rank's speed factor.
  void charge_compute(int r, sim::Nanos raw) {
    double s = speed(r);
    clocks_.at(static_cast<std::size_t>(r))
        .advance(static_cast<sim::Nanos>(static_cast<double>(raw) /
                                         (s > 0.0 ? s : 1.0)));
  }

  /// Graph-operator compute: scaled by the scale-model multiplier (one
  /// physical triple/row stands for row_multiplier logical ones).
  void charge_graph_op(int r, sim::Nanos raw) {
    charge_compute(r, static_cast<sim::Nanos>(static_cast<double>(raw) *
                                              opts_.row_multiplier));
  }

  /// Fixed per-operator overhead on every rank (launch + straggler skew +
  /// global sync; see CostProfile::operator_overhead_seconds).
  void charge_operator_overhead() {
    sim::Nanos o = sim::from_seconds(opts_.costs.operator_overhead_seconds);
    if (o == 0) return;
    for (std::size_t r = 0; r < clocks_.size(); ++r) clocks_.at(r).advance(o);
  }

  /// Opens the pipeline stage `name` and its trace span. Each stage ends
  /// in mark(), which closes the span at the barrier time and records the
  /// stage under the same name. Call after any early-return guards, so
  /// skipped stages leave no span.
  void stage_begin(std::string name) {
    stage_name_ = std::move(name);
    if (tracer_ == nullptr) return;
    stage_span_ =
        tracer_->begin_span(stage_name_, "stage", root_span_, -1, last_mark_);
  }

  /// Ends the open pipeline stage: synchronizes clocks, closes the stage
  /// span at the barrier time and appends the stage's one record, a
  /// StageAccount whose modeled time is `now - last_mark_` (the span's
  /// modeled range, bit-identical). The ids_engine_stage_seconds
  /// observation reads that entry, and the SolutionTable high-water mark
  /// is sampled here, at every barrier.
  void mark() {
    const sim::Nanos now = clocks_.barrier();
    const std::uint64_t wall_now = telemetry::Tracer::wall_now_ns();
    if (tracer_ != nullptr) {
      // kNoSpan when the tracer's cap dropped the stage span: end_span is
      // then a no-op, and the drop was already counted once.
      tracer_->end_span(stage_span_, now);
      stage_span_ = telemetry::kNoSpan;
    }
    telemetry::QueryResourceAccount& acct = result_.account;
    acct.stages.push_back(
        {std::move(stage_name_), sim::to_seconds(now - last_mark_),
         static_cast<double>(wall_now - stage_wall_start_) * 1e-9});
    const telemetry::StageAccount& stage = acct.stages.back();
    metrics_
        ->histogram("ids_engine_stage_seconds",
                    telemetry::latency_seconds_buckets(),
                    {{"stage", stage.stage}})
        ->observe(stage.modeled_seconds);
    std::uint64_t solution_bytes = 0;
    for (const auto& t : parts_) {
      solution_bytes +=
          static_cast<std::uint64_t>(t.num_rows() * t.row_bytes());
    }
    acct.peak_solution_bytes =
        std::max(acct.peak_solution_bytes, solution_bytes);
    stage_wall_start_ = wall_now;
    last_mark_ = now;
  }

  /// Seals result_.account at the end of run(): whole-query times, the
  /// query's own cache traffic, and the ids_query_* instruments. The
  /// result's stage list and total are copied from the account.
  void finish_account() {
    telemetry::QueryResourceAccount& acct = result_.account;
    // After the gather barrier every clock reads last_mark_.
    acct.modeled_seconds = sim::to_seconds(last_mark_);
    acct.wall_seconds =
        static_cast<double>(telemetry::Tracer::wall_now_ns() -
                            query_wall_start_) *
        1e-9;
    result_.total_seconds = acct.modeled_seconds;
    for (const telemetry::StageAccount& st : acct.stages) {
      result_.stages.push_back({st.stage, st.modeled_seconds});
    }
    acct.cache_bytes_written = cache_tally_.bytes_written;
    acct.cache_misses = cache_tally_.misses;
    for (std::size_t t = 0; t < cache::kNumReadTiers; ++t) {
      if (cache_tally_.hits[t] == 0) continue;  // only tiers that served
      acct.tiers.push_back(
          {cache::read_tier_name(static_cast<cache::ReadTier>(t)),
           cache_tally_.bytes_in[t], cache_tally_.hits[t]});
    }
    metrics_->counter("ids_query_rows_gathered_total")
        ->inc(acct.rows_gathered);
    metrics_->counter("ids_query_rows_partitioned_total")
        ->inc(acct.rows_partitioned);
    metrics_->counter("ids_query_udf_invocations_total")
        ->inc(acct.udf_invocations);
    metrics_->gauge("ids_query_peak_solution_bytes")
        ->set(static_cast<double>(acct.peak_solution_bytes));
    metrics_
        ->histogram("ids_query_modeled_seconds",
                    telemetry::latency_seconds_buckets())
        ->observe(acct.modeled_seconds);
    metrics_
        ->histogram("ids_query_wall_seconds",
                    telemetry::latency_seconds_buckets())
        ->observe(acct.wall_seconds);
  }

  // ---- Per-rank steps ------------------------------------------------------

  /// One bulk-synchronous step: runs fn(r, span) on every rank inside the
  /// rank span `name`, which is parented to the current stage span and
  /// covers rank r's clock across fn (span is kNoSpan when tracing is
  /// off). `scope` names the step for the sampling profiler and must be a
  /// string literal.
  template <typename Fn>
  void each_rank(const char* scope, std::string_view name, Fn&& fn) {
    runtime::for_each_rank(p_, scope, [&](int r) {
      const sim::VirtualClock& clock = clocks_.at(static_cast<std::size_t>(r));
      const telemetry::SpanId span =
          tracer_ == nullptr ? telemetry::kNoSpan
                             : tracer_->begin_span(name, "rank", stage_span_,
                                                   r, clock.now());
      fn(r, span);
      if (tracer_ != nullptr) tracer_->end_span(span, clock.now());
    });
  }

  /// Runs fn() as one INVOKE call on rank r (cache.get, udf, cache.put),
  /// recorded as a span under the rank span `parent` over the modeled time
  /// fn charges. Returns the call's span; kNoSpan when `parent` is.
  template <typename Fn>
  telemetry::SpanId call_span(std::string_view name,
                              std::string_view category,
                              telemetry::SpanId parent, int r, Fn&& fn) {
    if (parent == telemetry::kNoSpan) {
      fn();
      return telemetry::kNoSpan;
    }
    const sim::VirtualClock& clock = clocks_.at(static_cast<std::size_t>(r));
    const sim::Nanos v0 = clock.now();
    const std::uint64_t w0 = telemetry::Tracer::wall_now_ns();
    fn();
    return tracer_->record_span(name, category, parent, r, v0, clock.now(),
                                w0, telemetry::Tracer::wall_now_ns());
  }

  /// Attaches a count to a span; a no-op on kNoSpan (tracing off).
  void count_attr(telemetry::SpanId span, std::string_view key,
                  std::size_t n) const {
    if (span != telemetry::kNoSpan) {
      tracer_->add_attr(span, key, static_cast<std::uint64_t>(n));
    }
  }

  /// Keeps the rows of `t` whose flag is set, recording rows_in and
  /// rows_kept on the rank span.
  void keep_rows(SolutionTable& t, const std::vector<char>& keep,
                 telemetry::SpanId span) const {
    count_attr(span, "rows_in", t.num_rows());
    t.filter_rows(keep);
    count_attr(span, "rows_kept", t.num_rows());
  }

  /// Expression context for rank r over its table t. One context serves a
  /// rank for a whole stage, so each UDF call site is resolved (and its
  /// module load charged) once per rank and stage; only the row cursor
  /// moves per row.
  expr::EvalContext eval_context(int r, const SolutionTable& t) {
    expr::EvalContext ctx;
    ctx.row = {&t, 0};
    ctx.registry = registry_;
    ctx.profiler = profiler_;
    ctx.udf_ctx = {r, features_, vectors_,
                   &rank_rngs_[static_cast<std::size_t>(r)]};
    ctx.speed_factor = speed(r);
    return ctx;
  }

  std::size_t total_rows() const {
    std::size_t n = 0;
    for (const auto& t : parts_) n += t.num_rows();
    return n;
  }

  bool has_schema() const { return !parts_.empty(); }

  bool schema_has_var(const std::string& var) const {
    return has_schema() && parts_[0].id_var_index(var) >= 0;
  }

  void init_parts(const SolutionTable& prototype) {
    parts_.assign(static_cast<std::size_t>(p_), prototype.empty_like());
  }

  // ---- Row movement ------------------------------------------------------

  /// The rank that owns a key. Every shuffle sends a row to the shard
  /// holding the triples whose subject is its key (the engine checks that
  /// shards and ranks correspond one to one).
  int owner_of(TermId key) const { return triples_->shard_of_subject(key); }

  /// Moves every row of `parts` to owner_of(its id in column `col`).
  /// Batch kernel: destinations are computed into a flat array, grouped by
  /// destination (CSR over scratch shared by all sources), and moved with
  /// one columnar gather per (src, dst) pair that carries rows. Each
  /// destination receives its sources in rank order, rows ascending. Rows
  /// that leave their rank are recorded in `traffic` and rows_partitioned
  /// unless `traffic` is null.
  void route_by(std::vector<SolutionTable>& parts, int col,
                runtime::AllToAll* traffic) {
    std::vector<SolutionTable> out(static_cast<std::size_t>(p_),
                                   parts[0].empty_like());
    const std::size_t row_bytes = parts[0].row_bytes();
    std::vector<int> dsts;
    std::vector<RowIndex> counts(static_cast<std::size_t>(p_), 0);
    graph::RowPartition partition;
    for (int src = 0; src < p_; ++src) {
      auto& table = parts[static_cast<std::size_t>(src)];
      const auto& keys = table.id_col(col);
      dsts.resize(keys.size());
      for (std::size_t row = 0; row < keys.size(); ++row) {
        dsts[row] = owner_of(keys[row]);
      }
      SolutionTable::partition_by_dst(dsts, counts, &partition);
      for (std::size_t i = 0; i < partition.dsts.size(); ++i) {
        const int dst = partition.dsts[i];
        const auto rows = partition.rows_of(i);
        out[static_cast<std::size_t>(dst)].append_rows_from(table, rows);
        if (traffic == nullptr || dst == src) continue;
        result_.account.rows_partitioned += rows.size();
        traffic->send(src, dst, row_bytes * rows.size());
      }
      table.clear();
    }
    parts = std::move(out);
  }

  /// Re-partitions the solution rows by the id in column `col`: one
  /// all-to-all, charged on the alpha-beta fabric model, then a barrier.
  void shuffle_rows(int col) {
    runtime::AllToAll traffic(opts_.topology);
    route_by(parts_, col, &traffic);
    traffic.charge(clocks_);
  }

  /// Redistributes rows so rank r ends with targets[r] rows, moving as few
  /// rows as possible (surplus tails flow to deficit ranks).
  void redistribute_to_targets(const std::vector<std::size_t>& targets) {
    if (!has_schema()) return;
    const std::size_t row_bytes = parts_[0].row_bytes();
    runtime::AllToAll traffic(opts_.topology);

    struct Deficit {
      int rank;
      std::size_t need;
    };
    std::vector<Deficit> deficits;
    for (int r = 0; r < p_; ++r) {
      std::size_t have = parts_[static_cast<std::size_t>(r)].num_rows();
      std::size_t want = targets[static_cast<std::size_t>(r)];
      if (want > have) deficits.push_back({r, want - have});
    }
    std::size_t d = 0;
    for (int src = 0; src < p_ && d < deficits.size(); ++src) {
      auto& table = parts_[static_cast<std::size_t>(src)];
      std::size_t want = targets[static_cast<std::size_t>(src)];
      while (table.num_rows() > want && d < deficits.size()) {
        std::size_t surplus = table.num_rows() - want;
        std::size_t take = std::min(surplus, deficits[d].need);
        int dst = deficits[d].rank;
        // Move the tail rows [n - take, n) as one bulk column append.
        std::size_t n = table.num_rows();
        parts_[static_cast<std::size_t>(dst)].append_row_range_from(
            table, n - take, n);
        table.truncate(n - take);
        result_.account.rows_partitioned += take;
        traffic.send(src, dst, row_bytes * take);
        deficits[d].need -= take;
        if (deficits[d].need == 0) ++d;
      }
    }
    traffic.charge(clocks_);
  }

  // ---- Graph pattern operators --------------------------------------------

  void apply_pattern(const TriplePattern& pat, bool first) {
    if (first || !has_schema()) {
      stage_begin("scan");
      scan_first(pat);
      mark();
      return;
    }
    stage_begin("join");
    if (pat.s.is_var && schema_has_var(pat.s.var)) {
      extend_subject_bound(pat);
      mark();
      return;
    }
    // Shared non-subject variable -> hash join; none -> cartesian.
    bool shared = false;
    for (const auto& v : pattern_vars(pat)) {
      if (schema_has_var(v)) {
        shared = true;
        break;
      }
    }
    if (shared) {
      hash_join(pat);
    } else {
      IDS_WARN << "cartesian join for pattern with no shared variable";
      cartesian_join(pat);
    }
    mark();
  }

  /// Triple position (0 = s, 1 = p, 2 = o) where `var` first occurs in
  /// `pat`, or -1. Hoisted out of scan callbacks: kernels resolve variable
  /// positions once and then index triples by integer position.
  static int position_of(const TriplePattern& pat, const std::string& var) {
    if (pat.s.is_var && pat.s.var == var) return 0;
    if (pat.p.is_var && pat.p.var == var) return 1;
    if (pat.o.is_var && pat.o.var == var) return 2;
    return -1;
  }

  /// Scans shard `r` for `pat`, appending each match's variable bindings to
  /// `out` (schema must be pattern_vars(pat)); returns the match count.
  /// Column pointers and positions are hoisted so the per-triple work is
  /// nv integer stores.
  std::size_t scan_pattern_into(int r, const TriplePattern& pat,
                                SolutionTable* out) {
    const auto& vars = out->id_vars();
    const std::size_t nv = vars.size();
    IDS_CHECK(nv <= 3 && out->num_vars().empty());
    int pos[3] = {0, 0, 0};
    std::vector<TermId>* cols[3] = {nullptr, nullptr, nullptr};
    for (std::size_t k = 0; k < nv; ++k) {
      pos[k] = position_of(pat, vars[k]);
      IDS_CHECK(pos[k] >= 0) << "pattern lacks variable " << vars[k];
      cols[k] = &out->id_col_mut(static_cast<int>(k));
    }
    std::size_t matches = 0;
    triples_->shard(r).scan(pat, [&](const graph::Triple& t) {
      const TermId v[3] = {t.s, t.p, t.o};
      for (std::size_t k = 0; k < nv; ++k) cols[k]->push_back(v[pos[k]]);
      ++matches;
    });
    return matches;
  }

  void scan_first(const TriplePattern& pat) {
    charge_operator_overhead();
    SolutionTable prototype{pattern_vars(pat)};
    init_parts(prototype);
    each_rank("rank.scan", "scan", [&](int r, telemetry::SpanId span) {
      std::size_t matches =
          scan_pattern_into(r, pat, &parts_[static_cast<std::size_t>(r)]);
      charge_graph_op(r, opts_.costs.triple_scan_cost(matches + 64));
      count_attr(span, "matches", matches);
    });
  }

  void extend_subject_bound(const TriplePattern& pat) {
    charge_operator_overhead();
    int svar = parts_[0].id_var_index(pat.s.var);
    IDS_CHECK(svar >= 0);
    // Rows travel to the shard owning their subject value.
    shuffle_rows(svar);

    // New schema: old id vars + pattern vars not yet bound.
    std::vector<std::string> new_vars;
    {
      std::vector<std::string> pv = pattern_vars(pat);
      for (const auto& v : pv) {
        if (!schema_has_var(v)) new_vars.push_back(v);
      }
    }
    std::vector<std::string> schema = parts_[0].id_vars();
    schema.insert(schema.end(), new_vars.begin(), new_vars.end());
    SolutionTable prototype{schema, parts_[0].num_vars()};
    const std::size_t old_ids = parts_[0].id_vars().size();

    // Hoisted per-row binding plan: the solution column feeding each
    // pattern position (-1 = stays as written), and the triple position
    // feeding each new output column.
    int bind_col[3] = {-1, -1, -1};
    if (pat.s.is_var) bind_col[0] = parts_[0].id_var_index(pat.s.var);
    if (pat.p.is_var) bind_col[1] = parts_[0].id_var_index(pat.p.var);
    if (pat.o.is_var) bind_col[2] = parts_[0].id_var_index(pat.o.var);
    std::vector<int> new_pos;
    new_pos.reserve(new_vars.size());
    for (const auto& v : new_vars) new_pos.push_back(position_of(pat, v));

    std::vector<SolutionTable> out(static_cast<std::size_t>(p_),
                                   prototype.empty_like());
    each_rank("rank.join_extend", "join:extend",
              [&](int r, telemetry::SpanId span) {
      auto ru = static_cast<std::size_t>(r);
      const auto& in = parts_[ru];
      auto& dst = out[ru];

      // The concretized pattern is built once; per row only the bound
      // constants are refreshed (no string churn in the loop).
      TriplePattern bound = pat;
      graph::PatternTerm* terms[3] = {&bound.s, &bound.p, &bound.o};
      for (int i = 0; i < 3; ++i) {
        if (bind_col[i] >= 0) *terms[i] = graph::PatternTerm::Const(0);
      }
      const std::size_t nn = new_vars.size();
      std::vector<TermId>* new_cols[3] = {nullptr, nullptr, nullptr};
      for (std::size_t k = 0; k < nn; ++k) {
        new_cols[k] = &dst.id_col_mut(static_cast<int>(old_ids + k));
      }

      std::vector<RowIndex> src_rows;
      std::size_t scanned = 0;
      const std::size_t n = in.num_rows();
      for (std::size_t row = 0; row < n; ++row) {
        for (int i = 0; i < 3; ++i) {
          if (bind_col[i] >= 0) {
            terms[i]->constant = in.id_at(row, bind_col[i]);
          }
        }
        triples_->shard(r).scan(bound, [&](const graph::Triple& t) {
          src_rows.push_back(static_cast<RowIndex>(row));
          const TermId v[3] = {t.s, t.p, t.o};
          for (std::size_t k = 0; k < nn; ++k) {
            new_cols[k]->push_back(v[new_pos[k]]);
          }
          ++scanned;
        });
        scanned += 4;  // index probe overhead
      }
      // New-binding columns were written inline; gather the carried-over
      // columns in one pass per column.
      dst.append_prefix_from(in, src_rows);
      charge_graph_op(r, opts_.costs.triple_scan_cost(scanned + 64));
      count_attr(span, "scanned", scanned);
    });
    parts_ = std::move(out);
    clocks_.barrier();
  }

  void hash_join(const TriplePattern& pat) {
    charge_operator_overhead();
    // Join variable: the first pattern var present in the schema.
    std::string join_var;
    for (const auto& v : pattern_vars(pat)) {
      if (schema_has_var(v)) {
        join_var = v;
        break;
      }
    }
    IDS_CHECK(!join_var.empty());

    // Build side: local pattern matches on every rank.
    std::vector<SolutionTable> build(static_cast<std::size_t>(p_),
                                     SolutionTable{pattern_vars(pat)});
    each_rank("rank.join_build", "join:build",
              [&](int r, telemetry::SpanId span) {
      std::size_t matches =
          scan_pattern_into(r, pat, &build[static_cast<std::size_t>(r)]);
      charge_graph_op(r, opts_.costs.triple_scan_cost(matches + 64));
      count_attr(span, "matches", matches);
    });

    // Shuffle both sides by the join key. The build side takes the same
    // route, but its communication is charged as one tree collective of
    // the average build rows (cheap relative to the probe shuffle) and
    // stays out of rows_partitioned.
    int probe_idx = parts_[0].id_var_index(join_var);
    shuffle_rows(probe_idx);
    route_by(build, build[0].id_var_index(join_var), nullptr);
    std::size_t build_rows = 0;
    for (const auto& t : build) build_rows += t.num_rows();
    runtime::charge_tree_collective(
        clocks_, opts_.topology,
        build_rows * build[0].row_bytes() / static_cast<std::size_t>(p_));

    // Output schema: probe vars + new pattern vars.
    std::vector<std::string> new_vars;
    for (const auto& v : pattern_vars(pat)) {
      if (!schema_has_var(v)) new_vars.push_back(v);
    }
    std::vector<std::string> schema = parts_[0].id_vars();
    schema.insert(schema.end(), new_vars.begin(), new_vars.end());
    SolutionTable prototype{schema, parts_[0].num_vars()};
    std::vector<SolutionTable> out(static_cast<std::size_t>(p_),
                                   prototype.empty_like());

    // Shared pattern vars beyond the join key must match too.
    std::vector<std::string> check_vars;
    for (const auto& v : pattern_vars(pat)) {
      if (v != join_var && schema_has_var(v)) check_vars.push_back(v);
    }

    each_rank("rank.join_probe", "join:probe",
              [&](int r, telemetry::SpanId span) {
      auto ru = static_cast<std::size_t>(r);
      const auto& bt = build[ru];
      const auto& probe = parts_[ru];
      auto& dst = out[ru];
      int b_join = bt.id_var_index(join_var);

      // Flat grouped index over the build keys: one contiguous probe per
      // key instead of node-chasing an unordered_multimap.
      FlatGroupIndex index(bt.id_col(b_join));

      // Hoisted column plans: (build col, probe col) pairs for the extra
      // equality checks and build columns feeding each new output column.
      struct CheckCols {
        const std::vector<TermId>* b;
        const std::vector<TermId>* p;
      };
      std::vector<CheckCols> checks;
      checks.reserve(check_vars.size());
      for (const auto& cv : check_vars) {
        checks.push_back({&bt.id_col(bt.id_var_index(cv)),
                          &probe.id_col(probe.id_var_index(cv))});
      }
      const std::size_t old_ids = probe.id_vars().size();
      const std::size_t nn = new_vars.size();
      std::vector<const std::vector<TermId>*> new_src;
      std::vector<std::vector<TermId>*> new_dst;
      new_src.reserve(nn);
      new_dst.reserve(nn);
      for (std::size_t k = 0; k < nn; ++k) {
        new_src.push_back(&bt.id_col(bt.id_var_index(new_vars[k])));
        new_dst.push_back(&dst.id_col_mut(static_cast<int>(old_ids + k)));
      }

      const auto& probe_keys = probe.id_col(probe_idx);
      std::vector<RowIndex> src_rows;
      std::size_t produced = 0;
      for (std::size_t row = 0; row < probe_keys.size(); ++row) {
        // Reverse group order: the previous build index prepended equal
        // keys, so its equal_range enumerated build rows newest-first.
        // Downstream operators that move row *tails* (rebalance) are
        // placement-sensitive, so the emission order is part of the
        // modeled-result contract and must not change.
        auto group = index.probe(probe_keys[row]);
        for (std::size_t gi = group.size(); gi-- > 0;) {
          const std::uint32_t brow = group[gi];
          bool ok = true;
          for (const auto& ch : checks) {
            if ((*ch.b)[brow] != (*ch.p)[row]) {
              ok = false;
              break;
            }
          }
          if (!ok) continue;
          src_rows.push_back(static_cast<RowIndex>(row));
          for (std::size_t k = 0; k < nn; ++k) {
            new_dst[k]->push_back((*new_src[k])[brow]);
          }
          ++produced;
        }
      }
      // New-binding columns were written inline; gather the carried-over
      // probe columns in one pass per column.
      dst.append_prefix_from(probe, src_rows);
      charge_graph_op(r, opts_.costs.join_cost(bt.num_rows() +
                                               probe.num_rows() + produced));
      count_attr(span, "produced", produced);
    });
    parts_ = std::move(out);
    clocks_.barrier();
  }

  void cartesian_join(const TriplePattern& pat) {
    // Gather all pattern matches everywhere (assumed small), then cross
    // with local rows.
    SolutionTable matches{pattern_vars(pat)};
    for (int r = 0; r < p_; ++r) scan_pattern_into(r, pat, &matches);
    runtime::charge_tree_collective(clocks_, opts_.topology,
                                    matches.num_rows() * matches.row_bytes());

    std::vector<std::string> schema = parts_[0].id_vars();
    for (const auto& v : matches.id_vars()) schema.push_back(v);
    SolutionTable prototype{schema, parts_[0].num_vars()};
    std::vector<SolutionTable> out(static_cast<std::size_t>(p_),
                                   prototype.empty_like());
    each_rank("rank.join_cartesian", "join:cartesian",
              [&](int r, telemetry::SpanId span) {
      auto ru = static_cast<std::size_t>(r);
      const auto& in = parts_[ru];
      auto& dst = out[ru];
      const std::size_t n = in.num_rows();
      const std::size_t m = matches.num_rows();
      // Row-major (row, mrow) cross product, one column at a time: left
      // columns repeat each value m times, match columns tile whole-column
      // n times, numeric columns repeat like left columns.
      const std::size_t old_ids = in.id_vars().size();
      for (std::size_t c = 0; c < old_ids; ++c) {
        const auto& src = in.id_col(static_cast<int>(c));
        auto& col = dst.id_col_mut(static_cast<int>(c));
        col.reserve(n * m);
        for (std::size_t row = 0; row < n; ++row) {
          col.insert(col.end(), m, src[row]);
        }
      }
      for (std::size_t c = 0; c < matches.id_vars().size(); ++c) {
        const auto& src = matches.id_col(static_cast<int>(c));
        auto& col = dst.id_col_mut(static_cast<int>(old_ids + c));
        col.reserve(n * m);
        for (std::size_t row = 0; row < n; ++row) {
          col.insert(col.end(), src.begin(), src.end());
        }
      }
      for (std::size_t c = 0; c < in.num_vars().size(); ++c) {
        const auto& src = in.num_col(static_cast<int>(c));
        auto& col = dst.num_col_mut(static_cast<int>(c));
        col.reserve(n * m);
        for (std::size_t row = 0; row < n; ++row) {
          col.insert(col.end(), m, src[row]);
        }
      }
      charge_graph_op(r, opts_.costs.join_cost(n * m));
      count_attr(span, "produced", n * m);
    });
    parts_ = std::move(out);
    clocks_.barrier();
  }

  // ---- Keyword / vector operators ----------------------------------------

  void apply_keyword(const KeywordClause& kc) {
    if (!keywords_) {
      IDS_WARN << "keyword clause with no inverted index; skipping";
      return;
    }
    stage_begin("keyword");
    std::vector<TermId> hits = kc.conjunctive
                                   ? keywords_->search_and(kc.tokens)
                                   : keywords_->search_or(kc.tokens);
    // Charge: each rank scans its slice of the posting lists.
    std::size_t posting_work = 0;
    for (const auto& t : kc.tokens) posting_work += keywords_->posting_size(t);
    for (int r = 0; r < p_; ++r) {
      charge_compute(r, opts_.costs.triple_scan_cost(
                            posting_work / static_cast<std::size_t>(p_) + 16));
    }
    semi_join(kc.var, hits);
    mark();
  }

  void apply_vector(const VectorClause& vc) {
    if (!vectors_) {
      IDS_WARN << "vector clause with no vector store; skipping";
      return;
    }
    stage_begin("vector");
    // Per-shard top-k (exact scan, or IVF probing when the clause asks
    // for approximate search), then a global merge (tree gather of k hits).
    std::vector<std::vector<store::VectorHit>> shard_hits(
        static_cast<std::size_t>(p_));
    each_rank("rank.vector", "vector:topk", [&](int r, telemetry::SpanId span) {
      auto ru = static_cast<std::size_t>(r);
      if (vc.ivf_nprobe > 0) {
        store::IvfIndex::Params params;
        params.num_clusters = vc.ivf_clusters;
        store::IvfIndex index(*vectors_, r, params);
        shard_hits[ru] = index.topk(vc.query, vc.k, vc.metric, vc.ivf_nprobe);
        charge_compute(r, opts_.costs.vector_scan_cost(
                              index.work_units(vc.ivf_nprobe)));
      } else {
        shard_hits[ru] = vectors_->topk_shard(r, vc.query, vc.k, vc.metric);
        charge_compute(
            r, opts_.costs.vector_scan_cost(vectors_->scan_work_units(r)));
      }
      count_attr(span, "hits", shard_hits[ru].size());
    });
    runtime::charge_tree_collective(
        clocks_, opts_.topology,
        vc.k * (sizeof(TermId) + sizeof(float)));

    std::vector<store::VectorHit> all;
    for (auto& h : shard_hits) all.insert(all.end(), h.begin(), h.end());
    std::sort(all.begin(), all.end(),
              [](const store::VectorHit& a, const store::VectorHit& b) {
                if (a.score != b.score) return a.score > b.score;
                return a.id < b.id;
              });
    if (all.size() > vc.k) all.resize(vc.k);
    std::vector<TermId> hits;
    hits.reserve(all.size());
    for (const auto& h : all) hits.push_back(h.id);
    std::sort(hits.begin(), hits.end());
    semi_join(vc.var, hits);
    mark();
  }

  /// Restricts `var` to the sorted id set, or seeds solutions from the set
  /// when no rows exist yet.
  void semi_join(const std::string& var, const std::vector<TermId>& ids) {
    if (!has_schema()) {
      SolutionTable prototype{{var}};
      init_parts(prototype);
      for (TermId id : ids) {
        parts_[static_cast<std::size_t>(owner_of(id))].append_row({&id, 1});
      }
      return;
    }
    int idx = parts_[0].id_var_index(var);
    if (idx < 0) {
      IDS_WARN << "semi-join variable ?" << var << " not bound; skipping";
      return;
    }
    each_rank("rank.semi_join", "semi_join",
              [&](int r, telemetry::SpanId span) {
      auto& t = parts_[static_cast<std::size_t>(r)];
      const auto& col = t.id_col(idx);
      std::vector<char> keep(col.size(), 0);
      for (std::size_t row = 0; row < col.size(); ++row) {
        keep[row] =
            std::binary_search(ids.begin(), ids.end(), col[row]) ? 1 : 0;
      }
      charge_graph_op(r, opts_.costs.join_cost(t.num_rows()));
      keep_rows(t, keep, span);
    });
    clocks_.barrier();
  }

  // ---- FILTER stage --------------------------------------------------------

  void apply_filters(const Query& query) {
    if (query.filters.empty() || !has_schema()) return;

    // One profile snapshot plans every rank's conjunct order (§2.4.3:
    // per-rank reordering); no UDF records happen until the filter stage
    // evaluates.
    const udf::ProfileSnapshot profile = profiler_->snapshot();
    const FilterPlan plan =
        plan_filters(query.filters, p_, opts_.reorder_filters, profile);
    const std::vector<expr::Conjunct>& conjuncts = plan.conjuncts;

    // Solution re-balancing (§2.4.2) driven by per-rank single-solution
    // time estimates.
    if (opts_.rebalance != RebalancePolicy::kNone) {
      stage_begin("rebalance");
      std::vector<std::size_t> counts(static_cast<std::size_t>(p_));
      std::vector<double> throughput(static_cast<std::size_t>(p_), 0.0);
      for (int r = 0; r < p_; ++r) {
        auto ru = static_cast<std::size_t>(r);
        counts[ru] = parts_[ru].num_rows();
        double est =
            estimate_solution_seconds(conjuncts, plan.orders[ru], r, profile);
        if (est > 0.0) throughput[ru] = 1.0 / est;
      }
      // Ranks exchange their estimates (one small tree reduction).
      runtime::charge_tree_collective(clocks_, opts_.topology, 8);
      RebalanceDecision decision =
          decide_rebalance(opts_.rebalance, counts, throughput);
      if (decision.rebalance) {
        redistribute_to_targets(decision.targets);
        result_.used_throughput_rebalance |= decision.used_throughput;
        metrics_
            ->counter("ids_engine_rebalance_total",
                      {{"policy", decision.used_throughput ? "throughput"
                                                           : "count"}})
            ->inc();
      }
      if (tracer_ != nullptr) {
        tracer_->add_attr(stage_span_, "policy",
                          std::string_view(opts_.rebalance ==
                                                   RebalancePolicy::kThroughput
                                               ? "throughput"
                                               : "count"));
        tracer_->add_attr(stage_span_, "triggered",
                          static_cast<std::uint64_t>(decision.rebalance));
        tracer_->add_attr(
            stage_span_, "throughput_based",
            static_cast<std::uint64_t>(decision.used_throughput));
        tracer_->add_attr(stage_span_, "speed_ratio", decision.speed_ratio);
      }
      mark();
    }

    // Per-conjunct logical-call multipliers: a conjunct's evaluations are
    // charged as `row_multiplier` logical evaluations unless one of its
    // UDFs has an explicit override (scale model; see EngineOptions).
    std::vector<double> conj_multiplier(conjuncts.size(),
                                        opts_.row_multiplier);
    for (std::size_t ci = 0; ci < conjuncts.size(); ++ci) {
      for (const auto& name : conjuncts[ci].udfs) {
        auto it = opts_.udf_call_multiplier.find(name);
        if (it != opts_.udf_call_multiplier.end()) {
          conj_multiplier[ci] = it->second;
        }
      }
    }

    // Evaluate the chain; the first falsy conjunct rejects the row and is
    // attributed to its last UDF (the rejection statistic of the paper's
    // profiling section).
    stage_begin("filter");
    if (tracer_ != nullptr) {
      tracer_->add_attr(stage_span_, "reorder",
                        std::string_view(opts_.reorder_filters ? "on"
                                                               : "off"));
      tracer_->add_attr(stage_span_, "distinct_orders",
                        static_cast<std::uint64_t>(plan.distinct_orders()));
      std::string rank0;
      for (std::size_t ci : plan.orders[0]) {
        if (!rank0.empty()) rank0 += ',';
        rank0 += std::to_string(ci);
      }
      tracer_->add_attr(stage_span_, "rank0_order", rank0);
    }
    charge_operator_overhead();
    each_rank("rank.filter", "filter", [&](int r, telemetry::SpanId span) {
      auto ru = static_cast<std::size_t>(r);
      auto& t = parts_[ru];
      std::vector<char> keep(t.num_rows(), 1);
      double rank_cost = 0.0;  // nanoseconds, multiplier-weighted
      expr::EvalContext ctx = eval_context(r, t);
      for (std::size_t row = 0; row < t.num_rows(); ++row) {
        ctx.row.row = row;
        ctx.cost = 0;
        for (std::size_t ci : plan.orders[ru]) {
          sim::Nanos before = ctx.cost;
          expr::Value v = expr::eval(*conjuncts[ci].expr, ctx);
          rank_cost += static_cast<double>(ctx.cost - before) *
                       conj_multiplier[ci];
          if (!expr::truthy(v)) {
            keep[row] = 0;
            if (!conjuncts[ci].udfs.empty()) {
              profiler_->record_reject(r, conjuncts[ci].udfs.back());
            }
            break;
          }
        }
      }
      clocks_.at(ru).advance(static_cast<sim::Nanos>(rank_cost));
      keep_rows(t, keep, span);
    });
    mark();
  }

  // ---- DISTINCT / INVOKE ---------------------------------------------------

  void apply_distinct(const std::string& var) {
    if (!has_schema()) return;
    int idx = parts_[0].id_var_index(var);
    if (idx < 0) {
      IDS_WARN << "distinct variable ?" << var << " not bound; skipping";
      return;
    }
    stage_begin("distinct");
    charge_operator_overhead();
    // Co-locate equal values, then keep the first row of each value.
    shuffle_rows(idx);
    each_rank("rank.distinct", "distinct", [&](int r, telemetry::SpanId span) {
      auto& t = parts_[static_cast<std::size_t>(r)];
      const auto& col = t.id_col(idx);
      FlatTermSet seen(col.size());
      std::vector<char> keep(col.size(), 0);
      for (std::size_t row = 0; row < col.size(); ++row) {
        keep[row] = seen.insert(col[row]) ? 1 : 0;
      }
      charge_graph_op(r, opts_.costs.join_cost(t.num_rows()));
      keep_rows(t, keep, span);
    });
    // Spread the survivors evenly: the upcoming INVOKE is expensive and
    // hash placement can clump a small distinct set onto few ranks ("IDS
    // commonly re-balances solutions across ranks between operations").
    redistribute_to_targets(count_based_targets(total_rows(), p_));
    mark();
  }

  std::string render_cache_key(const InvokeClause& inv,
                               const std::vector<expr::Value>& args) const {
    std::string key = inv.cache_prefix;
    for (const auto& a : args) {
      key += '/';
      if (const auto* e = std::get_if<expr::Entity>(&a)) {
        key += triples_->dict().name(e->id);  // name-based, instance-portable
      } else {
        key += expr::to_string(a);
      }
    }
    return key;
  }

  int cache_node_of_rank(int r) const {
    IDS_CHECK(opts_.cache != nullptr);
    return opts_.topology.node_of_rank(r) % opts_.cache->config().num_nodes;
  }

  void apply_invoke(const InvokeClause& inv) {
    if (!has_schema()) return;
    const udf::UdfInfo* info = registry_->find(inv.udf);
    if (!info) {
      IDS_WARN << "INVOKE of unknown UDF " << inv.udf << "; skipping";
      return;
    }
    for (auto& t : parts_) t.add_num_var(inv.out_var);
    const bool cached = inv.use_cache && opts_.cache != nullptr;
    stage_begin("invoke:" + inv.udf);

    std::atomic<std::size_t> invoked{0};
    std::vector<CacheTally> tallies(cached ? clocks_.size() : 0);

    each_rank("rank.invoke", "invoke", [&](int r, telemetry::SpanId span) {
      auto ru = static_cast<std::size_t>(r);
      sim::VirtualClock& clock = clocks_.at(ru);
      auto& t = parts_[ru];
      int out_col = t.num_var_index(inv.out_var);
      // One context and one argument buffer per rank; the row cursor and
      // per-row cost are reset in the loop.
      expr::EvalContext ctx = eval_context(r, t);
      std::vector<expr::Value> args;
      args.reserve(inv.args.size());
      // Like a FILTER call site, the rank asks for the module import once
      // per stage, on its first miss; a force_reload applies from the
      // next stage.
      bool load_charged = false;
      for (std::size_t row = 0; row < t.num_rows(); ++row) {
        ctx.row.row = row;
        ctx.cost = 0;

        args.clear();
        for (const auto& a : inv.args) args.push_back(expr::eval(*a, ctx));
        // Argument-evaluation cost lands on the clock now so the per-call
        // spans below start at the right modeled time. Splitting the
        // row's single advance into several is exact (integer adds), and
        // the cache never reads the clock's current value, so the modeled
        // result is bit-identical to charging everything at row end.
        clock.advance(ctx.cost);
        ctx.cost = 0;

        std::optional<cache::CacheRead> read;
        std::string key;
        if (cached) {
          key = render_cache_key(inv, args);
          const telemetry::SpanId get =
              call_span("cache.get", "cache", span, r, [&] {
                read = opts_.cache->get(clock, cache_node_of_rank(r), key);
              });
          count_attr(get, "hit", read ? 1 : 0);
          CacheTally& tally = tallies[ru];
          if (read) {
            const auto t = static_cast<std::size_t>(read->tier);
            ++tally.hits[t];
            tally.bytes_in[t] += read->size;
          } else {
            ++tally.misses;
          }
        }
        double value = 0.0;
        if (read) {
          value = std::strtod(read->value.c_str(), nullptr);
        } else {
          // Execute the model (a cache miss falls back to re-running the
          // simulation, the paper's "last resort on a total miss").
          call_span(info->name, "udf", span, r, [&] {
            if (!load_charged) {
              ctx.cost += registry_->charge_module_load(r, *info);
              load_charged = true;
            }
            expr::as_double(expr::call_udf(*info, args, ctx), &value);
            invoked.fetch_add(1, std::memory_order_relaxed);
            clock.advance(ctx.cost);
            ctx.cost = 0;
          });
          if (cached) {
            // The value is the exact round-trip text; the artifact it
            // stands for (a full Vina output) is cached_payload_bytes.
            char text[32];
            std::snprintf(text, sizeof(text), "%.17g", value);
            const std::uint64_t size = std::max<std::uint64_t>(
                inv.cached_payload_bytes, std::strlen(text));
            call_span("cache.put", "cache", span, r, [&] {
              opts_.cache->put(clock, cache_node_of_rank(r), key, text, size);
            });
            tallies[ru].bytes_written += size;
          }
        }
        t.set_num(row, out_col, value);
      }
    });
    result_.account.udf_invocations += invoked.load();
    for (const CacheTally& t : tallies) cache_tally_.add(t);

    // Shared-server queueing of the cache's (de)serialization service: a
    // single server processing every cache operation of this stage
    // back-to-back bounds the stage below by ops x service time (the
    // saturated busy period). Per-op latency was already charged by the
    // cache; this enforces the aggregate-throughput cap deterministically.
    // Each row makes one get, which counts one hit (deserialized) or one
    // miss (followed by one put), so the stage's operations equal its
    // rows. Counting rows rather than reading the cache's shared counters
    // keeps other clients' traffic off this query's clock.
    if (cached) {
      double service = opts_.cache->config().serialization_service_seconds;
      if (service > 0.0) {
        const std::size_t ops = total_rows();
        sim::Nanos floor =
            last_mark_ +
            sim::from_seconds(service * static_cast<double>(ops));
        for (std::size_t r = 0; r < clocks_.size(); ++r) {
          clocks_.at(r).raise_to(floor);
        }
      }
    }
    mark();
  }

  // ---- Final gather --------------------------------------------------------

  void gather_and_finish(const Query& query) {
    stage_begin("gather");
    SolutionTable merged =
        has_schema() ? parts_[0].empty_like() : SolutionTable{};
    std::size_t total_bytes = 0;
    for (const auto& t : parts_) {
      merged.append_table(t);
      total_bytes += t.num_rows() * t.row_bytes();
    }
    runtime::charge_tree_collective(clocks_, opts_.topology, total_bytes);
    result_.account.rows_gathered =
        static_cast<std::uint64_t>(merged.num_rows());
    mark();

    // ORDER BY a numeric column.
    if (!query.order_by.empty()) {
      int col = merged.num_var_index(query.order_by);
      if (col >= 0) {
        std::vector<std::size_t> idx(merged.num_rows());
        std::iota(idx.begin(), idx.end(), 0);
        std::stable_sort(idx.begin(), idx.end(),
                         [&](std::size_t a, std::size_t b) {
                           double va = merged.num_at(a, col);
                           double vb = merged.num_at(b, col);
                           return query.order_descending ? va > vb : va < vb;
                         });
        merged = merged.take_rows(idx);
      }
    }
    if (query.limit > 0 && merged.num_rows() > query.limit) {
      merged.truncate(query.limit);
    }

    // SELECT projection (id variables; numeric columns always survive).
    // Columnar: each selected variable is one whole-column copy.
    if (!query.select.empty()) {
      SolutionTable projected{query.select, merged.num_vars()};
      const std::size_t n = merged.num_rows();
      for (std::size_t k = 0; k < query.select.size(); ++k) {
        int c = merged.id_var_index(query.select[k]);
        auto& col = projected.id_col_mut(static_cast<int>(k));
        if (c >= 0) {
          col = merged.id_col(c);
        } else {
          col.assign(n, graph::kInvalidTerm);
        }
      }
      for (std::size_t c = 0; c < merged.num_vars().size(); ++c) {
        projected.num_col_mut(static_cast<int>(c)) =
            merged.num_col(static_cast<int>(c));
      }
      merged = std::move(projected);
    }

    result_.solutions = std::move(merged);
  }

  const EngineOptions& opts_;
  graph::TripleStore* triples_;
  store::FeatureStore* features_;
  store::InvertedIndex* keywords_;
  store::VectorStore* vectors_;
  udf::UdfRegistry* registry_;
  udf::UdfProfiler* profiler_;
  telemetry::Tracer* tracer_;        // nullptr = tracing off
  telemetry::MetricsRegistry* metrics_;
  telemetry::SpanId root_span_ = telemetry::kNoSpan;
  telemetry::SpanId stage_span_ = telemetry::kNoSpan;
  std::string stage_name_;  // the stage stage_begin() opened
  std::uint64_t stage_wall_start_ = 0;

  int p_;
  sim::ClockSet clocks_;
  std::vector<SolutionTable> parts_;
  std::vector<Rng> rank_rngs_;
  QueryResult result_;
  sim::Nanos last_mark_ = 0;

  // Per-query resource accounting; the account itself is result_.account,
  // written only on the engine thread (the exchange loops and mark() run
  // there), so it needs no synchronization.
  std::uint64_t query_wall_start_ = 0;
  std::size_t trace_base_ = 0;  // tracer_->size() at run() start
  CacheTally cache_tally_;  // summed over the query's INVOKE stages
};

}  // namespace

IdsEngine::IdsEngine(EngineOptions options, graph::TripleStore* triples,
                     store::FeatureStore* features,
                     store::InvertedIndex* keywords,
                     store::VectorStore* vectors)
    : options_(std::move(options)),
      triples_(triples),
      features_(features),
      keywords_(keywords),
      vectors_(vectors),
      profiler_(options_.topology.num_ranks(),
                options_.metrics != nullptr
                    ? options_.metrics
                    : &telemetry::MetricsRegistry::global()) {
  IDS_CHECK(triples_->num_shards() == options_.topology.num_ranks())
      << "store sharding must match the rank count";
}

QueryResult IdsEngine::execute(const Query& query) {
  // Serve-phase gate: every store a query can read must be sealed by its
  // freeze method before execution, so nothing execute() reaches mutates
  // (the contract the phase rule family proves statically).
  IDS_CHECK(triples_->frozen())
      << "execute() before TripleStore::finalize()";
  IDS_CHECK(features_ == nullptr || features_->frozen())
      << "execute() before FeatureStore::freeze()";
  IDS_CHECK(keywords_ == nullptr || keywords_->frozen())
      << "execute() before InvertedIndex::freeze()";
  QueryExecution exec(options_, triples_, features_, keywords_, vectors_,
                      &registry_, &profiler_);
  return exec.run(query);
}

std::string IdsEngine::explain(const Query& query) const {
  std::string out = "plan (" + std::to_string(options_.topology.num_nodes) +
                    " nodes x " +
                    std::to_string(options_.topology.ranks_per_node) +
                    " ranks):\n";
  char buf[160];

  auto order = order_patterns(*triples_, query.patterns);
  auto term_str = [this](const graph::PatternTerm& t) {
    return t.is_var ? "?" + t.var : triples_->dict().name(t.constant);
  };
  for (std::size_t i = 0; i < order.size(); ++i) {
    const auto& p = query.patterns[order[i]];
    std::snprintf(buf, sizeof(buf), "  %zu. %s { %s %s %s } est=%zu rows\n",
                  i + 1, i == 0 ? "scan" : "join",
                  term_str(p.s).c_str(), term_str(p.p).c_str(),
                  term_str(p.o).c_str(),
                  estimate_cardinality(*triples_, p));
    out += buf;
  }
  for (const auto& kc : query.keywords) {
    out += "  keyword ?" + kc.var + " matches " +
           (kc.conjunctive ? "ALL" : "ANY") + " of " +
           std::to_string(kc.tokens.size()) + " token(s)\n";
  }
  for (const auto& vc : query.vectors) {
    out += "  vector ?" + vc.var + " top-" + std::to_string(vc.k) +
           (vc.ivf_nprobe > 0 ? " (IVF nprobe=" + std::to_string(vc.ivf_nprobe) + ")"
                              : " (exact scan)") +
           "\n";
  }

  if (!query.filters.empty()) {
    // The plan execute() would build now, from the same profile snapshot.
    const udf::ProfileSnapshot profile = profiler_.snapshot();
    const FilterPlan plan =
        plan_filters(query.filters, options_.topology.num_ranks(),
                     options_.reorder_filters, profile);
    out += "  filter chain (rank 0 order";
    if (options_.reorder_filters) {
      out += ", " + std::to_string(plan.distinct_orders()) +
             " distinct order(s) across ranks";
    } else {
      out += ", reordering off";
    }
    out += "):\n";
    for (std::size_t ci : plan.orders[0]) {
      const expr::Conjunct& c = plan.conjuncts[ci];
      ConjunctEstimate est = estimate_conjunct(c, 0, profile);
      std::snprintf(buf, sizeof(buf),
                    "    %-48s est_cost=%.4gs reject_rate=%.2f\n",
                    c.expr->to_string().c_str(), est.cost_seconds,
                    est.rejection_rate);
      out += buf;
    }
  }

  if (!query.distinct_var.empty()) {
    out += "  distinct ?" + query.distinct_var + "\n";
  }
  for (const auto& inv : query.invokes) {
    out += "  invoke " + inv.udf + " -> ?" + inv.out_var;
    if (inv.use_cache && options_.cache) {
      out += " [cached: " + inv.cache_prefix + "]";
    }
    out += "\n";
  }
  if (!query.order_by.empty()) {
    out += "  order by ?" + query.order_by +
           (query.order_descending ? " desc" : " asc") + "\n";
  }
  if (query.limit > 0) out += "  limit " + std::to_string(query.limit) + "\n";
  return out;
}

}  // namespace ids::core
