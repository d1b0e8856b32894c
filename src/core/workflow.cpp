#include "core/workflow.h"

#include "common/check.h"
#include "common/hash.h"
#include "models/dtba.h"
#include "models/pic50.h"
#include "models/smith_waterman.h"
#include "models/structure.h"

namespace ids::core {

namespace {

using datagen::Feat;
using datagen::Vocab;
using expr::Entity;
using expr::Value;

std::optional<std::string_view> sequence_of(const udf::UdfContext& ctx,
                                            const Value& v) {
  const Entity* e = std::get_if<Entity>(&v);
  if (!e || !ctx.features) return std::nullopt;
  return ctx.features->get_string(e->id, Feat::kSequence);
}

std::optional<std::string_view> smiles_of(const udf::UdfContext& ctx,
                                          const Value& v) {
  const Entity* e = std::get_if<Entity>(&v);
  if (!e || !ctx.features) return std::nullopt;
  return ctx.features->get_string(e->id, Feat::kSmiles);
}

}  // namespace

NcnprData build_ncnpr_data(const datagen::LifeSciConfig& config,
                           int num_shards) {
  NcnprData data;
  data.triples = std::make_unique<graph::TripleStore>(num_shards);
  data.features = std::make_unique<store::FeatureStore>(num_shards);
  data.keywords = std::make_unique<store::InvertedIndex>();
  data.vectors = std::make_unique<store::VectorStore>(
      num_shards, static_cast<int>(models::DtbaModel::kProteinDims));
  data.dataset = datagen::generate_lifesci(
      config, data.triples.get(), data.features.get(),
      config.build_keyword_index ? data.keywords.get() : nullptr,
      config.build_vector_store ? data.vectors.get() : nullptr);
  data.triples->finalize();
  data.features->freeze();
  data.keywords->freeze();
  auto seq = data.features->get_string(data.dataset.target_protein,
                                       Feat::kSequence);
  IDS_CHECK(seq.has_value()) << "target protein has no sequence feature";
  data.target_sequence = std::string(*seq);
  return data;
}

void register_ncnpr_udfs(IdsEngine* engine, const NcnprData& data,
                         const models::DockingParams& docking) {
  const models::CostProfile& costs = engine->options().costs;
  const sim::Nanos load_cost = costs.module_load_cost();
  auto& registry = engine->registry();

  // Shared workflow state captured by the UDF closures. Building the
  // receptor runs the structure-prediction step once (the AlphaFold leg of
  // the workflow). The SW scorer starts empty and memoizes each sequence
  // the first time a row asks about it; it lives as long as this
  // registration's closure.
  auto structure =
      std::make_shared<models::PredictedStructure>(
          models::predict_structure(data.target_sequence));
  auto docking_engine = std::make_shared<models::DockingEngine>(
      models::receptor_from_structure(*structure), docking);
  auto dtba_model = std::make_shared<models::DtbaModel>();
  auto sw_scorer = std::make_shared<models::TargetScorer>(data.target_sequence);

  registry.register_dynamic(
      "ncnpr", "sw_similarity",
      [sw_scorer, costs](const udf::UdfContext& ctx,
                         std::span<const Value> args) -> udf::UdfResult {
        auto seq = sequence_of(ctx, args.empty() ? Value{} : args[0]);
        if (!seq) return {expr::null_value(), costs.sw_cost(1)};
        // Every row is still charged its alignment's modeled cost; only
        // the host-side alignment is shared between rows.
        models::TargetScorer::Score s = sw_scorer->score(*seq);
        return {s.similarity, costs.sw_cost(s.cells)};
      },
      load_cost);

  registry.register_dynamic(
      "ncnpr", "pic50",
      [costs](const udf::UdfContext& ctx,
              std::span<const Value> args) -> udf::UdfResult {
        const Entity* e =
            args.empty() ? nullptr : std::get_if<Entity>(&args[0]);
        if (!e || !ctx.features) return {expr::null_value(), costs.pic50_cost()};
        auto ic50 = ctx.features->get_double(e->id, Feat::kIc50Nm);
        if (!ic50) return {expr::null_value(), costs.pic50_cost()};
        auto p = models::pic50_from_ic50_nm(*ic50);
        if (!p) return {expr::null_value(), costs.pic50_cost()};
        return {*p, costs.pic50_cost()};
      },
      load_cost);

  registry.register_dynamic(
      "ncnpr", "dtba",
      [dtba_model, costs](const udf::UdfContext& ctx,
                          std::span<const Value> args) -> udf::UdfResult {
        if (args.size() < 2) return {expr::null_value(), 0};
        auto seq = sequence_of(ctx, args[0]);
        auto smi = smiles_of(ctx, args[1]);
        if (!seq || !smi) {
          return {expr::null_value(), sim::from_seconds(1e-6)};
        }
        models::DtbaModel::Prediction p = dtba_model->predict(*seq, *smi);
        std::uint64_t call_hash =
            hash_combine(fnv1a64(*seq), fnv1a64(*smi));
        return {p.affinity, costs.dtba_cost(p.work_units, call_hash)};
      },
      load_cost);

  registry.register_dynamic(
      "ncnpr", "dock",
      [docking_engine, costs](const udf::UdfContext& ctx,
                              std::span<const Value> args) -> udf::UdfResult {
        auto smi = smiles_of(ctx, args.empty() ? Value{} : args[0]);
        if (!smi) return {expr::null_value(), sim::from_seconds(1e-6)};
        models::DockingResult r = docking_engine->dock_smiles(*smi, 0);
        return {r.best_energy, costs.docking_cost(r.work_units)};
      },
      load_cost);
}

Query make_ncnpr_query(const NcnprData& data, const NcnprThresholds& t,
                       bool with_docking, bool docking_cached) {
  const auto& dict = data.triples->dict();
  auto term = [&dict](const char* iri) {
    auto id = dict.lookup(iri);
    IDS_CHECK(id.has_value())
        << "vocabulary term missing from the graph: " << iri;
    return graph::PatternTerm::Const(*id);
  };
  auto var = [](const char* name) { return graph::PatternTerm::Var(name); };

  Query q;
  // Step 1+3: reviewed proteins and the compounds that inhibit them.
  q.patterns.push_back({var("prot"), term(Vocab::kType), term(Vocab::kProtein)});
  q.patterns.push_back({var("prot"), term(Vocab::kReviewed), term(Vocab::kTrue)});
  q.patterns.push_back({var("cpd"), term(Vocab::kInhibits), var("prot")});

  // Step 4: the filter chain, written cheapest-last on purpose — the
  // planner's profile-driven reordering has to earn its keep.
  using expr::CmpOp;
  using expr::Expr;
  q.filters.push_back(Expr::Compare(
      CmpOp::kGe, Expr::Udf("ncnpr.dtba", {Expr::Var("prot"), Expr::Var("cpd")}),
      Expr::Constant(t.min_dtba)));
  q.filters.push_back(Expr::Compare(
      CmpOp::kGe, Expr::Udf("ncnpr.sw_similarity", {Expr::Var("prot")}),
      Expr::Constant(t.min_sw_similarity)));
  q.filters.push_back(Expr::Compare(
      CmpOp::kGe, Expr::Udf("ncnpr.pic50", {Expr::Var("cpd")}),
      Expr::Constant(t.min_pic50)));

  // Step 5: dock each surviving compound once.
  if (with_docking) {
    q.distinct_var = "cpd";
    InvokeClause dock;
    dock.udf = "ncnpr.dock";
    dock.args = {expr::Expr::Var("cpd")};
    dock.out_var = "energy";
    dock.use_cache = docking_cached;
    dock.cache_prefix = "vina/P29274";
    q.invokes.push_back(std::move(dock));
    q.order_by = "energy";
  }
  q.select = {"cpd"};
  return q;
}

}  // namespace ids::core
