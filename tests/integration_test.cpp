// Full-stack integration: the NCNPR workflow driven end-to-end through
// the deployment surface — launcher session, dataset generated into the
// session's stores, the workflow UDFs registered on the session's engine,
// the query submitted as TEXT, docking backed by the global cache, and
// results consistent across a cold and a warm run.

#include <gtest/gtest.h>

#include "core/workflow.h"
#include "deploy/service.h"

namespace ids {
namespace {

constexpr const char* kQueryText = R"(
  SELECT ?cpd
  WHERE {
    ?prot rdf:type bio:Protein .
    ?prot up:reviewed "true" .
    ?cpd chembl:inhibits ?prot .
  }
  FILTER ncnpr.sw_similarity(?prot) >= 0.9 && ncnpr.pic50(?cpd) >= 4.5
  DISTINCT ?cpd
  INVOKE ncnpr.dock(?cpd) AS ?energy CACHE "vina/P29274"
  ORDER BY ?energy
)";

datagen::LifeSciConfig tiny_config() {
  datagen::LifeSciConfig cfg;
  cfg.num_families = 6;
  cfg.proteins_per_family = 8;
  cfg.num_related_families = 2;
  cfg.compounds_per_family = 8;
  cfg.seq_len_mean = 160;
  cfg.seq_len_jitter = 20;
  cfg.seed = 99;
  return cfg;
}

TEST(Integration, TextQueryThroughDeploymentWithCache) {
  constexpr int kRanks = 8;
  cache::CacheConfig cc;
  cc.num_nodes = 2;
  cc.dram_capacity_bytes = 64 << 20;
  cache::CacheManager cache(cc);

  deploy::DatastoreLauncher launcher;
  core::EngineOptions opts;
  opts.topology = runtime::Topology::laptop(kRanks);
  opts.cache = &cache;
  auto sid = launcher.launch(opts);
  ASSERT_TRUE(sid.ok());
  deploy::DatastoreClient client(&launcher, sid.value());
  deploy::IdsSession* session = launcher.session(sid.value());

  // Generate the dataset straight into the session's stores.
  datagen::LifeSciDataset ds = datagen::generate_lifesci(
      tiny_config(), &session->triples(), &session->features());
  session->triples().finalize();

  // Register the workflow UDFs against the *session's* stores. The helper
  // expects an NcnprData, so read the target sequence and register via
  // the engine directly (the same functions the client's import_udf path
  // exercises elsewhere).
  core::NcnprData shim;
  auto seq = session->features().get_string(ds.target_protein,
                                            datagen::Feat::kSequence);
  ASSERT_TRUE(seq.has_value());
  shim.target_sequence = std::string(*seq);
  shim.triples = nullptr;  // not used by register_ncnpr_udfs
  core::register_ncnpr_udfs(&session->engine(), shim);

  // Cold run: misses populate the cache.
  auto cold = client.query(kQueryText);
  ASSERT_TRUE(cold.ok()) << cold.status().to_string();
  ASSERT_GT(cold.value().account.udf_invocations, 0u);
  EXPECT_EQ(cold.value().account.cache_hits(), 0u);

  // Warm run: every docking served from the cache, results identical.
  auto warm = client.query(kQueryText);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm.value().account.cache_misses, 0u);
  EXPECT_EQ(warm.value().account.cache_hits(),
            cold.value().account.cache_misses);
  EXPECT_LT(warm.value().total_seconds, cold.value().total_seconds);
  ASSERT_EQ(warm.value().solutions.num_rows(),
            cold.value().solutions.num_rows());
  int ec = warm.value().solutions.num_var_index("energy");
  for (std::size_t row = 0; row < warm.value().solutions.num_rows(); ++row) {
    EXPECT_DOUBLE_EQ(warm.value().solutions.num_at(row, ec),
                     cold.value().solutions.num_at(row, ec));
  }

  // Logs tell the story.
  bool saw_query = false;
  for (const auto& e : client.fetch_logs()) {
    if (e.message.find("query done") == 0) saw_query = true;
  }
  EXPECT_TRUE(saw_query);
}

}  // namespace
}  // namespace ids
