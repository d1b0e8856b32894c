// Global multi-tier cache tests: tier hit paths and their cost ordering,
// modeled sizes, LRU + spill, locality queries, placement hints, node
// failure and repopulation, write-through semantics, and statistics.

#include <gtest/gtest.h>

#include <memory>

#include "cache/manager.h"
#include "core/engine.h"

namespace ids::cache {
namespace {

CacheConfig small_config() {
  CacheConfig c;
  c.num_nodes = 4;
  c.dram_capacity_bytes = 1000;
  c.ssd_capacity_bytes = 4000;
  return c;
}

TEST(ObjectIdTest, StableAndDistinct) {
  EXPECT_EQ(object_id("vina/P29274/CCN"), object_id("vina/P29274/CCN"));
  EXPECT_NE(object_id("a"), object_id("b"));
}

TEST(Cache, PutThenLocalGetHitsLocalDram) {
  CacheManager cache(small_config());
  sim::VirtualClock clock;
  cache.put(clock, 0, "obj", "v", 100);
  auto got = cache.get(clock, 0, "obj");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->value, "v");
  EXPECT_EQ(got->tier, ReadTier::kLocalDram);
  EXPECT_EQ(got->size, 100u);
  EXPECT_EQ(cache.stats().hits_local_dram, 1u);
}

TEST(Cache, RemoteGetHitsRemoteDramAndCostsMore) {
  // Each DRAM write and read is one OpenFAM transfer of the modeled size
  // between the caller and the owner node's memory server: intra-node for
  // the owner itself, over the fabric for anyone else.
  const CacheConfig cfg = small_config();
  CacheManager cache(cfg);
  const std::uint64_t size = 400;
  auto directory = [&cfg](int node) -> sim::Nanos {
    const auto shard = object_id("obj").value %
                       static_cast<std::uint64_t>(cfg.num_nodes);
    return shard == static_cast<std::uint64_t>(node)
               ? 0
               : cfg.fabric.inter_node.transfer_cost(64) * 2;
  };

  sim::VirtualClock w;
  cache.put(w, 0, "obj", "v", size);
  EXPECT_EQ(w.now(), directory(0) +
                         cfg.fabric.backing_store.transfer_cost(size) +
                         cfg.fabric.intra_node.transfer_cost(size));

  sim::VirtualClock local;
  sim::VirtualClock remote;
  ASSERT_TRUE(cache.get(local, 0, "obj").has_value());
  ASSERT_TRUE(cache.get(remote, 2, "obj").has_value());
  EXPECT_EQ(cache.stats().hits_local_dram, 1u);
  EXPECT_EQ(cache.stats().hits_remote_dram, 1u);
  EXPECT_EQ(local.now(),
            directory(0) + cfg.fabric.intra_node.transfer_cost(size));
  EXPECT_EQ(remote.now(),
            directory(2) + cfg.fabric.inter_node.transfer_cost(size));
  EXPECT_LT(local.now(), remote.now());
}

TEST(Cache, DramEvictionSpillsToSsdLru) {
  CacheManager cache(small_config());  // 1000 B DRAM per node
  sim::VirtualClock clock;
  cache.put(clock, 0, "a", "v", 400);
  cache.put(clock, 0, "b", "v", 400);
  // Touch "a" so "b" is the LRU victim.
  ASSERT_TRUE(cache.get(clock, 0, "a").has_value());
  cache.put(clock, 0, "c", "v", 400);  // evicts b -> SSD

  EXPECT_EQ(cache.stats().spills_to_ssd, 1u);
  auto locs = cache.locations("b");
  ASSERT_EQ(locs.size(), 1u);
  EXPECT_EQ(locs[0].tier, TierKind::kSsd);
  // And "b" is still served (from SSD).
  cache.reset_stats();
  ASSERT_TRUE(cache.get(clock, 0, "b").has_value());
  EXPECT_EQ(cache.stats().hits_local_ssd, 1u);
}

TEST(Cache, SsdDisabledDropsOnEviction) {
  CacheConfig cfg = small_config();
  cfg.enable_ssd = false;
  CacheManager cache(cfg);
  sim::VirtualClock clock;
  cache.put(clock, 0, "a", "v", 600);
  cache.put(clock, 0, "b", "v", 600);  // evicts a, which is simply dropped
  EXPECT_EQ(cache.stats().spills_to_ssd, 0u);
  EXPECT_TRUE(cache.locations("a").empty());
  // Only the backing store still holds "a".
  ASSERT_TRUE(cache.get(clock, 1, "a").has_value());
  EXPECT_EQ(cache.stats().hits_backing, 1u);
}

TEST(Cache, TierCostOrdering) {
  // local DRAM < local SSD < remote DRAM(+) < backing store for a sizable
  // object, matching §3's motivation for the tier hierarchy.
  CacheConfig cfg = small_config();
  cfg.dram_capacity_bytes = 1 << 20;
  cfg.ssd_capacity_bytes = 4 << 20;
  CacheManager cache(cfg);
  sim::VirtualClock w;
  const std::size_t size = 512 * 1024;

  cache.put(w, 0, "dram_obj", "v", size);

  auto timed_get = [&cache](int node, const std::string& name) {
    sim::VirtualClock c;
    EXPECT_TRUE(cache.get(c, node, name).has_value());
    return c.now();
  };

  sim::Nanos local_dram = timed_get(0, "dram_obj");
  sim::Nanos remote_dram = timed_get(1, "dram_obj");
  EXPECT_LT(local_dram, remote_dram);

  // Force a spill to SSD by filling node 0's DRAM.
  cache.put(w, 0, "filler1", "v", 512 * 1024);
  cache.put(w, 0, "filler2", "v", 512 * 1024);
  auto locs = cache.locations("dram_obj");
  ASSERT_FALSE(locs.empty());
  ASSERT_EQ(locs[0].tier, TierKind::kSsd);
  sim::Nanos local_ssd = timed_get(0, "dram_obj");
  EXPECT_GT(local_ssd, local_dram);
}

TEST(Cache, BackingStoreServesAfterAllCopiesLost) {
  CacheManager cache(small_config());
  sim::VirtualClock clock;
  cache.put(clock, 0, "persist", "v", 200);
  cache.fail_node(0);
  EXPECT_TRUE(cache.locations("persist").empty());

  // Served from the backing store and re-populated into local DRAM.
  cache.reset_stats();
  ASSERT_TRUE(cache.get(clock, 1, "persist").has_value());
  EXPECT_EQ(cache.stats().hits_backing, 1u);
  auto locs = cache.locations("persist");
  ASSERT_EQ(locs.size(), 1u);
  EXPECT_EQ(locs[0].node, 1);
  EXPECT_EQ(locs[0].tier, TierKind::kDram);

  // Second read is a local DRAM hit: the working set rebuilt itself.
  cache.reset_stats();
  ASSERT_TRUE(cache.get(clock, 1, "persist").has_value());
  EXPECT_EQ(cache.stats().hits_local_dram, 1u);
}

// A put hinted to another node pays for moving the copy there: the FAM
// write crosses the fabric from the writer instead of staying on the
// target node. Everything else the two puts charge is the same.
TEST(Cache, HintedPutPaysForMovingTheCopy) {
  CacheConfig cfg = small_config();
  cfg.dram_capacity_bytes = 1 << 20;
  constexpr std::uint64_t kSize = 50'000;
  CacheManager unhinted_cache(cfg);
  CacheManager hinted_cache(cfg);
  sim::VirtualClock unhinted;
  sim::VirtualClock hinted;
  unhinted_cache.put(unhinted, 0, "obj", "v", kSize);
  PlacementHint hint;
  hint.target_node = 3;
  hinted_cache.put(hinted, 0, "obj", "v", kSize, hint);
  EXPECT_EQ(hinted.now() - unhinted.now(),
            cfg.fabric.inter_node.transfer_cost(kSize) -
                cfg.fabric.intra_node.transfer_cost(kSize));
}

TEST(Cache, PlacementHintPinsNode) {
  CacheManager cache(small_config());
  sim::VirtualClock clock;
  PlacementHint hint;
  hint.target_node = 3;
  cache.put(clock, 0, "pinned", "v", 100, hint);
  auto locs = cache.locations("pinned");
  ASSERT_EQ(locs.size(), 1u);
  EXPECT_EQ(locs[0].node, 3);
}

TEST(Cache, LocalityQueryPrefersLocalThenRemoteDram) {
  CacheManager cache(small_config());
  sim::VirtualClock clock;
  cache.put(clock, 1, "obj", "v", 100);
  EXPECT_EQ(cache.nearest_node_with("obj", 1), 1);
  EXPECT_EQ(cache.nearest_node_with("obj", 0), 1);
  EXPECT_EQ(cache.nearest_node_with("missing", 0), -1);
}

TEST(Cache, OverwriteReplacesPayload) {
  CacheManager cache(small_config());
  sim::VirtualClock clock;
  cache.put(clock, 0, "v", "first", 5);
  cache.put(clock, 0, "v", "second-version", 14);
  auto got = cache.get(clock, 0, "v");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->value, "second-version");
  EXPECT_EQ(cache.num_objects(), 1u);
}

TEST(Cache, ObjectBiggerThanDramGoesToSsd) {
  CacheManager cache(small_config());  // DRAM 1000, SSD 4000
  sim::VirtualClock clock;
  cache.put(clock, 0, "big", "v", 2000);
  auto locs = cache.locations("big");
  ASSERT_EQ(locs.size(), 1u);
  EXPECT_EQ(locs[0].tier, TierKind::kSsd);
  ASSERT_TRUE(cache.get(clock, 0, "big").has_value());
}

// A short value stored with modeled size N is charged and counted exactly
// like an N-byte value at every tier, and each get reports its tier and N.
TEST(Cache, ModeledSizeIsChargedAtEveryTier) {
  constexpr std::uint64_t kSize = 50'000;
  CacheConfig cfg = small_config();
  cfg.dram_capacity_bytes = kSize + kSize / 2;  // one object per node
  cfg.ssd_capacity_bytes = 1 << 20;

  struct Read {
    ReadTier tier;
    std::uint64_t size;
    sim::Nanos charged;
  };
  // Reaches every tier, reading "a" from node 0 (its writer) and node 1.
  auto drive = [&](const std::string& value) {
    CacheManager cache(cfg);
    sim::VirtualClock w;
    std::vector<Read> reads;
    auto read = [&](int node) {
      sim::VirtualClock c;
      auto got = cache.get(c, node, "a");
      EXPECT_TRUE(got.has_value());
      if (got) {
        EXPECT_EQ(got->value, value);
        reads.push_back({got->tier, got->size, c.now()});
      }
    };
    cache.put(w, 0, "a", value, kSize);
    read(0);                             // local DRAM
    read(1);                             // remote DRAM
    cache.put(w, 0, "b", value, kSize);  // spills "a" to node 0's SSD
    read(0);                             // local SSD
    read(1);                             // remote SSD
    cache.fail_node(0);
    read(1);                             // backing store
    const CacheStats st = cache.stats();
    EXPECT_EQ(st.bytes_read, 5 * kSize);
    EXPECT_EQ(st.bytes_written, 2 * kSize);
    EXPECT_EQ(st.spills_to_ssd, 1u);
    return std::make_pair(reads, w.now());
  };

  const auto [reads, put_clock] = drive("-7.2999999999999998");
  const std::vector<ReadTier> tiers = {
      ReadTier::kLocalDram, ReadTier::kRemoteDram, ReadTier::kLocalSsd,
      ReadTier::kRemoteSsd, ReadTier::kBacking};
  ASSERT_EQ(reads.size(), tiers.size());
  const auto [full_reads, full_put_clock] = drive(std::string(kSize, 'x'));
  ASSERT_EQ(full_reads.size(), tiers.size());
  EXPECT_EQ(put_clock, full_put_clock);
  for (std::size_t i = 0; i < tiers.size(); ++i) {
    EXPECT_EQ(reads[i].tier, tiers[i]) << i;
    EXPECT_EQ(reads[i].size, kSize) << i;
    EXPECT_EQ(reads[i].charged, full_reads[i].charged) << i;
  }
}

TEST(Cache, StatsBytesAccounting) {
  CacheManager cache(small_config());
  sim::VirtualClock clock;
  cache.put(clock, 0, "x", "v", 300);
  cache.get(clock, 0, "x");
  EXPECT_EQ(cache.stats().bytes_written, 300u);
  EXPECT_EQ(cache.stats().bytes_read, 300u);
  EXPECT_EQ(cache.stats().puts, 1u);
  EXPECT_FALSE(cache.stats().to_string().empty());
}

TEST(Cache, MissOnUnknownObject) {
  CacheManager cache(small_config());
  sim::VirtualClock clock;
  EXPECT_FALSE(cache.get(clock, 0, "never-put").has_value());
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(Cache, SerializationServiceChargesPerOp) {
  CacheConfig cfg = small_config();
  cfg.serialization_service_seconds = 0.25;
  CacheManager cache(cfg);
  sim::VirtualClock clock;
  cache.put(clock, 0, "obj", "v", 100);
  sim::Nanos after_put = clock.now();
  EXPECT_GE(after_put, sim::from_seconds(0.25));
  ASSERT_TRUE(cache.get(clock, 0, "obj").has_value());
  EXPECT_GE(clock.now(), after_put + sim::from_seconds(0.25));
}

// The query account counts the query's own cache reads, as get() reports
// them. With one client on the cache, a cold and a warm run of the same
// cached INVOKE must together account for every increment of the cache's
// registry counters exactly.
TEST(CacheEngineEquivalence, AccountCountersMatchRegistry) {
  telemetry::MetricsRegistry reg;
  CacheConfig cc;
  cc.num_nodes = 2;
  cc.dram_capacity_bytes = 10 << 20;
  cc.metrics = &reg;
  cc.name = "eq";
  CacheManager cache(cc);

  constexpr int kRanks = 4;
  auto triples = std::make_unique<graph::TripleStore>(kRanks);
  auto features = std::make_unique<store::FeatureStore>(kRanks);
  auto& d = triples->dict();
  for (int i = 0; i < 10; ++i) {
    std::string person = "person" + std::to_string(i);
    triples->add(person, "type", "Person");
    features->set(*d.lookup(person), "age", 20.0 + i);
  }
  triples->finalize();
  features->freeze();

  core::EngineOptions opts;
  opts.topology = runtime::Topology::laptop(kRanks);
  opts.cache = &cache;
  core::IdsEngine eng(opts, triples.get(), features.get());
  eng.registry().register_static(
      "expensive",
      [](const udf::UdfContext& ctx, std::span<const expr::Value> args) {
        const auto* e = std::get_if<expr::Entity>(&args[0]);
        auto age = ctx.features->get_double(e->id, "age");
        return udf::UdfResult{age ? *age : 0.0, sim::from_seconds(30.0)};
      });
  core::Query q;
  q.patterns.push_back({graph::PatternTerm::Var("x"),
                        graph::PatternTerm::Const(*d.lookup("type")),
                        graph::PatternTerm::Const(*d.lookup("Person"))});
  core::InvokeClause inv;
  inv.udf = "expensive";
  inv.args = {expr::Expr::Var("x")};
  inv.out_var = "v";
  inv.use_cache = true;
  inv.cache_prefix = "exp";
  q.invokes.push_back(inv);

  core::QueryResult cold = eng.execute(q);  // misses; results get stashed
  core::QueryResult warm = eng.execute(q);  // every row served from cache

  CacheStats cs = cache.stats();
  const telemetry::QueryResourceAccount& c = cold.account;
  const telemetry::QueryResourceAccount& w = warm.account;
  EXPECT_EQ(c.cache_misses, 10u);
  EXPECT_EQ(c.cache_hits() + w.cache_misses, 0u);
  EXPECT_EQ(w.cache_hits(), 10u);
  EXPECT_EQ(c.cache_hits() + w.cache_hits(), cs.total_hits());
  EXPECT_EQ(c.cache_misses + w.cache_misses, cs.misses);

  // The stats struct itself is a view over the same registry counters.
  EXPECT_EQ(cs.misses,
            reg.counter("ids_cache_misses_total", {{"cache", "eq"}})->value());
  EXPECT_EQ(cs.hits_local_dram,
            reg.counter("ids_cache_hits_total",
                        {{"cache", "eq"}, {"tier", "local_dram"}})
                ->value());
  EXPECT_EQ(cs.puts,
            reg.counter("ids_cache_puts_total", {{"cache", "eq"}})->value());
}

// The serialization floor of a cached INVOKE counts the stage's own cache
// operations, one get per row, so another client's cache traffic during
// the stage must leave the query's modeled time and its account alone. The UDF body stands
// in for that client: each call also reads an unrelated key on a clock of
// its own.
TEST(CacheEngineEquivalence, SerializationFloorIgnoresOtherClientsTraffic) {
  constexpr int kRanks = 64;
  constexpr int kRows = 400;
  auto triples = std::make_unique<graph::TripleStore>(kRanks);
  auto features = std::make_unique<store::FeatureStore>(kRanks);
  for (int i = 0; i < kRows; ++i) {
    std::string item = "item";
    item += std::to_string(i);
    triples->add(item, "type", "Item");
  }
  triples->finalize();
  features->freeze();
  auto& d = triples->dict();

  auto invoke_seconds = [&](bool other_client) {
    CacheConfig cc;
    cc.num_nodes = 2;
    cc.serialization_service_seconds = 1e-4;
    CacheManager cache(cc);
    core::EngineOptions opts;
    opts.topology = runtime::Topology::laptop(kRanks);
    opts.cache = &cache;
    core::IdsEngine eng(opts, triples.get(), features.get());
    eng.registry().register_static(
        "model", [&cache, other_client](const udf::UdfContext&,
                                        std::span<const expr::Value>) {
          if (other_client) {
            sim::VirtualClock elsewhere;
            (void)cache.get(elsewhere, 0, "other/client/key");
          }
          return udf::UdfResult{1.0, sim::from_micros(10)};
        });
    core::Query q;
    q.patterns.push_back({graph::PatternTerm::Var("x"),
                          graph::PatternTerm::Const(*d.lookup("type")),
                          graph::PatternTerm::Const(*d.lookup("Item"))});
    core::InvokeClause inv;
    inv.udf = "model";
    inv.args = {expr::Expr::Var("x")};
    inv.out_var = "v";
    inv.use_cache = true;
    inv.cache_prefix = "floor";
    inv.cached_payload_bytes = 64;
    q.invokes.push_back(inv);
    const core::QueryResult r = eng.execute(q);
    EXPECT_EQ(r.account.udf_invocations, std::uint64_t{kRows});
    EXPECT_EQ(cache.stats().misses,
              static_cast<std::uint64_t>(other_client ? 2 * kRows : kRows));
    // The account counts only this query's own reads and puts.
    EXPECT_EQ(r.account.cache_misses, std::uint64_t{kRows});
    EXPECT_EQ(r.account.cache_hits(), 0u);
    EXPECT_EQ(r.account.cache_bytes_written, std::uint64_t{kRows} * 64);
    return r.stage_seconds("invoke:model");
  };
  const double alone = invoke_seconds(false);
  // A floor over the other client's gets as well (800 x 1e-4 s) would bind.
  EXPECT_LT(alone, 2 * kRows * 1e-4);
  EXPECT_EQ(invoke_seconds(true), alone);
}

}  // namespace
}  // namespace ids::cache
