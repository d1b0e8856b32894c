// Multi-threaded hammer tests for the shared-state subsystems, designed to
// give -fsanitize=thread real races to hunt (build-tsan runs this same
// binary). Each test spins several OS threads against one shared object
// with overlapping key sets, then checks cross-thread invariants that only
// hold if the internal locking is airtight. Iteration counts are sized so
// the suite stays in the low seconds even single-core under TSan.

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "cache/manager.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/engine.h"
#include "core/rebalancer.h"
#include "datagen/lifesci.h"
#include "graph/dictionary.h"
#include "models/smith_waterman.h"
#include "sim/virtual_clock.h"
#include "udf/profiler.h"
#include "udf/registry.h"

namespace ids {
namespace {

constexpr int kThreads = 4;

/// Runs fn(thread_index) on kThreads OS threads and joins them. Real
/// std::threads, not the pool: TSan should watch genuinely concurrent
/// callers, and the pool itself is one of the systems under test.
template <typename Fn>
void hammer(const Fn& fn) {
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&fn, t] { fn(t); });
  }
  for (auto& th : threads) th.join();
}

TEST(ConcurrencyStress, CacheManagerGetPutEvictAcrossTiers) {
  cache::CacheConfig cfg;
  cfg.num_nodes = 3;
  // Tiny tiers so concurrent puts force constant DRAM eviction and SSD
  // spill/drop traffic — the interesting interleavings.
  cfg.dram_capacity_bytes = 4 << 10;
  cfg.ssd_capacity_bytes = 8 << 10;
  cache::CacheManager cache(cfg);

  constexpr int kObjects = 24;
  constexpr int kOpsPerThread = 300;

  hammer([&](int t) {
    sim::VirtualClock clock;  // per-thread clock, like per-rank execution
    Rng rng(0xace0 + static_cast<std::uint64_t>(t));
    int node = t % cfg.num_nodes;
    for (int i = 0; i < kOpsPerThread; ++i) {
      auto obj = static_cast<int>(rng.next_below(kObjects));
      std::string name = "obj/" + std::to_string(obj);
      switch (rng.next_below(4)) {
        case 0:
          cache.put(clock, node, name, name,
                    512 + 16 * static_cast<std::uint64_t>(obj));
          break;
        case 1:
          (void)cache.locations(name);
          break;
        case 2:
          (void)cache.nearest_node_with(name, node);
          break;
        default: {
          auto hit = cache.get(clock, node, name);
          if (hit) {
            // Object integrity: the value is the name, and the modeled
            // size is a pure function of the object id.
            EXPECT_EQ(hit->value, name);
            EXPECT_EQ(hit->size, 512 + 16 * static_cast<std::uint64_t>(obj));
          }
          break;
        }
      }
    }
  });

  // Accounting invariants survive the storm.
  for (int n = 0; n < cfg.num_nodes; ++n) {
    EXPECT_LE(cache.dram_used(n), cfg.dram_capacity_bytes);
    EXPECT_LE(cache.ssd_used(n), cfg.ssd_capacity_bytes);
  }
  const cache::CacheStats stats = cache.stats();
  EXPECT_GT(stats.puts, 0u);
}

TEST(ConcurrencyStress, CacheManagerNodeFailureDuringTraffic) {
  cache::CacheConfig cfg;
  cfg.num_nodes = 2;
  cache::CacheManager cache(cfg);
  std::atomic<bool> stop{false};

  std::thread failer([&] {
    for (int i = 0; i < 50; ++i) {
      cache.fail_node(i % cfg.num_nodes);
      std::this_thread::yield();
    }
    stop.store(true);
  });

  hammer([&](int t) {
    sim::VirtualClock clock;
    int node = t % cfg.num_nodes;
    for (int i = 0; !stop.load() && i < 2000; ++i) {
      std::string name = "f/" + std::to_string(i % 8);
      const std::string value = "payload-" + std::to_string(i % 8);
      cache.put(clock, node, name, value, value.size());
      auto hit = cache.get(clock, node, name);
      // Write-through means a name we just put can never fully miss, even
      // if the owning node was failed in between: backing store survives.
      ASSERT_TRUE(hit.has_value());
      EXPECT_EQ(hit->value.rfind("payload-", 0), 0u);
    }
  });
  failer.join();
}

TEST(ConcurrencyStress, DictionaryInterning) {
  graph::Dictionary dict;
  constexpr int kTerms = 64;
  constexpr int kRounds = 400;

  std::vector<std::vector<graph::TermId>> seen(
      kThreads, std::vector<graph::TermId>(kTerms, graph::kInvalidTerm));

  hammer([&](int t) {
    Rng rng(0xd1c7 + static_cast<std::uint64_t>(t));
    for (int i = 0; i < kRounds; ++i) {
      auto term = static_cast<int>(rng.next_below(kTerms));
      std::string s = "term:" + std::to_string(term);
      graph::TermId id = dict.intern(s);
      ASSERT_NE(id, graph::kInvalidTerm);
      // Interning is idempotent per term, also across threads (checked
      // after the join below); name() round-trips even while other
      // threads keep growing the dictionary.
      if (seen[static_cast<std::size_t>(t)][static_cast<std::size_t>(term)] !=
          graph::kInvalidTerm) {
        ASSERT_EQ(seen[static_cast<std::size_t>(t)][static_cast<std::size_t>(term)], id);
      }
      seen[static_cast<std::size_t>(t)][static_cast<std::size_t>(term)] = id;
      ASSERT_EQ(dict.name(id), s);
      auto found = dict.lookup(s);
      ASSERT_TRUE(found.has_value());
      ASSERT_EQ(*found, id);
    }
  });

  // Cross-thread agreement: all threads resolved every term to one id.
  EXPECT_EQ(dict.size(), static_cast<std::size_t>(kTerms));
  for (int term = 0; term < kTerms; ++term) {
    graph::TermId expected = graph::kInvalidTerm;
    for (int t = 0; t < kThreads; ++t) {
      graph::TermId id = seen[static_cast<std::size_t>(t)][static_cast<std::size_t>(term)];
      if (id == graph::kInvalidTerm) continue;
      if (expected == graph::kInvalidTerm) expected = id;
      EXPECT_EQ(id, expected) << "term " << term;
    }
  }
}

TEST(ConcurrencyStress, UdfRegistryRegisterFindReload) {
  udf::UdfRegistry reg;
  auto fn = [](const udf::UdfContext&, std::span<const expr::Value>) {
    return udf::UdfResult{expr::Value(1.0), sim::Nanos(10)};
  };
  ASSERT_TRUE(reg.register_static("stable", fn));

  hammer([&](int t) {
    Rng rng(0x5eed + static_cast<std::uint64_t>(t));
    for (int i = 0; i < 300; ++i) {
      switch (rng.next_below(5)) {
        case 0:
          reg.register_dynamic("mod" + std::to_string(rng.next_below(4)), "f",
                               fn, sim::from_seconds(0.5));
          break;
        case 1:
          reg.force_reload("mod" + std::to_string(rng.next_below(4)));
          break;
        case 2: {
          // Static entries are immutable: the pointer and its contents
          // stay valid under concurrent dynamic churn.
          const udf::UdfInfo* info = reg.find("stable");
          ASSERT_NE(info, nullptr);
          ASSERT_EQ(info->name, "stable");
          ASSERT_FALSE(info->dynamic);
          break;
        }
        case 3: {
          const udf::UdfInfo* info =
              reg.find("mod" + std::to_string(rng.next_below(4)) + ".f");
          if (info != nullptr) {
            (void)reg.charge_module_load(t, *info);
          }
          break;
        }
        default:
          (void)reg.names();
          break;
      }
    }
  });

  // "stable" plus up to 4 dynamic modules.
  std::vector<std::string> names = reg.names();
  EXPECT_GE(names.size(), 1u);
  EXPECT_LE(names.size(), 5u);
}

TEST(ConcurrencyStress, TargetScorerMemoUnderOverlappingMisses) {
  Rng rng(0x5a11);
  const std::string target = datagen::random_protein_sequence(rng, 120);
  constexpr int kSeqs = 24;
  std::vector<std::string> seqs;
  for (int i = 0; i < kSeqs; ++i) {
    seqs.push_back(i % 3 == 0
                       ? datagen::mutate_sequence(rng, target, 0.05 * i, 0.01)
                       : datagen::random_protein_sequence(rng, 40 + 4 * i));
  }
  // Serial reference, computed without the memo.
  std::vector<double> want_sim;
  std::vector<std::uint64_t> want_cells;
  for (const std::string& seq : seqs) {
    want_sim.push_back(models::normalized_similarity(target, seq));
    want_cells.push_back(models::smith_waterman(target, seq).cells);
  }

  // Every thread walks all sequences twice from its own offset, so the
  // threads miss on the same sequences at once and then hit each other's
  // inserts.
  models::TargetScorer scorer(target);
  std::atomic<int> mismatches{0};
  hammer([&](int t) {
    for (int i = 0; i < 2 * kSeqs; ++i) {
      auto k = static_cast<std::size_t>((t * 7 + i) % kSeqs);
      models::TargetScorer::Score s = scorer.score(seqs[k]);
      if (std::bit_cast<std::uint64_t>(s.similarity) !=
              std::bit_cast<std::uint64_t>(want_sim[k]) ||
          s.cells != want_cells[k]) {
        mismatches.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ConcurrencyStress, ProfilerCountersFeedRebalancerUnderLoad) {
  // Ranks record execs while the planner thread concurrently snapshots
  // the profile and runs re-balancing decisions off each snapshot — the
  // paper's §2.4.1/§2.4.2 loop, compressed.
  constexpr int kRanks = kThreads;
  udf::UdfProfiler prof(kRanks);
  std::atomic<bool> stop{false};

  std::thread planner([&] {
    while (!stop.load()) {
      std::vector<double> throughput(kRanks, 0.0);
      const udf::ProfileSnapshot snap = prof.snapshot();
      for (int r = 0; r < kRanks; ++r) {
        double mean = snap.estimated_cost_seconds(r, "udf");
        throughput[static_cast<std::size_t>(r)] = mean > 0.0 ? 1.0 / mean : 0.0;
      }
      core::RebalanceDecision d = core::decide_rebalance(
          core::RebalancePolicy::kThroughput, {100, 100, 100, 100}, throughput);
      if (d.rebalance) {
        std::size_t total = 0;
        for (std::size_t v : d.targets) total += v;
        // Re-balancing conserves rows no matter how torn its input was.
        ASSERT_EQ(total, 400u);
      }
      std::this_thread::yield();
    }
  });

  constexpr int kExecs = 500;
  hammer([&](int rank) {
    // Rank r's modeled cost is (r+1) ms per exec, so the final per-rank
    // means are exact despite concurrent reads.
    for (int i = 0; i < kExecs; ++i) {
      prof.record_exec(rank, "udf", sim::from_seconds(0.001 * (rank + 1)));
      if (i % 10 == 0) prof.record_reject(rank, "udf");
    }
  });
  stop.store(true);
  planner.join();

  udf::UdfStats agg = prof.aggregate("udf");
  EXPECT_EQ(agg.execs, static_cast<std::uint64_t>(kRanks) * kExecs);
  EXPECT_EQ(agg.rejects, static_cast<std::uint64_t>(kRanks) * (kExecs / 10));
  for (int r = 0; r < kRanks; ++r) {
    EXPECT_NEAR(prof.get(r, "udf").mean_cost_seconds(), 0.001 * (r + 1), 1e-9);
  }
}

TEST(ConcurrencyStress, ThreadPoolNestedUseAndReuse) {
  ThreadPool pool(3);
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> sum{0};
    pool.parallel_for(64, [&](std::size_t i) {
      sum.fetch_add(static_cast<int>(i), std::memory_order_relaxed);
    });
    ASSERT_EQ(sum.load(), 64 * 63 / 2);
  }
  // Concurrent parallel_for from several submitter threads: completion
  // latches are per-call, so calls must not steal each other's wakeups.
  hammer([&](int) {
    for (int round = 0; round < 10; ++round) {
      std::atomic<int> count{0};
      pool.parallel_for(32, [&](std::size_t) {
        count.fetch_add(1, std::memory_order_relaxed);
      });
      ASSERT_EQ(count.load(), 32);
    }
  });
}

TEST(ConcurrencyStress, SharedCacheLeavesEachQueryClockAlone) {
  // Two clients run cold cached INVOKE queries through their own engines
  // over one cache, on distinct key prefixes. A query's modeled time and
  // its cache account may depend only on its own work, so each must match
  // the same query run alone on a fresh cache, however the two clients
  // interleave. The §8 service time makes the serialization floor bind,
  // so a floor that counted the other client's operations would show.
  constexpr int kRanks = 4;
  constexpr int kClients = 2;
  constexpr int kQueries = 10;
  auto triples = std::make_unique<graph::TripleStore>(kRanks);
  auto features = std::make_unique<store::FeatureStore>(kRanks);
  for (int i = 0; i < 32; ++i) {
    std::string item = "item";
    item += std::to_string(i);
    triples->add(item, "type", "Item");
  }
  triples->finalize();
  features->freeze();
  cache::CacheConfig cc;
  cc.num_nodes = 2;
  cc.serialization_service_seconds = 0.21;

  auto query = [&](int client, int i) {
    const graph::Dictionary& d = triples->dict();
    core::Query q;
    q.patterns.push_back({graph::PatternTerm::Var("x"),
                          graph::PatternTerm::Const(*d.lookup("type")),
                          graph::PatternTerm::Const(*d.lookup("Item"))});
    core::InvokeClause inv;
    inv.udf = "model";
    inv.args = {expr::Expr::Var("x")};
    inv.out_var = "v";
    inv.use_cache = true;
    inv.cache_prefix = "c";
    inv.cache_prefix += std::to_string(client);
    inv.cache_prefix += "/q";
    inv.cache_prefix += std::to_string(i);
    inv.cached_payload_bytes = 64;
    q.invokes.push_back(inv);
    return q;
  };
  auto engine = [&](cache::CacheManager* cache) {
    core::EngineOptions opts;
    opts.topology = runtime::Topology::laptop(kRanks);
    opts.cache = cache;
    auto eng = std::make_unique<core::IdsEngine>(opts, triples.get(),
                                                 features.get());
    eng->registry().register_static(
        "model", [](const udf::UdfContext&, std::span<const expr::Value>) {
          return udf::UdfResult{1.0, sim::from_micros(10)};
        });
    return eng;
  };

  // What a query's result says about its own work: the INVOKE stage's
  // modeled seconds and its cache account.
  struct Own {
    double seconds;
    std::uint64_t misses;
    std::uint64_t hits;
    std::uint64_t bytes_written;
    bool operator==(const Own&) const = default;
  };
  auto own = [](const core::QueryResult& r) {
    return Own{r.stage_seconds("invoke:"), r.account.cache_misses,
               r.account.cache_hits(), r.account.cache_bytes_written};
  };

  cache::CacheManager shared(cc);
  std::vector<std::vector<Own>> seen(kClients);
  std::vector<std::thread> clients;
  std::atomic<int> ready{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto eng = engine(&shared);
      // Start together, so the two clients' stages overlap.
      ready.fetch_add(1);
      while (ready.load() < kClients) std::this_thread::yield();
      for (int i = 0; i < kQueries; ++i) {
        seen[static_cast<std::size_t>(c)].push_back(
            own(eng->execute(query(c, i))));
      }
    });
  }
  for (auto& th : clients) th.join();

  int differing = 0;
  for (int c = 0; c < kClients; ++c) {
    for (int i = 0; i < kQueries; ++i) {
      cache::CacheManager fresh(cc);
      const Own alone = own(engine(&fresh)->execute(query(c, i)));
      if (seen[static_cast<std::size_t>(c)][static_cast<std::size_t>(i)] !=
          alone) {
        ++differing;
      }
    }
  }
  EXPECT_EQ(differing, 0) << "of " << kClients * kQueries << " queries";
}

}  // namespace
}  // namespace ids
