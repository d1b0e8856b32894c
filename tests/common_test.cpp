// Unit tests for src/common: RNG determinism, hashing stability, string
// utilities, statistics, Result/Status, and the thread pool.

#include <gtest/gtest.h>

#include <atomic>
#include <set>

#include "common/hash.h"
#include "common/logging.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/strings.h"
#include "common/thread_pool.h"

namespace ids {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, NextBelowIsInRangeAndCoversAll) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    std::uint64_t v = rng.next_below(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(11);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    std::int64_t v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalHasRoughMoments) {
  Rng rng(13);
  RunningStats s;
  for (int i = 0; i < 20000; ++i) s.add(rng.normal());
  EXPECT_NEAR(s.mean(), 0.0, 0.05);
  EXPECT_NEAR(s.stddev(), 1.0, 0.05);
}

TEST(Rng, PickWeightedRespectsWeights) {
  Rng rng(17);
  std::vector<double> w = {1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 8000; ++i) ++counts[rng.pick_weighted(w)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_GT(counts[2], counts[0] * 2);
}

TEST(Rng, ForkedStreamsAreIndependentAndDeterministic) {
  Rng a(5);
  Rng b(5);
  Rng fa = a.fork(1);
  Rng fb = b.fork(1);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(fa.next_u64(), fb.next_u64());
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(23);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  auto orig = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(Hash, Fnv1aStableValues) {
  // Known FNV-1a test vector: empty string hashes to the offset basis.
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_NE(fnv1a64("a"), fnv1a64("b"));
  EXPECT_EQ(fnv1a64("hello"), fnv1a64("hello"));
}

TEST(Hash, Mix64SpreadsSmallInputs) {
  std::set<std::uint64_t> buckets;
  for (std::uint64_t i = 0; i < 64; ++i) buckets.insert(mix64(i) % 16);
  EXPECT_GE(buckets.size(), 12u);  // small dense ids spread over shards
}

TEST(Strings, SplitKeepsEmptyFields) {
  auto parts = split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[3], "");
}

TEST(Strings, SplitWsDropsEmpty) {
  auto parts = split_ws("  foo \t bar\nbaz ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "foo");
  EXPECT_EQ(parts[2], "baz");
}

TEST(Strings, JoinRoundTrip) {
  EXPECT_EQ(join({"a", "b", "c"}, "-"), "a-b-c");
  EXPECT_EQ(join({}, "-"), "");
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  x "), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t\n"), "");
}

TEST(Strings, HumanBytesMatchesTable1Style) {
  EXPECT_EQ(human_bytes(12700ull * 1000 * 1000 * 1000), "12.7 TB");
  EXPECT_EQ(human_bytes(81ull * 1000 * 1000 * 1000), "81.0 GB");
}

TEST(Strings, HumanCountMatchesTable1Style) {
  EXPECT_EQ(human_count(87600ull * 1000 * 1000), "87.6 Billion");
  EXPECT_EQ(human_count(539ull * 1000 * 1000), "539 Million");
  EXPECT_EQ(human_count(42), "42");
}

TEST(Stats, RunningStatsBasics) {
  RunningStats s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
}

TEST(Stats, RunningStatsToString) {
  RunningStats r;
  r.add(1.0);
  r.add(3.0);
  EXPECT_EQ(r.to_string(), "n=2 mean=2 min=1 max=3 sd=1.41421");
}

TEST(Result, OkAndErrorPaths) {
  Result<int> ok(42);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 42);
  EXPECT_TRUE(ok.status().ok());

  Result<int> err(Status::NotFound("missing"));
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(err.value_or(-1), -1);
}

TEST(Result, StatusToString) {
  EXPECT_EQ(Status::Ok().to_string(), "OK");
  EXPECT_EQ(Status::InvalidArgument("bad").to_string(),
            "INVALID_ARGUMENT: bad");
}

TEST(Result, StatusEqualityComparesCodeAndMessage) {
  // Regression: operator== used to compare only the code, so two failures
  // of the same kind with different contexts compared equal.
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_NE(Status::NotFound("a"), Status::NotFound("b"));
  EXPECT_NE(Status::NotFound("a"), Status::Internal("a"));
  EXPECT_EQ(Status::Ok(), Status::Ok());

  // Category-only comparison is still available, but opt-in.
  EXPECT_TRUE(Status::NotFound("a").code_equals(Status::NotFound("b")));
  EXPECT_FALSE(Status::NotFound("a").code_equals(Status::Internal("a")));
}

TEST(ResultDeathTest, ValueOnErrorAbortsWithCarriedStatus) {
  // value() on an error must hard-abort in every build type (this test
  // runs under RelWithDebInfo/Release with NDEBUG defined, so it also
  // proves the check survives NDEBUG) and print the carried Status.
  Result<int> err(Status::NotFound("missing row 7"));
  EXPECT_DEATH((void)err.value(),
               "Result::value\\(\\) on error: NOT_FOUND: missing row 7");
}

TEST(CheckDeathTest, IdsCheckAbortsWithLocationAndMessage) {
  int x = -3;
  EXPECT_DEATH(IDS_CHECK(x > 0) << "x was " << x,
               "common_test\\.cpp:[0-9]+: IDS_CHECK\\(x > 0\\) failed: "
               "x was -3");
}

TEST(CheckDeathTest, IdsDcheckMatchesBuildType) {
  int evaluations = 0;
  auto touch = [&evaluations]() {
    ++evaluations;
    return false;
  };
#ifdef NDEBUG
  IDS_DCHECK(touch());  // must neither abort nor even evaluate
  EXPECT_EQ(evaluations, 0);
#else
  EXPECT_DEATH(IDS_DCHECK(touch()), "IDS_CHECK\\(touch\\(\\)\\) failed");
#endif
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ZeroAndOneWork) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL(); });
  int calls = 0;
  pool.parallel_for(1, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, ReusableAcrossCalls) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  for (int round = 0; round < 10; ++round) {
    pool.parallel_for(50, [&](std::size_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 500);
}

}  // namespace
}  // namespace ids
