// Sampling-profiler tests. The profiler is a process-wide singleton, so
// every test starts from clear() + set_enabled and restores the disabled
// state on exit; aggregation tests drive sample_once() directly so the
// folded counts are fully deterministic (no timer involved). The
// start/stop tests exercise the real sampler thread and must stay clean
// under ASan and TSan.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/profiler.h"

namespace ids::telemetry {
namespace {

/// Enables collection for one test body and guarantees the global
/// profiler is stopped, disabled, and emptied afterwards, so tests stay
/// order-independent within this binary.
class ProfilerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Profiler& p = Profiler::global();
    p.stop();
    p.clear();
    p.set_enabled(true);
  }
  void TearDown() override {
    Profiler& p = Profiler::global();
    p.stop();
    p.clear();
  }
};

TEST_F(ProfilerTest, FoldedAggregationIsDeterministic) {
  Profiler& p = Profiler::global();
  {
    ProfileScope outer("alpha");
    {
      ProfileScope inner("beta");
      for (int i = 0; i < 3; ++i) p.sample_once();
    }
    for (int i = 0; i < 2; ++i) p.sample_once();
  }
  // Main thread is idle now: the tick counts, the sample does not.
  p.sample_once();

  EXPECT_EQ(p.to_folded(),
            "alpha 2\n"
            "alpha;beta 3\n");
  EXPECT_EQ(p.samples_total(), 5u);
  EXPECT_EQ(p.ticks_total(), 6u);
}

TEST_F(ProfilerTest, EverySampleLandsInANamedScope) {
  Profiler& p = Profiler::global();
  // 10 idle ticks: nothing on this thread's shadow stack, so the sampler
  // must record zero samples — an idle thread never produces an
  // anonymous/empty path.
  for (int i = 0; i < 10; ++i) p.sample_once();
  EXPECT_EQ(p.samples_total(), 0u);
  EXPECT_EQ(p.to_folded(), "");

  {
    ProfileScope s("gamma");
    p.sample_once();
  }
  // The one non-idle tick produced exactly one sample, attributed to the
  // scope by name — 100% of samples live in named scopes.
  EXPECT_EQ(p.samples_total(), 1u);
  EXPECT_EQ(p.to_folded(), "gamma 1\n");
}

TEST_F(ProfilerTest, DepthOverflowTruncatesButStaysBalanced) {
  Profiler& p = Profiler::global();
  constexpr std::size_t kDepth = kMaxProfileDepth + 8;
  {
    std::vector<std::unique_ptr<ProfileScope>> scopes;
    scopes.reserve(kDepth);
    for (std::size_t i = 0; i < kDepth; ++i) {
      scopes.push_back(std::make_unique<ProfileScope>("deep"));
    }
    p.sample_once();
  }  // all kDepth frames pop here; pops past the cap must balance

  std::string folded = p.to_folded();
  // The recorded path holds exactly kMaxProfileDepth frames plus the
  // truncation marker.
  std::size_t frames = 0;
  for (std::size_t pos = folded.find("deep"); pos != std::string::npos;
       pos = folded.find("deep", pos + 1)) {
    ++frames;
  }
  EXPECT_EQ(frames, kMaxProfileDepth);
  EXPECT_NE(folded.find("[truncated] 1"), std::string::npos) << folded;

  // The stack fully unwound: a fresh scope records a single-frame path,
  // not one nested under leftover "deep" frames.
  p.clear();
  {
    ProfileScope s("after");
    p.sample_once();
  }
  EXPECT_EQ(p.to_folded(), "after 1\n");
}

TEST_F(ProfilerTest, SamplesWorkerThreadStacks) {
  Profiler& p = Profiler::global();
  std::atomic<bool> in_scope{false};
  std::atomic<bool> sampled{false};
  std::thread worker([&] {
    ProfileScope s("worker.busy");
    in_scope.store(true, std::memory_order_release);
    while (!sampled.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  });
  while (!in_scope.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  p.sample_once();  // main thread is idle; worker is in scope
  sampled.store(true, std::memory_order_release);
  worker.join();

  EXPECT_EQ(p.to_folded(), "worker.busy 1\n");
  EXPECT_EQ(p.samples_total(), 1u);
}

// The sampler copies a stack while its owner keeps pushing and popping
// two branches, so a torn copy would mix them ("a;b1;c2"). Every sampled
// path must be one the worker really had on its stack.
TEST_F(ProfilerTest, SamplesNeverSeeAHalfWrittenStack) {
  Profiler& p = Profiler::global();
  std::atomic<bool> started{false};
  std::atomic<bool> stop{false};
  std::thread worker([&] {
    // A little work in every scope, as around real work: a copy succeeds
    // only while the stack rests, so empty scopes would leave the sampler
    // only the moments between iterations, at depth 0.
    std::atomic<std::uint64_t> work{0};
    auto busy = [&work] {
      for (int k = 0; k < 64; ++k) work.fetch_add(1, std::memory_order_relaxed);
    };
    for (std::uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
      ProfileScope a("a");
      started.store(true, std::memory_order_relaxed);
      busy();
      if (i % 2 == 0) {
        ProfileScope b("b1");
        busy();
        ProfileScope c("c1");
        busy();
      } else {
        ProfileScope b("b2");
        busy();
        ProfileScope c("c2");
        busy();
      }
    }
  });
  while (!started.load(std::memory_order_relaxed)) std::this_thread::yield();
  for (int i = 0; i < 2000; ++i) p.sample_once();
  stop.store(true, std::memory_order_relaxed);
  worker.join();

  const std::set<std::string> valid = {"a", "a;b1", "a;b1;c1", "a;b2",
                                       "a;b2;c2"};
  std::istringstream folded(p.to_folded());
  std::string line;
  while (std::getline(folded, line)) {
    EXPECT_TRUE(valid.contains(line.substr(0, line.rfind(' ')))) << line;
  }
  EXPECT_GT(p.samples_total(), 0u);
}

// A sample that starts while the owner is mid-write (odd sequence) waits
// for the write to finish and records only the finished stack.
TEST_F(ProfilerTest, SampleWaitsOutAWriteInProgress) {
  Profiler& p = Profiler::global();
  ProfileScope s("before");
  ProfileThreadStack& stack = *p.thread_stack();
  stack.seq.fetch_add(1);  // opens a write by hand, as push and pop do
  std::thread sampler([&p] { p.sample_once(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  stack.frames[0].store("after", std::memory_order_release);
  stack.seq.fetch_add(1, std::memory_order_release);  // closes it
  sampler.join();
  EXPECT_EQ(p.to_folded(), "after 1\n");
}

TEST_F(ProfilerTest, JsonTopSelfAndTotalCounts) {
  Profiler& p = Profiler::global();
  {
    ProfileScope outer("outer");
    p.sample_once();  // outer self
    ProfileScope inner("inner");
    p.sample_once();  // inner self, outer total
    p.sample_once();
  }
  std::string json = p.to_json_top();
  EXPECT_NE(json.find("\"samples_total\":3"), std::string::npos) << json;
  // inner: self 2, total 2; outer: self 1, total 3. Sorted by self desc.
  const std::size_t inner_pos =
      json.find("{\"frame\":\"inner\",\"self\":2,\"total\":2}");
  const std::size_t outer_pos =
      json.find("{\"frame\":\"outer\",\"self\":1,\"total\":3}");
  ASSERT_NE(inner_pos, std::string::npos) << json;
  ASSERT_NE(outer_pos, std::string::npos) << json;
  EXPECT_LT(inner_pos, outer_pos);
}

TEST_F(ProfilerTest, DisabledScopesAreInvisible) {
  Profiler& p = Profiler::global();
  p.set_enabled(false);
  {
    ProfileScope s("ghost");
    p.sample_once();
  }
  EXPECT_EQ(p.samples_total(), 0u);
  EXPECT_EQ(p.to_folded(), "");
}

TEST_F(ProfilerTest, StartStopIsIdempotentAndJoinsCleanly) {
  Profiler& p = Profiler::global();
  EXPECT_FALSE(p.running());
  p.start(/*hertz=*/500.0);
  EXPECT_TRUE(p.running());
  p.start();  // second start: no-op, no second thread
  EXPECT_TRUE(p.running());

  // The sampler thread is really ticking: wait (bounded) for ticks to
  // accumulate while this thread sits in a scope, so samples land too.
  {
    ProfileScope s("spin");
    const std::uint64_t before = p.ticks_total();
    for (int i = 0; i < 100000 && p.ticks_total() < before + 3; ++i) {
      std::this_thread::yield();
    }
    EXPECT_GT(p.ticks_total(), before);
  }

  p.stop();
  EXPECT_FALSE(p.running());
  p.stop();  // idempotent
  EXPECT_FALSE(p.running());

  // stop() disables collection and retains the aggregate for export.
  const std::uint64_t kept = p.ticks_total();
  EXPECT_GT(kept, 0u);
  p.sample_once();
  EXPECT_EQ(p.ticks_total(), kept + 1);

  // Restartable after a stop.
  p.start();
  EXPECT_TRUE(p.running());
  p.stop();
  EXPECT_FALSE(p.running());
}

}  // namespace
}  // namespace ids::telemetry
