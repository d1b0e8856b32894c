// Cross-level equivalence sweep for the runtime-dispatched SIMD layer.
//
// Every test runs its subject at each dispatch level the host CPU supports
// and compares against the scalar reference. Float kernels must be
// BIT-identical (EXPECT_EQ on float, not EXPECT_NEAR) per the determinism
// contract in DESIGN.md §11; integer kernels (striped Smith–Waterman,
// group-metadata scans) must be exactly equal by construction. A scalar-
// only host degenerates to scalar-vs-scalar, which keeps the suite green
// everywhere while exercising the full sweep on x86.

#include "common/simd.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/flat_map.h"
#include "common/rng.h"
#include "models/smith_waterman.h"
#include "store/ivf_index.h"
#include "store/vector_store.h"

namespace ids {
namespace {

using simd::Level;

/// Restores the pre-test dispatch level even when an assertion fails.
class ScopedLevel {
 public:
  ScopedLevel() : saved_(simd::active_level()) {}
  ~ScopedLevel() { simd::set_level(saved_); }
  ScopedLevel(const ScopedLevel&) = delete;
  ScopedLevel& operator=(const ScopedLevel&) = delete;

 private:
  Level saved_;
};

/// Every level this host can actually run, scalar first.
std::vector<Level> supported_levels() {
  std::vector<Level> out{Level::kScalar};
  if (simd::detected_level() >= Level::kAvx2) out.push_back(Level::kAvx2);
  return out;
}

std::vector<float> random_vec(Rng& rng, std::size_t n) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.uniform(-2.0, 2.0));
  return v;
}

TEST(SimdDispatch, ParseAndNames) {
  EXPECT_EQ(simd::parse_level("scalar"), Level::kScalar);
  EXPECT_EQ(simd::parse_level("AVX2"), Level::kAvx2);
  EXPECT_EQ(simd::parse_level("avx2"), Level::kAvx2);
  // The retired SSE4.2 level parses as junk, so IDS_SIMD_LEVEL=sse4.2
  // falls back to auto-detection.
  EXPECT_EQ(simd::parse_level("sse4.2"), std::nullopt);
  EXPECT_EQ(simd::parse_level("neon"), std::nullopt);
  EXPECT_EQ(simd::parse_level(""), std::nullopt);
  EXPECT_STREQ(simd::level_name(Level::kScalar), "scalar");
  EXPECT_STREQ(simd::level_name(Level::kAvx2), "avx2");
  // The ids_simd_level gauge reports the enum value.
  EXPECT_EQ(static_cast<int>(Level::kAvx2), 2);
}

TEST(SimdDispatch, SetLevelClampsToDetected) {
  ScopedLevel guard;
  // Requesting more than the CPU supports installs the detected maximum.
  Level got = simd::set_level(Level::kAvx2);
  EXPECT_EQ(got, std::min(Level::kAvx2, simd::detected_level()));
  EXPECT_EQ(simd::active_level(), got);
  EXPECT_EQ(simd::set_level(Level::kScalar), Level::kScalar);
  EXPECT_EQ(simd::active_level(), Level::kScalar);
}

// Ragged sizes: below one lane-group, non-multiples of 8 and 16, around
// the 4-row blocking boundary, plus a zero-length edge.
const std::size_t kSizes[] = {0, 1, 2, 3, 5, 7, 8, 9, 13, 15, 16, 17,
                              31, 33, 63, 100, 127, 128, 129, 255, 1000};

TEST(SimdFloat, DotAndL2BitIdenticalAcrossLevels) {
  ScopedLevel guard;
  Rng rng(42);
  for (std::size_t n : kSizes) {
    auto a = random_vec(rng, n);
    auto b = random_vec(rng, n);
    simd::set_level(Level::kScalar);
    const float dot_ref = simd::dot(a.data(), b.data(), n);
    const float l2_ref = simd::l2sq(a.data(), b.data(), n);
    for (Level lv : supported_levels()) {
      simd::set_level(lv);
      // Bit-identical, not approximately equal.
      EXPECT_EQ(simd::dot(a.data(), b.data(), n), dot_ref)
          << "dot n=" << n << " level=" << simd::level_name(lv);
      EXPECT_EQ(simd::l2sq(a.data(), b.data(), n), l2_ref)
          << "l2sq n=" << n << " level=" << simd::level_name(lv);
    }
  }
}

TEST(SimdFloat, BatchKernelsMatchSingleRowAtEveryLevel) {
  ScopedLevel guard;
  Rng rng(7);
  // Row counts around the 4-row blocking boundary; ragged dims.
  for (std::size_t num_rows : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 33u}) {
    for (std::size_t dim : {1u, 7u, 16u, 33u, 96u}) {
      auto query = random_vec(rng, dim);
      auto rows = random_vec(rng, num_rows * dim);
      simd::set_level(Level::kScalar);
      std::vector<float> dot_ref(num_rows), l2_ref(num_rows);
      for (std::size_t r = 0; r < num_rows; ++r) {
        dot_ref[r] = simd::dot(query.data(), rows.data() + r * dim, dim);
        l2_ref[r] = simd::l2sq(query.data(), rows.data() + r * dim, dim);
      }
      for (Level lv : supported_levels()) {
        simd::set_level(lv);
        std::vector<float> out(num_rows, -1.0f);
        simd::dot_batch(query.data(), rows.data(), num_rows, dim, out.data());
        EXPECT_EQ(out, dot_ref) << "dot_batch rows=" << num_rows
                                << " dim=" << dim << " level="
                                << simd::level_name(lv);
        simd::l2sq_batch(query.data(), rows.data(), num_rows, dim, out.data());
        EXPECT_EQ(out, l2_ref) << "l2sq_batch rows=" << num_rows
                               << " dim=" << dim << " level="
                               << simd::level_name(lv);
      }
    }
  }
}

TEST(SimdFloat, SelfDotAndIndexedBatchesBitIdentical) {
  ScopedLevel guard;
  Rng rng(11);
  const std::size_t dim = 33;
  const std::size_t num_rows = 29;
  auto query = random_vec(rng, dim);
  auto rows = random_vec(rng, num_rows * dim);
  // A gathered, shuffled, repeating index set (the IVF member path).
  std::vector<std::size_t> idx = {28, 0, 5, 5, 17, 3, 28, 9, 1, 20, 13};

  simd::set_level(Level::kScalar);
  std::vector<float> self_ref(num_rows);
  for (std::size_t r = 0; r < num_rows; ++r) {
    self_ref[r] =
        simd::dot(rows.data() + r * dim, rows.data() + r * dim, dim);
  }
  std::vector<float> dot_ref(idx.size()), l2_ref(idx.size());
  for (std::size_t i = 0; i < idx.size(); ++i) {
    dot_ref[i] = simd::dot(query.data(), rows.data() + idx[i] * dim, dim);
    l2_ref[i] = simd::l2sq(query.data(), rows.data() + idx[i] * dim, dim);
  }

  for (Level lv : supported_levels()) {
    simd::set_level(lv);
    std::vector<float> self_out(num_rows, -1.0f);
    simd::self_dot_batch(rows.data(), num_rows, dim, self_out.data());
    EXPECT_EQ(self_out, self_ref) << simd::level_name(lv);

    std::vector<float> out(idx.size(), -1.0f);
    simd::dot_batch_indexed(query.data(), rows.data(), dim, idx.data(),
                            idx.size(), out.data());
    EXPECT_EQ(out, dot_ref) << simd::level_name(lv);
    simd::l2sq_batch_indexed(query.data(), rows.data(), dim, idx.data(),
                             idx.size(), out.data());
    EXPECT_EQ(out, l2_ref) << simd::level_name(lv);
  }
}

TEST(SimdGroupScan, MasksExactAtEveryLevel) {
  ScopedLevel guard;
  Rng rng(3);
  alignas(16) std::uint8_t ctrl[simd::kGroupWidth];
  for (int trial = 0; trial < 200; ++trial) {
    for (auto& c : ctrl) {
      // Mix of empties and 7-bit tags, including tag 0 and tag 0x7f.
      c = rng.bernoulli(0.3)
              ? simd::kCtrlEmpty
              : static_cast<std::uint8_t>(rng.next_below(128));
    }
    const auto tag = static_cast<std::uint8_t>(rng.next_below(128));
    simd::set_level(Level::kScalar);
    const std::uint32_t match_ref = simd::group_match(ctrl, tag);
    const std::uint32_t empty_ref = simd::group_match_empty(ctrl);
    for (Level lv : supported_levels()) {
      simd::set_level(lv);
      EXPECT_EQ(simd::group_match(ctrl, tag), match_ref)
          << "trial " << trial << " level " << simd::level_name(lv);
      EXPECT_EQ(simd::group_match_empty(ctrl), empty_ref)
          << "trial " << trial << " level " << simd::level_name(lv);
    }
  }
}

TEST(SimdGroupScan, FlatContainersAgreeAcrossLevels) {
  ScopedLevel guard;
  Rng rng(17);
  std::vector<std::uint64_t> keys;
  for (int i = 0; i < 500; ++i) keys.push_back(rng.next_below(120));
  keys.push_back(0);
  keys.push_back(~0ull);

  // Build and probe under every level; the group masks are exact, so the
  // table layout and every probe result must be identical.
  simd::set_level(Level::kScalar);
  FlatGroupIndex ref_idx(keys);
  FlatTermSet ref_set;
  std::vector<bool> ref_new;
  for (auto k : keys) ref_new.push_back(ref_set.insert(k));

  for (Level lv : supported_levels()) {
    simd::set_level(lv);
    FlatGroupIndex idx(keys);
    ASSERT_EQ(idx.num_keys(), ref_idx.num_keys()) << simd::level_name(lv);
    for (std::uint64_t probe = 0; probe < 130; ++probe) {
      auto got = idx.probe(probe);
      auto want = ref_idx.probe(probe);
      ASSERT_EQ(got.size(), want.size()) << simd::level_name(lv);
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i], want[i]);
      }
    }
    FlatTermSet set;
    for (std::size_t i = 0; i < keys.size(); ++i) {
      EXPECT_EQ(set.insert(keys[i]), ref_new[i]) << simd::level_name(lv);
    }
    EXPECT_EQ(set.size(), ref_set.size());
    EXPECT_TRUE(set.contains(~0ull));
    EXPECT_FALSE(set.contains(1234567ull));
  }
}

std::string random_protein(Rng& rng, int len, bool with_unknowns) {
  std::string s;
  s.reserve(static_cast<std::size_t>(len));
  for (int i = 0; i < len; ++i) {
    if (with_unknowns && rng.bernoulli(0.1)) {
      // Characters outside ARNDCQEGHILKMFPSTWYV: must map to the padded
      // "unknown" residue class identically on both paths.
      const char junk[] = {'X', 'B', 'Z', '*', '1'};
      s.push_back(junk[rng.next_below(5)]);
    } else {
      s.push_back(models::kAminoAcids[rng.next_below(20)]);
    }
  }
  return s;
}

TEST(SimdSmithWaterman, ExactlyEqualsScalarAcrossLevels) {
  ScopedLevel guard;
  Rng rng(23);
  std::vector<std::pair<std::string, std::string>> cases;
  // Ragged lengths around the 8-lane stripe boundary plus unknowns.
  for (int trial = 0; trial < 60; ++trial) {
    int m = 1 + static_cast<int>(rng.next_below(40));
    int n = 1 + static_cast<int>(rng.next_below(40));
    cases.emplace_back(random_protein(rng, m, trial % 3 == 0),
                       random_protein(rng, n, trial % 3 == 0));
  }
  cases.emplace_back("A", "A");
  cases.emplace_back("W", "V");
  cases.emplace_back("XXXX", "XXXX");
  cases.emplace_back(random_protein(rng, 200, true),
                     random_protein(rng, 175, true));

  for (const auto& [a, b] : cases) {
    simd::set_level(Level::kScalar);
    const models::SwResult ref = models::smith_waterman(a, b);
    for (Level lv : supported_levels()) {
      simd::set_level(lv);
      const models::SwResult got = models::smith_waterman(a, b);
      EXPECT_EQ(got.score, ref.score) << simd::level_name(lv);
      EXPECT_EQ(got.end_a, ref.end_a) << simd::level_name(lv);
      EXPECT_EQ(got.end_b, ref.end_b) << simd::level_name(lv);
      // Modeled cost must not depend on the dispatch level (the virtual
      // clock goldens would drift otherwise).
      EXPECT_EQ(got.cells, ref.cells) << simd::level_name(lv);
    }
  }
}

TEST(SimdSmithWaterman, Int16OverflowFallsBackToScalar) {
  ScopedLevel guard;
  // 4000 aligned tryptophans score 4000 * 11 = 44000 > INT16_MAX, so the
  // striped kernel must flag saturation and the wrapper must rerun the
  // int32 scalar DP — at every level, with identical results.
  const std::string a(4000, 'W');
  simd::set_level(Level::kScalar);
  const models::SwResult ref = models::smith_waterman(a, a);
  EXPECT_EQ(ref.score, 44000);
  for (Level lv : supported_levels()) {
    simd::set_level(lv);
    const models::SwResult got = models::smith_waterman(a, a);
    EXPECT_EQ(got.score, ref.score) << simd::level_name(lv);
    EXPECT_EQ(got.end_a, ref.end_a) << simd::level_name(lv);
    EXPECT_EQ(got.end_b, ref.end_b) << simd::level_name(lv);
  }

  // Direct kernel probes: the saturated case must report overflow (never a
  // silently wrong score), and the scalar level must decline cleanly.
  if (simd::detected_level() != Level::kScalar) {
    simd::set_level(simd::detected_level());
    const std::int8_t match11[] = {11};
    std::vector<std::uint8_t> idx(4000, 0);
    const simd::SwScore raw = simd::sw_striped_i16(
        idx.data(), 4000, idx.data(), 4000, match11, 1, 11, 1);
    ASSERT_TRUE(raw.used_simd);
    EXPECT_TRUE(raw.overflow);
  }
  simd::set_level(Level::kScalar);
  std::vector<std::uint8_t> idx(4, 0);
  const std::int8_t match1[] = {1};
  const simd::SwScore declined =
      simd::sw_striped_i16(idx.data(), 4, idx.data(), 4, match1, 1, 11, 1);
  EXPECT_FALSE(declined.used_simd);
}

TEST(SimdStore, ExactTopkBitIdenticalAcrossLevels) {
  ScopedLevel guard;
  Rng rng(31);
  const int dim = 48;
  store::VectorStore vs(2, dim);
  for (graph::TermId id = 1; id <= 300; ++id) {
    vs.add(id, random_vec(rng, static_cast<std::size_t>(dim)));
  }
  auto query = random_vec(rng, static_cast<std::size_t>(dim));

  for (auto metric :
       {store::Metric::kCosine, store::Metric::kDot, store::Metric::kL2}) {
    simd::set_level(Level::kScalar);
    const auto ref = vs.topk(query, 25, metric);
    for (Level lv : supported_levels()) {
      simd::set_level(lv);
      const auto got = vs.topk(query, 25, metric);
      ASSERT_EQ(got.size(), ref.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].id, ref[i].id) << simd::level_name(lv);
        // Scores, not just ranks, are bit-identical.
        EXPECT_EQ(got[i].score, ref[i].score) << simd::level_name(lv);
      }
    }
  }
}

TEST(SimdStore, IvfIndexBitIdenticalAcrossLevels) {
  ScopedLevel guard;
  Rng rng(37);
  const int dim = 32;
  store::VectorStore vs(1, dim);
  for (graph::TermId id = 1; id <= 400; ++id) {
    vs.add(id, random_vec(rng, static_cast<std::size_t>(dim)));
  }
  auto query = random_vec(rng, static_cast<std::size_t>(dim));

  simd::set_level(Level::kScalar);
  store::IvfIndex::Params params;
  params.num_clusters = 8;
  const store::IvfIndex ref_index(vs, 0, params);
  const auto ref = ref_index.topk(query, 20, store::Metric::kCosine, 3);

  for (Level lv : supported_levels()) {
    simd::set_level(lv);
    // K-means itself must converge to the identical clustering (the
    // assignment argmin compares bit-identical distances).
    const store::IvfIndex index(vs, 0, params);
    const auto got = index.topk(query, 20, store::Metric::kCosine, 3);
    ASSERT_EQ(got.size(), ref.size()) << simd::level_name(lv);
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].id, ref[i].id) << simd::level_name(lv);
      EXPECT_EQ(got[i].score, ref[i].score) << simd::level_name(lv);
    }
  }
}

}  // namespace
}  // namespace ids
