// Smith-Waterman tests: exact values on tiny alignments, algebraic
// properties (identity, symmetry, bounds), parameterized monotonicity
// under mutation, and the memoizing target scorer.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "datagen/lifesci.h"
#include "models/cost_profile.h"
#include "models/smith_waterman.h"

namespace ids::models {
namespace {

TEST(Blosum62, KnownEntries) {
  EXPECT_EQ(blosum62('A', 'A'), 4);
  EXPECT_EQ(blosum62('W', 'W'), 11);
  EXPECT_EQ(blosum62('A', 'R'), -1);
  EXPECT_EQ(blosum62('R', 'A'), -1);  // symmetric
  EXPECT_EQ(blosum62('X', 'A'), -4);  // unknown residue
}

TEST(Blosum62, MatrixIsSymmetric) {
  for (char a : kAminoAcids) {
    for (char b : kAminoAcids) {
      EXPECT_EQ(blosum62(a, b), blosum62(b, a));
    }
  }
}

TEST(ResidueIndex, RoundTripsAlphabet) {
  for (std::size_t i = 0; i < kAminoAcids.size(); ++i) {
    EXPECT_EQ(residue_index(kAminoAcids[i]), static_cast<int>(i));
  }
  EXPECT_EQ(residue_index('X'), -1);
  EXPECT_EQ(residue_index('a'), 0);  // lowercase accepted
}

TEST(SmithWaterman, EmptyInputsScoreZero) {
  EXPECT_EQ(smith_waterman("", "ACD").score, 0);
  EXPECT_EQ(smith_waterman("ACD", "").score, 0);
}

TEST(SmithWaterman, IdenticalSequenceScoresSelfScore) {
  std::string seq = "ARNDCQEGHILKMFPSTWYV";
  SwResult r = smith_waterman(seq, seq);
  EXPECT_EQ(r.score, self_score(seq));
}

TEST(SmithWaterman, ExactValueSimpleMatch) {
  // "AAAA" vs "AAAA": 4 matches * 4 = 16.
  EXPECT_EQ(smith_waterman("AAAA", "AAAA").score, 16);
}

TEST(SmithWaterman, LocalAlignmentIgnoresFlanks) {
  // The common core "WWWW" dominates; unrelated flanks don't reduce it.
  int core = smith_waterman("WWWW", "WWWW").score;
  int flanked = smith_waterman("GGGGWWWWGGGG", "PPPPWWWWPPPP").score;
  EXPECT_GE(flanked, core);
}

TEST(SmithWaterman, GapInsertionCostsAffine) {
  // One gap: score = matches - (open + extend).
  std::string a = "WWWWWW";
  std::string b = "WWWXWWW";  // X never matches; best local may skip it
  SwResult r = smith_waterman(a, b);
  EXPECT_GT(r.score, 0);
  EXPECT_LE(r.score, self_score(a));
}

TEST(SmithWaterman, ScoreIsSymmetric) {
  Rng rng(3);
  for (int trial = 0; trial < 10; ++trial) {
    std::string a = datagen::random_protein_sequence(rng, 60);
    std::string b = datagen::random_protein_sequence(rng, 80);
    EXPECT_EQ(smith_waterman(a, b).score, smith_waterman(b, a).score);
  }
}

TEST(SmithWaterman, CellsAreMTimesN) {
  SwResult r = smith_waterman("ACDEFG", "ACD");
  EXPECT_EQ(r.cells, 18u);
}

TEST(NormalizedSimilarity, IdentityIsOne) {
  Rng rng(5);
  std::string seq = datagen::random_protein_sequence(rng, 120);
  EXPECT_DOUBLE_EQ(normalized_similarity(seq, seq), 1.0);
}

TEST(NormalizedSimilarity, BoundsAndSymmetry) {
  Rng rng(7);
  for (int trial = 0; trial < 8; ++trial) {
    std::string a = datagen::random_protein_sequence(rng, 100);
    std::string b = datagen::random_protein_sequence(rng, 100);
    double ab = normalized_similarity(a, b);
    double ba = normalized_similarity(b, a);
    EXPECT_GE(ab, 0.0);
    EXPECT_LE(ab, 1.0);
    EXPECT_DOUBLE_EQ(ab, ba);
  }
}

TEST(NormalizedSimilarity, UnrelatedSequencesScoreLow) {
  Rng rng(9);
  std::string a = datagen::random_protein_sequence(rng, 300);
  std::string b = datagen::random_protein_sequence(rng, 300);
  EXPECT_LT(normalized_similarity(a, b), 0.2);
}

// Parameterized monotonicity: more mutation -> lower similarity, and the
// similarity bands must land where the Table 2 sweep expects them.
class MutationSweep : public ::testing::TestWithParam<double> {};

TEST_P(MutationSweep, SimilarityDecreasesWithDivergence) {
  const double rate = GetParam();
  Rng rng(42);
  std::string base = datagen::random_protein_sequence(rng, 250);
  std::string mutated = datagen::mutate_sequence(rng, base, rate, 0.001);
  double sim = normalized_similarity(base, mutated);

  std::string more_mutated =
      datagen::mutate_sequence(rng, base, std::min(1.0, rate + 0.3), 0.001);
  double sim_more = normalized_similarity(base, more_mutated);

  EXPECT_GT(sim, sim_more) << "rate " << rate;
  if (rate <= 0.01) {
    EXPECT_GT(sim, 0.95);
  }
  if (rate >= 0.6) {
    EXPECT_LT(sim, 0.35);
  }
}

INSTANTIATE_TEST_SUITE_P(Rates, MutationSweep,
                         ::testing::Values(0.005, 0.05, 0.15, 0.3, 0.45, 0.6));

// The arithmetic the sw_similarity UDF used before it memoized: one full
// alignment plus both self scores per call.
TargetScorer::Score direct_score(std::string_view target,
                                 std::string_view seq) {
  SwResult r = smith_waterman(target, seq);
  int sa = self_score(target);
  int sb = self_score(seq);
  double sim = 0.0;
  if (sa > 0 && sb > 0) {
    sim = static_cast<double>(r.score) /
          std::sqrt(static_cast<double>(sa) * static_cast<double>(sb));
    sim = std::clamp(sim, 0.0, 1.0);
  }
  return {sim, r.cells};
}

void expect_same_score(const TargetScorer::Score& got,
                       const TargetScorer::Score& want) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.similarity),
            std::bit_cast<std::uint64_t>(want.similarity))
      << got.similarity << " vs " << want.similarity;
  EXPECT_EQ(got.cells, want.cells);
}

TEST(TargetScorer, MatchesDirectAlignmentBitForBit) {
  Rng rng(17);
  std::string target = datagen::random_protein_sequence(rng, 220);
  TargetScorer scorer(target);
  for (int trial = 0; trial < 40; ++trial) {
    // Relatives of the target (high scores) and unrelated sequences.
    std::string seq =
        trial % 2 == 0
            ? datagen::mutate_sequence(rng, target, 0.02 * trial, 0.005)
            : datagen::random_protein_sequence(rng, 30 + 9 * trial);
    SCOPED_TRACE(trial);
    expect_same_score(scorer.score(seq), direct_score(target, seq));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(scorer.score(seq).similarity),
              std::bit_cast<std::uint64_t>(normalized_similarity(target, seq)));
  }
}

TEST(TargetScorer, EmptySequenceScoresZeroAndCostsNothing) {
  TargetScorer scorer("ARNDCQEGHILKMFPSTWYV");
  TargetScorer::Score s = scorer.score("");
  EXPECT_EQ(s.cells, 0u);
  EXPECT_EQ(s.similarity, 0.0);
  expect_same_score(s, direct_score("ARNDCQEGHILKMFPSTWYV", ""));
}

TEST(TargetScorer, UnknownResiduesScoreZeroButStillCostCells) {
  const std::string target = "ARNDCQEGHILKMFPSTWYV";
  TargetScorer scorer(target);
  TargetScorer::Score s = scorer.score("XBZJOU");  // no standard residues
  EXPECT_EQ(s.similarity, 0.0);
  EXPECT_EQ(s.cells, target.size() * 6);
  expect_same_score(s, direct_score(target, "XBZJOU"));
}

TEST(TargetScorer, TargetScoresOne) {
  Rng rng(19);
  std::string target = datagen::random_protein_sequence(rng, 150);
  TargetScorer scorer(target);
  EXPECT_EQ(scorer.score(target).similarity, 1.0);
  EXPECT_EQ(scorer.score(target).cells, 150u * 150u);
}

TEST(TargetScorer, RepeatCallsReturnTheMemoizedScore) {
  Rng rng(23);
  std::string target = datagen::random_protein_sequence(rng, 120);
  std::vector<std::string> seqs;
  for (int i = 0; i < 6; ++i) {
    seqs.push_back(datagen::mutate_sequence(rng, target, 0.1 * i, 0.01));
  }
  TargetScorer scorer(target);
  for (int round = 0; round < 3; ++round) {
    for (const std::string& seq : seqs) {
      SCOPED_TRACE(round);
      expect_same_score(scorer.score(seq), direct_score(target, seq));
    }
  }
  // Keyed by content: an equal string held elsewhere hits the same entry.
  std::string copy = seqs[2];
  expect_same_score(scorer.score(copy), direct_score(target, seqs[2]));
}

TEST(SwCost, UnderOneMillisecondPerComparisonAtPaperScale) {
  // The paper's <1 ms/comparison budget at ~350-residue sequences must hold
  // under our calibrated cost model.
  CostProfile costs;
  std::uint64_t cells = 350ull * 350ull;
  EXPECT_LT(sim::to_seconds(costs.sw_cost(cells)), 1e-3);
}

}  // namespace
}  // namespace ids::models
