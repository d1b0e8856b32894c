#pragma once

// Smith–Waterman local sequence alignment with affine gaps (Gotoh).
//
// The paper filters ~66M UniProt sequences against the target protein
// P29274 using the SSW SIMD Smith-Waterman library at <1 ms per
// comparison. This is a faithful reimplementation of the algorithm
// (BLOSUM62 scoring, affine gap penalties). Alignment runs on the striped
// (Farrar) saturating-int16 kernel simd::sw_striped_i16, dispatched at
// runtime to the host's SIMD level; at the scalar level, or when a score
// overflows int16, an int32 scalar loop computes the exact same integers.

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/thread_annotations.h"

namespace ids::models {

/// Standard one-letter amino-acid alphabet used across the repo.
inline constexpr std::string_view kAminoAcids = "ARNDCQEGHILKMFPSTWYV";

/// Maps a residue letter to its alphabet index (0..19), or -1.
int residue_index(char c);

/// BLOSUM62 substitution score for two residue letters (unknown letters
/// score as mismatch -4).
int blosum62(char a, char b);

struct SwParams {
  int gap_open = 11;    // affine gap: cost of opening
  int gap_extend = 1;   // cost of each extension
};

struct SwResult {
  int score = 0;           // raw Smith-Waterman local alignment score
  int end_a = 0;           // alignment end position in a (exclusive)
  int end_b = 0;           // alignment end position in b (exclusive)
  std::uint64_t cells = 0; // DP cells computed (work units for costing)
};

/// Computes the best local alignment score of a vs b.
SwResult smith_waterman(std::string_view a, std::string_view b,
                        const SwParams& params = {});

/// Self-alignment score (sum of diagonal substitution scores) — the
/// normalization denominator.
int self_score(std::string_view a);

/// Normalized similarity in [0, 1]: score / sqrt(self(a) * self(b)).
/// Symmetric, and 1.0 exactly for identical sequences.
double normalized_similarity(std::string_view a, std::string_view b,
                             const SwParams& params = {});

/// Scores sequences against one fixed target with the default SwParams:
/// normalized_similarity(target, seq) plus the DP cells the alignment
/// costs. The target's self score is computed once, and each distinct
/// sequence content is aligned once and memoized, so a FILTER that sees
/// the same protein on many rows aligns it once. The memo has no
/// eviction: the set of distinct sequences asked about bounds it.
///
/// Thread-safe. The memo is split over kShards mutex-guarded maps. An
/// alignment runs outside the lock; when two threads miss on the same
/// sequence at once, both compute the identical score and the first
/// insert wins.
class TargetScorer {
 public:
  struct Score {
    double similarity = 0.0;  // normalized_similarity(target, seq)
    std::uint64_t cells = 0;  // smith_waterman(target, seq).cells
  };

  explicit TargetScorer(std::string target);

  Score score(std::string_view seq);

 private:
  struct SeqHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  struct Shard {
    Mutex mutex;
    std::unordered_map<std::string, Score, SeqHash, std::equal_to<>> memo
        IDS_GUARDED_BY(mutex);
  };

  static constexpr std::size_t kShards = 16;

  const std::string target_;
  const int target_self_;
  std::array<Shard, kShards> shards_;
};

}  // namespace ids::models
