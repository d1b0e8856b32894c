#include "models/smith_waterman.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <utility>

#include "common/simd.h"

namespace ids::models {

namespace {

// BLOSUM62 over ARNDCQEGHILKMFPSTWYV (standard published matrix).
constexpr int kB62[20][20] = {
    // A   R   N   D   C   Q   E   G   H   I   L   K   M   F   P   S   T   W   Y   V
    {  4, -1, -2, -2,  0, -1, -1,  0, -2, -1, -1, -1, -1, -2, -1,  1,  0, -3, -2,  0},  // A
    { -1,  5,  0, -2, -3,  1,  0, -2,  0, -3, -2,  2, -1, -3, -2, -1, -1, -3, -2, -3},  // R
    { -2,  0,  6,  1, -3,  0,  0,  0,  1, -3, -3,  0, -2, -3, -2,  1,  0, -4, -2, -3},  // N
    { -2, -2,  1,  6, -3,  0,  2, -1, -1, -3, -4, -1, -3, -3, -1,  0, -1, -4, -3, -3},  // D
    {  0, -3, -3, -3,  9, -3, -4, -3, -3, -1, -1, -3, -1, -2, -3, -1, -1, -2, -2, -1},  // C
    { -1,  1,  0,  0, -3,  5,  2, -2,  0, -3, -2,  1,  0, -3, -1,  0, -1, -2, -1, -2},  // Q
    { -1,  0,  0,  2, -4,  2,  5, -2,  0, -3, -3,  1, -2, -3, -1,  0, -1, -3, -2, -2},  // E
    {  0, -2,  0, -1, -3, -2, -2,  6, -2, -4, -4, -2, -3, -3, -2,  0, -2, -2, -3, -3},  // G
    { -2,  0,  1, -1, -3,  0,  0, -2,  8, -3, -3, -1, -2, -1, -2, -1, -2, -2,  2, -3},  // H
    { -1, -3, -3, -3, -1, -3, -3, -4, -3,  4,  2, -3,  1,  0, -3, -2, -1, -3, -1,  3},  // I
    { -1, -2, -3, -4, -1, -2, -3, -4, -3,  2,  4, -2,  2,  0, -3, -2, -1, -2, -1,  1},  // L
    { -1,  2,  0, -1, -3,  1,  1, -2, -1, -3, -2,  5, -1, -3, -1,  0, -1, -3, -2, -2},  // K
    { -1, -1, -2, -3, -1,  0, -2, -3, -2,  1,  2, -1,  5,  0, -2, -1, -1, -1, -1,  1},  // M
    { -2, -3, -3, -3, -2, -3, -3, -3, -1,  0,  0, -3,  0,  6, -4, -2, -2,  1,  3, -1},  // F
    { -1, -2, -2, -1, -3, -1, -1, -2, -2, -3, -3, -1, -2, -4,  7, -1, -1, -4, -3, -2},  // P
    {  1, -1,  1,  0, -1,  0,  0,  0, -1, -2, -2,  0, -1, -2, -1,  4,  1, -3, -2, -2},  // S
    {  0, -1,  0, -1, -1, -1, -1, -2, -2, -1, -1, -1, -1, -2, -1,  1,  5, -2, -2,  0},  // T
    { -3, -3, -4, -4, -2, -2, -3, -2, -2, -3, -2, -3, -1,  1, -4, -3, -2, 11,  2, -3},  // W
    { -2, -2, -2, -3, -2, -1, -2, -3,  2, -1, -1, -2, -1,  3, -3, -2, -2,  2,  7, -2},  // Y
    {  0, -3, -3, -3, -1, -2, -2, -3, -3,  3,  1, -2,  1, -1, -2, -2,  0, -3, -2,  4},  // V
};

constexpr std::array<int, 256> build_residue_table() {
  std::array<int, 256> t{};
  for (auto& v : t) v = -1;
  for (std::size_t i = 0; i < kAminoAcids.size(); ++i) {
    t[static_cast<unsigned char>(kAminoAcids[i])] = static_cast<int>(i);
    // Lowercase letters map too.
    t[static_cast<unsigned char>(kAminoAcids[i] + 32)] = static_cast<int>(i);
  }
  return t;
}

constexpr std::array<int, 256> kResidueTable = build_residue_table();

/// BLOSUM62 padded with a 21st "unknown residue" row/column scoring -4
/// against everything. Mapping non-residue characters to index 20 makes
/// the DP inner loop a single unconditional table load — no null-row or
/// negative-index branches — while producing the exact same integer
/// scores as the branching form.
constexpr int kUnknown = 20;

constexpr std::array<std::array<int, 21>, 21> build_padded_matrix() {
  std::array<std::array<int, 21>, 21> m{};
  for (int i = 0; i < 21; ++i) {
    for (int j = 0; j < 21; ++j) {
      m[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
          (i < kUnknown && j < kUnknown) ? kB62[i][j] : -4;
    }
  }
  return m;
}

constexpr std::array<std::array<int, 21>, 21> kB62Padded = build_padded_matrix();

/// The padded matrix flattened to int8 for the striped SIMD kernel (every
/// BLOSUM62 entry fits comfortably; the kernel widens to int16).
constexpr std::array<std::int8_t, 21 * 21> build_padded_matrix_i8() {
  std::array<std::int8_t, 21 * 21> m{};
  for (int i = 0; i < 21; ++i) {
    for (int j = 0; j < 21; ++j) {
      m[static_cast<std::size_t>(i * 21 + j)] = static_cast<std::int8_t>(
          kB62Padded[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)]);
    }
  }
  return m;
}

constexpr std::array<std::int8_t, 21 * 21> kB62PaddedI8 =
    build_padded_matrix_i8();

/// score / sqrt(self_a * self_b), clamped to [0, 1]; 0 when either self
/// score is not positive (empty or unknown-residue-only sequences).
double similarity(int score, int self_a, int self_b) {
  if (self_a <= 0 || self_b <= 0) return 0.0;
  double denom =
      std::sqrt(static_cast<double>(self_a) * static_cast<double>(self_b));
  return std::clamp(static_cast<double>(score) / denom, 0.0, 1.0);
}

}  // namespace

int residue_index(char c) { return kResidueTable[static_cast<unsigned char>(c)]; }

int blosum62(char a, char b) {
  int ia = residue_index(a);
  int ib = residue_index(b);
  if (ia < 0 || ib < 0) return -4;
  return kB62[ia][ib];
}

SwResult smith_waterman(std::string_view a, std::string_view b,
                        const SwParams& params) {
  SwResult result;
  const int m = static_cast<int>(a.size());
  const int n = static_cast<int>(b.size());
  if (m == 0 || n == 0) return result;
  result.cells = static_cast<std::uint64_t>(m) * static_cast<std::uint64_t>(n);

  // Fast path: striped (Farrar) saturating-int16 SIMD kernel. Integer DP,
  // so when it runs it returns the exact scalar scores and end positions;
  // it declines (used_simd=false) at the scalar dispatch level and flags
  // overflow when the true score exceeds int16 — both fall through to the
  // int32 scalar loop below, which stays the reference implementation.
  // The modeled cost (cells) is m*n either way, so dispatch level can
  // never leak into the virtual-clock goldens.
  {
    std::vector<std::uint8_t> a_idx(static_cast<std::size_t>(m));
    for (int i = 0; i < m; ++i) {
      int ia = residue_index(a[static_cast<std::size_t>(i)]);
      a_idx[static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(ia >= 0 ? ia : kUnknown);
    }
    std::vector<std::uint8_t> b_idx8(static_cast<std::size_t>(n));
    for (int j = 0; j < n; ++j) {
      int ib = residue_index(b[static_cast<std::size_t>(j)]);
      b_idx8[static_cast<std::size_t>(j)] =
          static_cast<std::uint8_t>(ib >= 0 ? ib : kUnknown);
    }
    const simd::SwScore fast = simd::sw_striped_i16(
        a_idx.data(), m, b_idx8.data(), n, kB62PaddedI8.data(), 21,
        params.gap_open, params.gap_extend);
    if (fast.used_simd && !fast.overflow) {
      result.score = fast.score;
      result.end_a = fast.end_a;
      result.end_b = fast.end_b;
      return result;
    }
  }

  // Gotoh affine-gap DP over int32 rows:
  //   H[i][j] = best score of local alignment ending at (i, j)
  //   E[i][j] = best ending with a gap in a (horizontal)
  //   F[i][j] = best ending with a gap in b (vertical)
  // Rolling single-row arrays; contiguous int32 keeps the inner loop
  // branch-light and autovectorizable.
  const int go = params.gap_open;
  const int ge = params.gap_extend;

  std::vector<int> h(static_cast<std::size_t>(n) + 1, 0);
  std::vector<int> e(static_cast<std::size_t>(n) + 1, 0);

  // Precompute b's residue indices, with unknowns mapped into the padded
  // matrix so the inner loop never branches on residue validity.
  std::vector<int> b_idx(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    int ib = residue_index(b[static_cast<std::size_t>(j)]);
    b_idx[static_cast<std::size_t>(j)] = ib >= 0 ? ib : kUnknown;
  }

  int best = 0;
  int best_i = 0;
  int best_j = 0;
  for (int i = 0; i < m; ++i) {
    int ia = residue_index(a[static_cast<std::size_t>(i)]);
    const int* row = kB62Padded[static_cast<std::size_t>(ia >= 0 ? ia : kUnknown)].data();
    int f = 0;
    int h_diag = 0;  // H[i-1][j-1]
    for (int j = 1; j <= n; ++j) {
      auto ju = static_cast<std::size_t>(j);
      int sub = row[b_idx[ju - 1]];
      int score = h_diag + sub;
      h_diag = h[ju];

      e[ju] = std::max(e[ju] - ge, h[ju] - go - ge);
      f = std::max(f - ge, h[ju - 1] - go - ge);

      int v = std::max({0, score, e[ju], f});
      h[ju] = v;
      if (v > best) {
        best = v;
        best_i = i + 1;
        best_j = j;
      }
    }
  }

  result.score = best;
  result.end_a = best_i;
  result.end_b = best_j;
  return result;
}

int self_score(std::string_view a) {
  int s = 0;
  for (char c : a) s += blosum62(c, c);
  return s;
}

double normalized_similarity(std::string_view a, std::string_view b,
                             const SwParams& params) {
  int sa = self_score(a);
  int sb = self_score(b);
  if (sa <= 0 || sb <= 0) return 0.0;
  return similarity(smith_waterman(a, b, params).score, sa, sb);
}

TargetScorer::TargetScorer(std::string target)
    : target_(std::move(target)), target_self_(self_score(target_)) {}

TargetScorer::Score TargetScorer::score(std::string_view seq) {
  Shard& shard = shards_[SeqHash{}(seq) % kShards];
  {
    MutexLock lock(shard.mutex);
    auto it = shard.memo.find(seq);
    if (it != shard.memo.end()) return it->second;
  }
  // Align outside the lock so misses on other sequences in this shard
  // proceed in parallel. The cells are charged even when the similarity
  // is 0, exactly as a direct smith_waterman call reports them.
  SwResult r = smith_waterman(target_, seq);
  Score s{similarity(r.score, target_self_, self_score(seq)), r.cells};
  MutexLock lock(shard.mutex);
  return shard.memo.try_emplace(std::string(seq), s).first->second;
}

}  // namespace ids::models
