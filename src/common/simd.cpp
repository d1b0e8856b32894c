// Implementation of the centralized SIMD layer. This is the only TU in the
// tree that may touch raw intrinsics (lint rule 10), and it is compiled
// with -ffp-contract=off so the scalar virtual-lane loops cannot be fused
// into FMA — the bit-identity contract across dispatch levels depends on
// every level performing the same mul-then-add per lane.

#include "common/simd.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "telemetry/metrics.h"

namespace ids::simd {

namespace detail {
std::atomic<int> g_active_level{-1};
}  // namespace detail

namespace {
// Keeps the process-wide ids_simd_level gauge (0=scalar, 2=avx2)
// in sync with the dispatch state; called on every resolution/override.
void export_level_gauge(Level level) {
  telemetry::MetricsRegistry::global()
      .gauge("ids_simd_level")
      ->set(static_cast<double>(static_cast<int>(level)));
}
}  // namespace

Level detected_level() {
#if IDS_SIMD_X86
  if (__builtin_cpu_supports("avx2")) return Level::kAvx2;
#endif
  return Level::kScalar;
}

const char* level_name(Level level) {
  switch (level) {
    case Level::kScalar: return "scalar";
    case Level::kAvx2: return "avx2";
  }
  return "scalar";
}

std::optional<Level> parse_level(std::string_view s) {
  std::string lower(s);
  for (char& c : lower) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  if (lower == "scalar") return Level::kScalar;
  if (lower == "avx2") return Level::kAvx2;
  return std::nullopt;
}

Level set_level(Level level) {
  Level cap = detected_level();
  if (level > cap) level = cap;
  if (level < Level::kScalar) level = Level::kScalar;
  detail::g_active_level.store(static_cast<int>(level),
                               std::memory_order_relaxed);
  export_level_gauge(level);
  return level;
}

namespace detail {
Level init_level() {
  Level lv = detected_level();
  if (const char* env = std::getenv("IDS_SIMD_LEVEL")) {
    if (auto parsed = parse_level(env)) lv = std::min(*parsed, lv);
    // Unparseable values fall through to auto-detection: a typo in the
    // env should degrade to the safe default, not abort a query.
  }
  int expected = -1;
  g_active_level.compare_exchange_strong(expected, static_cast<int>(lv),
                                         std::memory_order_relaxed);
  const Level installed =
      static_cast<Level>(g_active_level.load(std::memory_order_relaxed));
  export_level_gauge(installed);
  return installed;
}
}  // namespace detail

namespace {

// Pinned reduction tree shared by every dispatch level. The 8 virtual
// lanes must be combined in exactly this association or the bit-identity
// contract breaks.
inline float reduce8(const float* l) {
  return ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]));
}

// Scalar tail shared verbatim by all levels: element i lands in lane
// i mod 8, continuing the same per-lane add sequence as the main loop.
inline void dot_tail(const float* a, const float* b, std::size_t i,
                     std::size_t n, float* lanes) {
  for (; i < n; ++i) lanes[i & 7] += a[i] * b[i];
}

inline void l2_tail(const float* a, const float* b, std::size_t i,
                    std::size_t n, float* lanes) {
  for (; i < n; ++i) {
    const float d = a[i] - b[i];
    lanes[i & 7] += d * d;
  }
}

// ---- scalar level --------------------------------------------------------

float dot_1_scalar(const float* a, const float* b, std::size_t n) {
  float lanes[8] = {};
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    for (std::size_t l = 0; l < 8; ++l) lanes[l] += a[i + l] * b[i + l];
  }
  dot_tail(a, b, i, n, lanes);
  return reduce8(lanes);
}

float l2_1_scalar(const float* a, const float* b, std::size_t n) {
  float lanes[8] = {};
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    for (std::size_t l = 0; l < 8; ++l) {
      const float d = a[i + l] - b[i + l];
      lanes[l] += d * d;
    }
  }
  l2_tail(a, b, i, n, lanes);
  return reduce8(lanes);
}

// 4-row register blocks share the query loads; per-row math is the exact
// per-lane sequence of the single-row kernel, so out[r] is bit-identical
// to the corresponding single-row call.
void dot_4_scalar(const float* q, const float* const* r, std::size_t n,
                  float* out) {
  float lanes[4][8] = {};
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    for (std::size_t l = 0; l < 8; ++l) {
      const float qv = q[i + l];
      lanes[0][l] += qv * r[0][i + l];
      lanes[1][l] += qv * r[1][i + l];
      lanes[2][l] += qv * r[2][i + l];
      lanes[3][l] += qv * r[3][i + l];
    }
  }
  for (; i < n; ++i) {
    const float qv = q[i];
    lanes[0][i & 7] += qv * r[0][i];
    lanes[1][i & 7] += qv * r[1][i];
    lanes[2][i & 7] += qv * r[2][i];
    lanes[3][i & 7] += qv * r[3][i];
  }
  for (std::size_t k = 0; k < 4; ++k) out[k] = reduce8(lanes[k]);
}

void l2_4_scalar(const float* q, const float* const* r, std::size_t n,
                 float* out) {
  float lanes[4][8] = {};
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    for (std::size_t l = 0; l < 8; ++l) {
      const float qv = q[i + l];
      const float d0 = qv - r[0][i + l];
      const float d1 = qv - r[1][i + l];
      const float d2 = qv - r[2][i + l];
      const float d3 = qv - r[3][i + l];
      lanes[0][l] += d0 * d0;
      lanes[1][l] += d1 * d1;
      lanes[2][l] += d2 * d2;
      lanes[3][l] += d3 * d3;
    }
  }
  for (; i < n; ++i) {
    const float qv = q[i];
    const float d0 = qv - r[0][i];
    const float d1 = qv - r[1][i];
    const float d2 = qv - r[2][i];
    const float d3 = qv - r[3][i];
    lanes[0][i & 7] += d0 * d0;
    lanes[1][i & 7] += d1 * d1;
    lanes[2][i & 7] += d2 * d2;
    lanes[3][i & 7] += d3 * d3;
  }
  for (std::size_t k = 0; k < 4; ++k) out[k] = reduce8(lanes[k]);
}

#if IDS_SIMD_X86

#define IDS_TARGET_AVX2 __attribute__((target("avx2")))

// ---- AVX2 level ----------------------------------------------------------

IDS_TARGET_AVX2 float dot_1_avx2(const float* a, const float* b,
                                 std::size_t n) {
  __m256 acc = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc = _mm256_add_ps(
        acc, _mm256_mul_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  float lanes[8];
  _mm256_storeu_ps(lanes, acc);
  dot_tail(a, b, i, n, lanes);
  return reduce8(lanes);
}

IDS_TARGET_AVX2 float l2_1_avx2(const float* a, const float* b,
                                std::size_t n) {
  __m256 acc = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 d =
        _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    acc = _mm256_add_ps(acc, _mm256_mul_ps(d, d));
  }
  float lanes[8];
  _mm256_storeu_ps(lanes, acc);
  l2_tail(a, b, i, n, lanes);
  return reduce8(lanes);
}

IDS_TARGET_AVX2 void dot_4_avx2(const float* q, const float* const* r,
                                std::size_t n, float* out) {
  __m256 acc[4];
  for (auto& a1 : acc) a1 = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 qv = _mm256_loadu_ps(q + i);
    for (std::size_t k = 0; k < 4; ++k) {
      acc[k] = _mm256_add_ps(acc[k],
                             _mm256_mul_ps(qv, _mm256_loadu_ps(r[k] + i)));
    }
  }
  for (std::size_t k = 0; k < 4; ++k) {
    float lanes[8];
    _mm256_storeu_ps(lanes, acc[k]);
    dot_tail(q, r[k], i, n, lanes);
    out[k] = reduce8(lanes);
  }
}

IDS_TARGET_AVX2 void l2_4_avx2(const float* q, const float* const* r,
                               std::size_t n, float* out) {
  __m256 acc[4];
  for (auto& a1 : acc) a1 = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 qv = _mm256_loadu_ps(q + i);
    for (std::size_t k = 0; k < 4; ++k) {
      const __m256 d = _mm256_sub_ps(qv, _mm256_loadu_ps(r[k] + i));
      acc[k] = _mm256_add_ps(acc[k], _mm256_mul_ps(d, d));
    }
  }
  for (std::size_t k = 0; k < 4; ++k) {
    float lanes[8];
    _mm256_storeu_ps(lanes, acc[k]);
    l2_tail(q, r[k], i, n, lanes);
    out[k] = reduce8(lanes);
  }
}

#endif  // IDS_SIMD_X86

// ---- level → kernel table ------------------------------------------------

struct Kernels {
  float (*dot1)(const float*, const float*, std::size_t);
  float (*l21)(const float*, const float*, std::size_t);
  void (*dot4)(const float*, const float* const*, std::size_t, float*);
  void (*l24)(const float*, const float* const*, std::size_t, float*);
};

constexpr Kernels kScalarKernels = {dot_1_scalar, l2_1_scalar, dot_4_scalar,
                                    l2_4_scalar};
#if IDS_SIMD_X86
constexpr Kernels kAvx2Kernels = {dot_1_avx2, l2_1_avx2, dot_4_avx2,
                                  l2_4_avx2};
#endif

inline const Kernels& kernels() {
#if IDS_SIMD_X86
  if (active_level() == Level::kAvx2) return kAvx2Kernels;
#endif
  return kScalarKernels;
}

}  // namespace

float dot(const float* a, const float* b, std::size_t n) {
  return kernels().dot1(a, b, n);
}

float l2sq(const float* a, const float* b, std::size_t n) {
  return kernels().l21(a, b, n);
}

void dot_batch(const float* query, const float* rows, std::size_t num_rows,
               std::size_t dim, float* out) {
  const Kernels& k = kernels();
  std::size_t r = 0;
  for (; r + 4 <= num_rows; r += 4) {
    const float* p[4] = {rows + r * dim, rows + (r + 1) * dim,
                         rows + (r + 2) * dim, rows + (r + 3) * dim};
    k.dot4(query, p, dim, out + r);
  }
  for (; r < num_rows; ++r) out[r] = k.dot1(query, rows + r * dim, dim);
}

void l2sq_batch(const float* query, const float* rows, std::size_t num_rows,
                std::size_t dim, float* out) {
  const Kernels& k = kernels();
  std::size_t r = 0;
  for (; r + 4 <= num_rows; r += 4) {
    const float* p[4] = {rows + r * dim, rows + (r + 1) * dim,
                         rows + (r + 2) * dim, rows + (r + 3) * dim};
    k.l24(query, p, dim, out + r);
  }
  for (; r < num_rows; ++r) out[r] = k.l21(query, rows + r * dim, dim);
}

void self_dot_batch(const float* rows, std::size_t num_rows, std::size_t dim,
                    float* out) {
  const Kernels& k = kernels();
  for (std::size_t r = 0; r < num_rows; ++r) {
    const float* row = rows + r * dim;
    out[r] = k.dot1(row, row, dim);
  }
}

void dot_batch_indexed(const float* query, const float* base, std::size_t dim,
                       const std::size_t* idx, std::size_t num, float* out) {
  const Kernels& k = kernels();
  std::size_t r = 0;
  for (; r + 4 <= num; r += 4) {
    const float* p[4] = {base + idx[r] * dim, base + idx[r + 1] * dim,
                         base + idx[r + 2] * dim, base + idx[r + 3] * dim};
    k.dot4(query, p, dim, out + r);
  }
  for (; r < num; ++r) out[r] = k.dot1(query, base + idx[r] * dim, dim);
}

void l2sq_batch_indexed(const float* query, const float* base, std::size_t dim,
                        const std::size_t* idx, std::size_t num, float* out) {
  const Kernels& k = kernels();
  std::size_t r = 0;
  for (; r + 4 <= num; r += 4) {
    const float* p[4] = {base + idx[r] * dim, base + idx[r + 1] * dim,
                         base + idx[r + 2] * dim, base + idx[r + 3] * dim};
    k.l24(query, p, dim, out + r);
  }
  for (; r < num; ++r) out[r] = k.l21(query, base + idx[r] * dim, dim);
}

// ---- Striped Smith–Waterman ---------------------------------------------
//
// Farrar layout over 8 signed int16 lanes: query position i (0-based) lives
// in lane i / segLen at stripe offset i % segLen, segLen = ceil(m / 8).
// Role mapping against the scalar Gotoh loop in models/smith_waterman.cpp:
// the scalar `e` (depends on the previous row, same column) is the striped
// in-column dependency handled by vF + the lazy fixup loop; the scalar `f`
// (same row, previous column) is carried across columns in the striped
// pvE array. Unlike the classic SSW lazy loop, the fixup here also raises
// the stored cross-column pvE from every corrected H, which makes the
// kernel *exact* full Gotoh — adjacent insertion/deletion chains score
// identically to the scalar DP, not just "close enough".
//
// Exactness of the end position: the scalar loop takes the first best cell
// in row-major (i, then j) order under a strict `>` update. Columns are
// processed j-outer here, so each column tracks its post-fixup max; when a
// column reaches (or ties) the running best, the stored H vector is
// destriped and rescanned in ascending i to recover the scalar tie-break.
//
// Overflow: all arithmetic saturates. H is non-negative, so a true score
// above int16 range forces the tracked best to exactly INT16_MAX — that is
// the (sound) overflow signal, and the caller reruns the int32 scalar DP.

SwScore sw_striped_i16(const std::uint8_t* a_idx, int m,
                       const std::uint8_t* b_idx, int n,
                       const std::int8_t* matrix, int num_classes,
                       int gap_open, int gap_extend) {
  SwScore result;
#if IDS_SIMD_X86
  if (active_level() == Level::kScalar) return result;
  // gap_extend >= 1 bounds the lazy loop; go + ge must fit int16.
  if (m <= 0 || n <= 0 || num_classes <= 0) return result;
  if (gap_extend < 1 || gap_open < 0 || gap_open + gap_extend > INT16_MAX) {
    return result;
  }

  const int seg = (m + 7) / 8;
  const std::size_t width = static_cast<std::size_t>(seg) * 8;

  // Striped score profile, one row per residue class of b. Padded lanes
  // (i >= m) score INT16_MIN so their H saturates below zero and clamps
  // back to 0 — they can never influence real cells or the best score.
  std::vector<std::int16_t> prof(static_cast<std::size_t>(num_classes) *
                                 width);
  for (int c = 0; c < num_classes; ++c) {
    for (int s = 0; s < seg; ++s) {
      for (int l = 0; l < 8; ++l) {
        const int i = l * seg + s;
        prof[(static_cast<std::size_t>(c) * seg + static_cast<std::size_t>(s)) *
                 8 +
             static_cast<std::size_t>(l)] =
            i < m ? static_cast<std::int16_t>(
                        matrix[static_cast<std::size_t>(a_idx[i]) *
                                   static_cast<std::size_t>(num_classes) +
                               static_cast<std::size_t>(c)])
                  : INT16_MIN;
      }
    }
  }

  std::vector<std::int16_t> hstore(width, 0);
  std::vector<std::int16_t> hload(width, 0);
  // Cross-column E (the scalar `f`): boundary value for the first real
  // column is max(0 - ge, H[i][0] - go - ge) = -ge, exactly as the scalar
  // per-row init produces.
  std::vector<std::int16_t> evec(width,
                                 static_cast<std::int16_t>(-gap_extend));

  const __m128i vGe = _mm_set1_epi16(static_cast<std::int16_t>(gap_extend));
  const __m128i vGoGe =
      _mm_set1_epi16(static_cast<std::int16_t>(gap_open + gap_extend));
  const __m128i vZero = _mm_setzero_si128();
  const __m128i vMin16 = _mm_set1_epi16(INT16_MIN);

  int best = 0;
  int best_i = 0;
  int best_j = 0;

  for (int j = 0; j < n; ++j) {
    const std::int16_t* prow =
        prof.data() + static_cast<std::size_t>(b_idx[j]) * width;
    // In-column F candidate for each lane's first element: unknown until
    // the lazy loop, so start at -inf. (Lane 0's true boundary is -ge,
    // which is negative and thus observationally identical.)
    __m128i vF = vMin16;
    // Diagonal seed: previous column's H shifted down one query position.
    // slli_si128 inserts zeros at lane 0 — the H[-1][j-1] = 0 boundary.
    __m128i vH = _mm_loadu_si128(reinterpret_cast<const __m128i*>(
        hstore.data() + static_cast<std::size_t>(seg - 1) * 8));
    vH = _mm_slli_si128(vH, 2);
    std::swap(hstore, hload);
    __m128i vColMax = vZero;

    for (int s = 0; s < seg; ++s) {
      vH = _mm_adds_epi16(
          vH, _mm_loadu_si128(reinterpret_cast<const __m128i*>(
                  prow + static_cast<std::size_t>(s) * 8)));
      __m128i vE = _mm_loadu_si128(reinterpret_cast<const __m128i*>(
          evec.data() + static_cast<std::size_t>(s) * 8));
      vH = _mm_max_epi16(vH, vE);
      vH = _mm_max_epi16(vH, vF);
      vH = _mm_max_epi16(vH, vZero);
      vColMax = _mm_max_epi16(vColMax, vH);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(
                           hstore.data() + static_cast<std::size_t>(s) * 8),
                       vH);
      const __m128i vHG = _mm_subs_epi16(vH, vGoGe);
      vE = _mm_max_epi16(_mm_subs_epi16(vE, vGe), vHG);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(
                           evec.data() + static_cast<std::size_t>(s) * 8),
                       vE);
      vF = _mm_max_epi16(_mm_subs_epi16(vF, vGe), vHG);
      vH = _mm_loadu_si128(reinterpret_cast<const __m128i*>(
          hload.data() + static_cast<std::size_t>(s) * 8));
    }

    // Lazy fixup: propagate F across lane boundaries until it can no
    // longer beat the H-derived gap starts already folded in above. Each
    // corrected H also re-raises the stored cross-column E — this is the
    // step that upgrades the classic approximation to exact Gotoh.
    for (int k = 0; k < 8; ++k) {
      vF = _mm_slli_si128(vF, 2);
      vF = _mm_insert_epi16(vF, INT16_MIN, 0);
      bool done = false;
      for (int s = 0; s < seg; ++s) {
        std::int16_t* hp = hstore.data() + static_cast<std::size_t>(s) * 8;
        __m128i vHs =
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(hp));
        vHs = _mm_max_epi16(vHs, vF);
        _mm_storeu_si128(reinterpret_cast<__m128i*>(hp), vHs);
        vColMax = _mm_max_epi16(vColMax, vHs);
        std::int16_t* ep = evec.data() + static_cast<std::size_t>(s) * 8;
        const __m128i vE2 = _mm_max_epi16(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(ep)),
            _mm_subs_epi16(vHs, vGoGe));
        _mm_storeu_si128(reinterpret_cast<__m128i*>(ep), vE2);
        vF = _mm_subs_epi16(vF, vGe);
        // Stop only when vF < H - (go+ge) *strictly* in every lane. The
        // classic non-strict check is wrong for gap_open == 0: a lane
        // whose H was just raised to vF has H - goge == vF - ge exactly,
        // and its downstream chain is not yet applied, so equality must
        // keep propagating.
        if (_mm_movemask_epi8(_mm_cmpgt_epi16(
                _mm_subs_epi16(vHs, vGoGe), vF)) == 0xFFFF) {
          done = true;
          break;
        }
      }
      if (done) break;
    }

    // Column max (post-fixup) and the scalar row-major tie-break.
    __m128i t = _mm_max_epi16(vColMax, _mm_srli_si128(vColMax, 8));
    t = _mm_max_epi16(t, _mm_srli_si128(t, 4));
    t = _mm_max_epi16(t, _mm_srli_si128(t, 2));
    const int cm = static_cast<std::int16_t>(_mm_extract_epi16(t, 0));
    if (cm > best || (cm == best && best > 0 && best_i > 1)) {
      int fi = -1;
      for (int i = 0; i < m; ++i) {
        if (hstore[static_cast<std::size_t>(i % seg) * 8 +
                   static_cast<std::size_t>(i / seg)] == cm) {
          fi = i;
          break;
        }
      }
      if (fi >= 0) {
        if (cm > best) {
          best = cm;
          best_i = fi + 1;
          best_j = j + 1;
        } else if (fi + 1 < best_i) {
          best_i = fi + 1;
          best_j = j + 1;
        }
      }
    }
  }

  result.used_simd = true;
  if (best == INT16_MAX) {
    result.overflow = true;
    return result;
  }
  result.score = best;
  result.end_a = best_i;
  result.end_b = best_j;
#else
  (void)a_idx;
  (void)m;
  (void)b_idx;
  (void)n;
  (void)matrix;
  (void)num_classes;
  (void)gap_open;
  (void)gap_extend;
#endif
  return result;
}

}  // namespace ids::simd
