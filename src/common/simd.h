#pragma once

// Centralized SIMD kernel layer with runtime dispatch (ISSUE 7 tentpole).
//
// Every raw intrinsic in the tree lives behind this interface (lint rule 10
// bans <immintrin.h> outside src/common/simd.*). The layer exposes two
// dispatch levels — scalar and AVX2 — resolved once at startup from CPUID,
// overridable with the IDS_SIMD_LEVEL environment variable ("scalar",
// "avx2"; requests above the detected level clamp down, unknown values
// fall back to auto-detection) and at runtime via set_level() for the
// equivalence tests that sweep every level in one process. A host without
// AVX2 runs every kernel's scalar path.
//
// Determinism contract (see DESIGN.md §11): the float kernels accumulate
// into a fixed set of 8 "virtual lanes" — lane l sums elements with index
// ≡ l (mod 8) in input order — and reduce them through one pinned tree:
// ((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7)). The scalar path materializes the
// 8 lanes as a float array, AVX2 as one 8-wide vector; both perform the
// *same* multiply-then-add sequence per lane (simd.cpp is compiled with
// -ffp-contract=off so no path fuses into FMA), so results are
// bit-identical across dispatch levels. Exact scan vs IVF recall tests
// compare scores directly, and modeled clocks feed the KernelEquivalence
// goldens — both rely on this.
//
// Integer kernels (striped Smith–Waterman, hash-group byte scans) are
// exact by construction at every level.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>

#if defined(__x86_64__) || defined(_M_X64)
#define IDS_SIMD_X86 1
#include <immintrin.h>
#else
#define IDS_SIMD_X86 0
#endif

namespace ids::simd {

/// Dispatch levels, ordered: a level implies every lower one. The values
/// are what the ids_simd_level gauge reports.
enum class Level : int { kScalar = 0, kAvx2 = 2 };

/// Best level this CPU supports (CPUID; computed once).
Level detected_level();

/// Lowercase display name: "scalar", "avx2".
const char* level_name(Level level);

/// Parses a level name, case-insensitively; nullopt on junk.
std::optional<Level> parse_level(std::string_view s);

/// Forces the active level (clamped to detected_level()); returns the
/// level actually installed and refreshes the ids_simd_level gauge.
/// Intended for tests and benchmarks sweeping levels in-process.
Level set_level(Level level);

namespace detail {
// -1 until the first resolution (CPUID + IDS_SIMD_LEVEL env override).
extern std::atomic<int> g_active_level;
Level init_level();
}  // namespace detail

/// The currently active dispatch level. First call resolves CPUID and the
/// IDS_SIMD_LEVEL override; later calls are one relaxed atomic load.
inline Level active_level() {
  int v = detail::g_active_level.load(std::memory_order_relaxed);
  return v >= 0 ? static_cast<Level>(v) : detail::init_level();
}

// ---- Dense float kernels (virtual-lane-8, pinned reduction tree) --------

/// Number of virtual accumulation lanes in every float kernel.
inline constexpr std::size_t kFloatLanes = 8;

/// Dot product of a·b over n floats.
float dot(const float* a, const float* b, std::size_t n);

/// Squared L2 distance between a and b over n floats.
float l2sq(const float* a, const float* b, std::size_t n);

/// Batched scan: one query against num_rows contiguous row-major
/// candidates of width dim; out[r] is bit-identical to
/// dot(query, rows + r*dim, dim) at every dispatch level.
void dot_batch(const float* query, const float* rows, std::size_t num_rows,
               std::size_t dim, float* out);
void l2sq_batch(const float* query, const float* rows, std::size_t num_rows,
                std::size_t dim, float* out);

/// Row self-dots: out[r] = dot(row_r, row_r, dim) (cosine denominators).
void self_dot_batch(const float* rows, std::size_t num_rows, std::size_t dim,
                    float* out);

/// Gathered batch over scattered rows: out[i] scores row idx[i], i.e.
/// dot(query, base + idx[i]*dim, dim) — the IVF cluster-member path.
void dot_batch_indexed(const float* query, const float* base, std::size_t dim,
                       const std::size_t* idx, std::size_t num, float* out);
void l2sq_batch_indexed(const float* query, const float* base, std::size_t dim,
                        const std::size_t* idx, std::size_t num, float* out);

// ---- Striped Smith–Waterman (Farrar), saturating int16 ------------------

struct SwScore {
  int score = 0;   // best local alignment score
  int end_a = 0;   // end position in a (exclusive), scalar tie-break order
  int end_b = 0;   // end position in b (exclusive)
  bool overflow = false;   // int16 saturated: caller must rerun scalar
  bool used_simd = false;  // false when the scalar level is active
};

/// Farrar-style striped affine-gap local alignment over saturating int16,
/// exact Gotoh semantics (the lazy-E correction updates H, E and F to the
/// fixpoint, so adjacent insertion/deletion paths score identically to the
/// scalar DP). a_idx/b_idx are residue-class indices into the
/// num_classes × num_classes substitution matrix. When used_simd is true
/// and overflow is false, {score, end_a, end_b} equal the scalar int32 DP
/// exactly, including its first-(i,j)-in-row-major tie-break for the end
/// position. Returns used_simd=false at the scalar level or when the
/// matrix/gap combination cannot guarantee exactness (min entry below
/// -2*(gap_open+gap_extend) — never true for BLOSUM62 defaults).
SwScore sw_striped_i16(const std::uint8_t* a_idx, int m,
                       const std::uint8_t* b_idx, int n,
                       const std::int8_t* matrix, int num_classes,
                       int gap_open, int gap_extend);

// ---- 16-slot hash-group metadata scan (SwissTable-style) ----------------

/// Width of one control-byte group in the flat hash containers.
inline constexpr std::size_t kGroupWidth = 16;

/// Control byte marking a vacant slot. Full slots store a 7-bit tag
/// (top bits of the hash), so the high bit distinguishes empty exactly.
inline constexpr std::uint8_t kCtrlEmpty = 0x80;

/// Bitmask (bit i ⇔ ctrl[i] == tag) over one 16-byte group. Exact — the
/// same mask at every dispatch level.
inline std::uint32_t group_match(const std::uint8_t* ctrl, std::uint8_t tag) {
#if IDS_SIMD_X86
  if (active_level() != Level::kScalar) {
    // SSE2 is x86-64 baseline, so this path needs no target attribute.
    __m128i g =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(ctrl));
    __m128i t = _mm_set1_epi8(static_cast<char>(tag));
    return static_cast<std::uint32_t>(
        _mm_movemask_epi8(_mm_cmpeq_epi8(g, t)));
  }
#endif
  std::uint32_t m = 0;
  for (std::size_t i = 0; i < kGroupWidth; ++i) {
    m |= ctrl[i] == tag ? (1u << i) : 0u;
  }
  return m;
}

/// Bitmask of vacant slots in one 16-byte group (high-bit scan).
inline std::uint32_t group_match_empty(const std::uint8_t* ctrl) {
#if IDS_SIMD_X86
  if (active_level() != Level::kScalar) {
    __m128i g =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(ctrl));
    return static_cast<std::uint32_t>(_mm_movemask_epi8(g));
  }
#endif
  std::uint32_t m = 0;
  for (std::size_t i = 0; i < kGroupWidth; ++i) {
    m |= (ctrl[i] & 0x80u) ? (1u << i) : 0u;
  }
  return m;
}

}  // namespace ids::simd
