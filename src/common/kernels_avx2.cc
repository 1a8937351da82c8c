/// \file kernels_avx2.cc
/// The AVX2 half of the scan-kernel dispatch table (common/kernels.h).
/// This is the ONLY translation unit compiled with -mavx2 (see
/// src/common/CMakeLists.txt), so the rest of the library stays runnable
/// on any x86-64 baseline; callers reach this code exclusively through
/// GetScanKernels after a cpuid check. When the toolchain cannot target
/// AVX2 (non-x86), the TU compiles to a nullptr table and dispatch
/// resolves to scalar.
///
/// Bit-identity contract: every function returns exactly what its scalar
/// reference in kernels.cc returns.
///
/// The intersection kernels process the two sorted key arrays in 4-lane
/// windows: one all-pairs 4x4 equality test (four compares against the
/// rotations of the other window) counts the matches inside the window
/// pair, then the window whose maximum is smaller advances whole. With
/// each window internally duplicate-free this pairwise count IS the
/// multiset intersection count restricted to the windows:
///
///  - every counted pair is a one-for-one match (a value occurs at most
///    once per window on either side);
///  - nothing is missed: a discarded window's keys are all <= its max,
///    and every unprocessed key on the other side is >= that side's window
///    max >= the discarded max, with equality only when the max continues
///    as a run into the next window — excluded by the boundary guard;
///  - nothing is double-counted: a key from the retained window can match
///    again only if the advancing side repeats its max across the window
///    boundary — the same excluded run shape.
///
/// Windows that DO contain a duplicate (or a boundary-spanning run) fall
/// back to a short burst of the scalar rule, so collision-heavy multisets
/// stay exact; and because a corpus's duplicate density is a global
/// property, the loop samples its first window decisions and hands the
/// whole remainder to the branchless scalar merge when fallbacks dominate
/// — duplicate-light lists get the SIMD win, duplicate-heavy ones degrade
/// to scalar cadence instead of below it. The early exits of the capped
/// form are sound under any schedule (they only fire when the final
/// answer is already decided), so taking them at window granularity
/// changes nothing observable.

#include "common/kernels.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>

namespace gbda {
namespace {

/// Lane mask (one bit per 64-bit lane) of pairwise matches between a's
/// window and ANY lane of b's window. Precondition: both windows are
/// internally duplicate-free, so each set bit is exactly one one-for-one
/// match.
inline unsigned WindowMatchMask(__m256i va, __m256i vb) {
  const __m256i r1 = _mm256_permute4x64_epi64(vb, _MM_SHUFFLE(0, 3, 2, 1));
  const __m256i r2 = _mm256_permute4x64_epi64(vb, _MM_SHUFFLE(1, 0, 3, 2));
  const __m256i r3 = _mm256_permute4x64_epi64(vb, _MM_SHUFFLE(2, 1, 0, 3));
  __m256i eq = _mm256_cmpeq_epi64(va, vb);
  eq = _mm256_or_si256(eq, _mm256_cmpeq_epi64(va, r1));
  eq = _mm256_or_si256(eq, _mm256_cmpeq_epi64(va, r2));
  eq = _mm256_or_si256(eq, _mm256_cmpeq_epi64(va, r3));
  return static_cast<unsigned>(_mm256_movemask_pd(_mm256_castsi256_pd(eq)));
}

/// True when either window holds an adjacent equal pair (sorted input, so
/// any duplicate inside a window is adjacent). Lane 0 of the shifted
/// compare is lane-0-vs-itself noise and masked off.
inline bool WindowsHaveDuplicates(__m256i va, __m256i vb) {
  const __m256i sa = _mm256_permute4x64_epi64(va, _MM_SHUFFLE(2, 1, 0, 0));
  const __m256i sb = _mm256_permute4x64_epi64(vb, _MM_SHUFFLE(2, 1, 0, 0));
  const __m256i dup = _mm256_or_si256(_mm256_cmpeq_epi64(va, sa),
                                      _mm256_cmpeq_epi64(vb, sb));
  return (static_cast<unsigned>(
              _mm256_movemask_pd(_mm256_castsi256_pd(dup))) &
          0xEu) != 0;
}

int64_t IntersectCountAvx2(const uint64_t* a, size_t na, const uint64_t* b,
                           size_t nb) {
  size_t i = 0, j = 0;
  int64_t common = 0;
  // Duplicate-density adaptation: the window fast path needs both 4-lane
  // windows duplicate-free, so its hit rate collapses on collision-heavy
  // multisets (molecule corpora sit around 15% adjacent duplicates, leaving
  // only ~1/3 of window pairs clean). The first window decisions sample
  // that density; when trips dominate, the loop abandons windows and the
  // scalar tail below finishes the merge at full branchless cadence.
  int trips = 0, hits = 0;
  while (i + 4 <= na && j + 4 <= nb) {
    if (trips >= 4 && trips > hits) break;
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + j));
    const uint64_t amax = a[i + 3];
    const uint64_t bmax = b[j + 3];
    const bool a_adv = amax <= bmax;
    const bool b_adv = bmax <= amax;
    bool run = WindowsHaveDuplicates(va, vb);
    run |= a_adv && i + 4 < na && a[i + 4] == amax;
    run |= b_adv && j + 4 < nb && b[j + 4] == bmax;
    if (run) {
      // A duplicate run touches the window pair. One scalar step per trip
      // would pay the full window setup again for a single advance, so
      // burst four branchless steps (the scalar rule is sound from any
      // position) before re-forming the windows.
      ++trips;
      for (int s = 0; s < 4 && i < na && j < nb; ++s) {
        const uint64_t ai = a[i];
        const uint64_t bj = b[j];
        common += static_cast<int64_t>(ai == bj);
        i += static_cast<size_t>(ai <= bj);
        j += static_cast<size_t>(bj <= ai);
      }
      continue;
    }
    ++hits;
    common += __builtin_popcount(WindowMatchMask(va, vb));
    i += static_cast<size_t>(a_adv) * 4;
    j += static_cast<size_t>(b_adv) * 4;
  }
  // Branchless scalar tail, same as the reference.
  while (i < na && j < nb) {
    const uint64_t ai = a[i];
    const uint64_t bj = b[j];
    common += static_cast<int64_t>(ai == bj);
    i += static_cast<size_t>(ai <= bj);
    j += static_cast<size_t>(bj <= ai);
  }
  return common;
}

bool IntersectAtMostAvx2(const uint64_t* a, size_t na, const uint64_t* b,
                         size_t nb, int64_t cap) {
  if (cap < 0) return false;
  size_t i = 0, j = 0;
  int64_t common = 0;
  // Same duplicate-density adaptation as IntersectCountAvx2.
  int trips = 0, hits = 0;
  while (i + 4 <= na && j + 4 <= nb) {
    if (trips >= 4 && trips > hits) break;
    // Same sound exits as the scalar reference: min(tails) bounds further
    // growth, and a count past the cap is final either way — both only
    // fire when `count <= cap` is already decided, so evaluating them once
    // per window yields the identical decision.
    const int64_t possible =
        common + static_cast<int64_t>(std::min(na - i, nb - j));
    if (possible <= cap) return true;
    if (common > cap) return false;
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + j));
    const uint64_t amax = a[i + 3];
    const uint64_t bmax = b[j + 3];
    const bool a_adv = amax <= bmax;
    const bool b_adv = bmax <= amax;
    bool run = WindowsHaveDuplicates(va, vb);
    run |= a_adv && i + 4 < na && a[i + 4] == amax;
    run |= b_adv && j + 4 < nb && b[j + 4] == bmax;
    if (run) {
      // Same bounded scalar burst as the uncapped form; the cap exit is
      // re-evaluated at the head of the loop.
      ++trips;
      for (int s = 0; s < 4 && i < na && j < nb; ++s) {
        const uint64_t ai = a[i];
        const uint64_t bj = b[j];
        common += static_cast<int64_t>(ai == bj);
        i += static_cast<size_t>(ai <= bj);
        j += static_cast<size_t>(bj <= ai);
      }
      if (common > cap) return false;
      continue;
    }
    ++hits;
    common += __builtin_popcount(WindowMatchMask(va, vb));
    i += static_cast<size_t>(a_adv) * 4;
    j += static_cast<size_t>(b_adv) * 4;
  }
  while (i < na && j < nb) {
    const int64_t possible =
        common + static_cast<int64_t>(std::min(na - i, nb - j));
    if (possible <= cap) return true;
    const uint64_t ai = a[i];
    const uint64_t bj = b[j];
    common += static_cast<int64_t>(ai == bj);
    if (common > cap) return false;
    i += static_cast<size_t>(ai <= bj);
    j += static_cast<size_t>(bj <= ai);
  }
  return common <= cap;
}

const ScanKernels kAvx2Kernels = {
    &IntersectCountAvx2,
    &IntersectAtMostAvx2,
    "avx2",
};

}  // namespace

namespace internal {
const ScanKernels* Avx2ScanKernels() { return &kAvx2Kernels; }
}  // namespace internal

}  // namespace gbda

#else  // !defined(__AVX2__)

namespace gbda {
namespace internal {
const ScanKernels* Avx2ScanKernels() { return nullptr; }
}  // namespace internal
}  // namespace gbda

#endif
