#include "common/kernels.h"

#include <algorithm>
#include <cstdlib>

namespace gbda {
namespace {

// -- Scalar reference implementations ----------------------------------------
// These are THE semantics: the AVX2 table (kernels_avx2.cc) and every
// consumer (the scan, the Lambda2 sampler and the proximity graph count
// branch-id intersections here) are gated against them bit-for-bit.

// Branchless merge: two graphs' ids interleave unpredictably, so the
// classic three-way if/else merge mispredicts its direction branch about
// half the time (~15 cycles a pop — it dominated the whole scan in
// profiles). Advancing both cursors by comparison results instead turns
// each step into a handful of flag-to-register ops with no unpredictable
// branch. Equal keys advance BOTH sides, which is exactly the
// one-match-consumes-one-element multiset rule.
int64_t IntersectCountScalar(const uint64_t* a, size_t na, const uint64_t* b,
                             size_t nb) {
  size_t i = 0, j = 0;
  int64_t common = 0;
  while (i < na && j < nb) {
    const uint64_t ai = a[i];
    const uint64_t bj = b[j];
    common += static_cast<int64_t>(ai == bj);
    i += static_cast<size_t>(ai <= bj);
    j += static_cast<size_t>(bj <= ai);
  }
  return common;
}

bool IntersectAtMostScalar(const uint64_t* a, size_t na, const uint64_t* b,
                           size_t nb, int64_t cap) {
  if (cap < 0) return false;
  size_t i = 0, j = 0;
  int64_t common = 0;
  while (i < na && j < nb) {
    // The intersection can still grow by at most min(tails). Both exit
    // branches fire at most once, so they stay predicted and the loop keeps
    // the branchless-merge cadence of IntersectCountScalar.
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

const ScanKernels kScalarKernels = {
    &IntersectCountScalar,
    &IntersectAtMostScalar,
    "scalar",
};

}  // namespace

bool CpuSupportsAvx2() {
#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
  // __builtin_cpu_supports folds cpuid leaf 7 AVX2 with the xgetbv/OSXSAVE
  // check, so it is false when the OS does not save ymm state.
  static const bool supported = __builtin_cpu_supports("avx2") != 0;
  return supported;
#else
  return false;
#endif
}

bool ScalarKernelsForcedByEnv() {
  const char* v = std::getenv("GBDA_FORCE_SCALAR_KERNELS");
  return v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
}

KernelImpl ResolveKernels(KernelDispatch requested) {
  if (ScalarKernelsForcedByEnv()) return KernelImpl::kScalar;
  switch (requested) {
    case KernelDispatch::kForceScalar:
      return KernelImpl::kScalar;
    case KernelDispatch::kForceAvx2:
    case KernelDispatch::kAuto:
      break;
  }
  return CpuSupportsAvx2() && internal::Avx2ScanKernels() != nullptr
             ? KernelImpl::kAvx2
             : KernelImpl::kScalar;
}

const char* KernelImplName(KernelImpl impl) {
  return impl == KernelImpl::kAvx2 ? "avx2" : "scalar";
}

const ScanKernels& GetScanKernels(KernelImpl impl) {
  if (impl == KernelImpl::kAvx2) {
    const ScanKernels* avx2 = internal::Avx2ScanKernels();
    if (avx2 != nullptr) return *avx2;
  }
  return kScalarKernels;
}

}  // namespace gbda
