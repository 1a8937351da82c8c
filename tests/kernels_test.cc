// Property suite for the runtime-dispatched scan kernels (common/kernels.h):
// the scalar table is the reference, and the AVX2 table must agree with it
// EXACTLY — same counts, same capped decisions — over randomized sorted-key
// sets covering the shapes the scan produces: empty sides, identical sides,
// collision-heavy multisets (few distinct keys, high multiplicities),
// unaligned lengths 0..257 straddling the 4-lane vector width, and
// saturating at_most caps (negative, 0, exact count, count +/- 1, huge).
// Dispatch resolution and the GBDA_FORCE_SCALAR_KERNELS override are pinned
// here too.

#include "common/kernels.h"

#include <algorithm>
#include <cstdlib>
#include <vector>

#include "common/rng.h"
#include "gtest/gtest.h"

namespace gbda {
namespace {

const ScanKernels& Scalar() { return GetScanKernels(KernelImpl::kScalar); }
const ScanKernels& Avx2() { return GetScanKernels(KernelImpl::kAvx2); }

bool Avx2Available() {
  return CpuSupportsAvx2() && internal::Avx2ScanKernels() != nullptr;
}

/// Oracle: multiset intersection via std::set_intersection semantics.
int64_t NaiveIntersect(const std::vector<uint64_t>& a,
                       const std::vector<uint64_t>& b) {
  std::vector<uint64_t> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return static_cast<int64_t>(out.size());
}

/// An ascending key multiset of length n drawn from `universe` distinct
/// values — small universes make collision-heavy multisets with long runs
/// of duplicates, the adversarial shape for a vectorized merge.
std::vector<uint64_t> RandomKeys(Rng* rng, size_t n, uint64_t universe) {
  std::vector<uint64_t> keys(n);
  for (size_t i = 0; i < n; ++i) {
    // Spread draws over the full uint64 range (sign-bit straddling matters:
    // the AVX2 compare is signed under the hood).
    keys[i] = rng->NextUint64() % universe * 0x9E3779B97F4A7C15ull +
              static_cast<uint64_t>(rng->NextUint64() % universe);
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

void ExpectKernelAgreement(const std::vector<uint64_t>& a,
                           const std::vector<uint64_t>& b) {
  const int64_t expected = NaiveIntersect(a, b);
  const int64_t scalar =
      Scalar().intersect_count(a.data(), a.size(), b.data(), b.size());
  EXPECT_EQ(expected, scalar);
  if (Avx2Available()) {
    EXPECT_EQ(scalar,
              Avx2().intersect_count(a.data(), a.size(), b.data(), b.size()));
  }
  // Saturating caps around the exact count, plus degenerate ones.
  const int64_t caps[] = {-5, -1, 0, 1, expected - 1, expected, expected + 1,
                          static_cast<int64_t>(a.size() + b.size()),
                          INT64_C(1) << 60};
  for (int64_t cap : caps) {
    const bool want = cap >= 0 && expected <= cap;
    EXPECT_EQ(want, Scalar().intersect_at_most(a.data(), a.size(), b.data(),
                                               b.size(), cap))
        << "cap=" << cap;
    if (Avx2Available()) {
      EXPECT_EQ(want, Avx2().intersect_at_most(a.data(), a.size(), b.data(),
                                               b.size(), cap))
          << "cap=" << cap;
    }
  }
}

TEST(KernelsTest, IntersectEmptySides) {
  const std::vector<uint64_t> empty;
  const std::vector<uint64_t> some = {1, 2, 2, 3, ~uint64_t{0}};
  ExpectKernelAgreement(empty, empty);
  ExpectKernelAgreement(empty, some);
  ExpectKernelAgreement(some, empty);
}

TEST(KernelsTest, IntersectIdenticalSides) {
  Rng rng(11);
  for (size_t n : {1u, 4u, 5u, 8u, 33u, 257u}) {
    const std::vector<uint64_t> keys = RandomKeys(&rng, n, 7);
    ExpectKernelAgreement(keys, keys);
    const int64_t count =
        Scalar().intersect_count(keys.data(), n, keys.data(), n);
    EXPECT_EQ(static_cast<int64_t>(n), count);
  }
}

TEST(KernelsTest, IntersectRandomizedUnalignedLengths) {
  Rng rng(42);
  // Every length pair in 0..17 exactly (covers all lane-tail combinations),
  // then random lengths up to 257.
  for (size_t na = 0; na <= 17; ++na) {
    for (size_t nb = 0; nb <= 17; ++nb) {
      ExpectKernelAgreement(RandomKeys(&rng, na, 6), RandomKeys(&rng, nb, 6));
    }
  }
  for (int round = 0; round < 200; ++round) {
    const size_t na = static_cast<size_t>(rng.UniformInt(0, 257));
    const size_t nb = static_cast<size_t>(rng.UniformInt(0, 257));
    // Mix sparse (large universe) and collision-heavy (tiny universe) draws.
    const uint64_t universe = round % 3 == 0 ? 4 : (round % 3 == 1 ? 64 : 1u << 20);
    ExpectKernelAgreement(RandomKeys(&rng, na, universe),
                          RandomKeys(&rng, nb, universe));
  }
}

TEST(KernelsTest, IntersectCollisionHeavyRuns) {
  // Long duplicate runs with staggered multiplicities: intersection is the
  // per-key min of multiplicities, the case an all-pairs vector compare
  // would overcount.
  std::vector<uint64_t> a, b;
  for (uint64_t key = 0; key < 9; ++key) {
    a.insert(a.end(), static_cast<size_t>(key * 3 % 7 + 1), key * 1000);
    b.insert(b.end(), static_cast<size_t>(key * 5 % 6 + 1), key * 1000);
  }
  ExpectKernelAgreement(a, b);
}

TEST(KernelsTest, IntersectSignBitStraddle) {
  // Keys on both sides of 2^63: a signed compare without the bias trick
  // would order these wrong and skip past real matches.
  const std::vector<uint64_t> a = {1, 2, 0x7FFFFFFFFFFFFFFFull,
                                   0x8000000000000000ull,
                                   0x8000000000000001ull, ~uint64_t{0}};
  const std::vector<uint64_t> b = {0x7FFFFFFFFFFFFFFFull,
                                   0x8000000000000001ull, ~uint64_t{0}};
  ExpectKernelAgreement(a, b);
  EXPECT_EQ(3, Scalar().intersect_count(a.data(), a.size(), b.data(),
                                        b.size()));
}

TEST(KernelsTest, DispatchResolution) {
  // No env override in the test environment (guard, then pin semantics).
  unsetenv("GBDA_FORCE_SCALAR_KERNELS");
  EXPECT_FALSE(ScalarKernelsForcedByEnv());
  EXPECT_EQ(KernelImpl::kScalar, ResolveKernels(KernelDispatch::kForceScalar));
  if (Avx2Available()) {
    EXPECT_EQ(KernelImpl::kAvx2, ResolveKernels(KernelDispatch::kAuto));
    EXPECT_EQ(KernelImpl::kAvx2, ResolveKernels(KernelDispatch::kForceAvx2));
  } else {
    // No AVX2: every request degrades to scalar rather than faulting.
    EXPECT_EQ(KernelImpl::kScalar, ResolveKernels(KernelDispatch::kAuto));
    EXPECT_EQ(KernelImpl::kScalar, ResolveKernels(KernelDispatch::kForceAvx2));
  }
  EXPECT_STREQ("scalar", GetScanKernels(KernelImpl::kScalar).name);
  EXPECT_STREQ("scalar", KernelImplName(KernelImpl::kScalar));
  EXPECT_STREQ("avx2", KernelImplName(KernelImpl::kAvx2));
}

TEST(KernelsTest, EnvOverrideForcesScalar) {
  setenv("GBDA_FORCE_SCALAR_KERNELS", "1", 1);
  EXPECT_TRUE(ScalarKernelsForcedByEnv());
  EXPECT_EQ(KernelImpl::kScalar, ResolveKernels(KernelDispatch::kAuto));
  // The env lever outranks a per-scan AVX2 request: CI's scalar-forced leg
  // must win even over explicit --kernels=avx2 sweeps.
  EXPECT_EQ(KernelImpl::kScalar, ResolveKernels(KernelDispatch::kForceAvx2));
  setenv("GBDA_FORCE_SCALAR_KERNELS", "0", 1);
  EXPECT_FALSE(ScalarKernelsForcedByEnv());
  unsetenv("GBDA_FORCE_SCALAR_KERNELS");
  EXPECT_FALSE(ScalarKernelsForcedByEnv());
}

}  // namespace
}  // namespace gbda
