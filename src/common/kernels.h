/// \file kernels.h
/// Runtime-dispatched scan kernels: the primitive the online scan's hot
/// loops reduce to once candidate data is laid out as columns
/// (docs/ARCHITECTURE.md, "Scan kernels & column layout") —
/// intersect_count / intersect_at_most, multiset intersection counting over
/// two ascending uint64 branch-id arrays plus its capped decision form (the
/// exact GBD intersection and the tier-2 cut).
///
/// Two implementations exist behind one table: a scalar reference (the
/// semantics every other path is gated against) and an AVX2 variant
/// compiled in its own translation unit with -mavx2 (kernels_avx2.cc), so
/// the rest of the library never emits AVX2 instructions. Dispatch is
/// resolved at runtime from cpuid — never at compile time — and both
/// implementations return bit-identical results on every input: the AVX2
/// merge only accelerates pointer advancement; counting and early-exit
/// decisions follow the same contract (tests/kernels_test.cc pins this
/// with randomized property sweeps).
///
/// Overrides, strongest first:
///   1. the GBDA_FORCE_SCALAR_KERNELS environment variable (any non-empty
///      value except "0") forces scalar process-wide — the CI lever that
///      keeps the fallback path green on AVX2 runners;
///   2. SearchOptions::kernel_dispatch forces one implementation for a
///      single scan (process-local; not wire-serialized);
///   3. otherwise cpuid decides (AVX2 when the CPU supports it).
/// Forcing AVX2 on hardware without it falls back to scalar rather than
/// faulting, so "--kernels=avx2" sweeps degrade gracefully.

#pragma once

#include <cstddef>
#include <cstdint>

namespace gbda {

/// Caller-facing dispatch request (SearchOptions::kernel_dispatch, the
/// bench --kernels flag). kAuto defers to cpuid + the environment override.
enum class KernelDispatch : uint8_t {
  kAuto = 0,
  kForceScalar = 1,
  kForceAvx2 = 2,
};

/// A resolved implementation choice.
enum class KernelImpl : uint8_t {
  kScalar = 0,
  kAvx2 = 1,
};

/// True when the running CPU reports AVX2 via cpuid (and the OS saves the
/// ymm state). Always false on non-x86 builds. Cached after the first call.
bool CpuSupportsAvx2();

/// True when GBDA_FORCE_SCALAR_KERNELS is set to a non-empty value other
/// than "0". Read from the environment on every call (cheap relative to any
/// scan) so tests can toggle it without process restarts.
bool ScalarKernelsForcedByEnv();

/// Resolves a dispatch request against the environment override and cpuid;
/// see the file comment for the precedence order.
KernelImpl ResolveKernels(KernelDispatch requested);

const char* KernelImplName(KernelImpl impl);

/// The dispatch table: one function pointer per kernel. All pointers are
/// always non-null; unaligned inputs are fine (the arena's 64-byte column
/// alignment is a throughput property, not a requirement).
struct ScanKernels {
  /// Multiset intersection count of two ascending uint64 key arrays:
  /// sum over distinct keys of min(multiplicity_a, multiplicity_b). Over
  /// two graphs' sorted branch ids this is |B_G1 ∩ B_G2| exactly
  /// (core/branch_dictionary.h).
  int64_t (*intersect_count)(const uint64_t* a, size_t na, const uint64_t* b,
                             size_t nb);
  /// Decision form: true iff intersect_count(a, b) <= cap (cap < 0 is
  /// always false). Early-exits in both directions — as soon as the
  /// intersection exceeds cap, or as soon as the remaining tails cannot
  /// lift it above cap; the decision — not the visit order — is the
  /// contract, so the AVX2 variant may schedule its exits differently and
  /// still return the identical boolean.
  bool (*intersect_at_most)(const uint64_t* a, size_t na, const uint64_t* b,
                            size_t nb, int64_t cap);
  const char* name;
};

/// The table for a resolved implementation. kAvx2 returns the scalar table
/// when the AVX2 translation unit was compiled out (non-x86 toolchains).
const ScanKernels& GetScanKernels(KernelImpl impl);

namespace internal {
/// Defined in kernels_avx2.cc: the AVX2 table, or nullptr when that TU was
/// built without -mavx2 support.
const ScanKernels* Avx2ScanKernels();
}  // namespace internal

}  // namespace gbda
