/// \file thread_annotations.h
/// Clang thread-safety annotation macros (docs/ARCHITECTURE.md,
/// "Correctness tooling"). Under Clang these expand to the attributes the
/// `-Wthread-safety` analysis consumes ("C/C++ Thread Safety Analysis",
/// Hutchins et al.), turning every locking discipline comment in this
/// repo into a compile-time proof obligation; under every other compiler
/// they expand to nothing, so GCC/MSVC builds are unaffected. CI's lint
/// lane builds with clang++ and -Werror=thread-safety, so an access to a
/// GBDA_GUARDED_BY member without its mutex fails the build.
///
/// Conventions (enforced across src/):
///   - Shared mutable state is declared with GBDA_GUARDED_BY(mu); the
///     mutex member is a gbda::Mutex (common/mutex.h), never a bare
///     std::mutex, so the capability is visible to the analysis.
///   - Private helpers that assume the lock is already held are annotated
///     GBDA_REQUIRES(mu) instead of re-locking.
///   - The rare deliberate escape (e.g. a move constructor whose source
///     must be quiescent) is marked GBDA_NO_THREAD_SAFETY_ANALYSIS with a
///     comment justifying it — grep for the macro to audit every escape.

#pragma once

#if defined(__clang__)
#define GBDA_THREAD_ANNOTATION__(x) __attribute__((x))
#else
#define GBDA_THREAD_ANNOTATION__(x)  // no-op off Clang
#endif

/// Declares a class to be a lockable capability ("mutex" names it in
/// diagnostics).
#define GBDA_CAPABILITY(x) GBDA_THREAD_ANNOTATION__(capability(x))

/// Declares an RAII class that acquires a capability at construction and
/// releases it at destruction (e.g. MutexLock).
#define GBDA_SCOPED_CAPABILITY GBDA_THREAD_ANNOTATION__(scoped_lockable)

/// The member is protected by the given mutex: reads and writes require it.
#define GBDA_GUARDED_BY(x) GBDA_THREAD_ANNOTATION__(guarded_by(x))

/// The pointed-to data (not the pointer itself) is protected by the mutex.
#define GBDA_PT_GUARDED_BY(x) GBDA_THREAD_ANNOTATION__(pt_guarded_by(x))

/// The function acquires the capability and holds it on return.
#define GBDA_ACQUIRE(...) \
  GBDA_THREAD_ANNOTATION__(acquire_capability(__VA_ARGS__))

/// The function releases the capability.
#define GBDA_RELEASE(...) \
  GBDA_THREAD_ANNOTATION__(release_capability(__VA_ARGS__))

/// The caller must hold the capability (exclusively) when calling.
#define GBDA_REQUIRES(...) \
  GBDA_THREAD_ANNOTATION__(requires_capability(__VA_ARGS__))

/// The caller must NOT hold the capability (the function acquires it
/// itself; calling with it held would self-deadlock).
#define GBDA_EXCLUDES(...) \
  GBDA_THREAD_ANNOTATION__(locks_excluded(__VA_ARGS__))

/// Try-lock: acquires the capability iff the returned value equals the
/// first argument.
#define GBDA_TRY_ACQUIRE(...) \
  GBDA_THREAD_ANNOTATION__(try_acquire_capability(__VA_ARGS__))

/// The function returns a reference to the given capability.
#define GBDA_RETURN_CAPABILITY(x) GBDA_THREAD_ANNOTATION__(lock_returned(x))

/// Asserts (at runtime, from the analysis's point of view) that the
/// capability is held — for code reached only under the lock through a
/// path the analysis cannot see.
#define GBDA_ASSERT_CAPABILITY(x) \
  GBDA_THREAD_ANNOTATION__(assert_capability(x))

/// Opts one function out of the analysis entirely. Every use carries a
/// comment justifying why the access pattern is safe.
#define GBDA_NO_THREAD_SAFETY_ANALYSIS \
  GBDA_THREAD_ANNOTATION__(no_thread_safety_analysis)
