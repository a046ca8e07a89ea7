// Clang thread-safety annotation macros (the -Wthread-safety capability
// model from the annotated-mutex lineage popularized by Abseil).
//
// These macros attach the locking protocol to the code itself so clang can
// prove it at compile time: a field tagged TREEWM_GUARDED_BY(mu) may only
// be touched while `mu` is held, a function tagged TREEWM_REQUIRES(mu) may
// only be called with `mu` held, and every violation is a -Wthread-safety
// warning (a build error in the static-analysis CI job, which compiles
// with -Wthread-safety -Wthread-safety-beta -Werror). On compilers without
// the capability attributes (gcc, msvc) every macro expands to nothing, so
// the annotations are zero-cost documentation there.
//
// Idiom (see src/common/README.md for the full protocol):
//   * annotate every shared field with TREEWM_GUARDED_BY(mutex_);
//   * private helpers that assume the lock take TREEWM_REQUIRES(mutex_)
//     and are named ...Locked();
//   * public entry points that take the lock themselves are annotated
//     TREEWM_EXCLUDES(mutex_) so a re-entrant call is a compile error;
//   * use the annotated Mutex/MutexLock/CondVar wrappers from
//     common/mutex.h — naked std primitives are rejected by
//     tools/lint_invariants.py outside common/.

#ifndef TREEWM_COMMON_ANNOTATIONS_H_
#define TREEWM_COMMON_ANNOTATIONS_H_

#if defined(__clang__) && (!defined(SWIG))
#define TREEWM_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define TREEWM_THREAD_ANNOTATION(x)  // no-op off clang
#endif

/// Marks a class as a capability (lockable): `TREEWM_CAPABILITY("mutex")`.
#define TREEWM_CAPABILITY(x) TREEWM_THREAD_ANNOTATION(capability(x))

/// Marks an RAII class whose lifetime acquires/releases a capability.
#define TREEWM_SCOPED_CAPABILITY TREEWM_THREAD_ANNOTATION(scoped_lockable)

/// Field/variable may only be accessed while holding `x`.
#define TREEWM_GUARDED_BY(x) TREEWM_THREAD_ANNOTATION(guarded_by(x))

/// Pointed-to data may only be accessed while holding `x` (the pointer
/// itself is unguarded).
#define TREEWM_PT_GUARDED_BY(x) TREEWM_THREAD_ANNOTATION(pt_guarded_by(x))

/// Function requires the listed capabilities to be held on entry (and does
/// not release them). The ...Locked() helper annotation.
#define TREEWM_REQUIRES(...) \
  TREEWM_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Function requires the listed capabilities held in shared (reader) mode.
#define TREEWM_REQUIRES_SHARED(...) \
  TREEWM_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))

/// Function acquires the capability and holds it on return.
#define TREEWM_ACQUIRE(...) \
  TREEWM_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// Function releases the capability.
#define TREEWM_RELEASE(...) \
  TREEWM_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// Caller must NOT hold the listed capabilities (deadlock/re-entrancy
/// guard on public entry points that lock internally).
#define TREEWM_EXCLUDES(...) \
  TREEWM_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Function returns a reference to the named capability.
#define TREEWM_RETURN_CAPABILITY(x) \
  TREEWM_THREAD_ANNOTATION(lock_returned(x))

/// Asserts (at analysis time) the capability is held — for code clang
/// cannot follow, e.g. a lock handed across a callback boundary.
#define TREEWM_ASSERT_CAPABILITY(x) \
  TREEWM_THREAD_ANNOTATION(assert_capability(x))

/// Escape hatch: disables analysis for one function. Every use must carry a
/// comment explaining why the protocol cannot be expressed.
#define TREEWM_NO_THREAD_SAFETY_ANALYSIS \
  TREEWM_THREAD_ANNOTATION(no_thread_safety_analysis)

#endif  // TREEWM_COMMON_ANNOTATIONS_H_
