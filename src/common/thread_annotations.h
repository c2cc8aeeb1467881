// Clang -Wthread-safety capability annotations, LT_-prefixed.
//
// These macros expand to clang's thread-safety attributes when the
// compiler supports them and to nothing everywhere else (gcc builds are
// unaffected). They let the compiler prove, per translation unit, that
//
//   * a member declared LT_GUARDED_BY(mu_) is only touched while mu_ is
//     held;
//   * a function declared LT_REQUIRES(mu_) is only called with mu_ held,
//     and one declared LT_EXCLUDES(mu_) is never called with it held
//     (re-entrancy guard);
//   * scoped guards (LT_SCOPED_CAPABILITY types) release everything they
//     acquire.
//
// The annotated capability types live in src/common/mutex.h (clang's
// analysis does not know libstdc++'s std::mutex, so guarded members must
// hang off locktune::Mutex instead).
// The whole-repo locking discipline — which lock may be taken under
// which — is documented in src/common/lock_rank_table.h and checked three
// ways: by these annotations under clang, by tools/locklint rule LL011
// statically, and by the paranoid-mode runtime rank assertion
// (src/common/lock_rank.h). docs/STATIC_ANALYSIS.md has the conventions.
#ifndef LOCKTUNE_COMMON_THREAD_ANNOTATIONS_H_
#define LOCKTUNE_COMMON_THREAD_ANNOTATIONS_H_

#if defined(__clang__)
#define LT_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define LT_THREAD_ANNOTATION(x)  // no-op off clang
#endif

// On a class: instances are capabilities (lockable things).
#define LT_CAPABILITY(x) LT_THREAD_ANNOTATION(capability(x))

// On a class: RAII object that acquires a capability in its constructor
// and releases it in its destructor.
#define LT_SCOPED_CAPABILITY LT_THREAD_ANNOTATION(scoped_lockable)

// On a data member: only accessible with the given capability held.
#define LT_GUARDED_BY(x) LT_THREAD_ANNOTATION(guarded_by(x))

// On a pointer member: the pointed-to data (not the pointer itself) is
// protected by the capability.
#define LT_PT_GUARDED_BY(x) LT_THREAD_ANNOTATION(pt_guarded_by(x))

// On a function: callers must hold the capability.
#define LT_REQUIRES(...) LT_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

// On a function: acquires / releases the capability itself.
#define LT_ACQUIRE(...) LT_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define LT_RELEASE(...) LT_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

// On a function: callers must NOT hold the capability (deadlock /
// re-entrancy guard, e.g. MetricsRegistry callbacks must not re-enter
// the registry).
#define LT_EXCLUDES(...) LT_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

// On a function: returns a reference to the capability guarding the
// object (lets lock accessors participate in analysis).
#define LT_RETURN_CAPABILITY(x) LT_THREAD_ANNOTATION(lock_returned(x))

// On a function: opt out of analysis. Reserved for code that is
// correct for reasons the analysis cannot represent — each use carries a
// comment saying which reason (see docs/STATIC_ANALYSIS.md §2).
#define LT_NO_THREAD_SAFETY_ANALYSIS \
  LT_THREAD_ANNOTATION(no_thread_safety_analysis)

// On a declaration: assert the capability is held without acquiring it
// (trusted entry points from annotated-blind code).
#define LT_ASSERT_CAPABILITY(x) LT_THREAD_ANNOTATION(assert_capability(x))

#endif  // LOCKTUNE_COMMON_THREAD_ANNOTATIONS_H_
