// Compile-time concurrency contracts: Clang thread-safety-analysis macros
// and annotated lock types for the whole runtime.
//
// Every concurrent component (the MPMC priority queue, the work-stealing
// ThreadPool, CircuitBreaker, the EvalCache, PlannerService and the
// OverloadGovernor) declares its lock discipline through these macros:
// which mutex guards which field (CAST_GUARDED_BY), which private methods
// may only run with a lock held (CAST_REQUIRES), and which public methods
// must not be entered with it held (CAST_EXCLUDES). Under Clang the
// annotations are enforced by `-Wthread-safety` — the CI thread-safety lane
// builds the tree with `-Werror=thread-safety-analysis`, so a guarded field
// read outside its mutex is a build break, not a race TSan has to catch in
// the right interleaving. Under GCC (the tier-1 build) every macro expands
// to nothing; the annotations are behavior-free by construction.
//
// The annotated types below replace the std primitives everywhere in src/:
// cast_check rule C001/C002 rejects naked std::mutex / std::lock_guard /
// std::condition_variable outside this header, because the analysis only
// sees capabilities it knows about. cast::Mutex is a std::mutex tagged as a
// capability; LockGuard/UniqueLock are scoped capabilities; CondVar wraps
// std::condition_variable to wait on a cast::UniqueLock.
//
// Escape hatch: CAST_NO_TSA disables the analysis for one function. The
// repo-wide budget is ≤ 3 uses, each requiring a same-line justification
// comment — enforced by cast_check rules C007 (justification) and C009
// (budget), so escapes stay an audited exception, never a habit.
#pragma once

#include <condition_variable>
#include <mutex>
#include <utility>

// ---------------------------------------------------------------------------
// Attribute macros (no-ops outside Clang).

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(guarded_by)
#define CAST_TSA(x) __attribute__((x))
#endif
#endif
#ifndef CAST_TSA
#define CAST_TSA(x)
#endif

/// Tags a type as a lockable capability ("mutex" names the kind in
/// diagnostics).
#define CAST_CAPABILITY(x) CAST_TSA(capability(x))
/// Tags a RAII type whose constructor acquires and destructor releases.
#define CAST_SCOPED_CAPABILITY CAST_TSA(scoped_lockable)
/// Field may only be read or written while holding `x`.
#define CAST_GUARDED_BY(x) CAST_TSA(guarded_by(x))
/// Pointed-to data (not the pointer itself) is guarded by `x`.
#define CAST_PT_GUARDED_BY(x) CAST_TSA(pt_guarded_by(x))
/// Function may only be called with the listed capabilities held.
#define CAST_REQUIRES(...) CAST_TSA(requires_capability(__VA_ARGS__))
/// Function acquires the listed capabilities and does not release them.
#define CAST_ACQUIRE(...) CAST_TSA(acquire_capability(__VA_ARGS__))
/// Function releases the listed capabilities.
#define CAST_RELEASE(...) CAST_TSA(release_capability(__VA_ARGS__))
/// Function acquires the capability iff it returns `ret`.
#define CAST_TRY_ACQUIRE(ret, ...) CAST_TSA(try_acquire_capability(ret, __VA_ARGS__))
/// Function must NOT be entered with the listed capabilities held
/// (deadlock prevention for self-locking public APIs).
#define CAST_EXCLUDES(...) CAST_TSA(locks_excluded(__VA_ARGS__))
/// Function returns a reference to the named capability.
#define CAST_RETURN_CAPABILITY(x) CAST_TSA(lock_returned(x))
/// Escape hatch: disables the analysis for one function. Budgeted (≤ 3
/// repo-wide) and must carry a same-line justification comment — see
/// cast_check rules C007/C009.
#define CAST_NO_TSA CAST_TSA(no_thread_safety_analysis)

namespace cast {

/// std::mutex tagged as a thread-safety capability. All mutexes in src/ are
/// this type so every lock the analysis reasons about is visible to it.
class CAST_CAPABILITY("mutex") Mutex {
public:
    Mutex() = default;
    Mutex(const Mutex&) = delete;
    Mutex& operator=(const Mutex&) = delete;

    void lock() CAST_ACQUIRE() { m_.lock(); }
    void unlock() CAST_RELEASE() { m_.unlock(); }
    [[nodiscard]] bool try_lock() CAST_TRY_ACQUIRE(true) { return m_.try_lock(); }

private:
    friend class CondVar;
    friend class UniqueLock;
    std::mutex m_;
};

/// RAII lock for the common hold-to-end-of-scope case (std::lock_guard).
class CAST_SCOPED_CAPABILITY LockGuard {
public:
    explicit LockGuard(Mutex& m) CAST_ACQUIRE(m) : mutex_(m) { mutex_.lock(); }
    ~LockGuard() CAST_RELEASE() { mutex_.unlock(); }

    LockGuard(const LockGuard&) = delete;
    LockGuard& operator=(const LockGuard&) = delete;

private:
    Mutex& mutex_;
};

/// RAII lock that a CondVar can release and reacquire (std::unique_lock).
/// Deliberately minimal: no deferred/adopted modes, no manual unlock —
/// every UniqueLock in this codebase is held from construction to scope
/// exit, which is exactly the contract the scoped-capability annotation
/// can prove.
class CAST_SCOPED_CAPABILITY UniqueLock {
public:
    explicit UniqueLock(Mutex& m) CAST_ACQUIRE(m) : lock_(m.m_) {}
    ~UniqueLock() CAST_RELEASE() = default;

    UniqueLock(const UniqueLock&) = delete;
    UniqueLock& operator=(const UniqueLock&) = delete;

private:
    friend class CondVar;
    std::unique_lock<std::mutex> lock_;
};

/// Condition variable over cast::Mutex/UniqueLock. The analysis cannot
/// model wait()'s release-and-reacquire (the capability is held on entry
/// and on return, which is all callers can observe), so wait() is the one
/// place the analysis is switched off — callers still check their guarded
/// predicate in a while loop around wait(), where the lock is provably
/// held.
class CondVar {
public:
    CondVar() = default;
    CondVar(const CondVar&) = delete;
    CondVar& operator=(const CondVar&) = delete;

    /// Atomically release `lock`, sleep until notified, reacquire. Spurious
    /// wakeups happen; always call from a predicate loop.
    void wait(UniqueLock& lock) CAST_NO_TSA {  // justified: TSA cannot model cv release/reacquire; lock is held on entry and return
        cv_.wait(lock.lock_);
    }

    void notify_one() noexcept { cv_.notify_one(); }
    void notify_all() noexcept { cv_.notify_all(); }

private:
    std::condition_variable cv_;
};

}  // namespace cast
