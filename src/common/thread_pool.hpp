// Work-stealing thread pool with a chunked parallel_for.
//
// v2 design (the batch-simulation engine's substrate):
//   * Each worker owns a deque: it pushes/pops work at the back (LIFO, cache
//     warm) and thieves take from the front (FIFO, coarse chunks first).
//   * parallel_for claims *chunks* of the index space through one atomic
//     counter — no per-index heap task, no shared-queue traffic on the hot
//     path. The grain size is explicit (default: ~4 chunks per worker).
//   * Nested submission is safe: a thread blocked in parallel_for first
//     drains its own chunks inline and then helps execute other
//     parallel_for runner tasks while it waits, so a worker calling
//     parallel_for (annealing chains profiling inside cluster planning,
//     batch sims inside calibration) can never deadlock the pool. It never
//     starts a submit()ed task there: a long task (a whole planning
//     request) must not run nested inside another one's barrier wait, and
//     parallel_for never needs a submitted task to finish. Idle workers
//     take submitted tasks before runner tasks, so under load each worker
//     starts its own task rather than splitting another one's chunks.
//   * Exceptions thrown by parallel_for bodies are aggregated: one failure
//     rethrows as-is, several are collected into a ParallelForError.
//   * CAST_THREADS overrides the default worker count (reproducible CI);
//     CAST_AFFINITY=1 (or the pin_threads constructor flag) pins worker i
//     to core i on Linux so replica scratch stays cache-resident across
//     tempering rounds (no-op elsewhere).
//   * Unpinned workers still start spread out on Linux: each moves onto
//     its own allowed CPU, away from the creating thread's, and then takes
//     its whole mask back. The kernel rarely migrates lightly loaded
//     threads, so without this a pool created on a quiet host can keep
//     every worker on its creator's CPU, where parallel_for's chunks
//     time-share one core instead of overlapping.
// The pool is created once and joined in the destructor (RAII, no detached
// threads). parallel_for degrades to inline execution whenever the
// effective parallelism is 1 — a 1-worker pool, a single index, or an
// index space that fits in one grain — so there is never a queue
// round-trip to pay on 1-core machines, and runner tasks are capped at
// the chunk count so small index spaces on wide pools do not enqueue
// no-op work.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/annotations.hpp"
#include "common/error.hpp"

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

namespace cast {

/// Aggregate of 2+ exceptions thrown by parallel_for bodies. A single
/// failing body rethrows its original exception instead.
class ParallelForError : public std::runtime_error {
public:
    explicit ParallelForError(std::vector<std::string> messages)
        : std::runtime_error(compose(messages)), messages_(std::move(messages)) {}

    /// what() of every body exception, in claim order.
    [[nodiscard]] const std::vector<std::string>& messages() const { return messages_; }

private:
    static std::string compose(const std::vector<std::string>& messages) {
        std::string what =
            "parallel_for: " + std::to_string(messages.size()) + " bodies failed: [";
        for (std::size_t i = 0; i < messages.size(); ++i) {
            if (i > 0) what += "; ";
            what += messages[i];
        }
        what += "]";
        return what;
    }

    std::vector<std::string> messages_;
};

class ThreadPool {
public:
    /// Create a pool with `workers` threads (>= 1). Defaults to CAST_THREADS
    /// when set, else the hardware concurrency, with a floor of 1. When
    /// `pin_threads` is set (default: the CAST_AFFINITY env var), worker i
    /// is pinned to core i % hardware_concurrency on Linux so per-worker
    /// replica scratch stays on one core's cache between exchange barriers;
    /// on other platforms the flag is accepted but has no effect.
    explicit ThreadPool(std::size_t workers = default_workers(),
                        bool pin_threads = default_pinning()) {
        CAST_EXPECTS(workers >= 1);
        queues_.reserve(workers);
        for (std::size_t i = 0; i < workers; ++i) {
            queues_.push_back(std::make_unique<WorkerQueue>());
        }
        // Written before any worker starts, read-only afterwards.
        if (!pin_threads) start_cpus_ = spread_cpus(workers);
        threads_.reserve(workers);
        for (std::size_t i = 0; i < workers; ++i) {
            threads_.emplace_back([this, i] { worker_loop(i); });
        }
        if (pin_threads) pinned_ = pin_workers();
    }

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    ~ThreadPool() {
        {
            // The store is atomic, but pairing it with the sleep mutex
            // closes the lost-wakeup window against a worker between its
            // predicate check and its wait.
            LockGuard lock(sleep_mutex_);
            stopping_.store(true, std::memory_order_relaxed);
        }
        cv_.notify_all();
        for (auto& t : threads_) t.join();
    }

    [[nodiscard]] std::size_t worker_count() const { return threads_.size(); }

    /// True when affinity pinning was requested AND applied to every worker
    /// (always false off-Linux or when sched_setaffinity was refused).
    [[nodiscard]] bool pinned() const { return pinned_; }

    /// True when the calling thread is one of this pool's workers.
    [[nodiscard]] bool on_worker_thread() const { return current_worker(this) >= 0; }

    /// Submit a callable; returns a future for its result. Safe to call from
    /// worker threads (the task goes to the caller's own deque). Only idle
    /// workers start submitted tasks, never a thread waiting in
    /// parallel_for.
    template <typename F>
    auto submit(F&& f) -> std::future<std::invoke_result_t<F>> {
        using R = std::invoke_result_t<F>;
        auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
        std::future<R> fut = task->get_future();
        push_task([task]() mutable { (*task)(); }, TaskKind::kSubmitted);
        return fut;
    }

    /// Run body(i) for i in [0, n), distributing chunks of `grain`
    /// consecutive indices across workers, and wait for completion. The
    /// calling thread participates (and helps run other parallel_for
    /// chunks while waiting, making nested parallel_for safe). grain == 0 picks
    /// ~4 chunks per worker. All body exceptions are collected: a single
    /// one is rethrown as-is, several become a ParallelForError.
    template <typename Body>
    void parallel_for(std::size_t n, Body&& body, std::size_t grain = 0) {
        CAST_EXPECTS_MSG(!stopping_.load(std::memory_order_relaxed),
                         "parallel_for on a stopping pool");
        if (n == 0) return;
        if (grain == 0) grain = std::max<std::size_t>(1, n / (worker_count() * 4));
        if (worker_count() == 1 || n == 1 || n <= grain) {
            for (std::size_t i = 0; i < n; ++i) body(i);
            return;
        }

        struct State {
            std::atomic<std::size_t> next{0};
            std::atomic<std::size_t> done{0};
            std::size_t n = 0;
            std::size_t grain = 1;
            Mutex error_mutex;
            std::vector<std::exception_ptr> errors CAST_GUARDED_BY(error_mutex);
        };
        auto state = std::make_shared<State>();
        state->n = n;
        state->grain = grain;

        // Claim chunks until the index space is exhausted. A failing chunk
        // still counts its indices as done so every waiter terminates.
        auto run_chunks = [state, &body] {
            for (;;) {
                const std::size_t begin =
                    state->next.fetch_add(state->grain, std::memory_order_relaxed);
                if (begin >= state->n) return;
                const std::size_t end = std::min(begin + state->grain, state->n);
                try {
                    for (std::size_t i = begin; i < end; ++i) body(i);
                } catch (...) {
                    LockGuard lock(state->error_mutex);
                    state->errors.push_back(std::current_exception());
                }
                state->done.fetch_add(end - begin, std::memory_order_acq_rel);
            }
        };

        // Runner tasks drain as many chunks as they can, so enqueue at most
        // one per chunk beyond the calling thread's own share — a wide pool
        // handed a 2-chunk job must not pay worker_count()-2 wakeups for
        // tasks that find the counter already exhausted. The runners capture
        // `state` by shared_ptr (they may outlive this frame's wait when all
        // chunks were already claimed) but touch `body` only while done < n,
        // which the wait below outlasts.
        const std::size_t nchunks = (n + grain - 1) / grain;
        const std::size_t runners = std::min(worker_count(), nchunks - 1);
        for (std::size_t w = 0; w < runners; ++w) push_task(run_chunks, TaskKind::kRunner);
        run_chunks();
        // Help run other runner tasks while waiting: if this thread is
        // itself a worker inside an outer parallel_for, the chunks it is
        // blocked on may be queued behind other runners. Submitted tasks
        // are left to idle workers (see the header comment).
        while (state->done.load(std::memory_order_acquire) < n) {
            if (!try_run_one_task(/*runners_only=*/true)) std::this_thread::yield();
        }

        std::vector<std::exception_ptr> errors;
        {
            LockGuard lock(state->error_mutex);
            errors.swap(state->errors);
        }
        if (errors.empty()) return;
        if (errors.size() == 1) std::rethrow_exception(errors[0]);
        std::vector<std::string> messages;
        messages.reserve(errors.size());
        for (const auto& e : errors) {
            try {
                std::rethrow_exception(e);
            } catch (const std::exception& ex) {
                messages.emplace_back(ex.what());
            } catch (...) {
                messages.emplace_back("unknown exception");
            }
        }
        throw ParallelForError(std::move(messages));
    }

    /// CAST_THREADS env var (>= 1) when set, else hardware concurrency.
    [[nodiscard]] static std::size_t default_workers() {
        // Read once: getenv is unsynchronized against setenv, but CAST_THREADS
        // is only ever set before the first pool is created (CI harness).
        // NOLINTNEXTLINE(concurrency-mt-unsafe)
        if (const char* env = std::getenv("CAST_THREADS")) {
            const long v = std::strtol(env, nullptr, 10);
            if (v >= 1) return static_cast<std::size_t>(v);
        }
        const unsigned hw = std::thread::hardware_concurrency();
        return hw == 0 ? 1 : static_cast<std::size_t>(hw);
    }

    /// CAST_AFFINITY env var: any value other than empty/"0" requests
    /// worker pinning (the affinity-aware tempering mode).
    [[nodiscard]] static bool default_pinning() {
        // NOLINTNEXTLINE(concurrency-mt-unsafe)
        const char* env = std::getenv("CAST_AFFINITY");
        return env != nullptr && env[0] != '\0' &&
               !(env[0] == '0' && env[1] == '\0');
    }

private:
    using Task = std::function<void()>;

    /// submit()ed tasks vs parallel_for's chunk runners. Each has its own
    /// deque per worker; idle workers look in the enum's order.
    enum class TaskKind : std::size_t { kSubmitted = 0, kRunner = 1 };
    static constexpr std::size_t kTaskKinds = 2;

    struct WorkerQueue {
        Mutex mutex;
        std::deque<Task> deques[kTaskKinds] CAST_GUARDED_BY(mutex);
    };

    /// Index of the calling thread in `pool`, or -1 for external threads.
    /// thread_local so one thread can be a worker of at most one pool at a
    /// time while other pools treat it as external (correct: pools do not
    /// share threads).
    static int& worker_slot(const ThreadPool* pool) {
        thread_local const ThreadPool* my_pool = nullptr;
        thread_local int my_index = -1;
        if (my_pool != pool) {
            my_pool = pool;
            my_index = -1;
        }
        return my_index;
    }

    [[nodiscard]] int current_worker(const ThreadPool* pool) const {
        return worker_slot(pool);
    }

    void push_task(Task task, TaskKind kind) {
        CAST_EXPECTS_MSG(!stopping_.load(std::memory_order_relaxed),
                         "submit on a stopping pool");
        const int self = current_worker(this);
        // Workers push to their own deque (back = LIFO, warm); external
        // producers round-robin across deques.
        const std::size_t q =
            self >= 0 ? static_cast<std::size_t>(self)
                      : next_queue_.fetch_add(1, std::memory_order_relaxed) % queues_.size();
        {
            WorkerQueue& wq = *queues_[q];
            LockGuard lock(wq.mutex);
            wq.deques[static_cast<std::size_t>(kind)].push_back(std::move(task));
        }
        pending_.fetch_add(1, std::memory_order_release);
        {
            // Lock/unlock pairs the notify with the sleeper's predicate
            // check, closing the lost-wakeup window.
            LockGuard lock(sleep_mutex_);
        }
        cv_.notify_one();
    }

    /// Pop a task — a submitted one first, across every worker, then a
    /// runner; only a runner when `runners_only` — from the own deque
    /// (back) or by stealing from another (front). Returns false when none
    /// is queued.
    [[nodiscard]] bool try_pop_task(Task& out, bool runners_only) {
        const int self = current_worker(this);
        const std::size_t start =
            self >= 0 ? static_cast<std::size_t>(self)
                      : next_queue_.fetch_add(1, std::memory_order_relaxed) % queues_.size();
        const auto first = static_cast<std::size_t>(runners_only ? TaskKind::kRunner
                                                                 : TaskKind::kSubmitted);
        for (std::size_t kind = first; kind < kTaskKinds; ++kind) {
            for (std::size_t k = 0; k < queues_.size(); ++k) {
                const std::size_t q = (start + k) % queues_.size();
                WorkerQueue& wq = *queues_[q];
                LockGuard lock(wq.mutex);
                std::deque<Task>& deque = wq.deques[kind];
                if (deque.empty()) continue;
                if (k == 0 && self >= 0) {
                    out = std::move(deque.back());
                    deque.pop_back();
                } else {
                    out = std::move(deque.front());
                    deque.pop_front();
                }
                pending_.fetch_sub(1, std::memory_order_relaxed);
                return true;
            }
        }
        return false;
    }

    /// Pin worker i to core i % hardware_concurrency. Returns true only
    /// when every pin call succeeded (containers may restrict the mask).
    [[nodiscard]] bool pin_workers() {
#ifdef __linux__
        const unsigned hw = std::thread::hardware_concurrency();
        if (hw == 0) return false;
        bool all_ok = true;
        for (std::size_t i = 0; i < threads_.size(); ++i) {
            cpu_set_t set;
            CPU_ZERO(&set);
            CPU_SET(static_cast<int>(i % hw), &set);
            all_ok = pthread_setaffinity_np(threads_[i].native_handle(), sizeof(set), &set) ==
                         0 &&
                     all_ok;
        }
        return all_ok;
#else
        return false;
#endif
    }

    /// One start CPU per worker: the allowed CPUs in order, beginning
    /// after the calling thread's. Empty when there is nothing to spread
    /// over (one allowed CPU, or not Linux).
    [[nodiscard]] static std::vector<int> spread_cpus(std::size_t workers) {
        std::vector<int> starts;
#ifdef __linux__
        cpu_set_t allowed;
        CPU_ZERO(&allowed);
        if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return starts;
        std::vector<int> cpus;
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
            if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
        }
        if (cpus.size() < 2) return starts;
        const auto self = std::find(cpus.begin(), cpus.end(), sched_getcpu());
        const std::size_t first =
            self == cpus.end() ? 0 : static_cast<std::size_t>(self - cpus.begin()) + 1;
        for (std::size_t i = 0; i < workers; ++i) {
            starts.push_back(cpus[(first + i) % cpus.size()]);
        }
#else
        (void)workers;
#endif
        return starts;
    }

    /// Migrate the calling thread onto `cpu`, then give it its whole mask
    /// back: it stays there until the kernel's load balancer moves it.
    /// Best effort: a refused call leaves the thread where it was.
    static void start_on(int cpu) {
#ifdef __linux__
        cpu_set_t allowed;
        CPU_ZERO(&allowed);
        if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        if (sched_setaffinity(0, sizeof(one), &one) == 0) {
            (void)sched_setaffinity(0, sizeof(allowed), &allowed);
        }
#else
        (void)cpu;
#endif
    }

    [[nodiscard]] bool try_run_one_task(bool runners_only) {
        Task task;
        if (!try_pop_task(task, runners_only)) return false;
        task();
        return true;
    }

    void worker_loop(std::size_t index) {
        worker_slot(this) = static_cast<int>(index);
        if (index < start_cpus_.size()) start_on(start_cpus_[index]);
        for (;;) {
            if (try_run_one_task(/*runners_only=*/false)) continue;
            UniqueLock lock(sleep_mutex_);
            while (!stopping_.load(std::memory_order_relaxed) &&
                   pending_.load(std::memory_order_acquire) == 0) {
                cv_.wait(lock);
            }
            if (stopping_.load(std::memory_order_relaxed) &&
                pending_.load(std::memory_order_acquire) == 0) {
                return;  // stopping and drained
            }
        }
    }

    std::vector<std::unique_ptr<WorkerQueue>> queues_;
    /// Guards nothing directly (stopping_/pending_ are atomics); exists to
    /// pair notifies with the sleep predicate so wakeups are never lost.
    Mutex sleep_mutex_;
    CondVar cv_;
    std::atomic<bool> stopping_{false};
    std::atomic<std::size_t> pending_{0};
    std::atomic<std::size_t> next_queue_{0};
    /// Start CPU per worker (see spread_cpus); empty when pinned.
    std::vector<int> start_cpus_;
    std::vector<std::thread> threads_;
    bool pinned_ = false;
};

}  // namespace cast
