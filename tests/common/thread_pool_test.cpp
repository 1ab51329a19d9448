#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <latch>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace cast {
namespace {

TEST(ThreadPool, SubmitReturnsResult) {
    ThreadPool pool(2);
    auto fut = pool.submit([] { return 6 * 7; });
    EXPECT_EQ(fut.get(), 42);
}

TEST(ThreadPool, WorkerCountRespected) {
    ThreadPool pool(3);
    EXPECT_EQ(pool.worker_count(), 3u);
}

TEST(ThreadPool, RejectsZeroWorkers) {
    EXPECT_THROW(ThreadPool pool(0), PreconditionError);
}

TEST(ThreadPool, ParallelForVisitsEveryIndexOnce) {
    ThreadPool pool(4);
    std::vector<std::atomic<int>> counts(100);
    pool.parallel_for(100, [&](std::size_t i) { counts[i]++; });
    for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(ThreadPool, ParallelForSingleWorkerInline) {
    ThreadPool pool(1);
    std::vector<int> order;
    pool.parallel_for(5, [&](std::size_t i) { order.push_back(static_cast<int>(i)); });
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, ParallelForZeroIsNoop) {
    ThreadPool pool(2);
    bool touched = false;
    pool.parallel_for(0, [&](std::size_t) { touched = true; });
    EXPECT_FALSE(touched);
}

TEST(ThreadPool, ParallelForPropagatesException) {
    ThreadPool pool(2);
    EXPECT_THROW(pool.parallel_for(8,
                                   [](std::size_t i) {
                                       if (i == 3) throw std::runtime_error("boom");
                                   }),
                 std::runtime_error);
}

TEST(ThreadPool, SubmitExceptionSurfacesViaFuture) {
    ThreadPool pool(2);
    auto fut = pool.submit([]() -> int { throw std::logic_error("bad"); });
    EXPECT_THROW((void)fut.get(), std::logic_error);
}

TEST(ThreadPool, ManyTasksAllComplete) {
    ThreadPool pool(4);
    std::atomic<long> sum{0};
    std::vector<std::future<void>> futures;
    for (int i = 1; i <= 500; ++i) {
        futures.push_back(pool.submit([&sum, i] { sum += i; }));
    }
    for (auto& f : futures) f.get();
    EXPECT_EQ(sum.load(), 500L * 501 / 2);
}

TEST(ThreadPool, ParallelForExplicitGrainVisitsEveryIndexOnce) {
    ThreadPool pool(4);
    // 103 indices in chunks of 7: uneven tail chunk, more chunks than
    // workers — every index must still be visited exactly once.
    std::vector<std::atomic<int>> counts(103);
    pool.parallel_for(103, [&](std::size_t i) { counts[i]++; }, /*grain=*/7);
    for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
    // A worker blocked in an inner parallel_for must help drain the pool,
    // otherwise outer+inner on a small pool deadlocks (the planner nests
    // profiling batches inside candidate evaluation this way).
    ThreadPool pool(2);
    std::atomic<int> total{0};
    pool.parallel_for(
        8,
        [&](std::size_t) {
            pool.parallel_for(32, [&](std::size_t) { total++; }, /*grain=*/1);
        },
        /*grain=*/1);
    EXPECT_EQ(total.load(), 8 * 32);
}

TEST(ThreadPool, ParallelForAggregatesMultipleExceptions) {
    ThreadPool pool(4);
    try {
        pool.parallel_for(
            16,
            [](std::size_t i) {
                throw std::runtime_error("body " + std::to_string(i));
            },
            /*grain=*/1);
        FAIL() << "expected ParallelForError";
    } catch (const ParallelForError& e) {
        // Every chunk fails, every failure is collected.
        EXPECT_EQ(e.messages().size(), 16u);
        EXPECT_NE(std::string(e.what()).find("16 bodies failed"), std::string::npos);
    }
}

TEST(ThreadPool, ParallelForSingleFailureRethrowsOriginalType) {
    ThreadPool pool(4);
    EXPECT_THROW(pool.parallel_for(64,
                                   [](std::size_t i) {
                                       if (i == 17) throw std::logic_error("one");
                                   },
                                   /*grain=*/4),
                 std::logic_error);
}

TEST(ThreadPool, CastThreadsEnvOverridesDefaultWorkers) {
    // NOLINTNEXTLINE(concurrency-mt-unsafe) - single-threaded test setup
    setenv("CAST_THREADS", "3", 1);
    EXPECT_EQ(ThreadPool::default_workers(), 3u);
    // NOLINTNEXTLINE(concurrency-mt-unsafe) - single-threaded test setup
    setenv("CAST_THREADS", "not-a-number", 1);
    EXPECT_GE(ThreadPool::default_workers(), 1u);
    // NOLINTNEXTLINE(concurrency-mt-unsafe) - single-threaded test setup
    unsetenv("CAST_THREADS");
    EXPECT_GE(ThreadPool::default_workers(), 1u);
}

TEST(ThreadPool, SubmitFromWorkerThreadCompletes) {
    ThreadPool pool(2);
    auto outer = pool.submit([&pool] {
        auto inner = pool.submit([] { return 7; });
        return inner.get() + 1;
    });
    EXPECT_EQ(outer.get(), 8);
}

TEST(ThreadPool, DestructorDrainsCleanly) {
    std::atomic<int> done{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 16; ++i) {
            (void)pool.submit([&done] { done++; });
        }
        // Destructor joins; submitted work may or may not complete before
        // stop, but nothing should crash or deadlock.
    }
    SUCCEED();
}

// Regression for the annotated worker sleep loop (predicate lambda ->
// explicit `while (...) cv_.wait(lock)`): workers that went to sleep on an
// empty pool must wake on later submissions. Short bursts separated by
// yields drive workers into the wait loop between bursts; a lost wakeup
// hangs this test, and an unlocked predicate read trips the TSan lane.
TEST(ThreadPool, SleepingWorkersWakeOnLaterSubmissionBursts) {
    constexpr int kBursts = 40;
    constexpr int kTasksPerBurst = 8;
    ThreadPool pool(3);
    std::atomic<int> done{0};

    for (int burst = 0; burst < kBursts; ++burst) {
        std::vector<std::future<void>> futs;
        futs.reserve(kTasksPerBurst);
        for (int t = 0; t < kTasksPerBurst; ++t) {
            futs.push_back(pool.submit([&done] {
                done.fetch_add(1, std::memory_order_relaxed);
            }));
        }
        for (auto& f : futs) f.get();  // pool drains; workers re-block
        std::this_thread::yield();
    }
    EXPECT_EQ(done.load(), kBursts * kTasksPerBurst);
}

// The barrier-wait contract: a worker waiting in parallel_for helps with
// other parallel_for chunks but never starts a submit()ed task (a whole
// planning request must not run nested inside another one's exchange
// barrier). Fully determined by two latches, whatever the timing:
//   * the waiting worker W runs one outer chunk, which blocks until the
//     other worker has taken the second outer chunk, and then submits S to
//     W's own deque — the first place W's wait loop looks;
//   * the second outer chunk runs a nested parallel_for whose first chunk
//     blocks until its second has run, and only W is free to take that
//     second chunk's runner — from its wait loop, with S queued beside it.
TEST(ThreadPool, ParallelForWaitRunsRunnersButNeverSubmittedTasks) {
    ThreadPool pool(2);
    std::latch other_chunk_started(1);
    std::latch inner_second_ran(1);
    std::thread::id waiter;
    std::thread::id inner_second_thread;
    std::atomic<bool> waiting{false};
    std::atomic<bool> submitted_ran_in_wait{false};
    std::future<void> submitted;

    auto outer = pool.submit([&] {
        waiter = std::this_thread::get_id();
        waiting = true;
        pool.parallel_for(
            2,
            [&](std::size_t) {
                if (std::this_thread::get_id() == waiter) {
                    other_chunk_started.wait();
                    submitted = pool.submit([&] {
                        submitted_ran_in_wait =
                            waiting && std::this_thread::get_id() == waiter;
                    });
                    return;
                }
                other_chunk_started.count_down();
                const std::thread::id self = std::this_thread::get_id();
                pool.parallel_for(
                    2,
                    [&](std::size_t) {
                        if (std::this_thread::get_id() == self) {
                            inner_second_ran.wait();
                            return;
                        }
                        inner_second_thread = std::this_thread::get_id();
                        inner_second_ran.count_down();
                    },
                    /*grain=*/1);
            },
            /*grain=*/1);
        waiting = false;
    });
    outer.get();
    submitted.get();
    EXPECT_EQ(inner_second_thread, waiter) << "the waiting worker ran no runner task";
    EXPECT_FALSE(submitted_ran_in_wait) << "a submitted task ran inside a parallel_for wait";
}

#ifdef __linux__
// Workers start spread over the allowed CPUs, but each must get the whole
// affinity mask back: a worker left bound to one CPU would stay there.
// Two submitted tasks that wait for each other run on both workers.
TEST(ThreadPool, SpreadWorkersKeepTheWholeAffinityMask) {
    cpu_set_t expected;
    CPU_ZERO(&expected);
    ASSERT_EQ(sched_getaffinity(0, sizeof(expected), &expected), 0);
    ThreadPool pool(2, /*pin_threads=*/false);
    std::latch both_running(2);
    auto mask_matches = [&] {
        both_running.arrive_and_wait();
        cpu_set_t mine;
        CPU_ZERO(&mine);
        return sched_getaffinity(0, sizeof(mine), &mine) == 0 && CPU_EQUAL(&mine, &expected);
    };
    auto first = pool.submit(mask_matches);
    auto second = pool.submit(mask_matches);
    EXPECT_TRUE(first.get());
    EXPECT_TRUE(second.get());
    EXPECT_FALSE(pool.pinned());
}
#endif

}  // namespace
}  // namespace cast
