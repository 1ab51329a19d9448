#include "common/mpmc_queue.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

namespace cast {
namespace {

/// Consumer loop for the concurrency tests: try_pop until the queue is
/// closed and drained. Reading closed() before the pop makes an empty pop
/// after it final: nothing can be admitted once the queue is closed.
template <typename OnItem>
void drain_until_closed(BoundedPriorityQueue<int>& q, OnItem&& on_item) {
    for (;;) {
        const bool closed = q.closed();
        if (const auto v = q.try_pop()) {
            on_item(*v);
        } else if (closed) {
            return;
        } else {
            std::this_thread::yield();
        }
    }
}

TEST(BoundedPriorityQueue, PopsHighestPriorityFirstFifoWithinLevel) {
    BoundedPriorityQueue<int> q(8, 3);
    ASSERT_TRUE(q.try_push(10, 1));
    ASSERT_TRUE(q.try_push(20, 2));
    ASSERT_TRUE(q.try_push(1, 0));
    ASSERT_TRUE(q.try_push(11, 1));
    ASSERT_TRUE(q.try_push(2, 0));

    EXPECT_EQ(q.try_pop(), 1);
    EXPECT_EQ(q.try_pop(), 2);
    EXPECT_EQ(q.try_pop(), 10);
    EXPECT_EQ(q.try_pop(), 11);
    EXPECT_EQ(q.try_pop(), 20);
}

TEST(BoundedPriorityQueue, OutOfRangePriorityClampsToLowestLevel) {
    BoundedPriorityQueue<int> q(4, 2);
    ASSERT_TRUE(q.try_push(99, 57));  // clamped to level 1
    ASSERT_TRUE(q.try_push(1, 0));
    EXPECT_EQ(q.try_pop(), 1);
    EXPECT_EQ(q.try_pop(), 99);
}

TEST(BoundedPriorityQueue, RejectsWhenFullAndAdmitsAfterDrain) {
    BoundedPriorityQueue<int> q(2);
    ASSERT_TRUE(q.try_push(1));
    ASSERT_TRUE(q.try_push(2));
    EXPECT_FALSE(q.try_push(3));
    EXPECT_EQ(q.size(), 2u);

    EXPECT_EQ(q.try_pop(), 1);
    EXPECT_TRUE(q.try_push(4));
}

TEST(BoundedPriorityQueue, CloseRejectsNewItemsButDrainsAdmittedOnes) {
    BoundedPriorityQueue<int> q(4);
    ASSERT_TRUE(q.try_push(1));
    ASSERT_TRUE(q.try_push(2));
    q.close();
    EXPECT_TRUE(q.closed());
    EXPECT_FALSE(q.try_push(3));

    EXPECT_EQ(q.try_pop(), 1);
    EXPECT_EQ(q.try_pop(), 2);
    EXPECT_EQ(q.try_pop(), std::nullopt);  // closed + drained
}

TEST(BoundedPriorityQueue, TryPopOnEmptyQueueReturnsAtOnce) {
    BoundedPriorityQueue<int> q(2);
    EXPECT_EQ(q.try_pop(), std::nullopt);
    ASSERT_TRUE(q.try_push(5));
    EXPECT_EQ(q.try_pop(), 5);
    EXPECT_EQ(q.try_pop(), std::nullopt);
}

TEST(BoundedPriorityQueue, MoveOnlyItemsFlowThrough) {
    BoundedPriorityQueue<std::unique_ptr<int>> q(2);
    ASSERT_TRUE(q.try_push(std::make_unique<int>(7)));
    auto item = q.try_pop();
    ASSERT_TRUE(item.has_value());
    EXPECT_EQ(**item, 7);
}

// Concurrency contract under TSan: many producers race try_push against
// consumers draining with try_pop; every admitted item comes out exactly
// once and every consumer stops once the queue is closed and drained.
TEST(BoundedPriorityQueue, ConcurrentProducersAndConsumersLoseNothing) {
    constexpr int kProducers = 4;
    constexpr int kConsumers = 3;
    constexpr int kPerProducer = 500;

    BoundedPriorityQueue<int> q(64, 3);
    std::atomic<long long> pushed_sum{0};
    std::atomic<long long> popped_sum{0};
    std::atomic<int> popped_count{0};

    std::vector<std::thread> consumers;
    consumers.reserve(kConsumers);
    for (int c = 0; c < kConsumers; ++c) {
        consumers.emplace_back([&] {
            drain_until_closed(q, [&](int v) {
                popped_sum.fetch_add(v, std::memory_order_relaxed);
                popped_count.fetch_add(1, std::memory_order_relaxed);
            });
        });
    }

    std::vector<std::thread> producers;
    producers.reserve(kProducers);
    for (int p = 0; p < kProducers; ++p) {
        producers.emplace_back([&, p] {
            for (int i = 0; i < kPerProducer; ++i) {
                const int value = p * kPerProducer + i;
                // Spin on rejects: backpressure, not loss.
                while (!q.try_push(value, static_cast<std::size_t>(value % 3))) {
                    std::this_thread::yield();
                }
                pushed_sum.fetch_add(value, std::memory_order_relaxed);
            }
        });
    }

    for (auto& t : producers) t.join();
    q.close();
    for (auto& t : consumers) t.join();

    EXPECT_EQ(popped_count.load(), kProducers * kPerProducer);
    EXPECT_EQ(popped_sum.load(), pushed_sum.load());
    EXPECT_EQ(q.size(), 0u);
}

// Shutdown race: close() fires while producers are mid-try_push and
// consumers are mid-try_pop. The contract under this race is exact —
// every try_push that returned true is drained exactly once, every
// try_push after close returns false, and no thread hangs. Run many short
// rounds so TSan sees lots of distinct interleavings of close vs push/pop.
TEST(BoundedPriorityQueue, CloseRacingPushAndPopLosesNoAdmittedItem) {
    constexpr int kRounds = 25;
    constexpr int kProducers = 3;
    constexpr int kConsumers = 2;
    constexpr int kAttemptsPerProducer = 64;

    for (int round = 0; round < kRounds; ++round) {
        BoundedPriorityQueue<int> q(16, 2);
        std::atomic<long long> admitted_sum{0};
        std::atomic<int> admitted_count{0};
        std::atomic<long long> drained_sum{0};
        std::atomic<int> drained_count{0};

        std::vector<std::thread> consumers;
        consumers.reserve(kConsumers);
        for (int c = 0; c < kConsumers; ++c) {
            consumers.emplace_back([&] {
                drain_until_closed(q, [&](int v) {
                    drained_sum.fetch_add(v, std::memory_order_relaxed);
                    drained_count.fetch_add(1, std::memory_order_relaxed);
                });
            });
        }

        std::vector<std::thread> producers;
        producers.reserve(kProducers);
        for (int p = 0; p < kProducers; ++p) {
            producers.emplace_back([&, p] {
                for (int i = 0; i < kAttemptsPerProducer; ++i) {
                    const int value = p * kAttemptsPerProducer + i + 1;
                    // No retry loop: close() may land at any moment, and a
                    // reject (full OR closed) simply doesn't count as admitted.
                    if (q.try_push(value, static_cast<std::size_t>(value % 2))) {
                        admitted_sum.fetch_add(value, std::memory_order_relaxed);
                        admitted_count.fetch_add(1, std::memory_order_relaxed);
                    }
                }
            });
        }

        // Close somewhere in the middle of the push storm.
        std::thread closer([&] {
            std::this_thread::yield();
            q.close();
        });

        for (auto& t : producers) t.join();
        closer.join();
        for (auto& t : consumers) t.join();

        EXPECT_FALSE(q.try_push(12345)) << "round " << round;
        EXPECT_EQ(drained_count.load(), admitted_count.load()) << "round " << round;
        EXPECT_EQ(drained_sum.load(), admitted_sum.load()) << "round " << round;
        EXPECT_EQ(q.size(), 0u) << "round " << round;
    }
}

}  // namespace
}  // namespace cast
