// Bounded multi-producer/multi-consumer submission queue with priorities.
//
// The planning service's admission layer: producers (request submitters)
// try_push and are told immediately when the queue is full — backpressure
// is an explicit reject, never an unbounded buffer — while consumers (the
// service's request tasks) each try_pop one item, highest priority first,
// FIFO within a priority level. Nothing blocks: the service submits one
// pool task per admitted item, so a consumer always finds one waiting.
// Items already admitted are still handed out after close() so no
// accepted request is ever dropped.
//
// Deliberately a mutex rather than a lock-free ring: operations are a few
// pointer moves under a lock that is held for nanoseconds, while the work
// items they carry are multi-millisecond solves — the queue is never the
// bottleneck, and the simple implementation is trivially correct under
// TSan. The lock discipline is additionally compile-time checked: every
// level/size/closed access carries a CAST_GUARDED_BY contract the Clang
// thread-safety lane enforces.
#pragma once

#include <cstddef>
#include <deque>
#include <optional>
#include <utility>
#include <vector>

#include "common/annotations.hpp"
#include "common/error.hpp"

namespace cast {

template <typename T>
class BoundedPriorityQueue {
public:
    /// `capacity` bounds the total item count across all priority levels;
    /// `levels` is the number of priority classes (0 = most urgent).
    explicit BoundedPriorityQueue(std::size_t capacity, std::size_t levels = 3)
        : levels_(levels), capacity_(capacity) {
        CAST_EXPECTS(capacity >= 1);
        CAST_EXPECTS(levels >= 1);
    }

    BoundedPriorityQueue(const BoundedPriorityQueue&) = delete;
    BoundedPriorityQueue& operator=(const BoundedPriorityQueue&) = delete;

    /// Admit an item at `priority` (clamped to the highest configured
    /// level). Returns false — and leaves `item` untouched beyond the
    /// failed move-attempt — when the queue is full or closed; the caller
    /// owns the reject path.
    [[nodiscard]] bool try_push(T item, std::size_t priority = 1) CAST_EXCLUDES(mutex_) {
        LockGuard lock(mutex_);
        if (closed_ || size_ >= capacity_) return false;
        const std::size_t level = priority < levels_.size() ? priority : levels_.size() - 1;
        levels_[level].push_back(std::move(item));
        ++size_;
        return true;
    }

    /// Pop the single highest-priority item, or nullopt when the queue is
    /// empty. Never blocks; works the same before and after close().
    [[nodiscard]] std::optional<T> try_pop() CAST_EXCLUDES(mutex_) {
        LockGuard lock(mutex_);
        for (auto& level : levels_) {
            if (level.empty()) continue;
            T item = std::move(level.front());
            level.pop_front();
            --size_;
            return item;
        }
        return std::nullopt;
    }

    /// Refuse new items. Items admitted before close() remain poppable
    /// (graceful drain).
    void close() CAST_EXCLUDES(mutex_) {
        LockGuard lock(mutex_);
        closed_ = true;
    }

    [[nodiscard]] std::size_t size() const CAST_EXCLUDES(mutex_) {
        LockGuard lock(mutex_);
        return size_;
    }

    [[nodiscard]] bool closed() const CAST_EXCLUDES(mutex_) {
        LockGuard lock(mutex_);
        return closed_;
    }

    [[nodiscard]] std::size_t capacity() const { return capacity_; }

private:
    mutable Mutex mutex_;
    std::vector<std::deque<T>> levels_ CAST_GUARDED_BY(mutex_);
    std::size_t capacity_;
    std::size_t size_ CAST_GUARDED_BY(mutex_) = 0;
    bool closed_ CAST_GUARDED_BY(mutex_) = false;
};

}  // namespace cast
