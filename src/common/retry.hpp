// Retry-with-backoff and circuit-breaker primitives for the serving layer.
//
// The simulator already has a seeded RetryPolicy (sim/faults.hpp) for
// *modeled* objStore request errors; this header is the real-time
// counterpart the request tasks use to survive *actual* failures: a solve
// attempt that throws (an injected serve-layer fault, a poisoned request)
// is retried a bounded number of times with capped exponential backoff,
// and a CircuitBreaker remembers consecutive failures so a request
// template that keeps failing is failed fast instead of occupying a worker
// for its full retry budget every time it reappears.
//
// The breaker is the classic three-state machine:
//
//   kClosed   - everything flows; consecutive failures are counted, and
//               reaching `failure_threshold` trips the breaker open.
//   kOpen     - allow() refuses immediately (fail fast). After the cooldown
//               (wall-clock `open_ms`, or `open_ops` refused attempts when
//               configured - the deterministic mode tests use) the next
//               allow() transitions to half-open.
//   kHalfOpen - exactly one trial request is let through; its success
//               closes the breaker, its failure re-opens it for another
//               cooldown.
//
// All operations are internally synchronized; one breaker may be consulted
// from every pool worker at once.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <thread>

#include "common/annotations.hpp"
#include "common/error.hpp"

namespace cast {

/// Capped exponential backoff between solve attempts. Deterministic —
/// jitter belongs to the *modeled* retry policy (sim/faults.hpp), not to
/// the real-time one, where reproducible waits make tests exact.
struct Backoff {
    /// Total attempts allowed (1 = no retry at all).
    int max_attempts = 1;
    double base_ms = 1.0;
    double multiplier = 2.0;
    double cap_ms = 100.0;

    void validate() const {
        CAST_EXPECTS_MSG(max_attempts >= 1, "need at least one attempt");
        CAST_EXPECTS_MSG(base_ms >= 0.0, "backoff base must be non-negative");
        CAST_EXPECTS_MSG(multiplier >= 1.0, "backoff must not shrink");
        CAST_EXPECTS_MSG(cap_ms >= base_ms, "backoff cap below its base");
    }

    /// Wait before retry number `retry` (0-based: the wait between attempt
    /// `retry` and attempt `retry + 1`).
    [[nodiscard]] double wait_ms(int retry) const {
        double w = base_ms;
        for (int i = 0; i < retry; ++i) w = std::min(w * multiplier, cap_ms);
        return std::min(w, cap_ms);
    }
};

/// Block the calling thread for `ms` milliseconds (no-op when <= 0). The
/// single real-sleep primitive for the retry/backoff and fault-injection
/// paths — cast_check rule C004 bans std::this_thread::sleep_for anywhere
/// else in src/, so every wall-clock stall in the runtime is grep-able to
/// this one function and the injector.
inline void sleep_backoff_ms(double ms) {
    if (ms <= 0.0) return;
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

enum class BreakerState { kClosed, kOpen, kHalfOpen };

struct CircuitBreakerOptions {
    /// Consecutive failures that trip the breaker open.
    int failure_threshold = 3;
    /// Wall-clock cooldown before the half-open trial.
    double open_ms = 250.0;
    /// When > 0, the cooldown is counted in refused allow() calls instead
    /// of wall time — the deterministic mode unit tests use (no clock
    /// reads, exactly reproducible transitions).
    int open_ops = 0;

    void validate() const {
        CAST_EXPECTS_MSG(failure_threshold >= 1, "breaker needs a failure threshold");
        CAST_EXPECTS_MSG(open_ms >= 0.0, "breaker cooldown must be non-negative");
        CAST_EXPECTS_MSG(open_ops >= 0, "breaker op cooldown must be non-negative");
    }
};

class CircuitBreaker {
public:
    explicit CircuitBreaker(CircuitBreakerOptions options = {}) : options_(options) {
        options_.validate();
    }

    CircuitBreaker(const CircuitBreaker&) = delete;
    CircuitBreaker& operator=(const CircuitBreaker&) = delete;

    /// True when the protected operation may proceed. In half-open state
    /// only the first caller gets a trial; everyone else keeps failing fast
    /// until record_success()/record_failure() resolves the trial.
    [[nodiscard]] bool allow() CAST_EXCLUDES(mutex_) {
        LockGuard lock(mutex_);
        switch (state_) {
            case BreakerState::kClosed:
                return true;
            case BreakerState::kHalfOpen:
                // One trial is already in flight; fail fast.
                return false;
            case BreakerState::kOpen:
                break;
        }
        if (cooled_down_locked()) {
            state_ = BreakerState::kHalfOpen;
            return true;  // this caller is the half-open trial
        }
        ++refused_since_open_;
        return false;
    }

    void record_success() CAST_EXCLUDES(mutex_) {
        LockGuard lock(mutex_);
        consecutive_failures_ = 0;
        state_ = BreakerState::kClosed;
    }

    void record_failure() CAST_EXCLUDES(mutex_) {
        LockGuard lock(mutex_);
        if (state_ == BreakerState::kHalfOpen) {
            open_locked();  // the trial failed; back to open for another cooldown
            return;
        }
        ++consecutive_failures_;
        if (state_ == BreakerState::kClosed &&
            consecutive_failures_ >= options_.failure_threshold) {
            open_locked();
        }
    }

    [[nodiscard]] BreakerState state() const CAST_EXCLUDES(mutex_) {
        LockGuard lock(mutex_);
        return state_;
    }

    /// Times the breaker transitioned closed/half-open -> open.
    [[nodiscard]] std::uint64_t trips() const CAST_EXCLUDES(mutex_) {
        LockGuard lock(mutex_);
        return trips_;
    }

private:
    void open_locked() CAST_REQUIRES(mutex_) {
        state_ = BreakerState::kOpen;
        opened_at_ = std::chrono::steady_clock::now();
        refused_since_open_ = 0;
        ++trips_;
    }

    [[nodiscard]] bool cooled_down_locked() const CAST_REQUIRES(mutex_) {
        if (options_.open_ops > 0) return refused_since_open_ >= options_.open_ops;
        const auto elapsed = std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - opened_at_);
        return elapsed.count() >= options_.open_ms;
    }

    CircuitBreakerOptions options_;
    mutable Mutex mutex_;
    BreakerState state_ CAST_GUARDED_BY(mutex_) = BreakerState::kClosed;
    int consecutive_failures_ CAST_GUARDED_BY(mutex_) = 0;
    int refused_since_open_ CAST_GUARDED_BY(mutex_) = 0;
    std::uint64_t trips_ CAST_GUARDED_BY(mutex_) = 0;
    std::chrono::steady_clock::time_point opened_at_ CAST_GUARDED_BY(mutex_){};
};

}  // namespace cast
