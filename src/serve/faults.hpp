// Deterministic fault injection for the serving layer.
//
// sim/faults.hpp perturbs the *modeled* cluster; nothing has ever perturbed
// the serve path itself. This harness closes that gap with the same seeded
// zero-profile-bit-identical discipline: a ServeFaultProfile describes what
// can go wrong between a request leaving the queue and its response being
// fulfilled, a ServeFaultInjector samples it deterministically, and an
// all-zero profile is guaranteed to leave every response bit-identical to
// an uninstrumented service — every injection site is gated on
// ServeFaultProfile::enabled().
//
// Four failure classes, mirroring what takes real serving tiers down:
//   * worker stalls       — a pool worker blocks before its solve (GC
//                           pause, page-cache miss storm, noisy neighbor):
//                           a real sleep, so queue depth and latency EWMAs
//                           respond exactly like they would in production;
//   * solver exceptions   — a solve attempt throws instead of planning
//                           (poisoned input, resource exhaustion). A marked
//                           request fails its first `attempts` tries and
//                           then recovers (transient), or fails forever
//                           when the profile says so (poisoned) — which is
//                           what distinguishes the retry wrapper's job from
//                           the circuit breaker's;
//   * swap storms         — bursts of snapshot swaps; driven by the bench/
//                           test harness via storm parameters here, since
//                           swaps originate outside the request tasks;
//   * request floods      — open-loop arrival bursts, likewise a driver-
//                           side parameter (flood_factor scales offered
//                           load relative to service capacity).
//
// Determinism: every per-request decision is drawn from a stream forked
// from (profile.seed, request id), so it is independent of thread
// interleaving and coalescing order — two runs with the same profile and
// request ids inject identical faults, and the fault-injection tests
// assert bit-identical outcomes on the deterministic paths.
#pragma once

#include <atomic>
#include <cstdint>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace cast::serve {

/// Everything that can go wrong in the serve path, as a seed-reproducible
/// description. The default-constructed profile injects nothing.
struct ServeFaultProfile {
    /// Seed of the fault sampling stream; independent of solver seeds so
    /// enabling faults never perturbs a solve that does run.
    std::uint64_t seed = 0;

    /// Per-request worker-stall probability and stall length bounds (ms).
    double stall_prob = 0.0;
    double stall_min_ms = 0.0;
    double stall_max_ms = 0.0;

    /// Per-request probability that solve attempts throw. A marked request
    /// fails its first 1..max_failed_attempts tries (sampled uniformly)
    /// and then succeeds — unless max_failed_attempts == 0, which marks it
    /// poisoned: every attempt fails, forever.
    double exception_prob = 0.0;
    int max_failed_attempts = 2;

    /// Driver-side storm/flood knobs (the injector itself never swaps or
    /// submits; bench/serve_degradation and the tests read these).
    int swap_storm_swaps = 0;        ///< snapshot swaps fired per storm burst
    double swap_storm_interval_ms = 0.0;  ///< spacing between storm swaps
    double flood_factor = 1.0;       ///< offered load vs capacity (open loop)

    /// True iff the profile can perturb the serve path at all; every
    /// injection site is gated on this, which is what guarantees the
    /// all-zero profile reproduces the uninstrumented service bit-for-bit.
    [[nodiscard]] bool enabled() const {
        return stall_prob > 0.0 || exception_prob > 0.0;
    }

    void validate() const {
        CAST_EXPECTS_MSG(stall_prob >= 0.0 && stall_prob <= 1.0,
                         "stall probability must be in [0, 1]");
        CAST_EXPECTS_MSG(stall_min_ms >= 0.0, "stall lower bound must be non-negative");
        CAST_EXPECTS_MSG(stall_max_ms >= stall_min_ms,
                         "stall upper bound below its lower bound");
        CAST_EXPECTS_MSG(exception_prob >= 0.0 && exception_prob <= 1.0,
                         "exception probability must be in [0, 1]");
        CAST_EXPECTS_MSG(max_failed_attempts >= 0,
                         "failed-attempt bound must be non-negative");
        CAST_EXPECTS_MSG(swap_storm_swaps >= 0, "storm swap count must be non-negative");
        CAST_EXPECTS_MSG(swap_storm_interval_ms >= 0.0,
                         "storm interval must be non-negative");
        CAST_EXPECTS_MSG(flood_factor > 0.0, "flood factor must be positive");
    }

    [[nodiscard]] static ServeFaultProfile none() { return {}; }

    /// One-knob profile for sweeps: intensity 0 is fault-free, 1 is a
    /// severe incident (a third of requests stall tens of ms, a quarter
    /// throw transiently, swap storms fire). Deterministic in `seed`.
    [[nodiscard]] static ServeFaultProfile scaled(double intensity, std::uint64_t seed);
};

/// What the injector did, aggregated across requests. All counters are
/// atomic — pool workers record concurrently.
struct ServeFaultStats {
    std::uint64_t stalls = 0;
    double stall_ms = 0.0;               ///< total injected stall time
    std::uint64_t injected_exceptions = 0;

    [[nodiscard]] bool any() const {
        return stalls > 0 || injected_exceptions > 0 || stall_ms > 0.0;
    }
};

/// Sampled plan for one solve attempt, consumed by the request task solving it.
struct AttemptFault {
    double stall_ms = 0.0;     ///< sleep this long before the attempt
    bool throw_exception = false;  ///< the attempt fails with SimulationError
};

/// Samples a ServeFaultProfile. One injector serves the whole service; the
/// per-request stream forking keeps sampling deterministic under any
/// thread interleaving.
class ServeFaultInjector {
public:
    explicit ServeFaultInjector(ServeFaultProfile profile) : profile_(profile) {
        profile_.validate();
    }

    ServeFaultInjector(const ServeFaultInjector&) = delete;
    ServeFaultInjector& operator=(const ServeFaultInjector&) = delete;

    [[nodiscard]] const ServeFaultProfile& profile() const { return profile_; }
    [[nodiscard]] bool enabled() const { return profile_.enabled(); }

    /// Fault plan for attempt `attempt` (0-based) of request `request_id`.
    /// Pure function of (profile, request_id, attempt) — never of call
    /// order — and records what it injected into stats().
    [[nodiscard]] AttemptFault on_attempt(std::uint64_t request_id, int attempt);

    [[nodiscard]] ServeFaultStats stats() const {
        ServeFaultStats s;
        s.stalls = stalls_.load(std::memory_order_relaxed);
        s.stall_ms = static_cast<double>(stall_us_.load(std::memory_order_relaxed)) / 1e3;
        s.injected_exceptions = exceptions_.load(std::memory_order_relaxed);
        return s;
    }

private:
    ServeFaultProfile profile_;
    std::atomic<std::uint64_t> stalls_{0};
    std::atomic<std::uint64_t> stall_us_{0};  ///< microseconds, summed exactly
    std::atomic<std::uint64_t> exceptions_{0};
};

}  // namespace cast::serve
