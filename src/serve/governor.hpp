// Overload governor: graceful degradation for the planning service.
//
// PR 5's PlannerService has exactly one defense under pressure — binary
// backpressure (queue full -> kRejected). The governor replaces that cliff
// with a deterministic degradation ladder, walked per request at dispatch
// time:
//
//   kFull     full anneal, the request's own budgets          (level 0)
//   kTrimmed  shrunken iteration/chain/wall budgets           (level 1)
//   kGreedy   Algorithm 1 alone (plan_cast_greedy /           (level 2)
//             WorkflowSolver::solve_greedy) — orders of
//             magnitude cheaper, still a feasible plan
//   kShed     reject; the queue drain is past saving          (level 3)
//
// The signal is a *drain-time estimate*, not raw queue depth: with B
// requests backed up (queued + in flight), an EWMA of recent solve latency
// of E ms and W workers, a newly dispatched request waits roughly
// B * E / W ms. Pressure is that estimate over the configured latency
// target; ladder thresholds are expressed in pressure units. Raw queue
// occupancy only enters as a backstop so a cold EWMA (first requests after
// start) cannot hide a queue that is already full.
//
// Deadline-aware admission uses the same estimate in reverse: a request
// declaring deadline_ms is dropped at submit time when the predicted wait
// alone already exceeds it — solving it would burn a worker to produce an
// answer nobody can use.
//
// Determinism and bit-identity: the governor defaults to enabled = false,
// and every hook in the service is gated on that flag, so a service with an
// idle governor is bit-identical to PR 5. The ladder itself degrades by
// *iteration* budgets (deterministic) first and wall budgets second, so a
// trimmed response is reproducible given the same pressure reading.
#pragma once

#include <cstdint>

#include "common/annotations.hpp"
#include "common/error.hpp"
#include "common/retry.hpp"
#include "core/castpp.hpp"

namespace cast::serve {

/// Ladder position, cheapest-to-serve last. Values are wire-stable: they
/// appear as `degradation_level` on every response and in bench JSON.
enum class DegradationLevel : int { kFull = 0, kTrimmed = 1, kGreedy = 2, kShed = 3 };

[[nodiscard]] const char* degradation_level_name(DegradationLevel level);

struct GovernorOptions {
    /// Master switch; false leaves the service byte-for-byte PR 5.
    bool enabled = false;

    /// Target per-request drain time (ms). Pressure 1.0 means the backlog
    /// drains in exactly this long.
    double latency_target_ms = 250.0;
    /// EWMA smoothing for recent solve latency (weight of the newest
    /// sample).
    double ewma_alpha = 0.2;

    /// Ladder thresholds in pressure units (estimated drain / target).
    double trim_pressure = 1.0;
    double greedy_pressure = 2.0;
    double shed_pressure = 4.0;

    /// kTrimmed budget shrink factors: iterations/chains (deterministic)
    /// and the wall budget when the request has one.
    double trim_iter_factor = 0.25;
    double trim_wall_factor = 0.25;

    /// Drop requests whose declared deadline_ms is provably unreachable
    /// given the predicted queue wait.
    bool deadline_admission = true;

    /// Solve retry budget (injected/solver exceptions). max_attempts = 1
    /// disables retry entirely.
    Backoff retry{.max_attempts = 3, .base_ms = 1.0, .multiplier = 2.0, .cap_ms = 20.0};
    /// Per-request-template circuit breaker (keyed by dedup key): a
    /// template that keeps exhausting its retry budget is failed fast
    /// instead of re-burning a worker every time it reappears.
    CircuitBreakerOptions breaker{.failure_threshold = 3, .open_ms = 250.0, .open_ops = 0};

    void validate() const {
        CAST_EXPECTS_MSG(latency_target_ms > 0.0, "latency target must be positive");
        CAST_EXPECTS_MSG(ewma_alpha > 0.0 && ewma_alpha <= 1.0,
                         "EWMA weight must be in (0, 1]");
        CAST_EXPECTS_MSG(trim_pressure > 0.0, "trim threshold must be positive");
        CAST_EXPECTS_MSG(greedy_pressure >= trim_pressure,
                         "greedy threshold below trim threshold");
        CAST_EXPECTS_MSG(shed_pressure >= greedy_pressure,
                         "shed threshold below greedy threshold");
        CAST_EXPECTS_MSG(trim_iter_factor > 0.0 && trim_iter_factor <= 1.0,
                         "iteration trim factor must be in (0, 1]");
        CAST_EXPECTS_MSG(trim_wall_factor > 0.0 && trim_wall_factor <= 1.0,
                         "wall trim factor must be in (0, 1]");
        retry.validate();
        breaker.validate();
    }

    /// Shrink solver budgets for a ladder level. kFull/kGreedy are no-ops
    /// here (kGreedy degrades by solver choice, not budget); kTrimmed
    /// scales iterations and chains (deterministic) plus the wall budget
    /// when the request carries one. kShed never reaches a solver.
    void apply(DegradationLevel level, core::CastOptions& opts) const;
};

/// Watches queue depth, in-flight count and the solve-latency EWMA; answers
/// "what ladder level does this request get" and "can this deadline still
/// be met". Shared by every request task — the EWMA is the only mutable state
/// and is mutex-guarded.
class OverloadGovernor {
public:
    OverloadGovernor(GovernorOptions options, std::size_t workers,
                     std::size_t queue_capacity)
        : options_(options), workers_(workers), queue_capacity_(queue_capacity) {
        options_.validate();
        CAST_EXPECTS(workers_ >= 1);
    }

    OverloadGovernor(const OverloadGovernor&) = delete;
    OverloadGovernor& operator=(const OverloadGovernor&) = delete;

    [[nodiscard]] bool enabled() const { return options_.enabled; }
    [[nodiscard]] const GovernorOptions& options() const { return options_; }

    /// Feed one completed solve's latency into the EWMA.
    void record_solve_ms(double ms) CAST_EXCLUDES(mutex_);

    /// Current EWMA of solve latency (0 until the first sample).
    [[nodiscard]] double ewma_solve_ms() const CAST_EXCLUDES(mutex_);

    /// True once at least one solve latency has been recorded. Exported
    /// next to the EWMA so a 0.0 reading right after startup or a pure
    /// shed burst (sheds never feed the EWMA) is distinguishable from a
    /// genuinely sub-millisecond estimate — an unseeded EWMA also means
    /// deadline admission has no evidence and cannot fire.
    [[nodiscard]] bool ewma_seeded() const CAST_EXCLUDES(mutex_);

    /// Overload pressure: estimated drain time of the current backlog over
    /// the latency target, with raw queue occupancy as a cold-start
    /// backstop (a full queue reads at least shed pressure even while the
    /// EWMA is unseeded).
    [[nodiscard]] double pressure(std::size_t queue_depth, std::size_t in_flight) const
        CAST_EXCLUDES(mutex_);

    /// Ladder level for a pressure reading.
    [[nodiscard]] DegradationLevel classify(double pressure) const;

    /// True when a request declaring `deadline_ms` provably cannot meet it:
    /// the predicted queue wait alone (backlog x EWMA / workers) already
    /// exceeds the deadline. Never fires before the EWMA is seeded — with
    /// no latency evidence nothing is provable.
    [[nodiscard]] bool provably_late(double deadline_ms, std::size_t queue_depth,
                                     std::size_t in_flight) const CAST_EXCLUDES(mutex_);

private:
    GovernorOptions options_;
    std::size_t workers_;
    std::size_t queue_capacity_;

    mutable Mutex mutex_;
    double ewma_ms_ CAST_GUARDED_BY(mutex_) = 0.0;
    bool seeded_ CAST_GUARDED_BY(mutex_) = false;
};

}  // namespace cast::serve
