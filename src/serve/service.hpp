// Multi-tenant planning service: the serving layer over the CAST solvers.
//
// The one-shot pipeline (cast_plan) pays the full cold cost per request:
// load models, build a fresh EvalCache, solve, exit. PlannerService keeps
// a long-lived process warm instead:
//
//   * requests are admitted through a bounded priority queue (reject on
//     overflow = explicit backpressure, never unbounded memory),
//   * each admitted request becomes one task on the service's `workers`-
//     thread ThreadPool; the task pops the highest-priority queued request
//     when it runs, so a request starts on the next free worker,
//   * solves run their tempering replicas on the same pool, so a worker
//     with no request of its own helps a busy one's replicas,
//   * a request identical to one queued or solving on the same snapshot
//     epoch attaches to it at admission (popular-template replay solves
//     once, everyone gets the bits),
//   * every solve runs against the current immutable Snapshot and its
//     snapshot-scoped EvalCache, so REG runtimes computed for request N
//     are free for request N+1 (bit-identical by EvalCache's contract),
//   * per-request wall budgets and a service CancelToken make every solve
//     boundable: exhaustion returns the best-so-far feasible plan flagged
//     budget_exhausted, never an error.
//
// Determinism: the service calls the exact same plan_cast /
// plan_cast_plus_plus / WorkflowSolver::solve facades a direct caller
// would, handing them its pool. Replica exchange makes the same draws at
// any worker count, solvers are deterministic and the cache is
// bit-transparent, so a response is bit-identical to the serial direct
// solve of the same request, regardless of worker count, queue order,
// cache warmth, or a snapshot swap racing other requests.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/annotations.hpp"
#include "common/cancel.hpp"
#include "common/mpmc_queue.hpp"
#include "common/retry.hpp"
#include "common/thread_pool.hpp"
#include "core/castpp.hpp"
#include "core/incremental.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/faults.hpp"
#include "serve/governor.hpp"
#include "serve/snapshot.hpp"
#include "workload/workflow.hpp"

namespace cast::serve {

/// Queue levels, highest first (level 0 drains before level 1, §BoundedPriorityQueue).
enum class Priority : std::size_t { kHigh = 0, kNormal = 1, kLow = 2 };

/// Wire-stable lowercase name ("high" / "normal" / "low"); appears in
/// metric names (serve.latency_ms.<priority>) and trace span labels.
[[nodiscard]] const char* priority_name(Priority priority);

enum class RequestKind { kBatch, kWorkflow, kAmend };

struct PlanRequest {
    std::uint64_t id = 0;
    RequestKind kind = RequestKind::kBatch;
    /// Exactly one of the two, matching `kind`.
    std::optional<workload::Workload> workload;
    std::optional<workload::Workflow> workflow;
    /// Batch requests: plain CAST vs CAST++ Enhancement 1.
    bool reuse_aware = false;
    /// Overrides the service's solver seed when set (golden tests pin it).
    std::optional<std::uint64_t> seed;
    /// Per-request wall budget (ms); 0 inherits the service default, and a
    /// default of 0 means unbudgeted.
    double max_wall_ms = 0.0;
    /// Caller's end-to-end deadline (ms from submit); 0 = none. With the
    /// governor's deadline admission on, a request whose predicted queue
    /// wait already exceeds this is shed instead of solved-then-ignored.
    double deadline_ms = 0.0;
    Priority priority = Priority::kNormal;
    /// Plan-store handle. On a batch request: when non-empty, the solved
    /// (workload, plan) is stored under this handle after an ok solve, so
    /// later amend requests can build on it. On an amend request: names the
    /// stored plan to amend (required). Ignored for workflows.
    std::string plan_handle;
    /// Amend requests only: the job-set delta (arrivals / departures /
    /// re-estimates) to apply to the stored plan.
    std::optional<workload::JobDelta> delta;
};

enum class ResponseStatus {
    kOk,        ///< solved (possibly budget_exhausted — still a plan)
    kRejected,  ///< backpressure: queue full or service shutting down
    kError,     ///< the solve itself threw (e.g. lint rejection)
};

struct PlanResponse {
    std::uint64_t id = 0;
    /// Echo of the request's kind — set on every path, including sheds and
    /// errors where neither result below is populated.
    RequestKind kind = RequestKind::kBatch;
    ResponseStatus status = ResponseStatus::kError;
    std::string error;
    /// Batch result (kind == kBatch); carries plan, evaluation, iteration
    /// counters, cache stats and the budget flag. Amend results (kind ==
    /// kAmend) reuse this carrier: plan/evaluation are the amended plan
    /// over the post-delta job set.
    std::optional<core::CastResult> batch;
    /// Workflow result (kind == kWorkflow).
    std::optional<core::WorkflowSolveResult> workflow;
    /// Epoch of the snapshot this request was solved against.
    std::uint64_t snapshot_epoch = 0;
    /// True when this request attached at admission to an identical one and
    /// got its bits (exactly what its own solve would compute); queue_ms +
    /// solve_ms is still its own submit-to-fulfill time.
    bool coalesced = false;
    /// Ladder level this response was served at (kFull when the governor is
    /// idle; kShed on a governor/deadline rejection).
    DegradationLevel degradation_level = DegradationLevel::kFull;
    /// Solve attempts consumed (> 1 means the retry wrapper recovered from
    /// at least one exception).
    int attempts = 1;
    double queue_ms = 0.0;
    double solve_ms = 0.0;
    /// Amend responses: jobs the restricted move generator was allowed to
    /// touch (0 on every other kind, and when the delta needed no search).
    std::size_t neighborhood_size = 0;
    /// Amend responses: the escalation rule replaced the restricted solve
    /// with a full unrestricted re-solve.
    bool escalated_cold = false;

    [[nodiscard]] bool ok() const { return status == ResponseStatus::kOk; }
    [[nodiscard]] bool budget_exhausted() const {
        if (batch) return batch->budget_exhausted;
        if (workflow) return workflow->budget_exhausted;
        return false;
    }
};

/// Observability switches. Both default off: an uninstrumented service
/// spends zero cycles on metrics or tracing (every hook is behind a null
/// check / enabled() test), and bit-identity to the pre-obs service is
/// trivial. Turning them on adds relaxed atomic increments and one short
/// ring-mutex critical section per request — the golden tests prove the
/// solve output stays bit-identical either way.
struct ObservabilityOptions {
    /// Register the serve.* instruments and count/observe on every request.
    bool metrics = false;
    /// Completed trace spans to ring-buffer; 0 disables tracing entirely.
    std::size_t trace_capacity = 0;
};

struct ServiceOptions {
    /// Pool threads: at most this many solves at once, and the replicas
    /// one solve may run side by side.
    std::size_t workers = ThreadPool::default_workers();
    /// Admission-queue bound; try_push beyond it rejects (backpressure).
    std::size_t queue_capacity = 256;
    /// Default per-request wall budget (ms); 0 = unbudgeted.
    double default_max_wall_ms = 0.0;
    /// Solver configuration applied to every request (seed and budget are
    /// overridden per request).
    core::CastOptions solver;
    /// WorkflowSolver deadline-safety margin (Eq. 9 headroom).
    double workflow_deadline_safety = 1.0;
    /// Incremental re-planning policy applied to amend requests (the
    /// governor's trimmed/greedy rungs shrink it further per request).
    core::AmendPolicy amend;
    /// Attach a submitted request to an identical queued or running one and
    /// share its response (popular-template replay dedup). Safe because
    /// solves are deterministic functions of (request, snapshot, options).
    bool coalesce_identical = true;
    /// Overload governor; disabled by default, which leaves every response
    /// bit-identical to an ungoverned service.
    GovernorOptions governor;
    /// Serve-layer fault injection; the zero profile (default) injects
    /// nothing and is bit-identical to an uninstrumented service.
    ServeFaultProfile faults;
    /// Metrics + tracing; defaults off (zero overhead, bit-identical).
    ObservabilityOptions obs;
};

/// Monotonic service counters plus the live snapshot's cache statistics.
struct ServiceStats {
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t rejected = 0;
    std::uint64_t errors = 0;
    std::uint64_t batches = 0;         ///< requests popped (attached ones never are)
    std::uint64_t coalesced = 0;       ///< responses shared from a duplicate
    std::uint64_t snapshot_swaps = 0;  ///< swap_snapshot calls
    // Governor ladder counters: how many responses were served at each
    // level (coalesced copies included), and how many were shed unsolved.
    std::uint64_t served_full = 0;
    std::uint64_t served_trimmed = 0;
    std::uint64_t served_greedy = 0;
    std::uint64_t governor_shed = 0;   ///< load-shed when popped (ladder level 3)
    std::uint64_t deadline_shed = 0;   ///< provably-late drops (admission or pop)
    // Incremental re-planning counters (amend requests only).
    std::uint64_t amend_requests = 0;     ///< amend solves that ran (ok or error)
    std::uint64_t amend_escalations = 0;  ///< amends escalated to a full cold re-solve
    std::uint64_t amend_greedy = 0;       ///< amends served on the greedy-only rung
    // Fault-survival counters.
    std::uint64_t solve_retries = 0;      ///< extra attempts after an exception
    std::uint64_t breaker_fastfail = 0;   ///< requests refused by an open breaker
    std::uint64_t breaker_trips = 0;      ///< breaker open transitions (all breakers)
    double ewma_solve_ms = 0.0;        ///< governor's latency estimate
    /// False until the EWMA has absorbed its first solve sample: a 0.0
    /// estimate right after startup or a pure shed burst is "no evidence",
    /// not "instant solves" — readers must check this before trusting
    /// ewma_solve_ms (and deadline admission cannot fire while false).
    bool ewma_seeded = false;
    core::EvalCacheStats cache;        ///< current snapshot's memo table
    ServeFaultStats faults;            ///< what the injector actually did
};

/// A consistent copy of one stored plan (see PlannerService::stored_plan).
struct StoredPlanView {
    workload::Workload workload;
    core::TieringPlan plan;
    bool reuse_aware = false;
};

class PlannerService {
public:
    PlannerService(SnapshotPtr snapshot, ServiceOptions options = {});

    PlannerService(const PlannerService&) = delete;
    PlannerService& operator=(const PlannerService&) = delete;

    /// Closes admission, waits until every admitted request's task has
    /// served it (fast when cancel_inflight() was called), and joins the
    /// pool.
    ~PlannerService();

    /// Enqueue a request. Always returns a future: on admission it resolves
    /// when the solve finishes; on overflow/shutdown it is already resolved
    /// with kRejected. Never blocks on a full queue — backpressure is the
    /// caller's signal to slow down.
    [[nodiscard]] std::future<PlanResponse> submit(PlanRequest request);

    /// Install a new snapshot. In-flight requests keep the snapshot they
    /// captured when popped (refcount); later requests see the new one.
    /// The outgoing snapshot's cache is cleared, bumping its generation so
    /// any thread-local L1 entries die with it.
    void swap_snapshot(SnapshotPtr next) CAST_EXCLUDES(snapshot_mutex_);

    [[nodiscard]] SnapshotPtr snapshot() const CAST_EXCLUDES(snapshot_mutex_);

    /// Cooperative cancellation of everything in flight *and* everything
    /// still queued: each solve stops at its next segment boundary and
    /// returns its best-so-far feasible plan flagged budget_exhausted.
    /// The token latches — this is a fast-drain shutdown aid, not a
    /// per-request cancel.
    void cancel_inflight();

    [[nodiscard]] ServiceStats stats() const;
    [[nodiscard]] const ServiceOptions& options() const { return options_; }

    /// Consistent copy of the plan currently stored under `handle` (written
    /// by a batch request carrying plan_handle, advanced by every ok amend);
    /// nullopt when no such handle exists.
    [[nodiscard]] std::optional<StoredPlanView> stored_plan(const std::string& handle) const
        CAST_EXCLUDES(store_mutex_);

    /// The injector's view of what it has done so far.
    [[nodiscard]] ServeFaultStats fault_stats() const { return injector_.stats(); }

    /// The service's metrics registry. Always present; it only carries the
    /// serve.* instruments when options().obs.metrics was set (exports are
    /// empty otherwise). Pull gauges registered here read live service
    /// state, so an export taken mid-burst shows the burst.
    [[nodiscard]] const obs::MetricsRegistry& metrics() const { return metrics_; }
    [[nodiscard]] bool metrics_enabled() const { return inst_ != nullptr; }

    /// Buffered trace spans, oldest first (empty unless
    /// options().obs.trace_capacity > 0).
    [[nodiscard]] std::vector<obs::TraceSpan> trace_spans() const {
        return trace_.snapshot();
    }
    [[nodiscard]] const obs::TraceRing& trace_ring() const { return trace_; }

    /// Solve `request` directly against `snapshot` with no queue and no
    /// shared cache side effects beyond the snapshot's own. Without a
    /// `pool` the replicas run one after another — the serial baseline
    /// path, also used by the golden tests as the ground truth the service
    /// must match bit-for-bit; the service passes its own pool, which
    /// changes no bit. `level` selects the degradation ladder rung to
    /// solve at (kFull = the PR 5 behavior; kShed never reaches a solver
    /// and is rejected here). Amend requests are rejected too: they need
    /// the service's plan store.
    [[nodiscard]] static PlanResponse solve_direct(
        const Snapshot& snapshot, const PlanRequest& request,
        const ServiceOptions& options, const CancelToken* cancel = nullptr,
        DegradationLevel level = DegradationLevel::kFull, ThreadPool* pool = nullptr);

private:
    struct Pending;
    /// Coalescing table: (dedup key, snapshot epoch at submit) of each
    /// request queued or solving -> the identical requests attached to it.
    /// The epoch keeps a request submitted after a swap off older groups;
    /// a std::map, so an entry's iterator stays valid until it is extracted.
    using InflightKey = std::pair<std::string, std::uint64_t>;
    using Inflight = std::map<InflightKey, std::vector<std::unique_ptr<Pending>>>;
    struct Pending {
        PlanRequest request;
        std::promise<PlanResponse> promise;
        std::chrono::steady_clock::time_point enqueued;
        /// dedup_key(request) when coalescing or governed; empty otherwise.
        std::string key;
        /// The inflight_ entry this request opened, if coalescing.
        std::optional<Inflight::iterator> group;
    };

    /// The pool task submitted for each admitted request: pop the
    /// highest-priority queued request (not necessarily the one that
    /// submitted this task) and serve it. noexcept: a fault escaping
    /// serve_one is a bug that must end the process, not vanish into an
    /// unread future.
    void serve_next() noexcept;
    /// Capture the snapshot, ask the governor, shed or solve, and fulfill
    /// this request and every request attached to it.
    void serve_one(std::unique_ptr<Pending> pending);
    /// Compute the response at the given ladder level, surviving injected
    /// and real solver exceptions via the retry/breaker wrapper (never
    /// throws; terminal faults become kError). Timing fields are the
    /// caller's to fill.
    /// `key` is the request's dedup key, the breaker's template identity.
    [[nodiscard]] PlanResponse solve_request(const PlanRequest& request,
                                             const std::string& key,
                                             const Snapshot& snap,
                                             DegradationLevel level);
    /// Amend path: look up the stored plan, run the IncrementalSolver with
    /// the governor's rung mapped onto a smaller neighborhood budget
    /// (kTrimmed) or the greedy-only policy (kGreedy), and advance the
    /// store on success. Throws (ValidationError on unknown handle /
    /// missing delta); solve_request's retry wrapper converts to kError.
    [[nodiscard]] PlanResponse amend_direct(const PlanRequest& request, const Snapshot& snap,
                                            DegradationLevel level)
        CAST_EXCLUDES(store_mutex_);
    /// Store (or overwrite) a plan under `handle` (batch requests carrying
    /// plan_handle call this after an ok solve).
    void store_plan(const std::string& handle, workload::Workload workload,
                    core::TieringPlan plan, bool reuse_aware) CAST_EXCLUDES(store_mutex_);
    /// Per-template breaker lookup (governor path only); the map is bounded
    /// and evicts wholesale when it outgrows kMaxBreakers. Shared ownership
    /// because an eviction may race a worker mid-solve with its breaker.
    [[nodiscard]] std::shared_ptr<CircuitBreaker> breaker_for(const std::string& key)
        CAST_EXCLUDES(breaker_mutex_);
    /// Fulfill one pending with its response, maintaining the
    /// completed/rejected/errors counters (a governor shed after the pop
    /// counts as rejected, not completed).
    void fulfill(Pending& pending, PlanResponse&& resp);
    /// Coalescing identity: kind, solver-relevant options, and the full
    /// workload/workflow content (spec serialization + job names).
    [[nodiscard]] static std::string dedup_key(const PlanRequest& request);

    /// Pre-resolved instrument references (counters mirroring the atomics
    /// below one-for-one, per-priority latency histograms). Null unless
    /// options_.obs.metrics — every hot-path hook is `if (inst_)`.
    struct Instruments;
    /// Register the serve.* pull gauges (queue depth, in-flight, EWMA,
    /// cache stats, breaker states) against live service state. Called
    /// once from the constructor, before any request is admitted.
    void register_gauges();
    /// Breaker aggregates for the pull gauges.
    [[nodiscard]] double open_breaker_count() const CAST_EXCLUDES(breaker_mutex_);
    [[nodiscard]] double total_breaker_trips() const CAST_EXCLUDES(breaker_mutex_);
    /// Push a span for one fulfilled response (no-op when tracing is off).
    /// `enqueued`/`dequeued` stamp the admit/dequeue events; `solved` is
    /// unset for sheds, which never reach a solver.
    void trace_response(Priority priority, const PlanResponse& resp,
                        std::chrono::steady_clock::time_point enqueued,
                        std::optional<std::chrono::steady_clock::time_point> dequeued,
                        std::optional<std::chrono::steady_clock::time_point> solved,
                        const std::string& note);

    ServiceOptions options_;
    mutable Mutex snapshot_mutex_;
    SnapshotPtr snapshot_ CAST_GUARDED_BY(snapshot_mutex_);

    /// Observability state. The registry/ring own their synchronization;
    /// inst_ is written once in the constructor and read-only afterwards.
    obs::MetricsRegistry metrics_;
    obs::TraceRing trace_;
    std::unique_ptr<Instruments> inst_;

    BoundedPriorityQueue<std::unique_ptr<Pending>> queue_;
    ThreadPool pool_;
    CancelToken cancel_;
    OverloadGovernor governor_;
    ServeFaultInjector injector_;

    std::atomic<std::uint64_t> submitted_{0};
    std::atomic<std::uint64_t> completed_{0};
    std::atomic<std::uint64_t> rejected_{0};
    std::atomic<std::uint64_t> errors_{0};
    std::atomic<std::uint64_t> batches_{0};
    std::atomic<std::uint64_t> coalesced_{0};
    std::atomic<std::uint64_t> swaps_{0};
    std::atomic<std::uint64_t> served_full_{0};
    std::atomic<std::uint64_t> served_trimmed_{0};
    std::atomic<std::uint64_t> served_greedy_{0};
    std::atomic<std::uint64_t> governor_shed_{0};
    std::atomic<std::uint64_t> deadline_shed_{0};
    std::atomic<std::uint64_t> amend_requests_{0};
    std::atomic<std::uint64_t> amend_escalations_{0};
    std::atomic<std::uint64_t> amend_greedy_{0};
    std::atomic<std::uint64_t> solve_retries_{0};
    std::atomic<std::uint64_t> breaker_fastfail_{0};
    /// Requests popped or attached whose response is not yet fulfilled;
    /// feeds the governor's backlog estimate together with queue depth.
    std::atomic<std::size_t> in_flight_{0};

    /// A leaf: never held while solving, fulfilling or taking the queue or
    /// snapshot mutex.
    mutable Mutex inflight_mutex_;
    Inflight inflight_ CAST_GUARDED_BY(inflight_mutex_);

    /// Plan store for amend requests. Two-level locking: store_mutex_
    /// guards the handle map only; each entry carries its own mutex held
    /// for the whole amend, so amendments to one handle serialize (each
    /// builds on the previous plan) while different handles amend in
    /// parallel. Entries are shared_ptr so a map rehash never moves a
    /// locked entry.
    struct StoredPlan {
        mutable Mutex mu;
        workload::Workload workload CAST_GUARDED_BY(mu);
        core::TieringPlan plan CAST_GUARDED_BY(mu);
        bool reuse_aware CAST_GUARDED_BY(mu) = false;
    };
    mutable Mutex store_mutex_;
    std::unordered_map<std::string, std::shared_ptr<StoredPlan>> plans_
        CAST_GUARDED_BY(store_mutex_);

    static constexpr std::size_t kMaxBreakers = 256;
    mutable Mutex breaker_mutex_;
    std::unordered_map<std::string, std::shared_ptr<CircuitBreaker>> breakers_
        CAST_GUARDED_BY(breaker_mutex_);
    /// Trips carried over from evicted breakers so stats stay monotonic.
    std::uint64_t evicted_breaker_trips_ CAST_GUARDED_BY(breaker_mutex_) = 0;

    /// Request tasks submitted and not yet finished. The destructor waits
    /// for zero before any member dies: a task touches most of them, and
    /// the pool refuses work once it is stopping. A leaf.
    Mutex tasks_mutex_;
    CondVar tasks_idle_;
    std::size_t open_tasks_ CAST_GUARDED_BY(tasks_mutex_) = 0;
};

}  // namespace cast::serve
