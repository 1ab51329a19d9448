#include "serve/service.hpp"

#include <algorithm>
#include <exception>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "workload/spec_parser.hpp"

namespace cast::serve {

namespace {

double ms_between(std::chrono::steady_clock::time_point from,
                  std::chrono::steady_clock::time_point to) {
    return std::chrono::duration<double, std::milli>(to - from).count();
}

/// Service-wide solver options specialized to one request: seed and wall
/// budget come from the request (falling back to service defaults), the
/// cancel token from the service. Everything else is shared config.
core::CastOptions request_options(const ServiceOptions& service, const PlanRequest& request,
                                  const CancelToken* cancel) {
    core::CastOptions opts = service.solver;
    if (request.seed) opts.annealing.seed = *request.seed;
    opts.annealing.max_wall_ms =
        request.max_wall_ms > 0.0 ? request.max_wall_ms : service.default_max_wall_ms;
    opts.annealing.cancel = cancel;
    return opts;
}

PlanResponse shed_response(const PlanRequest& request, std::uint64_t epoch,
                           std::string why) {
    PlanResponse resp;
    resp.id = request.id;
    resp.kind = request.kind;
    resp.status = ResponseStatus::kRejected;
    resp.error = std::move(why);
    resp.snapshot_epoch = epoch;
    resp.degradation_level = DegradationLevel::kShed;
    return resp;
}

}  // namespace

const char* priority_name(Priority priority) {
    switch (priority) {
        case Priority::kHigh: return "high";
        case Priority::kNormal: return "normal";
        case Priority::kLow: return "low";
    }
    return "unknown";
}

/// One instrument per ServiceStats atomic, resolved once at construction so
/// the hot path touches pre-cached references only. The counters mirror the
/// atomics one-for-one (incremented at the same sites), which is what lets
/// the obs integration test assert exact agreement between the two views.
struct PlannerService::Instruments {
    obs::Counter& submitted;
    obs::Counter& completed;
    obs::Counter& rejected;
    obs::Counter& errors;
    obs::Counter& coalesced;
    obs::Counter& batches;
    obs::Counter& served_full;
    obs::Counter& served_trimmed;
    obs::Counter& served_greedy;
    obs::Counter& shed_overload;
    obs::Counter& shed_deadline;
    obs::Counter& retries;
    obs::Counter& breaker_fastfail;
    obs::Counter& swaps;
    /// End-to-end latency (queue wait + solve) by request priority.
    obs::Histogram& latency_high;
    obs::Histogram& latency_normal;
    obs::Histogram& latency_low;
    /// Representative solve time only (coalesced copies share the solve).
    obs::Histogram& solve_ms;
    /// Solves answered by the replica-exchange path (replicas > 0).
    obs::Counter& tempering_solves;
    /// Incremental re-planning instruments, incremented at the same sites
    /// as the amend_* ServiceStats atomics.
    obs::Counter& amends;
    obs::Counter& amend_escalations;
    obs::Counter& amend_greedy;
    /// Restricted-neighborhood size per amend (the knob the ladder shrinks).
    obs::Histogram& amend_neighborhood;
    /// Registry handle for the per-rung/per-replica tempering instruments:
    /// their cardinality is the request's replica count, unknown at
    /// construction, so record_tempering() resolves them by name once per
    /// solve (one mutex+map hit per solve, nothing in the iteration loop).
    obs::MetricsRegistry& registry;

    explicit Instruments(obs::MetricsRegistry& reg)
        : submitted(reg.counter("serve.requests.submitted")),
          completed(reg.counter("serve.requests.completed")),
          rejected(reg.counter("serve.requests.rejected")),
          errors(reg.counter("serve.requests.errors")),
          coalesced(reg.counter("serve.requests.coalesced")),
          batches(reg.counter("serve.dispatch.batches")),
          served_full(reg.counter("serve.governor.served_full")),
          served_trimmed(reg.counter("serve.governor.served_trimmed")),
          served_greedy(reg.counter("serve.governor.served_greedy")),
          shed_overload(reg.counter("serve.governor.shed_overload")),
          shed_deadline(reg.counter("serve.governor.shed_deadline")),
          retries(reg.counter("serve.retry.attempts")),
          breaker_fastfail(reg.counter("serve.breaker.fastfail")),
          swaps(reg.counter("serve.snapshot.swaps")),
          latency_high(reg.histogram("serve.latency_ms.high")),
          latency_normal(reg.histogram("serve.latency_ms.normal")),
          latency_low(reg.histogram("serve.latency_ms.low")),
          solve_ms(reg.histogram("serve.solve_ms")),
          tempering_solves(reg.counter("solver.tempering.solves")),
          amends(reg.counter("solver.incremental.amends")),
          amend_escalations(reg.counter("solver.incremental.escalations")),
          amend_greedy(reg.counter("solver.incremental.greedy_amends")),
          amend_neighborhood(reg.histogram("solver.incremental.neighborhood_jobs")),
          registry(reg) {}

    /// Fold one amend's statistics into the registry. The hit-rate gauge
    /// reflects the shared cache as of the most recent amend — the warm-
    /// cache-across-amendments signal the incremental engine lives on.
    void record_amend(const core::AmendResult& result) {
        amends.add();
        if (result.escalated_cold) amend_escalations.add();
        if (result.greedy_only) amend_greedy.add();
        amend_neighborhood.observe(static_cast<double>(result.neighborhood.size()));
        registry.gauge("solver.incremental.amend_cache_hit_rate")
            .set(result.cache_stats.hit_rate());
    }

    /// Fold one solve's replica-exchange statistics into the registry:
    /// exchange attempt/accept totals per ladder rung (counters, summed
    /// across solves) and per-replica iteration throughput for the most
    /// recent solve (gauges). No-op for greedy-only results.
    void record_tempering(const core::TemperingStats& stats, double ms) {
        if (!stats.enabled()) return;
        tempering_solves.add();
        for (std::size_t k = 0; k < stats.exchange_attempts.size(); ++k) {
            const std::string rung = ".rung" + std::to_string(k);
            registry.counter("solver.tempering.exchanges_attempted" + rung)
                .add(stats.exchange_attempts[k]);
            registry.counter("solver.tempering.exchanges_accepted" + rung)
                .add(stats.exchange_accepts[k]);
        }
        const double secs = ms / 1000.0;
        if (secs <= 0.0) return;
        for (std::size_t r = 0; r < stats.replica_iterations.size(); ++r) {
            registry.gauge("solver.tempering.replica_iters_per_sec.r" + std::to_string(r))
                .set(static_cast<double>(stats.replica_iterations[r]) / secs);
        }
    }

    [[nodiscard]] obs::Histogram& latency_for(Priority priority) {
        switch (priority) {
            case Priority::kHigh: return latency_high;
            case Priority::kLow: return latency_low;
            case Priority::kNormal: break;
        }
        return latency_normal;
    }
};

PlannerService::PlannerService(SnapshotPtr snapshot, ServiceOptions options)
    : options_(std::move(options)),
      snapshot_(std::move(snapshot)),
      trace_(options_.obs.trace_capacity),
      queue_(options_.queue_capacity, 3),
      pool_(options_.workers),
      governor_(options_.governor, std::max<std::size_t>(std::size_t{1}, options_.workers),
                options_.queue_capacity),
      injector_(options_.faults) {
    CAST_EXPECTS_MSG(snapshot_ != nullptr, "PlannerService needs a snapshot");
    CAST_EXPECTS(options_.default_max_wall_ms >= 0.0);
    // Instruments and gauges must exist before a request task can run;
    // inst_ is immutable from here on.
    if (options_.obs.metrics) {
        inst_ = std::make_unique<Instruments>(metrics_);
        register_gauges();
    }
}

PlannerService::~PlannerService() {
    // Close admission; the tasks already submitted serve whatever is
    // queued (fast when cancel_inflight() latched the token). Waiting for
    // the last of them keeps every member alive for them.
    queue_.close();
    UniqueLock lock(tasks_mutex_);
    while (open_tasks_ > 0) tasks_idle_.wait(lock);
}

void PlannerService::register_gauges() {
    // Pull gauges read live service state at export time. The registry
    // evaluates them outside its own mutex, so taking snapshot_mutex_ /
    // breaker_mutex_ (or the governor's) inside a callback adds no
    // lock-order edge. Callbacks capture `this`; the registry is a member,
    // so exports cannot outlive the service.
    metrics_.gauge_fn("serve.queue.depth",
                      [this] { return static_cast<double>(queue_.size()); });
    metrics_.gauge_fn("serve.inflight", [this] {
        return static_cast<double>(in_flight_.load(std::memory_order_relaxed));
    });
    metrics_.gauge_fn("serve.governor.ewma_solve_ms",
                      [this] { return governor_.ewma_solve_ms(); });
    metrics_.gauge_fn("serve.governor.ewma_seeded",
                      [this] { return governor_.ewma_seeded() ? 1.0 : 0.0; });
    metrics_.gauge_fn("serve.snapshot.epoch", [this] {
        return static_cast<double>(snapshot()->epoch());
    });
    metrics_.gauge_fn("serve.cache.hit_rate",
                      [this] { return snapshot()->cache().stats().hit_rate(); });
    metrics_.gauge_fn("serve.cache.inserts", [this] {
        return static_cast<double>(snapshot()->cache().stats().inserts);
    });
    metrics_.gauge_fn("serve.breakers.open", [this] { return open_breaker_count(); });
    metrics_.gauge_fn("serve.breakers.trips", [this] { return total_breaker_trips(); });
}

double PlannerService::open_breaker_count() const {
    // Holding breaker_mutex_ while reading each breaker's own lock follows
    // the established order (stats() reads trips() the same way).
    double open = 0.0;
    LockGuard lock(breaker_mutex_);
    for (const auto& [key, breaker] : breakers_) {
        if (breaker->state() == BreakerState::kOpen) open += 1.0;
    }
    return open;
}

double PlannerService::total_breaker_trips() const {
    LockGuard lock(breaker_mutex_);
    std::uint64_t trips = evicted_breaker_trips_;
    for (const auto& [key, breaker] : breakers_) trips += breaker->trips();
    return static_cast<double>(trips);
}

void PlannerService::trace_response(
    Priority priority, const PlanResponse& resp, std::chrono::steady_clock::time_point enqueued,
    std::optional<std::chrono::steady_clock::time_point> dequeued,
    std::optional<std::chrono::steady_clock::time_point> solved, const std::string& note) {
    if (!trace_.enabled()) return;
    obs::TraceSpan span;
    span.id = resp.id;
    span.label = priority_name(priority);
    switch (resp.status) {
        case ResponseStatus::kOk: span.outcome = "ok"; break;
        case ResponseStatus::kRejected: span.outcome = "rejected"; break;
        case ResponseStatus::kError: span.outcome = "error"; break;
    }
    span.events.push_back({"admit", trace_.at_ms(enqueued), ""});
    if (dequeued) {
        span.events.push_back({"dequeue", trace_.at_ms(*dequeued), ""});
        // The ladder decision is made at dequeue time; kFull on an
        // ungoverned service documents "no governor in the way".
        span.events.push_back({"governor", trace_.at_ms(*dequeued),
                               degradation_level_name(resp.degradation_level)});
    }
    if (solved) {
        span.events.push_back(
            {"solve", trace_.at_ms(*solved), "attempts=" + std::to_string(resp.attempts)});
    }
    span.events.push_back({"respond", trace_.now_ms(), note});
    trace_.push(std::move(span));
}

std::future<PlanResponse> PlannerService::submit(PlanRequest request) {
    submitted_.fetch_add(1, std::memory_order_relaxed);
    if (inst_) inst_->submitted.add();

    // Deadline-aware admission: with queue pressure P requests deep and an
    // EWMA solve latency of E ms, a new request waits ~ P*E/workers before
    // any worker touches it. If that alone exceeds the declared deadline,
    // solving it would produce an answer nobody can use — shed now, while
    // it is still free.
    if (governor_.enabled() && options_.governor.deadline_admission &&
        request.deadline_ms > 0.0 &&
        governor_.provably_late(request.deadline_ms, queue_.size(),
                                in_flight_.load(std::memory_order_relaxed))) {
        rejected_.fetch_add(1, std::memory_order_relaxed);
        deadline_shed_.fetch_add(1, std::memory_order_relaxed);
        if (inst_) {
            inst_->rejected.add();
            inst_->shed_deadline.add();
        }
        PlanResponse resp = shed_response(
            request, 0, "deadline shed: predicted queue wait exceeds deadline-ms");
        trace_response(request.priority, resp, std::chrono::steady_clock::now(),
                       std::nullopt, std::nullopt, resp.error);
        std::promise<PlanResponse> immediate;
        immediate.set_value(std::move(resp));
        return immediate.get_future();
    }

    auto pending = std::make_unique<Pending>();
    pending->request = std::move(request);
    pending->enqueued = std::chrono::steady_clock::now();
    const std::uint64_t id = pending->request.id;
    const RequestKind kind = pending->request.kind;
    const auto level = static_cast<std::size_t>(pending->request.priority);
    // The future must be taken before the push: once admitted, a request
    // task owns the Pending and may fulfill it at any moment.
    std::future<PlanResponse> fut = pending->promise.get_future();
    if (options_.coalesce_identical || governor_.enabled()) {
        pending->key = dedup_key(pending->request);
    }

    // Coalesce: an identical request queued on this epoch computes exactly
    // the bits this one would (deterministic solvers, same options), so
    // attach to it. The epoch is read before taking inflight_mutex_, a leaf.
    std::optional<Inflight::iterator> group;
    if (options_.coalesce_identical) {
        InflightKey key(pending->key, snapshot()->epoch());
        LockGuard lock(inflight_mutex_);
        const auto [it, opened] = inflight_.try_emplace(std::move(key));
        if (!opened) {
            in_flight_.fetch_add(1, std::memory_order_relaxed);
            it->second.push_back(std::move(pending));
            return fut;
        }
        pending->group = group = it;
    }
    if (queue_.try_push(std::move(pending), level)) {
        // One task per admitted request. It serves whichever request is
        // first in priority order when it runs, so tasks starting out of
        // submit order cannot reorder the queue.
        {
            LockGuard lock(tasks_mutex_);
            ++open_tasks_;
        }
        pool_.submit([this] { serve_next(); });
        return fut;
    }

    rejected_.fetch_add(1, std::memory_order_relaxed);
    if (inst_) inst_->rejected.add();
    PlanResponse resp;
    resp.id = id;
    resp.kind = kind;
    resp.status = ResponseStatus::kRejected;
    resp.error = "queue full or service shutting down";
    // Close the entry, turning away whatever attached to it between the
    // insert and the failed push.
    std::vector<std::unique_ptr<Pending>> attached;
    if (group) {
        LockGuard lock(inflight_mutex_);
        attached = std::move(inflight_.extract(*group).mapped());
    }
    for (const std::unique_ptr<Pending>& dup : attached) {
        PlanResponse share = resp;
        share.id = dup->request.id;
        trace_response(dup->request.priority, share, dup->enqueued, std::nullopt,
                       std::nullopt, share.error);
        fulfill(*dup, std::move(share));
    }
    trace_response(static_cast<Priority>(level), resp, std::chrono::steady_clock::now(),
                   std::nullopt, std::nullopt, resp.error);
    std::promise<PlanResponse> immediate;
    immediate.set_value(std::move(resp));
    return immediate.get_future();
}

void PlannerService::swap_snapshot(SnapshotPtr next) {
    CAST_EXPECTS_MSG(next != nullptr, "cannot swap in a null snapshot");
    // Solves that captured the old snapshot keep it (and its cache) alive
    // until they finish; the last holder frees both. When that is this
    // call, `old` frees them after the lock is released.
    SnapshotPtr old;
    {
        LockGuard lock(snapshot_mutex_);
        old = std::exchange(snapshot_, std::move(next));
    }
    swaps_.fetch_add(1, std::memory_order_relaxed);
    if (inst_) inst_->swaps.add();
}

SnapshotPtr PlannerService::snapshot() const {
    LockGuard lock(snapshot_mutex_);
    return snapshot_;
}

void PlannerService::cancel_inflight() { cancel_.request_stop(); }

ServiceStats PlannerService::stats() const {
    ServiceStats s;
    s.submitted = submitted_.load(std::memory_order_relaxed);
    s.completed = completed_.load(std::memory_order_relaxed);
    s.rejected = rejected_.load(std::memory_order_relaxed);
    s.errors = errors_.load(std::memory_order_relaxed);
    s.batches = batches_.load(std::memory_order_relaxed);
    s.coalesced = coalesced_.load(std::memory_order_relaxed);
    s.snapshot_swaps = swaps_.load(std::memory_order_relaxed);
    s.served_full = served_full_.load(std::memory_order_relaxed);
    s.served_trimmed = served_trimmed_.load(std::memory_order_relaxed);
    s.served_greedy = served_greedy_.load(std::memory_order_relaxed);
    s.governor_shed = governor_shed_.load(std::memory_order_relaxed);
    s.deadline_shed = deadline_shed_.load(std::memory_order_relaxed);
    s.amend_requests = amend_requests_.load(std::memory_order_relaxed);
    s.amend_escalations = amend_escalations_.load(std::memory_order_relaxed);
    s.amend_greedy = amend_greedy_.load(std::memory_order_relaxed);
    s.solve_retries = solve_retries_.load(std::memory_order_relaxed);
    s.breaker_fastfail = breaker_fastfail_.load(std::memory_order_relaxed);
    {
        LockGuard lock(breaker_mutex_);
        s.breaker_trips = evicted_breaker_trips_;
        for (const auto& [key, breaker] : breakers_) s.breaker_trips += breaker->trips();
    }
    s.ewma_solve_ms = governor_.ewma_solve_ms();
    s.ewma_seeded = governor_.ewma_seeded();
    s.cache = snapshot()->cache().stats();
    s.faults = injector_.stats();
    return s;
}

void PlannerService::serve_next() noexcept {
    // Every admitted request submits one task and only tasks pop, so a
    // task always finds a request waiting (close() drops none).
    std::optional<std::unique_ptr<Pending>> popped = queue_.try_pop();
    CAST_ENSURES_MSG(popped.has_value(), "a request task found the queue empty");
    serve_one(std::move(*popped));
    // Notify under the lock: once the count reads zero the destructor may
    // destroy the condition variable as soon as it can take the mutex.
    LockGuard lock(tasks_mutex_);
    if (--open_tasks_ == 0) tasks_idle_.notify_all();
}

void PlannerService::fulfill(Pending& pending, PlanResponse&& resp) {
    if (resp.status == ResponseStatus::kRejected) {
        // A shed after the pop is backpressure, not completed work — same
        // accounting as a queue-full rejection at submit.
        rejected_.fetch_add(1, std::memory_order_relaxed);
        if (inst_) inst_->rejected.add();
    } else {
        if (resp.status == ResponseStatus::kError) {
            errors_.fetch_add(1, std::memory_order_relaxed);
            if (inst_) inst_->errors.add();
        }
        completed_.fetch_add(1, std::memory_order_relaxed);
        if (inst_) {
            inst_->completed.add();
            if (resp.ok()) {
                // End-to-end latency by priority; solve time only for the
                // representative (a coalesced copy shared its rep's solve).
                inst_->latency_for(pending.request.priority)
                    .observe(resp.queue_ms + resp.solve_ms);
                if (!resp.coalesced) inst_->solve_ms.observe(resp.solve_ms);
            }
        }
    }
    in_flight_.fetch_sub(1, std::memory_order_relaxed);
    pending.promise.set_value(std::move(resp));
}

void PlannerService::serve_one(std::unique_ptr<Pending> pending) {
    Pending& rep = *pending;
    const auto start = std::chrono::steady_clock::now();
    batches_.fetch_add(1, std::memory_order_relaxed);
    if (inst_) inst_->batches.add();
    in_flight_.fetch_add(1, std::memory_order_relaxed);
    // One snapshot capture per request, never older than the epoch its group
    // was opened on; a swap landing mid-solve leaves this solve on it.
    const SnapshotPtr snap = snapshot();

    // Walk the ladder: classify against the live backlog, then either shed
    // or solve at the chosen level.
    const double waited_ms = ms_between(rep.enqueued, start);
    enum class Shed { kNone, kDeadline, kGovernor } shed = Shed::kNone;
    PlanResponse resp;
    if (governor_.enabled()) {
        const DegradationLevel level = governor_.classify(governor_.pressure(
            queue_.size(), in_flight_.load(std::memory_order_relaxed)));
        if (options_.governor.deadline_admission && rep.request.deadline_ms > 0.0 &&
            waited_ms > rep.request.deadline_ms) {
            shed = Shed::kDeadline;
            resp = shed_response(rep.request, snap->epoch(),
                                 "deadline shed: deadline-ms elapsed in queue");
        } else if (level == DegradationLevel::kShed) {
            shed = Shed::kGovernor;
            resp = shed_response(rep.request, snap->epoch(),
                                 "overload shed: backlog past the shed threshold");
        } else {
            resp = solve_request(rep.request, rep.key, *snap, level);
        }
    } else {
        resp = solve_request(rep.request, rep.key, *snap, DegradationLevel::kFull);
    }
    const auto solved_at = std::chrono::steady_clock::now();
    resp.queue_ms = waited_ms;
    resp.solve_ms = ms_between(start, solved_at);
    if (inst_ && resp.ok()) {
        if (resp.batch) inst_->record_tempering(resp.batch->tempering, resp.solve_ms);
        if (resp.workflow) inst_->record_tempering(resp.workflow->tempering, resp.solve_ms);
    }
    if (shed == Shed::kNone) {
        // Feed the latency EWMA with actual solve time only — sheds are
        // near-free and would talk the governor out of shedding.
        governor_.record_solve_ms(resp.solve_ms);
    }

    // Close the group before fulfilling anyone: a request submitted from
    // here on starts its own solve instead of attaching to a finished one.
    std::vector<std::unique_ptr<Pending>> attached;
    if (rep.group) {
        LockGuard lock(inflight_mutex_);
        attached = std::move(inflight_.extract(*rep.group).mapped());
    }

    // Outcome counters count responses, attached ones included.
    const std::uint64_t responses = 1 + attached.size();
    if (shed == Shed::kDeadline) {
        deadline_shed_.fetch_add(responses, std::memory_order_relaxed);
        if (inst_) inst_->shed_deadline.add(responses);
    } else if (shed == Shed::kGovernor) {
        governor_shed_.fetch_add(responses, std::memory_order_relaxed);
        if (inst_) inst_->shed_overload.add(responses);
    } else if (resp.ok()) {
        switch (resp.degradation_level) {
            case DegradationLevel::kFull:
                served_full_.fetch_add(responses, std::memory_order_relaxed);
                if (inst_) inst_->served_full.add(responses);
                break;
            case DegradationLevel::kTrimmed:
                served_trimmed_.fetch_add(responses, std::memory_order_relaxed);
                if (inst_) inst_->served_trimmed.add(responses);
                break;
            case DegradationLevel::kGreedy:
                served_greedy_.fetch_add(responses, std::memory_order_relaxed);
                if (inst_) inst_->served_greedy.add(responses);
                break;
            case DegradationLevel::kShed:
                break;
        }
    }
    coalesced_.fetch_add(attached.size(), std::memory_order_relaxed);
    if (inst_) inst_->coalesced.add(attached.size());

    const auto shared_at = std::chrono::steady_clock::now();
    for (const std::unique_ptr<Pending>& dup : attached) {
        // Its queue wait ends when the shared solve starts, or at once if
        // it attached mid-solve.
        const auto joined = std::max(dup->enqueued, start);
        PlanResponse share = resp;
        share.id = dup->request.id;
        share.coalesced = true;
        share.queue_ms = ms_between(dup->enqueued, joined);
        share.solve_ms = ms_between(joined, shared_at);
        trace_response(dup->request.priority, share, dup->enqueued, joined, std::nullopt,
                       "coalesced");
        fulfill(*dup, std::move(share));
    }
    trace_response(rep.request.priority, resp, rep.enqueued, start,
                   shed == Shed::kNone
                       ? std::optional<std::chrono::steady_clock::time_point>(solved_at)
                       : std::nullopt,
                   resp.error);
    fulfill(rep, std::move(resp));
}

std::shared_ptr<CircuitBreaker> PlannerService::breaker_for(const std::string& key) {
    LockGuard lock(breaker_mutex_);
    const auto it = breakers_.find(key);
    if (it != breakers_.end()) return it->second;
    if (breakers_.size() >= kMaxBreakers) {
        // Wholesale eviction keeps the map bounded without LRU bookkeeping;
        // a poisoned template that reappears re-trips within one retry
        // budget. Trips are carried so stats stay monotonic.
        for (const auto& [k, b] : breakers_) evicted_breaker_trips_ += b->trips();
        breakers_.clear();
    }
    auto breaker = std::make_shared<CircuitBreaker>(options_.governor.breaker);
    breakers_.emplace(key, breaker);
    return breaker;
}

PlanResponse PlannerService::solve_request(const PlanRequest& request,
                                           const std::string& key, const Snapshot& snap,
                                           DegradationLevel level) {
    const bool governed = governor_.enabled();

    // One breaker per request template: a template that keeps exhausting
    // its retry budget is failed fast instead of re-burning a worker every
    // time it reappears.
    std::shared_ptr<CircuitBreaker> breaker;
    if (governed) {
        breaker = breaker_for(key);
        if (!breaker->allow()) {
            breaker_fastfail_.fetch_add(1, std::memory_order_relaxed);
            if (inst_) inst_->breaker_fastfail.add();
            PlanResponse resp;
            resp.id = request.id;
            resp.kind = request.kind;
            resp.status = ResponseStatus::kError;
            resp.error = "circuit breaker open: this request template is failing fast";
            resp.snapshot_epoch = snap.epoch();
            resp.degradation_level = level;
            return resp;
        }
    }

    const int max_attempts = governed ? options_.governor.retry.max_attempts : 1;
    PlanResponse resp;
    for (int attempt = 0; attempt < max_attempts; ++attempt) {
        if (attempt > 0) {
            solve_retries_.fetch_add(1, std::memory_order_relaxed);
            if (inst_) inst_->retries.add();
            sleep_backoff_ms(options_.governor.retry.wait_ms(attempt - 1));
        }
        try {
            if (injector_.enabled()) {
                const AttemptFault fault = injector_.on_attempt(request.id, attempt);
                sleep_backoff_ms(fault.stall_ms);  // worker stall: a real sleep
                if (fault.throw_exception) {
                    throw SimulationError("injected serve-layer solver fault", "",
                                          "serve");
                }
            }
            resp = request.kind == RequestKind::kAmend
                       ? amend_direct(request, snap, level)
                       : solve_direct(snap, request, options_, &cancel_, level, &pool_);
            if (resp.ok() && request.kind == RequestKind::kBatch && resp.batch &&
                !request.plan_handle.empty()) {
                store_plan(request.plan_handle, *request.workload, resp.batch->plan,
                           request.reuse_aware);
            }
            resp.attempts = attempt + 1;
            if (breaker) breaker->record_success();
            return resp;
        } catch (const std::exception& e) {
            // Lint rejections, validation failures and injected faults are
            // per-request faults; they must never take down the service.
            if (breaker) breaker->record_failure();
            resp = PlanResponse{};
            resp.id = request.id;
            resp.kind = request.kind;
            resp.status = ResponseStatus::kError;
            resp.error = e.what();
            resp.snapshot_epoch = snap.epoch();
            resp.degradation_level = level;
            resp.attempts = attempt + 1;
        }
    }
    return resp;
}

std::string PlannerService::dedup_key(const PlanRequest& request) {
    std::ostringstream os;
    if (request.kind == RequestKind::kAmend) {
        // Amends are stateful (each advances the stored plan), so identical
        // deltas are NOT idempotent — keying on the request id makes every
        // amend its own coalescing group. The handle keeps breaker/trace
        // keys readable.
        os << "A|" << request.plan_handle << '|' << request.id;
        return os.str();
    }
    os << (request.kind == RequestKind::kBatch ? 'B' : 'W') << '|' << request.reuse_aware
       << '|' << (request.seed ? std::to_string(*request.seed) : std::string("-")) << '|'
       << request.max_wall_ms << '|' << request.deadline_ms << '|'
       << request.plan_handle << '|';
    // The spec serialization covers everything the solvers read (sizes,
    // task counts, pins, reuse groups, deadlines); job names ride along
    // because lint notes quote them.
    if (request.workload) {
        workload::write_spec(*request.workload, os);
        for (std::size_t i = 0; i < request.workload->size(); ++i) {
            os << '|' << request.workload->job(i).name;
        }
    }
    if (request.workflow) {
        workload::write_spec(*request.workflow, os);
        os << '|' << request.workflow->name();
        for (const workload::JobSpec& job : request.workflow->jobs()) {
            os << '|' << job.name;
        }
    }
    return os.str();
}

void PlannerService::store_plan(const std::string& handle, workload::Workload workload,
                                core::TieringPlan plan, bool reuse_aware) {
    std::shared_ptr<StoredPlan> entry;
    {
        LockGuard lock(store_mutex_);
        auto& slot = plans_[handle];
        if (slot == nullptr) slot = std::make_shared<StoredPlan>();
        entry = slot;
    }
    LockGuard lock(entry->mu);
    entry->workload = std::move(workload);
    entry->plan = std::move(plan);
    entry->reuse_aware = reuse_aware;
}

std::optional<StoredPlanView> PlannerService::stored_plan(const std::string& handle) const {
    std::shared_ptr<StoredPlan> entry;
    {
        LockGuard lock(store_mutex_);
        const auto it = plans_.find(handle);
        if (it == plans_.end()) return std::nullopt;
        entry = it->second;
    }
    LockGuard lock(entry->mu);
    return StoredPlanView{entry->workload, entry->plan, entry->reuse_aware};
}

PlanResponse PlannerService::amend_direct(const PlanRequest& request, const Snapshot& snap,
                                          DegradationLevel level) {
    CAST_EXPECTS_MSG(level != DegradationLevel::kShed,
                     "kShed is a rejection, not a solver mode");
    if (!request.delta.has_value()) {
        throw ValidationError("amend request carries no delta");
    }
    std::shared_ptr<StoredPlan> entry;
    {
        LockGuard lock(store_mutex_);
        const auto it = plans_.find(request.plan_handle);
        if (it == plans_.end()) {
            throw ValidationError("amend references unknown plan handle '" +
                                  request.plan_handle + "'");
        }
        entry = it->second;
    }

    // The governor's ladder maps onto smaller neighborhoods rather than
    // fewer chains-of-everything: kTrimmed shrinks the per-member iteration
    // budget (the amend analogue of trim_iter_factor) and halves the
    // replica count; kGreedy skips annealing entirely — the irrevocable
    // online placement, the cheapest non-reject amend.
    core::AmendPolicy policy = options_.amend;
    if (level == DegradationLevel::kTrimmed) {
        const double f = options_.governor.trim_iter_factor;
        policy.iters_per_member = std::max(
            1, static_cast<int>(static_cast<double>(policy.iters_per_member) * f));
        policy.min_iters =
            std::max(1, static_cast<int>(static_cast<double>(policy.min_iters) * f));
        policy.max_iters = std::max(policy.min_iters, static_cast<int>(static_cast<double>(
                                                          policy.max_iters) * f));
        policy.chains = std::max(1, policy.chains / 2);
    } else if (level == DegradationLevel::kGreedy) {
        policy.greedy_only = true;
    }
    core::CastOptions opts = request_options(options_, request, &cancel_);
    options_.governor.apply(level, opts);  // trims any escalated cold solve too

    PlanResponse resp;
    resp.id = request.id;
    resp.kind = request.kind;
    resp.snapshot_epoch = snap.epoch();
    resp.degradation_level = level;

    // Hold the entry lock across the solve: amendments to one handle are a
    // chain (each builds on the last), so per-handle serialization is the
    // semantics, not an implementation accident. Other handles — and every
    // batch/workflow request — proceed in parallel.
    LockGuard lock(entry->mu);
    const core::IncrementalSolver solver(snap.models(), opts, policy, entry->reuse_aware);
    core::AmendResult amended =
        solver.amend(entry->workload, entry->plan, *request.delta, &pool_, &snap.cache());
    amend_requests_.fetch_add(1, std::memory_order_relaxed);
    if (amended.escalated_cold) amend_escalations_.fetch_add(1, std::memory_order_relaxed);
    if (amended.greedy_only) amend_greedy_.fetch_add(1, std::memory_order_relaxed);
    if (inst_) inst_->record_amend(amended);

    entry->workload = amended.workload;
    entry->plan = amended.plan;

    core::CastResult carrier;
    carrier.plan = std::move(amended.plan);
    carrier.evaluation = std::move(amended.evaluation);
    carrier.iterations = amended.iterations;
    carrier.cache_stats = amended.cache_stats;
    carrier.budget_exhausted = amended.budget_exhausted;
    carrier.tempering = amended.tempering;
    resp.batch = std::move(carrier);
    resp.neighborhood_size = amended.neighborhood.size();
    resp.escalated_cold = amended.escalated_cold;
    resp.status = ResponseStatus::kOk;
    return resp;
}

PlanResponse PlannerService::solve_direct(const Snapshot& snapshot, const PlanRequest& request,
                                          const ServiceOptions& options,
                                          const CancelToken* cancel, DegradationLevel level,
                                          ThreadPool* pool) {
    CAST_EXPECTS_MSG(level != DegradationLevel::kShed,
                     "kShed is a rejection, not a solver mode");
    CAST_EXPECTS_MSG(request.kind != RequestKind::kAmend,
                     "amend requests need the service's plan store; submit() them");
    PlanResponse resp;
    resp.id = request.id;
    resp.kind = request.kind;
    resp.snapshot_epoch = snapshot.epoch();
    resp.degradation_level = level;
    core::CastOptions opts = request_options(options, request, cancel);
    options.governor.apply(level, opts);  // kFull/kGreedy: no-op
    core::EvalCache& cache = snapshot.cache();
    if (request.kind == RequestKind::kBatch) {
        CAST_EXPECTS_MSG(request.workload.has_value(), "batch request carries no workload");
        if (level == DegradationLevel::kGreedy) {
            resp.batch = core::plan_cast_greedy(snapshot.models(), *request.workload, opts,
                                                request.reuse_aware, &cache);
        } else if (request.reuse_aware) {
            resp.batch = core::plan_cast_plus_plus(snapshot.models(), *request.workload,
                                                   opts, pool, &cache);
        } else {
            resp.batch =
                core::plan_cast(snapshot.models(), *request.workload, opts, pool, &cache);
        }
    } else {
        CAST_EXPECTS_MSG(request.workflow.has_value(), "workflow request carries no workflow");
        const core::WorkflowEvaluator evaluator(snapshot.models(), *request.workflow);
        const core::WorkflowSolver solver(evaluator, opts.annealing,
                                          options.workflow_deadline_safety);
        resp.workflow = level == DegradationLevel::kGreedy ? solver.solve_greedy(&cache)
                                                           : solver.solve(pool, &cache);
    }
    resp.status = ResponseStatus::kOk;
    return resp;
}

}  // namespace cast::serve
