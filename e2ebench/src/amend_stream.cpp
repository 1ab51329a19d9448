// amend_stream: closed-loop incremental re-planning through the service.
//
// Two tenants each store a cold plan under their own handle, then amend it
// along a long seeded synthesize_stream trace (10% churn per step),
// waiting for each reply before sending the next amend. Tenant 0 plans
// with CAST, tenant 1 with CAST++. One caller drives the two tenants
// round-robin, so an amend never queues behind the other tenant's: the
// service's dispatch barrier would serialize concurrent tenants anyway,
// and each latency would then include the other tenant's amend, which
// made the median swing with the share of large steps. The service runs
// one pool worker; with its dispatcher and the caller that is three
// threads. IncrementalSolver::amend and the plan-store writes do most of
// the work; cold solves run only in set-up and on escalation.
#include <algorithm>
#include <cmath>
#include <future>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/deployer.hpp"
#include "serve/service.hpp"
#include "workload/facebook.hpp"
#include "workload/stream.hpp"

namespace e2e {
namespace {

namespace serve = cast::serve;

constexpr std::size_t kTenants = 2;
constexpr std::size_t kServiceWorkers = 1;
/// Amend steps per tenant per second of --seconds, sized so a run takes
/// about --seconds on a 4-core shared host in a slow stretch (amends at
/// about 45/s); a quiet host finishes in about half that.
constexpr double kStepsPerSecond = 35.0;
constexpr double kChurn = 0.10;
constexpr int kWarmupSteps = 4;
/// A step whose neighbourhood exceeds this many jobs is a large step (the
/// amend cost is bimodal: small deltas touch a handful of jobs, a
/// capacity shift pulls in a whole tier's residents).
constexpr std::size_t kLargeStepJobs = 20;

constexpr std::uint64_t kWorkloadStream = 21;
constexpr std::uint64_t kDeltaStream = 22;
constexpr std::uint64_t kWarmupIndex = 1u << 20;

struct TenantInput {
    std::string handle;
    bool reuse_aware = false;
    cast::workload::Workload initial;
    std::vector<cast::workload::JobDelta> stream;
};

TenantInput make_tenant(std::uint64_t seed, std::uint64_t index, std::size_t steps,
                        const std::string& handle, bool reuse_aware) {
    TenantInput t;
    t.handle = handle;
    t.reuse_aware = reuse_aware;
    t.initial = cast::workload::synthesize_facebook_workload(
        derive_seed(seed, kWorkloadStream, index));
    cast::workload::StreamOptions opts;
    opts.steps = static_cast<int>(steps);
    opts.churn = kChurn;
    t.stream = cast::workload::synthesize_stream(t.initial,
                                                 derive_seed(seed, kDeltaStream, index), opts);
    return t;
}

serve::ServiceOptions service_options(bool traced, std::size_t trace_capacity) {
    serve::ServiceOptions opts;  // default CastOptions and AmendPolicy
    opts.workers = kServiceWorkers;
    opts.obs.metrics = traced;
    opts.obs.trace_capacity = traced ? trace_capacity : 0;
    return opts;
}

serve::PlanRequest amend_request(const TenantInput& t, std::size_t step, std::uint64_t id) {
    serve::PlanRequest req;
    req.id = id;
    req.kind = serve::RequestKind::kAmend;
    req.plan_handle = t.handle;
    req.reuse_aware = t.reuse_aware;
    req.delta = t.stream[step];
    return req;
}

/// A warm service: snapshot, service, the tenants' stored cold plans, and
/// a few untimed amends on a separate handle (wakes the dispatcher, fills
/// the snapshot cache).
struct Prepared {
    serve::SnapshotPtr snapshot;
    std::unique_ptr<serve::PlannerService> service;
    double snapshot_ms = 0.0;
};

void store_plan(serve::PlannerService& service, const TenantInput& t, std::uint64_t id) {
    serve::PlanRequest req;
    req.id = id;
    req.kind = serve::RequestKind::kBatch;
    req.workload = t.initial;
    req.reuse_aware = t.reuse_aware;
    req.plan_handle = t.handle;
    const serve::PlanResponse resp = service.submit(std::move(req)).get();
    if (!resp.ok()) throw std::runtime_error("storing a tenant plan failed");
}

Prepared prepare(const cast::model::PerfModelSet& models, const std::vector<TenantInput>& tenants,
                 const TenantInput& warmup, bool traced, std::size_t trace_capacity) {
    Prepared p;
    const auto t0 = Clock::now();
    p.snapshot = serve::make_snapshot(models);
    p.snapshot_ms = ms_between(t0, Clock::now());
    p.service = std::make_unique<serve::PlannerService>(
        p.snapshot, service_options(traced, trace_capacity));
    std::uint64_t id = 1u << 30;
    for (const TenantInput& t : tenants) store_plan(*p.service, t, id++);
    store_plan(*p.service, warmup, id++);
    for (std::size_t k = 0; k < warmup.stream.size(); ++k) {
        if (!p.service->submit(amend_request(warmup, k, id++)).get().ok()) {
            throw std::runtime_error("warm-up amend failed");
        }
    }
    return p;
}

/// Numbers kept from one amend reply.
struct Record {
    std::size_t tenant = 0;
    std::size_t step = 0;
    double start_ms = 0.0;
    double submit_us = 0.0;
    double latency_ms = 0.0;
    std::string status;
    double queue_ms = 0.0;
    double solve_ms = 0.0;
    std::size_t neighborhood = 0;
    bool escalated = false;
    int iterations = 0;
    bool budget_exhausted = false;
    PlanNumbers plan;
    double utility = 0.0;
    double cost = 0.0;
    Reference ref;
};

struct PassResult {
    bool traced = false;
    double elapsed_s = 0.0;
    std::vector<std::vector<Record>> records;  ///< per tenant, step order
    std::vector<PlanNumbers> stored_final;     ///< the service's plan store at the end
    serve::ServiceStats stats;
    cast::core::EvalCacheStats cache_before;
    Tracer tracer{false};
};

/// One amend: submit, wait for the reply, keep its numbers.
Record amend_once(serve::PlannerService& service, std::size_t tenant, std::size_t step,
                  serve::PlanRequest&& request, Tracer& tr) {
    Record rec;
    rec.tenant = tenant;
    rec.step = step;
    const std::uint64_t op = request.id;
    const auto begin = Clock::now();
    rec.start_ms = to_ms(begin);
    serve::PlanResponse resp;
    {
        Scoped root(tr, "amend.request", op);
        std::future<serve::PlanResponse> reply;
        {
            Scoped s(tr, "serve.submit", op);
            reply = service.submit(std::move(request));
        }
        rec.submit_us = ms_between(begin, Clock::now()) * 1000.0;
        resp = reply.get();
    }
    rec.latency_ms = ms_between(begin, Clock::now());
    rec.queue_ms = resp.queue_ms;
    rec.solve_ms = resp.solve_ms;
    rec.neighborhood = resp.neighborhood_size;
    rec.escalated = resp.escalated_cold;
    if (resp.status == serve::ResponseStatus::kRejected) {
        rec.status = "refused";
    } else if (!resp.ok() || !resp.batch) {
        rec.status = "error";
    } else {
        rec.status = "ok";
        rec.plan = plan_numbers(resp.batch->plan.decisions());
        rec.utility = resp.batch->evaluation.utility;
        rec.cost = resp.batch->evaluation.total_cost().value();
        rec.iterations = resp.batch->iterations;
        rec.budget_exhausted = resp.batch->budget_exhausted;
    }
    return rec;
}

PassResult run_pass(Prepared& prepared, const std::vector<TenantInput>& tenants, bool traced) {
    PassResult pass;
    pass.traced = traced;
    pass.tracer = Tracer(traced);
    serve::PlannerService& service = *prepared.service;
    const double ring_offset_ms = now_ms() - service.trace_ring().now_ms();

    std::vector<std::vector<serve::PlanRequest>> requests(kTenants);
    for (std::size_t t = 0; t < kTenants; ++t) {
        for (std::size_t k = 0; k < tenants[t].stream.size(); ++k) {
            requests[t].push_back(amend_request(tenants[t], k, t * 1000000 + k));
        }
    }
    pass.records.resize(kTenants);
    const serve::ServiceStats before = service.stats();
    pass.cache_before = before.cache;

    const auto begin = Clock::now();
    const std::size_t steps = requests[0].size();
    for (std::size_t k = 0; k < steps; ++k) {
        for (std::size_t t = 0; t < kTenants; ++t) {
            pass.records[t].push_back(
                amend_once(service, t, k, std::move(requests[t][k]), pass.tracer));
        }
    }
    pass.elapsed_s = ms_between(begin, Clock::now()) / 1000.0;
    pass.stats = service.stats();
    // Count only the timed phase (set-up stored plans and warmed up on this
    // service too).
    pass.stats.submitted -= before.submitted;
    pass.stats.completed -= before.completed;
    pass.stats.batches -= before.batches;
    pass.stats.amend_requests -= before.amend_requests;
    pass.stats.amend_escalations -= before.amend_escalations;
    for (const TenantInput& t : tenants) {
        const std::optional<serve::StoredPlanView> stored = service.stored_plan(t.handle);
        pass.stored_final.push_back(stored ? plan_numbers(stored->plan.decisions())
                                           : PlanNumbers{});
    }
    if (traced) add_service_spans(service.trace_spans(), ring_offset_ms, "core.amend", pass.tracer);
    return pass;
}

/// Replay each tenant's deltas to rebuild the job set every amended plan
/// covers, then re-evaluate the plan with the reference evaluator.
void check_pass(const cast::model::PerfModelSet& models, const std::vector<TenantInput>& tenants,
                PassResult& pass, Check& check) {
    for (std::size_t t = 0; t < tenants.size(); ++t) {
        cast::workload::Workload live = tenants[t].initial;
        const cast::core::EvalOptions eval_opts{.reuse_aware = tenants[t].reuse_aware};
        std::vector<Record>& records = pass.records[t];
        for (Record& rec : records) {
            live = cast::workload::apply_delta(live, tenants[t].stream[rec.step]).workload;
            if (rec.status != "ok") continue;
            ++check.checked;
            const std::string where =
                "tenant " + std::to_string(t) + " step " + std::to_string(rec.step);
            try {
                const cast::core::PlanEvaluator evaluator(models, live, eval_opts);
                const cast::core::TieringPlan plan(decisions_of(rec.plan));
                const auto t0 = Clock::now();
                const cast::core::PlanEvaluation ref = evaluator.evaluate(plan);
                check.reference_ms.push_back(ms_between(t0, Clock::now()));
                cast::core::Deployer::validate_plan(evaluator, plan);
                rec.ref = greedy_reference(models, live, cast::core::CastOptions{},
                                           tenants[t].reuse_aware);
                if (!ref.feasible || ref.utility != rec.utility ||
                    ref.total_cost().value() != rec.cost) {
                    check.fail(where + ": amended plan disagrees with the reference evaluator");
                    rec.status = "check_failed";
                }
            } catch (const std::exception& e) {
                check.fail(where + ": " + e.what());
                rec.status = "check_failed";
            }
        }
        if (!records.empty() && records.back().status == "ok" &&
            !same_plan(records.back().plan, pass.stored_final[t])) {
            check.fail("tenant " + std::to_string(t) +
                       ": plan store does not hold the last amended plan");
            records.back().status = "check_failed";
        }
    }
}

void write_pass(Json& json, const PassResult& pass) {
    json.begin_object().field("traced", pass.traced).field("elapsed_s", pass.elapsed_s);
    json.key("ops").begin_array();
    // Interleave by start time so the op list reads like the service saw it.
    std::vector<const Record*> all;
    for (const auto& tenant : pass.records) {
        for (const Record& r : tenant) all.push_back(&r);
    }
    std::sort(all.begin(), all.end(),
              [](const Record* a, const Record* b) { return a->start_ms < b->start_ms; });
    for (const Record* r : all) {
        json.begin_object()
            .field("tenant", static_cast<std::uint64_t>(r->tenant))
            .field("step", static_cast<std::uint64_t>(r->step))
            .field("start_ms", r->start_ms)
            .field("submit_us", r->submit_us)
            .field("latency_ms", r->latency_ms)
            .field("status", r->status)
            .field("ok", r->status == "ok")
            .field("queue_ms", r->queue_ms)
            .field("solve_ms", r->solve_ms)
            .field("neighborhood", static_cast<std::uint64_t>(r->neighborhood))
            .field("large_step", r->neighborhood > kLargeStepJobs)
            .field("escalated", r->escalated)
            .field("iterations", r->iterations)
            .field("budget_exhausted", r->budget_exhausted)
            .field("utility", r->utility)
            .field("cost", r->cost)
            .field("ref_utility", r->ref.utility)
            .field("ref_cost", r->ref.cost)
            .end_object();
    }
    json.end_array();
    json.key("service")
        .begin_object()
        .field("submitted", pass.stats.submitted)
        .field("completed", pass.stats.completed)
        .field("rejected", pass.stats.rejected)
        .field("errors", pass.stats.errors)
        .field("batches", pass.stats.batches)
        .field("amend_requests", pass.stats.amend_requests)
        .field("amend_escalations", pass.stats.amend_escalations);
    json.key("cache_before");
    write_cache_stats(json, pass.cache_before);
    json.key("cache_after");
    write_cache_stats(json, pass.stats.cache);
    json.end_object();
    json.key("spans");
    pass.tracer.write(json);
    json.end_object();
}

}  // namespace

void run_amend_stream(const Args& args, Json& json) {
    const double pass_seconds = args.trace ? args.seconds / 2.0 : args.seconds;
    const auto steps =
        static_cast<std::size_t>(std::max(1.0, std::round(pass_seconds * kStepsPerSecond)));
    const auto gen_start = Clock::now();
    std::vector<TenantInput> tenants;
    for (std::size_t t = 0; t < kTenants; ++t) {
        tenants.push_back(make_tenant(args.seed, t, steps, "tenant-" + std::to_string(t),
                                      /*reuse_aware=*/t == 1));
    }
    const double gen_ms = ms_between(gen_start, Clock::now());
    const TenantInput warmup =
        make_tenant(args.seed, kWarmupIndex, kWarmupSteps, "warmup", false);

    // Set-up, repeated so setup_s can be reported as a median: profile,
    // snapshot, service, stored cold plans, warm-up amends.
    constexpr int kSetupRounds = 3;
    SetupTimes times;
    std::optional<cast::model::PerfModelSet> models;
    std::optional<Prepared> prepared;
    for (int round = 0; round < kSetupRounds; ++round) {
        const auto t0 = Clock::now();
        prepared.reset();
        models.reset();
        {
            cast::ThreadPool pool(2);
            models.emplace(profile_models(&pool));
        }
        times.profile_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
        prepared.emplace(prepare(*models, tenants, warmup, false, 0));
        times.snapshot_ms.push_back(prepared->snapshot_ms);
        times.setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
    }

    std::vector<PassResult> passes;
    passes.push_back(run_pass(*prepared, tenants, false));
    if (args.trace) {
        // The traced pass gets its own warm service over a fresh snapshot,
        // so both passes start from the same state.
        prepared.reset();
        prepared.emplace(prepare(*models, tenants, warmup, true, 2 * kTenants * steps + 64));
        passes.push_back(run_pass(*prepared, tenants, true));
    }
    prepared.reset();

    Check check;
    for (PassResult& pass : passes) check_pass(*models, tenants, pass, check);

    begin_document(json, args,
                   {{"caller", 1}, {"service_dispatcher", 1}, {"service_workers", kServiceWorkers}},
                   times, gen_ms, kTenants * steps);
    json.field("large_step_jobs", kLargeStepJobs);
    json.key("passes").begin_array();
    for (const PassResult& pass : passes) write_pass(json, pass);
    json.end_array();
    end_document(json, check);
}

}  // namespace e2e
