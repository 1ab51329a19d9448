// serve_open: open-loop batch planning requests against one warm
// PlannerService with 2 workers.
//
// One generator thread sends Poisson arrivals on a fixed schedule -- a
// reference-rate phase, then a fixed ladder of offered rates -- and also
// collects the replies, so the harness plus the service (dispatcher and 2
// workers) use four threads. Every request is distinct: its own
// Facebook-derived workload, its own CAST or CAST++ choice and its own
// solver seed, so identical-request coalescing never fires and the work
// done does not depend on timing. Latency is measured from the time a
// request was due, so a late generator or a stalled service both show.
#include <algorithm>
#include <cmath>
#include <deque>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/deployer.hpp"
#include "serve/service.hpp"
#include "workload/facebook.hpp"

namespace e2e {
namespace {

namespace serve = cast::serve;

constexpr std::size_t kServiceWorkers = 2;
/// Solver effort per request: sized so a solve (~60 ms on a 4-core host)
/// dominates queue hand-offs and host stalls.
constexpr int kIterMax = 20000;
constexpr int kChains = 2;
/// Offered rates (requests/s). The reference rate gives latency_p50_ms and
/// latency_tail_ms; the ladder gives max_rate_under_slo_per_s.
///
/// The reference rate keeps the service mostly idle: a request that
/// arrives while a batch is being solved waits at the dispatch barrier for
/// all of it, so at a busy rate the latency grows faster than the solve
/// time and a slow host stretch moves it out of proportion. The share of
/// requests that wait is about the dispatcher's busy share (rate x solve
/// time), and it must stay below the share beyond the tail percentile, or
/// the tail flips between solve time and solve-plus-wait from run to run.
/// At 2.5 req/s and 20 s a run has 43 reference requests, so the tail is
/// p75, and with 60-90 ms solves 15-25% of requests wait.
constexpr double kReferenceRate = 2.5;
constexpr double kLadder[] = {15.0, 30.0, 45.0};
constexpr double kReferenceShare = 0.85;  ///< of --seconds; the ladder gets the rest
/// Responses compared bit-for-bit against PlannerService::solve_direct.
constexpr std::size_t kDirectSamples = 6;
constexpr std::size_t kWarmupRequests = 6;

constexpr std::uint64_t kWorkloadStream = 11;
constexpr std::uint64_t kSolverStream = 12;
constexpr std::uint64_t kMixStream = 13;
constexpr std::uint64_t kArrivalStream = 14;
constexpr std::uint64_t kWarmupIndex = 1u << 20;

struct Phase {
    std::string name;
    double rate = 0.0;
    double seconds = 0.0;
    std::vector<double> offsets_ms;  ///< Poisson arrival times from phase start
};

std::vector<Phase> make_schedule(std::uint64_t seed, double seconds) {
    std::vector<Phase> phases;
    const double ladder_seconds =
        seconds * (1.0 - kReferenceShare) / static_cast<double>(std::size(kLadder));
    phases.push_back({"reference", kReferenceRate, seconds * kReferenceShare, {}});
    for (const double rate : kLadder) phases.push_back({"ladder", rate, ladder_seconds, {}});
    for (std::size_t p = 0; p < phases.size(); ++p) {
        // A Poisson process conditioned on its count: rate x seconds
        // arrivals at sorted uniform times. Fixing the count keeps the
        // offered load of a phase exact, so only the arrival pattern
        // varies with the seed.
        Phase& phase = phases[p];
        cast::Rng rng(derive_seed(seed, kArrivalStream, p));
        const auto count = static_cast<std::size_t>(std::llround(phase.rate * phase.seconds));
        for (std::size_t i = 0; i < count; ++i) {
            phase.offsets_ms.push_back(rng.uniform() * phase.seconds * 1000.0);
        }
        std::sort(phase.offsets_ms.begin(), phase.offsets_ms.end());
    }
    return phases;
}

struct RequestInput {
    cast::workload::Workload workload;
    bool reuse_aware = false;
    std::uint64_t solver_seed = 0;
};

RequestInput make_input(std::uint64_t seed, std::uint64_t index) {
    RequestInput in;
    in.workload = cast::workload::synthesize_facebook_workload(
        derive_seed(seed, kWorkloadStream, index));
    in.reuse_aware = (derive_seed(seed, kMixStream, index) & 1u) != 0;
    in.solver_seed = derive_seed(seed, kSolverStream, index);
    return in;
}

serve::PlanRequest make_request(const RequestInput& in, std::uint64_t id) {
    serve::PlanRequest req;
    req.id = id;
    req.kind = serve::RequestKind::kBatch;
    req.workload = in.workload;
    req.reuse_aware = in.reuse_aware;
    req.seed = in.solver_seed;
    return req;
}

serve::ServiceOptions service_options(bool traced, std::size_t trace_capacity) {
    serve::ServiceOptions opts;
    opts.workers = kServiceWorkers;
    opts.solver.annealing.iter_max = kIterMax;
    opts.solver.annealing.chains = kChains;
    opts.obs.metrics = traced;
    opts.obs.trace_capacity = traced ? trace_capacity : 0;
    return opts;
}

/// Numbers kept from one request (never the response object itself).
struct Record {
    std::size_t phase = 0;
    double due_ms = 0.0;
    double send_ms = 0.0;
    double submit_us = 0.0;
    double done_ms = 0.0;
    std::size_t outstanding_at_send = 0;
    bool reuse_aware = false;
    std::string status;  ///< "ok", "refused", "error"
    double queue_ms = 0.0;
    double solve_ms = 0.0;
    bool coalesced = false;
    PlanNumbers plan;
    double utility = 0.0;
    double cost = 0.0;
    Reference ref;
    int iterations = 0;
    std::uint64_t exchange_attempts = 0;
    std::uint64_t exchange_accepts = 0;
    bool budget_exhausted = false;
};

struct Outstanding {
    std::size_t index = 0;
    std::future<serve::PlanResponse> reply;
};

struct PassResult {
    bool traced = false;
    double elapsed_s = 0.0;
    std::vector<Record> records;
    std::vector<double> phase_start_ms;
    std::vector<double> phase_end_ms;  ///< last reply of the phase collected
    serve::ServiceStats stats;
    cast::core::EvalCacheStats cache_before;
    Tracer tracer{false};
};

void keep_numbers(Record& rec, serve::PlanResponse&& resp) {
    rec.queue_ms = resp.queue_ms;
    rec.solve_ms = resp.solve_ms;
    rec.coalesced = resp.coalesced;
    if (resp.status == serve::ResponseStatus::kRejected) {
        rec.status = "refused";
        return;
    }
    if (!resp.ok() || !resp.batch) {
        rec.status = "error";
        return;
    }
    rec.status = "ok";
    const cast::core::CastResult& r = *resp.batch;
    rec.plan = plan_numbers(r.plan.decisions());
    rec.utility = r.evaluation.utility;
    rec.cost = r.evaluation.total_cost().value();
    rec.iterations = r.iterations;
    rec.exchange_attempts = r.tempering.total_attempts();
    rec.exchange_accepts = r.tempering.total_accepts();
    rec.budget_exhausted = r.budget_exhausted;
}

/// The generator: sends each request when it is due and, while waiting
/// for the next due time, collects replies in send order. A reply is
/// stamped when the generator sees it, which is when its future becomes
/// ready unless an earlier request is still outstanding.
class Generator {
public:
    Generator(serve::PlannerService& service, PassResult& pass)
        : service_(service), pass_(pass) {}

    void run_phase(std::size_t phase_index, const Phase& phase,
                   std::vector<serve::PlanRequest>& requests, std::size_t& next_request) {
        const auto start = Clock::now() + std::chrono::milliseconds(2);
        pass_.phase_start_ms.push_back(to_ms(start));
        for (const double offset : phase.offsets_ms) {
            const auto due =
                start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double, std::milli>(offset));
            collect_until(due);
            Record rec;
            rec.phase = phase_index;
            rec.reuse_aware = requests[next_request].reuse_aware;
            rec.due_ms = pass_.phase_start_ms.back() + offset;
            rec.outstanding_at_send = outstanding_.size();
            const auto send = Clock::now();
            rec.send_ms = to_ms(send);
            std::future<serve::PlanResponse> reply =
                service_.submit(std::move(requests[next_request]));
            rec.submit_us = ms_between(send, Clock::now()) * 1000.0;
            pass_.records.push_back(std::move(rec));
            outstanding_.push_back({pass_.records.size() - 1, std::move(reply)});
            ++next_request;
        }
        collect_until(std::nullopt);
        pass_.phase_end_ms.push_back(now_ms());
    }

private:
    void collect_until(std::optional<Clock::time_point> deadline) {
        while (!outstanding_.empty()) {
            Outstanding& front = outstanding_.front();
            if (deadline) {
                if (front.reply.wait_until(*deadline) != std::future_status::ready) return;
            } else {
                front.reply.wait();
            }
            Record& rec = pass_.records[front.index];
            rec.done_ms = now_ms();
            keep_numbers(rec, front.reply.get());
            outstanding_.pop_front();
        }
        if (deadline) std::this_thread::sleep_until(*deadline);
    }

    serve::PlannerService& service_;
    PassResult& pass_;
    std::deque<Outstanding> outstanding_;
};

/// A service over `snapshot`, warmed by a burst of untimed requests (wakes
/// the dispatcher and both workers, fills the snapshot cache). Warm-up ids
/// start at kWarmupIndex, clear of the timed requests' ids.
std::unique_ptr<serve::PlannerService> warm_service(const serve::SnapshotPtr& snapshot,
                                                    std::uint64_t seed, bool traced,
                                                    std::size_t trace_capacity) {
    auto service = std::make_unique<serve::PlannerService>(
        snapshot, service_options(traced, trace_capacity));
    std::vector<std::future<serve::PlanResponse>> replies;
    for (std::size_t i = 0; i < kWarmupRequests; ++i) {
        replies.push_back(service->submit(
            make_request(make_input(seed, kWarmupIndex + i), kWarmupIndex + i)));
    }
    for (auto& r : replies) {
        if (!r.get().ok()) throw std::runtime_error("warm-up request failed");
    }
    return service;
}

PassResult run_pass(serve::PlannerService& service, const std::vector<RequestInput>& inputs,
                    const std::vector<Phase>& phases, bool traced) {
    PassResult pass;
    pass.traced = traced;
    pass.tracer = Tracer(traced);
    std::vector<serve::PlanRequest> requests;
    requests.reserve(inputs.size());
    for (std::size_t i = 0; i < inputs.size(); ++i) requests.push_back(make_request(inputs[i], i));

    const double ring_offset_ms = now_ms() - service.trace_ring().now_ms();
    const serve::ServiceStats before = service.stats();
    pass.cache_before = before.cache;
    Generator generator(service, pass);
    const auto start = Clock::now();
    std::size_t next = 0;
    for (std::size_t p = 0; p < phases.size(); ++p) generator.run_phase(p, phases[p], requests, next);
    pass.elapsed_s = ms_between(start, Clock::now()) / 1000.0;
    pass.stats = service.stats();
    // Count only the timed phase (the warm-up ran on this service too).
    pass.stats.submitted -= before.submitted;
    pass.stats.completed -= before.completed;
    pass.stats.batches -= before.batches;

    if (traced) {
        // Request i carries id i; its spans are recorded after the fact from
        // the stamps the generator kept.
        for (std::size_t i = 0; i < pass.records.size(); ++i) {
            const Record& rec = pass.records[i];
            const int root = static_cast<int>(pass.tracer.spans().size());
            pass.tracer.add("serve.request", rec.due_ms, rec.done_ms, -1, i);
            pass.tracer.add("harness.generator_late", rec.due_ms, rec.send_ms, root, i);
            pass.tracer.add("serve.submit", rec.send_ms, rec.send_ms + rec.submit_us / 1000.0,
                            root, i);
        }
        add_service_spans(service.trace_spans(), ring_offset_ms, "serve.solve", pass.tracer);
    }
    return pass;
}

void check_pass(const serve::Snapshot& snapshot, const std::vector<RequestInput>& inputs,
                PassResult& pass, Check& check) {
    const serve::ServiceOptions options = service_options(false, 0);
    const std::size_t n = pass.records.size();
    const std::size_t stride = std::max<std::size_t>(1, n / kDirectSamples);
    for (std::size_t i = 0; i < n; ++i) {
        Record& rec = pass.records[i];
        if (rec.status != "ok") continue;
        ++check.checked;
        try {
            const cast::core::PlanEvaluator evaluator(snapshot.models(), inputs[i].workload,
                                                      {.reuse_aware = inputs[i].reuse_aware});
            const cast::core::TieringPlan plan(decisions_of(rec.plan));
            const auto t0 = Clock::now();
            const cast::core::PlanEvaluation ref = evaluator.evaluate(plan);
            check.reference_ms.push_back(ms_between(t0, Clock::now()));
            cast::core::Deployer::validate_plan(evaluator, plan);
            rec.ref = greedy_reference(snapshot.models(), inputs[i].workload, options.solver,
                                       inputs[i].reuse_aware);
            if (!ref.feasible || ref.utility != rec.utility ||
                ref.total_cost().value() != rec.cost) {
                check.fail("request " + std::to_string(i) +
                           ": plan disagrees with the reference evaluator");
                rec.status = "check_failed";
                continue;
            }
            if (i % stride == 0) {
                ++check.direct_compared;
                const serve::PlanResponse direct = serve::PlannerService::solve_direct(
                    snapshot, make_request(inputs[i], i), options);
                if (!direct.ok() || !direct.batch ||
                    !same_plan(plan_numbers(direct.batch->plan.decisions()), rec.plan) ||
                    direct.batch->evaluation.utility != rec.utility ||
                    direct.batch->evaluation.total_cost().value() != rec.cost ||
                    direct.batch->iterations != rec.iterations) {
                    check.fail("request " + std::to_string(i) +
                               ": service response differs from solve_direct");
                    rec.status = "check_failed";
                }
            }
        } catch (const std::exception& e) {
            check.fail("request " + std::to_string(i) + ": " + e.what());
            rec.status = "check_failed";
        }
    }
}

void write_pass(Json& json, const PassResult& pass, const std::vector<Phase>& phases) {
    json.begin_object().field("traced", pass.traced).field("elapsed_s", pass.elapsed_s);
    json.key("phases").begin_array();
    for (std::size_t p = 0; p < phases.size(); ++p) {
        json.begin_object()
            .field("name", phases[p].name)
            .field("rate", phases[p].rate)
            .field("seconds", phases[p].seconds)
            .field("start_ms", pass.phase_start_ms[p])
            .field("end_ms", pass.phase_end_ms[p])
            .end_object();
    }
    json.end_array();
    json.key("ops").begin_array();
    for (const Record& r : pass.records) {
        json.begin_object()
            .field("phase", static_cast<std::uint64_t>(r.phase))
            .field("due_ms", r.due_ms)
            .field("send_ms", r.send_ms)
            .field("submit_us", r.submit_us)
            .field("done_ms", r.done_ms)
            .field("latency_ms", r.done_ms - r.due_ms)
            .field("outstanding_at_send", static_cast<std::uint64_t>(r.outstanding_at_send))
            .field("reuse_aware", r.reuse_aware)
            .field("status", r.status)
            .field("ok", r.status == "ok")
            .field("queue_ms", r.queue_ms)
            .field("solve_ms", r.solve_ms)
            .field("coalesced", r.coalesced)
            .field("utility", r.utility)
            .field("cost", r.cost)
            .field("ref_utility", r.ref.utility)
            .field("ref_cost", r.ref.cost)
            .field("iterations", r.iterations)
            .field("exchange_attempts", r.exchange_attempts)
            .field("exchange_accepts", r.exchange_accepts)
            .field("budget_exhausted", r.budget_exhausted)
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
        .field("coalesced", pass.stats.coalesced);
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

void run_serve_open(const Args& args, Json& json) {
    // Set-up, repeated so setup_s can be reported as a median: profile the
    // models, build the snapshot, start the service and warm it.
    constexpr int kSetupRounds = 3;
    SetupTimes times;
    serve::SnapshotPtr snapshot;
    std::unique_ptr<serve::PlannerService> service;
    for (int round = 0; round < kSetupRounds; ++round) {
        service.reset();
        const auto t0 = Clock::now();
        std::optional<cast::model::PerfModelSet> models;
        {
            cast::ThreadPool pool(kServiceWorkers);
            models.emplace(profile_models(&pool));
        }
        times.profile_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
        const auto t1 = Clock::now();
        snapshot = serve::make_snapshot(std::move(*models));
        times.snapshot_ms.push_back(ms_between(t1, Clock::now()));
        service = warm_service(snapshot, args.seed, false, 0);
        times.setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
    }

    const double pass_seconds = args.trace ? args.seconds / 2.0 : args.seconds;
    const std::vector<Phase> phases = make_schedule(args.seed, pass_seconds);
    std::size_t total = 0;
    for (const Phase& p : phases) total += p.offsets_ms.size();
    const auto gen_start = Clock::now();
    std::vector<RequestInput> inputs;
    inputs.reserve(total);
    for (std::size_t i = 0; i < total; ++i) inputs.push_back(make_input(args.seed, i));
    const double gen_ms = ms_between(gen_start, Clock::now());

    std::vector<PassResult> passes;
    passes.push_back(run_pass(*service, inputs, phases, false));
    service.reset();
    if (args.trace) {
        // The traced pass gets its own warm, instrumented service over the
        // same snapshot.
        service = warm_service(snapshot, args.seed, true, total + kWarmupRequests);
        passes.push_back(run_pass(*service, inputs, phases, true));
        service.reset();
    }

    Check check;
    for (PassResult& pass : passes) check_pass(*snapshot, inputs, pass, check);

    begin_document(json, args,
                   {{"generator", 1}, {"service_dispatcher", 1},
                    {"service_workers", kServiceWorkers}},
                   times, gen_ms, total);
    json.field("slo_ms", service_options(false, 0).governor.latency_target_ms);
    json.key("passes").begin_array();
    for (const PassResult& pass : passes) write_pass(json, pass, phases);
    json.end_array();
    end_document(json, check);
}

}  // namespace e2e
