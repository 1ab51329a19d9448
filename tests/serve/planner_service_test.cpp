// PlannerService contract tests: the service is a throughput layer, never a
// semantics layer — every response must be bit-identical to a direct solve
// of the same request, under any worker count, queue pressure, coalescing,
// cancellation, or a snapshot swap racing the dispatch.
#include "serve/service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "serve/snapshot.hpp"
#include "test_support.hpp"
#include "workload/workflow.hpp"

namespace cast::serve {
namespace {

using workload::AppKind;

workload::JobSpec mk_job(int id, AppKind app, double gb,
                         std::optional<int> group = std::nullopt) {
    const int maps = std::max(1, static_cast<int>(gb / 0.128));
    return workload::JobSpec{.id = id,
                             .name = "j" + std::to_string(id),
                             .app = app,
                             .input = GigaBytes{gb},
                             .map_tasks = maps,
                             .reduce_tasks = std::max(1, maps / 4),
                             .reuse_group = group};
}

workload::Workload workload_a() {
    return workload::Workload({mk_job(1, AppKind::kSort, 200.0),
                               mk_job(2, AppKind::kGrep, 150.0),
                               mk_job(3, AppKind::kJoin, 120.0)});
}

workload::Workload workload_b() {
    return workload::Workload({mk_job(1, AppKind::kKMeans, 90.0, 1),
                               mk_job(2, AppKind::kKMeans, 90.0, 1),
                               mk_job(3, AppKind::kSort, 260.0)});
}

workload::Workflow workflow_c() {
    return workload::Workflow(
        "wf", {mk_job(1, AppKind::kSort, 60.0), mk_job(2, AppKind::kGrep, 60.0)},
        {{1, 2}}, Seconds{36000.0});
}

SnapshotPtr fresh_snapshot() { return make_snapshot(testing::small_models()); }

/// Short-iteration solver config so each request solves in milliseconds.
ServiceOptions fast_options(std::size_t workers) {
    ServiceOptions opts;
    opts.workers = workers;
    opts.solver.annealing.iter_max = 150;
    opts.solver.annealing.chains = 2;
    return opts;
}

/// The mixed request mix used by the golden tests: two distinct batch
/// workloads (one duplicated → coalescing candidate), a reuse-aware solve,
/// and a workflow.
std::vector<PlanRequest> golden_requests() {
    std::vector<PlanRequest> requests;
    PlanRequest a;
    a.id = 1;
    a.workload = workload_a();
    a.seed = 7;
    requests.push_back(a);

    PlanRequest dup = a;  // identical content, new id: coalescable
    dup.id = 2;
    requests.push_back(dup);

    PlanRequest b;
    b.id = 3;
    b.workload = workload_b();
    b.reuse_aware = true;
    b.seed = 11;
    b.priority = Priority::kHigh;
    requests.push_back(b);

    PlanRequest wf;
    wf.id = 4;
    wf.kind = RequestKind::kWorkflow;
    wf.workflow = workflow_c();
    wf.seed = 3;
    wf.priority = Priority::kLow;
    requests.push_back(wf);
    return requests;
}

void expect_bit_identical(const PlanResponse& got, const PlanResponse& want) {
    ASSERT_EQ(got.status, want.status);
    ASSERT_EQ(got.batch.has_value(), want.batch.has_value());
    ASSERT_EQ(got.workflow.has_value(), want.workflow.has_value());
    if (got.batch) {
        EXPECT_EQ(got.batch->evaluation.utility, want.batch->evaluation.utility);
        EXPECT_EQ(got.batch->evaluation.total_runtime.value(),
                  want.batch->evaluation.total_runtime.value());
        EXPECT_EQ(got.batch->evaluation.total_cost().value(),
                  want.batch->evaluation.total_cost().value());
        ASSERT_EQ(got.batch->plan.size(), want.batch->plan.size());
        for (std::size_t i = 0; i < got.batch->plan.size(); ++i) {
            EXPECT_EQ(got.batch->plan.decision(i).tier, want.batch->plan.decision(i).tier);
            EXPECT_EQ(got.batch->plan.decision(i).overprovision,
                      want.batch->plan.decision(i).overprovision);
        }
    }
    if (got.workflow) {
        EXPECT_EQ(got.workflow->evaluation.total_runtime.value(),
                  want.workflow->evaluation.total_runtime.value());
        EXPECT_EQ(got.workflow->evaluation.total_cost().value(),
                  want.workflow->evaluation.total_cost().value());
        ASSERT_EQ(got.workflow->plan.decisions.size(),
                  want.workflow->plan.decisions.size());
        for (std::size_t i = 0; i < got.workflow->plan.decisions.size(); ++i) {
            EXPECT_EQ(got.workflow->plan.decisions[i].tier,
                      want.workflow->plan.decisions[i].tier);
            EXPECT_EQ(got.workflow->plan.decisions[i].overprovision,
                      want.workflow->plan.decisions[i].overprovision);
        }
    }
}

// The golden contract: for every worker count, service responses carry
// exactly the bits a direct solve produces — placements, utilities,
// runtimes and costs compare with == (no tolerance).
TEST(PlannerService, BitIdenticalToDirectSolveAcrossWorkerCounts) {
    const ServiceOptions direct_opts = fast_options(1);
    const auto truth_snapshot = fresh_snapshot();
    std::vector<PlanResponse> truth;
    for (const PlanRequest& request : golden_requests()) {
        truth.push_back(PlannerService::solve_direct(*truth_snapshot, request, direct_opts));
        ASSERT_TRUE(truth.back().ok());
    }

    for (const std::size_t workers : {1u, 2u, 8u}) {
        SCOPED_TRACE("workers=" + std::to_string(workers));
        PlannerService service(fresh_snapshot(), fast_options(workers));
        std::vector<std::future<PlanResponse>> futures;
        for (const PlanRequest& request : golden_requests()) {
            futures.push_back(service.submit(request));
        }
        for (std::size_t i = 0; i < futures.size(); ++i) {
            const PlanResponse got = futures[i].get();
            ASSERT_TRUE(got.ok()) << got.error;
            expect_bit_identical(got, truth[i]);
        }
    }
}

// A warm cache must not change bits either: replay the same mix twice on
// one service; the second pass (high hit rate) matches the first.
TEST(PlannerService, WarmCacheReplayIsBitIdentical) {
    PlannerService service(fresh_snapshot(), fast_options(2));
    auto run_once = [&] {
        std::vector<std::future<PlanResponse>> futures;
        for (const PlanRequest& request : golden_requests()) {
            futures.push_back(service.submit(request));
        }
        std::vector<PlanResponse> out;
        for (auto& f : futures) out.push_back(f.get());
        return out;
    };
    const auto cold = run_once();
    const auto warm = run_once();
    const auto stats = service.stats();
    EXPECT_GT(stats.cache.hits, 0u);
    for (std::size_t i = 0; i < cold.size(); ++i) {
        ASSERT_TRUE(warm[i].ok()) << warm[i].error;
        expect_bit_identical(warm[i], cold[i]);
    }
}

TEST(PlannerService, TinyBudgetFlagsExhaustionButStillPlans) {
    ServiceOptions opts = fast_options(2);
    opts.solver.annealing.iter_max = 2'000'000;
    opts.default_max_wall_ms = 1.0;

    PlannerService service(fresh_snapshot(), opts);
    std::vector<std::future<PlanResponse>> futures;
    for (const PlanRequest& request : golden_requests()) {
        futures.push_back(service.submit(request));
    }
    for (auto& future : futures) {
        const PlanResponse resp = future.get();
        ASSERT_TRUE(resp.ok()) << resp.error;
        EXPECT_TRUE(resp.budget_exhausted());
        if (resp.batch) {
            EXPECT_TRUE(resp.batch->evaluation.feasible);
        }
    }
}

TEST(PlannerService, BackpressureRejectsWhenQueueIsFull) {
    ServiceOptions opts = fast_options(1);
    opts.queue_capacity = 1;
    opts.coalesce_identical = false;
    opts.solver.annealing.iter_max = 2'000'000;
    opts.default_max_wall_ms = 50.0;  // each solve occupies the worker ~50ms

    PlannerService service(fresh_snapshot(), opts);
    PlanRequest request;
    request.workload = workload_a();
    request.seed = 5;

    std::vector<std::future<PlanResponse>> futures;
    for (std::uint64_t i = 0; i < 16; ++i) {
        request.id = i + 1;
        futures.push_back(service.submit(request));
    }
    std::size_t rejected = 0;
    for (auto& future : futures) {
        const PlanResponse resp = future.get();
        if (resp.status == ResponseStatus::kRejected) {
            ++rejected;
            EXPECT_FALSE(resp.error.empty());
        } else {
            ASSERT_TRUE(resp.ok()) << resp.error;
        }
    }
    // 16 instant submits against a 1-deep queue and ~50ms solves: most must
    // bounce, and the ones that got in must all have completed.
    EXPECT_GT(rejected, 0u);
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.rejected, rejected);
    EXPECT_EQ(stats.completed + stats.rejected, stats.submitted);
}

TEST(PlannerService, ErrorRequestFailsAloneWithoutPoisoningTheBatch) {
    PlannerService service(fresh_snapshot(), fast_options(2));
    PlanRequest bad;  // kBatch but no workload payload
    bad.id = 1;
    auto bad_future = service.submit(bad);

    PlanRequest good;
    good.id = 2;
    good.workload = workload_a();
    good.seed = 7;
    auto good_future = service.submit(good);

    const PlanResponse bad_resp = bad_future.get();
    EXPECT_EQ(bad_resp.status, ResponseStatus::kError);
    EXPECT_FALSE(bad_resp.error.empty());
    const PlanResponse good_resp = good_future.get();
    EXPECT_TRUE(good_resp.ok()) << good_resp.error;
}

TEST(PlannerService, CancelInflightDrainsQueuedWorkAsBudgetExhausted) {
    ServiceOptions opts = fast_options(1);
    opts.solver.annealing.iter_max = 2'000'000;
    opts.default_max_wall_ms = 5'000.0;  // would take seconds uncancelled
    opts.coalesce_identical = false;

    PlannerService service(fresh_snapshot(), opts);
    std::vector<std::future<PlanResponse>> futures;
    PlanRequest request;
    request.workload = workload_a();
    request.seed = 5;
    for (std::uint64_t i = 0; i < 3; ++i) {
        request.id = i + 1;
        futures.push_back(service.submit(request));
    }
    service.cancel_inflight();
    for (auto& future : futures) {
        const PlanResponse resp = future.get();
        ASSERT_TRUE(resp.ok()) << resp.error;
        EXPECT_TRUE(resp.budget_exhausted());
    }
}

// The TSan hammer: concurrent submitters race snapshot swaps mid-flight.
// Every response must still be valid, and every request solves against a
// coherent snapshot (its epoch is one that actually existed).
TEST(PlannerService, SnapshotSwapHammerUnderConcurrentSubmitters) {
    constexpr int kSubmitters = 3;
    constexpr int kPerSubmitter = 12;
    constexpr int kSwaps = 8;

    ServiceOptions opts = fast_options(4);
    opts.solver.annealing.iter_max = 60;
    opts.queue_capacity = 1024;

    PlannerService service(fresh_snapshot(), opts);
    std::atomic<std::uint64_t> next_id{1};
    std::vector<std::vector<std::future<PlanResponse>>> futures(kSubmitters);

    std::vector<std::thread> submitters;
    submitters.reserve(kSubmitters);
    for (int s = 0; s < kSubmitters; ++s) {
        submitters.emplace_back([&, s] {
            for (int i = 0; i < kPerSubmitter; ++i) {
                PlanRequest request;
                request.id = next_id.fetch_add(1, std::memory_order_relaxed);
                request.workload = (i % 2 == 0) ? workload_a() : workload_b();
                request.reuse_aware = (i % 2 == 1);
                request.seed = static_cast<std::uint64_t>(i);
                futures[static_cast<std::size_t>(s)].push_back(service.submit(request));
            }
        });
    }

    std::thread swapper([&] {
        for (int i = 0; i < kSwaps; ++i) {
            service.swap_snapshot(fresh_snapshot());
            std::this_thread::yield();
        }
    });

    for (auto& t : submitters) t.join();
    swapper.join();

    std::set<std::uint64_t> epochs;
    for (auto& lane : futures) {
        for (auto& future : lane) {
            const PlanResponse resp = future.get();
            ASSERT_TRUE(resp.ok()) << resp.error;
            epochs.insert(resp.snapshot_epoch);
        }
    }
    EXPECT_GE(epochs.size(), 1u);
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.snapshot_swaps, static_cast<std::uint64_t>(kSwaps));
    EXPECT_EQ(stats.completed, static_cast<std::uint64_t>(kSubmitters * kPerSubmitter));
    EXPECT_EQ(stats.errors, 0u);
}

// A swap drops the service's reference to the outgoing snapshot; the
// snapshot and its cache are freed with their last holder, and solves on
// either side of the swap keep their direct-solve bits.
TEST(PlannerService, SwapReleasesOutgoingSnapshot) {
    // One worker runs request tasks one after another, so the second
    // response proves the first request's task, and its snapshot
    // reference, are gone.
    const ServiceOptions opts = fast_options(1);
    SnapshotPtr first = fresh_snapshot();
    const std::weak_ptr<const Snapshot> watch = first;
    PlannerService service(first, opts);

    PlanRequest request;
    request.id = 1;
    request.workload = workload_a();
    request.seed = 7;
    const PlanResponse before = service.submit(request).get();
    ASSERT_TRUE(before.ok()) << before.error;
    EXPECT_EQ(before.snapshot_epoch, first->epoch());
    expect_bit_identical(before, PlannerService::solve_direct(*first, request, opts));

    const SnapshotPtr second = fresh_snapshot();
    service.swap_snapshot(second);
    first.reset();

    request.id = 2;
    const PlanResponse after = service.submit(request).get();
    ASSERT_TRUE(after.ok()) << after.error;
    EXPECT_EQ(after.snapshot_epoch, second->epoch());
    expect_bit_identical(after, PlannerService::solve_direct(*second, request, opts));
    EXPECT_TRUE(watch.expired());
}

// Coalesced duplicates must carry exactly the representative's bits, and a
// coalesced response says so.
TEST(PlannerService, CoalescingSharesBitsAcrossIdenticalRequests) {
    ServiceOptions opts = fast_options(1);
    opts.solver.annealing.iter_max = 2'000'000;
    opts.default_max_wall_ms = 40.0;  // first solve long enough to queue behind

    PlannerService service(fresh_snapshot(), opts);
    // Occupy the only worker so the identical requests below queue behind it
    // and attach to the first of them.
    PlanRequest head;
    head.id = 1;
    head.workload = workload_b();
    head.seed = 2;
    auto head_future = service.submit(head);

    PlanRequest request;
    request.workload = workload_a();
    request.seed = 9;
    std::vector<std::future<PlanResponse>> futures;
    for (std::uint64_t i = 0; i < 4; ++i) {
        request.id = 10 + i;
        futures.push_back(service.submit(request));
    }
    ASSERT_TRUE(head_future.get().ok());

    std::vector<PlanResponse> responses;
    for (auto& future : futures) responses.push_back(future.get());
    for (const PlanResponse& resp : responses) {
        ASSERT_TRUE(resp.ok()) << resp.error;
        expect_bit_identical(resp, responses.front());
    }
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.coalesced, static_cast<std::uint64_t>(std::count_if(
                                   responses.begin(), responses.end(),
                                   [](const PlanResponse& r) { return r.coalesced; })));
    EXPECT_GT(stats.coalesced, 0u);
}

/// Block until the request tasks have popped `n` requests in total.
void wait_until_popped(const PlannerService& service, std::uint64_t n) {
    while (service.stats().batches < n) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
}

/// A batch request that anneals until its wall budget runs out.
PlanRequest wall_bound_request(std::uint64_t id, workload::Workload workload,
                               double max_wall_ms) {
    PlanRequest request;
    request.id = id;
    request.workload = std::move(workload);
    request.seed = 9;
    request.max_wall_ms = max_wall_ms;
    return request;
}

/// Service options whose solves run until their request's wall budget.
ServiceOptions wall_bound_options(std::size_t workers) {
    ServiceOptions opts = fast_options(workers);
    opts.solver.annealing.iter_max = 2'000'000;
    return opts;
}

double ms_since(std::chrono::steady_clock::time_point from) {
    return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - from)
        .count();
}

// No batch barrier: with two workers, a request arriving while another is
// mid-solve starts at once on the idle worker instead of waiting for the
// running solve to finish.
TEST(PlannerService, IdleWorkerStartsRequestArrivingMidSolve) {
    PlannerService service(fresh_snapshot(), wall_bound_options(2));
    auto slow = service.submit(wall_bound_request(1, workload_a(), 300.0));
    wait_until_popped(service, 1);

    auto quick = service.submit(wall_bound_request(2, workload_b(), 5.0));
    const PlanResponse quick_resp = quick.get();
    EXPECT_EQ(slow.wait_for(std::chrono::seconds(0)), std::future_status::timeout)
        << "the 5 ms request resolved only after the 300 ms one";
    const PlanResponse slow_resp = slow.get();
    ASSERT_TRUE(quick_resp.ok()) << quick_resp.error;
    ASSERT_TRUE(slow_resp.ok()) << slow_resp.error;
    EXPECT_LT(quick_resp.queue_ms, slow_resp.solve_ms / 4.0);
}

// In-flight coalescing: an identical request submitted while its twin is
// being solved attaches to that solve and shares its bits; its timings
// still add up to its own submit-to-fulfill time, and the registry counts
// the attach exactly like the stats do.
TEST(PlannerService, IdenticalRequestMidSolveAttachesToItsTwin) {
    ServiceOptions opts = wall_bound_options(2);
    opts.obs.metrics = true;
    opts.obs.trace_capacity = 8;
    PlannerService service(fresh_snapshot(), opts);
    auto twin = service.submit(wall_bound_request(1, workload_a(), 200.0));
    wait_until_popped(service, 1);

    const auto submitted_at = std::chrono::steady_clock::now();
    auto dup = service.submit(wall_bound_request(2, workload_a(), 200.0));
    const PlanResponse dup_resp = dup.get();
    const double dup_elapsed_ms = ms_since(submitted_at);
    const PlanResponse twin_resp = twin.get();

    ASSERT_TRUE(twin_resp.ok()) << twin_resp.error;
    ASSERT_TRUE(dup_resp.ok()) << dup_resp.error;
    EXPECT_FALSE(twin_resp.coalesced);
    EXPECT_TRUE(dup_resp.coalesced);
    EXPECT_EQ(dup_resp.id, 2u);
    expect_bit_identical(dup_resp, twin_resp);
    EXPECT_GE(dup_resp.queue_ms, 0.0);
    EXPECT_GT(dup_resp.solve_ms, 0.0);
    EXPECT_LE(dup_resp.queue_ms + dup_resp.solve_ms, dup_elapsed_ms);
    EXPECT_GT(dup_resp.queue_ms + dup_resp.solve_ms, dup_elapsed_ms / 2.0);

    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.coalesced, 1u);
    EXPECT_EQ(stats.batches, 1u);  // the attached request is never popped
    EXPECT_EQ(stats.served_full, 2u);
    const obs::MetricsRegistry& reg = service.metrics();
    EXPECT_EQ(reg.counter_value("serve.requests.coalesced"), stats.coalesced);
    EXPECT_EQ(reg.counter_value("serve.governor.served_full"), stats.served_full);
    EXPECT_EQ(reg.histogram_count("serve.latency_ms.normal"), 2u);
    EXPECT_EQ(reg.histogram_count("serve.solve_ms"), 1u);  // one solve ran
    const auto spans = service.trace_spans();
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(std::count_if(spans.begin(), spans.end(),
                            [](const obs::TraceSpan& span) {
                                return span.events.back().detail == "coalesced";
                            }),
              1);
}

// The epoch is part of the coalescing key: after a swap, an identical
// request solves on the new snapshot rather than attaching to the solve
// still running on the old one.
TEST(PlannerService, IdenticalRequestAfterSwapSolvesOnTheNewEpoch) {
    PlannerService service(fresh_snapshot(), wall_bound_options(2));
    const std::uint64_t old_epoch = service.snapshot()->epoch();
    auto before = service.submit(wall_bound_request(1, workload_a(), 200.0));
    wait_until_popped(service, 1);

    service.swap_snapshot(fresh_snapshot());
    const std::uint64_t new_epoch = service.snapshot()->epoch();
    ASSERT_NE(new_epoch, old_epoch);
    auto after = service.submit(wall_bound_request(2, workload_a(), 200.0));
    const PlanResponse after_resp = after.get();
    const PlanResponse before_resp = before.get();

    ASSERT_TRUE(before_resp.ok()) << before_resp.error;
    ASSERT_TRUE(after_resp.ok()) << after_resp.error;
    EXPECT_EQ(before_resp.snapshot_epoch, old_epoch);
    EXPECT_EQ(after_resp.snapshot_epoch, new_epoch);
    EXPECT_FALSE(after_resp.coalesced);
    EXPECT_EQ(service.stats().coalesced, 0u);
}

// Request tasks keep the queue's order: whichever task runs pops the
// highest-priority queued request. With the one worker held by a
// wall-bound request, requests queued low, normal, high (in that order)
// complete high, normal, low.
TEST(PlannerService, QueuedRequestsCompleteInPriorityOrder) {
    ServiceOptions opts = wall_bound_options(1);
    opts.obs.trace_capacity = 8;
    PlannerService service(fresh_snapshot(), opts);
    auto blocker = service.submit(wall_bound_request(1, workload_a(), 200.0));
    wait_until_popped(service, 1);

    std::vector<std::future<PlanResponse>> futures;
    const Priority order[] = {Priority::kLow, Priority::kNormal, Priority::kHigh};
    for (std::uint64_t i = 0; i < 3; ++i) {
        PlanRequest request = wall_bound_request(2 + i, workload_b(), 5.0);
        request.seed = 20 + i;  // distinct requests: nothing coalesces
        request.priority = order[i];
        futures.push_back(service.submit(std::move(request)));
    }
    ASSERT_TRUE(blocker.get().ok());
    for (auto& future : futures) ASSERT_TRUE(future.get().ok());

    // One worker fulfils one request at a time, so the spans' push order is
    // the completion order.
    std::vector<std::uint64_t> completed;
    for (const obs::TraceSpan& span : service.trace_spans()) completed.push_back(span.id);
    EXPECT_EQ(completed, (std::vector<std::uint64_t>{1, 4, 3, 2}));
}

// Shutdown fulfils everything: destroying a service with requests solving
// and more queued behind them leaves no future unresolved, whether or not
// cancel_inflight() cut the solves short first.
TEST(PlannerService, DestructionFulfilsQueuedAndInflightRequests) {
    for (const bool cancel : {false, true}) {
        SCOPED_TRACE(cancel ? "cancel_inflight" : "drain");
        std::vector<std::future<PlanResponse>> futures;
        {
            ServiceOptions opts = wall_bound_options(2);
            opts.coalesce_identical = false;
            PlannerService service(fresh_snapshot(), opts);
            // Cancelled solves get budgets they could never finish alone.
            const double wall_ms = cancel ? 60'000.0 : 40.0;
            for (std::uint64_t i = 1; i <= 6; ++i) {
                futures.push_back(service.submit(wall_bound_request(i, workload_a(), wall_ms)));
            }
            wait_until_popped(service, 1);
            if (cancel) service.cancel_inflight();
        }
        for (auto& future : futures) {
            ASSERT_EQ(future.wait_for(std::chrono::seconds(0)), std::future_status::ready);
            const PlanResponse resp = future.get();
            ASSERT_TRUE(resp.ok()) << resp.error;
            EXPECT_TRUE(resp.budget_exhausted());
        }
    }
}

}  // namespace
}  // namespace cast::serve
