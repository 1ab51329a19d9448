// OverloadGovernor unit tests plus governed-PlannerService contract tests:
// the idle governor changes no bits, the degradation ladder is deterministic
// in its inputs, retries recover transient injected faults without changing
// bits, poisoned templates trip the per-template breaker, provably-late
// requests are shed, and the swap-storm guard suppresses eager cache clears.
#include "serve/governor.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "core/castpp.hpp"
#include "serve/service.hpp"
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

/// fast_options with an *idle* governor: enabled, but the latency target is
/// so loose that no test-scale backlog can reach the trim threshold.
ServiceOptions governed_idle_options(std::size_t workers) {
    ServiceOptions opts = fast_options(workers);
    opts.governor.enabled = true;
    opts.governor.latency_target_ms = 60'000.0;
    return opts;
}

PlanRequest batch_request(std::uint64_t id, std::uint64_t seed) {
    PlanRequest req;
    req.id = id;
    req.workload = workload_a();
    req.seed = seed;
    return req;
}

void expect_bit_identical(const PlanResponse& got, const PlanResponse& want) {
    ASSERT_EQ(got.status, want.status);
    ASSERT_EQ(got.batch.has_value(), want.batch.has_value());
    ASSERT_EQ(got.workflow.has_value(), want.workflow.has_value());
    if (got.batch) {
        EXPECT_EQ(got.batch->evaluation.utility, want.batch->evaluation.utility);
        EXPECT_EQ(got.batch->evaluation.total_runtime.value(),
                  want.batch->evaluation.total_runtime.value());
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
        ASSERT_EQ(got.workflow->plan.decisions.size(),
                  want.workflow->plan.decisions.size());
        for (std::size_t i = 0; i < got.workflow->plan.decisions.size(); ++i) {
            EXPECT_EQ(got.workflow->plan.decisions[i].tier,
                      want.workflow->plan.decisions[i].tier);
        }
    }
}

// ---------------------------------------------------------------------------
// OverloadGovernor unit tests (no service, fully deterministic).

TEST(OverloadGovernor, LevelNamesAreWireStable) {
    EXPECT_STREQ(degradation_level_name(DegradationLevel::kFull), "full");
    EXPECT_STREQ(degradation_level_name(DegradationLevel::kTrimmed), "trimmed");
    EXPECT_STREQ(degradation_level_name(DegradationLevel::kGreedy), "greedy");
    EXPECT_STREQ(degradation_level_name(DegradationLevel::kShed), "shed");
}

TEST(OverloadGovernor, ClassifyWalksTheLadderAtItsThresholds) {
    GovernorOptions opts;
    opts.enabled = true;
    OverloadGovernor governor(opts, /*workers=*/1, /*queue_capacity=*/100);

    EXPECT_EQ(governor.classify(0.0), DegradationLevel::kFull);
    EXPECT_EQ(governor.classify(0.99), DegradationLevel::kFull);
    EXPECT_EQ(governor.classify(1.0), DegradationLevel::kTrimmed);   // trim_pressure
    EXPECT_EQ(governor.classify(1.99), DegradationLevel::kTrimmed);
    EXPECT_EQ(governor.classify(2.0), DegradationLevel::kGreedy);    // greedy_pressure
    EXPECT_EQ(governor.classify(3.99), DegradationLevel::kGreedy);
    EXPECT_EQ(governor.classify(4.0), DegradationLevel::kShed);      // shed_pressure
    EXPECT_EQ(governor.classify(100.0), DegradationLevel::kShed);
}

TEST(OverloadGovernor, PressureIsEstimatedDrainTimeOverTheTarget) {
    GovernorOptions opts;
    opts.enabled = true;
    opts.latency_target_ms = 100.0;
    OverloadGovernor governor(opts, /*workers=*/2, /*queue_capacity=*/1000);

    EXPECT_EQ(governor.ewma_solve_ms(), 0.0);
    // Cold EWMA: only the occupancy backstop reads (8/1000 of shed = 4).
    EXPECT_DOUBLE_EQ(governor.pressure(8, 2), 8.0 / 1000.0 * 4.0);
    EXPECT_DOUBLE_EQ(governor.pressure(0, 2), 0.0);

    governor.record_solve_ms(50.0);
    EXPECT_DOUBLE_EQ(governor.ewma_solve_ms(), 50.0);  // first sample seeds
    // Backlog of 10 at 50ms each over 2 workers = 250ms drain; target 100ms.
    EXPECT_DOUBLE_EQ(governor.pressure(8, 2), 2.5);
    EXPECT_DOUBLE_EQ(governor.pressure(0, 0), 0.0);
}

TEST(OverloadGovernor, EwmaSeedsWithFirstSampleThenSmooths) {
    GovernorOptions opts;
    opts.enabled = true;
    opts.ewma_alpha = 0.5;
    OverloadGovernor governor(opts, 1, 10);

    governor.record_solve_ms(100.0);
    EXPECT_DOUBLE_EQ(governor.ewma_solve_ms(), 100.0);
    governor.record_solve_ms(50.0);
    EXPECT_DOUBLE_EQ(governor.ewma_solve_ms(), 75.0);
    governor.record_solve_ms(-1.0);  // garbage sample is ignored
    EXPECT_DOUBLE_EQ(governor.ewma_solve_ms(), 75.0);
}

// The cold-start backstop: a full queue must read as shed pressure even
// before any solve has seeded the EWMA.
TEST(OverloadGovernor, FullQueueShedsEvenWithColdEwma) {
    GovernorOptions opts;
    opts.enabled = true;
    OverloadGovernor governor(opts, 4, /*queue_capacity=*/16);

    EXPECT_DOUBLE_EQ(governor.pressure(16, 0), opts.shed_pressure);
    EXPECT_EQ(governor.classify(governor.pressure(16, 0)), DegradationLevel::kShed);
    // Half occupancy reads as half of shed pressure = greedy territory.
    EXPECT_DOUBLE_EQ(governor.pressure(8, 0), opts.shed_pressure / 2.0);
}

TEST(OverloadGovernor, ProvablyLateNeedsLatencyEvidence) {
    GovernorOptions opts;
    opts.enabled = true;
    OverloadGovernor governor(opts, /*workers=*/1, 100);

    // Unseeded EWMA: nothing is provable, whatever the backlog.
    EXPECT_FALSE(governor.provably_late(1.0, 50, 10));

    governor.record_solve_ms(100.0);
    EXPECT_TRUE(governor.provably_late(50.0, 1, 0));    // predicted 100 > 50
    EXPECT_FALSE(governor.provably_late(150.0, 1, 0));  // predicted 100 <= 150
    EXPECT_FALSE(governor.provably_late(0.0, 50, 10));  // no deadline declared
    // More workers drain the same backlog faster.
    OverloadGovernor wide(opts, /*workers=*/4, 100);
    wide.record_solve_ms(100.0);
    EXPECT_FALSE(wide.provably_late(50.0, 1, 0));  // predicted 25 <= 50
}

TEST(GovernorOptions, ApplyTrimsBudgetsDeterministically) {
    GovernorOptions gov;
    gov.trim_iter_factor = 0.25;
    gov.trim_wall_factor = 0.25;

    core::CastOptions opts;
    opts.annealing.iter_max = 20'000;
    opts.annealing.chains = 6;
    opts.annealing.max_wall_ms = 100.0;

    core::CastOptions full = opts;
    gov.apply(DegradationLevel::kFull, full);
    EXPECT_EQ(full.annealing.iter_max, 20'000);
    EXPECT_EQ(full.annealing.chains, 6);
    EXPECT_EQ(full.annealing.max_wall_ms, 100.0);

    core::CastOptions greedy = opts;  // kGreedy degrades by solver, not budget
    gov.apply(DegradationLevel::kGreedy, greedy);
    EXPECT_EQ(greedy.annealing.iter_max, 20'000);

    core::CastOptions trimmed = opts;
    gov.apply(DegradationLevel::kTrimmed, trimmed);
    EXPECT_EQ(trimmed.annealing.iter_max, 5'000);
    EXPECT_EQ(trimmed.annealing.chains, 3);
    EXPECT_EQ(trimmed.annealing.max_wall_ms, 25.0);

    // Floors: a tiny budget never trims to zero, and an unbudgeted request
    // (wall 0 = none) stays unbudgeted rather than gaining a zero budget.
    core::CastOptions tiny;
    tiny.annealing.iter_max = 2;
    tiny.annealing.chains = 1;
    tiny.annealing.max_wall_ms = 0.0;
    gov.apply(DegradationLevel::kTrimmed, tiny);
    EXPECT_GE(tiny.annealing.iter_max, 1);
    EXPECT_GE(tiny.annealing.chains, 1);
    EXPECT_EQ(tiny.annealing.max_wall_ms, 0.0);
}

TEST(GovernorOptions, ValidateRejectsAnInvertedLadder) {
    GovernorOptions opts;
    opts.trim_pressure = 2.0;
    opts.greedy_pressure = 1.0;  // below trim
    EXPECT_THROW(opts.validate(), PreconditionError);

    opts = {};
    opts.shed_pressure = opts.greedy_pressure / 2.0;  // below greedy
    EXPECT_THROW(opts.validate(), PreconditionError);

    opts = {};
    opts.ewma_alpha = 0.0;
    EXPECT_THROW(opts.validate(), PreconditionError);

    opts = {};
    opts.trim_iter_factor = 0.0;
    EXPECT_THROW(opts.validate(), PreconditionError);

    opts = {};
    opts.latency_target_ms = 0.0;
    EXPECT_THROW(opts.validate(), PreconditionError);
}

// ---------------------------------------------------------------------------
// Degradation ladder semantics through solve_direct (deterministic, no
// queue/timing in the loop).

// The acceptance bit-identity half that needs no service: kFull through the
// governor's apply() is a no-op, so a governed kFull solve_direct equals an
// ungoverned one bit-for-bit.
TEST(GovernedSolveDirect, FullLevelMatchesUngovernedSolve) {
    const auto snapshot = fresh_snapshot();
    const ServiceOptions plain = fast_options(1);
    ServiceOptions governed = governed_idle_options(1);

    for (std::uint64_t seed : {7u, 11u}) {
        const PlanRequest req = batch_request(seed, seed);
        const PlanResponse want =
            PlannerService::solve_direct(*snapshot, req, plain);
        const PlanResponse got = PlannerService::solve_direct(
            *snapshot, req, governed, nullptr, DegradationLevel::kFull);
        ASSERT_TRUE(want.ok());
        ASSERT_TRUE(got.ok()) << got.error;
        expect_bit_identical(got, want);
        EXPECT_EQ(got.degradation_level, DegradationLevel::kFull);
    }
}

// kGreedy must be exactly the greedy facade — a real feasible plan with no
// annealing iterations, for both batch and workflow requests.
TEST(GovernedSolveDirect, GreedyLevelIsTheGreedyFacadeBitForBit) {
    const auto snapshot = fresh_snapshot();
    const ServiceOptions opts = governed_idle_options(1);

    PlanRequest batch = batch_request(1, 7);
    const PlanResponse got = PlannerService::solve_direct(
        *snapshot, batch, opts, nullptr, DegradationLevel::kGreedy);
    ASSERT_TRUE(got.ok()) << got.error;
    EXPECT_EQ(got.degradation_level, DegradationLevel::kGreedy);
    ASSERT_TRUE(got.batch.has_value());
    EXPECT_EQ(got.batch->iterations, 0);  // no annealing ran
    EXPECT_TRUE(got.batch->evaluation.feasible);

    core::CastOptions solver = opts.solver;
    solver.annealing.seed = 7;
    const core::CastResult direct = core::plan_cast_greedy(
        snapshot->models(), *batch.workload, solver, /*reuse_aware=*/false);
    EXPECT_EQ(got.batch->evaluation.utility, direct.evaluation.utility);
    ASSERT_EQ(got.batch->plan.size(), direct.plan.size());
    for (std::size_t i = 0; i < direct.plan.size(); ++i) {
        EXPECT_EQ(got.batch->plan.decision(i).tier, direct.plan.decision(i).tier);
    }

    PlanRequest wf;
    wf.id = 2;
    wf.kind = RequestKind::kWorkflow;
    wf.workflow = workflow_c();
    wf.seed = 3;
    const PlanResponse wf_got = PlannerService::solve_direct(
        *snapshot, wf, opts, nullptr, DegradationLevel::kGreedy);
    ASSERT_TRUE(wf_got.ok()) << wf_got.error;
    ASSERT_TRUE(wf_got.workflow.has_value());
    EXPECT_EQ(wf_got.workflow->iterations, 0);
}

// kTrimmed equals an ungoverned solve whose budgets were shrunk by hand —
// the trim is a deterministic options transform, nothing more.
TEST(GovernedSolveDirect, TrimmedLevelEqualsManuallyTrimmedBudgets) {
    const auto snapshot = fresh_snapshot();
    ServiceOptions governed = governed_idle_options(1);
    const PlanRequest req = batch_request(1, 7);

    const PlanResponse trimmed = PlannerService::solve_direct(
        *snapshot, req, governed, nullptr, DegradationLevel::kTrimmed);
    ASSERT_TRUE(trimmed.ok()) << trimmed.error;
    EXPECT_EQ(trimmed.degradation_level, DegradationLevel::kTrimmed);

    ServiceOptions by_hand = fast_options(1);
    by_hand.solver.annealing.iter_max = std::max(
        1, static_cast<int>(150 * governed.governor.trim_iter_factor));
    by_hand.solver.annealing.chains = 1;  // 2 / 2
    const PlanResponse want = PlannerService::solve_direct(*snapshot, req, by_hand);
    ASSERT_TRUE(want.ok());
    expect_bit_identical(trimmed, want);
}

TEST(GovernedSolveDirect, ShedIsNotASolverMode) {
    const auto snapshot = fresh_snapshot();
    const PlanRequest req = batch_request(1, 7);
    EXPECT_THROW((void)PlannerService::solve_direct(*snapshot, req, fast_options(1),
                                                    nullptr, DegradationLevel::kShed),
                 PreconditionError);
}

// ---------------------------------------------------------------------------
// Governed PlannerService contract tests.

// The acceptance criterion: zero faults + idle governor leaves every service
// response bit-identical to the ungoverned direct solve, served at kFull on
// the first attempt, with every degradation/fault counter at zero.
TEST(GovernedPlannerService, IdleGovernorAndZeroFaultsChangeNoBits) {
    const auto truth_snapshot = fresh_snapshot();
    const ServiceOptions plain = fast_options(1);
    std::vector<PlanRequest> requests;
    for (std::uint64_t i = 0; i < 4; ++i) requests.push_back(batch_request(i + 1, 7 + i));
    std::vector<PlanResponse> truth;
    for (const PlanRequest& req : requests) {
        truth.push_back(PlannerService::solve_direct(*truth_snapshot, req, plain));
        ASSERT_TRUE(truth.back().ok());
    }

    PlannerService service(fresh_snapshot(), governed_idle_options(2));
    std::vector<std::future<PlanResponse>> futures;
    for (const PlanRequest& req : requests) futures.push_back(service.submit(req));
    for (std::size_t i = 0; i < futures.size(); ++i) {
        const PlanResponse got = futures[i].get();
        ASSERT_TRUE(got.ok()) << got.error;
        expect_bit_identical(got, truth[i]);
        EXPECT_EQ(got.degradation_level, DegradationLevel::kFull);
        EXPECT_EQ(got.attempts, 1);
    }

    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.served_full, requests.size());
    EXPECT_EQ(stats.served_trimmed, 0u);
    EXPECT_EQ(stats.served_greedy, 0u);
    EXPECT_EQ(stats.governor_shed, 0u);
    EXPECT_EQ(stats.deadline_shed, 0u);
    EXPECT_EQ(stats.solve_retries, 0u);
    EXPECT_EQ(stats.breaker_fastfail, 0u);
    EXPECT_EQ(stats.breaker_trips, 0u);
    EXPECT_GT(stats.ewma_solve_ms, 0.0);  // the governor was watching
    EXPECT_FALSE(stats.faults.any());
}

// Transient injected faults: the retry wrapper recovers every marked
// request, and — because the fault stream is independent of solver seeds —
// the recovered responses still carry exactly the no-fault bits.
TEST(GovernedPlannerService, RetriesRecoverTransientFaultsWithoutChangingBits) {
    const auto truth_snapshot = fresh_snapshot();
    const ServiceOptions plain = fast_options(1);
    std::vector<PlanRequest> requests;
    for (std::uint64_t i = 0; i < 6; ++i) requests.push_back(batch_request(i + 1, 7 + i));
    std::vector<PlanResponse> truth;
    for (const PlanRequest& req : requests) {
        truth.push_back(PlannerService::solve_direct(*truth_snapshot, req, plain));
    }

    ServiceOptions opts = governed_idle_options(2);
    opts.coalesce_identical = false;
    opts.faults.seed = 42;
    opts.faults.exception_prob = 1.0;  // every request marked...
    opts.faults.max_failed_attempts = 2;  // ...fails 1-2 tries, then recovers
    // retry.max_attempts defaults to 3 >= 1 + max_failed_attempts: always enough.

    PlannerService service(fresh_snapshot(), opts);
    std::vector<std::future<PlanResponse>> futures;
    for (const PlanRequest& req : requests) futures.push_back(service.submit(req));
    for (std::size_t i = 0; i < futures.size(); ++i) {
        const PlanResponse got = futures[i].get();
        ASSERT_TRUE(got.ok()) << got.error;
        EXPECT_GT(got.attempts, 1);  // marked: the first try threw
        expect_bit_identical(got, truth[i]);
    }

    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.completed, requests.size());
    EXPECT_EQ(stats.errors, 0u);
    EXPECT_GE(stats.solve_retries, requests.size());
    EXPECT_GT(stats.faults.injected_exceptions, 0u);
    EXPECT_EQ(stats.breaker_trips, 0u);  // recovered before any threshold
}

// A poisoned template (faults that never recover) exhausts its retry budget
// a bounded number of times, trips the per-template breaker, and every
// later reappearance fails fast without burning a worker.
TEST(GovernedPlannerService, PoisonedTemplateTripsTheBreakerThenFailsFast) {
    ServiceOptions opts = governed_idle_options(1);
    opts.coalesce_identical = false;
    opts.faults.seed = 42;
    opts.faults.exception_prob = 1.0;
    opts.faults.max_failed_attempts = 0;  // poisoned: every attempt fails
    opts.governor.retry = Backoff{.max_attempts = 2, .base_ms = 0.0};
    opts.governor.breaker =
        CircuitBreakerOptions{.failure_threshold = 3, .open_ms = 0.0,
                              .open_ops = 1'000'000};  // stays open for the test

    PlannerService service(fresh_snapshot(), opts);
    constexpr std::uint64_t kRequests = 6;
    std::vector<PlanResponse> responses;
    for (std::uint64_t i = 0; i < kRequests; ++i) {
        // Sequential (each .get() before the next submit) so the breaker
        // walk is exactly reproducible: same template => same breaker.
        responses.push_back(service.submit(batch_request(i + 1, 7)).get());
    }

    for (const PlanResponse& resp : responses) {
        EXPECT_EQ(resp.status, ResponseStatus::kError);
        EXPECT_FALSE(resp.error.empty());
    }
    // Request 1: 2 attempts fail (2 consecutive failures). Request 2: its
    // first failure is the 3rd consecutive -> the breaker trips open mid-
    // retry. Requests 3..6 fail fast without a solve attempt.
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.breaker_trips, 1u);
    EXPECT_EQ(stats.breaker_fastfail, kRequests - 2);
    EXPECT_EQ(stats.errors, kRequests);
    EXPECT_EQ(stats.completed, kRequests);  // errors are completed work
    EXPECT_EQ(responses.back().attempts, 1);  // fast-fail consumed no retries
}

// Deadline shedding at dispatch: a request whose deadline already elapsed
// while it queued is dropped as kShed/kRejected, never solved.
TEST(GovernedPlannerService, ElapsedDeadlineIsShedAtDispatch) {
    ServiceOptions opts = governed_idle_options(1);
    opts.coalesce_identical = false;
    opts.solver.annealing.iter_max = 2'000'000;
    opts.default_max_wall_ms = 50.0;  // the head request occupies the worker

    PlannerService service(fresh_snapshot(), opts);
    auto head = service.submit(batch_request(1, 5));  // no deadline

    PlanRequest late = batch_request(2, 6);
    late.deadline_ms = 0.01;  // will certainly elapse behind the ~50ms head
    auto late_future = service.submit(late);

    ASSERT_TRUE(head.get().ok());
    const PlanResponse resp = late_future.get();
    EXPECT_EQ(resp.status, ResponseStatus::kRejected);
    EXPECT_EQ(resp.degradation_level, DegradationLevel::kShed);
    EXPECT_FALSE(resp.error.empty());

    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.deadline_shed, 1u);
    EXPECT_EQ(stats.rejected, 1u);  // sheds are rejections, not completions
    EXPECT_EQ(stats.completed + stats.rejected, stats.submitted);
}

// Forced overload: with shed-level thresholds pinned to the floor, the
// first solve seeds the EWMA and everything behind the backlog sheds —
// counted as governor_shed and rejected, preserving the accounting
// invariant completed + rejected == submitted.
TEST(GovernedPlannerService, OverloadShedsAreCountedAsRejections) {
    ServiceOptions opts = fast_options(1);
    opts.coalesce_identical = false;
    opts.governor.enabled = true;
    opts.governor.latency_target_ms = 0.001;  // any seeded backlog is overload
    opts.governor.trim_pressure = 1e-6;
    opts.governor.greedy_pressure = 1e-6;
    opts.governor.shed_pressure = 1e-6;

    PlannerService service(fresh_snapshot(), opts);
    // First request dispatches against a cold EWMA (pressure 0 -> kFull).
    ASSERT_TRUE(service.submit(batch_request(1, 7)).get().ok());
    // Now the EWMA is seeded; the next dispatch sees backlog >= 1 in flight
    // and pressure far beyond the floor thresholds: shed.
    const PlanResponse resp = service.submit(batch_request(2, 8)).get();
    EXPECT_EQ(resp.status, ResponseStatus::kRejected);
    EXPECT_EQ(resp.degradation_level, DegradationLevel::kShed);
    // Shed responses carry no result object, so the echoed kind is the only
    // way a caller can tell what was dropped.
    EXPECT_EQ(resp.kind, RequestKind::kBatch);

    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.governor_shed, 1u);
    EXPECT_EQ(stats.completed + stats.rejected, stats.submitted);
}

// Satellite: the cancel token firing mid-batch (TSan lane). A concurrent
// cancel while a governed batch is in flight must drain every request as
// budget_exhausted — no hangs, no lost promises, no shed misaccounting.
TEST(GovernedPlannerService, CancelTokenFiringMidBatchDrainsEverything) {
    ServiceOptions opts = governed_idle_options(2);
    opts.coalesce_identical = false;
    opts.solver.annealing.iter_max = 2'000'000;
    opts.default_max_wall_ms = 5'000.0;  // would take seconds uncancelled

    PlannerService service(fresh_snapshot(), opts);
    std::vector<std::future<PlanResponse>> futures;
    for (std::uint64_t i = 0; i < 6; ++i) {
        futures.push_back(service.submit(batch_request(i + 1, i)));
    }

    std::thread canceller([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        service.cancel_inflight();
    });
    for (auto& future : futures) {
        const PlanResponse resp = future.get();
        ASSERT_TRUE(resp.ok()) << resp.error;
        EXPECT_TRUE(resp.budget_exhausted());
    }
    canceller.join();

    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.completed, futures.size());
    EXPECT_EQ(stats.completed + stats.rejected, stats.submitted);
}

}  // namespace
}  // namespace cast::serve
