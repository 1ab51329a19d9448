// Amend requests through the PlannerService: the plan store (batch
// handle= writes, amend advances), bit-identity to the direct
// IncrementalSolver, line-of-duty error paths, the governor's greedy rung
// mapping, and the solver.incremental.* instruments mirroring ServiceStats.
#include "serve/service.hpp"

#include <gtest/gtest.h>

#include <future>
#include <string>
#include <vector>

#include "core/incremental.hpp"
#include "serve/snapshot.hpp"
#include "test_support.hpp"

namespace cast::serve {
namespace {

using workload::AppKind;
using workload::JobDelta;

workload::JobSpec mk_job(int id, AppKind app, double gb) {
    const int maps = std::max(1, static_cast<int>(gb / 0.128));
    return workload::JobSpec{.id = id,
                             .name = "j" + std::to_string(id),
                             .app = app,
                             .input = GigaBytes{gb},
                             .map_tasks = maps,
                             .reduce_tasks = std::max(1, maps / 4)};
}

workload::Workload workload_a() {
    return workload::Workload({mk_job(1, AppKind::kSort, 200.0),
                               mk_job(2, AppKind::kGrep, 150.0),
                               mk_job(3, AppKind::kJoin, 120.0)});
}

SnapshotPtr fresh_snapshot() { return make_snapshot(testing::small_models()); }

ServiceOptions fast_options(std::size_t workers) {
    ServiceOptions opts;
    opts.workers = workers;
    opts.solver.annealing.iter_max = 150;
    opts.solver.annealing.chains = 2;
    opts.amend.min_iters = 150;
    opts.amend.max_iters = 600;
    return opts;
}

PlanRequest batch_request(std::uint64_t id, const std::string& handle) {
    PlanRequest req;
    req.id = id;
    req.workload = workload_a();
    req.seed = 7;
    req.plan_handle = handle;
    return req;
}

PlanRequest amend_request(std::uint64_t id, const std::string& handle, JobDelta delta) {
    PlanRequest req;
    req.id = id;
    req.kind = RequestKind::kAmend;
    req.plan_handle = handle;
    req.seed = 7;
    req.delta = std::move(delta);
    return req;
}

JobDelta arrival_delta() {
    JobDelta delta;
    delta.arrivals = {mk_job(10, AppKind::kKMeans, 96.0)};
    delta.departures = {2};
    return delta;
}

void expect_same_plan(const core::TieringPlan& a, const core::TieringPlan& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a.decision(i).tier, b.decision(i).tier) << "job " << i;
        EXPECT_EQ(a.decision(i).overprovision, b.decision(i).overprovision) << "job " << i;
    }
}

TEST(AmendService, BatchHandleStoresSolvedPlan) {
    PlannerService service(fresh_snapshot(), fast_options(2));
    const PlanResponse resp = service.submit(batch_request(1, "live")).get();
    ASSERT_TRUE(resp.ok());
    ASSERT_TRUE(resp.batch.has_value());

    const auto stored = service.stored_plan("live");
    ASSERT_TRUE(stored.has_value());
    EXPECT_EQ(stored->workload.size(), workload_a().size());
    EXPECT_FALSE(stored->reuse_aware);
    expect_same_plan(stored->plan, resp.batch->plan);
    EXPECT_FALSE(service.stored_plan("nope").has_value());
}

TEST(AmendService, AmendMatchesDirectIncrementalSolverAndAdvancesStore) {
    const ServiceOptions opts = fast_options(2);
    PlannerService service(fresh_snapshot(), opts);
    const PlanResponse solved = service.submit(batch_request(1, "live")).get();
    ASSERT_TRUE(solved.ok());

    const PlanResponse amended =
        service.submit(amend_request(2, "live", arrival_delta())).get();
    ASSERT_TRUE(amended.ok());
    EXPECT_EQ(amended.kind, RequestKind::kAmend);
    ASSERT_TRUE(amended.batch.has_value());
    EXPECT_GT(amended.neighborhood_size, 0u);

    // Ground truth: the same amend computed directly. The service's warm
    // snapshot cache is bit-transparent, so a fresh solve must agree.
    core::CastOptions solver_opts = opts.solver;
    solver_opts.annealing.seed = 7;
    const core::IncrementalSolver direct(testing::small_models(), solver_opts, opts.amend);
    const core::AmendResult want =
        direct.amend(workload_a(), solved.batch->plan, arrival_delta());
    expect_same_plan(amended.batch->plan, want.plan);
    EXPECT_EQ(amended.batch->evaluation.utility, want.evaluation.utility);
    EXPECT_EQ(amended.neighborhood_size, want.neighborhood.size());
    EXPECT_EQ(amended.escalated_cold, want.escalated_cold);

    // The store advanced: the stored workload is now the post-delta set and
    // the stored plan is the amended plan.
    const auto stored = service.stored_plan("live");
    ASSERT_TRUE(stored.has_value());
    EXPECT_EQ(stored->workload.size(), want.workload.size());
    EXPECT_EQ(stored->workload.job(stored->workload.size() - 1).id, 10);
    expect_same_plan(stored->plan, want.plan);
}

TEST(AmendService, SequentialAmendsChainOnOneHandle) {
    PlannerService service(fresh_snapshot(), fast_options(2));
    ASSERT_TRUE(service.submit(batch_request(1, "live")).get().ok());

    JobDelta first;
    first.arrivals = {mk_job(10, AppKind::kKMeans, 96.0)};
    JobDelta second;
    second.departures = {1};
    second.arrivals = {mk_job(11, AppKind::kSort, 64.0)};

    ASSERT_TRUE(service.submit(amend_request(2, "live", first)).get().ok());
    ASSERT_TRUE(service.submit(amend_request(3, "live", second)).get().ok());

    const auto stored = service.stored_plan("live");
    ASSERT_TRUE(stored.has_value());
    // ids 1 departs; 2, 3 survive; 10 and 11 arrived.
    ASSERT_EQ(stored->workload.size(), 4u);
    EXPECT_EQ(stored->workload.job(0).id, 2);
    EXPECT_EQ(stored->workload.job(1).id, 3);
    EXPECT_EQ(stored->workload.job(2).id, 10);
    EXPECT_EQ(stored->workload.job(3).id, 11);

    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.amend_requests, 2u);
}

TEST(AmendService, UnknownHandleAndMissingDeltaAreErrors) {
    PlannerService service(fresh_snapshot(), fast_options(1));
    const PlanResponse ghost =
        service.submit(amend_request(1, "ghost", arrival_delta())).get();
    EXPECT_EQ(ghost.status, ResponseStatus::kError);
    EXPECT_NE(ghost.error.find("ghost"), std::string::npos);

    PlanRequest no_delta;
    no_delta.id = 2;
    no_delta.kind = RequestKind::kAmend;
    no_delta.plan_handle = "live";
    const PlanResponse missing = service.submit(no_delta).get();
    EXPECT_EQ(missing.status, ResponseStatus::kError);

    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.errors, 2u);
}

TEST(AmendService, SolveDirectRejectsAmends) {
    const SnapshotPtr snap = fresh_snapshot();
    const PlanRequest req = amend_request(1, "live", arrival_delta());
    EXPECT_THROW((void)PlannerService::solve_direct(*snap, req, fast_options(1)),
                 PreconditionError);
}

TEST(AmendService, ForcedEscalationCountsInStats) {
    ServiceOptions opts = fast_options(1);
    opts.amend.escalate_below = 10.0;  // no amend can reach 10x the shadow
    PlannerService service(fresh_snapshot(), opts);
    ASSERT_TRUE(service.submit(batch_request(1, "live")).get().ok());
    const PlanResponse amended =
        service.submit(amend_request(2, "live", arrival_delta())).get();
    ASSERT_TRUE(amended.ok());
    EXPECT_TRUE(amended.escalated_cold);
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.amend_requests, 1u);
    EXPECT_EQ(stats.amend_escalations, 1u);
}

TEST(AmendService, MetricsMirrorAmendCounters) {
    ServiceOptions opts = fast_options(2);
    opts.obs.metrics = true;
    PlannerService service(fresh_snapshot(), opts);
    ASSERT_TRUE(service.submit(batch_request(1, "live")).get().ok());
    ASSERT_TRUE(service.submit(amend_request(2, "live", arrival_delta())).get().ok());
    JobDelta next;
    next.arrivals = {mk_job(11, AppKind::kGrep, 48.0)};
    ASSERT_TRUE(service.submit(amend_request(3, "live", next)).get().ok());

    const ServiceStats stats = service.stats();
    const obs::MetricsRegistry& reg = service.metrics();
    EXPECT_EQ(stats.amend_requests, 2u);
    EXPECT_EQ(reg.counter_value("solver.incremental.amends"), stats.amend_requests);
    EXPECT_EQ(reg.counter_value("solver.incremental.escalations"),
              stats.amend_escalations);
    EXPECT_EQ(reg.counter_value("solver.incremental.greedy_amends"), stats.amend_greedy);
    // One neighborhood-size observation per amend; the cache-hit-rate gauge
    // carries the last amend's EvalCache reading.
    EXPECT_EQ(reg.histogram_count("solver.incremental.neighborhood_jobs"),
              stats.amend_requests);
    EXPECT_GE(reg.gauge_value("solver.incremental.amend_cache_hit_rate"), 0.0);
    EXPECT_LE(reg.gauge_value("solver.incremental.amend_cache_hit_rate"), 1.0);
}

TEST(AmendService, AmendsNeverCoalesceEvenWhenIdentical) {
    ServiceOptions opts = fast_options(1);
    PlannerService service(fresh_snapshot(), opts);
    ASSERT_TRUE(service.submit(batch_request(1, "live")).get().ok());

    // Two amends with identical content: the first applies (arrival id 10),
    // the second must NOT be served the first's bits — it re-runs against
    // the advanced store and fails (id 10 now lives there).
    std::future<PlanResponse> f1 = service.submit(amend_request(2, "live", arrival_delta()));
    std::future<PlanResponse> f2 = service.submit(amend_request(3, "live", arrival_delta()));
    const PlanResponse r1 = f1.get();
    const PlanResponse r2 = f2.get();
    const bool first_ok = r1.ok();
    const bool second_ok = r2.ok();
    EXPECT_TRUE(first_ok || second_ok);
    EXPECT_FALSE(first_ok && second_ok);  // duplicate id rejected on replay
    EXPECT_FALSE(r1.coalesced);
    EXPECT_FALSE(r2.coalesced);
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.coalesced, 0u);
}

}  // namespace
}  // namespace cast::serve
