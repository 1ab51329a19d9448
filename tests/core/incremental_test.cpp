// Incremental re-planning: delta application mappings, warm-start amend
// determinism (bit-identical at any worker count), neighborhood
// restriction, escalation triggers, the irrevocable online baseline, and
// the shared-cache arrival-storm hammer.
#include "core/incremental.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "core/castpp.hpp"
#include "core/eval_cache.hpp"
#include "test_support.hpp"
#include "workload/stream.hpp"

namespace cast::core {
namespace {

using cloud::StorageTier;
using workload::AppKind;
using workload::DeltaApplication;
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

workload::Workload mixed_workload() {
    return workload::Workload(
        {mk_job(1, AppKind::kSort, 320.0), mk_job(2, AppKind::kJoin, 240.0),
         mk_job(3, AppKind::kGrep, 480.0), mk_job(4, AppKind::kKMeans, 200.0),
         mk_job(5, AppKind::kSort, 160.0), mk_job(6, AppKind::kGrep, 280.0)});
}

CastOptions fast_options() {
    CastOptions o;
    o.annealing.iter_max = 1500;
    o.annealing.chains = 2;
    o.annealing.seed = 7;
    return o;
}

void expect_same_plan(const TieringPlan& a, const TieringPlan& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a.decisions()[i].tier, b.decisions()[i].tier) << "job " << i;
        EXPECT_EQ(a.decisions()[i].overprovision, b.decisions()[i].overprovision)
            << "job " << i;
    }
}

// ---------------------------------------------------------------------------
// apply_delta: the one shared definition of delta -> job-set mapping.
// ---------------------------------------------------------------------------

TEST(ApplyDelta, MapsSurvivorsArrivalsAndDepartures) {
    const workload::Workload base = mixed_workload();  // ids 1..6
    JobDelta delta;
    delta.departures = {2, 5};
    workload::JobSpec revised = mk_job(3, AppKind::kGrep, 512.0);
    delta.updates = {revised};
    delta.arrivals = {mk_job(10, AppKind::kJoin, 64.0), mk_job(11, AppKind::kSort, 96.0)};

    const DeltaApplication applied = workload::apply_delta(base, delta);

    // Survivors 1,3,4,6 keep relative order; arrivals append in delta order.
    ASSERT_EQ(applied.workload.size(), 6u);
    EXPECT_EQ(applied.workload.job(0).id, 1);
    EXPECT_EQ(applied.workload.job(1).id, 3);
    EXPECT_EQ(applied.workload.job(2).id, 4);
    EXPECT_EQ(applied.workload.job(3).id, 6);
    EXPECT_EQ(applied.workload.job(4).id, 10);
    EXPECT_EQ(applied.workload.job(5).id, 11);
    // The update actually replaced the spec.
    EXPECT_DOUBLE_EQ(applied.workload.job(1).input.value(), 512.0);

    const std::vector<std::size_t> want_from = {0, 2, 3, 5, DeltaApplication::kNoPrior,
                                                DeltaApplication::kNoPrior};
    EXPECT_EQ(applied.survivor_from, want_from);
    // changed = updated survivors + arrivals, new-index space.
    EXPECT_EQ(applied.changed, (std::vector<std::size_t>{1, 4, 5}));
    // departed = prior indices of ids 2 and 5.
    EXPECT_EQ(applied.departed, (std::vector<std::size_t>{1, 4}));
}

TEST(ApplyDelta, RejectsBadReferences) {
    const workload::Workload base = mixed_workload();
    {
        JobDelta d;
        d.departures = {99};
        EXPECT_THROW((void)workload::apply_delta(base, d), ValidationError);
    }
    {
        JobDelta d;
        d.departures = {2, 2};
        EXPECT_THROW((void)workload::apply_delta(base, d), ValidationError);
    }
    {
        JobDelta d;
        d.updates = {mk_job(99, AppKind::kSort, 10.0)};
        EXPECT_THROW((void)workload::apply_delta(base, d), ValidationError);
    }
    {
        JobDelta d;  // update targets a departing job
        d.departures = {3};
        d.updates = {mk_job(3, AppKind::kGrep, 1.0)};
        EXPECT_THROW((void)workload::apply_delta(base, d), ValidationError);
    }
    {
        JobDelta d;  // arrival reuses a live id
        d.arrivals = {mk_job(4, AppKind::kSort, 10.0)};
        EXPECT_THROW((void)workload::apply_delta(base, d), ValidationError);
    }
    {
        JobDelta d;  // arrival id appears twice in one delta
        d.arrivals = {mk_job(10, AppKind::kSort, 10.0), mk_job(10, AppKind::kJoin, 20.0)};
        EXPECT_THROW((void)workload::apply_delta(base, d), ValidationError);
    }
}

TEST(ApplyDelta, RevalidatesReuseGroupInvariants) {
    workload::JobSpec a = mk_job(1, AppKind::kSort, 100.0);
    workload::JobSpec b = mk_job(2, AppKind::kGrep, 100.0);
    a.reuse_group = 1;
    b.reuse_group = 1;
    const workload::Workload base({a, b});
    JobDelta d;  // drift one member's input -> group inputs differ
    workload::JobSpec revised = a;
    revised.input = GigaBytes{140.0};
    d.updates = {revised};
    EXPECT_THROW((void)workload::apply_delta(base, d), ValidationError);
}

TEST(StreamSynthesis, DeterministicChainedTrace) {
    const workload::Workload initial = mixed_workload();
    workload::StreamOptions opts;
    opts.steps = 5;
    opts.churn = 0.34;
    opts.update_fraction = 0.2;

    const std::vector<JobDelta> a = workload::synthesize_stream(initial, 42, opts);
    const std::vector<JobDelta> b = workload::synthesize_stream(initial, 42, opts);
    ASSERT_EQ(a.size(), 5u);
    ASSERT_EQ(b.size(), 5u);
    workload::Workload live = initial;
    for (std::size_t s = 0; s < a.size(); ++s) {
        ASSERT_EQ(a[s].departures, b[s].departures) << "step " << s;
        ASSERT_EQ(a[s].arrivals.size(), b[s].arrivals.size()) << "step " << s;
        for (std::size_t k = 0; k < a[s].arrivals.size(); ++k) {
            EXPECT_EQ(a[s].arrivals[k].id, b[s].arrivals[k].id);
            EXPECT_DOUBLE_EQ(a[s].arrivals[k].input.value(), b[s].arrivals[k].input.value());
        }
        // Departure count == arrival count, so the set size is invariant;
        // every delta applies cleanly to the chained job set.
        EXPECT_EQ(a[s].departures.size(), a[s].arrivals.size());
        live = workload::apply_delta(live, a[s]).workload;
        EXPECT_EQ(live.size(), initial.size());
    }
}

// ---------------------------------------------------------------------------
// IncrementalSolver.
// ---------------------------------------------------------------------------

class IncrementalTest : public ::testing::Test {
protected:
    static const CastResult& prior() {
        static const CastResult kPrior =
            plan_cast(testing::small_models(), mixed_workload(), fast_options());
        return kPrior;
    }

    static JobDelta small_delta() {
        JobDelta delta;
        delta.arrivals = {mk_job(10, AppKind::kJoin, 96.0)};
        delta.departures = {5};
        return delta;
    }
};

TEST_F(IncrementalTest, AmendBitIdenticalAcrossWorkerCounts) {
    const IncrementalSolver solver(testing::small_models(), fast_options());
    const AmendResult serial =
        solver.amend(mixed_workload(), prior().plan, small_delta(), nullptr);
    ASSERT_TRUE(serial.evaluation.feasible);

    for (const std::size_t workers : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
        ThreadPool pool(workers);
        EvalCache cache;
        const AmendResult pooled =
            solver.amend(mixed_workload(), prior().plan, small_delta(), &pool, &cache);
        SCOPED_TRACE("workers=" + std::to_string(workers));
        expect_same_plan(serial.plan, pooled.plan);
        EXPECT_EQ(serial.evaluation.utility, pooled.evaluation.utility);
        EXPECT_EQ(serial.neighborhood, pooled.neighborhood);
        EXPECT_EQ(serial.escalated_cold, pooled.escalated_cold);
    }
}

TEST_F(IncrementalTest, AmendQualityAtLeastGreedyShadow) {
    const IncrementalSolver solver(testing::small_models(), fast_options());
    const AmendResult out = solver.amend(mixed_workload(), prior().plan, small_delta());
    ASSERT_TRUE(out.evaluation.feasible);
    EXPECT_GT(out.shadow_utility, 0.0);
    // The escalation rule guarantees the amendment is never materially
    // worse than the deterministic greedy shadow of a cold solve.
    EXPECT_GE(out.evaluation.utility,
              solver.policy().escalate_below * out.shadow_utility);
}

TEST_F(IncrementalTest, EscalationForcedAndDisabled) {
    AmendPolicy forced;
    forced.escalate_below = 10.0;  // amend can never reach 10x the shadow
    const IncrementalSolver always(testing::small_models(), fast_options(), forced);
    const AmendResult hot = always.amend(mixed_workload(), prior().plan, small_delta());
    EXPECT_TRUE(hot.escalated_cold);
    ASSERT_TRUE(hot.evaluation.feasible);

    AmendPolicy off;
    off.escalate_below = 0.0;
    const IncrementalSolver never(testing::small_models(), fast_options(), off);
    const AmendResult cool = never.amend(mixed_workload(), prior().plan, small_delta());
    EXPECT_FALSE(cool.escalated_cold);
    ASSERT_TRUE(cool.evaluation.feasible);
}

TEST_F(IncrementalTest, FrozenSurvivorsKeepPriorDecisions) {
    AmendPolicy policy;
    policy.capacity_slack = 1e9;   // suppress the capacity side entirely
    policy.escalate_below = 0.0;   // and the escape hatch to a cold solve
    const IncrementalSolver solver(testing::small_models(), fast_options(), policy);
    JobDelta delta;
    delta.arrivals = {mk_job(10, AppKind::kJoin, 96.0)};
    const AmendResult out = solver.amend(mixed_workload(), prior().plan, delta);
    ASSERT_TRUE(out.evaluation.feasible);
    // Neighborhood is exactly the arrival; every survivor is frozen at its
    // prior decision.
    EXPECT_EQ(out.neighborhood, (std::vector<std::size_t>{6}));
    for (std::size_t i = 0; i < mixed_workload().size(); ++i) {
        EXPECT_EQ(out.plan.decision(i).tier, prior().plan.decision(i).tier) << "job " << i;
        EXPECT_EQ(out.plan.decision(i).overprovision,
                  prior().plan.decision(i).overprovision)
            << "job " << i;
    }
}

TEST_F(IncrementalTest, NeighborhoodClosesOverReuseGroups) {
    workload::JobSpec a = mk_job(1, AppKind::kSort, 200.0);
    workload::JobSpec b = mk_job(2, AppKind::kGrep, 200.0);
    a.reuse_group = 7;
    b.reuse_group = 7;
    const workload::Workload base({a, b, mk_job(3, AppKind::kJoin, 150.0)});
    const CastResult cold =
        plan_cast_plus_plus(testing::small_models(), base, fast_options());

    AmendPolicy policy;
    policy.capacity_slack = 1e9;
    policy.escalate_below = 0.0;
    const IncrementalSolver solver(testing::small_models(), fast_options(), policy,
                                   /*reuse_aware=*/true);
    JobDelta delta;
    workload::JobSpec joiner = mk_job(10, AppKind::kKMeans, 200.0);
    joiner.reuse_group = 7;  // arrival joins the live group
    delta.arrivals = {joiner};
    const AmendResult out = solver.amend(base, cold.plan, delta);
    // The arrival drags its whole reuse group into the neighborhood.
    EXPECT_EQ(out.neighborhood, (std::vector<std::size_t>{0, 1, 3}));
    ASSERT_TRUE(out.evaluation.feasible);
    // Eq. 7: the amended plan keeps the group on one tier.
    EXPECT_EQ(out.plan.decision(0).tier, out.plan.decision(1).tier);
    EXPECT_EQ(out.plan.decision(0).tier, out.plan.decision(3).tier);
}

// The repair sweep never re-checks pins per candidate, so it must draw its
// tiers from each unit's allowed_tiers: a pinned reuse group and a pinned
// arrival in the neighborhood stay on an objStore pin that unpinned, they
// would leave, and the warm start handed to the restricted anneal (and to
// the next sweep's seed check) stays legal.
TEST_F(IncrementalTest, RepairSweepKeepsPinsInTheNeighborhood) {
    workload::JobSpec a = mk_job(1, AppKind::kSort, 200.0);
    workload::JobSpec b = mk_job(2, AppKind::kGrep, 200.0);
    a.reuse_group = 7;
    b.reuse_group = 7;
    a.pinned_tier = StorageTier::kObjectStore;
    const workload::Workload base({a, b, mk_job(3, AppKind::kJoin, 150.0)});
    const CastResult cold =
        plan_cast_plus_plus(testing::small_models(), base, fast_options());

    AmendPolicy policy;
    policy.capacity_slack = 1e9;
    policy.escalate_below = 0.0;  // keep the repair + restricted-anneal path
    const IncrementalSolver solver(testing::small_models(), fast_options(), policy,
                                   /*reuse_aware=*/true);
    JobDelta delta;
    workload::JobSpec joiner = mk_job(10, AppKind::kKMeans, 200.0);
    joiner.reuse_group = 7;
    workload::JobSpec pinned = mk_job(11, AppKind::kJoin, 120.0);
    pinned.pinned_tier = StorageTier::kObjectStore;
    delta.arrivals = {joiner, pinned};
    const AmendResult out = solver.amend(base, cold.plan, delta);
    EXPECT_EQ(out.neighborhood, (std::vector<std::size_t>{0, 1, 3, 4}));
    EXPECT_FALSE(out.escalated_cold);
    ASSERT_TRUE(out.evaluation.feasible);
    EXPECT_TRUE(testing::respects_placement(out.workload, out.plan));
    EXPECT_EQ(out.plan.decision(0).tier, StorageTier::kObjectStore);
    EXPECT_EQ(out.plan.decision(4).tier, StorageTier::kObjectStore);
}

TEST_F(IncrementalTest, EmptyDeltaReturnsSurvivorsVerbatim) {
    const IncrementalSolver solver(testing::small_models(), fast_options());
    const AmendResult out = solver.amend(mixed_workload(), prior().plan, JobDelta{});
    expect_same_plan(out.plan, prior().plan);
    EXPECT_TRUE(out.neighborhood.empty());
    EXPECT_FALSE(out.escalated_cold);
    EXPECT_EQ(out.iterations, 0);
}

TEST_F(IncrementalTest, PlaceOnlineMatchesGreedyOnlyPolicy) {
    AmendPolicy greedy;
    greedy.greedy_only = true;
    const IncrementalSolver greedy_solver(testing::small_models(), fast_options(), greedy);
    const IncrementalSolver solver(testing::small_models(), fast_options());

    const AmendResult via_policy =
        greedy_solver.amend(mixed_workload(), prior().plan, small_delta());
    const AmendResult via_online =
        solver.place_online(mixed_workload(), prior().plan, small_delta());
    expect_same_plan(via_policy.plan, via_online.plan);
    EXPECT_TRUE(via_online.greedy_only);
    EXPECT_EQ(via_online.iterations, 0);
    EXPECT_FALSE(via_online.escalated_cold);
    // Survivors are irrevocable: id 5 departs, ids 1..4 and 6 land on new
    // indices 0..4 and must keep their prior decisions verbatim.
    for (std::size_t i = 0; i + 1 < via_online.plan.size(); ++i) {
        const std::size_t from = i < 4 ? i : i + 1;
        EXPECT_EQ(via_online.plan.decision(i).tier, prior().plan.decision(from).tier)
            << "survivor " << i;
    }
}

TEST_F(IncrementalTest, PinnedArrivalSeedsOnItsPin) {
    AmendPolicy policy;
    policy.greedy_only = true;
    const IncrementalSolver solver(testing::small_models(), fast_options(), policy);
    JobDelta delta;
    workload::JobSpec pinned = mk_job(10, AppKind::kJoin, 64.0);
    pinned.pinned_tier = StorageTier::kPersistentHdd;
    delta.arrivals = {pinned};
    const AmendResult out = solver.amend(mixed_workload(), prior().plan, delta);
    EXPECT_EQ(out.plan.decision(out.plan.size() - 1).tier, StorageTier::kPersistentHdd);
}

// Arrival storm: concurrent amend streams sharing ONE EvalCache must be
// bit-identical to serial streams with private caches (the cache is pure
// memoization). Run under TSan this is also the data-race hammer for the
// cache's locking on the amend path.
TEST_F(IncrementalTest, ArrivalStormSharedCacheMatchesSerial) {
    constexpr int kLanes = 4;
    constexpr int kSteps = 3;
    const IncrementalSolver solver(testing::small_models(), fast_options());

    workload::StreamOptions stream_opts;
    stream_opts.steps = kSteps;
    stream_opts.churn = 0.34;

    // Serial reference: each lane replayed alone with a private cache.
    std::vector<std::vector<AmendResult>> want(kLanes);
    for (int lane = 0; lane < kLanes; ++lane) {
        const std::vector<JobDelta> trace = workload::synthesize_stream(
            mixed_workload(), 100 + static_cast<std::uint64_t>(lane), stream_opts);
        EvalCache cache;
        workload::Workload live = mixed_workload();
        TieringPlan plan = prior().plan;
        for (const JobDelta& delta : trace) {
            AmendResult step = solver.amend(live, plan, delta, nullptr, &cache);
            live = step.workload;
            plan = step.plan;
            want[lane].push_back(std::move(step));
        }
    }

    EvalCache shared;
    std::vector<std::vector<AmendResult>> got(kLanes);
    std::vector<std::thread> threads;
    threads.reserve(kLanes);
    for (int lane = 0; lane < kLanes; ++lane) {
        threads.emplace_back([&, lane] {
            const std::vector<JobDelta> trace = workload::synthesize_stream(
                mixed_workload(), 100 + static_cast<std::uint64_t>(lane), stream_opts);
            workload::Workload live = mixed_workload();
            TieringPlan plan = prior().plan;
            for (const JobDelta& delta : trace) {
                AmendResult step = solver.amend(live, plan, delta, nullptr, &shared);
                live = step.workload;
                plan = step.plan;
                got[lane].push_back(std::move(step));
            }
        });
    }
    for (std::thread& t : threads) t.join();

    for (int lane = 0; lane < kLanes; ++lane) {
        ASSERT_EQ(got[lane].size(), want[lane].size());
        for (int s = 0; s < kSteps; ++s) {
            SCOPED_TRACE("lane=" + std::to_string(lane) + " step=" + std::to_string(s));
            expect_same_plan(got[lane][s].plan, want[lane][s].plan);
            EXPECT_EQ(got[lane][s].evaluation.utility, want[lane][s].evaluation.utility);
        }
    }
}

// The secretary-style regret comparison (arXiv:1901.07335): over one
// streaming trace, revising placements (amend) must not lose to the
// irrevocable online baseline that places each arrival once and never
// revisits. Everything here is deterministic, so the assertion is stable.
TEST_F(IncrementalTest, AmendDominatesIrrevocableOnlineBaseline) {
    const IncrementalSolver solver(testing::small_models(), fast_options());
    workload::StreamOptions stream_opts;
    stream_opts.steps = 4;
    stream_opts.churn = 0.34;
    const std::vector<JobDelta> trace =
        workload::synthesize_stream(mixed_workload(), 42, stream_opts);

    EvalCache amend_cache;
    EvalCache online_cache;
    workload::Workload amend_live = mixed_workload();
    TieringPlan amend_plan = prior().plan;
    workload::Workload online_live = mixed_workload();
    TieringPlan online_plan = prior().plan;
    double amend_total = 0.0;
    double online_total = 0.0;
    for (const JobDelta& delta : trace) {
        const AmendResult a =
            solver.amend(amend_live, amend_plan, delta, nullptr, &amend_cache);
        ASSERT_TRUE(a.evaluation.feasible);
        amend_live = a.workload;
        amend_plan = a.plan;
        amend_total += a.evaluation.utility;

        const AmendResult o =
            solver.place_online(online_live, online_plan, delta, &online_cache);
        ASSERT_TRUE(o.evaluation.feasible);
        online_live = o.workload;
        online_plan = o.plan;
        online_total += o.evaluation.utility;
    }
    EXPECT_GE(amend_total, online_total);
}

// Survivor runtimes are cache hits across amendments: a second amend over
// the same stream sees a strictly better hit rate than its cold start.
TEST_F(IncrementalTest, EvalCacheStaysWarmAcrossAmendments) {
    const IncrementalSolver solver(testing::small_models(), fast_options());
    EvalCache cache;
    const AmendResult first =
        solver.amend(mixed_workload(), prior().plan, small_delta(), nullptr, &cache);
    ASSERT_TRUE(first.evaluation.feasible);
    const EvalCacheStats after_first = cache.stats();

    JobDelta next;
    next.arrivals = {mk_job(11, AppKind::kGrep, 128.0)};
    const AmendResult second =
        solver.amend(first.workload, first.plan, next, nullptr, &cache);
    ASSERT_TRUE(second.evaluation.feasible);
    const EvalCacheStats after_second = cache.stats();
    EXPECT_GT(after_second.hits, after_first.hits);
    EXPECT_EQ(second.cache_stats.hits, after_second.hits);
}

}  // namespace
}  // namespace cast::core
