// Replica-exchange tempering: schedule arithmetic and the headline
// determinism claim — a tempered solve is
// bit-identical (exact double equality, not tolerance) at ANY worker
// count, because every (replica, round) segment draws from a seed that is
// a pure function of its coordinates and exchanges happen only at round
// barriers on the calling thread.
#include "core/tempering.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/fnv1a.hpp"
#include "core/annealing.hpp"
#include "core/castpp.hpp"
#include "core/eval_cache.hpp"
#include "test_support.hpp"
#include "workload/facebook.hpp"
#include "workload/workflow.hpp"

namespace cast::core {
namespace {

using cloud::StorageTier;
using workload::AppKind;

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

void expect_same_plan(const TieringPlan& a, const TieringPlan& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a.decisions()[i].tier, b.decisions()[i].tier) << "job " << i;
        EXPECT_EQ(a.decisions()[i].overprovision, b.decisions()[i].overprovision)
            << "job " << i;
    }
}

// ---------------------------------------------------------------------------
// Schedule arithmetic.
// ---------------------------------------------------------------------------

TEST(TemperingSchedule, RoundBoundariesClampToIterMax) {
    const TemperingSchedule sched(1000, 256, 4);
    EXPECT_EQ(sched.rounds(), 4);
    EXPECT_EQ(sched.replicas(), 4);
    EXPECT_EQ(sched.round_begin(0), 0);
    EXPECT_EQ(sched.round_end(0), 256);
    EXPECT_EQ(sched.round_begin(3), 768);
    EXPECT_EQ(sched.round_end(3), 1000);  // short last round

    const TemperingSchedule exact(1024, 256, 2);
    EXPECT_EQ(exact.rounds(), 4);
    EXPECT_EQ(exact.round_end(3), 1024);

    const TemperingSchedule tiny(10, 256, 2);
    EXPECT_EQ(tiny.rounds(), 1);
    EXPECT_EQ(tiny.round_end(0), 10);
}

TEST(TemperingSchedule, PairSweepAlternates) {
    // Even rounds sweep (0,1)(2,3)..., odd rounds (1,2)(3,4)... so a state
    // can traverse the whole ladder over consecutive rounds.
    EXPECT_EQ(TemperingSchedule::first_pair(0), 0);
    EXPECT_EQ(TemperingSchedule::first_pair(1), 1);
    EXPECT_EQ(TemperingSchedule::first_pair(2), 0);
    EXPECT_EQ(TemperingSchedule::first_pair(3), 1);
}

TEST(TemperingSchedule, SegmentSeedsArePureAndDistinct) {
    // Purity: the seed depends on nothing but (solve seed, replica, round).
    EXPECT_EQ(TemperingSchedule::segment_seed(1, 2, 3),
              TemperingSchedule::segment_seed(1, 2, 3));
    // Distinctness across each coordinate and against the exchange stream.
    const std::uint64_t base = TemperingSchedule::segment_seed(1, 2, 3);
    EXPECT_NE(base, TemperingSchedule::segment_seed(2, 2, 3));
    EXPECT_NE(base, TemperingSchedule::segment_seed(1, 3, 3));
    EXPECT_NE(base, TemperingSchedule::segment_seed(1, 2, 4));
    EXPECT_NE(base, TemperingSchedule::exchange_seed(1, 3));
    EXPECT_EQ(TemperingSchedule::exchange_seed(7, 0),
              TemperingSchedule::exchange_seed(7, 0));
    EXPECT_NE(TemperingSchedule::exchange_seed(7, 0),
              TemperingSchedule::exchange_seed(7, 1));
}

TEST(TemperingSchedule, ExchangeAcceptMatchesMetropolisRule) {
    // The hot replica found the lower energy (e_cold > e_hot): log_ratio
    // = Δβ·ΔE > 0, the swap is free whatever the draw.
    EXPECT_TRUE(exchange_accept(2.0, 1.0, 0.5, 0.0, 0.999));
    EXPECT_TRUE(exchange_accept(2.0, 1.0, 0.0, 0.0, 0.999));  // tie: log_ratio == 0
    // Cold is better by 1 energy unit with Δβ = 1 → p = e^-1 ≈ 0.368:
    // the caller's uniform decides.
    EXPECT_TRUE(exchange_accept(2.0, 1.0, -1.0, 0.0, 0.36));
    EXPECT_FALSE(exchange_accept(2.0, 1.0, -1.0, 0.0, 0.38));
    EXPECT_FALSE(exchange_accept(2.0, 1.0, -2.0, 0.0, 0.20));  // p = e^-2
}

// ---------------------------------------------------------------------------
// Worker-count determinism: the headline claim.
// ---------------------------------------------------------------------------

TEST(TemperingDeterminism, BatchSolveBitIdenticalAcross128Workers) {
    const PlanEvaluator eval(testing::small_models(), mixed_workload());
    AnnealingOptions opts;
    opts.iter_max = 1200;
    opts.chains = 4;
    opts.seed = 5;
    const AnnealingSolver solver(eval, opts);
    const TieringPlan init = TieringPlan::uniform(6, StorageTier::kPersistentSsd);

    const auto serial = solver.solve(init);
    ASSERT_TRUE(serial.evaluation.feasible);
    ASSERT_EQ(serial.tempering.replicas, 4);
    EXPECT_GT(serial.tempering.rounds, 0);
    EXPECT_GT(serial.tempering.total_attempts(), 0u);
    EXPECT_EQ(serial.iterations, opts.chains * opts.iter_max);

    for (const std::size_t workers : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
        ThreadPool pool(workers);
        const auto pooled = solver.solve(init, &pool);
        EXPECT_EQ(pooled.evaluation.utility, serial.evaluation.utility)
            << workers << " workers";
        EXPECT_EQ(pooled.evaluation.total_runtime.value(),
                  serial.evaluation.total_runtime.value());
        EXPECT_EQ(pooled.evaluation.vm_cost.value(), serial.evaluation.vm_cost.value());
        EXPECT_EQ(pooled.evaluation.storage_cost.value(),
                  serial.evaluation.storage_cost.value());
        EXPECT_EQ(pooled.best_chain, serial.best_chain);
        EXPECT_EQ(pooled.accepted_moves, serial.accepted_moves);
        EXPECT_EQ(pooled.infeasible_neighbors, serial.infeasible_neighbors);
        EXPECT_EQ(pooled.tempering.rounds, serial.tempering.rounds);
        EXPECT_EQ(pooled.tempering.exchange_attempts, serial.tempering.exchange_attempts);
        EXPECT_EQ(pooled.tempering.exchange_accepts, serial.tempering.exchange_accepts);
        EXPECT_EQ(pooled.tempering.replica_iterations, serial.tempering.replica_iterations);
        expect_same_plan(pooled.plan, serial.plan);
    }
}

TEST(TemperingDeterminism, WorkflowSolveBitIdenticalAcrossWorkerCounts) {
    const workload::Workflow wf = workload::make_search_log_workflow(Seconds{1e6});
    const WorkflowEvaluator eval(testing::small_models(), wf);
    AnnealingOptions opts;
    opts.iter_max = 400;
    opts.chains = 3;
    opts.seed = 9;
    const WorkflowSolver solver(eval, opts);

    const auto serial = solver.solve();
    ASSERT_TRUE(serial.evaluation.feasible);
    ASSERT_EQ(serial.tempering.replicas, 3);

    for (const std::size_t workers : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
        ThreadPool pool(workers);
        const auto pooled = solver.solve(&pool);
        EXPECT_EQ(pooled.evaluation.total_cost().value(),
                  serial.evaluation.total_cost().value())
            << workers << " workers";
        EXPECT_EQ(pooled.evaluation.total_runtime.value(),
                  serial.evaluation.total_runtime.value());
        EXPECT_EQ(pooled.best_chain, serial.best_chain);
        EXPECT_EQ(pooled.iterations, serial.iterations);
        EXPECT_EQ(pooled.tempering.exchange_attempts, serial.tempering.exchange_attempts);
        EXPECT_EQ(pooled.tempering.exchange_accepts, serial.tempering.exchange_accepts);
        ASSERT_EQ(pooled.plan.decisions.size(), serial.plan.decisions.size());
        for (std::size_t i = 0; i < serial.plan.decisions.size(); ++i) {
            EXPECT_EQ(pooled.plan.decisions[i].tier, serial.plan.decisions[i].tier);
            EXPECT_EQ(pooled.plan.decisions[i].overprovision,
                      serial.plan.decisions[i].overprovision);
        }
    }
}

// Golden Fig. 9 workflow solves: the five deadline workflows at default
// AnnealingOptions, pinned bit for bit to the full-re-evaluation solver
// that preceded delta evaluation. On the small test cluster no plan meets
// the 400-core deadlines, so these solves also exercise the overtime
// penalty. The plan fingerprint is FNV-1a over every decision's tier and
// over-provision bits.
struct WorkflowGolden {
    double cost;
    double runtime;
    int best_chain;
    int iterations;
    std::uint64_t exchange_accepts;
    std::uint64_t plan_fingerprint;
};

std::uint64_t plan_fingerprint(const WorkflowPlan& plan) {
    Fnv1a h;
    for (const PlacementDecision& d : plan.decisions) {
        h.mix(static_cast<std::uint64_t>(d.tier));
        h.mix(d.overprovision);
    }
    return h.value();
}

TEST(TemperingDeterminism, Fig9WorkflowSolvesMatchGoldenAtAnyWorkerCount) {
    const WorkflowGolden golden[] = {
        {0x1.2276a6a0c1075p+4, 0x1.c447eb2860eafp+12, 3, 120000, 142, 0x3096ed9c5aa8b386ULL},
        {0x1.3898f31e75988p+3, 0x1.f0e3a56abd9e1p+11, 0, 120000, 140, 0xcf0339223a9e67d3ULL},
        {0x1.42a04b6cd2a4p+3, 0x1.38e873504ee0fp+12, 0, 120000, 148, 0x3f72ae6dbd86aa72ULL},
        {0x1.5c1a6a64ee90ep+3, 0x1.284c7be9265e9p+12, 0, 120000, 142, 0xcdad456540782e50ULL},
        {0x1.6532c7784a202p+2, 0x1.700e6970906cbp+11, 0, 120000, 157, 0xb535195f91bf2b09ULL},
    };
    const auto workflows = workload::synthesize_deadline_workflows(11);
    ASSERT_EQ(workflows.size(), std::size(golden));
    for (const std::size_t workers : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
        ThreadPool pool(workers);
        for (std::size_t w = 0; w < workflows.size(); ++w) {
            SCOPED_TRACE(workflows[w].name() + ", " + std::to_string(workers) + " workers");
            const WorkflowEvaluator eval(testing::small_models(), workflows[w]);
            const WorkflowSolver solver(eval, AnnealingOptions{});
            const WorkflowSolveResult r = solver.solve(&pool);
            ASSERT_TRUE(r.evaluation.feasible);
            EXPECT_EQ(r.evaluation.total_cost().value(), golden[w].cost);
            EXPECT_EQ(r.evaluation.total_runtime.value(), golden[w].runtime);
            EXPECT_EQ(r.best_chain, golden[w].best_chain);
            EXPECT_EQ(r.iterations, golden[w].iterations);
            EXPECT_EQ(r.tempering.total_accepts(), golden[w].exchange_accepts);
            EXPECT_EQ(plan_fingerprint(r.plan), golden[w].plan_fingerprint);
        }
    }
}

TEST(TemperingDeterminism, TemperedSolveNeverLosesToItsStart) {
    // The explicit best-start floor in solve_tempering: whatever the
    // exchanges do, the answer can only improve on the best start plan.
    const PlanEvaluator eval(testing::small_models(), mixed_workload());
    AnnealingOptions opts;
    opts.iter_max = 600;
    opts.chains = 4;
    const AnnealingSolver solver(eval, opts);
    const TieringPlan init = TieringPlan::uniform(6, StorageTier::kPersistentSsd);
    const auto base = eval.evaluate(init);
    ASSERT_TRUE(base.feasible);
    const auto result = solver.solve(init);
    EXPECT_GE(result.evaluation.utility, base.utility);
}

// ---------------------------------------------------------------------------
// Replica hammer: many replicas racing on ONE shared EvalCache. The cache
// is value-deterministic, so contention may only change hit/miss counts —
// never the answer. Run under the TSan lane this is the data-race probe
// for the tempering hot path.
// ---------------------------------------------------------------------------

TEST(TemperingHammer, SharedCacheRacesNeverChangeTheAnswer) {
    const PlanEvaluator eval(testing::small_models(), mixed_workload());
    AnnealingOptions opts;
    opts.iter_max = 500;
    opts.chains = 8;
    opts.seed = 31;
    const AnnealingSolver solver(eval, opts);
    const TieringPlan init = TieringPlan::uniform(6, StorageTier::kPersistentSsd);

    EvalCache shared;
    ThreadPool pool(8);
    const auto first = solver.solve(init, &pool, &shared);
    ASSERT_TRUE(first.evaluation.feasible);
    for (int repeat = 0; repeat < 3; ++repeat) {
        const auto again = solver.solve(init, &pool, &shared);
        EXPECT_EQ(again.evaluation.utility, first.evaluation.utility) << repeat;
        EXPECT_EQ(again.accepted_moves, first.accepted_moves) << repeat;
        EXPECT_EQ(again.tempering.exchange_accepts, first.tempering.exchange_accepts);
        expect_same_plan(again.plan, first.plan);
    }
}

}  // namespace
}  // namespace cast::core
