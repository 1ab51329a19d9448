#include "core/annealing.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "core/greedy.hpp"
#include "test_support.hpp"

namespace cast::core {
namespace {

using cloud::StorageTier;
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

workload::Workload mixed_workload() {
    // Sized so block tiers are genuinely competitive on the 5-VM test
    // cluster (per-VM volumes land in the Table 1 range).
    return workload::Workload(
        {mk_job(1, AppKind::kSort, 320.0), mk_job(2, AppKind::kJoin, 240.0),
         mk_job(3, AppKind::kGrep, 480.0), mk_job(4, AppKind::kKMeans, 200.0),
         mk_job(5, AppKind::kSort, 160.0), mk_job(6, AppKind::kGrep, 280.0)});
}

AnnealingOptions fast_options() {
    AnnealingOptions o;
    o.iter_max = 3000;
    o.chains = 2;
    o.seed = 17;
    return o;
}

TEST(Annealing, ImprovesOrMatchesInitialUtility) {
    PlanEvaluator eval(testing::small_models(), mixed_workload());
    const TieringPlan init = TieringPlan::uniform(6, StorageTier::kPersistentSsd);
    const double u_init = eval.evaluate(init).utility;
    AnnealingSolver solver(eval, fast_options());
    const AnnealingResult result = solver.solve(init);
    EXPECT_GE(result.evaluation.utility, u_init);
    EXPECT_TRUE(result.evaluation.feasible);
}

TEST(Annealing, BeatsOrMatchesGreedy) {
    // §4.2.2: annealing exists to fix greedy's myopia; on a mixed workload
    // it must never do worse than the greedy plan it starts from.
    PlanEvaluator eval(testing::small_models(), mixed_workload());
    const TieringPlan greedy_plan = GreedySolver(eval).solve();
    const double u_greedy = eval.evaluate(greedy_plan).utility;
    AnnealingSolver solver(eval, fast_options());
    const AnnealingResult result = solver.solve(greedy_plan);
    EXPECT_GE(result.evaluation.utility, u_greedy - 1e-12);
}

TEST(Annealing, DeterministicChain) {
    PlanEvaluator eval(testing::small_models(), mixed_workload());
    const TieringPlan init = TieringPlan::uniform(6, StorageTier::kPersistentSsd);
    AnnealingOptions opts = fast_options();
    opts.chains = 1;
    opts.seed = 123;
    AnnealingSolver solver(eval, opts);
    const auto a = solver.solve(init);
    const auto b = solver.solve(init);
    EXPECT_DOUBLE_EQ(a.evaluation.utility, b.evaluation.utility);
    for (std::size_t i = 0; i < a.plan.size(); ++i) {
        EXPECT_EQ(a.plan.decision(i).tier, b.plan.decision(i).tier);
        EXPECT_DOUBLE_EQ(a.plan.decision(i).overprovision, b.plan.decision(i).overprovision);
    }
}

TEST(Annealing, ParallelSolveMatchesSerialSolve) {
    PlanEvaluator eval(testing::small_models(), mixed_workload());
    const TieringPlan init = TieringPlan::uniform(6, StorageTier::kPersistentSsd);
    AnnealingSolver solver(eval, fast_options());
    ThreadPool pool(2);
    const auto serial = solver.solve(init, nullptr);
    const auto parallel = solver.solve(init, &pool);
    // Chains are seeded deterministically, so parallel == serial.
    EXPECT_DOUBLE_EQ(serial.evaluation.utility, parallel.evaluation.utility);
}

TEST(Annealing, RejectsInfeasibleInitialPlan) {
    const workload::Workload w({mk_job(1, AppKind::kSort, 4000.0)});
    PlanEvaluator eval(testing::small_models(), w);
    AnnealingSolver solver(eval, fast_options());
    EXPECT_THROW((void)solver.solve(TieringPlan::uniform(1, StorageTier::kEphemeralSsd)),
                 PreconditionError);
}

TEST(Annealing, GroupMovesPreserveEq7) {
    workload::Workload w({mk_job(1, AppKind::kGrep, 30.0, 1), mk_job(2, AppKind::kGrep, 30.0, 1),
                          mk_job(3, AppKind::kSort, 20.0), mk_job(4, AppKind::kKMeans, 25.0)});
    PlanEvaluator eval(testing::small_models(), w, EvalOptions{.reuse_aware = true});
    AnnealingOptions opts = fast_options();
    AnnealingSolver solver(eval, opts);
    const auto result = solver.solve(TieringPlan::uniform(4, StorageTier::kPersistentSsd));
    EXPECT_TRUE(testing::respects_placement(w, result.plan));
    EXPECT_TRUE(result.evaluation.feasible);
}

TEST(Annealing, DominatesEveryUniformConfiguration) {
    // Pooling capacity on one block tier boosts everyone's bandwidth
    // (Fig. 2), which can make a single-tier plan genuinely optimal for
    // homogeneous demand — but whatever the landscape, the annealed plan
    // must dominate all four non-tiered baselines (the Fig. 7 comparison
    // set), since each is reachable from any start.
    const workload::Workload w(
        {mk_job(1, AppKind::kSort, 800.0), mk_job(2, AppKind::kGrep, 1500.0),
         mk_job(3, AppKind::kKMeans, 1800.0), mk_job(4, AppKind::kJoin, 400.0)});
    PlanEvaluator eval(testing::small_models(), w);
    AnnealingOptions opts = fast_options();
    opts.iter_max = 8000;
    AnnealingSolver solver(eval, opts);
    const auto result = solver.solve(TieringPlan::uniform(4, StorageTier::kPersistentSsd));
    for (StorageTier t : cloud::kAllTiers) {
        const auto uniform = eval.evaluate(TieringPlan::uniform(4, t));
        if (!uniform.feasible) continue;
        EXPECT_GE(result.evaluation.utility, uniform.utility - 1e-12)
            << "lost to uniform " << cloud::tier_name(t) << "; found "
            << result.plan.summarize();
    }
}

TEST(Annealing, OptionValidation) {
    PlanEvaluator eval(testing::small_models(), mixed_workload());
    AnnealingOptions bad = fast_options();
    bad.cooling = 1.5;
    EXPECT_THROW(AnnealingSolver(eval, bad), PreconditionError);
    bad = fast_options();
    bad.iter_max = 0;
    EXPECT_THROW(AnnealingSolver(eval, bad), PreconditionError);
    bad = fast_options();
    bad.overprov_choices.clear();
    EXPECT_THROW(AnnealingSolver(eval, bad), PreconditionError);
    bad = fast_options();
    bad.chains = 0;
    EXPECT_THROW(AnnealingSolver(eval, bad), PreconditionError);
    bad = fast_options();
    bad.app_move_probability = 1.5;
    EXPECT_THROW(AnnealingSolver(eval, bad), PreconditionError);
    // Over-provisioning factors below 1 or not finite violate Eq. 3: they
    // must be rejected up front, not after the search has run.
    for (const double k : {0.5, std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
        bad = fast_options();
        bad.overprov_choices = {1.0, k};
        EXPECT_THROW(AnnealingSolver(eval, bad), PreconditionError) << "factor " << k;
    }
    // The active_jobs mask must cover the workload and flag some job.
    bad = fast_options();
    bad.active_jobs.assign(mixed_workload().size() + 1, 1);
    EXPECT_THROW(AnnealingSolver(eval, bad), PreconditionError);
    bad.active_jobs.assign(mixed_workload().size(), 0);
    EXPECT_THROW(AnnealingSolver(eval, bad), PreconditionError);
}

TEST(Annealing, AcceptedMovesCounted) {
    PlanEvaluator eval(testing::small_models(), mixed_workload());
    AnnealingOptions opts = fast_options();
    opts.chains = 1;
    opts.seed = 5;
    AnnealingSolver solver(eval, opts);
    const auto result = solver.solve(TieringPlan::uniform(6, StorageTier::kPersistentSsd));
    EXPECT_GT(result.accepted_moves, 0);
    EXPECT_EQ(result.iterations, fast_options().iter_max);
}

}  // namespace
}  // namespace cast::core
