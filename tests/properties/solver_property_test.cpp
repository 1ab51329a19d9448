// Parameterized property tests over the solvers: invariants that must hold
// for any seed and any workload shape.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "common/rng.hpp"
#include "core/castpp.hpp"
#include "test_support.hpp"

namespace cast::core {
namespace {

using cloud::StorageTier;
using workload::AppKind;

workload::Workload random_workload(std::uint64_t seed, std::size_t jobs,
                                   double share_fraction = 0.0) {
    Rng rng(seed);
    std::vector<workload::JobSpec> specs;
    const std::size_t group_every =
        share_fraction > 0.0 ? std::max<std::size_t>(2, static_cast<std::size_t>(
                                                            1.0 / share_fraction))
                             : 0;
    int group = 0;
    double group_gb = 0.0;
    AppKind group_app = AppKind::kSort;
    for (std::size_t i = 0; i < jobs; ++i) {
        AppKind app = workload::kAllApps[rng.below(workload::kAllApps.size())];
        double gb = rng.uniform(10.0, 400.0);
        std::optional<int> g;
        if (group_every > 0 && i % group_every <= 1) {
            // Pairs of adjacent jobs share input (recurring jobs).
            if (i % group_every == 0) {
                ++group;
                group_gb = gb;
                group_app = app;
            } else {
                gb = group_gb;
                app = group_app;
            }
            g = group;
        }
        const int maps = std::max(1, static_cast<int>(gb / 0.128));
        specs.push_back(workload::JobSpec{.id = static_cast<int>(i) + 1,
                                          .name = "rand-" + std::to_string(i),
                                          .app = app,
                                          .input = GigaBytes{gb},
                                          .map_tasks = maps,
                                          .reduce_tasks = std::max(1, maps / 4),
                                          .reuse_group = g});
    }
    return workload::Workload(std::move(specs));
}

AnnealingOptions quick_options(std::uint64_t seed) {
    AnnealingOptions o;
    o.iter_max = 2500;
    o.chains = 2;
    o.seed = seed;
    return o;
}

class SolverSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SolverSeedSweep, AnnealingNeverBelowFeasibleInitial) {
    const auto seed = GetParam();
    const auto w = random_workload(seed, 10);
    PlanEvaluator eval(testing::small_models(), w);
    const TieringPlan init = TieringPlan::uniform(w.size(), StorageTier::kPersistentSsd);
    const double u_init = eval.evaluate(init).utility;
    AnnealingSolver solver(eval, quick_options(seed));
    const auto result = solver.solve(init);
    EXPECT_GE(result.evaluation.utility, u_init - 1e-12);
    EXPECT_TRUE(result.evaluation.feasible);
}

TEST_P(SolverSeedSweep, ResultPlanIsAlwaysFeasibleAndComplete) {
    const auto seed = GetParam();
    const auto w = random_workload(seed, 12);
    PlanEvaluator eval(testing::small_models(), w);
    AnnealingSolver solver(eval, quick_options(seed ^ 0xabcd));
    const auto result =
        solver.solve(TieringPlan::uniform(w.size(), StorageTier::kPersistentHdd));
    EXPECT_EQ(result.plan.size(), w.size());
    const auto re_eval = eval.evaluate(result.plan);
    EXPECT_TRUE(re_eval.feasible);
    EXPECT_NEAR(re_eval.utility, result.evaluation.utility, 1e-12);
}

TEST_P(SolverSeedSweep, ReuseAwareSolverAlwaysSatisfiesEq7) {
    const auto seed = GetParam();
    const auto w = random_workload(seed, 12, /*share_fraction=*/0.35);
    PlanEvaluator eval(testing::small_models(), w, EvalOptions{.reuse_aware = true});
    AnnealingOptions opts = quick_options(seed * 3 + 1);
    AnnealingSolver solver(eval, opts);
    const auto result =
        solver.solve(TieringPlan::uniform(w.size(), StorageTier::kPersistentSsd));
    EXPECT_TRUE(testing::respects_placement(w, result.plan));
    EXPECT_TRUE(result.evaluation.feasible);
}

TEST_P(SolverSeedSweep, GreedyUtilityNonNegativeAndPlanComplete) {
    const auto seed = GetParam();
    const auto w = random_workload(seed + 500, 8);
    PlanEvaluator eval(testing::small_models(), w);
    GreedySolver greedy(eval);
    const auto plan = greedy.solve();
    EXPECT_EQ(plan.size(), w.size());
    for (std::size_t i = 0; i < w.size(); ++i) {
        EXPECT_GT(greedy.single_job_utility(w.job(i), plan.decision(i).tier,
                                            plan.decision(i).overprovision),
                  0.0)
            << "job " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverSeedSweep,
                         ::testing::Values(11u, 23u, 37u, 41u, 59u, 73u));

// ---------------------------------------------------------------------------
// Workflow solver sweeps.
// ---------------------------------------------------------------------------

class WorkflowSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

workload::Workflow random_chain_workflow(std::uint64_t seed, Seconds deadline) {
    Rng rng(seed);
    const int n = 3 + static_cast<int>(rng.below(4));
    std::vector<workload::JobSpec> jobs;
    std::vector<workload::WorkflowEdge> edges;
    for (int i = 0; i < n; ++i) {
        const AppKind app = workload::kAllApps[rng.below(workload::kAllApps.size())];
        const int maps = static_cast<int>(rng.between(100, 400));
        jobs.push_back(workload::JobSpec{.id = i + 1,
                                         .name = "wfrand-" + std::to_string(i),
                                         .app = app,
                                         .input = GigaBytes{maps * 0.128},
                                         .map_tasks = maps,
                                         .reduce_tasks = std::max(1, maps / 4),
                                         .reuse_group = std::nullopt});
        if (i > 0) {
            edges.push_back({.from_job = 1 + static_cast<int>(rng.below(
                                                static_cast<std::uint64_t>(i))),
                             .to_job = i + 1});
        }
    }
    return workload::Workflow("wfrand-" + std::to_string(seed), std::move(jobs),
                              std::move(edges), deadline);
}

TEST_P(WorkflowSeedSweep, GenerousDeadlineAlwaysMet) {
    const auto seed = GetParam();
    const auto wf = random_chain_workflow(seed, Seconds{1e6});
    WorkflowEvaluator eval(testing::small_models(), wf);
    AnnealingOptions opts = quick_options(seed);
    WorkflowSolver solver(eval, opts);
    const auto result = solver.solve();
    EXPECT_TRUE(result.evaluation.feasible);
    EXPECT_TRUE(result.evaluation.meets_deadline);
}

TEST_P(WorkflowSeedSweep, SolverNeverWorseThanBestUniform) {
    const auto seed = GetParam();
    const auto wf = random_chain_workflow(seed ^ 0x5555, Seconds{1e6});
    WorkflowEvaluator eval(testing::small_models(), wf);
    AnnealingOptions opts = quick_options(seed);
    WorkflowSolver solver(eval, opts);
    const auto result = solver.solve();
    // With an unmissable deadline, score == -cost, so the solver's result
    // must be at least as cheap as every feasible uniform plan at k = 1.
    for (StorageTier t : cloud::kAllTiers) {
        const auto uniform = eval.evaluate(WorkflowPlan::uniform(wf.size(), t));
        if (!uniform.feasible) continue;
        EXPECT_LE(result.evaluation.total_cost().value(),
                  uniform.total_cost().value() + 1e-9)
            << cloud::tier_name(t);
    }
}

TEST_P(WorkflowSeedSweep, ImpossibleDeadlineStillReturnsBestEffort) {
    const auto seed = GetParam();
    const auto wf = random_chain_workflow(seed ^ 0xaaaa, Seconds{1.0});
    WorkflowEvaluator eval(testing::small_models(), wf);
    WorkflowSolver solver(eval, quick_options(seed));
    const auto result = solver.solve();
    EXPECT_TRUE(result.evaluation.feasible);   // a plan exists
    EXPECT_FALSE(result.evaluation.meets_deadline);  // it just cannot meet 1 s
}

INSTANTIATE_TEST_SUITE_P(Seeds, WorkflowSeedSweep, ::testing::Values(3u, 7u, 19u, 31u));

}  // namespace
}  // namespace cast::core
