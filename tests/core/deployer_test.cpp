#include "core/deployer.hpp"

#include <gtest/gtest.h>

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

workload::Workload small_workload() {
    return workload::Workload({mk_job(1, AppKind::kSort, 30.0),
                               mk_job(2, AppKind::kGrep, 40.0),
                               mk_job(3, AppKind::kKMeans, 20.0)});
}

TEST(Deployer, MeasuredRuntimeNearModeledRuntime) {
    PlanEvaluator eval(testing::small_models(), small_workload());
    const TieringPlan plan = TieringPlan::uniform(3, StorageTier::kPersistentSsd);
    const auto modeled = eval.evaluate(plan);
    ASSERT_TRUE(modeled.feasible);
    const auto measured = Deployer().deploy(eval, plan);
    EXPECT_EQ(measured.job_results.size(), 3u);
    // The Fig. 8 claim: the model tracks the measured deployment within a
    // modest error (the paper reports 7.9% average; allow 25% headroom).
    EXPECT_NEAR(measured.total_runtime.value() / modeled.total_runtime.value(), 1.0, 0.25);
}

TEST(Deployer, CostsUseSameFormulaAsEvaluator) {
    PlanEvaluator eval(testing::small_models(), small_workload());
    const TieringPlan plan = TieringPlan::uniform(3, StorageTier::kPersistentHdd);
    const auto dep = Deployer().deploy(eval, plan);
    const auto [vm, store] = eval.costs_for(dep.total_runtime, dep.capacities);
    EXPECT_DOUBLE_EQ(dep.vm_cost.value(), vm.value());
    EXPECT_DOUBLE_EQ(dep.storage_cost.value(), store.value());
    EXPECT_NEAR(dep.utility, tenant_utility(dep.total_runtime, dep.total_cost()), 1e-12);
}

TEST(Deployer, EphemeralJobsStageThroughObjectStore) {
    PlanEvaluator eval(testing::small_models(), small_workload());
    const auto dep =
        Deployer().deploy(eval, TieringPlan::uniform(3, StorageTier::kEphemeralSsd));
    for (const auto& r : dep.job_results) {
        EXPECT_GT(r.phases.stage_in.value(), 0.0);
        EXPECT_GT(r.phases.stage_out.value(), 0.0);
    }
}

TEST(Deployer, ReuseAwareDeploymentDownloadsOnce) {
    const workload::Workload w({mk_job(1, AppKind::kGrep, 40.0, 1),
                                mk_job(2, AppKind::kGrep, 40.0, 1),
                                mk_job(3, AppKind::kGrep, 40.0, 1)});
    PlanEvaluator aware(testing::small_models(), w, EvalOptions{.reuse_aware = true});
    const auto dep =
        Deployer().deploy(aware, TieringPlan::uniform(3, StorageTier::kEphemeralSsd));
    EXPECT_GT(dep.job_results[0].phases.stage_in.value(), 0.0);
    EXPECT_DOUBLE_EQ(dep.job_results[1].phases.stage_in.value(), 0.0);
    EXPECT_DOUBLE_EQ(dep.job_results[2].phases.stage_in.value(), 0.0);
}

TEST(Deployer, DeterministicForSeed) {
    PlanEvaluator eval(testing::small_models(), small_workload());
    const TieringPlan plan = TieringPlan::uniform(3, StorageTier::kPersistentSsd);
    const auto a = Deployer(sim::SimOptions{.seed = 3, .jitter_sigma = 0.06}).deploy(eval, plan);
    const auto b = Deployer(sim::SimOptions{.seed = 3, .jitter_sigma = 0.06}).deploy(eval, plan);
    EXPECT_DOUBLE_EQ(a.total_runtime.value(), b.total_runtime.value());
}

TEST(Deployer, WorkflowDeploymentRunsAllJobsAndTransfers) {
    const workload::Workflow wf = workload::make_search_log_workflow(Seconds{1e6});
    WorkflowEvaluator eval(testing::small_models(), wf);
    WorkflowPlan plan = WorkflowPlan::uniform(4, StorageTier::kPersistentSsd);
    plan.decisions[wf.index_of(3)] = {StorageTier::kEphemeralSsd, 1.0};
    const auto dep = Deployer().deploy_workflow(eval, plan);
    EXPECT_EQ(dep.job_results.size(), 4u);
    EXPECT_EQ(dep.transfer_times.size(), 3u);
    double transfers = 0.0;
    for (const auto& t : dep.transfer_times) transfers += t.value();
    EXPECT_GT(transfers, 0.0);  // Grep->Sort and Sort->Join cross tiers
    EXPECT_TRUE(dep.met_deadline);
    EXPECT_GT(dep.total_cost().value(), 0.0);
}

TEST(Deployer, WorkflowMidEphemeralJobDoesNotStage) {
    // A mid-workflow ephSSD job receives input via transfer and hands its
    // output to the next transfer; it must not pay objStore staging.
    const workload::Workflow wf = workload::make_search_log_workflow(Seconds{1e6});
    WorkflowEvaluator eval(testing::small_models(), wf);
    WorkflowPlan plan = WorkflowPlan::uniform(4, StorageTier::kPersistentSsd);
    const std::size_t sort = wf.index_of(3);  // has pred (Grep) and succ (Join)
    plan.decisions[sort] = {StorageTier::kEphemeralSsd, 1.0};
    const auto dep = Deployer().deploy_workflow(eval, plan);
    EXPECT_DOUBLE_EQ(dep.job_results[sort].phases.stage_in.value(), 0.0);
    EXPECT_DOUBLE_EQ(dep.job_results[sort].phases.stage_out.value(), 0.0);
}

TEST(Deployer, WorkflowModeledRuntimeTracksMeasured) {
    const workload::Workflow wf = workload::make_search_log_workflow(Seconds{1e6});
    WorkflowEvaluator eval(testing::small_models(), wf);
    const WorkflowPlan plan = WorkflowPlan::uniform(4, StorageTier::kPersistentSsd);
    const auto modeled = eval.evaluate(plan);
    const auto measured = Deployer().deploy_workflow(eval, plan);
    EXPECT_NEAR(measured.total_runtime.value() / modeled.total_runtime.value(), 1.0, 0.25);
}

TEST(Deployer, WorkflowCostsUseSameFormulaAsEvaluator) {
    // The deployed workflow and the planner's model must bill through the
    // one shared Eq. 5-6 implementation: for the same makespan and
    // capacities the costs are equal to the last bit, so modeled-vs-
    // deployed comparisons can never show phantom cost drift.
    const workload::Workflow wf = workload::make_search_log_workflow(Seconds{1e6});
    WorkflowEvaluator eval(testing::small_models(), wf);
    WorkflowPlan plan = WorkflowPlan::uniform(4, StorageTier::kPersistentSsd);
    plan.decisions[wf.index_of(3)] = {StorageTier::kEphemeralSsd, 1.0};
    const auto dep = Deployer().deploy_workflow(eval, plan);
    const auto [vm, store] =
        eq5_eq6_costs(CostRates(eval.models()), dep.total_runtime, dep.capacities);
    EXPECT_EQ(dep.vm_cost.value(), vm.value());
    EXPECT_EQ(dep.storage_cost.value(), store.value());

    // And the evaluator's own modeled costs come from the same formula.
    const auto modeled = eval.evaluate(plan);
    const auto [mvm, mstore] =
        eq5_eq6_costs(CostRates(eval.models()), modeled.total_runtime, modeled.capacities);
    EXPECT_EQ(modeled.vm_cost.value(), mvm.value());
    EXPECT_EQ(modeled.storage_cost.value(), mstore.value());
}

TEST(Deployer, WorkflowDeadlineMissDetected) {
    const workload::Workflow wf = workload::make_search_log_workflow(Seconds{1.0});
    WorkflowEvaluator eval(testing::small_models(), wf);
    const auto dep =
        Deployer().deploy_workflow(eval, WorkflowPlan::uniform(4, StorageTier::kPersistentSsd));
    EXPECT_FALSE(dep.met_deadline);
}

}  // namespace
}  // namespace cast::core
