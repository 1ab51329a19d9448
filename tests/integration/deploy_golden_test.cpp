// Golden deployments: per-job makespans of a fixed 100-job workload plan
// and a fixed Fig. 9 workflow plan on the paper's 400-core cluster, pinned
// bit for bit to the simulator that preceded the vectorized flow engine.
#include <gtest/gtest.h>

#include "common/fnv1a.hpp"
#include "core/deployer.hpp"
#include "test_support.hpp"
#include "workload/facebook.hpp"

namespace cast::core {
namespace {

/// Tiers rotate by job index and over-provisioning cycles 1, 1.25, 1.5,
/// so the deployment mixes every tier, the staging legs and scaled volumes.
std::vector<PlacementDecision> rotating_decisions(std::size_t n) {
    std::vector<PlacementDecision> d;
    for (std::size_t i = 0; i < n; ++i) {
        d.push_back(PlacementDecision{cloud::kAllTiers[i % cloud::kTierCount],
                                      1.0 + 0.25 * static_cast<double>(i % 3)});
    }
    return d;
}

std::uint64_t makespans_fingerprint(const std::vector<sim::JobResult>& results) {
    Fnv1a h;
    for (const sim::JobResult& r : results) h.mix(r.makespan.value());
    return h.value();
}

TEST(DeployGolden, HundredJobPlanMakespansMatchGolden) {
    const workload::Workload workload = workload::synthesize_facebook_workload(42);
    ASSERT_EQ(workload.size(), 100u);
    const PlanEvaluator evaluator(testing::paper_models(), workload);
    const TieringPlan plan(rotating_decisions(workload.size()));

    const WorkloadDeployment dep = Deployer{}.deploy(evaluator, plan);
    ASSERT_EQ(dep.job_results.size(), 100u);
    EXPECT_EQ(dep.retry_count, 0);
    EXPECT_EQ(makespans_fingerprint(dep.job_results), 0x5364368150929c5cULL);
    EXPECT_EQ(dep.total_runtime.value(), 0x1.2ddd8870271adp+14);
}

TEST(DeployGolden, Fig9WorkflowMakespansMatchGolden) {
    const auto workflows = workload::synthesize_deadline_workflows(11);
    const workload::Workflow& wf = workflows.front();
    const WorkflowEvaluator evaluator(testing::paper_models(), wf);
    const WorkflowPlan plan{rotating_decisions(wf.size())};

    const WorkflowDeployment dep = Deployer{}.deploy_workflow(evaluator, plan);
    ASSERT_EQ(dep.job_results.size(), wf.size());
    EXPECT_EQ(makespans_fingerprint(dep.job_results), 0x407a20910d3f4186ULL);
    EXPECT_EQ(dep.total_runtime.value(), 0x1.4ccc2db60e9d3p+13);
}

}  // namespace
}  // namespace cast::core
