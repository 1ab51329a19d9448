// Parameterized property tests over workflow DAG utilities and the
// workflow evaluator, across random DAG shapes.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/rng.hpp"
#include "core/castpp.hpp"
#include "core/fixed_sum.hpp"
#include "test_support.hpp"
#include "workload/workflow.hpp"

namespace cast::workload {
namespace {

JobSpec wf_job(int id, AppKind app, double gb) {
    const int maps = std::max(1, static_cast<int>(gb / 0.128));
    return JobSpec{.id = id,
                   .name = "wfp-" + std::to_string(id),
                   .app = app,
                   .input = GigaBytes{gb},
                   .map_tasks = maps,
                   .reduce_tasks = std::max(1, maps / 4),
                   .reuse_group = std::nullopt};
}

/// Random DAG: edges only from lower to higher ids (acyclic by
/// construction), with tunable density.
Workflow random_dag(std::uint64_t seed, int n, double edge_prob) {
    Rng rng(seed);
    std::vector<JobSpec> jobs;
    std::vector<WorkflowEdge> edges;
    for (int i = 1; i <= n; ++i) {
        jobs.push_back(wf_job(i, kAllApps[rng.below(kAllApps.size())],
                              rng.uniform(10.0, 100.0)));
    }
    for (int u = 1; u <= n; ++u) {
        for (int v = u + 1; v <= n; ++v) {
            if (rng.uniform() < edge_prob) edges.push_back({u, v});
        }
    }
    return Workflow("dag-" + std::to_string(seed), std::move(jobs), std::move(edges),
                    Seconds{1e6});
}

class DagSweep : public ::testing::TestWithParam<std::uint64_t> {
protected:
    Workflow wf = random_dag(GetParam(), 4 + static_cast<int>(GetParam() % 7), 0.35);
};

TEST_P(DagSweep, TopologicalOrderIsAValidLinearization) {
    const auto order = wf.topological_order();
    ASSERT_EQ(order.size(), wf.size());
    std::vector<std::size_t> position(wf.size());
    for (std::size_t k = 0; k < order.size(); ++k) position[order[k]] = k;
    for (const auto& e : wf.edges()) {
        EXPECT_LT(position[wf.index_of(e.from_job)], position[wf.index_of(e.to_job)]);
    }
}

TEST_P(DagSweep, DfsVisitsEveryJobExactlyOnce) {
    auto order = wf.dfs_order();
    ASSERT_EQ(order.size(), wf.size());
    std::sort(order.begin(), order.end());
    for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST_P(DagSweep, PredecessorsAndSuccessorsAreDuals) {
    for (std::size_t u = 0; u < wf.size(); ++u) {
        for (std::size_t v : wf.successors(u)) {
            const auto preds = wf.predecessors(v);
            EXPECT_NE(std::find(preds.begin(), preds.end(), u), preds.end());
        }
    }
}

TEST_P(DagSweep, RootsHaveNoPredecessors) {
    const auto roots = wf.roots();
    EXPECT_FALSE(roots.empty());
    for (std::size_t r : roots) EXPECT_TRUE(wf.predecessors(r).empty());
}

TEST_P(DagSweep, EvaluatorRuntimeDecomposes) {
    core::WorkflowEvaluator eval(cast::testing::small_models(), wf);
    const auto plan =
        core::WorkflowPlan::uniform(wf.size(), cloud::StorageTier::kPersistentSsd);
    const auto e = eval.evaluate(plan);
    ASSERT_TRUE(e.feasible);
    // Eq. 9's total is the exact fixed-point sum of the job runtimes and
    // the edge transfers, the same bits in any order.
    core::FixedSum sum;
    for (auto it = e.transfer_times.rbegin(); it != e.transfer_times.rend(); ++it) {
        sum.add(it->value());
    }
    for (auto it = e.job_runtimes.rbegin(); it != e.job_runtimes.rend(); ++it) {
        sum.add(it->value());
    }
    ASSERT_TRUE(sum.in_range());
    EXPECT_EQ(e.total_runtime.value(), sum.value());
}

TEST_P(DagSweep, UniformPlanHasNoTransfers) {
    core::WorkflowEvaluator eval(cast::testing::small_models(), wf);
    const auto e = eval.evaluate(
        core::WorkflowPlan::uniform(wf.size(), cloud::StorageTier::kPersistentHdd));
    ASSERT_TRUE(e.feasible);
    for (const auto& t : e.transfer_times) EXPECT_DOUBLE_EQ(t.value(), 0.0);
}

TEST_P(DagSweep, SplittingOneJobOnlyAddsTransfersOnItsEdges) {
    core::WorkflowEvaluator eval(cast::testing::small_models(), wf);
    auto plan = core::WorkflowPlan::uniform(wf.size(), cloud::StorageTier::kPersistentSsd);
    const std::size_t moved = wf.size() / 2;
    plan.decisions[moved] = {cloud::StorageTier::kPersistentHdd, 1.0};
    const auto e = eval.evaluate(plan);
    ASSERT_TRUE(e.feasible);
    for (std::size_t k = 0; k < wf.edges().size(); ++k) {
        const auto& edge = wf.edges()[k];
        const bool touches = wf.index_of(edge.from_job) == moved ||
                             wf.index_of(edge.to_job) == moved;
        if (!touches) {
            EXPECT_DOUBLE_EQ(e.transfer_times[k].value(), 0.0);
        } else if (wf.jobs()[wf.index_of(edge.from_job)].output().value() > 0.0) {
            EXPECT_GT(e.transfer_times[k].value(), 0.0);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DagSweep,
                         ::testing::Values(2u, 9u, 16u, 25u, 36u, 49u, 64u, 81u));

}  // namespace
}  // namespace cast::workload
