#include "core/cluster_planner.hpp"

#include <gtest/gtest.h>

#include "test_support.hpp"

namespace cast::core {
namespace {

using workload::AppKind;

workload::JobSpec mk_job(int id, AppKind app, double gb) {
    const int maps = std::max(1, static_cast<int>(gb / 0.128));
    return workload::JobSpec{.id = id,
                             .name = "cp-" + std::to_string(id),
                             .app = app,
                             .input = GigaBytes{gb},
                             .map_tasks = maps,
                             .reduce_tasks = std::max(1, maps / 4),
                             .reuse_group = std::nullopt};
}

workload::Workload small_workload() {
    return workload::Workload({mk_job(1, AppKind::kSort, 60.0),
                               mk_job(2, AppKind::kGrep, 90.0),
                               mk_job(3, AppKind::kKMeans, 40.0)});
}

ClusterPlannerOptions cheap_options() {
    ClusterPlannerOptions o;
    o.profiler.runs_per_point = 1;
    o.profiler.block_capacity_points = {30.0, 100.0, 300.0, 500.0, 1000.0};
    o.profiler.eph_volume_points = {1, 2};
    o.cast.annealing.iter_max = 1500;
    o.cast.annealing.chains = 2;
    return o;
}

std::vector<ClusterCandidate> two_sizes() {
    cloud::ClusterSpec small = cloud::ClusterSpec::paper_single_node();
    small.worker_count = 2;
    cloud::ClusterSpec big = cloud::ClusterSpec::paper_single_node();
    big.worker_count = 8;
    return {{"2 workers", small}, {"8 workers", big}};
}

TEST(ClusterPlanner, EvaluatesEveryCandidateAndSortsByUtility) {
    ClusterPlanner planner(cloud::StorageCatalog::google_cloud(), two_sizes(),
                           cheap_options());
    const auto outcomes = planner.evaluate(small_workload());
    ASSERT_EQ(outcomes.size(), 2u);
    for (const auto& o : outcomes) {
        EXPECT_TRUE(o.evaluation.feasible) << o.candidate.label;
        EXPECT_EQ(o.plan.size(), 3u);
    }
    EXPECT_GE(outcomes[0].utility(), outcomes[1].utility());
}

TEST(ClusterPlanner, BiggerClusterIsFasterButCostsMore) {
    ClusterPlanner planner(cloud::StorageCatalog::google_cloud(), two_sizes(),
                           cheap_options());
    const auto outcomes = planner.evaluate(small_workload());
    const auto* two = &outcomes[0];
    const auto* eight = &outcomes[1];
    if (two->candidate.label != "2 workers") std::swap(two, eight);
    EXPECT_LT(eight->evaluation.total_runtime.value(),
              two->evaluation.total_runtime.value());
    // Per-minute price is 4x; utility decides whether the speedup pays.
    EXPECT_GT(eight->candidate.cluster.price_per_minute().value(),
              two->candidate.cluster.price_per_minute().value());
}

TEST(ClusterPlanner, DefaultCandidatesAreValid) {
    const auto candidates = ClusterPlanner::default_candidates();
    EXPECT_GE(candidates.size(), 4u);
    for (const auto& c : candidates) {
        EXPECT_FALSE(c.label.empty());
        EXPECT_NO_THROW(c.cluster.validate());
    }
}

TEST(ClusterPlanner, RejectsEmptyCandidateList) {
    EXPECT_THROW(
        ClusterPlanner(cloud::StorageCatalog::google_cloud(), {}, cheap_options()),
        PreconditionError);
}

TEST(ClusterPlanner, ReuseAwareModeRespectsGroups) {
    auto jobs = small_workload().jobs();
    jobs[0].reuse_group = 1;
    workload::JobSpec twin = jobs[0];
    twin.id = 9;
    twin.name = "cp-9";
    jobs.push_back(twin);
    const workload::Workload w(jobs);
    ClusterPlannerOptions opts = cheap_options();
    opts.reuse_aware = true;
    ClusterPlanner planner(cloud::StorageCatalog::google_cloud(), two_sizes(), opts);
    const auto outcomes = planner.evaluate(w);
    for (const auto& o : outcomes) {
        EXPECT_TRUE(testing::respects_placement(w, o.plan)) << o.candidate.label;
    }
}

}  // namespace
}  // namespace cast::core
