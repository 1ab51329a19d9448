// Shared fixtures for model/core/integration tests.
//
// Profiling a full M̂ + REG model set runs hundreds of simulations; tests
// share one memoized campaign per cluster size instead of re-profiling.
#pragma once

#include <vector>

#include "cloud/cluster.hpp"
#include "cloud/storage.hpp"
#include "core/plan.hpp"
#include "lint/checks.hpp"
#include "model/profiler.hpp"
#include "workload/job.hpp"

namespace cast::testing {

/// A small 5-worker cluster: big enough for multi-wave behaviour, cheap
/// enough to profile in tests.
inline const cloud::ClusterSpec& small_cluster() {
    static const cloud::ClusterSpec kCluster = [] {
        cloud::ClusterSpec c = cloud::ClusterSpec::paper_single_node();
        c.worker_count = 5;
        return c;
    }();
    return kCluster;
}

/// Memoized profiled model set on the small cluster.
inline const model::PerfModelSet& small_models() {
    static const model::PerfModelSet kModels = [] {
        model::ProfilerOptions opts;
        opts.runs_per_point = 2;
        opts.block_capacity_points = {15.0, 30.0, 60.0, 100.0, 200.0, 350.0, 500.0, 750.0,
                                      1000.0};
        model::Profiler profiler(small_cluster(), cloud::StorageCatalog::google_cloud(),
                                 opts);
        return profiler.profile();
    }();
    return kModels;
}

/// Memoized profiled model set on the paper's 400-core cluster (used by the
/// integration tests that re-check published claims).
inline const model::PerfModelSet& paper_models() {
    static const model::PerfModelSet kModels = [] {
        model::ProfilerOptions opts;
        opts.runs_per_point = 2;
        model::Profiler profiler(cloud::ClusterSpec::paper_400_core(),
                                 cloud::StorageCatalog::google_cloud(), opts);
        return profiler.profile();
    }();
    return kModels;
}

/// True when `plan` honors every tier pin and keeps every reuse group on
/// one tier (Eq. 7), judged by the shared lint checks.
inline bool respects_placement(const workload::Workload& workload,
                               const core::TieringPlan& plan) {
    std::vector<lint::Finding> violations;
    lint::check_tier_pins(workload.jobs(), plan.decisions(), violations);
    lint::check_reuse_group_split(workload.jobs(), plan.decisions(), violations);
    return violations.empty();
}

}  // namespace cast::testing
