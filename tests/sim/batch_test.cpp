// BatchRunner determinism contract: outcomes are written by configuration
// index and every random stream derives from per-config seeds, so a batch
// is bit-identical (exact double equality, fault stats included) no matter
// how many workers run it or whether the per-thread scratch is reused.
#include "sim/batch.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/thread_pool.hpp"
#include "workload/job.hpp"

namespace cast::sim {
namespace {

using cloud::StorageTier;
using workload::AppKind;

workload::JobSpec make_job(int id, AppKind app, double input_gb) {
    const int maps = std::max(1, static_cast<int>(input_gb / 0.128));
    return workload::JobSpec{.id = id,
                             .name = "batch-job-" + std::to_string(id),
                             .app = app,
                             .input = GigaBytes{input_gb},
                             .map_tasks = maps,
                             .reduce_tasks = std::max(1, maps / 4),
                             .reuse_group = std::nullopt};
}

/// 50 mixed configurations: apps x tiers x seeds, a few with faults.
std::vector<BatchConfig> mixed_configs(bool with_faults) {
    const std::vector<std::pair<AppKind, double>> jobs = {
        {AppKind::kSort, 4.0}, {AppKind::kGrep, 6.0}, {AppKind::kKMeans, 2.0}};
    const std::vector<StorageTier> tiers = {StorageTier::kPersistentSsd,
                                            StorageTier::kPersistentHdd,
                                            StorageTier::kEphemeralSsd,
                                            StorageTier::kObjectStore};
    std::vector<BatchConfig> configs;
    int id = 1;
    while (configs.size() < 50) {
        for (const auto& [app, gb] : jobs) {
            for (StorageTier tier : tiers) {
                if (configs.size() >= 50) break;
                TierCapacities caps;
                if (tier == StorageTier::kObjectStore) {
                    caps.set(StorageTier::kPersistentSsd, GigaBytes{200.0});
                } else {
                    caps.set(tier, GigaBytes{200.0 + 50.0 * (id % 3)});
                }
                SimOptions options{.seed = 42 + static_cast<std::uint64_t>(id),
                                   .jitter_sigma = 0.06};
                if (with_faults) {
                    options.faults = FaultProfile::scaled(0.6, 7 + id);
                }
                configs.push_back(BatchConfig{JobPlacement::on_tier(make_job(id, app, gb), tier),
                                              caps, options});
                ++id;
            }
        }
    }
    return configs;
}

void expect_bit_identical(const std::vector<BatchOutcome>& a,
                          const std::vector<BatchOutcome>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE("config " + std::to_string(i));
        ASSERT_EQ(a[i].failed, b[i].failed);
        EXPECT_EQ(a[i].error, b[i].error);
        // Exact equality on purpose: the contract is bit-identity, not
        // tolerance.
        EXPECT_EQ(a[i].result.makespan.value(), b[i].result.makespan.value());
        EXPECT_EQ(a[i].result.phases.stage_in.value(), b[i].result.phases.stage_in.value());
        EXPECT_EQ(a[i].result.phases.map.value(), b[i].result.phases.map.value());
        EXPECT_EQ(a[i].result.phases.shuffle.value(), b[i].result.phases.shuffle.value());
        EXPECT_EQ(a[i].result.phases.reduce.value(), b[i].result.phases.reduce.value());
        EXPECT_EQ(a[i].result.phases.stage_out.value(),
                  b[i].result.phases.stage_out.value());
        EXPECT_EQ(a[i].result.faults, b[i].result.faults);
    }
}

TEST(BatchRunner, FiftyConfigBatchBitIdenticalAcross1And2And8Workers) {
    const auto cluster = cloud::ClusterSpec::paper_10_node();
    const auto catalog = cloud::StorageCatalog::google_cloud();
    const BatchRunner runner(cluster, catalog);
    const std::vector<BatchConfig> configs = mixed_configs(/*with_faults=*/false);
    ASSERT_EQ(configs.size(), 50U);

    const auto serial = runner.run(configs);
    ThreadPool two(2);
    ThreadPool eight(8);
    expect_bit_identical(serial, runner.run(configs, &two));
    expect_bit_identical(serial, runner.run(configs, &eight));
}

TEST(BatchRunner, FaultProfileBatchBitIdenticalAcrossWorkerCounts) {
    const auto cluster = cloud::ClusterSpec::paper_10_node();
    const auto catalog = cloud::StorageCatalog::google_cloud();
    const BatchRunner runner(cluster, catalog);
    const std::vector<BatchConfig> configs = mixed_configs(/*with_faults=*/true);

    const auto serial = runner.run(configs);
    // The scaled profile must actually perturb some runs, or this test
    // proves nothing about fault-stat determinism.
    bool any_faults = false;
    for (const auto& o : serial) any_faults = any_faults || o.result.faults.any();
    EXPECT_TRUE(any_faults);

    ThreadPool two(2);
    ThreadPool eight(8);
    expect_bit_identical(serial, runner.run(configs, &two));
    expect_bit_identical(serial, runner.run(configs, &eight));
}

TEST(BatchRunner, DirtiedScratchReproducesFreshThreadBitForBit) {
    // The thread-local scratch is storage, never state: after this thread's
    // scratch ran a different job on a bigger cluster (more resources, other
    // tiers and faults), it reproduces what a brand-new thread computes.
    const auto catalog = cloud::StorageCatalog::google_cloud();
    const BatchRunner runner(cloud::ClusterSpec::paper_10_node(), catalog);
    const BatchRunner other(cloud::ClusterSpec::paper_400_core(), catalog);
    const std::vector<BatchConfig> configs = mixed_configs(/*with_faults=*/true);

    for (std::size_t i = 0; i < configs.size(); ++i) {
        ThreadPool fresh(1);  // a new worker thread owns an untouched scratch
        const auto clean = fresh.submit([&] { return runner.run({configs[i]}); }).get();
        (void)other.run({configs[(i + 7) % configs.size()]});
        expect_bit_identical(clean, runner.run({configs[i]}));
    }
}

TEST(BatchRunner, SimulationErrorIsCapturedPerConfigWithoutAbortingBatch) {
    const auto cluster = cloud::ClusterSpec::paper_10_node();
    const auto catalog = cloud::StorageCatalog::google_cloud();
    const BatchRunner runner(cluster, catalog);

    // Config 1 is set up to die: near-certain task kills with a one-attempt
    // budget exhaust immediately. Configs 0 and 2 are fault-free.
    std::vector<BatchConfig> configs;
    for (int i = 0; i < 3; ++i) {
        TierCapacities caps;
        caps.set(StorageTier::kPersistentSsd, GigaBytes{200.0});
        SimOptions options{.seed = 42, .jitter_sigma = 0.06};
        if (i == 1) {
            options.faults.seed = 99;
            options.faults.task_kill_prob = 0.99;
            options.faults.task_max_attempts = 1;
        }
        configs.push_back(BatchConfig{
            JobPlacement::on_tier(make_job(i + 1, AppKind::kSort, 4.0),
                                  StorageTier::kPersistentSsd),
            caps, options});
    }

    const auto outcomes = runner.run(configs);
    ASSERT_EQ(outcomes.size(), 3U);
    EXPECT_FALSE(outcomes[0].failed);
    EXPECT_TRUE(outcomes[1].failed);
    EXPECT_FALSE(outcomes[1].error.empty());
    EXPECT_FALSE(outcomes[2].failed);
    // The healthy configs are unperturbed by their failed neighbour.
    EXPECT_GT(outcomes[0].result.makespan.value(), 0.0);
    EXPECT_GT(outcomes[2].result.makespan.value(), 0.0);
}

TEST(BatchRunner, NullAndOneWorkerPoolMatch) {
    const auto cluster = cloud::ClusterSpec::paper_10_node();
    const auto catalog = cloud::StorageCatalog::google_cloud();
    const BatchRunner runner(cluster, catalog);
    std::vector<BatchConfig> configs;
    for (int i = 0; i < 4; ++i) {
        TierCapacities caps;
        caps.set(StorageTier::kPersistentSsd, GigaBytes{150.0});
        configs.push_back(BatchConfig{
            JobPlacement::on_tier(make_job(i + 1, AppKind::kGrep, 3.0),
                                  StorageTier::kPersistentSsd),
            caps, SimOptions{.seed = 5, .jitter_sigma = 0.06}});
    }
    ThreadPool one(1);
    expect_bit_identical(runner.run(configs), runner.run(configs, &one));
}

}  // namespace
}  // namespace cast::sim
