#include "model/profiler.hpp"

#include <gtest/gtest.h>

#include "common/thread_pool.hpp"
#include "model/serialize.hpp"
#include "sim/mapreduce.hpp"
#include "test_support.hpp"

namespace cast::model {
namespace {

using cloud::StorageTier;
using workload::AppKind;

TEST(Profiler, ProducesModelsForEveryPair) {
    const PerfModelSet& models = testing::small_models();
    for (AppKind app : workload::kAllApps) {
        for (StorageTier tier : cloud::kAllTiers) {
            EXPECT_TRUE(models.has_tier_model(app, tier))
                << workload::app_name(app) << "/" << cloud::tier_name(tier);
        }
    }
}

TEST(Profiler, BandwidthsArePositiveAndFinite) {
    const PerfModelSet& models = testing::small_models();
    for (AppKind app : workload::kAllApps) {
        for (StorageTier tier : cloud::kAllTiers) {
            const auto& m = models.tier_model(app, tier);
            EXPECT_GT(m.bandwidths.map.value(), 0.0);
            EXPECT_GT(m.bandwidths.shuffle.value(), 0.0);
            EXPECT_GT(m.bandwidths.reduce.value(), 0.0);
        }
    }
}

TEST(Profiler, IoBoundBandwidthOrderingFollowsTiers) {
    // Grep's map bandwidth must order ephSSD > persSSD > persHDD at the
    // reference capacities (733 vs 234 vs 97 MB/s per VM).
    const PerfModelSet& models = testing::small_models();
    const double eph =
        models.tier_model(AppKind::kGrep, StorageTier::kEphemeralSsd).bandwidths.map.value();
    const double ssd =
        models.tier_model(AppKind::kGrep, StorageTier::kPersistentSsd).bandwidths.map.value();
    const double hdd =
        models.tier_model(AppKind::kGrep, StorageTier::kPersistentHdd).bandwidths.map.value();
    EXPECT_GT(eph, ssd);
    EXPECT_GT(ssd, hdd);
}

TEST(Profiler, CpuBoundBandwidthTierInvariant) {
    // KMeans is compute-bound: per-task map bandwidth is (nearly) the same
    // on persSSD and persHDD.
    const PerfModelSet& models = testing::small_models();
    const double ssd = models.tier_model(AppKind::kKMeans, StorageTier::kPersistentSsd)
                           .bandwidths.map.value();
    const double hdd = models.tier_model(AppKind::kKMeans, StorageTier::kPersistentHdd)
                           .bandwidths.map.value();
    EXPECT_NEAR(ssd / hdd, 1.0, 0.1);
}

TEST(Profiler, AllTiersHaveScalingSplines) {
    const PerfModelSet& models = testing::small_models();
    for (StorageTier t : cloud::kAllTiers) {
        const auto& m = models.tier_model(AppKind::kSort, t);
        EXPECT_FALSE(m.runtime_scale.empty()) << cloud::tier_name(t);
        EXPECT_EQ(m.scales_with_intermediate_volume, t == StorageTier::kObjectStore);
    }
}

TEST(Profiler, ObjectStoreScalesWithIntermediateVolumeForShuffleHeavyApps) {
    // A shuffle-heavy objStore job drains through its conventional persSSD
    // intermediate volume; a bigger volume must mean a faster run.
    const PerfModelSet& models = testing::small_models();
    const auto& sort = models.tier_model(AppKind::kSort, StorageTier::kObjectStore);
    EXPECT_GT(sort.scale_at(GigaBytes{100.0}), 1.2 * sort.scale_at(GigaBytes{500.0}));
    // Grep barely shuffles: nearly flat.
    const auto& grep = models.tier_model(AppKind::kGrep, StorageTier::kObjectStore);
    EXPECT_NEAR(grep.scale_at(GigaBytes{100.0}), grep.scale_at(GigaBytes{500.0}), 0.15);
}

TEST(Profiler, ScaleIsOneAtReferenceCapacity) {
    const PerfModelSet& models = testing::small_models();
    const auto& m = models.tier_model(AppKind::kSort, StorageTier::kPersistentSsd);
    EXPECT_NEAR(m.scale_at(m.reference_capacity_per_vm), 1.0, 0.05);
}

TEST(Profiler, IoBoundScaleDecreasesWithCapacity) {
    // Fig. 2's mechanism: bigger persSSD volumes -> faster Sort, saturating.
    const PerfModelSet& models = testing::small_models();
    const auto& m = models.tier_model(AppKind::kSort, StorageTier::kPersistentSsd);
    const double at100 = m.scale_at(GigaBytes{100.0});
    const double at200 = m.scale_at(GigaBytes{200.0});
    const double at500 = m.scale_at(GigaBytes{500.0});
    const double at1000 = m.scale_at(GigaBytes{1000.0});
    EXPECT_GT(at100, at200);
    EXPECT_GT(at200, at500);
    // Saturation: the 500 -> 1000 gain is much smaller than 100 -> 200.
    EXPECT_LT(at500 - at1000, 0.5 * (at100 - at200));
}

TEST(Profiler, CpuBoundScaleFlatOnceComputeBound) {
    // KMeans saturates its CPUs once the volume is big enough that the
    // per-slot I/O share exceeds its compute rate; beyond that point
    // capacity buys nothing (persHDD reaches that around ~350 GB/VM).
    const PerfModelSet& models = testing::small_models();
    const auto& m = models.tier_model(AppKind::kKMeans, StorageTier::kPersistentHdd);
    EXPECT_NEAR(m.scale_at(GigaBytes{500.0}), m.scale_at(GigaBytes{1000.0}), 0.1);
    // ...while below the threshold, capacity still matters.
    EXPECT_GT(m.scale_at(GigaBytes{60.0}), 1.5 * m.scale_at(GigaBytes{500.0}));
}

TEST(PerfModelSet, ProcessingTimeMatchesScaledEstimate) {
    const PerfModelSet& models = testing::small_models();
    const workload::JobSpec job{.id = 3,
                                .name = "t",
                                .app = AppKind::kGrep,
                                .input = GigaBytes{32.0},
                                .map_tasks = 250,
                                .reduce_tasks = 60,
                                .reuse_group = std::nullopt};
    const auto& m = models.tier_model(AppKind::kGrep, StorageTier::kPersistentSsd);
    const Seconds base = estimate(models.cluster(), job, m.bandwidths);
    const Seconds scaled =
        models.processing_time(job, StorageTier::kPersistentSsd, GigaBytes{200.0});
    EXPECT_NEAR(scaled.value(), base.value() * m.scale_at(GigaBytes{200.0}), 1e-6);
}

TEST(PerfModelSet, EphemeralRuntimeIncludesStaging) {
    const PerfModelSet& models = testing::small_models();
    const workload::JobSpec job{.id = 4,
                                .name = "t",
                                .app = AppKind::kSort,
                                .input = GigaBytes{32.0},
                                .map_tasks = 250,
                                .reduce_tasks = 60,
                                .reuse_group = std::nullopt};
    const GigaBytes cap{375.0};
    const Seconds with =
        models.job_runtime(job, StorageTier::kEphemeralSsd, cap);
    const Seconds without = models.job_runtime(job, StorageTier::kEphemeralSsd, cap,
                                               StagingLegs{false, false});
    EXPECT_GT(with.value(), without.value());
    const Seconds dl = estimate_staging(models.cluster(), models.catalog(),
                                        StorageTier::kEphemeralSsd, cap, job.input,
                                        StagingDirection::kDownload);
    const Seconds ul = estimate_staging(models.cluster(), models.catalog(),
                                        StorageTier::kEphemeralSsd, cap, job.output(),
                                        StagingDirection::kUpload);
    EXPECT_NEAR(with.value() - without.value(), dl.value() + ul.value(), 1e-6);
}

TEST(PerfModelSet, PersistentTiersHaveNoDefaultStaging) {
    const PerfModelSet& models = testing::small_models();
    const workload::JobSpec job{.id = 5,
                                .name = "t",
                                .app = AppKind::kGrep,
                                .input = GigaBytes{16.0},
                                .map_tasks = 125,
                                .reduce_tasks = 30,
                                .reuse_group = std::nullopt};
    for (StorageTier t : {StorageTier::kPersistentSsd, StorageTier::kPersistentHdd,
                          StorageTier::kObjectStore}) {
        const GigaBytes cap{t == StorageTier::kObjectStore ? 0.0 : 500.0};
        EXPECT_NEAR(models.job_runtime(job, t, cap).value(),
                    models.processing_time(job, t, cap).value(), 1e-9)
            << cloud::tier_name(t);
    }
}

TEST(PerfModelSet, MissingModelThrows) {
    PerfModelSet empty(testing::small_cluster(), cloud::StorageCatalog::google_cloud());
    EXPECT_THROW((void)empty.tier_model(AppKind::kSort, StorageTier::kPersistentSsd),
                 PreconditionError);
}

TEST(Profiler, ModelPredictsSimulatorWithin25Percent) {
    // End-to-end sanity of the whole modeling pipeline (the Fig. 8 gap,
    // loosely bounded): REG's prediction for a fresh job must land near
    // the simulator's measurement.
    const PerfModelSet& models = testing::small_models();
    const workload::JobSpec job{.id = 77,
                                .name = "validate",
                                .app = AppKind::kSort,
                                .input = GigaBytes{48.0},
                                .map_tasks = 375,
                                .reduce_tasks = 90,
                                .reuse_group = std::nullopt};
    sim::TierCapacities caps;
    caps.set(StorageTier::kPersistentSsd, GigaBytes{300.0});
    sim::ClusterSim simulator(models.cluster(), models.catalog(), caps,
                              sim::SimOptions{.seed = 99, .jitter_sigma = 0.06});
    const double measured =
        simulator
            .run_job(sim::JobPlacement::on_tier(job, StorageTier::kPersistentSsd))
            .makespan.value();
    const double predicted =
        models.job_runtime(job, StorageTier::kPersistentSsd, GigaBytes{300.0}).value();
    EXPECT_NEAR(predicted / measured, 1.0, 0.25);
}

TEST(ProfilerGolden, PaperClusterModelsMatchGoldenAtOneAndTwoWorkers) {
    // Pinned before the flow engine was vectorized and before the profiler
    // stopped re-simulating its reference capacity: the profiled M-hat and
    // REG inputs must stay bit-identical to that simulator.
    constexpr std::uint64_t kGolden = 0x2cf56308117ff86cULL;
    const Profiler profiler(cloud::ClusterSpec::paper_400_core(),
                            cloud::StorageCatalog::google_cloud());
    EXPECT_EQ(fingerprint(profiler.profile()), kGolden);
    ThreadPool two(2);
    EXPECT_EQ(fingerprint(profiler.profile(&two)), kGolden);
}

}  // namespace
}  // namespace cast::model
