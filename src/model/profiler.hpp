// Offline workload profiling (paper §4.1) and the resulting model set.
//
// CAST "performs offline profiling of different applications within an
// analytics workload and generates job performance prediction models based
// on different storage services". The Profiler does exactly that against
// the cluster simulator (our testbed substitute): for every (application,
// tier) pair it runs a calibration job, averages three runs, and inverts
// Eq. 1 to recover the per-task phase bandwidths (the M̂ matrix); for
// capacity-scaled tiers it additionally sweeps provisioned capacity and
// fits the cubic-Hermite-spline runtime-scaling curve that implements
// REG(sᵢ, capacity[sᵢ], R̂, L̂ᵢ) (§4.2.1, Fig. 2).
#pragma once

#include <array>
#include <optional>
#include <vector>

#include "cloud/cluster.hpp"
#include "cloud/storage.hpp"
#include "common/spline.hpp"
#include "common/thread_pool.hpp"
#include "model/mrcute.hpp"
#include "sim/mapreduce.hpp"
#include "workload/application.hpp"

namespace cast::model {

/// Profiled model for one (application, tier) pair.
struct TierModel {
    PhaseBandwidths bandwidths;
    GigaBytes reference_capacity_per_vm{0.0};
    /// Per-VM capacity (GB) -> runtime multiplier relative to the reference
    /// capacity. For block tiers the x axis is the tier's own provisioned
    /// capacity; for objStore (whose streaming performance is flat) it is
    /// the conventional persSSD *intermediate* volume, which the job's
    /// shuffle data drains through.
    CubicHermiteSpline runtime_scale;
    bool scales_with_intermediate_volume = false;

    [[nodiscard]] double scale_at(GigaBytes per_vm_capacity) const {
        if (runtime_scale.empty()) return 1.0;
        return runtime_scale(per_vm_capacity.value());
    }
};

/// Which staging legs a placement performs (the tier conventions of §3).
struct StagingLegs {
    bool download_input = false;
    bool upload_output = false;

    /// The paper's convention for a whole-job placement on `tier`.
    [[nodiscard]] static StagingLegs for_tier(cloud::StorageTier tier) {
        const bool eph = tier == cloud::StorageTier::kEphemeralSsd;
        return StagingLegs{eph, eph};
    }
};

/// The complete M̂ + REG model set the solvers plan with.
class PerfModelSet {
public:
    PerfModelSet(cloud::ClusterSpec cluster, cloud::StorageCatalog catalog)
        : cluster_(std::move(cluster)), catalog_(std::move(catalog)) {
        cluster_.validate();
    }

    [[nodiscard]] const cloud::ClusterSpec& cluster() const { return cluster_; }
    [[nodiscard]] const cloud::StorageCatalog& catalog() const { return catalog_; }

    void set_tier_model(workload::AppKind app, cloud::StorageTier tier, TierModel m) {
        m.bandwidths.validate();
        models_[workload::app_index(app)][cloud::tier_index(tier)] = std::move(m);
    }

    [[nodiscard]] const TierModel& tier_model(workload::AppKind app,
                                              cloud::StorageTier tier) const {
        const auto& slot = models_[workload::app_index(app)][cloud::tier_index(tier)];
        CAST_EXPECTS_MSG(slot.has_value(), "no profiled model for this (app, tier) pair");
        return *slot;
    }

    [[nodiscard]] bool has_tier_model(workload::AppKind app, cloud::StorageTier tier) const {
        return models_[workload::app_index(app)][cloud::tier_index(tier)].has_value();
    }

    /// REG(sᵢ, capacity, R̂, L̂ᵢ): processing-time estimate of `job` on
    /// `tier` when the tier is provisioned at `per_vm_capacity` per VM.
    /// For objStore the scaling argument is the conventional persSSD
    /// intermediate volume the job gets, not `per_vm_capacity`.
    [[nodiscard]] Seconds processing_time(const workload::JobSpec& job,
                                          cloud::StorageTier tier,
                                          GigaBytes per_vm_capacity) const {
        const TierModel& m = tier_model(job.app, tier);
        const Seconds base = estimate(cluster_, job, m.bandwidths);
        const GigaBytes scale_arg =
            m.scales_with_intermediate_volume
                ? cloud::object_store_intermediate_volume(job.intermediate(),
                                                          cluster_.worker_count)
                : per_vm_capacity;
        return base * m.scale_at(scale_arg);
    }

    /// Processing plus the staging legs of `legs` (ephSSD convention or a
    /// workflow cross-tier hop).
    [[nodiscard]] Seconds job_runtime(const workload::JobSpec& job, cloud::StorageTier tier,
                                      GigaBytes per_vm_capacity, StagingLegs legs) const {
        Seconds t = processing_time(job, tier, per_vm_capacity);
        if (tier != cloud::StorageTier::kObjectStore) {
            if (legs.download_input) {
                t += estimate_staging(cluster_, catalog_, tier, per_vm_capacity, job.input,
                                      StagingDirection::kDownload);
            }
            if (legs.upload_output) {
                t += estimate_staging(cluster_, catalog_, tier, per_vm_capacity, job.output(),
                                      StagingDirection::kUpload);
            }
        }
        return t;
    }

    /// Convenience: runtime with the standard whole-job tier conventions.
    [[nodiscard]] Seconds job_runtime(const workload::JobSpec& job, cloud::StorageTier tier,
                                      GigaBytes per_vm_capacity) const {
        return job_runtime(job, tier, per_vm_capacity, StagingLegs::for_tier(tier));
    }

private:
    cloud::ClusterSpec cluster_;
    cloud::StorageCatalog catalog_;
    std::array<std::array<std::optional<TierModel>, cloud::kTierCount>, 5> models_{};
};

struct ProfilerOptions {
    std::uint64_t seed = 7;
    /// Runs averaged per configuration (the paper reports 3-run averages).
    int runs_per_point = 3;
    /// Reference per-VM capacity for the block tiers' M̂ entries.
    GigaBytes reference_block_capacity{500.0};
    /// Per-VM capacity sweep (GB) for the REG scaling spline on block
    /// tiers. Includes small volumes: workload plans frequently provision
    /// well under 100 GB/VM per tier, and the spline must cover that range
    /// rather than extrapolate optimistically.
    std::vector<double> block_capacity_points = {15.0,  30.0,  60.0,  100.0, 150.0,
                                                 200.0, 300.0, 400.0, 500.0, 700.0,
                                                 1000.0};
    /// ephSSD sweep in whole volumes (x 375 GB).
    std::vector<int> eph_volume_points = {1, 2, 3, 4};
    /// Calibration job size: chunks of input per map slot.
    int chunks_per_slot = 4;
    GigaBytes chunk{0.128};
    double jitter_sigma = 0.06;
};

class Profiler {
public:
    Profiler(cloud::ClusterSpec cluster, cloud::StorageCatalog catalog,
             ProfilerOptions options = {});

    /// Run the full offline profiling campaign. Independent configurations
    /// run on `pool` when provided.
    [[nodiscard]] PerfModelSet profile(ThreadPool* pool = nullptr) const;

    /// Profile a single (app, tier) pair (exposed for tests). The repeated
    /// calibration runs batch over `pool` when provided; results are
    /// bit-identical with any worker count (sim::BatchRunner's contract).
    [[nodiscard]] TierModel profile_pair(workload::AppKind app, cloud::StorageTier tier,
                                         ThreadPool* pool = nullptr) const;

private:
    [[nodiscard]] workload::JobSpec calibration_job(workload::AppKind app) const;
    /// Tier capacities of a calibration run of `app` on `tier` at the given
    /// per-VM capacity (objStore: the persSSD volume holding its shuffle
    /// data; zero picks the conventional intermediate volume).
    [[nodiscard]] sim::TierCapacities calibration_capacities(workload::AppKind app,
                                                             cloud::StorageTier tier,
                                                             GigaBytes per_vm_capacity) const;
    /// The one capacity-dependent input the simulator reads for that run:
    /// the read/write bandwidth of the attached block tier, provisioned the
    /// way sim::ClusterSim provisions it.
    [[nodiscard]] cloud::TierPerformance simulated_performance(workload::AppKind app,
                                                               cloud::StorageTier tier,
                                                               GigaBytes per_vm_capacity) const;
    /// Average processing phase times for the calibration job of `app` on
    /// `tier` at the given per-VM capacity. The runs_per_point repetitions
    /// are independent configurations batched over `pool`.
    [[nodiscard]] sim::PhaseTimes measure(workload::AppKind app, cloud::StorageTier tier,
                                          GigaBytes per_vm_capacity,
                                          ThreadPool* pool = nullptr) const;

    cloud::ClusterSpec cluster_;
    cloud::StorageCatalog catalog_;
    ProfilerOptions options_;
};

}  // namespace cast::model
