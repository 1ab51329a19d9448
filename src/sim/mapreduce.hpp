// MapReduce cluster simulator — the testbed substitute.
//
// Plays the role of the paper's 400-core Google Cloud Hadoop cluster: given
// a cluster spec, per-VM storage provisioning, and a job placement (which
// tier holds input / intermediate / output data), it executes the job's
// map, shuffle and reduce phases through the fair-share flow engine and
// reports the measured makespan with a per-phase breakdown. It implements
// the paper's deployment conventions:
//   * jobs on ephSSD stage their input in from objStore and their output
//     back out (ephSSD is not persistent) — Fig. 1's download/upload legs;
//   * jobs on objStore keep intermediate data on a persSSD volume (§3.1.1);
//   * object-store access pays a per-file request overhead and an output
//     commit (rename-as-copy) penalty through the GCS connector;
//   * input may be split across tiers at task granularity to reproduce the
//     fine-grained-partitioning straggler study (Fig. 5).
#pragma once

#include <array>
#include <optional>
#include <vector>

#include "cloud/cluster.hpp"
#include "cloud/storage.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "sim/faults.hpp"
#include "workload/job.hpp"

namespace cast::sim {

/// Per-VM provisioned capacity for each tier (zero = tier not attached).
/// objStore needs no provisioning to be readable; a nonzero value there
/// only matters for cost accounting, not simulation.
struct TierCapacities {
    std::array<GigaBytes, cloud::kTierCount> per_vm{};

    [[nodiscard]] GigaBytes of(cloud::StorageTier t) const {
        return per_vm[cloud::tier_index(t)];
    }
    void set(cloud::StorageTier t, GigaBytes c) { per_vm[cloud::tier_index(t)] = c; }
};

/// A share of a job's input living on one tier.
struct InputSplit {
    cloud::StorageTier tier = cloud::StorageTier::kPersistentSsd;
    double fraction = 1.0;
};

/// Where one job's data lives and how it is staged.
struct JobPlacement {
    workload::JobSpec job;
    std::vector<InputSplit> input_splits;
    cloud::StorageTier intermediate_tier = cloud::StorageTier::kPersistentSsd;
    cloud::StorageTier output_tier = cloud::StorageTier::kPersistentSsd;
    /// Download the input from the backing object store before the job
    /// (the ephSSD convention; also used for cross-tier workflow hops).
    bool stage_in = false;
    /// Upload the output to the backing object store after the job.
    bool stage_out = false;

    /// The paper's convention for running a job wholly on `tier`:
    /// input/intermediate/output all on the tier, except objStore
    /// placements keep intermediates on persSSD, and ephSSD placements
    /// stage in/out of objStore.
    [[nodiscard]] static JobPlacement on_tier(const workload::JobSpec& job,
                                              cloud::StorageTier tier);

    void validate() const;
};

struct PhaseTimes {
    Seconds stage_in{0.0};
    Seconds map{0.0};
    Seconds shuffle{0.0};
    Seconds reduce{0.0};
    Seconds stage_out{0.0};

    [[nodiscard]] Seconds processing() const { return map + shuffle + reduce; }
    [[nodiscard]] Seconds total() const { return stage_in + processing() + stage_out; }
};

struct JobResult {
    Seconds makespan{0.0};
    PhaseTimes phases;
    /// What fault injection did to this job (all zeros when the profile is
    /// disabled — the struct itself never perturbs the simulation).
    FaultStats faults;
};

struct SimOptions {
    std::uint64_t seed = 42;
    /// Lognormal sigma of per-task demand jitter (0 = deterministic).
    double jitter_sigma = 0.06;
    /// Injected failures (sim/faults.hpp). The default (all-zero) profile
    /// leaves every simulation bit-identical to the fault-free simulator;
    /// the fault stream is seeded by `faults.seed`, independent of `seed`.
    FaultProfile faults{};
};

class ClusterSim {
public:
    ClusterSim(cloud::ClusterSpec cluster, cloud::StorageCatalog catalog,
               TierCapacities capacities, SimOptions options = {});

    [[nodiscard]] const cloud::ClusterSpec& cluster() const { return cluster_; }
    [[nodiscard]] const TierCapacities& capacities() const { return capacities_; }

    /// Execute one job and report its measured phase times. Deterministic
    /// for a given (options.seed, options.faults, job id). Throws
    /// SimulationError carrying (job, phase) context when an injected fault
    /// outlives the task-attempt budget. Thread-safe: concurrent calls on
    /// one ClusterSim each use their own thread-local scratch.
    [[nodiscard]] JobResult run_job(const JobPlacement& placement) const;

    /// Execute jobs back-to-back (the paper's workloads run as a serial
    /// batch on the shared cluster); returns per-job results in order.
    [[nodiscard]] std::vector<JobResult> run_serial(
        const std::vector<JobPlacement>& placements) const;

    /// Bulk-copy `volume` between two tiers (a workflow's cross-tier hop:
    /// "the output of one job is pipelined to another storage service").
    /// One parallel stream per VM, rate-limited by the slower endpoint.
    [[nodiscard]] Seconds run_transfer(GigaBytes volume, cloud::StorageTier from,
                                       cloud::StorageTier to) const;

    /// Aggregate per-VM bandwidth a tier delivers at the provisioned
    /// capacity (exposed for tests and the Table 1 microbenchmark).
    [[nodiscard]] MBytesPerSec tier_bandwidth_per_vm(cloud::StorageTier t) const;

private:
    cloud::ClusterSpec cluster_;
    cloud::StorageCatalog catalog_;
    TierCapacities capacities_;
    SimOptions options_;
    std::array<std::optional<cloud::TierPerformance>, cloud::kTierCount> perf_{};
};

}  // namespace cast::sim
