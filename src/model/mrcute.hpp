// MRCute-style analytical job performance model (paper Eq. 1).
//
// EST(R̂, M̂(sᵢ, L̂ᵢ)) decomposes a MapReduce job into map, shuffle and
// reduce sub-models, each #waves × runtime-per-wave, where a wave is the
// number of tasks the cluster can run at once. The per-task bandwidths
// bw^f_phase come from offline profiling (the M̂ matrix, see profiler.hpp).
// Iterative applications (KMeans, PageRank) repeat all three phases once
// per iteration.
#pragma once

#include <cmath>

#include "cloud/cluster.hpp"
#include "cloud/storage.hpp"
#include "common/error.hpp"
#include "common/units.hpp"
#include "workload/job.hpp"

namespace cast::model {

/// One M̂ entry: effective per-task bandwidth of each phase for a given
/// (application, storage service) pair, at the profiling reference
/// capacity.
struct PhaseBandwidths {
    MBytesPerSec map{0.0};
    MBytesPerSec shuffle{0.0};
    MBytesPerSec reduce{0.0};

    void validate() const {
        CAST_EXPECTS(map.value() > 0.0);
        CAST_EXPECTS(shuffle.value() > 0.0);
        CAST_EXPECTS(reduce.value() > 0.0);
    }
};

/// Phase-level estimate breakdown (processing only; staging legs are
/// accounted separately, see estimate_staging()).
struct EstimateBreakdown {
    Seconds map{0.0};
    Seconds shuffle{0.0};
    Seconds reduce{0.0};

    [[nodiscard]] Seconds total() const { return map + shuffle + reduce; }
};

/// Eq. 1: number of waves for `tasks` over `slots` parallel slots.
[[nodiscard]] inline int wave_count(int tasks, int slots) {
    CAST_EXPECTS(tasks >= 1);
    CAST_EXPECTS(slots >= 1);
    return static_cast<int>((tasks + slots - 1) / slots);
}

/// EST(.) of Eq. 1 with an explicit per-phase breakdown.
[[nodiscard]] EstimateBreakdown estimate_breakdown(const cloud::ClusterSpec& cluster,
                                                   const workload::JobSpec& job,
                                                   const PhaseBandwidths& bw);

/// EST(.) of Eq. 1 (processing phases only).
[[nodiscard]] inline Seconds estimate(const cloud::ClusterSpec& cluster,
                                      const workload::JobSpec& job,
                                      const PhaseBandwidths& bw) {
    return estimate_breakdown(cluster, job, bw).total();
}

enum class StagingDirection {
    kDownload,  // objStore -> tier
    kUpload,    // tier -> objStore
};

/// Whole-cluster copy rate (MB/s) of a staging leg between the object
/// store and `tier` provisioned at `tier_capacity_per_vm`: the object
/// store's aggregate ceiling for its side of the transfer vs the block
/// volumes' combined rate. Depends only on (tier, per-VM capacity,
/// direction), so callers that stage many jobs may hoist it.
[[nodiscard]] double staging_rate_mbps(const cloud::ClusterSpec& cluster,
                                       const cloud::StorageCatalog& catalog,
                                       cloud::StorageTier tier, GigaBytes tier_capacity_per_vm,
                                       StagingDirection direction);

/// Whole-cluster bandwidth (MB/s) at which `tier`, provisioned at
/// `tier_capacity_per_vm` per VM, reads (`reading`) or writes: the object
/// store's cluster ceiling, or the block volumes' per-VM rate times the
/// worker count. A workflow's cross-tier hop moves at the smaller of its
/// source's read and its sink's write bandwidth.
[[nodiscard]] double cluster_bandwidth_mbps(const cloud::ClusterSpec& cluster,
                                            const cloud::StorageCatalog& catalog,
                                            cloud::StorageTier tier,
                                            GigaBytes tier_capacity_per_vm, bool reading);

/// Analytical estimate of the bulk-copy staging legs a placement needs
/// (download before / upload after): `volume` moved between the object
/// store and `tier` at staging_rate_mbps. A zero volume costs nothing.
[[nodiscard]] Seconds estimate_staging(const cloud::ClusterSpec& cluster,
                                       const cloud::StorageCatalog& catalog,
                                       cloud::StorageTier tier, GigaBytes tier_capacity_per_vm,
                                       GigaBytes volume,
                                       StagingDirection direction = StagingDirection::kDownload);

}  // namespace cast::model
