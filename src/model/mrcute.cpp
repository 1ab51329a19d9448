#include "model/mrcute.hpp"

namespace cast::model {

EstimateBreakdown estimate_breakdown(const cloud::ClusterSpec& cluster,
                                     const workload::JobSpec& job,
                                     const PhaseBandwidths& bw) {
    cluster.validate();
    job.validate();
    bw.validate();

    const auto& app = job.profile();
    const int nvm = cluster.worker_count;
    const int map_waves = wave_count(job.map_tasks, nvm * cluster.worker.map_slots);
    const int reduce_waves = wave_count(job.reduce_tasks, nvm * cluster.worker.reduce_slots);

    // Per-wave runtimes: the data one task handles divided by its profiled
    // per-task bandwidth on this tier (Eq. 1's three summands).
    const double map_chunk_mb = job.input.megabytes() / job.map_tasks;
    const double shuffle_part_mb = job.intermediate().megabytes() / job.reduce_tasks;
    const double reduce_part_mb = job.output().megabytes() / job.reduce_tasks;

    EstimateBreakdown est;
    est.map = Seconds{map_waves * (map_chunk_mb / bw.map.value()) * app.iterations()};
    est.shuffle =
        Seconds{reduce_waves * (shuffle_part_mb / bw.shuffle.value()) * app.iterations()};
    est.reduce =
        Seconds{reduce_waves * (reduce_part_mb / bw.reduce.value()) * app.iterations()};
    CAST_ENSURES(est.total().value() >= 0.0);
    return est;
}

double staging_rate_mbps(const cloud::ClusterSpec& cluster,
                         const cloud::StorageCatalog& catalog, cloud::StorageTier tier,
                         GigaBytes tier_capacity_per_vm, StagingDirection direction) {
    CAST_EXPECTS_MSG(tier != cloud::StorageTier::kObjectStore,
                     "staging to/from objStore itself is meaningless");
    const int nvm = cluster.worker_count;
    const auto& obj = catalog.service(cloud::StorageTier::kObjectStore);
    const auto& blk = catalog.service(tier);
    const auto blk_perf = blk.performance(blk.provision(tier_capacity_per_vm));
    double cluster_mbps = 0.0;
    if (direction == StagingDirection::kDownload) {
        cluster_mbps = std::min(obj.cluster_read_bw(GigaBytes{0.0}, nvm).value(),
                                blk_perf.write_bw.value() * nvm);
    } else {
        cluster_mbps = std::min(obj.cluster_write_bw(GigaBytes{0.0}, nvm).value(),
                                blk_perf.read_bw.value() * nvm);
    }
    CAST_ENSURES(cluster_mbps > 0.0);
    return cluster_mbps;
}

double cluster_bandwidth_mbps(const cloud::ClusterSpec& cluster,
                              const cloud::StorageCatalog& catalog, cloud::StorageTier tier,
                              GigaBytes tier_capacity_per_vm, bool reading) {
    const int nvm = cluster.worker_count;
    const auto& svc = catalog.service(tier);
    if (tier == cloud::StorageTier::kObjectStore) {
        return reading ? svc.cluster_read_bw(tier_capacity_per_vm, nvm).value()
                       : svc.cluster_write_bw(tier_capacity_per_vm, nvm).value();
    }
    const auto perf = svc.performance(svc.provision(tier_capacity_per_vm));
    return (reading ? perf.read_bw.value() : perf.write_bw.value()) * nvm;
}

Seconds estimate_staging(const cloud::ClusterSpec& cluster,
                         const cloud::StorageCatalog& catalog, cloud::StorageTier tier,
                         GigaBytes tier_capacity_per_vm, GigaBytes volume,
                         StagingDirection direction) {
    CAST_EXPECTS(volume.value() >= 0.0);
    if (volume.value() <= 0.0) return Seconds{0.0};
    return Seconds{volume.megabytes() /
                   staging_rate_mbps(cluster, catalog, tier, tier_capacity_per_vm, direction)};
}

}  // namespace cast::model
