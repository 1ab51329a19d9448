#include "core/reg_split.hpp"

#include <atomic>

#include "cloud/cluster.hpp"

namespace cast::core {

namespace {
using cloud::StorageTier;
using cloud::tier_index;

std::uint64_t next_split_id() {
    static std::atomic<std::uint64_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
}
}  // namespace

RegSplit::RegSplit(const model::PerfModelSet& models, std::span<const workload::JobSpec> jobs,
                   const LegsFn& legs)
    : models_(&models), id_(next_split_id()) {
    const int nvm = models.cluster().worker_count;
    terms_.reserve(jobs.size() * cloud::kTierCount);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const workload::JobSpec& job = jobs[i];
        for (StorageTier t : cloud::kAllTiers) {
            const std::size_t ti = tier_index(t);
            Terms terms;
            terms.app = static_cast<std::uint8_t>(workload::app_index(job.app));
            terms.modeled = models.has_tier_model(job.app, t);
            if (terms.modeled) {
                // The capacity-free half of PerfModelSet::job_runtime,
                // through the same model calls.
                const model::TierModel& m = models.tier_model(job.app, t);
                terms.base = model::estimate(models.cluster(), job, m.bandwidths).value();
                terms.capacity_scaled = !m.scales_with_intermediate_volume;
                if (!terms.capacity_scaled) {
                    terms.scale = m.scale_at(
                        cloud::object_store_intermediate_volume(job.intermediate(), nvm));
                }
                if (t != StorageTier::kObjectStore) {
                    const model::StagingLegs paid = legs(i, t);
                    if (paid.download_input) terms.download_mb = job.input.megabytes();
                    if (paid.upload_output) terms.upload_mb = job.output().megabytes();
                }
                capacity_sensitive_[ti] = capacity_sensitive_[ti] || terms.capacity_scaled ||
                                          terms.download_mb > 0.0 || terms.upload_mb > 0.0;
            }
            terms_.push_back(terms);
        }
    }
}

double RegSplit::compute_factor(std::size_t which, std::size_t tier, double per_vm) const {
    const StorageTier t = cloud::kAllTiers[tier];
    const GigaBytes capacity{per_vm};
    const cloud::ClusterSpec& cluster = models_->cluster();
    const cloud::StorageCatalog& catalog = models_->catalog();
    switch (which) {
        case RegMemo::kDownload:
            return model::staging_rate_mbps(cluster, catalog, t, capacity,
                                            model::StagingDirection::kDownload);
        case RegMemo::kUpload:
            return model::staging_rate_mbps(cluster, catalog, t, capacity,
                                            model::StagingDirection::kUpload);
        case RegMemo::kRead:
            return model::cluster_bandwidth_mbps(cluster, catalog, t, capacity, true);
        case RegMemo::kWrite:
            return model::cluster_bandwidth_mbps(cluster, catalog, t, capacity, false);
        default:
            return models_->tier_model(workload::kAllApps[which], t).scale_at(capacity);
    }
}

}  // namespace cast::core
