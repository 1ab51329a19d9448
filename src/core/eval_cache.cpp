#include "core/eval_cache.hpp"

#include <bit>

namespace cast::core {

namespace {

[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t z) {
    // SplitMix64 finalizer: cheap, well-distributed bit mixing.
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

}  // namespace

std::size_t EvalCache::KeyHash::operator()(const Key& k) const {
    std::uint64_t h = mix64(k.input_bits ^ 0x9e3779b97f4a7c15ULL);
    h = mix64(h ^ k.capacity_bits);
    h = mix64(h ^ (static_cast<std::uint64_t>(static_cast<std::uint32_t>(k.app)) |
                   (static_cast<std::uint64_t>(static_cast<std::uint32_t>(k.tier)) << 8) |
                   (static_cast<std::uint64_t>(static_cast<std::uint32_t>(k.legs)) << 16)));
    h = mix64(h ^ (static_cast<std::uint64_t>(static_cast<std::uint32_t>(k.map_tasks)) |
                   (static_cast<std::uint64_t>(static_cast<std::uint32_t>(k.reduce_tasks))
                    << 32)));
    return static_cast<std::size_t>(h);
}

Seconds EvalCache::job_runtime(const model::PerfModelSet& models,
                               const workload::JobSpec& job, cloud::StorageTier tier,
                               GigaBytes per_vm_capacity, model::StagingLegs legs) {
    // Canonical capacity key: an objStore placement whose model scales with
    // the conventional intermediate volume never reads the provisioned
    // capacity (neither processing nor staging), so all capacities map to
    // one entry.
    double capacity = per_vm_capacity.value();
    if (tier == cloud::StorageTier::kObjectStore && models.has_tier_model(job.app, tier) &&
        models.tier_model(job.app, tier).scales_with_intermediate_volume) {
        capacity = 0.0;
    }
    const Key key{
        .input_bits = std::bit_cast<std::uint64_t>(job.input.value()),
        .capacity_bits = std::bit_cast<std::uint64_t>(capacity),
        .app = static_cast<std::int32_t>(workload::app_index(job.app)),
        .tier = static_cast<std::int32_t>(cloud::tier_index(tier)),
        .map_tasks = job.map_tasks,
        .reduce_tasks = job.reduce_tasks,
        .legs = static_cast<std::uint32_t>(legs.download_input ? 1 : 0) |
                static_cast<std::uint32_t>(legs.upload_output ? 2 : 0),
    };
    {
        LockGuard lock(mutex_);
        const auto it = map_.find(key);
        if (it != map_.end()) {
            ++stats_.hits;
            return Seconds{it->second};
        }
        ++stats_.misses;
    }
    // Compute outside the lock: the value is a pure function of the key, so
    // a concurrent duplicate computation stores the same bits.
    const Seconds t = models.job_runtime(job, tier, per_vm_capacity, legs);
    LockGuard lock(mutex_);
    map_.emplace(key, t.value());
    ++stats_.inserts;
    return t;
}

EvalCacheStats EvalCache::stats() const {
    LockGuard lock(mutex_);
    return stats_;
}

std::size_t EvalCache::size() const {
    LockGuard lock(mutex_);
    return map_.size();
}

}  // namespace cast::core
