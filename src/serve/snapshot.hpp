// Immutable planning snapshots for the multi-tenant serving layer.
//
// The one-shot CLI pipeline pays the full cold cost on every invocation:
// it re-loads the catalog and profiled model set and builds a fresh
// EvalCache before the first annealing iteration runs. A Snapshot hoists
// all of that out of the request path. It bundles, loaded exactly once:
//
//   * the profiled PerfModelSet (cluster shape + catalog + REG splines),
//   * pre-derived per-tier capacity/pricing terms (TierTerms) so serving
//     code and reports never re-walk the virtual catalog interface,
//   * one shared EvalCache, scoped to this snapshot's model set — the
//     cross-request memo that lets request N+1 reuse every REG runtime
//     request N computed (bit-identical by EvalCache's contract).
//
// Snapshots are immutable and refcounted (std::shared_ptr<const Snapshot>):
// every in-flight request holds the snapshot it captured when popped, so a
// swap can never pull models out from under a running solve. Each snapshot
// carries a process-globally unique epoch; PlannerService::swap_snapshot
// installs the next epoch and drops the service's reference to the old
// one, whose cache is freed with it once the last request holding it
// finishes. The only mutable member is the cache, which is internally
// synchronized (its map carries a CAST_GUARDED_BY contract checked by the
// Clang thread-safety lane); everything else is immutable after
// construction, so the snapshot itself needs no mutex and no annotations.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>

#include "cloud/storage.hpp"
#include "core/eval_cache.hpp"
#include "model/profiler.hpp"

namespace cast::serve {

/// Per-tier terms derived from the catalog once per snapshot. Everything a
/// serving-path consumer (admission estimates, reports, the bench JSON)
/// reads per request without touching the virtual StorageService API.
struct TierTerms {
    double price_per_gb_hour = 0.0;
    /// Provider cap on per-VM capacity; nullopt for uncapped tiers
    /// (objStore).
    std::optional<double> max_per_vm_gb;
    bool persistent = false;
    /// Cluster-wide read bandwidth (MB/s) at the 500 GB/VM reference
    /// provisioning — the Fig. 1/Table 1 comparison point.
    double reference_read_mbps = 0.0;
};

class Snapshot {
public:
    /// Derives the tier terms and creates the snapshot-scoped cache. The
    /// epoch is drawn from a process-global counter, so no two snapshots
    /// ever share one (not even across services).
    explicit Snapshot(model::PerfModelSet models);

    Snapshot(const Snapshot&) = delete;
    Snapshot& operator=(const Snapshot&) = delete;

    [[nodiscard]] const model::PerfModelSet& models() const { return models_; }
    [[nodiscard]] std::uint64_t epoch() const { return epoch_; }

    [[nodiscard]] const TierTerms& tier_terms(cloud::StorageTier tier) const {
        return terms_[cloud::tier_index(tier)];
    }

    /// The snapshot-scoped cross-request memo. Mutable through a const
    /// snapshot by design: EvalCache is internally synchronized and
    /// bit-transparent, so sharing it never changes a result.
    [[nodiscard]] core::EvalCache& cache() const { return cache_; }

private:
    model::PerfModelSet models_;
    std::array<TierTerms, cloud::kTierCount> terms_{};
    mutable core::EvalCache cache_;
    std::uint64_t epoch_;
};

using SnapshotPtr = std::shared_ptr<const Snapshot>;

/// Convenience: profile-free construction from an already-loaded model set.
[[nodiscard]] SnapshotPtr make_snapshot(model::PerfModelSet models);

}  // namespace cast::serve
