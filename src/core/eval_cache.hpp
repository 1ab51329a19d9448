// Memoized REG runtime lookups for full plan evaluation.
//
// The dominant cost of a PlanEvaluator::evaluate is the per-job REG
// estimate (model::PerfModelSet::job_runtime): spline lookups plus the
// staging-leg model. Provider-side provisioning quantizes per-VM
// capacities (whole 375 GB ephSSD volumes, whole-GB persistent volumes),
// so greedy's single-job sweeps, the solvers' start-plan evaluations and
// the workflow solver's uniform sweeps keep revisiting a small set of
// (job, tier, capacity, legs) configurations. EvalCache memoizes exactly
// that quadruple. Neither annealing inner loop comes here: the batch SoA
// core and the workflow evaluator's evaluate_into both score candidates
// through the REG split (core/reg_split.hpp), whose per-(job, tier) terms
// and chain-private per-tier memo need no table.
//
// Keying. Jobs are identified by the fields job_runtime actually reads
// (application class, input size, map/reduce task counts) rather than by
// workload index, so one cache is shared safely between evaluators over
// different workloads (e.g. GreedySolver's single-job evaluators and the
// full-workload annealing evaluator). The model set is NOT part of the key:
// a cache must only ever be used with one PerfModelSet (cluster, catalog
// and profiled splines). The capacity key is canonicalized to
// zero for objStore placements whose model scales with the conventional
// intermediate volume instead of provisioned capacity — objStore runtime
// is capacity-independent there, and the canonical key keeps hit rates
// high while objStore aggregates drift.
//
// Thread safety. The table is sharded by key hash; each shard has its own
// mutex, so concurrent solves sharing one cache (the serve layer's
// snapshot-scoped table) contend only on colliding shards. Each shard's map carries a
// CAST_GUARDED_BY contract, so the Clang thread-safety lane proves every
// map access holds its shard mutex. Values are deterministic
// functions of their key, so duplicated computation under a race is
// benign: both threads store the same bits.
//
// L1 front. Each thread additionally keeps a small lock-free direct-mapped
// array in front of the shared table: greedy sweeps and repeated start-plan
// evaluations re-read the same hot keys, and a thread-local probe (one
// index, one key compare) costs a fraction of a mutex acquisition. Entries are tagged with
// the owning cache and a globally unique generation, so a cleared or
// destroyed cache can never serve stale values — not even to a new cache
// constructed at the same address.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>

#include "common/annotations.hpp"

#include "cloud/storage.hpp"
#include "common/units.hpp"
#include "model/profiler.hpp"
#include "workload/job.hpp"

namespace cast::core {

struct EvalCacheStats {
    /// Total hits (L1 front + shared table); kept as a field so existing
    /// consumers read one number.
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    /// Hits served by the thread-local direct-mapped front (no lock).
    std::uint64_t l1_hits = 0;
    /// Hits served by the sharded shared table (one shard mutex).
    std::uint64_t shared_hits = 0;
    /// Entries stored into the shared table. Can exceed the table size
    /// when racing threads compute one key twice (benign: same bits).
    std::uint64_t inserts = 0;
    /// Times clear() re-generationed the cache (snapshot swaps, epoch
    /// invalidation) over this cache's lifetime. Survives clear() itself.
    std::uint64_t generation_bumps = 0;

    [[nodiscard]] std::uint64_t lookups() const { return hits + misses; }
    [[nodiscard]] double hit_rate() const {
        const std::uint64_t n = lookups();
        return n == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(n);
    }
};

class EvalCache {
public:
    /// `shards` is rounded up to a power of two.
    explicit EvalCache(std::size_t shards = 16);

    EvalCache(const EvalCache&) = delete;
    EvalCache& operator=(const EvalCache&) = delete;

    /// Memoized model::PerfModelSet::job_runtime. On a miss the runtime is
    /// computed through `models` and stored; identical lookups (same job
    /// content, tier, provisioned per-VM capacity and staging legs) return
    /// the identical bits thereafter.
    [[nodiscard]] Seconds job_runtime(const model::PerfModelSet& models,
                                      const workload::JobSpec& job, cloud::StorageTier tier,
                                      GigaBytes per_vm_capacity, model::StagingLegs legs);

    [[nodiscard]] EvalCacheStats stats() const;

    /// Total number of memoized entries across all shards.
    [[nodiscard]] std::size_t size() const;

    void clear();

private:
    struct Key {
        std::uint64_t input_bits = 0;
        std::uint64_t capacity_bits = 0;
        std::int32_t app = 0;
        std::int32_t tier = 0;
        std::int32_t map_tasks = 0;
        std::int32_t reduce_tasks = 0;
        std::uint32_t legs = 0;

        friend bool operator==(const Key&, const Key&) = default;
    };

    struct KeyHash {
        [[nodiscard]] std::size_t operator()(const Key& k) const;
    };

    struct Shard {
        Mutex mutex;
        std::unordered_map<Key, double, KeyHash> map CAST_GUARDED_BY(mutex);
    };

    /// One slot of the thread-local direct-mapped L1. A slot is valid for
    /// this cache only when (owner, generation) both match; generations are
    /// drawn from a process-global counter, so no two logical cache
    /// lifetimes ever share one.
    struct L1Entry {
        const EvalCache* owner = nullptr;
        std::uint64_t generation = 0;
        Key key{};
        double value = 0.0;
    };

    std::unique_ptr<Shard[]> shards_;
    std::size_t shard_mask_;
    std::atomic<std::uint64_t> generation_;
    std::atomic<std::uint64_t> l1_hits_{0};
    std::atomic<std::uint64_t> shared_hits_{0};
    std::atomic<std::uint64_t> misses_{0};
    std::atomic<std::uint64_t> inserts_{0};
    std::atomic<std::uint64_t> generation_bumps_{0};
};

/// `cache` when the caller supplied one, otherwise a fresh table owned by
/// `owned` for the length of one solve.
inline EvalCache* cache_or_owned(EvalCache* cache, std::unique_ptr<EvalCache>& owned) {
    if (cache != nullptr) return cache;
    owned = std::make_unique<EvalCache>();
    return owned.get();
}

}  // namespace cast::core
