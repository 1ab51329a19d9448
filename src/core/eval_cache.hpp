// Memoized REG runtime lookups for full plan evaluation.
//
// The dominant cost of a PlanEvaluator::evaluate is the per-job REG
// estimate (model::PerfModelSet::job_runtime): spline lookups plus the
// staging-leg model. Provider-side provisioning quantizes per-VM
// capacities (whole 375 GB ephSSD volumes, whole-GB persistent volumes),
// so greedy's single-job sweeps, the solvers' start-plan evaluations and
// the workflow solver's uniform sweeps keep revisiting a small set of
// (job, tier, capacity, legs) configurations. EvalCache memoizes exactly
// that quadruple. Neither annealing inner loop comes here: both score
// candidates on the SoA core (core/soa_eval.hpp) through the REG split
// (core/reg_split.hpp), whose per-(job, tier) terms and chain-private
// per-tier memo need no table.
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
// Thread safety. One mutex guards the map and the counters; the map
// carries a CAST_GUARDED_BY contract, so the Clang thread-safety lane
// proves every access holds it. A miss computes outside the lock: values
// are deterministic functions of their key, so duplicated computation
// under a race is benign (both threads store the same bits). A cache
// lives as long as its owner — one solve, or one serve snapshot — and is
// never cleared.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "common/annotations.hpp"

#include "cloud/storage.hpp"
#include "common/units.hpp"
#include "model/profiler.hpp"
#include "workload/job.hpp"

namespace cast::core {

struct EvalCacheStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    /// Entries stored into the table. Can exceed the table size when
    /// racing threads compute one key twice (benign: same bits).
    std::uint64_t inserts = 0;

    [[nodiscard]] std::uint64_t lookups() const { return hits + misses; }
    [[nodiscard]] double hit_rate() const {
        const std::uint64_t n = lookups();
        return n == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(n);
    }
};

class EvalCache {
public:
    EvalCache() = default;

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

    /// Number of memoized entries.
    [[nodiscard]] std::size_t size() const;

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

    mutable Mutex mutex_;
    std::unordered_map<Key, double, KeyHash> map_ CAST_GUARDED_BY(mutex_);
    EvalCacheStats stats_ CAST_GUARDED_BY(mutex_);
};

}  // namespace cast::core
