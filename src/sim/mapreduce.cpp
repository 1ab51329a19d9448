#include "sim/mapreduce.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <utility>

#include "sim/flow_engine.hpp"
#include "sim/phase_runner.hpp"

namespace cast::sim {

namespace {

using cloud::StorageTier;
using cloud::tier_index;
using workload::ApplicationProfile;

// Capacity of the uncontended resource used for CPU work and fixed delays.
constexpr double kUnboundedMbps = 1e15;

}  // namespace

JobPlacement JobPlacement::on_tier(const workload::JobSpec& job, StorageTier tier) {
    JobPlacement p;
    p.job = job;
    p.input_splits = {InputSplit{tier, 1.0}};
    p.intermediate_tier = tier;
    p.output_tier = tier;
    if (tier == StorageTier::kEphemeralSsd) {
        // ephSSD offers no persistence: inputs come down from, and outputs
        // go back to, the object store (Fig. 1 caption).
        p.stage_in = true;
        p.stage_out = true;
    } else if (tier == StorageTier::kObjectStore) {
        // Intermediate (shuffle) data cannot live in the object store; the
        // paper attaches a persSSD volume for it (§3.1.1).
        p.intermediate_tier = StorageTier::kPersistentSsd;
    }
    return p;
}

void JobPlacement::validate() const {
    job.validate();
    CAST_EXPECTS_MSG(!input_splits.empty(), "placement needs at least one input split");
    double total = 0.0;
    for (const auto& s : input_splits) {
        CAST_EXPECTS_MSG(s.fraction > 0.0, "input split fraction must be positive");
        total += s.fraction;
    }
    CAST_EXPECTS_MSG(approx_equal(total, 1.0, 1e-6), "input split fractions must sum to 1");
    CAST_EXPECTS_MSG(intermediate_tier != StorageTier::kObjectStore,
                     "intermediate data cannot live in the object store");
}

ClusterSim::ClusterSim(cloud::ClusterSpec cluster, cloud::StorageCatalog catalog,
                       TierCapacities capacities, SimOptions options)
    : cluster_(std::move(cluster)),
      catalog_(std::move(catalog)),
      capacities_(capacities),
      options_(options) {
    cluster_.validate();
    CAST_EXPECTS(options_.jitter_sigma >= 0.0);
    options_.faults.validate();
    for (StorageTier t : cloud::kAllTiers) {
        const auto& service = catalog_.service(t);
        const GigaBytes per_vm = capacities_.of(t);
        if (t == StorageTier::kObjectStore) {
            // Always reachable; capacity only matters for billing.
            perf_[tier_index(t)] = service.performance(per_vm);
        } else if (per_vm.value() > 0.0) {
            const GigaBytes provisioned = service.provision(per_vm);
            capacities_.set(t, provisioned);
            perf_[tier_index(t)] = service.performance(provisioned);
        }
    }
}

MBytesPerSec ClusterSim::tier_bandwidth_per_vm(StorageTier t) const {
    const auto& p = perf_[tier_index(t)];
    CAST_EXPECTS_MSG(p.has_value(), std::string("tier not attached: ") +
                                        std::string(cloud::tier_name(t)));
    return p->read_bw;
}

namespace {

/// Per-thread reusable simulation state: the arena flow engine, the
/// resource ids for (vm, tier) volume pools plus the uncontended resource,
/// the per-wave task batch, and the phase-runner bookkeeping. Everything
/// keeps its buffer capacity across jobs; reset() re-registers resources
/// for the next job's topology. The scratch is storage, never state — a
/// fresh scratch and a reused one produce bit-identical simulations.
struct SimScratch {
    FlowEngine engine;
    TaskBatch tasks;
    PhaseScratch phase;

    int vm_count = 0;
    std::array<std::vector<ResourceId>, cloud::kTierCount> pools{};
    std::vector<ResourceId> network_pools;
    ResourceId unbounded = 0;
    // The object store is a shared service with bucket-level aggregate
    // ceilings, so it gets two cluster-wide pools (read / write) instead of
    // per-VM volume pools.
    std::optional<ResourceId> object_store_read;
    std::optional<ResourceId> object_store_write;

    /// Rewind the engine and re-register the base resources (uncontended +
    /// per-VM network pools), matching a freshly constructed engine's
    /// resource-id assignment exactly.
    void reset(int vms, MBytesPerSec network_bw) {
        engine.reset();
        tasks.clear();
        vm_count = vms;
        for (auto& v : pools) v.clear();
        network_pools.clear();
        object_store_read.reset();
        object_store_write.reset();
        unbounded = engine.add_resource(MBytesPerSec{kUnboundedMbps});
        network_pools.reserve(static_cast<std::size_t>(vms));
        for (int i = 0; i < vms; ++i) {
            network_pools.push_back(engine.add_resource(network_bw));
        }
    }

    [[nodiscard]] ResourceId network(int vm) const {
        CAST_EXPECTS(vm >= 0 && vm < static_cast<int>(network_pools.size()));
        return network_pools[static_cast<std::size_t>(vm)];
    }

    void attach_tier(StorageTier t, MBytesPerSec per_vm_bw) {
        CAST_EXPECTS(t != StorageTier::kObjectStore);
        auto& v = pools[tier_index(t)];
        if (!v.empty()) return;
        v.reserve(static_cast<std::size_t>(vm_count));
        for (int i = 0; i < vm_count; ++i) v.push_back(engine.add_resource(per_vm_bw));
    }

    void attach_object_store(MBytesPerSec cluster_read, MBytesPerSec cluster_write) {
        if (object_store_read) return;
        object_store_read = engine.add_resource(cluster_read);
        object_store_write = engine.add_resource(cluster_write);
    }

    [[nodiscard]] ResourceId pool(StorageTier t, int vm) const {
        CAST_EXPECTS_MSG(t != StorageTier::kObjectStore,
                         "objStore access must name a direction");
        const auto& v = pools[tier_index(t)];
        CAST_EXPECTS_MSG(!v.empty(), "tier pool not attached");
        CAST_EXPECTS(vm >= 0 && vm < static_cast<int>(v.size()));
        return v[static_cast<std::size_t>(vm)];
    }

    [[nodiscard]] ResourceId read_pool(StorageTier t, int vm) const {
        if (t == StorageTier::kObjectStore) {
            CAST_EXPECTS(object_store_read.has_value());
            return *object_store_read;
        }
        return pool(t, vm);
    }

    [[nodiscard]] ResourceId write_pool(StorageTier t, int vm) const {
        if (t == StorageTier::kObjectStore) {
            CAST_EXPECTS(object_store_write.has_value());
            return *object_store_write;
        }
        return pool(t, vm);
    }
};

}  // namespace

JobResult ClusterSim::run_job(const JobPlacement& placement) const {
    // One scratch per thread: BatchRunner workers, profiler calibration
    // threads and serial callers all reuse their own arena.
    static thread_local SimScratch res;
    placement.validate();
    const workload::JobSpec& job = placement.job;
    const ApplicationProfile& app = job.profile();
    const int nvm = cluster_.worker_count;
    const int map_slots = cluster_.worker.map_slots;
    const int reduce_slots = cluster_.worker.reduce_slots;

    // Every tier the job touches must be attached (provisioned), except the
    // object store which is always reachable.
    auto require_tier = [&](StorageTier t) {
        if (t == StorageTier::kObjectStore) return;
        CAST_EXPECTS_MSG(perf_[tier_index(t)].has_value(),
                         std::string("job placed on unprovisioned tier ") +
                             std::string(cloud::tier_name(t)));
    };
    for (const auto& s : placement.input_splits) require_tier(s.tier);
    require_tier(placement.intermediate_tier);
    require_tier(placement.output_tier);

    // Per-stream ceiling: one task stream cannot exceed its slot share of
    // the volume even when other slots are idle. This models the
    // queue-depth-based throttling of provider block devices and HDFS's
    // per-reader pacing, and is what produces the paper's Fig. 5 result:
    // tasks on a slow tier run at slow-tier pace no matter how few they
    // are, so mixed placements track the slow tier.
    auto per_stream_cap = [&](StorageTier t) {
        const auto& p = perf_[tier_index(t)];
        CAST_EXPECTS(p.has_value());
        return p->read_bw.value() / static_cast<double>(map_slots);
    };

    FlowEngine& engine = res.engine;
    res.reset(nvm, cluster_.worker.shuffle_network_bw);
    for (StorageTier t : cloud::kAllTiers) {
        const bool used =
            std::any_of(placement.input_splits.begin(), placement.input_splits.end(),
                        [&](const InputSplit& s) { return s.tier == t; }) ||
            placement.intermediate_tier == t || placement.output_tier == t ||
            (t == StorageTier::kObjectStore && (placement.stage_in || placement.stage_out));
        if (used) {
            require_tier(t);
            if (t == StorageTier::kObjectStore) {
                const auto& svc = catalog_.service(t);
                res.attach_object_store(svc.cluster_read_bw(GigaBytes{0.0}, nvm),
                                        svc.cluster_write_bw(GigaBytes{0.0}, nvm));
            } else {
                res.attach_tier(t, perf_[tier_index(t)]->read_bw);
            }
        }
    }

    Rng rng = Rng(options_.seed).fork(static_cast<std::uint64_t>(job.id));
    auto jitter = [&]() {
        return options_.jitter_sigma > 0.0 ? rng.lognormal_jitter(options_.jitter_sigma) : 1.0;
    };

    // Fault injection: a per-job injector with its own stream (so enabling
    // faults never perturbs the jitter stream above), plus throttling
    // episodes scheduled onto every pool of the affected tiers. All of it
    // is gated on enabled(): a zero profile leaves this function
    // bit-identical to the fault-free simulator.
    std::optional<FaultInjector> injector;
    if (options_.faults.enabled()) {
        injector.emplace(options_.faults, static_cast<std::uint64_t>(job.id));
        for (const auto& ep : options_.faults.episodes) {
            if (ep.duration.value() <= 0.0 || ep.rate_factor >= 1.0) continue;
            auto throttle_pool = [&](ResourceId rid) {
                const double base = engine.resource_capacity(rid);
                engine.schedule_capacity_change(rid, ep.start,
                                                MBytesPerSec{base * ep.rate_factor});
                engine.schedule_capacity_change(rid, ep.start + ep.duration,
                                                MBytesPerSec{base});
            };
            if (ep.tier == StorageTier::kObjectStore) {
                // Bucket-level incident: both directions of the shared service.
                if (res.object_store_read) throttle_pool(*res.object_store_read);
                if (res.object_store_write) throttle_pool(*res.object_store_write);
            } else {
                // Provider-side volume incident, correlated across VMs.
                for (ResourceId rid : res.pools[tier_index(ep.tier)]) throttle_pool(rid);
            }
        }
    }

    // The wave batch, rebuilt (capacity-reusing) for every phase.
    TaskBatch& batch = res.tasks;

    // Run one phase through the injector (request counts are per-task
    // because fine-grained splits give tasks different input tiers), and
    // re-raise injected failures with (job, phase) context.
    auto run_faulted = [&](const char* phase_name, int slots,
                           FaultInjector::RequestCountFn requests) {
        if (injector) injector->begin_phase(std::move(requests));
        try {
            return run_phase(engine, batch, nvm, slots, res.phase,
                             injector ? &*injector : nullptr, res.unbounded);
        } catch (const SimulationError& e) {
            throw e.with_context(job.name, phase_name);
        }
    };

    const double input_mb = job.input.megabytes();
    const double inter_mb = job.intermediate().megabytes();
    const double output_mb = job.output().megabytes();
    const int m = job.map_tasks;
    const int r = job.reduce_tasks;
    const double chunk_mb = input_mb / m;
    const Seconds obj_overhead = catalog_.service(StorageTier::kObjectStore).request_overhead();

    PhaseTimes phases;

    // ---- Stage in: bulk parallel copy objStore -> input tiers. One
    // high-queue-depth stream per VM (distcp-style), so the per-stream
    // ceiling does not apply; the copy runs at the slower of the
    // object-store allocation and the destination volume's write bandwidth.
    if (placement.stage_in) {
        batch.clear();
        for (const auto& split : placement.input_splits) {
            CAST_EXPECTS_MSG(split.tier != StorageTier::kObjectStore,
                             "staging in to objStore makes no sense");
            const double per_vm_mb = input_mb * split.fraction / nvm;
            const double dest_bw = perf_[tier_index(split.tier)]->write_bw.value();
            for (int vm = 0; vm < nvm; ++vm) {
                batch.begin_task(vm);
                batch.add_segment(res.read_pool(StorageTier::kObjectStore, vm),
                                  per_vm_mb * jitter(), dest_bw);
            }
        }
        // Each stage task holds one bulk objStore session: one "request"
        // that can hit a transient error and back off.
        phases.stage_in =
            run_faulted("stage_in", /*slots=*/2, [](std::size_t) { return 1.0; });
    }

    // Assign each map task an input tier according to the split fractions:
    // the first ceil(f1*m) tasks read split 1, and so on (HDFS places a
    // file's blocks contiguously per tier).
    auto input_tier_of_task = [&](int t) {
        double cum = 0.0;
        for (const auto& split : placement.input_splits) {
            cum += split.fraction;
            if (static_cast<double>(t + 1) <= cum * m + 1e-9) return split.tier;
        }
        return placement.input_splits.back().tier;
    };

    for (int iter = 0; iter < app.iterations(); ++iter) {
        const bool last_iter = iter + 1 == app.iterations();
        const StorageTier out_tier =
            last_iter ? placement.output_tier : placement.intermediate_tier;

        // ---- Map phase.
        {
            batch.clear();
            batch.reserve(static_cast<std::size_t>(m), static_cast<std::size_t>(m) * 3);
            for (int t = 0; t < m; ++t) {
                const int vm = t % nvm;
                const StorageTier in_tier = input_tier_of_task(t);
                batch.begin_task(vm);
                if (in_tier == StorageTier::kObjectStore) {
                    // Connection setup per input object (GCS connector).
                    batch.add_segment(
                        res.unbounded,
                        app.files_per_map_task() * obj_overhead.value() * jitter(), 1.0);
                }
                // Streamed read + compute of this task's chunk.
                batch.add_segment(
                    res.read_pool(in_tier, vm), chunk_mb * jitter(),
                    std::min(app.map_compute_rate().value(), per_stream_cap(in_tier)));
                // Emit intermediate data.
                if (inter_mb > 0.0) {
                    batch.add_segment(
                        res.write_pool(placement.intermediate_tier, vm),
                        (inter_mb / m) * jitter(),
                        std::min(app.map_compute_rate().value(),
                                 per_stream_cap(placement.intermediate_tier)));
                }
            }
            const double files_per_map = app.files_per_map_task();
            phases.map += run_faulted(
                "map", map_slots, [&, files_per_map](std::size_t t) {
                    return input_tier_of_task(static_cast<int>(t)) ==
                                   StorageTier::kObjectStore
                               ? files_per_map
                               : 0.0;
                });
        }

        // ---- Shuffle phase: each reduce task fetches its partition of the
        // intermediate data from the map-side volumes. On a multi-node
        // cluster the fetches cross the network and drain through the
        // Hadoop shuffle path's per-VM throughput; on a single node the
        // shuffle is a local copy on the intermediate volume.
        if (inter_mb > 0.0) {
            batch.clear();
            batch.reserve(static_cast<std::size_t>(r), static_cast<std::size_t>(r));
            for (int t = 0; t < r; ++t) {
                const int vm = t % nvm;
                const ResourceId pool = nvm > 1
                                            ? res.network(vm)
                                            : res.pool(placement.intermediate_tier, vm);
                batch.begin_task(vm);
                batch.add_segment(pool, (inter_mb / r) * jitter(),
                                  std::min(app.shuffle_transfer_rate().value(),
                                           per_stream_cap(placement.intermediate_tier)));
            }
            phases.shuffle += run_faulted("shuffle", reduce_slots, /*requests=*/nullptr);
        }

        // ---- Reduce phase: merge-read the shuffled partition, compute,
        // write the output.
        {
            batch.clear();
            batch.reserve(static_cast<std::size_t>(r), static_cast<std::size_t>(r) * 4);
            const double out_this_iter_mb = last_iter ? output_mb : inter_mb * 0.05;
            for (int t = 0; t < r; ++t) {
                const int vm = t % nvm;
                batch.begin_task(vm);
                std::size_t segments = 0;
                if (inter_mb > 0.0) {
                    batch.add_segment(
                        res.pool(placement.intermediate_tier, vm), (inter_mb / r) * jitter(),
                        std::min(app.reduce_compute_rate().value(),
                                 per_stream_cap(placement.intermediate_tier)));
                    ++segments;
                }
                if (out_this_iter_mb > 0.0) {
                    if (out_tier == StorageTier::kObjectStore) {
                        // Connection setup + commit for every output object,
                        // then the write itself, then the rename-as-copy the
                        // Hadoop output committer performs on object stores.
                        batch.add_segment(
                            res.unbounded,
                            app.files_per_reduce_task() * obj_overhead.value() * jitter(),
                            1.0);
                        batch.add_segment(
                            res.write_pool(out_tier, vm), (out_this_iter_mb / r) * jitter(),
                            std::min(app.reduce_compute_rate().value(),
                                     per_stream_cap(out_tier)));
                        batch.add_segment(res.write_pool(out_tier, vm),
                                          (out_this_iter_mb / r) * jitter(),
                                          per_stream_cap(out_tier));
                    } else {
                        batch.add_segment(
                            res.write_pool(out_tier, vm), (out_this_iter_mb / r) * jitter(),
                            std::min(app.reduce_compute_rate().value(),
                                     per_stream_cap(out_tier)));
                    }
                    ++segments;
                }
                if (segments == 0) {
                    // Degenerate (no intermediate, no output): a token tick
                    // so the task still occupies its slot.
                    batch.add_segment(res.unbounded, 1e-3, 1.0);
                }
            }
            const double files_per_reduce =
                out_tier == StorageTier::kObjectStore ? app.files_per_reduce_task() : 0.0;
            phases.reduce += run_faulted(
                "reduce", reduce_slots,
                [files_per_reduce](std::size_t) { return files_per_reduce; });
        }
    }

    // ---- Stage out: bulk copy of the final output to the object store.
    if (placement.stage_out && output_mb > 0.0 &&
        placement.output_tier != StorageTier::kObjectStore) {
        batch.clear();
        const double src_bw = perf_[tier_index(placement.output_tier)]->read_bw.value();
        for (int vm = 0; vm < nvm; ++vm) {
            batch.begin_task(vm);
            batch.add_segment(res.write_pool(StorageTier::kObjectStore, vm),
                              (output_mb / nvm) * jitter(), src_bw);
        }
        phases.stage_out =
            run_faulted("stage_out", /*slots=*/2, [](std::size_t) { return 1.0; });
    }

    JobResult result;
    result.phases = phases;
    result.makespan = engine.now();
    if (injector) {
        injector->record_throttle_events(
            static_cast<int>(engine.applied_capacity_events()));
        result.faults = injector->stats();
    }
    CAST_ENSURES(result.makespan.value() >= 0.0);
    CAST_ENSURES(approx_equal(result.makespan.value(), phases.total().value(), 1e-6));
    return result;
}

Seconds ClusterSim::run_transfer(GigaBytes volume, StorageTier from, StorageTier to) const {
    CAST_EXPECTS(volume.value() >= 0.0);
    if (volume.value() <= 0.0 || from == to) return Seconds{0.0};
    const auto& src = perf_[tier_index(from)];
    const auto& dst = perf_[tier_index(to)];
    CAST_EXPECTS_MSG(src.has_value() && dst.has_value(),
                     "transfer endpoints must be provisioned tiers");
    const int nvm = cluster_.worker_count;
    // One bulk stream per VM between the source and destination (deep
    // queues, so no slot-share throttling). Block volumes scale with the
    // VM count; an objStore endpoint is bounded by its cluster-level
    // aggregate ceiling.
    auto side_bw = [&](StorageTier t, bool reading) {
        const auto& svc = catalog_.service(t);
        if (t == StorageTier::kObjectStore) {
            return reading ? svc.cluster_read_bw(GigaBytes{0.0}, nvm).value()
                           : svc.cluster_write_bw(GigaBytes{0.0}, nvm).value();
        }
        const auto& p = perf_[tier_index(t)];
        return (reading ? p->read_bw.value() : p->write_bw.value()) * nvm;
    };
    const double cluster_rate = std::min(side_bw(from, true), side_bw(to, false));
    CAST_ENSURES(cluster_rate > 0.0);
    return Seconds{volume.megabytes() / cluster_rate};
}

std::vector<JobResult> ClusterSim::run_serial(
    const std::vector<JobPlacement>& placements) const {
    std::vector<JobResult> results;
    results.reserve(placements.size());
    for (const auto& p : placements) results.push_back(run_job(p));
    return results;
}

}  // namespace cast::sim
