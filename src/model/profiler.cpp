#include "model/profiler.hpp"

#include <bit>
#include <cstdint>
#include <string>

#include "common/annotations.hpp"
#include "sim/batch.hpp"

namespace cast::model {

namespace {
using cloud::StorageTier;
using workload::AppKind;
}  // namespace

Profiler::Profiler(cloud::ClusterSpec cluster, cloud::StorageCatalog catalog,
                   ProfilerOptions options)
    : cluster_(std::move(cluster)), catalog_(std::move(catalog)), options_(std::move(options)) {
    cluster_.validate();
    CAST_EXPECTS(options_.runs_per_point >= 1);
    CAST_EXPECTS(options_.chunks_per_slot >= 1);
    CAST_EXPECTS(options_.chunk.value() > 0.0);
    CAST_EXPECTS(!options_.block_capacity_points.empty());
    CAST_EXPECTS(!options_.eph_volume_points.empty());
}

workload::JobSpec Profiler::calibration_job(AppKind app) const {
    // Sized to exercise several full waves on this cluster so wave effects
    // are present in the measurement, exactly like the paper's profiling
    // runs on the real testbed.
    const int maps =
        cluster_.total_map_slots() * options_.chunks_per_slot;
    return workload::JobSpec{
        .id = 900000 + static_cast<int>(workload::app_index(app)),
        .name = "calibration-" + std::string(workload::app_name(app)),
        .app = app,
        .input = GigaBytes{maps * options_.chunk.value()},
        .map_tasks = maps,
        .reduce_tasks = std::max(1, maps / 4),
        .reuse_group = std::nullopt,
    };
}

sim::TierCapacities Profiler::calibration_capacities(AppKind app, StorageTier tier,
                                                     GigaBytes per_vm_capacity) const {
    sim::TierCapacities caps;
    if (tier == StorageTier::kObjectStore) {
        // objStore jobs keep shuffle data on a persSSD volume; for
        // profiling, per_vm_capacity names that volume's size (the REG
        // sweep for objStore is over the intermediate volume).
        const GigaBytes inter_vol =
            per_vm_capacity.value() > 0.0
                ? per_vm_capacity
                : cloud::object_store_intermediate_volume(calibration_job(app).intermediate(),
                                                          cluster_.worker_count);
        caps.set(StorageTier::kPersistentSsd, inter_vol);
    } else {
        caps.set(tier, per_vm_capacity);
    }
    return caps;
}

cloud::TierPerformance Profiler::simulated_performance(AppKind app, StorageTier tier,
                                                       GigaBytes per_vm_capacity) const {
    const StorageTier attached =
        tier == StorageTier::kObjectStore ? StorageTier::kPersistentSsd : tier;
    const auto& service = catalog_.service(attached);
    const sim::TierCapacities caps = calibration_capacities(app, tier, per_vm_capacity);
    return service.performance(service.provision(caps.of(attached)));
}

sim::PhaseTimes Profiler::measure(AppKind app, StorageTier tier,
                                  GigaBytes per_vm_capacity, ThreadPool* pool) const {
    const workload::JobSpec job = calibration_job(app);
    const sim::TierCapacities caps = calibration_capacities(app, tier, per_vm_capacity);

    const sim::JobPlacement placement = sim::JobPlacement::on_tier(job, tier);

    // The runs_per_point repetitions are independent configurations (each
    // with its own seed), so they batch over the pool; outcomes come back
    // indexed by run, and the sum below is in run order — bit-identical to
    // the old serial loop for any worker count.
    std::vector<sim::BatchConfig> configs;
    configs.reserve(static_cast<std::size_t>(options_.runs_per_point));
    for (int run = 0; run < options_.runs_per_point; ++run) {
        configs.push_back(sim::BatchConfig{
            placement, caps,
            sim::SimOptions{.seed = options_.seed + 1000 * static_cast<std::uint64_t>(run),
                            .jitter_sigma = options_.jitter_sigma}});
    }
    const sim::BatchRunner runner(cluster_, catalog_);
    const std::vector<sim::BatchOutcome> outcomes = runner.run(configs, pool);

    sim::PhaseTimes sum;
    for (const sim::BatchOutcome& outcome : outcomes) {
        CAST_ENSURES_MSG(!outcome.failed, "fault-free calibration run failed");
        sum.stage_in += outcome.result.phases.stage_in;
        sum.map += outcome.result.phases.map;
        sum.shuffle += outcome.result.phases.shuffle;
        sum.reduce += outcome.result.phases.reduce;
        sum.stage_out += outcome.result.phases.stage_out;
    }
    const double inv = 1.0 / options_.runs_per_point;
    return sim::PhaseTimes{.stage_in = sum.stage_in * inv,
                           .map = sum.map * inv,
                           .shuffle = sum.shuffle * inv,
                           .reduce = sum.reduce * inv,
                           .stage_out = sum.stage_out * inv};
}

TierModel Profiler::profile_pair(AppKind app, StorageTier tier, ThreadPool* pool) const {
    const workload::JobSpec job = calibration_job(app);
    const auto& profile = workload::ApplicationProfile::of(app);
    const auto& service = catalog_.service(tier);

    // Reference capacity per tier family. For objStore the service itself
    // is capacity-independent, but the conventional persSSD *intermediate*
    // volume is not — the REG sweep for objStore is over that volume, and
    // the reference is what the convention assigns the calibration job.
    GigaBytes ref_capacity{0.0};
    std::vector<double> sweep;
    switch (tier) {
        case StorageTier::kEphemeralSsd:
            ref_capacity = service.provision(GigaBytes{375.0});
            for (int v : options_.eph_volume_points) sweep.push_back(375.0 * v);
            break;
        case StorageTier::kPersistentSsd:
        case StorageTier::kPersistentHdd:
            ref_capacity = service.provision(options_.reference_block_capacity);
            sweep = options_.block_capacity_points;
            break;
        case StorageTier::kObjectStore:
            ref_capacity = cloud::object_store_intermediate_volume(job.intermediate(),
                                                                   cluster_.worker_count);
            sweep.push_back(ref_capacity.value());
            for (double c : options_.block_capacity_points) {
                if (c > ref_capacity.value()) sweep.push_back(c);
            }
            break;
    }

    // Calibration points the simulator cannot tell apart share one
    // measurement: it reads only the attached tier's read/write bandwidth,
    // so a point whose bandwidth bits equal an earlier point's would
    // re-run the same configurations with the same seeds (persSSD's
    // bandwidth, for one, is flat past its ceiling).
    struct Measured {
        std::uint64_t read_bits;
        std::uint64_t write_bits;
        sim::PhaseTimes times;
    };
    std::vector<Measured> measured;
    auto measure_once = [&](GigaBytes capacity) {
        const cloud::TierPerformance perf = simulated_performance(app, tier, capacity);
        const auto read_bits = std::bit_cast<std::uint64_t>(perf.read_bw.value());
        const auto write_bits = std::bit_cast<std::uint64_t>(perf.write_bw.value());
        for (const Measured& m : measured) {
            if (m.read_bits == read_bits && m.write_bits == write_bits) return m.times;
        }
        measured.push_back(Measured{read_bits, write_bits, measure(app, tier, capacity, pool)});
        return measured.back().times;
    };

    // --- M̂: invert Eq. 1 on the measured per-iteration phase times.
    const sim::PhaseTimes ref = measure_once(ref_capacity);
    const int iters = profile.iterations();
    const int map_waves = wave_count(job.map_tasks, cluster_.total_map_slots());
    const int reduce_waves = wave_count(job.reduce_tasks, cluster_.total_reduce_slots());
    const double map_chunk_mb = job.input.megabytes() / job.map_tasks;
    const double shuffle_part_mb = job.intermediate().megabytes() / job.reduce_tasks;
    const double reduce_part_mb = job.output().megabytes() / job.reduce_tasks;

    auto invert = [](double per_task_mb, int waves, double phase_sec) {
        // Guard degenerate phases (e.g. Grep's near-empty shuffle): clamp
        // to a small positive bandwidth so Eq. 1 never divides by zero.
        if (phase_sec <= 1e-9 || per_task_mb <= 1e-9) return MBytesPerSec{1e6};
        return MBytesPerSec{waves * per_task_mb / phase_sec};
    };

    TierModel model;
    model.reference_capacity_per_vm = ref_capacity;
    model.scales_with_intermediate_volume = tier == StorageTier::kObjectStore;
    model.bandwidths = PhaseBandwidths{
        .map = invert(map_chunk_mb, map_waves, ref.map.value() / iters),
        .shuffle = invert(shuffle_part_mb, reduce_waves, ref.shuffle.value() / iters),
        .reduce = invert(reduce_part_mb, reduce_waves, ref.reduce.value() / iters),
    };

    // --- REG: runtime-scaling spline over provisioned per-VM capacity.
    if (!sweep.empty()) {
        const double ref_runtime = ref.processing().value();
        CAST_ENSURES(ref_runtime > 0.0);
        std::vector<double> xs;
        std::vector<double> ys;
        xs.reserve(sweep.size());
        ys.reserve(sweep.size());
        for (double c : sweep) {
            const GigaBytes provisioned = service.provision(GigaBytes{c});
            if (!xs.empty() && provisioned.value() <= xs.back()) continue;  // dedupe rounding
            const sim::PhaseTimes at = measure_once(provisioned);
            xs.push_back(provisioned.value());
            ys.push_back(at.processing().value() / ref_runtime);
        }
        if (xs.size() >= 2) {
            model.runtime_scale = CubicHermiteSpline(xs, ys);
        }
    }
    return model;
}

PerfModelSet Profiler::profile(ThreadPool* pool) const {
    PerfModelSet set(cluster_, catalog_);
    struct Task {
        AppKind app;
        StorageTier tier;
    };
    std::vector<Task> tasks;
    for (AppKind app : workload::kAllApps) {
        for (StorageTier tier : cloud::kAllTiers) tasks.push_back({app, tier});
    }
    Mutex mutex;
    // Passing the pool down makes the per-pair calibration batches nested
    // parallel_fors — safe with the work-stealing pool (a blocked worker
    // helps drain other tasks), and it keeps the pool busy at the tail of
    // the sweep when few pairs remain.
    auto run_one = [&](std::size_t i) {
        TierModel model = profile_pair(tasks[i].app, tasks[i].tier, pool);
        LockGuard lock(mutex);
        set.set_tier_model(tasks[i].app, tasks[i].tier, std::move(model));
    };
    if (pool != nullptr) {
        pool->parallel_for(tasks.size(), run_one, /*grain=*/1);
    } else {
        for (std::size_t i = 0; i < tasks.size(); ++i) run_one(i);
    }
    return set;
}

}  // namespace cast::model
