// Simulator throughput bench: measures the flow engine and the layers that
// run on it, and writes BENCH_sim_throughput.json.
//
//   1. engine_events — an isolated FlowEngine keeping ~200 flows active
//      on 25 pools (every completion starts a replacement), events/s;
//   2. serial_batch — a mixed batch of cluster simulations on the calling
//      thread (reused thread-local arena), jobs/s: median and
//      interquartile range over several timed batches after an untimed
//      warm-up batch;
//   3. pooled_batch — the same batch fanned over the work-stealing pool:
//      median and interquartile range over several timed batches after an
//      untimed warm-up batch on the same pool;
//   4. deploy_100_jobs — Deployer::deploy of a fixed 100-job plan on the
//      paper's 400-core cluster, jobs/s;
//   5. profile_campaign — the offline profiling campaign (Profiler::profile
//      on a pool of 2, paper's 400-core cluster, default options), the
//      set-up work every planner pays before its first plan: median and
//      interquartile range over several timed campaigns after a warm-up.
//
// Results are checked, not assumed: the serial and pooled batches must be
// bit-identical (exact double equality), and the engine trace, the
// deployed makespans and the profiled model set must hash to the committed
// golden FNV-1a fingerprints of the simulator, before any number is
// reported. host_cores is recorded so pooled numbers are only compared
// between hosts of one core count.
//
// Usage: sim_throughput [--smoke] [--threads N]
#include <cstdint>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/fnv1a.hpp"
#include "common/rng.hpp"
#include "core/deployer.hpp"
#include "model/profiler.hpp"
#include "model/serialize.hpp"
#include "sim/batch.hpp"
#include "sim/flow_engine.hpp"
#include "workload/facebook.hpp"

namespace {
using namespace cast;
using cloud::StorageTier;
using workload::AppKind;

// Golden fingerprints of the engine trace (smoke / full event counts) and
// of the deployed per-job makespans.
constexpr std::uint64_t kEngineGoldenSmoke = 0xee089ad03468f2fdULL;
constexpr std::uint64_t kEngineGoldenFull = 0x6d2612c0165621e3ULL;
constexpr std::uint64_t kDeployGolden = 0x5364368150929c5cULL;
// The profiled paper-cluster model set (ProfilerGolden in model_tests).
constexpr std::uint64_t kModelsGolden = 0x2cf56308117ff86cULL;

std::string hex(std::uint64_t v) {
    static const char* digits = "0123456789abcdef";
    std::string s = "0x";
    for (int shift = 60; shift >= 0; shift -= 4) s += digits[(v >> shift) & 0xF];
    return s;
}

/// A mixed batch shaped like the experiment drivers' workloads: every
/// (app, tier, capacity, seed) combination the sweeps touch.
std::vector<sim::BatchConfig> make_batch(int repeats) {
    const std::vector<std::pair<AppKind, double>> jobs = {
        {AppKind::kSort, 25.0}, {AppKind::kGrep, 60.0}, {AppKind::kKMeans, 12.0}};
    const std::vector<StorageTier> tiers = {StorageTier::kPersistentSsd,
                                            StorageTier::kPersistentHdd,
                                            StorageTier::kEphemeralSsd};
    std::vector<sim::BatchConfig> configs;
    int id = 1;
    for (int rep = 0; rep < repeats; ++rep) {
        for (const auto& [app, gb] : jobs) {
            for (StorageTier tier : tiers) {
                const workload::JobSpec job = bench::make_job(id++, app, gb);
                sim::TierCapacities caps;
                caps.set(tier, GigaBytes{300.0 + 100.0 * (rep % 8)});
                configs.push_back(sim::BatchConfig{
                    sim::JobPlacement::on_tier(job, tier), caps,
                    sim::SimOptions{.seed = 42 + static_cast<std::uint64_t>(rep),
                                    .jitter_sigma = 0.06}});
            }
        }
    }
    return configs;
}

bool identical(const std::vector<sim::BatchOutcome>& a,
               const std::vector<sim::BatchOutcome>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].failed != b[i].failed) return false;
        if (a[i].result.makespan.value() != b[i].result.makespan.value()) return false;
        if (a[i].result.phases.total().value() != b[i].result.phases.total().value()) {
            return false;
        }
    }
    return true;
}

constexpr int kEngineFlows = 200;
constexpr int kEnginePools = 25;

struct EngineRun {
    double seconds = 0.0;
    std::uint64_t fingerprint = 0;
};

/// `events` advance() calls on an isolated engine holding kEngineFlows
/// flows: every completed flow is replaced by a new one on a random pool.
/// The fingerprint folds every step's clock and completed ids.
EngineRun run_engine(std::size_t events) {
    sim::FlowEngine engine;
    Rng rng(2015);
    std::vector<sim::ResourceId> pools;
    for (int i = 0; i < kEnginePools; ++i) {
        pools.push_back(engine.add_resource(MBytesPerSec{100.0 + 20.0 * i}));
    }
    auto start_one = [&] {
        const sim::ResourceId r = pools[rng.below(pools.size())];
        const double cap = rng.below(3) == 0 ? 1e9 : rng.uniform(5.0, 60.0);
        engine.start_flow(r, rng.uniform(10.0, 400.0), cap);
    };
    for (int i = 0; i < kEngineFlows; ++i) start_one();

    Fnv1a h;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t e = 0; e < events; ++e) {
        const std::vector<sim::FlowId>& done = engine.advance();
        h.mix(engine.now().value());
        for (sim::FlowId f : done) h.mix(static_cast<std::uint64_t>(f));
        const std::size_t replace = done.size();
        for (std::size_t i = 0; i < replace; ++i) start_one();
    }
    return EngineRun{bench::seconds_since(t0), h.value()};
}

/// Tiers rotate by job index and over-provisioning cycles 1, 1.25, 1.5.
core::TieringPlan rotating_plan(std::size_t n) {
    std::vector<core::PlacementDecision> d;
    for (std::size_t i = 0; i < n; ++i) {
        d.push_back(core::PlacementDecision{cloud::kAllTiers[i % cloud::kTierCount],
                                            1.0 + 0.25 * static_cast<double>(i % 3)});
    }
    return core::TieringPlan(std::move(d));
}

std::uint64_t makespans_fingerprint(const core::WorkloadDeployment& dep) {
    Fnv1a h;
    for (const sim::JobResult& r : dep.job_results) h.mix(r.makespan.value());
    return h.value();
}

}  // namespace

int main(int argc, char** argv) {
    const bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);
    // Full mode sizes every row to run for around a second or more; the
    // engine and deploy rows keep the best of several repetitions.
    const int repeats = args.smoke ? 1 : 300;
    const std::size_t engine_events = args.smoke ? 20000 : 300000;
    const int engine_reps = args.smoke ? 1 : 6;
    const int deploys = args.smoke ? 1 : 8;
    const std::uint64_t engine_golden = args.smoke ? kEngineGoldenSmoke : kEngineGoldenFull;

    // 1. Isolated engine.
    EngineRun engine_best;
    for (int rep = 0; rep < engine_reps; ++rep) {
        const EngineRun run = run_engine(engine_events);
        if (run.fingerprint != engine_golden) {
            std::cerr << "FAIL: engine trace fingerprint " << hex(run.fingerprint)
                      << " != golden " << hex(engine_golden) << "\n";
            return 1;
        }
        if (rep == 0 || run.seconds < engine_best.seconds) engine_best = run;
    }
    const double events_per_s = static_cast<double>(engine_events) / engine_best.seconds;
    std::cerr << "engine: " << engine_events << " events, ~" << kEngineFlows
              << " active flows on " << kEnginePools << " pools: "
              << fmt(events_per_s / 1e6, 3) << " M events/s\n";

    // 2-3. Batch of cluster simulations, serial then pooled.
    const auto cluster = cloud::ClusterSpec::paper_10_node();
    const auto catalog = cloud::StorageCatalog::google_cloud();
    const sim::BatchRunner runner(cluster, catalog);
    const std::vector<sim::BatchConfig> configs = make_batch(repeats);
    const auto n = static_cast<double>(configs.size());
    std::cerr << "sim_throughput: " << configs.size() << " configs"
              << (args.smoke ? " (smoke)" : "") << "\n";

    // The warm-up batch faults in code paths, pages in the catalog and
    // fills the thread-local arena; every batch must match the first.
    const int batch_warmups = args.smoke ? 0 : 1;
    const int batch_samples = args.smoke ? 1 : 7;
    std::vector<sim::BatchOutcome> serial;
    std::vector<double> serial_samples_s;
    for (int rep = 0; rep < batch_warmups + batch_samples; ++rep) {
        const auto t0 = std::chrono::steady_clock::now();
        auto outcomes = runner.run(configs);
        const double s = bench::seconds_since(t0);
        if (rep == 0) {
            serial = std::move(outcomes);
        } else if (!identical(serial, outcomes)) {
            std::cerr << "FAIL: batch outcomes differ between serial runs\n";
            return 1;
        }
        if (rep >= batch_warmups) serial_samples_s.push_back(s);
    }
    const double serial_s = bench::percentile(serial_samples_s, 50.0);
    const double serial_iqr_s = bench::percentile(serial_samples_s, 75.0) -
                                bench::percentile(serial_samples_s, 25.0);

    // The warm-up batch starts the pool's workers and fills their
    // thread-local arenas; every batch must match the serial outcomes.
    ThreadPool pool;
    const int pooled_warmups = batch_warmups;
    const int pooled_samples = batch_samples;
    std::vector<double> pooled_s;
    for (int rep = 0; rep < pooled_warmups + pooled_samples; ++rep) {
        const auto t0 = std::chrono::steady_clock::now();
        const auto pooled = runner.run(configs, &pool);
        const double s = bench::seconds_since(t0);
        if (!identical(serial, pooled)) {
            std::cerr << "FAIL: batch outcomes differ between serial and pooled runs\n";
            return 1;
        }
        if (rep >= pooled_warmups) pooled_s.push_back(s);
    }
    const double pooled_median_s = bench::percentile(pooled_s, 50.0);
    const double pooled_iqr_s =
        bench::percentile(pooled_s, 75.0) - bench::percentile(pooled_s, 25.0);
    const double parallel_speedup = serial_s / pooled_median_s;
    std::cerr << "serial batch:  median " << fmt(serial_s, 3) << " s, IQR "
              << fmt(serial_iqr_s, 3) << " s over " << batch_samples << " batches ("
              << fmt(n / serial_s, 1) << " jobs/s)\n"
              << "pooled (" << pool.worker_count() << " workers): median "
              << fmt(pooled_median_s, 3) << " s, IQR " << fmt(pooled_iqr_s, 3) << " s over "
              << pooled_samples << " batches (" << fmt(n / pooled_median_s, 1) << " jobs/s, "
              << fmt(parallel_speedup, 2) << "x)\n";

    // 4. Deploy a fixed 100-job plan (models profiled on the pool first;
    // only the serial deploys are timed).
    const model::PerfModelSet models =
        bench::profile_models(cloud::ClusterSpec::paper_400_core(), /*runs_per_point=*/1);
    const workload::Workload workload = workload::synthesize_facebook_workload(42);
    const core::PlanEvaluator evaluator(models, workload);
    const core::TieringPlan plan = rotating_plan(workload.size());
    const core::Deployer deployer;
    double deploy_best_s = 0.0;
    for (int rep = 0; rep < deploys; ++rep) {
        const auto t0 = std::chrono::steady_clock::now();
        const core::WorkloadDeployment dep = deployer.deploy(evaluator, plan);
        const double s = bench::seconds_since(t0);
        const std::uint64_t fp = makespans_fingerprint(dep);
        if (fp != kDeployGolden) {
            std::cerr << "FAIL: deployed makespan fingerprint " << hex(fp) << " != golden "
                      << hex(kDeployGolden) << "\n";
            return 1;
        }
        if (rep == 0 || s < deploy_best_s) deploy_best_s = s;
    }
    const double deploy_jobs_per_s = static_cast<double>(workload.size()) / deploy_best_s;
    std::cerr << "deploy: " << workload.size() << "-job plan in " << fmt(deploy_best_s * 1e3, 1)
              << " ms (" << fmt(deploy_jobs_per_s, 1) << " jobs/s)\n";

    // 5. The profiling campaign: one untimed warm-up (full mode), then
    // timed campaigns, each on a fresh pool of 2 like a starting planner.
    const model::Profiler profiler(cloud::ClusterSpec::paper_400_core(),
                                   cloud::StorageCatalog::google_cloud());
    const int campaign_warmups = args.smoke ? 0 : 1;
    const int campaign_samples = args.smoke ? 1 : 7;
    std::vector<double> campaign_s;
    for (int rep = 0; rep < campaign_warmups + campaign_samples; ++rep) {
        ThreadPool two(2);
        const auto t0 = std::chrono::steady_clock::now();
        const model::PerfModelSet profiled = profiler.profile(&two);
        const double s = bench::seconds_since(t0);
        const std::uint64_t fp = model::fingerprint(profiled);
        if (fp != kModelsGolden) {
            std::cerr << "FAIL: profiled model fingerprint " << hex(fp) << " != golden "
                      << hex(kModelsGolden) << "\n";
            return 1;
        }
        if (rep >= campaign_warmups) campaign_s.push_back(s);
    }
    const double campaign_median_s = bench::percentile(campaign_s, 50.0);
    const double campaign_iqr_s =
        bench::percentile(campaign_s, 75.0) - bench::percentile(campaign_s, 25.0);
    std::cerr << "profile campaign (2 workers): median " << fmt(campaign_median_s * 1e3, 1)
              << " ms, IQR " << fmt(campaign_iqr_s * 1e3, 1) << " ms over "
              << campaign_samples << " campaigns\n"
              << "determinism: batch bit-identical, engine, deploy and models match golden\n";

    const unsigned host_cores = std::thread::hardware_concurrency();
    bench::JsonObject engine_row;
    engine_row.add("events", static_cast<unsigned long long>(engine_events))
        .add("active_flows", kEngineFlows)
        .add("pools", kEnginePools)
        .add("seconds", engine_best.seconds, 4)
        .add("events_per_s", events_per_s, 1)
        .add("fingerprint", hex(engine_best.fingerprint));
    bench::JsonObject serial_row;
    serial_row.add("jobs", static_cast<unsigned long long>(configs.size()))
        .add("warmups", batch_warmups)
        .add("samples", batch_samples)
        .add("median_s", serial_s, 4)
        .add("iqr_s", serial_iqr_s, 4)
        .add("jobs_per_s", n / serial_s, 2);
    bench::JsonObject pooled_row;
    pooled_row.add("workers", static_cast<unsigned long long>(pool.worker_count()))
        .add("jobs", static_cast<unsigned long long>(configs.size()))
        .add("warmups", pooled_warmups)
        .add("samples", pooled_samples)
        .add("median_s", pooled_median_s, 4)
        .add("iqr_s", pooled_iqr_s, 4)
        .add("jobs_per_s", n / pooled_median_s, 2);
    bench::JsonObject deploy_row;
    deploy_row.add("jobs", static_cast<unsigned long long>(workload.size()))
        .add("repetitions", deploys)
        .add("seconds", deploy_best_s, 4)
        .add("jobs_per_s", deploy_jobs_per_s, 2)
        .add("fingerprint", hex(kDeployGolden));

    bench::JsonObject campaign_row;
    campaign_row.add("workers", 2)
        .add("warmups", campaign_warmups)
        .add("samples", campaign_samples)
        .add("median_s", campaign_median_s, 4)
        .add("iqr_s", campaign_iqr_s, 4)
        .add("campaigns_per_s", 1.0 / campaign_median_s, 3)
        .add("fingerprint", hex(kModelsGolden));

    bench::JsonObject json;
    json.add("bench", "sim_throughput")
        .add("mode", args.smoke ? "smoke" : "full")
        .add("host_cores", host_cores)
        .add_raw("engine_events", engine_row.inline_str())
        .add_raw("serial_batch", serial_row.inline_str())
        .add_raw("pooled_batch", pooled_row.inline_str())
        .add("parallel_speedup", parallel_speedup, 3)
        .add_raw("deploy_100_jobs", deploy_row.inline_str())
        .add_raw("profile_campaign", campaign_row.inline_str())
        .add("deterministic_across_modes", true);
    bench::write_bench_json("BENCH_sim_throughput.json", json);
    return 0;
}
