// Graceful-degradation curves for the governed planning service under
// seeded serve-layer fault injection. Writes BENCH_serve_degradation.json.
//
// Two phases:
//
//  1. Zero-fault contract (hard gate): a governed service with an idle
//     governor (generous latency target, zero fault profile) must answer
//     every request bit-identically to the direct serial solve, entirely at
//     ladder level kFull, with zero retries/sheds/injected faults. This is
//     the acceptance check that the whole governor + fault apparatus is
//     observationally free when quiet, wired in as the CTest smoke test.
//
//  2. Intensity sweep (the curves): ServeFaultProfile::scaled(i) for rising
//     i injects worker stalls and transient solver exceptions, scales the
//     open-loop request flood (flood_factor x base), and fires snapshot
//     swap storms mid-run. Per intensity the bench reports plans/sec,
//     p50/p99 end-to-end latency, per-ladder-level serve counts,
//     shed/reject/retry/breaker counters and injected-fault totals — the
//     JSON degradation curve. The gate here is survival: every intensity
//     must complete with nonzero throughput (the service degrades to
//     cheaper levels rather than collapsing), and any intensity that sheds
//     must also be serving at a degraded level (cheaper-before-reject).
//
// Usage: serve_degradation [--smoke] [--threads N]
#include <cmath>
#include <cstdio>
#include <future>
#include <iostream>
#include <iterator>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "model/serialize.hpp"
#include "serve/service.hpp"
#include "workload/job.hpp"

namespace {
using namespace cast;
using workload::AppKind;

constexpr std::uint64_t kFaultSeed = 1234;

/// Same popular-template mix the serve_throughput bench replays.
std::vector<workload::Workload> make_templates() {
    const std::vector<std::pair<AppKind, double>> shapes = {
        {AppKind::kSort, 15.0},  {AppKind::kSort, 30.0},   {AppKind::kGrep, 30.0},
        {AppKind::kGrep, 60.0},  {AppKind::kKMeans, 8.0},  {AppKind::kKMeans, 15.0},
        {AppKind::kJoin, 15.0},  {AppKind::kJoin, 30.0},   {AppKind::kSort, 60.0},
        {AppKind::kGrep, 120.0}, {AppKind::kKMeans, 30.0}, {AppKind::kJoin, 60.0},
    };
    std::vector<workload::Workload> templates;
    for (int t = 0; t < 6; ++t) {
        std::vector<workload::JobSpec> jobs;
        for (int j = 0; j < 8; ++j) {
            const auto& [app, gb] = shapes[(t * 2 + j) % shapes.size()];
            jobs.push_back(bench::make_job(j + 1, app, gb));
        }
        templates.emplace_back(std::move(jobs));
    }
    return templates;
}

std::vector<serve::PlanRequest> make_requests(const std::vector<workload::Workload>& templates,
                                              int count, bool with_deadlines) {
    std::vector<serve::PlanRequest> requests;
    for (int i = 0; i < count; ++i) {
        serve::PlanRequest req;
        req.id = static_cast<std::uint64_t>(i + 1);
        req.kind = serve::RequestKind::kBatch;
        static constexpr std::size_t kSchedule[] = {0, 1, 0, 2, 1, 3, 0, 4, 1, 5, 2, 1};
        req.workload = templates[kSchedule[i % std::size(kSchedule)] % templates.size()];
        // Distinct per-request seeds defeat the coalescer on purpose: this
        // bench measures the governor's ladder, and folding the flood into
        // six representative solves would mask the very pressure under test
        // (serve_throughput covers the coalescing win).
        req.seed = 1000 + static_cast<std::uint64_t>(i);
        // A quarter of the flood declares a deadline, exercising
        // deadline-aware admission once queue pressure builds.
        if (with_deadlines && i % 4 == 3) req.deadline_ms = 250.0;
        requests.push_back(std::move(req));
    }
    return requests;
}

double utility_of(const serve::PlanResponse& resp) {
    return resp.batch ? resp.batch->evaluation.utility : 0.0;
}

struct SweepPoint {
    double intensity = 0.0;
    int requests = 0;
    double wall_s = 0.0;
    double plans_per_sec = 0.0;  ///< ok responses only
    double p50_ms = 0.0;
    double p99_ms = 0.0;
    serve::ServiceStats stats;
    serve::ServeFaultStats faults;

    [[nodiscard]] std::string json() const {
        bench::JsonObject o;
        o.add("intensity", intensity, 2)
            .add("requests", requests)
            .add("wall_s", wall_s, 4)
            .add("plans_per_sec", plans_per_sec, 2);
        // A point where every request was shed has no ok-latency sample:
        // percentile() returns NaN and the fields are omitted (0.0 here
        // would read as "instant", indistinguishable from a healthy point).
        if (std::isfinite(p50_ms)) o.add("p50_ms", p50_ms, 3);
        if (std::isfinite(p99_ms)) o.add("p99_ms", p99_ms, 3);
        o.add("served_full", stats.served_full)
            .add("served_trimmed", stats.served_trimmed)
            .add("served_greedy", stats.served_greedy)
            .add("governor_shed", stats.governor_shed)
            .add("deadline_shed", stats.deadline_shed)
            .add("rejected", stats.rejected)
            .add("errors", stats.errors)
            .add("solve_retries", stats.solve_retries)
            .add("breaker_fastfail", stats.breaker_fastfail)
            .add("breaker_trips", stats.breaker_trips)
            .add("snapshot_swaps", stats.snapshot_swaps)
            .add("injected_stalls", faults.stalls)
            .add("injected_stall_ms", faults.stall_ms, 1)
            .add("injected_exceptions", faults.injected_exceptions)
            .add("ewma_solve_ms", stats.ewma_solve_ms, 3)
            .add("ewma_seeded", stats.ewma_seeded);
        return o.inline_str();
    }
};

/// Run the governed service over `requests` open-loop at one fault
/// intensity, firing the profile's swap storm halfway through submission.
SweepPoint run_point(double intensity, const std::string& model_path,
                     const std::vector<serve::PlanRequest>& requests,
                     const serve::ServiceOptions& opts) {
    SweepPoint point;
    point.intensity = intensity;
    point.requests = static_cast<int>(requests.size());

    serve::PlannerService service(
        serve::make_snapshot(model::load_model_set_file(model_path)), opts);

    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::future<serve::PlanResponse>> futures;
    futures.reserve(requests.size());
    const std::size_t storm_at = requests.size() / 2;
    for (std::size_t i = 0; i < requests.size(); ++i) {
        if (i == storm_at) {
            // Swap storm: a burst of snapshot installs racing the solves in
            // flight. Same model file each time, so the plans themselves
            // stay comparable; only the churn is under test.
            for (int s = 0; s < opts.faults.swap_storm_swaps; ++s) {
                service.swap_snapshot(
                    serve::make_snapshot(model::load_model_set_file(model_path)));
                std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
                    opts.faults.swap_storm_interval_ms));
            }
        }
        futures.push_back(service.submit(requests[i]));
    }

    std::vector<double> ok_latency_ms;
    std::size_t ok = 0;
    for (auto& f : futures) {
        const serve::PlanResponse resp = f.get();
        if (resp.ok()) {
            ++ok;
            ok_latency_ms.push_back(resp.queue_ms + resp.solve_ms);
        }
    }
    point.wall_s = bench::seconds_since(t0);
    point.plans_per_sec =
        point.wall_s > 0.0 ? static_cast<double>(ok) / point.wall_s : 0.0;
    point.p50_ms = bench::percentile(ok_latency_ms, 50.0);
    point.p99_ms = bench::percentile(ok_latency_ms, 99.0);
    point.stats = service.stats();
    point.faults = point.stats.faults;
    return point;
}

}  // namespace

int main(int argc, char** argv) {
    const bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);
    const int base_requests = args.smoke ? 16 : 60;
    const int iter_max = args.smoke ? 300 : 2000;
    const std::vector<double> intensities =
        args.smoke ? std::vector<double>{0.0, 1.0}
                   : std::vector<double>{0.0, 0.25, 0.5, 0.75, 1.0};

    std::cerr << "serve_degradation: governed service under fault injection ("
              << (args.smoke ? "smoke" : "full") << " run)\n";

    const auto cluster = cloud::ClusterSpec::paper_400_core();
    model::ProfilerOptions popts;
    popts.runs_per_point = 1;
    model::Profiler profiler(cluster, cloud::StorageCatalog::google_cloud(), popts);
    model::PerfModelSet profiled = [&] {
        ThreadPool pool;
        return profiler.profile(&pool);
    }();
    const std::string model_path = "serve_degradation_models.tmp";
    model::save_model_set_file(profiled, model_path);
    std::cerr << "[profiled " << cluster.worker_count << "x " << cluster.worker.name
              << ", model set saved]\n";

    const std::vector<workload::Workload> templates = make_templates();

    serve::ServiceOptions base_opts;
    base_opts.workers = 2;
    // Capacity far above any flood in this bench: the drain-time estimate,
    // not the queue-occupancy backstop, should be what walks the ladder.
    base_opts.queue_capacity = 4096;
    base_opts.solver.annealing.iter_max = iter_max;
    base_opts.solver.annealing.chains = 2;
    base_opts.governor.enabled = true;
    base_opts.governor.latency_target_ms = 250.0;

    // ---- Phase 1: zero-fault contract. Idle governor (a latency target no
    // realistic hiccup reaches), zero fault profile; every response must be
    // bit-identical to the direct serial solve and served at kFull.
    const std::vector<serve::PlanRequest> contract_requests =
        make_requests(templates, base_requests, /*with_deadlines=*/false);
    std::map<std::uint64_t, double> expected_utility;
    {
        const serve::SnapshotPtr snap =
            serve::make_snapshot(model::load_model_set_file(model_path));
        for (const serve::PlanRequest& req : contract_requests) {
            expected_utility[req.id] =
                utility_of(serve::PlannerService::solve_direct(*snap, req, base_opts));
        }
    }
    bool zero_fault_identical = true;
    bool zero_fault_all_full = true;
    {
        serve::ServiceOptions idle = base_opts;
        idle.governor.latency_target_ms = 60'000.0;
        serve::PlannerService service(
            serve::make_snapshot(model::load_model_set_file(model_path)), idle);
        std::vector<std::future<serve::PlanResponse>> futures;
        for (const serve::PlanRequest& req : contract_requests) {
            futures.push_back(service.submit(req));
        }
        for (auto& f : futures) {
            const serve::PlanResponse resp = f.get();
            zero_fault_identical &=
                resp.ok() && utility_of(resp) == expected_utility.at(resp.id);
            zero_fault_all_full &=
                resp.degradation_level == serve::DegradationLevel::kFull &&
                resp.attempts == 1;
        }
        const serve::ServiceStats stats = service.stats();
        zero_fault_all_full &= stats.served_trimmed == 0 && stats.served_greedy == 0 &&
                               stats.governor_shed == 0 && stats.deadline_shed == 0 &&
                               stats.solve_retries == 0 && !stats.faults.any();
    }
    std::cerr << "zero-fault contract: bit-identical "
              << (zero_fault_identical ? "yes" : "NO") << ", all-kFull "
              << (zero_fault_all_full ? "yes" : "NO") << "\n";

    // ---- Phase 2: the intensity sweep.
    std::vector<SweepPoint> sweep;
    for (const double intensity : intensities) {
        serve::ServiceOptions opts = base_opts;
        opts.faults = serve::ServeFaultProfile::scaled(intensity, kFaultSeed);
        const int flooded = static_cast<int>(
            static_cast<double>(base_requests) * opts.faults.flood_factor);
        const std::vector<serve::PlanRequest> requests =
            make_requests(templates, flooded, /*with_deadlines=*/intensity > 0.0);
        sweep.push_back(run_point(intensity, model_path, requests, opts));
        const SweepPoint& p = sweep.back();
        std::cerr << "intensity " << fmt(intensity, 2) << ": "
                  << fmt(p.plans_per_sec, 1) << " plans/s, p99 " << fmt(p.p99_ms, 1)
                  << " ms, full/trim/greedy " << p.stats.served_full << "/"
                  << p.stats.served_trimmed << "/" << p.stats.served_greedy
                  << ", shed " << p.stats.governor_shed << "+" << p.stats.deadline_shed
                  << ", retries " << p.stats.solve_retries << ", breaker fastfail "
                  << p.stats.breaker_fastfail << "\n";
    }

    // Survival gates: the ladder must keep producing plans at every
    // intensity, and an intensity that sheds must also be serving degraded
    // (cheaper-before-reject, not straight to the cliff).
    bool never_zero_throughput = true;
    bool degraded_before_shed = true;
    for (const SweepPoint& p : sweep) {
        never_zero_throughput &= p.plans_per_sec > 0.0;
        if (p.stats.governor_shed > 0) {
            degraded_before_shed &=
                (p.stats.served_trimmed + p.stats.served_greedy) > 0;
        }
    }

    std::string sweep_json = "[";
    for (std::size_t i = 0; i < sweep.size(); ++i) {
        if (i > 0) sweep_json += ", ";
        sweep_json += sweep[i].json();
    }
    sweep_json += "]";

    bench::JsonObject json;
    json.add("bench", "serve_degradation")
        .add("mode", args.smoke ? "smoke" : "full")
        .add("base_requests", base_requests)
        .add("iter_max", iter_max)
        .add("workers", static_cast<unsigned long long>(base_opts.workers))
        .add("latency_target_ms", base_opts.governor.latency_target_ms, 1)
        .add("fault_seed", static_cast<unsigned long long>(kFaultSeed))
        .add("host_cores", std::thread::hardware_concurrency())
        .add("zero_fault_bit_identical", zero_fault_identical)
        .add("zero_fault_all_level_full", zero_fault_all_full)
        .add("never_zero_throughput", never_zero_throughput)
        .add("degraded_before_shed", degraded_before_shed)
        .add_raw("sweep", sweep_json);
    bench::write_bench_json("BENCH_serve_degradation.json", json);
    std::remove(model_path.c_str());

    if (!zero_fault_identical || !zero_fault_all_full) {
        std::cerr << "FAIL: governed service is not bit-identical/idle at zero faults\n";
        return 1;
    }
    if (!never_zero_throughput) {
        std::cerr << "FAIL: throughput collapsed to zero at some intensity\n";
        return 1;
    }
    if (!degraded_before_shed) {
        std::cerr << "FAIL: service shed without serving at a degraded level first\n";
        return 1;
    }
    return 0;
}
