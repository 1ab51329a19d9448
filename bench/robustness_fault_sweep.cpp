// Robustness sweep: degradation of CAST, CAST++ and non-tiered baselines
// under increasing fault intensity (object-store error bursts, tier
// throttling episodes, task kills, stragglers — sim/faults.hpp).
//
// Plans are computed once on the fault-free model (planning is
// fault-oblivious, as in the paper); each plan is then deployed under
// FaultProfile::scaled(intensity, seed) for intensity 0..1. The failure-
// aware Deployer retries failing jobs with backoff and degrades them to the
// backing object store when they keep failing.
//
// Output: a JSON document on stdout — per configuration, the degradation
// curve of cost, makespan, retry/degradation counts (workload part) and
// deadline-miss rate (workflow part). Progress goes to stderr so the JSON
// stays pipeable.
#include <iomanip>
#include <iostream>
#include <sstream>
#include <vector>

#include "bench_util.hpp"
#include "core/castpp.hpp"
#include "core/deployer.hpp"
#include "workload/facebook.hpp"

namespace {
using namespace cast;
using cloud::StorageTier;

constexpr std::uint64_t kFaultSeed = 7;
constexpr std::uint64_t kSimSeed = 42;
const std::vector<double> kIntensities = {0.0, 0.25, 0.5, 0.75, 1.0};

std::string num(double v, int prec = 3) {
    std::ostringstream os;
    os << std::fixed << std::setprecision(prec) << v;
    return os.str();
}

core::Deployer make_deployer(double intensity) {
    sim::SimOptions options{.seed = kSimSeed, .jitter_sigma = 0.06};
    options.faults = sim::FaultProfile::scaled(intensity, kFaultSeed);
    return core::Deployer(options);
}

sim::FaultStats sum_stats(const std::vector<sim::JobResult>& results) {
    sim::FaultStats total;
    for (const auto& r : results) total += r.faults;
    return total;
}

/// One sample of a degradation curve, serialized as a JSON object.
struct Point {
    double intensity = 0.0;
    bool failed = false;  // deployment failed beyond retry + degradation
    double cost = 0.0;
    double makespan_min = 0.0;
    int retries = 0;
    int degraded = 0;
    sim::FaultStats faults;
    int deadline_misses = -1;  // workflow part only
    int workflow_count = 0;

    [[nodiscard]] std::string json() const {
        std::ostringstream os;
        os << "{\"intensity\": " << num(intensity, 2);
        if (failed) {
            os << ", \"failed\": true}";
            return os.str();
        }
        os << ", \"cost_usd\": " << num(cost, 2)
           << ", \"makespan_min\": " << num(makespan_min, 2)
           << ", \"job_retries\": " << retries << ", \"degraded_jobs\": " << degraded
           << ", \"task_reexecutions\": " << faults.task_retries
           << ", \"request_retries\": " << faults.request_retries
           << ", \"stragglers\": " << faults.stragglers
           << ", \"throttle_events\": " << faults.throttle_events;
        if (deadline_misses >= 0) {
            os << ", \"deadline_misses\": " << deadline_misses << ", \"miss_rate\": "
               << num(static_cast<double>(deadline_misses) / workflow_count, 2);
        }
        os << "}";
        return os.str();
    }
};

std::string curve_json(const std::string& name, const std::vector<Point>& points) {
    std::ostringstream os;
    os << "    {\"name\": \"" << name << "\", \"points\": [\n";
    for (std::size_t i = 0; i < points.size(); ++i) {
        os << "      " << points[i].json() << (i + 1 < points.size() ? "," : "") << "\n";
    }
    os << "    ]}";
    return os.str();
}

}  // namespace

int main(int argc, char** argv) {
    (void)cast::bench::BenchArgs::parse(argc, argv);  // --threads N pins pool sizes

    std::cerr << "robustness_fault_sweep: deployment degradation vs fault intensity\n"
              << "(fault model per DESIGN.md; plans computed fault-free, deployed "
                 "under FaultProfile::scaled)\n";
    const auto cluster = cloud::ClusterSpec::paper_400_core();
    model::ProfilerOptions popts;
    popts.runs_per_point = 2;
    model::Profiler profiler(cluster, cloud::StorageCatalog::google_cloud(), popts);
    ThreadPool pool;
    const model::PerfModelSet models = profiler.profile(&pool);
    std::cerr << "[profiled " << cluster.worker_count << "x " << cluster.worker.name
              << "]\n";

    // ---------------- workload part: cost + makespan degradation ----------
    const auto workload = workload::synthesize_facebook_workload(42);
    core::PlanEvaluator oblivious(models, workload, core::EvalOptions{.reuse_aware = false});
    core::PlanEvaluator aware(models, workload, core::EvalOptions{.reuse_aware = true});

    core::CastOptions cast_opts;
    cast_opts.annealing.iter_max = 8000;
    cast_opts.annealing.chains = 2;
    cast_opts.annealing.seed = 2015;

    struct Config {
        std::string name;
        core::TieringPlan plan;
        bool reuse_aware = false;
    };
    std::vector<Config> configs;
    configs.push_back({"persSSD 100%",
                       core::TieringPlan::uniform(workload.size(), StorageTier::kPersistentSsd),
                       false});
    configs.push_back({"objStore 100%",
                       core::TieringPlan::uniform(workload.size(), StorageTier::kObjectStore),
                       false});
    configs.push_back(
        {"CAST", core::plan_cast(models, workload, cast_opts, &pool).plan, false});
    configs.push_back(
        {"CAST++", core::plan_cast_plus_plus(models, workload, cast_opts, &pool).plan, true});

    // The (intensity x config) grid cells are independent deployments;
    // fan them over the pool, each writing its preallocated Point by index
    // so the JSON curves come out in the same order as the serial sweep.
    // The shared PlanEvaluators are thread-safe (locked EvalCache).
    std::vector<std::vector<Point>> workload_curves(
        configs.size(), std::vector<Point>(kIntensities.size()));
    pool.parallel_for(
        kIntensities.size() * configs.size(),
        [&](std::size_t cell) {
            const std::size_t i = cell / configs.size();
            const std::size_t c = cell % configs.size();
            const double intensity = kIntensities[i];
            const core::Deployer deployer = make_deployer(intensity);
            Point pt;
            pt.intensity = intensity;
            try {
                const auto& evaluator = configs[c].reuse_aware ? aware : oblivious;
                const auto dep = deployer.deploy(evaluator, configs[c].plan);
                pt.cost = dep.total_cost().value();
                pt.makespan_min = dep.total_runtime.minutes();
                pt.retries = dep.retry_count;
                pt.degraded = static_cast<int>(dep.degraded_jobs.size());
                pt.faults = sum_stats(dep.job_results);
            } catch (const SimulationError& e) {
                pt.failed = true;
                std::cerr << "  " << configs[c].name << " @" << num(intensity, 2)
                          << " failed: " << e.what() << "\n";
            }
            workload_curves[c][i] = pt;
            std::cerr << "  workload " << configs[c].name << " @" << num(intensity, 2)
                      << " done\n";
        },
        /*grain=*/1);

    // ---------------- workflow part: deadline-miss degradation ------------
    const auto workflows = workload::synthesize_deadline_workflows(11);
    struct WfConfig {
        std::string name;
        std::vector<core::WorkflowPlan> plans;  // one per workflow
    };
    std::vector<WfConfig> wf_configs;
    auto uniform_plans = [&](StorageTier tier) {
        // The §3.1 experiment convention: non-tiered baselines provision
        // the block tiers generously (~500 GB volumes per VM).
        std::vector<core::WorkflowPlan> plans;
        for (const auto& wf : workflows) {
            core::WorkflowEvaluator evaluator(models, wf);
            core::WorkflowPlan plan = core::WorkflowPlan::uniform(wf.size(), tier);
            double req = 0.0;
            for (std::size_t i = 0; i < wf.size(); ++i) {
                req += evaluator.job_requirement(plan, i).value();
            }
            const double k =
                std::max(1.0, 500.0 * models.cluster().worker_count / std::max(req, 1.0));
            for (auto& d : plan.decisions) d.overprovision = k;
            plans.push_back(std::move(plan));
        }
        return plans;
    };
    wf_configs.push_back({"ephSSD 100%", uniform_plans(StorageTier::kEphemeralSsd)});
    wf_configs.push_back({"persSSD 100%", uniform_plans(StorageTier::kPersistentSsd)});
    {
        core::AnnealingOptions wf_opts;
        wf_opts.iter_max = 8000;
        wf_opts.chains = 4;
        std::vector<core::WorkflowPlan> plans;
        for (const auto& wf : workflows) {
            core::WorkflowEvaluator evaluator(models, wf);
            plans.push_back(core::WorkflowSolver(evaluator, wf_opts).solve(&pool).plan);
        }
        wf_configs.push_back({"CAST++", std::move(plans)});
    }

    const int wf_count = static_cast<int>(workflows.size());
    std::vector<std::vector<Point>> workflow_curves(
        wf_configs.size(), std::vector<Point>(kIntensities.size()));
    pool.parallel_for(
        kIntensities.size() * wf_configs.size(),
        [&](std::size_t cell) {
            const std::size_t i = cell / wf_configs.size();
            const std::size_t c = cell % wf_configs.size();
            const double intensity = kIntensities[i];
            const core::Deployer deployer = make_deployer(intensity);
            Point pt;
            pt.intensity = intensity;
            pt.deadline_misses = 0;
            pt.workflow_count = wf_count;
            try {
                for (std::size_t w = 0; w < workflows.size(); ++w) {
                    core::WorkflowEvaluator evaluator(models, workflows[w]);
                    const auto dep =
                        deployer.deploy_workflow(evaluator, wf_configs[c].plans[w]);
                    pt.cost += dep.total_cost().value();
                    pt.makespan_min += dep.total_runtime.minutes();
                    pt.retries += dep.retry_count;
                    pt.degraded += static_cast<int>(dep.degraded_jobs.size());
                    pt.faults += sum_stats(dep.job_results);
                    pt.deadline_misses += dep.met_deadline ? 0 : 1;
                }
            } catch (const SimulationError& e) {
                pt.failed = true;
                std::cerr << "  " << wf_configs[c].name << " @" << num(intensity, 2)
                          << " failed: " << e.what() << "\n";
            }
            workflow_curves[c][i] = pt;
            std::cerr << "  workflow " << wf_configs[c].name << " @" << num(intensity, 2)
                      << " done\n";
        },
        /*grain=*/1);

    // ---------------- JSON document ---------------------------------------
    std::cout << "{\n"
              << "  \"bench\": \"robustness_fault_sweep\",\n"
              << "  \"fault_seed\": " << kFaultSeed << ",\n"
              << "  \"sim_seed\": " << kSimSeed << ",\n"
              << "  \"intensities\": [";
    for (std::size_t i = 0; i < kIntensities.size(); ++i) {
        std::cout << num(kIntensities[i], 2) << (i + 1 < kIntensities.size() ? ", " : "");
    }
    std::cout << "],\n  \"workload\": {\"jobs\": " << workload.size()
              << ", \"configs\": [\n";
    for (std::size_t c = 0; c < configs.size(); ++c) {
        std::cout << curve_json(configs[c].name, workload_curves[c])
                  << (c + 1 < configs.size() ? "," : "") << "\n";
    }
    std::cout << "  ]},\n  \"workflows\": {\"count\": " << wf_count
              << ", \"configs\": [\n";
    for (std::size_t c = 0; c < wf_configs.size(); ++c) {
        std::cout << curve_json(wf_configs[c].name, workflow_curves[c])
                  << (c + 1 < wf_configs.size() ? "," : "") << "\n";
    }
    std::cout << "  ]}\n}\n";
    return 0;
}
