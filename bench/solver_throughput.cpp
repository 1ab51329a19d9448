// Annealing-solver throughput on the 100-job Facebook workload the paper
// evaluates with (§5.1.1). Three rows:
//
//   soa_incremental_evaluation   a single-chain solve (a one-rung ladder)
//                                on the calling thread: the per-iteration
//                                cost of the SoA evaluation core
//                                (core/soa_eval.hpp)
//   tempering_solve              the replica-exchange ladder (6 replicas)
//                                on the pool
//   workflow_tempering_solve     WorkflowSolver::solve on the five Fig. 9
//                                deadline workflows at default
//                                AnnealingOptions on the pool
//
// Every row first runs one untimed warm-up; then the rows are timed
// round-robin, one sample of each row per round (7 rounds in full mode),
// so a burst of host load lands on one sample of several rows rather than
// on a whole row's window. Each row reports the median and interquartile
// range of its samples of the same deterministic solve; iters_per_sec is
// the iteration count over the median time. Every returned plan is re-evaluated with the uncached
// reference evaluator (PlanEvaluator::evaluate / WorkflowEvaluator::evaluate),
// and the reported evaluation must equal it exactly; a mismatch exits 1.
// Output: a JSON document written to BENCH_solver_throughput.json in the
// working directory and echoed to stdout — iterations/sec per row and the
// memo-table hit rates. Each batch solve gets a fresh EvalCache, which only
// its start-plan evaluations look up (the SoA core scores candidates
// without it). Progress goes to stderr.
//
// Usage: solver_throughput [--smoke] [--threads N]
// `--smoke` shrinks the iteration counts so the CTest smoke target finishes
// in seconds; the committed BENCH_solver_throughput.json comes from a full
// run.
#include <functional>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "core/annealing.hpp"
#include "core/castpp.hpp"
#include "core/eval_cache.hpp"
#include "workload/facebook.hpp"

namespace {
using namespace cast;
using cloud::StorageTier;

struct ChainTiming {
    int iterations = 0;
    double seconds = 0.0;
    bool matches_reference = false;
    core::EvalCacheStats cache;
};

/// Median and interquartile range of a row's timed samples.
struct Samples {
    int warmups = 0;
    std::vector<double> seconds;

    [[nodiscard]] double median() const { return bench::percentile(seconds, 50.0); }
    [[nodiscard]] double iqr() const {
        return bench::percentile(seconds, 75.0) - bench::percentile(seconds, 25.0);
    }
    /// `iterations` per second at the median sample time.
    [[nodiscard]] double rate(int iterations) const {
        const double m = median();
        return m > 0.0 ? iterations / m : 0.0;
    }
    /// The row's timing fields.
    void add_to(bench::JsonObject& row, int iterations) const {
        row.add("warmups", warmups)
            .add("samples", static_cast<int>(seconds.size()))
            .add("median_s", median(), 4)
            .add("iqr_s", iqr(), 4)
            .add("iters_per_sec", rate(iterations), 1);
    }
};

/// Run every row `warmups` times untimed, then `samples` timed rounds of
/// one repetition of each row, in row order; a row returns its own elapsed
/// seconds.
std::vector<Samples> sample_round_robin(int warmups, int samples,
                                        const std::vector<std::function<double()>>& rows) {
    std::vector<Samples> out(rows.size());
    for (std::size_t r = 0; r < rows.size(); ++r) {
        out[r].warmups = warmups;
        for (int rep = 0; rep < warmups; ++rep) (void)rows[r]();
    }
    for (int rep = 0; rep < samples; ++rep) {
        for (std::size_t r = 0; r < rows.size(); ++r) out[r].seconds.push_back(rows[r]());
    }
    return out;
}

/// True when `reported` equals the uncached reference evaluation of `plan`
/// in every scalar field.
bool matches_reference(const core::PlanEvaluator& evaluator, const core::TieringPlan& plan,
                       const core::PlanEvaluation& reported) {
    const core::PlanEvaluation ref = evaluator.evaluate(plan);
    return ref.feasible == reported.feasible &&
           ref.total_runtime.value() == reported.total_runtime.value() &&
           ref.vm_cost.value() == reported.vm_cost.value() &&
           ref.storage_cost.value() == reported.storage_cost.value() &&
           ref.utility == reported.utility;
}

/// One single-chain solve with a fresh cache, checked against the
/// reference evaluator.
ChainTiming time_chain(const core::PlanEvaluator& evaluator,
                       const core::AnnealingSolver& solver, const core::TieringPlan& init) {
    core::EvalCache cache;
    const auto start = std::chrono::steady_clock::now();
    const core::AnnealingResult result = solver.solve(init, nullptr, &cache);
    ChainTiming t;
    t.iterations = result.iterations;
    t.seconds = bench::seconds_since(start);
    t.matches_reference = matches_reference(evaluator, result.plan, result.evaluation);
    t.cache = cache.stats();
    return t;
}

struct WorkflowTiming {
    int iterations = 0;
    double seconds = 0.0;
    int deadlines_met = 0;
    bool matches_reference = true;
};

/// One pass over the Fig. 9 workflows: solve each (fresh per-solve cache),
/// then re-evaluate the returned plan with the uncached reference
/// evaluator and require the reported evaluation to equal it exactly.
WorkflowTiming time_workflows(const model::PerfModelSet& models,
                              const std::vector<workload::Workflow>& workflows,
                              const core::AnnealingOptions& opts, ThreadPool& pool) {
    WorkflowTiming t;
    for (const workload::Workflow& wf : workflows) {
        const core::WorkflowEvaluator evaluator(models, wf);
        const core::WorkflowSolver solver(evaluator, opts);
        const auto start = std::chrono::steady_clock::now();
        const core::WorkflowSolveResult result = solver.solve(&pool);
        t.seconds += bench::seconds_since(start);
        t.iterations += result.iterations;
        t.deadlines_met += result.evaluation.meets_deadline ? 1 : 0;
        const core::WorkflowEvaluation ref = evaluator.evaluate(result.plan);
        t.matches_reference =
            t.matches_reference && ref.feasible == result.evaluation.feasible &&
            ref.total_runtime.value() == result.evaluation.total_runtime.value() &&
            ref.vm_cost.value() == result.evaluation.vm_cost.value() &&
            ref.storage_cost.value() == result.evaluation.storage_cost.value() &&
            ref.meets_deadline == result.evaluation.meets_deadline;
    }
    return t;
}

}  // namespace

int main(int argc, char** argv) {
    const bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);
    const int chain_iters = args.smoke ? 500 : 20000;
    const int solve_iters = args.smoke ? 300 : 8000;

    std::cerr << "solver_throughput: annealing iterations/sec (Facebook workload, "
              << (args.smoke ? "smoke" : "full") << " run)\n";

    const auto cluster = cloud::ClusterSpec::paper_400_core();
    model::ProfilerOptions popts;
    popts.runs_per_point = 1;
    model::Profiler profiler(cluster, cloud::StorageCatalog::google_cloud(), popts);
    ThreadPool pool;
    const model::PerfModelSet models = profiler.profile(&pool);
    std::cerr << "[profiled " << cluster.worker_count << "x " << cluster.worker.name
              << "]\n";

    const workload::Workload workload = workload::synthesize_facebook_workload(42);
    core::PlanEvaluator evaluator(models, workload);
    const core::TieringPlan init =
        core::TieringPlan::uniform(workload.size(), StorageTier::kPersistentSsd);

    // The trajectories are deterministic, so every sample of a row
    // produces the same plan and (with a fresh cache each) the same hit
    // and miss counts; only the wall clock varies.
    const int warmups = args.smoke ? 0 : 1;
    const int samples = args.smoke ? 1 : 7;

    // --- Single chain on the calling thread.
    core::AnnealingOptions chain_opts;
    chain_opts.iter_max = chain_iters;
    chain_opts.chains = 1;
    chain_opts.seed = 99;
    const core::AnnealingSolver chain_solver(evaluator, chain_opts);
    ChainTiming chain;
    bool chain_matches = true;
    const auto chain_row = [&] {
        chain = time_chain(evaluator, chain_solver, init);
        chain_matches = chain_matches && chain.matches_reference;
        return chain.seconds;
    };

    // --- Tempered solve: 6 replicas on the pool, a fresh cache each.
    core::AnnealingOptions temper_opts;
    temper_opts.iter_max = solve_iters;
    temper_opts.chains = 6;
    temper_opts.seed = 7;
    const core::AnnealingSolver temper_solver(evaluator, temper_opts);
    core::AnnealingResult temper_result;
    bool temper_matches = true;
    const auto temper_row = [&] {
        core::EvalCache temper_cache;
        const auto start = std::chrono::steady_clock::now();
        temper_result = temper_solver.solve(init, &pool, &temper_cache);
        const double seconds = bench::seconds_since(start);
        temper_matches = temper_matches && matches_reference(evaluator, temper_result.plan,
                                                             temper_result.evaluation);
        return seconds;
    };

    // --- Workflow solves: the Fig. 9 deadline workflows at default options
    // (smoke mode shortens the chains), one pass over all five per sample.
    core::AnnealingOptions wf_opts;
    if (args.smoke) wf_opts.iter_max = 600;
    const std::vector<workload::Workflow> workflows =
        workload::synthesize_deadline_workflows(11);
    WorkflowTiming wf_timing;
    bool wf_matches = true;
    const auto wf_row = [&] {
        wf_timing = time_workflows(models, workflows, wf_opts, pool);
        wf_matches = wf_matches && wf_timing.matches_reference;
        return wf_timing.seconds;
    };

    const std::vector<Samples> rows =
        sample_round_robin(warmups, samples, {chain_row, temper_row, wf_row});
    const Samples& chain_samples = rows[0];
    const Samples& temper_samples = rows[1];
    const Samples& wf_samples = rows[2];
    std::cerr << "single chain: " << fmt(chain_samples.rate(chain.iterations), 0)
              << " it/s (median of " << samples << ", IQR "
              << fmt(chain_samples.iqr() * 1e3, 2) << " ms), hit rate "
              << fmt(chain.cache.hit_rate(), 3)
              << (chain_matches ? "" : "  [WARNING: differs from reference evaluate()!]")
              << "\n";

    std::cerr << "tempering solve: " << temper_result.iterations << " iterations, median "
              << fmt(temper_samples.median() * 1e3, 2) << " ms (IQR "
              << fmt(temper_samples.iqr() * 1e3, 2) << " ms), "
              << static_cast<unsigned long long>(temper_result.tempering.total_accepts())
              << "/"
              << static_cast<unsigned long long>(temper_result.tempering.total_attempts())
              << " exchanges accepted, utility " << fmt(temper_result.evaluation.utility, 4)
              << (temper_matches ? "" : "  [WARNING: differs from reference evaluate()!]")
              << "\n";

    std::cerr << "workflow tempering solves: " << wf_timing.iterations
              << " iterations, median " << fmt(wf_samples.median(), 3) << " s ("
              << fmt(wf_samples.rate(wf_timing.iterations), 0) << " it/s), "
              << wf_timing.deadlines_met << "/" << workflows.size() << " deadlines met"
              << (wf_matches ? "" : "  [WARNING: differs from reference evaluate()!]")
              << "\n";

    bench::JsonObject single_chain;
    single_chain.add("iterations", chain.iterations);
    chain_samples.add_to(single_chain, chain.iterations);
    single_chain.add("cache_hits", static_cast<unsigned long long>(chain.cache.hits))
        .add("cache_misses", static_cast<unsigned long long>(chain.cache.misses))
        .add("cache_hit_rate", chain.cache.hit_rate(), 4)
        .add("matches_reference", chain_matches);

    bench::JsonObject tempering;
    tempering.add("chains", temper_opts.chains).add("iterations", temper_result.iterations);
    temper_samples.add_to(tempering, temper_result.iterations);
    tempering.add("best_chain", temper_result.best_chain)
        .add("rounds", temper_result.tempering.rounds)
        .add("exchanges_attempted",
             static_cast<unsigned long long>(temper_result.tempering.total_attempts()))
        .add("exchanges_accepted",
             static_cast<unsigned long long>(temper_result.tempering.total_accepts()))
        .add("utility", temper_result.evaluation.utility, 6)
        .add("cache_hit_rate", temper_result.cache_stats.hit_rate(), 4)
        .add("matches_reference", temper_matches);

    bench::JsonObject workflow_row;
    workflow_row.add("workflows", static_cast<int>(workflows.size()))
        .add("chains", wf_opts.chains)
        .add("iterations", wf_timing.iterations);
    wf_samples.add_to(workflow_row, wf_timing.iterations);
    workflow_row.add("deadlines_met", wf_timing.deadlines_met)
        .add("matches_reference", wf_matches);

    bench::JsonObject json;
    json.add("benchmark", "solver_throughput")
        .add("workload", "facebook_100_jobs")
        .add("cluster",
             std::to_string(cluster.worker_count) + "x " + cluster.worker.name)
        .add("mode", args.smoke ? "smoke" : "full")
        .add("host_cores", std::thread::hardware_concurrency())
        .add_raw("soa_incremental_evaluation", single_chain.inline_str())
        .add_raw("tempering_solve", tempering.inline_str())
        .add_raw("workflow_tempering_solve", workflow_row.inline_str());
    bench::write_bench_json("BENCH_solver_throughput.json", json);

    if (!chain_matches || !temper_matches) {
        std::cerr << "FAIL: a batch solve's evaluation differs from the reference\n";
        return 1;
    }
    if (!wf_matches) {
        std::cerr << "FAIL: a workflow solve's evaluation differs from the reference\n";
        return 1;
    }
    return 0;
}
