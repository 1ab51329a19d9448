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
// Every returned plan is re-evaluated with the uncached reference
// evaluator (PlanEvaluator::evaluate / WorkflowEvaluator::evaluate), and
// the reported evaluation must equal it exactly; a mismatch exits 1.
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

    [[nodiscard]] double iters_per_sec() const {
        return seconds > 0.0 ? iterations / seconds : 0.0;
    }
};

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

    // --- Single chain on the calling thread. Warm-up pass (page in
    // splines, size the allocator), then best-of-5 timed runs in full
    // mode: the trajectory is deterministic, so every repeat produces the
    // same plan and (with a fresh cache each repeat) the same hit/miss
    // counts — only the wall clock varies, and keeping the fastest repeat
    // strips scheduler noise.
    core::AnnealingOptions chain_opts;
    chain_opts.iter_max = chain_iters;
    chain_opts.chains = 1;
    chain_opts.seed = 99;
    const core::AnnealingSolver chain_solver(evaluator, chain_opts);
    const int repeats = args.smoke ? 1 : 5;
    (void)time_chain(evaluator, chain_solver, init);
    ChainTiming chain;
    for (int rep = 0; rep < repeats; ++rep) {
        const ChainTiming t = time_chain(evaluator, chain_solver, init);
        if (chain.iterations == 0 || t.seconds < chain.seconds) chain = t;
    }
    std::cerr << "single chain: " << fmt(chain.iters_per_sec(), 0) << " it/s, hit rate "
              << fmt(chain.cache.hit_rate(), 3)
              << (chain.matches_reference ? ""
                                          : "  [WARNING: differs from reference evaluate()!]")
              << "\n";

    // --- Tempered solve: 6 replicas on the pool sharing one cache.
    core::AnnealingOptions temper_opts;
    temper_opts.iter_max = solve_iters;
    temper_opts.chains = 6;
    temper_opts.seed = 7;
    const core::AnnealingSolver temper_solver(evaluator, temper_opts);
    core::EvalCache temper_cache;
    const auto temper_start = std::chrono::steady_clock::now();
    const core::AnnealingResult temper_result =
        temper_solver.solve(init, &pool, &temper_cache);
    const double temper_seconds = bench::seconds_since(temper_start);
    const bool temper_matches =
        matches_reference(evaluator, temper_result.plan, temper_result.evaluation);
    std::cerr << "tempering solve: " << temper_result.iterations << " iterations in "
              << fmt(temper_seconds, 2) << " s, "
              << static_cast<unsigned long long>(temper_result.tempering.total_accepts())
              << "/"
              << static_cast<unsigned long long>(temper_result.tempering.total_attempts())
              << " exchanges accepted, utility " << fmt(temper_result.evaluation.utility, 4)
              << (temper_matches ? "" : "  [WARNING: differs from reference evaluate()!]")
              << "\n";

    // --- Workflow solves: the Fig. 9 deadline workflows at default options
    // (smoke mode shortens the chains), fastest of `repeats` passes.
    core::AnnealingOptions wf_opts;
    if (args.smoke) wf_opts.iter_max = 600;
    const std::vector<workload::Workflow> workflows =
        workload::synthesize_deadline_workflows(11);
    WorkflowTiming wf_timing;
    bool wf_matches = true;
    for (int rep = 0; rep < repeats; ++rep) {
        const WorkflowTiming t = time_workflows(models, workflows, wf_opts, pool);
        wf_matches = wf_matches && t.matches_reference;
        if (wf_timing.iterations == 0 || t.seconds < wf_timing.seconds) wf_timing = t;
    }
    const double wf_iters_per_sec =
        wf_timing.seconds > 0.0 ? wf_timing.iterations / wf_timing.seconds : 0.0;
    std::cerr << "workflow tempering solves: " << wf_timing.iterations << " iterations in "
              << fmt(wf_timing.seconds, 3) << " s (" << fmt(wf_iters_per_sec, 0)
              << " it/s), " << wf_timing.deadlines_met << "/" << workflows.size()
              << " deadlines met"
              << (wf_matches ? "" : "  [WARNING: differs from reference evaluate()!]")
              << "\n";

    bench::JsonObject single_chain;
    single_chain.add("iterations", chain.iterations)
        .add("seconds", chain.seconds, 4)
        .add("iters_per_sec", chain.iters_per_sec(), 1)
        .add("cache_hits", static_cast<unsigned long long>(chain.cache.hits))
        .add("cache_misses", static_cast<unsigned long long>(chain.cache.misses))
        .add("cache_hit_rate", chain.cache.hit_rate(), 4)
        .add("matches_reference", chain.matches_reference);

    bench::JsonObject tempering;
    tempering.add("chains", temper_opts.chains)
        .add("iterations", temper_result.iterations)
        .add("seconds", temper_seconds, 4)
        .add("iters_per_sec", temper_result.iterations / temper_seconds, 1)
        .add("best_chain", temper_result.best_chain)
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
        .add("iterations", wf_timing.iterations)
        .add("seconds", wf_timing.seconds, 4)
        .add("iters_per_sec", wf_iters_per_sec, 1)
        .add("deadlines_met", wf_timing.deadlines_met)
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

    if (!chain.matches_reference || !temper_matches) {
        std::cerr << "FAIL: a batch solve's evaluation differs from the reference\n";
        return 1;
    }
    if (!wf_matches) {
        std::cerr << "FAIL: a workflow solve's evaluation differs from the reference\n";
        return 1;
    }
    return 0;
}
