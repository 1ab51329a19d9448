// Annealing-solver throughput on the 100-job Facebook workload the paper
// evaluates with (§5.1.1). Four single-chain rows share one trajectory:
//
//   uncached_full_evaluation     full AoS re-evaluation every iteration
//   cached_incremental_evaluation EvalCache + PlanEvaluator::evaluate_delta
//                                (the AoS incremental path, kept for
//                                baseline-history comparability)
//   soa_incremental_evaluation   the flat struct-of-arrays core
//                                (core/soa_eval.hpp) — same cache, zero
//                                per-iteration allocations
//
// plus two multi-chain solve rows: the legacy independent chains and the
// replica-exchange tempering ladder (same iteration budget), and one
// workflow row:
//
//   workflow_tempering_solve     WorkflowSolver::solve on the five Fig. 9
//                                deadline workflows at default
//                                AnnealingOptions on the pool, each result
//                                checked against a fresh reference
//                                WorkflowEvaluator::evaluate of its plan
//
// Every configuration runs the identical search trajectory (the cache is
// bit-transparent and the SoA core is draw-for-draw identical to AoS; the
// bench asserts the single-chain utilities match exactly), so the
// comparisons isolate evaluation cost. Output: a JSON document written
// to BENCH_solver_throughput.json in the working directory and echoed to
// stdout — iterations/sec for each configuration, the speedups, and the
// memo-table hit rate. Progress goes to stderr.
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
    double utility = 0.0;
    core::EvalCacheStats cache;

    [[nodiscard]] double iters_per_sec() const {
        return seconds > 0.0 ? iterations / seconds : 0.0;
    }
};

ChainTiming time_chain(const core::AnnealingSolver& solver, const core::TieringPlan& init,
                       std::uint64_t seed, bool use_cache) {
    core::EvalCache cache;
    const auto start = std::chrono::steady_clock::now();
    const core::AnnealingResult result =
        solver.run_chain(init, seed, use_cache ? &cache : nullptr);
    ChainTiming t;
    t.iterations = result.iterations;
    t.seconds = bench::seconds_since(start);
    t.utility = result.evaluation.utility;
    if (use_cache) t.cache = cache.stats();
    return t;
}

// Min-of-N merge. The trajectory is deterministic, so every repeat produces
// the same utility and (with a fresh cache each repeat) the same hit/miss
// counts — only the wall clock varies, and keeping the fastest repeat
// strips the scheduler noise that otherwise flakes the speedup gates.
void take_min(ChainTiming& best, const ChainTiming& t) {
    if (best.iterations == 0 || t.seconds < best.seconds) best = t;
}

std::string timing_json(const ChainTiming& t, bool with_cache) {
    bench::JsonObject json;
    json.add("iterations", t.iterations)
        .add("seconds", t.seconds, 4)
        .add("iters_per_sec", t.iters_per_sec(), 1);
    if (with_cache) {
        json.add("cache_hits", static_cast<unsigned long long>(t.cache.hits))
            .add("cache_misses", static_cast<unsigned long long>(t.cache.misses))
            .add("cache_hit_rate", t.cache.hit_rate(), 4);
    }
    return json.inline_str();
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

    std::cerr << "solver_throughput: annealing iterations/sec, memoized+incremental vs "
                 "full evaluation (Facebook workload, "
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

    // --- Single chain, identical seed: uncached AoS, cached AoS, cached SoA.
    core::AnnealingOptions uncached_opts;
    uncached_opts.iter_max = chain_iters;
    uncached_opts.use_evaluation_cache = false;
    uncached_opts.use_soa_evaluation = false;
    core::AnnealingOptions cached_opts = uncached_opts;
    cached_opts.use_evaluation_cache = true;  // the historical AoS+cache row
    core::AnnealingOptions soa_opts = cached_opts;
    soa_opts.use_soa_evaluation = true;

    const core::AnnealingSolver uncached_solver(evaluator, uncached_opts);
    const core::AnnealingSolver cached_solver(evaluator, cached_opts);
    const core::AnnealingSolver soa_solver(evaluator, soa_opts);

    // Warm-up pass (page in splines, size the allocator), then interleaved
    // best-of-5 timed runs in full mode. Interleaving matters: host clock
    // drift over the bench's lifetime is slow and systematic, so timing the
    // three configurations back-to-back inside each repeat (rather than
    // five repeats of one, then the next) keeps the speedup ratios honest.
    const int repeats = args.smoke ? 1 : 5;
    (void)time_chain(uncached_solver, init, 1, false);
    ChainTiming uncached, cached, soa;
    for (int rep = 0; rep < repeats; ++rep) {
        take_min(uncached, time_chain(uncached_solver, init, 99, false));
        take_min(cached, time_chain(cached_solver, init, 99, true));
        take_min(soa, time_chain(soa_solver, init, 99, true));
    }
    const double speedup =
        uncached.seconds > 0.0 && cached.seconds > 0.0 ? uncached.seconds / cached.seconds
                                                       : 0.0;
    const double soa_speedup =
        cached.seconds > 0.0 && soa.seconds > 0.0 ? cached.seconds / soa.seconds : 0.0;
    const bool identical =
        uncached.utility == cached.utility && cached.utility == soa.utility;
    std::cerr << "uncached: " << fmt(uncached.iters_per_sec(), 0) << " it/s, cached: "
              << fmt(cached.iters_per_sec(), 0) << " it/s (" << fmt(speedup, 2)
              << "x), soa: " << fmt(soa.iters_per_sec(), 0) << " it/s ("
              << fmt(soa_speedup, 2) << "x over cached), hit rate "
              << fmt(cached.cache.hit_rate(), 3)
              << (identical ? "" : "  [WARNING: utilities differ!]") << "\n";

    // --- Multi-chain solves sharing one cache: legacy independent chains
    // vs the replica-exchange tempering ladder, same iteration budget.
    core::AnnealingOptions solve_opts;
    solve_opts.iter_max = solve_iters;
    solve_opts.chains = 6;
    solve_opts.seed = 7;
    solve_opts.tempering = false;
    const core::AnnealingSolver solve_solver(evaluator, solve_opts);
    core::EvalCache solve_cache;
    const auto solve_start = std::chrono::steady_clock::now();
    const core::AnnealingResult solve_result = solve_solver.solve(init, &pool, &solve_cache);
    const double solve_seconds = bench::seconds_since(solve_start);
    std::cerr << "independent chains: " << solve_result.iterations << " iterations in "
              << fmt(solve_seconds, 2) << " s, shared-cache hit rate "
              << fmt(solve_result.cache_stats.hit_rate(), 3) << "\n";

    core::AnnealingOptions temper_opts = solve_opts;
    temper_opts.tempering = true;
    const core::AnnealingSolver temper_solver(evaluator, temper_opts);
    core::EvalCache temper_cache;
    const auto temper_start = std::chrono::steady_clock::now();
    const core::AnnealingResult temper_result =
        temper_solver.solve(init, &pool, &temper_cache);
    const double temper_seconds = bench::seconds_since(temper_start);
    const double temper_speedup =
        solve_seconds > 0.0 && temper_seconds > 0.0 ? solve_seconds / temper_seconds : 0.0;
    std::cerr << "tempering solve: " << temper_result.iterations << " iterations in "
              << fmt(temper_seconds, 2) << " s, "
              << static_cast<unsigned long long>(temper_result.tempering.total_accepts())
              << "/"
              << static_cast<unsigned long long>(temper_result.tempering.total_attempts())
              << " exchanges accepted, utility " << fmt(temper_result.evaluation.utility, 4)
              << " (independent: " << fmt(solve_result.evaluation.utility, 4) << ")\n";

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

    bench::JsonObject multi_chain;
    multi_chain.add("chains", solve_opts.chains)
        .add("iterations", solve_result.iterations)
        .add("seconds", solve_seconds, 4)
        .add("iters_per_sec", solve_result.iterations / solve_seconds, 1)
        .add("best_chain", solve_result.best_chain)
        .add("cache_hit_rate", solve_result.cache_stats.hit_rate(), 4);

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
        .add("cache_hit_rate", temper_result.cache_stats.hit_rate(), 4);

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
        .add_raw("uncached_full_evaluation", timing_json(uncached, false))
        .add_raw("cached_incremental_evaluation", timing_json(cached, true))
        .add_raw("soa_incremental_evaluation", timing_json(soa, true))
        .add("speedup", speedup, 2)
        .add("soa_speedup", soa_speedup, 2)
        .add("bit_identical_utility", identical)
        .add_raw("multi_chain_solve", multi_chain.inline_str())
        .add_raw("tempering_solve", tempering.inline_str())
        .add("tempering_vs_independent_speedup", temper_speedup, 2)
        .add_raw("workflow_tempering_solve", workflow_row.inline_str());
    bench::write_bench_json("BENCH_solver_throughput.json", json);

    if (!identical) {
        std::cerr << "FAIL: cached/soa/uncached utilities differ\n";
        return 1;
    }
    if (!wf_matches) {
        std::cerr << "FAIL: a workflow solve's evaluation differs from the reference\n";
        return 1;
    }
    // The smoke lane only checks it runs and stays bit-identical; the full
    // run is expected to clear the perf bars. The PR 9 acceptance number
    // (SoA >= 1.3x the AoS incremental evaluator, single-threaded) is
    // documented by the committed BENCH_solver_throughput.json, and
    // bench_gate.py defends it as a relative comparison against that
    // baseline. The in-binary bar only asserts the SoA core never *loses*
    // to AoS: on shared single-core hosts the 20 ms timing windows see
    // CPU-steal bursts that swing the measured ratio by +-0.2x even
    // best-of-5, so any absolute bar near the true ~1.3x would flake.
    if (!args.smoke && speedup < 3.0) {
        std::cerr << "FAIL: speedup " << fmt(speedup, 2) << "x below the 3x target\n";
        return 1;
    }
    if (!args.smoke && soa_speedup < 1.05) {
        std::cerr << "FAIL: SoA speedup " << fmt(soa_speedup, 2)
                  << "x below the 1.05x floor\n";
        return 1;
    }
    return 0;
}
