// plan_deploy_paper: the paper's profile -> plan -> deploy pipeline (Fig. 6)
// at paper settings, closed loop with one caller.
//
// Per input seed the harness runs one batch operation and five workflow
// operations:
//   batch     a 100-job Facebook-derived workload through lint_workload,
//             plan_cast_greedy, plan_cast_plus_plus (default CastOptions,
//             ThreadPool of 2, fresh per-solve EvalCache) and
//             Deployer::deploy;
//   workflow  each of the five Fig. 9 deadline workflows through
//             WorkflowSolver::solve (default AnnealingOptions, same pool)
//             and Deployer::deploy_workflow.
// The serve layer is bypassed. The number of input seeds is fixed by
// --seconds, so the work of a run is a pure function of (seed, seconds).
#include <algorithm>
#include <cmath>
#include <exception>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "common/thread_pool.hpp"
#include "core/castpp.hpp"
#include "core/deployer.hpp"
#include "lint/analyzer.hpp"
#include "workload/facebook.hpp"

namespace e2e {
namespace {

/// Solver pool size; with the calling thread the run keeps at most three
/// threads busy, one below the host's four cores.
constexpr std::size_t kPoolWorkers = 2;
/// Input seeds per second of --seconds (one batch and five workflow
/// operations each), sized so a run takes about --seconds on a 4-core
/// shared host in a slow stretch (about 5 operations/s).
constexpr double kSeedsPerSecond = 1.2;
constexpr std::uint64_t kInputStream = 31;
constexpr std::uint64_t kSolverStream = 32;
constexpr std::uint64_t kWarmupSeedIndex = 1u << 20;

struct Inputs {
    std::vector<cast::workload::Workload> workloads;
    std::vector<std::vector<cast::workload::Workflow>> workflows;
};

Inputs make_inputs(std::uint64_t seed, std::size_t count, std::uint64_t first_index) {
    Inputs in;
    for (std::size_t k = 0; k < count; ++k) {
        const std::uint64_t s = derive_seed(seed, kInputStream, first_index + k);
        in.workloads.push_back(cast::workload::synthesize_facebook_workload(s));
        in.workflows.push_back(cast::workload::synthesize_deadline_workflows(s));
    }
    return in;
}

/// Numbers kept from one operation (never the result objects themselves).
struct Op {
    std::string kind;  ///< "batch" or "workflow"
    std::size_t input = 0;
    std::size_t workflow = 0;
    std::size_t jobs = 0;
    bool ok = false;
    std::string error;
    double latency_ms = 0.0;
    PlanNumbers plan;
    double utility = 0.0;  ///< batch: Eq. 2 utility; workflow: unused
    double cost = 0.0;
    double runtime_s = 0.0;  ///< workflow only
    Reference ref;  ///< greedy plan (batch) or best uniform plan (workflow)
    bool meets_deadline = false;
    int iterations = 0;
    std::uint64_t exchange_attempts = 0;
    std::uint64_t exchange_accepts = 0;
    bool budget_exhausted = false;
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
    std::uint64_t cache_entries = 0;
    std::size_t lint_findings = 0;
    // Greedy plan on the same input (batch only); its utility and cost are
    // `ref`.
    PlanNumbers greedy_plan;
    // Deployment.
    double deployed_utility = 0.0;
    double deployed_cost = 0.0;
    bool deployed_met_deadline = false;
    int deploy_retries = 0;
};

struct Pipeline {
    const cast::model::PerfModelSet& models;
    cast::ThreadPool& pool;
    cast::core::Deployer deployer;
    std::uint64_t seed;

    cast::core::CastOptions cast_options(std::size_t input) const {
        cast::core::CastOptions opts;  // paper settings
        opts.annealing.seed = derive_seed(seed, kSolverStream, input);
        return opts;
    }

    Op batch(const cast::workload::Workload& workload, std::size_t input, std::uint64_t op_id,
             Tracer& tr) const {
        Op op;
        op.kind = "batch";
        op.input = input;
        op.jobs = workload.size();
        const auto start = Clock::now();
        try {
            Scoped root(tr, "op.batch", op_id);
            cast::lint::LintContext ctx;
            ctx.catalog = &models.catalog();
            ctx.models = &models;
            ctx.reuse_aware = true;
            bool lint_ok = false;
            {
                Scoped s(tr, "lint", op_id);
                const cast::lint::Report report = cast::lint::lint_workload(workload, ctx);
                op.lint_findings = report.findings.size();
                lint_ok = report.ok();
            }
            if (!lint_ok) throw std::runtime_error("lint rejected the workload");
            const cast::core::CastOptions opts = cast_options(input);
            {
                Scoped s(tr, "core.greedy", op_id);
                const cast::core::CastResult greedy =
                    cast::core::plan_cast_greedy(models, workload, opts, /*reuse_aware=*/true);
                op.greedy_plan = plan_numbers(greedy.plan.decisions());
                op.ref.utility = greedy.evaluation.utility;
                op.ref.cost = greedy.evaluation.total_cost().value();
            }
            std::optional<cast::core::CastResult> solved;
            {
                Scoped s(tr, "core.solve", op_id);
                cast::core::EvalCache cache;
                solved = cast::core::plan_cast_plus_plus(models, workload, opts, &pool, &cache);
                op.cache_entries = cache.size();
            }
            op.plan = plan_numbers(solved->plan.decisions());
            op.utility = solved->evaluation.utility;
            op.cost = solved->evaluation.total_cost().value();
            op.iterations = solved->iterations;
            op.exchange_attempts = solved->tempering.total_attempts();
            op.exchange_accepts = solved->tempering.total_accepts();
            op.budget_exhausted = solved->budget_exhausted;
            op.cache_hits = solved->cache_stats.hits;
            op.cache_misses = solved->cache_stats.misses;
            {
                Scoped s(tr, "core.deploy", op_id);
                const cast::core::PlanEvaluator evaluator(models, workload, {.reuse_aware = true});
                const cast::core::WorkloadDeployment dep =
                    deployer.deploy(evaluator, solved->plan);
                op.deployed_utility = dep.utility;
                op.deployed_cost = dep.total_cost().value();
                op.deploy_retries = dep.retry_count;
            }
            op.ok = true;
        } catch (const std::exception& e) {
            op.error = e.what();
        }
        op.latency_ms = ms_between(start, Clock::now());
        return op;
    }

    Op workflow(const cast::workload::Workflow& wf, std::size_t input, std::size_t index,
                std::uint64_t op_id, Tracer& tr) const {
        Op op;
        op.kind = "workflow";
        op.input = input;
        op.workflow = index;
        op.jobs = wf.size();
        const auto start = Clock::now();
        try {
            Scoped root(tr, "op.workflow", op_id);
            std::optional<cast::core::WorkflowEvaluator> evaluator;
            std::optional<cast::core::WorkflowSolveResult> solved;
            {
                Scoped s(tr, "core.workflow", op_id);
                evaluator.emplace(models, wf);
                cast::core::AnnealingOptions opts;  // paper settings
                opts.seed = derive_seed(seed, kSolverStream, (input << 4) + index + 1);
                const cast::core::WorkflowSolver solver(*evaluator, opts);
                cast::core::EvalCache cache;
                solved = solver.solve(&pool, &cache);
                op.cache_entries = cache.size();
            }
            op.plan = plan_numbers(solved->plan.decisions);
            op.cost = solved->evaluation.total_cost().value();
            op.runtime_s = solved->evaluation.total_runtime.value();
            op.meets_deadline = solved->evaluation.meets_deadline;
            op.iterations = solved->iterations;
            op.exchange_attempts = solved->tempering.total_attempts();
            op.exchange_accepts = solved->tempering.total_accepts();
            op.budget_exhausted = solved->budget_exhausted;
            op.cache_hits = solved->cache_stats.hits;
            op.cache_misses = solved->cache_stats.misses;
            {
                Scoped s(tr, "core.deploy_workflow", op_id);
                const cast::core::WorkflowDeployment dep =
                    deployer.deploy_workflow(*evaluator, solved->plan);
                op.deployed_cost = dep.total_cost().value();
                op.deployed_met_deadline = dep.met_deadline;
                op.deploy_retries = dep.retry_count;
            }
            op.ok = true;
        } catch (const std::exception& e) {
            op.error = e.what();
        }
        op.latency_ms = ms_between(start, Clock::now());
        return op;
    }
};

struct PassResult {
    bool traced = false;
    double elapsed_s = 0.0;
    std::vector<Op> ops;
    Tracer tracer{false};
};

/// Run every operation once untraced and, with `traced`, once more traced
/// right after it on the same input. Interleaving the two passes operation
/// by operation keeps host drift out of obs.trace_overhead_share. An
/// interleaved pass's elapsed time is the sum of its operations' latencies.
std::vector<PassResult> run_passes(const Pipeline& pipeline, const Inputs& in, bool traced) {
    std::vector<PassResult> passes(traced ? 2 : 1);
    if (traced) {
        passes[1].traced = true;
        passes[1].tracer = Tracer(true);
    }
    const auto start = Clock::now();
    std::uint64_t op_id = 0;
    auto run = [&](auto&& op) {
        for (PassResult& pass : passes) pass.ops.push_back(op(pass.tracer));
        ++op_id;
    };
    for (std::size_t k = 0; k < in.workloads.size(); ++k) {
        run([&](Tracer& tr) { return pipeline.batch(in.workloads[k], k, op_id, tr); });
        for (std::size_t w = 0; w < in.workflows[k].size(); ++w) {
            run([&](Tracer& tr) {
                return pipeline.workflow(in.workflows[k][w], k, w, op_id, tr);
            });
        }
    }
    if (traced) {
        for (PassResult& pass : passes) {
            for (const Op& op : pass.ops) pass.elapsed_s += op.latency_ms / 1000.0;
        }
    } else {
        passes[0].elapsed_s = ms_between(start, Clock::now()) / 1000.0;
    }
    return passes;
}

/// Re-evaluate every returned plan with the reference evaluators (outside
/// any timing) and validate it the way the Deployer would.
void check_pass(const cast::model::PerfModelSet& models, const Inputs& in, PassResult& pass,
                Check& check) {
    for (Op& op : pass.ops) {
        if (!op.ok) continue;
        ++check.checked;
        const std::string where =
            op.kind + " input " + std::to_string(op.input) +
            (op.kind == "workflow" ? " workflow " + std::to_string(op.workflow) : "");
        try {
            if (op.kind == "batch") {
                const cast::core::PlanEvaluator evaluator(models, in.workloads[op.input],
                                                          {.reuse_aware = true});
                const cast::core::TieringPlan plan(decisions_of(op.plan));
                const auto t0 = Clock::now();
                const cast::core::PlanEvaluation ref = evaluator.evaluate(plan);
                check.reference_ms.push_back(ms_between(t0, Clock::now()));
                cast::core::Deployer::validate_plan(evaluator, plan);
                const cast::core::TieringPlan greedy(decisions_of(op.greedy_plan));
                const cast::core::PlanEvaluation greedy_ref = evaluator.evaluate(greedy);
                cast::core::Deployer::validate_plan(evaluator, greedy);
                if (!ref.feasible || ref.utility != op.utility ||
                    ref.total_cost().value() != op.cost) {
                    check.fail(where + ": CAST++ plan disagrees with the reference evaluator");
                    op.ok = false;
                } else if (!greedy_ref.feasible || greedy_ref.utility != op.ref.utility ||
                           greedy_ref.total_cost().value() != op.ref.cost) {
                    check.fail(where + ": greedy plan disagrees with the reference evaluator");
                    op.ok = false;
                }
            } else {
                const cast::core::WorkflowEvaluator evaluator(
                    models, in.workflows[op.input][op.workflow]);
                const cast::core::WorkflowPlan plan{decisions_of(op.plan)};
                const auto t0 = Clock::now();
                const cast::core::WorkflowEvaluation ref = evaluator.evaluate(plan);
                check.reference_ms.push_back(ms_between(t0, Clock::now()));
                cast::core::Deployer::validate_workflow_plan(evaluator, plan);
                const cast::core::WorkflowSolver greedy(evaluator, cast::core::AnnealingOptions{});
                op.ref.cost = greedy.solve_greedy().evaluation.total_cost().value();
                if (!ref.feasible || ref.total_cost().value() != op.cost ||
                    ref.total_runtime.value() != op.runtime_s ||
                    ref.meets_deadline != op.meets_deadline) {
                    check.fail(where + ": workflow plan disagrees with the reference evaluator");
                    op.ok = false;
                }
            }
        } catch (const std::exception& e) {
            check.fail(where + ": " + e.what());
            op.ok = false;
        }
    }
}

void write_ops(Json& json, const std::vector<Op>& ops) {
    json.begin_array();
    for (const Op& op : ops) {
        json.begin_object()
            .field("kind", op.kind)
            .field("input", static_cast<std::uint64_t>(op.input))
            .field("jobs", static_cast<std::uint64_t>(op.jobs))
            .field("ok", op.ok)
            .field("latency_ms", op.latency_ms)
            .field("utility", op.utility)
            .field("cost", op.cost)
            .field("ref_utility", op.ref.utility)
            .field("ref_cost", op.ref.cost)
            .field("meets_deadline", op.meets_deadline)
            .field("iterations", op.iterations)
            .field("exchange_attempts", op.exchange_attempts)
            .field("exchange_accepts", op.exchange_accepts)
            .field("budget_exhausted", op.budget_exhausted)
            .field("cache_hits", op.cache_hits)
            .field("cache_misses", op.cache_misses)
            .field("cache_entries", op.cache_entries)
            .field("lint_findings", static_cast<std::uint64_t>(op.lint_findings))
            .field("deployed_utility", op.deployed_utility)
            .field("deployed_cost", op.deployed_cost)
            .field("deployed_met_deadline", op.deployed_met_deadline)
            .field("deploy_retries", op.deploy_retries);
        if (!op.error.empty()) json.field("error", op.error);
        json.end_object();
    }
    json.end_array();
}

}  // namespace

void run_plan_deploy_paper(const Args& args, Json& json) {
    // Set-up, repeated so setup_s can be reported as a median: profile the
    // models, start the solver pool, and run one untimed warm-up batch and
    // workflow operation (wakes every pool thread, faults in the code).
    constexpr int kSetupRounds = 3;
    SetupTimes times;
    std::optional<cast::model::PerfModelSet> models;
    std::optional<cast::ThreadPool> pool;
    const Inputs warmup = make_inputs(args.seed, 1, kWarmupSeedIndex);
    for (int round = 0; round < kSetupRounds; ++round) {
        const auto t0 = Clock::now();
        pool.reset();
        pool.emplace(kPoolWorkers);
        models.reset();
        models.emplace(profile_models(&*pool));
        times.profile_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
        const Pipeline pipeline{*models, *pool, cast::core::Deployer{}, args.seed};
        Tracer off(false);
        const Op warm_batch = pipeline.batch(warmup.workloads[0], 0, 0, off);
        const Op warm_flow = pipeline.workflow(warmup.workflows[0][0], 0, 0, 0, off);
        if (!warm_batch.ok || !warm_flow.ok) {
            throw std::runtime_error("warm-up operation failed: " + warm_batch.error +
                                     warm_flow.error);
        }
        times.setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
    }
    const Pipeline pipeline{*models, *pool, cast::core::Deployer{}, args.seed};

    // A traced run measures an untraced and a traced pass of half length
    // each over identical inputs; their difference is the tracing overhead.
    const double pass_seconds = args.trace ? args.seconds / 2.0 : args.seconds;
    const auto seeds = static_cast<std::size_t>(
        std::max(1.0, std::round(pass_seconds * kSeedsPerSecond)));
    const auto gen_start = Clock::now();
    const Inputs inputs = make_inputs(args.seed, seeds, 0);
    const double gen_ms = ms_between(gen_start, Clock::now());

    std::vector<PassResult> passes = run_passes(pipeline, inputs, args.trace);

    Check check;
    for (PassResult& pass : passes) check_pass(*models, inputs, pass, check);

    begin_document(json, args, {{"caller", 1}, {"solver_pool", kPoolWorkers}}, times, gen_ms,
                   seeds);
    json.key("passes").begin_array();
    for (const PassResult& pass : passes) {
        json.begin_object().field("traced", pass.traced).field("elapsed_s", pass.elapsed_s);
        json.key("ops");
        write_ops(json, pass.ops);
        json.key("spans");
        pass.tracer.write(json);
        json.end_object();
    }
    json.end_array();
    end_document(json, check);
}

}  // namespace e2e
