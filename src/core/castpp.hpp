// CAST and CAST++ planner facades, workflow planning, and reuse scenarios.
//
// CAST (§4.2): greedy initial plan + simulated annealing on tenant utility.
// CAST++ (§4.3) adds:
//   * Enhancement 1 — data-reuse awareness: jobs sharing input are pinned
//     to one tier (Eq. 7, enforced structurally by group moves), shared
//     inputs are provisioned and downloaded once;
//   * Enhancement 2 — workflow awareness: per-workflow cost minimization
//     under a completion deadline (Eq. 8-10), with cross-tier transfer
//     times on DAG edges and DFS-order neighbor traversal; its replicas
//     anneal on the batch solver's SoA core (core/soa_eval.hpp).
// This header also provides the data-reuse scenario economics of §3.1.3
// (Fig. 3): utility of re-running a job n times over a reuse lifetime.
#pragma once

#include <optional>
#include <vector>

#include "core/annealing.hpp"
#include "core/greedy.hpp"
#include "core/plan.hpp"
#include "core/utility.hpp"
#include "workload/workflow.hpp"

namespace cast::core {

// ---------------------------------------------------------------------------
// Planner facades.
// ---------------------------------------------------------------------------

struct CastOptions {
    AnnealingOptions annealing;
    GreedyOptions greedy_init;
};

struct CastResult {
    TieringPlan plan;
    PlanEvaluation evaluation;
    TieringPlan greedy_initial;
    /// Pre-solve lint warnings (formatted findings); empty on a clean input.
    std::vector<std::string> lint_notes;
    /// Search-effort counters and memo-table statistics, carried up from
    /// the annealing stage so CLI/serve reports can show them without
    /// re-running anything. The cache counts the greedy sweep's and the
    /// start plans' full evaluations; annealing candidates bypass it.
    int iterations = 0;
    int best_chain = 0;
    EvalCacheStats cache_stats{};
    /// True when options.annealing.max_wall_ms (or a CancelToken) stopped
    /// the search early; the plan is best-so-far feasible, not converged.
    bool budget_exhausted = false;
    /// Replica-exchange statistics from the annealing stage. Greedy-only
    /// results report replicas == 0.
    TemperingStats tempering{};
};

/// Basic CAST: reuse-oblivious utility maximization. When `cache` is
/// supplied the greedy init and the annealing start plans memoize through
/// it instead of a per-call table — the serve layer passes its
/// snapshot-scoped cache here so REG runtimes amortize across requests.
[[nodiscard]] CastResult plan_cast(const model::PerfModelSet& models,
                                   const workload::Workload& workload,
                                   const CastOptions& options = {},
                                   ThreadPool* pool = nullptr, EvalCache* cache = nullptr);

/// CAST++ (Enhancement 1): reuse-aware utility maximization.
[[nodiscard]] CastResult plan_cast_plus_plus(const model::PerfModelSet& models,
                                             const workload::Workload& workload,
                                             const CastOptions& options = {},
                                             ThreadPool* pool = nullptr,
                                             EvalCache* cache = nullptr);

/// Greedy-only placement: Algorithm 1 alone, with the same lint gate and
/// reuse-group projection as the full facades but no annealing stage — the
/// cheapest non-reject answer the serving layer's overload governor can
/// degrade to. Orders of magnitude cheaper than a full solve (one
/// single-job sweep instead of iter_max evaluations), deterministic, and
/// Fig. 7 quantifies exactly how much plan quality it gives up.
[[nodiscard]] CastResult plan_cast_greedy(const model::PerfModelSet& models,
                                          const workload::Workload& workload,
                                          const CastOptions& options = {},
                                          bool reuse_aware = false,
                                          EvalCache* cache = nullptr);

/// Algorithm 1 start plan over `evaluator`'s workload, projected onto the
/// Eq. 7 constraint set when reuse-aware (greedy ignores reuse groups, so
/// every group is aligned on its leader's tier; a pinned member dictates
/// the whole group's tier). This is the shared greedy substrate of every
/// facade above, exposed for the incremental re-planner
/// (core/incremental.hpp), which seeds arriving jobs with it and uses it
/// as the deterministic shadow cold reference its escalation rule
/// compares amendments against.
[[nodiscard]] TieringPlan greedy_projected_plan(const PlanEvaluator& evaluator,
                                                const GreedyOptions& options,
                                                bool reuse_aware,
                                                EvalCache* cache = nullptr);

/// Eq. 7 projection: every reuse group takes its first member's placement,
/// with the tier of a pinned member (if any) overriding it. Members pinned
/// apart are rejected earlier by lint rule L005.
void align_reuse_groups(const workload::Workload& workload, TieringPlan& plan);

// ---------------------------------------------------------------------------
// Workflow planning (Enhancement 2).
// ---------------------------------------------------------------------------

/// Decisions parallel to Workflow::jobs().
struct WorkflowPlan {
    std::vector<PlacementDecision> decisions;

    [[nodiscard]] static WorkflowPlan uniform(std::size_t job_count, cloud::StorageTier tier,
                                              double k = 1.0) {
        return WorkflowPlan{
            std::vector<PlacementDecision>(job_count, PlacementDecision{tier, k})};
    }
};

struct WorkflowEvaluation {
    bool feasible = false;
    std::string infeasibility;
    Seconds total_runtime{0.0};  // jobs + cross-tier transfers + staging
    Dollars vm_cost{0.0};
    Dollars storage_cost{0.0};
    bool meets_deadline = false;
    CapacityBreakdown capacities;
    std::vector<Seconds> job_runtimes;     // per job, workflow order
    std::vector<Seconds> transfer_times;   // per edge, workflow edge order

    [[nodiscard]] Dollars total_cost() const { return vm_cost + storage_cost; }
};

class WorkflowEvaluator {
public:
    WorkflowEvaluator(const model::PerfModelSet& models, workload::Workflow workflow);

    [[nodiscard]] const workload::Workflow& workflow() const { return workflow_; }
    [[nodiscard]] const model::PerfModelSet& models() const { return *models_; }

    /// Eq. 8-10 evaluation of a workflow plan: serial execution of every
    /// job; a DAG edge whose endpoints sit on different tiers pays a
    /// cross-tier transfer of the producer's output; root jobs on ephSSD
    /// stage in from objStore, terminal jobs on ephSSD stage out. The
    /// reference the SoA core (core/soa_eval.hpp) is tested against: REG
    /// runtimes are PerfModelSet::job_runtime calls, memoized through
    /// `cache` when supplied (bit-identical), transfers transfer_time()
    /// calls, and the Eq. 10 aggregates and the Eq. 9 total exact
    /// fixed-point sums (core/fixed_sum.hpp), infeasible beyond range.
    [[nodiscard]] WorkflowEvaluation evaluate(const WorkflowPlan& plan,
                                              EvalCache* cache = nullptr) const;

    /// Eq. 10 capacity requirement of one workflow job under a plan.
    [[nodiscard]] GigaBytes job_requirement(const WorkflowPlan& plan,
                                            std::size_t job_idx) const;

    /// Modeled time to move `volume` from tier `from` to tier `to` given
    /// per-VM capacities.
    [[nodiscard]] Seconds transfer_time(GigaBytes volume, cloud::StorageTier from,
                                        GigaBytes from_per_vm, cloud::StorageTier to,
                                        GigaBytes to_per_vm) const;

private:
    /// The SoA core reads the per-job terms, so the two never drift.
    friend class SoaEvaluator;

    /// Staging legs of job `i` on `tier`: on ephSSD a root downloads its
    /// input and a terminal job uploads its output; nothing elsewhere.
    [[nodiscard]] model::StagingLegs staging_legs(std::size_t i,
                                                  cloud::StorageTier tier) const;

    const model::PerfModelSet* models_;
    workload::Workflow workflow_;
    /// True when some job carries an operator tier pin.
    bool any_pinned_ = false;
    /// Plan-invariant per-job volumes as raw doubles (GB): the Eq. 10
    /// requirement with and without a resident input, the intermediate and
    /// output volumes, and the objStore backing of the job on ephSSD (its
    /// output, plus its input for a root).
    std::vector<double> req_;
    std::vector<double> req_resident_;
    std::vector<double> inter_;
    std::vector<double> output_;
    std::vector<double> eph_backing_;
    /// Eq. 5-6 rates, looked up once.
    CostRates rates_;
};

struct WorkflowSolveResult {
    WorkflowPlan plan;
    WorkflowEvaluation evaluation;
    /// Aggregated across ALL replicas.
    int iterations = 0;
    /// Index of the winning replica (-1 when the uniform-plan fallback beat
    /// every replica, 0 for a single chain).
    int best_chain = 0;
    /// Memo-table statistics of the uniform sweep's and the start plans'
    /// evaluations (cumulative when the caller supplied the cache).
    EvalCacheStats cache_stats{};
    /// Pre-solve lint warnings, including a demoted L009 when the deadline
    /// is below the certified runtime lower bound (the solve is then
    /// best-effort by construction).
    std::vector<std::string> lint_notes;
    /// True when the wall budget or a cancellation stopped the search
    /// early (best-so-far result; OR across replicas).
    bool budget_exhausted = false;
    /// Replica-exchange statistics (replicas == 0 from solve_greedy()).
    TemperingStats tempering{};
};

/// CAST++ deadline mode: minimize $total subject to the workflow deadline
/// (Eq. 8-9), annealing over tiers/factors with DFS-order traversal.
class WorkflowSolver {
public:
    /// `deadline_safety` shrinks the deadline the *search* targets (Eq. 9
    /// evaluated against safety x deadline): the model under-predicts real
    /// runtimes by a few percent (Fig. 8), so plans that model exactly at
    /// the deadline would miss it when deployed.
    WorkflowSolver(const WorkflowEvaluator& evaluator, AnnealingOptions options = {},
                   double deadline_safety = 1.0);

    /// Tempered anneal over options.chains replicas (a single chain is a
    /// one-rung ladder). The uniform sweep and the replicas' start plans
    /// evaluate through `cache` when supplied, otherwise an internally
    /// created one; the replicas score candidates on the SoA core
    /// (core/soa_eval.hpp) and make no cache lookups.
    [[nodiscard]] WorkflowSolveResult solve(ThreadPool* pool = nullptr,
                                            EvalCache* cache = nullptr) const;
    /// Greedy-only workflow answer: the best uniform plan over tiers x
    /// factors (the multi-start anchor), evaluated but never annealed.
    /// Runs the same lint gate as solve(); iterations = 0, best_chain = -1.
    /// The overload governor degrades to this when a full workflow solve
    /// cannot be afforded.
    [[nodiscard]] WorkflowSolveResult solve_greedy(EvalCache* cache = nullptr) const;

private:
    /// Score to maximize: -cost when the deadline holds, else heavily
    /// penalized by the overtime so the search is pulled toward
    /// feasibility first.
    [[nodiscard]] double score(const WorkflowEvaluation& eval) const;
    [[nodiscard]] double score(Seconds total_runtime, Dollars total_cost) const;

    /// Best-scoring uniform plan over tiers x over-provision factors, with
    /// its evaluation (best_chain -1): the multi-start anchor and result
    /// floor, run once per solve.
    [[nodiscard]] WorkflowSolveResult uniform_sweep(EvalCache* cache) const;

    /// One replica on the SoA core: DFS-cursor moves, a pin check, score()
    /// to maximize. Defined in the .cpp.
    struct WfChain;

    const WorkflowEvaluator* evaluator_;
    AnnealingOptions options_;
    double deadline_safety_;
};

// ---------------------------------------------------------------------------
// Data-reuse scenario economics (§3.1.3, Fig. 3).
// ---------------------------------------------------------------------------

struct ReuseScenarioResult {
    Seconds first_run{0.0};
    Seconds repeat_run{0.0};
    Seconds total_runtime{0.0};
    Dollars vm_cost{0.0};
    Dollars storage_cost{0.0};
    double utility = 0.0;  // (1 / per-access runtime in minutes) / total cost

    [[nodiscard]] Dollars total_cost() const { return vm_cost + storage_cost; }
};

/// Economics of accessing `job`'s dataset `pattern.accesses` times over
/// `pattern.lifetime` with the data resident on `tier`. Persistent tiers
/// hold the dataset (and keep billing) for the whole lifetime; ephSSD must
/// keep the *VMs* alive for the whole lifetime to retain data (the paper's
/// key cost caveat, §3.2), but amortizes the objStore download across
/// accesses.
[[nodiscard]] ReuseScenarioResult evaluate_reuse_scenario(const model::PerfModelSet& models,
                                                          const workload::JobSpec& job,
                                                          cloud::StorageTier tier,
                                                          const workload::ReusePattern& pattern);

}  // namespace cast::core
