#include "core/castpp.hpp"

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>

#include "lint/analyzer.hpp"
#include "lint/checks.hpp"

namespace cast::core {

namespace {
using cloud::StorageTier;
using cloud::tier_index;
}  // namespace

// ---------------------------------------------------------------------------
// Facades.
// ---------------------------------------------------------------------------

namespace {

/// Pre-solve lint shared by every batch facade: errors (unplaceable reuse
/// groups, unmodeled apps, a broken catalog) reject before any search
/// spends time; warnings ride along into the result for reports.
lint::Report lint_gate(const model::PerfModelSet& models, const workload::Workload& workload,
                       bool reuse_aware) {
    lint::LintContext lint_ctx;
    lint_ctx.models = &models;
    lint_ctx.reuse_aware = reuse_aware;
    lint::Report pre = lint::lint_workload(workload, lint_ctx);
    lint::enforce(pre);
    return pre;
}

/// Workflow variant shared by WorkflowSolver::solve and solve_greedy.
/// Structural errors reject; an unattainable deadline (L009's certified
/// lower bound) is demoted to a note because the solver's contract is
/// best-effort — the §5.2.2 baselines count misses, so a plan must come
/// back even when no plan can meet the deadline.
lint::Report workflow_lint_gate(const WorkflowEvaluator& evaluator) {
    lint::LintContext lint_ctx;
    lint_ctx.models = &evaluator.models();
    lint::Report pre = lint::lint_workflow(evaluator.workflow(), lint_ctx);
    lint::demote(pre, "L009", lint::Severity::kWarning);
    lint::enforce(pre);
    return pre;
}

/// The warnings a lint gate let through, formatted for `lint_notes`.
std::vector<std::string> warning_notes(const lint::Report& pre) {
    std::vector<std::string> notes;
    for (const lint::Finding* f : pre.at(lint::Severity::kWarning)) {
        notes.push_back(f->format());
    }
    return notes;
}

CastResult plan_with(const model::PerfModelSet& models, const workload::Workload& workload,
                     const CastOptions& options, bool reuse_aware, ThreadPool* pool,
                     EvalCache* cache) {
    // A wall budget covers the WHOLE facade, not just annealing: greedy
    // initialization runs on this clock too, and the annealing stage gets
    // only what remains (serving p99 targets would otherwise quietly slip
    // by the greedy time).
    const auto entry = std::chrono::steady_clock::now();
    lint::Report pre = lint_gate(models, workload, reuse_aware);

    PlanEvaluator evaluator(models, workload, EvalOptions{.reuse_aware = reuse_aware});

    // One memo table for the whole pipeline: runtimes computed during the
    // greedy sweep (keyed on job content, not workload index) are reused by
    // the annealing start plans. A caller-supplied cache (the serve layer's
    // snapshot-scoped table) replaces the per-call one, so the memo also
    // survives across requests.
    EvalCache local_cache;
    if (cache == nullptr) cache = &local_cache;

    TieringPlan initial =
        greedy_projected_plan(evaluator, options.greedy_init, reuse_aware, cache);

    AnnealingOptions annealing = options.annealing;
    if (annealing.max_wall_ms > 0.0) {
        const double spent =
            std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                      entry)
                .count();
        // Keep the budget armed even when greedy ate all of it: a tiny
        // positive remainder makes every chain bail at its first poll and
        // return its evaluated (feasible) start plan, flagged exhausted.
        annealing.max_wall_ms = std::max(annealing.max_wall_ms - spent, 1e-3);
    }
    AnnealingSolver solver(evaluator, annealing);
    AnnealingResult result = solver.solve(initial, pool, cache);
    CastResult out;
    out.plan = std::move(result.plan);
    out.evaluation = std::move(result.evaluation);
    out.greedy_initial = std::move(initial);
    out.iterations = result.iterations;
    out.best_chain = result.best_chain;
    out.cache_stats = result.cache_stats;
    out.budget_exhausted = result.budget_exhausted;
    out.tempering = std::move(result.tempering);
    out.lint_notes = warning_notes(pre);
    return out;
}

}  // namespace

CastResult plan_cast(const model::PerfModelSet& models, const workload::Workload& workload,
                     const CastOptions& options, ThreadPool* pool, EvalCache* cache) {
    return plan_with(models, workload, options, /*reuse_aware=*/false, pool, cache);
}

CastResult plan_cast_plus_plus(const model::PerfModelSet& models,
                               const workload::Workload& workload, const CastOptions& options,
                               ThreadPool* pool, EvalCache* cache) {
    return plan_with(models, workload, options, /*reuse_aware=*/true, pool, cache);
}

CastResult plan_cast_greedy(const model::PerfModelSet& models,
                            const workload::Workload& workload, const CastOptions& options,
                            bool reuse_aware, EvalCache* cache) {
    lint::Report pre = lint_gate(models, workload, reuse_aware);
    PlanEvaluator evaluator(models, workload, EvalOptions{.reuse_aware = reuse_aware});

    EvalCache local_cache;
    if (cache == nullptr) cache = &local_cache;

    CastResult out;
    out.plan = greedy_projected_plan(evaluator, options.greedy_init, reuse_aware, cache);
    out.evaluation = evaluator.evaluate(out.plan, cache);
    out.greedy_initial = out.plan;
    out.cache_stats = cache->stats();
    out.lint_notes = warning_notes(pre);
    return out;
}

/// Greedy ignores reuse groups, so the reuse-aware start plan is projected
/// onto Eq. 7 afterwards.
TieringPlan greedy_projected_plan(const PlanEvaluator& evaluator, const GreedyOptions& options,
                                  bool reuse_aware, EvalCache* cache) {
    GreedySolver greedy(evaluator);
    TieringPlan initial = greedy.solve(options, cache);
    if (reuse_aware) align_reuse_groups(evaluator.workload(), initial);
    return initial;
}

void align_reuse_groups(const workload::Workload& workload, TieringPlan& plan) {
    for (const auto& [group, members] : workload.reuse_groups()) {
        PlacementDecision lead = plan.decision(members.front());
        for (const std::size_t m : members) {
            if (workload.job(m).pinned_tier) lead.tier = *workload.job(m).pinned_tier;
        }
        for (const std::size_t m : members) plan.set_decision(m, lead);
    }
}

// ---------------------------------------------------------------------------
// Workflow evaluation.
// ---------------------------------------------------------------------------

namespace {
workload::Workflow validated(workload::Workflow workflow) {
    workflow.validate();
    return workflow;
}
}  // namespace

WorkflowEvaluator::WorkflowEvaluator(const model::PerfModelSet& models,
                                     workload::Workflow workflow, EvalOptions options)
    : models_(&models),
      workflow_(validated(std::move(workflow))),
      options_(options),
      rates_(models),
      reg_(models, workflow_.jobs(),
           [this](std::size_t i, StorageTier t) { return staging_legs(i, t); }) {
    const std::size_t n = workflow_.size();
    input_.reserve(n);
    inter_.reserve(n);
    output_.reserve(n);
    eph_backing_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const workload::JobSpec& job = workflow_.jobs()[i];
        any_pinned_ = any_pinned_ || job.pinned_tier.has_value();
        input_.push_back(job.input.value());
        inter_.push_back(job.intermediate().value());
        output_.push_back(job.output().value());
        GigaBytes backing = job.output();
        if (workflow_.predecessors(i).empty()) backing += job.input;
        eph_backing_.push_back(backing.value());
    }
}

model::StagingLegs WorkflowEvaluator::staging_legs(std::size_t i, StorageTier tier) const {
    model::StagingLegs legs{false, false};
    if (tier == StorageTier::kEphemeralSsd) {
        // Roots must pull their input down from the object store; terminal
        // outputs must be persisted back.
        legs.download_input = workflow_.predecessors(i).empty();
        legs.upload_output = workflow_.successors(i).empty();
    }
    return legs;
}

double WorkflowEvaluator::requirement(const WorkflowPlan& plan, std::size_t i) const {
    // Eq. 10: a job provisions its intermediate and output, plus its input
    // unless the input is already resident — i.e. every predecessor whose
    // output feeds it lives on the same tier.
    const StorageTier tier = plan.decisions[i].tier;
    const auto& preds = workflow_.predecessors(i);
    bool input_resident = !preds.empty();
    for (std::size_t p : preds) {
        if (plan.decisions[p].tier != tier) input_resident = false;
    }
    double req = inter_[i] + output_[i];
    if (!input_resident) req += input_[i];
    return req;
}

Seconds WorkflowEvaluator::transfer_time(GigaBytes volume, StorageTier from,
                                         GigaBytes from_per_vm, StorageTier to,
                                         GigaBytes to_per_vm) const {
    if (volume.value() <= 0.0 || from == to) return Seconds{0.0};
    const cloud::ClusterSpec& cluster = models_->cluster();
    const cloud::StorageCatalog& catalog = models_->catalog();
    const double cluster_mbps =
        std::min(model::cluster_bandwidth_mbps(cluster, catalog, from, from_per_vm, true),
                 model::cluster_bandwidth_mbps(cluster, catalog, to, to_per_vm, false));
    CAST_ENSURES(cluster_mbps > 0.0);
    return Seconds{volume.megabytes() / cluster_mbps};
}

bool WorkflowEvaluator::begin_evaluation(const WorkflowPlan& plan,
                                         WorkflowEvaluation& out) const {
    CAST_EXPECTS_MSG(plan.decisions.size() == workflow_.size(),
                     "plan/workflow size mismatch");
    for (const auto& d : plan.decisions) d.validate();
    // Reset every field (a new field must be reset here too); clear()
    // keeps the vectors' capacity.
    out.feasible = false;
    out.infeasibility.clear();
    out.total_runtime = Seconds{0.0};
    out.vm_cost = Dollars{0.0};
    out.storage_cost = Dollars{0.0};
    out.meets_deadline = false;
    out.capacities = CapacityBreakdown{};
    out.job_runtimes.clear();
    out.transfer_times.clear();
    if (any_pinned_) {
        // Operator pins via the shared lint check (same rule the deployer
        // and CLI enforce).
        std::vector<lint::Finding> violations;
        lint::check_tier_pins(workflow_.jobs(), plan.decisions, violations);
        if (!violations.empty()) {
            out.infeasibility = violations.front().message;
            return false;
        }
    }

    // --- Capacities (Eq. 10 + deployment conventions).
    bool any_on_object_store = false;
    double max_object_store_inter = 0.0;
    for (std::size_t i = 0; i < workflow_.size(); ++i) {
        const auto& d = plan.decisions[i];
        out.capacities.aggregate[tier_index(d.tier)] +=
            GigaBytes{requirement(plan, i) * d.overprovision};
        if (d.tier == StorageTier::kEphemeralSsd) {
            out.capacities.aggregate[tier_index(StorageTier::kObjectStore)] +=
                GigaBytes{eph_backing_[i]};
        }
        if (d.tier == StorageTier::kObjectStore) {
            any_on_object_store = true;
            if (inter_[i] > max_object_store_inter) max_object_store_inter = inter_[i];
        }
    }
    try {
        provision_capacities(models_->catalog(), models_->cluster().worker_count,
                             any_on_object_store
                                 ? std::optional(GigaBytes{max_object_store_inter})
                                 : std::nullopt,
                             out.capacities);
    } catch (const ValidationError& e) {
        out.infeasibility = e.what();
        return false;
    }
    out.job_runtimes.assign(workflow_.size(), Seconds{0.0});
    out.transfer_times.reserve(workflow_.edge_endpoints().size());
    return true;
}

void WorkflowEvaluator::finish_evaluation(Seconds total, WorkflowEvaluation& out) const {
    out.total_runtime = total;
    // --- Cost (Eq. 8): the shared Eq. 5-6 formula over the workflow
    // makespan, so workflow plans are costed exactly like tiering plans.
    const auto [vm, store] = eq5_eq6_costs(rates_, total, out.capacities);
    out.vm_cost = vm;
    out.storage_cost = store;
    out.meets_deadline = total <= workflow_.deadline();
    out.feasible = true;
}

WorkflowEvaluation WorkflowEvaluator::evaluate(const WorkflowPlan& plan,
                                               EvalCache* cache) const {
    WorkflowEvaluation out;
    if (!begin_evaluation(plan, out)) return out;
    const auto& per_vm = out.capacities.per_vm;
    // --- Runtime: serial execution in topological order (Eq. 9's sum),
    // job estimates via REG plus staging legs, then the cross-tier
    // transfers on edges (the pipelining of §3.1.3: "the output of one job
    // is pipelined to another storage service where it acts as an input
    // for the subsequent job").
    Seconds total{0.0};
    for (std::size_t i : workflow_.topological_order()) {
        const StorageTier t = plan.decisions[i].tier;
        const workload::JobSpec& job = workflow_.jobs()[i];
        const model::StagingLegs legs = staging_legs(i, t);
        const Seconds runtime =
            cache != nullptr
                ? cache->job_runtime(*models_, job, t, per_vm[tier_index(t)], legs)
                : models_->job_runtime(job, t, per_vm[tier_index(t)], legs);
        out.job_runtimes[i] = runtime;
        total += runtime;
    }
    for (const auto [u, v] : workflow_.edge_endpoints()) {
        const StorageTier su = plan.decisions[u].tier;
        const StorageTier sv = plan.decisions[v].tier;
        const Seconds t = transfer_time(GigaBytes{output_[u]}, su, per_vm[tier_index(su)], sv,
                                        per_vm[tier_index(sv)]);
        out.transfer_times.push_back(t);
        total += t;
    }
    finish_evaluation(total, out);
    return out;
}

void WorkflowEvaluator::evaluate_into(const WorkflowPlan& plan, RegMemo& memo,
                                      WorkflowEvaluation& out, const Base* base) const {
    // Only a feasible base carries runtimes to reuse.
    if (base != nullptr && !base->evaluation.feasible) base = nullptr;
    if (base != nullptr) {
        CAST_EXPECTS_MSG(&base->evaluation != &out, "base evaluation aliases the output");
        CAST_EXPECTS(base->plan.decisions.size() == workflow_.size() &&
                     base->evaluation.job_runtimes.size() == workflow_.size() &&
                     base->evaluation.transfer_times.size() == workflow_.edges().size());
    }
    if (!begin_evaluation(plan, out)) return;
    reg_.bind(memo);
    const auto& per_vm = out.capacities.per_vm;

    // --- Delta reuse. A job's runtime is a pure function of (job, tier,
    // the tier's per-VM capacity, staging legs), and the legs depend only
    // on the tier and the fixed DAG. So a job that kept its tier, on a tier
    // whose per-VM capacity is bit-equal to the base's, has the base's
    // runtime bits; an edge whose endpoints both qualify has the base's
    // transfer-time bits.
    std::array<bool, cloud::kTierCount> same_capacity{};
    if (base != nullptr) {
        for (std::size_t ti = 0; ti < cloud::kTierCount; ++ti) {
            same_capacity[ti] =
                std::bit_cast<std::uint64_t>(per_vm[ti].value()) ==
                std::bit_cast<std::uint64_t>(base->evaluation.capacities.per_vm[ti].value());
        }
    }
    auto reusable = [&](std::size_t i) {
        const StorageTier t = plan.decisions[i].tier;
        return base != nullptr && base->plan.decisions[i].tier == t &&
               same_capacity[tier_index(t)];
    };

    // --- Runtime and transfers as in evaluate(), from the REG kernels.
    Seconds total{0.0};
    for (std::size_t i : workflow_.topological_order()) {
        Seconds t{0.0};
        if (reusable(i)) {
            t = base->evaluation.job_runtimes[i];
        } else {
            const std::size_t ti = tier_index(plan.decisions[i].tier);
            t = Seconds{reg_.runtime(i, ti, per_vm[ti].value(), memo)};
        }
        out.job_runtimes[i] = t;
        total += t;
    }
    const auto& endpoints = workflow_.edge_endpoints();
    for (std::size_t k = 0; k < endpoints.size(); ++k) {
        const auto [u, v] = endpoints[k];
        Seconds t{0.0};
        if (reusable(u) && reusable(v)) {
            t = base->evaluation.transfer_times[k];
        } else {
            const std::size_t su = tier_index(plan.decisions[u].tier);
            const std::size_t sv = tier_index(plan.decisions[v].tier);
            t = Seconds{reg_.transfer_time(output_[u], su, per_vm[su].value(), sv,
                                           per_vm[sv].value(), memo)};
        }
        out.transfer_times.push_back(t);
        total += t;
    }
    finish_evaluation(total, out);
}

// ---------------------------------------------------------------------------
// Workflow solver.
// ---------------------------------------------------------------------------

WorkflowSolver::WorkflowSolver(const WorkflowEvaluator& evaluator, AnnealingOptions options,
                               double deadline_safety)
    : evaluator_(&evaluator), options_(std::move(options)), deadline_safety_(deadline_safety) {
    const auto& wf = evaluator_->workflow();
    options_.validate(wf.size());
    CAST_EXPECTS(deadline_safety_ > 0.0 && deadline_safety_ <= 1.0);
    // cᵢ is a continuous decision variable in the paper; our move set
    // discretizes it. Extend the factor menu so a uniform plan can reach
    // the per-VM capacity where persSSD saturates its bandwidth ceiling —
    // for small workflows that takes factors well beyond the default list.
    double total_req = 0.0;
    const WorkflowPlan probe = WorkflowPlan::uniform(wf.size(), StorageTier::kPersistentSsd);
    for (std::size_t i = 0; i < wf.size(); ++i) {
        total_req += evaluator_->job_requirement(probe, i).value();
    }
    if (total_req > 0.0) {
        const double saturating =
            550.0 * evaluator_->models().cluster().worker_count / total_req;
        if (saturating > 1.0) {
            options_.overprov_choices.push_back(std::max(1.0, saturating / 2.0));
            options_.overprov_choices.push_back(saturating);
            options_.overprov_choices.push_back(saturating * 1.5);
        }
    }
}

double WorkflowSolver::score(const WorkflowEvaluation& eval) const {
    if (!eval.feasible) return -1e18;
    double s = -eval.total_cost().value();
    const Seconds target{evaluator_->workflow().deadline().value() * deadline_safety_};
    if (eval.total_runtime > target) {
        const double overtime_min = (eval.total_runtime - target).minutes();
        s -= 1e3 * (1.0 + overtime_min);  // dominate any cost difference
    }
    return s;
}

struct WorkflowSolver::WfChainCtx : AnnealChain {
    const WorkflowSolver* solver = nullptr;
    WorkflowPlan curr;
    WorkflowEvaluation curr_eval;
    /// Move buffers: each move copy-assigns curr's decisions into `next`
    /// and evaluates into `next_eval`; an accepted move swaps them with
    /// curr/curr_eval. After the first moves they own enough capacity that
    /// a move allocates nothing.
    WorkflowPlan next;
    WorkflowEvaluation next_eval;
    /// REG factors per (tier, per-VM capacity) for evaluate_into; stays
    /// with the replica across exchanges (its entries are plan-free).
    RegMemo memo;
    double next_score = 0.0;
    /// DFS cursor; identical across replicas at round barriers (all run
    /// the same iteration count), so exchanges never need to swap it.
    std::size_t cursor = 0;
    WorkflowPlan best_plan;
    WorkflowEvaluation best_eval;

    /// Always a move: a factor move to the job's own factor is still
    /// evaluated and can still become the best (after an exchange the
    /// current state may beat the replica's own best).
    bool propose(Rng& rng) {
        const AnnealingOptions& options = solver->options_;
        const std::vector<std::size_t>& dfs = solver->evaluator_->workflow().dfs_order();
        // DFS-order traversal of the DAG for neighbor generation (§4.3).
        // With an active_jobs mask, frozen jobs are skipped in DFS order —
        // the cursor advance is deterministic, so restricted solves keep
        // the bit-identity guarantees (the ctor rejects all-zero masks).
        std::size_t job_idx = dfs[cursor];
        cursor = (cursor + 1) % dfs.size();
        if (!options.active_jobs.empty()) {
            while (options.active_jobs[job_idx] == 0) {
                job_idx = dfs[cursor];
                cursor = (cursor + 1) % dfs.size();
            }
        }

        next.decisions = curr.decisions;
        PlacementDecision& d = next.decisions[job_idx];
        if (rng.uniform() < options.tier_move_probability) {
            StorageTier t;
            do {
                t = cloud::kAllTiers[rng.below(cloud::kAllTiers.size())];
            } while (t == d.tier);
            d.tier = t;
        } else {
            d.overprovision =
                options.overprov_choices[rng.below(options.overprov_choices.size())];
        }
        return true;
    }
    /// An infeasible neighbor scores -1e18 and still goes through the
    /// Metropolis rule, consuming its draw.
    bool evaluate() {
        const WorkflowEvaluator::Base base{curr, curr_eval};
        solver->evaluator_->evaluate_into(next, memo, next_eval, &base);
        next_score = solver->score(next_eval);
        return true;
    }
    [[nodiscard]] double candidate_score() const { return next_score; }
    [[nodiscard]] double current_score() const { return solver->score(curr_eval); }
    [[nodiscard]] double best_score() const { return solver->score(best_eval); }
    /// Only a feasible neighbor becomes the best.
    void save_best() {
        if (!next_eval.feasible) return;
        best_plan = next;
        best_eval = next_eval;
    }
    void commit() {
        std::swap(curr, next);
        std::swap(curr_eval, next_eval);
    }
    void revert() {}
};

WorkflowSolveResult WorkflowSolver::uniform_sweep(EvalCache* cache) const {
    const auto& wf = evaluator_->workflow();
    WorkflowSolveResult best;
    best.plan = WorkflowPlan::uniform(wf.size(), StorageTier::kPersistentSsd);
    best.evaluation = evaluator_->evaluate(best.plan, cache);
    best.best_chain = -1;
    double best_score = score(best.evaluation);
    for (StorageTier t : cloud::kAllTiers) {
        for (double k : options_.overprov_choices) {
            WorkflowPlan candidate = WorkflowPlan::uniform(wf.size(), t, k);
            WorkflowEvaluation eval = evaluator_->evaluate(candidate, cache);
            const double s = score(eval);
            if (s > best_score) {
                best_score = s;
                best.plan = std::move(candidate);
                best.evaluation = std::move(eval);
            }
        }
    }
    return best;
}

WorkflowSolveResult WorkflowSolver::solve(ThreadPool* pool, EvalCache* cache) const {
    // Arm the shared wall clock before lint and the uniform sweep so the
    // whole solve answers to one budget.
    const SolveDeadline deadline = SolveDeadline::from(options_);
    const lint::Report pre = workflow_lint_gate(*evaluator_);
    EvalCache local_cache;
    if (cache == nullptr) cache = &local_cache;
    const auto& wf = evaluator_->workflow();
    CAST_EXPECTS(!wf.dfs_order().empty());

    // The uniform sweep is the guaranteed result floor, one replica start
    // in three, and the source of the SHARED Metropolis/exchange
    // normalization scale — replicas must agree on the energy unit for
    // exchange probabilities to mean anything.
    WorkflowSolveResult fallback = uniform_sweep(cache);
    const double fallback_score = score(fallback.evaluation);
    const double scale = std::max(1.0, std::fabs(fallback_score));

    TemperingRun<WfChainCtx> run = run_tempering<WfChainCtx>(
        options_, pool,
        [&](WfChainCtx& ctx, std::size_t r) {
            // Multi-start across replicas: start seeds divisible by 3 start
            // from the sweep's winner; the rest rotate the starting tier
            // (and a generous starting over-provision factor, since
            // block-tier speed needs pooled capacity) by seed. An
            // infeasible start retreats to persSSD.
            ctx.solver = this;
            const std::uint64_t start_seed = options_.seed + 104729 * (r + 1);
            if (start_seed % 3 == 0) {
                ctx.curr = fallback.plan;
                ctx.curr_eval = fallback.evaluation;
            } else {
                ctx.curr = WorkflowPlan::uniform(
                    wf.size(), cloud::kAllTiers[start_seed % cloud::kAllTiers.size()],
                    options_.overprov_choices[(start_seed / 7) %
                                              options_.overprov_choices.size()]);
                ctx.curr_eval = evaluator_->evaluate(ctx.curr, cache);
            }
            if (!ctx.curr_eval.feasible) {
                ctx.curr = WorkflowPlan::uniform(wf.size(), StorageTier::kPersistentSsd);
                ctx.curr_eval = evaluator_->evaluate(ctx.curr, cache);
            }
            ctx.best_plan = ctx.curr;
            ctx.best_eval = ctx.curr_eval;
        },
        [&](WfChainCtx& ctx, Rng& rng, int begin, int end) {
            return anneal_span(ctx, rng, begin, end, options_, scale, deadline);
        },
        [&](const WfChainCtx& ctx) { return -ctx.current_score() / scale; },
        [](WfChainCtx& a, WfChainCtx& b) {
            std::swap(a.curr, b.curr);
            std::swap(a.curr_eval, b.curr_eval);
        });

    // Best-so-far is feasible whenever any evaluated plan was — the
    // persSSD retreat guarantees one for every workflow the lint gate
    // admits — and never worse than the sweep.
    std::vector<WfChainCtx>& reps = run.replicas;
    const std::size_t best = run.best_replica(&WfChainCtx::best_score);
    WorkflowSolveResult chosen;
    if (fallback_score > reps[best].best_score()) {
        chosen = std::move(fallback);
    } else {
        chosen.plan = std::move(reps[best].best_plan);
        chosen.evaluation = std::move(reps[best].best_eval);
        chosen.best_chain = static_cast<int>(best);
    }
    for (const int n : run.stats.replica_iterations) chosen.iterations += n;
    chosen.budget_exhausted = run.budget_exhausted;
    chosen.cache_stats = cache->stats();
    chosen.tempering = std::move(run.stats);
    chosen.lint_notes = warning_notes(pre);
    return chosen;
}

WorkflowSolveResult WorkflowSolver::solve_greedy(EvalCache* cache) const {
    // Same lint gate as solve(), including the L009 demotion: the degraded
    // path stays best-effort on deadlines no full solve could meet either.
    const lint::Report pre = workflow_lint_gate(*evaluator_);
    EvalCache local_cache;
    if (cache == nullptr) cache = &local_cache;

    // The uniform sweep "wins" (best_chain -1) by being the only entry.
    WorkflowSolveResult out = uniform_sweep(cache);
    out.cache_stats = cache->stats();
    out.lint_notes = warning_notes(pre);
    return out;
}

// ---------------------------------------------------------------------------
// Reuse scenarios.
// ---------------------------------------------------------------------------

ReuseScenarioResult evaluate_reuse_scenario(const model::PerfModelSet& models,
                                            const workload::JobSpec& job, StorageTier tier,
                                            const workload::ReusePattern& pattern) {
    pattern.validate();
    job.validate();
    const auto& cluster = models.cluster();
    const auto& catalog = models.catalog();
    const int nvm = cluster.worker_count;

    // Capacity: the job's dataset on its tier (+ conventions). Block tiers
    // are provisioned at the same 500 GB-per-VM experiment volumes as the
    // Fig. 1 characterization (grown when the dataset needs more), so the
    // no-reuse column of Fig. 3 agrees with Fig. 1 by construction.
    CapacityBreakdown caps;
    GigaBytes dataset_capacity = job.capacity_requirement();
    if (tier == StorageTier::kPersistentSsd || tier == StorageTier::kPersistentHdd) {
        dataset_capacity =
            GigaBytes{std::max(500.0 * nvm, dataset_capacity.value())};
    }
    caps.aggregate[tier_index(tier)] = dataset_capacity;
    if (tier == StorageTier::kEphemeralSsd) {
        caps.aggregate[tier_index(StorageTier::kObjectStore)] += job.input + job.output();
    }
    // persSSD is empty when the dataset sits on objStore, so the floor
    // provisions exactly the conventional intermediate volume.
    provision_capacities(catalog, nvm,
                         tier == StorageTier::kObjectStore
                             ? std::optional(job.intermediate())
                             : std::nullopt,
                         caps);

    ReuseScenarioResult result;
    const GigaBytes per_vm = caps.per_vm[tier_index(tier)];
    const model::StagingLegs full = model::StagingLegs::for_tier(tier);
    model::StagingLegs repeat = full;
    repeat.download_input = false;  // dataset already resident after run 1
    result.first_run = models.job_runtime(job, tier, per_vm, full);
    result.repeat_run = models.job_runtime(job, tier, per_vm, repeat);
    result.total_runtime =
        result.first_run + result.repeat_run * static_cast<double>(pattern.accesses - 1);

    // How long the dataset (and, on ephSSD, the VMs) must be held.
    const Seconds hold{std::max(pattern.lifetime.value(), result.total_runtime.value())};

    // VM cost: compute time only on persistent tiers; the whole hold window
    // on ephSSD because terminating the VMs destroys the data (§3.2).
    const Seconds vm_time = tier == StorageTier::kEphemeralSsd ? hold : result.total_runtime;
    result.vm_cost = Dollars{cluster.price_per_minute().value() * vm_time.minutes()};

    // Storage cost: the reused dataset's tier (and the objStore backing of
    // an ephSSD placement) is held for the whole window; the persSSD
    // intermediate volume of an objStore placement is scratch space that
    // only exists while jobs run.
    const double hold_hours = std::ceil(std::max(hold.minutes() / 60.0, 1.0));
    const double run_hours = std::ceil(std::max(result.total_runtime.minutes() / 60.0, 1.0));
    double storage = 0.0;
    for (StorageTier t : cloud::kAllTiers) {
        const GigaBytes cap = caps.aggregate[tier_index(t)];
        if (cap.value() <= 0.0) continue;
        const bool scratch = tier == StorageTier::kObjectStore &&
                             t == StorageTier::kPersistentSsd;
        storage += cap.value() * catalog.service(t).price_per_gb_hour().value() *
                   (scratch ? run_hours : hold_hours);
    }
    result.storage_cost = Dollars{storage};

    const Seconds per_access{result.total_runtime.value() / pattern.accesses};
    result.utility = tenant_utility(per_access, result.total_cost());
    return result;
}

}  // namespace cast::core
