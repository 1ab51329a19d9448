#include "core/incremental.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <span>
#include <utility>

#include "core/eval_cache.hpp"
#include "core/greedy.hpp"
#include "core/soa_eval.hpp"

namespace cast::core {

namespace {

/// Uniform fallback start plan honoring tier pins and Eq. 7: everything on
/// `tier`, pinned jobs moved to their pin, then the reuse-group projection
/// greedy_projected_plan applies.
TieringPlan pinned_uniform(const workload::Workload& workload, cloud::StorageTier tier) {
    TieringPlan plan = TieringPlan::uniform(workload.size(), tier);
    for (std::size_t i = 0; i < workload.size(); ++i) {
        if (workload.job(i).pinned_tier) {
            plan.set_decision(i, PlacementDecision{*workload.job(i).pinned_tier, 1.0});
        }
    }
    align_reuse_groups(workload, plan);
    return plan;
}

}  // namespace

IncrementalSolver::IncrementalSolver(const model::PerfModelSet& models, CastOptions options,
                                     AmendPolicy policy, bool reuse_aware)
    : models_(&models),
      options_(std::move(options)),
      policy_(policy),
      reuse_aware_(reuse_aware) {
    policy_.validate();
}

PlacementDecision IncrementalSolver::seed_arrival(const PlanEvaluator& evaluator,
                                                  const TieringPlan& partial,
                                                  std::size_t new_idx, EvalCache* cache) const {
    const workload::Workload& wl = evaluator.workload();
    const workload::JobSpec& job = wl.job(new_idx);
    // An unpinned arrival joining a reuse group adopts the group's existing
    // placement (Eq. 7 co-location; survivors and earlier arrivals are all
    // seeded before this index). A pinned arrival falls through to the
    // pin-restricted sweep instead — a pin contradicting its group is an
    // input problem the evaluation will flag, not something seeding hides.
    if (reuse_aware_ && job.reuse_group && !job.pinned_tier) {
        for (std::size_t j = 0; j < new_idx; ++j) {
            if (wl.job(j).reuse_group == job.reuse_group) return partial.decision(j);
        }
    }
    static constexpr double kExactFit[] = {1.0};
    const std::span<const double> ks =
        options_.greedy_init.over_provision
            ? std::span<const double>(options_.greedy_init.overprov_choices)
            : kExactFit;
    const std::span<const cloud::StorageTier> tiers =
        job.pinned_tier ? std::span<const cloud::StorageTier>(&*job.pinned_tier, 1)
                        : std::span<const cloud::StorageTier>(cloud::kAllTiers);
    return GreedySolver(evaluator).best_single_job_placement(job, tiers, ks, cache);
}

std::vector<std::size_t> IncrementalSolver::affected_neighborhood(
    const PlanEvaluator& prior_eval, const TieringPlan& prior_plan,
    const PlanEvaluator& next_eval, const TieringPlan& seeded,
    const workload::DeltaApplication& applied, bool* capacity_overflow) const {
    *capacity_overflow = false;
    const std::size_t n = next_eval.workload().size();
    std::vector<std::uint8_t> flagged(n, 0);
    for (const std::size_t idx : applied.changed) flagged[idx] = 1;

    // Capacity side: a tier whose aggregate provisioned volume moved
    // materially couples every resident's runtime (capacity-scaled
    // bandwidth, Eq. 4) and bill share (Eq. 6), so its residents join the
    // neighborhood. Departures enter here too — their vacated capacity is
    // exactly such a shift.
    try {
        const CapacityBreakdown prior_caps = prior_eval.capacities(prior_plan);
        const CapacityBreakdown next_caps = next_eval.capacities(seeded);
        for (std::size_t t = 0; t < cloud::kTierCount; ++t) {
            const double prior_gb = prior_caps.aggregate[t].value();
            const double next_gb = next_caps.aggregate[t].value();
            if (std::abs(next_gb - prior_gb) <=
                policy_.capacity_slack * std::max(prior_gb, 1.0)) {
                continue;
            }
            for (std::size_t i = 0; i < n; ++i) {
                if (cloud::tier_index(seeded.decision(i).tier) == t) flagged[i] = 1;
            }
        }
    } catch (const ValidationError&) {
        // The seeded plan overflows a provider capacity limit; no
        // restricted solve can be trusted from it — the caller escalates.
        *capacity_overflow = true;
    }

    // Close under reuse groups: group moves relocate members together
    // (Eq. 7), so a partially flagged group would generate moves touching
    // unflagged jobs. Flag the whole group instead.
    for (const auto& [group, members] : next_eval.workload().reuse_groups()) {
        bool any = false;
        for (const std::size_t m : members) any = any || flagged[m] != 0;
        if (!any) continue;
        for (const std::size_t m : members) flagged[m] = 1;
    }

    std::vector<std::size_t> neighborhood;
    for (std::size_t i = 0; i < n; ++i) {
        if (flagged[i] != 0) neighborhood.push_back(i);
    }
    return neighborhood;
}

bool IncrementalSolver::repair_pass(const SoaEvaluator& soa, const std::vector<MoveUnit>& units,
                                    TieringPlan* plan, PlanEvaluation* eval) const {
    // Candidates are scored on the annealer's flat state: each is staged
    // over the committed plan, kept on a strict improvement and reverted
    // otherwise, so the committed state always holds the unit at its best.
    SoaState state;
    soa.init(state, *plan, *eval);
    bool changed = false;
    for (const MoveUnit& unit : units) {
        const PlacementDecision original = plan->decision(unit.jobs.front());
        PlacementDecision best = original;
        for (const cloud::StorageTier tier : cloud::kAllTiers) {
            const auto ti = static_cast<std::uint8_t>(cloud::tier_index(tier));
            if ((unit.allowed_tiers & (1u << ti)) == 0) continue;
            for (const double k : options_.annealing.overprov_choices) {
                if (tier == best.tier && k == best.overprovision) continue;
                for (const std::size_t j : unit.jobs) soa.set_decision(state, j, ti, k);
                if (soa.evaluate_candidate(state, unit.jobs) &&
                    state.cand_utility > state.utility) {
                    best = PlacementDecision{tier, k};
                    soa.save_best(state);
                    soa.commit(state);
                } else {
                    soa.revert(state);
                }
            }
        }
        changed = changed || best.tier != original.tier ||
                  best.overprovision != original.overprovision;
    }
    // The best snapshot tracks every commit, so it is the committed state.
    *plan = soa.best_plan(state);
    *eval = soa.best_evaluation(state);
    return changed;
}

void IncrementalSolver::solve_cold(const SoaEvaluator& soa, const TieringPlan& seed,
                                   ThreadPool* pool, EvalCache* cache,
                                   AmendResult* result) const {
    const PlanEvaluator& evaluator = soa.evaluator();
    // The annealing solver requires a feasible start; fall back through
    // progressively safer plans (objStore has no aggregate capacity limit).
    std::vector<TieringPlan> candidates;
    candidates.push_back(seed);
    candidates.push_back(pinned_uniform(evaluator.workload(), cloud::StorageTier::kObjectStore));
    candidates.push_back(
        pinned_uniform(evaluator.workload(), cloud::StorageTier::kPersistentSsd));
    for (const TieringPlan& candidate : candidates) {
        const PlanEvaluation eval = evaluator.evaluate(candidate, cache);
        if (!eval.feasible) continue;
        const AnnealingSolver solver(evaluator, options_.annealing);
        const AnnealingResult cold = solver.solve(candidate, pool, cache, &soa);
        result->plan = cold.plan;
        result->evaluation = cold.evaluation;
        result->iterations += cold.iterations;
        result->budget_exhausted = result->budget_exhausted || cold.budget_exhausted;
        result->tempering = cold.tempering;
        return;
    }
    // Nothing feasible to anneal from: report the seed's (infeasible)
    // evaluation honestly rather than inventing a plan.
    result->plan = seed;
    result->evaluation = evaluator.evaluate(seed, cache);
}

AmendResult IncrementalSolver::amend(const workload::Workload& prior,
                                     const TieringPlan& prior_plan,
                                     const workload::JobDelta& delta, ThreadPool* pool,
                                     EvalCache* cache) const {
    CAST_EXPECTS_MSG(prior_plan.size() == prior.size(),
                     "prior plan does not cover the prior workload");
    const workload::DeltaApplication applied = workload::apply_delta(prior, delta);

    AmendResult out;
    out.workload = applied.workload;
    const PlanEvaluator next_eval(*models_, applied.workload, EvalOptions{reuse_aware_});

    // Warm-start seed: survivors keep their placements verbatim, arrivals
    // get a deterministic greedy single-job seed (in arrival order).
    std::vector<PlacementDecision> decisions;
    decisions.reserve(applied.workload.size());
    for (const std::size_t from : applied.survivor_from) {
        decisions.push_back(from == workload::DeltaApplication::kNoPrior
                                ? PlacementDecision{}
                                : prior_plan.decision(from));
    }
    TieringPlan seeded(std::move(decisions));
    for (std::size_t i = 0; i < applied.survivor_from.size(); ++i) {
        if (applied.survivor_from[i] != workload::DeltaApplication::kNoPrior) continue;
        seeded.set_decision(i, seed_arrival(next_eval, seeded, i, cache));
    }

    if (delta.empty()) {
        out.plan = seeded;
        out.evaluation = next_eval.evaluate(seeded, cache);
        if (cache != nullptr) out.cache_stats = cache->stats();
        return out;
    }

    const PlanEvaluator prior_eval(*models_, prior, EvalOptions{reuse_aware_});
    bool capacity_overflow = false;
    out.neighborhood = affected_neighborhood(prior_eval, prior_plan, next_eval, seeded,
                                             applied, &capacity_overflow);

    if (policy_.greedy_only) {
        out.greedy_only = true;
        out.plan = seeded;
        out.evaluation = next_eval.evaluate(seeded, cache);
        if (cache != nullptr) out.cache_stats = cache->stats();
        return out;
    }

    const PlanEvaluation seeded_eval = next_eval.evaluate(seeded, cache);

    // Deterministic shadow of a cold solve: the Algorithm 1 plan over the
    // amended job set. Cheap (one single-job sweep), deterministic, and
    // the quality floor the escalation rule holds amendments to.
    const TieringPlan shadow =
        greedy_projected_plan(next_eval, options_.greedy_init, reuse_aware_, cache);
    const PlanEvaluation shadow_eval = next_eval.evaluate(shadow, cache);
    out.shadow_utility = shadow_eval.utility;

    // One SoA core per amendment, built on first use: the repair passes,
    // the restricted anneal and a cold escalation all score on it.
    std::optional<SoaEvaluator> soa;
    const auto soa_core = [&]() -> const SoaEvaluator& {
        if (!soa) soa.emplace(next_eval);
        return *soa;
    };

    if (capacity_overflow || !seeded_eval.feasible) {
        out.escalated_cold = true;
        solve_cold(soa_core(), shadow, pool, cache, &out);
    } else if (out.neighborhood.empty()) {
        // Nothing to search (e.g. departures within capacity slack): the
        // seeded plan IS the amendment.
        out.plan = seeded;
        out.evaluation = seeded_eval;
    } else {
        AnnealingOptions annealing = options_.annealing;
        annealing.diverse_starts = false;  // the warm start IS the point
        annealing.chains = policy_.chains;
        annealing.iter_max = std::clamp(
            policy_.iters_per_member * static_cast<int>(out.neighborhood.size()),
            policy_.min_iters, policy_.max_iters);
        annealing.active_jobs.assign(applied.workload.size(), 0);
        for (const std::size_t idx : out.neighborhood) annealing.active_jobs[idx] = 1;
        // Repair sweep: deterministic coordinate descent over the
        // neighborhood's move units, in ascending first-member order, turns
        // the verbatim-survivors seed into a locally optimal warm start, so
        // the restricted anneal spends its budget escaping basins rather
        // than walking to the nearest one.
        std::vector<MoveUnit> units = move_units(next_eval, annealing.active_jobs);
        std::ranges::sort(units, {}, [](const MoveUnit& u) { return u.jobs.front(); });
        TieringPlan warm = seeded;
        PlanEvaluation warm_eval = seeded_eval;
        for (int pass = 0; pass < policy_.repair_passes; ++pass) {
            if (!repair_pass(soa_core(), units, &warm, &warm_eval)) break;
        }
        const AnnealingSolver solver(next_eval, annealing);
        const AnnealingResult amended = solver.solve(warm, pool, cache, &soa_core());
        out.plan = amended.plan;
        out.evaluation = amended.evaluation;
        out.iterations += amended.iterations;
        out.budget_exhausted = amended.budget_exhausted;
        out.tempering = amended.tempering;
    }

    // Escalation rule: a restricted solve that cannot match the greedy
    // shadow's utility is evidence the delta moved the optimum outside the
    // neighborhood — re-solve without the restriction.
    if (!out.escalated_cold && policy_.escalate_below > 0.0 &&
        out.evaluation.utility < policy_.escalate_below * out.shadow_utility) {
        out.escalated_cold = true;
        const bool amend_better =
            out.evaluation.feasible && out.evaluation.utility >= shadow_eval.utility;
        solve_cold(soa_core(), amend_better ? out.plan : shadow, pool, cache, &out);
    }

    if (cache != nullptr) out.cache_stats = cache->stats();
    return out;
}

AmendResult IncrementalSolver::place_online(const workload::Workload& prior,
                                            const TieringPlan& prior_plan,
                                            const workload::JobDelta& delta,
                                            EvalCache* cache) const {
    IncrementalSolver online(*models_, options_, policy_, reuse_aware_);
    online.policy_.greedy_only = true;
    return online.amend(prior, prior_plan, delta, nullptr, cache);
}

}  // namespace cast::core
