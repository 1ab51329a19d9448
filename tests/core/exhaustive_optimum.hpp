// Exhaustive batch solver: the exact-optimum oracle for small instances.
//
// Scores every plan of a small workload — each job on each of the four
// tiers at each over-provisioning factor of the annealer's menu — through
// the reference evaluator (PlanEvaluator::evaluate) and keeps the plan of
// highest utility, the first one in enumeration order on a tie. Plans that
// break an operator tier pin, or split a reuse group under a reuse-aware
// evaluator (Eq. 7), are skipped outright: evaluate() rejects them as
// infeasible anyway, before any capacity or runtime is computed. A 3-job
// instance is 36^3 = 46,656 plans; a 4-job one up to 1.7M, so runtimes are
// memoized through an EvalCache (bit-identical to the uncached path).
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "core/eval_cache.hpp"
#include "core/plan.hpp"
#include "core/utility.hpp"

namespace cast::core::reference {

struct ExhaustiveOptimum {
    /// The best feasible plan and its evaluation; nullopt when no plan is
    /// feasible.
    std::optional<TieringPlan> plan;
    PlanEvaluation evaluation;
    /// Plans scored through evaluate(), and how many of them were feasible.
    std::size_t scored = 0;
    std::size_t feasible = 0;
};

/// The exact optimum of `evaluator`'s workload over tiers x `factors`.
[[nodiscard]] inline ExhaustiveOptimum exhaustive_optimum(const PlanEvaluator& evaluator,
                                                          std::span<const double> factors) {
    const workload::Workload& workload = evaluator.workload();
    const std::size_t n = workload.size();
    CAST_EXPECTS(n > 0 && !factors.empty());
    const std::size_t choices = cloud::kTierCount * factors.size();

    // The job whose tier a job must share: its reuse group's first member
    // under a reuse-aware evaluator, itself otherwise.
    std::vector<std::size_t> leader(n);
    for (std::size_t i = 0; i < n; ++i) leader[i] = i;
    if (evaluator.options().reuse_aware) {
        for (const auto& [group, members] : workload.reuse_groups()) {
            for (const std::size_t m : members) leader[m] = members.front();
        }
    }
    const auto tier_of = [&](std::size_t choice) {
        return cloud::kAllTiers[choice / factors.size()];
    };
    const auto legal = [&](const std::vector<std::size_t>& pick) {
        for (std::size_t i = 0; i < n; ++i) {
            const cloud::StorageTier t = tier_of(pick[i]);
            const auto& pin = workload.job(i).pinned_tier;
            if (pin && *pin != t) return false;
            if (tier_of(pick[leader[i]]) != t) return false;
        }
        return true;
    };

    EvalCache cache;
    ExhaustiveOptimum best;
    std::vector<std::size_t> pick(n, 0);
    std::vector<PlacementDecision> decisions(n);
    for (;;) {
        if (legal(pick)) {
            for (std::size_t i = 0; i < n; ++i) {
                decisions[i] = {tier_of(pick[i]), factors[pick[i] % factors.size()]};
            }
            TieringPlan plan{decisions};
            PlanEvaluation eval = evaluator.evaluate(plan, &cache);
            ++best.scored;
            if (eval.feasible) {
                ++best.feasible;
                if (!best.plan || eval.utility > best.evaluation.utility) {
                    best.plan = std::move(plan);
                    best.evaluation = std::move(eval);
                }
            }
        }
        // Odometer step, job 0 fastest.
        std::size_t i = 0;
        while (i < n && ++pick[i] == choices) pick[i++] = 0;
        if (i == n) break;
    }
    return best;
}

}  // namespace cast::core::reference
