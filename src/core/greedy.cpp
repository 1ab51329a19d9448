#include "core/greedy.hpp"

#include "lint/analyzer.hpp"

namespace cast::core {

namespace {

/// Algorithm 1 computes Utility(j, f) from Eq. 1 and Eq. 2 for the job in
/// isolation: a one-job workload evaluated under the same model.
PlanEvaluator solo_evaluator(const PlanEvaluator& full, const workload::JobSpec& job) {
    workload::JobSpec solo = job;
    solo.reuse_group = std::nullopt;  // isolation: reuse is invisible to greedy
    return PlanEvaluator(full.models(), workload::Workload({solo}), full.options());
}

double solo_utility(const PlanEvaluator& solo, cloud::StorageTier tier, double k,
                    EvalCache* cache) {
    const TieringPlan plan(std::vector<PlacementDecision>{PlacementDecision{tier, k}});
    const PlanEvaluation eval = solo.evaluate(plan, cache);
    return eval.feasible ? eval.utility : 0.0;
}

}  // namespace

double GreedySolver::single_job_utility(const workload::JobSpec& job, cloud::StorageTier tier,
                                        double k, EvalCache* cache) const {
    return solo_utility(solo_evaluator(*evaluator_, job), tier, k, cache);
}

PlacementDecision GreedySolver::best_single_job_placement(
    const workload::JobSpec& job, std::span<const cloud::StorageTier> tiers,
    std::span<const double> ks, EvalCache* cache) const {
    CAST_EXPECTS(!tiers.empty() && !ks.empty());
    const PlanEvaluator solo = solo_evaluator(*evaluator_, job);
    PlacementDecision best{tiers.front(), ks.front()};
    double best_utility = -1.0;
    for (const cloud::StorageTier tier : tiers) {
        for (const double k : ks) {
            const double u = solo_utility(solo, tier, k, cache);
            if (u > best_utility) {
                best_utility = u;
                best = PlacementDecision{tier, k};
            }
        }
    }
    return best;
}

TieringPlan GreedySolver::solve(const GreedyOptions& options, EvalCache* cache) const {
    CAST_EXPECTS(!options.overprov_choices.empty());
    // Pre-solve lint: same rejection the annealing solver applies, so a bad
    // workload fails identically whichever solver sees it first.
    lint::LintContext lint_ctx;
    lint_ctx.models = &evaluator_->models();
    lint_ctx.reuse_aware = evaluator_->options().reuse_aware;
    lint::enforce(lint::lint_workload(evaluator_->workload(), lint_ctx));

    static constexpr double kExactFit[] = {1.0};
    const std::span<const double> ks =
        options.over_provision ? std::span<const double>(options.overprov_choices) : kExactFit;
    const auto& jobs = evaluator_->workload().jobs();
    std::vector<PlacementDecision> decisions;
    decisions.reserve(jobs.size());
    for (const auto& job : jobs) {
        decisions.push_back(best_single_job_placement(job, cloud::kAllTiers, ks, cache));
    }
    return TieringPlan(std::move(decisions));
}

}  // namespace cast::core
