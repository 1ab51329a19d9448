// Greedy static tiering (paper Algorithm 1).
//
// For each job independently, pick the tier with the highest single-job
// utility. Two variants from §5.1.2: "exact-fit" provisions exactly the
// Eq. 3 requirement; "over-provisioned" additionally sweeps the
// over-provisioning factor per job. Greedy is deliberately myopic — it
// evaluates each job as if it were the whole workload, so it cannot see
// that piling jobs onto one tier changes that tier's capacity-scaled
// performance and everyone's share of the storage bill. CAST's annealing
// solver exists because of exactly this flaw (§4.2.2), and Fig. 7 measures
// the gap.
#pragma once

#include <span>
#include <vector>

#include "core/plan.hpp"
#include "core/utility.hpp"

namespace cast::core {

struct GreedyOptions {
    /// false: exact-fit (kᵢ = 1). true: sweep kᵢ over overprov_choices.
    bool over_provision = false;
    std::vector<double> overprov_choices = {1.0, 1.5, 2.0, 3.0, 4.0};
};

class GreedySolver {
public:
    explicit GreedySolver(const PlanEvaluator& evaluator) : evaluator_(&evaluator) {}

    /// When `cache` is supplied, every single-job evaluation memoizes its
    /// REG runtime through it. The cache keys on job content rather than
    /// workload index, so the same table can be (and in the CAST facades
    /// is) shared with the annealing stage that refines this plan.
    [[nodiscard]] TieringPlan solve(const GreedyOptions& options = {},
                                    EvalCache* cache = nullptr) const;

    /// Single-job utility of placing `job` on `tier` with factor k — the
    /// Utility(j, f) of Algorithm 1. Returns 0 when the placement is
    /// infeasible on its own.
    [[nodiscard]] double single_job_utility(const workload::JobSpec& job,
                                            cloud::StorageTier tier, double k,
                                            EvalCache* cache = nullptr) const;

    /// Algorithm 1's per-job sweep: the (tier, k) over `tiers` x `ks`
    /// (tiers outer, first maximum wins) with the highest single-job
    /// utility. Builds the one-job evaluator once for the whole sweep.
    [[nodiscard]] PlacementDecision best_single_job_placement(
        const workload::JobSpec& job, std::span<const cloud::StorageTier> tiers,
        std::span<const double> ks, EvalCache* cache = nullptr) const;

private:
    const PlanEvaluator* evaluator_;
};

}  // namespace cast::core
