// Incremental re-planning: warm-start amend solves for streaming job sets.
//
// A planning service facing streaming arrivals re-solves the whole job set
// from scratch on every change, even though a small delta (a few arrivals,
// departures, or runtime re-estimates) leaves most placements' utility
// trade-offs untouched. The IncrementalSolver amends an existing
// TieringPlan instead: it seeds the search from the prior plan (survivors
// keep their decisions verbatim, arrivals get a greedy single-job seed,
// then deterministic coordinate-descent repair passes make the seed
// locally optimal), restricts the tempered-annealing move generator to the
// *affected neighborhood* of the delta — the changed jobs, their
// reuse-group peers, and every job on a tier whose provisioned capacity
// the delta shifted materially (capacity couples placements through
// Eq. 4's capacity-scaled runtimes and Eq. 6's shared bill) — and reuses a
// caller-owned EvalCache across amendments (the cache keys on job content,
// so survivors' REG runtimes stay warm across deltas).
//
// Amendments are deterministic: a pure function of (prior plan, delta,
// options), bit-identical at any worker count, because the restricted
// annealing inherits the replica-exchange tempering determinism and every
// seeding/neighborhood rule is branch-stable arithmetic. Quality is
// guarded by an escalation rule: every amend also computes the
// deterministic greedy shadow of a cold solve, and an amendment whose
// utility falls below `escalate_below` of that shadow escalates to a full
// unrestricted re-solve (reported via AmendResult::escalated_cold).
//
// The greedy-only path doubles as the irrevocable online baseline from the
// secretary-problem literature on online assignment (arXiv:1901.07335):
// each arrival is placed once, greedily, and never revisited —
// place_online() exposes it so benches can measure the regret that
// revising placements (amend) recovers.
#pragma once

#include <cstdint>
#include <vector>

#include "core/castpp.hpp"
#include "workload/stream.hpp"

namespace cast::core {

/// Effort and safety knobs for one amend solve.
struct AmendPolicy {
    /// Annealing iterations budgeted per neighborhood member; the actual
    /// iter_max is clamp(iters_per_member * |neighborhood|,
    /// min_iters, max_iters). Small deltas get proportionally cheap solves
    /// — that proportionality is where the plans/sec win over a cold
    /// re-solve comes from.
    int iters_per_member = 300;
    int min_iters = 1500;
    int max_iters = 12000;
    /// Replicas for the restricted solve (the restricted landscape is
    /// small, so a short ladder suffices; a cold solve keeps the full
    /// CastOptions chain count).
    int chains = 3;
    /// Escalate to a full re-solve when the amended utility falls below
    /// this fraction of the deterministic greedy shadow's utility.
    /// <= 0 disables escalation; values > 1 force it (useful in tests).
    double escalate_below = 0.99;
    /// A tier joins the affected neighborhood when its aggregate
    /// provisioned capacity moved by more than this fraction between the
    /// prior plan and the seeded amended plan.
    double capacity_slack = 0.05;
    /// Coordinate-descent repair passes over the neighborhood before the
    /// restricted anneal: each pass walks the members in ascending order
    /// and lets each adopt its best (tier, k) given every other decision
    /// fixed. Starting the anneal from a locally optimal warm plan lets a
    /// small iteration budget match a cold solve's quality; 0 disables.
    int repair_passes = 2;
    /// Skip annealing entirely: survivors keep their placements, arrivals
    /// keep their greedy seeds. This is the governor's cheapest amend rung
    /// and the irrevocable online baseline.
    bool greedy_only = false;

    void validate() const {
        CAST_EXPECTS(iters_per_member >= 1);
        CAST_EXPECTS(min_iters >= 1 && max_iters >= min_iters);
        CAST_EXPECTS(chains >= 1);
        CAST_EXPECTS(capacity_slack >= 0.0);
        CAST_EXPECTS(repair_passes >= 0);
    }
};

struct AmendResult {
    /// The post-delta job set (survivors + arrivals) the plan below covers.
    workload::Workload workload;
    TieringPlan plan;
    PlanEvaluation evaluation;
    /// New-workload indices the move generator was allowed to touch
    /// (sorted; empty when the delta needed no search, e.g. pure
    /// departures with no material capacity shift).
    std::vector<std::size_t> neighborhood;
    /// True when the escalation rule replaced the restricted solve with a
    /// full unrestricted re-solve.
    bool escalated_cold = false;
    /// True when the greedy-only path ran (no annealing at all).
    bool greedy_only = false;
    /// Utility of the deterministic greedy shadow the escalation rule
    /// compared against (0 when the shadow was skipped: greedy-only path
    /// or an empty delta).
    double shadow_utility = 0.0;
    /// Annealing iterations actually spent (restricted + escalation).
    int iterations = 0;
    /// True when a wall budget or cancellation cut any constituent solve
    /// short (best-so-far result, same contract as AnnealingResult).
    bool budget_exhausted = false;
    EvalCacheStats cache_stats{};
    TemperingStats tempering{};
};

/// Amends tiering plans across job-set deltas. Stateless between calls —
/// the caller carries (workload, plan) forward and owns the shared
/// EvalCache — so one solver instance can serve many independent plan
/// streams concurrently.
class IncrementalSolver {
public:
    explicit IncrementalSolver(const model::PerfModelSet& models, CastOptions options = {},
                               AmendPolicy policy = {}, bool reuse_aware = false);

    /// Amend `prior_plan` (a plan over `prior`) across `delta`. Pure
    /// function of its arguments: bit-identical at any `pool` worker
    /// count, including pool == nullptr. Throws ValidationError when the
    /// delta does not apply to `prior` (unknown ids, duplicate arrivals).
    [[nodiscard]] AmendResult amend(const workload::Workload& prior,
                                    const TieringPlan& prior_plan,
                                    const workload::JobDelta& delta,
                                    ThreadPool* pool = nullptr,
                                    EvalCache* cache = nullptr) const;

    /// The irrevocable online baseline: survivors never move, each arrival
    /// is placed greedily once (secretary-style, arXiv:1901.07335), no
    /// escalation. Equivalent to amend() under a greedy_only policy.
    [[nodiscard]] AmendResult place_online(const workload::Workload& prior,
                                           const TieringPlan& prior_plan,
                                           const workload::JobDelta& delta,
                                           EvalCache* cache = nullptr) const;

    [[nodiscard]] const AmendPolicy& policy() const { return policy_; }
    [[nodiscard]] const CastOptions& options() const { return options_; }
    [[nodiscard]] bool reuse_aware() const { return reuse_aware_; }

private:
    /// Greedy single-job seed for an arrival (pin-aware; joins an existing
    /// reuse group's tier when reuse-aware).
    [[nodiscard]] PlacementDecision seed_arrival(const PlanEvaluator& evaluator,
                                                 const TieringPlan& partial,
                                                 std::size_t new_idx, EvalCache* cache) const;

    /// The affected neighborhood: `applied.changed`, closed under reuse
    /// groups, plus every job whose seeded tier's aggregate capacity
    /// shifted by more than policy_.capacity_slack between prior_plan and
    /// the seeded plan. Sorted unique. Sets `capacity_overflow` instead of
    /// throwing when the seeded plan violates provider capacity limits
    /// (the caller escalates to a cold solve).
    [[nodiscard]] std::vector<std::size_t> affected_neighborhood(
        const PlanEvaluator& prior_eval, const TieringPlan& prior_plan,
        const PlanEvaluator& next_eval, const TieringPlan& seeded,
        const workload::DeltaApplication& applied, bool* capacity_overflow) const;

    /// One deterministic coordinate-descent repair pass over `units` (the
    /// neighborhood's move units, core/annealing.hpp, in order): each unit
    /// — a job, or its whole reuse group when reuse-aware — adopts the
    /// feasible (tier in its allowed_tiers, k) with the best full-plan
    /// utility given every other decision fixed. `plan`/`eval` are updated
    /// in place (`eval` must be the feasible evaluation of `plan` on
    /// entry). `soa` is the amended workload's SoA evaluator, built once
    /// per amendment and shared by its passes and its anneals. Returns
    /// true when any decision changed.
    bool repair_pass(const SoaEvaluator& soa, const std::vector<MoveUnit>& units,
                     TieringPlan* plan, PlanEvaluation* eval) const;

    /// Full unrestricted re-solve over `soa`'s evaluator (annealing on
    /// `soa`), seeded from the best available plan; fills the result's
    /// plan/evaluation/counters.
    void solve_cold(const SoaEvaluator& soa, const TieringPlan& seed, ThreadPool* pool,
                    EvalCache* cache, AmendResult* result) const;

    const model::PerfModelSet* models_;
    CastOptions options_;
    AmendPolicy policy_;
    bool reuse_aware_;
};

}  // namespace cast::core
