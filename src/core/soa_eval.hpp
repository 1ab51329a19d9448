// Struct-of-arrays evaluation core for the annealing hot loop.
//
// A move touches one job (or one reuse group, or one app class), yet a
// TieringPlan copy plus a fresh PlanEvaluation per move would copy ~16·n
// bytes of decisions and the whole runtime vector every iteration. At
// ~1 µs per iteration those copies would dominate the solver's cache
// behaviour.
//
// SoaEvaluator keeps ONE flat state per replica and mutates it in place:
//
//   tier[]      job -> tier index        (uint8, contiguous)
//   overprov[]  job -> k_i               (double, contiguous)
//   runtime[]   job -> REG seconds       (double, contiguous)
//
// plus plan-invariant per-job capacity terms (req, ephSSD backing,
// intermediate size) and per-(job, tier) REG terms, unwrapped from their
// unit types into raw double arrays. A candidate move writes an undo log
// instead of copying the plan, and reverting a rejected move replays the
// log — the steady-state iteration does zero heap allocation. The
// annealer and the incremental re-planner's repair pass both score
// candidates through set_decision -> evaluate_candidate -> commit/revert.
//
// Equivalence contract: evaluate_candidate is bit-identical in every
// field to PlanEvaluator::evaluate of the candidate plan. Costs go through
// the shared eq5_eq6_costs on rates hoisted once per evaluator. Runtimes
// come from the shared REG split (core/reg_split.hpp), with no shared memo
// table: its per-(job, tier) terms are built at construction through the
// same model calls PerfModelSet::job_runtime makes, and each SoaState owns
// the RegMemo of per-(tier, per-VM capacity) factors. A job whose decision
// did not move keeps its committed runtime when its tier's per-VM capacity
// is bitwise unchanged (or no runtime on that tier depends on capacity);
// the jobs re-derived are the members of the capacity-shifted tiers plus
// the changed jobs, and the total re-sums in index order only when some
// runtime changed. The tests hold this core to the uncached evaluate()
// along full annealing trajectories, along hostile random walks
// (tests/core/soa_capacity_test.cpp) and to PerfModelSet::job_runtime
// across the spline knots.
//
// Capacities in O(changed). Each SoaState keeps one bitset per tier of
// that tier's members. A tier no staged move touched copies its committed
// aggregate and per-VM capacity. The others are recomputed exactly as
// evaluate() computes them:
//
//   * Block tiers (ephSSD, persSSD, persHDD) re-sum their members'
//     RN(reqᵢ·kᵢ) in index order (the set bits of the member bitset),
//     floor persSSD by the objStore reservation, and provision through
//     provision_capacities' own per-tier step (provision_tier). Only
//     touched tiers pay the walk, over their members rather than all n
//     jobs.
//   * objStore is re-summed in index order over the ephSSD ∪ objStore
//     members, and only when a staged move changed one of its terms (an
//     ephSSD/objStore residency, or an objStore resident's factor). The
//     same pass yields the persSSD floor's inputs (any job on objStore,
//     the largest intermediate volume there); a shifted floor re-provisions
//     persSSD.
//
// The same additions in the same order give the same bits, so no
// exactness argument beyond evaluate()'s own is needed. The runtime total
// stays an index-order sum over all jobs.
//
// Feasible by construction: placement legality (operator tier pins, Eq. 7
// reuse-group co-location) is decided once, where moves are generated,
// and never re-checked per candidate. init is the one place a plan enters
// the flat state; it checks its seed once with the shared lint checks.
// Both writers (the annealer and the repair pass) then stage only moves
// drawn from move_units (core/annealing.hpp), which keep pins and, when
// the evaluator is reuse-aware, move reuse groups whole. So
// evaluate_candidate rejects only candidates that overflow a provider
// capacity limit. TieringPlan stays the boundary type for
// Deployer/serve/lint; best_plan builds it from the best snapshot.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "core/plan.hpp"
#include "core/reg_split.hpp"
#include "core/utility.hpp"

namespace cast::core {

/// Per-chain flat solver state operated on by SoaEvaluator. Owns the
/// committed plan + evaluation, the candidate scratch, the undo logs, the
/// best-so-far snapshot and the chain's REG memo. Plain data;
/// all invariants live in the evaluator.
struct SoaState {
    // --- committed plan
    std::vector<std::uint8_t> tier;
    std::vector<double> overprov;

    // --- committed evaluation
    std::vector<double> runtime;
    CapacityBreakdown caps;
    double total_runtime = 0.0;
    double vm_cost = 0.0;
    double storage_cost = 0.0;
    double utility = 0.0;

    // --- candidate scratch (valid between evaluate_candidate and
    //     commit/revert; runtime[] itself is mutated under the undo log)
    CapacityBreakdown cand_caps;
    double cand_total = 0.0;
    double cand_vm = 0.0;
    double cand_storage = 0.0;
    double cand_utility = 0.0;

    // --- tier membership: bit i of members[t] is set when job i is on
    //     tier t. Mirrors tier[] including staged moves; revert restores.
    std::array<std::vector<std::uint64_t>, cloud::kTierCount> members;

    // --- undo logs (capacity reserved once; never reallocate mid-chain)
    struct DecisionUndo {
        std::uint32_t job;
        std::uint8_t tier;
        double overprov;
    };
    struct RuntimeUndo {
        std::uint32_t job;
        double runtime;
    };
    std::vector<DecisionUndo> decision_undo;
    std::vector<RuntimeUndo> runtime_undo;

    // --- best-so-far snapshot (copied only on improvement)
    std::vector<std::uint8_t> best_tier;
    std::vector<double> best_overprov;
    std::vector<double> best_runtime;
    CapacityBreakdown best_caps;
    double best_total = 0.0;
    double best_vm = 0.0;
    double best_storage = 0.0;
    double best_utility = 0.0;

private:
    friend class SoaEvaluator;

    /// Whether any job is on objStore, and the largest intermediate
    /// volume there (together they set the persSSD floor): committed, and
    /// the candidate's.
    bool obj_any_ = false;
    bool cand_obj_any_ = false;
    double obj_inter_max_ = 0.0;
    double cand_obj_inter_max_ = 0.0;
    /// REG's (tier, per-VM capacity)-keyed factors for this chain.
    RegMemo memo_;
};

/// Allocation-free incremental evaluation over SoaState. Constructed once
/// per solve from the PlanEvaluator (whose models/workload/options it
/// reads); const and thread-safe — replicas each own a SoaState and share
/// one SoaEvaluator.
class SoaEvaluator {
public:
    explicit SoaEvaluator(const PlanEvaluator& evaluator);

    [[nodiscard]] std::size_t size() const { return n_; }
    [[nodiscard]] const PlanEvaluator& evaluator() const { return *aos_; }

    /// Seed `state` from an already-evaluated feasible plan. Reserves all
    /// vectors; nothing below allocates afterwards. Throws
    /// PreconditionError when the plan breaks a tier pin or, if reuse-aware,
    /// splits a reuse group.
    void init(SoaState& state, const TieringPlan& plan, const PlanEvaluation& eval) const;

    /// Stage one decision change into the candidate: undo-logged, and the
    /// job's membership bit moves with it.
    void set_decision(SoaState& state, std::size_t job, std::uint8_t tier_idx,
                      double overprov) const;

    /// Evaluate the staged candidate incrementally against the committed
    /// state; `changed` lists the jobs touched since the last
    /// commit/revert (the capacity pass reads the tiers they touched from
    /// the decision log). Checks provider capacity limits only (see the
    /// contract above). Returns feasibility; on true the cand_* scalars and
    /// cand_caps hold the candidate's evaluation (runtime[] already holds
    /// its runtimes, under the undo log). On false the runtimes are
    /// untouched — only the decision log needs reverting.
    [[nodiscard]] bool evaluate_candidate(SoaState& state,
                                          std::span<const std::size_t> changed) const;

    /// Accept the candidate: promote cand_* to committed, clear the logs.
    void commit(SoaState& state) const;

    /// Reject the candidate: replay both undo logs.
    void revert(SoaState& state) const;

    /// Snapshot the CANDIDATE as best. Call only right after a feasible
    /// evaluate_candidate (before commit/revert) — the annealing loop
    /// tracks the best neighbor even when the move is then rejected.
    void save_best(SoaState& state) const;

    /// Swap the COMMITTED states of two replicas (replica exchange),
    /// membership bitsets and objStore floor inputs included. O(1) vector
    /// swaps; bests, logs and scratch stay put. Both logs must be empty
    /// (exchange happens at round barriers).
    static void swap_current(SoaState& a, SoaState& b);

    /// Export the best snapshot back to the AoS boundary types.
    [[nodiscard]] TieringPlan best_plan(const SoaState& state) const;
    [[nodiscard]] PlanEvaluation best_evaluation(const SoaState& state) const;

private:
    /// Set cand_caps' entry for block tier `ti` from its members' index-order
    /// sum; `floor` is the persSSD floor (0 elsewhere). False when the tier
    /// overflows a provider limit.
    bool provision_block_tier(SoaState& state, std::size_t ti, double floor) const;
    /// Re-sum objStore's aggregate in index order; sets the candidate's
    /// persSSD floor inputs.
    void sum_object_store(SoaState& state) const;

    const PlanEvaluator* aos_;
    std::size_t n_ = 0;
    int nvm_ = 0;
    /// Plan-invariant per-job capacity terms as raw doubles (GB).
    std::vector<double> req_;
    std::vector<double> eph_backing_;
    std::vector<double> inter_;
    /// Eq. 5-6 rates, looked up once.
    CostRates rates_;
    /// REG split over the workload's jobs (the batch staging conventions).
    RegSplit reg_;
};

}  // namespace cast::core
