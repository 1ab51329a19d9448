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
// field to PlanEvaluator::evaluate of the candidate plan. Both build the
// Eq. 3 aggregates, the objStore aggregate and the Eq. 4 total as exact
// fixed-point sums (core/fixed_sum.hpp): each term is quantized once to
// units of 2^-20 GB or 2^-20 s and the units add exactly, so a sum has
// the same bits in any order and ±term adjustments never drift from a
// re-sum. Costs go through the shared eq5_eq6_costs on rates hoisted once
// per evaluator. Runtimes come from the shared REG split
// (core/reg_split.hpp), with no shared memo table: its per-(job, tier)
// terms are built at construction through the same model calls
// PerfModelSet::job_runtime makes, and each SoaState owns the RegMemo of
// per-(tier, per-VM capacity) factors. The tests hold this core to the
// uncached evaluate() along full annealing trajectories, along hostile
// random walks (tests/core/soa_capacity_test.cpp) and to
// PerfModelSet::job_runtime across the spline knots.
//
// Sums in O(changed). Each SoaState keeps its committed sums — per tier,
// the Eq. 3 terms RN(reqᵢ·kᵢ) of its residents (objStore also takes each
// ephSSD resident's backing volume) and the Eq. 4 runtime total — and a
// staged copy. set_decision moves the job's terms from its old tier's
// staged sum to its new one at once, so stacked decisions on one job net
// out exactly; commit copies the staged sums over the committed ones and
// revert copies them back. A tier whose staged sum equals its committed
// one keeps its committed aggregate and per-VM capacity; any other is
// range-checked, floored (persSSD, by the objStore reservation) and
// provisioned through provision_capacities' own per-tier step
// (provision_tier). The persSSD floor's inputs are kept the same way: the
// count of objStore residents and their largest intermediate volume, which
// a join raises at once; only when the job holding that maximum leaves
// does evaluate_candidate rescan objStore's members. A shifted floor
// re-provisions persSSD.
//
// Runtimes in O(changed) too, up to one limit. A job whose decision did
// not move keeps its committed runtime when its tier's per-VM capacity is
// bitwise unchanged (or no runtime on that tier depends on capacity); the
// members of capacity-shifted tiers and the changed jobs re-derive
// through the REG kernel, and each re-derived runtime adjusts the staged
// total by its quantized difference. Re-deriving the members of a
// capacity-shifted tier is the one pass left that is not O(changed).
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

#include "core/fixed_sum.hpp"
#include "core/plan.hpp"
#include "core/reg_split.hpp"
#include "core/utility.hpp"

namespace cast::core {

/// The fixed-point sums and persSSD floor inputs of one plan, as the SoA
/// core keeps them (see the header).
struct SoaSums {
    /// Per tier, its residents' Eq. 3 terms; objStore also holds the
    /// ephSSD residents' backing volumes.
    std::array<FixedSum, cloud::kTierCount> tier{};
    /// The Eq. 4 runtime total.
    FixedSum runtime;
    /// Jobs on objStore, and the largest intermediate volume there (0 when
    /// none): the persSSD floor's inputs.
    std::size_t on_object_store = 0;
    double object_store_inter_max = 0.0;

    friend bool operator==(const SoaSums&, const SoaSums&) = default;
};

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

    /// The committed sums, and the candidate's: set_decision adjusts the
    /// staged tier sums and floor inputs at once, evaluate_candidate sets
    /// the staged runtime total, commit and revert copy one onto the other.
    [[nodiscard]] const SoaSums& sums() const { return sums_; }
    [[nodiscard]] const SoaSums& staged_sums() const { return cand_sums_; }

private:
    friend class SoaEvaluator;

    SoaSums sums_;
    SoaSums cand_sums_;
    /// Set when a staged move took the job holding the objStore maximum
    /// off objStore: evaluate_candidate rescans objStore's members.
    bool cand_rescan_ = false;
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

    /// Stage one decision change into the candidate: undo-logged; the
    /// job's membership bit and its terms in the staged sums move with it.
    void set_decision(SoaState& state, std::size_t job, std::uint8_t tier_idx,
                      double overprov) const;

    /// Evaluate the staged candidate incrementally against the committed
    /// state; `changed` lists the jobs touched since the last
    /// commit/revert. Checks provider capacity limits and the sums' exact
    /// range only (see the contract above). Returns feasibility; on true
    /// the cand_* scalars and cand_caps hold the candidate's evaluation
    /// (runtime[] already holds its runtimes, under the undo log). On
    /// false the runtimes are untouched — only the decision log needs
    /// reverting.
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
    /// membership bitsets, sums and objStore floor inputs included. O(1) vector
    /// swaps; bests, logs and scratch stay put. Both logs must be empty
    /// (exchange happens at round barriers).
    static void swap_current(SoaState& a, SoaState& b);

    /// Export the best snapshot back to the AoS boundary types.
    [[nodiscard]] TieringPlan best_plan(const SoaState& state) const;
    [[nodiscard]] PlanEvaluation best_evaluation(const SoaState& state) const;

private:
    /// Restores the runtimes the runtime undo log holds, newest first.
    static void restore_runtimes(SoaState& state);

    const PlanEvaluator* aos_;
    std::size_t n_ = 0;
    int nvm_ = 0;
    /// Plan-invariant per-job capacity terms: the Eq. 3 requirement and
    /// the intermediate volume as raw doubles (GB), the ephSSD backing
    /// volume already in fixed-point units.
    std::vector<double> req_;
    std::vector<std::int64_t> backing_units_;
    std::vector<double> inter_;
    /// Eq. 5-6 rates, looked up once.
    CostRates rates_;
    /// REG split over the workload's jobs (the batch staging conventions).
    RegSplit reg_;
};

}  // namespace cast::core
