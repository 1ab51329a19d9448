// Struct-of-arrays evaluation core: the one candidate evaluator of both
// annealers, Algorithm 2's batch chains (Eq. 2-6) and the workflow
// deadline chains (Eq. 8-10), and of the incremental re-planner's repair
// pass. Each replica owns ONE flat state, mutated in place:
//
//   tier[]      job -> tier index        (uint8, contiguous)
//   overprov[]  job -> k_i               (double, contiguous)
//   runtime[]   job -> REG seconds, then one transfer per DAG edge
//
// plus plan-invariant per-job capacity terms and per-(job, tier) REG
// terms as raw doubles. A candidate move (set_decision ->
// evaluate_candidate -> commit/revert) writes an undo log instead of
// copying the plan, so the steady-state iteration allocates nothing.
//
// One core for both problems, told apart by data alone. A job's Eq. 3/10
// term is (resident ? req_resident : req_full) · k, where resident means
// it has predecessors and all of them share its tier; batch jobs have no
// predecessors, so they keep the batch evaluator's req_ doubles. The
// total is the runtimes plus one transfer per DAG edge (Eq. 9); a batch
// workload has no edges. Staging legs are the RegSplit's.
//
// Equivalence contract: evaluate_candidate is bit-identical in every
// field to the reference evaluation of the candidate plan
// (PlanEvaluator::evaluate, WorkflowEvaluator::evaluate). Both build the
// tier aggregates and the total as exact fixed-point sums
// (core/fixed_sum.hpp), which have the same bits in any order, so ±term
// adjustments never drift from a re-sum; costs go through eq5_eq6_costs,
// runtimes and transfers through the REG split (core/reg_split.hpp) with
// a RegMemo per state. tests/core/soa_capacity_test.cpp holds the core to
// the uncached references along hostile random walks.
//
// O(changed). set_decision re-stages the terms of the job and of its
// successors in a staged copy of the committed sums; commit and revert
// copy one onto the other. A tier whose staged sum is its committed one
// keeps its capacities; any other is range-checked, floored (persSSD, by
// the objStore reservation, whose inputs are kept alike) and provisioned.
// A runtime re-derives only if its job moved or its tier's per-VM
// capacity changed (and it depends on it), a transfer only if an endpoint
// moved or an endpoint tier's per-VM capacity changed, each adjusting the
// staged total by its quantized difference; re-deriving a capacity-shifted
// tier's members is the one pass left that is not O(changed).
//
// Feasibility. Batch chains are feasible by construction (move_units in
// core/annealing.hpp; init checks the seed's pins and reuse groups).
// Workflow moves are pin-blind: the chain rejects what pins_hold refuses,
// and a replica may commit an infeasible plan, after which the next
// candidate evaluates in full. evaluate_candidate itself rejects only
// provider-limit overflows and sums beyond their exact range.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/fixed_sum.hpp"
#include "core/plan.hpp"
#include "core/reg_split.hpp"
#include "core/utility.hpp"

namespace cast::core {

struct WorkflowPlan;
class WorkflowEvaluator;

/// The fixed-point sums and persSSD floor inputs of one plan, as the SoA
/// core keeps them (see the header).
struct SoaSums {
    /// Per tier, its residents' Eq. 3/10 terms; objStore also holds the
    /// ephSSD residents' backing volumes.
    std::array<FixedSum, cloud::kTierCount> tier{};
    /// The Eq. 4/9 total: runtimes and edge transfers.
    FixedSum runtime;
    /// Jobs on objStore, and the largest intermediate volume there (0 when
    /// none): the persSSD floor's inputs.
    std::size_t on_object_store = 0;
    double object_store_inter_max = 0.0;

    friend bool operator==(const SoaSums&, const SoaSums&) = default;
};

/// Per-chain flat solver state operated on by SoaEvaluator: the committed
/// plan + evaluation, candidate scratch, undo logs, the best-so-far
/// snapshot and the chain's REG memo. Plain data; SoaEvaluator keeps it.
struct SoaState {
    // --- committed plan
    std::vector<std::uint8_t> tier;
    std::vector<double> overprov;

    // --- committed evaluation; with `feasible` false (a workflow chain's
    //     infeasible plan) only the sums are valid
    std::vector<double> runtime;
    CapacityBreakdown caps;
    double total_runtime = 0.0;
    double vm_cost = 0.0;
    double storage_cost = 0.0;
    double utility = 0.0;
    bool feasible = true;

    // --- candidate scratch (valid between evaluate_candidate and
    //     commit/revert; runtime[] itself is mutated under the undo log)
    CapacityBreakdown cand_caps;
    double cand_total = 0.0;
    double cand_vm = 0.0;
    double cand_storage = 0.0;
    double cand_utility = 0.0;
    bool cand_feasible = false;

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
    /// the staged total, commit and revert copy one onto the other.
    [[nodiscard]] const SoaSums& sums() const { return sums_; }
    [[nodiscard]] const SoaSums& staged_sums() const { return cand_sums_; }
    [[nodiscard]] const RegMemo& memo() const { return memo_; }

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
/// per solve from the reference evaluator (whose models and per-job terms
/// it reads); const and thread-safe — replicas each own a SoaState and
/// share one SoaEvaluator.
class SoaEvaluator {
public:
    explicit SoaEvaluator(const PlanEvaluator& evaluator);
    explicit SoaEvaluator(const WorkflowEvaluator& evaluator);

    /// The batch evaluator the core was built over (batch cores only).
    [[nodiscard]] const PlanEvaluator& evaluator() const {
        CAST_EXPECTS(aos_ != nullptr);
        return *aos_;
    }

    /// Seed `state` from an already-evaluated feasible plan, reserving every
    /// vector (nothing below allocates). Throws PreconditionError when the
    /// plan breaks a tier pin or, if reuse-aware, splits a reuse group.
    void init(SoaState& state, const TieringPlan& plan, const PlanEvaluation& eval) const;
    /// Seed `state` from a workflow plan, feasible or not, without an
    /// evaluation: the first candidate evaluates in full.
    void init(SoaState& state, const WorkflowPlan& plan) const;

    /// Stage one decision change into the candidate: undo-logged; the
    /// job's membership bit moves, and its terms and its successors' move
    /// in the staged sums.
    void set_decision(SoaState& state, std::size_t job, std::uint8_t tier_idx,
                      double overprov) const;

    /// Whether the staged plan keeps every operator tier pin (batch moves
    /// do by construction; workflow chains check).
    [[nodiscard]] bool pins_hold(const SoaState& state) const;

    /// Evaluate the staged candidate incrementally against the committed
    /// state (in full when that has no valid evaluation); `changed` lists
    /// the jobs touched since the last commit/revert. Checks provider
    /// capacity limits and the sums' exact range only (see the contract
    /// above). Returns feasibility, also kept in cand_feasible; on true the
    /// cand_* scalars and cand_caps hold the candidate's evaluation
    /// (runtime[] already holds its runtimes, under the undo log). On false
    /// the runtimes are untouched — only the decision log needs reverting.
    [[nodiscard]] bool evaluate_candidate(SoaState& state,
                                          std::span<const std::size_t> changed) const;

    /// Accept the candidate: promote cand_* to committed (an infeasible one
    /// leaves the plan without a valid evaluation), clear the logs.
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
    /// The part both constructors share: the REG split over `jobs` under
    /// `legs`, the cost rates and the pins.
    SoaEvaluator(const PlanEvaluator* aos, const model::PerfModelSet& models,
                 std::span<const workload::JobSpec> jobs, const RegSplit::LegsFn& legs);
    /// Both inits after the committed evaluation is set: the plan, its
    /// sums and memberships, empty logs and the best snapshot.
    void seed(SoaState& state, std::span<const PlacementDecision> plan) const;
    /// Job `job`'s Eq. 3/10 term in units under the staged plan.
    [[nodiscard]] std::int64_t term_units(const SoaState& state, std::size_t job) const;
    /// Restores the runtimes the runtime undo log holds, newest first.
    static void restore_runtimes(SoaState& state);

    const PlanEvaluator* aos_;
    const model::PerfModelSet* models_;
    std::size_t n_ = 0;
    int nvm_ = 0;
    /// Plan-invariant per-job terms: the Eq. 3/10 requirement with and
    /// without a resident input and the intermediate volume as raw doubles
    /// (GB), the ephSSD backing volume already in fixed-point units.
    std::vector<double> req_;
    std::vector<double> req_resident_;
    std::vector<std::int64_t> backing_units_;
    std::vector<double> inter_;
    /// The DAG (no edges for batch): each job's distinct predecessors and
    /// successors in CSR form, job i's being to[at[i], at[i + 1]), and per
    /// edge, repeats included, its endpoints and the volume it moves.
    struct Adjacency {
        std::vector<std::uint32_t> at, to;
        std::span<const std::uint32_t> operator[](std::size_t i) const {
            return {to.data() + at[i], at[i + 1] - at[i]};
        }
    };
    Adjacency preds_, succs_;
    struct Edge { std::size_t from, to; double volume; };
    std::vector<Edge> edges_;
    /// Operator tier pins: (job, tier index).
    std::vector<std::pair<std::size_t, std::uint8_t>> pins_;
    /// Eq. 5-6 rates, looked up once.
    CostRates rates_;
    /// REG split over the jobs, under the problem's staging conventions.
    RegSplit reg_;
};

}  // namespace cast::core
