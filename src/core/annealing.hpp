// Simulated-annealing tiering solver (paper Algorithm 2).
//
// Searches the ⟨sᵢ, kᵢ⟩ space for a plan maximizing tenant utility. Each
// iteration perturbs the current plan (a random job — or, in reuse-aware
// mode, a whole reuse group, preserving Eq. 7 by construction — moves to
// a different tier, or changes its over-provisioning factor), evaluates
// Eq. 2-6, and accepts by the Metropolis rule with a geometrically cooled
// temperature (the paper's Cooling(.)/Accept(.)).
//
// The chains run as deterministic replica-exchange tempering
// (core/tempering.hpp): they become replicas on a temperature ladder,
// advance in lock-step rounds, and swap states at round barriers, so hot
// replicas keep exploring while cold ones refine, and the trajectory is a
// pure function of (seed, chains) at ANY worker count. A single chain is
// a one-rung ladder. The iteration loop, anneal_span, and the flat
// struct-of-arrays core it evaluates on (core/soa_eval.hpp) are the ones
// the workflow deadline solver (core/castpp.hpp) runs too; the core is
// allocation-free and bit-identical to the uncached PlanEvaluator::evaluate,
// which stays the reference the tests hold it to.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/cancel.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/eval_cache.hpp"
#include "core/plan.hpp"
#include "core/tempering.hpp"
#include "core/utility.hpp"

namespace cast::core {

class SoaEvaluator;

struct AnnealingOptions {
    int iter_max = 20000;
    /// Initial temperature as a fraction of the initial solution's utility.
    double initial_temperature = 0.5;
    /// Geometric cooling factor applied once per iteration.
    double cooling = 0.9995;
    /// Temperature floor (search becomes effectively greedy below it).
    double min_temperature = 1e-4;
    /// kᵢ move choices. Large factors matter: block-tier bandwidth scales
    /// with provisioned capacity, and for small datasets the utility-optimal
    /// volume can be many times the data size (§3.1.2).
    std::vector<double> overprov_choices = {1.0, 1.25, 1.5, 2.0, 3.0,
                                            4.0, 6.0,  8.0, 12.0};
    /// Probability a move changes the tier (vs. the over-provision factor).
    double tier_move_probability = 0.7;
    /// Probability of a *batch* move: relocate every job of one randomly
    /// chosen application class to one tier. Block-tier performance scales
    /// with pooled capacity (Fig. 2), so single-job moves onto an empty
    /// tier always look terrible even when the tier is optimal for the
    /// whole class — batch moves let the search cross that valley.
    double app_move_probability = 0.1;
    /// Start chains from a diverse set (the given initial plan plus every
    /// feasible uniform plan) instead of one point. The paper notes P̂init
    /// "specifies preferred regions in the search space"; multi-start makes
    /// that systematic.
    bool diverse_starts = true;
    /// Tempering replicas (run in parallel when a pool is supplied). With
    /// diverse_starts, replicas rotate over the available start plans, so
    /// >= 5 covers the initial plan plus the four uniform plans.
    int chains = 6;
    std::uint64_t seed = 1;
    /// Restrict the move generator to a job subset: when non-empty (size
    /// must equal the workload size, at least one entry non-zero), only
    /// move units containing a flagged job are generated — every other
    /// decision stays frozen at its start-plan value. Evaluation remains
    /// global, so frozen jobs still feel capacity shifts from their
    /// neighbors. The incremental re-planner (core/incremental.hpp) flags
    /// the affected neighborhood of a job-set delta here; empty (the
    /// default) means every job is movable. The mask is part of the
    /// solve's pure-function inputs, so restricted solves stay
    /// bit-identical at any worker count.
    std::vector<std::uint8_t> active_jobs;
    /// Geometric rung spacing: replica r starts its cooling at
    /// initial_temperature · ratio^r, so the ladder spans exploration
    /// (hot) to refinement (cold) with roughly constant exchange rates.
    double tempering_ladder_ratio = 1.6;
    /// Iterations between exchange barriers. Coarse enough that barrier
    /// synchronization vanishes against ~µs evaluations, fine enough that
    /// good states traverse the whole ladder many times per solve.
    int exchange_stride = 256;
    /// Wall-clock budget for the WHOLE solve — all chains together — in
    /// milliseconds; 0 disables the budget. A chain that reaches the
    /// deadline stops at its next segment boundary and returns its
    /// best-so-far plan (feasible by construction: the search never keeps
    /// an infeasible incumbent), with the result flagged budget_exhausted.
    /// Exhaustion is a degraded answer, never an error.
    double max_wall_ms = 0.0;
    /// Cooperative cancellation, polled together with the budget at chain
    /// segment boundaries (every kBudgetCheckStride iterations). The token
    /// must outlive the solve; cancellation reports as budget_exhausted.
    const CancelToken* cancel = nullptr;

    /// Iterations between budget/cancel polls: coarse enough that the
    /// steady_clock read vanishes against ~µs evaluations, fine enough
    /// that deadline overshoot stays well under a millisecond.
    static constexpr int kBudgetCheckStride = 32;

    /// Range-checks every setting for a solve over `job_count` jobs; every
    /// annealer calls it on construction. Throws PreconditionError.
    void validate(std::size_t job_count) const {
        CAST_EXPECTS(iter_max >= 1);
        CAST_EXPECTS(initial_temperature > 0.0);
        CAST_EXPECTS(cooling > 0.0 && cooling < 1.0);
        CAST_EXPECTS(min_temperature > 0.0);
        CAST_EXPECTS(!overprov_choices.empty());
        for (const double k : overprov_choices) {
            CAST_EXPECTS_MSG(std::isfinite(k) && k >= 1.0,
                             "over-provisioning factors must be finite and >= 1 (Eq. 3)");
        }
        CAST_EXPECTS(tier_move_probability >= 0.0 && tier_move_probability <= 1.0);
        CAST_EXPECTS(app_move_probability >= 0.0 && app_move_probability <= 1.0);
        CAST_EXPECTS(chains >= 1);
        CAST_EXPECTS(max_wall_ms >= 0.0);
        CAST_EXPECTS(tempering_ladder_ratio >= 1.0);
        CAST_EXPECTS(exchange_stride >= 1);
        CAST_EXPECTS_MSG(active_jobs.empty() ||
                             (active_jobs.size() == job_count &&
                              std::ranges::any_of(active_jobs, [](auto a) { return a != 0; })),
                         "an active_jobs mask must cover every job and flag at least one");
    }
};

/// Shared solve deadline derived from options at solve() entry, so every
/// chain — run in parallel or sequentially — answers to one wall clock.
struct SolveDeadline {
    std::optional<std::chrono::steady_clock::time_point> at;
    const CancelToken* cancel = nullptr;

    [[nodiscard]] static SolveDeadline from(const AnnealingOptions& options) {
        SolveDeadline d;
        if (options.max_wall_ms > 0.0) {
            d.at = std::chrono::steady_clock::now() +
                   std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                       std::chrono::duration<double, std::milli>(options.max_wall_ms));
        }
        d.cancel = options.cancel;
        return d;
    }

    /// False at once when neither a wall budget nor a token is armed.
    [[nodiscard]] bool expired() const {
        if (cancel != nullptr && cancel->stop_requested()) return true;
        return at.has_value() && std::chrono::steady_clock::now() >= *at;
    }
};

/// Cooling state and move counters of one annealing replica. Each
/// solver's replica derives from it and supplies the problem anneal_span
/// runs, called directly, with higher-is-better scores:
///
///   bool propose(Rng&)       stage a neighbor; false when it IS the
///                            current state (accepted without a draw);
///   bool evaluate()          score it; false rejects it without a draw;
///   double candidate_score(), current_score(), best_score();
///   void save_best()         keep the staged neighbor as the best;
///   void commit(), revert()  keep or drop the staged neighbor.
struct AnnealChain {
    /// Temperature on the normalized score scale, so the same options work
    /// across problems of any absolute score.
    double temperature = 0.0;
    int accepted_moves = 0;
    /// Candidates rejected without a Metropolis draw.
    int infeasible_neighbors = 0;
};

/// The one anneal iteration loop (Algorithm 2's Cooling/Accept body):
/// iterations [iter_begin, iter_end) of one replica, returning how many
/// ran (fewer only when the deadline stopped it).
template <class Chain>
int anneal_span(Chain& chain, Rng& rng, int iter_begin, int iter_end,
                const AnnealingOptions& options, double scale, const SolveDeadline& deadline) {
    int iter = iter_begin;
    for (; iter < iter_end; ++iter) {
        // Budget/cancel poll once per segment. Checking at iter 0 too makes
        // an already-expired deadline (replicas queued behind others on a
        // small pool) return the evaluated start plan immediately.
        if (iter % AnnealingOptions::kBudgetCheckStride == 0 && deadline.expired()) break;
        chain.temperature =
            std::max(chain.temperature * options.cooling, options.min_temperature);
        if (!chain.propose(rng)) {
            ++chain.accepted_moves;
            continue;
        }
        if (!chain.evaluate()) {
            ++chain.infeasible_neighbors;
            chain.revert();
            continue;
        }
        const double candidate = chain.candidate_score();
        if (candidate > chain.best_score()) chain.save_best();
        // --- Accept(.): Metropolis on the normalized score difference.
        const double delta = (candidate - chain.current_score()) / scale;
        if (delta >= 0.0 || rng.uniform() < std::exp(delta / chain.temperature)) {
            chain.commit();
            ++chain.accepted_moves;
        } else {
            chain.revert();
        }
    }
    return iter - iter_begin;
}

struct AnnealingResult {
    TieringPlan plan;
    PlanEvaluation evaluation;
    /// Search-effort counters, aggregated across ALL replicas so reports
    /// and benches see the true effort of multi-chain search.
    int iterations = 0;
    int accepted_moves = 0;
    /// Neighbors rejected because they overflow a provider capacity
    /// limit. Pin and Eq. 7 violations never count here: the move
    /// generator cannot propose them, and candidates are not re-checked.
    int infeasible_neighbors = 0;
    /// Index of the winning replica (0 for a single chain).
    int best_chain = 0;
    /// Memo-table statistics of the run's start-plan evaluations (the
    /// chains' candidate scoring does no cache lookups). Cumulative over
    /// the cache's lifetime when the caller supplied one.
    EvalCacheStats cache_stats{};
    /// True when the wall budget (or a cancellation) stopped the search
    /// early: the plan is the best feasible one found so far, not the
    /// converged optimum. It is the OR across replicas.
    bool budget_exhausted = false;
    /// Replica-exchange statistics (replicas == chains).
    TemperingStats tempering{};
};

/// One move unit — a single job, or a whole reuse group under a
/// reuse-aware evaluator — with its membership and pin constraints
/// precomputed as bitmasks, so the per-iteration move generator tests one
/// bit instead of scanning members.
struct MoveUnit {
    std::vector<std::size_t> jobs;
    /// Bit per workload::AppKind some member runs.
    std::uint32_t app_mask = 0;
    /// Bit per tier no member's `tier=` pin forbids.
    std::uint32_t allowed_tiers = 0;
};

/// The one definition of a legal move: whole reuse groups when `evaluator`
/// is reuse-aware (so every move keeps Eq. 7), single jobs otherwise, in
/// a fixed order (groups by id, then ungrouped jobs by index). A non-empty
/// `active_jobs` mask keeps only the units with a flagged member. Moving a
/// unit as a whole to a tier in its allowed_tiers keeps a legal plan
/// legal; the annealer and the incremental re-planner's repair pass draw
/// every move from these units.
[[nodiscard]] std::vector<MoveUnit> move_units(const PlanEvaluator& evaluator,
                                               std::span<const std::uint8_t> active_jobs = {});

class AnnealingSolver {
public:
    AnnealingSolver(const PlanEvaluator& evaluator, AnnealingOptions options = {});

    /// Anneal from `initial` (e.g. the greedy plan, or a uniform plan).
    /// The initial plan must be feasible. Runs options.chains chains, on
    /// `pool` when provided, and returns the best result with counters
    /// aggregated across chains. The start plans are evaluated through
    /// `cache` when supplied, otherwise an internally created one; the
    /// chains themselves score candidates without it, on `soa` when
    /// supplied (it must be built over this solver's evaluator, e.g. one
    /// the caller's repair passes already use), otherwise on a core built
    /// here.
    [[nodiscard]] AnnealingResult solve(const TieringPlan& initial,
                                        ThreadPool* pool = nullptr,
                                        EvalCache* cache = nullptr,
                                        const SoaEvaluator* soa = nullptr) const;

private:
    const PlanEvaluator* evaluator_;
    AnnealingOptions options_;
};

}  // namespace cast::core
