#include "core/annealing.hpp"

#include <algorithm>
#include <array>
#include <optional>
#include <utility>

#include "core/soa_eval.hpp"
#include "lint/analyzer.hpp"

namespace cast::core {

AnnealingSolver::AnnealingSolver(const PlanEvaluator& evaluator, AnnealingOptions options)
    : evaluator_(&evaluator), options_(std::move(options)) {
    options_.validate(evaluator.workload().size());
}

std::vector<MoveUnit> move_units(const PlanEvaluator& evaluator,
                                 std::span<const std::uint8_t> active_jobs) {
    const auto& workload = evaluator.workload();
    std::vector<MoveUnit> units;
    const auto add = [&](std::vector<std::size_t> jobs) {
        // Neighborhood restriction: drop units with no flagged member. A
        // reuse-group unit with any flagged member stays whole (Eq. 7 moves
        // the group together); the incremental re-planner closes its
        // neighborhoods under reuse groups so partial units never arise.
        if (!active_jobs.empty() &&
            std::ranges::none_of(jobs, [&](std::size_t j) { return active_jobs[j] != 0; })) {
            return;
        }
        MoveUnit unit{std::move(jobs), 0, (1u << cloud::kTierCount) - 1};
        for (const std::size_t j : unit.jobs) {
            const auto& job = workload.job(j);
            unit.app_mask |= 1u << workload::app_index(job.app);
            if (job.pinned_tier) {
                unit.allowed_tiers &= 1u << cloud::tier_index(*job.pinned_tier);
            }
        }
        units.push_back(std::move(unit));
    };
    std::vector<bool> grouped(workload.size(), false);
    if (evaluator.options().reuse_aware) {
        for (const auto& [group, members] : workload.reuse_groups()) {
            add(members);
            for (const std::size_t i : members) grouped[i] = true;
        }
    }
    for (std::size_t i = 0; i < workload.size(); ++i) {
        if (!grouped[i]) add({i});
    }
    return units;
}

namespace {

/// One batch replica, and the problem anneal_span runs on it: SoA moves
/// drawn from the move units, scored on utility.
struct SoaChain : AnnealChain {
    const AnnealingOptions* options = nullptr;
    const SoaEvaluator* core = nullptr;
    const std::vector<MoveUnit>* units = nullptr;
    SoaState state;
    std::size_t start = 0;  ///< index of the start plan `state` is seeded from
    /// Changed-job scratch, reused across iterations.
    std::vector<std::size_t> changed;

    /// Generate one neighbor in place: mutate the flat state under its
    /// undo log, listing in `changed` every decision that actually
    /// differs. Pin- and app-membership-aware: a proposed move never
    /// violates a `tier=` pin, and app batch moves relocate exactly the
    /// units containing the drawn application class.
    bool propose(Rng& rng) {
        changed.clear();
        const double move_kind = rng.uniform();
        if (move_kind < options->app_move_probability) {
            // --- Batch move: relocate one app class to one tier. A unit
            // participates when any member runs the drawn application (units
            // are reuse groups under a reuse-aware evaluator, and Eq. 7 forces
            // the whole group along) and no member's pin forbids the target
            // tier.
            const workload::AppKind app =
                workload::kAllApps[rng.below(workload::kAllApps.size())];
            const cloud::StorageTier t = cloud::kAllTiers[rng.below(cloud::kAllTiers.size())];
            const auto ti = static_cast<std::uint8_t>(cloud::tier_index(t));
            const std::uint32_t app_bit = 1u << workload::app_index(app);
            const std::uint32_t tier_bit = 1u << cloud::tier_index(t);
            for (const MoveUnit& unit : *units) {
                if ((unit.app_mask & app_bit) == 0 || (unit.allowed_tiers & tier_bit) == 0) {
                    continue;
                }
                for (std::size_t j : unit.jobs) {
                    if (state.tier[j] == ti) continue;
                    core->set_decision(state, j, ti, state.overprov[j]);
                    changed.push_back(j);
                }
            }
        } else {
            // --- Single-unit move: a pin-respecting tier change, or a new
            // over-provisioning factor.
            const MoveUnit& unit = (*units)[rng.below(units->size())];
            const std::size_t front = unit.jobs.front();
            std::uint8_t next_tier = state.tier[front];
            double next_overprov = state.overprov[front];
            const bool want_tier_move =
                move_kind < options->app_move_probability + options->tier_move_probability;
            std::array<cloud::StorageTier, cloud::kTierCount> allowed{};
            std::size_t n_allowed = 0;
            if (want_tier_move) {
                for (cloud::StorageTier t : cloud::kAllTiers) {
                    if (cloud::tier_index(t) == next_tier) continue;
                    if (unit.allowed_tiers & (1u << cloud::tier_index(t))) {
                        allowed[n_allowed++] = t;
                    }
                }
            }
            if (want_tier_move && n_allowed > 0) {
                next_tier =
                    static_cast<std::uint8_t>(cloud::tier_index(allowed[rng.below(n_allowed)]));
            } else {
                // Fully pinned units degrade to factor moves instead of
                // proposing a guaranteed-infeasible tier change.
                next_overprov =
                    options->overprov_choices[rng.below(options->overprov_choices.size())];
            }
            for (std::size_t j : unit.jobs) {
                if (state.tier[j] == next_tier && state.overprov[j] == next_overprov) continue;
                core->set_decision(state, j, next_tier, next_overprov);
                changed.push_back(j);
            }
        }
        return !changed.empty();
    }
    bool evaluate() { return core->evaluate_candidate(state, changed); }
    [[nodiscard]] double candidate_score() const { return state.cand_utility; }
    [[nodiscard]] double current_score() const { return state.utility; }
    [[nodiscard]] double best_score() const { return state.best_utility; }
    void save_best() { core->save_best(state); }
    void commit() { core->commit(state); }
    void revert() { core->revert(state); }
};

}  // namespace

AnnealingResult AnnealingSolver::solve(const TieringPlan& initial, ThreadPool* pool,
                                       EvalCache* cache, const SoaEvaluator* soa) const {
    // One deadline for the whole solve, armed before any other work so the
    // wall budget covers lint and start-plan evaluation too: replicas
    // dispatched late (sequential execution, or more replicas than
    // workers) inherit the remaining budget rather than each restarting
    // the clock.
    const SolveDeadline deadline = SolveDeadline::from(options_);
    // Pre-solve lint: reject inputs no annealing chain can fix (conflicting
    // reuse-group pins, unmodeled applications, a broken catalog) before
    // burning iterations on them.
    lint::LintContext lint_ctx;
    lint_ctx.models = &evaluator_->models();
    lint_ctx.reuse_aware = evaluator_->options().reuse_aware;
    lint::enforce(lint::lint_workload(evaluator_->workload(), lint_ctx));

    // The memo table serves the start-plan evaluations only: replicas
    // score candidates through the SoA core's own REG kernel, which needs
    // no table.
    EvalCache local_cache;
    if (cache == nullptr) cache = &local_cache;

    // Multi-start: rotate replicas across the supplied initial plan and
    // every feasible uniform plan (uniform plans satisfy Eq. 7
    // trivially; evaluate() drops those that break a pin).
    std::vector<TieringPlan> starts{initial};
    std::vector<PlanEvaluation> start_evals{evaluator_->evaluate(initial, cache)};
    if (options_.diverse_starts) {
        for (cloud::StorageTier t : cloud::kAllTiers) {
            TieringPlan uniform = TieringPlan::uniform(initial.size(), t);
            PlanEvaluation uniform_eval = evaluator_->evaluate(uniform, cache);
            if (uniform_eval.feasible) {
                starts.push_back(std::move(uniform));
                start_evals.push_back(std::move(uniform_eval));
            }
        }
    }

    const auto units = move_units(*evaluator_, options_.active_jobs);
    CAST_EXPECTS_MSG(!units.empty(), "cannot anneal an empty workload");
    CAST_EXPECTS_MSG(start_evals.front().feasible, "annealing needs a feasible initial plan");
    // One normalization scale for the whole ladder (the supplied initial
    // plan's utility): exchange energies E = -u/u_scale are then
    // comparable across rungs regardless of which start a replica got.
    const double u_scale = start_evals.front().utility;
    CAST_ENSURES(u_scale > 0.0);
    std::optional<SoaEvaluator> owned_soa;
    if (soa == nullptr) soa = &owned_soa.emplace(*evaluator_);
    CAST_EXPECTS_MSG(&soa->evaluator() == evaluator_,
                     "the SoA core must be built over the solver's evaluator");

    TemperingRun<SoaChain> run = run_tempering<SoaChain>(
        options_, pool,
        [&](SoaChain& chain, std::size_t r) {
            chain.options = &options_;
            chain.core = soa;
            chain.units = &units;
            chain.start = r % starts.size();
        },
        [&](SoaChain& chain, Rng& rng, int begin, int end) {
            // Seeded on its worker: replicas seeded back to back share cache lines.
            if (begin == 0) {
                soa->init(chain.state, starts[chain.start], start_evals[chain.start]);
                chain.changed.reserve(evaluator_->workload().size());
            }
            return anneal_span(chain, rng, begin, end, options_, u_scale, deadline);
        },
        [&](const SoaChain& chain) { return -chain.state.utility / u_scale; },
        [](SoaChain& a, SoaChain& b) { SoaEvaluator::swap_current(a.state, b.state); });

    const std::vector<SoaChain>& reps = run.replicas;
    const std::size_t best = run.best_replica(&SoaChain::best_score);
    AnnealingResult out;
    out.plan = soa->best_plan(reps[best].state);
    out.evaluation = soa->best_evaluation(reps[best].state);
    out.best_chain = static_cast<int>(best);
    // Every replica's best already floors at its own start, but with fewer
    // replicas than starts (or a budget that stopped round 0 early) some
    // evaluated start may beat every replica: keep the multi-start
    // guarantee explicit.
    const auto first_best = std::ranges::max_element(start_evals, {}, &PlanEvaluation::utility);
    const auto best_start = static_cast<std::size_t>(first_best - start_evals.begin());
    if (start_evals[best_start].utility > out.evaluation.utility) {
        out.plan = starts[best_start];
        out.evaluation = start_evals[best_start];
        out.best_chain = static_cast<int>(best_start % reps.size());
    }
    for (std::size_t r = 0; r < reps.size(); ++r) {
        out.iterations += run.stats.replica_iterations[r];
        out.accepted_moves += reps[r].accepted_moves;
        out.infeasible_neighbors += reps[r].infeasible_neighbors;
    }
    out.budget_exhausted = run.budget_exhausted;
    out.cache_stats = cache->stats();
    out.tempering = std::move(run.stats);
    return out;
}

}  // namespace cast::core
