#include "core/annealing.hpp"

#include <array>
#include <cmath>
#include <memory>
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

void AnnealingSolver::propose_neighbor_soa(Rng& rng, const SoaEvaluator& soa,
                                           SoaState& state,
                                           const std::vector<MoveUnit>& units,
                                           std::vector<std::size_t>& changed) const {
    changed.clear();
    const double move_kind = rng.uniform();
    if (move_kind < options_.app_move_probability) {
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
        for (const auto& unit : units) {
            if ((unit.app_mask & app_bit) == 0 || (unit.allowed_tiers & tier_bit) == 0) {
                continue;
            }
            for (std::size_t j : unit.jobs) {
                if (state.tier[j] == ti) continue;
                soa.set_decision(state, j, ti, state.overprov[j]);
                changed.push_back(j);
            }
        }
    } else {
        // --- Single-unit move: a pin-respecting tier change, or a new
        // over-provisioning factor.
        const MoveUnit& unit = units[rng.below(units.size())];
        const std::size_t front = unit.jobs.front();
        std::uint8_t next_tier = state.tier[front];
        double next_overprov = state.overprov[front];
        const bool want_tier_move =
            move_kind < options_.app_move_probability + options_.tier_move_probability;
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
                options_.overprov_choices[rng.below(options_.overprov_choices.size())];
        }
        for (std::size_t j : unit.jobs) {
            if (state.tier[j] == next_tier && state.overprov[j] == next_overprov) continue;
            soa.set_decision(state, j, next_tier, next_overprov);
            changed.push_back(j);
        }
    }
}

struct AnnealingSolver::ChainCtx {
    SoaState soa;
    /// Temperature on the normalized utility scale u/U_init, so the same
    /// options work across workloads of any absolute utility.
    double temperature = 0.0;
    int accepted_moves = 0;
    int infeasible_neighbors = 0;
    /// Changed-job scratch, reused across iterations.
    std::vector<std::size_t> changed;
};

int AnnealingSolver::run_span(ChainCtx& ctx, Rng& rng, int iter_begin, int iter_end,
                              const std::vector<MoveUnit>& units, const SoaEvaluator& soa,
                              double u_scale, const SolveDeadline& deadline) const {
    const bool bounded = !deadline.unbounded();
    int iter = iter_begin;
    for (; iter < iter_end; ++iter) {
        // Budget/cancel poll once per segment. Checking at iter 0 too makes
        // an already-expired deadline (replicas queued behind others on a
        // small pool) return the evaluated start plan immediately.
        if (bounded && iter % AnnealingOptions::kBudgetCheckStride == 0 &&
            deadline.expired()) {
            break;
        }
        ctx.temperature =
            std::max(ctx.temperature * options_.cooling, options_.min_temperature);

        propose_neighbor_soa(rng, soa, ctx.soa, units, ctx.changed);
        if (ctx.changed.empty()) {
            // A move that changes nothing re-evaluates to the current state:
            // a zero delta, accepted without a draw.
            ++ctx.accepted_moves;
            continue;
        }
        if (!soa.evaluate_candidate(ctx.soa, ctx.changed)) {
            ++ctx.infeasible_neighbors;
            soa.revert(ctx.soa);
            continue;
        }
        if (ctx.soa.cand_utility > ctx.soa.best_utility) soa.save_best(ctx.soa);
        // --- Accept(.): Metropolis on the normalized utility difference.
        const double delta = (ctx.soa.cand_utility - ctx.soa.utility) / u_scale;
        const bool accept = delta >= 0.0 || rng.uniform() < std::exp(delta / ctx.temperature);
        if (accept) {
            soa.commit(ctx.soa);
            ++ctx.accepted_moves;
        } else {
            soa.revert(ctx.soa);
        }
    }
    return iter - iter_begin;
}

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
    std::unique_ptr<EvalCache> owned;
    cache = cache_or_owned(cache, owned);

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

    TemperingRun<ChainCtx> run = run_tempering<ChainCtx>(
        options_, pool,
        [&](ChainCtx& ctx, std::size_t r) {
            const std::size_t s = r % starts.size();
            soa->init(ctx.soa, starts[s], start_evals[s]);
            ctx.changed.reserve(evaluator_->workload().size());
        },
        [&](ChainCtx& ctx, Rng& rng, int begin, int end) {
            return run_span(ctx, rng, begin, end, units, *soa, u_scale, deadline);
        },
        [&](const ChainCtx& ctx) { return -ctx.soa.utility / u_scale; },
        [](ChainCtx& a, ChainCtx& b) { SoaEvaluator::swap_current(a.soa, b.soa); });

    const std::vector<ChainCtx>& reps = run.replicas;
    std::size_t best = 0;
    for (std::size_t r = 1; r < reps.size(); ++r) {
        if (reps[r].soa.best_utility > reps[best].soa.best_utility) best = r;
    }
    AnnealingResult out;
    out.plan = soa->best_plan(reps[best].soa);
    out.evaluation = soa->best_evaluation(reps[best].soa);
    out.best_chain = static_cast<int>(best);
    // Every replica's best already floors at its own start, but with fewer
    // replicas than starts (or a budget that stopped round 0 early) some
    // evaluated start may beat every replica: keep the multi-start
    // guarantee explicit.
    std::size_t best_start = 0;
    for (std::size_t s = 1; s < start_evals.size(); ++s) {
        if (start_evals[s].utility > start_evals[best_start].utility) best_start = s;
    }
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
