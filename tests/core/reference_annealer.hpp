// Reference annealer: the test oracle for AnnealingSolver::solve.
//
// Algorithm 2 written for clarity rather than speed. Every move copies the
// TieringPlan, re-evaluates the copy from scratch through the uncached
// PlanEvaluator::evaluate, and applies the Metropolis rule. It runs on the
// same ladder driver as production (run_tempering in core/tempering.hpp)
// and makes the same RNG draws per iteration, so a seeded solve must agree
// with the SoA engine bit for bit: plan, every evaluation field, move
// counters and TemperingStats. It has no wall budget and no cache.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/annealing.hpp"
#include "core/tempering.hpp"
#include "core/utility.hpp"

namespace cast::core::reference {

class ReferenceAnnealer {
public:
    ReferenceAnnealer(const PlanEvaluator& evaluator, AnnealingOptions options)
        : evaluator_(&evaluator), options_(std::move(options)) {
        options_.validate(evaluator.workload().size());
        CAST_EXPECTS(options_.max_wall_ms == 0.0 && options_.cancel == nullptr);
    }

    /// Same move units as production (single jobs, or reuse groups under
    /// a reuse-aware evaluator, filtered by the active_jobs mask).
    [[nodiscard]] std::vector<MoveUnit> move_units() const {
        return core::move_units(*evaluator_, options_.active_jobs);
    }

    /// One neighbor of `curr`, appending the indices of every decision that
    /// actually differs to `changed` (cleared first). Pin- and
    /// app-membership-aware, with the production proposer's draw sequence.
    [[nodiscard]] TieringPlan propose_neighbor(Rng& rng, const TieringPlan& curr,
                                               const std::vector<MoveUnit>& units,
                                               std::vector<std::size_t>& changed) const {
        changed.clear();
        TieringPlan neighbor = curr;
        const double move_kind = rng.uniform();
        if (move_kind < options_.app_move_probability) {
            // Batch move: relocate one app class to one tier.
            const workload::AppKind app =
                workload::kAllApps[rng.below(workload::kAllApps.size())];
            const cloud::StorageTier t =
                cloud::kAllTiers[rng.below(cloud::kAllTiers.size())];
            const std::uint32_t app_bit = 1u << workload::app_index(app);
            const std::uint32_t tier_bit = 1u << cloud::tier_index(t);
            for (const MoveUnit& unit : units) {
                if ((unit.app_mask & app_bit) == 0 || (unit.allowed_tiers & tier_bit) == 0) {
                    continue;
                }
                for (const std::size_t j : unit.jobs) {
                    PlacementDecision d = neighbor.decision(j);
                    if (d.tier == t) continue;
                    d.tier = t;
                    neighbor.set_decision(j, d);
                    changed.push_back(j);
                }
            }
            return neighbor;
        }
        // Single-unit move: a pin-respecting tier change, or a new factor.
        const MoveUnit& unit = units[rng.below(units.size())];
        const PlacementDecision old = curr.decision(unit.jobs.front());
        PlacementDecision next = old;
        const bool want_tier_move =
            move_kind < options_.app_move_probability + options_.tier_move_probability;
        std::array<cloud::StorageTier, cloud::kTierCount> allowed{};
        std::size_t n_allowed = 0;
        if (want_tier_move) {
            for (const cloud::StorageTier t : cloud::kAllTiers) {
                if (t == old.tier) continue;
                if (unit.allowed_tiers & (1u << cloud::tier_index(t))) allowed[n_allowed++] = t;
            }
        }
        if (want_tier_move && n_allowed > 0) {
            next.tier = allowed[rng.below(n_allowed)];
        } else {
            next.overprovision =
                options_.overprov_choices[rng.below(options_.overprov_choices.size())];
        }
        for (const std::size_t j : unit.jobs) {
            const PlacementDecision& d = curr.decision(j);
            if (d.tier == next.tier && d.overprovision == next.overprovision) continue;
            neighbor.set_decision(j, next);
            changed.push_back(j);
        }
        return neighbor;
    }

    /// The production solve's contract without lint or cache: multi-start
    /// over the initial plan and every feasible uniform plan, a tempered
    /// ladder of options.chains replicas, the best replica floored by the
    /// best start, counters summed over replicas.
    [[nodiscard]] AnnealingResult solve(const TieringPlan& initial,
                                        ThreadPool* pool = nullptr) const {
        std::vector<TieringPlan> starts{initial};
        std::vector<PlanEvaluation> start_evals{evaluator_->evaluate(initial)};
        if (options_.diverse_starts) {
            for (const cloud::StorageTier t : cloud::kAllTiers) {
                TieringPlan uniform = TieringPlan::uniform(initial.size(), t);
                PlanEvaluation uniform_eval = evaluator_->evaluate(uniform);
                if (uniform_eval.feasible) {
                    starts.push_back(std::move(uniform));
                    start_evals.push_back(std::move(uniform_eval));
                }
            }
        }
        const std::vector<MoveUnit> units = move_units();
        CAST_EXPECTS(!units.empty() && start_evals.front().feasible);
        const double u_scale = start_evals.front().utility;

        TemperingRun<Replica> run = run_tempering<Replica>(
            options_, pool,
            [&](Replica& rep, std::size_t r) {
                const std::size_t s = r % starts.size();
                rep.curr = rep.best = starts[s];
                rep.curr_eval = rep.best_eval = start_evals[s];
            },
            [&](Replica& rep, Rng& rng, int begin, int end) {
                for (int iter = begin; iter < end; ++iter) step(rep, rng, units, u_scale);
                return end - begin;
            },
            [&](const Replica& rep) { return -rep.curr_eval.utility / u_scale; },
            [](Replica& a, Replica& b) {
                std::swap(a.curr, b.curr);
                std::swap(a.curr_eval, b.curr_eval);
            });

        std::size_t best = 0;
        for (std::size_t r = 1; r < run.replicas.size(); ++r) {
            if (run.replicas[r].best_eval.utility > run.replicas[best].best_eval.utility) {
                best = r;
            }
        }
        AnnealingResult out;
        out.plan = run.replicas[best].best;
        out.evaluation = run.replicas[best].best_eval;
        out.best_chain = static_cast<int>(best);
        std::size_t best_start = 0;
        for (std::size_t s = 1; s < start_evals.size(); ++s) {
            if (start_evals[s].utility > start_evals[best_start].utility) best_start = s;
        }
        if (start_evals[best_start].utility > out.evaluation.utility) {
            out.plan = starts[best_start];
            out.evaluation = start_evals[best_start];
            out.best_chain = static_cast<int>(best_start % run.replicas.size());
        }
        for (std::size_t r = 0; r < run.replicas.size(); ++r) {
            out.iterations += run.stats.replica_iterations[r];
            out.accepted_moves += run.replicas[r].accepted_moves;
            out.infeasible_neighbors += run.replicas[r].infeasible_neighbors;
        }
        out.tempering = std::move(run.stats);
        return out;
    }

private:
    struct Replica {
        TieringPlan curr;
        PlanEvaluation curr_eval;
        TieringPlan best;
        PlanEvaluation best_eval;
        double temperature = 0.0;
        int accepted_moves = 0;
        int infeasible_neighbors = 0;
        std::vector<std::size_t> changed;
    };

    /// One Algorithm 2 iteration: cool, propose, evaluate, track the best,
    /// Metropolis accept.
    void step(Replica& rep, Rng& rng, const std::vector<MoveUnit>& units,
              double u_scale) const {
        rep.temperature =
            std::max(rep.temperature * options_.cooling, options_.min_temperature);
        TieringPlan neighbor = propose_neighbor(rng, rep.curr, units, rep.changed);
        if (rep.changed.empty()) {
            // The neighbor IS the current plan: a zero delta, accepted
            // without a draw.
            ++rep.accepted_moves;
            return;
        }
        PlanEvaluation neighbor_eval = evaluator_->evaluate(neighbor);
        if (!neighbor_eval.feasible) {
            ++rep.infeasible_neighbors;
            return;
        }
        if (neighbor_eval.utility > rep.best_eval.utility) {
            rep.best = neighbor;
            rep.best_eval = neighbor_eval;
        }
        const double delta = (neighbor_eval.utility - rep.curr_eval.utility) / u_scale;
        if (delta >= 0.0 || rng.uniform() < std::exp(delta / rep.temperature)) {
            rep.curr = std::move(neighbor);
            rep.curr_eval = std::move(neighbor_eval);
            ++rep.accepted_moves;
        }
    }

    const PlanEvaluator* evaluator_;
    AnnealingOptions options_;
};

}  // namespace cast::core::reference
