// Reference annealers: the test oracles for AnnealingSolver::solve and
// WorkflowSolver::solve.
//
// Algorithm 2 written for clarity rather than speed. Every move copies the
// plan, re-evaluates the copy from scratch through the uncached reference
// evaluator (PlanEvaluator::evaluate, WorkflowEvaluator::evaluate with no
// base), and applies the Metropolis rule. Each runs on the same ladder
// driver as production (run_tempering in core/tempering.hpp) with its own
// iteration loop, not the production anneal_span, and makes the same RNG
// draws per iteration, so a seeded solve must agree with production bit
// for bit: plan, every evaluation field, counters and TemperingStats. They
// have no wall budget, no lint gate and no cache.
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
#include "core/castpp.hpp"
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

/// The oracle for WorkflowSolver::solve: CAST++'s deadline mode (§4.3,
/// Eq. 8-10) annealed over tiers and over-provision factors in DFS order.
class ReferenceWorkflowAnnealer {
public:
    ReferenceWorkflowAnnealer(const WorkflowEvaluator& evaluator, AnnealingOptions options,
                              double deadline_safety = 1.0)
        : evaluator_(&evaluator), options_(std::move(options)), safety_(deadline_safety) {
        const workload::Workflow& wf = evaluator.workflow();
        options_.validate(wf.size());
        CAST_EXPECTS(options_.max_wall_ms == 0.0 && options_.cancel == nullptr);
        // The solver's factor menu: the options' factors plus three around
        // the per-VM capacity where persSSD saturates its bandwidth ceiling.
        double total_req = 0.0;
        const WorkflowPlan probe =
            WorkflowPlan::uniform(wf.size(), cloud::StorageTier::kPersistentSsd);
        for (std::size_t i = 0; i < wf.size(); ++i) {
            total_req += evaluator.job_requirement(probe, i).value();
        }
        if (total_req > 0.0) {
            const double saturating =
                550.0 * evaluator.models().cluster().worker_count / total_req;
            if (saturating > 1.0) {
                options_.overprov_choices.push_back(std::max(1.0, saturating / 2.0));
                options_.overprov_choices.push_back(saturating);
                options_.overprov_choices.push_back(saturating * 1.5);
            }
        }
    }

    /// -cost when the (safety-scaled) deadline holds, penalized by the
    /// overtime otherwise; -1e18 for an infeasible plan.
    [[nodiscard]] double score(const WorkflowEvaluation& eval) const {
        if (!eval.feasible) return -1e18;
        double s = -eval.total_cost().value();
        const Seconds target{evaluator_->workflow().deadline().value() * safety_};
        if (eval.total_runtime > target) {
            s -= 1e3 * (1.0 + (eval.total_runtime - target).minutes());
        }
        return s;
    }

    struct Result {
        WorkflowSolveResult solve;
        /// Infeasible neighbors scored (and sent through Metropolis).
        int infeasible_neighbors = 0;
    };

    /// The production solve's contract: the uniform sweep is the result
    /// floor and the scale; replica starts rotate by seed over the sweep's
    /// winner and uniform plans, retreating to persSSD when infeasible.
    [[nodiscard]] Result solve(ThreadPool* pool = nullptr) const {
        const workload::Workflow& wf = evaluator_->workflow();
        const WorkflowPlan pers_ssd =
            WorkflowPlan::uniform(wf.size(), cloud::StorageTier::kPersistentSsd);
        WorkflowPlan sweep = pers_ssd;
        double sweep_score = score(evaluator_->evaluate(sweep));
        for (const cloud::StorageTier t : cloud::kAllTiers) {
            for (const double k : options_.overprov_choices) {
                WorkflowPlan candidate = WorkflowPlan::uniform(wf.size(), t, k);
                const double s = score(evaluator_->evaluate(candidate));
                if (s > sweep_score) {
                    sweep_score = s;
                    sweep = std::move(candidate);
                }
            }
        }
        const WorkflowEvaluation sweep_eval = evaluator_->evaluate(sweep);
        const double scale = std::max(1.0, std::fabs(sweep_score));

        TemperingRun<Replica> run = run_tempering<Replica>(
            options_, pool,
            [&](Replica& rep, std::size_t r) {
                const std::uint64_t seed = options_.seed + 104729 * (r + 1);
                const std::vector<double>& ks = options_.overprov_choices;
                const cloud::StorageTier tier = cloud::kAllTiers[seed % cloud::kTierCount];
                rep.curr = seed % 3 == 0 ? sweep
                                         : WorkflowPlan::uniform(wf.size(), tier,
                                                                 ks[(seed / 7) % ks.size()]);
                rep.curr_eval = evaluator_->evaluate(rep.curr);
                if (!rep.curr_eval.feasible) {
                    rep.curr = pers_ssd;
                    rep.curr_eval = evaluator_->evaluate(rep.curr);
                }
                rep.best = rep.curr;
                rep.best_eval = rep.curr_eval;
            },
            [&](Replica& rep, Rng& rng, int begin, int end) {
                for (int iter = begin; iter < end; ++iter) step(rep, rng, scale);
                return end - begin;
            },
            [&](const Replica& rep) { return -score(rep.curr_eval) / scale; },
            [](Replica& a, Replica& b) {
                std::swap(a.curr, b.curr);
                std::swap(a.curr_eval, b.curr_eval);
            });

        std::size_t best = 0;
        for (std::size_t r = 1; r < run.replicas.size(); ++r) {
            const double s = score(run.replicas[r].best_eval);
            if (s > score(run.replicas[best].best_eval)) best = r;
        }
        Result out;
        WorkflowSolveResult& solved = out.solve;
        if (sweep_score > score(run.replicas[best].best_eval)) {
            solved.plan = sweep;
            solved.evaluation = sweep_eval;
            solved.best_chain = -1;
        } else {
            solved.plan = run.replicas[best].best;
            solved.evaluation = run.replicas[best].best_eval;
            solved.best_chain = static_cast<int>(best);
        }
        for (std::size_t r = 0; r < run.replicas.size(); ++r) {
            solved.iterations += run.stats.replica_iterations[r];
            out.infeasible_neighbors += run.replicas[r].infeasible_neighbors;
        }
        solved.tempering = std::move(run.stats);
        return out;
    }

private:
    struct Replica {
        WorkflowPlan curr;
        WorkflowEvaluation curr_eval;
        WorkflowPlan best;
        WorkflowEvaluation best_eval;
        double temperature = 0.0;
        /// DFS position of the next move.
        std::size_t cursor = 0;
        int infeasible_neighbors = 0;
    };

    /// One iteration: cool, move the next active job in DFS order to a
    /// different tier or a drawn factor, evaluate from scratch, track the
    /// best feasible neighbor, Metropolis accept (an infeasible neighbor
    /// scores -1e18 and still consumes the draw).
    void step(Replica& rep, Rng& rng, double scale) const {
        rep.temperature =
            std::max(rep.temperature * options_.cooling, options_.min_temperature);
        const std::vector<std::size_t>& dfs = evaluator_->workflow().dfs_order();
        std::size_t job = dfs[rep.cursor];
        rep.cursor = (rep.cursor + 1) % dfs.size();
        while (!options_.active_jobs.empty() && options_.active_jobs[job] == 0) {
            job = dfs[rep.cursor];
            rep.cursor = (rep.cursor + 1) % dfs.size();
        }
        WorkflowPlan neighbor = rep.curr;
        PlacementDecision& d = neighbor.decisions[job];
        if (rng.uniform() < options_.tier_move_probability) {
            cloud::StorageTier t = d.tier;
            while (t == d.tier) t = cloud::kAllTiers[rng.below(cloud::kTierCount)];
            d.tier = t;
        } else {
            d.overprovision =
                options_.overprov_choices[rng.below(options_.overprov_choices.size())];
        }
        WorkflowEvaluation neighbor_eval = evaluator_->evaluate(neighbor);
        if (!neighbor_eval.feasible) ++rep.infeasible_neighbors;
        const double neighbor_score = score(neighbor_eval);
        if (neighbor_eval.feasible && neighbor_score > score(rep.best_eval)) {
            rep.best = neighbor;
            rep.best_eval = neighbor_eval;
        }
        const double delta = (neighbor_score - score(rep.curr_eval)) / scale;
        if (delta >= 0.0 || rng.uniform() < std::exp(delta / rep.temperature)) {
            rep.curr = std::move(neighbor);
            rep.curr_eval = std::move(neighbor_eval);
        }
    }

    const WorkflowEvaluator* evaluator_;
    AnnealingOptions options_;
    double safety_;
};

}  // namespace cast::core::reference
