// Differential tests: the production AnnealingSolver (SoA state, memoized
// incremental evaluation) against the reference annealer (TieringPlan
// copies, uncached full evaluation) on seeded hostile workloads — tier
// pins (on reuse-group members too), reuse groups under group moves,
// active_jobs masks, jobs large enough that over-provisioning overflows
// provider capacity limits, and ladders of 1..8 replicas. Every field must
// agree bit for bit. The reference re-checks pins and Eq. 7 on every
// neighbor while production never does, so any illegal proposal would
// show up as a mismatch; a property test walks the shared proposer
// directly and holds every proposal to the shared lint checks. The
// production WorkflowSolver (delta evaluation on the REG split) is held
// the same way to the reference workflow annealer (plan copies, uncached
// full evaluation) on seeded workflows.
#include "core/reference_annealer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/castpp.hpp"
#include "core/eval_cache.hpp"
#include "lint/checks.hpp"
#include "test_support.hpp"
#include "workload/facebook.hpp"
#include "workload/workflow.hpp"

namespace cast::core {
namespace {

using cloud::StorageTier;

/// One seeded case: a workload, whether the evaluator is reuse-aware, a
/// feasible start plan and the solver options.
struct Case {
    workload::Workload workload;
    bool reuse_aware = false;
    TieringPlan initial;
    AnnealingOptions options;
};

workload::JobSpec random_job(Rng& rng, int id, double gb) {
    const int maps = std::max(1, static_cast<int>(gb / 0.128));
    return workload::JobSpec{
        .id = id,
        .name = "j" + std::to_string(id),
        .app = workload::kAllApps[rng.below(workload::kAllApps.size())],
        .input = GigaBytes{gb},
        .map_tasks = maps,
        .reduce_tasks = std::max(1, maps / 4)};
}

/// Jobs of 20-800 GB on the 5-worker test cluster: at the larger
/// over-provisioning factors a few of them fill ephSSD's per-VM limit, so
/// the search meets infeasible neighbors. About a third of the jobs join
/// reuse groups of 2-3 (equal inputs); a few ungrouped jobs carry pins,
/// and some groups pin one or more members to one shared tier.
std::optional<Case> make_case(std::uint64_t seed, int chains) {
    Rng rng(seed);
    Case c;
    c.reuse_aware = rng.uniform() < 0.5;
    const int n = 3 + static_cast<int>(rng.below(10));
    std::vector<workload::JobSpec> jobs;
    int group = 0;
    while (static_cast<int>(jobs.size()) < n) {
        const int id = static_cast<int>(jobs.size()) + 1;
        const double gb = 20.0 + 780.0 * rng.uniform();
        if (rng.uniform() < 0.3 && static_cast<int>(jobs.size()) + 2 <= n) {
            const int members = 2 + static_cast<int>(rng.below(2));
            ++group;
            // Pins within a group agree (conflicting ones fail lint L005).
            std::optional<StorageTier> group_pin;
            if (rng.uniform() < 0.3) group_pin = cloud::kAllTiers[rng.below(cloud::kTierCount)];
            for (int m = 0; m < members && static_cast<int>(jobs.size()) < n; ++m) {
                workload::JobSpec job = random_job(rng, id + m, gb);
                job.reuse_group = group;
                if (group_pin && (m == 0 || rng.uniform() < 0.5)) job.pinned_tier = group_pin;
                jobs.push_back(job);
            }
            continue;
        }
        workload::JobSpec job = random_job(rng, id, gb);
        if (rng.uniform() < 0.2) {
            job.pinned_tier = cloud::kAllTiers[rng.below(cloud::kTierCount)];
        }
        jobs.push_back(job);
    }
    c.workload = workload::Workload(std::move(jobs));

    const PlanEvaluator evaluator(testing::small_models(), c.workload,
                                  EvalOptions{.reuse_aware = c.reuse_aware});
    // Start from the pin-projected greedy plan, falling back to pinned
    // uniform plans. A pinned member moves its whole group to the pin.
    std::vector<std::optional<StorageTier>> pin(c.workload.size());
    for (std::size_t i = 0; i < c.workload.size(); ++i) {
        pin[i] = c.workload.job(i).pinned_tier;
        if (pin[i] || !c.workload.job(i).reuse_group) continue;
        for (const workload::JobSpec& mate : c.workload.jobs()) {
            if (mate.reuse_group == c.workload.job(i).reuse_group && mate.pinned_tier) {
                pin[i] = mate.pinned_tier;
            }
        }
    }
    std::vector<TieringPlan> candidates{
        greedy_projected_plan(evaluator, GreedyOptions{}, c.reuse_aware),
        TieringPlan::uniform(c.workload.size(), StorageTier::kObjectStore),
        TieringPlan::uniform(c.workload.size(), StorageTier::kPersistentSsd)};
    bool found = false;
    for (TieringPlan& plan : candidates) {
        for (std::size_t i = 0; i < c.workload.size(); ++i) {
            if (pin[i]) plan.set_decision(i, PlacementDecision{*pin[i], 1.0});
        }
        if (evaluator.evaluate(plan).feasible) {
            c.initial = plan;
            found = true;
            break;
        }
    }
    if (!found) return std::nullopt;

    AnnealingOptions& o = c.options;
    o.chains = chains;
    o.seed = seed * 31 + 7;
    o.iter_max = 40 + static_cast<int>(rng.below(400));
    o.exchange_stride = std::array{8, 32, 256}[rng.below(3)];
    o.diverse_starts = rng.uniform() < 0.6;
    o.app_move_probability = std::array{0.0, 0.1, 0.4}[rng.below(3)];
    o.tier_move_probability = 0.5 + 0.5 * rng.uniform() * (1.0 - o.app_move_probability);
    if (rng.uniform() < 0.3) {
        o.active_jobs.assign(c.workload.size(), 0);
        for (auto& a : o.active_jobs) a = rng.uniform() < 0.4 ? 1 : 0;
        o.active_jobs[rng.below(c.workload.size())] = 1;
    }
    return c;
}

void expect_same_evaluation(const PlanEvaluation& a, const PlanEvaluation& b) {
    EXPECT_EQ(a.feasible, b.feasible);
    EXPECT_EQ(a.infeasibility, b.infeasibility);
    EXPECT_EQ(a.total_runtime.value(), b.total_runtime.value());
    EXPECT_EQ(a.vm_cost.value(), b.vm_cost.value());
    EXPECT_EQ(a.storage_cost.value(), b.storage_cost.value());
    EXPECT_EQ(a.utility, b.utility);
    for (std::size_t t = 0; t < cloud::kTierCount; ++t) {
        EXPECT_EQ(a.capacities.aggregate[t].value(), b.capacities.aggregate[t].value());
        EXPECT_EQ(a.capacities.per_vm[t].value(), b.capacities.per_vm[t].value());
    }
    ASSERT_EQ(a.job_runtimes.size(), b.job_runtimes.size());
    for (std::size_t i = 0; i < a.job_runtimes.size(); ++i) {
        EXPECT_EQ(a.job_runtimes[i].value(), b.job_runtimes[i].value()) << "job " << i;
    }
}

TEST(ReferenceAnnealer, ProductionSolveMatchesOracleBitForBit) {
    ThreadPool pool(2);
    int cases = 0;
    int infeasible_neighbors = 0;
    int exchanges = 0;
    for (std::uint64_t seed = 1; seed <= 600; ++seed) {
        const int chains = 1 + static_cast<int>(seed % 8);
        const std::optional<Case> c = make_case(seed, chains);
        if (!c) continue;
        ++cases;
        SCOPED_TRACE("seed " + std::to_string(seed) + ", chains " + std::to_string(chains));
        const PlanEvaluator evaluator(testing::small_models(), c->workload,
                                      EvalOptions{.reuse_aware = c->reuse_aware});
        EvalCache cache;
        const AnnealingResult prod = AnnealingSolver(evaluator, c->options)
                                         .solve(c->initial, seed % 2 == 0 ? &pool : nullptr,
                                                &cache);
        const AnnealingResult ref =
            reference::ReferenceAnnealer(evaluator, c->options).solve(c->initial);

        ASSERT_EQ(prod.plan.size(), ref.plan.size());
        for (std::size_t i = 0; i < ref.plan.size(); ++i) {
            EXPECT_EQ(prod.plan.decision(i).tier, ref.plan.decision(i).tier) << "job " << i;
            EXPECT_EQ(prod.plan.decision(i).overprovision, ref.plan.decision(i).overprovision)
                << "job " << i;
        }
        expect_same_evaluation(prod.evaluation, ref.evaluation);
        // The returned evaluation is the reference evaluation of the plan.
        expect_same_evaluation(prod.evaluation, evaluator.evaluate(prod.plan));
        EXPECT_EQ(prod.iterations, ref.iterations);
        EXPECT_EQ(prod.accepted_moves, ref.accepted_moves);
        EXPECT_EQ(prod.infeasible_neighbors, ref.infeasible_neighbors);
        EXPECT_EQ(prod.best_chain, ref.best_chain);
        EXPECT_FALSE(prod.budget_exhausted);
        EXPECT_EQ(prod.tempering.replicas, chains);
        EXPECT_EQ(prod.tempering.rounds, ref.tempering.rounds);
        EXPECT_EQ(prod.tempering.exchange_attempts, ref.tempering.exchange_attempts);
        EXPECT_EQ(prod.tempering.exchange_accepts, ref.tempering.exchange_accepts);
        EXPECT_EQ(prod.tempering.replica_iterations, ref.tempering.replica_iterations);
        infeasible_neighbors += ref.infeasible_neighbors;
        exchanges += static_cast<int>(ref.tempering.total_accepts());
    }
    // The generator must actually produce hostile cases.
    EXPECT_GE(cases, 500);
    EXPECT_GT(infeasible_neighbors, 0);
    EXPECT_GT(exchanges, 0);
}

// Feasible by construction: from a legal plan, every proposal drawn from
// the production move units honors every tier pin and, under a
// reuse-aware evaluator, keeps every reuse group on one tier (without one,
// splitting a group is legal). A masked walk moves only flagged jobs and,
// under a reuse-aware evaluator, the group mates they carry along.
// The walk takes every proposal — legality does not depend on capacity —
// so it reaches far more plans than a Metropolis chain would.
TEST(ReferenceAnnealer, EveryProposalKeepsPinsAndReuseGroups) {
    int steps = 0;
    int moves = 0;
    int masked_steps = 0;
    int pinned_group_steps = 0;
    for (std::uint64_t seed = 1; seed <= 600; ++seed) {
        const std::optional<Case> c = make_case(seed, 1);
        if (!c) continue;
        const PlanEvaluator evaluator(testing::small_models(), c->workload,
                                      EvalOptions{.reuse_aware = c->reuse_aware});
        const reference::ReferenceAnnealer proposer(evaluator, c->options);
        const std::vector<MoveUnit> units = proposer.move_units();
        const std::vector<std::uint8_t>& mask = c->options.active_jobs;
        const auto movable = [&](std::size_t j) {
            if (mask.empty() || mask[j] != 0) return true;
            const std::optional<int> group = c->workload.job(j).reuse_group;
            if (!c->reuse_aware || !group) return false;
            for (std::size_t m = 0; m < mask.size(); ++m) {
                if (mask[m] != 0 && c->workload.job(m).reuse_group == group) return true;
            }
            return false;
        };
        const bool pinned_group =
            c->reuse_aware && std::ranges::any_of(c->workload.jobs(), [](const auto& job) {
                return job.reuse_group && job.pinned_tier;
            });
        Rng rng(seed);
        TieringPlan curr = c->initial;
        std::vector<std::size_t> changed;
        for (int step = 0; step < 40; ++step) {
            curr = proposer.propose_neighbor(rng, curr, units, changed);
            std::vector<lint::Finding> violations;
            lint::check_tier_pins(c->workload.jobs(), curr.decisions(), violations);
            if (c->reuse_aware) {
                lint::check_reuse_group_split(c->workload.jobs(), curr.decisions(), violations);
            }
            ASSERT_TRUE(violations.empty())
                << "seed " << seed << ", step " << step << ": " << violations.front().message;
            for (const std::size_t j : changed) {
                ASSERT_TRUE(movable(j))
                    << "seed " << seed << ", step " << step << ": frozen job " << j << " moved";
            }
            ++steps;
            moves += changed.empty() ? 0 : 1;
            masked_steps += mask.empty() ? 0 : 1;
            pinned_group_steps += pinned_group ? 1 : 0;
        }
    }
    EXPECT_GE(steps, 10000);
    EXPECT_GT(moves, steps / 2);
    EXPECT_GT(masked_steps, 1000);
    EXPECT_GT(pinned_group_steps, 1000);
}

// ---------------------------------------------------------------------------
// Workflow deadline solver.
// ---------------------------------------------------------------------------

/// One seeded workflow case: a Fig. 9 or search-log workflow, sometimes
/// with tier pins (the workflow proposer is pin-blind, so moves off a pin
/// are infeasible) and a tight or loose deadline, and solver options.
struct WorkflowCase {
    workload::Workflow workflow;
    AnnealingOptions options;
    double deadline_safety = 1.0;
};

WorkflowCase make_workflow_case(std::uint64_t seed, int chains) {
    Rng rng(seed);
    workload::Workflow base = workload::make_search_log_workflow();
    if (rng.uniform() < 0.7) {
        const std::vector<workload::Workflow> fig9 =
            workload::synthesize_deadline_workflows(1 + rng.below(40));
        base = fig9[rng.below(fig9.size())];
    }
    std::vector<workload::JobSpec> jobs = base.jobs();
    if (rng.uniform() < 0.3) {
        const std::size_t pins = 1 + rng.below(2);
        for (std::size_t p = 0; p < pins; ++p) {
            const std::size_t j = rng.below(jobs.size());
            jobs[j].pinned_tier = cloud::kAllTiers[rng.below(cloud::kTierCount)];
        }
    }
    // The small test cluster misses the 400-core Fig. 9 deadlines anyway;
    // tight ones deepen the overtime penalty, loose ones are met.
    double deadline = base.deadline().value();
    const double d = rng.uniform();
    if (d < 0.3) {
        deadline *= 0.05 + 0.3 * rng.uniform();
    } else if (d < 0.6) {
        deadline *= 1e3;
    }
    WorkflowCase c{workload::Workflow(base.name(), std::move(jobs), base.edges(),
                                      Seconds{deadline}),
                   AnnealingOptions{}, rng.uniform() < 0.3 ? 0.9 : 1.0};

    AnnealingOptions& o = c.options;
    o.chains = chains;
    o.seed = seed * 17 + 3;
    o.iter_max = 40 + static_cast<int>(rng.below(360));
    o.exchange_stride = std::array{1, 8, 32, 256}[rng.below(4)];
    o.tier_move_probability = 0.2 + 0.8 * rng.uniform();
    // Factors past every tier's per-VM limit overflow it.
    const double menu = rng.uniform();
    if (menu < 0.4) {
        o.overprov_choices = {1.0, 2.0, 8.0, 40.0, 400.0};
    } else if (menu < 0.7) {
        // A one-factor menu (before the solver's saturating factors) makes
        // factor moves re-propose the current factor often. Such a move is
        // still evaluated and can record a current state that an exchange
        // made better than the replica's own best.
        o.overprov_choices = {1.0};
    }
    if (rng.uniform() < 0.3) {
        o.active_jobs.assign(c.workflow.size(), 0);
        for (auto& a : o.active_jobs) a = rng.uniform() < 0.4 ? 1 : 0;
        o.active_jobs[rng.below(c.workflow.size())] = 1;
    }
    return c;
}

void expect_same_workflow_evaluation(const WorkflowEvaluation& a, const WorkflowEvaluation& b) {
    EXPECT_EQ(a.feasible, b.feasible);
    EXPECT_EQ(a.infeasibility, b.infeasibility);
    EXPECT_EQ(a.total_runtime.value(), b.total_runtime.value());
    EXPECT_EQ(a.vm_cost.value(), b.vm_cost.value());
    EXPECT_EQ(a.storage_cost.value(), b.storage_cost.value());
    EXPECT_EQ(a.meets_deadline, b.meets_deadline);
    for (std::size_t t = 0; t < cloud::kTierCount; ++t) {
        EXPECT_EQ(a.capacities.aggregate[t].value(), b.capacities.aggregate[t].value());
        EXPECT_EQ(a.capacities.per_vm[t].value(), b.capacities.per_vm[t].value());
    }
    ASSERT_EQ(a.job_runtimes.size(), b.job_runtimes.size());
    for (std::size_t i = 0; i < a.job_runtimes.size(); ++i) {
        EXPECT_EQ(a.job_runtimes[i].value(), b.job_runtimes[i].value()) << "job " << i;
    }
    ASSERT_EQ(a.transfer_times.size(), b.transfer_times.size());
    for (std::size_t k = 0; k < a.transfer_times.size(); ++k) {
        EXPECT_EQ(a.transfer_times[k].value(), b.transfer_times[k].value()) << "edge " << k;
    }
}

TEST(ReferenceAnnealer, WorkflowSolveMatchesOracleBitForBit) {
    ThreadPool pool(2);
    int cases = 0;
    int infeasible_neighbors = 0;
    int exchanges = 0;
    int met = 0;
    int missed = 0;
    for (std::uint64_t seed = 1; seed <= 400; ++seed) {
        const int chains = 1 + static_cast<int>(seed % 8);
        const WorkflowCase c = make_workflow_case(seed, chains);
        SCOPED_TRACE("seed " + std::to_string(seed) + ", chains " + std::to_string(chains) +
                     ", " + c.workflow.name());
        ++cases;
        const WorkflowEvaluator evaluator(testing::small_models(), c.workflow);
        EvalCache cache;
        const WorkflowSolveResult prod =
            WorkflowSolver(evaluator, c.options, c.deadline_safety)
                .solve(seed % 2 == 0 ? &pool : nullptr, &cache);
        const reference::ReferenceWorkflowAnnealer::Result ref =
            reference::ReferenceWorkflowAnnealer(evaluator, c.options, c.deadline_safety)
                .solve();

        ASSERT_EQ(prod.plan.decisions.size(), ref.solve.plan.decisions.size());
        for (std::size_t i = 0; i < prod.plan.decisions.size(); ++i) {
            EXPECT_EQ(prod.plan.decisions[i].tier, ref.solve.plan.decisions[i].tier)
                << "job " << i;
            EXPECT_EQ(prod.plan.decisions[i].overprovision,
                      ref.solve.plan.decisions[i].overprovision)
                << "job " << i;
        }
        expect_same_workflow_evaluation(prod.evaluation, ref.solve.evaluation);
        // The returned evaluation is the reference evaluation of the plan.
        expect_same_workflow_evaluation(prod.evaluation, evaluator.evaluate(prod.plan));
        EXPECT_EQ(prod.iterations, ref.solve.iterations);
        EXPECT_EQ(prod.best_chain, ref.solve.best_chain);
        EXPECT_FALSE(prod.budget_exhausted);
        EXPECT_EQ(prod.tempering.replicas, chains);
        EXPECT_EQ(prod.tempering.rounds, ref.solve.tempering.rounds);
        EXPECT_EQ(prod.tempering.exchange_attempts, ref.solve.tempering.exchange_attempts);
        EXPECT_EQ(prod.tempering.exchange_accepts, ref.solve.tempering.exchange_accepts);
        EXPECT_EQ(prod.tempering.replica_iterations, ref.solve.tempering.replica_iterations);
        infeasible_neighbors += ref.infeasible_neighbors;
        exchanges += static_cast<int>(ref.solve.tempering.total_accepts());
        (prod.evaluation.meets_deadline ? met : missed) += 1;
    }
    // The generator must actually produce hostile cases.
    EXPECT_EQ(cases, 400);
    EXPECT_GT(infeasible_neighbors, 0);
    EXPECT_GT(exchanges, 0);
    EXPECT_GT(met, 0);
    EXPECT_GT(missed, 0);
}

}  // namespace
}  // namespace cast::core
