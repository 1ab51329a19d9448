// Optimality-gap gates: CAST, CAST++ and the workflow solver against the exact optimum.
//
// Every other solver gate compares the annealer with itself (goldens, FNV
// pins) or with weaker baselines (greedy, uniform plans). Here a fixed set
// of small seeded instances, drawn from the Facebook bins of Table 4, is
// solved exhaustively (tests/core/exhaustive_optimum.hpp) over the same
// search space the annealer walks: four tiers x the nine factors of
// AnnealingOptions' menu per job. Two numbers per solver are gated:
//
//   * the share of instances where it reaches the optimum (its utility is
//     the optimum's to within 1e-12 relative, so a last-bit tie between
//     two plans counts as reaching it);
//   * the worst relative gap 1 - U / U_opt over the set.
//
// The bounds were recorded before the Eq. 3-6 sums became order-free
// fixed-point sums and are kept as they were: a change to the evaluator
// or the annealer must not make either number worse. At the production
// defaults (6 replicas x 20,000 iterations) both solvers reached the
// optimum on every instance, for the recorded seeds and for five other
// seed offsets alike; at 1,000 or 4,000 iterations per replica the
// outcome already varied with the seed, which would make such a gate read
// the RNG stream rather than the solver. Greedy's numbers are printed
// beside them, ungated (7 and 8 of 22 reached, worst gaps 0.616 and
// 0.836 when recorded).
//
// The instances: 3 jobs (46,656 plans) and two of 4 jobs, with reuse
// groups (the shared input counted once under CAST++, which co-locates
// the group) and operator tier pins.
//
// The workflow half gates WorkflowSolver (CAST++'s deadline mode, Eq.
// 8-10) the same way, on the solver's own score (-cost when the deadline
// holds, penalized by the overtime otherwise): small seeded DAGs of
// Facebook-bin jobs, some with a pin, one with a deadline no plan meets,
// enumerated over the solver's extended factor menu (the options' menu
// plus the saturating factors the solver adds). The options' menu is
// shortened so each instance stays under 0.5M plans; the solver walks the
// same menu. The gap is relative to the optimum's score. The bounds are
// the values recorded when the gate was added, with the evaluator's
// index-order double sums: the solver reached the optimum on 12 of 12
// (worst gap 0). solve_greedy's numbers are printed beside them, ungated
// (2 of 12 reached, worst gap 0.238 when recorded).
#include "core/exhaustive_optimum.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/castpp.hpp"
#include "core/reference_annealer.hpp"
#include "test_support.hpp"
#include "workload/facebook.hpp"

namespace cast::core {
namespace {

/// The fixed seed set: instances 1-20 have 3 jobs, 101-102 have 4.
std::vector<std::uint64_t> instance_seeds() {
    std::vector<std::uint64_t> seeds;
    for (std::uint64_t s = 1; s <= 20; ++s) seeds.push_back(s);
    seeds.push_back(101);
    seeds.push_back(102);
    return seeds;
}

/// A Table 4 bin drawn by its share of the synthesized workload's jobs.
const workload::FacebookBin& draw_bin(Rng& rng) {
    const auto& bins = workload::facebook_bins();
    int total = 0;
    for (const auto& b : bins) total += b.workload_jobs;
    int pick = static_cast<int>(rng.below(static_cast<std::uint64_t>(total)));
    for (const auto& b : bins) {
        if (pick < b.workload_jobs) return b;
        pick -= b.workload_jobs;
    }
    return bins.back();
}

workload::JobSpec bin_job(Rng& rng, int id, const workload::FacebookBin& bin) {
    return workload::JobSpec{
        .id = id,
        .name = "fb" + std::to_string(bin.bin) + "-" + std::to_string(id),
        .app = workload::kAllApps[rng.below(workload::kAllApps.size())],
        .input = GigaBytes{bin.workload_maps * 0.128},
        .map_tasks = bin.workload_maps,
        .reduce_tasks = std::max(1, bin.workload_maps / 4)};
}

/// Seeded instance. Jobs 0 and 1 may share an input (a reuse group of two,
/// same bin); the last job may carry a tier pin. The 4-job instances
/// always have both, which keeps their enumeration under 0.5M plans.
workload::Workload make_instance(std::uint64_t seed) {
    Rng rng(seed * 7919 + 17);
    const int n = seed > 100 ? 4 : 3;
    const bool group = seed > 100 || rng.uniform() < 0.4;
    const bool pin = seed > 100 || rng.uniform() < 0.35;
    std::vector<workload::JobSpec> jobs;
    const workload::FacebookBin* first = nullptr;
    for (int i = 0; i < n; ++i) {
        const workload::FacebookBin& bin = group && i == 1 ? *first : draw_bin(rng);
        if (i == 0) first = &bin;
        jobs.push_back(bin_job(rng, i + 1, bin));
    }
    if (group) {
        jobs[0].reuse_group = 1;
        jobs[1].reuse_group = 1;
    }
    if (pin) jobs.back().pinned_tier = cloud::kAllTiers[rng.below(cloud::kTierCount)];
    return workload::Workload(std::move(jobs));
}

/// The production defaults, seeded per instance.
CastOptions solver_options(std::uint64_t seed) {
    CastOptions o;
    o.annealing.seed = seed;
    return o;
}

/// Reached-optimum count and worst gap of one solver over the set.
struct GapStats {
    int optimal = 0;
    int instances = 0;
    double worst_gap = 0.0;

    void add(double utility, double optimum) {
        const double gap = 1.0 - utility / optimum;
        ++instances;
        if (gap <= 1e-12) ++optimal;
        worst_gap = std::max(worst_gap, gap);
    }
};

/// The utility of `plan` under the reference evaluator, checked against
/// what the solver reported.
double reference_utility(const PlanEvaluator& evaluator, const CastResult& result) {
    const PlanEvaluation ref = evaluator.evaluate(result.plan);
    EXPECT_TRUE(ref.feasible) << ref.infeasibility;
    EXPECT_EQ(ref.utility, result.evaluation.utility);
    return ref.utility;
}

TEST(OptimalityGap, CastAndCastPlusPlusHoldTheirRecordedGaps) {
    const model::PerfModelSet& models = testing::paper_models();
    const std::vector<double> factors = AnnealingOptions{}.overprov_choices;
    ASSERT_EQ(factors.size(), 9u);

    GapStats cast_stats;
    GapStats castpp_stats;
    GapStats greedy_stats;
    GapStats greedypp_stats;
    for (const std::uint64_t seed : instance_seeds()) {
        SCOPED_TRACE("instance " + std::to_string(seed));
        const workload::Workload workload = make_instance(seed);
        const CastOptions options = solver_options(seed);
        for (const bool reuse_aware : {false, true}) {
            const PlanEvaluator evaluator(models, workload,
                                          EvalOptions{.reuse_aware = reuse_aware});
            const reference::ExhaustiveOptimum opt =
                reference::exhaustive_optimum(evaluator, factors);
            ASSERT_TRUE(opt.plan.has_value()) << "no feasible plan";
            const double optimum = opt.evaluation.utility;

            const CastResult solved = reuse_aware
                                          ? plan_cast_plus_plus(models, workload, options)
                                          : plan_cast(models, workload, options);
            const CastResult greedy = plan_cast_greedy(models, workload, options, reuse_aware);
            const double u = reference_utility(evaluator, solved);
            const double g = reference_utility(evaluator, greedy);
            EXPECT_LE(u, optimum) << "a solver beat the exhaustive optimum";
            (reuse_aware ? castpp_stats : cast_stats).add(u, optimum);
            (reuse_aware ? greedypp_stats : greedy_stats).add(g, optimum);
            std::printf("instance %3llu %-6s plans %7zu feasible %7zu  gap %.3e  greedy %.3e\n",
                        static_cast<unsigned long long>(seed), reuse_aware ? "CAST++" : "CAST",
                        opt.scored, opt.feasible, 1.0 - u / optimum, 1.0 - g / optimum);
        }
    }
    const auto report = [](const char* name, const GapStats& s) {
        std::printf("%-13s optimum reached %2d/%d  worst gap %.17g\n", name, s.optimal,
                    s.instances, s.worst_gap);
    };
    report("CAST", cast_stats);
    report("CAST++", castpp_stats);
    report("greedy", greedy_stats);
    report("greedy (++)", greedypp_stats);

    // Recorded before the order-free sums; see the header.
    ASSERT_EQ(cast_stats.instances, 22);
    EXPECT_GE(cast_stats.optimal, 22);
    EXPECT_LE(cast_stats.worst_gap, 1e-12);
    EXPECT_GE(castpp_stats.optimal, 22);
    EXPECT_LE(castpp_stats.worst_gap, 1e-12);
}

// ---------------------------------------------------------------------------
// Workflow deadline mode.
// ---------------------------------------------------------------------------

/// The workflow seed set: instances 1-10 have 3 jobs, 101-102 have 4.
std::vector<std::uint64_t> workflow_seeds() {
    std::vector<std::uint64_t> seeds;
    for (std::uint64_t s = 1; s <= 10; ++s) seeds.push_back(s);
    seeds.push_back(101);
    seeds.push_back(102);
    return seeds;
}

/// The annealer's factor menu, shortened per instance size.
AnnealingOptions workflow_options(std::uint64_t seed) {
    AnnealingOptions o;
    o.seed = seed;
    o.overprov_choices = seed > 100 ? std::vector<double>{1.0, 2.0, 4.0}
                                    : std::vector<double>{1.0, 1.5, 2.0, 4.0, 8.0};
    return o;
}

/// Seeded workflow: each job after the first is fed by a random earlier
/// one (the last of a 4-job instance by a second one too, when it can
/// be), one job may carry a pin, and the deadline is drawn around the
/// all-persSSD runtime. Instance 7's deadline is one second, which no
/// plan meets.
workload::Workflow make_workflow_instance(std::uint64_t seed) {
    Rng rng(seed * 104723 + 5);
    const int n = seed > 100 ? 4 : 3;
    std::vector<workload::JobSpec> jobs;
    std::vector<workload::WorkflowEdge> edges;
    for (int i = 0; i < n; ++i) {
        jobs.push_back(bin_job(rng, i + 1, draw_bin(rng)));
        if (i > 0) {
            const int from = 1 + static_cast<int>(rng.below(static_cast<std::uint64_t>(i)));
            edges.push_back({.from_job = from, .to_job = i + 1});
            if (i == n - 1 && n == 4 && from != 1) {
                edges.push_back({.from_job = 1, .to_job = n});
            }
        }
    }
    const workload::Workflow probe("wf" + std::to_string(seed), jobs, edges, Seconds{1.0});
    const WorkflowEvaluation pers = WorkflowEvaluator(testing::paper_models(), probe)
                                        .evaluate(WorkflowPlan::uniform(
                                            jobs.size(), cloud::StorageTier::kPersistentSsd));
    const double deadline =
        seed == 7 ? 1.0 : pers.total_runtime.value() * (0.4 + 1.2 * rng.uniform());
    if (seed % 3 == 0) {
        const cloud::StorageTier tier = cloud::kAllTiers[rng.below(cloud::kTierCount)];
        jobs[rng.below(jobs.size())].pinned_tier = tier;
    }
    return workload::Workflow(probe.name(), std::move(jobs), std::move(edges),
                              Seconds{deadline});
}

/// The solver's factor menu: the options' factors plus the three around
/// the per-VM capacity where persSSD saturates, as WorkflowSolver and the
/// reference workflow annealer build it.
std::vector<double> solver_menu(const WorkflowEvaluator& evaluator,
                                const AnnealingOptions& options) {
    std::vector<double> menu = options.overprov_choices;
    const std::size_t n = evaluator.workflow().size();
    const WorkflowPlan probe = WorkflowPlan::uniform(n, cloud::StorageTier::kPersistentSsd);
    double total_req = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        total_req += evaluator.job_requirement(probe, i).value();
    }
    if (total_req > 0.0) {
        const double saturating =
            550.0 * evaluator.models().cluster().worker_count / total_req;
        if (saturating > 1.0) {
            menu.push_back(std::max(1.0, saturating / 2.0));
            menu.push_back(saturating);
            menu.push_back(saturating * 1.5);
        }
    }
    return menu;
}

TEST(OptimalityGap, WorkflowSolverHoldsItsRecordedGap) {
    const model::PerfModelSet& models = testing::paper_models();
    GapStats solver_stats;
    GapStats greedy_stats;
    int pinned = 0;
    int unmet = 0;
    for (const std::uint64_t seed : workflow_seeds()) {
        SCOPED_TRACE("workflow instance " + std::to_string(seed));
        const WorkflowEvaluator evaluator(models, make_workflow_instance(seed));
        const AnnealingOptions options = workflow_options(seed);
        const reference::ReferenceWorkflowAnnealer ref(evaluator, options);
        const auto score = [&](const WorkflowEvaluation& e) { return ref.score(e); };
        const std::vector<double> menu = solver_menu(evaluator, options);
        const reference::ExhaustiveWorkflowOptimum opt =
            reference::exhaustive_workflow_optimum(evaluator, menu, score);
        ASSERT_TRUE(opt.plan.has_value()) << "no feasible plan";
        ASSERT_LE(opt.scored, 500000u);

        const WorkflowSolver solver(evaluator, options);
        const WorkflowSolveResult solved = solver.solve();
        const WorkflowSolveResult greedy = solver.solve_greedy();
        const double s = score(evaluator.evaluate(solved.plan));
        const double g = score(evaluator.evaluate(greedy.plan));
        EXPECT_EQ(s, score(solved.evaluation));
        EXPECT_LE(s, opt.score) << "the solver beat the exhaustive optimum";
        const double gap = (opt.score - s) / std::fabs(opt.score);
        const double greedy_gap = (opt.score - g) / std::fabs(opt.score);
        ++solver_stats.instances;
        ++greedy_stats.instances;
        if (gap <= 1e-12) ++solver_stats.optimal;
        if (greedy_gap <= 1e-12) ++greedy_stats.optimal;
        solver_stats.worst_gap = std::max(solver_stats.worst_gap, gap);
        greedy_stats.worst_gap = std::max(greedy_stats.worst_gap, greedy_gap);
        const bool has_pin =
            std::ranges::any_of(evaluator.workflow().jobs(),
                                [](const auto& j) { return j.pinned_tier.has_value(); });
        pinned += has_pin ? 1 : 0;
        unmet += opt.meeting == 0 ? 1 : 0;
        std::printf("workflow %3llu jobs %zu plans %7zu feasible %7zu meeting %7zu%s  "
                    "gap %.3e  greedy %.3e\n",
                    static_cast<unsigned long long>(seed), evaluator.workflow().size(),
                    opt.scored, opt.feasible, opt.meeting, has_pin ? " pinned" : "", gap,
                    greedy_gap);
    }
    std::printf("%-13s optimum reached %2d/%d  worst gap %.17g\n", "WorkflowSolver",
                solver_stats.optimal, solver_stats.instances, solver_stats.worst_gap);
    std::printf("%-13s optimum reached %2d/%d  worst gap %.17g\n", "solve_greedy",
                greedy_stats.optimal, greedy_stats.instances, greedy_stats.worst_gap);
    EXPECT_GT(pinned, 0);
    EXPECT_GT(unmet, 0);

    ASSERT_EQ(solver_stats.instances, 12);
    EXPECT_GE(solver_stats.optimal, 12);
    EXPECT_LE(solver_stats.worst_gap, 1e-12);
}

}  // namespace
}  // namespace cast::core
