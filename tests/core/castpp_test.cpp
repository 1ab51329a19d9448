#include "core/castpp.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <set>
#include <string>

#include "common/rng.hpp"
#include "core/eval_cache.hpp"
#include "test_support.hpp"
#include "workload/facebook.hpp"

namespace cast::core {
namespace {

using cloud::StorageTier;
using workload::AppKind;

workload::JobSpec mk_job(int id, AppKind app, double gb,
                         std::optional<int> group = std::nullopt) {
    const int maps = std::max(1, static_cast<int>(gb / 0.128));
    return workload::JobSpec{.id = id,
                             .name = "j" + std::to_string(id),
                             .app = app,
                             .input = GigaBytes{gb},
                             .map_tasks = maps,
                             .reduce_tasks = std::max(1, maps / 4),
                             .reuse_group = group};
}

CastOptions fast_cast_options() {
    CastOptions o;
    o.annealing.iter_max = 2500;
    o.annealing.chains = 2;
    o.annealing.seed = 23;
    return o;
}

TEST(CastFacade, PlanIsFeasibleAndBeatsUniform) {
    const workload::Workload w(
        {mk_job(1, AppKind::kSort, 40.0), mk_job(2, AppKind::kJoin, 30.0),
         mk_job(3, AppKind::kGrep, 60.0), mk_job(4, AppKind::kKMeans, 25.0)});
    const auto result = plan_cast(testing::small_models(), w, fast_cast_options());
    ASSERT_TRUE(result.evaluation.feasible);
    PlanEvaluator eval(testing::small_models(), w);
    for (StorageTier t : cloud::kAllTiers) {
        const auto uniform = eval.evaluate(TieringPlan::uniform(w.size(), t));
        if (!uniform.feasible) continue;
        EXPECT_GE(result.evaluation.utility, uniform.utility - 1e-12)
            << "CAST lost to uniform " << cloud::tier_name(t);
    }
}

TEST(CastFacade, PlusPlusRespectsReuseGroups) {
    const workload::Workload w(
        {mk_job(1, AppKind::kGrep, 40.0, 1), mk_job(2, AppKind::kGrep, 40.0, 1),
         mk_job(3, AppKind::kGrep, 40.0, 1), mk_job(4, AppKind::kSort, 30.0),
         mk_job(5, AppKind::kKMeans, 25.0)});
    const auto result = plan_cast_plus_plus(testing::small_models(), w, fast_cast_options());
    ASSERT_TRUE(result.evaluation.feasible);
    EXPECT_TRUE(testing::respects_placement(w, result.plan));
}

TEST(CastFacade, SolverHonorsTierPin) {
    // Unpinned, this 1800 GB KMeans lands on persHDD (see greedy tests);
    // the pin must override the utility-optimal choice.
    auto pinned = mk_job(1, AppKind::kKMeans, 1800.0);
    pinned.pinned_tier = StorageTier::kPersistentSsd;
    const workload::Workload w({pinned, mk_job(2, AppKind::kSort, 40.0)});
    const auto result = plan_cast(testing::small_models(), w, fast_cast_options());
    ASSERT_TRUE(result.evaluation.feasible);
    EXPECT_EQ(result.plan.decision(0).tier, StorageTier::kPersistentSsd);
    EXPECT_EQ(result.greedy_initial.decision(0).tier, StorageTier::kPersistentSsd);
}

TEST(CastFacade, PinnedMemberAnchorsWholeReuseGroup) {
    auto a = mk_job(1, AppKind::kGrep, 40.0, 1);
    auto b = mk_job(2, AppKind::kGrep, 40.0, 1);
    b.pinned_tier = StorageTier::kObjectStore;
    const workload::Workload w({a, b, mk_job(3, AppKind::kSort, 30.0)});
    const auto result = plan_cast_plus_plus(testing::small_models(), w, fast_cast_options());
    ASSERT_TRUE(result.evaluation.feasible);
    EXPECT_EQ(result.plan.decision(0).tier, StorageTier::kObjectStore);
    EXPECT_EQ(result.plan.decision(1).tier, StorageTier::kObjectStore);
}

TEST(CastFacade, ConflictingGroupPinsRejectedWithClearError) {
    auto a = mk_job(1, AppKind::kGrep, 40.0, 1);
    auto b = mk_job(2, AppKind::kGrep, 40.0, 1);
    a.pinned_tier = StorageTier::kPersistentSsd;
    b.pinned_tier = StorageTier::kObjectStore;
    const workload::Workload w({a, b});
    try {
        (void)plan_cast_plus_plus(testing::small_models(), w, fast_cast_options());
        FAIL() << "expected ValidationError";
    } catch (const ValidationError& e) {
        EXPECT_NE(std::string(e.what()).find("reuse group"), std::string::npos);
        EXPECT_NE(std::string(e.what()).find("j1"), std::string::npos);
    }
}

TEST(CastFacade, PlusPlusBeatsCastOnReuseHeavyWorkload) {
    // With substantial sharing, reuse awareness must not lose (§5.1.3).
    std::vector<workload::JobSpec> jobs;
    int id = 1;
    for (int g = 1; g <= 3; ++g) {
        for (int k = 0; k < 3; ++k) {
            jobs.push_back(mk_job(id, AppKind::kGrep, 50.0, g));
            ++id;
        }
    }
    jobs.push_back(mk_job(id++, AppKind::kKMeans, 30.0));
    const workload::Workload w(jobs);
    const auto base = plan_cast(testing::small_models(), w, fast_cast_options());
    const auto pp = plan_cast_plus_plus(testing::small_models(), w, fast_cast_options());
    // Evaluate both with the reuse-aware evaluator (what the deployment
    // actually pays) — CAST++ must win or tie.
    PlanEvaluator aware(testing::small_models(), w, EvalOptions{.reuse_aware = true});
    TieringPlan base_projected = base.plan;
    for (const auto& [group, members] : w.reuse_groups()) {
        const auto lead = base_projected.decision(members.front());
        for (std::size_t m : members) base_projected.set_decision(m, lead);
    }
    const double u_base = aware.evaluate(base_projected).utility;
    EXPECT_GE(pp.evaluation.utility, u_base - 1e-9);
}

// --- Workflow evaluation.

class WorkflowEvalTest : public ::testing::Test {
protected:
    workload::Workflow wf = workload::make_search_log_workflow(Seconds{8000.0});
    WorkflowEvaluator eval{testing::small_models(), wf};
};

TEST_F(WorkflowEvalTest, UniformPlanEvaluates) {
    const auto e = eval.evaluate(WorkflowPlan::uniform(4, StorageTier::kPersistentSsd));
    ASSERT_TRUE(e.feasible);
    EXPECT_GT(e.total_runtime.value(), 0.0);
    EXPECT_EQ(e.job_runtimes.size(), 4u);
    EXPECT_EQ(e.transfer_times.size(), 3u);
    // Same tier everywhere: no cross-tier transfers.
    for (const auto& t : e.transfer_times) EXPECT_DOUBLE_EQ(t.value(), 0.0);
}

TEST_F(WorkflowEvalTest, PinViolationIsInfeasible) {
    std::vector<workload::JobSpec> jobs = wf.jobs();
    jobs[0].pinned_tier = StorageTier::kPersistentSsd;
    workload::Workflow pinned("pinned", std::move(jobs),
                              {wf.edges().begin(), wf.edges().end()}, wf.deadline());
    WorkflowEvaluator pinned_eval{testing::small_models(), pinned};
    const auto e = pinned_eval.evaluate(WorkflowPlan::uniform(4, StorageTier::kEphemeralSsd));
    EXPECT_FALSE(e.feasible);
    EXPECT_NE(e.infeasibility.find("pinned"), std::string::npos);
}

TEST_F(WorkflowEvalTest, CrossTierEdgesPayTransfers) {
    WorkflowPlan plan = WorkflowPlan::uniform(4, StorageTier::kPersistentSsd);
    plan.decisions[wf.index_of(3)] = {StorageTier::kEphemeralSsd, 1.0};  // Sort moves
    const auto e = eval.evaluate(plan);
    ASSERT_TRUE(e.feasible);
    double transfers = 0.0;
    for (const auto& t : e.transfer_times) transfers += t.value();
    EXPECT_GT(transfers, 0.0);
}

TEST_F(WorkflowEvalTest, Eq10InputCountedOnlyWhenNotResident) {
    WorkflowPlan same = WorkflowPlan::uniform(4, StorageTier::kPersistentSsd);
    // Join (job 4) has predecessors Sort and Pagerank on the same tier:
    // its input is resident.
    const GigaBytes with_resident = eval.job_requirement(same, wf.index_of(4));
    WorkflowPlan split = same;
    split.decisions[wf.index_of(3)] = {StorageTier::kPersistentHdd, 1.0};
    const GigaBytes without = eval.job_requirement(split, wf.index_of(4));
    EXPECT_NEAR(without.value() - with_resident.value(),
                wf.jobs()[wf.index_of(4)].input.value(), 1e-9);
}

TEST_F(WorkflowEvalTest, RootJobsAlwaysProvisionInput) {
    const WorkflowPlan plan = WorkflowPlan::uniform(4, StorageTier::kPersistentSsd);
    const std::size_t grep = wf.index_of(1);
    EXPECT_GE(eval.job_requirement(plan, grep).value(), wf.jobs()[grep].input.value());
}

TEST_F(WorkflowEvalTest, DeadlineFlagTracksDeadline) {
    const workload::Workflow tight = workload::make_search_log_workflow(Seconds{1.0});
    WorkflowEvaluator tight_eval(testing::small_models(), tight);
    const auto e = tight_eval.evaluate(WorkflowPlan::uniform(4, StorageTier::kPersistentSsd));
    ASSERT_TRUE(e.feasible);
    EXPECT_FALSE(e.meets_deadline);
    const workload::Workflow loose = workload::make_search_log_workflow(Seconds{1e7});
    WorkflowEvaluator loose_eval(testing::small_models(), loose);
    EXPECT_TRUE(loose_eval.evaluate(WorkflowPlan::uniform(4, StorageTier::kPersistentSsd))
                    .meets_deadline);
}

TEST_F(WorkflowEvalTest, TransferTimeSymmetricInVolumeAndBandwidth) {
    const Seconds t1 = eval.transfer_time(GigaBytes{10.0}, StorageTier::kPersistentSsd,
                                          GigaBytes{500.0}, StorageTier::kPersistentHdd,
                                          GigaBytes{500.0});
    const Seconds t2 = eval.transfer_time(GigaBytes{20.0}, StorageTier::kPersistentSsd,
                                          GigaBytes{500.0}, StorageTier::kPersistentHdd,
                                          GigaBytes{500.0});
    EXPECT_NEAR(t2.value(), 2.0 * t1.value(), 1e-9);
    EXPECT_DOUBLE_EQ(eval.transfer_time(GigaBytes{10.0}, StorageTier::kPersistentSsd,
                                        GigaBytes{500.0}, StorageTier::kPersistentSsd,
                                        GigaBytes{500.0})
                         .value(),
                     0.0);
}

// --- Delta evaluation: evaluate_into() with the walk's current state as
// its base must bit-equal a fresh reference evaluate() at every step.

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_bit_equal(const WorkflowEvaluation& got, const WorkflowEvaluation& want) {
    EXPECT_EQ(got.feasible, want.feasible);
    EXPECT_EQ(got.infeasibility, want.infeasibility);
    for (StorageTier t : cloud::kAllTiers) {
        const std::size_t i = cloud::tier_index(t);
        EXPECT_EQ(bits(got.capacities.aggregate[i].value()),
                  bits(want.capacities.aggregate[i].value()))
            << cloud::tier_name(t);
        EXPECT_EQ(bits(got.capacities.per_vm[i].value()),
                  bits(want.capacities.per_vm[i].value()))
            << cloud::tier_name(t);
    }
    ASSERT_EQ(got.job_runtimes.size(), want.job_runtimes.size());
    for (std::size_t i = 0; i < want.job_runtimes.size(); ++i) {
        EXPECT_EQ(bits(got.job_runtimes[i].value()), bits(want.job_runtimes[i].value()))
            << "job " << i;
    }
    ASSERT_EQ(got.transfer_times.size(), want.transfer_times.size());
    for (std::size_t k = 0; k < want.transfer_times.size(); ++k) {
        EXPECT_EQ(bits(got.transfer_times[k].value()), bits(want.transfer_times[k].value()))
            << "edge " << k;
    }
    EXPECT_EQ(bits(got.total_runtime.value()), bits(want.total_runtime.value()));
    EXPECT_EQ(bits(got.vm_cost.value()), bits(want.vm_cost.value()));
    EXPECT_EQ(bits(got.storage_cost.value()), bits(want.storage_cost.value()));
    EXPECT_EQ(got.meets_deadline, want.meets_deadline);
}

struct WalkStats {
    int feasible = 0;
    int pin_violations = 0;
    int overflows = 0;
    int infeasible_then_feasible = 0;
    int feasible_then_infeasible = 0;
    int accepts = 0;
};

/// A seeded walk of single-job moves shaped like the solver's: the
/// candidate is evaluated into a reused buffer against the current state
/// as base, then accepted (buffers swapped) or rejected. Infeasible
/// candidates are sometimes accepted too, so infeasible bases occur. The
/// factor menu reaches past every tier's per-VM limit, so capacity
/// overflows occur.
WalkStats delta_walk(const WorkflowEvaluator& eval, std::uint64_t seed, int steps,
                     EvalCache* cache) {
    constexpr double kFactors[] = {1.0, 1.25, 2.0, 3.0, 8.0, 40.0, 400.0};
    const std::size_t n = eval.workflow().size();
    Rng rng(seed);
    WorkflowPlan curr = WorkflowPlan::uniform(n, StorageTier::kPersistentSsd);
    WorkflowPlan next;
    WorkflowEvaluation curr_eval;
    WorkflowEvaluation next_eval;
    RegMemo memo;
    eval.evaluate_into(curr, memo, curr_eval);
    expect_bit_equal(curr_eval, eval.evaluate(curr));
    WalkStats stats;
    bool prev_feasible = curr_eval.feasible;
    for (int step = 0; step < steps; ++step) {
        next.decisions = curr.decisions;
        PlacementDecision& d = next.decisions[rng.below(n)];
        if (rng.uniform() < 0.6) {
            StorageTier t = d.tier;
            do {
                t = cloud::kAllTiers[rng.below(cloud::kAllTiers.size())];
            } while (t == d.tier);
            d.tier = t;
        } else {
            d.overprovision = kFactors[rng.below(std::size(kFactors))];
        }
        const WorkflowEvaluator::Base base{curr, curr_eval};
        eval.evaluate_into(next, memo, next_eval, &base);
        const WorkflowEvaluation want = eval.evaluate(next);
        SCOPED_TRACE("seed " + std::to_string(seed) + " step " + std::to_string(step));
        expect_bit_equal(next_eval, want);
        if (cache != nullptr) expect_bit_equal(eval.evaluate(next, cache), want);
        if (::testing::Test::HasFailure()) return stats;

        if (next_eval.feasible) {
            ++stats.feasible;
        } else if (next_eval.infeasibility.find("pinned") != std::string::npos) {
            ++stats.pin_violations;
        } else {
            ++stats.overflows;
        }
        stats.infeasible_then_feasible += !prev_feasible && next_eval.feasible ? 1 : 0;
        stats.feasible_then_infeasible += prev_feasible && !next_eval.feasible ? 1 : 0;
        prev_feasible = next_eval.feasible;
        if (rng.uniform() < (next_eval.feasible ? 0.6 : 0.2)) {
            std::swap(curr, next);
            std::swap(curr_eval, next_eval);
            ++stats.accepts;
        }
    }
    return stats;
}

void expect_walk_covers_every_case(const WalkStats& s, bool pinned) {
    EXPECT_GT(s.feasible, 0);
    EXPECT_GT(s.overflows, 0);
    EXPECT_GT(s.infeasible_then_feasible, 0);
    EXPECT_GT(s.feasible_then_infeasible, 0);
    EXPECT_GT(s.accepts, 0);
    if (pinned) {
        EXPECT_GT(s.pin_violations, 0);
    }
}

TEST(WorkflowDeltaEvaluation, SyntheticWorkflowsMatchReference) {
    for (const std::uint64_t wf_seed : {11u, 3u, 2024u}) {
        for (const auto& wf : workload::synthesize_deadline_workflows(wf_seed)) {
            SCOPED_TRACE(wf.name() + " (workflow seed " + std::to_string(wf_seed) + ")");
            const WorkflowEvaluator eval(testing::small_models(), wf);
            EvalCache cache;
            expect_walk_covers_every_case(delta_walk(eval, wf_seed * 31 + wf.size(), 1500,
                                                     &cache),
                                          /*pinned=*/false);
        }
    }
}

TEST(WorkflowDeltaEvaluation, SearchLogWorkflowMatchesReferenceWithAndWithoutCache) {
    const WorkflowEvaluator eval(testing::small_models(), workload::make_search_log_workflow());
    EvalCache cache;
    expect_walk_covers_every_case(delta_walk(eval, 5, 3000, &cache), /*pinned=*/false);
    expect_walk_covers_every_case(delta_walk(eval, 6, 3000, nullptr), /*pinned=*/false);
}

TEST(WorkflowDeltaEvaluation, PinnedWorkflowMatchesReference) {
    const workload::Workflow base = workload::make_search_log_workflow();
    std::vector<workload::JobSpec> jobs = base.jobs();
    jobs[0].pinned_tier = StorageTier::kPersistentSsd;
    jobs[3].pinned_tier = StorageTier::kPersistentSsd;
    const workload::Workflow pinned("pinned", std::move(jobs), base.edges(), base.deadline());
    const WorkflowEvaluator eval(testing::small_models(), pinned);
    EvalCache cache;
    expect_walk_covers_every_case(delta_walk(eval, 7, 3000, &cache), /*pinned=*/true);
}

TEST(WorkflowDeltaEvaluation, InfeasibleResultClearsAReusedBuffer) {
    // A feasible evaluation left in the buffer must not leak into a later
    // infeasible one, nor the reverse.
    const WorkflowEvaluator eval(testing::small_models(), workload::make_search_log_workflow());
    const WorkflowPlan ok = WorkflowPlan::uniform(4, StorageTier::kPersistentSsd);
    const WorkflowPlan overflow = WorkflowPlan::uniform(4, StorageTier::kEphemeralSsd, 400.0);
    WorkflowEvaluation buffer;
    RegMemo memo;
    eval.evaluate_into(ok, memo, buffer);
    ASSERT_TRUE(buffer.feasible);
    eval.evaluate_into(overflow, memo, buffer);
    ASSERT_FALSE(buffer.feasible);
    expect_bit_equal(buffer, eval.evaluate(overflow));
    EXPECT_TRUE(buffer.job_runtimes.empty());
    EXPECT_TRUE(buffer.transfer_times.empty());
    eval.evaluate_into(ok, memo, buffer);
    expect_bit_equal(buffer, eval.evaluate(ok));
}

// --- Workflow solver.

TEST(WorkflowSolver, MeetsGenerousDeadlineAtLowCost) {
    const workload::Workflow wf = workload::make_search_log_workflow(Seconds{50000.0});
    WorkflowEvaluator eval(testing::small_models(), wf);
    AnnealingOptions opts;
    opts.iter_max = 2000;
    opts.chains = 2;
    WorkflowSolver solver(eval, opts);
    const auto result = solver.solve();
    ASSERT_TRUE(result.evaluation.feasible);
    EXPECT_TRUE(result.evaluation.meets_deadline);
    // With a generous deadline the solver should find something at most as
    // expensive as all-persSSD.
    const auto ssd = eval.evaluate(WorkflowPlan::uniform(4, StorageTier::kPersistentSsd));
    EXPECT_LE(result.evaluation.total_cost().value(), ssd.total_cost().value() + 1e-9);
}

TEST(WorkflowSolver, PrefersDeadlineOverCost) {
    // With a deadline only fast tiers can meet, the solver must not pick
    // the cheapest (slow) configuration.
    const workload::Workflow wf = workload::make_search_log_workflow(Seconds{50000.0});
    WorkflowEvaluator loose(testing::small_models(), wf);
    AnnealingOptions opts;
    opts.iter_max = 2000;
    opts.chains = 2;
    const auto relaxed = WorkflowSolver(loose, opts).solve();
    ASSERT_TRUE(relaxed.evaluation.meets_deadline);

    // Tighten the deadline to just above the best runtime the relaxed
    // solver found; re-solve and require the deadline still holds.
    const double tight_deadline = relaxed.evaluation.total_runtime.value() * 1.5;
    const workload::Workflow wf_tight =
        workload::make_search_log_workflow(Seconds{tight_deadline});
    WorkflowEvaluator tight(testing::small_models(), wf_tight);
    const auto strict = WorkflowSolver(tight, opts).solve();
    EXPECT_TRUE(strict.evaluation.meets_deadline);
    EXPECT_GE(strict.evaluation.total_cost().value(),
              relaxed.evaluation.total_cost().value() - 1e-6);
}

TEST(WorkflowSolver, DeterministicChain) {
    const workload::Workflow wf = workload::make_search_log_workflow();
    WorkflowEvaluator eval(testing::small_models(), wf);
    AnnealingOptions opts;
    opts.iter_max = 800;
    opts.chains = 1;
    opts.seed = 42;
    WorkflowSolver solver(eval, opts);
    const auto a = solver.solve();
    const auto b = solver.solve();
    EXPECT_DOUBLE_EQ(a.evaluation.total_cost().value(), b.evaluation.total_cost().value());
    EXPECT_EQ(a.tempering.replicas, 1);
    EXPECT_EQ(a.iterations, opts.iter_max);
}

TEST(WorkflowSolver, RejectsInvalidOptions) {
    const workload::Workflow wf = workload::make_search_log_workflow();
    WorkflowEvaluator eval(testing::small_models(), wf);
    const auto rejects = [&](auto mutate) {
        AnnealingOptions opts;
        mutate(opts);
        EXPECT_THROW(WorkflowSolver(eval, opts), PreconditionError);
    };
    rejects([](AnnealingOptions& o) { o.chains = 0; });
    rejects([](AnnealingOptions& o) { o.initial_temperature = 0.0; });
    rejects([](AnnealingOptions& o) { o.cooling = 1.0; });
    rejects([](AnnealingOptions& o) { o.min_temperature = 0.0; });
    rejects([](AnnealingOptions& o) { o.tier_move_probability = -0.1; });
}

// --- Reuse scenarios (Fig. 3 economics).

TEST(ReuseScenario, RepeatRunsSkipDownloadOnEphemeral) {
    const auto job = mk_job(1, AppKind::kGrep, 40.0);
    const auto r = evaluate_reuse_scenario(testing::small_models(), job,
                                           StorageTier::kEphemeralSsd,
                                           workload::ReusePattern::one_hour());
    EXPECT_GT(r.first_run.value(), r.repeat_run.value());
}

TEST(ReuseScenario, PersistentTiersRunsIdentical) {
    const auto job = mk_job(1, AppKind::kGrep, 40.0);
    const auto r = evaluate_reuse_scenario(testing::small_models(), job,
                                           StorageTier::kPersistentSsd,
                                           workload::ReusePattern::one_hour());
    EXPECT_DOUBLE_EQ(r.first_run.value(), r.repeat_run.value());
}

TEST(ReuseScenario, TotalRuntimeComposition) {
    const auto job = mk_job(1, AppKind::kSort, 30.0);
    const auto pattern = workload::ReusePattern{5, Seconds::from_hours(2.0)};
    const auto r = evaluate_reuse_scenario(testing::small_models(), job,
                                           StorageTier::kPersistentHdd, pattern);
    EXPECT_NEAR(r.total_runtime.value(),
                r.first_run.value() + 4 * r.repeat_run.value(), 1e-9);
}

TEST(ReuseScenario, LongLifetimeInflatesEphemeralCost) {
    // §3.2: holding ephSSD data means holding the VMs; a week of that
    // dwarfs everything.
    const auto job = mk_job(1, AppKind::kGrep, 40.0);
    const auto week = evaluate_reuse_scenario(testing::small_models(), job,
                                              StorageTier::kEphemeralSsd,
                                              workload::ReusePattern::one_week());
    const auto hour = evaluate_reuse_scenario(testing::small_models(), job,
                                              StorageTier::kEphemeralSsd,
                                              workload::ReusePattern::one_hour());
    EXPECT_GT(week.vm_cost.value(), 20.0 * hour.vm_cost.value());
    EXPECT_LT(week.utility, hour.utility);
}

TEST(ReuseScenario, PersistentVmCostOnlyDuringRuns) {
    const auto job = mk_job(1, AppKind::kGrep, 40.0);
    const auto week = evaluate_reuse_scenario(testing::small_models(), job,
                                              StorageTier::kObjectStore,
                                              workload::ReusePattern::one_week());
    const auto& cluster = testing::small_models().cluster();
    EXPECT_NEAR(week.vm_cost.value(),
                cluster.price_per_minute().value() * week.total_runtime.minutes(), 1e-9);
}

}  // namespace
}  // namespace cast::core
