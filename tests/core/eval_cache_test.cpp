#include "core/eval_cache.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/annealing.hpp"
#include "core/castpp.hpp"
#include "core/reference_annealer.hpp"
#include "core/soa_eval.hpp"
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

workload::Workload mixed_workload() {
    return workload::Workload(
        {mk_job(1, AppKind::kSort, 320.0), mk_job(2, AppKind::kJoin, 240.0),
         mk_job(3, AppKind::kGrep, 480.0), mk_job(4, AppKind::kKMeans, 200.0),
         mk_job(5, AppKind::kSort, 160.0), mk_job(6, AppKind::kGrep, 280.0)});
}

// ---------------------------------------------------------------------------
// Memo-table unit behavior.
// ---------------------------------------------------------------------------

TEST(EvalCache, MemoizedLookupReturnsIdenticalBits) {
    const auto& models = testing::small_models();
    const auto job = mk_job(1, AppKind::kSort, 100.0);
    const auto legs = model::StagingLegs::for_tier(StorageTier::kPersistentSsd);
    EvalCache cache;
    const Seconds direct =
        models.job_runtime(job, StorageTier::kPersistentSsd, GigaBytes{120.0}, legs);
    const Seconds a =
        cache.job_runtime(models, job, StorageTier::kPersistentSsd, GigaBytes{120.0}, legs);
    const Seconds b =
        cache.job_runtime(models, job, StorageTier::kPersistentSsd, GigaBytes{120.0}, legs);
    EXPECT_EQ(a.value(), direct.value());
    EXPECT_EQ(b.value(), direct.value());
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.size(), 1u);
}

TEST(EvalCache, DistinguishesCapacityTierAndLegs) {
    const auto& models = testing::small_models();
    const auto job = mk_job(1, AppKind::kGrep, 80.0);
    EvalCache cache;
    const model::StagingLegs none{false, false};
    const model::StagingLegs both{true, true};
    (void)cache.job_runtime(models, job, StorageTier::kPersistentSsd, GigaBytes{100.0}, none);
    (void)cache.job_runtime(models, job, StorageTier::kPersistentSsd, GigaBytes{200.0}, none);
    (void)cache.job_runtime(models, job, StorageTier::kPersistentHdd, GigaBytes{100.0}, none);
    (void)cache.job_runtime(models, job, StorageTier::kPersistentSsd, GigaBytes{100.0}, both);
    EXPECT_EQ(cache.stats().misses, 4u);
    EXPECT_EQ(cache.stats().hits, 0u);
    EXPECT_EQ(cache.size(), 4u);
}

TEST(EvalCache, ObjectStoreCapacityCanonicalized) {
    // The profiled objStore models scale with the conventional intermediate
    // volume, never with provisioned capacity, so every capacity maps to
    // one cache entry.
    const auto& models = testing::small_models();
    ASSERT_TRUE(models.tier_model(AppKind::kSort, StorageTier::kObjectStore)
                    .scales_with_intermediate_volume);
    const auto job = mk_job(1, AppKind::kSort, 60.0);
    const model::StagingLegs legs{false, false};
    EvalCache cache;
    const Seconds a =
        cache.job_runtime(models, job, StorageTier::kObjectStore, GigaBytes{10.0}, legs);
    const Seconds b =
        cache.job_runtime(models, job, StorageTier::kObjectStore, GigaBytes{700.0}, legs);
    EXPECT_EQ(a.value(), b.value());
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.size(), 1u);
}

// ---------------------------------------------------------------------------
// Golden equivalence: the SoA candidate evaluation (incremental, REG split)
// == the uncached full evaluation, bit for bit, across a long randomized
// neighbor walk on the paper workload.
// ---------------------------------------------------------------------------

/// The staged candidate's evaluation as a PlanEvaluation (valid right after
/// a feasible evaluate_candidate).
PlanEvaluation candidate_evaluation(const SoaState& state) {
    PlanEvaluation eval;
    eval.feasible = true;
    eval.total_runtime = Seconds{state.cand_total};
    eval.vm_cost = Dollars{state.cand_vm};
    eval.storage_cost = Dollars{state.cand_storage};
    eval.utility = state.cand_utility;
    eval.capacities = state.cand_caps;
    for (const double t : state.runtime) eval.job_runtimes.push_back(Seconds{t});
    return eval;
}

void expect_bit_identical(const PlanEvaluation& candidate, const PlanEvaluation& full,
                          int step) {
    ASSERT_EQ(candidate.feasible, full.feasible) << "step " << step;
    ASSERT_EQ(candidate.total_runtime.value(), full.total_runtime.value()) << "step " << step;
    ASSERT_EQ(candidate.vm_cost.value(), full.vm_cost.value()) << "step " << step;
    ASSERT_EQ(candidate.storage_cost.value(), full.storage_cost.value()) << "step " << step;
    ASSERT_EQ(candidate.utility, full.utility) << "step " << step;
    ASSERT_EQ(candidate.job_runtimes.size(), full.job_runtimes.size());
    for (std::size_t i = 0; i < full.job_runtimes.size(); ++i) {
        ASSERT_EQ(candidate.job_runtimes[i].value(), full.job_runtimes[i].value())
            << "step " << step << " job " << i;
    }
    for (StorageTier t : cloud::kAllTiers) {
        ASSERT_EQ(candidate.capacities.aggregate_of(t).value(),
                  full.capacities.aggregate_of(t).value())
            << "step " << step;
        ASSERT_EQ(candidate.capacities.per_vm_of(t).value(),
                  full.capacities.per_vm_of(t).value())
            << "step " << step;
    }
}

void golden_walk(bool reuse_aware) {
    const workload::Workload w = workload::synthesize_facebook_workload(7);
    PlanEvaluator eval(testing::small_models(), w, EvalOptions{.reuse_aware = reuse_aware});
    const reference::ReferenceAnnealer proposer(eval, AnnealingOptions{});
    const auto units = proposer.move_units();

    EvalCache cache;
    TieringPlan curr = TieringPlan::uniform(w.size(), StorageTier::kPersistentSsd);
    const PlanEvaluation start_eval = eval.evaluate(curr, &cache);
    ASSERT_TRUE(start_eval.feasible);
    const SoaEvaluator soa(eval);
    SoaState state;
    soa.init(state, curr, start_eval);

    Rng rng(99);
    std::vector<std::size_t> changed;
    int accepted = 0;
    for (int step = 0; step < 1200; ++step) {
        const TieringPlan next = proposer.propose_neighbor(rng, curr, units, changed);
        if (changed.empty()) continue;
        for (const std::size_t j : changed) {
            const PlacementDecision& d = next.decision(j);
            soa.set_decision(state, j, static_cast<std::uint8_t>(cloud::tier_index(d.tier)),
                             d.overprovision);
        }
        const bool feasible = soa.evaluate_candidate(state, changed);
        const PlanEvaluation full_eval = eval.evaluate(next);  // fresh, uncached
        if (!feasible) {
            ASSERT_FALSE(full_eval.feasible) << "step " << step;
            soa.revert(state);
            continue;
        }
        expect_bit_identical(candidate_evaluation(state), full_eval, step);
        soa.commit(state);
        curr = next;
        ++accepted;
    }
    // The walk must actually move, and the start evaluation's memo table
    // must actually bite (the candidates themselves never look it up).
    EXPECT_GT(accepted, 100);
    EXPECT_GT(cache.stats().hit_rate(), 0.5);
}

TEST(EvalCacheGolden, SoaCandidateMatchesFullEvaluationReuseOblivious) {
    golden_walk(false);
}

TEST(EvalCacheGolden, SoaCandidateMatchesFullEvaluationReuseAware) {
    golden_walk(true);
}

TEST(EvalCacheGolden, SharedCacheAcrossParallelChainsMatchesSerial) {
    // Eight chains sharing one solve's memo table through the ThreadPool
    // must be both race-free (the TSAN lane runs this test) and
    // bit-identical to the serial solve.
    PlanEvaluator eval(testing::small_models(), mixed_workload());
    AnnealingOptions opts;
    opts.iter_max = 800;
    opts.chains = 8;
    opts.seed = 23;
    AnnealingSolver solver(eval, opts);
    const TieringPlan init = TieringPlan::uniform(6, StorageTier::kPersistentSsd);
    ThreadPool pool(4);
    EvalCache cache;
    const auto parallel = solver.solve(init, &pool, &cache);
    const auto serial = solver.solve(init, nullptr);
    EXPECT_EQ(parallel.evaluation.utility, serial.evaluation.utility);
    EXPECT_EQ(parallel.iterations, serial.iterations);
    EXPECT_EQ(parallel.accepted_moves, serial.accepted_moves);
    EXPECT_EQ(parallel.best_chain, serial.best_chain);
    for (std::size_t i = 0; i < parallel.plan.size(); ++i) {
        EXPECT_EQ(parallel.plan.decision(i).tier, serial.plan.decision(i).tier);
        EXPECT_EQ(parallel.plan.decision(i).overprovision,
                  serial.plan.decision(i).overprovision);
    }
    EXPECT_GT(parallel.cache_stats.lookups(), 0u);
    // The chains score candidates without the table: only the start-plan
    // evaluations look it up, so doubling the iterations adds no lookups.
    AnnealingOptions longer = opts;
    longer.iter_max = 2 * opts.iter_max;
    EvalCache longer_cache;
    const auto doubled = AnnealingSolver(eval, longer).solve(init, &pool, &longer_cache);
    EXPECT_EQ(doubled.cache_stats.lookups(), parallel.cache_stats.lookups());
}

// ---------------------------------------------------------------------------
// Move-generator regressions (pins + per-unit app membership).
// ---------------------------------------------------------------------------

TEST(AnnealingMoves, AppMoveRelocatesUnitsByMembership) {
    // Reuse group whose FIRST member is Grep but which contains a Sort job:
    // a Sort batch move must relocate the whole group (the old generator
    // classified the unit by its front job and would never move it), while
    // the solo Grep job stays put.
    const workload::Workload w({mk_job(1, AppKind::kGrep, 30.0, 1),
                                mk_job(2, AppKind::kSort, 30.0, 1),
                                mk_job(3, AppKind::kGrep, 20.0)});
    PlanEvaluator eval(testing::small_models(), w, EvalOptions{.reuse_aware = true});
    AnnealingOptions opts;
    opts.app_move_probability = 1.0;
    opts.tier_move_probability = 0.0;
    const reference::ReferenceAnnealer solver(eval, opts);
    const auto units = solver.move_units();

    const TieringPlan curr = TieringPlan::uniform(3, StorageTier::kPersistentSsd);
    Rng rng(5);
    std::vector<std::size_t> changed;
    bool group_moved_alone = false;
    for (int i = 0; i < 400; ++i) {
        const TieringPlan next = solver.propose_neighbor(rng, curr, units, changed);
        // Eq. 7 must hold structurally on every proposal.
        EXPECT_EQ(next.decision(0).tier, next.decision(1).tier);
        std::vector<std::size_t> sorted = changed;
        std::sort(sorted.begin(), sorted.end());
        if (sorted == std::vector<std::size_t>{0, 1}) group_moved_alone = true;
    }
    // Only a Sort draw moves the group without the solo Grep job; seeing it
    // proves membership is per-unit, not front-job.
    EXPECT_TRUE(group_moved_alone);
}

TEST(AnnealingMoves, AppMoveRespectsTierPins) {
    workload::JobSpec pinned = mk_job(1, AppKind::kSort, 40.0);
    pinned.pinned_tier = StorageTier::kPersistentSsd;
    const workload::Workload w({pinned, mk_job(2, AppKind::kSort, 50.0),
                                mk_job(3, AppKind::kGrep, 30.0)});
    PlanEvaluator eval(testing::small_models(), w);
    AnnealingOptions opts;
    opts.app_move_probability = 1.0;
    opts.tier_move_probability = 0.0;
    const reference::ReferenceAnnealer solver(eval, opts);
    const auto units = solver.move_units();

    TieringPlan curr = TieringPlan::uniform(3, StorageTier::kPersistentSsd);
    Rng rng(11);
    std::vector<std::size_t> changed;
    bool unpinned_sort_moved = false;
    for (int i = 0; i < 400; ++i) {
        const TieringPlan next = solver.propose_neighbor(rng, curr, units, changed);
        EXPECT_EQ(next.decision(0).tier, StorageTier::kPersistentSsd)
            << "pinned job moved on proposal " << i;
        if (next.decision(1).tier != curr.decision(1).tier) unpinned_sort_moved = true;
        if (!changed.empty()) curr = next;  // keep walking
    }
    // The pin must constrain only its own job, not its whole app class.
    EXPECT_TRUE(unpinned_sort_moved);
}

TEST(AnnealingMoves, TierMoveDegradesToFactorMoveWhenFullyPinned) {
    workload::JobSpec pinned = mk_job(1, AppKind::kKMeans, 35.0);
    pinned.pinned_tier = StorageTier::kPersistentHdd;
    const workload::Workload w({pinned});
    PlanEvaluator eval(testing::small_models(), w);
    AnnealingOptions opts;
    opts.app_move_probability = 0.0;
    opts.tier_move_probability = 1.0;
    const reference::ReferenceAnnealer solver(eval, opts);
    const auto units = solver.move_units();

    TieringPlan curr = TieringPlan::uniform(1, StorageTier::kPersistentHdd);
    Rng rng(3);
    std::vector<std::size_t> changed;
    bool factor_changed = false;
    for (int i = 0; i < 100; ++i) {
        const TieringPlan next = solver.propose_neighbor(rng, curr, units, changed);
        EXPECT_EQ(next.decision(0).tier, StorageTier::kPersistentHdd);
        if (next.decision(0).overprovision != curr.decision(0).overprovision) {
            factor_changed = true;
            curr = next;
        }
    }
    EXPECT_TRUE(factor_changed);
}

TEST(AnnealingMoves, FullyPinnedChainProposesNoInfeasibleNeighbors) {
    // With every job pinned, the old generator kept proposing pin-violating
    // tier moves that evaluation then rejected; the fixed generator never
    // wastes an iteration on one.
    std::vector<workload::JobSpec> jobs;
    for (int i = 1; i <= 4; ++i) {
        workload::JobSpec j = mk_job(i, AppKind::kGrep, 20.0 + i);
        j.pinned_tier = StorageTier::kPersistentSsd;
        jobs.push_back(std::move(j));
    }
    PlanEvaluator eval(testing::small_models(), workload::Workload(jobs));
    AnnealingOptions opts;
    opts.iter_max = 2000;
    opts.chains = 1;
    opts.seed = 9;
    AnnealingSolver solver(eval, opts);
    const auto result = solver.solve(TieringPlan::uniform(4, StorageTier::kPersistentSsd));
    EXPECT_EQ(result.infeasible_neighbors, 0);
    EXPECT_EQ(result.iterations, opts.iter_max);
    EXPECT_TRUE(result.evaluation.feasible);
}

TEST(AnnealingMoves, ChangedListMatchesActualPlanDiff) {
    PlanEvaluator eval(testing::small_models(), mixed_workload());
    const reference::ReferenceAnnealer solver(eval, AnnealingOptions{});
    const auto units = solver.move_units();
    TieringPlan curr = TieringPlan::uniform(6, StorageTier::kPersistentSsd);
    Rng rng(31);
    std::vector<std::size_t> changed;
    for (int i = 0; i < 500; ++i) {
        const TieringPlan next = solver.propose_neighbor(rng, curr, units, changed);
        std::vector<std::size_t> diff;
        for (std::size_t j = 0; j < curr.size(); ++j) {
            if (curr.decision(j).tier != next.decision(j).tier ||
                curr.decision(j).overprovision != next.decision(j).overprovision) {
                diff.push_back(j);
            }
        }
        std::vector<std::size_t> sorted = changed;
        std::sort(sorted.begin(), sorted.end());
        EXPECT_EQ(sorted, diff) << "proposal " << i;
        curr = next;
    }
}

// ---------------------------------------------------------------------------
// Search-effort counters.
// ---------------------------------------------------------------------------

TEST(AnnealingCounters, SolveAggregatesAcrossChains) {
    PlanEvaluator eval(testing::small_models(), mixed_workload());
    AnnealingOptions opts;
    opts.iter_max = 1000;
    opts.chains = 3;
    opts.seed = 17;
    AnnealingSolver solver(eval, opts);
    const TieringPlan init = TieringPlan::uniform(6, StorageTier::kPersistentSsd);
    const auto result = solver.solve(init);

    // iterations: the sum of every replica's iterations, each iter_max.
    ASSERT_EQ(result.tempering.replica_iterations.size(), 3u);
    int iterations = 0;
    for (const int n : result.tempering.replica_iterations) {
        EXPECT_EQ(n, opts.iter_max);
        iterations += n;
    }
    EXPECT_EQ(result.iterations, iterations);
    EXPECT_GE(result.best_chain, 0);
    EXPECT_LT(result.best_chain, 3);
    EXPECT_GT(result.cache_stats.lookups(), 0u);

    // accepted_moves/infeasible_neighbors: the sums over the same ladder
    // run by the reference annealer (uncached, so the counters are
    // cache-independent).
    const auto ref = reference::ReferenceAnnealer(eval, opts).solve(init);
    EXPECT_GT(result.accepted_moves, 0);
    EXPECT_EQ(result.accepted_moves, ref.accepted_moves);
    EXPECT_EQ(result.infeasible_neighbors, ref.infeasible_neighbors);
    EXPECT_EQ(result.best_chain, ref.best_chain);
    EXPECT_EQ(result.evaluation.utility, ref.evaluation.utility);
}

TEST(WorkflowCounters, SolveAggregatesAcrossChains) {
    const workload::Workflow wf = workload::make_search_log_workflow(Seconds{1e6});
    WorkflowEvaluator eval(testing::small_models(), wf);
    AnnealingOptions opts;
    opts.iter_max = 300;
    opts.chains = 2;
    WorkflowSolver solver(eval, opts);
    const auto result = solver.solve();
    EXPECT_EQ(result.iterations, 2 * opts.iter_max);
    EXPECT_GE(result.best_chain, -1);  // -1 = uniform fallback won
    EXPECT_LT(result.best_chain, 2);
    EXPECT_GT(result.cache_stats.lookups(), 0u);
    EXPECT_GT(result.cache_stats.hit_rate(), 0.0);
}

}  // namespace
}  // namespace cast::core
