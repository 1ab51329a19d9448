// SoA undo-log revert coverage: rejected candidates must restore the
// committed state bit-for-bit, including the paths the annealing loop
// exercises rarely — provider-capacity throws, zero-length staging legs
// (persSSD <-> persHDD moves stage nothing), and stacked undo entries for
// one job. Candidates are never checked for pins or Eq. 7 (the move units
// keep both), so init's one seed check is covered here too.
#include "core/soa_eval.hpp"

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "core/utility.hpp"
#include "test_support.hpp"

namespace cast::core {
namespace {

using cloud::StorageTier;
using cloud::tier_index;
using workload::AppKind;

workload::JobSpec mk_job(int id, AppKind app, double gb) {
    const int maps = std::max(1, static_cast<int>(gb / 0.128));
    return workload::JobSpec{.id = id,
                             .name = "j" + std::to_string(id),
                             .app = app,
                             .input = GigaBytes{gb},
                             .map_tasks = maps,
                             .reduce_tasks = std::max(1, maps / 4)};
}

/// Snapshot of every committed field revert() must restore.
struct Committed {
    std::vector<std::uint8_t> tier;
    std::vector<double> overprov;
    std::vector<double> runtime;
    CapacityBreakdown caps;
    double total_runtime;
    double vm_cost;
    double storage_cost;
    double utility;
};

Committed snapshot(const SoaState& state) {
    return Committed{state.tier,          state.overprov,     state.runtime,
                     state.caps,          state.total_runtime, state.vm_cost,
                     state.storage_cost,  state.utility};
}

/// The plan the flat arrays hold (the candidate while one is staged).
TieringPlan plan_of(const SoaState& state) {
    std::vector<PlacementDecision> decisions;
    for (std::size_t i = 0; i < state.tier.size(); ++i) {
        decisions.push_back({cloud::kAllTiers[state.tier[i]], state.overprov[i]});
    }
    return TieringPlan{std::move(decisions)};
}

/// The PreconditionError message init throws for `plan`, or "" when it
/// accepts it. `eval` is a feasible evaluation of `plan` by a twin
/// evaluator without the placement constraint under test, so only init's
/// own seed check can refuse it.
std::string init_error(const SoaEvaluator& soa, const TieringPlan& plan,
                       const PlanEvaluation& eval) {
    SoaState state;
    try {
        soa.init(state, plan, eval);
    } catch (const PreconditionError& e) {
        return e.what();
    }
    return "";
}

void expect_restored(const SoaState& state, const Committed& want) {
    EXPECT_EQ(state.tier, want.tier);
    EXPECT_EQ(state.overprov, want.overprov);
    EXPECT_EQ(state.runtime, want.runtime);
    for (std::size_t t = 0; t < cloud::kTierCount; ++t) {
        EXPECT_EQ(state.caps.aggregate[t].value(), want.caps.aggregate[t].value());
        EXPECT_EQ(state.caps.per_vm[t].value(), want.caps.per_vm[t].value());
    }
    EXPECT_EQ(state.total_runtime, want.total_runtime);
    EXPECT_EQ(state.vm_cost, want.vm_cost);
    EXPECT_EQ(state.storage_cost, want.storage_cost);
    EXPECT_EQ(state.utility, want.utility);
    EXPECT_TRUE(state.decision_undo.empty());
    EXPECT_TRUE(state.runtime_undo.empty());
}

class SoaUndoTest : public ::testing::Test {
protected:
    /// Seed an SoA state from a uniform persSSD plan over `workload`.
    static void seed(const PlanEvaluator& eval, SoaState& state, const SoaEvaluator& soa,
                     StorageTier tier = StorageTier::kPersistentSsd) {
        TieringPlan plan = TieringPlan::uniform(eval.workload().size(), tier);
        for (std::size_t i = 0; i < eval.workload().size(); ++i) {
            if (eval.workload().job(i).pinned_tier) {
                plan.set_decision(i,
                                  PlacementDecision{*eval.workload().job(i).pinned_tier, 1.0});
            }
        }
        const PlanEvaluation pe = eval.evaluate(plan);
        ASSERT_TRUE(pe.feasible);
        soa.init(state, plan, pe);
    }
};

// A capacity-shifting move populates BOTH undo logs (every persSSD
// resident re-derives its runtime); revert must restore all of it.
TEST_F(SoaUndoTest, RevertRestoresStateAfterFeasibleCandidate) {
    const PlanEvaluator eval(
        testing::small_models(),
        workload::Workload({mk_job(1, AppKind::kSort, 320.0), mk_job(2, AppKind::kJoin, 240.0),
                            mk_job(3, AppKind::kGrep, 480.0)}));
    const SoaEvaluator soa(eval);
    SoaState state;
    seed(eval, state, soa);
    const Committed want = snapshot(state);

    soa.set_decision(state, 0, static_cast<std::uint8_t>(tier_index(StorageTier::kPersistentHdd)),
                     2.0);
    const std::size_t changed[] = {0};
    ASSERT_TRUE(soa.evaluate_candidate(state, changed));
    EXPECT_FALSE(state.runtime_undo.empty());  // persSSD capacity shifted

    soa.revert(state);
    expect_restored(state, want);

    // The restored state still evaluates exactly as before: a no-op
    // candidate reproduces the committed scalars bitwise.
    ASSERT_TRUE(soa.evaluate_candidate(state, std::span<const std::size_t>{}));
    EXPECT_EQ(state.cand_utility, want.utility);
    EXPECT_EQ(state.cand_total, want.total_runtime);
}

// The seed gate: a seed that breaks a tier pin never enters the flat
// state, because no candidate is checked against pins afterwards.
TEST_F(SoaUndoTest, InitRejectsPinBreakingSeed) {
    workload::JobSpec pinned = mk_job(1, AppKind::kSort, 320.0);
    pinned.pinned_tier = StorageTier::kPersistentSsd;
    const workload::JobSpec other = mk_job(2, AppKind::kJoin, 240.0);
    const PlanEvaluator eval(testing::small_models(), workload::Workload({pinned, other}));
    const PlanEvaluator unpinned(testing::small_models(),
                                 workload::Workload({mk_job(1, AppKind::kSort, 320.0), other}));
    const SoaEvaluator soa(eval);

    const TieringPlan off_pin = TieringPlan::uniform(2, StorageTier::kPersistentHdd);
    const PlanEvaluation pe = unpinned.evaluate(off_pin);
    ASSERT_TRUE(pe.feasible);
    EXPECT_NE(init_error(soa, off_pin, pe).find("pinned"), std::string::npos);

    const TieringPlan on_pin = TieringPlan::uniform(2, StorageTier::kPersistentSsd);
    EXPECT_EQ(init_error(soa, on_pin, eval.evaluate(on_pin)), "");
}

// The seed gate for Eq. 7: a reuse-aware evaluator refuses a seed that
// splits a reuse group; a reuse-oblivious one has no such constraint.
TEST_F(SoaUndoTest, InitRejectsGroupSplittingSeed) {
    workload::JobSpec a = mk_job(1, AppKind::kSort, 200.0);
    workload::JobSpec b = mk_job(2, AppKind::kGrep, 200.0);
    a.reuse_group = 3;
    b.reuse_group = 3;
    const workload::Workload w({a, b});
    const PlanEvaluator aware(testing::small_models(), w, EvalOptions{.reuse_aware = true});
    const PlanEvaluator oblivious(testing::small_models(), w);

    TieringPlan split = TieringPlan::uniform(2, StorageTier::kPersistentSsd);
    split.set_decision(0, {StorageTier::kPersistentHdd, 1.0});
    const PlanEvaluation pe = oblivious.evaluate(split);
    ASSERT_TRUE(pe.feasible);
    EXPECT_NE(init_error(SoaEvaluator(aware), split, pe).find("Eq. 7"), std::string::npos);
    EXPECT_EQ(init_error(SoaEvaluator(oblivious), split, pe), "");
}

// Provider-capacity throw: a candidate overflowing ephSSD's per-VM volume
// limit rejects after the capacity pass but before runtimes; the decision
// log alone restores the state.
TEST_F(SoaUndoTest, RevertAfterProviderCapacityThrow) {
    // Sort with 3 TB input needs ~9 TB on its tier; on the small 5-worker
    // cluster that is ~1.8 TB/VM on ephSSD — beyond the 4x375 GB limit.
    const PlanEvaluator eval(
        testing::small_models(),
        workload::Workload({mk_job(1, AppKind::kSort, 3000.0), mk_job(2, AppKind::kJoin, 64.0)}));
    const SoaEvaluator soa(eval);
    SoaState state;
    seed(eval, state, soa, StorageTier::kObjectStore);
    const Committed want = snapshot(state);

    soa.set_decision(state, 0, static_cast<std::uint8_t>(tier_index(StorageTier::kEphemeralSsd)),
                     1.0);
    const std::size_t changed[] = {0};
    EXPECT_FALSE(soa.evaluate_candidate(state, changed));
    EXPECT_TRUE(state.runtime_undo.empty());

    soa.revert(state);
    expect_restored(state, want);
}

// Zero-length staging legs: persSSD <-> persHDD moves stage nothing
// (StagingLegs::for_tier is all-false off ephSSD). Revert and re-evaluate
// must be idempotent, and the candidate must match the AoS evaluator.
TEST_F(SoaUndoTest, ZeroLengthStagingLegMovesRevertAndReevaluate) {
    const PlanEvaluator eval(
        testing::small_models(),
        workload::Workload({mk_job(1, AppKind::kSort, 320.0), mk_job(2, AppKind::kJoin, 240.0),
                            mk_job(3, AppKind::kKMeans, 160.0)}));
    const SoaEvaluator soa(eval);
    SoaState state;
    seed(eval, state, soa);

    const auto hdd = static_cast<std::uint8_t>(tier_index(StorageTier::kPersistentHdd));
    soa.set_decision(state, 1, hdd, 1.5);
    const std::size_t changed[] = {1};
    ASSERT_TRUE(soa.evaluate_candidate(state, changed));
    const double first_utility = state.cand_utility;
    const PlanEvaluation aos = eval.evaluate(plan_of(state));
    ASSERT_TRUE(aos.feasible);
    EXPECT_EQ(first_utility, aos.utility);

    soa.revert(state);
    // Same move again after revert: bitwise the same candidate.
    soa.set_decision(state, 1, hdd, 1.5);
    ASSERT_TRUE(soa.evaluate_candidate(state, changed));
    EXPECT_EQ(state.cand_utility, first_utility);
    soa.revert(state);
}

// Stacked undo entries: two staged changes to the SAME job must unwind in
// reverse order back to the committed decision.
TEST_F(SoaUndoTest, StackedDecisionsOnOneJobUnwindInOrder) {
    const PlanEvaluator eval(
        testing::small_models(),
        workload::Workload({mk_job(1, AppKind::kSort, 320.0), mk_job(2, AppKind::kJoin, 240.0)}));
    const SoaEvaluator soa(eval);
    SoaState state;
    seed(eval, state, soa);
    const Committed want = snapshot(state);

    soa.set_decision(state, 0, static_cast<std::uint8_t>(tier_index(StorageTier::kPersistentHdd)),
                     2.0);
    soa.set_decision(state, 0, static_cast<std::uint8_t>(tier_index(StorageTier::kObjectStore)),
                     1.0);
    const std::size_t changed[] = {0};
    ASSERT_TRUE(soa.evaluate_candidate(state, changed));
    soa.revert(state);
    expect_restored(state, want);
}

// Commit promotes the candidate and clears the logs; a revert right after
// commit must be a no-op on the newly committed state.
TEST_F(SoaUndoTest, RevertAfterCommitIsNoop) {
    const PlanEvaluator eval(
        testing::small_models(),
        workload::Workload({mk_job(1, AppKind::kSort, 320.0), mk_job(2, AppKind::kJoin, 240.0)}));
    const SoaEvaluator soa(eval);
    SoaState state;
    seed(eval, state, soa);

    soa.set_decision(state, 0, static_cast<std::uint8_t>(tier_index(StorageTier::kPersistentHdd)),
                     1.25);
    const std::size_t changed[] = {0};
    ASSERT_TRUE(soa.evaluate_candidate(state, changed));
    soa.commit(state);
    const Committed committed = snapshot(state);
    soa.revert(state);  // empty logs: nothing to replay
    expect_restored(state, committed);
}

}  // namespace
}  // namespace cast::core
