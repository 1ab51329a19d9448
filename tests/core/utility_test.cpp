#include "core/utility.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/fixed_sum.hpp"
#include "test_support.hpp"

namespace cast::core {
namespace {

using cloud::StorageTier;
using cloud::tier_index;
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

workload::Workload small_workload() {
    return workload::Workload({mk_job(1, AppKind::kSort, 40.0),
                               mk_job(2, AppKind::kGrep, 60.0),
                               mk_job(3, AppKind::kKMeans, 20.0)});
}

TEST(TenantUtility, MatchesEq2) {
    // U = (1/T_minutes) / dollars.
    EXPECT_NEAR(tenant_utility(Seconds::from_minutes(10.0), Dollars{2.0}), 0.05, 1e-12);
    EXPECT_THROW((void)tenant_utility(Seconds{0.0}, Dollars{1.0}), PreconditionError);
    EXPECT_THROW((void)tenant_utility(Seconds{10.0}, Dollars{0.0}), PreconditionError);
}

TEST(PlanEvaluator, FeasibleUniformPlan) {
    PlanEvaluator eval(testing::small_models(), small_workload());
    const auto e = eval.evaluate(TieringPlan::uniform(3, StorageTier::kPersistentSsd));
    ASSERT_TRUE(e.feasible);
    EXPECT_GT(e.total_runtime.value(), 0.0);
    EXPECT_GT(e.vm_cost.value(), 0.0);
    EXPECT_GT(e.storage_cost.value(), 0.0);
    EXPECT_NEAR(e.utility, tenant_utility(e.total_runtime, e.total_cost()), 1e-12);
    EXPECT_EQ(e.job_runtimes.size(), 3u);
}

TEST(PlanEvaluator, RuntimeIsSumOfJobRuntimes) {
    PlanEvaluator eval(testing::small_models(), small_workload());
    const auto e = eval.evaluate(TieringPlan::uniform(3, StorageTier::kPersistentHdd));
    // Eq. 4 is the exact fixed-point sum of the runtimes: each is quantized
    // to 2^-20 s, so the total sits within half a unit per job of their
    // floating-point sum.
    FixedSum units;
    double sum = 0.0;
    for (const auto& t : e.job_runtimes) {
        units.add(t.value());
        sum += t.value();
    }
    EXPECT_EQ(e.total_runtime.value(), units.value());
    EXPECT_NEAR(e.total_runtime.value(), sum, 3 * kFixedUnit / 2);
}

TEST(PlanEvaluator, CapacityMeetsEq3) {
    const auto w = small_workload();
    PlanEvaluator eval(testing::small_models(), w);
    const TieringPlan plan = TieringPlan::uniform(3, StorageTier::kPersistentSsd);
    const auto caps = eval.capacities(plan);
    double required = 0.0;
    for (const auto& j : w.jobs()) required += j.capacity_requirement().value();
    EXPECT_GE(caps.aggregate_of(StorageTier::kPersistentSsd).value(), required - 1e-6);
}

TEST(PlanEvaluator, OverprovisionRaisesCapacity) {
    PlanEvaluator eval(testing::small_models(), small_workload());
    const auto c1 = eval.capacities(TieringPlan::uniform(3, StorageTier::kPersistentSsd, 1.0));
    const auto c2 = eval.capacities(TieringPlan::uniform(3, StorageTier::kPersistentSsd, 2.0));
    EXPECT_GT(c2.aggregate_of(StorageTier::kPersistentSsd).value(),
              1.8 * c1.aggregate_of(StorageTier::kPersistentSsd).value());
}

TEST(PlanEvaluator, EphemeralPlanAddsObjectStoreBacking) {
    PlanEvaluator eval(testing::small_models(), small_workload());
    const auto caps = eval.capacities(TieringPlan::uniform(3, StorageTier::kEphemeralSsd));
    EXPECT_GT(caps.aggregate_of(StorageTier::kObjectStore).value(), 0.0);
    EXPECT_GT(caps.aggregate_of(StorageTier::kEphemeralSsd).value(), 0.0);
}

TEST(PlanEvaluator, ObjectStorePlanReservesPersSsdIntermediate) {
    PlanEvaluator eval(testing::small_models(), small_workload());
    const auto caps = eval.capacities(TieringPlan::uniform(3, StorageTier::kObjectStore));
    const int nvm = testing::small_models().cluster().worker_count;
    EXPECT_GE(caps.aggregate_of(StorageTier::kPersistentSsd).value(), 100.0 * nvm - 1e-6);
    EXPECT_NEAR(caps.per_vm_of(StorageTier::kPersistentSsd).value(), 100.0, 1e-6);
}

TEST(PlanEvaluator, EphemeralCapacityRoundsToVolumes) {
    PlanEvaluator eval(testing::small_models(), small_workload());
    const auto caps = eval.capacities(TieringPlan::uniform(3, StorageTier::kEphemeralSsd));
    const double per_vm = caps.per_vm_of(StorageTier::kEphemeralSsd).value();
    EXPECT_NEAR(std::fmod(per_vm, 375.0), 0.0, 1e-9);
}

TEST(PlanEvaluator, InfeasiblePlanReportsNotThrows) {
    // A job far too large for ephSSD on this cluster (4 volumes * 5 VMs =
    // 7500 GB max).
    const workload::Workload w({mk_job(1, AppKind::kSort, 4000.0)});
    PlanEvaluator eval(testing::small_models(), w);
    const auto e = eval.evaluate(TieringPlan::uniform(1, StorageTier::kEphemeralSsd));
    EXPECT_FALSE(e.feasible);
    EXPECT_FALSE(e.infeasibility.empty());
    EXPECT_DOUBLE_EQ(e.utility, 0.0);
}

TEST(PlanEvaluator, PinViolationIsInfeasibleNotThrown) {
    auto job = mk_job(1, AppKind::kSort, 40.0);
    job.pinned_tier = StorageTier::kPersistentSsd;
    const workload::Workload w({job});
    PlanEvaluator eval(testing::small_models(), w);
    const auto bad = eval.evaluate(TieringPlan::uniform(1, StorageTier::kEphemeralSsd));
    EXPECT_FALSE(bad.feasible);
    EXPECT_NE(bad.infeasibility.find("pinned"), std::string::npos);
    const auto good = eval.evaluate(TieringPlan::uniform(1, StorageTier::kPersistentSsd));
    EXPECT_TRUE(good.feasible);
}

TEST(PlanEvaluator, CostsMatchEq5AndEq6) {
    PlanEvaluator eval(testing::small_models(), small_workload());
    const TieringPlan plan = TieringPlan::uniform(3, StorageTier::kPersistentHdd);
    const auto e = eval.evaluate(plan);
    ASSERT_TRUE(e.feasible);
    const auto& cluster = testing::small_models().cluster();
    EXPECT_NEAR(e.vm_cost.value(),
                cluster.price_per_minute().value() * e.total_runtime.minutes(), 1e-9);
    // Recompute Eq. 6 by hand.
    const double hours = std::ceil(e.total_runtime.minutes() / 60.0);
    double store = 0.0;
    for (StorageTier t : cloud::kAllTiers) {
        store += e.capacities.aggregate[tier_index(t)].value() *
                 testing::small_models().catalog().service(t).price_per_gb_hour().value() *
                 hours;
    }
    EXPECT_NEAR(e.storage_cost.value(), store, 1e-9);
}

TEST(PlanEvaluator, StorageBilledInWholeHours) {
    // Two plans whose runtimes fall in the same billing hour pay identical
    // storage for identical capacity.
    PlanEvaluator eval(testing::small_models(), small_workload());
    const auto caps = eval.capacities(TieringPlan::uniform(3, StorageTier::kPersistentSsd));
    const auto [vm1, st1] = eval.costs_for(Seconds::from_minutes(10.0), caps);
    const auto [vm2, st2] = eval.costs_for(Seconds::from_minutes(50.0), caps);
    EXPECT_DOUBLE_EQ(st1.value(), st2.value());
    const auto [vm3, st3] = eval.costs_for(Seconds::from_minutes(70.0), caps);
    EXPECT_NEAR(st3.value(), 2.0 * st1.value(), 1e-9);
    EXPECT_GT(vm2.value(), vm1.value());
    (void)vm3;
}

// --- Reuse awareness (CAST++ evaluator mode).

workload::Workload reuse_workload() {
    return workload::Workload({mk_job(1, AppKind::kGrep, 50.0, 7),
                               mk_job(2, AppKind::kGrep, 50.0, 7),
                               mk_job(3, AppKind::kGrep, 50.0, 7)});
}

TEST(PlanEvaluator, ReuseAwareCountsSharedInputOnce) {
    PlanEvaluator oblivious(testing::small_models(), reuse_workload(),
                            EvalOptions{.reuse_aware = false});
    PlanEvaluator aware(testing::small_models(), reuse_workload(),
                        EvalOptions{.reuse_aware = true});
    const TieringPlan plan = TieringPlan::uniform(3, StorageTier::kPersistentSsd);
    const double c_obl = oblivious.capacities(plan).aggregate_of(StorageTier::kPersistentSsd)
                             .value();
    const double c_aw =
        aware.capacities(plan).aggregate_of(StorageTier::kPersistentSsd).value();
    EXPECT_NEAR(c_obl - c_aw, 100.0, 5.0);  // two extra 50 GB input copies
}

TEST(PlanEvaluator, ReuseAwareRequirementPerJob) {
    PlanEvaluator aware(testing::small_models(), reuse_workload(),
                        EvalOptions{.reuse_aware = true});
    EXPECT_GT(aware.job_requirement(0).value(), 50.0);   // leader holds input
    EXPECT_LT(aware.job_requirement(1).value(), 1.0);    // Grep follower: tiny
    EXPECT_TRUE(aware.pays_input_download(0));
    EXPECT_FALSE(aware.pays_input_download(1));
    EXPECT_FALSE(aware.pays_input_download(2));
}

TEST(PlanEvaluator, ReuseAwareRejectsSplitGroups) {
    PlanEvaluator aware(testing::small_models(), reuse_workload(),
                        EvalOptions{.reuse_aware = true});
    TieringPlan plan = TieringPlan::uniform(3, StorageTier::kPersistentSsd);
    plan.set_decision(1, {StorageTier::kPersistentHdd, 1.0});
    const auto e = aware.evaluate(plan);
    EXPECT_FALSE(e.feasible);
    EXPECT_NE(e.infeasibility.find("Eq. 7"), std::string::npos);
}

TEST(PlanEvaluator, ReuseAwareEphemeralDownloadsOnce) {
    PlanEvaluator oblivious(testing::small_models(), reuse_workload(),
                            EvalOptions{.reuse_aware = false});
    PlanEvaluator aware(testing::small_models(), reuse_workload(),
                        EvalOptions{.reuse_aware = true});
    const TieringPlan plan = TieringPlan::uniform(3, StorageTier::kEphemeralSsd);
    const auto e_obl = oblivious.evaluate(plan);
    const auto e_aw = aware.evaluate(plan);
    ASSERT_TRUE(e_obl.feasible);
    ASSERT_TRUE(e_aw.feasible);
    // Reuse awareness saves two input downloads -> strictly faster.
    EXPECT_LT(e_aw.total_runtime.value(), e_obl.total_runtime.value());
    EXPECT_GT(e_aw.utility, e_obl.utility);
}

TEST(PlanEvaluator, SizeMismatchRejected) {
    PlanEvaluator eval(testing::small_models(), small_workload());
    EXPECT_THROW((void)eval.evaluate(TieringPlan::uniform(2, StorageTier::kPersistentSsd)),
                 PreconditionError);
}

}  // namespace
}  // namespace cast::core
