#include "core/plan.hpp"

#include <gtest/gtest.h>

#include "test_support.hpp"

namespace cast::core {
namespace {

using cloud::StorageTier;

workload::JobSpec job(int id, std::optional<int> group = std::nullopt) {
    return workload::JobSpec{.id = id,
                             .name = "j" + std::to_string(id),
                             .app = workload::AppKind::kSort,
                             .input = GigaBytes{10.0},
                             .map_tasks = 80,
                             .reduce_tasks = 20,
                             .reuse_group = group};
}

TEST(TieringPlan, UniformAssignsEveryJob) {
    const TieringPlan p = TieringPlan::uniform(4, StorageTier::kPersistentHdd, 2.0);
    EXPECT_EQ(p.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(p.decision(i).tier, StorageTier::kPersistentHdd);
        EXPECT_DOUBLE_EQ(p.decision(i).overprovision, 2.0);
    }
}

TEST(TieringPlan, SetDecisionBoundsChecked) {
    TieringPlan p = TieringPlan::uniform(2, StorageTier::kPersistentSsd);
    p.set_decision(1, {StorageTier::kObjectStore, 1.5});
    EXPECT_EQ(p.decision(1).tier, StorageTier::kObjectStore);
    EXPECT_THROW(p.set_decision(2, {StorageTier::kObjectStore, 1.0}), PreconditionError);
    EXPECT_THROW((void)p.decision(5), PreconditionError);
}

TEST(TieringPlan, OverprovisionBelowOneRejected) {
    EXPECT_THROW(TieringPlan::uniform(1, StorageTier::kPersistentSsd, 0.5),
                 PreconditionError);
    TieringPlan p = TieringPlan::uniform(1, StorageTier::kPersistentSsd);
    EXPECT_THROW(p.set_decision(0, {StorageTier::kPersistentSsd, 0.99}), PreconditionError);
}

TEST(TieringPlan, RespectsReuseGroupsDetectsSplit) {
    const workload::Workload w({job(1, 1), job(2, 1), job(3)});
    TieringPlan p = TieringPlan::uniform(3, StorageTier::kPersistentSsd);
    EXPECT_TRUE(testing::respects_placement(w, p));
    p.set_decision(1, {StorageTier::kPersistentHdd, 1.0});
    EXPECT_FALSE(testing::respects_placement(w, p));
    p.set_decision(0, {StorageTier::kPersistentHdd, 1.0});
    EXPECT_TRUE(testing::respects_placement(w, p));  // group reunited on HDD
}

TEST(TieringPlan, SummarizeCountsTiers) {
    TieringPlan p = TieringPlan::uniform(3, StorageTier::kPersistentSsd);
    p.set_decision(2, {StorageTier::kObjectStore, 1.0});
    const std::string s = p.summarize();
    EXPECT_NE(s.find("2 jobs on persSSD"), std::string::npos);
    EXPECT_NE(s.find("1 jobs on objStore"), std::string::npos);
}

TEST(TieringPlan, EmptyPlanSummary) {
    EXPECT_EQ(TieringPlan().summarize(), "(empty plan)");
}

}  // namespace
}  // namespace cast::core
