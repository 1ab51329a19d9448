#include "sim/flow_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <utility>
#include <vector>

namespace cast::sim {
namespace {

using cast::literals::operator""_MBps;

TEST(FlowEngine, SingleFlowRunsAtCap) {
    FlowEngine e;
    const ResourceId r = e.add_resource(100.0_MBps);
    const FlowId f = e.start_flow(r, 50.0, 10.0);  // capped below the pool
    EXPECT_DOUBLE_EQ(e.flow_rate(f), 10.0);
    const auto done = e.advance();
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0], f);
    EXPECT_DOUBLE_EQ(e.now().value(), 5.0);  // 50 MB / 10 MB/s
    EXPECT_TRUE(e.flow_done(f));
}

TEST(FlowEngine, SingleFlowLimitedByPool) {
    FlowEngine e;
    const ResourceId r = e.add_resource(100.0_MBps);
    e.start_flow(r, 200.0, 1e9);
    (void)e.advance();
    EXPECT_DOUBLE_EQ(e.now().value(), 2.0);  // 200 MB / 100 MB/s
}

TEST(FlowEngine, EqualFlowsShareEqually) {
    FlowEngine e;
    const ResourceId r = e.add_resource(100.0_MBps);
    const FlowId a = e.start_flow(r, 100.0, 1e9);
    const FlowId b = e.start_flow(r, 100.0, 1e9);
    EXPECT_DOUBLE_EQ(e.flow_rate(a), 50.0);
    EXPECT_DOUBLE_EQ(e.flow_rate(b), 50.0);
    const auto done = e.advance();
    EXPECT_EQ(done.size(), 2u);  // both finish together
    EXPECT_DOUBLE_EQ(e.now().value(), 2.0);
}

TEST(FlowEngine, WaterFillingRedistributesCappedSurplus) {
    FlowEngine e;
    const ResourceId r = e.add_resource(100.0_MBps);
    const FlowId slow = e.start_flow(r, 1000.0, 10.0);  // cap 10
    const FlowId fast = e.start_flow(r, 1000.0, 1e9);
    // Equal share would be 50/50; the capped flow frees 40 for the other.
    EXPECT_DOUBLE_EQ(e.flow_rate(slow), 10.0);
    EXPECT_DOUBLE_EQ(e.flow_rate(fast), 90.0);
}

TEST(FlowEngine, WaterFillingThreeTiersOfCaps) {
    FlowEngine e;
    const ResourceId r = e.add_resource(90.0_MBps);
    const FlowId f1 = e.start_flow(r, 1e6, 10.0);
    const FlowId f2 = e.start_flow(r, 1e6, 25.0);
    const FlowId f3 = e.start_flow(r, 1e6, 1e9);
    EXPECT_DOUBLE_EQ(e.flow_rate(f1), 10.0);
    EXPECT_DOUBLE_EQ(e.flow_rate(f2), 25.0);
    EXPECT_DOUBLE_EQ(e.flow_rate(f3), 55.0);
}

TEST(FlowEngine, DepartureSpeedsUpRemaining) {
    FlowEngine e;
    const ResourceId r = e.add_resource(100.0_MBps);
    e.start_flow(r, 50.0, 1e9);             // finishes first (1 s at 50)
    const FlowId big = e.start_flow(r, 150.0, 1e9);
    (void)e.advance();                      // t = 1.0: small done, big has 100 left
    EXPECT_DOUBLE_EQ(e.now().value(), 1.0);
    EXPECT_DOUBLE_EQ(e.flow_rate(big), 100.0);  // now alone
    (void)e.advance();
    EXPECT_DOUBLE_EQ(e.now().value(), 2.0);  // 100 MB at 100 MB/s
}

TEST(FlowEngine, IndependentResourcesDoNotInterfere) {
    FlowEngine e;
    const ResourceId r1 = e.add_resource(10.0_MBps);
    const ResourceId r2 = e.add_resource(1000.0_MBps);
    const FlowId a = e.start_flow(r1, 100.0, 1e9);
    const FlowId b = e.start_flow(r2, 100.0, 1e9);
    EXPECT_DOUBLE_EQ(e.flow_rate(a), 10.0);
    EXPECT_DOUBLE_EQ(e.flow_rate(b), 1000.0);
}

TEST(FlowEngine, ZeroDemandFlowCompletesWithoutTimeAdvance) {
    FlowEngine e;
    const ResourceId r = e.add_resource(100.0_MBps);
    const FlowId f = e.start_flow(r, 0.0, 1.0);
    const auto done = e.advance();
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0], f);
    EXPECT_DOUBLE_EQ(e.now().value(), 0.0);
}

TEST(FlowEngine, AdvanceWithNoFlowsReturnsEmpty) {
    FlowEngine e;
    (void)e.add_resource(10.0_MBps);
    EXPECT_TRUE(e.advance().empty());
}

TEST(FlowEngine, ConservationOfWork) {
    // Total bytes delivered per unit time never exceeds resource capacity:
    // with three competing flows of distinct sizes, completion times must
    // be consistent with integral capacity use.
    FlowEngine e;
    const ResourceId r = e.add_resource(30.0_MBps);
    e.start_flow(r, 30.0, 1e9);
    e.start_flow(r, 60.0, 1e9);
    e.start_flow(r, 90.0, 1e9);
    double last = 0.0;
    std::size_t completed = 0;
    while (true) {
        const auto done = e.advance();
        if (done.empty()) break;
        completed += done.size();
        last = e.now().value();
    }
    EXPECT_EQ(completed, 3u);
    // 180 MB total through 30 MB/s = exactly 6 s regardless of sharing.
    EXPECT_NEAR(last, 6.0, 1e-9);
}

TEST(FlowEngine, InvalidInputsRejected) {
    FlowEngine e;
    EXPECT_THROW((void)e.add_resource(0.0_MBps), PreconditionError);
    const ResourceId r = e.add_resource(10.0_MBps);
    EXPECT_THROW((void)e.start_flow(r + 1, 10.0, 1.0), PreconditionError);
    EXPECT_THROW((void)e.start_flow(r, -1.0, 1.0), PreconditionError);
    EXPECT_THROW((void)e.start_flow(r, 10.0, 0.0), PreconditionError);
}

TEST(FlowEngine, ActiveFlowCountTracksLifecycle) {
    FlowEngine e;
    const ResourceId r = e.add_resource(10.0_MBps);
    EXPECT_EQ(e.active_flow_count(), 0u);
    e.start_flow(r, 10.0, 1e9);
    e.start_flow(r, 20.0, 1e9);
    EXPECT_EQ(e.active_flow_count(), 2u);
    (void)e.advance();
    EXPECT_EQ(e.active_flow_count(), 1u);
}

namespace {

/// Run a small contended scenario with a mid-run throttle and record the
/// exact (time, completed ids) trace.
std::vector<std::pair<double, std::vector<FlowId>>> trace_scenario(FlowEngine& e) {
    const ResourceId a = e.add_resource(100.0_MBps);
    const ResourceId b = e.add_resource(50.0_MBps);
    e.start_flow(a, 120.0, 40.0);
    e.start_flow(a, 120.0, 1e9);
    e.start_flow(a, 60.0, 25.0);
    e.start_flow(b, 200.0, 1e9);
    e.schedule_capacity_change(a, Seconds{1.0}, 60.0_MBps);
    e.schedule_capacity_change(a, Seconds{2.5}, 100.0_MBps);
    std::vector<std::pair<double, std::vector<FlowId>>> trace;
    while (true) {
        const auto& done = e.advance();
        if (done.empty()) break;
        trace.emplace_back(e.now().value(), done);
    }
    return trace;
}

}  // namespace

TEST(FlowEngine, ResetReproducesFreshEngineBitForBit) {
    // Reference trace on a fresh engine.
    FlowEngine fresh;
    const auto expected = trace_scenario(fresh);
    ASSERT_FALSE(expected.empty());

    // A reused engine: run a *different* workload first (to dirty every
    // internal buffer), reset, then replay the scenario. The trace must
    // match exactly — same times (bitwise), same completion order.
    FlowEngine reused;
    const ResourceId r = reused.add_resource(15.0_MBps);
    reused.start_flow(r, 5.0, 1e9);
    reused.start_flow(r, 25.0, 4.0);
    reused.schedule_capacity_change(r, Seconds{0.5}, 7.0_MBps);
    while (!reused.advance().empty()) {
    }
    reused.reset();
    EXPECT_EQ(reused.now().value(), 0.0);
    EXPECT_EQ(reused.resource_count(), 0u);
    EXPECT_EQ(reused.applied_capacity_events(), 0u);

    const auto replay = trace_scenario(reused);
    ASSERT_EQ(replay.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(replay[i].first, expected[i].first) << "step " << i;
        EXPECT_EQ(replay[i].second, expected[i].second) << "step " << i;
    }
}

TEST(FlowEngine, CapacityEventTimeTiesApplyInInsertionOrder) {
    // Two events scheduled for the same instant on the same resource: the
    // later-inserted one must win (insertion order breaks time ties), so a
    // throttle scheduled after a restore at t=1 leaves the resource
    // throttled.
    FlowEngine e;
    const ResourceId r = e.add_resource(100.0_MBps);
    e.start_flow(r, 300.0, 1e9);
    e.schedule_capacity_change(r, Seconds{1.0}, 80.0_MBps);
    e.schedule_capacity_change(r, Seconds{1.0}, 20.0_MBps);
    (void)e.advance();
    EXPECT_EQ(e.resource_capacity(r), 20.0);
    EXPECT_EQ(e.applied_capacity_events(), 2u);
}

TEST(FlowEngine, AdvanceBufferIsReusedAcrossCalls) {
    FlowEngine e;
    const ResourceId r = e.add_resource(10.0_MBps);
    e.start_flow(r, 10.0, 1e9);
    e.start_flow(r, 30.0, 1e9);
    const auto& first = e.advance();
    ASSERT_EQ(first.size(), 1u);
    const FlowId first_done = first.front();
    // The next advance overwrites the same buffer (by reference).
    const auto& second = e.advance();
    ASSERT_EQ(second.size(), 1u);
    EXPECT_NE(second.front(), first_done);
    EXPECT_EQ(&first, &second);
}

TEST(MemberList, ErasingAnyMemberOfTiedCapsRemovesExactlyThatId) {
    // Caps drawn from three values, so most members tie with others; ids
    // arrive in increasing order as the engine assigns them.
    const double caps[] = {5.0, 2.0, 5.0, 9.0, 2.0, 5.0, 5.0, 9.0, 2.0, 5.0, 9.0, 5.0};
    MemberList full;
    std::vector<std::pair<double, FlowId>> order;
    for (FlowId id = 0; id < std::size(caps); ++id) {
        full.insert(id, caps[id]);
        order.emplace_back(caps[id], id);
    }
    std::sort(order.begin(), order.end());  // ascending (cap, id)
    ASSERT_EQ(full.size(), order.size());
    for (FlowId victim = 0; victim < std::size(caps); ++victim) {
        MemberList list = full;
        list.erase(victim, caps[victim]);
        std::vector<std::pair<double, FlowId>> want;
        for (const auto& m : order) {
            if (m.second != victim) want.push_back(m);
        }
        std::vector<std::pair<double, FlowId>> got;
        for (const MemberList::Member& m : list) got.emplace_back(m.cap, m.id);
        EXPECT_EQ(got, want) << "erasing " << victim;
    }
}

}  // namespace
}  // namespace cast::sim
