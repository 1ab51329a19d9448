// Differential test: the structure-of-arrays FlowEngine against the scalar
// reference engine it replaced, on seeded random scenarios. Every step's
// clock, completed-id list and active-flow rates must match bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "sim/faults.hpp"
#include "sim/flow_engine.hpp"
#include "sim/phase_runner.hpp"
#include "sim/reference_flow_engine.hpp"

namespace cast::sim {
namespace {

using testing::ReferenceFlowEngine;

constexpr double kUnboundedMbps = 1e15;

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Applies every operation to both engines and checks they agree.
class Twin {
public:
    ResourceId add_resource(double capacity) {
        const ResourceId a = engine_.add_resource(MBytesPerSec{capacity});
        const ResourceId b = reference_.add_resource(MBytesPerSec{capacity});
        EXPECT_EQ(a, b);
        capacities_.push_back(capacity);
        return a;
    }

    void start_flow(ResourceId res, double demand, double cap) {
        const FlowId a = engine_.start_flow(res, demand, cap);
        const FlowId b = reference_.start_flow(res, demand, cap);
        ASSERT_EQ(a, b);
        ids_.push_back(a);
    }

    void schedule(ResourceId res, double at, double capacity) {
        engine_.schedule_capacity_change(res, Seconds{at}, MBytesPerSec{capacity});
        reference_.schedule_capacity_change(res, Seconds{at}, MBytesPerSec{capacity});
    }

    /// One advance() on both engines; returns how many flows completed.
    std::size_t step() {
        const std::vector<FlowId>& got = engine_.advance();
        const std::vector<FlowId>& want = reference_.advance();
        EXPECT_EQ(got, want) << "at t=" << reference_.now().value();
        EXPECT_EQ(bits(engine_.now().value()), bits(reference_.now().value()));
        EXPECT_EQ(engine_.active_flow_count(), reference_.active_flow_count());
        EXPECT_EQ(engine_.applied_capacity_events(), reference_.applied_capacity_events());
        for (FlowId f : ids_) {
            EXPECT_EQ(engine_.flow_done(f), reference_.flow_done(f));
            if (!reference_.flow_done(f)) {
                EXPECT_EQ(bits(engine_.flow_rate(f)), bits(reference_.flow_rate(f)))
                    << "flow " << f;
            }
        }
        return want.size();
    }

    /// reset() on both engines: the next scenario reuses their buffers
    /// (and the engine's ladder store) from a clean clock.
    void reset() {
        engine_.reset();
        reference_.reset();
        capacities_.clear();
        ids_.clear();
    }

    [[nodiscard]] std::size_t ladder_bytes() const { return engine_.ladder_bytes(); }
    [[nodiscard]] std::size_t active() const { return reference_.active_flow_count(); }
    [[nodiscard]] double now() const { return reference_.now().value(); }
    [[nodiscard]] const std::vector<double>& capacities() const { return capacities_; }

private:
    FlowEngine engine_;
    ReferenceFlowEngine reference_;
    std::vector<double> capacities_;
    std::vector<FlowId> ids_;
};

/// A flow drawn to hit the boundaries the water-fill and completion
/// detection care about: zero and repeated demands, caps below / at /
/// above the fair share.
void start_random_flow(Twin& twin, Rng& rng, std::size_t expected_members) {
    const auto res = static_cast<ResourceId>(rng.below(twin.capacities().size()));
    const double capacity = twin.capacities()[res];
    const double fair =
        capacity / static_cast<double>(std::max<std::size_t>(1, expected_members));
    const std::uint64_t demand_kind = rng.below(10);
    const double demand = demand_kind == 0   ? 0.0
                          : demand_kind <= 3 ? 64.0 * static_cast<double>(1 + rng.below(3))
                                             : rng.uniform(1e-3, 500.0);
    double cap = 0.0;
    switch (rng.below(5)) {
        case 0: cap = fair * rng.uniform(0.05, 0.95); break;  // below the share
        case 1: cap = fair; break;                            // exactly the share
        case 2: cap = fair * rng.uniform(1.05, 4.0); break;   // above the share
        case 3: cap = 1e9; break;                             // share-limited only
        default: cap = rng.uniform(0.5, 300.0); break;
    }
    twin.start_flow(res, demand, cap);
}

void run_scenario(std::uint64_t seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    Twin twin;
    twin.add_resource(kUnboundedMbps);
    const std::size_t pools = 2 + rng.below(6);
    for (std::size_t i = 0; i < pools; ++i) twin.add_resource(rng.uniform(10.0, 1000.0));

    const std::size_t flows = 1 + rng.below(300);
    const std::size_t per_pool = flows / (pools + 1) + 1;
    // The map-slot boundary: 8 equal flows capped at exactly capacity / 8.
    if (rng.below(2) == 0) {
        const ResourceId res = 1 + rng.below(pools);
        const double demand = rng.uniform(10.0, 200.0);
        for (int i = 0; i < 8; ++i) twin.start_flow(res, demand, twin.capacities()[res] / 8.0);
    }
    for (std::size_t i = 0; i < flows; ++i) start_random_flow(twin, rng, per_pool);

    // Capacity events: random cuts and restores, time ties, and one long
    // after the last completion.
    const std::size_t events = rng.below(7);
    for (std::size_t i = 0; i < events; ++i) {
        const ResourceId res = rng.below(pools + 1);
        const double at = rng.uniform(0.0, 30.0);
        twin.schedule(res, at, twin.capacities()[res] * rng.uniform(0.1, 1.5));
        if (rng.below(3) == 0) {
            twin.schedule(rng.below(pools + 1), at, rng.uniform(5.0, 800.0));
        }
    }
    if (rng.below(2) == 0) twin.schedule(1, 1e7, 42.0);

    // Step to quiescence, starting a few flows between advances and now
    // and then scheduling an event already in the past.
    std::size_t late_starts = rng.below(60);
    std::size_t guard = 0;
    while (twin.active() > 0) {
        ASSERT_LT(++guard, 10000u);
        if (late_starts > 0 && rng.below(4) == 0) {
            const std::size_t burst = 1 + rng.below(3);
            for (std::size_t i = 0; i < burst && late_starts > 0; ++i, --late_starts) {
                start_random_flow(twin, rng, per_pool);
            }
        }
        if (rng.below(40) == 0) {
            const ResourceId res = rng.below(pools + 1);
            twin.schedule(res, twin.now() * 0.5, twin.capacities()[res] * rng.uniform(0.2, 1.2));
        }
        twin.step();
        if (::testing::Test::HasFailure()) return;
    }
    EXPECT_EQ(twin.step(), 0u);  // an idle engine reports nothing
}

TEST(FlowEngineDifferential, RandomScenariosMatchReferenceBitForBit) {
    for (std::uint64_t seed = 1; seed <= 400; ++seed) {
        run_scenario(seed);
        if (HasFailure()) return;
    }
}

TEST(FlowEngineDifferential, SimultaneousEqualFlowsCompleteInIdOrder) {
    // Eight flows capped at exactly capacity / 8 plus one on another pool
    // at the same rate: all nine finish in one step, reported by id.
    Twin twin;
    const ResourceId a = twin.add_resource(100.0);
    const ResourceId b = twin.add_resource(50.0);
    twin.start_flow(b, 50.0, 12.5);
    for (int i = 0; i < 8; ++i) twin.start_flow(a, 50.0, 12.5);
    EXPECT_EQ(twin.step(), 9u);
    EXPECT_EQ(twin.now(), 4.0);
}

/// `x` moved by `ulps` representable doubles.
double ulp_step(double x, int ulps) {
    for (; ulps > 0; --ulps) x = std::nextafter(x, kUnboundedMbps);
    for (; ulps < 0; ++ulps) x = std::nextafter(x, 0.0);
    return x;
}

void drain_to_quiescence(Twin& twin) {
    std::size_t guard = 0;
    while (twin.active() > 0 && !::testing::Test::HasFailure()) {
        ASSERT_LT(++guard, 1000u);
        twin.step();
    }
}

TEST(FlowEngineDifferential, NearTiedQuotientsResolveExactly) {
    // Completion times a few ulps apart, where the reciprocal products
    // can order differently from the true quotients: the exact pass must
    // still pick the correctly rounded minimum.
    for (std::uint64_t seed = 1; seed <= 300; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Rng rng(seed);
        Twin twin;
        const double t = rng.uniform(0.5, 50.0);
        const std::size_t flows = 2 + rng.below(12);
        for (std::size_t i = 0; i < flows; ++i) {
            const double rate = rng.uniform(1.0, 1000.0);
            const ResourceId r = twin.add_resource(rate);
            twin.start_flow(r, ulp_step(t * rate, static_cast<int>(rng.below(7)) - 3), 1e9);
        }
        drain_to_quiescence(twin);
        if (HasFailure()) return;
    }
}

TEST(FlowEngineDifferential, CompletionsAtTheEpsilonBoundary) {
    // A fast flow finishing within picoseconds sets the step; slow flows
    // left with almost exactly the 1e-9 MB completion epsilon after it
    // must complete (or not) exactly as in the reference.
    for (std::uint64_t seed = 1; seed <= 300; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Rng rng(seed);
        Twin twin;
        const double fast = rng.uniform(1e5, 1e7);
        const double dt = rng.uniform(1e-12, 1e-11);
        twin.start_flow(twin.add_resource(fast), dt * fast, 1e9);
        for (int i = 0; i < 6; ++i) {
            const double slow = rng.uniform(0.1, 50.0);
            const double demand = 1e-9 + slow * dt;
            twin.start_flow(twin.add_resource(slow),
                            ulp_step(demand, static_cast<int>(rng.below(9)) - 4), 1e9);
        }
        drain_to_quiescence(twin);
        if (HasFailure()) return;
    }
}

TEST(FlowEngineDifferential, ExtremeRatesTakeTheExactPath) {
    // Rates whose reciprocal is not a normal double (a subnormal capacity,
    // a near-overflow one) fall outside the reciprocal error bound.
    Twin twin;
    twin.start_flow(twin.add_resource(1e-310), 1.0, 1e9);
    twin.start_flow(twin.add_resource(1e308), 1e300, 1e308);
    const ResourceId normal = twin.add_resource(100.0);
    for (int i = 0; i < 5; ++i) twin.start_flow(normal, 10.0 * (i + 1), 1e9);
    drain_to_quiescence(twin);
}

// ---------------------------------------------------------------------------
// Water-fill regime boundaries. The engine writes a pool's rates in one of
// three ways (provably capped, memoized fair-share ladder, cap-sorted loop);
// these scenarios sit on the boundaries between them.
// ---------------------------------------------------------------------------

/// The engine's capped-regime margin m: a pool is provably capped when
/// RN(n * cap_max) <= RN(C * m).
constexpr double kCappedMargin = 1.0 - 0x1p-20;

/// The largest share the loop gives n uncapped members of capacity c.
double ladder_max_share(double capacity, std::size_t n) {
    double remaining = capacity;
    double left = static_cast<double>(n);
    double max_share = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
        const double share = remaining / left;
        max_share = std::max(max_share, share);
        remaining -= share;
        left -= 1.0;
    }
    return max_share;
}

/// Flows with staggered demands, so members leave one or two at a time
/// and the member count walks down through many ladders.
void start_contended(Twin& twin, Rng& rng, ResourceId res, std::size_t n, double lowest_cap) {
    twin.start_flow(res, rng.uniform(1.0, 50.0), lowest_cap);
    for (std::size_t i = 1; i < n; ++i) {
        const double cap = rng.below(2) == 0 ? 1e9 : lowest_cap * rng.uniform(1.0, 3.0);
        twin.start_flow(res, rng.uniform(1.0, 400.0), cap);
    }
}

TEST(FlowEngineDifferential, LowestCapAroundTheLadderMaximum) {
    // Contended pools of 9-200 members whose lowest cap sits a few ulps
    // below, at or above the ladder's largest share: below it the first
    // member is capped and the loop must run; at or above it the ladder
    // stands in for the loop.
    for (std::uint64_t seed = 1; seed <= 120; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Rng rng(seed);
        Twin twin;
        const double capacity = rng.below(3) == 0 ? 500.0 : rng.uniform(50.0, 5000.0);
        const ResourceId res = twin.add_resource(capacity);
        const std::size_t n = 9 + rng.below(192);
        const double lowest =
            ulp_step(ladder_max_share(capacity, n), static_cast<int>(rng.below(7)) - 3);
        start_contended(twin, rng, res, n, lowest);
        drain_to_quiescence(twin);
        if (HasFailure()) return;
    }
}

TEST(FlowEngineDifferential, CapacityAroundTheCappedThreshold) {
    // Pools whose capacity lies within a few ulps of the capped regime's
    // threshold n * cap_max / m, or of n * cap_max itself where equal caps
    // stop being all capped, with joins that keep the pool capped or break
    // it: the regime switch must never show in the rates.
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Rng rng(seed);
        Twin twin;
        const std::size_t n = 1 + rng.below(40);
        const double cap_max = rng.uniform(1.0, 200.0);
        const double all_caps = static_cast<double>(n) * cap_max;
        const double boundary = rng.below(2) == 0 ? all_caps / kCappedMargin : all_caps;
        const ResourceId res =
            twin.add_resource(ulp_step(boundary, static_cast<int>(rng.below(9)) - 4));
        const bool equal_caps = rng.below(2) == 0;
        for (std::size_t i = 0; i + 1 < n; ++i) {
            const double cap = equal_caps ? cap_max : cap_max * rng.uniform(0.5, 1.0);
            twin.start_flow(res, rng.uniform(1.0, 100.0), cap);
        }
        twin.start_flow(res, rng.uniform(1.0, 100.0), cap_max);
        std::size_t joins = rng.below(20);
        std::size_t guard = 0;
        while (twin.active() > 0) {
            ASSERT_LT(++guard, 1000u);
            if (joins > 0 && rng.below(2) == 0) {
                --joins;
                // Mostly caps that keep the pool at or below its threshold,
                // sometimes one that lifts cap_max past it.
                const double cap = rng.below(4) == 0 ? cap_max * rng.uniform(1.0, 2.0)
                                                     : cap_max * rng.uniform(0.2, 1.0);
                twin.start_flow(res, rng.uniform(1.0, 100.0), cap);
            }
            twin.step();
            if (HasFailure()) return;
        }
    }
}

TEST(FlowEngineDifferential, CapacityEventOnACachedLadder) {
    // A contended pool runs long enough to cache its ladders, then a cut
    // and a restore change its capacity under them.
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Rng rng(seed);
        Twin twin;
        const double capacity = rng.uniform(100.0, 2000.0);
        const ResourceId res = twin.add_resource(capacity);
        start_contended(twin, rng, res, 20 + rng.below(100), 1e9);
        for (int i = 0; i < 5; ++i) twin.step();
        const double at = twin.now() + rng.uniform(0.0, 0.5);
        twin.schedule(res, at, capacity * rng.uniform(0.1, 0.9));
        twin.schedule(res, at + rng.uniform(0.1, 2.0), capacity);
        drain_to_quiescence(twin);
        if (HasFailure()) return;
    }
}

TEST(FlowEngineDifferential, ResetReusesLaddersAcrossCapacities) {
    // One engine pair across several jobs: resource ids come back after
    // reset() at a different capacity, and then at the first one again,
    // whose ladders the engine still holds.
    Twin twin;
    Rng rng(2015);
    for (const double capacity : {500.0, 1200.0, 733.0, 500.0, 1200.0}) {
        SCOPED_TRACE("capacity " + std::to_string(capacity));
        twin.reset();
        twin.add_resource(kUnboundedMbps);
        const ResourceId res = twin.add_resource(capacity);
        start_contended(twin, rng, res, 150 + rng.below(50), 1e9);
        for (int i = 0; i < 40; ++i) twin.start_flow(0, rng.uniform(1.0, 50.0), 10.0);
        drain_to_quiescence(twin);
        if (HasFailure()) return;
    }
}

TEST(FlowEngineDifferential, PoolsSharingOneCapacityShareLadders) {
    // Two pools of equal capacity hold different member counts and read
    // ladders of one capacity; a third differs by one ulp.
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Rng rng(seed);
        Twin twin;
        const double capacity = rng.uniform(100.0, 2000.0);
        const ResourceId a = twin.add_resource(capacity);
        const ResourceId b = twin.add_resource(capacity);
        const ResourceId c = twin.add_resource(ulp_step(capacity, 1));
        start_contended(twin, rng, a, 9 + rng.below(60), 1e9);
        start_contended(twin, rng, b, 9 + rng.below(60), 1e9);
        start_contended(twin, rng, c, 9 + rng.below(60), 1e9);
        drain_to_quiescence(twin);
        if (HasFailure()) return;
    }
}

TEST(FlowEngineDifferential, LadderStoreStaysWithinItsBudget) {
    // Enough distinct capacities and member counts to spend the ladder
    // budget: the store stops growing and the loop serves the rest.
    Twin twin;
    Rng rng(7);
    for (int job = 0; job < 60; ++job) {
        twin.reset();
        const ResourceId res = twin.add_resource(rng.uniform(100.0, 5000.0));
        start_contended(twin, rng, res, 100 + rng.below(100), 1e9);
        drain_to_quiescence(twin);
        if (HasFailure()) return;
        EXPECT_LE(twin.ladder_bytes(), FlowEngine::kLadderBudgetBytes);
    }
    EXPECT_GT(twin.ladder_bytes(), FlowEngine::kLadderBudgetBytes / 2);
}

/// The slot scheduler with injected stragglers, kills and backoff delays,
/// plus throttling episodes, run through both engines.
template <class Engine>
std::vector<std::uint64_t> faulty_phase(Engine& engine, std::uint64_t seed) {
    Rng rng(seed);
    const ResourceId unbounded = engine.add_resource(MBytesPerSec{kUnboundedMbps});
    const int vms = 4;
    std::vector<ResourceId> pools;
    for (int vm = 0; vm < vms; ++vm) {
        pools.push_back(engine.add_resource(MBytesPerSec{rng.uniform(80.0, 400.0)}));
        engine.schedule_capacity_change(pools.back(), Seconds{rng.uniform(0.0, 5.0)},
                                        MBytesPerSec{20.0});
        engine.schedule_capacity_change(pools.back(), Seconds{rng.uniform(5.0, 20.0)},
                                        MBytesPerSec{300.0});
    }
    TaskBatch tasks;
    for (int t = 0; t < 120; ++t) {
        const int vm = static_cast<int>(rng.below(vms));
        tasks.begin_task(vm);
        tasks.add_segment(pools[static_cast<std::size_t>(vm)], rng.uniform(5.0, 80.0), 50.0);
        tasks.add_segment(unbounded, rng.uniform(1.0, 40.0), rng.uniform(5.0, 20.0));
    }
    FaultProfile profile;
    profile.seed = seed;
    profile.task_kill_prob = 0.15;
    profile.straggler_prob = 0.2;
    profile.straggler_factor = 2.5;
    profile.object_store_error_rate = 0.1;
    profile.task_max_attempts = 50;
    FaultInjector injector(profile, /*stream=*/7);
    injector.begin_phase([](std::size_t) { return 4.0; });
    PhaseScratch scratch;
    std::vector<std::uint64_t> trace;
    const Seconds makespan = run_phase(engine, tasks, vms, 2, scratch, &injector, unbounded);
    trace.push_back(bits(makespan.value()));
    trace.push_back(bits(engine.now().value()));
    trace.push_back(engine.applied_capacity_events());
    trace.push_back(static_cast<std::uint64_t>(injector.stats().task_retries));
    trace.push_back(static_cast<std::uint64_t>(injector.stats().stragglers));
    trace.push_back(static_cast<std::uint64_t>(injector.stats().request_retries));
    return trace;
}

TEST(FlowEngineDifferential, FaultyPhaseMatchesReference) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        FlowEngine engine;
        ReferenceFlowEngine reference;
        EXPECT_EQ(faulty_phase(engine, seed), faulty_phase(reference, seed)) << "seed " << seed;
    }
}

}  // namespace
}  // namespace cast::sim
