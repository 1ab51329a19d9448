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
