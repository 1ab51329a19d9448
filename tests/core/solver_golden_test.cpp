// Golden solver pins on the 100-job Facebook workload: plan_cast and
// plan_cast_plus_plus at a reduced iteration budget on 4 tempered
// replicas, and a 10-step IncrementalSolver::amend stream that runs the
// repair pass, the restricted anneal and one cold escalation. The plan
// fingerprints and the search counters were recorded on the solver that
// still carried the AoS, uncached and independent-chain paths, so these
// pins hold the single SoA tempered engine to its predecessor's
// trajectories, at any worker count. The utilities, costs and runtimes
// were re-recorded when the Eq. 3-6 sums became exact fixed-point sums
// (core/fixed_sum.hpp), which moved their last bits but no plan and no
// counter. Plan fingerprints are FNV-1a over every decision's tier and
// over-provision bits.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/fnv1a.hpp"
#include "common/thread_pool.hpp"
#include "core/annealing.hpp"
#include "core/castpp.hpp"
#include "core/eval_cache.hpp"
#include "core/incremental.hpp"
#include "test_support.hpp"
#include "workload/facebook.hpp"
#include "workload/stream.hpp"

namespace cast::core {
namespace {

struct SolvePin {
    std::uint64_t plan_fingerprint;
    double utility;
    double cost;
    double runtime;
    int iterations;
    int accepted_moves;
    int infeasible_neighbors;
    int best_chain;
    std::uint64_t exchange_accepts;
};

struct AmendPin {
    std::uint64_t plan_fingerprint;
    double utility;
    double cost;
    double runtime;
    int iterations;
    std::size_t neighborhood;
    bool escalated_cold;
    std::uint64_t exchange_accepts;
};

std::uint64_t plan_fingerprint(const TieringPlan& plan) {
    Fnv1a h;
    for (const PlacementDecision& d : plan.decisions()) {
        h.mix(static_cast<std::uint64_t>(d.tier));
        h.mix(d.overprovision);
    }
    return h.value();
}

const workload::Workload& facebook_workload() {
    static const workload::Workload kWorkload = workload::synthesize_facebook_workload(42);
    return kWorkload;
}

CastOptions pinned_options() {
    CastOptions o;
    o.annealing.iter_max = 2000;
    o.annealing.chains = 4;
    o.annealing.seed = 3;
    return o;
}

void expect_solve_pin(const SolvePin& actual, const SolvePin& golden) {
    EXPECT_EQ(actual.plan_fingerprint, golden.plan_fingerprint);
    EXPECT_EQ(actual.utility, golden.utility);
    EXPECT_EQ(actual.cost, golden.cost);
    EXPECT_EQ(actual.runtime, golden.runtime);
    EXPECT_EQ(actual.iterations, golden.iterations);
    EXPECT_EQ(actual.accepted_moves, golden.accepted_moves);
    EXPECT_EQ(actual.infeasible_neighbors, golden.infeasible_neighbors);
    EXPECT_EQ(actual.best_chain, golden.best_chain);
    EXPECT_EQ(actual.exchange_accepts, golden.exchange_accepts);
}

/// plan_cast / plan_cast_plus_plus through the facade, cross-checked
/// against the same pipeline driven directly (greedy start, then
/// AnnealingSolver::solve), which also exposes the move counters the
/// facade does not carry.
SolvePin batch_pin(bool reuse_aware, ThreadPool* pool) {
    const auto& models = testing::paper_models();
    const CastOptions options = pinned_options();
    const CastResult facade =
        reuse_aware ? plan_cast_plus_plus(models, facebook_workload(), options, pool)
                    : plan_cast(models, facebook_workload(), options, pool);

    const PlanEvaluator evaluator(models, facebook_workload(),
                                  EvalOptions{.reuse_aware = reuse_aware});
    EvalCache cache;
    const TieringPlan initial =
        greedy_projected_plan(evaluator, options.greedy_init, reuse_aware, &cache);
    const AnnealingResult direct =
        AnnealingSolver(evaluator, options.annealing).solve(initial, pool, &cache);

    EXPECT_EQ(plan_fingerprint(direct.plan), plan_fingerprint(facade.plan));
    EXPECT_EQ(direct.evaluation.utility, facade.evaluation.utility);
    EXPECT_EQ(direct.iterations, facade.iterations);
    EXPECT_EQ(direct.tempering.exchange_accepts, facade.tempering.exchange_accepts);
    EXPECT_TRUE(facade.evaluation.feasible);
    return SolvePin{plan_fingerprint(facade.plan),
                    facade.evaluation.utility,
                    facade.evaluation.total_cost().value(),
                    facade.evaluation.total_runtime.value(),
                    facade.iterations,
                    direct.accepted_moves,
                    direct.infeasible_neighbors,
                    facade.best_chain,
                    facade.tempering.total_accepts()};
}

void check_batch_golden(bool reuse_aware, const SolvePin& golden) {
    SCOPED_TRACE("serial");
    expect_solve_pin(batch_pin(reuse_aware, nullptr), golden);
    for (const std::size_t workers : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
        SCOPED_TRACE(std::to_string(workers) + " workers");
        ThreadPool pool(workers);
        expect_solve_pin(batch_pin(reuse_aware, &pool), golden);
    }
}

TEST(SolverGolden, PlanCastFacebook100MatchesGoldenAtAnyWorkerCount) {
    const SolvePin golden{0xe4d62d92f88d9a53ULL, 0x1.e87159fc6b15p-14, 0x1.0c9533fcc5b0fp+6,
                          0x1.df93f66ep+12, 8000, 7791, 0, 1, 9};
    check_batch_golden(false, golden);
}

TEST(SolverGolden, PlanCastPlusPlusFacebook100MatchesGoldenAtAnyWorkerCount) {
    const SolvePin golden{0x4aa3adb3a8c33e92ULL, 0x1.f69f9c34688c8p-14, 0x1.f6594a6d0fc2ap+5,
                          0x1.f2592dap+12, 8000, 7902, 0, 0, 10};
    check_batch_golden(true, golden);
}

/// The amend pins: a reuse-aware 10-step stream from the CAST++ plan,
/// carrying (workload, plan) forward through one shared EvalCache.
std::vector<AmendPin> amend_stream_pins(ThreadPool* pool) {
    const auto& models = testing::paper_models();
    const CastOptions options = pinned_options();
    workload::Workload live = facebook_workload();
    TieringPlan plan = plan_cast_plus_plus(models, live, options).plan;

    workload::StreamOptions stream_opts;
    stream_opts.steps = 10;
    const std::vector<workload::JobDelta> trace =
        workload::synthesize_stream(live, 17, stream_opts);
    // The amendments land ~1.6-1.9x above the greedy shadow; this
    // threshold escalates exactly the first (largest) delta to a cold solve.
    AmendPolicy policy;
    policy.escalate_below = 1.585;
    const IncrementalSolver solver(models, options, policy, /*reuse_aware=*/true);
    EvalCache cache;
    std::vector<AmendPin> pins;
    for (const workload::JobDelta& delta : trace) {
        const AmendResult r = solver.amend(live, plan, delta, pool, &cache);
        EXPECT_TRUE(r.evaluation.feasible);
        pins.push_back(AmendPin{plan_fingerprint(r.plan), r.evaluation.utility,
                                r.evaluation.total_cost().value(),
                                r.evaluation.total_runtime.value(), r.iterations,
                                r.neighborhood.size(), r.escalated_cold,
                                r.tempering.total_accepts()});
        live = r.workload;
        plan = r.plan;
    }
    return pins;
}

TEST(SolverGolden, AmendStreamMatchesGoldenAtAnyWorkerCount) {
    const std::vector<AmendPin> golden = {
        {0xf686bb3c34893973ULL, 0x1.56dac6039b76p-13, 0x1.a3be7460101dp+5,
         0x1.b52d2adcp+12, 44000, 78, true, 11},
        {0x92b45953b30dfe51ULL, 0x1.59c370398ae27p-13, 0x1.a230f3a1e7cb7p+5,
         0x1.b31bae4cp+12, 6300, 7, false, 8},
        {0x065fff88c96e3fc0ULL, 0x1.6810d68566811p-13, 0x1.9ad59918df11dp+5,
         0x1.a94e9938p+12, 6300, 7, false, 8},
        {0x38d3821b607c9a62ULL, 0x1.9f3870dee6cf1p-13, 0x1.8254907cd9e6p+5,
         0x1.883496fdp+12, 19800, 22, false, 21},
        {0xc07a0159f628f942ULL, 0x1.9beb95eb0c132p-13, 0x1.83aa85d004e88p+5,
         0x1.89fc4684p+12, 6300, 7, false, 8},
        {0x2ec41ebff70e6ae3ULL, 0x1.bde0a6056639ep-13, 0x1.687e372e8cb16p+5,
         0x1.876a8686p+12, 34200, 38, false, 29},
        {0x97bddcfdfebabe61ULL, 0x1.dce7c5d1ee39dp-13, 0x1.5d97b69b9cb2bp+5,
         0x1.795c5803p+12, 6300, 7, false, 8},
        {0x4aa47cfb291198b3ULL, 0x1.d379992a773bbp-13, 0x1.60bb8aeb1f9abp+5,
         0x1.7d8bd74fp+12, 6300, 7, false, 8},
        {0x8db740a3f145dd71ULL, 0x1.d47e8d205b5c9p-13, 0x1.60638b1b9111p+5,
         0x1.7d166444p+12, 6300, 7, false, 8},
        {0xdd4415b70a129d53ULL, 0x1.d008aaca07743p-13, 0x1.61a9551eb0428p+5,
         0x1.7f5dbc2cp+12, 6300, 7, false, 8},
    };
    int escalations = 0;
    for (const AmendPin& g : golden) escalations += g.escalated_cold ? 1 : 0;
    EXPECT_GE(escalations, 1);
    for (const std::size_t workers : {std::size_t{0}, std::size_t{1}, std::size_t{8}}) {
        SCOPED_TRACE(std::to_string(workers) + " workers");
        std::optional<ThreadPool> pool;
        if (workers > 0) pool.emplace(workers);
        const std::vector<AmendPin> actual = amend_stream_pins(pool ? &*pool : nullptr);
        ASSERT_EQ(actual.size(), golden.size());
        for (std::size_t s = 0; s < golden.size(); ++s) {
            SCOPED_TRACE("step " + std::to_string(s));
            EXPECT_EQ(actual[s].plan_fingerprint, golden[s].plan_fingerprint);
            EXPECT_EQ(actual[s].utility, golden[s].utility);
            EXPECT_EQ(actual[s].cost, golden[s].cost);
            EXPECT_EQ(actual[s].runtime, golden[s].runtime);
            EXPECT_EQ(actual[s].iterations, golden[s].iterations);
            EXPECT_EQ(actual[s].neighborhood, golden[s].neighborhood);
            EXPECT_EQ(actual[s].escalated_cold, golden[s].escalated_cold);
            EXPECT_EQ(actual[s].exchange_accepts, golden[s].exchange_accepts);
        }
    }
}

}  // namespace
}  // namespace cast::core
