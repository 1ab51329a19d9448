// Micro-benchmarks (google-benchmark): throughput of the pieces the planner
// is built from, plus ablations of the design decisions called out in
// DESIGN.md (monotone spline vs linear REG, single- vs multi-chain
// annealing, group moves).
#include <benchmark/benchmark.h>

#include "core/annealing.hpp"
#include "core/castpp.hpp"
#include "core/greedy.hpp"
#include "model/profiler.hpp"
#include "sim/mapreduce.hpp"
#include "workload/facebook.hpp"

namespace {

using namespace cast;
using cloud::StorageTier;

const model::PerfModelSet& bench_models() {
    static const model::PerfModelSet kModels = [] {
        model::ProfilerOptions opts;
        opts.runs_per_point = 1;
        return model::Profiler(cloud::ClusterSpec::paper_400_core(),
                               cloud::StorageCatalog::google_cloud(), opts)
            .profile();
    }();
    return kModels;
}

const workload::Workload& bench_workload() {
    static const workload::Workload kWorkload = workload::synthesize_facebook_workload(42);
    return kWorkload;
}

void BM_SplineEval(benchmark::State& state) {
    const auto& m = bench_models().tier_model(workload::AppKind::kSort,
                                              StorageTier::kPersistentSsd);
    double x = 80.0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(m.scale_at(GigaBytes{x}));
        x = x < 900.0 ? x + 1.0 : 80.0;
    }
}
BENCHMARK(BM_SplineEval);

void BM_PlanEvaluation(benchmark::State& state) {
    core::PlanEvaluator eval(bench_models(), bench_workload());
    const auto plan =
        core::TieringPlan::uniform(bench_workload().size(), StorageTier::kPersistentSsd);
    for (auto _ : state) {
        benchmark::DoNotOptimize(eval.evaluate(plan));
    }
}
BENCHMARK(BM_PlanEvaluation);

void BM_AnnealingChain(benchmark::State& state) {
    core::PlanEvaluator eval(bench_models(), bench_workload());
    core::AnnealingOptions opts;
    opts.iter_max = static_cast<int>(state.range(0));
    opts.chains = 1;
    opts.seed = 7;
    core::AnnealingSolver solver(eval, opts);
    const auto init =
        core::TieringPlan::uniform(bench_workload().size(), StorageTier::kPersistentSsd);
    for (auto _ : state) {
        benchmark::DoNotOptimize(solver.solve(init));
    }
    state.SetItemsProcessed(state.iterations() * opts.iter_max);
}
BENCHMARK(BM_AnnealingChain)->Arg(1000)->Arg(4000);

void BM_GreedySolve(benchmark::State& state) {
    core::PlanEvaluator eval(bench_models(), bench_workload());
    core::GreedySolver greedy(eval);
    for (auto _ : state) {
        benchmark::DoNotOptimize(greedy.solve());
    }
}
BENCHMARK(BM_GreedySolve);

void BM_SimulateLargeJob(benchmark::State& state) {
    sim::TierCapacities caps;
    caps.set(StorageTier::kPersistentSsd, GigaBytes{500.0});
    const sim::ClusterSim simulator(cloud::ClusterSpec::paper_400_core(),
                                    cloud::StorageCatalog::google_cloud(), caps,
                                    sim::SimOptions{});
    workload::JobSpec job{.id = 1,
                          .name = "bench",
                          .app = workload::AppKind::kSort,
                          .input = GigaBytes{384.0},
                          .map_tasks = 3000,
                          .reduce_tasks = 750,
                          .reuse_group = std::nullopt};
    const auto placement = sim::JobPlacement::on_tier(job, StorageTier::kPersistentSsd);
    for (auto _ : state) {
        benchmark::DoNotOptimize(simulator.run_job(placement));
    }
    state.SetItemsProcessed(state.iterations() * (job.map_tasks + 2 * job.reduce_tasks));
}
BENCHMARK(BM_SimulateLargeJob);

// --- Ablation: monotone cubic Hermite spline vs linear interpolation for
// REG. Linear interpolation through the same knots is cheaper but kinks at
// the knots; the benchmark quantifies the eval-cost gap (the accuracy gap
// is covered in tests/EXPERIMENTS.md).
void BM_Ablation_LinearInterp(benchmark::State& state) {
    const auto& m = bench_models().tier_model(workload::AppKind::kSort,
                                              StorageTier::kPersistentSsd);
    const auto xs = m.runtime_scale.knots_x();
    const auto ys = m.runtime_scale.knots_y();
    double x = 80.0;
    auto linear = [&](double q) {
        if (q <= xs.front()) return ys.front();
        if (q >= xs.back()) return ys.back();
        std::size_t i = 0;
        while (xs[i + 1] < q) ++i;
        const double f = (q - xs[i]) / (xs[i + 1] - xs[i]);
        return ys[i] + f * (ys[i + 1] - ys[i]);
    };
    for (auto _ : state) {
        benchmark::DoNotOptimize(linear(x));
        x = x < 900.0 ? x + 1.0 : 80.0;
    }
}
BENCHMARK(BM_Ablation_LinearInterp);

// --- Ablation: group moves (CAST++'s Eq. 7 projection) vs plain moves.
// A reuse-aware evaluator makes the move units whole reuse groups.
void BM_Ablation_GroupMoves(benchmark::State& state) {
    const bool reuse_aware = state.range(0) != 0;
    core::PlanEvaluator eval(bench_models(), bench_workload(),
                             core::EvalOptions{.reuse_aware = reuse_aware});
    core::AnnealingOptions opts;
    opts.iter_max = 2000;
    opts.chains = 1;
    opts.seed = 13;
    core::AnnealingSolver solver(eval, opts);
    const auto init =
        core::TieringPlan::uniform(bench_workload().size(), StorageTier::kPersistentSsd);
    for (auto _ : state) {
        benchmark::DoNotOptimize(solver.solve(init));
    }
}
BENCHMARK(BM_Ablation_GroupMoves)->Arg(0)->Arg(1);

}  // namespace

BENCHMARK_MAIN();
