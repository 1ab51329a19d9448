// Differential test of the workflow REG kernels. Runtimes and cross-tier
// transfer times built from the shared REG split (core/reg_split.hpp) and
// a chain-private memo must equal PerfModelSet::job_runtime and
// WorkflowEvaluator::transfer_time bit for bit, and the SoA core's
// candidates (core/soa_eval.hpp), scored through them, must equal the
// reference evaluate() along a long annealing-shaped walk. A workflow
// solve's EvalCache traffic is its uniform sweep's and start plans', never
// the anneal loop's.
#include "core/reg_split.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/castpp.hpp"
#include "core/eval_cache.hpp"
#include "core/soa_eval.hpp"
#include "lint/checks.hpp"
#include "test_support.hpp"

namespace cast::core {
namespace {

using cloud::StorageTier;
using cloud::tier_index;
using workload::AppKind;

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

workload::JobSpec mk_job(int id, AppKind app, double gb) {
    const int maps = std::max(1, static_cast<int>(gb / 0.128));
    return workload::JobSpec{.id = id,
                             .name = "j" + std::to_string(id),
                             .app = app,
                             .input = GigaBytes{gb},
                             .map_tasks = maps,
                             .reduce_tasks = std::max(1, maps / 4)};
}

/// Every app, with roots, interior and terminal jobs:
///
///   1 Grep ──┬─> 2 Sort ───┬─> 4 Join ──> 7 tiny Grep (terminal)
///            └─> 3 KMeans ─┤
///   5 PageRank ────────────┤
///   6 tiny Grep (root) ────┘
///
/// The tiny Grep jobs' intermediate and output volumes underflow to zero:
/// job 6's edge moves nothing, and job 7's upload leg on ephSSD moves
/// nothing.
workload::Workflow kernel_workflow() {
    const double tiny = std::numeric_limits<double>::denorm_min();
    return workload::Workflow(
        "kernel",
        {mk_job(1, AppKind::kGrep, 4.0), mk_job(2, AppKind::kSort, 2.0),
         mk_job(3, AppKind::kKMeans, 1.5), mk_job(4, AppKind::kJoin, 3.0),
         mk_job(5, AppKind::kPageRank, 1.0), mk_job(6, AppKind::kGrep, tiny),
         mk_job(7, AppKind::kGrep, tiny)},
        {{1, 2}, {1, 3}, {2, 4}, {3, 4}, {5, 4}, {6, 4}, {4, 7}}, Seconds{1e6});
}

/// The workflow staging convention, derived here from the DAG: on ephSSD
/// a root downloads its input and a terminal job uploads its output.
model::StagingLegs workflow_legs(const workload::Workflow& wf, std::size_t i, StorageTier t) {
    const bool eph = t == StorageTier::kEphemeralSsd;
    return {eph && wf.predecessors(i).empty(), eph && wf.successors(i).empty()};
}

RegSplit workflow_split(const model::PerfModelSet& models, const workload::Workflow& wf) {
    return RegSplit(models, wf.jobs(),
                    [&wf](std::size_t i, StorageTier t) { return workflow_legs(wf, i, t); });
}

/// The bits a computation returns, or the error it raises.
struct Outcome {
    std::uint64_t bits = 0;
    std::string error;

    friend bool operator==(const Outcome&, const Outcome&) = default;
};

template <class F>
Outcome outcome_of(F&& f) {
    try {
        return {bits(f()), ""};
    } catch (const ValidationError& e) {
        return {0, std::string("ValidationError: ") + e.what()};
    } catch (const PreconditionError& e) {
        return {0, std::string("PreconditionError: ") + e.what()};
    }
}

/// Where a per-VM capacity sits relative to a spline's knot range.
enum class KnotSpot { kBelow, kAt, kBetween, kAbove };

KnotSpot spot_of(const CubicHermiteSpline& spline, double x) {
    if (x < spline.min_x()) return KnotSpot::kBelow;
    if (x > spline.max_x()) return KnotSpot::kAbove;
    for (const double k : spline.knots_x()) {
        if (x == k) return KnotSpot::kAt;
    }
    return KnotSpot::kBetween;
}

/// Per-VM capacities below, at, between and above `spline`'s knots.
std::vector<double> capacities_around(const CubicHermiteSpline& spline) {
    std::vector<double> xs{spline.min_x() / 2.0};
    const auto knots = spline.knots_x();
    for (std::size_t k = 0; k < knots.size(); ++k) {
        xs.push_back(knots[k]);
        if (k + 1 < knots.size()) xs.push_back((knots[k] + knots[k + 1]) / 2.0);
    }
    xs.push_back(spline.max_x() * 1.5);
    return xs;
}

TEST(WorkflowRegKernel, RuntimeMatchesJobRuntimeAcrossSplineKnots) {
    const model::PerfModelSet& models = testing::small_models();
    const workload::Workflow wf = kernel_workflow();
    const RegSplit split = workflow_split(models, wf);
    RegMemo memo;
    split.bind(memo);
    std::map<std::pair<AppKind, StorageTier>, std::set<KnotSpot>> hit;
    int legs_paid = 0;
    int over_limit_errors = 0;
    for (std::size_t i = 0; i < wf.size(); ++i) {
        const workload::JobSpec& job = wf.jobs()[i];
        for (const StorageTier t : cloud::kAllTiers) {
            const model::TierModel& m = models.tier_model(job.app, t);
            ASSERT_FALSE(m.runtime_scale.empty());
            const model::StagingLegs legs = workflow_legs(wf, i, t);
            legs_paid += (legs.download_input ? 1 : 0) + (legs.upload_output ? 1 : 0);
            const auto limit = models.catalog().service(t).max_capacity_per_vm();
            for (const double c : capacities_around(m.runtime_scale)) {
                SCOPED_TRACE("job " + std::to_string(i) + " tier " +
                             std::string(cloud::tier_name(t)) + " at " + std::to_string(c));
                const Outcome want = outcome_of(
                    [&] { return models.job_runtime(job, t, GigaBytes{c}, legs).value(); });
                const Outcome got =
                    outcome_of([&] { return split.runtime(i, tier_index(t), c, memo); });
                EXPECT_EQ(got, want);
                // Only a staging leg past ephSSD's volume limit (its
                // largest knot) fails to provision.
                if (limit && c > limit->value()) {
                    over_limit_errors += want.error.empty() ? 0 : 1;
                } else {
                    EXPECT_TRUE(want.error.empty()) << want.error;
                }
                if (!m.scales_with_intermediate_volume) {
                    hit[{job.app, t}].insert(spot_of(m.runtime_scale, c));
                }
            }
        }
    }
    // Roots 1, 5, 6 download and terminal 7 uploads on ephSSD; the roots'
    // downloads past the volume limit raise the same error both ways.
    EXPECT_EQ(legs_paid, 4);
    EXPECT_EQ(over_limit_errors, 3);
    // Every app's capacity-scaled block-tier model was hit below, at,
    // between and above its knots.
    for (const AppKind app : workload::kAllApps) {
        for (const StorageTier t : {StorageTier::kEphemeralSsd, StorageTier::kPersistentSsd,
                                    StorageTier::kPersistentHdd}) {
            const std::size_t spots = hit[{app, t}].size();
            EXPECT_EQ(spots, 4u)
                << "app " << workload::app_index(app) << " tier " << cloud::tier_name(t);
        }
    }
}

TEST(WorkflowRegKernel, TransferMatchesTransferTimeBetweenEveryTierPair) {
    const model::PerfModelSet& models = testing::small_models();
    const workload::Workflow wf = kernel_workflow();
    const WorkflowEvaluator eval(models, wf);
    const RegSplit split = workflow_split(models, wf);
    RegMemo memo;
    split.bind(memo);
    // A real producer's output, a zero output (tiny job 6) and a
    // non-positive guard value.
    const std::vector<double> volumes = {wf.jobs()[0].output().value(),
                                         wf.jobs()[5].output().value(), 0.0};
    ASSERT_GT(volumes[0], 0.0);
    ASSERT_EQ(volumes[1], 0.0);
    const std::map<StorageTier, std::vector<double>> capacities = {
        {StorageTier::kEphemeralSsd, {200.0, 375.0, 562.5, 750.0, 1500.0}},
        {StorageTier::kPersistentSsd, {10.0, 15.0, 42.0, 1000.0, 1500.0}},
        {StorageTier::kPersistentHdd, {10.0, 15.0, 42.0, 1000.0, 1500.0}},
        {StorageTier::kObjectStore, {0.5, 3.0, 250.0}}};
    int nonzero = 0;
    for (const StorageTier from : cloud::kAllTiers) {
        for (const StorageTier to : cloud::kAllTiers) {
            for (const double cf : capacities.at(from)) {
                for (const double ct : capacities.at(to)) {
                    for (const double v : volumes) {
                        const double want =
                            eval.transfer_time(GigaBytes{v}, from, GigaBytes{cf}, to,
                                               GigaBytes{ct})
                                .value();
                        const double got = split.transfer_time(v, tier_index(from), cf,
                                                               tier_index(to), ct, memo);
                        EXPECT_EQ(bits(got), bits(want))
                            << cloud::tier_name(from) << "@" << cf << " -> "
                            << cloud::tier_name(to) << "@" << ct << " volume " << v;
                        nonzero += want > 0.0 ? 1 : 0;
                    }
                }
            }
        }
    }
    EXPECT_GT(nonzero, 0);
}

TEST(WorkflowRegKernel, CollidingCapacitiesUsedAlternatelyStayExact) {
    const model::PerfModelSet& models = testing::small_models();
    const workload::Workflow wf = kernel_workflow();
    const RegSplit split = workflow_split(models, wf);
    // Two whole-GB persSSD capacities between the spline knots that share
    // one memo slot, and a third in another slot.
    double a = 0.0;
    double b = 0.0;
    for (double x = 101.0; x < 199.0 && b == 0.0; x += 1.0) {
        for (double y = x + 1.0; y < 199.0; y += 1.0) {
            if (RegMemo::slot_of(x) == RegMemo::slot_of(y)) {
                a = x;
                b = y;
                break;
            }
        }
    }
    ASSERT_GT(b, 0.0);
    double c = a + 1.0;
    while (RegMemo::slot_of(c) == RegMemo::slot_of(a)) c += 1.0;

    const std::size_t sort = wf.index_of(2);
    const std::size_t pers = tier_index(StorageTier::kPersistentSsd);
    const workload::JobSpec& job = wf.jobs()[sort];
    const auto reference = [&](double cap) {
        return models.job_runtime(job, StorageTier::kPersistentSsd, GigaBytes{cap},
                                  workflow_legs(wf, sort, StorageTier::kPersistentSsd))
            .value();
    };
    ASSERT_NE(bits(reference(a)), bits(reference(b)));
    RegMemo memo;
    split.bind(memo);
    for (int round = 0; round < 10; ++round) {
        for (const double cap : {a, b}) {
            const std::uint64_t before = memo.refreshes();
            EXPECT_EQ(bits(split.runtime(sort, pers, cap, memo)), bits(reference(cap)))
                << "round " << round << " at " << cap;
            // Each evicts the other.
            EXPECT_EQ(memo.refreshes(), before + 1);
        }
    }
    // Capacities in different slots both stay resident.
    EXPECT_EQ(bits(split.runtime(sort, pers, a, memo)), bits(reference(a)));
    EXPECT_EQ(bits(split.runtime(sort, pers, c, memo)), bits(reference(c)));
    const std::uint64_t settled = memo.refreshes();
    for (const double cap : {a, c, a, c}) {
        EXPECT_EQ(bits(split.runtime(sort, pers, cap, memo)), bits(reference(cap)));
    }
    EXPECT_EQ(memo.refreshes(), settled);
}

TEST(WorkflowRegKernel, MemoBoundToAnotherSplitStartsEmpty) {
    const workload::Workflow wf = kernel_workflow();
    const RegSplit first = workflow_split(testing::small_models(), wf);
    const RegSplit second = workflow_split(testing::small_models(), wf);
    const std::size_t pers = tier_index(StorageTier::kPersistentSsd);
    RegMemo memo;
    first.bind(memo);
    (void)first.runtime(1, pers, 120.0, memo);
    EXPECT_EQ(memo.refreshes(), 1u);
    first.bind(memo);  // same split: the entry survives
    (void)first.runtime(1, pers, 120.0, memo);
    EXPECT_EQ(memo.refreshes(), 1u);
    second.bind(memo);  // another split: refilled
    (void)second.runtime(1, pers, 120.0, memo);
    EXPECT_EQ(memo.refreshes(), 2u);
}

void expect_bit_equal(const WorkflowEvaluation& got, const WorkflowEvaluation& want) {
    ASSERT_EQ(got.feasible, want.feasible);
    EXPECT_EQ(got.infeasibility, want.infeasibility);
    for (std::size_t t = 0; t < cloud::kTierCount; ++t) {
        EXPECT_EQ(bits(got.capacities.aggregate[t].value()),
                  bits(want.capacities.aggregate[t].value()));
        EXPECT_EQ(bits(got.capacities.per_vm[t].value()),
                  bits(want.capacities.per_vm[t].value()));
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

/// The SoA core's staged candidate as a WorkflowEvaluation.
WorkflowEvaluation candidate_evaluation(const SoaState& state, const workload::Workflow& wf) {
    WorkflowEvaluation e;
    e.feasible = true;
    e.total_runtime = Seconds{state.cand_total};
    e.vm_cost = Dollars{state.cand_vm};
    e.storage_cost = Dollars{state.cand_storage};
    e.meets_deadline = e.total_runtime <= wf.deadline();
    e.capacities = state.cand_caps;
    for (std::size_t k = 0; k < state.runtime.size(); ++k) {
        auto& terms = k < wf.size() ? e.job_runtimes : e.transfer_times;
        terms.push_back(Seconds{state.runtime[k]});
    }
    return e;
}

/// Stages every decision of `plan` into `state`; returns the jobs touched.
std::vector<std::size_t> stage_plan(const SoaEvaluator& soa, SoaState& state,
                                    const WorkflowPlan& plan) {
    std::vector<std::size_t> changed;
    for (std::size_t i = 0; i < plan.decisions.size(); ++i) {
        const auto tier = static_cast<std::uint8_t>(tier_index(plan.decisions[i].tier));
        soa.set_decision(state, i, tier, plan.decisions[i].overprovision);
        changed.push_back(i);
    }
    return changed;
}

TEST(WorkflowRegKernel, SoaCandidateMatchesDirectModelCalls) {
    const model::PerfModelSet& models = testing::small_models();
    const workload::Workflow wf = kernel_workflow();
    const WorkflowEvaluator eval(models, wf);
    using P = PlacementDecision;
    const P eph{StorageTier::kEphemeralSsd, 1.0};
    const P obj{StorageTier::kObjectStore, 1.0};
    const P ssd{StorageTier::kPersistentSsd, 2.0};
    const P hdd{StorageTier::kPersistentHdd, 3.0};
    const std::vector<WorkflowPlan> plans = {
        // Every root downloads, the zero-output terminal uploads nothing.
        WorkflowPlan::uniform(wf.size(), StorageTier::kEphemeralSsd),
        WorkflowPlan::uniform(wf.size(), StorageTier::kEphemeralSsd, 4.0),
        // objStore as the sink (1 -> 2) and the source (2 -> 4, 5 -> 4).
        WorkflowPlan{{eph, obj, ssd, hdd, obj, eph, eph}},
        WorkflowPlan{{obj, eph, hdd, ssd, eph, obj, hdd}},
        WorkflowPlan{{ssd, hdd, obj, eph, hdd, ssd, obj}},
    };
    const SoaEvaluator soa(eval);
    SoaState state;
    soa.init(state, plans.back());
    for (std::size_t p = 0; p < plans.size(); ++p) {
        SCOPED_TRACE("plan " + std::to_string(p));
        const WorkflowPlan& plan = plans[p];
        const std::vector<std::size_t> changed = stage_plan(soa, state, plan);
        ASSERT_TRUE(soa.evaluate_candidate(state, changed));
        const WorkflowEvaluation out = candidate_evaluation(state, wf);
        const WorkflowEvaluation want = eval.evaluate(plan);
        ASSERT_TRUE(want.feasible) << want.infeasibility;
        expect_bit_equal(out, want);
        for (std::size_t i = 0; i < wf.size(); ++i) {
            const StorageTier t = plan.decisions[i].tier;
            const Seconds direct = models.job_runtime(
                wf.jobs()[i], t, want.capacities.per_vm_of(t), workflow_legs(wf, i, t));
            EXPECT_EQ(bits(out.job_runtimes[i].value()), bits(direct.value())) << "job " << i;
        }
        const auto& endpoints = wf.edge_endpoints();
        for (std::size_t k = 0; k < endpoints.size(); ++k) {
            const StorageTier su = plan.decisions[endpoints[k].from].tier;
            const StorageTier sv = plan.decisions[endpoints[k].to].tier;
            const Seconds direct = eval.transfer_time(
                wf.jobs()[endpoints[k].from].output(), su, want.capacities.per_vm_of(su), sv,
                want.capacities.per_vm_of(sv));
            EXPECT_EQ(bits(out.transfer_times[k].value()), bits(direct.value()))
                << "edge " << k;
        }
        soa.commit(state);
    }
}

TEST(WorkflowRegKernel, PinnedRandomWalkBitEqualsEvaluate) {
    // A walk shaped like the solver's (single-job tier or factor moves
    // staged on the SoA core, a pin check, accepts that commit, infeasible
    // candidates sometimes accepted) with one memo for all of it.
    std::vector<workload::JobSpec> jobs = kernel_workflow().jobs();
    jobs[2].pinned_tier = StorageTier::kPersistentSsd;
    const workload::Workflow base_wf = kernel_workflow();
    const workload::Workflow wf("pinned", std::move(jobs), base_wf.edges(),
                                Seconds{3000.0});
    const WorkflowEvaluator eval(testing::small_models(), wf);
    // The largest factor overflows ephSSD's per-VM volume limit.
    constexpr double kFactors[] = {1.0, 1.25, 2.0, 3.0, 8.0, 40.0, 400.0, 4000.0};
    constexpr int kSteps = 12000;
    Rng rng(20);
    const WorkflowPlan start = WorkflowPlan::uniform(wf.size(), StorageTier::kPersistentSsd);
    const SoaEvaluator soa(eval);
    SoaState state;
    soa.init(state, start);
    int feasible = 0;
    int pin_violations = 0;
    int overflows = 0;
    for (int step = 0; step < kSteps; ++step) {
        const std::size_t job = rng.below(wf.size());
        std::size_t t = state.tier[job];
        double k = state.overprov[job];
        if (rng.uniform() < 0.6) {
            while (t == state.tier[job]) t = rng.below(cloud::kAllTiers.size());
        } else {
            k = kFactors[rng.below(std::size(kFactors))];
        }
        soa.set_decision(state, job, static_cast<std::uint8_t>(t), k);
        const std::size_t changed[] = {job};
        const bool ok = soa.evaluate_candidate(state, changed) && soa.pins_hold(state);
        WorkflowPlan next{std::vector<PlacementDecision>(wf.size())};
        for (std::size_t i = 0; i < wf.size(); ++i) {
            next.decisions[i] = {cloud::kAllTiers[state.tier[i]], state.overprov[i]};
        }
        const WorkflowEvaluation want = eval.evaluate(next);
        SCOPED_TRACE("step " + std::to_string(step));
        ASSERT_EQ(ok, want.feasible) << want.infeasibility;
        if (ok) expect_bit_equal(candidate_evaluation(state, wf), want);
        if (::testing::Test::HasFailure()) return;
        std::vector<lint::Finding> violations;
        lint::check_tier_pins(wf.jobs(), next.decisions, violations);
        if (!violations.empty()) {
            ++pin_violations;
            EXPECT_FALSE(soa.pins_hold(state));
            EXPECT_EQ(want.infeasibility, violations.front().message);
        } else if (ok) {
            ++feasible;
        } else {
            ++overflows;
        }
        if (rng.uniform() < (ok ? 0.6 : 0.2)) {
            soa.commit(state);
        } else {
            soa.revert(state);
        }
    }
    EXPECT_GT(feasible, kSteps / 10);
    EXPECT_GT(pin_violations, 0);
    EXPECT_GT(overflows, 0);
    // The memo serves most lookups.
    EXPECT_LT(state.memo().refreshes(), static_cast<std::uint64_t>(kSteps));
}

TEST(WorkflowRegKernel, SolveCacheLookupsDoNotGrowWithIterations) {
    // The uniform sweep and the start plans evaluate through the cache;
    // annealing candidates never do, so doubling iter_max adds no lookups.
    const WorkflowEvaluator eval(testing::small_models(),
                                 workload::make_search_log_workflow(Seconds{8000.0}));
    const auto lookups = [&](int iter_max) {
        AnnealingOptions opts;
        opts.iter_max = iter_max;
        opts.chains = 2;
        const WorkflowSolver solver(eval, opts);
        EvalCache cache;
        const WorkflowSolveResult result = solver.solve(nullptr, &cache);
        EXPECT_EQ(result.iterations, 2 * iter_max);
        return cache.stats().lookups();
    };
    const std::uint64_t short_run = lookups(800);
    const std::uint64_t long_run = lookups(1600);
    EXPECT_GT(short_run, 0u);
    EXPECT_EQ(long_run, short_run);
}

}  // namespace
}  // namespace cast::core
