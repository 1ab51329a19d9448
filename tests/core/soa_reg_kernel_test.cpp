// Differential test of the SoA core's REG kernel: runtimes built from the
// per-(job, tier) terms and the per-tier memo must equal
// PerfModelSet::job_runtime bit for bit, and the candidate evaluation must
// equal the uncached PlanEvaluator::evaluate. Moves place one unit alone on
// a tier at an over-provisioning factor chosen to land that tier's per-VM
// capacity below, at, between and above the REG spline knots.
#include "core/soa_eval.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/utility.hpp"
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

/// One job of every app (Sort twice, sharing a reuse group), plus a Grep
/// job so small that its intermediate and output volumes underflow to
/// zero: on ephSSD its upload leg moves nothing.
workload::Workload kernel_workload() {
    return workload::Workload(
        {mk_job(1, AppKind::kSort, 2.0, 1), mk_job(2, AppKind::kSort, 2.0, 1),
         mk_job(3, AppKind::kJoin, 3.0), mk_job(4, AppKind::kGrep, 4.0),
         mk_job(5, AppKind::kKMeans, 1.5), mk_job(6, AppKind::kPageRank, 1.0),
         mk_job(7, AppKind::kGrep, std::numeric_limits<double>::denorm_min())});
}
constexpr std::size_t kTinyJob = 6;

/// Move units of kernel_workload: the reuse group, then each other job.
const std::vector<std::vector<std::size_t>> kUnits = {{0, 1}, {2}, {3}, {4}, {5}};

/// The profiled small models with every objStore model replaced by one
/// that scales with provisioned objStore capacity (knots at `knots`
/// GB/VM, when given), the models of tier `intermediate_keyed` keying
/// their scale on the job's intermediate volume, and the (app, tier) pair
/// `omit` left unprofiled.
model::PerfModelSet hand_built_models(const std::vector<double>& knots,
                                      std::optional<std::pair<AppKind, StorageTier>> omit,
                                      std::optional<StorageTier> intermediate_keyed = {}) {
    const model::PerfModelSet& profiled = testing::small_models();
    model::PerfModelSet set(profiled.cluster(), profiled.catalog());
    for (const AppKind app : workload::kAllApps) {
        for (const StorageTier t : cloud::kAllTiers) {
            if (omit && omit->first == app && omit->second == t) continue;
            model::TierModel m = profiled.tier_model(app, t);
            if (t == StorageTier::kObjectStore && !knots.empty()) {
                std::vector<double> ys;
                for (std::size_t i = 0; i < knots.size(); ++i) ys.push_back(1.4 - 0.2 * i);
                m.runtime_scale = CubicHermiteSpline(knots, ys);
                m.scales_with_intermediate_volume = false;
            }
            if (intermediate_keyed == t) m.scales_with_intermediate_volume = true;
            set.set_tier_model(app, t, std::move(m));
        }
    }
    return set;
}

/// Where a per-VM capacity sits relative to a spline's knot range.
enum class KnotSpot { kBelow, kAt, kBetween, kAbove };

KnotSpot spot_of(const CubicHermiteSpline& spline, double x) {
    if (x < spline.min_x()) return KnotSpot::kBelow;
    if (x > spline.max_x()) return KnotSpot::kAbove;
    if (x == spline.min_x() || x == spline.max_x()) return KnotSpot::kAt;
    return KnotSpot::kBetween;
}

void expect_bit_identical(const SoaState& state, const PlanEvaluation& full) {
    ASSERT_TRUE(full.feasible);
    EXPECT_EQ(state.cand_total, full.total_runtime.value());
    EXPECT_EQ(state.cand_vm, full.vm_cost.value());
    EXPECT_EQ(state.cand_storage, full.storage_cost.value());
    EXPECT_EQ(state.cand_utility, full.utility);
    ASSERT_EQ(state.runtime.size(), full.job_runtimes.size());
    for (std::size_t i = 0; i < state.runtime.size(); ++i) {
        EXPECT_EQ(state.runtime[i], full.job_runtimes[i].value()) << "job " << i;
    }
    for (const StorageTier t : cloud::kAllTiers) {
        EXPECT_EQ(state.cand_caps.per_vm_of(t).value(), full.capacities.per_vm_of(t).value());
        EXPECT_EQ(state.cand_caps.aggregate_of(t).value(),
                  full.capacities.aggregate_of(t).value());
    }
}

/// Stage `unit` onto `tier` at factor `k` over `base`, through the SoA
/// core, and check the candidate against evaluate() and every runtime
/// against PerfModelSet::job_runtime. Returns the candidate's per-VM
/// capacity on `tier`.
double check_move(const PlanEvaluator& eval, const TieringPlan& base,
                  const std::vector<std::size_t>& unit, StorageTier tier, double k) {
    const PlanEvaluation base_eval = eval.evaluate(base);
    EXPECT_TRUE(base_eval.feasible);
    const SoaEvaluator soa(eval);
    SoaState state;
    soa.init(state, base, base_eval);
    TieringPlan next = base;
    for (const std::size_t j : unit) {
        soa.set_decision(state, j, static_cast<std::uint8_t>(tier_index(tier)), k);
        next.set_decision(j, PlacementDecision{tier, k});
    }
    const bool feasible = soa.evaluate_candidate(state, unit);
    const PlanEvaluation full = eval.evaluate(next);
    EXPECT_TRUE(feasible);
    if (!feasible) return 0.0;
    expect_bit_identical(state, full);
    const model::PerfModelSet& models = eval.models();
    for (std::size_t i = 0; i < next.size(); ++i) {
        const StorageTier t = next.decision(i).tier;
        model::StagingLegs legs = model::StagingLegs::for_tier(t);
        if (legs.download_input) legs.download_input = eval.pays_input_download(i);
        const Seconds direct = models.job_runtime(eval.workload().job(i), t,
                                                  full.capacities.per_vm_of(t), legs);
        EXPECT_EQ(state.runtime[i], direct.value()) << "job " << i;
    }
    return state.cand_caps.per_vm_of(tier).value();
}

/// Summed Eq. 3 requirement of a unit.
double unit_requirement(const PlanEvaluator& eval, const std::vector<std::size_t>& unit) {
    double req = 0.0;
    for (const std::size_t j : unit) req += eval.job_requirement(j).value();
    return req;
}

/// Sweep every unit of kernel_workload over ephSSD, persSSD and persHDD at
/// per-VM capacities spanning the spline knots; returns the knot spots
/// each capacity-scaled (app, tier) model was hit at.
std::map<std::pair<AppKind, StorageTier>, std::set<KnotSpot>> sweep_block_tiers(
    const PlanEvaluator& eval) {
    const model::PerfModelSet& models = eval.models();
    const int nvm = models.cluster().worker_count;
    std::map<std::pair<AppKind, StorageTier>, std::set<KnotSpot>> hit;
    for (const StorageTier tier : {StorageTier::kEphemeralSsd, StorageTier::kPersistentSsd,
                                   StorageTier::kPersistentHdd}) {
        // The rest of the plan sits on a block tier other than `tier`, so
        // the moved unit alone sets `tier`'s per-VM capacity.
        const StorageTier rest = tier == StorageTier::kPersistentHdd
                                     ? StorageTier::kPersistentSsd
                                     : StorageTier::kPersistentHdd;
        const TieringPlan base = TieringPlan::uniform(eval.workload().size(), rest);
        for (const auto& unit : kUnits) {
            const AppKind app = eval.workload().job(unit.front()).app;
            const CubicHermiteSpline& spline = models.tier_model(app, tier).runtime_scale;
            EXPECT_FALSE(spline.empty());
            if (spline.empty()) continue;
            // Targets in provisioned GB/VM. Block tiers round up to whole
            // GB (10 GB minimum) and ephSSD to whole 375 GB volumes, so
            // aiming half a GB under a target provisions exactly it.
            std::vector<double> targets;
            if (tier == StorageTier::kEphemeralSsd) {
                for (int v = 1; v <= 4; ++v) targets.push_back(375.0 * v);
            } else {
                targets = {10.0,
                           spline.min_x(),
                           std::floor((spline.min_x() + spline.max_x()) / 2.0) + 1.0,
                           100.0,
                           spline.max_x(),
                           spline.max_x() + 200.0};
            }
            const double req = unit_requirement(eval, unit);
            for (const double target : targets) {
                const double k = std::max(1.0, (target - 0.5) * nvm / req);
                const double per_vm = check_move(eval, base, unit, tier, k);
                EXPECT_EQ(per_vm, target) << "unit " << unit.front();
                hit[{app, tier}].insert(spot_of(spline, per_vm));
            }
        }
    }
    return hit;
}

TEST(SoaRegKernel, MatchesJobRuntimeAcrossSplineKnotsReuseOblivious) {
    const PlanEvaluator eval(testing::small_models(), kernel_workload());
    const auto hit = sweep_block_tiers(eval);
    for (const auto& [pair, spots] : hit) {
        if (pair.second == StorageTier::kEphemeralSsd) {
            EXPECT_TRUE(spots.contains(KnotSpot::kAt));
            continue;
        }
        EXPECT_EQ(spots.size(), 4u) << "app " << workload::app_index(pair.first) << " tier "
                                    << tier_index(pair.second);
    }
    EXPECT_EQ(hit.size(), workload::kAllApps.size() * 3);
}

TEST(SoaRegKernel, MatchesJobRuntimeAcrossSplineKnotsReuseAware) {
    // The reuse group's second member pays no input download on ephSSD.
    const PlanEvaluator eval(testing::small_models(), kernel_workload(),
                             EvalOptions{.reuse_aware = true});
    ASSERT_TRUE(eval.pays_input_download(0));
    ASSERT_FALSE(eval.pays_input_download(1));
    const auto hit = sweep_block_tiers(eval);
    EXPECT_EQ(hit.size(), workload::kAllApps.size() * 3);
}

TEST(SoaRegKernel, ProfiledObjectStoreRuntimesIgnoreCapacity) {
    // The profiled objStore models key their scale on the job's
    // intermediate volume; moving onto objStore also raises the persSSD
    // floor, so the persSSD jobs re-derive at the shifted capacity.
    const PlanEvaluator eval(testing::small_models(), kernel_workload());
    const TieringPlan base = TieringPlan::uniform(eval.workload().size(),
                                                  StorageTier::kPersistentSsd);
    for (const auto& unit : kUnits) {
        ASSERT_TRUE(eval.models()
                        .tier_model(eval.workload().job(unit.front()).app,
                                    StorageTier::kObjectStore)
                        .scales_with_intermediate_volume);
        for (const double k : {1.0, 3.0, 50.0, 2000.0}) {
            (void)check_move(eval, base, unit, StorageTier::kObjectStore, k);
        }
    }
}

TEST(SoaRegKernel, ZeroVolumeUploadLegMatches) {
    const PlanEvaluator eval(testing::small_models(), kernel_workload());
    const workload::JobSpec& tiny = eval.workload().job(kTinyJob);
    ASSERT_EQ(tiny.output().value(), 0.0);
    ASSERT_GT(tiny.input.value(), 0.0);
    const TieringPlan base = TieringPlan::uniform(eval.workload().size(),
                                                  StorageTier::kPersistentSsd);
    (void)check_move(eval, base, {kTinyJob}, StorageTier::kEphemeralSsd, 1.0);
    // A capacity-shifting move elsewhere re-derives the tiny job too.
    TieringPlan with_tiny = base;
    with_tiny.set_decision(kTinyJob, PlacementDecision{StorageTier::kEphemeralSsd, 1.0});
    (void)check_move(eval, with_tiny, {3}, StorageTier::kEphemeralSsd, 600.0);
}

TEST(SoaRegKernel, CapacityScaledObjectStoreModelMatches) {
    // A hand-built objStore model that scales with provisioned objStore
    // capacity: objStore runtimes then re-derive whenever that capacity
    // moves. Knots are the per-VM capacities the Sort group provisions at
    // k = 2, 8 and 32 (computed the way the evaluator computes them), so
    // the sweep lands exactly on them as well as below, between and above.
    const PlanEvaluator probe(testing::small_models(), kernel_workload());
    const int nvm = probe.models().cluster().worker_count;
    const std::vector<std::size_t> group = kUnits.front();
    const auto per_vm_at = [&](double k) {
        double agg = 0.0;
        for (const std::size_t j : group) agg += probe.job_requirement(j).value() * k;
        return agg / nvm;
    };
    const std::vector<double> knots = {per_vm_at(2.0), per_vm_at(8.0), per_vm_at(32.0)};
    const model::PerfModelSet models = hand_built_models(knots, std::nullopt);
    const PlanEvaluator eval(models, kernel_workload());
    const TieringPlan base = TieringPlan::uniform(eval.workload().size(),
                                                  StorageTier::kPersistentSsd);
    const CubicHermiteSpline& spline =
        models.tier_model(AppKind::kSort, StorageTier::kObjectStore).runtime_scale;
    std::set<KnotSpot> spots;
    for (const double k : {1.0, 2.0, 4.0, 8.0, 32.0, 64.0}) {
        const double per_vm = check_move(eval, base, group, StorageTier::kObjectStore, k);
        spots.insert(spot_of(spline, per_vm));
    }
    EXPECT_EQ(spots.size(), 4u);

    // With the group on objStore, moving another job there shifts the
    // objStore capacity under the group: its runtimes re-derive.
    TieringPlan on_obj = base;
    for (const std::size_t j : group) {
        on_obj.set_decision(j, PlacementDecision{StorageTier::kObjectStore, 4.0});
    }
    for (const auto& unit : kUnits) {
        if (unit == group) continue;
        (void)check_move(eval, on_obj, unit, StorageTier::kObjectStore, 3.0);
    }
}

TEST(SoaRegKernel, IntermediateKeyedModelWithStagingLegsMatches) {
    // A capacity-free scale on a tier that stages: the scale comes from
    // construction, the staging rates from the per-tier memo.
    const model::PerfModelSet models =
        hand_built_models({}, std::nullopt, StorageTier::kEphemeralSsd);
    const PlanEvaluator eval(models, kernel_workload(), EvalOptions{.reuse_aware = true});
    const TieringPlan base = TieringPlan::uniform(eval.workload().size(),
                                                  StorageTier::kPersistentSsd);
    for (const auto& unit : kUnits) {
        for (const double k : {1.0, 200.0}) {
            (void)check_move(eval, base, unit, StorageTier::kEphemeralSsd, k);
        }
    }
}

TEST(SoaRegKernel, UnprofiledPairStillRaisesPreconditionError) {
    const model::PerfModelSet models =
        hand_built_models({}, std::pair{AppKind::kGrep, StorageTier::kPersistentHdd});
    const PlanEvaluator eval(models, kernel_workload());
    const TieringPlan base = TieringPlan::uniform(eval.workload().size(),
                                                  StorageTier::kPersistentSsd);
    const PlanEvaluation base_eval = eval.evaluate(base);
    ASSERT_TRUE(base_eval.feasible);
    const SoaEvaluator soa(eval);
    SoaState state;
    soa.init(state, base, base_eval);
    // A modeled move still scores.
    soa.set_decision(state, 2, static_cast<std::uint8_t>(tier_index(StorageTier::kPersistentHdd)),
                     1.0);
    const std::vector<std::size_t> join{2};
    ASSERT_TRUE(soa.evaluate_candidate(state, join));
    soa.revert(state);
    // The Grep job has no persHDD model.
    soa.set_decision(state, 3, static_cast<std::uint8_t>(tier_index(StorageTier::kPersistentHdd)),
                     1.0);
    const std::vector<std::size_t> grep{3};
    EXPECT_THROW((void)soa.evaluate_candidate(state, grep), PreconditionError);
}

}  // namespace
}  // namespace cast::core
