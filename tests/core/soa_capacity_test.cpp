// Differential test of the SoA core's O(changed) capacity pass: seeded,
// hostile random walks through set_decision / evaluate_candidate / commit /
// revert / swap_current, with every field checked bit for bit against the
// uncached PlanEvaluator::evaluate after every step. The walks aim at what
// recomputing only the touched tiers must get right: aggregates landing
// exactly on provisioning steps (whole 375 GB ephSSD volumes, whole-GB
// block volumes, the 10 GB minimum), extreme contributions (1e-30 GB and
// 1e20 GB), the objStore persSSD floor crossed both ways, empty tiers,
// per-VM overflows, stacked decisions on one job, reuse-group and
// app-class moves, and a custom catalog. A sum whose index-order rounding
// sits on a step while its exact value does not pins the summation order.
#include "core/soa_eval.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/fixed_sum.hpp"
#include "core/annealing.hpp"
#include "core/utility.hpp"
#include "test_support.hpp"

namespace cast::core {
namespace {

using cloud::StorageTier;
using cloud::tier_index;
using workload::AppKind;

workload::JobSpec mk_job(int id, AppKind app, double gb, std::optional<int> group = {},
                         std::optional<StorageTier> pin = {}) {
    const int maps = std::max(1, static_cast<int>(gb / 0.128));
    return workload::JobSpec{.id = id,
                             .name = "j" + std::to_string(id),
                             .app = app,
                             .input = GigaBytes{gb},
                             .map_tasks = maps,
                             .reduce_tasks = std::max(1, maps / 4),
                             .reuse_group = group,
                             .pinned_tier = pin};
}

bool same_bits(double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// The plan the flat arrays hold (the candidate while one is staged).
TieringPlan plan_of(const SoaState& state) {
    std::vector<PlacementDecision> decisions;
    for (std::size_t i = 0; i < state.tier.size(); ++i) {
        decisions.push_back({cloud::kAllTiers[state.tier[i]], state.overprov[i]});
    }
    return TieringPlan{std::move(decisions)};
}

void expect_caps(const CapacityBreakdown& got, const CapacityBreakdown& want,
                 const std::string& where) {
    for (std::size_t t = 0; t < cloud::kTierCount; ++t) {
        EXPECT_TRUE(same_bits(got.aggregate[t].value(), want.aggregate[t].value()))
            << where << ": aggregate of tier " << t << " " << got.aggregate[t].value()
            << " vs " << want.aggregate[t].value();
        EXPECT_TRUE(same_bits(got.per_vm[t].value(), want.per_vm[t].value()))
            << where << ": per-VM of tier " << t << " " << got.per_vm[t].value() << " vs "
            << want.per_vm[t].value();
    }
}

void expect_runtimes(const SoaState& state, const PlanEvaluation& ref,
                     const std::string& where) {
    ASSERT_EQ(state.runtime.size(), ref.job_runtimes.size());
    for (std::size_t i = 0; i < state.runtime.size(); ++i) {
        EXPECT_TRUE(same_bits(state.runtime[i], ref.job_runtimes[i].value()))
            << where << ": runtime of job " << i;
    }
}

/// Bit i of members[t] is set exactly when job i sits on tier t.
void expect_members(const SoaState& state, const std::string& where) {
    for (std::size_t i = 0; i < state.tier.size(); ++i) {
        for (std::size_t t = 0; t < cloud::kTierCount; ++t) {
            const bool bit = ((state.members[t][i / 64] >> (i % 64)) & 1) != 0;
            EXPECT_EQ(bit, state.tier[i] == t) << where << ": job " << i << " tier " << t;
        }
    }
}

/// Every committed field against evaluate() of the committed plan.
void expect_committed(const PlanEvaluator& eval, const SoaState& state,
                      const std::string& where) {
    ASSERT_TRUE(state.decision_undo.empty() && state.runtime_undo.empty()) << where;
    const PlanEvaluation ref = eval.evaluate(plan_of(state));
    ASSERT_TRUE(ref.feasible) << where << ": committed plan is infeasible";
    expect_caps(state.caps, ref.capacities, where + " (committed)");
    EXPECT_TRUE(same_bits(state.total_runtime, ref.total_runtime.value())) << where;
    EXPECT_TRUE(same_bits(state.vm_cost, ref.vm_cost.value())) << where;
    EXPECT_TRUE(same_bits(state.storage_cost, ref.storage_cost.value())) << where;
    EXPECT_TRUE(same_bits(state.utility, ref.utility)) << where;
    expect_runtimes(state, ref, where + " (committed)");
    expect_members(state, where);
}

/// Every candidate field against evaluate() of the staged plan.
void expect_candidate(const SoaState& state, bool feasible, const PlanEvaluation& ref,
                      const std::string& where) {
    ASSERT_EQ(feasible, ref.feasible) << where << ": " << ref.infeasibility;
    expect_members(state, where);
    if (!feasible) return;
    expect_caps(state.cand_caps, ref.capacities, where + " (candidate)");
    EXPECT_TRUE(same_bits(state.cand_total, ref.total_runtime.value())) << where;
    EXPECT_TRUE(same_bits(state.cand_vm, ref.vm_cost.value())) << where;
    EXPECT_TRUE(same_bits(state.cand_storage, ref.storage_cost.value())) << where;
    EXPECT_TRUE(same_bits(state.cand_utility, ref.utility)) << where;
    expect_runtimes(state, ref, where + " (candidate)");
}

/// A catalog service that forwards performance to a shipped service but
/// provisions in its own steps: max(minimum, ceil(x / step) · step),
/// refused above `max_gb` (none when unset).
class SteppedService final : public cloud::StorageService {
public:
    SteppedService(std::shared_ptr<const cloud::StorageService> base, double step,
                   double minimum, std::optional<double> max_gb)
        : StorageService(base->tier(), base->description() + " (stepped)", base->persistent(),
                         base->price_per_gb_month()),
          base_(std::move(base)),
          step_(step),
          minimum_(minimum),
          max_gb_(max_gb) {}

    [[nodiscard]] GigaBytes provision(GigaBytes requested) const override {
        CAST_EXPECTS(requested.value() >= 0.0);
        const double gb = std::max(minimum_, std::ceil(requested.value() / step_) * step_);
        if (max_gb_ && gb > *max_gb_) throw ValidationError("stepped: over the per-VM limit");
        return GigaBytes{gb};
    }
    [[nodiscard]] std::optional<GigaBytes> max_capacity_per_vm() const override {
        if (!max_gb_) return std::nullopt;
        return GigaBytes{*max_gb_};
    }
    [[nodiscard]] cloud::TierPerformance performance(GigaBytes provisioned) const override {
        return base_->performance(provisioned);
    }

private:
    std::shared_ptr<const cloud::StorageService> base_;
    double step_;
    double minimum_;
    std::optional<double> max_gb_;
};

/// The small profiled models over a custom catalog: ephSSD in 100 GB
/// volumes up to 6 per VM, persHDD in 4 GB steps without a limit (so 1e20
/// GB contributions are feasible there), persSSD and objStore as shipped.
const model::PerfModelSet& custom_catalog_models() {
    static const cloud::StorageCatalog kGoogle = cloud::StorageCatalog::google_cloud();
    static const model::PerfModelSet kModels = [] {
        // Non-owning views of the shipped services (kGoogle outlives them).
        const auto shipped = [](StorageTier t) {
            return std::shared_ptr<const cloud::StorageService>(
                &kGoogle.service(t), [](const cloud::StorageService*) {});
        };
        const cloud::StorageCatalog catalog = cloud::StorageCatalog::custom(
            "stepped",
            {std::make_shared<SteppedService>(shipped(StorageTier::kEphemeralSsd), 100.0, 100.0,
                                              600.0),
             shipped(StorageTier::kPersistentSsd),
             std::make_shared<SteppedService>(shipped(StorageTier::kPersistentHdd), 4.0, 8.0,
                                              std::nullopt),
             shipped(StorageTier::kObjectStore)});
        const model::PerfModelSet& profiled = testing::small_models();
        model::PerfModelSet set(profiled.cluster(), catalog);
        for (const AppKind app : workload::kAllApps) {
            for (const StorageTier t : cloud::kAllTiers) {
                set.set_tier_model(app, t, profiled.tier_model(app, t));
            }
        }
        return set;
    }();
    return kModels;
}

/// What the walks reached, summed over a test's walks.
struct Coverage {
    int feasible = 0;
    int infeasible = 0;
    int stacked = 0;
    int app_moves = 0;
    int group_moves = 0;
    int swaps = 0;
    int on_step = 0;
    int tiny = 0;
    int huge = 0;
    int floor_on = 0;
    int floor_off = 0;
    int emptied = 0;
    int filled = 0;
};

/// Index-order sums of the block tiers' raw aggregates under `plan`, as
/// evaluate() forms them, before the floor.
std::array<double, cloud::kTierCount> raw_aggregates(const PlanEvaluator& eval,
                                                     const TieringPlan& plan) {
    std::array<double, cloud::kTierCount> agg{};
    for (std::size_t i = 0; i < plan.size(); ++i) {
        const auto& d = plan.decision(i);
        agg[tier_index(d.tier)] += eval.job_requirement(i).value() * d.overprovision;
    }
    return agg;
}

/// The persSSD floor binds under `plan`: some job is on objStore and the
/// raw persSSD aggregate is below the floor.
bool floor_binds(const PlanEvaluator& eval, const TieringPlan& plan) {
    const int nvm = eval.models().cluster().worker_count;
    double inter = 0.0;
    bool any = false;
    for (std::size_t i = 0; i < plan.size(); ++i) {
        if (plan.decision(i).tier != StorageTier::kObjectStore) continue;
        any = true;
        inter = std::max(inter, eval.workload().job(i).intermediate().value());
    }
    if (!any) return false;
    const double floor =
        cloud::object_store_intermediate_volume(GigaBytes{inter}, nvm).value() * nvm;
    return raw_aggregates(eval, plan)[tier_index(StorageTier::kPersistentSsd)] < floor;
}

/// One seeded walk over two replicas of `eval`'s workload.
class Walk {
public:
    Walk(const PlanEvaluator& eval, const TieringPlan& seed_plan, std::uint64_t seed,
         Coverage& cov)
        : eval_(eval), soa_(eval), units_(move_units(eval, {})), rng_(seed), cov_(cov) {
        const PlanEvaluation pe = eval.evaluate(seed_plan);
        EXPECT_TRUE(pe.feasible) << pe.infeasibility;
        for (SoaState& s : states_) soa_.init(s, seed_plan, pe);
    }

    void run(int steps) {
        for (step_ = 0; step_ < steps && !::testing::Test::HasFatalFailure(); ++step_) {
            if (rng_.uniform() < 0.05) {
                SoaEvaluator::swap_current(states_[0], states_[1]);
                ++cov_.swaps;
                expect_committed(eval_, states_[0], where("after swap, replica 0"));
                expect_committed(eval_, states_[1], where("after swap, replica 1"));
                continue;
            }
            SoaState& state = states_[rng_.below(2)];
            const TieringPlan before = plan_of(state);
            changed_.clear();
            stage(state);
            const TieringPlan staged = plan_of(state);
            const PlanEvaluation ref = eval_.evaluate(staged);
            note(before, staged, state);
            const bool feasible = soa_.evaluate_candidate(state, changed_);
            expect_candidate(state, feasible, ref, where("candidate"));
            (feasible ? cov_.feasible : cov_.infeasible) += 1;
            if (feasible && rng_.uniform() < 0.6) {
                if (rng_.uniform() < 0.3) soa_.save_best(state);
                soa_.commit(state);
                expect_committed(eval_, state, where("after commit"));
            } else {
                soa_.revert(state);
                expect_committed(eval_, state, where("after revert"));
            }
        }
    }

private:
    std::string where(const std::string& what) const {
        return "step " + std::to_string(step_) + " " + what;
    }

    void set(SoaState& state, std::size_t job, std::size_t tier, double k) {
        soa_.set_decision(state, job, static_cast<std::uint8_t>(tier), k);
        changed_.push_back(job);
    }

    /// A tier the unit may take, drawn uniformly.
    std::size_t draw_tier(const MoveUnit& unit) {
        for (;;) {
            const std::size_t t = rng_.below(cloud::kTierCount);
            if ((unit.allowed_tiers & (1u << t)) != 0) return t;
        }
    }

    /// Factor that puts tier `t`'s index-order aggregate (with the unit on
    /// it at that factor) at or just beside a provisioning step: a step
    /// top p · nvm, for p the provisioned per-VM value of a random level
    /// (the minimum included). Nullopt when no factor >= 1 reaches it.
    std::optional<double> step_factor(const SoaState& state, const MoveUnit& unit,
                                      std::size_t t) {
        if (t == tier_index(StorageTier::kObjectStore)) return std::nullopt;
        const int nvm = eval_.models().cluster().worker_count;
        double others = 0.0;
        double unit_req = 0.0;
        for (std::size_t i = 0; i < state.tier.size(); ++i) {
            const bool in_unit =
                std::find(unit.jobs.begin(), unit.jobs.end(), i) != unit.jobs.end();
            if (in_unit) {
                unit_req += eval_.job_requirement(i).value();
            } else if (state.tier[i] == t) {
                others += eval_.job_requirement(i).value() * state.overprov[i];
            }
        }
        if (unit_req <= 0.0) return std::nullopt;
        const cloud::StorageService& svc =
            eval_.models().catalog().service(cloud::kAllTiers[t]);
        const double level = rng_.uniform() < 0.2
                                 ? 1e-9
                                 : (others + unit_req) / nvm * rng_.uniform(1.0, 3.0);
        double p = 0.0;
        try {
            p = svc.provision(GigaBytes{level}).value();
        } catch (const ValidationError&) {
            return std::nullopt;
        }
        const double k = (p * nvm - others) / unit_req;
        if (!(k >= 1.0) || !std::isfinite(k)) return std::nullopt;
        // Land on the step, or one ulp of k either side of it.
        const double nudge = rng_.uniform();
        if (nudge < 0.25) return std::nextafter(k, 0.0);
        if (nudge < 0.5) return std::nextafter(k, 1e300);
        return k;
    }

    /// A factor for `unit` on tier `t`: the menu, a step-landing factor, or
    /// an extreme (contributions of ~1e20 GB).
    double draw_factor(const SoaState& state, const MoveUnit& unit, std::size_t t) {
        static constexpr double kMenu[] = {1.0, 1.25, 1.5, 2.0, 3.0, 7.3, 40.0};
        const double u = rng_.uniform();
        if (u < 0.35) {
            if (const auto k = step_factor(state, unit, t)) return *k;
        }
        if (u > 0.95) {
            const double req = eval_.job_requirement(unit.jobs.front()).value();
            if (req > 0.0 && 1e20 / req >= 1.0) return 1e20 / req;
        }
        return kMenu[rng_.below(std::size(kMenu))];
    }

    /// Stage one random move (possibly several stacked ones).
    void stage(SoaState& state) {
        const double u = rng_.uniform();
        if (u < 0.15) {
            // App-class move, the annealer's batch move.
            const std::uint32_t app_bit = 1u << rng_.below(workload::kAllApps.size());
            const std::size_t t = rng_.below(cloud::kTierCount);
            for (const MoveUnit& unit : units_) {
                if ((unit.app_mask & app_bit) == 0 || (unit.allowed_tiers & (1u << t)) == 0) {
                    continue;
                }
                for (const std::size_t j : unit.jobs) {
                    if (state.tier[j] != t) set(state, j, t, state.overprov[j]);
                }
            }
            ++cov_.app_moves;
            return;
        }
        // One unit, moved one to three times before the evaluation.
        const MoveUnit& unit = units_[rng_.below(units_.size())];
        const int layers = u < 0.35 ? 2 + static_cast<int>(rng_.below(2)) : 1;
        for (int layer = 0; layer < layers; ++layer) {
            const std::size_t t = draw_tier(unit);
            const double k = draw_factor(state, unit, t);
            for (const std::size_t j : unit.jobs) set(state, j, t, k);
        }
        if (layers > 1) ++cov_.stacked;
        if (unit.jobs.size() > 1) ++cov_.group_moves;
    }

    /// Record what the staged candidate reaches.
    void note(const TieringPlan& before, const TieringPlan& staged, const SoaState& state) {
        const int nvm = eval_.models().cluster().worker_count;
        const auto agg = raw_aggregates(eval_, staged);
        for (const StorageTier t : {StorageTier::kEphemeralSsd, StorageTier::kPersistentSsd,
                                    StorageTier::kPersistentHdd}) {
            const double per_vm = agg[tier_index(t)] / nvm;
            if (per_vm <= 0.0) continue;
            try {
                if (eval_.models().catalog().service(t).provision(GigaBytes{per_vm}).value() ==
                    per_vm) {
                    ++cov_.on_step;
                }
            } catch (const ValidationError&) {
            }
        }
        for (std::size_t i = 0; i < staged.size(); ++i) {
            const auto& d = staged.decision(i);
            if (d.tier == StorageTier::kObjectStore) continue;
            const double c = eval_.job_requirement(i).value() * d.overprovision;
            if (c > 0.0 && c < 1e-20) ++cov_.tiny;
            if (c >= 0x1p40) ++cov_.huge;
        }
        const bool was = floor_binds(eval_, before);
        const bool now = floor_binds(eval_, staged);
        if (!was && now) ++cov_.floor_on;
        if (was && !now) ++cov_.floor_off;
        for (std::size_t t = 0; t < cloud::kTierCount; ++t) {
            bool had = false;
            bool has = false;
            for (std::size_t i = 0; i < staged.size(); ++i) {
                had = had || tier_index(before.decision(i).tier) == t;
                has = has || state.tier[i] == t;
            }
            if (had && !has) ++cov_.emptied;
            if (!had && has) ++cov_.filled;
        }
    }

    const PlanEvaluator& eval_;
    SoaEvaluator soa_;
    std::vector<MoveUnit> units_;
    Rng rng_;
    Coverage& cov_;
    std::array<SoaState, 2> states_;
    std::vector<std::size_t> changed_;
    int step_ = 0;
};

/// A mixed workload: a 3 TB Sort (overflows ephSSD, drives the persSSD
/// floor), mid-size jobs of every app, a 1e-30 GB job, a pinned job, and
/// (reuse-aware runs) two reuse groups.
workload::Workload hostile_workload() {
    return workload::Workload(
        {mk_job(1, AppKind::kSort, 3000.0), mk_job(2, AppKind::kJoin, 120.0, 1),
         mk_job(3, AppKind::kGrep, 120.0, 1), mk_job(4, AppKind::kKMeans, 40.0),
         mk_job(5, AppKind::kPageRank, 250.0, 2), mk_job(6, AppKind::kSort, 250.0, 2),
         mk_job(7, AppKind::kGrep, 1e-30), mk_job(8, AppKind::kJoin, 5.0),
         mk_job(9, AppKind::kSort, 60.0, std::nullopt, StorageTier::kPersistentHdd),
         mk_job(10, AppKind::kKMeans, 320.0), mk_job(11, AppKind::kGrep, 9.0),
         mk_job(12, AppKind::kPageRank, 150.0)});
}

void expect_coverage(const Coverage& cov) {
    EXPECT_GT(cov.feasible, 0);
    EXPECT_GT(cov.infeasible, 0);
    EXPECT_GT(cov.stacked, 0);
    EXPECT_GT(cov.app_moves, 0);
    EXPECT_GT(cov.swaps, 0);
    EXPECT_GT(cov.on_step, 0);
    EXPECT_GT(cov.tiny, 0);
    EXPECT_GT(cov.huge, 0);
    EXPECT_GT(cov.floor_on, 0);
    EXPECT_GT(cov.floor_off, 0);
    EXPECT_GT(cov.emptied, 0);
    EXPECT_GT(cov.filled, 0);
}

TEST(SoaCapacityWalk, ReuseObliviousMatchesEvaluateEveryStep) {
    const PlanEvaluator eval(testing::small_models(), hostile_workload());
    Coverage cov;
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
        TieringPlan plan = TieringPlan::uniform(eval.workload().size(),
                                                StorageTier::kPersistentSsd);
        plan.set_decision(8, PlacementDecision{StorageTier::kPersistentHdd, 1.0});
        Walk walk(eval, plan, seed, cov);
        walk.run(1500);
        if (seed == 3) expect_coverage(cov);
    }
}

TEST(SoaCapacityWalk, ReuseAwareGroupMovesMatchEvaluateEveryStep) {
    const PlanEvaluator eval(testing::small_models(), hostile_workload(),
                             EvalOptions{.reuse_aware = true});
    Coverage cov;
    for (const std::uint64_t seed : {4u, 5u, 6u}) {
        TieringPlan plan = TieringPlan::uniform(eval.workload().size(),
                                                StorageTier::kPersistentSsd);
        plan.set_decision(8, PlacementDecision{StorageTier::kPersistentHdd, 1.0});
        Walk walk(eval, plan, seed, cov);
        walk.run(1500);
        if (seed == 6) {
            expect_coverage(cov);
            EXPECT_GT(cov.group_moves, 0);
        }
    }
}

TEST(SoaCapacityWalk, CustomCatalogMatchesEvaluateEveryStep) {
    const PlanEvaluator eval(custom_catalog_models(), hostile_workload());
    Coverage cov;
    for (const std::uint64_t seed : {7u, 8u, 9u}) {
        TieringPlan plan = TieringPlan::uniform(eval.workload().size(),
                                                StorageTier::kPersistentSsd);
        plan.set_decision(8, PlacementDecision{StorageTier::kPersistentHdd, 1.0});
        Walk walk(eval, plan, seed, cov);
        walk.run(1500);
        if (seed == 9) expect_coverage(cov);
    }
}

/// A factor k >= 1 with RN(req · k) == target exactly, searched around
/// target / req; nullopt when none is near.
std::optional<double> exact_factor(double req, double target) {
    double k = target / req;
    for (int step = 0; step < 64; ++step) {
        if (k >= 1.0 && req * k == target) return k;
        k = req * k < target ? std::nextafter(k, 1e300) : std::nextafter(k, 0.0);
    }
    return std::nullopt;
}

// The index-order sum and the exact sum straddle a step. On persHDD (5
// VMs) a big contribution of exactly 5 × 6553 GB comes first in index
// order and twenty contributions just under half its ulp follow: each one
// rounds away, so evaluate() sums exactly 5 × 6553 and provisions 6553 GB
// per VM, while the exact sum sits about ten ulps higher, above the step.
// Any other summation order (the micro contributions first) lands there.
TEST(SoaCapacityWalk, AbsorbedContributionsOnAStepProvisionLikeEvaluate) {
    std::vector<workload::JobSpec> jobs = {mk_job(1, AppKind::kSort, 2000.0),
                                           mk_job(2, AppKind::kJoin, 50.0)};
    constexpr int kMicro = 20;
    for (int i = 0; i < kMicro; ++i) jobs.push_back(mk_job(3 + i, AppKind::kGrep, 1e-12));
    const PlanEvaluator eval(testing::small_models(), workload::Workload(jobs));
    const int nvm = eval.models().cluster().worker_count;
    ASSERT_EQ(nvm, 5);

    const double big = 6553.0 * nvm;
    ASSERT_EQ(std::ilogb(big), 14);  // ulp 2^-38
    const double micro = 0x1p-39 * (1.0 - 0x1p-10);  // under half an ulp
    const auto big_k = exact_factor(eval.job_requirement(0).value(), big);
    ASSERT_TRUE(big_k);
    TieringPlan plan = TieringPlan::uniform(eval.workload().size(),
                                            StorageTier::kPersistentSsd);
    plan.set_decision(0, PlacementDecision{StorageTier::kPersistentHdd, *big_k});
    std::vector<double> micro_k;
    for (int i = 0; i < kMicro; ++i) {
        const auto k = exact_factor(eval.job_requirement(2 + i).value(), micro);
        ASSERT_TRUE(k) << "micro job " << i;
        micro_k.push_back(*k);
        // All but the last start on persHDD already.
        if (i + 1 < kMicro) {
            plan.set_decision(2 + i, PlacementDecision{StorageTier::kPersistentHdd, *k});
        }
    }
    const PlanEvaluation pe = eval.evaluate(plan);
    ASSERT_TRUE(pe.feasible);
    ASSERT_EQ(pe.capacities.per_vm_of(StorageTier::kPersistentHdd).value(), 6553.0);

    const SoaEvaluator soa(eval);
    SoaState state;
    soa.init(state, plan, pe);
    const std::size_t last = 2 + kMicro - 1;
    soa.set_decision(state, last,
                     static_cast<std::uint8_t>(tier_index(StorageTier::kPersistentHdd)),
                     micro_k.back());
    const std::size_t changed[] = {last};
    const PlanEvaluation ref = eval.evaluate(plan_of(state));
    ASSERT_EQ(ref.capacities.per_vm_of(StorageTier::kPersistentHdd).value(), 6553.0);
    const bool feasible = soa.evaluate_candidate(state, changed);
    expect_candidate(state, feasible, ref, "absorbed sum");
    soa.commit(state);
    expect_committed(eval, state, "absorbed sum, committed");

    // Off the step.
    soa.set_decision(state, 0,
                     static_cast<std::uint8_t>(tier_index(StorageTier::kPersistentHdd)), 1.37);
    const std::size_t big_job[] = {0};
    const PlanEvaluation off = eval.evaluate(plan_of(state));
    const bool off_feasible = soa.evaluate_candidate(state, big_job);
    expect_candidate(state, off_feasible, off, "off the step");
}

// Stacked decisions on one job, evaluated: the candidate must equal the
// net move (committed decision -> current decision), and every tier the
// job visited in between is recomputed.
TEST(SoaCapacityWalk, StackedDecisionsEvaluateLikeTheNetMove) {
    const PlanEvaluator eval(testing::small_models(), hostile_workload());
    TieringPlan plan =
        TieringPlan::uniform(eval.workload().size(), StorageTier::kPersistentSsd);
    plan.set_decision(8, PlacementDecision{StorageTier::kPersistentHdd, 1.0});
    const PlanEvaluation pe = eval.evaluate(plan);
    ASSERT_TRUE(pe.feasible);
    const SoaEvaluator soa(eval);
    SoaState state;
    soa.init(state, plan, pe);
    const auto hdd = static_cast<std::uint8_t>(tier_index(StorageTier::kPersistentHdd));
    const auto eph = static_cast<std::uint8_t>(tier_index(StorageTier::kEphemeralSsd));
    const auto obj = static_cast<std::uint8_t>(tier_index(StorageTier::kObjectStore));
    const auto pers = static_cast<std::uint8_t>(tier_index(StorageTier::kPersistentSsd));
    // Job 3 visits persHDD, objStore and ephSSD, ending on persHDD; job 9
    // leaves persSSD and comes back at a new factor.
    soa.set_decision(state, 3, hdd, 3.0);
    soa.set_decision(state, 3, obj, 1.0);
    soa.set_decision(state, 3, eph, 2.0);
    soa.set_decision(state, 9, hdd, 1.25);
    soa.set_decision(state, 3, hdd, 1.5);
    soa.set_decision(state, 9, pers, 2.0);
    const std::size_t changed[] = {3, 9};
    const PlanEvaluation ref = eval.evaluate(plan_of(state));
    const bool feasible = soa.evaluate_candidate(state, changed);
    expect_candidate(state, feasible, ref, "stacked");
    soa.commit(state);
    expect_committed(eval, state, "stacked, committed");
}

// --- Fixed-point sums (core/fixed_sum.hpp) ---------------------------------

TEST(FixedSum, QuantizesOnceAndSumsInAnyOrder) {
    EXPECT_EQ(fixed_units(0.0), 0);
    EXPECT_EQ(fixed_units(1.0), std::int64_t{1} << 20);
    // Ties round to even.
    EXPECT_EQ(fixed_units(0.5 * kFixedUnit), 0);
    EXPECT_EQ(fixed_units(1.5 * kFixedUnit), 2);
    EXPECT_EQ(fixed_units(2.5 * kFixedUnit), 2);
    EXPECT_EQ(fixed_units(std::nextafter(0.5 * kFixedUnit, 1.0)), 1);
    // The edge of the exact range: 2^33 - 2^-20 is the last in-range term.
    EXPECT_EQ(fixed_units(0x1p33 - kFixedUnit), kFixedLimit - 1);
    EXPECT_EQ(fixed_units(0x1p33), kFixedLimit);
    EXPECT_EQ(fixed_units(std::nextafter(0x1p33, 1e300)), kFixedLimit);
    EXPECT_EQ(fixed_units(1e300), kFixedLimit);
    EXPECT_EQ(fixed_units(std::numeric_limits<double>::infinity()), kFixedLimit);
    EXPECT_EQ(fixed_units(std::numeric_limits<double>::quiet_NaN()), kFixedLimit);
    EXPECT_EQ(fixed_units(-kFixedUnit), kFixedLimit);

    const std::vector<double> terms = {3000.0, 0x1p-39, 1e-30, 123.456, 0x1p32, 7.25};
    FixedSum forward;
    FixedSum backward;
    for (const double t : terms) forward.add(t);
    for (auto it = terms.rbegin(); it != terms.rend(); ++it) backward.add(*it);
    EXPECT_TRUE(forward == backward);
    ASSERT_TRUE(forward.in_range());
    // Adding and removing a term restores the sum exactly.
    FixedSum moved = forward;
    moved.add_units(fixed_units(0.1));
    moved.sub_units(fixed_units(0.1));
    EXPECT_TRUE(moved == forward);

    FixedSum edge;
    edge.add(0x1p33 - kFixedUnit);
    EXPECT_TRUE(edge.in_range());
    EXPECT_EQ(edge.value(), 0x1p33 - kFixedUnit);
    edge.add(kFixedUnit);
    EXPECT_FALSE(edge.in_range());
}

/// A factor k >= 1 with fixed_units(RN(req · k)) == units, searched around
/// units / req; nullopt when none is near.
std::optional<double> factor_for_units(double req, std::int64_t units) {
    double k = static_cast<double>(units) * kFixedUnit / req;
    for (int step = 0; step < 64; ++step) {
        const std::int64_t got = fixed_units(req * k);
        if (k >= 1.0 && got == units) return k;
        k = got < units ? std::nextafter(k, 1e300) : std::nextafter(k, 0.0);
    }
    return std::nullopt;
}

/// A sum at the edge of the exact range, and just beyond it, on objStore
/// (no provider limit) and on the custom catalog's limitless persHDD: the
/// last in-range sum is feasible in both the SoA core and the reference,
/// the first one out of range (two in-range terms, or one term at or past
/// 2^33 GB) is infeasible in both.
TEST(SoaCapacityWalk, SumsAtTheEdgeOfTheExactRangeAgreeWithEvaluate) {
    const std::vector<workload::JobSpec> jobs = {mk_job(1, AppKind::kSort, 100.0),
                                                 mk_job(2, AppKind::kJoin, 80.0),
                                                 mk_job(3, AppKind::kGrep, 50.0)};
    for (const StorageTier tier : {StorageTier::kObjectStore, StorageTier::kPersistentHdd}) {
        SCOPED_TRACE(std::string(cloud::tier_name(tier)));
        const model::PerfModelSet& models = tier == StorageTier::kObjectStore
                                                ? testing::small_models()
                                                : custom_catalog_models();
        const PlanEvaluator eval(models, workload::Workload(jobs));
        const TieringPlan start =
            TieringPlan::uniform(jobs.size(), StorageTier::kPersistentSsd);
        const PlanEvaluation pe = eval.evaluate(start);
        ASSERT_TRUE(pe.feasible);
        const SoaEvaluator soa(eval);
        SoaState state;
        soa.init(state, start, pe);
        const auto ti = static_cast<std::uint8_t>(tier_index(tier));
        const double req_a = eval.job_requirement(0).value();
        const double req_b = eval.job_requirement(1).value();

        // Job 0 takes most of the range, job 1 the rest up to `total`.
        const double k_a = (0x1p33 - 0x1p13) / req_a;
        const std::int64_t a = fixed_units(req_a * k_a);
        ASSERT_LT(a, kFixedLimit);
        const auto stage = [&](std::int64_t total) -> std::optional<bool> {
            const auto k_b = factor_for_units(req_b, total - a);
            if (!k_b) return std::nullopt;
            soa.set_decision(state, 0, ti, k_a);
            soa.set_decision(state, 1, ti, *k_b);
            const std::size_t changed[] = {0, 1};
            const PlanEvaluation ref = eval.evaluate(plan_of(state));
            const bool feasible = soa.evaluate_candidate(state, changed);
            expect_candidate(state, feasible, ref, "edge " + std::to_string(total));
            soa.revert(state);
            expect_committed(eval, state, "edge, reverted");
            return feasible;
        };
        EXPECT_EQ(stage(kFixedLimit - 1), std::optional<bool>(true));
        EXPECT_EQ(stage(kFixedLimit), std::optional<bool>(false));
        EXPECT_EQ(stage(kFixedLimit + 1), std::optional<bool>(false));

        // One term at the edge, and one just past it.
        for (const double term : {0x1p33, std::nextafter(0x1p33, 1e300)}) {
            soa.set_decision(state, 2, ti, term / eval.job_requirement(2).value());
            const std::size_t changed[] = {2};
            ASSERT_EQ(fixed_units(eval.job_requirement(2).value() * state.overprov[2]),
                      kFixedLimit);
            const PlanEvaluation ref = eval.evaluate(plan_of(state));
            const bool feasible = soa.evaluate_candidate(state, changed);
            EXPECT_FALSE(feasible);
            expect_candidate(state, feasible, ref, "one term at the edge");
            soa.revert(state);
            expect_committed(eval, state, "one term, reverted");
        }
    }
}

/// The committed plan, its evaluation and its sums, for bitwise
/// before/after comparisons.
struct Committed {
    std::vector<std::uint8_t> tier;
    std::vector<double> overprov;
    std::vector<double> runtime;
    CapacityBreakdown caps;
    double total = 0.0;
    double vm = 0.0;
    double storage = 0.0;
    double utility = 0.0;
    SoaSums sums;

    explicit Committed(const SoaState& s)
        : tier(s.tier),
          overprov(s.overprov),
          runtime(s.runtime),
          caps(s.caps),
          total(s.total_runtime),
          vm(s.vm_cost),
          storage(s.storage_cost),
          utility(s.utility),
          sums(s.sums()) {}
};

void expect_restored(const SoaState& state, const Committed& before, const std::string& where) {
    EXPECT_TRUE(state.tier == before.tier) << where;
    EXPECT_TRUE(state.sums() == before.sums) << where << ": committed sums";
    EXPECT_TRUE(state.staged_sums() == before.sums) << where << ": staged sums";
    expect_caps(state.caps, before.caps, where);
    EXPECT_TRUE(same_bits(state.total_runtime, before.total)) << where;
    EXPECT_TRUE(same_bits(state.vm_cost, before.vm)) << where;
    EXPECT_TRUE(same_bits(state.storage_cost, before.storage)) << where;
    EXPECT_TRUE(same_bits(state.utility, before.utility)) << where;
    for (std::size_t i = 0; i < state.runtime.size(); ++i) {
        EXPECT_TRUE(same_bits(state.runtime[i], before.runtime[i]))
            << where << ": runtime of job " << i;
        EXPECT_TRUE(same_bits(state.overprov[i], before.overprov[i]))
            << where << ": factor of job " << i;
    }
}

/// Seeded walks of round trips: a move then revert, a move then the move
/// back before evaluation, and a move committed then moved back and
/// committed must each restore every sum, the objStore maximum, the total
/// and every committed field bit for bit. After every commit the sums must
/// equal those a fresh init builds from the committed plan, and every
/// field must equal evaluate()'s.
class RoundTripWalk {
public:
    RoundTripWalk(const PlanEvaluator& eval, const TieringPlan& seed_plan, std::uint64_t seed)
        : eval_(eval), soa_(eval), units_(move_units(eval, {})), rng_(seed) {
        const PlanEvaluation pe = eval.evaluate(seed_plan);
        EXPECT_TRUE(pe.feasible) << pe.infeasibility;
        soa_.init(state_, seed_plan, pe);
    }

    /// Counts of what the walk reached.
    int reverted = 0;
    int moved_back = 0;
    int committed_back = 0;
    int holder_left = 0;

    void run(int steps) {
        for (step_ = 0; step_ < steps && !::testing::Test::HasFatalFailure(); ++step_) {
            const Committed before(state_);
            const double u = rng_.uniform();
            const MoveUnit& unit = units_[rng_.below(units_.size())];
            if (u < 0.3) {
                stage(unit, before);
                evaluate("move");
                soa_.revert(state_);
                ++reverted;
                expect_restored(state_, before, where("move, revert"));
            } else if (u < 0.55) {
                stage(unit, before);
                for (const std::size_t j : unit.jobs) {
                    set(j, before.tier[j], before.overprov[j]);
                }
                ASSERT_TRUE(evaluate("move, move back"));
                EXPECT_TRUE(state_.staged_sums() == before.sums) << where("move back, staged");
                expect_caps(state_.cand_caps, before.caps, where("move back, candidate"));
                EXPECT_TRUE(same_bits(state_.cand_total, before.total)) << where("move back");
                EXPECT_TRUE(same_bits(state_.cand_utility, before.utility)) << where("move back");
                soa_.commit(state_);
                ++moved_back;
                expect_restored(state_, before, where("move, move back, commit"));
            } else if (u < 0.8) {
                stage(unit, before);
                if (!evaluate("move")) {
                    soa_.revert(state_);
                    continue;
                }
                commit("move, commit");
                for (const std::size_t j : unit.jobs) {
                    set(j, before.tier[j], before.overprov[j]);
                }
                ASSERT_TRUE(evaluate("move back"));
                commit("move back, commit");
                ++committed_back;
                expect_restored(state_, before, where("move, commit, move back, commit"));
            } else {
                stage(unit, before);
                if (evaluate("wander")) {
                    commit("wander, commit");
                } else {
                    soa_.revert(state_);
                }
            }
        }
    }

private:
    std::string where(const std::string& what) const {
        return "step " + std::to_string(step_) + " " + what;
    }

    void set(std::size_t job, std::size_t tier, double k) {
        soa_.set_decision(state_, job, static_cast<std::uint8_t>(tier), k);
        changed_.push_back(job);
    }

    /// Stage one to three layers of moves of `unit`: a drawn tier it may
    /// take and a factor from the menu (rarely an extreme one).
    void stage(const MoveUnit& unit, const Committed& before) {
        static constexpr double kMenu[] = {1.0, 1.25, 1.5, 2.0, 3.0, 7.3, 40.0};
        changed_.clear();
        const double obj_max = before.sums.object_store_inter_max;
        const int layers = 1 + static_cast<int>(rng_.below(3));
        for (int layer = 0; layer < layers; ++layer) {
            std::size_t t = rng_.below(cloud::kTierCount);
            while ((unit.allowed_tiers & (1u << t)) == 0) t = rng_.below(cloud::kTierCount);
            const double k = rng_.uniform() < 0.05 ? 1e12 : kMenu[rng_.below(std::size(kMenu))];
            for (const std::size_t j : unit.jobs) set(j, t, k);
        }
        for (const std::size_t j : unit.jobs) {
            if (before.tier[j] == tier_index(StorageTier::kObjectStore) &&
                state_.tier[j] != before.tier[j] &&
                eval_.workload().job(j).intermediate().value() == obj_max) {
                ++holder_left;
            }
        }
    }

    bool evaluate(const std::string& what) {
        const PlanEvaluation ref = eval_.evaluate(plan_of(state_));
        const bool feasible = soa_.evaluate_candidate(state_, changed_);
        expect_candidate(state_, feasible, ref, where(what));
        changed_.clear();
        return feasible;
    }

    void commit(const std::string& what) {
        soa_.commit(state_);
        expect_committed(eval_, state_, where(what));
        // The incremental sums equal a fresh init's.
        const TieringPlan plan = plan_of(state_);
        SoaState fresh;
        soa_.init(fresh, plan, eval_.evaluate(plan));
        EXPECT_TRUE(fresh.sums() == state_.sums()) << where(what) << ": sums vs a fresh init";
        EXPECT_TRUE(state_.staged_sums() == state_.sums()) << where(what);
    }

    const PlanEvaluator& eval_;
    SoaEvaluator soa_;
    std::vector<MoveUnit> units_;
    Rng rng_;
    SoaState state_;
    std::vector<std::size_t> changed_;
    int step_ = 0;
};

TEST(SoaCapacityWalk, RoundTripsRestoreSumsBitForBit) {
    int reverted = 0;
    int moved_back = 0;
    int committed_back = 0;
    int holder_left = 0;
    for (const bool reuse_aware : {false, true}) {
        const PlanEvaluator eval(testing::small_models(), hostile_workload(),
                                 EvalOptions{.reuse_aware = reuse_aware});
        for (const std::uint64_t seed : {11u, 12u}) {
            TieringPlan plan = TieringPlan::uniform(eval.workload().size(),
                                                    StorageTier::kObjectStore);
            plan.set_decision(8, PlacementDecision{StorageTier::kPersistentHdd, 1.0});
            RoundTripWalk walk(eval, plan, seed);
            walk.run(600);
            reverted += walk.reverted;
            moved_back += walk.moved_back;
            committed_back += walk.committed_back;
            holder_left += walk.holder_left;
        }
    }
    EXPECT_GT(reverted, 0);
    EXPECT_GT(moved_back, 0);
    EXPECT_GT(committed_back, 0);
    EXPECT_GT(holder_left, 0);
}

}  // namespace
}  // namespace cast::core
