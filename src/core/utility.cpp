#include "core/utility.hpp"

#include <cmath>
#include <string>

#include "core/eval_cache.hpp"
#include "core/fixed_sum.hpp"
#include "lint/checks.hpp"

namespace cast::core {

namespace {
using cloud::StorageTier;
using cloud::tier_index;
}  // namespace

PlanEvaluator::PlanEvaluator(const model::PerfModelSet& models, workload::Workload workload,
                             EvalOptions options)
    : models_(&models), workload_(std::move(workload)), options_(options), rates_(models) {
    group_leader_.assign(workload_.size(), true);
    if (options_.reuse_aware) {
        for (const auto& [group, members] : workload_.reuse_groups()) {
            for (std::size_t i = 1; i < members.size(); ++i) {
                group_leader_[members[i]] = false;
            }
        }
    }
    // Per-job capacity terms are invariant across plans; precompute them so
    // the per-iteration capacities() loop is pure array arithmetic. The
    // stored doubles are exactly what the accessors return, so plans
    // evaluate bit-identically to recomputing in the loop.
    req_.reserve(workload_.size());
    eph_backing_.reserve(workload_.size());
    inter_.reserve(workload_.size());
    for (std::size_t i = 0; i < workload_.size(); ++i) {
        const auto& job = workload_.job(i);
        req_.push_back(job_requirement(i));
        GigaBytes backing = job.output();
        if (pays_input_download(i)) backing += job.input;
        eph_backing_.push_back(backing);
        inter_.push_back(job.intermediate());
        if (job.pinned_tier) has_tier_pins_ = true;
    }
}

GigaBytes PlanEvaluator::job_requirement(std::size_t job_idx) const {
    const auto& job = workload_.job(job_idx);
    if (options_.reuse_aware && job.reuse_group && !group_leader_[job_idx]) {
        // The shared input is provisioned by the group leader.
        return job.intermediate() + job.output();
    }
    return job.capacity_requirement();
}

bool PlanEvaluator::pays_input_download(std::size_t job_idx) const {
    const auto& job = workload_.job(job_idx);
    return !(options_.reuse_aware && job.reuse_group && !group_leader_[job_idx]);
}

CapacityBreakdown PlanEvaluator::capacities(const TieringPlan& plan) const {
    CAST_EXPECTS_MSG(plan.size() == workload_.size(), "plan/workload size mismatch");
    // Eq. 3 aggregates as exact fixed-point sums (core/fixed_sum.hpp): the
    // same bits in any order, so the SoA core can adjust them by ±term.
    std::array<FixedSum, cloud::kTierCount> sums;
    GigaBytes max_object_store_inter{0.0};
    bool any_on_object_store = false;
    const auto& ds = plan.decisions();
    for (std::size_t i = 0; i < workload_.size(); ++i) {
        const auto& d = ds[i];
        sums[tier_index(d.tier)].add(req_[i].value() * d.overprovision);
        if (d.tier == StorageTier::kEphemeralSsd) {
            // Backing store: the input comes from, and the output returns
            // to, objStore (charged there).
            sums[tier_index(StorageTier::kObjectStore)].add(eph_backing_[i].value());
        } else if (d.tier == StorageTier::kObjectStore) {
            any_on_object_store = true;
            if (inter_[i] > max_object_store_inter) max_object_store_inter = inter_[i];
        }
    }
    CapacityBreakdown caps;
    for (StorageTier t : cloud::kAllTiers) {
        const FixedSum& sum = sums[tier_index(t)];
        if (!sum.in_range()) {
            throw ValidationError("the plan's " + std::string(cloud::tier_name(t)) +
                                  " aggregate is beyond the exact fixed-point range");
        }
        caps.aggregate[tier_index(t)] = GigaBytes{sum.value()};
    }
    provision_capacities(models_->catalog(), models_->cluster().worker_count,
                         any_on_object_store ? std::optional(max_object_store_inter)
                                             : std::nullopt,
                         caps);
    return caps;
}

void provision_capacities(const cloud::StorageCatalog& catalog, int nvm,
                          std::optional<GigaBytes> object_store_inter,
                          CapacityBreakdown& caps) {
    if (object_store_inter) {
        // Reserve the conventional persSSD intermediate volume on each VM
        // if the plan does not already provision at least that much.
        auto& pers = caps.aggregate[tier_index(StorageTier::kPersistentSsd)];
        const GigaBytes floor = object_store_floor(*object_store_inter, nvm);
        if (pers < floor) pers = floor;
    }
    for (StorageTier t : cloud::kAllTiers) provision_tier(catalog, nvm, t, caps);
}

GigaBytes object_store_floor(GigaBytes object_store_inter, int nvm) {
    return GigaBytes{cloud::object_store_intermediate_volume(object_store_inter, nvm).value() *
                     nvm};
}

void provision_tier(const cloud::StorageCatalog& catalog, int nvm, StorageTier tier,
                    CapacityBreakdown& caps) {
    const std::size_t ti = tier_index(tier);
    const GigaBytes agg = caps.aggregate[ti];
    if (agg.value() <= 0.0) {
        caps.per_vm[ti] = GigaBytes{0.0};
        return;
    }
    if (tier == StorageTier::kObjectStore) {
        caps.per_vm[ti] = GigaBytes{agg.value() / nvm};
        return;
    }
    const GigaBytes per_vm = catalog.service(tier).provision(GigaBytes{agg.value() / nvm});
    caps.per_vm[ti] = per_vm;
    caps.aggregate[ti] = GigaBytes{per_vm.value() * nvm};
}

CostRates::CostRates(const model::PerfModelSet& models)
    : vm_per_minute(models.cluster().price_per_minute().value()) {
    for (StorageTier t : cloud::kAllTiers) {
        store_per_gb_hour[tier_index(t)] =
            models.catalog().service(t).price_per_gb_hour().value();
    }
}

std::pair<Dollars, Dollars> eq5_eq6_costs(const CostRates& rates, Seconds runtime,
                                          const CapacityBreakdown& caps) {
    CAST_EXPECTS(runtime.value() > 0.0);
    // Eq. 5: VM-minutes over the makespan (workers + master).
    const Dollars vm_cost{rates.vm_per_minute * runtime.minutes()};
    // Eq. 6: storage is billed per GB-hour with hourly rounding.
    const double hours = std::ceil(runtime.minutes() / 60.0);
    double storage = 0.0;
    for (std::size_t ti = 0; ti < cloud::kTierCount; ++ti) {
        const double cap = caps.aggregate[ti].value();
        if (cap <= 0.0) continue;
        storage += cap * rates.store_per_gb_hour[ti] * hours;
    }
    return {vm_cost, Dollars{storage}};
}

std::pair<Dollars, Dollars> PlanEvaluator::costs_for(Seconds runtime,
                                                     const CapacityBreakdown& caps) const {
    return eq5_eq6_costs(rates_, runtime, caps);
}

Seconds PlanEvaluator::job_runtime_for(const TieringPlan& plan, std::size_t job_idx,
                                       const CapacityBreakdown& caps,
                                       EvalCache* cache) const {
    const auto& d = plan.decision(job_idx);
    model::StagingLegs legs = model::StagingLegs::for_tier(d.tier);
    if (legs.download_input) legs.download_input = pays_input_download(job_idx);
    const GigaBytes per_vm = caps.per_vm[tier_index(d.tier)];
    if (cache != nullptr) {
        return cache->job_runtime(*models_, workload_.job(job_idx), d.tier, per_vm, legs);
    }
    return models_->job_runtime(workload_.job(job_idx), d.tier, per_vm, legs);
}

PlanEvaluation PlanEvaluator::evaluate(const TieringPlan& plan, EvalCache* cache) const {
    CAST_EXPECTS_MSG(plan.size() == workload_.size(), "plan/workload size mismatch");
    PlanEvaluation eval;
    if (workload_.empty()) {
        eval.infeasibility = "empty workload";
        return eval;
    }
    // Placement constraints (Eq. 7 co-location, operator pins) via the
    // shared lint checks, so solver, deployer and CLI agree on what a
    // violation is; the clean path appends nothing. A check that cannot
    // fire for this workload (no reuse groups tracked, no pins) is skipped
    // outright — it would append nothing either way.
    if (options_.reuse_aware || has_tier_pins_) {
        std::vector<lint::Finding> violations;
        if (options_.reuse_aware) {
            lint::check_reuse_group_split(workload_.jobs(), plan.decisions(), violations);
        }
        if (has_tier_pins_) {
            lint::check_tier_pins(workload_.jobs(), plan.decisions(), violations);
        }
        if (!violations.empty()) {
            eval.infeasibility = violations.front().message;
            return eval;
        }
    }
    try {
        eval.capacities = capacities(plan);
    } catch (const ValidationError& e) {
        eval.infeasibility = e.what();
        return eval;
    }

    // Eq. 4: serial makespan out of per-job REG estimates at the plan's
    // per-VM capacities, as an exact fixed-point sum.
    FixedSum units;
    eval.job_runtimes.reserve(workload_.size());
    for (std::size_t i = 0; i < workload_.size(); ++i) {
        const Seconds t = job_runtime_for(plan, i, eval.capacities, cache);
        eval.job_runtimes.push_back(t);
        units.add(t.value());
    }
    if (!units.in_range()) {
        eval.infeasibility = "the plan's total runtime is beyond the exact fixed-point range";
        return eval;
    }
    const Seconds total{units.value()};
    eval.total_runtime = total;
    const auto [vm, store] = costs_for(total, eval.capacities);
    eval.vm_cost = vm;
    eval.storage_cost = store;
    eval.utility = tenant_utility(total, eval.total_cost());
    eval.feasible = true;
    return eval;
}

}  // namespace cast::core
