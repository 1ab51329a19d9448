#include "core/soa_eval.hpp"

#include "lint/checks.hpp"

namespace cast::core {

namespace {
using cloud::StorageTier;
using cloud::tier_index;
constexpr std::size_t kEph = tier_index(StorageTier::kEphemeralSsd);
constexpr std::size_t kObj = tier_index(StorageTier::kObjectStore);
}  // namespace

SoaEvaluator::SoaEvaluator(const PlanEvaluator& evaluator)
    : aos_(&evaluator),
      n_(evaluator.workload().size()),
      nvm_(evaluator.models().cluster().worker_count),
      reg_(evaluator.models(), evaluator.workload().jobs(),
           [&evaluator](std::size_t job, StorageTier t) {
               model::StagingLegs legs = model::StagingLegs::for_tier(t);
               legs.download_input = legs.download_input && evaluator.pays_input_download(job);
               return legs;
           }) {
    req_.reserve(n_);
    eph_backing_.reserve(n_);
    inter_.reserve(n_);
    for (std::size_t i = 0; i < n_; ++i) {
        // The stored doubles are bitwise the evaluator's own precomputed
        // terms, so the capacity arithmetic below reproduces its results
        // exactly.
        req_.push_back(evaluator.req_[i].value());
        eph_backing_.push_back(evaluator.eph_backing_[i].value());
        inter_.push_back(evaluator.inter_[i].value());
    }
}

void SoaEvaluator::init(SoaState& state, const TieringPlan& plan,
                        const PlanEvaluation& eval) const {
    CAST_EXPECTS_MSG(plan.size() == n_, "plan/workload size mismatch");
    CAST_EXPECTS_MSG(eval.feasible && eval.job_runtimes.size() == n_,
                     "SoA state needs a feasible evaluated seed plan");
    std::vector<lint::Finding> violations;
    lint::check_tier_pins(aos_->workload().jobs(), plan.decisions(), violations);
    if (aos_->options().reuse_aware) {
        lint::check_reuse_group_split(aos_->workload().jobs(), plan.decisions(), violations);
    }
    CAST_EXPECTS_MSG(violations.empty(), violations.front().message);
    state.tier.resize(n_);
    state.overprov.resize(n_);
    state.runtime.resize(n_);
    for (std::size_t i = 0; i < n_; ++i) {
        state.tier[i] = static_cast<std::uint8_t>(tier_index(plan.decision(i).tier));
        state.overprov[i] = plan.decision(i).overprovision;
        state.runtime[i] = eval.job_runtimes[i].value();
    }
    state.caps = eval.capacities;
    state.total_runtime = eval.total_runtime.value();
    state.vm_cost = eval.vm_cost.value();
    state.storage_cost = eval.storage_cost.value();
    state.utility = eval.utility;

    state.decision_undo.clear();
    state.runtime_undo.clear();
    state.decision_undo.reserve(n_);
    state.runtime_undo.reserve(n_);

    state.best_tier = state.tier;
    state.best_overprov = state.overprov;
    state.best_runtime = state.runtime;
    state.best_caps = state.caps;
    state.best_total = state.total_runtime;
    state.best_vm = state.vm_cost;
    state.best_storage = state.storage_cost;
    state.best_utility = state.utility;

    reg_.bind(state.memo_);
}

void SoaEvaluator::set_decision(SoaState& state, std::size_t job, std::uint8_t tier_idx,
                                double overprov) const {
    state.decision_undo.push_back(
        {static_cast<std::uint32_t>(job), state.tier[job], state.overprov[job]});
    state.tier[job] = tier_idx;
    state.overprov[job] = overprov;
}

bool SoaEvaluator::evaluate_candidate(SoaState& state,
                                      std::span<const std::size_t> changed) const {
    state.runtime_undo.clear();
    // --- Capacity accounting, bit-identical to PlanEvaluator::capacities:
    // index-order accumulation into the tier aggregates, ephSSD backing on
    // objStore, the objStore persSSD floor, then provider provisioning
    // rounding (which may throw on per-VM limits -> infeasible).
    state.cand_caps = CapacityBreakdown{};
    auto& agg = state.cand_caps.aggregate;
    double max_object_store_inter = 0.0;
    bool any_on_object_store = false;
    for (std::size_t i = 0; i < n_; ++i) {
        const std::size_t ti = state.tier[i];
        agg[ti] += GigaBytes{req_[i] * state.overprov[i]};
        if (ti == kEph) {
            agg[kObj] += GigaBytes{eph_backing_[i]};
        } else if (ti == kObj) {
            any_on_object_store = true;
            if (inter_[i] > max_object_store_inter) max_object_store_inter = inter_[i];
        }
    }
    try {
        provision_capacities(aos_->models().catalog(), nvm_,
                             any_on_object_store
                                 ? std::optional(GigaBytes{max_object_store_inter})
                                 : std::nullopt,
                             state.cand_caps);
    } catch (const ValidationError&) {
        return false;
    }

    // --- Runtime reuse: bitwise per-VM comparison decides reusability per
    // tier (a tier where no runtime depends on capacity, such as objStore
    // under the paper's models, always reuses); jobs on capacity-shifted
    // tiers and changed jobs re-derive through the REG kernel; the total
    // re-sums in index order only when some runtime actually changed.
    std::array<bool, cloud::kTierCount> reusable{};
    bool all_reusable = true;
    for (std::size_t ti = 0; ti < cloud::kTierCount; ++ti) {
        reusable[ti] = !reg_.capacity_sensitive(ti) ||
                       state.caps.per_vm[ti].value() == state.cand_caps.per_vm[ti].value();
        all_reusable = all_reusable && reusable[ti];
    }
    const auto runtime = [&](std::size_t job) {
        const std::size_t ti = state.tier[job];
        return reg_.runtime(job, ti, state.cand_caps.per_vm[ti].value(), state.memo_);
    };
    bool any_runtime_changed = false;
    if (!all_reusable) {
        for (std::size_t i = 0; i < n_; ++i) {
            if (!reusable[state.tier[i]]) {
                const double t = runtime(i);
                any_runtime_changed |= t != state.runtime[i];
                state.runtime_undo.push_back(
                    {static_cast<std::uint32_t>(i), state.runtime[i]});
                state.runtime[i] = t;
            }
        }
    }
    for (std::size_t j : changed) {
        if (reusable[state.tier[j]]) {
            const double t = runtime(j);
            any_runtime_changed |= t != state.runtime[j];
            state.runtime_undo.push_back({static_cast<std::uint32_t>(j), state.runtime[j]});
            state.runtime[j] = t;
        }
    }
    double total = 0.0;
    if (any_runtime_changed) {
        for (const double t : state.runtime) total += t;
    } else {
        total = state.total_runtime;
    }

    const auto [vm, store] = eq5_eq6_costs(aos_->models(), Seconds{total}, state.cand_caps);
    state.cand_total = total;
    state.cand_vm = vm.value();
    state.cand_storage = store.value();
    state.cand_utility = tenant_utility(Seconds{total}, vm + store);
    return true;
}

void SoaEvaluator::commit(SoaState& state) const {
    state.caps = state.cand_caps;
    state.total_runtime = state.cand_total;
    state.vm_cost = state.cand_vm;
    state.storage_cost = state.cand_storage;
    state.utility = state.cand_utility;
    state.decision_undo.clear();
    state.runtime_undo.clear();
}

void SoaEvaluator::revert(SoaState& state) const {
    for (auto it = state.runtime_undo.rbegin(); it != state.runtime_undo.rend(); ++it) {
        state.runtime[it->job] = it->runtime;
    }
    for (auto it = state.decision_undo.rbegin(); it != state.decision_undo.rend(); ++it) {
        state.tier[it->job] = it->tier;
        state.overprov[it->job] = it->overprov;
    }
    state.decision_undo.clear();
    state.runtime_undo.clear();
}

void SoaEvaluator::save_best(SoaState& state) const {
    state.best_tier = state.tier;
    state.best_overprov = state.overprov;
    state.best_runtime = state.runtime;
    state.best_caps = state.cand_caps;
    state.best_total = state.cand_total;
    state.best_vm = state.cand_vm;
    state.best_storage = state.cand_storage;
    state.best_utility = state.cand_utility;
}

void SoaEvaluator::swap_current(SoaState& a, SoaState& b) {
    CAST_EXPECTS(a.decision_undo.empty() && a.runtime_undo.empty());
    CAST_EXPECTS(b.decision_undo.empty() && b.runtime_undo.empty());
    a.tier.swap(b.tier);
    a.overprov.swap(b.overprov);
    a.runtime.swap(b.runtime);
    std::swap(a.caps, b.caps);
    std::swap(a.total_runtime, b.total_runtime);
    std::swap(a.vm_cost, b.vm_cost);
    std::swap(a.storage_cost, b.storage_cost);
    std::swap(a.utility, b.utility);
}

TieringPlan SoaEvaluator::best_plan(const SoaState& state) const {
    std::vector<PlacementDecision> decisions;
    decisions.reserve(n_);
    for (std::size_t i = 0; i < n_; ++i) {
        decisions.push_back({cloud::kAllTiers[state.best_tier[i]], state.best_overprov[i]});
    }
    return TieringPlan{std::move(decisions)};
}

PlanEvaluation SoaEvaluator::best_evaluation(const SoaState& state) const {
    PlanEvaluation eval;
    eval.feasible = true;
    eval.total_runtime = Seconds{state.best_total};
    eval.vm_cost = Dollars{state.best_vm};
    eval.storage_cost = Dollars{state.best_storage};
    eval.utility = state.best_utility;
    eval.capacities = state.best_caps;
    eval.job_runtimes.reserve(n_);
    for (const double t : state.best_runtime) eval.job_runtimes.push_back(Seconds{t});
    return eval;
}

}  // namespace cast::core
