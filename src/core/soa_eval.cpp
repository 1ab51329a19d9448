#include "core/soa_eval.hpp"

#include <bit>

#include "lint/checks.hpp"

namespace cast::core {

namespace {
using cloud::StorageTier;
using cloud::tier_index;
constexpr std::size_t kEph = tier_index(StorageTier::kEphemeralSsd);
constexpr std::size_t kPers = tier_index(StorageTier::kPersistentSsd);
constexpr std::size_t kObj = tier_index(StorageTier::kObjectStore);
constexpr std::array<std::size_t, 3> kBlockTiers = {kEph, kPers,
                                                    tier_index(StorageTier::kPersistentHdd)};

/// Calls `fn(i)` for every set bit i of `words`, in index order.
template <typename Fn>
void for_each_bit(const std::vector<std::uint64_t>& words, Fn&& fn) {
    for (std::size_t w = 0; w < words.size(); ++w) {
        for (std::uint64_t bits = words[w]; bits != 0; bits &= bits - 1) {
            fn(w * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
        }
    }
}
}  // namespace

SoaEvaluator::SoaEvaluator(const PlanEvaluator& evaluator)
    : aos_(&evaluator),
      n_(evaluator.workload().size()),
      nvm_(evaluator.models().cluster().worker_count),
      rates_(evaluator.models()),
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
    const std::size_t words = (n_ + 63) / 64;
    for (auto& m : state.members) m.assign(words, 0);
    for (std::size_t i = 0; i < n_; ++i) {
        state.members[state.tier[i]][i / 64] |= std::uint64_t{1} << (i % 64);
    }
    sum_object_store(state);
    state.obj_any_ = state.cand_obj_any_;
    state.obj_inter_max_ = state.cand_obj_inter_max_;
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
    const std::uint64_t bit = std::uint64_t{1} << (job % 64);
    state.members[state.tier[job]][job / 64] &= ~bit;
    state.members[tier_idx][job / 64] |= bit;
    state.tier[job] = tier_idx;
    state.overprov[job] = overprov;
}

bool SoaEvaluator::provision_block_tier(SoaState& state, std::size_t ti, double floor) const {
    // evaluate()'s own index-order sum over the tier's members.
    double agg = 0.0;
    for_each_bit(state.members[ti], [&](std::size_t i) { agg += req_[i] * state.overprov[i]; });
    state.cand_caps.aggregate[ti] = GigaBytes{agg < floor ? floor : agg};
    try {
        provision_tier(aos_->models().catalog(), nvm_, cloud::kAllTiers[ti], state.cand_caps);
    } catch (const ValidationError&) {
        return false;
    }
    return true;
}

void SoaEvaluator::sum_object_store(SoaState& state) const {
    // evaluate()'s objStore terms in its order: ephSSD residents add their
    // backing volume, objStore residents their own contribution (selected,
    // not branched on: residency is unpredictable).
    const auto& eph = state.members[kEph];
    const auto& obj = state.members[kObj];
    double agg = 0.0;
    double inter_max = 0.0;
    std::uint64_t any_obj = 0;
    for (std::size_t w = 0; w < eph.size(); ++w) {
        any_obj |= obj[w];
        const std::uint64_t on_eph = eph[w];
        for (std::uint64_t bits = on_eph | obj[w]; bits != 0; bits &= bits - 1) {
            const auto b = static_cast<unsigned>(std::countr_zero(bits));
            const std::size_t i = w * 64 + b;
            const bool backing = ((on_eph >> b) & 1) != 0;
            const double own = req_[i] * state.overprov[i];
            agg += backing ? eph_backing_[i] : own;
            const double inter = backing ? 0.0 : inter_[i];
            inter_max = inter > inter_max ? inter : inter_max;
        }
    }
    state.cand_caps.aggregate[kObj] = GigaBytes{agg};
    provision_tier(aos_->models().catalog(), nvm_, StorageTier::kObjectStore, state.cand_caps);
    state.cand_obj_any_ = any_obj != 0;
    state.cand_obj_inter_max_ = inter_max;
}

bool SoaEvaluator::evaluate_candidate(SoaState& state,
                                      std::span<const std::size_t> changed) const {
    state.runtime_undo.clear();
    // --- Capacities, bit-identical to PlanEvaluator::capacities (see the
    // header): tiers no staged move touched keep their committed values.
    // objStore's terms move only with ephSSD/objStore residency or an
    // objStore resident's factor (an ephSSD job's backing ignores k).
    unsigned touched = 0;
    bool object_store_moved = false;
    for (const SoaState::DecisionUndo& u : state.decision_undo) {
        const std::uint8_t now = state.tier[u.job];
        touched |= (1u << u.tier) | (1u << now);
        const bool residency_moved =
            u.tier != now && (u.tier == kEph || u.tier == kObj || now == kEph);
        object_store_moved = object_store_moved || now == kObj || residency_moved;
    }
    state.cand_caps = state.caps;
    state.cand_obj_any_ = state.obj_any_;
    state.cand_obj_inter_max_ = state.obj_inter_max_;
    if (object_store_moved) {
        sum_object_store(state);
        // A moved persSSD floor re-provisions persSSD.
        if (state.cand_obj_any_ != state.obj_any_ ||
            state.cand_obj_inter_max_ != state.obj_inter_max_) {
            touched |= 1u << kPers;
        }
    }
    for (const std::size_t ti : kBlockTiers) {
        if ((touched & (1u << ti)) == 0) continue;
        double floor = 0.0;
        if (ti == kPers && state.cand_obj_any_) {
            floor = object_store_floor(GigaBytes{state.cand_obj_inter_max_}, nvm_).value();
        }
        if (!provision_block_tier(state, ti, floor)) return false;
    }

    // --- Runtime reuse: bitwise per-VM comparison decides reusability per
    // tier (a tier where no runtime depends on capacity, such as objStore
    // under the paper's models, always reuses); the members of
    // capacity-shifted tiers and the changed jobs re-derive through the
    // REG kernel; the total re-sums in index order only when some runtime
    // actually changed.
    std::array<bool, cloud::kTierCount> reusable{};
    for (std::size_t ti = 0; ti < cloud::kTierCount; ++ti) {
        reusable[ti] = !reg_.capacity_sensitive(ti) ||
                       state.caps.per_vm[ti].value() == state.cand_caps.per_vm[ti].value();
    }
    bool any_runtime_changed = false;
    const auto rederive = [&](std::size_t job) {
        const std::size_t ti = state.tier[job];
        const double t = reg_.runtime(job, ti, state.cand_caps.per_vm[ti].value(), state.memo_);
        any_runtime_changed |= t != state.runtime[job];
        state.runtime_undo.push_back({static_cast<std::uint32_t>(job), state.runtime[job]});
        state.runtime[job] = t;
    };
    for (std::size_t ti = 0; ti < cloud::kTierCount; ++ti) {
        if (!reusable[ti]) for_each_bit(state.members[ti], rederive);
    }
    for (const std::size_t j : changed) {
        if (reusable[state.tier[j]]) rederive(j);
    }
    double total = 0.0;
    if (any_runtime_changed) {
        for (const double t : state.runtime) total += t;
    } else {
        total = state.total_runtime;
    }

    const auto [vm, store] = eq5_eq6_costs(rates_, Seconds{total}, state.cand_caps);
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
    state.obj_any_ = state.cand_obj_any_;
    state.obj_inter_max_ = state.cand_obj_inter_max_;
    state.decision_undo.clear();
    state.runtime_undo.clear();
}

void SoaEvaluator::revert(SoaState& state) const {
    for (auto it = state.runtime_undo.rbegin(); it != state.runtime_undo.rend(); ++it) {
        state.runtime[it->job] = it->runtime;
    }
    for (auto it = state.decision_undo.rbegin(); it != state.decision_undo.rend(); ++it) {
        const std::uint64_t bit = std::uint64_t{1} << (it->job % 64);
        state.members[state.tier[it->job]][it->job / 64] &= ~bit;
        state.members[it->tier][it->job / 64] |= bit;
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
    a.members.swap(b.members);
    std::swap(a.obj_any_, b.obj_any_);
    std::swap(a.obj_inter_max_, b.obj_inter_max_);
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
