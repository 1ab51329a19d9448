#include "core/soa_eval.hpp"

#include <algorithm>
#include <bit>

#include "core/castpp.hpp"
#include "lint/checks.hpp"

namespace cast::core {

namespace {
using cloud::StorageTier;
using cloud::tier_index;
constexpr std::size_t kEph = tier_index(StorageTier::kEphemeralSsd);
constexpr std::size_t kPers = tier_index(StorageTier::kPersistentSsd);
constexpr std::size_t kObj = tier_index(StorageTier::kObjectStore);

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

SoaEvaluator::SoaEvaluator(const PlanEvaluator* aos, const model::PerfModelSet& models,
                           std::span<const workload::JobSpec> jobs,
                           const RegSplit::LegsFn& legs)
    : aos_(aos),
      models_(&models),
      n_(jobs.size()),
      nvm_(models.cluster().worker_count),
      rates_(models),
      reg_(models, jobs, legs) {
    backing_units_.reserve(n_);
    preds_.at.assign(n_ + 1, 0);
    succs_.at.assign(n_ + 1, 0);
    for (std::size_t i = 0; i < n_; ++i) {
        if (jobs[i].pinned_tier) {
            pins_.emplace_back(i, static_cast<std::uint8_t>(tier_index(*jobs[i].pinned_tier)));
        }
    }
}

SoaEvaluator::SoaEvaluator(const PlanEvaluator& evaluator)
    : SoaEvaluator(&evaluator, evaluator.models(), evaluator.workload().jobs(),
                   [&evaluator](std::size_t job, StorageTier t) {
                       model::StagingLegs legs = model::StagingLegs::for_tier(t);
                       legs.download_input =
                           legs.download_input && evaluator.pays_input_download(job);
                       return legs;
                   }) {
    req_.reserve(n_);
    inter_.reserve(n_);
    for (std::size_t i = 0; i < n_; ++i) {
        // The stored terms are bitwise the evaluator's own precomputed
        // ones, so the sums below quantize the same doubles it does.
        req_.push_back(evaluator.req_[i].value());
        backing_units_.push_back(fixed_units(evaluator.eph_backing_[i].value()));
        inter_.push_back(evaluator.inter_[i].value());
    }
    req_resident_ = req_;
}

SoaEvaluator::SoaEvaluator(const WorkflowEvaluator& evaluator)
    : SoaEvaluator(nullptr, evaluator.models(), evaluator.workflow().jobs(),
                   [&evaluator](std::size_t job, StorageTier t) {
                       return evaluator.staging_legs(job, t);
                   }) {
    const workload::Workflow& wf = evaluator.workflow();
    const auto add_distinct = [](Adjacency& adj, std::size_t i, std::vector<std::size_t> jobs) {
        std::ranges::sort(jobs);
        adj.to.insert(adj.to.end(), jobs.begin(), std::unique(jobs.begin(), jobs.end()));
        adj.at[i + 1] = static_cast<std::uint32_t>(adj.to.size());
    };
    req_ = evaluator.req_;
    req_resident_ = evaluator.req_resident_;
    inter_ = evaluator.inter_;
    for (std::size_t i = 0; i < n_; ++i) {
        backing_units_.push_back(fixed_units(evaluator.eph_backing_[i]));
        add_distinct(preds_, i, wf.predecessors(i));
        add_distinct(succs_, i, wf.successors(i));
    }
    for (const auto [u, v] : wf.edge_endpoints()) {
        edges_.push_back({u, v, evaluator.output_[u]});
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
    state.runtime.clear();
    for (const Seconds t : eval.job_runtimes) state.runtime.push_back(t.value());
    state.caps = eval.capacities;
    state.total_runtime = eval.total_runtime.value();
    state.vm_cost = eval.vm_cost.value();
    state.storage_cost = eval.storage_cost.value();
    state.utility = eval.utility;
    state.feasible = true;
    seed(state, plan.decisions());
    CAST_EXPECTS_MSG(state.sums_.runtime.in_range() &&
                         state.sums_.runtime.value() == eval.total_runtime.value(),
                     "the seed evaluation's total runtime is not its plan's");
}

void SoaEvaluator::init(SoaState& state, const WorkflowPlan& plan) const {
    CAST_EXPECTS_MSG(plan.decisions.size() == n_, "plan/workflow size mismatch");
    // Replicas anneal on different workers: a cache line of slack behind
    // each buffer a candidate writes keeps a small workflow's buffers off
    // the lines of a replica seeded next to it.
    const auto reserve = [](auto& v, std::size_t n) { v.reserve(n + 64 / sizeof(v[0])); };
    const std::size_t terms = n_ + edges_.size();
    reserve(state.tier, n_);
    reserve(state.overprov, n_);
    reserve(state.runtime, terms);
    reserve(state.decision_undo, n_);
    reserve(state.runtime_undo, terms);
    for (auto& m : state.members) reserve(m, (n_ + 63) / 64);
    state.runtime.assign(terms, 0.0);
    state.feasible = false;
    seed(state, plan.decisions);
}

void SoaEvaluator::seed(SoaState& state, std::span<const PlacementDecision> plan) const {
    state.tier.resize(n_);
    state.overprov.resize(n_);
    for (auto& m : state.members) m.assign((n_ + 63) / 64, 0);
    SoaSums& sums = state.sums_;
    sums = {};
    for (std::size_t i = 0; i < n_; ++i) {
        state.tier[i] = static_cast<std::uint8_t>(tier_index(plan[i].tier));
        state.overprov[i] = plan[i].overprovision;
    }
    for (std::size_t i = 0; i < n_; ++i) {
        const std::uint8_t t = state.tier[i];
        state.members[t][i / 64] |= std::uint64_t{1} << (i % 64);
        sums.tier[t].add_units(term_units(state, i));
        if (t == kEph) sums.tier[kObj].add_units(backing_units_[i]);
        if (t == kObj) {
            ++sums.on_object_store;
            if (inter_[i] > sums.object_store_inter_max) sums.object_store_inter_max = inter_[i];
        }
    }
    for (const double t : state.runtime) sums.runtime.add(t);
    state.cand_sums_ = sums;
    state.cand_rescan_ = false;
    state.cand_feasible = false;

    state.decision_undo.clear();
    state.runtime_undo.clear();
    state.decision_undo.reserve(n_);
    state.runtime_undo.reserve(state.runtime.size());

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

inline std::int64_t SoaEvaluator::term_units(const SoaState& state, std::size_t job) const {
    // Eq. 10: the input is resident when every predecessor shares the
    // job's tier; a job without predecessors pays its full requirement.
    const std::uint8_t t = state.tier[job];
    bool resident = !preds_[job].empty();
    for (const std::uint32_t p : preds_[job]) resident = resident && state.tier[p] == t;
    return fixed_units((resident ? req_resident_[job] : req_[job]) * state.overprov[job]);
}

void SoaEvaluator::set_decision(SoaState& state, std::size_t job, std::uint8_t tier_idx,
                                double overprov) const {
    const std::uint8_t was = state.tier[job];
    state.decision_undo.push_back({static_cast<std::uint32_t>(job), was, state.overprov[job]});
    const std::uint64_t bit = std::uint64_t{1} << (job % 64);
    state.members[was][job / 64] &= ~bit;
    state.members[tier_idx][job / 64] |= bit;
    // Re-stage the terms of the job and of its successors (their input
    // residency follows its tier); keep the persSSD floor's inputs: a join
    // raises the maximum, the leaving holder of the maximum asks a rescan.
    SoaSums& staged = state.cand_sums_;
    const auto succs = succs_[job];
    staged.tier[was].sub_units(term_units(state, job));
    for (const std::uint32_t s : succs) staged.tier[state.tier[s]].sub_units(term_units(state, s));
    state.tier[job] = tier_idx;
    state.overprov[job] = overprov;
    staged.tier[tier_idx].add_units(term_units(state, job));
    for (const std::uint32_t s : succs) staged.tier[state.tier[s]].add_units(term_units(state, s));
    if (was == kEph) staged.tier[kObj].sub_units(backing_units_[job]);
    if (tier_idx == kEph) staged.tier[kObj].add_units(backing_units_[job]);
    if (was == kObj && tier_idx != kObj) {
        --staged.on_object_store;
        state.cand_rescan_ =
            state.cand_rescan_ || inter_[job] == staged.object_store_inter_max;
    } else if (tier_idx == kObj && was != kObj) {
        ++staged.on_object_store;
        if (inter_[job] > staged.object_store_inter_max) {
            staged.object_store_inter_max = inter_[job];
        }
    }
}

bool SoaEvaluator::pins_hold(const SoaState& state) const {
    return std::ranges::all_of(pins_, [&](const auto& pin) {
        return state.tier[pin.first] == pin.second;
    });
}

bool SoaEvaluator::evaluate_candidate(SoaState& state,
                                      std::span<const std::size_t> changed) const {
    state.runtime_undo.clear();
    state.cand_feasible = false;
    // Without a valid committed evaluation, everything re-derives.
    const bool full = !state.feasible;
    // --- Capacities (see the header); a moved floor re-provisions persSSD.
    SoaSums& staged = state.cand_sums_;
    const SoaSums& committed = state.sums_;
    if (state.cand_rescan_) {
        double inter_max = 0.0;
        for_each_bit(state.members[kObj], [&](std::size_t i) {
            inter_max = inter_[i] > inter_max ? inter_[i] : inter_max;
        });
        staged.object_store_inter_max = inter_max;
        state.cand_rescan_ = false;
    }
    const bool on_object_store = staged.on_object_store > 0;
    const bool floor_moved =
        on_object_store != (committed.on_object_store > 0) ||
        staged.object_store_inter_max != committed.object_store_inter_max;
    state.cand_caps = state.caps;
    for (std::size_t ti = 0; ti < cloud::kTierCount; ++ti) {
        const FixedSum& sum = staged.tier[ti];
        if (!full && sum == committed.tier[ti] && !(ti == kPers && floor_moved)) continue;
        if (!sum.in_range()) return false;
        double agg = sum.value();
        if (ti == kPers && on_object_store) {
            const double floor =
                object_store_floor(GigaBytes{staged.object_store_inter_max}, nvm_).value();
            if (agg < floor) agg = floor;
        }
        state.cand_caps.aggregate[ti] = GigaBytes{agg};
        try {
            provision_tier(models_->catalog(), nvm_, cloud::kAllTiers[ti], state.cand_caps);
        } catch (const ValidationError&) {
            return false;
        }
    }

    // --- Runtimes and transfers (see the header).
    const auto& per_vm = state.cand_caps.per_vm;
    std::array<bool, cloud::kTierCount> same_vm{};
    std::array<bool, cloud::kTierCount> reusable{};
    for (std::size_t ti = 0; ti < cloud::kTierCount; ++ti) {
        same_vm[ti] = !full && state.caps.per_vm[ti].value() == per_vm[ti].value();
        reusable[ti] = same_vm[ti] || (!full && !reg_.capacity_sensitive(ti));
    }
    FixedSum total = committed.runtime;
    const auto restage = [&](std::size_t k, double t) {
        const double was = state.runtime[k];
        if (t == was) return;
        total.sub_units(fixed_units(was));
        total.add_units(fixed_units(t));
        state.runtime_undo.push_back({static_cast<std::uint32_t>(k), was});
        state.runtime[k] = t;
    };
    const auto rederive = [&](std::size_t job) {
        const std::size_t ti = state.tier[job];
        restage(job, reg_.runtime(job, ti, per_vm[ti].value(), state.memo_));
    };
    for (std::size_t ti = 0; ti < cloud::kTierCount; ++ti) {
        if (!reusable[ti]) for_each_bit(state.members[ti], rederive);
    }
    for (const std::size_t j : changed) {
        if (reusable[state.tier[j]]) rederive(j);
    }
    const auto moved = [&](std::size_t j) {
        return std::ranges::find(changed, j) != changed.end();
    };
    for (std::size_t e = 0; e < edges_.size(); ++e) {
        const Edge& edge = edges_[e];
        const std::size_t from = state.tier[edge.from];
        const std::size_t to = state.tier[edge.to];
        if (same_vm[from] && same_vm[to] && !moved(edge.from) && !moved(edge.to)) continue;
        restage(n_ + e, reg_.transfer_time(edge.volume, from, per_vm[from].value(), to,
                                           per_vm[to].value(), state.memo_));
    }
    if (!total.in_range()) {
        restore_runtimes(state);
        return false;
    }

    const double seconds = total.value();
    const auto [vm, store] = eq5_eq6_costs(rates_, Seconds{seconds}, state.cand_caps);
    staged.runtime = total;
    state.cand_total = seconds;
    state.cand_vm = vm.value();
    state.cand_storage = store.value();
    state.cand_utility = tenant_utility(Seconds{seconds}, vm + store);
    state.cand_feasible = true;
    return true;
}

void SoaEvaluator::commit(SoaState& state) const {
    state.caps = state.cand_caps;
    state.total_runtime = state.cand_total;
    state.vm_cost = state.cand_vm;
    state.storage_cost = state.cand_storage;
    state.utility = state.cand_utility;
    state.feasible = state.cand_feasible;
    state.sums_ = state.cand_sums_;
    state.decision_undo.clear();
    state.runtime_undo.clear();
}

void SoaEvaluator::restore_runtimes(SoaState& state) {
    for (auto it = state.runtime_undo.rbegin(); it != state.runtime_undo.rend(); ++it) {
        state.runtime[it->job] = it->runtime;
    }
    state.runtime_undo.clear();
}

void SoaEvaluator::revert(SoaState& state) const {
    restore_runtimes(state);
    for (auto it = state.decision_undo.rbegin(); it != state.decision_undo.rend(); ++it) {
        const std::uint64_t bit = std::uint64_t{1} << (it->job % 64);
        state.members[state.tier[it->job]][it->job / 64] &= ~bit;
        state.members[it->tier][it->job / 64] |= bit;
        state.tier[it->job] = it->tier;
        state.overprov[it->job] = it->overprov;
    }
    state.decision_undo.clear();
    state.cand_sums_ = state.sums_;
    state.cand_rescan_ = false;
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
    // With both logs empty, every staged field equals its committed one.
    std::swap(a.sums_, b.sums_);
    std::swap(a.cand_sums_, b.cand_sums_);
    std::swap(a.caps, b.caps);
    std::swap(a.total_runtime, b.total_runtime);
    std::swap(a.vm_cost, b.vm_cost);
    std::swap(a.storage_cost, b.storage_cost);
    std::swap(a.utility, b.utility);
    std::swap(a.feasible, b.feasible);
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
