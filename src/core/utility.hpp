// Tenant-utility evaluation of a tiering plan (paper Eq. 2-6).
//
// Implements the solver's objective exactly as modeled in §4.2.1:
//
//   max U = (1/T) / ($vm + $store)                                  (Eq. 2)
//   s.t.  cᵢ >= inputᵢ + interᵢ + outputᵢ                           (Eq. 3)
//   T = Σᵢ REG(sᵢ, capacity[sᵢ], R̂, L̂ᵢ)    [minutes]               (Eq. 4)
//   $vm = nvm · pricevm · T                                         (Eq. 5)
//   $store = Σ_f capacity[f] · pricestore[f] · ceil(T/60)           (Eq. 6)
//
// plus the deployment conventions the paper's measurements include: jobs on
// ephSSD also pay for objStore backing capacity and the staging legs, and
// jobs on objStore reserve a persSSD volume for intermediate data. With
// EvalOptions::reuse_aware (CAST++), inputs shared by a reuse group are
// provisioned once and downloaded once (Eq. 7 co-location is enforced by
// the solver's move generator and checked here).
#pragma once

#include <array>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cloud/storage.hpp"
#include "common/units.hpp"
#include "core/plan.hpp"
#include "model/profiler.hpp"
#include "workload/job.hpp"

namespace cast::core {

class EvalCache;
class SoaEvaluator;

struct EvalOptions {
    /// CAST++ data-reuse awareness (Eq. 7 + shared-capacity accounting).
    bool reuse_aware = false;
};

/// Aggregate and per-VM provisioned capacity per tier implied by a plan.
struct CapacityBreakdown {
    std::array<GigaBytes, cloud::kTierCount> aggregate{};
    std::array<GigaBytes, cloud::kTierCount> per_vm{};

    [[nodiscard]] GigaBytes aggregate_of(cloud::StorageTier t) const {
        return aggregate[cloud::tier_index(t)];
    }
    [[nodiscard]] GigaBytes per_vm_of(cloud::StorageTier t) const {
        return per_vm[cloud::tier_index(t)];
    }
    [[nodiscard]] GigaBytes total() const {
        GigaBytes sum{0.0};
        for (const auto& c : aggregate) sum += c;
        return sum;
    }
};

/// The prices Eq. 5-6 bill at, looked up once from a model set's cluster
/// and catalog: the cluster's VM price per minute (workers + master) and
/// each tier's storage price per GB-hour.
struct CostRates {
    explicit CostRates(const model::PerfModelSet& models);

    double vm_per_minute = 0.0;
    std::array<double, cloud::kTierCount> store_per_gb_hour{};
};

struct PlanEvaluation {
    bool feasible = false;
    std::string infeasibility;
    Seconds total_runtime{0.0};
    Dollars vm_cost{0.0};
    Dollars storage_cost{0.0};
    double utility = 0.0;
    CapacityBreakdown capacities;
    std::vector<Seconds> job_runtimes;

    [[nodiscard]] Dollars total_cost() const { return vm_cost + storage_cost; }
};

class PlanEvaluator {
public:
    PlanEvaluator(const model::PerfModelSet& models, workload::Workload workload,
                  EvalOptions options = {});

    [[nodiscard]] const workload::Workload& workload() const { return workload_; }
    [[nodiscard]] const model::PerfModelSet& models() const { return *models_; }
    [[nodiscard]] const EvalOptions& options() const { return options_; }

    /// Eq. 3 requirement of one job, reuse-adjusted when reuse_aware: the
    /// shared input is charged to the group's first member only.
    [[nodiscard]] GigaBytes job_requirement(std::size_t job_idx) const;

    /// Whether this job pays the input-download staging leg when placed on
    /// a non-persistent tier (false for reuse-group members after the
    /// first, when reuse_aware).
    [[nodiscard]] bool pays_input_download(std::size_t job_idx) const;

    /// Provisioned capacities (incl. objStore backing for ephSSD jobs and
    /// the persSSD intermediate reservation for objStore jobs). Each tier's
    /// aggregate is an exact fixed-point sum of its terms
    /// (core/fixed_sum.hpp). Throws ValidationError when an aggregate is
    /// beyond the sum's exact range, or (via the catalog) when a per-VM
    /// capacity exceeds provider limits.
    [[nodiscard]] CapacityBreakdown capacities(const TieringPlan& plan) const;

    /// Full Eq. 2-6 evaluation. The Eq. 4 total is the exact fixed-point
    /// sum of the per-job runtimes; a total beyond its range makes the plan
    /// infeasible. Never throws on infeasible plans: returns
    /// feasible=false with utility 0 so annealing can reject them. When a
    /// cache is supplied, per-job REG runtimes are memoized through it
    /// (bit-identical to the uncached path — REG is deterministic). The
    /// uncached call is the reference the solver's incremental SoA core
    /// (core/soa_eval.hpp) is tested against.
    [[nodiscard]] PlanEvaluation evaluate(const TieringPlan& plan,
                                          EvalCache* cache = nullptr) const;

    /// Cost of running for `runtime` with the given capacities (Eq. 5-6);
    /// shared with the deployer so modeled and measured costs use one
    /// formula.
    [[nodiscard]] std::pair<Dollars, Dollars> costs_for(Seconds runtime,
                                                        const CapacityBreakdown& caps) const;

private:
    /// The struct-of-arrays mirror of this evaluator (core/soa_eval.hpp)
    /// reads the precomputed per-job terms directly so the two
    /// implementations can never drift on inputs.
    friend class SoaEvaluator;

    /// REG runtime of job `job_idx` under `plan` at the plan's capacities,
    /// through `cache` when one is supplied.
    [[nodiscard]] Seconds job_runtime_for(const TieringPlan& plan, std::size_t job_idx,
                                          const CapacityBreakdown& caps,
                                          EvalCache* cache) const;

    const model::PerfModelSet* models_;
    workload::Workload workload_;
    EvalOptions options_;
    /// Eq. 5-6 rates, looked up once.
    CostRates rates_;
    /// job index -> true when the job is its reuse group's first member
    /// (or has no group).
    std::vector<bool> group_leader_;
    /// Plan-invariant per-job capacity terms, precomputed so the hot
    /// capacities() loop is pure array arithmetic: Eq. 3 requirement
    /// (reuse-adjusted), objStore backing volume when placed on ephSSD,
    /// and intermediate size (the objStore persSSD-floor driver).
    std::vector<GigaBytes> req_;
    std::vector<GigaBytes> eph_backing_;
    std::vector<GigaBytes> inter_;
    /// True when any job carries an operator tier pin; when false the pin
    /// lint check is skipped (it could never fire).
    bool has_tier_pins_ = false;
};

/// The provider's provisioning rule over accumulated tier aggregates — the
/// one copy every evaluator calls, so their capacities cannot drift. When
/// `object_store_inter` is set (some job sits on objStore; the value is the
/// largest such job's intermediate volume), persSSD is raised to the
/// conventional per-VM intermediate volume. Then each block tier's per-VM
/// share is rounded to what the provider provisions and its aggregate reset
/// to per_vm x nvm; objStore is split evenly, unrounded. Throws
/// ValidationError when a tier exceeds its per-VM limits.
void provision_capacities(const cloud::StorageCatalog& catalog, int nvm,
                          std::optional<GigaBytes> object_store_inter,
                          CapacityBreakdown& caps);

/// provision_capacities' persSSD floor: the conventional intermediate
/// volume for `object_store_inter` on each of `nvm` VMs.
[[nodiscard]] GigaBytes object_store_floor(GigaBytes object_store_inter, int nvm);

/// provision_capacities' step for one tier, on its (already floored)
/// aggregate; an empty tier gets a zero per-VM capacity. Lets an
/// incremental evaluator re-provision only the tiers a move touched.
void provision_tier(const cloud::StorageCatalog& catalog, int nvm, cloud::StorageTier tier,
                    CapacityBreakdown& caps);

/// Eq. 5-6 applied to a makespan and a capacity breakdown — the one cost
/// formula shared by PlanEvaluator, WorkflowEvaluator, the SoA core and the
/// Deployer, so modeled and measured costs can never drift apart.
[[nodiscard]] std::pair<Dollars, Dollars> eq5_eq6_costs(const CostRates& rates,
                                                        Seconds runtime,
                                                        const CapacityBreakdown& caps);

/// Eq. 2's utility for a given runtime and cost.
[[nodiscard]] inline double tenant_utility(Seconds runtime, Dollars total_cost) {
    CAST_EXPECTS(runtime.value() > 0.0);
    CAST_EXPECTS(total_cost.value() > 0.0);
    return (1.0 / runtime.minutes()) / total_cost.value();
}

}  // namespace cast::core
