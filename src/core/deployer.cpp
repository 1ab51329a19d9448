#include "core/deployer.hpp"

#include <algorithm>
#include <string>

#include "lint/analyzer.hpp"

namespace cast::core {

namespace {
using cloud::StorageTier;
using cloud::tier_index;

std::string fault_summary(const std::string& job_name, const sim::FaultStats& f) {
    std::string s = "job '" + job_name + "': " + std::to_string(f.task_retries) +
                    " task re-executions, " + std::to_string(f.request_retries) +
                    " request retries, " + std::to_string(f.stragglers) + " stragglers, " +
                    std::to_string(f.throttle_events) + " throttle events";
    if (f.backoff_delay.value() > 0.0) {
        s += ", " + std::to_string(f.backoff_delay.value()) + "s backoff";
    }
    return s;
}

/// Pre-deploy lint of a workload plan: shape, factor, pin and reuse rules
/// (L012-L018) plus the workload rules, all through the shared analyzer.
lint::Report lint_plan(const PlanEvaluator& evaluator, const TieringPlan& plan) {
    lint::LintContext ctx;
    ctx.models = &evaluator.models();
    ctx.reuse_aware = evaluator.options().reuse_aware;
    return lint::lint_workload_plan(evaluator.workload(), plan, ctx);
}

/// Pre-deploy lint of a workflow plan. L009 (deadline below the certified
/// lower bound) is demoted to a warning: the deployer's job is to execute
/// and measure — a plan that will miss its deadline still deploys, and the
/// report says MISSED (the §5.2.2 baselines depend on exactly that).
lint::Report lint_workflow_plan_for_deploy(const WorkflowEvaluator& evaluator,
                                           const WorkflowPlan& plan) {
    lint::LintContext ctx;
    ctx.models = &evaluator.models();
    lint::Report report =
        lint::lint_workflow_plan(evaluator.workflow(), plan.decisions, ctx);
    lint::demote(report, "L009", lint::Severity::kWarning);
    return report;
}

void capture_warnings(const lint::Report& report, std::vector<std::string>* out) {
    for (const lint::Finding* f : report.at(lint::Severity::kWarning)) {
        out->push_back(f->format());
    }
}

/// Account for a degraded job: its primary data moves to the backing object
/// store (billed there), and intermediates need the conventional persSSD
/// volume to exist.
CapacityBreakdown augment_for_degradation(CapacityBreakdown caps,
                                          const workload::JobSpec& job, int worker_count) {
    const GigaBytes inter_vol =
        cloud::object_store_intermediate_volume(job.intermediate(), worker_count);
    const std::size_t pers = tier_index(StorageTier::kPersistentSsd);
    if (caps.per_vm[pers].value() < inter_vol.value()) {
        caps.per_vm[pers] = inter_vol;
        caps.aggregate[pers] = GigaBytes{inter_vol.value() * worker_count};
    }
    const std::size_t obj = tier_index(StorageTier::kObjectStore);
    caps.aggregate[obj] += job.capacity_requirement();
    caps.per_vm[obj] += GigaBytes{job.capacity_requirement().value() / worker_count};
    return caps;
}

}  // namespace

sim::ClusterSim Deployer::make_sim(const model::PerfModelSet& models,
                                   const CapacityBreakdown& caps,
                                   const sim::SimOptions& options) const {
    sim::TierCapacities tc;
    for (StorageTier t : cloud::kAllTiers) {
        tc.set(t, caps.per_vm[tier_index(t)]);
    }
    return sim::ClusterSim(models.cluster(), models.catalog(), tc, options);
}

void Deployer::validate_plan(const PlanEvaluator& evaluator, const TieringPlan& plan) {
    lint::enforce(lint_plan(evaluator, plan));
    // Provisioning rules (per-VM volume maxima, whole-volume rounding) can
    // reject a decision; surface that before any job runs.
    (void)evaluator.capacities(plan);
}

void Deployer::validate_workflow_plan(const WorkflowEvaluator& evaluator,
                                      const WorkflowPlan& plan) {
    lint::enforce(lint_workflow_plan_for_deploy(evaluator, plan));
    const WorkflowEvaluation modeled = evaluator.evaluate(plan);
    if (!modeled.feasible) {
        throw ValidationError("cannot deploy an infeasible workflow plan: " +
                              modeled.infeasibility);
    }
}

Deployer::JobRun Deployer::run_with_policy(const model::PerfModelSet& models,
                                           const CapacityBreakdown& caps,
                                           const sim::ClusterSim& primary,
                                           const sim::JobPlacement& placement,
                                           std::size_t job_index, int* retry_count,
                                           std::vector<std::string>* fault_log) const {
    const workload::JobSpec& job = placement.job;
    JobRun out;
    std::string last_error;
    for (int attempt = 0; attempt < policy_.max_job_attempts; ++attempt) {
        try {
            if (attempt == 0) {
                out.result = primary.run_job(placement);
            } else {
                // A fresh execution sees fresh luck: salt the fault stream
                // (and only it — determinism of the deployment is preserved
                // because the salt depends only on the attempt number).
                sim::SimOptions salted = sim_options_;
                salted.faults.seed ^=
                    0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(attempt);
                out.result = make_sim(models, caps, salted).run_job(placement);
            }
            if (out.result.faults.any()) {
                fault_log->push_back(fault_summary(job.name, out.result.faults));
            }
            return out;
        } catch (const SimulationError& e) {
            last_error = e.what();
            ++*retry_count;
            if (attempt + 1 < policy_.max_job_attempts) {
                Seconds wait = policy_.retry_backoff_base;
                for (int i = 0; i < attempt; ++i) {
                    wait = Seconds{wait.value() * policy_.retry_backoff_multiplier};
                }
                out.backoff += wait;
                fault_log->push_back("job '" + job.name + "' attempt " +
                                     std::to_string(attempt + 1) + " failed (" + e.phase() +
                                     "): retrying after " + std::to_string(wait.value()) +
                                     "s backoff");
            }
        }
    }

    const bool already_on_backing_store =
        !placement.input_splits.empty() &&
        placement.input_splits.front().tier == StorageTier::kObjectStore;
    if (!policy_.degrade_to_backing_store || already_on_backing_store) {
        throw SimulationError("job failed " + std::to_string(policy_.max_job_attempts) +
                                       " executions; last: " + last_error,
                                   job.name, "deploy");
    }

    // Graceful degradation: re-home the job's data to the durable backing
    // object store and run it there fault-free (the backing store is the
    // reliability anchor of the paper's tiering conventions — ephSSD data
    // is *defined* as recoverable from it).
    fault_log->push_back("job '" + job.name + "' degraded to " +
                         std::string(cloud::tier_name(StorageTier::kObjectStore)) +
                         " after " + std::to_string(policy_.max_job_attempts) +
                         " failed executions");
    const int nvm = models.cluster().worker_count;
    const CapacityBreakdown degraded_caps = augment_for_degradation(caps, job, nvm);
    sim::SimOptions calm = sim_options_;
    calm.faults = sim::FaultProfile::none();
    const sim::JobPlacement fallback =
        sim::JobPlacement::on_tier(job, StorageTier::kObjectStore);
    out.result = make_sim(models, degraded_caps, calm).run_job(fallback);
    out.degraded = true;
    (void)job_index;
    return out;
}

WorkloadDeployment Deployer::deploy(const PlanEvaluator& evaluator,
                                    const TieringPlan& plan) const {
    const lint::Report checked = lint_plan(evaluator, plan);
    lint::enforce(checked);
    const auto& workload = evaluator.workload();

    WorkloadDeployment dep;
    capture_warnings(checked, &dep.lint_warnings);
    dep.capacities = evaluator.capacities(plan);
    const sim::ClusterSim simulator =
        make_sim(evaluator.models(), dep.capacities, sim_options_);

    std::vector<sim::JobPlacement> placements;
    placements.reserve(workload.size());
    for (std::size_t i = 0; i < workload.size(); ++i) {
        sim::JobPlacement p =
            sim::JobPlacement::on_tier(workload.job(i), plan.decision(i).tier);
        // Reuse-aware deployment: only the group leader downloads the
        // shared input onto the ephemeral tier; followers find it resident.
        if (p.stage_in) p.stage_in = evaluator.pays_input_download(i);
        placements.push_back(std::move(p));
    }

    Seconds total{0.0};
    dep.job_results.reserve(placements.size());
    for (std::size_t i = 0; i < placements.size(); ++i) {
        JobRun run = run_with_policy(evaluator.models(), dep.capacities, simulator,
                                     placements[i], i, &dep.retry_count, &dep.fault_log);
        if (run.degraded) {
            dep.degraded_jobs.push_back(i);
            dep.capacities = augment_for_degradation(dep.capacities, workload.job(i),
                                                     evaluator.models().cluster().worker_count);
        }
        total += run.result.makespan + run.backoff;
        dep.job_results.push_back(std::move(run.result));
    }
    dep.total_runtime = total;
    const auto [vm, store] = evaluator.costs_for(total, dep.capacities);
    dep.vm_cost = vm;
    dep.storage_cost = store;
    dep.utility = tenant_utility(total, dep.total_cost());
    return dep;
}

WorkflowDeployment Deployer::deploy_workflow(const WorkflowEvaluator& evaluator,
                                             const WorkflowPlan& plan) const {
    const lint::Report checked = lint_workflow_plan_for_deploy(evaluator, plan);
    lint::enforce(checked);
    const auto& wf = evaluator.workflow();

    // Capacity breakdown comes from the workflow evaluator (Eq. 10 +
    // conventions); reuse its provisioning by evaluating once.
    const WorkflowEvaluation modeled = evaluator.evaluate(plan);
    if (!modeled.feasible) {
        throw ValidationError("cannot deploy an infeasible workflow plan: " +
                              modeled.infeasibility);
    }

    WorkflowDeployment dep;
    capture_warnings(checked, &dep.lint_warnings);
    dep.capacities = modeled.capacities;
    const sim::ClusterSim simulator =
        make_sim(evaluator.models(), dep.capacities, sim_options_);

    Seconds total{0.0};
    dep.job_results.resize(wf.size());
    for (std::size_t i : wf.topological_order()) {
        const StorageTier tier = plan.decisions[i].tier;
        sim::JobPlacement p = sim::JobPlacement::on_tier(wf.jobs()[i], tier);
        if (tier == StorageTier::kEphemeralSsd) {
            // Mid-workflow inputs arrive via cross-tier transfers below,
            // not via objStore staging; mid-workflow outputs are consumed
            // downstream, not archived.
            p.stage_in = wf.predecessors(i).empty();
            p.stage_out = wf.successors(i).empty();
        }
        JobRun run = run_with_policy(evaluator.models(), dep.capacities, simulator, p, i,
                                     &dep.retry_count, &dep.fault_log);
        if (run.degraded) {
            dep.degraded_jobs.push_back(i);
            dep.capacities = augment_for_degradation(dep.capacities, wf.jobs()[i],
                                                     evaluator.models().cluster().worker_count);
        }
        total += run.result.makespan + run.backoff;
        dep.job_results[i] = std::move(run.result);
    }
    dep.transfer_times.reserve(wf.edges().size());
    for (const auto& [u, v] : wf.edge_endpoints()) {
        // A degraded producer's output now lives on the backing store, so
        // the consumer fetches from there instead of the planned tier.
        auto degraded = [&](std::size_t idx) {
            return std::find(dep.degraded_jobs.begin(), dep.degraded_jobs.end(), idx) !=
                   dep.degraded_jobs.end();
        };
        const StorageTier su =
            degraded(u) ? StorageTier::kObjectStore : plan.decisions[u].tier;
        const StorageTier sv =
            degraded(v) ? StorageTier::kObjectStore : plan.decisions[v].tier;
        Seconds t{0.0};
        if (su != sv) t = simulator.run_transfer(wf.jobs()[u].output(), su, sv);
        dep.transfer_times.push_back(t);
        total += t;
    }
    dep.total_runtime = total;

    // Bill via the shared Eq. 5-6 formula (eq5_eq6_costs): a deployed run
    // and its plan's model must cost identically for the same makespan and
    // capacities, or reports comparing them would show phantom drift.
    const auto [vm, store] =
        eq5_eq6_costs(CostRates(evaluator.models()), total, dep.capacities);
    dep.vm_cost = vm;
    dep.storage_cost = store;
    dep.met_deadline = total <= wf.deadline();
    return dep;
}

}  // namespace cast::core
