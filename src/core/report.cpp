#include "core/report.hpp"

#include <cmath>
#include <ostream>

#include "common/table.hpp"

namespace cast::core {

namespace {
using cloud::StorageTier;
using cloud::tier_index;

/// Shared fault section for workload/workflow deployments: silent when the
/// deployment saw no faults, so fault-free reports are unchanged.
void write_fault_section(int retry_count, const std::vector<std::size_t>& degraded_jobs,
                         const std::vector<std::string>& fault_log, std::ostream& os) {
    if (retry_count == 0 && degraded_jobs.empty() && fault_log.empty()) return;
    os << "\nfault handling: " << retry_count << " job re-execution(s), "
       << degraded_jobs.size() << " job(s) degraded to the backing store\n";
    for (const auto& line : fault_log) os << "  - " << line << "\n";
}

/// Shared lint-note section: silent when pre-solve/pre-deploy lint found
/// nothing, so clean reports are unchanged.
void write_lint_section(const std::vector<std::string>& notes, std::ostream& os) {
    if (notes.empty()) return;
    os << "\nlint notes:\n";
    for (const auto& line : notes) os << "  - " << line << "\n";
}
}  // namespace

void write_capacity_bill(const CapacityBreakdown& caps, Seconds runtime,
                         const cloud::StorageCatalog& catalog, std::ostream& os) {
    const double hours = std::max(std::ceil(runtime.minutes() / 60.0), 1.0);
    TextTable t({"tier", "aggregate (GB)", "per VM (GB)", "$/GB/hr", "billed hours",
                 "cost ($)"});
    double total = 0.0;
    for (StorageTier tier : cloud::kAllTiers) {
        const double agg = caps.aggregate_of(tier).value();
        if (agg <= 0.0) continue;
        const double rate = catalog.service(tier).price_per_gb_hour().value();
        const double cost = agg * rate * hours;
        total += cost;
        t.add_row({std::string(cloud::tier_name(tier)), fmt(agg, 0),
                   fmt(caps.per_vm_of(tier).value(), 0), fmt(rate, 6), fmt(hours, 0),
                   fmt(cost, 2)});
    }
    t.add_row({"total", fmt(caps.total().value(), 0), "", "", "", fmt(total, 2)});
    t.print(os);
}

void write_plan_report(const PlanEvaluator& evaluator, const TieringPlan& plan,
                       const PlanEvaluation& evaluation, std::ostream& os,
                       const std::vector<std::string>& lint_notes) {
    const auto& workload = evaluator.workload();
    CAST_EXPECTS(plan.size() == workload.size());
    os << "tiering plan: " << plan.summarize() << "\n\n";
    TextTable t({"job", "app", "input (GB)", "tier", "k", "modeled runtime (min)"});
    for (std::size_t i = 0; i < workload.size(); ++i) {
        const auto& job = workload.job(i);
        const auto& d = plan.decision(i);
        t.add_row({job.name, std::string(workload::app_name(job.app)),
                   fmt(job.input.value(), 1), std::string(cloud::tier_name(d.tier)),
                   fmt(d.overprovision, 2),
                   evaluation.feasible && i < evaluation.job_runtimes.size()
                       ? fmt(evaluation.job_runtimes[i].minutes(), 1)
                       : "-"});
    }
    t.print(os);
    if (!evaluation.feasible) {
        os << "\nINFEASIBLE: " << evaluation.infeasibility << "\n";
        write_lint_section(lint_notes, os);
        return;
    }
    os << "\nmodeled: runtime " << fmt(evaluation.total_runtime.minutes(), 1)
       << " min | VM $" << fmt(evaluation.vm_cost.value(), 2) << " + storage $"
       << fmt(evaluation.storage_cost.value(), 2) << " = $"
       << fmt(evaluation.total_cost().value(), 2) << " | tenant utility "
       << evaluation.utility << "\n\nprovisioning bill:\n";
    write_capacity_bill(evaluation.capacities, evaluation.total_runtime,
                        evaluator.models().catalog(), os);
    write_lint_section(lint_notes, os);
}

void write_deployment_report(const PlanEvaluator& evaluator, const TieringPlan& plan,
                             const PlanEvaluation& modeled,
                             const WorkloadDeployment& measured, std::ostream& os) {
    const auto& workload = evaluator.workload();
    CAST_EXPECTS(plan.size() == workload.size());
    CAST_EXPECTS(measured.job_results.size() == workload.size());
    os << "deployment report: " << plan.summarize() << "\n\n";
    TextTable t({"job", "tier", "stage-in (s)", "processing (s)", "stage-out (s)",
                 "measured (min)", "modeled (min)", "delta"});
    for (std::size_t i = 0; i < workload.size(); ++i) {
        const auto& r = measured.job_results[i];
        const double measured_min = r.makespan.minutes();
        const double modeled_min = modeled.feasible && i < modeled.job_runtimes.size()
                                       ? modeled.job_runtimes[i].minutes()
                                       : 0.0;
        const double delta =
            measured_min > 0.0 ? (modeled_min - measured_min) / measured_min : 0.0;
        t.add_row({workload.job(i).name,
                   std::string(cloud::tier_name(plan.decision(i).tier)),
                   fmt(r.phases.stage_in.value(), 0), fmt(r.phases.processing().value(), 0),
                   fmt(r.phases.stage_out.value(), 0), fmt(measured_min, 1),
                   fmt(modeled_min, 1), fmt_pct(delta, 1)});
    }
    t.print(os);
    os << "\nmeasured: runtime " << fmt(measured.total_runtime.minutes(), 1) << " min | $"
       << fmt(measured.total_cost().value(), 2) << " | utility " << measured.utility;
    if (modeled.feasible) {
        os << "   (modeled: " << fmt(modeled.total_runtime.minutes(), 1) << " min, $"
           << fmt(modeled.total_cost().value(), 2) << ", utility " << modeled.utility << ")";
    }
    os << "\n\nprovisioning bill (billed on measured runtime):\n";
    write_capacity_bill(measured.capacities, measured.total_runtime,
                        evaluator.models().catalog(), os);
    write_fault_section(measured.retry_count, measured.degraded_jobs, measured.fault_log,
                        os);
    write_lint_section(measured.lint_warnings, os);
}

void write_workflow_report(const WorkflowEvaluator& evaluator, const WorkflowPlan& plan,
                           const WorkflowDeployment& measured, std::ostream& os) {
    const auto& wf = evaluator.workflow();
    CAST_EXPECTS(plan.decisions.size() == wf.size());
    os << "workflow '" << wf.name() << "', deadline " << fmt(wf.deadline().minutes(), 1)
       << " min — " << (measured.met_deadline ? "MET" : "MISSED") << " at "
       << fmt(measured.total_runtime.minutes(), 1) << " min, $"
       << fmt(measured.total_cost().value(), 2) << "\n\n";
    TextTable jobs({"job", "tier", "k", "measured (min)"});
    for (std::size_t i : wf.topological_order()) {
        jobs.add_row({wf.jobs()[i].name,
                      std::string(cloud::tier_name(plan.decisions[i].tier)),
                      fmt(plan.decisions[i].overprovision, 2),
                      fmt(measured.job_results[i].makespan.minutes(), 1)});
    }
    jobs.print(os);
    bool any_transfer = false;
    for (const auto& tt : measured.transfer_times) any_transfer |= tt.value() > 0.0;
    if (any_transfer) {
        os << "\ncross-tier transfers:\n";
        TextTable edges({"edge", "volume (GB)", "time (s)"});
        for (std::size_t k = 0; k < wf.edges().size(); ++k) {
            if (measured.transfer_times[k].value() <= 0.0) continue;
            const auto [u, v] = wf.edge_endpoints()[k];
            edges.add_row({wf.jobs()[u].name + " -> " + wf.jobs()[v].name,
                           fmt(wf.jobs()[u].output().value(), 1),
                           fmt(measured.transfer_times[k].value(), 0)});
        }
        edges.print(os);
    }
    write_fault_section(measured.retry_count, measured.degraded_jobs, measured.fault_log,
                        os);
    write_lint_section(measured.lint_warnings, os);
}

}  // namespace cast::core
