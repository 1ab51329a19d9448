#include "lint/rules.hpp"

#include <array>
#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <utility>

#include "core/fixed_sum.hpp"
#include "lint/checks.hpp"
#include "model/mrcute.hpp"

namespace cast::lint {

namespace {

using cloud::StorageTier;
using cloud::tier_index;
using workload::JobSpec;

std::string tier_str(StorageTier t) { return std::string(cloud::tier_name(t)); }

std::optional<int> job_line(const LintInput& in, const JobSpec& job) {
    if (in.source == nullptr) return std::nullopt;
    return in.source->line_of_job(job.id);
}

std::optional<int> edge_line(const LintInput& in, const workload::WorkflowEdge& e) {
    if (in.source == nullptr) return std::nullopt;
    return in.source->line_of_edge(e.from_job, e.to_job);
}

// --- L001: job sizes/counts finite and positive. -------------------------

void run_l001(const LintInput& in, std::vector<Finding>& out) {
    if (in.jobs == nullptr) return;
    for (const auto& job : *in.jobs) {
        std::string what;
        if (!std::isfinite(job.input.value())) {
            what = "input size is not finite";
        } else if (job.input.value() <= 0.0) {
            what = "input size must be positive, got " + std::to_string(job.input.value()) +
                   " GB";
        } else if (job.map_tasks < 1) {
            what = "needs at least one map task, got " + std::to_string(job.map_tasks);
        } else if (job.reduce_tasks < 1) {
            what = "needs at least one reduce task, got " + std::to_string(job.reduce_tasks);
        } else {
            continue;
        }
        out.push_back(Finding{
            .rule = "L001",
            .severity = Severity::kError,
            .subject = "job '" + job.name + "'",
            .message = "job '" + job.name + "': " + what,
            .fix_hint = "give the job a positive input size and task counts >= 1",
            .line = job_line(in, job),
        });
    }
}

// --- L002: magnitudes within plausible operating ranges. ------------------

void run_l002(const LintInput& in, std::vector<Finding>& out) {
    if (in.jobs == nullptr) return;
    constexpr double kMaxPlausibleInputGb = 1e5;   // 100 TB on a small cluster
    constexpr double kMinSplitGb = 0.001;          // 1 MB per map task
    constexpr double kMaxSplitGb = 10.0;           // 10 GB per map task
    for (const auto& job : *in.jobs) {
        if (!std::isfinite(job.input.value()) || job.input.value() <= 0.0 ||
            job.map_tasks < 1) {
            continue;  // L001 territory
        }
        if (job.input.value() > kMaxPlausibleInputGb) {
            out.push_back(Finding{
                .rule = "L002",
                .severity = Severity::kWarning,
                .subject = "job '" + job.name + "'",
                .message = "job '" + job.name + "' declares " +
                           std::to_string(job.input.value()) +
                           " GB of input, far beyond the paper's operating range",
                .fix_hint = "check the unit: sizes are GB, not MB or bytes",
                .line = job_line(in, job),
            });
        }
        const double split = job.input.value() / job.map_tasks;
        if (split < kMinSplitGb || split > kMaxSplitGb) {
            out.push_back(Finding{
                .rule = "L002",
                .severity = Severity::kWarning,
                .subject = "job '" + job.name + "'",
                .message = "job '" + job.name + "' gives each map task " +
                           std::to_string(split * 1024.0) +
                           " MB of input, outside the plausible 1 MB..10 GB split range",
                .fix_hint = "adjust maps= so per-task splits land near the 128 MB default",
                .line = job_line(in, job),
            });
        }
    }
}

// --- L003: job ids unique. ------------------------------------------------

void run_l003(const LintInput& in, std::vector<Finding>& out) {
    if (in.jobs == nullptr) return;
    std::map<int, const JobSpec*> by_id;
    for (const auto& job : *in.jobs) {
        const auto [it, inserted] = by_id.emplace(job.id, &job);
        if (inserted) continue;
        out.push_back(Finding{
            .rule = "L003",
            .severity = Severity::kError,
            .subject = "job '" + job.name + "'",
            .message = "duplicate job id " + std::to_string(job.id) + ": '" +
                       it->second->name + "' and '" + job.name + "'",
            .fix_hint = "give every job a distinct id",
            .line = job_line(in, job),
        });
    }
}

// --- L004: reuse-group members share one input size. ----------------------

void run_l004(const LintInput& in, std::vector<Finding>& out) {
    if (in.jobs == nullptr) return;
    std::map<int, const JobSpec*> first;
    for (const auto& job : *in.jobs) {
        if (!job.reuse_group) continue;
        const auto [it, inserted] = first.emplace(*job.reuse_group, &job);
        if (inserted || approx_equal(it->second->input.value(), job.input.value())) {
            continue;
        }
        out.push_back(Finding{
            .rule = "L004",
            .severity = Severity::kError,
            .subject = "reuse group " + std::to_string(*job.reuse_group),
            .message = "reuse group " + std::to_string(*job.reuse_group) +
                       " members disagree on input size: '" + it->second->name + "' has " +
                       std::to_string(it->second->input.value()) + " GB but '" + job.name +
                       "' has " + std::to_string(job.input.value()) +
                       " GB (a reuse group shares one dataset)",
            .fix_hint = "make the shared-input jobs declare identical sizes, or split the "
                        "group",
            .line = job_line(in, job),
        });
    }
}

// --- L005: reuse-group tier pins agree (shared check). --------------------

void run_l005(const LintInput& in, std::vector<Finding>& out) {
    if (in.jobs == nullptr) return;
    // An error only when Eq. 7 is actually enforced; otherwise the pins
    // merely diverge and the plan can still honor them.
    const Severity severity = in.reuse_aware ? Severity::kError : Severity::kWarning;
    check_reuse_pin_conflicts(*in.jobs, severity, out);
}

// --- L006: workflow DAG acyclic, no self-edges. ---------------------------

void run_l006(const LintInput& in, std::vector<Finding>& out) {
    if (in.jobs == nullptr || in.edges == nullptr) return;
    std::map<int, std::size_t> index_of;
    for (std::size_t i = 0; i < in.jobs->size(); ++i) {
        index_of.emplace((*in.jobs)[i].id, i);  // dups are L003's problem
    }
    std::vector<int> indegree(in.jobs->size(), 0);
    std::vector<std::vector<std::size_t>> succ(in.jobs->size());
    for (const auto& e : *in.edges) {
        if (e.from_job == e.to_job) {
            out.push_back(Finding{
                .rule = "L006",
                .severity = Severity::kError,
                .subject = "edge " + std::to_string(e.from_job) + "->" +
                           std::to_string(e.to_job),
                .message = "self-edge on job " + std::to_string(e.from_job) +
                           ": a job cannot consume its own output",
                .fix_hint = "remove the edge or point it at a different stage",
                .line = edge_line(in, e),
            });
            continue;
        }
        const auto u = index_of.find(e.from_job);
        const auto v = index_of.find(e.to_job);
        if (u == index_of.end() || v == index_of.end()) continue;  // L008 reports
        succ[u->second].push_back(v->second);
        ++indegree[v->second];
    }
    // Kahn's algorithm over the declared edges; whatever survives with a
    // positive indegree sits on (or downstream of) a cycle.
    std::vector<std::size_t> ready;
    for (std::size_t i = 0; i < indegree.size(); ++i) {
        if (indegree[i] == 0) ready.push_back(i);
    }
    std::size_t seen = 0;
    while (!ready.empty()) {
        const std::size_t u = ready.back();
        ready.pop_back();
        ++seen;
        for (std::size_t v : succ[u]) {
            if (--indegree[v] == 0) ready.push_back(v);
        }
    }
    if (seen == in.jobs->size()) return;
    std::string members;
    for (std::size_t i = 0; i < indegree.size(); ++i) {
        if (indegree[i] <= 0) continue;
        if (!members.empty()) members += ", ";
        members += "'" + (*in.jobs)[i].name + "'";
    }
    out.push_back(Finding{
        .rule = "L006",
        .severity = Severity::kError,
        .subject = in.workflow_name.empty() ? std::string("workflow")
                                            : "workflow " + in.workflow_name,
        .message = "workflow DAG has a cycle through " + members,
        .fix_hint = "break the cycle; stage outputs must flow forward only",
        .line = in.source != nullptr && in.source->workflow_line > 0
                    ? std::optional<int>(in.source->workflow_line)
                    : std::nullopt,
    });
}

// --- L007: no isolated stage in a connected workflow. ---------------------

void run_l007(const LintInput& in, std::vector<Finding>& out) {
    if (in.jobs == nullptr || in.edges == nullptr || in.edges->empty()) return;
    if (in.jobs->size() < 2) return;
    std::set<int> connected;
    for (const auto& e : *in.edges) {
        connected.insert(e.from_job);
        connected.insert(e.to_job);
    }
    for (const auto& job : *in.jobs) {
        if (connected.count(job.id) != 0) continue;
        out.push_back(Finding{
            .rule = "L007",
            .severity = Severity::kWarning,
            .subject = "job '" + job.name + "'",
            .message = "job '" + job.name +
                       "' is not connected to any other stage of the workflow",
            .fix_hint = "wire it into the DAG, or plan it as part of a batch workload "
                        "instead",
            .line = job_line(in, job),
        });
    }
}

// --- L008: edge endpoints reference declared job ids. ---------------------

void run_l008(const LintInput& in, std::vector<Finding>& out) {
    if (in.jobs == nullptr || in.edges == nullptr) return;
    std::set<int> ids;
    for (const auto& job : *in.jobs) ids.insert(job.id);
    for (const auto& e : *in.edges) {
        for (const int endpoint : {e.from_job, e.to_job}) {
            if (ids.count(endpoint) != 0) continue;
            out.push_back(Finding{
                .rule = "L008",
                .severity = Severity::kError,
                .subject = "edge " + std::to_string(e.from_job) + "->" +
                           std::to_string(e.to_job),
                .message = "edge " + std::to_string(e.from_job) + "->" +
                           std::to_string(e.to_job) + " references undeclared job id " +
                           std::to_string(endpoint),
                .fix_hint = "declare the job or fix the edge's ids",
                .line = edge_line(in, e),
            });
        }
    }
}

// --- L009: deadline at least the fastest-possible critical path. ----------

/// A certified lower bound on one job's processing time: the fastest tier
/// under that tier's most favorable profiled scaling knot, with a 5% slack
/// for interpolation wiggle between knots. Staging and cross-tier transfer
/// legs only add time, so summing these bounds under-estimates any real
/// schedule (execution is serial, Eq. 9) and the rule never rejects a
/// feasible deadline.
std::optional<Seconds> fastest_possible(const model::PerfModelSet& models,
                                        const JobSpec& job) {
    constexpr double kInterpolationSlack = 0.95;
    std::optional<Seconds> best;
    for (StorageTier tier : cloud::kAllTiers) {
        if (!models.has_tier_model(job.app, tier)) continue;
        const auto& m = models.tier_model(job.app, tier);
        const Seconds base = model::estimate(models.cluster(), job, m.bandwidths);
        double min_scale = 1.0;
        for (const double y : m.runtime_scale.knots_y()) min_scale = std::min(min_scale, y);
        const Seconds t{base.value() * min_scale * kInterpolationSlack};
        if (!best || t < *best) best = t;
    }
    return best;
}

void run_l009(const LintInput& in, std::vector<Finding>& out) {
    if (in.jobs == nullptr || !in.deadline || in.models == nullptr) return;
    if (in.jobs->empty()) return;
    Seconds bound{0.0};
    for (const auto& job : *in.jobs) {
        if (!std::isfinite(job.input.value()) || job.input.value() <= 0.0 ||
            job.map_tasks < 1 || job.reduce_tasks < 1) {
            return;  // L001 territory; estimates would be garbage
        }
        const auto t = fastest_possible(*in.models, job);
        if (!t) return;  // unmodeled app: L018 territory
        bound += *t;
    }
    if (*in.deadline >= bound) return;
    out.push_back(Finding{
        .rule = "L009",
        .severity = Severity::kError,
        .subject = in.workflow_name.empty() ? std::string("workflow")
                                            : "workflow " + in.workflow_name,
        .message = "deadline of " + std::to_string(in.deadline->minutes()) +
                   " min is below the certified lower bound of " +
                   std::to_string(bound.minutes()) +
                   " min (sum of each stage's fastest possible tier)",
        .fix_hint = "raise the deadline or shrink the stages; no tiering plan can meet it",
        .line = in.source != nullptr && in.source->workflow_line > 0
                    ? std::optional<int>(in.source->workflow_line)
                    : std::nullopt,
    });
}

// --- L010: catalog capacity->throughput curves monotone. ------------------

void run_l010(const LintInput& in, std::vector<Finding>& out) {
    if (in.catalog == nullptr) return;
    constexpr int kSamples = 24;
    constexpr double kTolerance = 1e-9;
    for (StorageTier tier : cloud::kAllTiers) {
        const auto& service = in.catalog->service(tier);
        const double hi = service.max_capacity_per_vm()
                              ? service.max_capacity_per_vm()->value()
                              : 10240.0;
        const double lo = hi / kSamples;
        cloud::TierPerformance prev = service.performance(GigaBytes{lo});
        for (int i = 2; i <= kSamples; ++i) {
            const GigaBytes c{lo * i};
            const cloud::TierPerformance perf = service.performance(c);
            const char* which = nullptr;
            if (perf.read_bw.value() < prev.read_bw.value() - kTolerance) {
                which = "read";
            } else if (perf.write_bw.value() < prev.write_bw.value() - kTolerance) {
                which = "write";
            }
            if (which != nullptr) {
                out.push_back(Finding{
                    .rule = "L010",
                    .severity = Severity::kError,
                    .subject = tier_str(tier),
                    .message = tier_str(tier) + " " + which + " bandwidth decreases from " +
                               std::to_string(lo * (i - 1)) + " GB to " +
                               std::to_string(c.value()) +
                               " GB; capacity->throughput must be non-decreasing or the "
                               "over-provisioning search is unsound",
                    .fix_hint = "fix the catalog's performance curve for this tier",
                });
                break;  // one finding per tier is enough
            }
            prev = perf;
        }
    }
}

// --- L011: catalog tier conventions resolvable. ---------------------------

void run_l011(const LintInput& in, std::vector<Finding>& out) {
    if (in.catalog == nullptr) return;
    const StorageTier backing = in.catalog->backing_store();
    if (!in.catalog->service(backing).persistent()) {
        out.push_back(Finding{
            .rule = "L011",
            .severity = Severity::kError,
            .subject = "backing store",
            .message = "backing store " + tier_str(backing) +
                       " is not persistent; ephSSD placements would have nowhere durable "
                       "to stage inputs and outputs",
            .fix_hint = "back workloads with a persistent tier (objStore in the paper)",
        });
    }
    const StorageTier inter = in.catalog->object_store_intermediate_tier();
    if (inter == StorageTier::kObjectStore || !in.catalog->service(inter).persistent()) {
        out.push_back(Finding{
            .rule = "L011",
            .severity = Severity::kError,
            .subject = "objStore intermediate tier",
            .message = "objStore placements keep shuffle data on " + tier_str(inter) +
                       ", which cannot host intermediate data (must be a persistent "
                       "block tier)",
            .fix_hint = "use a persistent block tier (persSSD in the paper, §3.1.1)",
        });
    }
}

// --- L012: plan has one decision per job. ---------------------------------

void run_l012(const LintInput& in, std::vector<Finding>& out) {
    if (in.jobs == nullptr || in.decisions == nullptr) return;
    if (in.decisions->size() == in.jobs->size()) return;
    out.push_back(Finding{
        .rule = "L012",
        .severity = Severity::kError,
        .subject = "plan",
        .message = "plan has " + std::to_string(in.decisions->size()) +
                   " decision(s) for " + std::to_string(in.jobs->size()) + " job(s)",
        .fix_hint = "emit exactly one placement decision per job, in job order",
    });
}

// --- L013: over-provision factors finite and >= 1. ------------------------

void run_l013(const LintInput& in, std::vector<Finding>& out) {
    if (in.decisions == nullptr) return;
    for (std::size_t i = 0; i < in.decisions->size(); ++i) {
        const double k = (*in.decisions)[i].overprovision;
        if (std::isfinite(k) && k >= 1.0) continue;
        const std::string subject =
            in.jobs != nullptr && i < in.jobs->size()
                ? "job '" + (*in.jobs)[i].name + "'"
                : "decision " + std::to_string(i);
        out.push_back(Finding{
            .rule = "L013",
            .severity = Severity::kError,
            .subject = subject,
            .message = subject + " has over-provision factor " + std::to_string(k) +
                       "; k < 1 under-provisions Eq. 3's capacity requirement",
            .fix_hint = "use a finite factor >= 1",
        });
    }
}

// --- L014: plan honors operator tier pins (shared check). -----------------

void run_l014(const LintInput& in, std::vector<Finding>& out) {
    if (in.jobs == nullptr || in.decisions == nullptr) return;
    std::vector<Finding> found;
    check_tier_pins(*in.jobs, *in.decisions, found);
    for (auto& f : found) {
        if (in.source != nullptr) {
            // f.subject is "job '<name>'"; recover the id via the jobs list.
            for (const auto& job : *in.jobs) {
                if (f.subject == "job '" + job.name + "'") {
                    f.line = in.source->line_of_job(job.id);
                    break;
                }
            }
        }
        out.push_back(std::move(f));
    }
}

// --- L015: plan keeps reuse groups on one tier (shared check). ------------

void run_l015(const LintInput& in, std::vector<Finding>& out) {
    if (in.jobs == nullptr || in.decisions == nullptr || !in.reuse_aware) return;
    check_reuse_group_split(*in.jobs, *in.decisions, out);
}

// --- L016: over-provision factors that buy nothing. -----------------------

void run_l016(const LintInput& in, std::vector<Finding>& out) {
    if (in.decisions == nullptr) return;
    constexpr double kMaxUsefulFactor = 16.0;
    for (std::size_t i = 0; i < in.decisions->size(); ++i) {
        const auto& d = (*in.decisions)[i];
        if (!std::isfinite(d.overprovision) || d.overprovision < 1.0) continue;  // L013
        const std::string subject =
            in.jobs != nullptr && i < in.jobs->size()
                ? "job '" + (*in.jobs)[i].name + "'"
                : "decision " + std::to_string(i);
        if (d.tier == StorageTier::kObjectStore && d.overprovision > 1.0) {
            out.push_back(Finding{
                .rule = "L016",
                .severity = Severity::kWarning,
                .subject = subject,
                .message = subject + " over-provisions objStore by " +
                           std::to_string(d.overprovision) +
                           "x, but objStore performance is capacity-flat: the extra "
                           "capacity only costs money",
                .fix_hint = "use k = 1 on objStore",
            });
        } else if (d.overprovision > kMaxUsefulFactor) {
            out.push_back(Finding{
                .rule = "L016",
                .severity = Severity::kWarning,
                .subject = subject,
                .message = subject + " over-provisions by " +
                           std::to_string(d.overprovision) +
                           "x; block-tier bandwidth saturates its per-VM ceiling well "
                           "below that",
                .fix_hint = "cap the factor; past saturation extra capacity is pure cost",
            });
        }
    }
}

// --- L017: per-VM capacities fit provider volume limits. ------------------

void run_l017(const LintInput& in, std::vector<Finding>& out) {
    if (in.jobs == nullptr || in.decisions == nullptr || in.models == nullptr ||
        in.catalog == nullptr) {
        return;
    }
    if (in.decisions->size() != in.jobs->size()) return;  // L012 territory
    const int nvm = in.models->cluster().worker_count;
    // PlanEvaluator::capacities' Eq. 3 aggregates through the same exact
    // fixed-point sums, so lint and the evaluator read the same aggregate
    // at a per-VM cap (without the provider's rounding): reuse-group
    // followers provision only their intermediate + output.
    std::set<int> group_input_counted;
    std::array<core::FixedSum, cloud::kTierCount> aggregate{};
    for (std::size_t i = 0; i < in.jobs->size(); ++i) {
        const auto& job = (*in.jobs)[i];
        const auto& d = (*in.decisions)[i];
        if (!std::isfinite(job.input.value()) || job.input.value() <= 0.0) return;  // L001
        if (!std::isfinite(d.overprovision)) return;                                // L013
        GigaBytes req = job.capacity_requirement();
        if (in.reuse_aware && job.reuse_group &&
            !group_input_counted.insert(*job.reuse_group).second) {
            req = job.intermediate() + job.output();
        }
        aggregate[tier_index(d.tier)].add(req.value() * d.overprovision);
    }
    for (StorageTier tier : cloud::kAllTiers) {
        const core::FixedSum& sum = aggregate[tier_index(tier)];
        // A sum beyond the exact range is infeasible at any cap.
        const double agg =
            sum.in_range() ? sum.value() : std::numeric_limits<double>::infinity();
        if (agg <= 0.0) continue;
        const auto max = in.catalog->service(tier).max_capacity_per_vm();
        if (!max) continue;
        const double per_vm = agg / nvm;
        if (per_vm <= max->value()) continue;
        out.push_back(Finding{
            .rule = "L017",
            .severity = Severity::kError,
            .subject = tier_str(tier),
            .message = "plan needs " + std::to_string(per_vm) + " GB/VM on " +
                       tier_str(tier) + " but the provider caps a VM at " +
                       std::to_string(max->value()) + " GB",
            .fix_hint = "move jobs off " + tier_str(tier) +
                        ", lower over-provisioning, or use more workers",
        });
    }
}

// --- L018: every placement has a profiled model. --------------------------

void run_l018(const LintInput& in, std::vector<Finding>& out) {
    if (in.jobs == nullptr || in.models == nullptr) return;
    if (in.decisions != nullptr && in.decisions->size() == in.jobs->size()) {
        for (std::size_t i = 0; i < in.jobs->size(); ++i) {
            const auto& job = (*in.jobs)[i];
            const StorageTier tier = (*in.decisions)[i].tier;
            if (in.models->has_tier_model(job.app, tier)) continue;
            out.push_back(Finding{
                .rule = "L018",
                .severity = Severity::kError,
                .subject = "job '" + job.name + "'",
                .message = "no profiled model for (" +
                           std::string(workload::app_name(job.app)) + ", " +
                           tier_str(tier) + "); the plan places job '" + job.name +
                           "' on a tier the profiler never calibrated",
                .fix_hint = "re-run the profiler over this tier or place the job "
                            "elsewhere",
                .line = job_line(in, job),
            });
        }
        return;
    }
    // No plan yet: every app must be plannable on at least one tier.
    for (const auto& job : *in.jobs) {
        bool any = false;
        for (StorageTier tier : cloud::kAllTiers) {
            if (in.models->has_tier_model(job.app, tier)) any = true;
        }
        if (any) continue;
        out.push_back(Finding{
            .rule = "L018",
            .severity = Severity::kError,
            .subject = "job '" + job.name + "'",
            .message = "application " + std::string(workload::app_name(job.app)) +
                       " has no profiled model on any tier; job '" + job.name +
                       "' cannot be planned",
            .fix_hint = "profile the application before planning",
            .line = job_line(in, job),
        });
    }
}

// --- Rule wrapper. --------------------------------------------------------

class FnRule final : public Rule {
public:
    using Fn = void (*)(const LintInput&, std::vector<Finding>&);

    FnRule(std::string_view id, Severity severity, std::string_view summary, Fn fn)
        : id_(id), severity_(severity), summary_(summary), fn_(fn) {}

    [[nodiscard]] std::string_view id() const override { return id_; }
    [[nodiscard]] Severity default_severity() const override { return severity_; }
    [[nodiscard]] std::string_view summary() const override { return summary_; }
    void run(const LintInput& input, std::vector<Finding>& out) const override {
        fn_(input, out);
    }

private:
    std::string_view id_;
    Severity severity_;
    std::string_view summary_;
    Fn fn_;
};

}  // namespace

std::vector<std::unique_ptr<Rule>> standard_rules() {
    std::vector<std::unique_ptr<Rule>> rules;
    auto add = [&rules](std::string_view id, Severity sev, std::string_view summary,
                        FnRule::Fn fn) {
        rules.push_back(std::make_unique<FnRule>(id, sev, summary, fn));
    };
    add("L001", Severity::kError, "job sizes and task counts are finite and positive",
        run_l001);
    add("L002", Severity::kWarning, "job magnitudes are within plausible operating ranges",
        run_l002);
    add("L003", Severity::kError, "job ids are unique", run_l003);
    add("L004", Severity::kError, "reuse-group members share one input size", run_l004);
    add("L005", Severity::kError,
        "reuse-group tier pins agree (warning when not reuse-aware)", run_l005);
    add("L006", Severity::kError, "workflow DAG has no cycles or self-edges", run_l006);
    add("L007", Severity::kWarning, "no isolated stage in a connected workflow", run_l007);
    add("L008", Severity::kError, "workflow edges reference declared job ids", run_l008);
    add("L009", Severity::kError, "deadline is at least the certified runtime lower bound",
        run_l009);
    add("L010", Severity::kError,
        "catalog capacity->throughput curves are monotone non-decreasing", run_l010);
    add("L011", Severity::kError, "catalog tier conventions are resolvable", run_l011);
    add("L012", Severity::kError, "plan has exactly one decision per job", run_l012);
    add("L013", Severity::kError, "over-provision factors are finite and >= 1", run_l013);
    add("L014", Severity::kError, "plan honors operator tier pins", run_l014);
    add("L015", Severity::kError, "plan keeps reuse groups on one tier (Eq. 7)", run_l015);
    add("L016", Severity::kWarning, "over-provision factors buy real bandwidth", run_l016);
    add("L017", Severity::kError, "per-VM capacities fit provider volume limits", run_l017);
    add("L018", Severity::kError, "every placement has a profiled model", run_l018);
    return rules;
}

}  // namespace cast::lint
