// Analytics workflows: DAGs of jobs with a completion deadline (§3.1.3).
//
// A workflow is a set of jobs plus directed edges "output of u feeds into
// the input of v". CAST++ plans each workflow separately, minimizing cost
// subject to the deadline (Eq. 8-10), traversing the DAG depth-first when
// generating neighbor solutions.
#pragma once

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/units.hpp"
#include "workload/job.hpp"

namespace cast::workload {

struct WorkflowEdge {
    int from_job = 0;  // producer job id
    int to_job = 0;    // consumer job id
};

/// Job indices of one edge's endpoints (positions in Workflow::jobs()).
struct EdgeEndpoints {
    std::size_t from = 0;  // producer
    std::size_t to = 0;    // consumer
};

/// A workflow is immutable once built: the constructor validates it and
/// derives the whole DAG structure (edge endpoint indices, predecessor and
/// successor lists, roots, topological and DFS orders) exactly once, so the
/// accessors below are O(1) references that hot paths — the workflow
/// evaluator runs once per annealing move — may call freely.
class Workflow {
public:
    Workflow() = default;

    /// Throws ValidationError on an unknown edge endpoint or a self-edge,
    /// InvariantError on a cycle, PreconditionError on an empty name or a
    /// non-positive deadline.
    Workflow(std::string name, std::vector<JobSpec> jobs, std::vector<WorkflowEdge> edges,
             Seconds deadline);

    [[nodiscard]] const std::string& name() const { return name_; }
    [[nodiscard]] const std::vector<JobSpec>& jobs() const { return jobs_; }
    [[nodiscard]] const std::vector<WorkflowEdge>& edges() const { return edges_; }
    [[nodiscard]] Seconds deadline() const { return deadline_; }
    [[nodiscard]] std::size_t size() const { return jobs_.size(); }

    /// Index of the job with `job_id` (a linear scan; hot paths read the
    /// resolved indices from edge_endpoints() instead).
    [[nodiscard]] std::size_t index_of(int job_id) const {
        for (std::size_t i = 0; i < jobs_.size(); ++i) {
            if (jobs_[i].id == job_id) return i;
        }
        throw ValidationError("workflow " + name_ + ": unknown job id " +
                              std::to_string(job_id));
    }

    /// Endpoint indices parallel to edges().
    [[nodiscard]] const std::vector<EdgeEndpoints>& edge_endpoints() const {
        return endpoints_;
    }

    /// Direct predecessors (producers) of a job, as indices into jobs(), in
    /// edge order.
    [[nodiscard]] const std::vector<std::size_t>& predecessors(std::size_t idx) const {
        CAST_EXPECTS(idx < jobs_.size());
        return preds_[idx];
    }

    /// Direct successors (consumers) of a job, as indices into jobs(), in
    /// edge order.
    [[nodiscard]] const std::vector<std::size_t>& successors(std::size_t idx) const {
        CAST_EXPECTS(idx < jobs_.size());
        return succs_[idx];
    }

    /// Jobs with no predecessors, ascending.
    [[nodiscard]] const std::vector<std::size_t>& roots() const { return roots_; }

    /// A topological order of job indices (Kahn's algorithm, popping the
    /// smallest ready index, so it is deterministic).
    [[nodiscard]] const std::vector<std::size_t>& topological_order() const { return topo_; }

    /// Depth-first traversal order from the roots (the order CAST++'s
    /// neighbor generation walks the DAG, §4.3).
    [[nodiscard]] const std::vector<std::size_t>& dfs_order() const { return dfs_; }

    /// Re-checks the scalar invariants (name, deadline, job specs); the
    /// graph invariants were established by the constructor.
    void validate() const;

private:
    void build_graph();

    std::string name_;
    std::vector<JobSpec> jobs_;
    std::vector<WorkflowEdge> edges_;
    Seconds deadline_{0.0};
    // Derived once by build_graph().
    std::vector<EdgeEndpoints> endpoints_;
    std::vector<std::vector<std::size_t>> preds_;
    std::vector<std::vector<std::size_t>> succs_;
    std::vector<std::size_t> roots_;
    std::vector<std::size_t> topo_;
    std::vector<std::size_t> dfs_;
};

/// The paper's running example (Fig. 4a): a four-job search-engine log
/// analysis. Grep(250 G) feeds Sort(120 G); PageRank(20 G) feeds
/// Join(120 G); Sort also feeds Join. (PageRank's 386 MB of page IDs is
/// not counted into Join's input, per the figure caption.)
[[nodiscard]] Workflow make_search_log_workflow(Seconds deadline = Seconds{8000.0});

}  // namespace cast::workload
