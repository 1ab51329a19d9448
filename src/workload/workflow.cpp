#include "workload/workflow.hpp"

namespace cast::workload {

Workflow::Workflow(std::string name, std::vector<JobSpec> jobs,
                   std::vector<WorkflowEdge> edges, Seconds deadline)
    : name_(std::move(name)),
      jobs_(std::move(jobs)),
      edges_(std::move(edges)),
      deadline_(deadline) {
    validate();
    build_graph();
}

void Workflow::validate() const {
    CAST_EXPECTS_MSG(!name_.empty(), "workflow needs a name");
    CAST_EXPECTS(deadline_.value() > 0.0);
    Workload(jobs_).validate();  // ids unique, specs sane
}

void Workflow::build_graph() {
    const std::size_t n = jobs_.size();
    endpoints_.reserve(edges_.size());
    for (const auto& e : edges_) {
        const EdgeEndpoints ends{index_of(e.from_job), index_of(e.to_job)};
        if (ends.from == ends.to) {
            throw ValidationError("workflow " + name_ + ": self-edge on job " +
                                  std::to_string(e.from_job));
        }
        endpoints_.push_back(ends);
    }
    preds_.assign(n, {});
    succs_.assign(n, {});
    for (const EdgeEndpoints& ends : endpoints_) {
        preds_[ends.to].push_back(ends.from);
        succs_[ends.from].push_back(ends.to);
    }
    for (std::size_t i = 0; i < n; ++i) {
        if (preds_[i].empty()) roots_.push_back(i);
    }

    // Kahn's algorithm, popping the smallest ready index.
    std::vector<std::size_t> indegree(n, 0);
    for (const EdgeEndpoints& ends : endpoints_) ++indegree[ends.to];
    std::vector<std::size_t> ready = roots_;
    topo_.reserve(n);
    while (!ready.empty()) {
        const auto it = std::min_element(ready.begin(), ready.end());
        const std::size_t u = *it;
        ready.erase(it);
        topo_.push_back(u);
        for (std::size_t v : succs_[u]) {
            if (--indegree[v] == 0) ready.push_back(v);
        }
    }
    CAST_ENSURES_MSG(topo_.size() == n, "cycle detected in workflow DAG");

    // Preorder DFS from each root, successors in edge order. Every job of
    // an acyclic graph is reachable from some root, so the sweep over all
    // jobs afterwards is defensive only.
    std::vector<bool> visited(n, false);
    dfs_.reserve(n);
    auto visit = [&](auto& self, std::size_t u) -> void {
        if (visited[u]) return;
        visited[u] = true;
        dfs_.push_back(u);
        for (std::size_t v : succs_[u]) self(self, v);
    };
    for (std::size_t root : roots_) visit(visit, root);
    for (std::size_t i = 0; i < n; ++i) visit(visit, i);
}

namespace {

using literals::operator""_GB;

JobSpec make_job(int id, std::string name, AppKind app, GigaBytes input) {
    // One map task per 128 MB HDFS-style chunk; reduce parallelism at the
    // stock Hadoop heuristic of a quarter of the map count.
    const int maps = std::max(1, static_cast<int>(input.value() / 0.128));
    const int reduces = std::max(1, maps / 4);
    return JobSpec{.id = id,
                   .name = std::move(name),
                   .app = app,
                   .input = input,
                   .map_tasks = maps,
                   .reduce_tasks = reduces,
                   .reuse_group = std::nullopt};
}

}  // namespace

Workflow make_search_log_workflow(Seconds deadline) {
    std::vector<JobSpec> jobs;
    jobs.push_back(make_job(1, "Grep-250G", AppKind::kGrep, 250.0_GB));
    jobs.push_back(make_job(2, "Pagerank-20G", AppKind::kPageRank, 20.0_GB));
    jobs.push_back(make_job(3, "Sort-120G", AppKind::kSort, 120.0_GB));
    jobs.push_back(make_job(4, "Join-120G", AppKind::kJoin, 120.0_GB));
    std::vector<WorkflowEdge> edges = {
        {.from_job = 1, .to_job = 3},  // Grep -> Sort
        {.from_job = 2, .to_job = 4},  // Pagerank -> Join
        {.from_job = 3, .to_job = 4},  // Sort -> Join
    };
    return Workflow("search-log-analysis", std::move(jobs), std::move(edges), deadline);
}

}  // namespace cast::workload
