// Job and workload specifications (the paper's L̂ and J).
//
// A JobSpec is one analytics job: an application class, an input size, and
// map/reduce task counts. A Workload is the set J that the CAST solver
// plans over, together with the data-reuse groups (the paper's set D of
// jobs sharing input, Eq. 7).
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "cloud/storage.hpp"
#include "common/error.hpp"
#include "common/units.hpp"
#include "workload/application.hpp"

namespace cast::workload {

struct JobSpec {
    int id = 0;
    std::string name;
    AppKind app = AppKind::kSort;
    GigaBytes input;
    int map_tasks = 1;
    int reduce_tasks = 1;
    /// Jobs carrying the same reuse_group value share the same input
    /// dataset (fully); CAST++ pins them to one tier (Eq. 7) and counts the
    /// shared input capacity once.
    std::optional<int> reuse_group = std::nullopt;
    /// Operator-imposed tier pin (spec option `tier=`): the job's data must
    /// live on this tier. Solvers may use it as a constraint; the Deployer's
    /// failure-aware validation rejects plans that violate it.
    std::optional<cloud::StorageTier> pinned_tier = std::nullopt;

    [[nodiscard]] const ApplicationProfile& profile() const {
        return ApplicationProfile::of(app);
    }

    [[nodiscard]] GigaBytes intermediate() const { return profile().intermediate_size(input); }
    [[nodiscard]] GigaBytes output() const { return profile().output_size(input); }

    /// Eq. 3: capacity a job needs on its tier for all phases.
    [[nodiscard]] GigaBytes capacity_requirement() const {
        return input + intermediate() + output();
    }

    void validate() const {
        CAST_EXPECTS_MSG(input.value() > 0.0, "job input must be positive");
        CAST_EXPECTS_MSG(map_tasks >= 1, "job needs at least one map task");
        CAST_EXPECTS_MSG(reduce_tasks >= 1, "job needs at least one reduce task");
    }
};

class Workload {
public:
    Workload() = default;
    explicit Workload(std::vector<JobSpec> jobs) : jobs_(std::move(jobs)) { validate(); }

    [[nodiscard]] const std::vector<JobSpec>& jobs() const { return jobs_; }
    [[nodiscard]] std::size_t size() const { return jobs_.size(); }
    [[nodiscard]] bool empty() const { return jobs_.empty(); }
    [[nodiscard]] const JobSpec& job(std::size_t idx) const {
        CAST_EXPECTS(idx < jobs_.size());
        return jobs_[idx];
    }

    /// Map reuse-group id -> indices (into jobs()) of the member jobs.
    /// Groups with a single member are still reported.
    [[nodiscard]] std::map<int, std::vector<std::size_t>> reuse_groups() const {
        std::map<int, std::vector<std::size_t>> groups;
        for (std::size_t i = 0; i < jobs_.size(); ++i) {
            if (jobs_[i].reuse_group) groups[*jobs_[i].reuse_group].push_back(i);
        }
        return groups;
    }

    [[nodiscard]] GigaBytes total_input() const {
        GigaBytes total{0.0};
        for (const auto& j : jobs_) total += j.input;
        return total;
    }

    /// Total capacity requirement if every job provisions exactly Eq. 3,
    /// with shared inputs counted once per reuse group.
    [[nodiscard]] GigaBytes total_capacity_requirement() const {
        GigaBytes total{0.0};
        std::map<int, bool> group_input_counted;
        for (const auto& j : jobs_) {
            if (j.reuse_group) {
                total += j.intermediate() + j.output();
                if (!group_input_counted[*j.reuse_group]) {
                    total += j.input;
                    group_input_counted[*j.reuse_group] = true;
                }
            } else {
                total += j.capacity_requirement();
            }
        }
        return total;
    }

    void validate() const {
        std::map<int, const JobSpec*> by_id;
        std::map<int, GigaBytes> group_input;
        for (const auto& j : jobs_) {
            j.validate();
            const auto [it, inserted] = by_id.emplace(j.id, &j);
            if (!inserted) {
                throw ValidationError("duplicate job id " + std::to_string(j.id));
            }
            if (j.reuse_group) {
                // Sharing "the same input dataset" requires identical sizes.
                const auto [git, ginserted] = group_input.emplace(*j.reuse_group, j.input);
                if (!ginserted && !approx_equal(git->second.value(), j.input.value())) {
                    throw ValidationError("reuse group " + std::to_string(*j.reuse_group) +
                                          " has members with differing input sizes");
                }
            }
        }
    }

private:
    std::vector<JobSpec> jobs_;
};

/// A data re-access pattern (§3.1.3): the same input is consumed `accesses`
/// times spread over `lifetime`. The paper studies 7 accesses over 1 hour
/// and 7 accesses over 1 week.
struct ReusePattern {
    int accesses = 1;
    Seconds lifetime{0.0};

    void validate() const {
        CAST_EXPECTS(accesses >= 1);
        CAST_EXPECTS(lifetime.value() >= 0.0);
    }

    [[nodiscard]] static ReusePattern none() { return ReusePattern{1, Seconds{0.0}}; }
    [[nodiscard]] static ReusePattern one_hour() {
        return ReusePattern{7, Seconds::from_hours(1.0)};
    }
    [[nodiscard]] static ReusePattern one_week() {
        return ReusePattern{7, Seconds::from_hours(24.0 * 7.0)};
    }
};

}  // namespace cast::workload
