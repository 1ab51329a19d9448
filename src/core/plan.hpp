// Tiering plans: the solver's decision variables (paper Table 3: sᵢ, cᵢ).
//
// A TieringPlan assigns every job of a workload a storage service sᵢ and a
// provisioned capacity cᵢ, expressed as an over-provisioning factor kᵢ >= 1
// applied to the job's Eq. 3 requirement (kᵢ > 1 deliberately buys more
// capacity than the data needs, because block-tier bandwidth scales with
// provisioned capacity — the paper's "careful over-provisioning" insight,
// §3.1.2).
#pragma once

#include <string>
#include <vector>

#include "cloud/storage.hpp"
#include "common/error.hpp"

namespace cast::core {

/// Decision for one job.
struct PlacementDecision {
    cloud::StorageTier tier = cloud::StorageTier::kPersistentSsd;
    double overprovision = 1.0;  // kᵢ: cᵢ = kᵢ × requirementᵢ

    void validate() const {
        CAST_EXPECTS_MSG(overprovision >= 1.0,
                         "over-provisioning factor below 1 violates Eq. 3");
    }
};

class TieringPlan {
public:
    TieringPlan() = default;
    explicit TieringPlan(std::vector<PlacementDecision> decisions)
        : decisions_(std::move(decisions)) {
        for (const auto& d : decisions_) d.validate();
    }

    /// A uniform plan: every job on `tier` with exact-fit capacity. This is
    /// how the non-tiered baseline configurations ("persSSD 100%", ...) are
    /// expressed.
    [[nodiscard]] static TieringPlan uniform(std::size_t job_count, cloud::StorageTier tier,
                                             double overprovision = 1.0) {
        return TieringPlan(std::vector<PlacementDecision>(
            job_count, PlacementDecision{tier, overprovision}));
    }

    [[nodiscard]] std::size_t size() const { return decisions_.size(); }
    [[nodiscard]] bool empty() const { return decisions_.empty(); }

    [[nodiscard]] const PlacementDecision& decision(std::size_t job_idx) const {
        CAST_EXPECTS(job_idx < decisions_.size());
        return decisions_[job_idx];
    }

    void set_decision(std::size_t job_idx, PlacementDecision d) {
        CAST_EXPECTS(job_idx < decisions_.size());
        d.validate();
        decisions_[job_idx] = d;
    }

    [[nodiscard]] const std::vector<PlacementDecision>& decisions() const { return decisions_; }

    /// Human-readable one-line summary ("33% ephSSD, 31% persSSD, ...").
    [[nodiscard]] std::string summarize() const;

private:
    std::vector<PlacementDecision> decisions_;
};

}  // namespace cast::core
