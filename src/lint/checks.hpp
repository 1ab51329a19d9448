// Shared placement-constraint checks.
//
// These are the single source of truth for the constraints that more than
// one layer enforces: the lint rules (L005, L014, L015), the PlanEvaluator
// (which must mark violating plans infeasible: it is the reference
// evaluator, and it vets every start plan),
// the Deployer (which must refuse to execute them), and the CAST++ facade
// (which must detect unplaceable reuse groups before projecting the greedy
// plan). Each helper appends Findings only on violation, so the clean path
// allocates nothing. The annealer and the repair pass never call them per
// candidate: their moves keep pins and reuse groups by construction, so
// they check only each seed plan (core/soa_eval.hpp).
#pragma once

#include <vector>

#include "core/plan.hpp"
#include "lint/finding.hpp"
#include "workload/job.hpp"

namespace cast::lint {

/// L014: every decision must honor its job's operator tier pin. `jobs` and
/// `decisions` are parallel; extra/missing decisions are ignored here
/// (rule L012 owns the shape check).
void check_tier_pins(const std::vector<workload::JobSpec>& jobs,
                     const std::vector<core::PlacementDecision>& decisions,
                     std::vector<Finding>& out);

/// L005: the members of one reuse group must not pin different tiers —
/// Eq. 7 co-locates the group, so conflicting pins make it unplaceable.
/// Severity is caller-chosen: an error under reuse-aware planning (the
/// constraint is active), a warning otherwise (the pins merely diverge).
void check_reuse_pin_conflicts(const std::vector<workload::JobSpec>& jobs,
                               Severity severity, std::vector<Finding>& out);

/// L015: under reuse-aware planning every reuse group must sit on one tier
/// (Eq. 7).
void check_reuse_group_split(const std::vector<workload::JobSpec>& jobs,
                             const std::vector<core::PlacementDecision>& decisions,
                             std::vector<Finding>& out);

}  // namespace cast::lint
