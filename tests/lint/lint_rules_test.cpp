// Per-rule coverage for the cast::lint standard rule set: for every rule,
// at least one input that must stay clean and one that must trip exactly
// that rule ID. Inputs are raw LintInput views — the whole point of the
// non-owning design is that lint can describe inputs too broken for
// Workload/Workflow to construct.
#include "lint/rules.hpp"

#include <algorithm>
#include <cstdint>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/fixed_sum.hpp"
#include "core/utility.hpp"
#include "lint/analyzer.hpp"
#include "test_support.hpp"

namespace cast::lint {
namespace {

using cloud::StorageTier;
using core::PlacementDecision;
using workload::AppKind;
using workload::JobSpec;
using workload::WorkflowEdge;

JobSpec mk_job(int id, AppKind app, double input_gb) {
    JobSpec j;
    j.id = id;
    j.app = app;
    j.name = std::string(workload::app_name(app)) + "-" + std::to_string(id);
    j.input = GigaBytes{input_gb};
    j.map_tasks = std::max(1, static_cast<int>(input_gb * 8.0));  // ~128 MB splits
    j.reduce_tasks = std::max(1, j.map_tasks / 4);
    return j;
}

Report run(const LintInput& in) { return Analyzer::standard().run(in); }

std::size_t count_rule(const Report& report, std::string_view id) {
    return static_cast<std::size_t>(
        std::count_if(report.findings.begin(), report.findings.end(),
                      [id](const Finding& f) { return f.rule == id; }));
}

/// A minimal synthetic service for defective-catalog tests. Bandwidth grows
/// with capacity unless `degrading`, in which case it shrinks (violating
/// the monotonicity the over-provisioning search relies on).
class FakeService final : public cloud::StorageService {
public:
    FakeService(StorageTier tier, bool persistent, bool degrading)
        : StorageService(tier, "fake", persistent, Dollars{0.1}), degrading_(degrading) {}

    [[nodiscard]] GigaBytes provision(GigaBytes requested) const override {
        return requested;
    }
    [[nodiscard]] std::optional<GigaBytes> max_capacity_per_vm() const override {
        return GigaBytes{1000.0};
    }
    [[nodiscard]] cloud::TierPerformance performance(GigaBytes provisioned) const override {
        const double bw = degrading_ ? 500.0 - 0.3 * provisioned.value()
                                     : 100.0 + 0.3 * provisioned.value();
        return cloud::TierPerformance{MBytesPerSec{bw}, MBytesPerSec{bw}, Iops{1000.0}};
    }

private:
    bool degrading_;
};

cloud::StorageCatalog fake_catalog(bool degrading_ssd, bool persistent_objstore,
                                   bool persistent_persssd) {
    std::array<std::shared_ptr<const cloud::StorageService>, cloud::kTierCount> services;
    for (StorageTier tier : cloud::kAllTiers) {
        bool persistent = tier != StorageTier::kEphemeralSsd;
        if (tier == StorageTier::kObjectStore) persistent = persistent_objstore;
        if (tier == StorageTier::kPersistentSsd) persistent = persistent_persssd;
        const bool degrading = degrading_ssd && tier == StorageTier::kPersistentSsd;
        services[cloud::tier_index(tier)] =
            std::make_shared<FakeService>(tier, persistent, degrading);
    }
    return cloud::StorageCatalog::custom("fake", std::move(services));
}

TEST(RuleSet, IdsAreUniqueSortedAndDocumented) {
    const auto rules = standard_rules();
    ASSERT_EQ(rules.size(), 18u);
    for (std::size_t i = 0; i < rules.size(); ++i) {
        EXPECT_FALSE(rules[i]->summary().empty());
        if (i > 0) {
            EXPECT_LT(rules[i - 1]->id(), rules[i]->id());
        }
    }
    EXPECT_EQ(rules.front()->id(), "L001");
    EXPECT_EQ(rules.back()->id(), "L018");
}

// --- L001 -----------------------------------------------------------------

TEST(L001JobSanity, CleanJobsPass) {
    const std::vector<JobSpec> jobs = {mk_job(1, AppKind::kSort, 120.0)};
    LintInput in;
    in.jobs = &jobs;
    EXPECT_EQ(count_rule(run(in), "L001"), 0u);
}

TEST(L001JobSanity, FlagsNonFiniteNegativeAndZeroCounts) {
    std::vector<JobSpec> jobs = {mk_job(1, AppKind::kSort, 120.0),
                                 mk_job(2, AppKind::kGrep, 50.0),
                                 mk_job(3, AppKind::kJoin, 30.0)};
    jobs[0].input = GigaBytes{std::numeric_limits<double>::quiet_NaN()};
    jobs[1].input = GigaBytes{-10.0};
    jobs[2].map_tasks = 0;
    LintInput in;
    in.jobs = &jobs;
    const Report report = run(in);
    EXPECT_EQ(count_rule(report, "L001"), 3u);
    EXPECT_EQ(report.max_severity(), Severity::kError);
}

// --- L002 -----------------------------------------------------------------

TEST(L002Plausibility, PaperScaleInputsPass) {
    const std::vector<JobSpec> jobs = {mk_job(1, AppKind::kSort, 120.0),
                                       mk_job(2, AppKind::kGrep, 2000.0)};
    LintInput in;
    in.jobs = &jobs;
    EXPECT_EQ(count_rule(run(in), "L002"), 0u);
}

TEST(L002Plausibility, FlagsHugeInputAndAbsurdSplit) {
    std::vector<JobSpec> jobs = {mk_job(1, AppKind::kSort, 200000.0),
                                 mk_job(2, AppKind::kGrep, 100.0)};
    jobs[1].map_tasks = 2;  // 50 GB per map task
    LintInput in;
    in.jobs = &jobs;
    const Report report = run(in);
    EXPECT_EQ(count_rule(report, "L002"), 2u);
    for (const Finding* f : report.at(Severity::kWarning)) {
        EXPECT_EQ(f->rule, "L002");
    }
}

TEST(L002Plausibility, StaysSilentOnL001Territory) {
    std::vector<JobSpec> jobs = {mk_job(1, AppKind::kSort, 120.0)};
    jobs[0].input = GigaBytes{std::numeric_limits<double>::infinity()};
    LintInput in;
    in.jobs = &jobs;
    EXPECT_EQ(count_rule(run(in), "L002"), 0u);  // L001 owns it
}

// --- L003 -----------------------------------------------------------------

TEST(L003UniqueIds, FlagsDuplicates) {
    const std::vector<JobSpec> jobs = {mk_job(1, AppKind::kSort, 120.0),
                                       mk_job(1, AppKind::kGrep, 50.0)};
    LintInput in;
    in.jobs = &jobs;
    EXPECT_EQ(count_rule(run(in), "L003"), 1u);
}

// --- L004 -----------------------------------------------------------------

TEST(L004ReuseInputs, EqualSizesPassDifferingSizesFlagged) {
    std::vector<JobSpec> jobs = {mk_job(1, AppKind::kGrep, 250.0),
                                 mk_job(2, AppKind::kSort, 250.0)};
    jobs[0].reuse_group = 1;
    jobs[1].reuse_group = 1;
    LintInput in;
    in.jobs = &jobs;
    EXPECT_EQ(count_rule(run(in), "L004"), 0u);

    jobs[1].input = GigaBytes{260.0};
    EXPECT_EQ(count_rule(run(in), "L004"), 1u);
}

// --- L005 -----------------------------------------------------------------

TEST(L005ReusePins, ConflictIsErrorWhenReuseAwareWarningOtherwise) {
    std::vector<JobSpec> jobs = {mk_job(1, AppKind::kGrep, 250.0),
                                 mk_job(2, AppKind::kGrep, 250.0)};
    jobs[0].reuse_group = 1;
    jobs[0].pinned_tier = StorageTier::kEphemeralSsd;
    jobs[1].reuse_group = 1;
    jobs[1].pinned_tier = StorageTier::kPersistentSsd;
    LintInput in;
    in.jobs = &jobs;

    in.reuse_aware = true;
    Report report = run(in);
    ASSERT_EQ(count_rule(report, "L005"), 1u);
    EXPECT_EQ(report.max_severity(), Severity::kError);

    in.reuse_aware = false;
    report = run(in);
    ASSERT_EQ(count_rule(report, "L005"), 1u);
    EXPECT_EQ(report.max_severity(), Severity::kWarning);
}

TEST(L005ReusePins, AgreeingPinsPass) {
    std::vector<JobSpec> jobs = {mk_job(1, AppKind::kGrep, 250.0),
                                 mk_job(2, AppKind::kGrep, 250.0)};
    for (auto& j : jobs) {
        j.reuse_group = 1;
        j.pinned_tier = StorageTier::kPersistentHdd;
    }
    LintInput in;
    in.jobs = &jobs;
    in.reuse_aware = true;
    EXPECT_EQ(count_rule(run(in), "L005"), 0u);
}

// --- L006 -----------------------------------------------------------------

TEST(L006DagShape, AcyclicDagPasses) {
    const std::vector<JobSpec> jobs = {mk_job(1, AppKind::kGrep, 100.0),
                                       mk_job(2, AppKind::kSort, 50.0),
                                       mk_job(3, AppKind::kJoin, 25.0)};
    const std::vector<WorkflowEdge> edges = {{1, 2}, {1, 3}, {2, 3}};
    LintInput in;
    in.jobs = &jobs;
    in.edges = &edges;
    EXPECT_EQ(count_rule(run(in), "L006"), 0u);
}

TEST(L006DagShape, FlagsCycleNamingItsMembers) {
    const std::vector<JobSpec> jobs = {mk_job(1, AppKind::kGrep, 100.0),
                                       mk_job(2, AppKind::kSort, 50.0),
                                       mk_job(3, AppKind::kJoin, 25.0)};
    const std::vector<WorkflowEdge> edges = {{1, 2}, {2, 3}, {3, 1}};
    LintInput in;
    in.jobs = &jobs;
    in.edges = &edges;
    const Report report = run(in);
    ASSERT_EQ(count_rule(report, "L006"), 1u);
    EXPECT_NE(report.findings.front().message.find("cycle"), std::string::npos);
    EXPECT_NE(report.findings.front().message.find("Grep-1"), std::string::npos);
}

TEST(L006DagShape, FlagsSelfEdge) {
    const std::vector<JobSpec> jobs = {mk_job(1, AppKind::kGrep, 100.0),
                                       mk_job(2, AppKind::kSort, 50.0)};
    const std::vector<WorkflowEdge> edges = {{1, 1}, {1, 2}};
    LintInput in;
    in.jobs = &jobs;
    in.edges = &edges;
    const Report report = run(in);
    ASSERT_EQ(count_rule(report, "L006"), 1u);
    EXPECT_NE(report.findings.front().message.find("self-edge"), std::string::npos);
}

// --- L007 -----------------------------------------------------------------

TEST(L007IsolatedStage, FlagsUnwiredJobOnly) {
    const std::vector<JobSpec> jobs = {mk_job(1, AppKind::kGrep, 100.0),
                                       mk_job(2, AppKind::kSort, 50.0),
                                       mk_job(3, AppKind::kJoin, 25.0)};
    const std::vector<WorkflowEdge> edges = {{1, 2}};
    LintInput in;
    in.jobs = &jobs;
    in.edges = &edges;
    const Report report = run(in);
    ASSERT_EQ(count_rule(report, "L007"), 1u);
    EXPECT_EQ(report.findings.front().subject, "job 'Join-3'");
    EXPECT_EQ(report.max_severity(), Severity::kWarning);
}

TEST(L007IsolatedStage, EdgelessWorkflowIsNotFlagged) {
    // No edges at all: nothing is "isolated" relative to anything.
    const std::vector<JobSpec> jobs = {mk_job(1, AppKind::kGrep, 100.0),
                                       mk_job(2, AppKind::kSort, 50.0)};
    const std::vector<WorkflowEdge> edges;
    LintInput in;
    in.jobs = &jobs;
    in.edges = &edges;
    EXPECT_EQ(count_rule(run(in), "L007"), 0u);
}

// --- L008 -----------------------------------------------------------------

TEST(L008EdgeRefs, FlagsUndeclaredEndpoints) {
    const std::vector<JobSpec> jobs = {mk_job(1, AppKind::kGrep, 100.0),
                                       mk_job(2, AppKind::kSort, 50.0)};
    const std::vector<WorkflowEdge> edges = {{1, 2}, {1, 9}, {8, 2}};
    LintInput in;
    in.jobs = &jobs;
    in.edges = &edges;
    EXPECT_EQ(count_rule(run(in), "L008"), 2u);
}

// --- L009 -----------------------------------------------------------------

TEST(L009Deadline, GenerousDeadlinePasses) {
    const std::vector<JobSpec> jobs = {mk_job(1, AppKind::kGrep, 50.0),
                                       mk_job(2, AppKind::kSort, 25.0)};
    const std::vector<WorkflowEdge> edges = {{1, 2}};
    LintInput in;
    in.jobs = &jobs;
    in.edges = &edges;
    in.deadline = Seconds::from_hours(100.0);
    in.models = &testing::small_models();
    EXPECT_EQ(count_rule(run(in), "L009"), 0u);
}

TEST(L009Deadline, ProvablyUnattainableDeadlineIsAnError) {
    const std::vector<JobSpec> jobs = {mk_job(1, AppKind::kGrep, 50.0),
                                       mk_job(2, AppKind::kSort, 25.0)};
    const std::vector<WorkflowEdge> edges = {{1, 2}};
    LintInput in;
    in.jobs = &jobs;
    in.edges = &edges;
    in.deadline = Seconds{1.0};
    in.models = &testing::small_models();
    const Report report = run(in);
    ASSERT_EQ(count_rule(report, "L009"), 1u);
    EXPECT_EQ(report.findings.front().severity, Severity::kError);
    EXPECT_NE(report.findings.front().message.find("lower bound"), std::string::npos);
}

TEST(L009Deadline, SkipsWhenModelsAbsent) {
    const std::vector<JobSpec> jobs = {mk_job(1, AppKind::kGrep, 50.0)};
    const std::vector<WorkflowEdge> edges;
    LintInput in;
    in.jobs = &jobs;
    in.edges = &edges;
    in.deadline = Seconds{1.0};  // unattainable, but unprovable without models
    EXPECT_EQ(count_rule(run(in), "L009"), 0u);
}

// --- L010 -----------------------------------------------------------------

TEST(L010CatalogMonotone, BuiltInCatalogsPass) {
    for (const char* name : {"google-cloud", "aws-like"}) {
        const auto catalog = cloud::StorageCatalog::by_name(name);
        LintInput in;
        in.catalog = &catalog;
        EXPECT_EQ(count_rule(run(in), "L010"), 0u) << name;
    }
}

TEST(L010CatalogMonotone, FlagsDegradingCurveOncePerTier) {
    const auto catalog = fake_catalog(/*degrading_ssd=*/true, true, true);
    LintInput in;
    in.catalog = &catalog;
    const Report report = run(in);
    ASSERT_EQ(count_rule(report, "L010"), 1u);
    EXPECT_EQ(report.findings.front().subject, "persSSD");
}

// --- L011 -----------------------------------------------------------------

TEST(L011CatalogConventions, FlagsNonPersistentBackingStore) {
    const auto catalog = fake_catalog(false, /*persistent_objstore=*/false, true);
    LintInput in;
    in.catalog = &catalog;
    const Report report = run(in);
    ASSERT_EQ(count_rule(report, "L011"), 1u);
    EXPECT_EQ(report.findings.front().subject, "backing store");
}

TEST(L011CatalogConventions, FlagsNonPersistentIntermediateTier) {
    const auto catalog = fake_catalog(false, true, /*persistent_persssd=*/false);
    LintInput in;
    in.catalog = &catalog;
    const Report report = run(in);
    ASSERT_EQ(count_rule(report, "L011"), 1u);
    EXPECT_EQ(report.findings.front().subject, "objStore intermediate tier");
}

// --- L012 / L013 ----------------------------------------------------------

TEST(L012PlanShape, FlagsSizeMismatch) {
    const std::vector<JobSpec> jobs = {mk_job(1, AppKind::kSort, 120.0),
                                       mk_job(2, AppKind::kGrep, 50.0)};
    const std::vector<PlacementDecision> decisions = {
        {StorageTier::kPersistentSsd, 1.0}};
    LintInput in;
    in.jobs = &jobs;
    in.decisions = &decisions;
    EXPECT_EQ(count_rule(run(in), "L012"), 1u);
}

TEST(L013Factors, FlagsSubOneAndNonFinite) {
    const std::vector<JobSpec> jobs = {mk_job(1, AppKind::kSort, 120.0),
                                       mk_job(2, AppKind::kGrep, 50.0)};
    const std::vector<PlacementDecision> decisions = {
        {StorageTier::kPersistentSsd, 0.5},
        {StorageTier::kPersistentSsd, std::numeric_limits<double>::quiet_NaN()}};
    LintInput in;
    in.jobs = &jobs;
    in.decisions = &decisions;
    EXPECT_EQ(count_rule(run(in), "L013"), 2u);
}

// --- L014 / L015 ----------------------------------------------------------

TEST(L014TierPins, FlagsViolatedPin) {
    std::vector<JobSpec> jobs = {mk_job(1, AppKind::kSort, 120.0)};
    jobs[0].pinned_tier = StorageTier::kPersistentSsd;
    const std::vector<PlacementDecision> decisions = {{StorageTier::kEphemeralSsd, 1.0}};
    LintInput in;
    in.jobs = &jobs;
    in.decisions = &decisions;
    const Report report = run(in);
    ASSERT_EQ(count_rule(report, "L014"), 1u);
    EXPECT_NE(report.findings.front().message.find("pinned"), std::string::npos);
}

TEST(L015ReuseGroupSplit, FlagsSplitGroupOnlyWhenReuseAware) {
    std::vector<JobSpec> jobs = {mk_job(1, AppKind::kGrep, 250.0),
                                 mk_job(2, AppKind::kGrep, 250.0)};
    jobs[0].reuse_group = 1;
    jobs[1].reuse_group = 1;
    const std::vector<PlacementDecision> decisions = {{StorageTier::kEphemeralSsd, 1.0},
                                                      {StorageTier::kPersistentSsd, 1.0}};
    LintInput in;
    in.jobs = &jobs;
    in.decisions = &decisions;

    in.reuse_aware = true;
    EXPECT_EQ(count_rule(run(in), "L015"), 1u);

    in.reuse_aware = false;  // Eq. 7 not enforced: splitting is legal
    EXPECT_EQ(count_rule(run(in), "L015"), 0u);
}

// --- L016 -----------------------------------------------------------------

TEST(L016UselessOverProvision, FlagsObjStoreAndExtremeFactors) {
    const std::vector<JobSpec> jobs = {mk_job(1, AppKind::kSort, 120.0),
                                       mk_job(2, AppKind::kGrep, 50.0),
                                       mk_job(3, AppKind::kJoin, 25.0)};
    const std::vector<PlacementDecision> decisions = {{StorageTier::kObjectStore, 2.0},
                                                      {StorageTier::kPersistentSsd, 32.0},
                                                      {StorageTier::kPersistentSsd, 4.0}};
    LintInput in;
    in.jobs = &jobs;
    in.decisions = &decisions;
    const Report report = run(in);
    EXPECT_EQ(count_rule(report, "L016"), 2u);
    EXPECT_EQ(report.max_severity(), Severity::kWarning);
}

// --- L017 -----------------------------------------------------------------

TEST(L017CapacityLimits, ModestPlanFits) {
    const std::vector<JobSpec> jobs = {mk_job(1, AppKind::kGrep, 50.0)};
    const std::vector<PlacementDecision> decisions = {{StorageTier::kPersistentSsd, 2.0}};
    const auto& models = testing::small_models();
    LintInput in;
    in.jobs = &jobs;
    in.decisions = &decisions;
    in.models = &models;
    in.catalog = &models.catalog();
    EXPECT_EQ(count_rule(run(in), "L017"), 0u);
}

TEST(L017CapacityLimits, FlagsPerVmOverflow) {
    // 5 workers x 4 x 375 GB ephSSD = 7500 GB aggregate; Sort needs input +
    // intermediate + output = 3x input, so 5000 GB of input cannot fit.
    const std::vector<JobSpec> jobs = {mk_job(1, AppKind::kSort, 5000.0)};
    const std::vector<PlacementDecision> decisions = {{StorageTier::kEphemeralSsd, 1.0}};
    const auto& models = testing::small_models();
    LintInput in;
    in.jobs = &jobs;
    in.decisions = &decisions;
    in.models = &models;
    in.catalog = &models.catalog();
    const Report report = run(in);
    ASSERT_EQ(count_rule(report, "L017"), 1u);
    EXPECT_EQ(report.findings.front().subject, "ephSSD");
}

// At the per-VM cap, lint and PlanEvaluator read one aggregate. ephSSD's
// cap on the 5-worker cluster is 5 x 4 x 375 = 7500 GB. One Sort
// contributes one fixed-point unit (2^-20 GB) under the cap, and four tiny
// Sorts 0.4 units each: the exact fixed-point sum stays under the cap (the
// tiny terms quantize to 0), while an index-order double sum would land
// 0.6 units above it. The evaluator provisions 4 volumes per VM, so lint
// must not flag the plan; one more unit on the big job crosses the cap for
// both.
TEST(L017CapacityLimits, AgreesWithTheEvaluatorAtTheCap) {
    const auto& models = testing::small_models();
    const int nvm = models.cluster().worker_count;
    ASSERT_EQ(nvm, 5);
    const double cap = 7500.0;
    ASSERT_EQ(models.catalog().service(StorageTier::kEphemeralSsd).max_capacity_per_vm()->value(),
              cap / nvm);

    std::vector<JobSpec> jobs = {mk_job(1, AppKind::kSort, 1000.0)};
    const double unit = core::kFixedUnit;
    // A Sort needs 3x its input (Eq. 3); 0.4 units each.
    for (int i = 0; i < 4; ++i) jobs.push_back(mk_job(2 + i, AppKind::kSort, 0.4 * unit / 3.0));
    const double big_req = jobs[0].capacity_requirement().value();
    for (std::size_t i = 1; i < jobs.size(); ++i) {
        const double tiny = jobs[i].capacity_requirement().value();
        ASSERT_GT(tiny, 0.3 * unit);
        ASSERT_LT(tiny, 0.5 * unit);
    }

    for (const double units_under : {1.0, -1.0}) {
        SCOPED_TRACE(units_under > 0 ? "under the cap" : "over the cap");
        const double k = (cap - units_under * unit) / big_req;
        std::vector<PlacementDecision> decisions(jobs.size(),
                                                 {StorageTier::kEphemeralSsd, 1.0});
        decisions[0].overprovision = k;
        // The big term quantizes to the intended unit.
        ASSERT_EQ(core::fixed_units(big_req * k),
                  core::fixed_units(cap) - static_cast<std::int64_t>(units_under));
        double index_order = 0.0;
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            index_order += jobs[i].capacity_requirement().value() * decisions[i].overprovision;
        }
        EXPECT_GT(index_order, cap);

        LintInput in;
        in.jobs = &jobs;
        in.decisions = &decisions;
        in.models = &models;
        in.catalog = &models.catalog();
        const core::PlanEvaluator evaluator(models, workload::Workload(jobs));
        const core::PlanEvaluation eval = evaluator.evaluate(core::TieringPlan(decisions));
        const bool under = units_under > 0;
        EXPECT_EQ(eval.feasible, under) << eval.infeasibility;
        EXPECT_EQ(count_rule(run(in), "L017"), under ? 0u : 1u);
    }
}

// --- L018 -----------------------------------------------------------------

TEST(L018ModelCoverage, FullyProfiledSetPasses) {
    const std::vector<JobSpec> jobs = {mk_job(1, AppKind::kGrep, 50.0)};
    const std::vector<PlacementDecision> decisions = {{StorageTier::kPersistentHdd, 1.0}};
    LintInput in;
    in.jobs = &jobs;
    in.decisions = &decisions;
    in.models = &testing::small_models();
    EXPECT_EQ(count_rule(run(in), "L018"), 0u);
}

TEST(L018ModelCoverage, FlagsUnprofiledPlacementAndUnplannableApp) {
    const auto& full = testing::small_models();
    model::PerfModelSet sparse(testing::small_cluster(),
                               cloud::StorageCatalog::google_cloud());
    // Only (Sort, persSSD) is calibrated.
    sparse.set_tier_model(AppKind::kSort, StorageTier::kPersistentSsd,
                          full.tier_model(AppKind::kSort, StorageTier::kPersistentSsd));

    const std::vector<JobSpec> jobs = {mk_job(1, AppKind::kSort, 50.0),
                                       mk_job(2, AppKind::kGrep, 25.0)};
    LintInput in;
    in.jobs = &jobs;
    in.models = &sparse;

    // Without a plan: Sort is plannable somewhere, Grep nowhere.
    Report report = run(in);
    ASSERT_EQ(count_rule(report, "L018"), 1u);
    EXPECT_EQ(report.findings.front().subject, "job 'Grep-2'");

    // With a plan: the placement (Sort, ephSSD) is also uncalibrated.
    const std::vector<PlacementDecision> decisions = {{StorageTier::kEphemeralSsd, 1.0},
                                                      {StorageTier::kPersistentSsd, 1.0}};
    in.decisions = &decisions;
    report = run(in);
    EXPECT_EQ(count_rule(report, "L018"), 2u);
}

}  // namespace
}  // namespace cast::lint
