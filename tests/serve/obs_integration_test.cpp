// Observability integration contract: instruments mirror ServiceStats
// exactly (same atomic sites, so the totals agree to the bit even under a
// full-intensity fault storm), the invariant completed + rejected ==
// submitted holds with metrics on, trace spans record request lifecycles,
// and — the load-bearing promise — turning observation on never changes a
// single solver bit.
#include "serve/service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <future>
#include <string>
#include <vector>

#include "serve/faults.hpp"
#include "serve/snapshot.hpp"
#include "test_support.hpp"
#include "workload/workflow.hpp"

namespace cast::serve {
namespace {

using workload::AppKind;

workload::JobSpec mk_job(int id, AppKind app, double gb) {
    const int maps = std::max(1, static_cast<int>(gb / 0.128));
    return workload::JobSpec{.id = id,
                             .name = "j" + std::to_string(id),
                             .app = app,
                             .input = GigaBytes{gb},
                             .map_tasks = maps,
                             .reduce_tasks = std::max(1, maps / 4),
                             .reuse_group = std::nullopt};
}

workload::Workload workload_a() {
    return workload::Workload({mk_job(1, AppKind::kSort, 200.0),
                               mk_job(2, AppKind::kGrep, 150.0)});
}

workload::Workload workload_b() {
    return workload::Workload({mk_job(1, AppKind::kJoin, 120.0),
                               mk_job(2, AppKind::kKMeans, 90.0)});
}

SnapshotPtr fresh_snapshot() { return make_snapshot(testing::small_models()); }

ServiceOptions fast_options(std::size_t workers) {
    ServiceOptions opts;
    opts.workers = workers;
    opts.solver.annealing.iter_max = 150;
    opts.solver.annealing.chains = 2;
    return opts;
}

void expect_bit_identical(const PlanResponse& got, const PlanResponse& want) {
    ASSERT_EQ(got.status, want.status);
    ASSERT_EQ(got.batch.has_value(), want.batch.has_value());
    if (got.batch) {
        EXPECT_EQ(got.batch->evaluation.utility, want.batch->evaluation.utility);
        EXPECT_EQ(got.batch->evaluation.total_runtime.value(),
                  want.batch->evaluation.total_runtime.value());
        EXPECT_EQ(got.batch->evaluation.total_cost().value(),
                  want.batch->evaluation.total_cost().value());
        ASSERT_EQ(got.batch->plan.size(), want.batch->plan.size());
        for (std::size_t i = 0; i < got.batch->plan.size(); ++i) {
            EXPECT_EQ(got.batch->plan.decision(i).tier,
                      want.batch->plan.decision(i).tier);
            EXPECT_EQ(got.batch->plan.decision(i).overprovision,
                      want.batch->plan.decision(i).overprovision);
        }
    }
}

std::vector<PlanRequest> mixed_requests(std::uint64_t count) {
    std::vector<PlanRequest> requests;
    requests.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
        PlanRequest r;
        r.id = i + 1;
        r.workload = (i % 2 == 0) ? workload_a() : workload_b();
        r.seed = i % 5;  // a few distinct templates -> some coalescing
        r.priority = (i % 3 == 0)   ? Priority::kHigh
                     : (i % 3 == 1) ? Priority::kNormal
                                    : Priority::kLow;
        requests.push_back(std::move(r));
    }
    return requests;
}

// The headline golden test: metrics + tracing on produces bit-identical
// responses to the default-off configuration. Observation reads, never
// steers.
TEST(ServiceObservability, InstrumentedRunIsBitIdenticalToUninstrumented) {
    const auto requests = mixed_requests(8);
    auto run = [&requests](ServiceOptions opts) {
        PlannerService service(fresh_snapshot(), opts);
        std::vector<std::future<PlanResponse>> futures;
        for (const PlanRequest& request : requests) {
            futures.push_back(service.submit(request));
        }
        std::vector<PlanResponse> out;
        for (auto& f : futures) out.push_back(f.get());
        return out;
    };

    ServiceOptions plain = fast_options(2);
    ServiceOptions instrumented = fast_options(2);
    instrumented.obs.metrics = true;
    instrumented.obs.trace_capacity = 64;

    const auto bare = run(plain);
    const auto observed = run(instrumented);
    ASSERT_EQ(bare.size(), observed.size());
    for (std::size_t i = 0; i < bare.size(); ++i) {
        ASSERT_TRUE(bare[i].ok()) << bare[i].error;
        ASSERT_TRUE(observed[i].ok()) << observed[i].error;
        expect_bit_identical(observed[i], bare[i]);
    }
}

// Registry counters are incremented at the same sites as the ServiceStats
// atomics, so the two views must agree EXACTLY — even under a
// full-intensity fault storm with retries, breakers, sheds and
// backpressure all firing at once across 8 workers (this is the TSan
// lane's data-race hammer for the obs layer).
TEST(ServiceObservability, RegistryAgreesWithStatsUnderFaultStorm) {
    ServiceOptions opts = fast_options(8);
    opts.obs.metrics = true;
    opts.obs.trace_capacity = 128;
    opts.governor.enabled = true;
    opts.queue_capacity = 32;  // small enough that backpressure also fires
    opts.faults = ServeFaultProfile::scaled(1.0, 4242);

    std::uint64_t submitted = 0;
    {
        PlannerService service(fresh_snapshot(), opts);
        ASSERT_TRUE(service.metrics_enabled());
        const auto requests = mixed_requests(48);
        std::vector<std::future<PlanResponse>> futures;
        for (const PlanRequest& request : requests) {
            futures.push_back(service.submit(request));
            ++submitted;
        }
        for (auto& f : futures) (void)f.get();  // every future must resolve

        const ServiceStats stats = service.stats();
        // The bookkeeping invariant: nothing vanishes, nothing double-counts.
        EXPECT_EQ(stats.completed + stats.rejected, stats.submitted);
        EXPECT_EQ(stats.submitted, submitted);

        // Exact agreement between the registry and the stats snapshot. The
        // service is idle (all futures resolved), so no counter is mid-update.
        const obs::MetricsRegistry& reg = service.metrics();
        EXPECT_EQ(reg.counter_value("serve.requests.submitted"), stats.submitted);
        EXPECT_EQ(reg.counter_value("serve.requests.completed"), stats.completed);
        EXPECT_EQ(reg.counter_value("serve.requests.rejected"), stats.rejected);
        EXPECT_EQ(reg.counter_value("serve.requests.errors"), stats.errors);
        EXPECT_EQ(reg.counter_value("serve.requests.coalesced"), stats.coalesced);
        EXPECT_EQ(reg.counter_value("serve.dispatch.batches"), stats.batches);
        EXPECT_EQ(reg.counter_value("serve.governor.served_full"), stats.served_full);
        EXPECT_EQ(reg.counter_value("serve.governor.served_trimmed"),
                  stats.served_trimmed);
        EXPECT_EQ(reg.counter_value("serve.governor.served_greedy"),
                  stats.served_greedy);
        EXPECT_EQ(reg.counter_value("serve.governor.shed_overload"),
                  stats.governor_shed);
        EXPECT_EQ(reg.counter_value("serve.governor.shed_deadline"),
                  stats.deadline_shed);
        EXPECT_EQ(reg.counter_value("serve.retry.attempts"), stats.solve_retries);
        EXPECT_EQ(reg.counter_value("serve.breaker.fastfail"), stats.breaker_fastfail);
        EXPECT_EQ(reg.counter_value("serve.snapshot.swaps"), stats.snapshot_swaps);

        // Pull gauges read live owner state without perturbing it.
        EXPECT_EQ(reg.gauge_value("serve.queue.depth"), 0.0);  // drained
        EXPECT_EQ(reg.gauge_value("serve.governor.ewma_seeded"),
                  stats.ewma_seeded ? 1.0 : 0.0);
        EXPECT_EQ(reg.gauge_value("serve.breakers.trips"),
                  static_cast<double>(stats.breaker_trips));
        EXPECT_GE(reg.gauge_value("serve.snapshot.epoch"), 1.0);
        EXPECT_EQ(reg.gauge_value("serve.cache.inserts"),
                  static_cast<double>(stats.cache.inserts));

        // Per-priority latency histograms cover exactly the ok responses.
        const std::uint64_t observed_latencies =
            reg.histogram_count("serve.latency_ms.high") +
            reg.histogram_count("serve.latency_ms.normal") +
            reg.histogram_count("serve.latency_ms.low");
        EXPECT_EQ(observed_latencies, stats.completed - stats.errors);

        // The JSON export is well-formed enough to never leak a bare NaN.
        const std::string doc = reg.json();
        EXPECT_EQ(doc.find("nan"), std::string::npos);
        EXPECT_NE(doc.find("\"serve.requests.submitted\""), std::string::npos);

        // Every buffered trace span is a complete lifecycle: admit first,
        // respond last, a known outcome, monotone timestamps.
        const auto spans = service.trace_spans();
        EXPECT_GT(spans.size(), 0u);
        EXPECT_LE(spans.size(), service.trace_ring().capacity());
        for (const obs::TraceSpan& span : spans) {
            ASSERT_GE(span.events.size(), 2u);
            EXPECT_EQ(span.events.front().name, "admit");
            EXPECT_EQ(span.events.back().name, "respond");
            EXPECT_TRUE(span.outcome == "ok" || span.outcome == "rejected" ||
                        span.outcome == "error")
                << span.outcome;
            for (std::size_t i = 1; i < span.events.size(); ++i) {
                EXPECT_LE(span.events[i - 1].at_ms, span.events[i].at_ms);
            }
        }
    }
}

// Default-off: a service constructed without obs options carries no
// registry instruments and buffers no spans (zero overhead path).
TEST(ServiceObservability, DefaultConfigurationHasNoInstruments) {
    PlannerService service(fresh_snapshot(), fast_options(1));
    EXPECT_FALSE(service.metrics_enabled());
    EXPECT_FALSE(service.trace_ring().enabled());
    PlanRequest request;
    request.id = 1;
    request.workload = workload_a();
    request.seed = 3;
    ASSERT_TRUE(service.submit(request).get().ok());
    EXPECT_FALSE(service.metrics().has_counter("serve.requests.submitted"));
    EXPECT_TRUE(service.trace_spans().empty());
}

// ewma_seeded surfaces through stats and the gauge: false before any solve
// completes, true after.
TEST(ServiceObservability, EwmaSeededFlagFlipsAfterFirstSolve) {
    ServiceOptions opts = fast_options(1);
    opts.obs.metrics = true;
    PlannerService service(fresh_snapshot(), opts);
    EXPECT_FALSE(service.stats().ewma_seeded);
    EXPECT_EQ(service.metrics().gauge_value("serve.governor.ewma_seeded"), 0.0);

    PlanRequest request;
    request.id = 1;
    request.workload = workload_b();
    request.seed = 2;
    ASSERT_TRUE(service.submit(request).get().ok());

    const ServiceStats stats = service.stats();
    EXPECT_TRUE(stats.ewma_seeded);
    EXPECT_GT(stats.ewma_solve_ms, 0.0);
    EXPECT_EQ(service.metrics().gauge_value("serve.governor.ewma_seeded"), 1.0);
    EXPECT_EQ(service.metrics().gauge_value("serve.governor.ewma_solve_ms"),
              stats.ewma_solve_ms);
}

}  // namespace
}  // namespace cast::serve
