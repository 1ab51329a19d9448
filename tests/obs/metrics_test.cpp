// MetricsRegistry contract tests: relaxed-atomic instruments, stable
// references across re-registration, bucket-interpolated quantiles with
// NaN-on-empty, pull gauges evaluated outside the registry mutex, and the
// JSON/table exporters (sorted names, omitted empty-histogram quantiles,
// null for non-finite gauges).
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <thread>
#include <vector>

#include "common/error.hpp"

namespace cast::obs {
namespace {

TEST(Counter, AccumulatesAcrossThreads) {
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    constexpr int kThreads = 8;
    constexpr int kPerThread = 10'000;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&c] {
            for (int i = 0; i < kPerThread; ++i) c.add();
        });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
    c.add(5);
    EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread + 5);
}

TEST(Gauge, HoldsLastWrittenValue) {
    Gauge g;
    EXPECT_EQ(g.value(), 0.0);
    g.set(3.25);
    EXPECT_EQ(g.value(), 3.25);
    g.set(-1.0);
    EXPECT_EQ(g.value(), -1.0);
}

TEST(Histogram, RejectsBadBounds) {
    EXPECT_THROW(Histogram(std::vector<double>{}), PreconditionError);
    EXPECT_THROW(Histogram(std::vector<double>{1.0, 1.0}), PreconditionError);
    EXPECT_THROW(Histogram(std::vector<double>{2.0, 1.0}), PreconditionError);
}

TEST(Histogram, EmptyHasNaNQuantilesAndZeroTotals) {
    Histogram h(Histogram::default_latency_buckets_ms());
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.sum(), 0.0);
    EXPECT_TRUE(std::isnan(h.quantile(0.5)));
    EXPECT_TRUE(std::isnan(h.quantile(0.99)));
}

TEST(Histogram, CountsSumAndBucketsTrackObservations) {
    Histogram h({1.0, 10.0, 100.0});
    h.observe(0.5);    // bucket 0 (<= 1)
    h.observe(1.0);    // bucket 0 (boundary counts down)
    h.observe(5.0);    // bucket 1
    h.observe(50.0);   // bucket 2
    h.observe(500.0);  // overflow
    EXPECT_EQ(h.count(), 5u);
    EXPECT_DOUBLE_EQ(h.sum(), 556.5);
    const auto buckets = h.bucket_counts();
    ASSERT_EQ(buckets.size(), 4u);
    EXPECT_EQ(buckets[0], 2u);
    EXPECT_EQ(buckets[1], 1u);
    EXPECT_EQ(buckets[2], 1u);
    EXPECT_EQ(buckets[3], 1u);
}

TEST(Histogram, QuantileInterpolatesWithinBucketAndClampsOverflow) {
    Histogram h({10.0, 20.0});
    for (int i = 0; i < 100; ++i) h.observe(15.0);  // all in (10, 20]
    // Every sample lives in the second bucket: any quantile lands inside
    // [10, 20], monotone in q.
    const double p50 = h.quantile(0.5);
    const double p99 = h.quantile(0.99);
    EXPECT_GE(p50, 10.0);
    EXPECT_LE(p99, 20.0);
    EXPECT_LE(p50, p99);

    Histogram over({1.0, 2.0});
    over.observe(1000.0);
    // Overflow bucket has no upper edge; the estimate clamps to the top
    // finite bound instead of inventing +inf.
    EXPECT_EQ(over.quantile(0.99), 2.0);
}

TEST(Histogram, DefaultLatencyBucketsAreStrictlyIncreasing) {
    const auto bounds = Histogram::default_latency_buckets_ms();
    ASSERT_GE(bounds.size(), 5u);
    for (std::size_t i = 1; i < bounds.size(); ++i) {
        EXPECT_LT(bounds[i - 1], bounds[i]);
    }
}

TEST(MetricsRegistry, RegistrationReturnsStableReferences) {
    MetricsRegistry reg;
    Counter& c1 = reg.counter("requests");
    Counter& c2 = reg.counter("requests");
    EXPECT_EQ(&c1, &c2);  // same name -> same instrument
    c1.add(3);
    EXPECT_EQ(reg.counter_value("requests"), 3u);
    EXPECT_TRUE(reg.has_counter("requests"));
    EXPECT_FALSE(reg.has_counter("absent"));

    Gauge& g1 = reg.gauge("depth");
    Gauge& g2 = reg.gauge("depth");
    EXPECT_EQ(&g1, &g2);
    g1.set(4.0);
    EXPECT_EQ(reg.gauge_value("depth"), 4.0);

    Histogram& h1 = reg.histogram("lat", {1.0, 2.0});
    Histogram& h2 = reg.histogram("lat", {5.0, 6.0, 7.0});
    EXPECT_EQ(&h1, &h2);  // bounds fixed by first registration
    EXPECT_EQ(h2.bounds(), (std::vector<double>{1.0, 2.0}));
}

TEST(MetricsRegistry, PullGaugeEvaluatesAtExportTime) {
    MetricsRegistry reg;
    double live = 1.0;
    reg.gauge_fn("live", [&live] { return live; });
    EXPECT_EQ(reg.gauge_value("live"), 1.0);
    live = 7.5;
    EXPECT_EQ(reg.gauge_value("live"), 7.5);

    // A pull callback may itself touch the registry (it runs outside the
    // registry mutex) — this must not deadlock.
    reg.gauge_fn("reentrant", [&reg] {
        return static_cast<double>(reg.counter_value("absent"));
    });
    EXPECT_EQ(reg.gauge_value("reentrant"), 0.0);
    std::ostringstream os;
    reg.write_json(os);  // export path evaluates every callback
    EXPECT_NE(os.str().find("\"reentrant\""), std::string::npos);
}

TEST(MetricsRegistry, JsonIsOneLineSortedAndOmitsEmptyQuantiles) {
    MetricsRegistry reg;
    reg.counter("b.count").add(2);
    reg.counter("a.count").add(1);
    reg.gauge("depth").set(3.0);
    (void)reg.histogram("empty_hist");
    Histogram& h = reg.histogram("lat", {1.0, 10.0});
    h.observe(0.5);
    h.observe(5.0);

    const std::string doc = reg.json();
    EXPECT_EQ(doc.find('\n'), std::string::npos);  // one line
    // Counters sort lexicographically.
    EXPECT_LT(doc.find("\"a.count\""), doc.find("\"b.count\""));
    // Empty histogram keeps its count but omits sum/p50/p95/p99 — NaN is
    // not a JSON token.
    const auto empty_pos = doc.find("\"empty_hist\"");
    ASSERT_NE(empty_pos, std::string::npos);
    const auto empty_obj = doc.substr(empty_pos, doc.find('}', empty_pos) - empty_pos);
    EXPECT_NE(empty_obj.find("\"count\":0"), std::string::npos);
    EXPECT_EQ(empty_obj.find("p50"), std::string::npos);
    EXPECT_EQ(empty_obj.find("nan"), std::string::npos);
    // Populated histogram carries the quantile fields.
    const auto lat_pos = doc.find("\"lat\"");
    const auto lat_obj = doc.substr(lat_pos, doc.find('}', lat_pos) - lat_pos);
    EXPECT_NE(lat_obj.find("\"count\":2"), std::string::npos);
    EXPECT_NE(lat_obj.find("\"p99\""), std::string::npos);
}

TEST(MetricsRegistry, NonFiniteGaugeExportsAsNull) {
    MetricsRegistry reg;
    reg.gauge("bad").set(std::numeric_limits<double>::quiet_NaN());
    const std::string doc = reg.json();
    EXPECT_NE(doc.find("\"bad\":null"), std::string::npos);
    EXPECT_EQ(doc.find("nan"), std::string::npos);
}

TEST(MetricsRegistry, PullGaugeShadowsPushGaugeOfSameName) {
    MetricsRegistry reg;
    reg.gauge("depth").set(1.0);
    reg.gauge_fn("depth", [] { return 9.0; });
    EXPECT_EQ(reg.gauge_value("depth"), 9.0);
    const std::string doc = reg.json();
    EXPECT_NE(doc.find("\"depth\":9"), std::string::npos);
}

TEST(MetricsRegistry, TableRendersAllInstrumentKinds) {
    MetricsRegistry reg;
    reg.counter("serve.requests.submitted").add(4);
    reg.gauge("serve.queue.depth").set(2.0);
    reg.histogram("serve.latency_ms.normal").observe(3.0);
    (void)reg.histogram("serve.latency_ms.empty");
    std::ostringstream os;
    reg.write_table(os);
    const std::string text = os.str();
    EXPECT_NE(text.find("serve.requests.submitted"), std::string::npos);
    EXPECT_NE(text.find("serve.queue.depth"), std::string::npos);
    EXPECT_NE(text.find("serve.latency_ms.normal"), std::string::npos);
    // Empty histogram rows print "-" placeholders, never "nan".
    EXPECT_EQ(text.find("nan"), std::string::npos);
}

TEST(MetricsRegistry, ConcurrentRegistrationAndUpdatesAreSafe) {
    MetricsRegistry reg;
    constexpr int kThreads = 8;
    constexpr int kPerThread = 2'000;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&reg] {
            // All threads race registration of the same names; the registry
            // must hand every one the same instrument.
            Counter& c = reg.counter("shared.count");
            Histogram& h = reg.histogram("shared.lat", {1.0, 10.0, 100.0});
            for (int i = 0; i < kPerThread; ++i) {
                c.add();
                h.observe(static_cast<double>(i % 20));
            }
        });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(reg.counter_value("shared.count"),
              static_cast<std::uint64_t>(kThreads) * kPerThread);
    EXPECT_EQ(reg.histogram("shared.lat").count(),
              static_cast<std::uint64_t>(kThreads) * kPerThread);
}

}  // namespace
}  // namespace cast::obs
