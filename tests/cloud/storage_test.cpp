#include "cloud/storage.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

namespace cast::cloud {
namespace {

using cast::literals::operator""_GB;

class StorageCatalogTest : public ::testing::Test {
protected:
    StorageCatalog catalog = StorageCatalog::google_cloud();
};

TEST_F(StorageCatalogTest, TierNamesMatchPaperSpelling) {
    EXPECT_EQ(tier_name(StorageTier::kEphemeralSsd), "ephSSD");
    EXPECT_EQ(tier_name(StorageTier::kPersistentSsd), "persSSD");
    EXPECT_EQ(tier_name(StorageTier::kPersistentHdd), "persHDD");
    EXPECT_EQ(tier_name(StorageTier::kObjectStore), "objStore");
}

TEST_F(StorageCatalogTest, TierFromNameRoundTrip) {
    for (StorageTier t : kAllTiers) {
        EXPECT_EQ(tier_from_name(tier_name(t)), t);
    }
    EXPECT_FALSE(tier_from_name("EPHSSD").has_value());
    EXPECT_FALSE(tier_from_name("").has_value());
}

TEST_F(StorageCatalogTest, Table1PricesPerGbMonth) {
    EXPECT_DOUBLE_EQ(catalog.service(StorageTier::kEphemeralSsd).price_per_gb_month().value(),
                     0.218);
    EXPECT_DOUBLE_EQ(catalog.service(StorageTier::kPersistentSsd).price_per_gb_month().value(),
                     0.17);
    EXPECT_DOUBLE_EQ(catalog.service(StorageTier::kPersistentHdd).price_per_gb_month().value(),
                     0.04);
    EXPECT_DOUBLE_EQ(catalog.service(StorageTier::kObjectStore).price_per_gb_month().value(),
                     0.026);
}

TEST_F(StorageCatalogTest, HourlyPriceIsMonthlyOver730) {
    for (StorageTier t : kAllTiers) {
        const auto& s = catalog.service(t);
        EXPECT_NEAR(s.price_per_gb_hour().value(), s.price_per_gb_month().value() / 730.0,
                    1e-12);
    }
}

TEST_F(StorageCatalogTest, PersistenceFlags) {
    EXPECT_FALSE(catalog.service(StorageTier::kEphemeralSsd).persistent());
    EXPECT_TRUE(catalog.service(StorageTier::kPersistentSsd).persistent());
    EXPECT_TRUE(catalog.service(StorageTier::kPersistentHdd).persistent());
    EXPECT_TRUE(catalog.service(StorageTier::kObjectStore).persistent());
}

// --- ephSSD: fixed 375 GB volumes, max 4 per VM (Table 1).

TEST_F(StorageCatalogTest, EphSsdProvisionsWholeVolumes) {
    const auto& eph = catalog.service(StorageTier::kEphemeralSsd);
    EXPECT_DOUBLE_EQ(eph.provision(1.0_GB).value(), 375.0);
    EXPECT_DOUBLE_EQ(eph.provision(375.0_GB).value(), 375.0);
    EXPECT_DOUBLE_EQ(eph.provision(376.0_GB).value(), 750.0);
    EXPECT_DOUBLE_EQ(eph.provision(1500.0_GB).value(), 1500.0);
}

TEST_F(StorageCatalogTest, EphSsdRejectsMoreThanFourVolumes) {
    const auto& eph = catalog.service(StorageTier::kEphemeralSsd);
    EXPECT_THROW((void)eph.provision(1501.0_GB), ValidationError);
    EXPECT_EQ(eph.max_capacity_per_vm()->value(), 1500.0);
}

TEST_F(StorageCatalogTest, EphSsdBandwidthScalesWithVolumes) {
    const auto& eph = catalog.service(StorageTier::kEphemeralSsd);
    EXPECT_DOUBLE_EQ(eph.performance(375.0_GB).read_bw.value(), 733.0);
    EXPECT_DOUBLE_EQ(eph.performance(750.0_GB).read_bw.value(), 2 * 733.0);
    EXPECT_DOUBLE_EQ(eph.performance(1500.0_GB).read_bw.value(), 4 * 733.0);
    EXPECT_DOUBLE_EQ(eph.performance(375.0_GB).iops.value(), 100000.0);
}

// --- persSSD / persHDD: Table 1 sample points reproduced exactly.

TEST_F(StorageCatalogTest, PersSsdMatchesTable1Samples) {
    const auto& s = catalog.service(StorageTier::kPersistentSsd);
    EXPECT_NEAR(s.performance(100.0_GB).read_bw.value(), 48.0, 1e-9);
    EXPECT_NEAR(s.performance(250.0_GB).read_bw.value(), 118.0, 1e-9);
    EXPECT_NEAR(s.performance(500.0_GB).read_bw.value(), 234.0, 1e-9);
    EXPECT_NEAR(s.performance(100.0_GB).iops.value(), 3000.0, 1e-9);
    EXPECT_NEAR(s.performance(250.0_GB).iops.value(), 7500.0, 1e-9);
    EXPECT_NEAR(s.performance(500.0_GB).iops.value(), 15000.0, 1e-9);
}

TEST_F(StorageCatalogTest, PersHddMatchesTable1Samples) {
    const auto& s = catalog.service(StorageTier::kPersistentHdd);
    EXPECT_NEAR(s.performance(100.0_GB).read_bw.value(), 20.0, 1e-9);
    EXPECT_NEAR(s.performance(250.0_GB).read_bw.value(), 45.0, 1e-9);
    EXPECT_NEAR(s.performance(500.0_GB).read_bw.value(), 97.0, 1e-9);
    EXPECT_NEAR(s.performance(500.0_GB).iops.value(), 750.0, 1e-9);
}

TEST_F(StorageCatalogTest, PersistentBandwidthMonotoneInCapacity) {
    for (StorageTier t : {StorageTier::kPersistentSsd, StorageTier::kPersistentHdd}) {
        const auto& s = catalog.service(t);
        double prev = 0.0;
        for (double c = 10.0; c <= 3000.0; c += 10.0) {
            const double bw = s.performance(GigaBytes{c}).read_bw.value();
            EXPECT_GE(bw, prev - 1e-9) << tier_name(t) << " at " << c;
            prev = bw;
        }
    }
}

TEST_F(StorageCatalogTest, PersistentBandwidthCeilingHolds) {
    const auto& ssd = catalog.service(StorageTier::kPersistentSsd);
    EXPECT_LE(ssd.performance(GigaBytes{10240.0}).read_bw.value(), 250.0 + 1e-9);
    const auto& hdd = catalog.service(StorageTier::kPersistentHdd);
    EXPECT_LE(hdd.performance(GigaBytes{10240.0}).read_bw.value(), 180.0 + 1e-9);
}

TEST_F(StorageCatalogTest, PersistentProvisionRoundsUpWholeGbWithFloor) {
    const auto& s = catalog.service(StorageTier::kPersistentSsd);
    EXPECT_DOUBLE_EQ(s.provision(0.5_GB).value(), 10.0);   // provider minimum
    EXPECT_DOUBLE_EQ(s.provision(99.2_GB).value(), 100.0); // whole GB
    EXPECT_DOUBLE_EQ(s.provision(500.0_GB).value(), 500.0);
}

TEST_F(StorageCatalogTest, PersistentVolumeLimitEnforced) {
    for (StorageTier t : {StorageTier::kPersistentSsd, StorageTier::kPersistentHdd}) {
        const auto& s = catalog.service(t);
        EXPECT_NO_THROW((void)s.provision(GigaBytes{10240.0}));
        EXPECT_THROW((void)s.provision(GigaBytes{10241.0}), ValidationError);
        EXPECT_DOUBLE_EQ(s.max_capacity_per_vm()->value(), 10240.0);
    }
}

// --- objStore: unlimited, flat performance, request overhead.

TEST_F(StorageCatalogTest, ObjectStoreIsUnlimitedAndFlat) {
    const auto& s = catalog.service(StorageTier::kObjectStore);
    EXPECT_FALSE(s.max_capacity_per_vm().has_value());
    EXPECT_DOUBLE_EQ(s.provision(GigaBytes{123456.0}).value(), 123456.0);
    EXPECT_DOUBLE_EQ(s.performance(1.0_GB).read_bw.value(), 265.0);
    EXPECT_DOUBLE_EQ(s.performance(GigaBytes{1e6}).read_bw.value(), 265.0);
    EXPECT_DOUBLE_EQ(s.performance(1.0_GB).iops.value(), 550.0);
}

TEST_F(StorageCatalogTest, OnlyObjectStoreHasRequestOverhead) {
    EXPECT_GT(catalog.service(StorageTier::kObjectStore).request_overhead().value(), 0.0);
    EXPECT_DOUBLE_EQ(catalog.service(StorageTier::kEphemeralSsd).request_overhead().value(),
                     0.0);
    EXPECT_DOUBLE_EQ(catalog.service(StorageTier::kPersistentSsd).request_overhead().value(),
                     0.0);
}

TEST_F(StorageCatalogTest, NegativeProvisionRejected) {
    for (StorageTier t : kAllTiers) {
        EXPECT_THROW((void)catalog.service(t).provision(GigaBytes{-1.0}), PreconditionError);
    }
}

// The provision() contract: non-decreasing, and refusing every request
// above one it refuses. Swept over both shipped catalogs, densely around every step
// top the sweep provisions and around each per-VM limit.
TEST(StorageProvisionContract, NonDecreasingWithUpwardClosedRefusals) {
    for (const StorageCatalog& catalog :
         {StorageCatalog::google_cloud(), StorageCatalog::aws_like()}) {
        for (const StorageTier t : kAllTiers) {
            const StorageService& svc = catalog.service(t);
            const double top = svc.max_capacity_per_vm().value_or(GigaBytes{1e6}).value();
            std::vector<double> points = {0.0, std::numeric_limits<double>::denorm_min(),
                                          1e-300, 1e-9, 0.5, 1.0};
            const auto around = [&](double x) {
                double lo = x;
                double hi = x;
                for (int k = 0; k < 3; ++k) {
                    lo = std::nextafter(lo, 0.0);
                    hi = std::nextafter(hi, std::numeric_limits<double>::infinity());
                    points.push_back(lo);
                    points.push_back(hi);
                }
                points.push_back(x);
            };
            for (double x = 0.0; x <= 1.5 * top; x += top / 997.0) {
                points.push_back(x);
                try {
                    around(svc.provision(GigaBytes{x}).value());
                } catch (const ValidationError&) {
                }
            }
            around(top);
            around(10.0);
            std::sort(points.begin(), points.end());
            double last = 0.0;
            bool refused = false;
            for (const double x : points) {
                try {
                    const double got = svc.provision(GigaBytes{x}).value();
                    EXPECT_FALSE(refused)
                        << catalog.name() << " " << tier_name(t) << " at " << x
                                          << " provisions after a smaller request was refused";
                    EXPECT_GE(got, last)
                        << catalog.name() << " " << tier_name(t) << " at " << x;
                    last = got;
                } catch (const ValidationError&) {
                    refused = true;
                }
            }
            EXPECT_EQ(refused, svc.max_capacity_per_vm().has_value()) << tier_name(t);
        }
    }
}

TEST_F(StorageCatalogTest, ConventionTiers) {
    EXPECT_EQ(catalog.backing_store(), StorageTier::kObjectStore);
    EXPECT_EQ(catalog.object_store_intermediate_tier(), StorageTier::kPersistentSsd);
}

}  // namespace
}  // namespace cast::cloud
