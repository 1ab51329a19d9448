// Cloud storage service catalog (paper Table 1).
//
// Encodes the four Google Cloud storage services CAST plans over, with the
// measured capacity/throughput/IOPS/price points of Table 1 (as of
// 2015-01-14) and the provider-side provisioning rules:
//   * ephSSD   - VM-local ephemeral SSD: fixed 375 GB volumes, at most 4 per
//                VM, not persistent (data dies with the VM).
//   * persSSD  - network-attached persistent SSD: throughput and IOPS scale
//                with provisioned volume capacity, up to 10,240 GB/volume.
//   * persHDD  - network-attached persistent HDD: same scaling shape, lower
//                absolute numbers and price.
//   * objStore - object storage: no capacity limit, cheapest per GB, flat
//                sequential throughput, high per-request overhead.
#pragma once

#include <algorithm>
#include <array>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "common/error.hpp"
#include "common/units.hpp"

namespace cast::cloud {

enum class StorageTier : int {
    kEphemeralSsd = 0,
    kPersistentSsd = 1,
    kPersistentHdd = 2,
    kObjectStore = 3,
};

inline constexpr std::array<StorageTier, 4> kAllTiers = {
    StorageTier::kEphemeralSsd,
    StorageTier::kPersistentSsd,
    StorageTier::kPersistentHdd,
    StorageTier::kObjectStore,
};

inline constexpr std::size_t kTierCount = kAllTiers.size();

[[nodiscard]] constexpr std::size_t tier_index(StorageTier t) {
    return static_cast<std::size_t>(t);
}

[[nodiscard]] std::string_view tier_name(StorageTier t);

/// Parse "ephSSD"/"persSSD"/"persHDD"/"objStore" (case-sensitive, the
/// paper's spelling). Returns nullopt for anything else.
[[nodiscard]] std::optional<StorageTier> tier_from_name(std::string_view name);

/// Aggregate performance a single VM gets from one tier at a given
/// provisioned per-VM capacity.
struct TierPerformance {
    MBytesPerSec read_bw;
    MBytesPerSec write_bw;
    Iops iops;
};

/// Static description + capacity-dependent performance of one service.
class StorageService {
public:
    StorageService(StorageTier tier, std::string description, bool persistent,
                   Dollars price_per_gb_month)
        : tier_(tier),
          description_(std::move(description)),
          persistent_(persistent),
          price_per_gb_month_(price_per_gb_month) {
        CAST_EXPECTS(price_per_gb_month.value() >= 0.0);
    }
    virtual ~StorageService() = default;

    [[nodiscard]] StorageTier tier() const { return tier_; }
    [[nodiscard]] const std::string& description() const { return description_; }

    /// False for ephSSD: data is lost when the VM terminates, so workloads
    /// need objStore as a backing store (paper §3.1.2, Fig. 1 caption).
    [[nodiscard]] bool persistent() const { return persistent_; }

    [[nodiscard]] Dollars price_per_gb_month() const { return price_per_gb_month_; }

    /// Storage is billed hourly in the paper's cost model (Eq. 6); a month
    /// is 730 hours (Google's convention).
    [[nodiscard]] Dollars price_per_gb_hour() const {
        return Dollars{price_per_gb_month_.value() / 730.0};
    }

    /// Round a requested per-VM capacity up to what the provider will
    /// actually provision (e.g. whole 375 GB ephSSD volumes). Throws
    /// ValidationError if the request exceeds the per-VM maximum.
    ///
    /// Contract: non-decreasing in `requested` (a <= b implies
    /// provision(a) <= provision(b)), and once a request throws, every
    /// larger request throws too: asking for more never provisions less.
    /// Custom services must keep both.
    [[nodiscard]] virtual GigaBytes provision(GigaBytes requested) const = 0;

    /// Largest capacity one VM can attach from this tier (nullopt when
    /// unlimited, i.e. objStore).
    [[nodiscard]] virtual std::optional<GigaBytes> max_capacity_per_vm() const = 0;

    /// Per-VM aggregate performance at a (provisioned) capacity.
    [[nodiscard]] virtual TierPerformance performance(GigaBytes provisioned) const = 0;

    /// Cluster-level aggregate bandwidth when `worker_count` VMs hit the
    /// service at once. Block devices are per-VM volumes, so they scale
    /// linearly; the object store is a shared, bucket-limited service and
    /// overrides this with its aggregate read/write ceilings.
    [[nodiscard]] virtual MBytesPerSec cluster_read_bw(GigaBytes provisioned_per_vm,
                                                       int worker_count) const {
        CAST_EXPECTS(worker_count >= 1);
        return MBytesPerSec{performance(provisioned_per_vm).read_bw.value() * worker_count};
    }
    [[nodiscard]] virtual MBytesPerSec cluster_write_bw(GigaBytes provisioned_per_vm,
                                                        int worker_count) const {
        CAST_EXPECTS(worker_count >= 1);
        return MBytesPerSec{performance(provisioned_per_vm).write_bw.value() * worker_count};
    }

    /// Fixed per-object request overhead (connection setup, HTTP round
    /// trips). Zero for block devices; substantial for objStore through the
    /// GCS connector — this is what sinks Join on objStore (Fig. 1b).
    [[nodiscard]] virtual Seconds request_overhead() const { return Seconds{0.0}; }

private:
    StorageTier tier_;
    std::string description_;
    bool persistent_;
    Dollars price_per_gb_month_;
};

/// Conventional persSSD volume (per VM) used as the intermediate store for
/// jobs placed on objStore (intermediate data cannot live in an object
/// store). The paper's testbed attaches a 100 GB volume (§3.1.1); when a
/// job's shuffle volume would not fit — or would bottleneck on such a small
/// volume — the convention grows it with 2x headroom over the job's
/// per-VM intermediate size. Shared by the model, the solvers and the
/// deployer so their cost/performance accounting agrees.
[[nodiscard]] inline GigaBytes object_store_intermediate_volume(GigaBytes job_intermediate,
                                                                int worker_count) {
    CAST_EXPECTS(worker_count >= 1);
    constexpr double kMinimumGb = 100.0;
    constexpr double kHeadroom = 2.0;
    return GigaBytes{
        std::max(kMinimumGb, kHeadroom * job_intermediate.value() / worker_count)};
}

/// The four-service catalog of Table 1.
class StorageCatalog {
public:
    /// Google Cloud catalog exactly as measured in Table 1.
    [[nodiscard]] static StorageCatalog google_cloud();

    /// An AWS-flavoured catalog with the same four service roles
    /// (instance-store SSD / EBS gp / EBS magnetic / S3), using 2015-era
    /// public price/performance points. The paper notes other providers
    /// "provide similar storage services with different performance-cost
    /// trade-offs" — this catalog demonstrates the planner is
    /// provider-agnostic. Note: EBS scales bandwidth by *striping* volumes
    /// (RAID-0), which this catalog models as capacity-proportional
    /// bandwidth like GCE's.
    [[nodiscard]] static StorageCatalog aws_like();

    /// Factory by name ("google-cloud" / "aws-like"); throws
    /// ValidationError for unknown names. Used by model-set serialization.
    [[nodiscard]] static StorageCatalog by_name(std::string_view name);

    /// Assemble a catalog from caller-provided services, one per tier (all
    /// four required). This is how tests and experiments model third-party
    /// or deliberately defective catalogs; the services' performance
    /// invariants are the caller's problem — lint_catalog is the checker.
    [[nodiscard]] static StorageCatalog custom(
        std::string name,
        std::array<std::shared_ptr<const StorageService>, kTierCount> services);

    /// The factory name this catalog was created under.
    [[nodiscard]] const std::string& name() const { return name_; }

    [[nodiscard]] const StorageService& service(StorageTier tier) const {
        const auto& ptr = services_[tier_index(tier)];
        CAST_ENSURES(ptr != nullptr);
        return *ptr;
    }

    /// Tier used to persist inputs/outputs of jobs placed on non-persistent
    /// tiers (objStore in the paper).
    [[nodiscard]] StorageTier backing_store() const { return StorageTier::kObjectStore; }

    /// Tier used for intermediate (shuffle) data of jobs whose primary data
    /// lives on objStore; the paper uses a 100 GB persSSD volume (§3.1.1).
    [[nodiscard]] StorageTier object_store_intermediate_tier() const {
        return StorageTier::kPersistentSsd;
    }

private:
    StorageCatalog() = default;
    std::string name_;
    std::array<std::shared_ptr<const StorageService>, kTierCount> services_{};
};

}  // namespace cast::cloud
