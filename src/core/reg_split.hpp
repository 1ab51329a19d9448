// REG split at the line the model draws: how the SoA core
// (core/soa_eval.hpp) scores both annealers' candidates, batch and
// workflow, each under its own staging-leg convention.
//
// PerfModelSet::job_runtime computes, for a job on a tier provisioned at a
// per-VM capacity,
//
//   base × scale (+ in_mb / download_rate) (+ out_mb / upload_rate)
//
// and a workflow's cross-tier hop moves a producer's output at
// min(source read bandwidth, sink write bandwidth). RegSplit precomputes,
// once per (job, tier) at construction and through the same model calls,
// everything that does not depend on capacity: the Eq. 1 base, the scale
// of models keyed on the job's intermediate volume (the paper's objStore
// models), and the MB of the staging legs the placement pays (0 = no leg:
// estimate_staging's zero-volume leg adds +0.0, which leaves a positive
// runtime's bits alone). What depends on (tier, per-VM capacity) — the
// spline scale of each capacity-scaled app, the staging rates and, for
// workflows, the cluster read/write bandwidths — lives in a RegMemo that
// each chain owns: a few direct-mapped slots per tier, keyed by the
// capacity's bits, each factor computed on first use at that capacity
// (so exactly when the model call it replaces would compute it). No table,
// no lock, no atomics.
//
// The kernels repeat PerfModelSet::job_runtime's and
// WorkflowEvaluator::transfer_time's floating-point operations in their
// order, so every result bit-equals the model call it replaces, errors
// included (tests/core/soa_reg_kernel_test.cpp,
// workflow_reg_kernel_test.cpp).
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "cloud/storage.hpp"
#include "common/error.hpp"
#include "model/profiler.hpp"
#include "workload/application.hpp"
#include "workload/job.hpp"

namespace cast::core {

class RegSplit;

/// Chain-private memo of REG's (tier, per-VM capacity)-keyed factors for
/// one RegSplit. Plain data; the split fills and reads it.
class RegMemo {
public:
    /// Direct-mapped slots per tier. A workflow move shifts its tier's
    /// per-VM capacity on almost every candidate and a rejected move
    /// shifts it back: on the Fig. 9 workflows one slot per tier computes
    /// about 5.3 factors per candidate, eight slots about 3.8.
    static constexpr std::size_t kSlots = 8;

    /// The slot a per-VM capacity maps to: a multiplicative hash of its
    /// bits (whole-GB capacities differ only in their high bits).
    [[nodiscard]] static std::size_t slot_of(double per_vm) {
        return static_cast<std::size_t>((std::bit_cast<std::uint64_t>(per_vm) *
                                         0x9E3779B97F4A7C15ull) >>
                                        (64 - std::countr_zero(kSlots)));
    }

    /// Times a slot was re-keyed to a new capacity (misses), over the
    /// memo's lifetime.
    [[nodiscard]] std::uint64_t refreshes() const { return refreshes_; }

private:
    friend class RegSplit;

    /// Factors of one slot: the spline scale per app (indexed by
    /// workload::app_index), then the staging and transfer rates.
    static constexpr std::size_t kDownload = workload::kAllApps.size();
    static constexpr std::size_t kUpload = kDownload + 1;
    static constexpr std::size_t kRead = kDownload + 2;
    static constexpr std::size_t kWrite = kDownload + 3;
    static constexpr std::size_t kFactors = kDownload + 4;

    /// One capacity's factors, each computed on first use.
    struct Slot {
        std::uint64_t capacity_bits = 0;
        /// Bit per factor computed at `capacity_bits` (0: slot empty).
        std::uint32_t filled = 0;
        std::array<double, kFactors> factor{};
    };

    /// Id of the split the slots were filled for (0: none).
    std::uint64_t owner_ = 0;
    std::uint64_t refreshes_ = 0;
    std::array<std::array<Slot, kSlots>, cloud::kTierCount> slots_{};
};

/// REG's capacity-free half for one job list, plus the kernels that finish
/// it from a RegMemo. Immutable after construction; thread-safe. Tiers are
/// passed as cloud::tier_index values and capacities as raw GB doubles.
class RegSplit {
public:
    /// Staging legs job `job` pays when placed on `tier` (ignored on
    /// objStore, as PerfModelSet::job_runtime ignores them there).
    using LegsFn = std::function<model::StagingLegs(std::size_t job, cloud::StorageTier tier)>;

    RegSplit(const model::PerfModelSet& models, std::span<const workload::JobSpec> jobs,
             const LegsFn& legs);

    /// Point `memo` at this split, emptying it when it was filled for
    /// another one. Call before a memo's first use with this split.
    void bind(RegMemo& memo) const {
        if (memo.owner_ == id_) return;
        memo.slots_ = {};
        memo.owner_ = id_;
    }

    /// PerfModelSet::job_runtime(job, tier, per_vm, legs(job, tier)), bit
    /// for bit. An unprofiled (app, tier) pair raises the model set's
    /// PreconditionError.
    [[nodiscard]] double runtime(std::size_t job, std::size_t tier, double per_vm,
                                 RegMemo& memo) const {
        const Terms& terms = terms_[job * cloud::kTierCount + tier];
        if (!terms.modeled) {
            (void)models_->tier_model(workload::kAllApps[terms.app], cloud::kAllTiers[tier]);
        }
        const bool download = terms.download_mb > 0.0;
        const bool upload = terms.upload_mb > 0.0;
        if (!terms.capacity_scaled && !download && !upload) return terms.base * terms.scale;
        RegMemo::Slot& slot = memo_slot(tier, per_vm, memo);
        // PerfModelSet::job_runtime's operations, in its order.
        double t = terms.base *
                   (terms.capacity_scaled ? factor(slot, terms.app, tier, per_vm) : terms.scale);
        if (download) t += terms.download_mb / factor(slot, RegMemo::kDownload, tier, per_vm);
        if (upload) t += terms.upload_mb / factor(slot, RegMemo::kUpload, tier, per_vm);
        return t;
    }

    /// WorkflowEvaluator::transfer_time(GigaBytes{volume_gb}, from,
    /// from_per_vm, to, to_per_vm), bit for bit.
    [[nodiscard]] double transfer_time(double volume_gb, std::size_t from, double from_per_vm,
                                       std::size_t to, double to_per_vm, RegMemo& memo) const {
        if (volume_gb <= 0.0 || from == to) return 0.0;
        const double read =
            factor(memo_slot(from, from_per_vm, memo), RegMemo::kRead, from, from_per_vm);
        const double write =
            factor(memo_slot(to, to_per_vm, memo), RegMemo::kWrite, to, to_per_vm);
        const double cluster_mbps = std::min(read, write);
        CAST_ENSURES(cluster_mbps > 0.0);
        return GigaBytes{volume_gb}.megabytes() / cluster_mbps;
    }

    /// False when no job's runtime on `tier` moves with the tier's per-VM
    /// capacity (no capacity-scaled model, no staging leg): runtimes there
    /// survive any capacity shift.
    [[nodiscard]] bool capacity_sensitive(std::size_t tier) const {
        return capacity_sensitive_[tier];
    }

private:
    /// Everything of PerfModelSet::job_runtime for one (job, tier) that
    /// does not depend on capacity.
    struct Terms {
        /// Eq. 1 estimate (model::estimate).
        double base = 0.0;
        /// Scale of a model keyed on the job's intermediate volume; unused
        /// when `capacity_scaled`.
        double scale = 0.0;
        /// Staging volumes (MB) of the legs this placement pays; 0 for a
        /// leg it does not pay.
        double download_mb = 0.0;
        double upload_mb = 0.0;
        std::uint8_t app = 0;
        /// False when no model is profiled for this (app, tier) pair.
        bool modeled = false;
        /// True when the scale is the spline at the tier's per-VM capacity.
        bool capacity_scaled = false;
    };

    /// Tier `tier`'s memo slot for `per_vm`, emptied and re-keyed on a
    /// miss.
    static RegMemo::Slot& memo_slot(std::size_t tier, double per_vm, RegMemo& memo) {
        const std::uint64_t bits = std::bit_cast<std::uint64_t>(per_vm);
        RegMemo::Slot& slot = memo.slots_[tier][RegMemo::slot_of(per_vm)];
        if (slot.filled == 0 || slot.capacity_bits != bits) {
            slot.capacity_bits = bits;
            slot.filled = 0;
            ++memo.refreshes_;
        }
        return slot;
    }
    /// Factor `which` of `slot`, computed on first use: each factor is
    /// derived only when the model call it replaces would derive it.
    double factor(RegMemo::Slot& slot, std::size_t which, std::size_t tier,
                  double per_vm) const {
        if ((slot.filled & (1u << which)) == 0) {
            slot.factor[which] = compute_factor(which, tier, per_vm);
            slot.filled |= 1u << which;
        }
        return slot.factor[which];
    }
    [[nodiscard]] double compute_factor(std::size_t which, std::size_t tier,
                                        double per_vm) const;

    const model::PerfModelSet* models_;
    /// Distinct per constructed split, so a memo never serves another's.
    std::uint64_t id_;
    /// Row-major by job.
    std::vector<Terms> terms_;
    std::array<bool, cloud::kTierCount> capacity_sensitive_{};
};

}  // namespace cast::core
