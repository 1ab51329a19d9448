// Discrete-event fair-share flow engine.
//
// The simulator models every I/O-bound activity as a *flow*: a demand (MB)
// draining through one shared resource (a VM's attached volume bandwidth,
// its object-store streaming allocation, ...) at a rate set by max-min fair
// sharing with per-flow rate caps (water-filling). CPU-bound work is a flow
// through an uncontended resource with the compute rate as its cap. The
// engine advances time event-by-event: at each step it water-fills every
// resource whose membership or capacity changed, finds the earliest flow
// completion, advances the clock, and retires finished flows. Slot-limited
// task scheduling sits on top in phase_runner.hpp.
//
// This processor-sharing treatment is what lets the simulator reproduce
// the paper's contention phenomena: tasks on a slow tier starving a mixed
// placement (Fig. 5), capacity-scaled volume bandwidth saturating (Fig. 2),
// and wave-level interference that the analytical model (Eq. 1) does not
// capture (the honest error of Fig. 8).
//
// Hot-path storage discipline (the batch engine runs millions of steps):
//   * every step touches every active flow twice (find the earliest
//     completion, drain), so the active set is a structure of arrays —
//     parallel id / remaining / rate / reciprocal-rate columns scanned two
//     flows per instruction (see flow_engine.cpp for the exactness
//     argument that keeps those scans bit-identical to scalar division);
//   * flows live in one arena vector whose capacity survives reset(), so a
//     reused engine allocates nothing in steady state;
//   * per-resource member lists (MemberList) hold (cap, id) pairs in
//     ascending (cap, id) order and are maintained incrementally, so a step
//     re-water-fills only the resources it touched and never re-sorts;
//   * the water-fill has three exact regimes (flow_engine.cpp): a pool
//     whose every member is provably capped writes the caps, a pool whose
//     lowest cap lies above every fair share copies a memoized fair-share
//     ladder, and only a mixed pool runs the cap-sorted division loop;
//   * capacity events sit in a binary heap (insertion-ordered for ties)
//     instead of a linearly re-sorted vector;
//   * advance() writes completions into a reused buffer and returns a
//     reference — no per-step allocation.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "common/error.hpp"
#include "common/units.hpp"

namespace cast::sim {

using ResourceId = std::size_t;
using FlowId = std::size_t;

/// One resource's active flows in ascending (cap, id) order. Flow ids grow
/// monotonically, so appending a flow after every member of equal cap (an
/// upper bound on cap) keeps ties in id order, and a member is found again
/// by binary search on the (cap, id) pair. Caps sit inline so neither
/// search touches the flow arena.
class MemberList {
public:
    struct Member {
        double cap;
        FlowId id;
    };

    void insert(FlowId id, double cap);
    /// Remove the member `id`, whose cap is `cap`; it must be present.
    void erase(FlowId id, double cap);
    void clear() { members_.clear(); }

    [[nodiscard]] bool empty() const { return members_.empty(); }
    [[nodiscard]] std::size_t size() const { return members_.size(); }
    [[nodiscard]] const Member& front() const { return members_.front(); }
    [[nodiscard]] const Member& back() const { return members_.back(); }
    [[nodiscard]] auto begin() const { return members_.begin(); }
    [[nodiscard]] auto end() const { return members_.end(); }

private:
    std::vector<Member> members_;
};

class FlowEngine {
public:
    FlowEngine() = default;

    /// Drop all resources, flows and pending events and rewind the clock to
    /// zero, keeping every buffer's capacity and the fair-share ladders
    /// (keyed by capacity, not resource id). A reset engine is
    /// indistinguishable from a freshly constructed one (bit-identical
    /// simulations), but re-running a same-shaped job allocates nothing.
    void reset();

    /// Register a shared resource with the given aggregate capacity (MB/s).
    ResourceId add_resource(MBytesPerSec capacity);

    [[nodiscard]] std::size_t resource_count() const { return resources_.size(); }

    /// Start a flow of `demand` MB through `res`, individually capped at
    /// `cap` MB/s (use an enormous cap for "share-limited only"). A flow
    /// with zero demand is born complete (it is still reported by the next
    /// advance() so sequencing logic stays uniform).
    FlowId start_flow(ResourceId res, double demand_mb, double cap_mbps);

    [[nodiscard]] bool flow_done(FlowId f) const {
        CAST_EXPECTS(f < flows_.size());
        return flows_[f].done;
    }

    /// Schedule a capacity change: at absolute engine time `at`, `res` will
    /// deliver `capacity` MB/s. Used by fault injection to model throttling
    /// episodes (schedule the cut at episode start and the restore at its
    /// end). Events never complete flows by themselves; advance() stops at
    /// each event boundary, re-water-fills, and continues to the next flow
    /// completion. Events in the past apply on the next advance().
    void schedule_capacity_change(ResourceId res, Seconds at, MBytesPerSec capacity);

    /// Capacity-change events that have fired so far (fault-log accounting).
    [[nodiscard]] std::size_t applied_capacity_events() const { return applied_events_; }

    [[nodiscard]] double resource_capacity(ResourceId res) const {
        CAST_EXPECTS(res < resources_.size());
        return resources_[res].capacity_mbps;
    }

    [[nodiscard]] Seconds now() const { return Seconds{now_}; }

    [[nodiscard]] std::size_t active_flow_count() const {
        return active_ids_.size() + instantly_done_.size();
    }

    /// Advance the clock to the next flow completion. Returns the ids of
    /// all flows that completed at the new time in ascending id order
    /// (empty iff no active flow). Zero-demand flows complete "now" without
    /// advancing the clock. The returned buffer is owned by the engine and
    /// overwritten by the next advance().
    const std::vector<FlowId>& advance();

    /// Current fair-share rate of a flow (after the last advance or an
    /// explicit recompute); a finished flow reports its final rate. Mainly
    /// for tests.
    [[nodiscard]] double flow_rate(FlowId f);

    /// Ceiling on the fair-share ladder store's data, per engine.
    static constexpr std::size_t kLadderBudgetBytes = std::size_t{128} << 10;

    /// Bytes held by the fair-share ladder store; never more than
    /// kLadderBudgetBytes. Mainly for tests.
    [[nodiscard]] std::size_t ladder_bytes() const { return ladders_.bytes(); }

private:
    static constexpr std::uint32_t kInactive = std::numeric_limits<std::uint32_t>::max();

    // Resource::ladders before the first lookup, and after a capacity event.
    static constexpr std::uint32_t kUnresolved = std::numeric_limits<std::uint32_t>::max();
    // Resource::ladders when the ladder store's budget is spent.
    static constexpr std::uint32_t kNoLadders = kUnresolved - 1;

    struct Resource {
        double capacity_mbps;
        std::uint32_t ladders;  // LadderStore set of this capacity
        bool dirty;
        // Every member runs at its cap, as the capped regime last wrote and
        // no change since undid; never set while dirty.
        bool capped;
    };

    /// Memoized fair-share ladders. The ladder of (capacity C, n members)
    /// is what the cap-sorted loop writes when none of the n members is
    /// capped: share_k = remaining / left with remaining starting at C,
    /// computed once with the loop's own operations in its order. Ladders
    /// are keyed by capacity bits, not resource id, so one ladder serves
    /// every resource of that capacity and survives reset(). A ladder's
    /// shares lie within a few ulps of each other, so each member's share
    /// is stored as one byte, its distance in ulps from the smallest share,
    /// which also indexes the ladder's table of reciprocals. The store
    /// stops growing at kLadderBudgetBytes of ladder data.
    class LadderStore {
    public:
        /// A ladder's view. `max_share` is NaN when the ladder cannot
        /// stand in for the loop (the budget is spent, a share is not a
        /// positive finite double, or the shares span more than 256 ulps).
        /// The pointers stay valid until the next get().
        struct Ladder {
            double max_share;
            std::uint64_t lo;             // bits of the smallest share
            const double* inv;            // reciprocal of the share lo + code
            const std::uint8_t* codes;    // one per member, in list order
        };

        /// The set of `capacity`, created on first use; kNoLadders once
        /// the budget is spent.
        [[nodiscard]] std::uint32_t set_of(double capacity);
        /// The ladder of `n` members in `set`, built on first use.
        [[nodiscard]] Ladder get(std::uint32_t set, std::size_t n);
        /// Bytes of ladder data held (the quantity the budget bounds).
        [[nodiscard]] std::size_t bytes() const { return bytes_; }

    private:
        static constexpr std::uint32_t kUnbuilt = std::numeric_limits<std::uint32_t>::max();

        struct Header {
            double max_share = 0.0;
            std::uint64_t lo = 0;
            std::uint32_t inv_base = kUnbuilt;
            std::uint32_t code_base = 0;
        };
        struct Set {
            double capacity;
            std::vector<Header> by_count;  // indexed by member count
        };

        [[nodiscard]] bool charge(std::size_t bytes);

        std::vector<Set> sets_;
        std::vector<double> invs_;
        std::vector<std::uint8_t> codes_;
        std::vector<double> shares_;  // build scratch
        std::size_t bytes_ = 0;
    };

    struct Flow {
        ResourceId res;
        double cap_mbps;
        double inv_cap;      // reciprocal(cap_mbps), reused by the water-fill
        double rate;         // final rate once done (active rates live in rate_)
        std::uint32_t pos;   // slot in the active columns, kInactive when not active
        bool done;
    };

    struct CapacityEvent {
        double at;
        std::uint64_t seq;  // insertion order breaks time ties
        ResourceId res;
        double capacity_mbps;
    };

    /// Max-heap comparator inverted into a min-heap on (at, seq):
    /// earliest event first, insertion order preserved for ties.
    struct EventLater {
        bool operator()(const CapacityEvent& a, const CapacityEvent& b) const {
            if (a.at != b.at) return a.at > b.at;
            return a.seq > b.seq;
        }
    };

    void pop_apply_event();
    void mark_dirty(ResourceId res);
    void recompute_rates();
    [[nodiscard]] bool fill_from_ladder(Resource& res, const MemberList& members);

    void activate(FlowId id, double demand_mb);
    void deactivate(std::size_t pos);
    void pad_columns();
    [[nodiscard]] double earliest_completion_dt();
    void drain_and_collect(double dt);

    std::vector<Resource> resources_;
    std::vector<Flow> flows_;
    // The active set, one column per field, position-indexed. The double
    // columns are padded to whole scan blocks with inert slots (infinite
    // remaining, zero rate) so the scans need no scalar tail.
    std::vector<FlowId> active_ids_;
    std::vector<double> remaining_;
    std::vector<double> rate_;
    std::vector<double> inv_rate_;
    // Near-minimum positions of the last scan: the first candidate_count_
    // entries of a buffer that only grows.
    std::vector<std::size_t> candidates_;
    std::size_t candidate_count_ = 0;
    std::vector<FlowId> instantly_done_;
    std::vector<FlowId> completed_;
    std::vector<MemberList> per_resource_active_;
    LadderStore ladders_;
    std::vector<ResourceId> dirty_resources_;
    std::vector<CapacityEvent> events_;  // binary heap, earliest on top
    std::size_t applied_events_ = 0;
    std::uint64_t event_seq_ = 0;
    double now_ = 0.0;
};

}  // namespace cast::sim
