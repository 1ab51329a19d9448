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
//   * per-resource member lists are maintained incrementally (insert on
//     start_flow, erase on completion) and kept sorted by cap, so a step
//     re-water-fills only the resources it actually touched and never
//     re-sorts;
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

class FlowEngine {
public:
    FlowEngine() = default;

    /// Drop all resources, flows and pending events and rewind the clock to
    /// zero, keeping every buffer's capacity. A reset engine is
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

private:
    static constexpr std::uint32_t kInactive = std::numeric_limits<std::uint32_t>::max();

    struct Resource {
        double capacity_mbps;
        bool dirty;
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
    void insert_member(ResourceId res, FlowId id);
    void erase_member(ResourceId res, FlowId id);
    void recompute_rates();

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
    std::vector<std::size_t> candidates_;      // near-minimum positions, per scan
    std::vector<std::size_t> done_positions_;  // completed positions, per drain
    std::vector<FlowId> instantly_done_;
    std::vector<FlowId> completed_;
    std::vector<std::vector<FlowId>> per_resource_active_;
    std::vector<ResourceId> dirty_resources_;
    std::vector<CapacityEvent> events_;  // binary heap, earliest on top
    std::size_t applied_events_ = 0;
    std::uint64_t event_seq_ = 0;
    double now_ = 0.0;
};

}  // namespace cast::sim
