// Test-only oracle: the scalar array-of-structs flow engine that preceded
// the structure-of-arrays engine in sim/flow_engine.hpp, kept verbatim
// (renamed) so the differential test can bit-compare the two on random
// scenarios. Each step walks the id-ordered active list, divides every
// flow's remaining demand by its rate to find the next completion, and
// drains with an order-preserving compaction.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/error.hpp"
#include "common/units.hpp"
#include "sim/flow_engine.hpp"

namespace cast::sim::testing {

class ReferenceFlowEngine {
public:
    ReferenceFlowEngine() = default;

    /// Drop all resources, flows and pending events and rewind the clock to
    /// zero, keeping every buffer's capacity. A reset engine is
    /// indistinguishable from a freshly constructed one (bit-identical
    /// simulations), but re-running a same-shaped job allocates nothing.
    void reset() {
        resources_.clear();
        flows_.clear();
        active_.clear();
        instantly_done_.clear();
        completed_.clear();
        for (auto& v : per_resource_active_) v.clear();
        // per_resource_active_ itself keeps its slots (and their inner
        // capacity); add_resource reuses them index-by-index.
        events_.clear();
        applied_events_ = 0;
        event_seq_ = 0;
        dirty_resources_.clear();
        now_ = 0.0;
    }

    /// Register a shared resource with the given aggregate capacity (MB/s).
    ResourceId add_resource(MBytesPerSec capacity) {
        CAST_EXPECTS_MSG(capacity.value() > 0.0, "resource capacity must be positive");
        resources_.push_back(Resource{capacity.value(), /*dirty=*/false});
        if (per_resource_active_.size() < resources_.size()) {
            per_resource_active_.emplace_back();
        }
        return resources_.size() - 1;
    }

    [[nodiscard]] std::size_t resource_count() const { return resources_.size(); }

    /// Start a flow of `demand` MB through `res`, individually capped at
    /// `cap` MB/s (use an enormous cap for "share-limited only"). A flow
    /// with zero demand is born complete (it is still reported by the next
    /// advance() so sequencing logic stays uniform).
    FlowId start_flow(ResourceId res, double demand_mb, double cap_mbps) {
        CAST_EXPECTS(res < resources_.size());
        CAST_EXPECTS_MSG(demand_mb >= 0.0, "flow demand must be non-negative");
        CAST_EXPECTS_MSG(cap_mbps > 0.0, "flow cap must be positive");
        const FlowId id = flows_.size();
        flows_.push_back(Flow{res, demand_mb, cap_mbps, /*rate=*/0.0,
                              /*done=*/false});
        if (demand_mb <= kCompletionEpsilonMb) {
            flows_.back().remaining_mb = 0.0;
            instantly_done_.push_back(id);
        } else {
            active_.push_back(id);
            insert_member(res, id);
            mark_dirty(res);
        }
        return id;
    }

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
    void schedule_capacity_change(ResourceId res, Seconds at, MBytesPerSec capacity) {
        CAST_EXPECTS(res < resources_.size());
        CAST_EXPECTS_MSG(capacity.value() > 0.0, "throttled capacity must stay positive");
        events_.push_back(CapacityEvent{at.value(), event_seq_++, res, capacity.value()});
        std::push_heap(events_.begin(), events_.end(), EventLater{});
    }

    /// Capacity-change events that have fired so far (fault-log accounting).
    [[nodiscard]] std::size_t applied_capacity_events() const { return applied_events_; }

    [[nodiscard]] double resource_capacity(ResourceId res) const {
        CAST_EXPECTS(res < resources_.size());
        return resources_[res].capacity_mbps;
    }

    [[nodiscard]] Seconds now() const { return Seconds{now_}; }

    [[nodiscard]] std::size_t active_flow_count() const {
        return active_.size() + instantly_done_.size();
    }

    /// Advance the clock to the next flow completion. Returns the ids of
    /// all flows that completed at the new time (empty iff no active flow).
    /// Zero-demand flows complete "now" without advancing the clock. The
    /// returned buffer is owned by the engine and overwritten by the next
    /// advance().
    const std::vector<FlowId>& advance() {
        completed_.clear();
        if (!instantly_done_.empty()) {
            completed_.swap(instantly_done_);
            for (FlowId f : completed_) flows_[f].done = true;
            return completed_;
        }
        if (active_.empty()) return completed_;
        while (completed_.empty()) {
            // Apply any capacity events that are due (at or before now).
            while (!events_.empty() && events_.front().at <= now_) {
                pop_apply_event();
            }
            recompute_rates();
            double min_dt = std::numeric_limits<double>::infinity();
            for (FlowId i : active_) {
                const Flow& f = flows_[i];
                CAST_ENSURES_MSG(f.rate > 0.0, "active flow has zero rate");
                min_dt = std::min(min_dt, f.remaining_mb / f.rate);
            }
            // Stop at the next capacity event if it arrives strictly before
            // the earliest completion: drain flows partially, re-share, go
            // around again. (Ties favour the completion; the event then
            // fires at the top of the next iteration or call.)
            if (!events_.empty()) {
                const double ev_dt = events_.front().at - now_;
                if (ev_dt < min_dt) {
                    now_ += ev_dt;
                    for (FlowId id : active_) {
                        Flow& f = flows_[id];
                        f.remaining_mb = std::max(0.0, f.remaining_mb - f.rate * ev_dt);
                    }
                    pop_apply_event();
                    continue;
                }
            }
            now_ += min_dt;
            std::size_t keep = 0;
            for (std::size_t k = 0; k < active_.size(); ++k) {
                const FlowId id = active_[k];
                Flow& f = flows_[id];
                f.remaining_mb -= f.rate * min_dt;
                if (f.remaining_mb <= kCompletionEpsilonMb) {
                    f.remaining_mb = 0.0;
                    f.done = true;
                    completed_.push_back(id);
                    erase_member(f.res, id);
                    mark_dirty(f.res);
                } else {
                    active_[keep++] = id;
                }
            }
            active_.resize(keep);
            CAST_ENSURES_MSG(!completed_.empty(), "time advanced without completing a flow");
        }
        return completed_;
    }

    /// Current fair-share rate of an active flow (after the last advance or
    /// an explicit recompute). Mainly for tests.
    [[nodiscard]] double flow_rate(FlowId f) {
        CAST_EXPECTS(f < flows_.size());
        recompute_rates();
        return flows_[f].rate;
    }

private:
    // Demands below a micro-MB count as complete; guards against float dust
    // keeping the loop alive.
    static constexpr double kCompletionEpsilonMb = 1e-9;

    struct Resource {
        double capacity_mbps;
        bool dirty;
    };

    struct Flow {
        ResourceId res;
        double remaining_mb;
        double cap_mbps;
        double rate;
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

    void pop_apply_event() {
        const CapacityEvent ev = events_.front();
        std::pop_heap(events_.begin(), events_.end(), EventLater{});
        events_.pop_back();
        ++applied_events_;
        resources_[ev.res].capacity_mbps = ev.capacity_mbps;
        mark_dirty(ev.res);
    }

    void mark_dirty(ResourceId res) {
        if (resources_[res].dirty) return;
        resources_[res].dirty = true;
        dirty_resources_.push_back(res);
    }

    /// Keep the resource's member list sorted ascending by cap (ties keep
    /// insertion order, matching the stable behaviour the water-fill needs).
    void insert_member(ResourceId res, FlowId id) {
        auto& ids = per_resource_active_[res];
        const double cap = flows_[id].cap_mbps;
        auto it = std::upper_bound(ids.begin(), ids.end(), cap,
                                   [this](double c, FlowId f) { return c < flows_[f].cap_mbps; });
        ids.insert(it, id);
    }

    void erase_member(ResourceId res, FlowId id) {
        auto& ids = per_resource_active_[res];
        ids.erase(std::find(ids.begin(), ids.end(), id));
    }

    /// Max-min fair allocation with per-flow caps (water-filling),
    /// recomputed only for resources whose membership or capacity changed:
    /// repeatedly give every unfrozen flow an equal share; flows whose cap
    /// is below the share freeze at their cap and return the surplus to the
    /// pool. The member lists stay cap-sorted, so one pass suffices.
    void recompute_rates() {
        for (ResourceId r : dirty_resources_) {
            resources_[r].dirty = false;
            const auto& ids = per_resource_active_[r];
            if (ids.empty()) continue;
            double remaining = resources_[r].capacity_mbps;
            std::size_t left = ids.size();
            for (FlowId id : ids) {
                const double share = remaining / static_cast<double>(left);
                const double rate = std::min(flows_[id].cap_mbps, share);
                flows_[id].rate = rate;
                remaining -= rate;
                --left;
            }
        }
        dirty_resources_.clear();
    }

    std::vector<Resource> resources_;
    std::vector<Flow> flows_;
    std::vector<FlowId> active_;
    std::vector<FlowId> instantly_done_;
    std::vector<FlowId> completed_;
    std::vector<std::vector<FlowId>> per_resource_active_;
    std::vector<ResourceId> dirty_resources_;
    std::vector<CapacityEvent> events_;  // binary heap, earliest on top
    std::size_t applied_events_ = 0;
    std::uint64_t event_seq_ = 0;
    double now_ = 0.0;
};

}  // namespace cast::sim::testing
