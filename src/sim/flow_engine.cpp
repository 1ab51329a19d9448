// FlowEngine hot path: the structure-of-arrays active set and its scans.
//
// Every step must give every flow the same `remaining -= rate * dt`
// roundings the scalar engine gave it, so no lazy or virtual-time scheme
// can be bit-identical; what moves is the constant factor. The per-flow
// scans run over position-indexed columns four flows at a time (GCC/Clang
// vector extensions: SSE2 on x86-64, plain scalar code where the target
// has no vector unit — one source either way). Notation: u = 2^-53 is the
// unit roundoff, ε = DBL_EPSILON = 2u, RN() is round-to-nearest.
//
//   * Earliest completion. The exact answer is min_k RN(rem_k / rate_k).
//     With inv_k = RN(1 / rate_k) written by the water-fill, the product
//     q_k = RN(rem_k * inv_k) stays within ~3u of the correctly rounded
//     quotient on either side, so every flow whose quotient could be the
//     minimum has q_k <= bound = qmin * (1 + 16ε). One vector pass finds
//     qmin and records the few flows within the bound; only they pay the
//     IEEE division, so the result bit-equals the all-division minimum.
//     The argument needs normal numbers: a rate whose reciprocal is not
//     normal stores inv = 0 (so q = 0), and a qmin below 2 * DBL_MIN makes
//     every flow a candidate.
//   * Drain. r = rem - rate * dt is the same elementwise IEEE operation
//     pair as the scalar loop. A flow the drain takes to the completion
//     epsilon ε_c or below had rem - ε_c (1 + ε) <= rate * dt (1 + u); the
//     pass tests e_k = RN(RN(rem_k - ε_c') * inv_k) <= q_k with
//     ε_c' >= ε_c (1 + ε), which puts every such flow within the bound too.
//     So completions are looked for among the recorded candidates only.
//
// Removal swaps the last active flow into the hole, so positions carry no
// order. The scalar engine's active list was always ascending in id (ids
// are appended in increasing order, compaction kept order), so sorting the
// handful of ids completed in one step reproduces its completion order;
// the minimum and the drain do not depend on order at all.
#include "sim/flow_engine.hpp"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstring>

namespace cast::sim {

namespace {

// Demands below a micro-MB count as complete; guards against float dust
// keeping the loop alive.
constexpr double kCompletionEpsilonMb = 1e-9;

constexpr double kInf = std::numeric_limits<double>::infinity();

// Candidate slack of the reciprocal pre-ordering: the minimum and every
// completing flow lie within ~7u of qmin; 16ε = 32u leaves a wide margin.
constexpr double kSlack = 1.0 + 16.0 * DBL_EPSILON;
constexpr double kNormalFloor = 2.0 * DBL_MIN;
// ε_c' of the completion argument above: RN(ε_c (1 + 2ε)) >= ε_c (1 + ε).
constexpr double kCompletionSlackMb = kCompletionEpsilonMb * (1.0 + 2.0 * DBL_EPSILON);

/// 1/x when that is a normal double; otherwise 0, which sends the scan to
/// its every-flow-is-a-candidate fallback (q = 0 is below the floor).
double reciprocal(double x) {
    const double inv = 1.0 / x;
    return std::isnormal(inv) ? inv : 0.0;
}

using Vec2 = double __attribute__((vector_size(16)));

// Flows per scan iteration: two Vec2, so each pass carries two independent
// vector chains. The columns are padded to a multiple of this.
constexpr std::size_t kBlock = 4;

Vec2 load2(const double* p) {
    Vec2 v;
    std::memcpy(&v, p, sizeof v);
    return v;
}

void store2(double* p, Vec2 v) { std::memcpy(p, &v, sizeof v); }

Vec2 splat2(double x) { return Vec2{x, x}; }

/// True when every lane of a Vec2 compare mask is set.
template <class Mask>
bool all(Mask m) {
    std::uint64_t lanes[2];
    std::memcpy(lanes, &m, sizeof lanes);
    return (lanes[0] & lanes[1]) != 0;
}

}  // namespace

void FlowEngine::reset() {
    resources_.clear();
    flows_.clear();
    active_ids_.clear();
    remaining_.clear();
    rate_.clear();
    inv_rate_.clear();
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

ResourceId FlowEngine::add_resource(MBytesPerSec capacity) {
    CAST_EXPECTS_MSG(capacity.value() > 0.0, "resource capacity must be positive");
    resources_.push_back(Resource{capacity.value(), /*dirty=*/false});
    if (per_resource_active_.size() < resources_.size()) {
        per_resource_active_.emplace_back();
    }
    return resources_.size() - 1;
}

FlowId FlowEngine::start_flow(ResourceId res, double demand_mb, double cap_mbps) {
    CAST_EXPECTS(res < resources_.size());
    CAST_EXPECTS_MSG(demand_mb >= 0.0, "flow demand must be non-negative");
    CAST_EXPECTS_MSG(cap_mbps > 0.0, "flow cap must be positive");
    const FlowId id = flows_.size();
    flows_.push_back(
        Flow{res, cap_mbps, reciprocal(cap_mbps), /*rate=*/0.0, kInactive, /*done=*/false});
    if (demand_mb <= kCompletionEpsilonMb) {
        instantly_done_.push_back(id);
    } else {
        activate(id, demand_mb);
        insert_member(res, id);
        mark_dirty(res);
    }
    return id;
}

void FlowEngine::schedule_capacity_change(ResourceId res, Seconds at,
                                          MBytesPerSec capacity) {
    CAST_EXPECTS(res < resources_.size());
    CAST_EXPECTS_MSG(capacity.value() > 0.0, "throttled capacity must stay positive");
    events_.push_back(CapacityEvent{at.value(), event_seq_++, res, capacity.value()});
    std::push_heap(events_.begin(), events_.end(), EventLater{});
}

const std::vector<FlowId>& FlowEngine::advance() {
    completed_.clear();
    if (!instantly_done_.empty()) {
        completed_.swap(instantly_done_);
        for (FlowId f : completed_) flows_[f].done = true;
        return completed_;
    }
    if (active_ids_.empty()) return completed_;
    while (completed_.empty()) {
        // Apply any capacity events that are due (at or before now).
        while (!events_.empty() && events_.front().at <= now_) {
            pop_apply_event();
        }
        recompute_rates();
        const double min_dt = earliest_completion_dt();
        // Stop at the next capacity event if it arrives strictly before
        // the earliest completion: drain flows partially, re-share, go
        // around again. (Ties favour the completion; the event then
        // fires at the top of the next iteration or call.)
        if (!events_.empty()) {
            const double ev_dt = events_.front().at - now_;
            if (ev_dt < min_dt) {
                now_ += ev_dt;
                for (std::size_t k = 0; k < active_ids_.size(); ++k) {
                    remaining_[k] = std::max(0.0, remaining_[k] - rate_[k] * ev_dt);
                }
                pop_apply_event();
                continue;
            }
        }
        now_ += min_dt;
        drain_and_collect(min_dt);
        CAST_ENSURES_MSG(!completed_.empty(), "time advanced without completing a flow");
    }
    return completed_;
}

double FlowEngine::flow_rate(FlowId f) {
    CAST_EXPECTS(f < flows_.size());
    recompute_rates();
    const Flow& flow = flows_[f];
    return flow.pos == kInactive ? flow.rate : rate_[flow.pos];
}

double FlowEngine::earliest_completion_dt() {
    // Column pointers are hoisted into locals so the compiler need not
    // reload them around the candidate pushes.
    const std::size_t n = active_ids_.size();
    const std::size_t padded = remaining_.size();
    const double* rem = remaining_.data();
    const double* rate = rate_.data();
    const double* inv = inv_rate_.data();

    // Approximate pass over e = (rem - ε') * inv <= q. A block whose four
    // e all lie above the running bound holds neither the minimum nor a
    // flow that can complete this step, and is skipped; otherwise its
    // lanes within the bound are recorded and their q lowers the running
    // minimum. The bound only shrinks, so every flow within the final
    // bound was recorded, in ascending position order. The lane loop is
    // branch-free: the block branch is the only one that mispredicts.
    candidates_.resize(padded);
    std::size_t* cand = candidates_.data();
    std::size_t count = 0;
    double qmin = kInf;
    double bound = kInf;
    Vec2 bound2 = splat2(bound);
    const Vec2 eps2 = splat2(kCompletionSlackMb);
    for (std::size_t k = 0; k < padded; k += kBlock) {
        const Vec2 e0 = (load2(rem + k) - eps2) * load2(inv + k);
        const Vec2 e1 = (load2(rem + k + 2) - eps2) * load2(inv + k + 2);
        if (all((e0 < e1 ? e0 : e1) > bound2)) continue;
        for (std::size_t j = k; j < k + kBlock; ++j) {
            const bool within = !((rem[j] - kCompletionSlackMb) * inv[j] > bound);
            cand[count] = j;
            count += static_cast<std::size_t>(within && j < n);
            qmin = std::min(qmin, rem[j] * inv[j]);  // a pad's q is +inf
            bound = qmin * kSlack;
        }
        bound2 = splat2(bound);
    }
    candidates_.resize(count);
    if (qmin < kNormalFloor) {
        // Outside the error argument's range (or a rate without a normal
        // reciprocal, whose q is 0): every flow is a candidate.
        candidates_.resize(n);
        for (std::size_t j = 0; j < n; ++j) candidates_[j] = j;
        bound = kInf;
    }

    // Exact pass: the IEEE division, only for flows within the final bound.
    double min_dt = kInf;
    for (std::size_t j : candidates_) {
        if (!(rem[j] * inv[j] > bound)) min_dt = std::min(min_dt, rem[j] / rate[j]);
    }
    return min_dt;
}

void FlowEngine::drain_and_collect(double dt) {
    const std::size_t padded = remaining_.size();
    double* rem = remaining_.data();
    const double* rate = rate_.data();
    const Vec2 dt2 = splat2(dt);
    for (std::size_t k = 0; k < padded; k += kBlock) {
        store2(rem + k, load2(rem + k) - load2(rate + k) * dt2);
        store2(rem + k + 2, load2(rem + k + 2) - load2(rate + k + 2) * dt2);
    }
    // Only a candidate of the scan that chose dt can have drained down to
    // the completion epsilon.
    done_positions_.resize(candidates_.size());
    std::size_t done = 0;
    for (std::size_t j : candidates_) {
        done_positions_[done] = j;
        done += static_cast<std::size_t>(rem[j] <= kCompletionEpsilonMb);
    }
    done_positions_.resize(done);
    for (std::size_t pos : done_positions_) {
        const FlowId id = active_ids_[pos];
        Flow& f = flows_[id];
        f.done = true;
        f.rate = rate_[pos];
        completed_.push_back(id);
        erase_member(f.res, id);
        mark_dirty(f.res);
    }
    // Descending positions: each swap pulls in a flow from beyond every
    // position still to be removed, so pending positions stay valid.
    for (auto it = done_positions_.rbegin(); it != done_positions_.rend(); ++it) {
        deactivate(*it);
    }
    pad_columns();
    std::sort(completed_.begin(), completed_.end());
}

void FlowEngine::activate(FlowId id, double demand_mb) {
    const std::size_t pos = active_ids_.size();
    flows_[id].pos = static_cast<std::uint32_t>(pos);
    active_ids_.push_back(id);
    pad_columns();
    remaining_[pos] = demand_mb;
    rate_[pos] = 0.0;      // the water-fill assigns both before any scan
    inv_rate_[pos] = 0.0;
}

void FlowEngine::deactivate(std::size_t pos) {
    const std::size_t last = active_ids_.size() - 1;
    flows_[active_ids_[pos]].pos = kInactive;
    if (pos != last) {
        const FlowId moved = active_ids_[last];
        active_ids_[pos] = moved;
        remaining_[pos] = remaining_[last];
        rate_[pos] = rate_[last];
        inv_rate_[pos] = inv_rate_[last];
        flows_[moved].pos = static_cast<std::uint32_t>(pos);
    }
    active_ids_.pop_back();
}

void FlowEngine::pad_columns() {
    const std::size_t n = active_ids_.size();
    const std::size_t padded = (n + kBlock - 1) / kBlock * kBlock;
    remaining_.resize(padded);
    rate_.resize(padded);
    inv_rate_.resize(padded);
    for (std::size_t k = n; k < padded; ++k) {
        // Inert pad: never the minimum, never drained to completion.
        remaining_[k] = kInf;
        rate_[k] = 0.0;
        inv_rate_[k] = 1.0;
    }
}

void FlowEngine::pop_apply_event() {
    const CapacityEvent ev = events_.front();
    std::pop_heap(events_.begin(), events_.end(), EventLater{});
    events_.pop_back();
    ++applied_events_;
    resources_[ev.res].capacity_mbps = ev.capacity_mbps;
    mark_dirty(ev.res);
}

void FlowEngine::mark_dirty(ResourceId res) {
    if (resources_[res].dirty) return;
    resources_[res].dirty = true;
    dirty_resources_.push_back(res);
}

/// Keep the resource's member list sorted ascending by cap (ties keep
/// insertion order, matching the stable behaviour the water-fill needs).
void FlowEngine::insert_member(ResourceId res, FlowId id) {
    auto& ids = per_resource_active_[res];
    const double cap = flows_[id].cap_mbps;
    auto it = std::upper_bound(ids.begin(), ids.end(), cap,
                               [this](double c, FlowId f) { return c < flows_[f].cap_mbps; });
    ids.insert(it, id);
}

void FlowEngine::erase_member(ResourceId res, FlowId id) {
    auto& ids = per_resource_active_[res];
    ids.erase(std::find(ids.begin(), ids.end(), id));
}

/// Max-min fair allocation with per-flow caps (water-filling),
/// recomputed only for resources whose membership or capacity changed:
/// repeatedly give every unfrozen flow an equal share; flows whose cap
/// is below the share freeze at their cap and return the surplus to the
/// pool. The member lists stay cap-sorted, so one pass suffices. Every
/// active flow gets its rate here before any scan reads it, so this is
/// where the positive-rate invariant is checked.
void FlowEngine::recompute_rates() {
    for (ResourceId r : dirty_resources_) {
        resources_[r].dirty = false;
        const auto& ids = per_resource_active_[r];
        if (ids.empty()) continue;
        double remaining = resources_[r].capacity_mbps;
        double left = static_cast<double>(ids.size());  // exact: small integers
        for (FlowId id : ids) {
            const Flow& f = flows_[id];
            const double share = remaining / left;
            // rate = std::min(cap, share), written as a branch on the
            // common capped case: the pool's running remainder then does
            // not wait for the division, and the cap's reciprocal is reused.
            double rate = f.cap_mbps;
            double inv = f.inv_cap;
            if (share < rate) [[unlikely]] {
                rate = share;
                inv = reciprocal(share);
            }
            CAST_ENSURES_MSG(rate > 0.0, "active flow has zero rate");
            rate_[f.pos] = rate;
            inv_rate_[f.pos] = inv;
            remaining -= rate;
            left -= 1.0;
        }
    }
    dirty_resources_.clear();
}

}  // namespace cast::sim
