// FlowEngine hot path: the structure-of-arrays active set, its scans, and
// the three water-fill regimes.
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
//     minimum has q_k <= bound = qmin * (1 + 16ε). A branch-free vector
//     pass finds qmin, a second records the few flows within the final
//     bound; only they pay the IEEE division, so the result bit-equals the
//     all-division minimum. The argument needs normal numbers: a rate
//     whose reciprocal is not normal stores inv = 0 (so q = 0), and a qmin
//     below 2 * DBL_MIN makes every flow a candidate.
//   * Drain. r = rem - rate * dt is the same elementwise IEEE operation
//     pair as the scalar loop. A flow the drain takes to the completion
//     epsilon ε_c or below had rem - ε_c (1 + ε) <= rate * dt (1 + u); the
//     scan records every flow with e_k = RN(RN(rem_k - ε_c') * inv_k) <=
//     bound, ε_c' >= ε_c (1 + ε), which covers every such flow. So
//     completions are looked for among the recorded candidates only.
//
// Removal swaps the last active flow into the hole, so positions carry no
// order. The scalar engine's active list was always ascending in id (ids
// are appended in increasing order, compaction kept order), so sorting the
// handful of ids completed in one step reproduces its completion order;
// the minimum and the drain do not depend on order at all.
//
// Water-fill. The reference is the cap-sorted loop over a pool of n
// members with capacity C: share = remaining / left; rate = min(cap,
// share); remaining -= rate; left -= 1. Each division waits on the
// previous subtraction, so a large pool is a serial chain of divisions.
// Two regimes write the loop's exact result without running it:
//
//   * Provably capped: RN(n * cap_max) <= RN(C * m), m = 1 - 2^-20, and
//     cap_max normal. Then n * cap_max <= C (1 - n u) (n < 2^32). While
//     every earlier member took its cap, remaining_k >= C - k cap_max -
//     k u C (each subtraction errs by at most u C), so remaining_k /
//     (n - k) >= cap_max and, RN being monotone, share_k >= cap_max >=
//     cap_k: member k takes its cap too. Every member gets (cap, the
//     cached RN(1/cap)) with no division. The uncontended 1e15 MB/s
//     resource and lightly used volumes are this case. The test still
//     holds after a member leaves (n and cap_max only fall), so such a
//     pool is not refilled when a member leaves, and a joining flow that
//     keeps it true gets its cap at start_flow.
//   * Contended: the lowest cap is at least the largest share of the
//     pool's fair-share ladder, the sequence the loop computes when no
//     member is capped. Caps are sorted, so share_k <= cap_0 <= cap_k for
//     every k: the loop takes every share (a tie gives the same double
//     either way), and the ladder, computed once with the loop's own
//     operations in its order, is its result. Ladders are memoized per
//     (capacity bits, n) in the engine's LadderStore; a member count
//     random-walks over its range as tasks come and go, so the store keeps
//     every count it has seen. A ladder's shares lie within a few ulps of
//     each other: each member costs one byte (its share's distance in ulps
//     from the smallest share) plus one 8-byte reciprocal per ulp of the
//     ladder's range; a ladder whose shares span more than 256 ulps is
//     left to the loop. The store stops growing at kLadderBudgetBytes (128 KiB)
//     of ladder data per engine, so with one engine per simulating thread
//     its heap stays under about twice that per thread, vector growth
//     included (the per-count headers are charged first, which also caps
//     the build scratch at about 5,400 shares); the paper cluster's
//     object-store pools (two capacities, up to 200 members) need 88 KB.
//
// A pool in neither regime (some but not all members capped) runs the
// loop. Which regime fills a pool never shows in its rates.
#include "sim/flow_engine.hpp"

#include <algorithm>
#include <bit>
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
// m of the capped-regime test RN(n * cap_max) <= RN(C * m): 1 - 2^-20.
constexpr double kCappedMargin = 1.0 - 0x1p-20;
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// The capped regime's test: RN(n * cap_max) <= RN(C * m) with a normal
/// cap_max proves the loop would give every member its cap.
bool provably_capped(double capacity, const MemberList& members) {
    const double cap_max = members.back().cap;
    return static_cast<double>(members.size()) * cap_max <= capacity * kCappedMargin &&
           cap_max >= DBL_MIN;
}

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
    // capacity); add_resource reuses them index-by-index. The ladder
    // store is keyed by capacity, so it carries over to the next job.
    events_.clear();
    applied_events_ = 0;
    event_seq_ = 0;
    dirty_resources_.clear();
    now_ = 0.0;
}

ResourceId FlowEngine::add_resource(MBytesPerSec capacity) {
    CAST_EXPECTS_MSG(capacity.value() > 0.0, "resource capacity must be positive");
    resources_.push_back(
        Resource{capacity.value(), kUnresolved, /*dirty=*/false, /*capped=*/false});
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
        MemberList& members = per_resource_active_[res];
        members.insert(id, cap_mbps);
        if (resources_[res].capped && provably_capped(resources_[res].capacity_mbps, members)) {
            // The pool stays provably capped: only the joining flow needs a rate.
            const Flow& f = flows_[id];
            rate_[f.pos] = cap_mbps;
            inv_rate_[f.pos] = f.inv_cap;
        } else {
            mark_dirty(res);
        }
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

    // Pass 1: qmin, a branch-free vector minimum of q = rem * inv over
    // every lane (a pad's q is +inf).
    Vec2 min0 = splat2(kInf);
    Vec2 min1 = splat2(kInf);
    for (std::size_t k = 0; k < padded; k += kBlock) {
        const Vec2 q0 = load2(rem + k) * load2(inv + k);
        const Vec2 q1 = load2(rem + k + 2) * load2(inv + k + 2);
        min0 = q0 < min0 ? q0 : min0;
        min1 = q1 < min1 ? q1 : min1;
    }
    const Vec2 min2 = min0 < min1 ? min0 : min1;
    const double qmin = std::min(min2[0], min2[1]);

    if (candidates_.size() < padded) candidates_.resize(padded);
    std::size_t* cand = candidates_.data();
    std::size_t count = 0;
    double bound = qmin * kSlack;
    if (qmin < kNormalFloor) {
        // Outside the error argument's range (or a rate without a normal
        // reciprocal, whose q is 0): every flow is a candidate.
        for (std::size_t j = 0; j < n; ++j) cand[j] = j;
        count = n;
        bound = kInf;
    } else {
        // Pass 2 records, in ascending position order, every flow with
        // e = (rem - ε') * inv <= bound: the minimum (e <= q) and every
        // flow this step can complete. A block whose four e all lie above
        // the bound is skipped; against the final bound almost every block
        // is, so the block branch predicts well and the lane loop is
        // branch-free.
        const Vec2 bound2 = splat2(bound);
        const Vec2 eps2 = splat2(kCompletionSlackMb);
        for (std::size_t k = 0; k < padded; k += kBlock) {
            const Vec2 e0 = (load2(rem + k) - eps2) * load2(inv + k);
            const Vec2 e1 = (load2(rem + k + 2) - eps2) * load2(inv + k + 2);
            if (all((e0 < e1 ? e0 : e1) > bound2)) continue;
            for (std::size_t j = k; j < k + kBlock; ++j) {
                const bool within = !((rem[j] - kCompletionSlackMb) * inv[j] > bound);
                cand[count] = j;
                count += static_cast<std::size_t>(within && j < n);
            }
        }
    }
    candidate_count_ = count;

    // Exact pass: the IEEE division, only for flows within the final bound.
    double min_dt = kInf;
    for (std::size_t c = 0; c < count; ++c) {
        const std::size_t j = cand[c];
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
    // The completed positions are compacted in place over the candidates,
    // still in ascending position order.
    std::size_t* cand = candidates_.data();
    std::size_t done = 0;
    for (std::size_t c = 0; c < candidate_count_; ++c) {
        const std::size_t j = cand[c];
        cand[done] = j;
        done += static_cast<std::size_t>(rem[j] <= kCompletionEpsilonMb);
    }
    for (std::size_t c = 0; c < done; ++c) {
        const std::size_t pos = cand[c];
        const FlowId id = active_ids_[pos];
        Flow& f = flows_[id];
        f.done = true;
        f.rate = rate_[pos];
        completed_.push_back(id);
        per_resource_active_[f.res].erase(id, f.cap_mbps);
        // A provably capped pool stays so with one member fewer.
        if (!resources_[f.res].capped) mark_dirty(f.res);
    }
    // Descending positions: each swap pulls in a flow from beyond every
    // position still to be removed, so pending positions stay valid.
    for (std::size_t c = done; c-- > 0;) deactivate(cand[c]);
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
    resources_[ev.res].ladders = kUnresolved;
    mark_dirty(ev.res);
}

void FlowEngine::mark_dirty(ResourceId res) {
    Resource& r = resources_[res];
    r.capped = false;
    if (r.dirty) return;
    r.dirty = true;
    dirty_resources_.push_back(res);
}

void MemberList::insert(FlowId id, double cap) {
    const auto it = std::upper_bound(members_.begin(), members_.end(), cap,
                                     [](double c, const Member& m) { return c < m.cap; });
    members_.insert(it, Member{cap, id});
}

void MemberList::erase(FlowId id, double cap) {
    const auto before = [](const Member& a, const Member& b) {
        return a.cap < b.cap || (a.cap == b.cap && a.id < b.id);
    };
    const auto it = std::lower_bound(members_.begin(), members_.end(), Member{cap, id}, before);
    CAST_EXPECTS_MSG(it != members_.end() && it->id == id, "flow is not a member");
    members_.erase(it);
}

bool FlowEngine::LadderStore::charge(std::size_t bytes) {
    if (bytes > kLadderBudgetBytes - bytes_) return false;
    bytes_ += bytes;
    return true;
}

std::uint32_t FlowEngine::LadderStore::set_of(double capacity) {
    const auto key = std::bit_cast<std::uint64_t>(capacity);
    for (std::size_t i = 0; i < sets_.size(); ++i) {
        if (std::bit_cast<std::uint64_t>(sets_[i].capacity) == key) {
            return static_cast<std::uint32_t>(i);
        }
    }
    if (!charge(sizeof(Set))) return kNoLadders;
    sets_.push_back(Set{capacity, {}});
    return static_cast<std::uint32_t>(sets_.size() - 1);
}

FlowEngine::LadderStore::Ladder FlowEngine::LadderStore::get(std::uint32_t set, std::size_t n) {
    constexpr Ladder kUnusable{kNaN, 0, nullptr, nullptr};
    Set& s = sets_[set];
    if (s.by_count.size() <= n) {
        if (!charge((n + 1 - s.by_count.size()) * sizeof(Header))) return kUnusable;
        s.by_count.resize(n + 1);
    }
    Header& h = s.by_count[n];
    if (h.inv_base == kUnbuilt) {
        // The loop's operations in its order, every member uncapped.
        shares_.resize(n);
        double remaining = s.capacity;
        double left = static_cast<double>(n);
        bool finite = true;
        for (std::size_t k = 0; k < n; ++k) {
            const double share = remaining / left;
            finite &= share > 0.0 && share < kInf;
            shares_[k] = share;
            remaining -= share;
            left -= 1.0;
        }
        // Positive finite doubles order as their bit patterns.
        std::uint64_t lo = std::numeric_limits<std::uint64_t>::max();
        std::uint64_t hi = 0;
        for (double share : shares_) {
            lo = std::min(lo, std::bit_cast<std::uint64_t>(share));
            hi = std::max(hi, std::bit_cast<std::uint64_t>(share));
        }
        h.max_share = kNaN;
        h.inv_base = 0;  // built: an unusable ladder is not rebuilt
        if (!finite || hi - lo > 0xFF ||
            !charge((hi - lo + 1) * sizeof(double) + n * sizeof(std::uint8_t))) {
            return kUnusable;
        }
        h.max_share = std::bit_cast<double>(hi);
        h.lo = lo;
        h.inv_base = static_cast<std::uint32_t>(invs_.size());
        h.code_base = static_cast<std::uint32_t>(codes_.size());
        for (std::uint64_t b = lo; b <= hi; ++b) {
            invs_.push_back(reciprocal(std::bit_cast<double>(b)));
        }
        for (double share : shares_) {
            const std::uint64_t code = std::bit_cast<std::uint64_t>(share) - lo;
            codes_.push_back(static_cast<std::uint8_t>(code));
        }
    }
    if (std::isnan(h.max_share)) return kUnusable;
    return Ladder{h.max_share, h.lo, invs_.data() + h.inv_base, codes_.data() + h.code_base};
}

/// The contended regime: when the pool's lowest cap is at least the
/// ladder's largest share, no member is capped and the loop would write
/// the ladder itself. Returns false (writing nothing) otherwise.
bool FlowEngine::fill_from_ladder(Resource& res, const MemberList& members) {
    if (res.ladders == kUnresolved) res.ladders = ladders_.set_of(res.capacity_mbps);
    if (res.ladders == kNoLadders) return false;
    const LadderStore::Ladder ladder = ladders_.get(res.ladders, members.size());
    if (!(ladder.max_share <= members.front().cap)) return false;
    const std::uint8_t* code = ladder.codes;
    for (const MemberList::Member& m : members) {
        const std::uint8_t c = *code++;
        const std::uint32_t pos = flows_[m.id].pos;
        rate_[pos] = std::bit_cast<double>(ladder.lo + c);
        inv_rate_[pos] = ladder.inv[c];
    }
    return true;
}

/// Max-min fair allocation with per-flow caps (water-filling),
/// recomputed only for resources whose membership or capacity changed:
/// repeatedly give every unfrozen flow an equal share; flows whose cap
/// is below the share freeze at their cap and return the surplus to the
/// pool. The member lists stay cap-sorted, so one pass suffices. Every
/// active flow gets its rate here before any scan reads it, so this is
/// where the positive-rate invariant is checked. Two regimes write the
/// loop's result without running it (see the file comment).
void FlowEngine::recompute_rates() {
    for (ResourceId r : dirty_resources_) {
        Resource& res = resources_[r];
        res.dirty = false;
        const MemberList& members = per_resource_active_[r];
        if (members.empty()) continue;
        const double capacity = res.capacity_mbps;
        if (provably_capped(capacity, members)) {
            for (const MemberList::Member& m : members) {
                const Flow& f = flows_[m.id];
                rate_[f.pos] = m.cap;
                inv_rate_[f.pos] = f.inv_cap;
            }
            res.capped = true;
            continue;
        }
        const double n = static_cast<double>(members.size());  // exact: small integers
        // A lowest cap this far below capacity / n caps the first member,
        // so the ladder could not apply; skip the lookup.
        if (n * members.front().cap >= capacity * kCappedMargin &&
            fill_from_ladder(res, members)) {
            continue;
        }
        double remaining = capacity;
        double left = n;
        for (const MemberList::Member& m : members) {
            const Flow& f = flows_[m.id];
            const double share = remaining / left;
            // rate = std::min(cap, share), written as a branch on the
            // common capped case: the pool's running remainder then does
            // not wait for the division, and the cap's reciprocal is reused.
            double rate = m.cap;
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
