// Slot-limited task scheduling on top of the flow engine.
//
// A MapReduce phase is a bag of tasks, each a sequence of segments (flows
// or fixed delays), executed under per-VM slot limits exactly like Hadoop
// 1.x task slots: a VM runs at most `slots_per_vm` tasks of the phase at
// once, and a finishing task immediately yields its slot to the next queued
// task on that VM. Unlike the analytical model's whole-wave quantization
// (Eq. 1), slots free up task-by-task — one of the deliberate differences
// that gives the model-accuracy experiment (Fig. 8) a real gap to measure.
//
// With a TaskFaultModel attached (sim/faults.hpp), each task attempt may be
// amplified (stragglers), delayed (retry backoff) or failed outright; a
// failed attempt re-joins the back of its VM's queue — a Hadoop
// re-execution, which is what grows the tail into extra waves. A task that
// exhausts its attempt budget raises SimulationError.
//
// Storage discipline: a phase is described by a TaskBatch — tasks index
// into one contiguous segment pool — and executed against a PhaseScratch
// holding the queues and bookkeeping vectors. Both keep their capacity
// across phases and jobs, so a reused simulation allocates nothing per
// wave. The SimTask-vector overload remains as a convenience wrapper.
#pragma once

#include <string>
#include <vector>

#include "common/error.hpp"
#include "sim/faults.hpp"
#include "sim/flow_engine.hpp"

namespace cast::sim {

/// One unit of sequential work inside a task.
struct Segment {
    ResourceId resource = 0;
    double demand_mb = 0.0;
    double cap_mbps = 0.0;
};

/// A schedulable task: runs its segments in order on its VM's slot.
struct SimTask {
    int vm = 0;
    std::vector<Segment> segments;
};

/// Flat, reusable phase description: every task is a (vm, segment-range)
/// view into one shared segment pool. clear() keeps capacity, so building
/// the next wave into the same batch is allocation-free in steady state.
class TaskBatch {
public:
    void clear() {
        tasks_.clear();
        segments_.clear();
    }

    void reserve(std::size_t tasks, std::size_t segments) {
        tasks_.reserve(tasks);
        segments_.reserve(segments);
    }

    /// Start a new task on `vm`; subsequent add_segment calls append to it
    /// until the next begin_task.
    void begin_task(int vm) {
        tasks_.push_back(TaskRef{vm, static_cast<std::uint32_t>(segments_.size()), 0});
    }

    void add_segment(ResourceId resource, double demand_mb, double cap_mbps) {
        CAST_EXPECTS_MSG(!tasks_.empty(), "add_segment before begin_task");
        segments_.push_back(Segment{resource, demand_mb, cap_mbps});
        ++tasks_.back().seg_count;
    }

    [[nodiscard]] std::size_t task_count() const { return tasks_.size(); }
    [[nodiscard]] bool empty() const { return tasks_.empty(); }

    [[nodiscard]] int vm_of(std::size_t task) const { return tasks_[task].vm; }

    [[nodiscard]] std::size_t segment_count(std::size_t task) const {
        return tasks_[task].seg_count;
    }

    [[nodiscard]] const Segment& segment(std::size_t task, std::size_t index) const {
        return segments_[tasks_[task].seg_begin + index];
    }

private:
    struct TaskRef {
        int vm;
        std::uint32_t seg_begin;
        std::uint32_t seg_count;
    };

    std::vector<TaskRef> tasks_;
    std::vector<Segment> segments_;
};

/// Reusable bookkeeping for run_phase. All vectors keep their capacity
/// across phases; one scratch serves any number of sequential phases on
/// one thread.
struct PhaseScratch {
    /// Per-VM FIFO queues of pending task indices, flattened: queue[vm] is
    /// pending_[...] with a consumed-head cursor (avoids deque node churn;
    /// re-executions append at the back like Hadoop's wave queue).
    struct VmQueue {
        std::vector<std::size_t> items;
        std::size_t head = 0;

        [[nodiscard]] bool empty() const { return head >= items.size(); }
        [[nodiscard]] std::size_t pop_front() { return items[head++]; }
        void push_back(std::size_t v) { items.push_back(v); }
        void clear() {
            items.clear();
            head = 0;
        }
    };

    struct Running {
        std::size_t task = 0;
        std::size_t next_segment = 0;  // segment to start after current completes
    };

    std::vector<VmQueue> queues;
    std::vector<Running> by_flow;
    std::vector<int> free_slots;
    std::vector<int> attempts;
    std::vector<AttemptFaults> plans;
};

/// Run all tasks to completion under per-VM slot limits; returns the phase
/// makespan (time from call to last task completion). The engine's clock
/// carries across calls, so a caller can chain phases on one engine.
///
/// When `faults` is non-null, every task attempt is planned through it:
/// its demand scale multiplies every segment, its delay is charged first
/// (as a flow on `delay_resource`, which should be an uncontended resource
/// with demand interpreted as seconds at rate 1), and a failing attempt
/// re-enqueues the task at the back of its VM queue. A task whose attempts
/// are exhausted raises SimulationError. A null `faults` leaves the seed
/// scheduling bit-identical.
///
/// Generic over the engine type only so tests can drive the reference
/// engine through the same scheduler; production code passes a FlowEngine.
template <class Engine>
Seconds run_phase(Engine& engine, const TaskBatch& tasks, int vm_count, int slots_per_vm,
                  PhaseScratch& scratch, TaskFaultModel* faults = nullptr,
                  ResourceId delay_resource = 0) {
    CAST_EXPECTS(vm_count >= 1);
    CAST_EXPECTS(slots_per_vm >= 1);
    const Seconds start = engine.now();
    if (tasks.empty()) return Seconds{0.0};

    for (std::size_t i = 0; i < tasks.task_count(); ++i) {
        CAST_EXPECTS_MSG(tasks.vm_of(i) >= 0 && tasks.vm_of(i) < vm_count,
                         "task assigned to unknown VM");
        CAST_EXPECTS_MSG(tasks.segment_count(i) > 0, "task with no segments");
    }

    auto& queues = scratch.queues;
    queues.resize(static_cast<std::size_t>(vm_count));
    for (auto& q : queues) q.clear();
    for (std::size_t i = 0; i < tasks.task_count(); ++i) {
        queues[static_cast<std::size_t>(tasks.vm_of(i))].push_back(i);
    }

    // flow id -> running record. Flow ids grow monotonically per engine, so
    // an offset-indexed vector works.
    auto& by_flow = scratch.by_flow;
    by_flow.clear();
    std::size_t flow_id_base = 0;
    bool base_known = false;

    auto& free_slots = scratch.free_slots;
    free_slots.assign(static_cast<std::size_t>(vm_count), slots_per_vm);
    std::size_t tasks_left = tasks.task_count();

    // Per-task fault state, allocated only when faults are injected.
    auto& attempts = scratch.attempts;
    auto& plans = scratch.plans;
    if (faults != nullptr) {
        attempts.assign(tasks.task_count(), 0);
        plans.assign(tasks.task_count(), AttemptFaults{});
    }

    auto record_flow = [&](FlowId id, std::size_t task_idx, std::size_t next_segment) {
        if (!base_known) {
            flow_id_base = id;
            base_known = true;
        }
        CAST_ENSURES_MSG(id >= flow_id_base, "flow ids must grow monotonically");
        const std::size_t slot = id - flow_id_base;
        if (slot >= by_flow.size()) by_flow.resize(slot + 1);
        by_flow[slot] = PhaseScratch::Running{task_idx, next_segment};
    };

    auto start_segment = [&](std::size_t task_idx, std::size_t seg_idx) {
        const Segment& seg = tasks.segment(task_idx, seg_idx);
        const double scale = faults != nullptr ? plans[task_idx].demand_scale : 1.0;
        const FlowId id =
            engine.start_flow(seg.resource, seg.demand_mb * scale, seg.cap_mbps);
        record_flow(id, task_idx, seg_idx + 1);
    };

    auto launch_attempt = [&](std::size_t task_idx) {
        if (faults != nullptr) {
            plans[task_idx] = faults->on_attempt(task_idx, attempts[task_idx]);
            if (plans[task_idx].delay.value() > 0.0) {
                // Backoff wait: a flow of `delay` "MB" capped at 1 MB/s on
                // the uncontended delay resource lasts exactly `delay`
                // seconds. Segment 0 starts when it completes.
                const FlowId id = engine.start_flow(delay_resource,
                                                    plans[task_idx].delay.value(), 1.0);
                record_flow(id, task_idx, 0);
                return;
            }
        }
        start_segment(task_idx, 0);
    };

    auto fill_slots = [&](int vm) {
        auto& q = queues[static_cast<std::size_t>(vm)];
        auto& slots = free_slots[static_cast<std::size_t>(vm)];
        while (slots > 0 && !q.empty()) {
            const std::size_t task_idx = q.pop_front();
            --slots;
            launch_attempt(task_idx);
        }
    };

    for (int vm = 0; vm < vm_count; ++vm) fill_slots(vm);

    while (tasks_left > 0) {
        const std::vector<FlowId>& completed = engine.advance();
        CAST_ENSURES_MSG(!completed.empty(), "phase deadlocked: tasks left but no active flow");
        for (FlowId id : completed) {
            if (id < flow_id_base || id - flow_id_base >= by_flow.size()) continue;
            const PhaseScratch::Running r = by_flow[id - flow_id_base];
            if (r.next_segment < tasks.segment_count(r.task)) {
                start_segment(r.task, r.next_segment);
                continue;
            }
            const int vm = tasks.vm_of(r.task);
            if (faults != nullptr && plans[r.task].fail) {
                // Injected failure: the attempt's work is wasted and the
                // task re-joins its VM's wave queue (Hadoop re-execution).
                const int next_attempt = ++attempts[r.task];
                if (next_attempt >= faults->max_attempts()) {
                    throw SimulationError("task " + std::to_string(r.task) +
                                          " exhausted " +
                                          std::to_string(faults->max_attempts()) +
                                          " attempts (injected faults)");
                }
                ++free_slots[static_cast<std::size_t>(vm)];
                queues[static_cast<std::size_t>(vm)].push_back(r.task);
                fill_slots(vm);
                continue;
            }
            --tasks_left;
            ++free_slots[static_cast<std::size_t>(vm)];
            fill_slots(vm);
        }
    }
    return engine.now() - start;
}

/// Convenience overload over a SimTask vector (tests, simple callers):
/// copies the tasks into a local TaskBatch and runs with local scratch.
template <class Engine>
Seconds run_phase(Engine& engine, const std::vector<SimTask>& tasks, int vm_count,
                  int slots_per_vm, TaskFaultModel* faults = nullptr,
                  ResourceId delay_resource = 0) {
    TaskBatch batch;
    std::size_t segments = 0;
    for (const SimTask& t : tasks) segments += t.segments.size();
    batch.reserve(tasks.size(), segments);
    for (const SimTask& t : tasks) {
        batch.begin_task(t.vm);
        for (const Segment& s : t.segments) {
            batch.add_segment(s.resource, s.demand_mb, s.cap_mbps);
        }
    }
    PhaseScratch scratch;
    return run_phase(engine, batch, vm_count, slots_per_vm, scratch, faults,
                     delay_resource);
}

}  // namespace cast::sim
