#!/usr/bin/env python3
"""End-to-end benchmark of the CAST planner: one command, three workloads.

    python3 e2ebench/run.py --workload serve_open|amend_stream|plan_deploy_paper \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
harness (e2ebench/CMakeLists.txt, which compiles ../src) into
.bench_build/e2ebench; later runs only check the build is current.

--trace 0 prints the end-to-end metrics; --trace 1 runs an untraced and a
traced pass of half length each and prints the per-layer metrics. The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The lines before it are a human-readable report: run facts (host cores,
thread counts, seed), workload-specific end-to-end metrics, and the
open-loop accounting per rate rung. Every returned plan is re-checked
against the reference evaluators; a mismatch makes the run fail (exit 1).
See e2ebench/README.md for the workloads and metrics.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402

WORKLOADS = ("serve_open", "amend_stream", "plan_deploy_paper")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Limits from the benchmark contract: 180 s per run, 900 s when building.
RUN_LIMIT_S = 180.0
BUILD_LIMIT_S = 900.0
MARGIN_S = 10.0


def metric_units(section):
    """Metric name -> unit, in the order BENCHMARK.json lists them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec[section]}


def finite(value):
    """JSON has no infinity: a latency that includes a failed operation
    (entered as +inf) is reported as the largest double instead."""
    return value if math.isfinite(value) else sys.float_info.max


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Build and run
# ---------------------------------------------------------------------------

def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "e2ebench")


def build(out_dir, deadline):
    """Configure (first time) and build the harness; returns its path."""
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=max(1.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            raise RuntimeError("build step failed: " + " ".join(cmd))
    return os.path.join(out_dir, "e2e_harness")


def run_harness(binary, args, deadline):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError("harness exited with code %d" % proc.returncode)
    return json.loads(proc.stdout)


# ---------------------------------------------------------------------------
# Reduction helpers
# ---------------------------------------------------------------------------

def mean(values):
    return sum(values) / len(values) if values else 0.0


def p50_or_zero(values):
    """Median of a layer's samples; 0 when the workload bypasses the layer
    (the layer did no work)."""
    return stats.median(values) if values else 0.0


def latencies(ops):
    """Per-op latency with failed operations entered as +inf (a failure
    misses any latency limit)."""
    return [op["latency_ms"] if op["ok"] else math.inf for op in ops]


def span_table(spans):
    """Columnar span arrays -> (durations by name, self-time share of roots)."""
    names, starts, ends, parents = (spans["name"], spans["start_ms"], spans["end_ms"],
                                    spans["parent"])
    by_name = {}
    for n, s, e in zip(names, starts, ends):
        by_name.setdefault(n, []).append(e - s)
    selfs = stats.self_times(names, starts, ends, parents)
    root_total = sum(e - s for s, e, p in zip(starts, ends, parents) if p < 0)
    root_self = sum(t for t, p in zip(selfs, parents) if p < 0)
    return by_name, (root_self / root_total if root_total > 0 else 0.0)


def reference_ops(doc, pass_):
    """Operations whose latency forms latency_p50_ms / latency_tail_ms: the
    reference-rate phase on serve_open, every operation elsewhere."""
    ops = pass_["ops"]
    if doc["workload"] == "serve_open":
        return [op for op in ops if op["phase"] == 0]
    return ops


def plan_ops(doc, ops):
    """Operations whose plan counts toward plan utility (batch or amended
    plans; workflow plans only count toward plan cost)."""
    if doc["workload"] == "plan_deploy_paper":
        return [op for op in ops if op["ok"] and op["kind"] == "batch"]
    return [op for op in ops if op["ok"]]


def ratio_mean(ops, field):
    """Mean of a plan's utility or cost divided by the same quantity of the
    greedy plan over the same job set (for workflows: the best uniform plan,
    WorkflowSolver::solve_greedy). Ops without a reference carry 0 and are
    skipped."""
    ratios = [op[field] / op["ref_" + field] for op in ops if op["ref_" + field] > 0]
    return mean(ratios), len(ops) - len(ratios)


# ---------------------------------------------------------------------------
# End-to-end metrics
# ---------------------------------------------------------------------------

def rung_report(doc, pass_):
    """Open-loop accounting per phase of serve_open."""
    slo = doc["slo_ms"]
    rows = []
    for i, ph in enumerate(pass_["phases"]):
        ops = [op for op in pass_["ops"] if op["phase"] == i]
        lat = latencies(ops)
        pct, value, beyond = stats.tail(lat)
        late = [op["send_ms"] - op["due_ms"] for op in ops]
        outstanding = [op["outstanding_at_send"] for op in ops]
        grows = stats.backlog_grows(outstanding)
        rows.append({
            "phase": ph["name"],
            "rate_per_s": ph["rate"],
            "seconds": ph["seconds"],
            "sent": len(ops),
            "ok": sum(1 for op in ops if op["ok"]),
            "failed": sum(1 for op in ops if op["status"] in ("error", "check_failed")),
            "refused": sum(1 for op in ops if op["status"] == "refused"),
            "latency_p50_ms": stats.median(lat),
            "tail_pct": pct,
            "tail_ms": value,
            "tail_beyond": beyond,
            "generator_late_ms_max": max(late) if late else 0.0,
            "generator_late_ms_p99": stats.nearest_rank(sorted(late), 99.0) if late else 0.0,
            "backlog_grows": grows,
            "passes": stats.rung_passes(lat, outstanding, slo),
        })
    return rows


def end_to_end(doc):
    pass_ = doc["passes"][0]
    ops = pass_["ops"]
    ref = reference_ops(doc, pass_)
    lat = latencies(ref)
    tail_pct, tail_ms, tail_beyond = stats.tail(lat)
    ok = [op for op in ops if op["ok"]]
    planned = plan_ops(doc, ops)
    utility_ratio, utility_unref = ratio_mean(planned, "utility")
    cost_ratio, cost_unref = ratio_mean(ok, "cost")
    metrics = {
        "setup_s": stats.median(doc["setup_s"]),
        "peak_rss_mb": doc["peak_rss_mb"],
        "latency_p50_ms": stats.median(lat),
        "latency_tail_ms": tail_ms,
        "throughput_per_s": len(ok) / pass_["elapsed_s"],
        "plan_utility_vs_greedy": utility_ratio,
        "plan_cost_vs_greedy": cost_ratio,
        "ok_share": len(ok) / len(ops),
    }
    facts = {"latency_samples": len(lat), "latency_tail_percentile": tail_pct,
             "latency_tail_beyond": tail_beyond,
             "plans_without_feasible_reference": utility_unref + cost_unref}
    extra = {
        "plan_utility": (mean([op["utility"] for op in planned]), "utility"),
        "plan_cost_usd": (mean([op["cost"] for op in ok]), "USD"),
    }
    if doc["workload"] == "serve_open":
        rows = rung_report(doc, pass_)
        ladder = [(r["rate_per_s"], r["passes"]) for r in rows if r["phase"] == "ladder"]
        extra["max_rate_under_slo_per_s"] = (stats.max_rate_under_slo(ladder), "1/s")
        facts["slo_ms"] = doc["slo_ms"]
        facts["rungs"] = rows
    if doc["workload"] == "plan_deploy_paper":
        batches = [op for op in ok if op["kind"] == "batch"]
        flows = [op for op in ops if op["kind"] == "workflow"]
        extra["deployed_utility"] = (mean([op["deployed_utility"] for op in batches]),
                                     "utility")
        extra["deadline_met_share"] = (
            sum(1 for op in flows if op["ok"] and op["deployed_met_deadline"]) / len(flows),
            "share")
    return metrics, extra, facts, len(ops), len(ops) - len(ok)


# ---------------------------------------------------------------------------
# Per-layer metrics (traced run)
# ---------------------------------------------------------------------------

def per_layer(doc):
    untraced, traced = doc["passes"][0], doc["passes"][1]
    ops = traced["ops"]
    w = doc["workload"]
    spans, root_self_share = span_table(traced["spans"])
    # A layer the workload bypasses did no work: it reports 0.
    m = {name: 0.0 for name in metric_units("per_layer")}

    base = stats.median(latencies(reference_ops(doc, untraced)))
    with_trace = stats.median(latencies(reference_ops(doc, traced)))
    m["obs.trace_overhead_share"] = with_trace / base - 1.0
    m["trace.root_self_share"] = root_self_share
    m["model.profile_s"] = stats.median(doc["profile_s"])
    m["serve.snapshot_build_ms"] = p50_or_zero(doc["snapshot_build_ms"])
    m["workload.gen_ms"] = doc["workload_gen_ms"]
    m["core.eval.reference_ms_p50"] = p50_or_zero(doc["check"]["reference_ms"])

    if w in ("serve_open", "amend_stream"):
        svc = traced["service"]
        m["serve.submit_us_p50"] = stats.median([op["submit_us"] for op in ops])
        queue = [op["queue_ms"] for op in ops]
        m["serve.queue_ms_p50"] = stats.median(queue)
        m["serve.queue_ms_tail"] = stats.tail(queue)[1]
        m["serve.solve_ms_p50"] = stats.median([op["solve_ms"] for op in ops])
        m["serve.batch_mean"] = svc["completed"] / svc["batches"] if svc["batches"] else 0.0
        m["serve.refused"] = sum(1 for op in ops if op["status"] == "refused")
        m["serve.failed"] = sum(1 for op in ops if op["status"] in ("error", "check_failed"))
        hits = svc["cache_after"]["hits"] - svc["cache_before"]["hits"]
        misses = svc["cache_after"]["misses"] - svc["cache_before"]["misses"]
        m["core.eval.cache_hit_share"] = hits / (hits + misses) if hits + misses else 0.0
        m["core.eval.cache_misses_per_op"] = misses / len(ops)

    if w == "serve_open":
        m["serve.respond_ms_p50"] = stats.median(
            [op["done_ms"] - op["send_ms"] - op["queue_ms"] - op["solve_ms"] for op in ops])
        late = sorted(op["send_ms"] - op["due_ms"] for op in ops)
        m["serve.generator_late_ms_max"] = late[-1]
        m["serve.generator_late_ms_p99"] = stats.nearest_rank(late, 99.0)
        solved = [op for op in ops if op["ok"]]
        m["core.solve.ms_p50"] = stats.median([op["solve_ms"] for op in solved])
        iters = sum(op["iterations"] for op in solved)
        m["core.solve.iterations"] = iters
        m["core.solve.iters_per_s"] = iters / (sum(op["solve_ms"] for op in solved) / 1000.0)
        attempts = sum(op["exchange_attempts"] for op in solved)
        m["core.solve.exchange_accept_share"] = (
            sum(op["exchange_accepts"] for op in solved) / attempts if attempts else 0.0)
        m["core.solve.budget_exhausted"] = sum(1 for op in solved if op["budget_exhausted"])

    if w == "amend_stream":
        m["serve.respond_ms_p50"] = stats.median(
            [op["latency_ms"] - op["queue_ms"] - op["solve_ms"] for op in ops])
        amended = [op for op in ops if op["ok"]]
        m["core.amend.ms_p50"] = stats.median([op["solve_ms"] for op in amended])
        m["core.amend.neighborhood_jobs_mean"] = mean([op["neighborhood"] for op in amended])
        m["core.amend.large_step_share"] = mean([1.0 if op["large_step"] else 0.0
                                                 for op in amended])
        m["core.amend.iterations"] = sum(op["iterations"] for op in amended)
        m["core.amend.escalations"] = sum(1 for op in amended if op["escalated"])

    if w == "plan_deploy_paper":
        batches = [op for op in ops if op["ok"] and op["kind"] == "batch"]
        flows = [op for op in ops if op["ok"] and op["kind"] == "workflow"]
        solve_ms = spans.get("core.solve", [])
        m["core.solve.ms_p50"] = p50_or_zero(solve_ms)
        iters = sum(op["iterations"] for op in batches)
        m["core.solve.iterations"] = iters
        m["core.solve.iters_per_s"] = iters / (sum(solve_ms) / 1000.0) if solve_ms else 0.0
        attempts = sum(op["exchange_attempts"] for op in batches)
        m["core.solve.exchange_accept_share"] = (
            sum(op["exchange_accepts"] for op in batches) / attempts if attempts else 0.0)
        m["core.solve.budget_exhausted"] = sum(1 for op in batches + flows
                                               if op["budget_exhausted"])
        m["core.workflow.ms_p50"] = p50_or_zero(spans.get("core.workflow", []))
        m["core.workflow.iterations"] = sum(op["iterations"] for op in flows)
        hits = sum(op["cache_hits"] for op in batches + flows)
        misses = sum(op["cache_misses"] for op in batches + flows)
        m["core.eval.cache_hit_share"] = hits / (hits + misses) if hits + misses else 0.0
        # Distinct entries in each solve's fresh cache: exact for a seed,
        # unlike the raw miss counter, which counts a key twice when two
        # replicas miss it at the same moment.
        m["core.eval.cache_misses_per_op"] = mean([op["cache_entries"] for op in batches])
        m["core.greedy.ms_p50"] = p50_or_zero(spans.get("core.greedy", []))
        m["lint.ms_p50"] = p50_or_zero(spans.get("lint", []))
        deploy = spans.get("core.deploy", [])
        deploy_wf = spans.get("core.deploy_workflow", [])
        m["core.deploy.ms_p50"] = p50_or_zero(deploy)
        m["core.deploy_workflow.ms_p50"] = p50_or_zero(deploy_wf)
        jobs = sum(op["jobs"] for op in batches + flows)
        deploy_s = (sum(deploy) + sum(deploy_wf)) / 1000.0
        m["sim.jobs_per_s"] = jobs / deploy_s if deploy_s > 0 else 0.0
        m["core.deploy.retries"] = sum(op["deploy_retries"] for op in batches + flows)
    return m, len(ops), sum(1 for op in ops if not op["ok"])


# ---------------------------------------------------------------------------

def main():
    start = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    out_dir = build_dir()
    first_build = not os.path.exists(os.path.join(out_dir, "e2e_harness"))
    limit = BUILD_LIMIT_S if first_build else RUN_LIMIT_S
    deadline = start + limit - MARGIN_S
    try:
        binary = build(out_dir, deadline)
        doc = run_harness(binary, args, deadline)
    except (RuntimeError, OSError, ValueError, subprocess.TimeoutExpired) as exc:
        log("run.py: %s" % exc)
        return 2

    check = doc["check"]
    run_facts = {
        "workload": doc["workload"], "seed": doc["seed"], "seconds": doc["seconds"],
        "trace": doc["trace"], "host_cores": doc["host_cores"], "threads": doc["threads"],
        "inputs": doc["inputs"], "plans_checked": check["checked"],
        "check_mismatches": check["mismatches"],
        "responses_compared_with_solve_direct": check["direct_compared"],
    }
    print("run " + json.dumps(run_facts, sort_keys=True))
    for message in check["messages"]:
        print("check failure: " + message)

    if args.trace:
        values, attempted, failed = per_layer(doc)
        units = metric_units("per_layer")
    else:
        values, extra, facts, attempted, failed = end_to_end(doc)
        units = metric_units("end_to_end")
        for row in facts.pop("rungs", []):
            print("rung " + json.dumps(row, sort_keys=True))
        print("latency " + json.dumps(facts, sort_keys=True))
        print("workload_metrics " + json.dumps(
            {k: {"value": v, "unit": u} for k, (v, u) in extra.items()}, sort_keys=True))
    for name in units:
        print("%-36s %-10s %r" % (name, units[name], values[name]))

    correct = check["mismatches"] == 0
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": finite(values[name]), "unit": units[name]}
                    for name in units},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
