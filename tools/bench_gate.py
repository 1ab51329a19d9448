#!/usr/bin/env python3
"""Performance gate for the throughput benches (serve, solver, replan, sim).

Re-runs the bench binary in a scratch directory and compares the fresh
numbers against the committed baseline JSON. The gate fails when

  * the bench itself fails (bit-identity or budget contract violated), or
  * any headline metric regressed more than --threshold (default 25%)
    relative to the baseline.

The headline metrics depend on the report shape: serve reports gate the
best service plans/sec over all configurations; solver_throughput reports
gate the per-section `iters_per_sec` numbers (the single-chain solve plus
the tempering and workflow tempering solves);
incremental_replan reports gate the per-track `plans_per_sec` numbers
(cold re-solve, warm-start amend, secretary baseline); sim_throughput
reports gate the serial rows (engine events/s, serial batch and 100-job
deploy jobs/s) always, and the pooled batch jobs/s and the profiling
campaign's campaigns/s (inverse median) on matching core counts. Sections present
in only one of baseline/fresh (a freshly added bench row) are skipped,
not failed.

Throughput is host-dependent, so the gate is opt-in (ctest -C BenchGate
-L benchgate, or the CI release lane which runs baseline and fresh on the
same runner class). Self-normalizing contract metrics (bit identity,
budget adherence) are enforced unconditionally by the bench binary.

Trend mode (--trend) gates on the committed history of the baseline file
instead of a fresh bench run: every git revision of BENCH_*.json is a data
point, and the gate fails when the newest committed number either dropped
more than --threshold below the mean of its last --window predecessors, or
the fitted slope over that window decays faster than threshold/window per
commit. The slope check is the point: a sequence of small regressions that
each clear the single-baseline gate ("boiling frog") still fails here once
the cumulative drift shows. Only full-mode entries measured on the same
host core count as the newest entry are compared; fewer than three
comparable points is a skip, not a failure. Multi-metric reports run the
window+slope pair per metric (summary names are suffixed ".<metric>";
the serve report's single headline keeps the bare trend_window /
trend_slope names).

Every run ends with exactly one machine-readable line

  BENCH_GATE_SUMMARY {"verdict": ..., "metrics": [...]}

summarizing each gate decision (pass/fail/skip per metric, with baseline,
current and delta), so CI logs are grep-able without parsing prose.

Usage:
  bench_gate.py --bench build/bench/serve_throughput \
                --baseline BENCH_serve_throughput.json [--threshold 0.25]
                [--smoke]
  bench_gate.py --bench build/bench/solver_throughput \
                --baseline BENCH_solver_throughput.json
  bench_gate.py --bench build/bench/sim_throughput \
                --baseline BENCH_sim_throughput.json
  bench_gate.py --trend --baseline BENCH_solver_throughput.json
                [--threshold 0.25] [--window 5]
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

SUMMARY_TAG = "BENCH_GATE_SUMMARY"
SERVE_METRIC = "service_plans_per_sec"
# solver_throughput sections carrying an iters_per_sec headline. The solve
# rows exercise the whole pool, so they only compare when baseline and
# current hosts have the same core count (the serve-report analogue is the
# workers > 1 configs).
SOLVER_SINGLE_CHAIN = ("soa_incremental_evaluation",)
SOLVER_POOLED = ("tempering_solve", "workflow_tempering_solve")
# incremental_replan tracks carrying a plans_per_sec headline. All three
# are timed single-threaded (the pooled runs only check bit-identity), so
# they stay comparable even when baseline and current core counts differ.
INCREMENTAL_TRACKS = ("cold_resolve", "incremental_amend", "secretary_baseline")
# sim_throughput rows: (section, headline field). The serial rows run on the
# calling thread and always compare; the pooled batch and the profiling
# campaign (a pool of 2) compare only between hosts of one core count.
SIM_SERIAL = (("engine_events", "events_per_s"), ("serial_batch", "jobs_per_s"),
              ("deploy_100_jobs", "jobs_per_s"))
SIM_POOLED = (("pooled_batch", "jobs_per_s"), ("profile_campaign", "campaigns_per_s"))


def metric(name: str, status: str, **fields) -> dict:
    """One gate decision: status is pass/fail/skip; extra fields are the
    numbers the decision was made on (baseline/current/delta/threshold)."""
    return {"name": name, "status": status, **fields}


def emit_summary(metrics: list[dict]) -> None:
    """The one-line JSON record of every gate decision this run."""
    verdict = "FAIL" if any(m["status"] == "fail" for m in metrics) else "OK"
    print(f"{SUMMARY_TAG} " + json.dumps(
        {"verdict": verdict, "metrics": metrics}, sort_keys=True), flush=True)


def best_service_plans_per_sec(report: dict, max_workers: int | None = None) -> float:
    """Headline metric: the best plans/sec over all service configurations.

    Budgeted runs are excluded — their throughput is bounded by the wall
    budget, not by the serving machinery under test. When `max_workers` is
    given, runs with more workers than that are excluded too (used to strip
    parallel-scaling configs when baseline and current hosts differ).
    """
    best = 0.0
    for run in report.get("service_runs", []):
        if report.get("budget_ms", 0.0) > 0.0 and "budget" in str(run.get("config", "")):
            continue
        if max_workers is not None and int(run.get("workers", 1)) > max_workers:
            continue
        best = max(best, float(run.get("plans_per_sec", 0.0)))
    if best <= 0.0:
        raise ValueError("no comparable service_runs with plans_per_sec > 0 in report")
    return best


def headline_metrics(report: dict, max_workers: int | None = None) -> dict:
    """Gate-metric name -> value for one bench report.

    Serve reports contribute their single best-plans/sec headline under the
    historical name; solver_throughput reports contribute one
    `<section>.iters_per_sec` metric per section present. `max_workers == 1`
    strips whole-pool numbers (parallel service configs, multi-chain solve
    rows) when baseline and current hosts are not core-count comparable.
    Raises ValueError when nothing comparable is present.
    """
    if "service_runs" in report:
        return {SERVE_METRIC: best_service_plans_per_sec(report, max_workers)}
    if report.get("bench") == "sim_throughput":
        rows = SIM_SERIAL
        if max_workers is None or max_workers > 1:
            rows = rows + SIM_POOLED
        metrics = {}
        for key, field in rows:
            run = report.get(key)
            if isinstance(run, dict) and float(run.get(field, 0.0)) > 0.0:
                metrics[f"{key}.{field}"] = float(run[field])
        if not metrics:
            raise ValueError("no comparable headline metrics in report")
        return metrics
    if "incremental_amend" in report:
        metrics = {}
        for key in INCREMENTAL_TRACKS:
            run = report.get(key)
            if isinstance(run, dict) and float(run.get("plans_per_sec", 0.0)) > 0.0:
                metrics[f"{key}.plans_per_sec"] = float(run["plans_per_sec"])
        if not metrics:
            raise ValueError("no comparable headline metrics in report")
        return metrics
    sections = SOLVER_SINGLE_CHAIN
    if max_workers is None or max_workers > 1:
        sections = sections + SOLVER_POOLED
    metrics: dict = {}
    for key in sections:
        run = report.get(key)
        if isinstance(run, dict) and float(run.get("iters_per_sec", 0.0)) > 0.0:
            metrics[f"{key}.iters_per_sec"] = float(run["iters_per_sec"])
    if not metrics:
        raise ValueError("no comparable headline metrics in report")
    return metrics


def baseline_history(baseline_path: Path) -> list[dict]:
    """Every committed revision of the baseline file, oldest first.

    Each entry is {"rev": sha, "report": parsed JSON}. Revisions where the
    file is missing or unparseable are skipped (a truncated baseline from
    before the write_bench_json hardening must not poison the trend).
    Raises RuntimeError when the baseline is not inside a git work tree.
    """
    top = subprocess.run(
        ["git", "-C", str(baseline_path.parent if str(baseline_path.parent) else "."),
         "rev-parse", "--show-toplevel"],
        capture_output=True, text=True)
    if top.returncode != 0:
        raise RuntimeError(f"not a git work tree: {top.stderr.strip()}")
    root = Path(top.stdout.strip())
    rel = baseline_path.resolve().relative_to(root).as_posix()
    log = subprocess.run(["git", "-C", str(root), "log", "--format=%H", "--", rel],
                         capture_output=True, text=True)
    revs = [r for r in log.stdout.split() if r]
    revs.reverse()  # git log is newest-first; the trend wants oldest-first
    history: list[dict] = []
    for rev in revs:
        show = subprocess.run(["git", "-C", str(root), "show", f"{rev}:{rel}"],
                              capture_output=True, text=True)
        if show.returncode != 0:
            continue
        try:
            report = json.loads(show.stdout)
        except json.JSONDecodeError:
            continue
        history.append({"rev": rev, "report": report})
    return history


def run_trend(args) -> int:
    """Gate on the committed BENCH history: last-N window + fitted slope,
    run independently for every headline metric the newest revision carries."""
    metrics: list[dict] = []
    baseline_path = Path(args.baseline)
    try:
        history = baseline_history(baseline_path)
    except RuntimeError as err:
        print(f"bench_gate: {err}", file=sys.stderr)
        emit_summary([metric("trend_history", "fail", reason=str(err))])
        return 2

    # Comparable points only: full-mode runs (smoke workloads are sized
    # differently) measured on the same host core count as the newest one.
    full = [h for h in history if h["report"].get("mode") == "full"]
    points: list[dict] = []
    newest_names: list[str] = []
    if full:
        cores = full[-1]["report"].get("host_cores")
        for h in full:
            if h["report"].get("host_cores") != cores:
                continue
            try:
                values = headline_metrics(h["report"])
            except ValueError:
                continue
            points.append({"rev": h["rev"], "values": values})
        if points:
            newest_names = sorted(points[-1]["values"])

    # Per-metric series. The newest revision decides which metrics are live;
    # a retired bench row stops gating, a freshly added one starts gating
    # once three committed revisions carry it.
    series = {name: [(p["rev"], p["values"][name])
                     for p in points if name in p["values"]]
              for name in newest_names}
    comparable = max((len(s) for s in series.values()), default=0)
    if comparable < 3:
        print(f"bench_gate: only {comparable} comparable baseline revisions; "
              "need 3+ for a trend — skipping")
        metrics.append(metric("trend", "skip", reason="insufficient history",
                              points=comparable))
        emit_summary(metrics)
        return 0

    window = max(1, args.window)
    failed = False
    for name in newest_names:
        # The serve report's single headline keeps the historical bare
        # trend_window/trend_slope names; multi-metric reports suffix.
        suffix = "" if name == SERVE_METRIC else "." + name
        values = [v for _, v in series[name]]
        if len(values) < 3:
            print(f"bench_gate: {name}: only {len(values)} comparable "
                  "revisions; need 3+ for a trend — skipping")
            metrics.append(metric(f"trend{suffix}", "skip",
                                  reason="insufficient history",
                                  points=len(values)))
            continue
        current = values[-1]

        # Window gate: the newest committed number vs the mean of its last
        # `window` predecessors — the trend analogue of the single-baseline
        # comparison, but against a smoothed reference instead of one point.
        prev = values[-(window + 1):-1]
        prev_mean = sum(prev) / len(prev)
        ratio = current / prev_mean
        window_ok = ratio >= 1.0 - args.threshold
        print(f"bench_gate: trend window{suffix} — newest {current:.1f} vs "
              f"mean of last {len(prev)} = {prev_mean:.1f} ({ratio:.2%}) -> "
              f"{'OK' if window_ok else 'REGRESSION'}")
        metrics.append(metric(f"trend_window{suffix}",
                              "pass" if window_ok else "fail",
                              baseline=round(prev_mean, 3),
                              current=round(current, 3),
                              delta=round(ratio - 1.0, 4),
                              threshold=args.threshold, window=len(prev)))

        # Slope gate: least-squares fit over the last window+1 points,
        # normalized by their mean so the threshold is a fractional decay
        # per commit. This is what catches the boiling frog — N small
        # regressions that each clear the window/baseline gate but sum past
        # the threshold.
        tail = values[-(window + 1):]
        n = len(tail)
        mean_x = (n - 1) / 2.0
        mean_y = sum(tail) / n
        denom = sum((x - mean_x) ** 2 for x in range(n))
        slope = sum((x - mean_x) * (y - mean_y)
                    for x, y in zip(range(n), tail)) / denom
        slope_rel = slope / mean_y if mean_y > 0.0 else 0.0
        slope_limit = args.threshold / window
        slope_ok = slope_rel >= -slope_limit
        print(f"bench_gate: trend slope{suffix} — {slope_rel:+.2%} per commit "
              f"over last {n} points (limit -{slope_limit:.2%}) -> "
              f"{'OK' if slope_ok else 'REGRESSION'}")
        metrics.append(metric(f"trend_slope{suffix}",
                              "pass" if slope_ok else "fail",
                              slope_per_commit=round(slope_rel, 4),
                              threshold=round(slope_limit, 4), points=n,
                              newest_rev=series[name][-1][0][:12]))
        failed = failed or not (window_ok and slope_ok)

    emit_summary(metrics)
    if failed:
        print("bench_gate: committed bench history is trending down", file=sys.stderr)
        return 1
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bench", help="serve_throughput binary (required "
                        "unless --trend)")
    parser.add_argument("--baseline", required=True, help="committed baseline JSON")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="max allowed fractional regression (default 0.25)")
    parser.add_argument("--smoke", action="store_true",
                        help="run the bench in --smoke mode (CI wiring checks)")
    parser.add_argument("--trend", action="store_true",
                        help="gate on the committed git history of --baseline "
                             "instead of running the bench")
    parser.add_argument("--window", type=int, default=5,
                        help="trend mode: predecessors in the comparison "
                             "window (default 5)")
    args = parser.parse_args()

    if args.trend:
        return run_trend(args)
    if not args.bench:
        parser.error("--bench is required unless --trend is given")

    metrics: list[dict] = []

    baseline_path = Path(args.baseline)
    if not baseline_path.is_file():
        print(f"bench_gate: baseline not found: {baseline_path}", file=sys.stderr)
        emit_summary([metric("baseline_present", "fail", path=str(baseline_path))])
        return 2
    baseline = json.loads(baseline_path.read_text())

    cmd = [args.bench] + (["--smoke"] if args.smoke else [])
    with tempfile.TemporaryDirectory(prefix="cast_bench_gate_") as scratch:
        print(f"bench_gate: running {' '.join(cmd)}", flush=True)
        proc = subprocess.run(cmd, cwd=scratch)
        if proc.returncode != 0:
            print(f"bench_gate: bench exited {proc.returncode} "
                  "(contract check failed)", file=sys.stderr)
            emit_summary(metrics + [metric("bench_contracts", "fail",
                                           exit_code=proc.returncode)])
            return 1
        metrics.append(metric("bench_contracts", "pass", exit_code=0))
        # The bench writes its own BENCH_*.json into the scratch cwd; the
        # baseline file may live under any name (CI copies it around), so
        # prefer a scratch file matching the baseline's name but fall back
        # to whatever single report the bench produced.
        named = Path(scratch) / baseline_path.name
        if named.is_file():
            result_path = named
        else:
            produced = sorted(Path(scratch).glob("BENCH_*.json"))
            if len(produced) != 1:
                print(f"bench_gate: expected one BENCH_*.json in scratch, "
                      f"found {len(produced)}", file=sys.stderr)
                emit_summary(metrics + [metric("bench_report", "fail",
                                               reason="missing or ambiguous "
                                                      "bench report")])
                return 2
            result_path = produced[0]
        fresh = json.loads(result_path.read_text())

    if args.smoke or fresh.get("mode") != baseline.get("mode"):
        # Different workload sizes are not comparable; the run above already
        # validated the contracts, which is all a smoke gate checks.
        print("bench_gate: modes differ (fresh "
              f"{fresh.get('mode')} vs baseline {baseline.get('mode')}); "
              "skipping throughput comparison")
        try:
            skip_names = sorted(headline_metrics(baseline))
        except ValueError:
            skip_names = ["headline"]
        for name in skip_names:
            metrics.append(metric(name, "skip",
                                  reason="smoke run" if args.smoke
                                         else "mode mismatch",
                                  baseline_mode=baseline.get("mode"),
                                  fresh_mode=fresh.get("mode")))
        emit_summary(metrics)
        return 0

    # Whole-pool numbers (parallel service configs, multi-chain solver rows)
    # only compare apples-to-apples when baseline and current were measured
    # on hosts with the same core count; otherwise restrict the comparison
    # to the single-worker/single-chain metrics.
    max_workers = None
    base_cores = baseline.get("host_cores")
    fresh_cores = fresh.get("host_cores")
    if base_cores != fresh_cores:
        print(f"bench_gate: host_cores differ (baseline {base_cores}, "
              f"current {fresh_cores}); comparing single-worker runs only")
        max_workers = 1

    try:
        base_by_name = headline_metrics(baseline, max_workers)
        now_by_name = headline_metrics(fresh, max_workers)
    except ValueError as err:
        if max_workers is not None:
            print(f"bench_gate: {err}; no core-count-independent runs to "
                  "compare, skipping throughput comparison")
            name = SERVE_METRIC if "service_runs" in baseline else "headline"
            metrics.append(metric(name, "skip",
                                  reason="no core-count-independent runs"))
            emit_summary(metrics)
            return 0
        raise

    failed = False
    for name in sorted(set(base_by_name) | set(now_by_name)):
        if name not in base_by_name or name not in now_by_name:
            # A freshly added (or retired) bench row has nothing to compare
            # against; it starts gating once both sides carry it.
            side = "baseline" if name not in base_by_name else "current"
            print(f"bench_gate: {name} missing in {side} report; skipping")
            metrics.append(metric(name, "skip", reason=f"missing in {side}"))
            continue
        base = base_by_name[name]
        now = now_by_name[name]
        ratio = now / base
        ok = ratio >= 1.0 - args.threshold
        failed = failed or not ok
        print(f"bench_gate: {name} {now:.1f} vs baseline {base:.1f} "
              f"({ratio:.2%}) -> {'OK' if ok else 'REGRESSION'}")
        metrics.append(metric(name, "pass" if ok else "fail",
                              baseline=base, current=now,
                              delta=round(ratio - 1.0, 4),
                              threshold=args.threshold,
                              single_worker_only=max_workers is not None))
    emit_summary(metrics)
    if failed:
        print(f"bench_gate: regressed more than {args.threshold:.0%}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
