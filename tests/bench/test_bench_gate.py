#!/usr/bin/env python3
"""Unit tests for tools/bench_gate.py's gate decisions and JSON summary.

Each test fabricates a fake bench "binary" (a shell script that writes a
canned BENCH_serve_throughput.json into its cwd, as the real bench does)
plus a baseline file, runs bench_gate.py as a subprocess, and asserts on
the exit code and the one-line BENCH_GATE_SUMMARY JSON record.

Runs under plain unittest (no pytest in the image); registered with ctest
as bench_gate_selftest.
"""

from __future__ import annotations

import json
import os
import stat
import statistics
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
BENCH_GATE = REPO_ROOT / "tools" / "bench_gate.py"
SUMMARY_TAG = "BENCH_GATE_SUMMARY"


def make_report(plans_per_sec: float, mode: str = "full",
                host_cores: int = 4) -> dict:
    return {
        "mode": mode,
        "host_cores": host_cores,
        "budget_ms": 0.0,
        "service_runs": [
            {"config": "baseline", "workers": 1, "plans_per_sec": plans_per_sec},
            {"config": "parallel", "workers": host_cores,
             "plans_per_sec": plans_per_sec * 2.0},
        ],
    }


class BenchGateHarness(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory(prefix="bench_gate_test_")
        self.tmp = Path(self._tmp.name)
        self.addCleanup(self._tmp.cleanup)

    def fake_bench(self, report: dict, exit_code: int = 0) -> Path:
        """A stand-in bench binary: dumps `report` into cwd, then exits."""
        report_path = self.tmp / "canned_report.json"
        report_path.write_text(json.dumps(report))
        script = self.tmp / "fake_bench.sh"
        script.write_text(
            "#!/bin/sh\n"
            f'cp "{report_path}" BENCH_serve_throughput.json\n'
            f"exit {exit_code}\n")
        script.chmod(script.stat().st_mode | stat.S_IXUSR)
        return script

    def baseline(self, report: dict) -> Path:
        path = self.tmp / "baseline.json"
        path.write_text(json.dumps(report))
        return path

    def run_gate(self, bench: Path, baseline: Path,
                 *extra: str) -> tuple[subprocess.CompletedProcess, dict]:
        proc = subprocess.run(
            [sys.executable, str(BENCH_GATE), "--bench", str(bench),
             "--baseline", str(baseline), *extra],
            capture_output=True, text=True, check=False)
        lines = [l for l in proc.stdout.splitlines()
                 if l.startswith(SUMMARY_TAG + " ")]
        self.assertEqual(len(lines), 1,
                         f"expected exactly one summary line:\n{proc.stdout}")
        return proc, json.loads(lines[0][len(SUMMARY_TAG) + 1:])

    def commit_history(self, reports: list) -> Path:
        """Fabricate a git repo whose baseline file went through `reports`
        (one commit each; a str report is committed verbatim — used to
        prove unparseable revisions are skipped). Returns the baseline
        path at HEAD."""
        repo = self.tmp / "repo"
        repo.mkdir()
        subprocess.run(["git", "init", "-q"], cwd=repo, check=True)
        baseline = repo / "BENCH_serve_throughput.json"
        for i, report in enumerate(reports):
            if isinstance(report, str):
                baseline.write_text(report)
            else:
                # Salt with the commit index so flat histories still change
                # the file (an unchanged file would make an empty commit).
                baseline.write_text(json.dumps({**report, "commit_index": i}))
            subprocess.run(["git", "add", "-A"], cwd=repo, check=True)
            subprocess.run(
                ["git", "-c", "user.name=t", "-c", "user.email=t@t",
                 "commit", "-q", "-m", f"point {i}"],
                cwd=repo, check=True)
        return baseline

    def run_trend(self, baseline: Path,
                  *extra: str) -> tuple[subprocess.CompletedProcess, dict]:
        proc = subprocess.run(
            [sys.executable, str(BENCH_GATE), "--trend",
             "--baseline", str(baseline), *extra],
            capture_output=True, text=True, check=False)
        lines = [l for l in proc.stdout.splitlines()
                 if l.startswith(SUMMARY_TAG + " ")]
        self.assertEqual(len(lines), 1,
                         f"expected exactly one summary line:\n{proc.stdout}")
        return proc, json.loads(lines[0][len(SUMMARY_TAG) + 1:])


class GateDecisions(BenchGateHarness):
    def test_pass_when_throughput_holds(self):
        bench = self.fake_bench(make_report(100.0))
        base = self.baseline(make_report(100.0))
        proc, summary = self.run_gate(bench, base)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertEqual(summary["verdict"], "OK")
        by_name = {m["name"]: m for m in summary["metrics"]}
        self.assertEqual(by_name["bench_contracts"]["status"], "pass")
        tput = by_name["service_plans_per_sec"]
        self.assertEqual(tput["status"], "pass")
        self.assertEqual(tput["baseline"], 200.0)  # best run (parallel)
        self.assertEqual(tput["current"], 200.0)
        self.assertEqual(tput["delta"], 0.0)

    def test_fail_on_regression_beyond_threshold(self):
        bench = self.fake_bench(make_report(60.0))   # -40% vs baseline
        base = self.baseline(make_report(100.0))
        proc, summary = self.run_gate(bench, base, "--threshold", "0.25")
        self.assertEqual(proc.returncode, 1)
        self.assertEqual(summary["verdict"], "FAIL")
        tput = {m["name"]: m for m in summary["metrics"]}["service_plans_per_sec"]
        self.assertEqual(tput["status"], "fail")
        self.assertAlmostEqual(tput["delta"], -0.4, places=4)
        self.assertEqual(tput["threshold"], 0.25)

    def test_small_regression_within_threshold_passes(self):
        bench = self.fake_bench(make_report(90.0))   # -10%, under 25%
        base = self.baseline(make_report(100.0))
        proc, summary = self.run_gate(bench, base)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertEqual(summary["verdict"], "OK")

    def test_smoke_skips_throughput_comparison(self):
        bench = self.fake_bench(make_report(1.0, mode="smoke"))
        base = self.baseline(make_report(100.0))
        proc, summary = self.run_gate(bench, base, "--smoke")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertEqual(summary["verdict"], "OK")
        tput = {m["name"]: m for m in summary["metrics"]}["service_plans_per_sec"]
        self.assertEqual(tput["status"], "skip")
        self.assertEqual(tput["reason"], "smoke run")

    def test_bench_contract_failure_fails_gate(self):
        bench = self.fake_bench(make_report(100.0), exit_code=3)
        base = self.baseline(make_report(100.0))
        proc, summary = self.run_gate(bench, base)
        self.assertEqual(proc.returncode, 1)
        self.assertEqual(summary["verdict"], "FAIL")
        contracts = {m["name"]: m for m in summary["metrics"]}["bench_contracts"]
        self.assertEqual(contracts["status"], "fail")
        self.assertEqual(contracts["exit_code"], 3)

    def test_core_count_mismatch_compares_single_worker_only(self):
        bench = self.fake_bench(make_report(100.0, host_cores=8))
        base = self.baseline(make_report(100.0, host_cores=4))
        proc, summary = self.run_gate(bench, base)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        tput = {m["name"]: m for m in summary["metrics"]}["service_plans_per_sec"]
        self.assertEqual(tput["status"], "pass")
        self.assertTrue(tput["single_worker_only"])
        self.assertEqual(tput["baseline"], 100.0)  # parallel runs stripped


class TrendGate(BenchGateHarness):
    """--trend gates on the committed git history of the baseline file."""

    def test_flat_history_passes_both_gates(self):
        baseline = self.commit_history([make_report(100.0)] * 6)
        proc, summary = self.run_trend(baseline)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        by_name = {m["name"]: m for m in summary["metrics"]}
        self.assertEqual(by_name["trend_window"]["status"], "pass")
        self.assertEqual(by_name["trend_slope"]["status"], "pass")

    def test_cliff_regression_fails_window_gate(self):
        baseline = self.commit_history(
            [make_report(v) for v in (100.0, 100.0, 100.0, 100.0, 100.0, 60.0)])
        proc, summary = self.run_trend(baseline)
        self.assertEqual(proc.returncode, 1)
        self.assertEqual(summary["verdict"], "FAIL")
        window = {m["name"]: m for m in summary["metrics"]}["trend_window"]
        self.assertEqual(window["status"], "fail")
        self.assertEqual(window["baseline"], 200.0)  # mean of the flat 100s x2
        self.assertEqual(window["current"], 120.0)

    def test_boiling_frog_drift_fails_slope_gate_only(self):
        # Each step is well inside the 25% window gate, but the cumulative
        # decay over the window exceeds threshold/window per commit — the
        # exact drift the slope gate exists to catch.
        baseline = self.commit_history(
            [make_report(v) for v in (100.0, 92.0, 85.0, 78.0, 72.0, 66.0)])
        proc, summary = self.run_trend(baseline)
        self.assertEqual(proc.returncode, 1)
        by_name = {m["name"]: m for m in summary["metrics"]}
        self.assertEqual(by_name["trend_window"]["status"], "pass")
        self.assertEqual(by_name["trend_slope"]["status"], "fail")
        self.assertLess(by_name["trend_slope"]["slope_per_commit"], -0.05)

    def test_insufficient_history_is_a_skip(self):
        baseline = self.commit_history([make_report(100.0)] * 2)
        proc, summary = self.run_trend(baseline)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        trend = {m["name"]: m for m in summary["metrics"]}["trend"]
        self.assertEqual(trend["status"], "skip")
        self.assertEqual(trend["points"], 2)

    def test_foreign_core_counts_and_garbage_revisions_are_filtered(self):
        # Three old points from an 8-core host plus one truncated revision
        # must not poison the 4-core trend (which is flat -> OK).
        history = ([make_report(500.0, host_cores=8)] * 3 +
                   ["{this is not json"] +
                   [make_report(100.0, host_cores=4)] * 3)
        baseline = self.commit_history(history)
        proc, summary = self.run_trend(baseline)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertEqual(summary["verdict"], "OK")

    def test_outside_git_tree_fails_loudly(self):
        lonely = self.tmp / "nogit" / "BENCH_serve_throughput.json"
        lonely.parent.mkdir()
        lonely.write_text(json.dumps(make_report(100.0)))
        env = dict(os.environ)
        env["GIT_CEILING_DIRECTORIES"] = str(self.tmp)
        proc = subprocess.run(
            [sys.executable, str(BENCH_GATE), "--trend",
             "--baseline", str(lonely)],
            capture_output=True, text=True, check=False, env=env)
        self.assertEqual(proc.returncode, 2)
        self.assertIn("trend_history", proc.stdout)

    def test_bench_flag_not_required_in_trend_mode(self):
        baseline = self.commit_history([make_report(100.0)] * 3)
        proc, _ = self.run_trend(baseline)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)


def make_incremental_report(amend_pps: float, mode: str = "full",
                            host_cores: int = 4) -> dict:
    """An incremental_replan-shaped report: three single-threaded tracks,
    amend fastest, cold slowest (the ratios mirror the real bench)."""
    return {
        "mode": mode,
        "host_cores": host_cores,
        "cold_resolve": {"plans_per_sec": amend_pps / 6.0, "mean_utility": 0.0002},
        "incremental_amend": {"plans_per_sec": amend_pps, "mean_utility": 0.0002},
        "secretary_baseline": {"plans_per_sec": amend_pps * 3.0,
                               "mean_utility": 0.00018},
    }


class IncrementalReportGate(BenchGateHarness):
    """incremental_replan reports gate per-track plans_per_sec rows."""

    def test_gates_each_track(self):
        bench = self.fake_bench(make_incremental_report(60.0))
        base = self.baseline(make_incremental_report(60.0))
        proc, summary = self.run_gate(bench, base)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        by_name = {m["name"]: m for m in summary["metrics"]}
        for track in ("cold_resolve", "incremental_amend", "secretary_baseline"):
            row = by_name[f"{track}.plans_per_sec"]
            self.assertEqual(row["status"], "pass")
        self.assertEqual(by_name["incremental_amend.plans_per_sec"]["baseline"], 60.0)

    def test_one_regressed_track_fails_the_gate(self):
        fresh = make_incremental_report(60.0)
        fresh["incremental_amend"]["plans_per_sec"] = 30.0  # -50%
        bench = self.fake_bench(fresh)
        base = self.baseline(make_incremental_report(60.0))
        proc, summary = self.run_gate(bench, base)
        self.assertEqual(proc.returncode, 1)
        by_name = {m["name"]: m for m in summary["metrics"]}
        self.assertEqual(by_name["incremental_amend.plans_per_sec"]["status"], "fail")
        self.assertEqual(by_name["cold_resolve.plans_per_sec"]["status"], "pass")

    def test_trend_mode_suffixes_per_track_metrics(self):
        cliff = make_incremental_report(60.0)
        cliff["incremental_amend"]["plans_per_sec"] = 30.0
        baseline = self.commit_history([make_incremental_report(60.0)] * 5 + [cliff])
        proc, summary = self.run_trend(baseline)
        self.assertEqual(proc.returncode, 1)
        by_name = {m["name"]: m for m in summary["metrics"]}
        amend = by_name["trend_window.incremental_amend.plans_per_sec"]
        self.assertEqual(amend["status"], "fail")
        cold = by_name["trend_window.cold_resolve.plans_per_sec"]
        self.assertEqual(cold["status"], "pass")


def solver_row(iterations: int, samples_s: list, **extra) -> dict:
    """A solver_throughput row as the bench writes it: one untimed warm-up,
    then the median and interquartile range of the timed samples, and the
    iteration rate at the median."""
    q1, median, q3 = statistics.quantiles(samples_s, n=4, method="inclusive")
    return {"iterations": iterations, "warmups": 1, "samples": len(samples_s),
            "median_s": median, "iqr_s": q3 - q1,
            "iters_per_sec": iterations / median, **extra}


def make_solver_report(workflow_ips: float, host_cores: int = 4,
                       chain_samples_s: list | None = None) -> dict:
    """A solver_throughput-shaped report: the single-chain row plus the
    pooled solve rows, including the workflow tempering solve. Every
    sample of a row takes the same time unless `chain_samples_s` says
    otherwise for the single chain."""
    chain = chain_samples_s or [0.018] * 7
    return {
        "mode": "full",
        "host_cores": host_cores,
        "soa_incremental_evaluation": solver_row(20000, chain),
        "tempering_solve": solver_row(48000, [0.048] * 7),
        "workflow_tempering_solve": solver_row(
            600000, [600000 / workflow_ips] * 7, matches_reference=True),
    }


class SolverReportGate(BenchGateHarness):
    """solver_throughput reports gate the workflow row as a pooled section."""

    def test_regressed_workflow_row_fails_the_gate(self):
        fresh = make_solver_report(900000.0)  # -50%
        bench = self.fake_bench(fresh)
        base = self.baseline(make_solver_report(1800000.0))
        proc, summary = self.run_gate(bench, base)
        self.assertEqual(proc.returncode, 1)
        by_name = {m["name"]: m for m in summary["metrics"]}
        self.assertEqual(
            by_name["workflow_tempering_solve.iters_per_sec"]["status"], "fail")
        self.assertEqual(by_name["tempering_solve.iters_per_sec"]["status"], "pass")

    def test_slower_median_fails_but_one_slow_sample_does_not(self):
        base = self.baseline(make_solver_report(1800000.0))
        # One sample of seven at 5x: the median holds, the gate passes.
        one_slow = make_solver_report(
            1800000.0, chain_samples_s=[0.018] * 6 + [0.090])
        proc, summary = self.run_gate(self.fake_bench(one_slow), base)
        self.assertEqual(proc.returncode, 0, proc.stdout)
        by_name = {m["name"]: m for m in summary["metrics"]}
        self.assertEqual(
            by_name["soa_incremental_evaluation.iters_per_sec"]["status"], "pass")
        # Four samples of seven at 1.5x move the median: the gate fails.
        slower = make_solver_report(
            1800000.0, chain_samples_s=[0.018] * 3 + [0.027] * 4)
        proc, summary = self.run_gate(self.fake_bench(slower), base)
        self.assertEqual(proc.returncode, 1)
        by_name = {m["name"]: m for m in summary["metrics"]}
        self.assertEqual(
            by_name["soa_incremental_evaluation.iters_per_sec"]["status"], "fail")
        self.assertEqual(by_name["tempering_solve.iters_per_sec"]["status"], "pass")

    def test_workflow_row_skipped_across_core_counts(self):
        fresh = make_solver_report(900000.0, host_cores=1)
        bench = self.fake_bench(fresh)
        base = self.baseline(make_solver_report(1800000.0, host_cores=4))
        proc, summary = self.run_gate(bench, base)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        names = {m["name"] for m in summary["metrics"]}
        self.assertNotIn("workflow_tempering_solve.iters_per_sec", names)
        self.assertIn("soa_incremental_evaluation.iters_per_sec", names)


def make_sim_report(events_per_s: float, host_cores: int = 4) -> dict:
    """A sim_throughput-shaped report: serial engine, batch and deploy rows
    plus the pooled batch and profiling campaign rows."""
    return {
        "bench": "sim_throughput",
        "mode": "full",
        "host_cores": host_cores,
        "engine_events": {"events": 300000, "events_per_s": events_per_s,
                          "fingerprint": "0x6d2612c0165621e3"},
        "serial_batch": {"jobs": 2700, "warmups": 1, "samples": 7, "median_s": 0.9,
                         "iqr_s": 0.05, "jobs_per_s": 3000.0},
        "pooled_batch": {"workers": host_cores, "jobs": 2700, "warmups": 1,
                         "samples": 7, "median_s": 0.3, "iqr_s": 0.02,
                         "jobs_per_s": 9000.0},
        "deploy_100_jobs": {"jobs": 100, "jobs_per_s": 1500.0},
        "profile_campaign": {"workers": 2, "samples": 7, "median_s": 0.4,
                             "iqr_s": 0.02, "campaigns_per_s": 2.5},
    }


class SimReportGate(BenchGateHarness):
    """sim_throughput reports gate the serial rows always and the pooled
    batch only between hosts of one core count."""

    def test_regressed_engine_row_fails_the_gate(self):
        bench = self.fake_bench(make_sim_report(1.0e6))  # -50%
        base = self.baseline(make_sim_report(2.0e6))
        proc, summary = self.run_gate(bench, base)
        self.assertEqual(proc.returncode, 1)
        by_name = {m["name"]: m for m in summary["metrics"]}
        self.assertEqual(by_name["engine_events.events_per_s"]["status"], "fail")
        for name in ("serial_batch.jobs_per_s", "pooled_batch.jobs_per_s",
                     "deploy_100_jobs.jobs_per_s", "profile_campaign.campaigns_per_s"):
            self.assertEqual(by_name[name]["status"], "pass", name)

    def test_slower_profile_campaign_fails_the_gate(self):
        fresh = make_sim_report(2.0e6)
        fresh["profile_campaign"]["campaigns_per_s"] = 1.5  # -40%
        bench = self.fake_bench(fresh)
        base = self.baseline(make_sim_report(2.0e6))
        proc, summary = self.run_gate(bench, base)
        self.assertEqual(proc.returncode, 1)
        by_name = {m["name"]: m for m in summary["metrics"]}
        self.assertEqual(by_name["profile_campaign.campaigns_per_s"]["status"], "fail")

    def test_pooled_row_skipped_across_core_counts(self):
        fresh = make_sim_report(2.0e6, host_cores=1)
        fresh["pooled_batch"]["jobs_per_s"] = 3000.0  # one core: no scaling
        bench = self.fake_bench(fresh)
        base = self.baseline(make_sim_report(2.0e6, host_cores=4))
        proc, summary = self.run_gate(bench, base)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        names = {m["name"] for m in summary["metrics"]}
        self.assertNotIn("pooled_batch.jobs_per_s", names)
        self.assertNotIn("profile_campaign.campaigns_per_s", names)
        self.assertIn("engine_events.events_per_s", names)
        self.assertIn("deploy_100_jobs.jobs_per_s", names)


class SummaryIsMachineReadable(BenchGateHarness):
    def test_summary_is_one_line_valid_json(self):
        bench = self.fake_bench(make_report(100.0))
        base = self.baseline(make_report(100.0))
        _, summary = self.run_gate(bench, base)
        self.assertEqual(set(summary), {"verdict", "metrics"})
        for m in summary["metrics"]:
            self.assertIn("name", m)
            self.assertIn(m["status"], ("pass", "fail", "skip"))


if __name__ == "__main__":
    unittest.main()
