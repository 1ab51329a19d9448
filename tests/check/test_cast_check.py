#!/usr/bin/env python3
"""Self-tests for tools/cast_check.py.

Two halves, mirroring the cast_lint fixture discipline:
  * every rule is proven LIVE: each fixture under fixtures/ carries one
    deliberate violation class, and the test asserts the expected rule ID
    fires at exactly the expected lines (and nothing else fires);
  * the real tree is proven CLEAN: cast_check --strict over src/ must
    report zero findings, so a regression in either the tree or the
    linter turns this test red.

Runs under plain unittest (no pytest in the image); registered with ctest
as cast_check_selftest.
"""

from __future__ import annotations

import json
import subprocess
import sys
import unittest
from pathlib import Path

TEST_DIR = Path(__file__).resolve().parent
REPO_ROOT = TEST_DIR.parent.parent
CAST_CHECK = REPO_ROOT / "tools" / "cast_check.py"
FIXTURES = TEST_DIR / "fixtures"


def run_check(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(CAST_CHECK), *args],
        capture_output=True, text=True, check=False)


def findings_for(path: Path) -> tuple[list[dict], int]:
    proc = run_check("--json", str(path))
    report = json.loads(proc.stdout)
    return report["findings"], proc.returncode


class RuleFiresExactlyWhereExpected(unittest.TestCase):
    # fixture -> list of (rule, line); "(repo)"-scoped rules use line None.
    EXPECTED = {
        "c001_naked_mutex.cpp": [("C001", 5), ("C001", 7)],
        "c002_naked_condvar.cpp": [("C002", 5)],
        "c003_nondeterminism.cpp": [("C003", 8), ("C003", 9), ("C003", 10),
                                    ("C003", 10)],
        "c004_sleep.cpp": [("C004", 7)],
        "hotpath/flow_engine.hpp": [("C005", 8), ("C005", 10)],
        "c006_nodiscard.cpp": [("C006", 4), ("C006", 5)],
        "c007_unjustified_escape.cpp": [("C007", 5)],
        "c008_adhoc_thread.cpp": [("C008", 6)],
        "serve/service.cpp": [("C008", 7)],
        "c009_escape_budget.cpp": [("C009", None)],
        "serve/adhoc_cerr.cpp": [("C010", 8), ("C010", 9)],
        "solver/annealing.cpp": [("C011", 12), ("C011", 13), ("C011", 14)],
        "solver/castpp.cpp": [("C011", 11), ("C011", 12)],
    }

    def test_each_rule_fires_at_expected_lines(self):
        for name, expected in self.EXPECTED.items():
            with self.subTest(fixture=name):
                found, rc = findings_for(FIXTURES / name)
                got = sorted((f["rule"], f["line"] if f["subject"] != "(repo)"
                              else None) for f in found)
                self.assertEqual(got, sorted(expected),
                                 f"{name}: findings diverged: {found}")
                self.assertNotEqual(rc, 0 if any(
                    r != "C006" for r, _ in expected) else None,
                    f"{name}: error findings must fail the run")

    def test_every_rule_id_has_a_live_fixture(self):
        covered = {rule for rules in self.EXPECTED.values() for rule, _ in rules}
        self.assertEqual(covered,
                         {"C001", "C002", "C003", "C004", "C005", "C006",
                          "C007", "C008", "C009", "C010", "C011"})

    def test_clean_fixture_reports_nothing(self):
        found, rc = findings_for(FIXTURES / "clean.cpp")
        self.assertEqual(found, [])
        self.assertEqual(rc, 0)


class StrictTreeIsClean(unittest.TestCase):
    def test_src_tree_strict_zero_findings(self):
        proc = run_check("--strict", "--json", str(REPO_ROOT / "src"))
        report = json.loads(proc.stdout)
        self.assertEqual(report["findings"], [],
                         "tree findings:\n" + proc.stdout)
        self.assertEqual(report["errors"], 0)
        self.assertEqual(report["warnings"], 0)
        self.assertEqual(proc.returncode, 0)


class JsonMirrorsCastLintSchema(unittest.TestCase):
    """Same top-level and per-finding shape as lint::Report::write_json."""

    def test_schema_shape(self):
        proc = run_check("--json", str(FIXTURES / "c001_naked_mutex.cpp"))
        report = json.loads(proc.stdout)
        self.assertEqual(set(report) - {"source"},
                         {"errors", "warnings", "findings"})
        self.assertIsInstance(report["errors"], int)
        self.assertIsInstance(report["warnings"], int)
        for f in report["findings"]:
            self.assertLessEqual(
                set(f), {"rule", "severity", "subject", "message",
                         "fix_hint", "line"})
            self.assertRegex(f["rule"], r"^C\d{3}$")
            self.assertIn(f["severity"], ("error", "warning", "info"))
            self.assertIsInstance(f["line"], int)

    def test_severity_orders_errors_first(self):
        mixed = [str(FIXTURES / "c001_naked_mutex.cpp"),
                 str(FIXTURES / "c006_nodiscard.cpp")]
        proc = run_check("--json", *mixed)
        severities = [f["severity"]
                      for f in json.loads(proc.stdout)["findings"]]
        self.assertEqual(severities, sorted(
            severities, key=("error", "warning", "info").index))


class StrictFlagSemantics(unittest.TestCase):
    def test_warning_only_passes_without_strict(self):
        proc = run_check(str(FIXTURES / "c006_nodiscard.cpp"))
        self.assertEqual(proc.returncode, 0, proc.stdout)

    def test_warning_only_fails_with_strict(self):
        proc = run_check("--strict", str(FIXTURES / "c006_nodiscard.cpp"))
        self.assertEqual(proc.returncode, 1, proc.stdout)


if __name__ == "__main__":
    unittest.main()
