#!/usr/bin/env python3
"""cast_check: repo-specific source linter for concurrency + determinism discipline.

cast::lint (src/lint) checks *workload specs*; this tool checks the C++
*source tree* for rules the compiler cannot express — which primitives may
be used where. It is the second half of the compile-time concurrency
contract introduced with src/common/annotations.hpp: the Clang
thread-safety lane proves annotated locks are used correctly, and
cast_check proves nobody bypasses the annotated types (or the determinism
and hot-path disciplines from earlier PRs).

Rules (stable IDs, mirrored in DESIGN.md):

  C001  naked std::mutex / std::lock_guard / std::unique_lock /
        std::scoped_lock / std::shared_mutex outside common/annotations.hpp
        (use cast::Mutex / cast::LockGuard / cast::UniqueLock — the
        thread-safety analysis only sees capabilities it knows about)
  C002  naked std::condition_variable outside common/annotations.hpp
        (use cast::CondVar)
  C003  nondeterminism outside common/rng.hpp: rand()/srand(),
        std::random_device, std::mt19937, time(nullptr/NULL/0)
        (every stochastic component takes an explicit seed; see rng.hpp)
  C004  std::this_thread::sleep_for/sleep_until in src/ outside
        fault-injection/retry files (real sleeps belong to
        cast::sleep_backoff_ms and the injectors only)
  C005  new / malloc / calloc / realloc in the sim hot-path files
        (flow_engine.hpp/.cpp, phase_runner.hpp, mapreduce.cpp — the
        allocation-free steady-state contract)
  C006  try_* / *_or_null function with a non-void return missing
        [[nodiscard]] (a dropped failure result is a silent bug)
  C007  CAST_NO_TSA escape without a same-line justification comment
  C008  std::thread construction outside the thread pool (no ad-hoc
        threads; the planner service runs each request as a pool task)
  C009  more than 3 CAST_NO_TSA escapes repo-wide (budget; keep escapes
        an audited exception)
  C010  std::cerr / fprintf(stderr, ...) in the serve layer outside
        src/obs (ad-hoc stderr counters bypass the metrics registry;
        telemetry belongs in obs::MetricsRegistry / obs::TraceRing)
  C011  node-based containers (std::map / std::unordered_map / std::set /
        std::unordered_set / std::multimap / std::multiset) in the solver
        hot-path files (annealing.{hpp,cpp}, castpp.cpp, utility.cpp,
        soa_eval.{hpp,cpp}, fixed_sum.hpp, reg_split.{hpp,cpp} — the SoA
        discipline: per-iteration state lives in flat arrays; the memo
        table in eval_cache.cpp is the one sanctioned exception and is
        scoped out by file)

Implementation is a libclang/regex hybrid: when python bindings for
libclang are importable they refine C006 (true declaration parsing);
otherwise a conservative regex pass runs — comments and string literals
are stripped first so prose never trips a rule. Output mirrors
cast::lint's Finding schema (text and JSON) with rule IDs C001+.

Usage:
  cast_check.py [--strict] [--json] [--repo-root DIR] [paths...]
With no paths, scans <repo-root>/src. Exit 1 on any error-severity
finding; --strict also fails on warnings.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

# Files exempt per rule (substring match on the POSIX relative path).
ANNOTATIONS_HEADER = "common/annotations.hpp"
RNG_HEADER = "common/rng.hpp"
SLEEP_ALLOWED = ("faults", "retry")
THREAD_ALLOWED = ("common/thread_pool.hpp",)
# The allocation-free sim hot path (basename match so fixtures can opt in).
HOT_PATH_BASENAMES = ("flow_engine.hpp", "flow_engine.cpp", "phase_runner.hpp",
                      "mapreduce.cpp")
# The SoA solver hot path (C011): no node-based containers per iteration.
# eval_cache.cpp is deliberately absent — its map is the sanctioned
# memoization structure.
# annealing.hpp holds the shared anneal loop; castpp.cpp the workflow problem;
# soa_eval.hpp the replica state (DAG data included) and fixed_sum.hpp its sums.
SOLVER_HOT_BASENAMES = ("annealing.hpp", "annealing.cpp", "castpp.cpp", "utility.cpp",
                        "soa_eval.hpp", "soa_eval.cpp", "fixed_sum.hpp", "reg_split.hpp",
                        "reg_split.cpp")

NO_TSA_BUDGET = 3

SEVERITIES = {"C006": "warning"}  # everything else is an error


def severity(rule: str) -> str:
    return SEVERITIES.get(rule, "error")


def strip_comments_and_strings(text: str) -> str:
    """Blank out comments and string/char literals, preserving line structure.

    Replaced characters become spaces so line/column arithmetic and word
    boundaries survive. Handles //, /* */, "..." and '...' with escapes;
    raw strings are not used in this codebase (and would only over-strip).
    """
    out = list(text)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                out[i] = " "
                i += 1
        elif c == "/" and nxt == "*":
            out[i] = out[i + 1] = " "
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n and text[i + 1] == "/"):
                if text[i] != "\n":
                    out[i] = " "
                i += 1
            if i < n:
                out[i] = " "
                if i + 1 < n:
                    out[i + 1] = " "
                i += 2
        elif c in "\"'":
            quote = c
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\" and i + 1 < n:
                    out[i] = " "
                    if text[i + 1] != "\n":
                        out[i + 1] = " "
                    i += 2
                    continue
                if text[i] != "\n":
                    out[i] = " "
                i += 1
            i += 1
        else:
            i += 1
    return "".join(out)


def finding(rule: str, path: str, line: int, message: str, fix_hint: str = "") -> dict:
    return {
        "rule": rule,
        "severity": severity(rule),
        "subject": path,
        "message": message,
        "fix_hint": fix_hint,
        "line": line,
    }


# --- per-rule matchers over the stripped text -------------------------------

C001_RE = re.compile(
    r"std::(mutex|timed_mutex|recursive_mutex|recursive_timed_mutex|shared_mutex|"
    r"shared_timed_mutex|lock_guard|unique_lock|scoped_lock|shared_lock)\b"
)
C002_RE = re.compile(r"std::condition_variable(_any)?\b")
C003_RES = (
    (re.compile(r"(?<![\w:])s?rand\s*\("), "rand()/srand()"),
    (re.compile(r"std::random_device\b"), "std::random_device"),
    (re.compile(r"std::mt19937(_64)?\b"), "std::mt19937"),
    (re.compile(r"(?<![\w:.])time\s*\(\s*(nullptr|NULL|0)\s*\)"), "time()"),
)
C004_RE = re.compile(r"std::this_thread::sleep_(for|until)\b|(?<![\w:])u?sleep\s*\(")
C005_RE = re.compile(r"(?<![\w:.])new\b(?!\s*\()|(?<![\w:.])(malloc|calloc|realloc)\s*\(")
C006_DECL_RE = re.compile(
    r"^\s*(?:(?:virtual|static|constexpr|inline|explicit|friend)\s+)*"
    r"(?P<ret>[A-Za-z_][\w:]*(?:\s*<[^;={}()]*>)?(?:\s*[&*])*)\s+"
    r"(?P<name>try_\w+|\w+_or_null)\s*\("
)
C007_RE = re.compile(r"\bCAST_NO_TSA\b")
C008_RE = re.compile(r"std::(thread|jthread)\b(?!::)")
C010_RE = re.compile(r"std::cerr\b|(?<!\w)fprintf\s*\(\s*stderr\b")
# \b after the name keeps algorithms like std::set_difference /
# std::set_union out of scope (underscore is a word character).
C011_RE = re.compile(r"std::(unordered_map|unordered_set|multimap|multiset|map|set)\b")


def check_file(root: Path, path: Path) -> tuple[list[dict], int]:
    """Lint one file; returns (findings, no_tsa_escape_count)."""
    rel = path.relative_to(root).as_posix() if path.is_relative_to(root) else path.as_posix()
    raw = path.read_text(encoding="utf-8", errors="replace")
    raw_lines = raw.splitlines()
    code = strip_comments_and_strings(raw)
    lines = code.splitlines()
    found: list[dict] = []
    escapes = 0

    in_annotations_header = rel.endswith(ANNOTATIONS_HEADER)
    in_rng_header = rel.endswith(RNG_HEADER)
    sleep_ok = any(token in rel for token in SLEEP_ALLOWED)
    thread_ok = any(rel.endswith(a) for a in THREAD_ALLOWED)
    hot_path = path.name in HOT_PATH_BASENAMES
    solver_hot = path.name in SOLVER_HOT_BASENAMES
    serve_no_cerr = "serve/" in rel and "obs/" not in rel

    for idx, line in enumerate(lines, start=1):
        if not in_annotations_header:
            if m := C001_RE.search(line):
                found.append(finding(
                    "C001", rel, idx,
                    f"naked std::{m.group(1)}; lock types outside "
                    f"{ANNOTATIONS_HEADER} are invisible to the thread-safety "
                    "analysis",
                    "use cast::Mutex / cast::LockGuard / cast::UniqueLock"))
            if C002_RE.search(line):
                found.append(finding(
                    "C002", rel, idx,
                    "naked std::condition_variable; waits outside the annotated "
                    "wrapper evade the thread-safety analysis",
                    "use cast::CondVar with cast::UniqueLock"))
        if not in_rng_header:
            for rex, what in C003_RES:
                if rex.search(line):
                    found.append(finding(
                        "C003", rel, idx,
                        f"{what} breaks seed-reproducibility; every stochastic "
                        "component must take an explicit seed",
                        "draw from cast::Rng (common/rng.hpp)"))
        if not sleep_ok and C004_RE.search(line):
            found.append(finding(
                "C004", rel, idx,
                "real sleep outside the fault-injection/retry layer",
                "use cast::sleep_backoff_ms (common/retry.hpp) or move the "
                "stall into an injector"))
        if hot_path and C005_RE.search(line):
            found.append(finding(
                "C005", rel, idx,
                "allocation in the sim hot path; the steady-state contract "
                "is allocation-free (PR 4)",
                "preallocate in setup or reuse pooled storage"))
        if m := C006_DECL_RE.match(line):
            ret = m.group("ret").strip()
            context = (raw_lines[idx - 2] if idx >= 2 else "") + " " + raw_lines[idx - 1]
            if ret not in ("void", "return", "delete", "case", "goto", "else",
                           "co_return", "throw", "new") and \
                    "[[nodiscard]]" not in context and "CAST_NODISCARD" not in context:
                found.append(finding(
                    "C006", rel, idx,
                    f"{m.group('name')} returns {ret} without [[nodiscard]]; "
                    "a dropped failure result is a silent bug",
                    "annotate the declaration [[nodiscard]]"))
        if C007_RE.search(line) and "#define" not in line:
            escapes += 1
            comment = raw_lines[idx - 1].split("//", 1)
            justification = comment[1].strip() if len(comment) > 1 else ""
            if len(justification) < 10:
                found.append(finding(
                    "C007", rel, idx,
                    "CAST_NO_TSA escape without a same-line justification "
                    "comment",
                    "append `// justified: <why the analysis cannot model "
                    "this>` or restructure so it can"))
        if solver_hot and (m := C011_RE.search(line)):
            found.append(finding(
                "C011", rel, idx,
                f"std::{m.group(1)} in the solver hot path; node-based "
                "containers wreck the SoA cache density the inner loop "
                "depends on (PR 9)",
                "use flat vectors/arrays indexed by job or tier; memoization "
                "belongs in the EvalCache (eval_cache.cpp)"))
        if not thread_ok and C008_RE.search(line):
            found.append(finding(
                "C008", rel, idx,
                "ad-hoc std::thread; all runtime threads belong to "
                "cast::ThreadPool",
                "submit work to a ThreadPool instead of spawning a thread"))
        if serve_no_cerr and C010_RE.search(line):
            found.append(finding(
                "C010", rel, idx,
                "ad-hoc stderr telemetry in the serve layer; counters logged "
                "to std::cerr are invisible to the metrics registry and race "
                "with table output",
                "record through obs::MetricsRegistry (counter/gauge/histogram) "
                "or buffer a span in obs::TraceRing"))
    return found, escapes


def try_libclang_refine(findings: list[dict], paths: list[Path]) -> list[dict]:
    """When libclang python bindings exist, drop C006 findings that a real
    parse shows are not function declarations (regex false positives).
    Silently a no-op otherwise — the regex pass is the portable baseline."""
    try:
        from clang import cindex  # type: ignore
    except Exception:
        return findings
    keep: list[dict] = []
    index = cindex.Index.create()
    decl_lines: dict[str, set[int]] = {}
    for path in paths:
        try:
            tu = index.parse(str(path), args=["-std=c++20", "-fsyntax-only"])
        except Exception:
            continue
        for cursor in tu.cursor.walk_preorder():
            if cursor.kind in (cindex.CursorKind.FUNCTION_DECL,
                               cindex.CursorKind.CXX_METHOD) and cursor.location.file:
                decl_lines.setdefault(cursor.location.file.name, set()).add(
                    cursor.location.line)
    for f in findings:
        if f["rule"] != "C006":
            keep.append(f)
            continue
        lines = decl_lines.get(f["subject"])
        if lines is None or f["line"] in lines:
            keep.append(f)
    return keep


def write_json(findings: list[dict], source: str, out) -> None:
    """Same shape as cast::lint's Report::write_json."""
    errors = sum(1 for f in findings if f["severity"] == "error")
    warnings = sum(1 for f in findings if f["severity"] == "warning")
    doc = {"source": source, "errors": errors, "warnings": warnings, "findings": []}
    order = {"error": 0, "warning": 1, "info": 2}
    for f in sorted(findings, key=lambda f: (order[f["severity"]], f["rule"],
                                             f["subject"], f["line"])):
        entry = {"rule": f["rule"], "severity": f["severity"],
                 "subject": f["subject"], "message": f["message"]}
        if f["fix_hint"]:
            entry["fix_hint"] = f["fix_hint"]
        entry["line"] = f["line"]
        doc["findings"].append(entry)
    json.dump(doc, out)
    out.write("\n")


def write_text(findings: list[dict], out) -> None:
    order = {"error": 0, "warning": 1, "info": 2}
    for f in sorted(findings, key=lambda f: (order[f["severity"]], f["rule"],
                                             f["subject"], f["line"])):
        hint = f". hint: {f['fix_hint']}" if f["fix_hint"] else ""
        out.write(f"{f['severity']} {f['rule']} [{f['subject']}] "
                  f"(line {f['line']}): {f['message']}{hint}\n")
    errors = sum(1 for f in findings if f["severity"] == "error")
    warnings = sum(1 for f in findings if f["severity"] == "warning")
    out.write(f"{errors} error(s), {warnings} warning(s)\n")


def main() -> int:
    parser = argparse.ArgumentParser(
        description="CAST source linter (concurrency + determinism discipline)")
    parser.add_argument("paths", nargs="*", type=Path,
                        help="files or directories (default: <repo-root>/src)")
    parser.add_argument("--repo-root", type=Path,
                        default=Path(__file__).resolve().parent.parent)
    parser.add_argument("--json", action="store_true", help="JSON report (cast_lint shape)")
    parser.add_argument("--strict", action="store_true",
                        help="exit non-zero on warnings too")
    args = parser.parse_args()

    root = args.repo_root.resolve()
    roots = [p.resolve() for p in args.paths] if args.paths else [root / "src"]
    files: list[Path] = []
    for r in roots:
        if r.is_dir():
            files.extend(sorted(p for p in r.rglob("*") if p.suffix in (".hpp", ".cpp", ".h")))
        elif r.is_file():
            files.append(r)
        else:
            print(f"cast_check: no such path: {r}", file=sys.stderr)
            return 2

    findings: list[dict] = []
    total_escapes = 0
    for path in files:
        f, escapes = check_file(root, path)
        findings.extend(f)
        total_escapes += escapes
    if total_escapes > NO_TSA_BUDGET:
        findings.append(finding(
            "C009", "(repo)", 1,
            f"{total_escapes} CAST_NO_TSA escapes exceed the repo-wide budget "
            f"of {NO_TSA_BUDGET}",
            "restructure the newest escape so the analysis can check it"))
    findings = try_libclang_refine(findings, files)

    source = ", ".join(str(r) for r in roots)
    if args.json:
        write_json(findings, source, sys.stdout)
    else:
        write_text(findings, sys.stdout)

    has_error = any(f["severity"] == "error" for f in findings)
    if has_error or (args.strict and findings):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
