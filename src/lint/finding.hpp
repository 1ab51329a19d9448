// Structured diagnostics for the cast::lint static analyzer.
//
// A Finding is one rule violation: the stable rule ID ("L014"), a severity,
// the subject it is about ("job 'Sort-3'"), a human-readable message, an
// optional fix hint, and — when the input came from a spec file with a
// SpecSourceMap — the 1-based source line. A Report is the outcome of one
// analyzer run: the findings plus text/JSON serialization and the
// error/warning rollups that drive exit codes and pre-solve rejection.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace cast::lint {

/// Ordered so that max_severity() is a plain max over findings.
enum class Severity : int {
    kInfo = 0,
    kWarning = 1,
    kError = 2,
};

[[nodiscard]] std::string_view severity_name(Severity s);

struct Finding {
    std::string rule;     // stable ID, "L001"..."L018" ("L000" = unparsable)
    Severity severity = Severity::kWarning;
    std::string subject;  // what the finding is about, e.g. "job 'Sort-3'"
    std::string message;  // the violated invariant, concretely
    std::string fix_hint; // optional remediation, "" when none applies
    std::optional<int> line = std::nullopt;  // 1-based spec line, when a source map is known

    /// One-line rendering: "error L014 [job 'x'] (line 4): message. hint: ..."
    [[nodiscard]] std::string format() const;
};

/// Result of one analyzer run over a lint input.
struct Report {
    std::vector<Finding> findings;

    [[nodiscard]] Severity max_severity() const;
    [[nodiscard]] std::size_t count(Severity s) const;
    /// No error-severity findings (warnings/info allowed).
    [[nodiscard]] bool ok() const { return count(Severity::kError) == 0; }
    /// No findings at all.
    [[nodiscard]] bool clean() const { return findings.empty(); }
    /// Findings of exactly one severity, in report order.
    [[nodiscard]] std::vector<const Finding*> at(Severity s) const;

    /// One finding per line, errors first, then warnings, then info.
    void write_text(std::ostream& os) const;
    /// Machine-readable form (one JSON object; `source` labels the input).
    void write_json(std::ostream& os, const std::string& source = "") const;

    void add(Finding f) { findings.push_back(std::move(f)); }
    void merge(Report other);
};

/// Throw ValidationError naming every error-severity finding; no-op when
/// the report is ok(). This is the pre-solve/pre-deploy rejection hook.
void enforce(const Report& report);

/// Downgrade every finding of `rule` to `severity`. Hooks whose contract
/// requires a best-effort result (the workflow solver and deployer must
/// still produce/execute a plan under an unattainable deadline, §5.2.2's
/// miss-counting baselines depend on it) demote L009 with this before
/// enforce(); the CLI and library keep the rule's default severity.
void demote(Report& report, std::string_view rule, Severity severity);

}  // namespace cast::lint
