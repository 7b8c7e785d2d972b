// pl-lint: the project's in-tree static analyzer.
//
// A dependency-free (no libclang) tokenizer + rule engine that enforces the
// determinism and hygiene invariants the pipeline's bit-identity guarantee
// rests on (DESIGN.md §10). Rules are named, individually suppressible via
// `// pl-lint: allow(rule-id)` comments, and path-scoped: production rules
// (metric naming, naked new) apply under src/ only, while the
// nondeterminism bans cover tests and examples too.
//
// The engine is deliberately heuristic — it resolves declarations within a
// single translation unit's tokens, not across headers — so it errs on the
// side of flagging and lets a justified suppression comment record why a
// site is safe. The suppression budget (declared vs. used counts per rule)
// is part of every report, so silenced findings stay visible.
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace pl::lint {

/// One diagnostic: `file:line: rule-id: message`.
struct Finding {
  std::string file;  ///< repo-relative path
  int line = 0;
  std::string rule;
  std::string message;
};

/// Per-rule suppression accounting: how many allow() comments a file
/// declares and how many actually silenced a finding.
struct SuppressionBudget {
  int declared = 0;
  int used = 0;
};

/// Result of linting one file or a whole tree.
struct Report {
  std::vector<Finding> findings;
  std::map<std::string, SuppressionBudget> suppressions;  ///< by rule id
  int files_scanned = 0;

  bool clean() const noexcept { return findings.empty(); }
  void merge(const Report& other);
};

/// Static description of one rule for --list-rules.
struct RuleInfo {
  std::string_view id;
  std::string_view summary;
};

/// The full rule catalog, in stable order.
const std::vector<RuleInfo>& rule_catalog();

/// Lint one source text. `relpath` is the repo-relative path ("src/..." /
/// "tests/..." / ...); it selects which rules apply and appears in the
/// findings. Pure: no filesystem access.
Report lint_source(std::string_view relpath, std::string_view content);

}  // namespace pl::lint
