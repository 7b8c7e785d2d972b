// pl-lint whole-program model (DESIGN.md §15).
//
// The per-file rule engine (lint.hpp) sees one translation unit at a time,
// so a call chain that reaches a wall clock through two hops, or a low
// layer quietly including a high one, is invisible to it. This half of the
// analyzer builds one model over every scanned file — an include graph
// checked against the architecture manifest (layers.txt), and a symbol
// index + call graph recovered from the same tokenizer — and runs the four
// cross-TU rules on it:
//
//   layer-violation    an include edge against the manifest DAG
//   include-cycle      a cycle anywhere in the project include graph
//   determinism-taint  a src/ function transitively reaching a
//                      rand/clock/unordered-drain sink with no
//                      `// pl-lint: det-ok(reason)` on the path
//   dead-public-api    a free function exported by a src/ header that no
//                      other translation unit references
//
// Per-file extraction (`extract_file_model`) is pure; the cross-TU passes
// (`analyze_program`) run over the extracted models. A model-rule finding
// is silenced only by a justified allow() comment in the file it anchors
// in, exactly like a per-file rule finding.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "internal.hpp"
#include "lint.hpp"

namespace pl::lint {

// ---------------------------------------------------------------------------
// Per-file model.

/// One `#include "..."` directive, as written.
struct IncludeEdge {
  std::string target;
  int line = 0;
};

/// One nondeterminism sink occurrence inside a function body.
/// kind: "rand" | "clock" | "time" | "unordered-drain".
struct SinkHit {
  std::string kind;
  std::string token;  ///< the offending identifier / container name
  int line = 0;
};

/// One call site inside a function body, overload-insensitive.
struct CallSite {
  std::string name;  ///< last identifier of the callee chain
  std::string qual;  ///< explicit qualifier ("util", "obs::Span"), or ""
  bool member = false;  ///< reached through `.` / `->`
};

/// One function recovered from the tokens: a definition (with body-derived
/// calls and sinks) or a bare declaration (headers).
struct FunctionSym {
  std::string qname;  ///< "pl::dele::parse_line" / "pl::obs::Span::finish"
  std::string name;   ///< last component
  std::string klass;  ///< enclosing class, "" for free functions
  int line = 0;
  int end_line = 0;
  bool is_definition = false;
  bool det_ok = false;
  std::vector<CallSite> calls;
  std::vector<SinkHit> sinks;
};

/// Everything the cross-TU passes need from one file.
struct FileModel {
  std::string relpath;
  std::vector<IncludeEdge> includes;
  std::vector<FunctionSym> functions;
  std::vector<std::string> refs;  ///< sorted unique identifiers in the file
  Report file_report;             ///< per-file rule findings + budgets
  std::vector<detail::AllowSpan> allows;  ///< for model-rule suppression
  int det_ok_declared = 0;  ///< det-ok annotations written in the file
};

/// Extract the model for one file: per-file rule report + include edges +
/// symbol/call/sink index. Pure: no filesystem access.
FileModel extract_file_model(std::string_view relpath,
                             std::string_view content);

// ---------------------------------------------------------------------------
// Architecture manifest (layers.txt).

/// Parsed `a < b < {c, d} < e` chain: rank per subsystem, lowest first.
/// Subsystems inside one `{...}` group share a rank and must stay mutually
/// independent.
struct LayerManifest {
  std::map<std::string, int> rank;

  bool empty() const noexcept { return rank.empty(); }
};

/// Parse the manifest text. Grammar: one `<`-separated chain (line breaks
/// allowed), `#` comments, `{a, b}` groups. nullopt on malformed input or a
/// subsystem named twice.
std::optional<LayerManifest> parse_layers(std::string_view text);

/// Subsystem of a repo-relative path: second component for src/ files
/// ("src/util/date.hpp" -> "util"), "" otherwise.
std::string subsystem_of(std::string_view relpath);

// ---------------------------------------------------------------------------
// Whole-program analysis.

/// One taint chain: root function -> ... -> sink-bearing function, plus the
/// sink itself.
struct TaintWitness {
  std::string root;  ///< qname of the flagged src/ function
  std::string file;
  int line = 0;
  std::vector<std::string> path;  ///< qnames, root first
  SinkHit sink;
  std::string sink_file;
};

/// One dead exported symbol.
struct DeadSymbol {
  std::string qname;
  std::string file;
  int line = 0;
};

struct ProgramAnalysis {
  Report report;  ///< findings of the four model rules
  std::vector<TaintWitness> taint;
  std::vector<DeadSymbol> dead;
  int functions = 0;  ///< symbol-index size (definitions)
  int calls = 0;      ///< resolved call-graph edges
  int det_ok_used = 0;  ///< det-ok annotations that cut a live taint path
};

/// Run the four cross-TU rules over the models. File-level allow()
/// suppressions are honoured (and counted into report.suppressions);
/// det-ok annotations are counted under the pseudo-rule "det-ok".
ProgramAnalysis analyze_program(const std::vector<FileModel>& models,
                                const LayerManifest& manifest);

}  // namespace pl::lint
