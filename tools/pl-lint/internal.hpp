// pl-lint internals shared between the per-file rule engine (lint.cpp) and
// the whole-program model extractor (model.cpp): the tokenizer, the
// suppression-directive parser and token-walk helpers. Nothing here is part
// of the public analyzer API (lint.hpp / model.hpp); tests reach it only
// through those.
#pragma once

#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "lint.hpp"

namespace pl::lint::detail {

// ---------------------------------------------------------------------------
// Tokenizer. Comments and literals never reach the rule passes as code;
// comments are kept separately (they carry the suppression directives) and
// string literals keep their content (the naming rules inspect them).

struct Token {
  enum class Kind { kIdent, kNumber, kString, kChar, kPunct };
  Kind kind;
  std::string text;  ///< for kString: the unquoted content
  int line;
};

struct Comment {
  std::string text;
  int line;  ///< line the comment ends on
};

struct Lexed {
  std::vector<Token> tokens;
  std::vector<Comment> comments;
  std::vector<std::string> raw_lines;
};

Lexed lex(std::string_view text);

// ---------------------------------------------------------------------------
// Suppressions: `// pl-lint: allow(rule)` / `allow-file(rule)` silence the
// per-file rules; `// pl-lint: det-ok(reason)` annotates the enclosing
// function as determinism-reviewed for the cross-TU taint pass. Every
// directive keeps its source span so the program model can re-apply file
// suppressions to model-rule findings without re-lexing.

/// One allow() directive, resolved to the line range it covers.
struct AllowSpan {
  std::string rule;
  int from = 0;       ///< first covered line
  int to = 0;         ///< last covered line (== from for single-line)
  bool file_wide = false;
};

/// One det-ok(reason) annotation; attaches to the function whose definition
/// contains (or immediately follows) the comment block.
struct DetOk {
  int line = 0;     ///< line of the directive comment
  int through = 0;  ///< first code line after the comment block
};

struct Suppressions {
  std::map<int, std::set<std::string>> by_line;  ///< line -> rule ids
  std::set<std::string> file_wide;
  std::map<std::string, SuppressionBudget> budget;
  std::vector<AllowSpan> spans;
  std::vector<DetOk> det_ok;
};

Suppressions parse_suppressions(const std::vector<Comment>& comments);

// ---------------------------------------------------------------------------
// Shared token helpers.

using Tokens = std::vector<Token>;

bool starts_with(std::string_view text, std::string_view prefix);
bool ends_with(std::string_view text, std::string_view suffix);
bool is_header(std::string_view relpath);
bool is_ident(const Tokens& tokens, std::size_t i, std::string_view text);
bool is_punct(const Tokens& tokens, std::size_t i, std::string_view text);

/// True when token `i` is reached through `.` / `->`, or through a `::`
/// whose qualifier is not `std` — i.e. it is NOT the bare/std-qualified
/// name the nondeterminism bans target.
bool non_std_qualified(const Tokens& tokens, std::size_t i);

/// Index just past a balanced `( ... )` starting at `open` (which must be
/// `(`); tokens.size() when unbalanced.
std::size_t skip_parens(const Tokens& tokens, std::size_t open);

/// One unordered-container drain site (a range-for over an unordered
/// container declared in this TU, with no sorted-drain escape). Shared by
/// the per-file unordered-drain rule and the taint pass's sink scan.
struct DrainSite {
  std::size_t token_index = 0;  ///< the `for` token
  int line = 0;
  std::string name;  ///< the container variable
};

std::vector<DrainSite> find_unordered_drains(const Tokens& tokens);

/// Run the per-file rule passes over an already-lexed file. lint_source is
/// a thin wrapper (lex + parse_suppressions + this); the program-model
/// extractor calls it directly so a file is lexed exactly once.
Report run_file_rules(std::string_view relpath, const Lexed& lexed,
                      const Suppressions& suppressions);

}  // namespace pl::lint::detail
