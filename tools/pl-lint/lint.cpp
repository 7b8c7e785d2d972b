#include "lint.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <set>
#include <utility>

#include "internal.hpp"

namespace pl::lint {

namespace detail {

// ---------------------------------------------------------------------------
// Tokenizer.

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.compare(0, prefix.size(), prefix) == 0;
}

bool ends_with(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.compare(text.size() - suffix.size(), suffix.size(), suffix) ==
             0;
}

bool is_header(std::string_view relpath) {
  return ends_with(relpath, ".hpp") || ends_with(relpath, ".h");
}

namespace {

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

}  // namespace

Lexed lex(std::string_view text) {
  Lexed out;
  {
    std::size_t start = 0;
    for (std::size_t i = 0; i <= text.size(); ++i)
      if (i == text.size() || text[i] == '\n') {
        out.raw_lines.emplace_back(text.substr(start, i - start));
        start = i + 1;
      }
  }

  int line = 1;
  std::size_t i = 0;
  const auto push = [&](Token::Kind kind, std::string token_text) {
    out.tokens.push_back(Token{kind, std::move(token_text), line});
  };

  while (i < text.size()) {
    const char c = text[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // Line comment.
    if (c == '/' && i + 1 < text.size() && text[i + 1] == '/') {
      const std::size_t end = text.find('\n', i);
      const std::size_t stop = end == std::string_view::npos ? text.size()
                                                             : end;
      out.comments.push_back(
          Comment{std::string(text.substr(i + 2, stop - i - 2)), line});
      i = stop;
      continue;
    }
    // Block comment.
    if (c == '/' && i + 1 < text.size() && text[i + 1] == '*') {
      const std::size_t end = text.find("*/", i + 2);
      const std::size_t body_end =
          end == std::string_view::npos ? text.size() : end;
      const std::size_t stop =
          end == std::string_view::npos ? text.size() : end + 2;
      std::string body(text.substr(i + 2, body_end - i - 2));
      line += static_cast<int>(
          std::count(text.begin() + static_cast<std::ptrdiff_t>(i),
                     text.begin() + static_cast<std::ptrdiff_t>(stop), '\n'));
      out.comments.push_back(Comment{std::move(body), line});
      i = stop;
      continue;
    }
    // Raw string literal: R"delim( ... )delim".
    if (c == 'R' && i + 1 < text.size() && text[i + 1] == '"' &&
        (out.tokens.empty() || out.tokens.back().text != "::")) {
      const std::size_t open = text.find('(', i + 2);
      if (open != std::string_view::npos) {
        const std::string delim(text.substr(i + 2, open - i - 2));
        const std::string closer = ")" + delim + "\"";
        const std::size_t end = text.find(closer, open + 1);
        const std::size_t stop =
            end == std::string_view::npos ? text.size()
                                          : end + closer.size();
        push(Token::Kind::kString,
             std::string(text.substr(open + 1, end == std::string_view::npos
                                                   ? stop - open - 1
                                                   : end - open - 1)));
        line += static_cast<int>(std::count(
            text.begin() + static_cast<std::ptrdiff_t>(i),
            text.begin() + static_cast<std::ptrdiff_t>(stop), '\n'));
        i = stop;
        continue;
      }
    }
    // String literal.
    if (c == '"') {
      std::string content;
      ++i;
      while (i < text.size() && text[i] != '"') {
        if (text[i] == '\\' && i + 1 < text.size()) {
          content += text[i];
          content += text[i + 1];
          i += 2;
          continue;
        }
        if (text[i] == '\n') ++line;
        content += text[i];
        ++i;
      }
      ++i;  // closing quote
      push(Token::Kind::kString, std::move(content));
      continue;
    }
    // Character literal (also catches digit separators poorly — fine).
    if (c == '\'' && !out.tokens.empty() &&
        out.tokens.back().kind != Token::Kind::kNumber) {
      std::size_t j = i + 1;
      while (j < text.size() && text[j] != '\'') {
        if (text[j] == '\\') ++j;
        ++j;
      }
      push(Token::Kind::kChar, std::string(text.substr(i + 1, j - i - 1)));
      i = j + 1;
      continue;
    }
    if (c == '\'') {  // digit separator inside a number: skip
      ++i;
      continue;
    }
    if (ident_start(c)) {
      std::size_t j = i + 1;
      while (j < text.size() && ident_char(text[j])) ++j;
      push(Token::Kind::kIdent, std::string(text.substr(i, j - i)));
      i = j;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      std::size_t j = i + 1;
      while (j < text.size() &&
             (ident_char(text[j]) || text[j] == '.' ||
              ((text[j] == '+' || text[j] == '-') &&
               (text[j - 1] == 'e' || text[j - 1] == 'E'))))
        ++j;
      push(Token::Kind::kNumber, std::string(text.substr(i, j - i)));
      i = j;
      continue;
    }
    // Punctuation: keep `::` and `->` joined, everything else single-char.
    if (c == ':' && i + 1 < text.size() && text[i + 1] == ':') {
      push(Token::Kind::kPunct, "::");
      i += 2;
      continue;
    }
    if (c == '-' && i + 1 < text.size() && text[i + 1] == '>') {
      push(Token::Kind::kPunct, "->");
      i += 2;
      continue;
    }
    push(Token::Kind::kPunct, std::string(1, c));
    ++i;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Suppressions: `// pl-lint: allow(rule-a, rule-b)` silences findings from
// the comment's own line through the first code line after the comment block
// (so a multi-line justification still covers the statement it precedes);
// `allow-file(...)` covers the file; `det-ok(reason)` annotates the
// enclosing function for the determinism-taint pass. Only a comment that
// starts with `pl-lint:` is a directive.

namespace {

void parse_directive(std::string_view body, bool file_wide, int comment_line,
                     int through_line, Suppressions& out) {
  const std::size_t open = body.find('(');
  const std::size_t close = body.find(')', open);
  if (open == std::string_view::npos || close == std::string_view::npos)
    return;
  std::string_view list = body.substr(open + 1, close - open - 1);
  while (!list.empty()) {
    const std::size_t comma = list.find(',');
    std::string_view id = list.substr(0, comma);
    while (!id.empty() && std::isspace(static_cast<unsigned char>(id.front())))
      id.remove_prefix(1);
    while (!id.empty() && std::isspace(static_cast<unsigned char>(id.back())))
      id.remove_suffix(1);
    if (!id.empty()) {
      ++out.budget[std::string(id)].declared;
      out.spans.push_back(AllowSpan{std::string(id), comment_line,
                                    through_line, file_wide});
      if (file_wide) {
        out.file_wide.insert(std::string(id));
      } else {
        for (int line = comment_line; line <= through_line; ++line)
          out.by_line[line].insert(std::string(id));
      }
    }
    if (comma == std::string_view::npos) break;
    list.remove_prefix(comma + 1);
  }
}

}  // namespace

Suppressions parse_suppressions(const std::vector<Comment>& comments) {
  Suppressions out;
  std::set<int> comment_lines;
  for (const Comment& comment : comments) comment_lines.insert(comment.line);
  for (const Comment& comment : comments) {
    // The directive must open the comment (doc-comment markers and spaces
    // aside) and name its kind first.
    std::string_view rest = comment.text;
    const auto skip = [&rest](std::string_view chars) {
      rest.remove_prefix(std::min(rest.find_first_not_of(chars), rest.size()));
    };
    skip("/*! \t");
    if (!rest.starts_with("pl-lint:")) continue;
    rest.remove_prefix(8);
    skip(" \t");
    // Extend through the contiguous comment block so the justification can
    // span lines and the suppression still reaches the code underneath.
    int through = comment.line;
    while (comment_lines.contains(through + 1)) ++through;
    ++through;  // the first code line after the block
    if (rest.starts_with("det-ok"))
      out.det_ok.push_back(DetOk{comment.line, through});
    else if (rest.starts_with("allow-file"))
      parse_directive(rest, /*file_wide=*/true, comment.line, through, out);
    else if (rest.starts_with("allow"))
      parse_directive(rest, /*file_wide=*/false, comment.line, through, out);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Shared token helpers.

bool is_ident(const Tokens& tokens, std::size_t i, std::string_view text) {
  return i < tokens.size() && tokens[i].kind == Token::Kind::kIdent &&
         tokens[i].text == text;
}

bool is_punct(const Tokens& tokens, std::size_t i, std::string_view text) {
  return i < tokens.size() && tokens[i].kind == Token::Kind::kPunct &&
         tokens[i].text == text;
}

bool non_std_qualified(const Tokens& tokens, std::size_t i) {
  if (i == 0) return false;
  if (is_punct(tokens, i - 1, ".") || is_punct(tokens, i - 1, "->"))
    return true;
  if (is_punct(tokens, i - 1, "::"))
    return !(i >= 2 && is_ident(tokens, i - 2, "std"));
  return false;
}

std::size_t skip_parens(const Tokens& tokens, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < tokens.size(); ++i) {
    if (is_punct(tokens, i, "(")) ++depth;
    if (is_punct(tokens, i, ")") && --depth == 0) return i + 1;
  }
  return tokens.size();
}

/// Index just past the statement starting at `i`: a balanced `{...}` block,
/// or everything up to and including the next top-level `;`.
std::size_t skip_statement(const Tokens& tokens, std::size_t i) {
  if (is_punct(tokens, i, "{")) {
    int depth = 0;
    for (std::size_t j = i; j < tokens.size(); ++j) {
      if (is_punct(tokens, j, "{")) ++depth;
      if (is_punct(tokens, j, "}") && --depth == 0) return j + 1;
    }
    return tokens.size();
  }
  int parens = 0;
  int braces = 0;
  for (std::size_t j = i; j < tokens.size(); ++j) {
    if (tokens[j].kind == Token::Kind::kPunct) {
      const std::string& p = tokens[j].text;
      if (p == "(" || p == "[") ++parens;
      if (p == ")" || p == "]") --parens;
      if (p == "{") ++braces;
      if (p == "}") --braces;
      if (p == ";" && parens <= 0 && braces <= 0) return j + 1;
    }
  }
  return tokens.size();
}

bool range_contains_ident(const Tokens& tokens, std::size_t begin,
                          std::size_t end, std::string_view text) {
  for (std::size_t i = begin; i < end && i < tokens.size(); ++i)
    if (tokens[i].kind == Token::Kind::kIdent && tokens[i].text == text)
      return true;
  return false;
}

// Unordered-drain detection: iteration over an unordered container declared
// in this translation unit. Hash-table iteration order is
// implementation-defined, so any loop over one that feeds an exporter,
// report, or output vector injects nondeterminism. The accepted idiom is the
// sorted drain: collect keys, std::sort them (inside the loop's statement or
// the one immediately following), then walk in key order.

std::vector<DrainSite> find_unordered_drains(const Tokens& tokens) {
  std::vector<DrainSite> out;

  // Pass 1: names declared in this TU with an unordered container type.
  std::set<std::string> unordered_names;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    if (tokens[i].kind != Token::Kind::kIdent) continue;
    const std::string& type = tokens[i].text;
    if (type != "unordered_map" && type != "unordered_set" &&
        type != "unordered_multimap" && type != "unordered_multiset")
      continue;
    std::size_t j = i + 1;
    if (is_punct(tokens, j, "<")) {  // skip the template argument list
      int depth = 0;
      for (; j < tokens.size(); ++j) {
        if (is_punct(tokens, j, "<")) ++depth;
        if (is_punct(tokens, j, ">") && --depth == 0) {
          ++j;
          break;
        }
      }
    }
    while (is_punct(tokens, j, "&") || is_punct(tokens, j, "*") ||
           is_ident(tokens, j, "const"))
      ++j;
    if (j < tokens.size() && tokens[j].kind == Token::Kind::kIdent &&
        !is_punct(tokens, j + 1, "("))  // `(` ⇒ function returning one
      unordered_names.insert(tokens[j].text);
  }
  if (unordered_names.empty()) return out;

  // Pass 2: range-for statements whose range expression names one of them.
  for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
    if (!is_ident(tokens, i, "for") || !is_punct(tokens, i + 1, "(")) continue;
    const std::size_t close = skip_parens(tokens, i + 1);
    // Locate the `:` introducing the range expression (depth 1 only).
    std::size_t colon = 0;
    int depth = 0;
    for (std::size_t j = i + 1; j < close; ++j) {
      if (is_punct(tokens, j, "(") || is_punct(tokens, j, "[") ||
          is_punct(tokens, j, "{"))
        ++depth;
      if (is_punct(tokens, j, ")") || is_punct(tokens, j, "]") ||
          is_punct(tokens, j, "}"))
        --depth;
      if (depth == 1 && is_punct(tokens, j, ":")) {
        colon = j;
        break;
      }
      if (depth == 1 && is_punct(tokens, j, ";")) break;  // classic for
    }
    if (colon == 0) continue;
    // Only the top level of the range expression counts: a container name
    // nested inside a call's argument list (`f(probe, &watch)`) is an
    // argument, not the range being iterated.
    std::string hit;
    int range_depth = 1;
    for (std::size_t j = colon + 1; j < close - 1; ++j) {
      if (is_punct(tokens, j, "(") || is_punct(tokens, j, "[") ||
          is_punct(tokens, j, "{"))
        ++range_depth;
      if (is_punct(tokens, j, ")") || is_punct(tokens, j, "]") ||
          is_punct(tokens, j, "}"))
        --range_depth;
      if (range_depth == 1 && tokens[j].kind == Token::Kind::kIdent &&
          unordered_names.contains(tokens[j].text) &&
          !is_punct(tokens, j + 1, "(")) {
        hit = tokens[j].text;
        break;
      }
    }
    if (hit.empty()) continue;
    // Sorted-drain escape: `sort` inside the loop body or the statement
    // immediately after it.
    const std::size_t body_end = skip_statement(tokens, close);
    const std::size_t next_end = skip_statement(tokens, body_end);
    if (range_contains_ident(tokens, close, next_end, "sort")) continue;
    out.push_back(DrainSite{i, tokens[i].line, hit});
  }
  return out;
}

}  // namespace detail

namespace {

using detail::DrainSite;
using detail::Lexed;
using detail::Suppressions;
using detail::Token;
using detail::Tokens;
using detail::ends_with;
using detail::is_header;
using detail::is_ident;
using detail::is_punct;
using detail::non_std_qualified;
using detail::range_contains_ident;
using detail::skip_parens;
using detail::skip_statement;
using detail::starts_with;

// ---------------------------------------------------------------------------
// Path policy: which rules run where.

/// Wall-clock whitelist: the trace layer and the latency histograms measure
/// real time by design (their timings are documented as outside the
/// determinism contract), and the bench/tool trees report human-facing
/// durations.
bool clock_whitelisted(std::string_view relpath) {
  return relpath.find("obs/span.hpp") != std::string_view::npos ||
         relpath.find("obs/latency.hpp") != std::string_view::npos ||
         starts_with(relpath, "bench/") || starts_with(relpath, "tools/");
}

// ---------------------------------------------------------------------------
// Rule context threaded through every pass.

struct Context {
  std::string_view relpath;
  const Lexed* lexed;
  const Suppressions* suppressions;
  Report* report;
  std::map<std::string, SuppressionBudget>* budget;

  void flag(std::string_view rule, int line, std::string message) const {
    if (suppressions->file_wide.contains(std::string(rule))) {
      ++(*budget)[std::string(rule)].used;
      return;
    }
    const auto it = suppressions->by_line.find(line);
    if (it != suppressions->by_line.end() &&
        it->second.contains(std::string(rule))) {
      ++(*budget)[std::string(rule)].used;
      return;
    }
    report->findings.push_back(Finding{std::string(relpath), line,
                                       std::string(rule),
                                       std::move(message)});
  }
};

// ---------------------------------------------------------------------------
// nondet-rand: banned nondeterministic value sources. All randomness must
// come from util::Rng (seeded, forkable, stable across platforms).

void rule_nondet_rand(const Context& ctx) {
  static constexpr std::string_view kBanned[] = {
      "random_device", "srand", "rand_r", "drand48", "lrand48", "mrand48"};
  const Tokens& tokens = ctx.lexed->tokens;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    if (tokens[i].kind != Token::Kind::kIdent) continue;
    for (const std::string_view banned : kBanned)
      if (tokens[i].text == banned && !non_std_qualified(tokens, i))
        ctx.flag("nondet-rand", tokens[i].line,
                 "'" + tokens[i].text +
                     "' is a nondeterministic source; use util::Rng "
                     "(seeded, forkable) instead");
    if (tokens[i].text == "rand" && is_punct(tokens, i + 1, "(") &&
        !non_std_qualified(tokens, i))
      ctx.flag("nondet-rand", tokens[i].line,
               "'rand()' is a nondeterministic source; use util::Rng "
               "(seeded, forkable) instead");
  }
}

// ---------------------------------------------------------------------------
// nondet-time: wall-clock reads outside the whitelisted trace layer. Day
// arithmetic must flow from the simulated calendar (util::Day), never from
// the host clock.

void rule_nondet_time(const Context& ctx) {
  if (clock_whitelisted(ctx.relpath)) return;
  static constexpr std::string_view kBannedClocks[] = {
      "system_clock", "steady_clock", "high_resolution_clock", "gettimeofday",
      "localtime", "localtime_r", "gmtime", "gmtime_r", "clock_gettime"};
  const Tokens& tokens = ctx.lexed->tokens;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    if (tokens[i].kind != Token::Kind::kIdent) continue;
    for (const std::string_view banned : kBannedClocks)
      if (tokens[i].text == banned &&
          (!non_std_qualified(tokens, i) ||
           (i >= 2 && is_ident(tokens, i - 2, "chrono"))))
        ctx.flag("nondet-time", tokens[i].line,
                 "'" + tokens[i].text +
                     "' reads the host clock; derive time from util::Day / "
                     "the trace layer (obs/span.hpp) only");
    // Argless `time()` / `time(nullptr)` / `time(0)` — the classic seed.
    if (tokens[i].text == "time" && is_punct(tokens, i + 1, "(") &&
        !non_std_qualified(tokens, i) &&
        (is_punct(tokens, i + 2, ")") ||
         (is_ident(tokens, i + 2, "nullptr") && is_punct(tokens, i + 3, ")")) ||
         (i + 2 < tokens.size() && tokens[i + 2].text == "0" &&
          is_punct(tokens, i + 3, ")"))))
      ctx.flag("nondet-time", tokens[i].line,
               "argless 'time()' reads the host clock; derive time from "
               "util::Day only");
  }
}

// ---------------------------------------------------------------------------
// unordered-drain: see detail::find_unordered_drains for the detection; the
// rule is just the reporting half. Order-independent folds (e.g. keyed
// inserts into a std::map) need an explicit allow() with a justification.

void rule_unordered_drain(const Context& ctx) {
  for (const DrainSite& site :
       detail::find_unordered_drains(ctx.lexed->tokens))
    ctx.flag("unordered-drain", site.line,
             "iteration over unordered container '" + site.name +
                 "' has implementation-defined order; drain via sorted keys "
                 "or justify with an allow() comment");
}

// ---------------------------------------------------------------------------
// using-namespace-header: a `using namespace` at header scope leaks into
// every includer.

void rule_using_namespace_header(const Context& ctx) {
  if (!is_header(ctx.relpath)) return;
  const Tokens& tokens = ctx.lexed->tokens;
  for (std::size_t i = 0; i + 1 < tokens.size(); ++i)
    if (is_ident(tokens, i, "using") && is_ident(tokens, i + 1, "namespace"))
      ctx.flag("using-namespace-header", tokens[i].line,
               "'using namespace' in a header leaks into every includer; "
               "use scoped using-declarations in .cpp files instead");
}

// ---------------------------------------------------------------------------
// missing-pragma-once: every header must be self-guarding.

void rule_missing_pragma_once(const Context& ctx) {
  if (!is_header(ctx.relpath)) return;
  const Tokens& tokens = ctx.lexed->tokens;
  for (std::size_t i = 0; i + 2 < tokens.size(); ++i)
    if (is_punct(tokens, i, "#") && is_ident(tokens, i + 1, "pragma") &&
        is_ident(tokens, i + 2, "once"))
      return;
  ctx.flag("missing-pragma-once", 1,
           "header lacks '#pragma once'; every header must be "
           "self-guarding");
}

// ---------------------------------------------------------------------------
// naked-new: manual memory management in pipeline code. Ownership flows
// through containers and unique_ptr; a bare new/delete is either a leak
// waiting to happen or a missing std::make_unique.

void rule_naked_new(const Context& ctx) {
  if (!starts_with(ctx.relpath, "src/")) return;
  const Tokens& tokens = ctx.lexed->tokens;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    if (tokens[i].kind != Token::Kind::kIdent) continue;
    if (tokens[i].text == "new") {
      ctx.flag("naked-new", tokens[i].line,
               "naked 'new' in pipeline code; use std::make_unique or a "
               "container");
    } else if (tokens[i].text == "delete") {
      if (i > 0 && is_punct(tokens, i - 1, "=")) continue;  // = delete;
      if (i > 0 && is_ident(tokens, i - 1, "operator")) continue;
      ctx.flag("naked-new", tokens[i].line,
               "naked 'delete' in pipeline code; ownership must be RAII");
    }
  }
}

// ---------------------------------------------------------------------------
// metric-name / span-name: the src/obs naming conventions. Metric names are
// Prometheus-style `pl_<module>_<what>` with optional `{key="value"}`
// labels; span names are lower_snake (":" and "-" allowed for instance
// qualifiers like `registry:apnic`).

bool valid_metric_chars(std::string_view name, bool is_prefix) {
  std::size_t i = 0;
  for (; i < name.size(); ++i) {
    const char c = name[i];
    if (c == '{') break;
    if (!(std::islower(static_cast<unsigned char>(c)) ||
          std::isdigit(static_cast<unsigned char>(c)) || c == '_'))
      return false;
  }
  if (i == name.size()) return true;
  // A label block `{key="value"}` follows. A prefix under construction
  // (literal + dynamic tail) may open the block without closing it; a
  // complete literal must close it.
  return is_prefix || name.back() == '}';
}

void rule_metric_name(const Context& ctx) {
  if (!starts_with(ctx.relpath, "src/")) return;
  const Tokens& tokens = ctx.lexed->tokens;
  for (std::size_t i = 0; i + 2 < tokens.size(); ++i) {
    if (tokens[i].kind != Token::Kind::kIdent) continue;
    const std::string& method = tokens[i].text;
    if (method != "counter" && method != "gauge" && method != "histogram" &&
        method != "latency")
      continue;
    if (i == 0 ||
        !(is_punct(tokens, i - 1, ".") || is_punct(tokens, i - 1, "->")))
      continue;  // only member calls: registry.counter(...)
    if (!is_punct(tokens, i + 1, "(") ||
        tokens[i + 2].kind != Token::Kind::kString)
      continue;
    const std::string& name = tokens[i + 2].text;
    // A literal followed by `+` is a prefix under construction: its tail is
    // dynamic, so only the spelled-out part is validated.
    const bool is_prefix = is_punct(tokens, i + 3, "+");
    const bool ok =
        starts_with(name, "pl_") && valid_metric_chars(name, is_prefix);
    if (!ok)
      ctx.flag("metric-name", tokens[i + 2].line,
               "metric name \"" + name +
                   "\" violates the convention pl_<module>_<what>"
                   "[{label=\"v\"}] (lower_snake, pl_ prefix)");
  }
}

void rule_span_name(const Context& ctx) {
  if (!starts_with(ctx.relpath, "src/")) return;
  const Tokens& tokens = ctx.lexed->tokens;
  for (std::size_t i = 1; i + 2 < tokens.size(); ++i) {
    if (tokens[i].kind != Token::Kind::kIdent) continue;
    const std::string& method = tokens[i].text;
    if (method != "root" && method != "child") continue;
    if (!(is_punct(tokens, i - 1, ".") || is_punct(tokens, i - 1, "->")))
      continue;
    if (!is_punct(tokens, i + 1, "(") ||
        tokens[i + 2].kind != Token::Kind::kString)
      continue;
    const std::string& name = tokens[i + 2].text;
    const bool is_prefix = is_punct(tokens, i + 3, "+");
    bool ok = !name.empty();
    for (std::size_t c = 0; c < name.size() && ok; ++c) {
      const char ch = name[c];
      ok = std::islower(static_cast<unsigned char>(ch)) ||
           std::isdigit(static_cast<unsigned char>(ch)) || ch == '_' ||
           ch == ':' || ch == '-' || ch == '.';
    }
    if (is_prefix && !name.empty() && ok) continue;
    if (!ok)
      ctx.flag("span-name", tokens[i + 2].line,
               "span name \"" + name +
                   "\" violates the convention lower_snake (':' '-' '.' "
                   "allowed for instance qualifiers)");
  }
}

// ---------------------------------------------------------------------------
// self-include-first: a src/ .cpp must include its own header before
// anything else — the cheapest proof the header is self-contained.

void rule_self_include_first(const Context& ctx) {
  const std::string_view relpath = ctx.relpath;
  if (!starts_with(relpath, "src/") || !ends_with(relpath, ".cpp")) return;
  // src/<dir...>/<stem>.cpp  →  expected first include "<dir...>/<stem>.hpp"
  std::string expected(relpath.substr(4));
  expected.replace(expected.size() - 4, 4, ".hpp");

  const Tokens& tokens = ctx.lexed->tokens;
  for (std::size_t i = 0; i + 2 < tokens.size(); ++i) {
    if (!(is_punct(tokens, i, "#") && is_ident(tokens, i + 1, "include")))
      continue;
    if (tokens[i + 2].kind != Token::Kind::kString) continue;  // <...> form
    if (tokens[i + 2].text != expected)
      ctx.flag("self-include-first", tokens[i + 2].line,
               "first project include is \"" + tokens[i + 2].text +
                   "\"; a source file must include its own header (\"" +
                   expected + "\") first to prove it self-contained");
    return;  // only the first quoted include matters
  }
  ctx.flag("self-include-first", 1,
           "source file never includes its own header \"" + expected + "\"");
}

// ---------------------------------------------------------------------------
// status-ignored: a statement that calls a pl::Status / pl::StatusOr
// returning function and discards the result. Both types are [[nodiscard]],
// so the bare call already warns under -W; this rule additionally catches
// the `(void)` cast that silences the compiler, and keeps the check alive
// in builds where the warning is off. Candidate names come from the TU's
// own `Status f(...)` / `StatusOr<T> f(...)` signatures plus a cross-TU
// seed of well-known Status-returning entry points.

void rule_status_ignored(const Context& ctx) {
  if (!starts_with(ctx.relpath, "src/")) return;
  const Tokens& tokens = ctx.lexed->tokens;

  // Pass 1: names with a Status/StatusOr return in this TU, seeded with the
  // Status-returning API surface callers reach through other headers.
  std::set<std::string> status_fns = {
      "save_admin_json", "save_op_json", "save_admin_csv", "save_op_csv",
      "save_snapshot",   "append_wal",   "advance_day",    "checkpoint"};
  for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
    if (tokens[i].kind != Token::Kind::kIdent) continue;
    std::size_t j = i + 1;
    if (tokens[i].text == "StatusOr") {
      if (!is_punct(tokens, j, "<")) continue;
      int depth = 0;
      for (; j < tokens.size(); ++j) {
        if (is_punct(tokens, j, "<")) ++depth;
        if (is_punct(tokens, j, ">") && --depth == 0) {
          ++j;
          break;
        }
      }
    } else if (tokens[i].text != "Status") {
      continue;
    }
    // `Status name (` / `StatusOr<T> name (` — a signature, not a variable.
    if (j < tokens.size() && tokens[j].kind == Token::Kind::kIdent &&
        is_punct(tokens, j + 1, "("))
      status_fns.insert(tokens[j].text);
  }

  // Pass 2: statements that are nothing but the call — `foo(...);`,
  // `obj->foo(...);`, `ns::foo(...);` — optionally behind a `(void)` cast.
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const bool at_start =
        i == 0 || is_punct(tokens, i - 1, ";") ||
        is_punct(tokens, i - 1, "{") || is_punct(tokens, i - 1, "}");
    if (!at_start) continue;
    std::size_t j = i;
    bool void_cast = false;
    if (is_punct(tokens, j, "(") && is_ident(tokens, j + 1, "void") &&
        is_punct(tokens, j + 2, ")")) {
      void_cast = true;
      j += 3;
    }
    if (j >= tokens.size() || tokens[j].kind != Token::Kind::kIdent) continue;
    // Walk the qualified chain `ident ((:: | . | ->) ident)*`; a direct
    // ident-ident pair (declaration, `return foo(...)`) breaks the walk.
    std::size_t last = j;
    std::size_t k = j + 1;
    while (k + 1 < tokens.size() &&
           (is_punct(tokens, k, "::") || is_punct(tokens, k, ".") ||
            is_punct(tokens, k, "->")) &&
           tokens[k + 1].kind == Token::Kind::kIdent) {
      last = k + 1;
      k += 2;
    }
    if (!is_punct(tokens, k, "(")) continue;
    if (!status_fns.contains(tokens[last].text)) continue;
    const std::size_t close = skip_parens(tokens, k);
    if (!is_punct(tokens, close, ";")) continue;
    ctx.flag("status-ignored", tokens[last].line,
             void_cast
                 ? "'(void)' cast discards the pl::Status from '" +
                       tokens[last].text +
                       "' and defeats [[nodiscard]]; handle the status or "
                       "justify with an allow(status-ignored) comment"
                 : "result of '" + tokens[last].text +
                       "' (pl::Status/StatusOr) is discarded; check it, "
                       "propagate it, or justify with an "
                       "allow(status-ignored) comment");
  }
}

// ---------------------------------------------------------------------------
// hot-path-alloc: per-record allocation idioms on the ingest hot path. The
// restore and delegation layers run once per record over 17 years x 5
// registries of archive, so stream-based tokenization (std::stringstream /
// istringstream / ostringstream) and `std::stoi` over a `.substr(...)`
// temporary are banned there — slice std::string_view fields and parse
// numbers in place with std::from_chars. Genuinely cold paths
// (once-per-run reports, error formatting) take an allow() with a
// justification.

void rule_hot_path_alloc(const Context& ctx) {
  if (!starts_with(ctx.relpath, "src/restore/") &&
      !starts_with(ctx.relpath, "src/delegation/"))
    return;
  const Tokens& tokens = ctx.lexed->tokens;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    if (tokens[i].kind != Token::Kind::kIdent) continue;
    const std::string& text = tokens[i].text;
    if (text == "stringstream" || text == "istringstream" ||
        text == "ostringstream") {
      // Skip the include directive's own token (`<sstream>` never lexes as
      // one of these, but a forward mention in a comment is not a token
      // either — any ident hit is a real use or a declaration).
      ctx.flag("hot-path-alloc", tokens[i].line,
               "'std::" + text +
                   "' allocates per use on the ingest hot path; slice "
                   "std::string_view fields and parse with std::from_chars, "
                   "or justify with an allow(hot-path-alloc) comment");
    } else if (text == "stoi" || text == "stol" || text == "stoul" ||
               text == "stoll" || text == "stoull" || text == "stod") {
      if (!is_punct(tokens, i + 1, "(")) continue;
      // `std::stoi(x.substr(...))` materializes a std::string per field;
      // plain stoi over an existing string is not a per-record allocation.
      const std::size_t close = skip_parens(tokens, i + 1);
      if (range_contains_ident(tokens, i + 1, close, "substr"))
        ctx.flag("hot-path-alloc", tokens[i].line,
                 "'" + text +
                     "' over a '.substr(...)' temporary allocates per "
                     "field; parse in place with std::from_chars over a "
                     "std::string_view slice, or justify with an "
                     "allow(hot-path-alloc) comment");
    }
  }
}

// ---------------------------------------------------------------------------
// query-path-untraced: the serving layer promises every query is
// attributable (DESIGN.md §14) — a QueryService / DurableService entry
// point that neither opens a span nor records a flight/request event breaks
// the per-query timeline silently. Heuristic: a non-const method definition
// of either class in src/serve must mention an observability identifier
// (span/child/root, record*, observe, latency, flight, gauge/counter, or a
// note_* helper) somewhere in its body. Const-qualified definitions answer
// from already-recorded state and are exempt, as are constructors.

void rule_query_path_untraced(const Context& ctx) {
  if (!starts_with(ctx.relpath, "src/serve/") ||
      !ends_with(ctx.relpath, ".cpp"))
    return;
  static constexpr std::string_view kMarkers[] = {
      "record", "observe",    "latency", "Span",          "span",
      "child",  "root",       "flight",  "note_crash",    "note_degraded",
      "gauge",  "counter"};
  const Tokens& tokens = ctx.lexed->tokens;
  for (std::size_t i = 0; i + 3 < tokens.size(); ++i) {
    if (tokens[i].kind != Token::Kind::kIdent) continue;
    const std::string& cls = tokens[i].text;
    if (cls != "QueryService" && cls != "DurableService") continue;
    if (!is_punct(tokens, i + 1, "::")) continue;
    if (tokens[i + 2].kind != Token::Kind::kIdent) continue;
    const std::string& method = tokens[i + 2].text;
    if (method == cls) continue;  // constructor: wiring, not serving
    if (!is_punct(tokens, i + 3, "(")) continue;
    const std::size_t after_params = skip_parens(tokens, i + 3);

    // Find the body (skipping trailing qualifiers); a `;` first means this
    // was a declaration or a member call, not a definition.
    bool is_const = false;
    std::size_t body = tokens.size();
    for (std::size_t j = after_params; j < tokens.size(); ++j) {
      if (is_ident(tokens, j, "const")) is_const = true;
      if (is_punct(tokens, j, ";")) break;
      if (is_punct(tokens, j, "{")) {
        body = j;
        break;
      }
    }
    if (body == tokens.size()) continue;
    if (is_const) continue;  // read-only accessor: nothing new to attribute

    int depth = 0;
    std::size_t end = tokens.size();
    for (std::size_t j = body; j < tokens.size(); ++j) {
      if (is_punct(tokens, j, "{")) ++depth;
      if (is_punct(tokens, j, "}") && --depth == 0) {
        end = j;
        break;
      }
    }
    bool instrumented = false;
    for (std::size_t j = body; j < end && !instrumented; ++j) {
      if (tokens[j].kind != Token::Kind::kIdent) continue;
      for (const std::string_view marker : kMarkers) {
        if (tokens[j].text.find(marker) != std::string::npos) {
          instrumented = true;
          break;
        }
      }
    }
    if (!instrumented)
      ctx.flag("query-path-untraced", tokens[i + 2].line,
               cls + "::" + method +
                   " serves without opening a span or recording a "
                   "flight/request event; instrument it or justify with an "
                   "allow(query-path-untraced) comment");
    i = end;
  }
}

}  // namespace

// ---------------------------------------------------------------------------

const std::vector<RuleInfo>& rule_catalog() {
  static const std::vector<RuleInfo> catalog = {
      {"nondet-rand",
       "banned nondeterministic randomness (std::rand, random_device, ...); "
       "use util::Rng"},
      {"nondet-time",
       "banned wall-clock reads outside obs/span.hpp, bench/, tools/"},
      {"unordered-drain",
       "iteration over unordered containers needs the sorted-drain idiom or "
       "a justified allow()"},
      {"using-namespace-header", "no `using namespace` at header scope"},
      {"missing-pragma-once", "headers must carry #pragma once"},
      {"naked-new", "no naked new/delete in src/; ownership is RAII"},
      {"metric-name",
       "metric literals in src/ follow pl_<module>_<what>[{label=\"v\"}]"},
      {"span-name", "span literals in src/ are lower_snake identifiers"},
      {"self-include-first",
       "a src/ .cpp includes its own header before any other include"},
      {"status-ignored",
       "pl::Status / StatusOr returns in src/ must be checked, propagated, "
       "or carry a justified allow()"},
      {"hot-path-alloc",
       "no stream tokenization or stoi-on-substr in src/restore and "
       "src/delegation; parse string_view slices with std::from_chars or "
       "add a justified allow()"},
      {"query-path-untraced",
       "non-const QueryService/DurableService definitions in src/serve must "
       "open a span or record a flight/request event"},
      {"layer-violation",
       "include edges in src/ must point down the layers.txt DAG (equal "
       "ranks only within the same subsystem)"},
      {"include-cycle",
       "the project include graph must stay acyclic (whole-program pass)"},
      {"determinism-taint",
       "src/ functions transitively reaching rand/clock/unordered-drain "
       "sinks need a det-ok(reason) annotation on every path"},
      {"dead-public-api",
       "free functions exported by src/ headers need at least one cross-TU "
       "reference (or a justified allow() at the definition)"},
  };
  return catalog;
}

void Report::merge(const Report& other) {
  findings.insert(findings.end(), other.findings.begin(),
                  other.findings.end());
  for (const auto& [rule, budget] : other.suppressions) {
    suppressions[rule].declared += budget.declared;
    suppressions[rule].used += budget.used;
  }
  files_scanned += other.files_scanned;
}

Report detail::run_file_rules(std::string_view relpath, const Lexed& lexed,
                              const Suppressions& suppressions) {
  Report report;
  report.files_scanned = 1;
  std::map<std::string, SuppressionBudget> budget = suppressions.budget;

  const Context ctx{relpath, &lexed, &suppressions, &report, &budget};
  rule_nondet_rand(ctx);
  rule_nondet_time(ctx);
  rule_unordered_drain(ctx);
  rule_using_namespace_header(ctx);
  rule_missing_pragma_once(ctx);
  rule_naked_new(ctx);
  rule_metric_name(ctx);
  rule_span_name(ctx);
  rule_self_include_first(ctx);
  rule_status_ignored(ctx);
  rule_hot_path_alloc(ctx);
  rule_query_path_untraced(ctx);

  report.suppressions = std::move(budget);
  return report;
}

Report lint_source(std::string_view relpath, std::string_view content) {
  const Lexed lexed = detail::lex(content);
  const Suppressions suppressions = detail::parse_suppressions(lexed.comments);
  return detail::run_file_rules(relpath, lexed, suppressions);
}

}  // namespace pl::lint
