// Whole-program model: per-file extraction (include edges + a heuristic
// symbol/call/sink index recovered from the shared tokenizer) and the four
// cross-TU passes — layer-violation, include-cycle, determinism-taint,
// dead-public-api.
//
// The symbol scanner is deliberately heuristic, like the per-file rules: it
// tracks namespace/class/function scopes with a brace stack, recognizes
// `name(...)` declarators at namespace/class scope, and records calls and
// nondeterminism sinks inside bodies. It over-approximates (overload- and
// template-insensitive), which is the right direction for a taint pass:
// false edges are cut by a justified det-ok annotation, false silence would
// be a hole in the determinism contract.
#include "model.hpp"

#include <algorithm>
#include <cctype>
#include <deque>
#include <map>
#include <set>
#include <utility>

namespace pl::lint {

namespace {

using detail::DetOk;
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
using detail::skip_parens;
using detail::starts_with;

// ---------------------------------------------------------------------------
// Identifier classes.

bool call_keyword(const std::string& s) {
  static const std::set<std::string, std::less<>> kKeywords = {
      "if",       "for",      "while",    "switch",        "return",
      "sizeof",   "alignof",  "alignas",  "static_assert", "decltype",
      "noexcept", "new",      "delete",   "catch",         "throw",
      "typeid",   "co_await", "co_return", "co_yield",     "defined",
      "assert"};
  return kKeywords.contains(s);
}

bool rand_sink_ident(const std::string& s) {
  return s == "random_device" || s == "srand" || s == "rand_r" ||
         s == "drand48" || s == "lrand48" || s == "mrand48";
}

bool clock_sink_ident(const std::string& s) {
  return s == "system_clock" || s == "steady_clock" ||
         s == "high_resolution_clock" || s == "gettimeofday" ||
         s == "localtime" || s == "localtime_r" || s == "gmtime" ||
         s == "gmtime_r" || s == "clock_gettime";
}

// ---------------------------------------------------------------------------
// Include directives, read off the raw lines (the tokenizer's token stream
// is not preprocessor-aware).

std::vector<IncludeEdge> scan_includes(
    const std::vector<std::string>& lines) {
  std::vector<IncludeEdge> out;
  for (std::size_t n = 0; n < lines.size(); ++n) {
    std::string_view s = lines[n];
    while (!s.empty() && (s.front() == ' ' || s.front() == '\t'))
      s.remove_prefix(1);
    if (s.empty() || s.front() != '#') continue;
    s.remove_prefix(1);
    while (!s.empty() && (s.front() == ' ' || s.front() == '\t'))
      s.remove_prefix(1);
    if (!starts_with(s, "include")) continue;
    const std::size_t q1 = s.find('"');
    if (q1 == std::string_view::npos) continue;  // <system> include
    const std::size_t q2 = s.find('"', q1 + 1);
    if (q2 == std::string_view::npos) continue;
    out.push_back(IncludeEdge{std::string(s.substr(q1 + 1, q2 - q1 - 1)),
                              static_cast<int>(n + 1)});
  }
  return out;
}

// ---------------------------------------------------------------------------
// Symbol scanner.

struct Scope {
  enum class Kind { kNamespace, kClass, kFunction, kOther };
  Kind kind;
  std::string name;       ///< "" for anonymous / other
  std::size_t fn = 0;     ///< index into out for kFunction scopes
};

struct Scanner {
  const Lexed& lexed;
  const Tokens& t;
  std::vector<FunctionSym> out;
  std::vector<Scope> stack;
  std::set<std::string> clock_aliases;
  int function_depth = 0;  ///< count of kFunction scopes on the stack

  explicit Scanner(const Lexed& lexed_in)
      : lexed(lexed_in), t(lexed_in.tokens) {}

  // --- helpers -----------------------------------------------------------

  void push(Scope::Kind kind, std::string name = {}, std::size_t fn = 0) {
    if (kind == Scope::Kind::kFunction) ++function_depth;
    stack.push_back(Scope{kind, std::move(name), fn});
  }

  void pop(std::size_t close_index) {
    if (stack.empty()) return;
    if (stack.back().kind == Scope::Kind::kFunction) {
      --function_depth;
      out[stack.back().fn].end_line = t[close_index].line;
    }
    stack.pop_back();
  }

  std::string innermost_class() const {
    for (auto it = stack.rbegin(); it != stack.rend(); ++it)
      if (it->kind == Scope::Kind::kClass) return it->name;
    return {};
  }

  FunctionSym* current_fn() {
    for (auto it = stack.rbegin(); it != stack.rend(); ++it)
      if (it->kind == Scope::Kind::kFunction) return &out[it->fn];
    return nullptr;
  }

  std::string scope_prefix() const {
    std::string prefix;
    for (const Scope& scope : stack) {
      if (scope.name.empty()) continue;
      if (scope.kind != Scope::Kind::kNamespace &&
          scope.kind != Scope::Kind::kClass)
        continue;
      if (!prefix.empty()) prefix += "::";
      prefix += scope.name;
    }
    return prefix;
  }

  /// Skip a preprocessor directive (including backslash continuations).
  std::size_t skip_preproc(std::size_t i) {
    int last = t[i].line;
    while (last <= static_cast<int>(lexed.raw_lines.size()) &&
           ends_with(lexed.raw_lines[static_cast<std::size_t>(last - 1)],
                     "\\"))
      ++last;
    std::size_t j = i;
    while (j < t.size() && t[j].line <= last) ++j;
    return j;
  }

  /// Skip a balanced `< ... >` starting at `open` (must be `<`).
  std::size_t skip_angles(std::size_t open) {
    int depth = 0;
    for (std::size_t j = open; j < t.size(); ++j) {
      if (is_punct(t, j, "<")) ++depth;
      if (is_punct(t, j, ">") && --depth == 0) return j + 1;
      if (is_punct(t, j, ";")) return j;  // give up: not a template list
    }
    return t.size();
  }

  // --- clock aliases (prepass) -------------------------------------------

  /// `using Clock = std::chrono::steady_clock;` (or typedef) makes
  /// `Clock::now()` a clock sink in every body below.
  void collect_clock_aliases() {
    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
      const bool is_using = is_ident(t, i, "using") &&
                            t[i + 1].kind == Token::Kind::kIdent &&
                            is_punct(t, i + 2, "=");
      const bool is_typedef = is_ident(t, i, "typedef");
      if (!is_using && !is_typedef) continue;
      std::size_t end = i;
      bool clocky = false;
      while (end < t.size() && !is_punct(t, end, ";")) {
        if (t[end].kind == Token::Kind::kIdent &&
            clock_sink_ident(t[end].text))
          clocky = true;
        ++end;
      }
      if (!clocky) continue;
      if (is_using) {
        clock_aliases.insert(t[i + 1].text);
      } else if (end > i + 1 && t[end - 1].kind == Token::Kind::kIdent) {
        clock_aliases.insert(t[end - 1].text);
      }
      i = end;
    }
  }

  // --- sinks and calls inside bodies -------------------------------------

  void check_sink(FunctionSym& fn, std::size_t j) {
    const std::string& s = t[j].text;
    const int line = t[j].line;
    if (rand_sink_ident(s) && !non_std_qualified(t, j)) {
      fn.sinks.push_back(SinkHit{"rand", s, line});
      return;
    }
    if (s == "rand" && is_punct(t, j + 1, "(") && !non_std_qualified(t, j)) {
      fn.sinks.push_back(SinkHit{"rand", "rand", line});
      return;
    }
    if (clock_sink_ident(s) &&
        (!non_std_qualified(t, j) || (j >= 2 && is_ident(t, j - 2, "chrono")))) {
      fn.sinks.push_back(SinkHit{"clock", s, line});
      return;
    }
    if (s == "time" && is_punct(t, j + 1, "(") && !non_std_qualified(t, j) &&
        (is_punct(t, j + 2, ")") ||
         (is_ident(t, j + 2, "nullptr") && is_punct(t, j + 3, ")")) ||
         (j + 2 < t.size() && t[j + 2].text == "0" &&
          is_punct(t, j + 3, ")")))) {
      fn.sinks.push_back(SinkHit{"time", "time", line});
      return;
    }
    if (clock_aliases.contains(s) && is_punct(t, j + 1, "::") &&
        is_ident(t, j + 2, "now"))
      fn.sinks.push_back(SinkHit{"clock", s + "::now", line});
  }

  void check_call(FunctionSym& fn, std::size_t j) {
    if (!is_punct(t, j + 1, "(")) return;
    const std::string& name = t[j].text;
    if (call_keyword(name) || name == "operator") return;
    CallSite call;
    call.name = name;
    call.member = j > 0 && (is_punct(t, j - 1, ".") || is_punct(t, j - 1, "->"));
    std::size_t k = j;
    while (k >= 2 && is_punct(t, k - 1, "::") &&
           t[k - 2].kind == Token::Kind::kIdent)
      k -= 2;
    for (std::size_t q = k; q < j; q += 2) {
      if (!call.qual.empty()) call.qual += "::";
      call.qual += t[q].text;
    }
    fn.calls.push_back(std::move(call));
  }

  // --- function recognition at namespace / class scope -------------------

  struct Tail {
    enum class Kind { kBody, kDecl, kNone };
    Kind kind = Kind::kNone;
    std::size_t pos = 0;  ///< `{` for kBody, `;` for kDecl, resume for kNone
  };

  /// Classify what follows a parameter list: a function body, a pure
  /// declaration, or neither.
  Tail classify_tail(std::size_t j) {
    int angle = 0;
    while (j < t.size()) {
      if (is_punct(t, j, "(")) {
        j = skip_parens(t, j);  // noexcept(...), attribute args
        continue;
      }
      if (angle == 0 && is_punct(t, j, "{")) return {Tail::Kind::kBody, j};
      if (angle == 0 && is_punct(t, j, ";")) return {Tail::Kind::kDecl, j};
      if (angle == 0 && is_punct(t, j, ":")) return ctor_init_tail(j + 1);
      if (angle == 0 && is_punct(t, j, "=")) {
        // `= default;` / `= delete;` / `= 0;` — all body-less.
        while (j < t.size() && !is_punct(t, j, ";")) ++j;
        return j < t.size() ? Tail{Tail::Kind::kDecl, j}
                            : Tail{Tail::Kind::kNone, j};
      }
      if (angle == 0 && is_punct(t, j, ",")) return {Tail::Kind::kNone, j};
      if (is_punct(t, j, "<")) ++angle;
      if (is_punct(t, j, ">")) {
        if (angle == 0) return {Tail::Kind::kNone, j};
        --angle;
      }
      if (is_punct(t, j, ")") || is_punct(t, j, "}") || is_punct(t, j, "]"))
        return {Tail::Kind::kNone, j};
      ++j;
    }
    return {Tail::Kind::kNone, j};
  }

  /// Walk a constructor initializer list to its body brace. The body `{` is
  /// the one following a `)` or `}`; a `{` after an identifier is a member
  /// brace-init. A `;` first means this was no init list (e.g. a bitfield).
  Tail ctor_init_tail(std::size_t j) {
    while (j < t.size()) {
      if (is_punct(t, j, "(")) {
        j = skip_parens(t, j);
        continue;
      }
      if (is_punct(t, j, "{")) {
        if (j > 0 && (is_punct(t, j - 1, ")") || is_punct(t, j - 1, "}")))
          return {Tail::Kind::kBody, j};
        int depth = 0;
        while (j < t.size()) {
          if (is_punct(t, j, "{")) ++depth;
          if (is_punct(t, j, "}") && --depth == 0) {
            ++j;
            break;
          }
          ++j;
        }
        continue;
      }
      if (is_punct(t, j, ";")) return {Tail::Kind::kNone, j};
      ++j;
    }
    return {Tail::Kind::kNone, j};
  }

  /// Is the identifier at `p` (immediately before a `(`) a plausible
  /// function declarator? Fills name ("~"-prefixed for destructors) and the
  /// explicit `::` qualifier chain before it.
  bool candidate_name(std::size_t p, std::size_t stmt_begin,
                      std::string* name, std::vector<std::string>* quals) {
    std::size_t k = p;
    bool dtor = false;
    if (k > stmt_begin && is_punct(t, k - 1, "~")) {
      dtor = true;
      --k;
    }
    std::size_t chain = k;
    while (chain >= stmt_begin + 2 && is_punct(t, chain - 1, "::") &&
           t[chain - 2].kind == Token::Kind::kIdent)
      chain -= 2;
    for (std::size_t q = chain; q + 1 < k; q += 2)
      quals->push_back(t[q].text);
    *name = (dtor ? "~" : "") + t[p].text;
    const bool ctor_like =
        dtor || (!quals->empty() && quals->back() == t[p].text) ||
        (quals->empty() && innermost_class() == t[p].text);
    if (ctor_like) return true;
    if (chain <= stmt_begin) return false;  // nothing before the name
    const Token& prev = t[chain - 1];
    if (prev.kind == Token::Kind::kIdent)
      return !call_keyword(prev.text) && prev.text != "return" &&
             prev.text != "else" && prev.text != "case" &&
             prev.text != "goto";
    return prev.kind == Token::Kind::kPunct &&
           (prev.text == ">" || prev.text == "*" || prev.text == "&");
  }

  void record_function(std::string name, std::vector<std::string> quals,
                       int line, bool is_definition, std::size_t body) {
    FunctionSym fn;
    fn.name = name;
    std::string qname = scope_prefix();
    for (const std::string& q : quals) {
      if (!qname.empty()) qname += "::";
      qname += q;
    }
    if (!qname.empty()) qname += "::";
    fn.qname = qname + name;
    // Enclosing class: the scope stack when defined inline; the last
    // qualifier for out-of-line members (repo convention: namespaces are
    // lower_snake, classes are CamelCase — a heuristic, like the rest).
    const std::string scope_class = innermost_class();
    if (!scope_class.empty()) {
      fn.klass = scope_class;
    } else if (!quals.empty()) {
      const std::string& last = quals.back();
      const bool ctor_dtor = last == name || ("~" + last) == name;
      if (ctor_dtor ||
          (!last.empty() && std::isupper(static_cast<unsigned char>(last[0]))))
        fn.klass = last;
    }
    fn.line = line;
    fn.end_line = line;
    fn.is_definition = is_definition;
    out.push_back(std::move(fn));
    if (is_definition)
      push(Scope::Kind::kFunction, {}, out.size() - 1);
    (void)body;
  }

  /// Scan a token range (constructor init list, trailing specifiers) for
  /// calls and sinks on behalf of a just-recorded definition. Body braces
  /// are not entered here; [begin, end) stops at the body `{`.
  void scan_range(FunctionSym& fn, std::size_t begin, std::size_t end) {
    for (std::size_t j = begin; j < end && j < t.size(); ++j)
      if (t[j].kind == Token::Kind::kIdent) {
        check_sink(fn, j);
        check_call(fn, j);
      }
  }

  // --- drivers ------------------------------------------------------------

  /// One token in body mode (somewhere inside a function definition).
  std::size_t body_token(std::size_t j) {
    if (is_punct(t, j, "#")) return skip_preproc(j);
    if (is_punct(t, j, "{")) {
      push(Scope::Kind::kOther);
      return j + 1;
    }
    if (is_punct(t, j, "}")) {
      pop(j);
      return j + 1;
    }
    if (t[j].kind == Token::Kind::kIdent) {
      if (FunctionSym* fn = current_fn()) {
        check_sink(*fn, j);
        check_call(*fn, j);
      }
    }
    return j + 1;
  }

  /// One construct at namespace / class scope.
  std::size_t declaration(std::size_t i) {
    if (is_punct(t, i, "#")) return skip_preproc(i);
    if (is_punct(t, i, "}")) {
      pop(i);
      return i + 1;
    }
    if (is_punct(t, i, "{")) {
      push(Scope::Kind::kOther);
      return i + 1;
    }
    if (is_punct(t, i, ";")) return i + 1;
    if (is_ident(t, i, "template") && is_punct(t, i + 1, "<"))
      return skip_angles(i + 1);
    if (is_ident(t, i, "namespace")) {
      std::string name;
      std::size_t j = i + 1;
      while (j < t.size() && t[j].kind == Token::Kind::kIdent) {
        if (!name.empty()) name += "::";
        name += t[j].text;
        if (is_punct(t, j + 1, "::"))
          j += 2;
        else {
          ++j;
          break;
        }
      }
      if (is_punct(t, j, "{")) {
        push(Scope::Kind::kNamespace, std::move(name));
        return j + 1;
      }
      while (j < t.size() && !is_punct(t, j, ";")) ++j;  // namespace alias
      return j + 1;
    }
    if (is_ident(t, i, "enum")) {
      std::size_t j = i + 1;
      while (j < t.size() && !is_punct(t, j, "{") && !is_punct(t, j, ";"))
        ++j;
      if (is_punct(t, j, "{")) {
        push(Scope::Kind::kOther);
        return j + 1;
      }
      return j + 1;
    }
    if (is_ident(t, i, "class") || is_ident(t, i, "struct") ||
        is_ident(t, i, "union")) {
      std::string name;
      std::size_t j = i + 1;
      while (j < t.size() && name.empty()) {
        if (t[j].kind == Token::Kind::kIdent &&
            t[j].text != "alignas") {
          name = t[j].text;
          ++j;
          break;
        }
        if (is_punct(t, j, "(")) {
          j = skip_parens(t, j);
          continue;
        }
        ++j;
      }
      // Scan to the class body `{` or the `;` of a forward declaration.
      int angle = 0;
      while (j < t.size()) {
        if (is_punct(t, j, "(")) {
          j = skip_parens(t, j);
          continue;
        }
        if (is_punct(t, j, "<")) ++angle;
        if (is_punct(t, j, ">") && angle > 0) --angle;
        if (angle == 0 && is_punct(t, j, "{")) {
          push(Scope::Kind::kClass, std::move(name));
          return j + 1;
        }
        if (angle == 0 && (is_punct(t, j, ";") || is_punct(t, j, "=")))
          return j;  // fwd decl / `struct X v = ...`
        ++j;
      }
      return j;
    }
    if (is_ident(t, i, "using") || is_ident(t, i, "typedef")) {
      std::size_t j = i;
      while (j < t.size() && !is_punct(t, j, ";")) ++j;
      return j + 1;
    }
    return statement(i);
  }

  /// A generic statement at namespace / class scope: look for a function
  /// declarator `name ( params ) ...` and otherwise skip to the `;`.
  std::size_t statement(std::size_t i) {
    bool saw_assign = false;
    std::size_t j = i;
    while (j < t.size()) {
      if (is_punct(t, j, "#")) {
        j = skip_preproc(j);
        continue;
      }
      if (is_punct(t, j, ";")) return j + 1;
      if (is_punct(t, j, "}")) return j;  // caller pops
      if (is_punct(t, j, "=")) {
        saw_assign = true;
        ++j;
        continue;
      }
      if (is_punct(t, j, "{")) {
        push(Scope::Kind::kOther);  // brace initializer / unrecognized block
        return j + 1;
      }
      if (is_ident(t, j, "operator")) {
        // `operator<<(`, `operator()(`, `operator bool(` ...
        std::string name = "operator";
        std::size_t k = j + 1;
        if (is_punct(t, k, "(") && is_punct(t, k + 1, ")") &&
            is_punct(t, k + 2, "(")) {
          name += "()";
          k += 2;
        } else {
          while (k < t.size() && !is_punct(t, k, "(")) {
            name += t[k].text;
            ++k;
          }
        }
        if (k >= t.size() || !is_punct(t, k, "(")) return k;
        const std::size_t after = skip_parens(t, k);
        const Tail tail = classify_tail(after);
        if (tail.kind == Tail::Kind::kBody) {
          record_function(std::move(name), {}, t[j].line,
                          /*is_definition=*/true, tail.pos);
          scan_range(out[stack.back().fn], after, tail.pos);
          return tail.pos + 1;
        }
        if (tail.kind == Tail::Kind::kDecl) {
          record_function(std::move(name), {}, t[j].line,
                          /*is_definition=*/false, 0);
          return tail.pos + 1;
        }
        j = tail.pos;
        continue;
      }
      if (is_punct(t, j, "(")) {
        std::string name;
        std::vector<std::string> quals;
        const bool cand = !saw_assign && j > i &&
                          t[j - 1].kind == Token::Kind::kIdent &&
                          !call_keyword(t[j - 1].text) &&
                          candidate_name(j - 1, i, &name, &quals);
        const std::size_t after = skip_parens(t, j);
        if (cand) {
          const Tail tail = classify_tail(after);
          if (tail.kind == Tail::Kind::kBody) {
            record_function(std::move(name), std::move(quals), t[j - 1].line,
                            /*is_definition=*/true, tail.pos);
            scan_range(out[stack.back().fn], after, tail.pos);
            return tail.pos + 1;
          }
          if (tail.kind == Tail::Kind::kDecl) {
            record_function(std::move(name), std::move(quals), t[j - 1].line,
                            /*is_definition=*/false, 0);
            return tail.pos + 1;
          }
          j = tail.pos == after ? after : tail.pos;
          continue;
        }
        j = after;
        continue;
      }
      ++j;
    }
    return j;
  }

  void run() {
    collect_clock_aliases();
    std::size_t i = 0;
    while (i < t.size()) {
      const std::size_t next =
          function_depth > 0 ? body_token(i) : declaration(i);
      i = next > i ? next : i + 1;  // never stall
    }
    // Unbalanced input (shouldn't happen): close whatever is left.
    const int last_line =
        t.empty() ? 1 : t.back().line;
    for (const Scope& scope : stack)
      if (scope.kind == Scope::Kind::kFunction &&
          out[scope.fn].end_line < last_line)
        out[scope.fn].end_line = last_line;
  }
};

/// Innermost definition whose [line, end_line] covers `line`.
FunctionSym* enclosing_function(std::vector<FunctionSym>& fns, int line) {
  FunctionSym* best = nullptr;
  for (FunctionSym& fn : fns) {
    if (!fn.is_definition || line < fn.line || line > fn.end_line) continue;
    if (!best || fn.line > best->line) best = &fn;
  }
  return best;
}

}  // namespace

// ---------------------------------------------------------------------------
// Extraction.

FileModel extract_file_model(std::string_view relpath,
                             std::string_view content) {
  FileModel model;
  model.relpath = std::string(relpath);

  const Lexed lexed = detail::lex(content);
  const Suppressions supp = detail::parse_suppressions(lexed.comments);
  model.file_report = detail::run_file_rules(relpath, lexed, supp);
  model.includes = scan_includes(lexed.raw_lines);
  model.allows = supp.spans;
  model.det_ok_declared = static_cast<int>(supp.det_ok.size());

  Scanner scanner(lexed);
  scanner.run();
  model.functions = std::move(scanner.out);

  // Unordered-drain sinks: every drain site (allow()'d or not — the per-file
  // suppression silences the diagnostic, not the physics) taints its
  // enclosing function.
  for (const DrainSite& site : detail::find_unordered_drains(lexed.tokens))
    if (FunctionSym* fn = enclosing_function(model.functions, site.line))
      fn->sinks.push_back(
          SinkHit{"unordered-drain", site.name, site.line});

  // det-ok annotations attach to the function whose body contains the
  // comment, or to the definition that starts on the first code line after
  // the comment block (small tolerance for multi-line signatures).
  for (const DetOk& det : supp.det_ok) {
    FunctionSym* target = enclosing_function(model.functions, det.line);
    if (!target) {
      for (FunctionSym& fn : model.functions) {
        if (fn.line < det.through || fn.line > det.through + 3) continue;
        if (!target || fn.line < target->line) target = &fn;
      }
    }
    if (target) target->det_ok = true;
  }

  std::set<std::string> refs;
  for (const Token& token : lexed.tokens)
    if (token.kind == Token::Kind::kIdent) refs.insert(token.text);
  model.refs.assign(refs.begin(), refs.end());
  return model;
}

// ---------------------------------------------------------------------------
// Architecture manifest.

std::optional<LayerManifest> parse_layers(std::string_view text) {
  // Strip comments, join lines.
  std::string flat;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t eol = std::min(text.find('\n', pos), text.size());
    std::string_view line = text.substr(pos, eol - pos);
    const std::size_t hash = line.find('#');
    if (hash != std::string_view::npos) line = line.substr(0, hash);
    flat += std::string(line);
    flat += ' ';
    if (eol == text.size()) break;
    pos = eol + 1;
  }

  LayerManifest manifest;
  const auto trim = [](std::string_view s) {
    while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front())))
      s.remove_prefix(1);
    while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back())))
      s.remove_suffix(1);
    return s;
  };
  std::string_view rest = flat;
  int next_rank = 0;
  while (true) {
    const std::size_t sep = rest.find('<');
    std::string_view segment = trim(rest.substr(0, sep));
    if (!segment.empty()) {
      std::vector<std::string> level;
      if (segment.front() == '{') {
        if (segment.back() != '}') return std::nullopt;
        std::string_view inner = segment.substr(1, segment.size() - 2);
        while (true) {
          const std::size_t comma = inner.find(',');
          const std::string_view name = trim(inner.substr(0, comma));
          if (!name.empty()) level.emplace_back(name);
          if (comma == std::string_view::npos) break;
          inner.remove_prefix(comma + 1);
        }
      } else {
        if (segment.find_first_of(" \t{},") != std::string_view::npos)
          return std::nullopt;
        level.emplace_back(segment);
      }
      if (level.empty()) return std::nullopt;
      for (const std::string& name : level) {
        if (manifest.rank.contains(name)) return std::nullopt;  // duplicate
        manifest.rank.emplace(name, next_rank);
      }
      ++next_rank;
    } else if (sep != std::string_view::npos) {
      return std::nullopt;  // empty segment between two '<'
    }
    if (sep == std::string_view::npos) break;
    rest.remove_prefix(sep + 1);
  }
  if (next_rank == 0) return std::nullopt;
  return manifest;
}

std::string subsystem_of(std::string_view relpath) {
  if (!starts_with(relpath, "src/")) return {};
  const std::string_view rest = relpath.substr(4);
  const std::size_t slash = rest.find('/');
  if (slash == std::string_view::npos) return {};
  return std::string(rest.substr(0, slash));
}

// ---------------------------------------------------------------------------
// Whole-program analysis.

namespace {

/// One resolved include edge between two scanned files.
struct GraphEdge {
  std::string from;
  std::string to;
  int line = 0;
};

/// Normalize "a/b/../c" and "./" segments.
std::string normalize_path(std::string_view path) {
  std::vector<std::string_view> parts;
  std::size_t pos = 0;
  while (pos <= path.size()) {
    const std::size_t slash = std::min(path.find('/', pos), path.size());
    const std::string_view part = path.substr(pos, slash - pos);
    if (part == "..") {
      if (!parts.empty()) parts.pop_back();
    } else if (!part.empty() && part != ".") {
      parts.push_back(part);
    }
    if (slash == path.size()) break;
    pos = slash + 1;
  }
  std::string out;
  for (const std::string_view part : parts) {
    if (!out.empty()) out += '/';
    out += std::string(part);
  }
  return out;
}

struct Flagger {
  ProgramAnalysis& analysis;
  const std::map<std::string, const FileModel*>& by_path;

  void operator()(const std::string& rule, const std::string& file, int line,
                  std::string message) const {
    const auto it = by_path.find(file);
    if (it != by_path.end()) {
      for (const detail::AllowSpan& span : it->second->allows) {
        if (span.rule != rule) continue;
        if (span.file_wide || (line >= span.from && line <= span.to)) {
          ++analysis.report.suppressions[rule].used;
          return;
        }
      }
    }
    analysis.report.findings.push_back(
        Finding{file, line, rule, std::move(message)});
  }
};

}  // namespace

ProgramAnalysis analyze_program(const std::vector<FileModel>& models,
                                const LayerManifest& manifest) {
  ProgramAnalysis analysis;
  std::map<std::string, const FileModel*> by_path;
  for (const FileModel& model : models) by_path.emplace(model.relpath, &model);
  const Flagger flag{analysis, by_path};

  // --- resolve include edges ---------------------------------------------
  std::vector<GraphEdge> edges;
  for (const FileModel& model : models) {
    const std::size_t slash = model.relpath.rfind('/');
    const std::string dir =
        slash == std::string::npos ? "" : model.relpath.substr(0, slash);
    for (const IncludeEdge& inc : model.includes) {
      std::string resolved;
      for (const std::string& candidate :
           {normalize_path(dir + "/" + inc.target), "src/" + inc.target,
            inc.target, "tests/" + inc.target, "tools/" + inc.target}) {
        if (by_path.contains(candidate)) {
          resolved = candidate;
          break;
        }
      }
      if (!resolved.empty() && resolved != model.relpath)
        edges.push_back(GraphEdge{model.relpath, resolved, inc.line});
    }
  }

  // --- layer-violation ----------------------------------------------------
  if (!manifest.empty()) {
    for (const GraphEdge& edge : edges) {
      const std::string from = subsystem_of(edge.from);
      const std::string to = subsystem_of(edge.to);
      if (from.empty() || to.empty() || from == to) continue;
      const auto rank_from = manifest.rank.find(from);
      const auto rank_to = manifest.rank.find(to);
      if (rank_from == manifest.rank.end() || rank_to == manifest.rank.end()) {
        const std::string missing =
            rank_from == manifest.rank.end() ? from : to;
        flag("layer-violation", edge.from, edge.line,
             "subsystem '" + missing +
                 "' is not listed in tools/pl-lint/layers.txt; add it to the "
                 "manifest at its architectural rank");
        continue;
      }
      if (rank_to->second >= rank_from->second)
        flag("layer-violation", edge.from, edge.line,
             "src/" + from + " (layer " +
                 std::to_string(rank_from->second) + ") must not include src/" +
                 to + " (layer " + std::to_string(rank_to->second) +
                 "); dependencies point down the layers.txt DAG only");
    }
  }

  // --- include-cycle ------------------------------------------------------
  {
    std::map<std::string, std::vector<const GraphEdge*>> adjacency;
    for (const GraphEdge& edge : edges)
      adjacency[edge.from].push_back(&edge);
    std::map<std::string, int> color;  // 0 white, 1 gray, 2 black
    std::vector<std::string> path;
    std::set<std::vector<std::string>> seen_cycles;

    // Recursive DFS via explicit stack: (node, next-edge-index).
    for (const FileModel& model : models) {
      if (color[model.relpath] != 0) continue;
      std::vector<std::pair<std::string, std::size_t>> dfs;
      dfs.emplace_back(model.relpath, 0);
      color[model.relpath] = 1;
      path.push_back(model.relpath);
      while (!dfs.empty()) {
        auto& [node, next] = dfs.back();
        const auto it = adjacency.find(node);
        if (it == adjacency.end() || next >= it->second.size()) {
          color[node] = 2;
          path.pop_back();
          dfs.pop_back();
          continue;
        }
        const GraphEdge* edge = it->second[next++];
        const int target_color = color[edge->to];
        if (target_color == 1) {
          // Back edge: the cycle is the path suffix from edge->to.
          const auto at = std::find(path.begin(), path.end(), edge->to);
          std::vector<std::string> cycle(at, path.end());
          // Canonical rotation: start at the smallest member.
          const auto smallest =
              std::min_element(cycle.begin(), cycle.end());
          std::rotate(cycle.begin(), smallest, cycle.end());
          if (seen_cycles.insert(cycle).second) {
            std::string chain;
            for (const std::string& hop : cycle) chain += hop + " -> ";
            chain += cycle.front();
            // Anchor the finding at the smallest member's outgoing edge.
            const std::string& anchor = cycle.front();
            const std::string& succ =
                cycle.size() > 1 ? cycle[1] : cycle.front();
            int line = 1;
            for (const GraphEdge& candidate : edges)
              if (candidate.from == anchor && candidate.to == succ) {
                line = candidate.line;
                break;
              }
            flag("include-cycle", anchor, line,
                 "include cycle: " + chain);
          }
        } else if (target_color == 0) {
          color[edge->to] = 1;
          path.push_back(edge->to);
          dfs.emplace_back(edge->to, 0);
        }
      }
    }
  }

  // --- call graph + determinism taint ------------------------------------
  {
    struct Def {
      const FileModel* model;
      const FunctionSym* fn;
      std::size_t id;
    };
    std::vector<Def> defs;
    std::map<std::string, std::vector<std::size_t>> by_name;
    for (const FileModel& model : models)
      for (const FunctionSym& fn : model.functions)
        if (fn.is_definition) {
          by_name[fn.name].push_back(defs.size());
          defs.push_back(Def{&model, &fn, defs.size()});
        }
    analysis.functions = static_cast<int>(defs.size());

    // Overload-insensitive resolution. Bounded on purpose: a member call
    // resolves to methods of the caller's own class or an explicitly
    // qualified one; an unqualified free call resolves to free functions
    // (plus same-class methods — implicit this).
    std::vector<std::vector<std::size_t>> callees(defs.size());
    for (const Def& def : defs) {
      std::set<std::size_t> targets;
      for (const CallSite& call : def.fn->calls) {
        if (call.qual == "std" || starts_with(call.qual, "std::")) continue;
        const auto it = by_name.find(call.name);
        if (it == by_name.end()) continue;
        const std::string qual_last =
            call.qual.empty()
                ? std::string()
                : call.qual.substr(call.qual.rfind(':') == std::string::npos
                                       ? 0
                                       : call.qual.rfind(':') + 1);
        const bool caller_in_src = starts_with(def.model->relpath, "src/");
        for (const std::size_t target : it->second) {
          const FunctionSym& callee = *defs[target].fn;
          if (target == def.id) continue;
          // Production code cannot call into bench/tests/tools; an
          // unqualified name shared with one of those files is a different
          // function, not an edge.
          if (caller_in_src &&
              !starts_with(defs[target].model->relpath, "src/"))
            continue;
          if (!qual_last.empty()) {
            // Explicit qualifier: must appear in the callee's qname.
            if (defs[target].fn->qname.find(qual_last) == std::string::npos)
              continue;
          } else if (call.member) {
            if (callee.klass.empty()) continue;
          } else if (!callee.klass.empty() &&
                     callee.klass != def.fn->klass) {
            continue;  // unqualified call can't hit a foreign method
          }
          targets.insert(target);
        }
      }
      callees[def.id].assign(targets.begin(), targets.end());
      analysis.calls += static_cast<int>(callees[def.id].size());
    }

    std::vector<std::vector<std::size_t>> callers(defs.size());
    for (const Def& def : defs)
      for (const std::size_t target : callees[def.id])
        callers[target].push_back(def.id);

    // Fixed point: tainted(f) = !det_ok(f) && (sink(f) || ∃ tainted callee).
    std::vector<char> tainted(defs.size(), 0);
    std::deque<std::size_t> worklist;
    for (const Def& def : defs)
      if (!def.fn->sinks.empty() && !def.fn->det_ok) {
        tainted[def.id] = 1;
        worklist.push_back(def.id);
      }
    while (!worklist.empty()) {
      const std::size_t id = worklist.front();
      worklist.pop_front();
      for (const std::size_t caller : callers[id])
        if (!tainted[caller] && !defs[caller].fn->det_ok) {
          tainted[caller] = 1;
          worklist.push_back(caller);
        }
    }

    for (const Def& def : defs) {
      if (!def.fn->det_ok) continue;
      bool cuts = !def.fn->sinks.empty();
      for (const std::size_t target : callees[def.id])
        cuts = cuts || tainted[target];
      if (cuts) ++analysis.det_ok_used;
    }

    // Witness path per tainted src/ function: BFS to the nearest function
    // carrying its own sink, through tainted nodes only.
    for (const Def& def : defs) {
      if (!tainted[def.id] || !starts_with(def.model->relpath, "src/"))
        continue;
      std::map<std::size_t, std::size_t> parent;
      std::deque<std::size_t> bfs{def.id};
      parent.emplace(def.id, def.id);
      std::size_t sink_fn = defs.size();
      while (!bfs.empty() && sink_fn == defs.size()) {
        const std::size_t id = bfs.front();
        bfs.pop_front();
        if (!defs[id].fn->sinks.empty()) {
          sink_fn = id;
          break;
        }
        for (const std::size_t target : callees[id])
          if (tainted[target] && parent.emplace(target, id).second)
            bfs.push_back(target);
      }
      if (sink_fn == defs.size()) continue;  // shouldn't happen
      TaintWitness witness;
      witness.root = def.fn->qname;
      witness.file = def.model->relpath;
      witness.line = def.fn->line;
      for (std::size_t id = sink_fn;; id = parent.at(id)) {
        witness.path.push_back(defs[id].fn->qname);
        if (id == def.id) break;
      }
      std::reverse(witness.path.begin(), witness.path.end());
      witness.sink = defs[sink_fn].fn->sinks.front();
      witness.sink_file = defs[sink_fn].model->relpath;

      std::string chain;
      for (const std::string& hop : witness.path) {
        if (!chain.empty()) chain += " -> ";
        chain += hop;
      }
      flag("determinism-taint", witness.file, witness.line,
           "'" + witness.root + "' reaches nondeterminism sink '" +
               witness.sink.token + "' (" + witness.sink.kind + ") at " +
               witness.sink_file + ":" + std::to_string(witness.sink.line) +
               " via " + chain +
               "; annotate the boundary with // pl-lint: det-ok(reason) or "
               "remove the sink");
      analysis.taint.push_back(std::move(witness));
    }
  }

  // --- dead-public-api ----------------------------------------------------
  {
    // Files that declare or define a function of a given name: a reference
    // from one of those is the symbol talking about itself, not a use.
    std::map<std::string, std::set<std::string>> definers;
    for (const FileModel& model : models)
      for (const FunctionSym& fn : model.functions)
        definers[fn.name].insert(model.relpath);

    for (const FileModel& model : models) {
      if (!starts_with(model.relpath, "src/") || !is_header(model.relpath))
        continue;
      std::set<std::string> reported;
      for (const FunctionSym& fn : model.functions) {
        if (!fn.klass.empty()) continue;  // methods: out of scope
        if (fn.name == "main" || starts_with(fn.name, "operator") ||
            starts_with(fn.name, "~"))
          continue;
        // detail/internal namespaces are implementation, not exported API.
        if (fn.qname.find("detail::") != std::string::npos ||
            fn.qname.find("internal::") != std::string::npos)
          continue;
        if (!reported.insert(fn.qname).second) continue;
        const std::set<std::string>& own = definers[fn.name];
        bool alive = false;
        for (const FileModel& other : models) {
          if (other.relpath == model.relpath) continue;
          if (own.contains(other.relpath)) continue;
          if (std::binary_search(other.refs.begin(), other.refs.end(),
                                 fn.name)) {
            alive = true;
            break;
          }
        }
        if (alive) continue;
        flag("dead-public-api", model.relpath, fn.line,
             "free function '" + fn.qname +
                 "' is exported by this header but referenced by no other "
                 "translation unit; remove it or justify it with an "
                 "allow() comment");
        analysis.dead.push_back(
            DeadSymbol{fn.qname, model.relpath, fn.line});
      }
    }
  }

  return analysis;
}

}  // namespace pl::lint
