// pl-lint CLI: walk the given files/directories, run the per-file rules and
// the whole-program passes (model.hpp), and print findings as
// `file:line: rule-id: message` plus the suppression-budget and timing
// summaries.
//
//   pl-lint [--root DIR] [--layers PATH] [--list-rules] PATH...
//
// `--root` anchors the repo-relative labels (and thereby the path-scoped
// rule policy). `--layers` names the architecture manifest for the
// layer-violation pass (skipped without one). Every unsuppressed finding
// fails the run; the only way to keep one is a justified allow() comment
// at the site (lint.hpp).
//
// Exit codes: 0 clean, 1 findings, 2 usage/IO error.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "lint.hpp"
#include "model.hpp"

namespace fs = std::filesystem;

namespace {

bool lintable_extension(const fs::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".h" || ext == ".cc";
}

bool skipped_directory(const fs::path& path) {
  const std::string name = path.filename().string();
  return name == "lint_fixtures" || name.rfind("build", 0) == 0 ||
         name == ".git";
}

void collect(const fs::path& path, std::vector<fs::path>& out) {
  if (fs::is_directory(path)) {
    for (fs::directory_iterator it(path), end; it != end; ++it) {
      if (fs::is_directory(it->path())) {
        if (!skipped_directory(it->path())) collect(it->path(), out);
      } else if (lintable_extension(it->path())) {
        out.push_back(it->path());
      }
    }
  } else if (fs::exists(path)) {
    out.push_back(path);
  } else {
    std::cerr << "pl-lint: no such path: " << path.string() << "\n";
    std::exit(2);
  }
}

std::string relative_label(const fs::path& path, const fs::path& root) {
  std::error_code ec;
  const fs::path rel = fs::relative(path, root, ec);
  if (ec || rel.empty() || *rel.begin() == "..")
    return path.generic_string();
  return rel.generic_string();
}

bool read_file(const fs::path& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

double ms_between(std::chrono::steady_clock::time_point from,
                  std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root = fs::current_path();
  std::string layers_path;
  std::vector<fs::path> inputs;

  const auto usage = [] {
    std::cerr << "usage: pl-lint [--root DIR] [--layers PATH] [--list-rules] "
                 "PATH...\n";
  };

  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg == "--list-rules") {
      for (const pl::lint::RuleInfo& rule : pl::lint::rule_catalog())
        std::cout << rule.id << "  " << rule.summary << "\n";
      return 0;
    }
    if (arg == "--root" && a + 1 < argc) {
      root = argv[++a];
    } else if (arg == "--layers" && a + 1 < argc) {
      layers_path = argv[++a];
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "pl-lint: unknown flag " << arg << "\n";
      usage();
      return 2;
    } else {
      inputs.emplace_back(arg);
    }
  }
  if (inputs.empty()) {
    usage();
    return 2;
  }

  std::vector<fs::path> files;
  for (const fs::path& input : inputs) collect(input, files);
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  // --- architecture manifest ----------------------------------------------
  pl::lint::LayerManifest manifest;
  if (!layers_path.empty()) {
    std::string text;
    if (!read_file(layers_path, &text)) {
      std::cerr << "pl-lint: cannot read layers manifest " << layers_path
                << "\n";
      return 2;
    }
    const auto parsed = pl::lint::parse_layers(text);
    if (!parsed) {
      std::cerr << "pl-lint: malformed layers manifest " << layers_path
                << "\n";
      return 2;
    }
    manifest = *parsed;
  }

  // --- per-file extraction ------------------------------------------------
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<pl::lint::FileModel> models;
  models.reserve(files.size());
  for (const fs::path& file : files) {
    std::string content;
    if (!read_file(file, &content)) {
      std::cerr << "pl-lint: cannot read " << file.string() << "\n";
      return 2;
    }
    models.push_back(
        pl::lint::extract_file_model(relative_label(file, root), content));
  }

  pl::lint::Report report;
  for (const pl::lint::FileModel& model : models)
    report.merge(model.file_report);

  // --- whole-program passes ----------------------------------------------
  const auto t1 = std::chrono::steady_clock::now();
  const pl::lint::ProgramAnalysis analysis =
      pl::lint::analyze_program(models, manifest);
  const auto t2 = std::chrono::steady_clock::now();

  report.findings.insert(report.findings.end(),
                         analysis.report.findings.begin(),
                         analysis.report.findings.end());
  for (const auto& [rule, budget] : analysis.report.suppressions) {
    report.suppressions[rule].declared += budget.declared;
    report.suppressions[rule].used += budget.used;
  }
  int det_ok_declared = 0;
  for (const pl::lint::FileModel& model : models)
    det_ok_declared += model.det_ok_declared;
  report.suppressions["det-ok"].declared += det_ok_declared;
  report.suppressions["det-ok"].used += analysis.det_ok_used;

  for (const pl::lint::Finding& finding : report.findings)
    std::cout << finding.file << ":" << finding.line << ": " << finding.rule
              << ": " << finding.message << "\n";
  for (const auto& [rule, budget] : report.suppressions)
    std::cout << "suppression-budget: " << rule
              << " declared=" << budget.declared << " used=" << budget.used
              << "\n";
  std::printf("timing: extract=%.1fms analyze=%.1fms\n", ms_between(t0, t1),
              ms_between(t1, t2));
  std::cout << "pl-lint: " << report.files_scanned << " files, "
            << analysis.functions << " functions, " << analysis.calls
            << " call edges, " << report.findings.size() << " findings\n";

  return report.clean() ? 0 : 1;
}
