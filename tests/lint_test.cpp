// Fixture-driven coverage for every pl-lint rule (tools/pl-lint).
//
// Each rule owns a directory under tests/lint_fixtures/ with a must-flag and
// a must-pass snippet; the suite feeds them through lint_source() with a
// virtual repo path chosen to engage the rule's path policy. Suppression
// scoping (line, block, file-wide, unused budget) is locked in alongside.

#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lint.hpp"
#include "model.hpp"

namespace {

using pl::lint::FileModel;
using pl::lint::Finding;
using pl::lint::LayerManifest;
using pl::lint::ProgramAnalysis;
using pl::lint::Report;
using pl::lint::analyze_program;
using pl::lint::extract_file_model;
using pl::lint::lint_source;
using pl::lint::parse_layers;

std::string read_fixture(const std::string& relative) {
  const std::string path = std::string(PL_LINT_FIXTURES) + "/" + relative;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture: " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

int count_rule(const Report& report, const std::string& rule) {
  int n = 0;
  for (const Finding& finding : report.findings)
    if (finding.rule == rule) ++n;
  return n;
}

/// Per-rule fixture wiring: file names plus the virtual repo-relative path
/// each snippet is linted under (the path selects which rules apply).
struct FixtureCase {
  std::string flag_file;
  std::string flag_path;
  std::string pass_file;
  std::string pass_path;
};

const std::map<std::string, FixtureCase>& fixture_cases() {
  static const std::map<std::string, FixtureCase> cases = {
      {"nondet-rand",
       {"nondet-rand/flag.cpp", "tests/fixture.cpp", "nondet-rand/pass.cpp",
        "tests/fixture.cpp"}},
      {"nondet-time",
       {"nondet-time/flag.cpp", "tests/fixture.cpp", "nondet-time/pass.cpp",
        "tests/fixture.cpp"}},
      {"unordered-drain",
       {"unordered-drain/flag.cpp", "tests/fixture.cpp",
        "unordered-drain/pass.cpp", "tests/fixture.cpp"}},
      {"using-namespace-header",
       {"using-namespace-header/flag.hpp", "tests/fixture.hpp",
        "using-namespace-header/pass.hpp", "tests/fixture.hpp"}},
      {"missing-pragma-once",
       {"missing-pragma-once/flag.hpp", "tests/fixture.hpp",
        "missing-pragma-once/pass.hpp", "tests/fixture.hpp"}},
      {"naked-new",
       {"naked-new/flag.cpp", "src/widget/flag.cpp", "naked-new/pass.cpp",
        "src/widget/pass.cpp"}},
      {"metric-name",
       {"metric-name/flag.cpp", "src/widget/flag.cpp", "metric-name/pass.cpp",
        "src/widget/pass.cpp"}},
      {"span-name",
       {"span-name/flag.cpp", "src/widget/flag.cpp", "span-name/pass.cpp",
        "src/widget/pass.cpp"}},
      {"self-include-first",
       {"self-include-first/flag.cpp", "src/widget/flag.cpp",
        "self-include-first/pass.cpp", "src/widget/pass.cpp"}},
      {"status-ignored",
       {"status-ignored/flag.cpp", "src/widget/flag.cpp",
        "status-ignored/pass.cpp", "src/widget/pass.cpp"}},
      {"hot-path-alloc",
       {"hot-path-alloc/flag.cpp", "src/restore/flag.cpp",
        "hot-path-alloc/pass.cpp", "src/restore/pass.cpp"}},
      {"query-path-untraced",
       {"query-path-untraced/flag.cpp", "src/serve/flag.cpp",
        "query-path-untraced/pass.cpp", "src/serve/pass.cpp"}},
  };
  return cases;
}

/// The whole-program rules are exercised through extract_file_model +
/// analyze_program below rather than lint_source, so they carry their own
/// fixture directories outside fixture_cases().
const std::set<std::string>& model_rule_fixtures() {
  static const std::set<std::string> rules = {
      "layer-violation", "include-cycle", "determinism-taint",
      "dead-public-api"};
  return rules;
}

TEST(LintFixtures, EveryCatalogRuleHasAFixturePair) {
  std::set<std::string> covered = model_rule_fixtures();
  for (const auto& [rule, unused] : fixture_cases()) covered.insert(rule);
  for (const pl::lint::RuleInfo& rule : pl::lint::rule_catalog())
    EXPECT_TRUE(covered.contains(std::string(rule.id)))
        << "rule without fixtures: " << rule.id;
  EXPECT_EQ(covered.size(), pl::lint::rule_catalog().size())
      << "fixture map names a rule the catalog does not";
}

TEST(LintFixtures, FlagSnippetsAreFlaggedAndOnlyByTheirOwnRule) {
  for (const auto& [rule, fixture] : fixture_cases()) {
    const Report report =
        lint_source(fixture.flag_path, read_fixture(fixture.flag_file));
    EXPECT_GE(count_rule(report, rule), 1)
        << rule << " flag fixture produced no " << rule << " finding";
    for (const Finding& finding : report.findings)
      EXPECT_EQ(finding.rule, rule)
          << rule << " flag fixture leaked a foreign finding (" << finding.rule
          << " at line " << finding.line << "); keep fixtures single-rule";
  }
}

TEST(LintFixtures, PassSnippetsAreCompletelyClean) {
  for (const auto& [rule, fixture] : fixture_cases()) {
    const Report report =
        lint_source(fixture.pass_path, read_fixture(fixture.pass_file));
    EXPECT_TRUE(report.clean())
        << rule << " pass fixture flagged: " << report.findings[0].rule << " ("
        << report.findings[0].message << ")";
  }
}

TEST(LintFixtures, FindingsCarryFileLineAndMessage) {
  const Report report = lint_source(
      "src/widget/flag.cpp", read_fixture("self-include-first/flag.cpp"));
  ASSERT_EQ(report.findings.size(), 1u);
  const Finding& finding = report.findings[0];
  EXPECT_EQ(finding.file, "src/widget/flag.cpp");
  EXPECT_GT(finding.line, 1);
  EXPECT_EQ(finding.rule, "self-include-first");
  EXPECT_NE(finding.message.find("widget/flag.hpp"), std::string::npos);
}

TEST(LintSuppressions, JustifiedAllowSilencesAndCountsAsUsedBudget) {
  const Report report = lint_source("tests/suppressed.cpp",
                                    read_fixture("suppression/suppressed.cpp"));
  EXPECT_TRUE(report.clean());
  ASSERT_TRUE(report.suppressions.contains("unordered-drain"));
  EXPECT_EQ(report.suppressions.at("unordered-drain").declared, 1);
  EXPECT_EQ(report.suppressions.at("unordered-drain").used, 1);
}

TEST(LintSuppressions, MultiLineJustificationStillReachesTheStatement) {
  // The allow() sits two comment lines above the loop; the suppression must
  // extend through the contiguous comment block to the code underneath.
  const std::string source =
      "#include <unordered_map>\n"
      "int f(const std::unordered_map<int, int>& m) {\n"
      "  int sum = 0;\n"
      "  // pl-lint: allow(unordered-drain) a justification that\n"
      "  // needs a second line\n"
      "  // and a third one\n"
      "  for (const auto& [k, v] : m) sum += v;\n"
      "  return sum;\n"
      "}\n";
  EXPECT_TRUE(lint_source("tests/multi.cpp", source).clean());
}

TEST(LintSuppressions, AllowFileCoversEveryFindingOfThatRule) {
  const Report report = lint_source("tests/file_wide.cpp",
                                    read_fixture("suppression/file_wide.cpp"));
  EXPECT_TRUE(report.clean());
  ASSERT_TRUE(report.suppressions.contains("nondet-rand"));
  EXPECT_EQ(report.suppressions.at("nondet-rand").declared, 1);
  EXPECT_EQ(report.suppressions.at("nondet-rand").used, 2)
      << "both rand() call sites should burn the file-wide budget";
}

TEST(LintSuppressions, UnusedAllowStaysVisibleInTheBudget) {
  const Report report = lint_source(
      "tests/unused.cpp", read_fixture("suppression/unused_budget.cpp"));
  EXPECT_TRUE(report.clean());
  ASSERT_TRUE(report.suppressions.contains("naked-new"));
  EXPECT_EQ(report.suppressions.at("naked-new").declared, 1);
  EXPECT_EQ(report.suppressions.at("naked-new").used, 0);
}

TEST(LintSuppressions, ProseQuotingTheSyntaxDeclaresNothing) {
  const FileModel model = extract_file_model(
      "tests/prose.cpp", read_fixture("suppression/prose.cpp"));
  EXPECT_TRUE(model.file_report.suppressions.empty());
  EXPECT_TRUE(model.allows.empty());
  EXPECT_EQ(model.det_ok_declared, 0);
  EXPECT_EQ(count_rule(model.file_report, "nondet-rand"), 1);
}

TEST(LintSuppressions, AllowForOneRuleDoesNotSilenceAnother) {
  const std::string source =
      "#include <cstdlib>\n"
      "// pl-lint: allow(naked-new) wrong rule on purpose\n"
      "int f() { return std::rand(); }\n";
  const Report report = lint_source("tests/wrong_rule.cpp", source);
  EXPECT_EQ(count_rule(report, "nondet-rand"), 1);
}

TEST(LintReport, MergeAccumulatesFindingsAndBudgets) {
  Report merged = lint_source("tests/file_wide.cpp",
                              read_fixture("suppression/file_wide.cpp"));
  merged.merge(lint_source("src/widget/flag.cpp",
                           read_fixture("self-include-first/flag.cpp")));
  EXPECT_EQ(merged.files_scanned, 2);
  EXPECT_EQ(count_rule(merged, "self-include-first"), 1);
  EXPECT_EQ(merged.suppressions.at("nondet-rand").used, 2);
}

// ---------------------------------------------------------------------------
// Whole-program passes, driven through extract_file_model + analyze_program
// over small virtual projects assembled from fixture files.

FileModel model_of(const std::string& fixture, const std::string& virt) {
  return extract_file_model(virt, read_fixture(fixture));
}

int analysis_count(const ProgramAnalysis& analysis, const std::string& rule) {
  return count_rule(analysis.report, rule);
}

TEST(LintLayers, UpwardIncludeFlagsDownwardIncludePasses) {
  const auto manifest = parse_layers("low < high");
  ASSERT_TRUE(manifest.has_value());

  std::vector<FileModel> flagged;
  flagged.push_back(
      model_of("layer-violation/flag.hpp", "src/low/widget.hpp"));
  flagged.push_back(
      model_of("layer-violation/high_util.hpp", "src/high/util.hpp"));
  const ProgramAnalysis bad = analyze_program(flagged, *manifest);
  ASSERT_EQ(analysis_count(bad, "layer-violation"), 1);
  const Finding& finding = bad.report.findings[0];
  EXPECT_EQ(finding.file, "src/low/widget.hpp");
  EXPECT_NE(finding.message.find("must not include src/high"),
            std::string::npos);

  std::vector<FileModel> clean;
  clean.push_back(
      model_of("layer-violation/pass.hpp", "src/high/widget.hpp"));
  clean.push_back(
      model_of("layer-violation/low_base.hpp", "src/low/base.hpp"));
  EXPECT_EQ(analysis_count(analyze_program(clean, *manifest),
                           "layer-violation"),
            0);
}

TEST(LintLayers, JustifiedAllowAbsorbsTheViolationIntoTheBudget) {
  const auto manifest = parse_layers("low < high");
  ASSERT_TRUE(manifest.has_value());
  std::vector<FileModel> models;
  models.push_back(
      model_of("layer-violation/suppressed.hpp", "src/low/widget.hpp"));
  models.push_back(
      model_of("layer-violation/high_util.hpp", "src/high/util.hpp"));
  const ProgramAnalysis analysis = analyze_program(models, *manifest);
  EXPECT_EQ(analysis_count(analysis, "layer-violation"), 0);
  ASSERT_TRUE(analysis.report.suppressions.contains("layer-violation"));
  EXPECT_EQ(analysis.report.suppressions.at("layer-violation").used, 1);
}

TEST(LintLayers, SubsystemMissingFromManifestIsItselfAFinding) {
  const auto manifest = parse_layers("low < high");
  ASSERT_TRUE(manifest.has_value());
  std::vector<FileModel> models;
  // The flag fixture linted under an unlisted subsystem name.
  models.push_back(
      model_of("layer-violation/flag.hpp", "src/mystery/widget.hpp"));
  models.push_back(
      model_of("layer-violation/high_util.hpp", "src/high/util.hpp"));
  const ProgramAnalysis analysis = analyze_program(models, *manifest);
  ASSERT_EQ(analysis_count(analysis, "layer-violation"), 1);
  EXPECT_NE(analysis.report.findings[0].message.find("not listed"),
            std::string::npos);
}

TEST(LintCycles, MutualIncludeFlagsOnceAnchoredAtSmallestMember) {
  std::vector<FileModel> models;
  models.push_back(model_of("include-cycle/cyc_a.hpp", "src/util/cyc_a.hpp"));
  models.push_back(model_of("include-cycle/cyc_b.hpp", "src/util/cyc_b.hpp"));
  const ProgramAnalysis analysis = analyze_program(models, LayerManifest{});
  ASSERT_EQ(analysis_count(analysis, "include-cycle"), 1);
  const Finding& finding = analysis.report.findings[0];
  EXPECT_EQ(finding.file, "src/util/cyc_a.hpp");
  EXPECT_NE(finding.message.find("src/util/cyc_a.hpp -> src/util/cyc_b.hpp"),
            std::string::npos);
}

TEST(LintCycles, AcyclicChainPassesAndAllowAbsorbs) {
  std::vector<FileModel> chain;
  chain.push_back(
      model_of("include-cycle/chain_a.hpp", "src/util/chain_a.hpp"));
  chain.push_back(
      model_of("include-cycle/chain_b.hpp", "src/util/chain_b.hpp"));
  EXPECT_EQ(analysis_count(analyze_program(chain, LayerManifest{}),
                           "include-cycle"),
            0);

  std::vector<FileModel> suppressed;
  suppressed.push_back(
      model_of("include-cycle/sup_a.hpp", "src/util/sup_a.hpp"));
  suppressed.push_back(
      model_of("include-cycle/sup_b.hpp", "src/util/sup_b.hpp"));
  const ProgramAnalysis analysis =
      analyze_program(suppressed, LayerManifest{});
  EXPECT_EQ(analysis_count(analysis, "include-cycle"), 0);
  ASSERT_TRUE(analysis.report.suppressions.contains("include-cycle"));
  EXPECT_EQ(analysis.report.suppressions.at("include-cycle").used, 1);
}

TEST(LintTaint, SinkAndTransitiveCallerFlagUntilDetOkDeclaresTheBoundary) {
  std::vector<FileModel> flagged;
  flagged.push_back(
      model_of("determinism-taint/flag.cpp", "src/util/stamp.cpp"));
  const ProgramAnalysis bad = analyze_program(flagged, LayerManifest{});
  EXPECT_EQ(analysis_count(bad, "determinism-taint"), 2)
      << "both the sink function and its caller must taint";
  ASSERT_EQ(bad.taint.size(), 2u);
  for (const pl::lint::TaintWitness& witness : bad.taint) {
    EXPECT_EQ(witness.sink.kind, "clock");
    EXPECT_EQ(witness.path.back(), "pl::util::stamp_ms");
  }

  std::vector<FileModel> clean;
  clean.push_back(
      model_of("determinism-taint/pass.cpp", "src/util/stamp.cpp"));
  const ProgramAnalysis good = analyze_program(clean, LayerManifest{});
  EXPECT_EQ(analysis_count(good, "determinism-taint"), 0);
  EXPECT_EQ(good.det_ok_used, 1)
      << "the boundary annotation must count as used";
}

TEST(LintDeadApi, UnreferencedHeaderHelperFlagsCrossTuReferenceClears) {
  std::vector<FileModel> flagged;
  flagged.push_back(
      model_of("dead-public-api/flag.hpp", "src/widget/api.hpp"));
  const ProgramAnalysis bad = analyze_program(flagged, LayerManifest{});
  ASSERT_EQ(analysis_count(bad, "dead-public-api"), 1);
  EXPECT_NE(
      bad.report.findings[0].message.find("pl::widget::helper_answer"),
      std::string::npos);
  ASSERT_EQ(bad.dead.size(), 1u);
  EXPECT_EQ(bad.dead[0].qname, "pl::widget::helper_answer");

  // The two-file mini-project: a consumer in another TU keeps it alive.
  std::vector<FileModel> alive;
  alive.push_back(model_of("dead-public-api/flag.hpp", "src/widget/api.hpp"));
  alive.push_back(
      model_of("dead-public-api/consumer.cpp", "src/other/use.cpp"));
  EXPECT_EQ(analysis_count(analyze_program(alive, LayerManifest{}),
                           "dead-public-api"),
            0);
}

TEST(LintDeadApi, JustifiedAllowAbsorbsTheFinding) {
  std::vector<FileModel> models;
  models.push_back(
      model_of("dead-public-api/suppressed.hpp", "src/widget/api.hpp"));
  const ProgramAnalysis analysis = analyze_program(models, LayerManifest{});
  EXPECT_EQ(analysis_count(analysis, "dead-public-api"), 0);
  ASSERT_TRUE(analysis.report.suppressions.contains("dead-public-api"));
  EXPECT_EQ(analysis.report.suppressions.at("dead-public-api").used, 2);
}

}  // namespace
