// Golden tests for the prema_analyze passes (tools/analyze): each fixture
// under tools/analyze/fixtures/<pass>/<case>/ is a tiny source tree with a
// seeded violation (or none, for the clean case); running every pass over it
// must reproduce EXPECT.txt exactly — rule, file, line and message. The
// analyzer's own --self-test covers the passes as library code on embedded
// snippets; these prove the on-disk pipeline (tree loading, hierarchy
// parsing, finding formatting) end to end and pin the exact diagnostics.
// time_domain/mixing and sim_purity/wallclock keep the names of the passes
// that first caught their bugs; the conventions pass's determinism rule is
// the one check for wall-clock reads now.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analyze/report.hpp"

namespace {

using namespace prema::analyze;

// Injected by CMake: absolute path of tools/analyze/fixtures.
const std::string kFixtures = PREMA_ANALYZE_FIXTURES;

std::string read_file_or_empty(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Run every pass over the fixture's src/ tree with its (optional) local
/// lock_hierarchy.txt, atomics.txt and protocols/ specs and return the
/// findings formatted one per line, exactly as the CLI prints them.
std::string analyze_fixture(const std::string& rel_case) {
  const std::string dir = kFixtures + "/" + rel_case;
  Tree tree;
  EXPECT_TRUE(load_tree(dir + "/src", tree)) << dir;
  Options opts;
  opts.hierarchy_text = read_file_or_empty(dir + "/lock_hierarchy.txt");
  opts.atomics_text = read_file_or_empty(dir + "/atomics.txt");
  // Fixture-local protocol specs, loaded sorted exactly as the CLI does.
  namespace fs = std::filesystem;
  std::error_code ec;
  std::vector<fs::path> specs;
  for (const auto& entry : fs::directory_iterator(dir + "/protocols", ec)) {
    if (entry.path().extension() == ".txt") specs.push_back(entry.path());
  }
  std::sort(specs.begin(), specs.end());
  for (const fs::path& p : specs) {
    opts.protocol_specs.emplace_back(p.stem().string(),
                                     read_file_or_empty(p.string()));
  }
  Findings out;
  run_all_passes(tree, opts, out);
  std::string text;
  for (const Finding& f : out) {
    text += f.file + ":" + std::to_string(f.line) + ": [" + f.rule + "] " +
            f.message + "\n";
  }
  return text;
}

std::string expected(const std::string& rel_case) {
  return read_file_or_empty(kFixtures + "/" + rel_case + "/EXPECT.txt");
}

TEST(AnalyzeFixtures, LockOrderInversion) {
  EXPECT_EQ(analyze_fixture("lock_order/inversion"),
            expected("lock_order/inversion"));
}

TEST(AnalyzeFixtures, LockOrderUnguarded) {
  EXPECT_EQ(analyze_fixture("lock_order/unguarded"),
            expected("lock_order/unguarded"));
}

TEST(AnalyzeFixtures, SerializationAsymmetry) {
  EXPECT_EQ(analyze_fixture("serialization/asymmetry"),
            expected("serialization/asymmetry"));
}

TEST(AnalyzeFixtures, TimeDomainMixing) {
  EXPECT_EQ(analyze_fixture("time_domain/mixing"),
            expected("time_domain/mixing"));
}

TEST(AnalyzeFixtures, LockFlowBlockingSend) {
  EXPECT_EQ(analyze_fixture("lock_flow/blocking_send"),
            expected("lock_flow/blocking_send"));
}

TEST(AnalyzeFixtures, LockFlowRequiresUnheld) {
  EXPECT_EQ(analyze_fixture("lock_flow/requires_unheld"),
            expected("lock_flow/requires_unheld"));
}

TEST(AnalyzeFixtures, ProtocolFsmUndeclaredTransition) {
  EXPECT_EQ(analyze_fixture("protocol_fsm/undeclared_transition"),
            expected("protocol_fsm/undeclared_transition"));
}

TEST(AnalyzeFixtures, ProtocolFsmMissingEmit) {
  EXPECT_EQ(analyze_fixture("protocol_fsm/missing_emit"),
            expected("protocol_fsm/missing_emit"));
}

TEST(AnalyzeFixtures, ProtocolFsmStrayTallyWrite) {
  EXPECT_EQ(analyze_fixture("protocol_fsm/stray_tally_write"),
            expected("protocol_fsm/stray_tally_write"));
}

TEST(AnalyzeFixtures, SimPurityUnorderedIteration) {
  EXPECT_EQ(analyze_fixture("sim_purity/unordered_iter"),
            expected("sim_purity/unordered_iter"));
}

TEST(AnalyzeFixtures, SimPurityWallClock) {
  EXPECT_EQ(analyze_fixture("sim_purity/wallclock"),
            expected("sim_purity/wallclock"));
}

TEST(AnalyzeFixtures, AtomicDisciplineImplicitOrder) {
  EXPECT_EQ(analyze_fixture("atomic_discipline/implicit_order"),
            expected("atomic_discipline/implicit_order"));
}

TEST(AnalyzeFixtures, ReleaseAcquireUnpairedStore) {
  EXPECT_EQ(analyze_fixture("release_acquire/unpaired_store"),
            expected("release_acquire/unpaired_store"));
}

TEST(AnalyzeFixtures, MixedAccessUnlockedRead) {
  EXPECT_EQ(analyze_fixture("mixed_access/unlocked_read"),
            expected("mixed_access/unlocked_read"));
}

TEST(AnalyzeFixtures, CleanTreeHasNoFindings) {
  EXPECT_EQ(analyze_fixture("clean"), expected("clean"));
}

// -- report layer -----------------------------------------------------------

TEST(AnalyzeReport, FingerprintIsLineFree) {
  const Finding a{"rule", "dir/file.cpp", 10, "message"};
  const Finding b{"rule", "dir/file.cpp", 99, "message"};
  EXPECT_EQ(fingerprint(a), "rule|dir/file.cpp|message");
  EXPECT_EQ(fingerprint(a), fingerprint(b));  // survives code motion
}

TEST(AnalyzeReport, SarifMentionsRuleAndFingerprint) {
  const std::string sarif =
      render_sarif({{"demo-rule", "a/b.cpp", 7, "it \"broke\""}});
  EXPECT_NE(sarif.find("\"ruleId\": \"demo-rule\""), std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\": 7"), std::string::npos);
  EXPECT_NE(sarif.find("premaAnalyze/v1"), std::string::npos);
  EXPECT_NE(sarif.find("\\\"broke\\\""), std::string::npos);
}

}  // namespace
