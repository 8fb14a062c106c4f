// Exercises the tornado_lint binary against fixture files with known-bad
// snippets: every rule must fire on its fixture, NOLINT/NOLINTNEXTLINE
// with a reason must suppress, and the real src/ tree must scan clean.
//
// The binary path and fixture directory come in through compile
// definitions (see tests/CMakeLists.txt).
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <string>

#include "tests/test_util.h"

namespace tornado {
namespace {

struct LintRun {
  int exit_code = -1;
  std::string output;
};

LintRun RunLint(const std::string& args) {
  const std::string cmd =
      std::string(TORNADO_LINT_BIN) + " " + args + " 2>&1";
  LintRun run;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return run;
  std::array<char, 4096> buf;
  size_t n = 0;
  while ((n = fread(buf.data(), 1, buf.size(), pipe)) > 0) {
    run.output.append(buf.data(), n);
  }
  const int status = pclose(pipe);
  run.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return run;
}

std::string Fixtures(const std::string& sub = "") {
  std::string path = TORNADO_LINT_FIXTURES;
  if (!sub.empty()) path += "/" + sub;
  return path;
}

// Count of JSON finding lines naming `rule` with the given suppression
// state (the --json writer emits one finding per line).
int CountFindings(const std::string& json, const std::string& rule,
                  bool suppressed) {
  const std::string rule_key = "\"rule\": \"" + rule + "\"";
  const std::string supp_key =
      std::string("\"suppressed\": ") + (suppressed ? "true" : "false");
  int count = 0;
  size_t pos = 0;
  while ((pos = json.find(rule_key, pos)) != std::string::npos) {
    const size_t eol = json.find('\n', pos);
    const std::string line = json.substr(pos, eol - pos);
    if (line.find(supp_key) != std::string::npos) ++count;
    pos += rule_key.size();
  }
  return count;
}

TEST(LintTest, EveryRuleFiresOnItsFixture) {
  const LintRun run = RunLint("--json " + Fixtures());
  ASSERT_EQ(run.exit_code, 1) << run.output;
  for (const char* rule :
       {"DET-001", "DET-002", "DET-003", "DET-004", "RUN-001", "CON-001",
        "CON-002", "CON-003", "KER-001"}) {
    EXPECT_GE(CountFindings(run.output, rule, /*suppressed=*/false), 1)
        << rule << " did not fire:\n" << run.output;
  }
}

TEST(LintTest, NolintWithReasonSuppresses) {
  const LintRun run = RunLint("--json " + Fixtures());
  ASSERT_EQ(run.exit_code, 1) << run.output;
  for (const char* rule : {"DET-001", "DET-002", "DET-003", "DET-004",
                           "RUN-001", "CON-001", "CON-002", "CON-003",
                           "KER-001"}) {
    EXPECT_GE(CountFindings(run.output, rule, /*suppressed=*/true), 1)
        << rule << " suppression fixture not honored:\n" << run.output;
  }
  EXPECT_NE(run.output.find("fixture exercising the suppression path"),
            std::string::npos)
      << "suppression reasons must be carried into the report";
}

// Each CON bad fixture must trigger exactly its own rule — a fixture
// that trips a neighboring rule would make the per-rule counts above
// meaningless.
TEST(LintTest, ConFixturesAreRulePure) {
  const struct {
    const char* file;
    const char* rule;
  } kCases[] = {
      {"bad/con001_raw_mutex.cc", "CON-001"},
      {"bad/con002_unannotated_field.cc", "CON-002"},
      {"bad/con003_detach.cc", "CON-003"},
  };
  for (const auto& c : kCases) {
    const LintRun run = RunLint("--json " + Fixtures(c.file));
    EXPECT_EQ(run.exit_code, 1) << c.file << ":\n" << run.output;
    EXPECT_GE(CountFindings(run.output, c.rule, /*suppressed=*/false), 1)
        << c.file << ":\n" << run.output;
    for (const char* other : {"DET-001", "DET-002", "DET-003", "DET-004",
                              "RUN-001", "CON-001", "CON-002", "CON-003",
                              "KER-001"}) {
      if (std::string(other) == c.rule) continue;
      EXPECT_EQ(CountFindings(run.output, other, /*suppressed=*/false), 0)
          << c.file << " unexpectedly fired " << other << ":\n"
          << run.output;
    }
  }
}

// std::atomic sightings are warnings: reported in the output, but they
// do not gate (exit 0 when the only findings are warnings).
TEST(LintTest, AtomicIsAWarningAndDoesNotGate) {
  const std::string path = ::testing::TempDir() + "lint_atomic_fixture.cc";
  {
    std::ofstream out(path);
    out << "namespace fixture {\n"
        << "struct Progress {\n"
        << "  std::atomic<long long> emitted{0};\n"
        << "};\n"
        << "}  // namespace fixture\n";
  }
  const LintRun run = RunLint("--json " + path);
  std::remove(path.c_str());
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_GE(CountFindings(run.output, "CON-001", /*suppressed=*/false), 1)
      << run.output;
  EXPECT_NE(run.output.find("\"severity\": \"warning\""), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("\"unsuppressed_errors\": 0"),
            std::string::npos)
      << run.output;
}

// The scenario fuzzer's randomness lives in src/scenario so DET-002
// covers it (tools/ is exempt). This fixture's path contains "scenario/"
// the same way the real sources do — ad-hoc RNG there must be caught.
TEST(LintTest, Det002CoversScenarioSubsystemPaths) {
  const LintRun run =
      RunLint("--json " + Fixtures("bad/scenario/det002_fuzz_rng.cc"));
  ASSERT_EQ(run.exit_code, 1) << run.output;
  EXPECT_GE(CountFindings(run.output, "DET-002", /*suppressed=*/false), 2)
      << run.output;
}

// KER-001's two halves: node containers in kernel-layer C++, and
// fast-math flags in CMake listfiles (live flags fire, commented-out
// flags do not).
TEST(LintTest, Ker001FlagsKernelMapsAndFastMath) {
  const LintRun cc = RunLint("--json " + Fixtures("bad/kernel/ker001_map.cc"));
  ASSERT_EQ(cc.exit_code, 1) << cc.output;
  EXPECT_EQ(CountFindings(cc.output, "KER-001", /*suppressed=*/false), 2)
      << cc.output;
  EXPECT_EQ(CountFindings(cc.output, "KER-001", /*suppressed=*/true), 1)
      << cc.output;

  const LintRun cmake =
      RunLint("--json " + Fixtures("bad/kernel/CMakeLists.txt"));
  ASSERT_EQ(cmake.exit_code, 1) << cmake.output;
  // One -ffast-math and one -funsafe-math-optimizations; the flag in a
  // `#` comment must not count.
  EXPECT_EQ(CountFindings(cmake.output, "KER-001", /*suppressed=*/false), 2)
      << cmake.output;
  EXPECT_NE(cmake.output.find("bit-identical"), std::string::npos)
      << cmake.output;
}

// A node container outside kernel/ paths is DET/CON territory, not
// KER-001's — the rule must stay scoped to the SoA layer.
TEST(LintTest, Ker001IgnoresMapsOutsideKernelPaths) {
  const LintRun run = RunLint("--json " + Fixtures("bad/det004_ptrkey.cc"));
  ASSERT_EQ(run.exit_code, 1) << run.output;
  EXPECT_EQ(CountFindings(run.output, "KER-001", /*suppressed=*/false), 0)
      << run.output;
}

TEST(LintTest, NolintWithoutReasonDoesNotSuppress) {
  const LintRun run = RunLint("--json " + Fixtures("bad/det001_clock.cc"));
  ASSERT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("carries no reason"), std::string::npos)
      << run.output;
}

TEST(LintTest, CleanFixtureScansClean) {
  const LintRun run = RunLint("--json " + Fixtures("clean"));
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("\"unsuppressed\": 0"), std::string::npos)
      << run.output;
}

TEST(LintTest, FixHintsNameTheRemedy) {
  const LintRun run = RunLint("--fix-hints " + Fixtures("bad"));
  ASSERT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("hint: "), std::string::npos) << run.output;
  EXPECT_NE(run.output.find("common/ordered.h"), std::string::npos)
      << run.output;
}

// --fix-hints also prints the paste-ready escape hatch, per rule.
TEST(LintTest, FixHintsPrintTheSuppressionSyntax) {
  const LintRun run = RunLint("--fix-hints " + Fixtures("bad"));
  ASSERT_EQ(run.exit_code, 1) << run.output;
  for (const char* rule : {"CON-001", "CON-002", "CON-003"}) {
    EXPECT_NE(run.output.find("suppress: // NOLINT(" + std::string(rule) +
                              "): <why this is safe>"),
              std::string::npos)
        << rule << ":\n" << run.output;
  }
}

// The SARIF output must carry the rule table and one result per
// unsuppressed finding, in the 2.1.0 shape CI uploads as an artifact.
TEST(LintTest, SarifOutputHasRulesAndResults) {
  const LintRun run = RunLint("--sarif " + Fixtures("bad"));
  ASSERT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("\"version\": \"2.1.0\""), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("\"name\": \"tornado_lint\""), std::string::npos)
      << run.output;
  for (const char* rule : {"DET-001", "CON-001", "CON-002", "CON-003"}) {
    EXPECT_NE(run.output.find("{\"id\": \"" + std::string(rule) + "\""),
              std::string::npos)
        << rule << " missing from driver.rules:\n" << run.output;
    EXPECT_NE(run.output.find("{\"ruleId\": \"" + std::string(rule) + "\""),
              std::string::npos)
        << rule << " missing from results:\n" << run.output;
  }
  // Suppressed findings stay out of the artifact.
  EXPECT_EQ(run.output.find("fixture exercising the suppression path"),
            std::string::npos)
      << run.output;
}

// The acceptance gate: the real sources carry zero unsuppressed findings.
TEST(LintTest, SrcTreeIsClean) {
  const LintRun run = RunLint("--json " + std::string(TORNADO_SRC_DIR));
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

}  // namespace
}  // namespace tornado
