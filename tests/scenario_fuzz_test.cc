// Acceptance tests for the seeded scenario fuzzer: mutation is a pure
// function of (seed, run index); a corpus seeded with the deliberately
// protocol-violating chaos scenario must yield a shrunken repro JSON; and
// the written repro must reproduce its violation deterministically when
// loaded back.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "runtime/substrate.h"
#include "scenario/fuzzer.h"
#include "common/json.h"
#include "scenario/runner.h"
#include "scenario/scenario.h"
#include "tests/test_util.h"

namespace tornado {
namespace scenario {
namespace {

Scenario LoadFixture(const std::string& name) {
  Scenario scenario;
  std::vector<std::string> errors;
  const std::string path =
      std::string(TORNADO_SCENARIO_FIXTURES) + "/" + name;
  EXPECT_TRUE(LoadScenarioFile(path, &scenario, &errors));
  for (const std::string& e : errors) ADD_FAILURE() << e;
  return scenario;
}

TEST(ScenarioFuzzTest, MutationIsDeterministicPerSeedAndRun) {
  const Scenario base = LoadFixture("mini_sssp.json");
  const SubstrateRng streams(8);
  Rng a = streams.MakeRng(SubstrateRng::kFuzzMutationStream + 3);
  Rng b = streams.MakeRng(SubstrateRng::kFuzzMutationStream + 3);
  const std::string ma = JsonWrite(ScenarioToJson(MutateScenario(base, &a)));
  const std::string mb = JsonWrite(ScenarioToJson(MutateScenario(base, &b)));
  EXPECT_EQ(ma, mb);

  // A different run index draws a different stream.
  Rng c = streams.MakeRng(SubstrateRng::kFuzzMutationStream + 4);
  const std::string mc = JsonWrite(ScenarioToJson(MutateScenario(base, &c)));
  EXPECT_NE(ma, mc);
}

TEST(ScenarioFuzzTest, MutantsStaySchemaValid) {
  const Scenario base = LoadFixture("mini_sssp.json");
  const SubstrateRng streams(8);
  for (uint32_t run = 0; run < 16; ++run) {
    Rng rng = streams.MakeRng(SubstrateRng::kFuzzMutationStream + run);
    Scenario mutant = MutateScenario(base, &rng);
    mutant.name = "mutant-" + std::to_string(run);
    Scenario reparsed;
    std::vector<std::string> errors;
    EXPECT_TRUE(ParseScenarioText(JsonWrite(ScenarioToJson(mutant)),
                                  &reparsed, &errors))
        << "run " << run;
    for (const std::string& e : errors) {
      ADD_FAILURE() << "run " << run << ": " << e;
    }
    // The mutator never adds sabotage on its own.
    EXPECT_LT(mutant.chaos.commit_regression_after, 0.0) << "run " << run;
  }
}

TEST(ScenarioFuzzTest, SeededViolationYieldsShrunkenReproThatReproduces) {
  const std::string out_dir = ::testing::TempDir() + "scenario_fuzz_out";
  std::vector<Scenario> corpus = {LoadFixture("chaos_commit_regression.json")};

  FuzzOptions options;
  options.seed = 8;
  options.budget_runs = 5;
  options.out_dir = out_dir;
  const FuzzResult result = FuzzScenarios(corpus, options);

  // Every mutant keeps the base's chaos section, so run 0 already trips.
  ASSERT_TRUE(result.found_violation);
  EXPECT_EQ(result.failing_run, 0u);
  ASSERT_FALSE(result.violations.empty());
  EXPECT_EQ(result.violations[0].invariant, "INV-MONO-COMMIT");

  // Shrunk toward minimal: no larger than the mutant's workload bounds.
  EXPECT_LE(result.repro.workload.tuples, corpus[0].workload.tuples);
  EXPECT_LE(result.repro.drive.sample_count, corpus[0].drive.sample_count);
  EXPECT_EQ(result.repro.provenance.at("fuzz_seed"), "8");
  EXPECT_EQ(result.repro.provenance.at("fuzz_run"), "0");
  EXPECT_EQ(result.repro.provenance.at("base_scenario"),
            "chaos_commit_regression");

  // The written repro file loads and reproduces the violation.
  ASSERT_FALSE(result.repro_path.empty());
  Scenario reloaded;
  std::vector<std::string> errors;
  ASSERT_TRUE(LoadScenarioFile(result.repro_path, &reloaded, &errors));
  ScenarioVerdict verdict;
  EXPECT_TRUE(ScenarioViolates(reloaded, &verdict));
  ASSERT_FALSE(verdict.violations.empty());
  EXPECT_EQ(verdict.violations[0].invariant, "INV-MONO-COMMIT");
}

TEST(ScenarioFuzzTest, CampaignIsDeterministicEndToEnd) {
  std::vector<Scenario> corpus = {LoadFixture("chaos_commit_regression.json")};
  FuzzOptions options;
  options.seed = 8;
  options.budget_runs = 3;
  const FuzzResult a = FuzzScenarios(corpus, options);
  const FuzzResult b = FuzzScenarios(corpus, options);
  ASSERT_TRUE(a.found_violation);
  ASSERT_TRUE(b.found_violation);
  EXPECT_EQ(a.failing_run, b.failing_run);
  EXPECT_EQ(a.shrink_runs, b.shrink_runs);
  EXPECT_EQ(JsonWrite(ScenarioToJson(a.repro)),
            JsonWrite(ScenarioToJson(b.repro)));
}

TEST(ScenarioFuzzTest, HealthyCorpusFindsNoViolation) {
  std::vector<Scenario> corpus = {LoadFixture("mini_sssp.json")};
  FuzzOptions options;
  options.seed = 8;
  options.budget_runs = 4;
  const FuzzResult result = FuzzScenarios(corpus, options);
  EXPECT_FALSE(result.found_violation)
      << JsonWrite(ScenarioToJson(result.repro));
  EXPECT_EQ(result.runs, 4u);
}

}  // namespace
}  // namespace scenario
}  // namespace tornado
