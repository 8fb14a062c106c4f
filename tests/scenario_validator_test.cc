// Validator coverage for the scenario schema (docs/SCENARIOS.md): every
// malformed-fixture class — unknown field, wrong type, out-of-range
// value, dangling node reference — must fail with the exact dotted
// field-path error string, and a valid document must round-trip through
// ScenarioToJson byte-stably.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/json.h"
#include "scenario/scenario.h"
#include "tests/test_util.h"

namespace tornado {
namespace scenario {
namespace {

std::string Fixture(const std::string& name) {
  return std::string(TORNADO_SCENARIO_FIXTURES) + "/" + name;
}

/// Loads a fixture expected to FAIL validation; returns its error lines.
std::vector<std::string> ErrorsOf(const std::string& name) {
  Scenario scenario;
  std::vector<std::string> errors;
  EXPECT_FALSE(LoadScenarioFile(Fixture(name), &scenario, &errors))
      << name << " unexpectedly validated";
  return errors;
}

bool Contains(const std::vector<std::string>& errors,
              const std::string& want) {
  return std::find(errors.begin(), errors.end(), want) != errors.end();
}

std::string Join(const std::vector<std::string>& errors) {
  std::string out;
  for (const std::string& e : errors) out += "  " + e + "\n";
  return out;
}

TEST(ScenarioValidatorTest, UnknownFieldIsRejectedWithItsPath) {
  const auto errors = ErrorsOf("bad_unknown_field.json");
  EXPECT_TRUE(Contains(errors, "scenario.workload.ratee: unknown field"))
      << Join(errors);
}

// Scenarios run on the sim backend only, and the delay bound is their one
// consistency setting; the schema has no backend, shard-count or
// consistency-mode knob, so each key is an unknown field whatever its
// value (even the sim backend's own name).
TEST(ScenarioValidatorTest, RemovedKnobsAreUnknownFields) {
  const std::string workload =
      R"("workload": {"kind": "sssp", "tuples": 4000, "rate": 10000})";
  const struct {
    std::string extra;
    std::string error;
  } cases[] = {
      {R"("backend": "sim")", "scenario.backend: unknown field"},
      {R"("shards": 4)", "scenario.shards: unknown field"},
      {R"("consistency": {"mode": "fully_async"})",
       "scenario.consistency.mode: unknown field"},
  };
  for (const auto& c : cases) {
    Scenario scenario;
    std::vector<std::string> errors;
    EXPECT_FALSE(ParseScenarioText(
        R"({"name": "x", )" + c.extra + ", " + workload + "}", &scenario,
        &errors));
    EXPECT_TRUE(Contains(errors, c.error)) << Join(errors);
  }
}

TEST(ScenarioValidatorTest, WrongTypeNamesTheExpectedType) {
  const auto errors = ErrorsOf("bad_wrong_type.json");
  EXPECT_TRUE(Contains(errors, "scenario.workload.rate: expected number"))
      << Join(errors);
  EXPECT_TRUE(Contains(errors, "scenario.drive.pause_ingest: "
                               "expected boolean"))
      << Join(errors);
}

TEST(ScenarioValidatorTest, OutOfRangeValuesNameTheBound) {
  const auto errors = ErrorsOf("bad_out_of_range.json");
  EXPECT_TRUE(Contains(errors, "scenario.workload.rate: must be > 0"))
      << Join(errors);
  EXPECT_TRUE(Contains(errors, "scenario.consistency.delay_bound: "
                               "must be in [1, 1000000]"))
      << Join(errors);
}

TEST(ScenarioValidatorTest, DanglingNodeReferenceIsBoundsChecked) {
  const auto errors = ErrorsOf("bad_dangling_node.json");
  EXPECT_TRUE(Contains(
      errors,
      "scenario.timeline[0].node: processor index 12 out of range "
      "(cluster has 8 processors)"))
      << Join(errors);
}

TEST(ScenarioValidatorTest, MissingWorkloadIsRequired) {
  Scenario scenario;
  std::vector<std::string> errors;
  EXPECT_FALSE(ParseScenarioText(R"({"name": "x"})", &scenario, &errors));
  EXPECT_TRUE(Contains(errors, "scenario.workload: missing required field"))
      << Join(errors);
}

TEST(ScenarioValidatorTest, MalformedJsonReportsLineAndColumn) {
  Scenario scenario;
  std::vector<std::string> errors;
  EXPECT_FALSE(ParseScenarioText("{\n  \"name\": }", &scenario, &errors));
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("JSON parse error at 2:"), std::string::npos)
      << errors[0];
}

TEST(ScenarioValidatorTest, ValidScenarioRoundTripsByteStably) {
  Scenario scenario;
  std::vector<std::string> errors;
  ASSERT_TRUE(LoadScenarioFile(Fixture("mini_sssp.json"), &scenario, &errors))
      << Join(errors);
  const std::string once = JsonWrite(ScenarioToJson(scenario));

  Scenario reparsed;
  ASSERT_TRUE(ParseScenarioText(once, &reparsed, &errors)) << Join(errors);
  const std::string twice = JsonWrite(ScenarioToJson(reparsed));
  EXPECT_EQ(once, twice);
}

TEST(ScenarioValidatorTest, EveryCorpusScenarioValidates) {
  // The checked-in corpus must stay loadable — the ctest registration
  // runs each file, but this is the fast-feedback version.
  for (const char* name :
       {"mini_sssp.json", "chaos_commit_regression.json"}) {
    Scenario scenario;
    std::vector<std::string> errors;
    EXPECT_TRUE(LoadScenarioFile(Fixture(name), &scenario, &errors))
        << name << ":\n" << Join(errors);
  }
}

}  // namespace
}  // namespace scenario
}  // namespace tornado
