// Validator coverage for the scenario schema (docs/SCENARIOS.md): every
// malformed-fixture class — unknown field, wrong type, out-of-range
// value, dangling node reference — must fail with the exact dotted
// field-path error string, and a valid document must round-trip through
// ScenarioToJson byte-stably.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "common/json.h"
#include "runtime/substrate.h"
#include "scenario/fuzzer.h"
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

/// Every checked-in corpus file, in sorted order.
std::vector<std::filesystem::path> CorpusFiles() {
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(TORNADO_SCENARIO_CORPUS)) {
    if (entry.path().extension() == ".json") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

/// The valid fixtures (the bad_*.json ones fail validation on purpose).
const char* const kValidFixtures[] = {"chaos_commit_regression.json",
                                      "mini_sssp.json"};

uint64_t Fnv1a(const std::string& bytes, uint64_t hash) {
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 1099511628211ULL;
  }
  return hash;
}

/// FNV-1a digest of the schema's JSON for `scenario`.
uint64_t WrittenDigest(const Scenario& scenario) {
  return Fnv1a(JsonWrite(ScenarioToJson(scenario)), 14695981039346656037ULL);
}

Scenario LoadValid(const std::string& path) {
  Scenario scenario;
  std::vector<std::string> errors;
  EXPECT_TRUE(LoadScenarioFile(path, &scenario, &errors))
      << path << ":\n" << Join(errors);
  return scenario;
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
  std::vector<std::string> paths;
  for (const auto& file : CorpusFiles()) paths.push_back(file.string());
  for (const char* name : kValidFixtures) paths.push_back(Fixture(name));
  for (const std::string& path : paths) {
    const std::string once = JsonWrite(ScenarioToJson(LoadValid(path)));
    Scenario reparsed;
    std::vector<std::string> errors;
    ASSERT_TRUE(ParseScenarioText(once, &reparsed, &errors))
        << path << ":\n" << Join(errors);
    EXPECT_EQ(once, JsonWrite(ScenarioToJson(reparsed))) << path;
  }
}

TEST(ScenarioValidatorTest, EveryCorpusScenarioValidates) {
  // The checked-in corpus must stay loadable — the ctest registration
  // runs each file, but this is the fast-feedback version.
  const auto files = CorpusFiles();
  EXPECT_FALSE(files.empty());
  for (const auto& file : files) LoadValid(file.string());
  for (const char* name : kValidFixtures) LoadValid(Fixture(name));
}

// The schema's written form is part of the repro contract: a corpus file,
// fixture or fuzz mutant must serialize to the same bytes on every commit,
// or a repro written by one build stops matching another. The digests are
// FNV-1a over JsonWrite(ScenarioToJson(...)).
TEST(ScenarioValidatorTest, WrittenFormMatchesRecordedDigests) {
  const std::map<std::string, uint64_t> want = {
      {"asymmetric_partition.json", 0xb88a149befb6e23eULL},
      {"fig5_pagerank_approx.json", 0x0322630313086d9bULL},
      {"fig5_sssp_batch.json", 0xa73ae788efff1589ULL},
      {"fig8c_master_failure.json", 0xe42fd287ef3a39e4ULL},
      {"fig8d_processor_failure.json", 0xb33cb44445ab908aULL},
      {"fixture:chaos_commit_regression.json", 0x4bb754e0f9be9346ULL},
      {"fixture:mini_sssp.json", 0xb0ce42d9ac87f2c1ULL},
      {"gray_failure_flaky_link.json", 0x3286791f14dcac2bULL},
      {"ingest_flash_crowd.json", 0x199e99f3edb036a8ULL},
      {"mutants:mini_sssp seed 8 runs 0..15", 0xf3e4cbb7e57653c2ULL},
      {"partition_split_heal.json", 0x83a0d3d772ce4b26ULL},
      {"rolling_restart.json", 0xd3b80e03ca12d4f0ULL},
      {"straggler_slow_node.json", 0x5a15a48ada898833ULL},
  };
  std::map<std::string, uint64_t> got;
  for (const auto& file : CorpusFiles()) {
    got[file.filename().string()] = WrittenDigest(LoadValid(file.string()));
  }
  for (const char* name : kValidFixtures) {
    got[std::string("fixture:") + name] =
        WrittenDigest(LoadValid(Fixture(name)));
  }
  const Scenario base = LoadValid(Fixture("mini_sssp.json"));
  const SubstrateRng streams(8);
  uint64_t mutants = 14695981039346656037ULL;
  for (uint32_t run = 0; run < 16; ++run) {
    Rng rng = streams.MakeRng(SubstrateRng::kFuzzMutationStream + run);
    mutants = Fnv1a(JsonWrite(ScenarioToJson(MutateScenario(base, &rng))),
                    mutants);
  }
  got["mutants:mini_sssp seed 8 runs 0..15"] = mutants;
  EXPECT_EQ(got, want);
}

// Every bounded field out of range at once: the keep-going validator
// reports each with its path and bound, in schema order, then the
// unknown top-level field last. An integer above 2^53, which the
// double-based JSON codec cannot hold exactly, is out of range too.
TEST(ScenarioValidatorTest, EveryBoundIsReportedInSchemaOrder) {
  const std::string text = R"({
    "name": "all_out_of_range",
    "seed": -1,
    "cluster": {"processors": 0, "hosts": 257,
                "processor_speeds": [1.5, 0, "fast"]},
    "cost": {"net_latency": 0, "net_jitter": 1, "nic_wire_time": 0,
             "local_latency": -1, "per_message_cpu": 0,
             "per_update_cpu": 0, "store_write_cost": 0,
             "flush_base_cost": 0, "flush_per_version": 0,
             "ack_timeout": 0, "ack_timeout_max": 0,
             "progress_period": 0, "net_jiter": 0.1},
    "workload": {"kind": "sssp", "tuples": 99, "rate": 0,
                 "batch": 100001, "batch_mode": 1, "stream_seed": 1.5},
    "consistency": {"delay_bound": 1000001},
    "drive": {"warmup_tuples": 1e30, "warmup_timeout": 0,
              "settle_seconds": -1,
              "sample_start_seconds": -0.5, "bucket_seconds": 0,
              "sample_count": 100001, "query_timeout": -3},
    "timeline": [
      {"action": "kill", "at": -1, "node": "processor:8"},
      {"action": "crash_restart", "at": 0.1, "node": "master",
       "downtime": 0},
      {"action": "drop_link", "at": 0.1, "src": "processor:1",
       "dst": "processor:1"},
      {"action": "partition", "at": 0.1,
       "side": ["processor:9", "nobody", 3]},
      {"action": "slow_node", "at": 0.1, "node": "ingester", "factor": -2},
      {"action": "set_rate", "at": 0.1, "rate": 0},
      {"action": "set_rate"},
      {"action": "recover", "at": 0.1, "node": 5},
      {"action": "restore_speed", "at": 0.1, "node": "worker:1",
       "factor": 2},
      {"action": "crash_restart", "at": 0.1},
      {"action": "heal_partition", "at": 0.1, "side": []},
      {"action": "explode", "at": 0.1, "node": "master"}
    ],
    "chaos": {"commit_regression_after": -0.5},
    "extra": true
  })";
  const std::vector<std::string> want = {
      "scenario.seed: expected non-negative integer",
      "scenario.cluster.processors: must be in [1, 256]",
      "scenario.cluster.hosts: must be in [1, 256]",
      "scenario.cluster.processor_speeds[1]: must be > 0",
      "scenario.cluster.processor_speeds[2]: expected number",
      "scenario.cost.net_latency: must be > 0",
      "scenario.cost.net_jitter: must be in [0, 1)",
      "scenario.cost.nic_wire_time: must be > 0",
      "scenario.cost.local_latency: must be > 0",
      "scenario.cost.per_message_cpu: must be > 0",
      "scenario.cost.per_update_cpu: must be > 0",
      "scenario.cost.store_write_cost: must be > 0",
      "scenario.cost.flush_base_cost: must be > 0",
      "scenario.cost.flush_per_version: must be > 0",
      "scenario.cost.ack_timeout: must be > 0",
      "scenario.cost.ack_timeout_max: must be > 0",
      "scenario.cost.progress_period: must be > 0",
      "scenario.cost.net_jiter: unknown field",
      "scenario.workload.tuples: must be in [100, 10000000]",
      "scenario.workload.rate: must be > 0",
      "scenario.workload.batch: must be in [1, 100000]",
      "scenario.workload.batch_mode: expected boolean",
      "scenario.workload.stream_seed: expected non-negative integer",
      "scenario.consistency.delay_bound: must be in [1, 1000000]",
      "scenario.drive.warmup_tuples: must be <= 9007199254740992",
      "scenario.drive.warmup_timeout: must be > 0",
      "scenario.drive.settle_seconds: must be >= 0",
      "scenario.drive.sample_start_seconds: must be >= 0",
      "scenario.drive.bucket_seconds: must be > 0",
      "scenario.drive.sample_count: must be <= 100000",
      "scenario.drive.query_timeout: must be > 0",
      "scenario.timeline[0].at: must be >= 0",
      "scenario.timeline[0].node: processor index 8 out of range "
      "(cluster has 8 processors)",
      "scenario.timeline[1].downtime: must be > 0",
      "scenario.timeline[2]: src and dst must differ",
      "scenario.timeline[3].side[0]: processor index 9 out of range "
      "(cluster has 8 processors)",
      "scenario.timeline[3].side[1]: invalid node reference \"nobody\"",
      "scenario.timeline[3].side[2]: expected node reference string",
      "scenario.timeline[4].factor: must be > 0",
      "scenario.timeline[5].rate: must be > 0",
      "scenario.timeline[6].at: missing required field",
      "scenario.timeline[6].rate: missing required field",
      "scenario.timeline[7].node: expected node reference string "
      "(\"processor:N\", \"master\" or \"ingester\")",
      "scenario.timeline[8].node: invalid node reference \"worker:1\" "
      "(want \"processor:N\", \"master\" or \"ingester\")",
      "scenario.timeline[8].factor: unknown field",
      "scenario.timeline[9].node: missing required field",
      "scenario.timeline[9].downtime: missing required field",
      "scenario.timeline[10].side: expected non-empty array",
      "scenario.timeline[11].action: unknown action \"explode\"",
      "scenario.timeline[11].node: unknown field",
      "scenario.chaos.commit_regression_after: must be >= 0",
      "scenario.extra: unknown field",
  };
  Scenario scenario;
  std::vector<std::string> errors;
  EXPECT_FALSE(ParseScenarioText(text, &scenario, &errors));
  EXPECT_EQ(errors, want);
}

}  // namespace
}  // namespace scenario
}  // namespace tornado
