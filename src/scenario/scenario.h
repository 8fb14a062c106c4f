#ifndef TORNADO_SCENARIO_SCENARIO_H_
#define TORNADO_SCENARIO_SCENARIO_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/config.h"
#include "net/payload.h"
#include "common/json.h"

namespace tornado {
namespace scenario {

/// Declarative description of one complete Tornado run (docs/SCENARIOS.md):
/// cluster shape, cost-model knobs, workload mix, delay bound, and a
/// scripted failure/recovery timeline. A scenario is a data artifact — the
/// checked-in scenarios/ corpus, the fuzzer's repro files and the figure
/// benches all share this schema, and ScenarioRunner compiles any valid
/// instance into a cluster run with the invariant checker attached.
///
/// Validation is strict: unknown fields, wrong types, out-of-range values
/// and dangling node references fail with dotted field-path messages
/// ("scenario.workload.rate: must be > 0") so a bad corpus file dies in
/// review, not three minutes into a run.

/// A timeline reference to one node of the cluster, written in JSON as
/// "processor:3", "master" or "ingester". Resolution to transport NodeIds
/// follows the cluster layout (processors [0,P), master P, ingester P+1).
struct NodeRef {
  enum class Kind { kProcessor, kMaster, kIngester };

  Kind kind = Kind::kProcessor;
  uint32_t index = 0;  // processors only

  std::string ToString() const;
  bool operator==(const NodeRef& other) const {
    return kind == other.kind && index == other.index;
  }
};

/// One scripted action. `at` is in virtual seconds relative to the drive
/// origin t0 (the instant the measured window starts, after warmup and
/// settle). Which operand fields are meaningful depends on `kind`.
struct TimelineAction {
  enum class Kind {
    kKill,           // node
    kRecover,        // node
    kCrashRestart,   // node, downtime: kill now, recover `downtime` later
    kDropLink,       // src -> dst one-way cut
    kRestoreLink,    // src -> dst restored
    kPartition,      // side: bidirectional cut between side and the rest
    kHealPartition,  // side
    kSlowNode,       // node, factor
    kRestoreSpeed,   // node
    kSetRate,        // rate: ingest override (tuples/s)
    kRestoreRate,    // back to the configured rate
  };

  Kind kind = Kind::kKill;
  double at = 0.0;
  NodeRef node;
  NodeRef src, dst;
  std::vector<NodeRef> side;
  double downtime = 0.0;  // crash_restart
  double factor = 1.0;    // slow_node
  double rate = 0.0;      // set_rate
};

/// Cluster shape.
struct ScenarioCluster {
  uint32_t processors = 8;
  uint32_t hosts = 4;
  /// Optional static per-processor speed factors (missing entries 1.0).
  std::vector<double> processor_speeds;
};

/// Workload mix: which vertex program, its input stream, and the pacing.
struct ScenarioWorkload {
  enum class Kind { kSssp, kPageRank, kKMeans, kSgdSvm, kSgdLr };

  Kind kind = Kind::kSssp;
  uint64_t tuples = 30000;
  double rate = 10000.0;  // tuples per virtual second
  uint32_t batch = 10;    // ingest batch size
  bool batch_mode = true;  // sssp/sgd gather batching
  uint64_t stream_seed = 42;
};

/// The staleness bound B of the bounded asynchronous iteration model.
struct ScenarioConsistency {
  uint64_t delay_bound = 16;
};

/// The drive plan: warmup, measurement window, sampling cadence.
struct ScenarioDrive {
  uint64_t warmup_tuples = 15000;
  double warmup_timeout = 3000.0;
  bool pause_ingest = true;      // freeze input before the window
  double settle_seconds = 0.5;   // absorb the warmup
  bool query_at_start = true;    // submit a query at t0
  double sample_start_seconds = 0.05;  // t0 -> first bucket boundary
  double bucket_seconds = 0.02;
  uint32_t sample_count = 152;
  bool wait_for_query = false;   // after sampling, run until it converges
  double query_timeout = 3000.0;
};

/// Deliberate protocol sabotage, used to prove the checker gate catches
/// real violations (fuzzer acceptance tests). Not part of the mutation
/// space: the fuzzer never adds chaos, it only inherits it from a seeded
/// input scenario.
struct ScenarioChaos {
  /// When >= 0, re-emit a duplicate commit event into the checker once
  /// this many virtual seconds have passed since t0 — a guaranteed
  /// INV-MONO-COMMIT violation.
  double commit_regression_after = -1.0;
};

struct Scenario {
  std::string name;
  std::string description;
  uint64_t seed = 1;
  ScenarioCluster cluster;
  /// CostModel overrides keyed by field name (e.g. "net_latency");
  /// unlisted fields keep their defaults. Keys are validated against the
  /// CostModel schema.
  std::map<std::string, double> cost;
  ScenarioWorkload workload;
  ScenarioConsistency consistency;
  ScenarioDrive drive;
  std::vector<TimelineAction> timeline;
  ScenarioChaos chaos;
  /// Free-form origin metadata (fuzzer seed, base corpus file, shrink
  /// step count). Carried through round trips, ignored by the runner.
  std::map<std::string, std::string> provenance;
};

const char* WorkloadKindName(ScenarioWorkload::Kind kind);
const char* ActionKindName(TimelineAction::Kind kind);

/// A `cost` key the fuzzer perturbs, with its CostModel default.
struct CostKnob {
  const char* name;
  double default_value;
};

/// The cost knobs MutateScenario perturbs, in schema order: the rows of
/// the schema's cost table that are marked as fuzzed.
std::vector<CostKnob> FuzzedCostKnobs();

/// Parses and validates a scenario document. Returns true on success;
/// otherwise `*errors` lists every problem found, each prefixed with its
/// dotted field path rooted at "scenario." (the validator keeps going
/// after the first error so a review pass sees the whole damage).
bool ParseScenario(const JsonValue& root, Scenario* out,
                   std::vector<std::string>* errors);

/// JsonParse + ParseScenario. Parse errors land in `*errors` too.
bool ParseScenarioText(const std::string& text, Scenario* out,
                       std::vector<std::string>* errors);

/// Reads and parses `path`. I/O errors land in `*errors`.
bool LoadScenarioFile(const std::string& path, Scenario* out,
                      std::vector<std::string>* errors);

/// Serializes back to the schema's JSON shape (round-trips through
/// ParseScenario losslessly; defaulted sections are written explicitly).
JsonValue ScenarioToJson(const Scenario& scenario);

/// Materializes the JobConfig a scenario describes (program, streams are
/// the runner's job — this covers shape, pacing, consistency and cost).
JobConfig ScenarioJobConfig(const Scenario& scenario);

}  // namespace scenario
}  // namespace tornado

#endif  // TORNADO_SCENARIO_SCENARIO_H_
