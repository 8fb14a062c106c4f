#ifndef TORNADO_SCENARIO_FUZZER_H_
#define TORNADO_SCENARIO_FUZZER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "scenario/runner.h"
#include "scenario/scenario.h"

namespace tornado {
namespace scenario {

/// Seeded scenario fuzzer (docs/SCENARIOS.md): mutates corpus scenarios
/// within schema bounds, runs each mutant on the deterministic sim
/// backend under the invariant checker, and on a violation shrinks
/// toward a minimal failing scenario and emits a repro JSON document.
///
/// Determinism contract: every random draw comes from the SubstrateRng
/// named stream kFuzzMutationStream + run index (the shrinker draws
/// nothing) — never wall-clock or host entropy — so the same (seed,
/// corpus) pair replays the same mutants and the repro file's recorded
/// seed reproduces its violation exactly. The fuzzer lives in
/// src/scenario (not tools/) so the DET-002 lint rule covers it.

struct FuzzOptions {
  uint64_t seed = 8;
  /// Mutant runs to attempt (stops early on the first violation).
  uint32_t budget_runs = 25;
  /// Directory repro JSON files are written into ("" = skip writing).
  std::string out_dir;
  /// Cap on shrink candidate runs after a violation is found.
  uint32_t shrink_budget = 48;
  /// Progress lines to stderr.
  bool verbose = false;
};

struct FuzzResult {
  uint32_t runs = 0;          // mutants executed
  uint32_t shrink_runs = 0;   // shrink candidates executed
  bool found_violation = false;
  uint32_t failing_run = 0;   // run index of the first violation
  Scenario repro;             // the shrunken failing scenario
  std::string repro_path;     // written file ("" when out_dir empty)
  std::vector<CheckViolation> violations;  // from the final repro run
};

/// One schema-bounded mutation pass over `base`, drawing from `rng`.
/// Never adds a chaos section (deliberate sabotage only enters through a
/// seeded corpus file); everything it produces re-validates against the
/// schema. Exposed for the determinism unit tests.
Scenario MutateScenario(const Scenario& base, Rng* rng);

/// Runs a scenario and reports whether the invariant gate tripped;
/// `verdict_out` (optional) receives the full verdict.
bool ScenarioViolates(const Scenario& scenario,
                      ScenarioVerdict* verdict_out = nullptr);

/// Deterministic greedy shrink: repeatedly tries schema-valid reductions
/// (drop a timeline action, halve tuples/warmup, drop cost overrides,
/// shorten the sampled window) and keeps any candidate that still
/// violates. Returns the smallest still-failing scenario found within
/// `budget` candidate runs.
Scenario ShrinkScenario(const Scenario& failing, uint32_t budget,
                        uint32_t* runs_used, bool verbose);

/// The fuzz campaign: `corpus` must be non-empty and pre-validated.
FuzzResult FuzzScenarios(const std::vector<Scenario>& corpus,
                         const FuzzOptions& options);

}  // namespace scenario
}  // namespace tornado

#endif  // TORNADO_SCENARIO_FUZZER_H_
