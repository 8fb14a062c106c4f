#include "scenario/fuzzer.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <utility>

#include "runtime/substrate.h"
#include "common/json.h"

namespace tornado {
namespace scenario {

namespace {

NodeRef RandomProcessor(const Scenario& s, Rng* rng) {
  NodeRef ref;
  ref.kind = NodeRef::Kind::kProcessor;
  ref.index = static_cast<uint32_t>(rng->NextUint64(s.cluster.processors));
  return ref;
}

double SampledWindow(const Scenario& s) {
  return s.drive.sample_start_seconds +
         s.drive.bucket_seconds * s.drive.sample_count;
}

}  // namespace

Scenario MutateScenario(const Scenario& base, Rng* rng) {
  Scenario m = base;
  m.provenance.clear();
  // Bound a mutant's runtime: the sampled window is finite; never let a
  // mutant tail into an unbounded convergence wait.
  m.drive.wait_for_query = false;

  const uint32_t mutations = 1 + static_cast<uint32_t>(rng->NextUint64(3));
  for (uint32_t i = 0; i < mutations; ++i) {
    switch (rng->NextUint64(7)) {
      case 0:
        // Staleness bound, log-uniform over the schema's interesting
        // range (1 = synchronous degenerate ... 65536 = effectively
        // unbounded).
        m.consistency.delay_bound = uint64_t{1} << rng->NextUint64(17);
        break;
      case 1:
        m.workload.rate = std::clamp(
            m.workload.rate * rng->NextDouble(0.25, 4.0), 1.0, 1e6);
        break;
      case 2: {
        static constexpr uint32_t kBatches[] = {1, 5, 10, 20, 50};
        m.workload.batch = kBatches[rng->NextUint64(5)];
        break;
      }
      case 3: {
        const double scaled =
            static_cast<double>(m.workload.tuples) * rng->NextDouble(0.5, 2.0);
        m.workload.tuples = static_cast<uint64_t>(
            std::clamp(scaled, 1000.0, 60000.0));
        if (m.drive.warmup_tuples > m.workload.tuples) {
          m.drive.warmup_tuples = m.workload.tuples / 2;
        }
        break;
      }
      case 4: {
        // Each knob stays within [0.5x, 2x] of its default, a physically
        // plausible band.
        const std::vector<CostKnob> knobs = FuzzedCostKnobs();
        const CostKnob& knob = knobs[rng->NextUint64(knobs.size())];
        m.cost[knob.name] = knob.default_value * rng->NextDouble(0.5, 2.0);
        break;
      }
      case 5: {
        if (m.timeline.empty()) break;
        const size_t idx = rng->NextUint64(m.timeline.size());
        switch (rng->NextUint64(3)) {
          case 0:  // shift in time, staying inside the sampled window
            m.timeline[idx].at = std::clamp(
                m.timeline[idx].at * rng->NextDouble(0.5, 2.0), 0.0,
                SampledWindow(m));
            break;
          case 1: {  // duplicate, shifted later
            TimelineAction copy = m.timeline[idx];
            copy.at = std::clamp(copy.at + rng->NextDouble(0.05, 0.5), 0.0,
                                 SampledWindow(m));
            m.timeline.push_back(std::move(copy));
            break;
          }
          default:
            m.timeline.erase(m.timeline.begin() +
                             static_cast<ptrdiff_t>(idx));
            break;
        }
        break;
      }
      default: {
        // Add a fresh fault (and, where it has one, its healing partner).
        const double window = SampledWindow(m);
        TimelineAction a;
        a.at = rng->NextDouble(0.0, window * 0.75);
        switch (rng->NextUint64(4)) {
          case 0:
            a.kind = TimelineAction::Kind::kCrashRestart;
            a.node = RandomProcessor(m, rng);
            a.downtime = rng->NextDouble(0.2, 1.5);
            m.timeline.push_back(a);
            break;
          case 1: {
            a.kind = TimelineAction::Kind::kDropLink;
            a.src = RandomProcessor(m, rng);
            do {
              a.dst = RandomProcessor(m, rng);
            } while (m.cluster.processors > 1 && a.dst == a.src);
            if (a.dst == a.src) break;  // single-processor cluster
            TimelineAction heal = a;
            heal.kind = TimelineAction::Kind::kRestoreLink;
            heal.at = std::min(a.at + rng->NextDouble(0.1, 1.0), window);
            m.timeline.push_back(a);
            m.timeline.push_back(heal);
            break;
          }
          case 2: {
            a.kind = TimelineAction::Kind::kSlowNode;
            a.node = RandomProcessor(m, rng);
            a.factor = rng->NextDouble(1.5, 8.0);
            TimelineAction heal;
            heal.kind = TimelineAction::Kind::kRestoreSpeed;
            heal.node = a.node;
            heal.at = std::min(a.at + rng->NextDouble(0.2, 1.0), window);
            m.timeline.push_back(a);
            m.timeline.push_back(heal);
            break;
          }
          default: {
            a.kind = TimelineAction::Kind::kSetRate;
            a.rate = std::clamp(m.workload.rate * rng->NextDouble(0.5, 4.0),
                                1.0, 1e6);
            TimelineAction heal;
            heal.kind = TimelineAction::Kind::kRestoreRate;
            heal.at = std::min(a.at + rng->NextDouble(0.2, 1.0), window);
            m.timeline.push_back(a);
            m.timeline.push_back(heal);
            break;
          }
        }
        break;
      }
    }
  }
  return m;
}

bool ScenarioViolates(const Scenario& s, ScenarioVerdict* verdict_out) {
  ScenarioRunner runner(s);
  ScenarioVerdict verdict = runner.Run();
  const bool violates = !verdict.invariants_held;
  if (verdict_out != nullptr) *verdict_out = std::move(verdict);
  return violates;
}

Scenario ShrinkScenario(const Scenario& failing, uint32_t budget,
                        uint32_t* runs_used, bool verbose) {
  // Greedy deterministic shrink: fixed pass order, accept any candidate
  // that still violates, iterate to a fixed point or budget exhaustion.
  Scenario best = failing;
  uint32_t used = 0;
  auto attempt = [&](Scenario candidate) {
    if (used >= budget) return false;
    ++used;
    if (!ScenarioViolates(candidate)) return false;
    best = std::move(candidate);
    return true;
  };

  bool progressed = true;
  while (progressed && used < budget) {
    progressed = false;
    // Drop timeline actions one at a time (reverse order keeps earlier
    // indexes valid across successful erases).
    for (size_t i = best.timeline.size(); i-- > 0 && used < budget;) {
      Scenario candidate = best;
      candidate.timeline.erase(candidate.timeline.begin() +
                               static_cast<ptrdiff_t>(i));
      if (attempt(std::move(candidate))) progressed = true;
    }
    // Halve the workload.
    if (best.workload.tuples >= 2000 && used < budget) {
      Scenario candidate = best;
      candidate.workload.tuples /= 2;
      if (candidate.drive.warmup_tuples > candidate.workload.tuples) {
        candidate.drive.warmup_tuples = candidate.workload.tuples / 2;
      }
      if (attempt(std::move(candidate))) progressed = true;
    }
    // Halve the warmup.
    if (best.drive.warmup_tuples >= 1000 && used < budget) {
      Scenario candidate = best;
      candidate.drive.warmup_tuples /= 2;
      if (attempt(std::move(candidate))) progressed = true;
    }
    // Shorten the sampled window.
    if (best.drive.sample_count >= 2 && used < budget) {
      Scenario candidate = best;
      candidate.drive.sample_count /= 2;
      if (attempt(std::move(candidate))) progressed = true;
    }
    // Drop cost overrides one at a time.
    for (auto it = best.cost.begin(); it != best.cost.end() && used < budget;) {
      Scenario candidate = best;
      candidate.cost.erase(it->first);
      const std::string key = it->first;
      if (attempt(std::move(candidate))) {
        progressed = true;
        it = best.cost.begin();  // best changed; restart over its map
      } else {
        it = best.cost.upper_bound(key);
      }
    }
    if (verbose) {
      std::fprintf(stderr,
                   "shrink: %u/%u runs, %zu actions, %llu tuples\n", used,
                   budget, best.timeline.size(),
                   static_cast<unsigned long long>(best.workload.tuples));
    }
  }
  *runs_used += used;
  return best;
}

FuzzResult FuzzScenarios(const std::vector<Scenario>& corpus,
                         const FuzzOptions& options) {
  FuzzResult result;
  const SubstrateRng streams(options.seed);
  for (uint32_t run = 0; run < options.budget_runs; ++run) {
    // One independent named stream per run: replaying run N needs only
    // (seed, N), not the draw history of runs 0..N-1.
    Rng rng = streams.MakeRng(SubstrateRng::kFuzzMutationStream + run);
    const Scenario& base = corpus[rng.NextUint64(corpus.size())];
    Scenario mutant = MutateScenario(base, &rng);
    mutant.name = base.name + "-fuzz" + std::to_string(run);
    if (options.verbose) {
      std::fprintf(stderr, "fuzz run %u/%u: %s (base %s)\n", run + 1,
                   options.budget_runs, mutant.name.c_str(),
                   base.name.c_str());
    }
    ++result.runs;
    if (!ScenarioViolates(mutant)) continue;

    result.found_violation = true;
    result.failing_run = run;
    mutant.provenance["fuzz_seed"] = std::to_string(options.seed);
    mutant.provenance["fuzz_run"] = std::to_string(run);
    mutant.provenance["base_scenario"] = base.name;
    if (options.verbose) {
      std::fprintf(stderr, "fuzz run %u VIOLATED; shrinking\n", run);
    }
    result.repro = ShrinkScenario(mutant, options.shrink_budget,
                                  &result.shrink_runs, options.verbose);
    result.repro.name = mutant.name + "-repro";
    result.repro.provenance["shrink_runs"] =
        std::to_string(result.shrink_runs);

    // Final confirmation run records the violations the repro produces.
    ScenarioVerdict verdict;
    const bool still = ScenarioViolates(result.repro, &verdict);
    result.violations = std::move(verdict.violations);
    if (!still) {
      // Cannot happen with the greedy shrinker (only violating candidates
      // are accepted), but never ship a repro that does not reproduce.
      result.repro = std::move(mutant);
      ScenarioVerdict again;
      (void)ScenarioViolates(result.repro, &again);
      result.violations = std::move(again.violations);
    }

    if (!options.out_dir.empty()) {
      std::error_code ec;
      std::filesystem::create_directories(options.out_dir, ec);
      const std::string path =
          options.out_dir + "/" + result.repro.name + ".json";
      std::ofstream out(path);
      if (out.is_open()) {
        out << JsonWrite(ScenarioToJson(result.repro)) << "\n";
        if (out.good()) result.repro_path = path;
      }
      if (result.repro_path.empty()) {
        std::fprintf(stderr, "fuzz: failed to write repro to %s\n",
                     path.c_str());
      }
    }
    break;
  }
  return result;
}

}  // namespace scenario
}  // namespace tornado
