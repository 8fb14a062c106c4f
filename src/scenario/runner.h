#ifndef TORNADO_SCENARIO_RUNNER_H_
#define TORNADO_SCENARIO_RUNNER_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "check/invariant_checker.h"
#include "core/cluster.h"
#include "scenario/scenario.h"

namespace tornado {
namespace scenario {

/// Deliberate protocol sabotage: once armed past its fire time, the first
/// observed commit is re-emitted into the target checker as a duplicate —
/// a guaranteed INV-MONO-COMMIT violation (the commit's iteration does
/// not exceed itself) while INV-STORE still passes (the version exists).
/// Used by the fuzzer acceptance path to prove that the invariant gate
/// actually trips and that the shrunken repro reproduces.
class ChaosCommitRegression final : public EngineObserver {
 public:
  ChaosCommitRegression(CheckObserver* checker, const Clock* clock)
      : checker_(checker), clock_(clock) {}

  /// Arms the sabotage: the next commit at or after absolute virtual
  /// time `fire_at` is duplicated. One-shot.
  void Arm(double fire_at) {
    armed_ = true;
    fire_at_ = fire_at;
  }

  bool fired() const { return fired_; }

  void OnCommit(LoopId loop, LoopEpoch epoch, VertexId vertex,
                Iteration iteration, Iteration tau,
                Iteration horizon) override {
    if (!armed_ || fired_ || clock_->now() < fire_at_) return;
    fired_ = true;
    checker_->OnCommit(loop, epoch, vertex, iteration, tau, horizon);
  }

 private:
  CheckObserver* checker_;
  const Clock* clock_;
  bool armed_ = false;
  bool fired_ = false;
  double fire_at_ = 0.0;
};

/// The structured outcome of one scenario run.
struct ScenarioVerdict {
  /// Warmup reached its tuple target and the drive plan ran to the end.
  bool completed = false;

  /// No invariant checker violation was recorded (event hooks + the final
  /// structural DeepCheck pass over every processor).
  bool invariants_held = false;
  std::vector<CheckViolation> violations;

  /// The scripted query's branch loop converged (false when the scenario
  /// submits no query).
  bool fixed_point_reached = false;
  double query_latency = -1.0;  // virtual seconds, -1 if not measured

  double virtual_seconds = 0.0;
  /// kUpdatesCommitted delta per drive bucket (the figure-8 series).
  std::vector<int64_t> updates_per_bucket;
  /// Final counter snapshot of the cluster metric registry.
  std::map<std::string, int64_t> counters;

  /// One-line human summary ("invariants held, fixed point reached, ...").
  std::string Summary() const;
};

/// Driver hooks for callers that wrap extra instrumentation around the
/// run (the figure benches attach tracing): `after_build` fires once the
/// cluster exists but before Start(), `before_query` at the drive origin
/// t0 (immediately before the query is submitted), `after_sample` after
/// the sampled window ends but before the verdict's DeepCheck.
struct RunOptions {
  std::function<void(TornadoCluster&)> after_build;
  std::function<void(TornadoCluster&)> before_query;
  std::function<void(TornadoCluster&)> after_sample;
};

/// Compiles a validated Scenario into a cluster run: substrate + cluster
/// via ScenarioJobConfig, the failure timeline applied at exact drive
/// boundaries, the workload driver (warmup, settle, query, bucketed
/// sampling), and always the CheckObserver invariant gate — every
/// scenario run is checked, whether or not the build has TORNADO_CHECK.
///
/// Timeline semantics: action times are virtual seconds relative to t0.
/// Actions fire at the first drive boundary that reaches their time (the
/// runner splits a sampling bucket when an action lands inside it);
/// actions timed past the sampled window fire at its end. crash_restart
/// schedules its recovery `downtime` seconds after the kill applies.
class ScenarioRunner {
 public:
  explicit ScenarioRunner(Scenario scenario, RunOptions options = {});
  ~ScenarioRunner();

  /// Runs the scenario to completion. Call once.
  ScenarioVerdict Run();

  /// The underlying cluster (valid during hooks and after Run()).
  TornadoCluster* cluster() { return cluster_.get(); }
  const Scenario& scenario() const { return scenario_; }
  CheckObserver* checker() { return checker_.get(); }

 private:
  NodeId ResolveNode(const NodeRef& ref) const;
  std::vector<NodeId> ResolveSide(const std::vector<NodeRef>& side) const;
  void ApplyAction(const TimelineAction& action);

  Scenario scenario_;
  RunOptions options_;
  std::unique_ptr<CheckObserver> checker_;
  std::unique_ptr<TornadoCluster> cluster_;
  std::unique_ptr<ChaosCommitRegression> chaos_;
};

}  // namespace scenario
}  // namespace tornado

#endif  // TORNADO_SCENARIO_RUNNER_H_
