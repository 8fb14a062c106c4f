#include "scenario/runner.h"

#include <algorithm>
#include <utility>

#include "algos/workloads.h"
#include "common/logging.h"
#include "common/metrics.h"

namespace tornado {
namespace scenario {

namespace {

/// Boundary tolerance for matching action times against accumulated
/// RunFor sums; far below any meaningful virtual-time scale.
constexpr double kTimeEps = 1e-12;

/// Installs the program, router, convergence policy and stream for the
/// scenario's workload kind: the paper workload of algos/workloads.h, with
/// the scenario's tuple count and stream seed and one data shard per
/// processor. The generator shape is part of the workload's identity.
std::unique_ptr<StreamSource> BuildWorkload(const Scenario& s,
                                            JobConfig* config) {
  using Kind = ScenarioWorkload::Kind;
  const ScenarioWorkload& w = s.workload;
  const uint64_t bound = config->delay_bound;
  const uint32_t shards = s.cluster.processors;
  JobConfig job;
  std::unique_ptr<StreamSource> stream;
  switch (w.kind) {
    case Kind::kSssp:
    case Kind::kPageRank:
      job = w.kind == Kind::kSssp ? SsspJob(bound, w.batch_mode)
                                  : PageRankJob(bound);
      stream =
          std::make_unique<GraphStream>(BenchGraph(w.tuples, w.stream_seed));
      break;
    case Kind::kKMeans:
      job = KMeansJob(bound, shards);
      stream =
          std::make_unique<PointStream>(BenchPoints(w.tuples, w.stream_seed));
      break;
    case Kind::kSgdSvm:
    case Kind::kSgdLr: {
      const bool svm = w.kind == Kind::kSgdSvm;
      job = SgdJob(svm ? SgdLoss::kSvmHinge : SgdLoss::kLogistic, bound,
                   /*descent_rate=*/0.05, DescentSchedule::kStatic,
                   w.batch_mode, /*sample_ratio=*/0.01, shards);
      stream = std::make_unique<InstanceStream>(
          svm ? BenchDense(w.tuples, w.stream_seed)
              : BenchSparse(w.tuples, w.stream_seed));
      break;
    }
  }
  config->program = std::move(job.program);
  config->router = std::move(job.router);
  config->convergence = job.convergence;
  return stream;
}

}  // namespace

std::string ScenarioVerdict::Summary() const {
  std::string out = completed ? "completed" : "DID NOT COMPLETE";
  out += invariants_held
             ? ", invariants held"
             : ", INVARIANTS VIOLATED (" + std::to_string(violations.size()) +
                   ")";
  out += fixed_point_reached ? ", fixed point reached"
                             : ", fixed point not reached";
  return out;
}

ScenarioRunner::ScenarioRunner(Scenario scenario, RunOptions options)
    : scenario_(std::move(scenario)), options_(std::move(options)) {}

ScenarioRunner::~ScenarioRunner() = default;

NodeId ScenarioRunner::ResolveNode(const NodeRef& ref) const {
  switch (ref.kind) {
    case NodeRef::Kind::kProcessor:
      return cluster_->processor_node(ref.index);
    case NodeRef::Kind::kMaster:
      return cluster_->master_node();
    case NodeRef::Kind::kIngester:
      return cluster_->ingester_node();
  }
  return 0;
}

std::vector<NodeId> ScenarioRunner::ResolveSide(
    const std::vector<NodeRef>& side) const {
  std::vector<NodeId> out;
  out.reserve(side.size());
  for (const NodeRef& ref : side) out.push_back(ResolveNode(ref));
  return out;
}

void ScenarioRunner::ApplyAction(const TimelineAction& a) {
  using Kind = TimelineAction::Kind;
  switch (a.kind) {
    case Kind::kKill:
      cluster_->transport().KillNode(ResolveNode(a.node));
      break;
    case Kind::kRecover:
      cluster_->transport().RecoverNode(ResolveNode(a.node));
      break;
    case Kind::kCrashRestart: {
      // Kill now, recover `downtime` later — the recovery time is derived
      // from the post-kill clock exactly the way the figure benches do
      // (now + downtime), keeping those runs byte-identical.
      const NodeId node = ResolveNode(a.node);
      cluster_->transport().KillNode(node);
      cluster_->failures().RecoverAt(node, cluster_->now() + a.downtime);
      break;
    }
    case Kind::kDropLink:
      cluster_->transport().SetLinkDown(ResolveNode(a.src),
                                        ResolveNode(a.dst), true);
      break;
    case Kind::kRestoreLink:
      cluster_->transport().SetLinkDown(ResolveNode(a.src),
                                        ResolveNode(a.dst), false);
      break;
    case Kind::kPartition:
      cluster_->failures().PartitionNow(ResolveSide(a.side));
      break;
    case Kind::kHealPartition:
      cluster_->failures().HealPartitionNow(ResolveSide(a.side));
      break;
    case Kind::kSlowNode:
      cluster_->transport().SetNodeDelayFactor(ResolveNode(a.node), a.factor);
      break;
    case Kind::kRestoreSpeed:
      cluster_->transport().SetNodeDelayFactor(ResolveNode(a.node), 1.0);
      break;
    case Kind::kSetRate:
      cluster_->ingester().SetRateOverride(a.rate);
      break;
    case Kind::kRestoreRate:
      cluster_->ingester().SetRateOverride(0.0);
      break;
  }
}

ScenarioVerdict ScenarioRunner::Run() {
  const Scenario& s = scenario_;
  JobConfig config = ScenarioJobConfig(s);
  std::unique_ptr<StreamSource> stream = BuildWorkload(s, &config);
  TCHECK(config.program != nullptr) << "scenario workload built no program";

  cluster_ = std::make_unique<TornadoCluster>(config, std::move(stream));

  // The invariant gate is unconditional: the runner owns its checker and
  // records (never aborts), so a verdict always comes back — independent
  // of whether the build auto-attaches one under TORNADO_CHECK.
  CheckObserver::Options check_options;
  check_options.abort_on_violation = false;
  check_options.store = &cluster_->store();
  checker_ = std::make_unique<CheckObserver>(check_options);
  cluster_->AddEngineObserver(checker_.get());
  if (s.chaos.commit_regression_after >= 0.0) {
    chaos_ = std::make_unique<ChaosCommitRegression>(
        checker_.get(), cluster_->substrate().clock());
    cluster_->AddEngineObserver(chaos_.get());
  }

  if (options_.after_build) options_.after_build(*cluster_);
  cluster_->Start();

  ScenarioVerdict verdict;
  auto finalize = [&]() {
    for (uint32_t p = 0; p < s.cluster.processors; ++p) {
      checker_->DeepCheck(cluster_->processor(p).sessions());
    }
    verdict.virtual_seconds = cluster_->now();
    verdict.violations = checker_->violations();
    verdict.invariants_held = verdict.violations.empty();
    for (const auto& [name, value] : cluster_->metrics().counters()) {
      verdict.counters[name] = value;
    }
    return verdict;
  };

  if (!cluster_->RunUntilEmitted(s.drive.warmup_tuples,
                                 s.drive.warmup_timeout)) {
    TLOG_WARN << "scenario " << s.name << ": warmup timed out at "
              << cluster_->ingester().emitted() << "/"
              << s.drive.warmup_tuples << " tuples";
    return finalize();
  }
  if (s.drive.pause_ingest) cluster_->ingester().Pause();
  if (s.drive.settle_seconds > 0.0) cluster_->RunFor(s.drive.settle_seconds);

  // t0: the drive origin every timeline `at` is relative to.
  if (options_.before_query) options_.before_query(*cluster_);
  if (chaos_ != nullptr) {
    chaos_->Arm(cluster_->now() + s.chaos.commit_regression_after);
  }
  uint64_t query = 0;
  if (s.drive.query_at_start) query = cluster_->ingester().SubmitQuery();

  // Timeline actions sorted by time (stable: same-time actions apply in
  // file order).
  std::vector<const TimelineAction*> actions;
  actions.reserve(s.timeline.size());
  for (const TimelineAction& a : s.timeline) actions.push_back(&a);
  std::stable_sort(actions.begin(), actions.end(),
                   [](const TimelineAction* a, const TimelineAction* b) {
                     return a->at < b->at;
                   });

  size_t next_action = 0;
  double elapsed = 0.0;
  // Advances the drive by `length` seconds, splitting the RunFor around
  // any action that lands strictly inside the segment and applying
  // boundary actions after the clock reaches the segment end.
  auto run_segment = [&](double length) {
    const double target = elapsed + length;
    while (next_action < actions.size() &&
           actions[next_action]->at < target - kTimeEps) {
      const double at = actions[next_action]->at;
      if (at > elapsed + kTimeEps) {
        cluster_->RunFor(at - elapsed);
        elapsed = at;
      }
      while (next_action < actions.size() &&
             actions[next_action]->at <= elapsed + kTimeEps) {
        ApplyAction(*actions[next_action]);
        ++next_action;
      }
    }
    if (target > elapsed + kTimeEps) cluster_->RunFor(target - elapsed);
    elapsed = target;
    while (next_action < actions.size() &&
           actions[next_action]->at <= elapsed + kTimeEps) {
      ApplyAction(*actions[next_action]);
      ++next_action;
    }
  };

  if (s.drive.sample_start_seconds > 0.0) {
    run_segment(s.drive.sample_start_seconds);
  } else {
    run_segment(0.0);  // apply any t0 actions
  }

  int64_t previous = cluster_->metrics().Get(metric::kUpdatesCommitted);
  for (uint32_t i = 0; i < s.drive.sample_count; ++i) {
    run_segment(s.drive.bucket_seconds);
    const int64_t now = cluster_->metrics().Get(metric::kUpdatesCommitted);
    verdict.updates_per_bucket.push_back(now - previous);
    previous = now;
  }

  // Anything scripted past the sampled window fires at its end.
  while (next_action < actions.size()) {
    ApplyAction(*actions[next_action]);
    ++next_action;
  }

  if (query != 0 && s.drive.wait_for_query) {
    verdict.fixed_point_reached =
        cluster_->RunUntilQueryDone(query, s.drive.query_timeout);
  } else if (query != 0) {
    verdict.fixed_point_reached =
        cluster_->ingester().FindCompleted(query).has_value();
  }
  if (query != 0) verdict.query_latency = cluster_->QueryLatency(query);

  if (options_.after_sample) options_.after_sample(*cluster_);
  verdict.completed = true;
  return finalize();
}

}  // namespace scenario
}  // namespace tornado
