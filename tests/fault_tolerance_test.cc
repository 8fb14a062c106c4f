// Failure-injection tests (Section 5.3): processors and the master are
// killed mid-branch-loop and recovered; the computation must roll back to
// the last terminated iteration, resume, and still produce the exact
// fixed point.

#include <gtest/gtest.h>

#include <memory>
#include <optional>

#include "algos/sgd.h"
#include "algos/sssp.h"
#include "baselines/solvers.h"
#include "core/cluster.h"
#include "graph/dynamic_graph.h"
#include "stream/graph_stream.h"
#include "stream/instance_stream.h"
#include "tests/test_util.h"

namespace tornado {
namespace {

constexpr VertexId kSource = 0;

GraphStreamOptions TestGraph() {
  GraphStreamOptions options;
  options.num_vertices = 400;
  options.num_tuples = 3000;
  options.deletion_ratio = 0.03;
  options.seed = 23;
  return options;
}

JobConfig MakeConfig(uint64_t delay_bound) {
  JobConfig config;
  // batch_mode: the main loop only stores edges, so the branch loop does
  // the full computation — giving the failure something to interrupt.
  config.program =
      std::make_shared<SsspProgram>(kSource, /*batch_mode=*/true);
  config.delay_bound = delay_bound;
  config.num_processors = 4;
  config.num_hosts = 2;
  config.ingest_rate = 200000.0;
  config.seed = 55;
  return config;
}

void ExpectCorrect(const TornadoCluster& cluster, LoopId branch,
                   const GraphStreamOptions& options) {
  GraphStream replay(options);
  DynamicGraph graph;
  while (auto tuple = replay.Next()) {
    graph.Apply(std::get<EdgeDelta>(tuple->delta));
  }
  const auto expected = graph.ShortestPaths(kSource);
  size_t finite = 0;
  for (VertexId v : graph.Vertices()) {
    auto state = cluster.ReadVertexState(branch, v);
    const auto it = expected.find(v);
    const double want = it == expected.end() ? kSsspInfinity : it->second;
    const double got =
        state == nullptr ? kSsspInfinity
                         : static_cast<const SsspState&>(*state).length;
    if (want == kSsspInfinity) {
      EXPECT_EQ(got, kSsspInfinity) << "vertex " << v;
    } else {
      EXPECT_NEAR(got, want, 1e-9) << "vertex " << v;
      ++finite;
    }
  }
  EXPECT_GT(finite, 10u);
}

class ProcessorFailureTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ProcessorFailureTest, BranchSurvivesProcessorCrash) {
  const GraphStreamOptions options = TestGraph();
  JobConfig config = MakeConfig(GetParam());
  TornadoCluster cluster(config, std::make_unique<GraphStream>(options));
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilEmitted(options.num_tuples, 600.0));
  cluster.ingester().Pause();
  cluster.RunFor(1.0);

  const uint64_t query = cluster.ingester().SubmitQuery();
  // Crash a worker shortly after the branch starts; recover 0.5s later.
  const double t0 = cluster.now();
  cluster.failures().CrashFor(cluster.processor_node(1), t0 + 0.05, 0.5);

  ASSERT_TRUE(cluster.RunUntilQueryDone(query, 3000.0))
      << "query never completed after processor crash";
  ExpectCorrect(cluster, cluster.BranchOf(query), options);
}

INSTANTIATE_TEST_SUITE_P(DelayBounds, ProcessorFailureTest,
                         ::testing::Values(1, 256, 65536),
                         [](const auto& info) {
                           return "B" + std::to_string(info.param);
                         });

// SGD shards keep their reservoirs in the state's input part, which the
// store shares between the main loop's versions and the branch's. A
// processor crash mid-branch rolls the branch back (to its last terminated
// iteration, or to a fresh fork of its snapshot if it has none yet); the
// restored shards must get their reservoirs back.

struct SgdRun {
  uint64_t query = 0;
  std::vector<SgdInstance> emitted;  // the instances the loops saw
};

/// Ingests `stream` in full, pauses, forks a branch and crashes processor
/// 1 `crash_after` seconds into it for 0.5 s; runs until the query is done.
SgdRun RunSgdWithCrash(TornadoCluster& cluster,
                       const InstanceStreamOptions& stream,
                       double crash_after) {
  SgdRun run;
  cluster.Start();
  EXPECT_TRUE(cluster.RunUntilEmitted(stream.num_tuples, 600.0));
  cluster.ingester().Pause();
  cluster.RunFor(1.0);

  run.query = cluster.ingester().SubmitQuery();
  const double t0 = cluster.now();
  cluster.failures().CrashFor(cluster.processor_node(1), t0 + crash_after,
                              0.5);
  cluster.RunFor(crash_after + 0.01);
  EXPECT_LT(cluster.QueryLatency(run.query), 0.0)
      << "the branch finished before the crash; nothing was interrupted";
  EXPECT_TRUE(cluster.RunUntilQueryDone(run.query, 3000.0))
      << "query never completed after processor crash";

  InstanceStream replay(stream);
  for (uint64_t i = 0; i < cluster.ingester().emitted(); ++i) {
    const std::optional<StreamTuple> tuple = replay.Next();
    const auto& d = std::get<InstanceDelta>(tuple->delta);
    run.emitted.push_back(SgdInstance{d.id, d.label, d.features});
  }
  return run;
}

JobConfig SgdConfig(const SgdOptions& sgd, uint64_t delay_bound) {
  JobConfig config;
  config.program = std::make_shared<SgdProgram>(sgd);
  config.router = SgdProgram::MakeRouter(sgd);
  config.delay_bound = delay_bound;
  config.num_processors = 4;
  config.num_hosts = 2;
  config.ingest_rate = 200000.0;
  config.seed = 55;
  config.convergence.quiescence = true;
  config.convergence.epsilon = 1e-4;
  config.convergence.window = 4;
  config.convergence.max_iterations = 400;
  return config;
}

double ParamObjective(const TornadoCluster& cluster, LoopId loop,
                      const SgdOptions& sgd,
                      const std::vector<SgdInstance>& instances) {
  const auto state = cluster.ReadVertexState(loop, kSgdParamVertex);
  EXPECT_NE(state, nullptr) << "loop " << loop << " has no model";
  if (state == nullptr) return 0.0;
  return SgdProgram::Objective(
      sgd.loss, sgd.regularization,
      static_cast<const SgdParamState&>(*state).weights, instances);
}

TEST(SgdProcessorFailureTest, BranchSurvivesProcessorCrash) {
  InstanceStreamOptions stream;
  stream.dimensions = 28;
  stream.num_tuples = 1600;
  stream.label_noise = 0.05;
  stream.seed = 19;
  SgdOptions sgd;
  sgd.num_shards = 4;
  sgd.dimensions = stream.dimensions;
  sgd.reservoir_capacity = 1000;  // every emitted instance stays sampled
  sgd.sample_ratio = 0.02;

  TornadoCluster cluster(SgdConfig(sgd, /*delay_bound=*/1),
                         std::make_unique<InstanceStream>(stream));
  const SgdRun run = RunSgdWithCrash(cluster, stream, 0.05);

  const double optimum =
      SolveSgd(run.emitted, sgd.loss, sgd.regularization, sgd.descent_rate,
               std::vector<double>(sgd.dimensions, 0.0), 1e-9,
               /*max_iterations=*/2000)
          .objective;
  EXPECT_LE(ParamObjective(cluster, cluster.BranchOf(run.query), sgd,
                           run.emitted),
            optimum * 1.05);
}

// With a large delay bound the main loop keeps terminating (and pruning)
// iterations while the branch runs. A crash before the branch terminates
// its first iteration re-forks it from the parent's snapshot, which the
// pruning must have kept: the re-forked branch holds every vertex and
// every reservoir, and improves on the main loop's model.
TEST(SgdProcessorFailureTest, RecoveryReforksFromTheForkSnapshot) {
  InstanceStreamOptions stream;
  stream.dimensions = 10;
  stream.num_tuples = 1600;
  stream.label_noise = 0.02;
  stream.seed = 19;
  SgdOptions sgd;
  sgd.num_shards = 4;
  sgd.dimensions = stream.dimensions;
  sgd.reservoir_capacity = 1000;
  sgd.sample_ratio = 0.02;

  TornadoCluster cluster(SgdConfig(sgd, /*delay_bound=*/64),
                         std::make_unique<InstanceStream>(stream));
  const SgdRun run = RunSgdWithCrash(cluster, stream, 0.05);
  const LoopId branch = cluster.BranchOf(run.query);

  size_t sampled = 0;
  for (uint32_t s = 0; s < sgd.num_shards; ++s) {
    const auto shard = cluster.ReadVertexState(branch, SgdShardVertex(s));
    ASSERT_NE(shard, nullptr) << "shard " << s << " lost in the re-fork";
    sampled += static_cast<const SgdShardState&>(*shard).sample.size();
  }
  EXPECT_EQ(sampled, run.emitted.size());
  EXPECT_LE(ParamObjective(cluster, branch, sgd, run.emitted),
            ParamObjective(cluster, kMainLoop, sgd, run.emitted) * 1.05);
}

class MasterFailureTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MasterFailureTest, BranchSurvivesMasterCrash) {
  const GraphStreamOptions options = TestGraph();
  JobConfig config = MakeConfig(GetParam());
  TornadoCluster cluster(config, std::make_unique<GraphStream>(options));
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilEmitted(options.num_tuples, 600.0));
  cluster.ingester().Pause();
  cluster.RunFor(1.0);

  const uint64_t query = cluster.ingester().SubmitQuery();
  const double t0 = cluster.now();
  cluster.failures().CrashFor(cluster.master_node(), t0 + 0.05, 0.5);

  ASSERT_TRUE(cluster.RunUntilQueryDone(query, 3000.0))
      << "query never completed after master crash";
  ExpectCorrect(cluster, cluster.BranchOf(query), options);
}

INSTANTIATE_TEST_SUITE_P(DelayBounds, MasterFailureTest,
                         ::testing::Values(1, 65536),
                         [](const auto& info) {
                           return "B" + std::to_string(info.param);
                         });

TEST(FailureSemanticsTest, AsyncLoopKeepsCommittingDuringMasterDowntime) {
  // Figure 8c: with a huge delay bound the loop does not depend on
  // termination notifications, so a master failure does not stall it.
  const GraphStreamOptions options = TestGraph();
  JobConfig config = MakeConfig(/*delay_bound=*/1 << 20);
  TornadoCluster cluster(config, std::make_unique<GraphStream>(options));
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilEmitted(options.num_tuples, 600.0));
  cluster.ingester().Pause();
  cluster.RunFor(1.0);

  const uint64_t query = cluster.ingester().SubmitQuery();
  (void)query;
  cluster.RunFor(0.05);  // branch warm-up
  cluster.transport().KillNode(cluster.master_node());

  const int64_t before =
      cluster.metrics().Get(metric::kUpdatesCommitted);
  cluster.RunFor(0.5);
  const int64_t during =
      cluster.metrics().Get(metric::kUpdatesCommitted);
  EXPECT_GT(during, before)
      << "async branch loop stalled while the master was down";
}

TEST(FailureSemanticsTest, SyncLoopStallsDuringMasterDowntime) {
  // Figure 8c, synchronous counterpart: B = 1 depends on termination
  // notifications, so the loop stops almost immediately.
  const GraphStreamOptions options = TestGraph();
  JobConfig config = MakeConfig(/*delay_bound=*/1);
  TornadoCluster cluster(config, std::make_unique<GraphStream>(options));
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilEmitted(options.num_tuples, 600.0));
  cluster.ingester().Pause();
  cluster.RunFor(1.0);

  const uint64_t query = cluster.ingester().SubmitQuery();
  (void)query;
  cluster.RunFor(0.2);  // let a few synchronous iterations run
  cluster.transport().KillNode(cluster.master_node());
  cluster.RunFor(0.3);  // in-flight work drains, then everything blocks

  const int64_t stalled_at =
      cluster.metrics().Get(metric::kUpdatesCommitted);
  cluster.RunFor(0.5);
  const int64_t later =
      cluster.metrics().Get(metric::kUpdatesCommitted);
  EXPECT_EQ(later, stalled_at)
      << "synchronous loop kept committing without a master";
}

}  // namespace
}  // namespace tornado
