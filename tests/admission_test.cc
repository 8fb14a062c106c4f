// Tests for branch-loop admission control (Section 5.2: queries fork "if
// there are sufficient idle processors"; queued queries fork later against
// a fresher snapshot).

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>

#include "algos/sssp.h"
#include "core/cluster.h"
#include "runtime/sim_substrate.h"
#include "stream/graph_stream.h"
#include "tests/test_util.h"

namespace tornado {
namespace {

TEST(AdmissionControlTest, ConcurrentBranchesAreCappedButAllComplete) {
  GraphStreamOptions options;
  options.num_vertices = 250;
  options.num_tuples = 2500;
  options.source_hub_weight = 10;
  options.seed = 33;

  JobConfig config;
  config.program = std::make_shared<SsspProgram>(0);
  config.delay_bound = 32;
  config.num_processors = 4;
  config.num_hosts = 2;
  config.ingest_rate = 50000.0;
  config.max_concurrent_branches = 1;

  TornadoCluster cluster(config, std::make_unique<GraphStream>(options));
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilEmitted(options.num_tuples, 600.0));
  cluster.RunFor(1.0);

  // Burst of queries: only one branch may run at a time, but every query
  // must eventually complete.
  std::vector<uint64_t> queries;
  for (int i = 0; i < 4; ++i) {
    queries.push_back(cluster.ingester().SubmitQuery());
  }
  for (uint64_t q : queries) {
    ASSERT_TRUE(cluster.RunUntilQueryDone(q, 600.0)) << "query " << q;
    EXPECT_GT(cluster.QueryLatency(q), 0.0);
  }

  // Queued queries fork strictly after their predecessors converge.
  const auto& records = cluster.master().queries();
  ASSERT_EQ(records.size(), 4u);
  for (size_t i = 1; i < records.size(); ++i) {
    EXPECT_GE(records[i].fork_time, records[i - 1].converge_time - 1e-9)
        << "branches " << i - 1 << " and " << i << " overlapped";
  }
}

TEST(AdmissionControlTest, UnlimitedByDefault) {
  GraphStreamOptions options;
  options.num_vertices = 150;
  options.num_tuples = 1200;
  options.source_hub_weight = 10;
  options.seed = 35;

  JobConfig config;
  config.program = std::make_shared<SsspProgram>(0);
  config.delay_bound = 32;
  config.num_processors = 2;
  config.num_hosts = 1;
  config.ingest_rate = 50000.0;

  TornadoCluster cluster(config, std::make_unique<GraphStream>(options));
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilEmitted(options.num_tuples, 600.0));
  cluster.RunFor(1.0);

  const uint64_t q1 = cluster.ingester().SubmitQuery();
  const uint64_t q2 = cluster.ingester().SubmitQuery();
  ASSERT_TRUE(cluster.RunUntilQueryDone(q1, 600.0));
  ASSERT_TRUE(cluster.RunUntilQueryDone(q2, 600.0));
  const auto& records = cluster.master().queries();
  ASSERT_EQ(records.size(), 2u);
  // Both forked immediately (no queueing).
  EXPECT_LT(records[1].fork_time - records[1].submit_time, 0.1);
}

}  // namespace
}  // namespace tornado
