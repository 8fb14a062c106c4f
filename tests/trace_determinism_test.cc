// Tracing must not perturb determinism: two identically-seeded traced
// runs produce byte-identical Chrome trace JSON and sampler CSV. (A
// traced run legitimately interleaves differently from an untraced one —
// the sampler schedules loop events — so the contract is traced-vs-traced,
// not traced-vs-untraced; see trace/time_series.h.)

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "algos/kmeans.h"
#include "algos/sgd.h"
#include "algos/sssp.h"
#include "core/cluster.h"
#include "scenario/runner.h"
#include "scenario/scenario.h"
#include "stream/graph_stream.h"
#include "stream/instance_stream.h"
#include "stream/point_stream.h"
#include "trace/time_series.h"
#include "trace/trace_recorder.h"

namespace tornado {
namespace {

JobConfig MakeConfig() {
  JobConfig config;
  config.program = std::make_shared<SsspProgram>(0);
  config.delay_bound = 4;
  config.num_processors = 4;
  config.num_hosts = 2;
  config.ingest_rate = 100000.0;
  config.ingest_batch = 10;
  config.seed = 23;
  return config;
}

GraphStreamOptions MakeStream() {
  GraphStreamOptions options;
  options.num_vertices = 120;
  options.num_tuples = 800;
  options.deletion_ratio = 0.05;
  options.seed = 11;
  return options;
}

struct TracedRun {
  std::string trace_json;
  std::string series_csv;
  size_t events = 0;
};

TracedRun Capture(TornadoCluster& cluster) {
  TracedRun run;
  run.events = cluster.trace()->size();
  std::ostringstream trace_os;
  cluster.trace()->WriteChromeTrace(trace_os);
  run.trace_json = trace_os.str();
  std::ostringstream series_os;
  cluster.sampler()->WriteCsv(series_os);
  run.series_csv = series_os.str();
  return run;
}

TracedRun RunOnce(bool with_failure) {
  TornadoCluster cluster(MakeConfig(),
                         std::make_unique<GraphStream>(MakeStream()));
  cluster.EnableTracing();
  cluster.Start();
  EXPECT_TRUE(cluster.RunUntilEmitted(400, 600.0));
  if (with_failure) {
    cluster.failures().CrashFor(cluster.processor_node(1),
                                cluster.now() + 0.02, 0.3);
  }
  cluster.RunFor(0.6);
  return Capture(cluster);
}

TEST(TraceDeterminismTest, SameSeedYieldsByteIdenticalArtifacts) {
  const TracedRun a = RunOnce(/*with_failure=*/false);
  const TracedRun b = RunOnce(/*with_failure=*/false);
  EXPECT_GT(a.events, 0u);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.trace_json, b.trace_json);
  EXPECT_EQ(a.series_csv, b.series_csv);
}

TEST(TraceDeterminismTest, HoldsUnderInjectedFailuresToo) {
  const TracedRun a = RunOnce(/*with_failure=*/true);
  const TracedRun b = RunOnce(/*with_failure=*/true);
  EXPECT_GT(a.events, 0u);
  EXPECT_EQ(a.trace_json, b.trace_json);
  EXPECT_EQ(a.series_csv, b.series_csv);
}

// --- Programs with an input part (SGD shards, KMeans shards). ---
//
// Each run ingests half of its stream, forks a branch while the other
// half streams in, and traces both loops to the end. The goldens are
// digests of the trace and sampler CSV recorded before shard state was
// split into input and iteration parts: the split changes what the store
// holds, never what the cluster does in virtual time.

uint64_t Fnv1a(const std::string& bytes, uint64_t hash) {
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 1099511628211ULL;
  }
  return hash;
}

uint64_t Digest(const TracedRun& run) {
  return Fnv1a(run.series_csv, Fnv1a(run.trace_json, 14695981039346656037ULL));
}

TracedRun RunWithBranch(JobConfig config, std::unique_ptr<StreamSource> stream,
                        uint64_t tuples) {
  config.delay_bound = 8;
  config.num_processors = 4;
  config.num_hosts = 2;
  config.ingest_rate = 20000.0;
  config.seed = 29;
  config.convergence.max_iterations = 60;
  TornadoCluster cluster(config, std::move(stream));
  cluster.EnableTracing();
  cluster.Start();
  EXPECT_TRUE(cluster.RunUntilEmitted(tuples / 2, 600.0));
  const uint64_t query = cluster.ingester().SubmitQuery();
  EXPECT_TRUE(cluster.RunUntilQueryDone(query, 600.0));
  EXPECT_TRUE(cluster.RunUntilEmitted(tuples, 600.0));
  cluster.RunFor(0.2);
  EXPECT_EQ(cluster.trace()->dropped(), 0u);
  return Capture(cluster);
}

TracedRun RunSgd() {
  InstanceStreamOptions stream;
  stream.dimensions = 10;
  stream.num_tuples = 1200;
  stream.seed = 5;
  SgdOptions sgd;
  sgd.num_shards = 4;
  sgd.dimensions = 10;
  sgd.reservoir_capacity = 200;
  sgd.sample_ratio = 0.05;
  JobConfig config;
  config.program = std::make_shared<SgdProgram>(sgd);
  config.router = SgdProgram::MakeRouter(sgd);
  return RunWithBranch(config, std::make_unique<InstanceStream>(stream),
                       stream.num_tuples);
}

TracedRun RunKMeans() {
  PointStreamOptions stream;
  stream.dimensions = 4;
  stream.num_clusters = 3;
  stream.num_tuples = 1200;
  stream.seed = 5;
  KMeansOptions kmeans;
  kmeans.num_clusters = 3;
  kmeans.num_shards = 4;
  kmeans.dimensions = 4;
  JobConfig config;
  config.program = std::make_shared<KMeansProgram>(kmeans);
  config.router = KMeansProgram::MakeRouter(kmeans);
  return RunWithBranch(config, std::make_unique<PointStream>(stream),
                       stream.num_tuples);
}

TEST(TraceDeterminismTest, SgdTraceIsByteIdenticalAndMatchesGolden) {
  const TracedRun a = RunSgd();
  const TracedRun b = RunSgd();
  EXPECT_GT(a.events, 0u);
  EXPECT_EQ(a.trace_json, b.trace_json);
  EXPECT_EQ(a.series_csv, b.series_csv);
  EXPECT_EQ(Digest(a), 0x33d7b94bb51e7e36ULL);
}

TEST(TraceDeterminismTest, KMeansTraceIsByteIdenticalAndMatchesGolden) {
  const TracedRun a = RunKMeans();
  const TracedRun b = RunKMeans();
  EXPECT_GT(a.events, 0u);
  EXPECT_EQ(a.trace_json, b.trace_json);
  EXPECT_EQ(a.series_csv, b.series_csv);
  EXPECT_EQ(Digest(a), 0xe610d98981268f3cULL);
}

// --- Corpus drives through the ScenarioRunner. ---
//
// Corpus files scaled down to test size, with every scripted action inside
// the sampled window. fig8d's processor crash/restart covers what the plain
// runs above do not: kill/recover in the transport, drive-boundary action
// application and the bucketed sampling path. The other rows pin the
// runner's workload definitions for the kinds no run above covers
// (PageRank, the bench-shaped KMeans points, sparse logistic SGD). The
// goldens pin the trace bytes: a change to the transport's event or RNG
// draw schedule, to the recorder's export order, or to a workload's
// stream or job definition shows up here.

struct CorpusGolden {
  const char* file;
  uint64_t tuples;        // warmup is half of it
  double settle_seconds;
  uint32_t sample_count;
  double downtime;        // crash_restart downtime; < 0 keeps the file's
  uint64_t digest;
};

const CorpusGolden kCorpusGoldens[] = {
    {"fig8d_processor_failure.json", 2600, 0.25, 24, 0.25,
     0x16f33bb4a41d6a85ULL},
    {"fig5_pagerank_approx.json", 2000, 0.2, 10, -1.0,
     0x6264c99bc7da0fceULL},
    {"straggler_slow_node.json", 2000, 0.2, 18, -1.0,
     0x3d17ffd85747a0d8ULL},
    {"ingest_flash_crowd.json", 2000, 0.2, 14, -1.0,
     0x926e3bd23ebffedeULL},
};

TracedRun RunCorpusFile(const CorpusGolden& row) {
  scenario::Scenario s;
  std::vector<std::string> errors;
  const std::string path =
      std::string(TORNADO_SCENARIO_CORPUS) + "/" + row.file;
  EXPECT_TRUE(scenario::LoadScenarioFile(path, &s, &errors))
      << (errors.empty() ? path : errors[0]);
  s.workload.tuples = row.tuples;
  s.drive.warmup_tuples = row.tuples / 2;
  s.drive.settle_seconds = row.settle_seconds;
  s.drive.sample_count = row.sample_count;
  if (row.downtime >= 0.0) {
    EXPECT_FALSE(s.timeline.empty());
    for (scenario::TimelineAction& a : s.timeline) a.downtime = row.downtime;
  }

  scenario::RunOptions options;
  options.after_build = [](TornadoCluster& c) { c.EnableTracing(4'000'000); };
  scenario::ScenarioRunner runner(s, std::move(options));
  const scenario::ScenarioVerdict verdict = runner.Run();
  EXPECT_TRUE(verdict.completed && verdict.invariants_held)
      << row.file << ": " << verdict.Summary();

  EXPECT_EQ(runner.cluster()->trace()->dropped(), 0u) << row.file;
  return Capture(*runner.cluster());
}

TEST(TraceDeterminismTest, CorpusTracesAreByteIdenticalAndMatchGoldens) {
  for (const CorpusGolden& row : kCorpusGoldens) {
    const TracedRun a = RunCorpusFile(row);
    const TracedRun b = RunCorpusFile(row);
    EXPECT_GT(a.events, 0u) << row.file;
    EXPECT_EQ(a.trace_json, b.trace_json) << row.file;
    EXPECT_EQ(a.series_csv, b.series_csv) << row.file;
    EXPECT_EQ(Digest(a), row.digest)
        << row.file << ": digest 0x" << std::hex << Digest(a);
  }
}

}  // namespace
}  // namespace tornado
