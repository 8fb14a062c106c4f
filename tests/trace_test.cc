// Unit coverage of the trace subsystem (docs/OBSERVABILITY.md): the
// recorder's Chrome trace-event export, the time-series sampler, the
// offline report, the end-to-end cluster wiring behind
// TornadoCluster::EnableTracing(), and the benches' --json result file.

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "algos/sssp.h"
#include "bench/bench_util.h"
#include "common/json.h"
#include "core/cluster.h"
#include "runtime/sim_substrate.h"
#include "sim/event_loop.h"
#include "stream/graph_stream.h"
#include "trace/report.h"
#include "trace/time_series.h"
#include "trace/trace_observer.h"
#include "trace/trace_recorder.h"

namespace tornado {
namespace {

// ---------------------------------------------------------------------------
// TraceRecorder
// ---------------------------------------------------------------------------

TEST(TraceRecorderTest, WritesWellFormedChromeJson) {
  EventLoop loop;
  SimScheduler sched(&loop);
  TraceRecorder recorder(&sched);
  recorder.SetTrackName(0, "processor 0");
  recorder.SetTrackName(1, "master");
  recorder.SetTrackName(2, "quote \" backslash \\ tab \t");

  loop.Schedule(0.5, [&]() {
    recorder.Instant(trace_cat::kProtocol, "commit", 0,
                     {{"loop", 1}, {"iteration", 3}});
  });
  loop.Schedule(1.0, [&]() {
    recorder.Span(trace_cat::kProtocol, "prepare_round", 0, 0.5, 1.0,
                  {{"fanout", 2}});
    recorder.Counter(trace_cat::kSeries, "queue_depth", 1, 4.25);
  });
  loop.Run();

  std::ostringstream os;
  recorder.WriteChromeTrace(os);
  const std::string json = os.str();

  EXPECT_NE(json.find("{\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"processor 0\""), std::string::npos);
  // Instants carry the scope marker, spans a duration, counters a value.
  EXPECT_NE(json.find("\"name\":\"commit\""), std::string::npos);
  EXPECT_NE(json.find("\"s\":\"t\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":500000.000"), std::string::npos);
  EXPECT_NE(json.find("\"value\":4.25"), std::string::npos);
  // Timestamps are microseconds of virtual time.
  EXPECT_NE(json.find("\"ts\":500000.000"), std::string::npos);
  EXPECT_EQ(json.substr(json.size() - 3), "]}\n");

  // The whole export is one valid JSON document; names are escaped.
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(JsonParse(json, &doc, &error)) << error;
  const JsonValue* events = doc.Find("traceEvents");
  ASSERT_TRUE(events != nullptr && events->is_array());
  EXPECT_EQ(events->array.size(), 6u);  // 3 track names + 3 events
  EXPECT_EQ(events->array[2].Find("args")->Find("name")->string_value,
            "quote \" backslash \\ tab \t");
}

TEST(TraceRecorderTest, PauseDropsRecordCalls) {
  EventLoop loop;
  SimScheduler sched(&loop);
  TraceRecorder recorder(&sched);
  recorder.Instant(trace_cat::kProtocol, "a", 0);
  recorder.Pause();
  recorder.Instant(trace_cat::kProtocol, "b", 0);
  EXPECT_FALSE(recorder.enabled());
  recorder.Resume();
  recorder.Instant(trace_cat::kProtocol, "c", 0);
  ASSERT_EQ(recorder.size(), 2u);
  EXPECT_EQ(recorder.events()[0].name, "a");
  EXPECT_EQ(recorder.events()[1].name, "c");
}

TEST(TraceRecorderTest, CapCountsOverflowInsteadOfGrowing) {
  EventLoop loop;
  SimScheduler sched(&loop);
  TraceRecorder recorder(&sched, /*max_events=*/3);
  for (int i = 0; i < 10; ++i) {
    recorder.Instant(trace_cat::kProtocol, "e", 0);
  }
  EXPECT_EQ(recorder.size(), 3u);
  EXPECT_EQ(recorder.dropped(), 7u);
  recorder.Clear();
  EXPECT_EQ(recorder.size(), 0u);
  EXPECT_EQ(recorder.dropped(), 0u);
}

TEST(TraceRecorderTest, FlowEndpointsCarryTheCauseId) {
  EventLoop loop;
  SimScheduler sched(&loop);
  TraceRecorder recorder(&sched);
  recorder.Flow('s', trace_cat::kFlow, "cause", 0, 77);
  recorder.Flow('f', trace_cat::kFlow, "cause", 1, 77);
  std::ostringstream os;
  recorder.WriteChromeTrace(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
  EXPECT_NE(json.find("\"id\":77"), std::string::npos);
  EXPECT_NE(json.find("\"bp\":\"e\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// TimeSeriesSampler
// ---------------------------------------------------------------------------

TEST(TimeSeriesSamplerTest, SamplesProbesOnThePeriod) {
  EventLoop loop;
  SimScheduler sched(&loop);
  TimeSeriesSampler sampler(&sched, /*period=*/0.1);
  double value = 0.0;
  sampler.AddProbe("value", [&]() { return value; });
  sampler.Start();
  loop.Schedule(0.35, [&]() { value = 9.0; });
  loop.RunUntil(0.55);
  sampler.Stop();
  loop.RunUntil(1.0);  // no further ticks after Stop

  ASSERT_EQ(sampler.samples().size(), 5u);
  EXPECT_DOUBLE_EQ(sampler.samples()[0].ts, 0.1);
  EXPECT_DOUBLE_EQ(sampler.samples()[0].values[0], 0.0);
  EXPECT_DOUBLE_EQ(sampler.samples()[4].values[0], 9.0);

  std::ostringstream os;
  sampler.WriteCsv(os);
  const std::string csv = os.str();
  EXPECT_EQ(csv.substr(0, 9), "ts,value\n");
  EXPECT_NE(csv.find("0.100000,0"), std::string::npos);
}

TEST(TimeSeriesSamplerTest, PausedRecorderSuppressesSamples) {
  EventLoop loop;
  SimScheduler sched(&loop);
  TraceRecorder recorder(&sched);
  recorder.Pause();
  TimeSeriesSampler sampler(&sched, 0.1);
  sampler.AddProbe("p", []() { return 1.0; });
  sampler.set_recorder(&recorder, 0);
  sampler.Start();
  loop.RunUntil(0.35);
  EXPECT_TRUE(sampler.samples().empty());
  EXPECT_EQ(recorder.size(), 0u);

  // Resuming mid-run picks the sampling back up (the timer kept running).
  recorder.Resume();
  loop.RunUntil(0.75);
  EXPECT_EQ(sampler.samples().size(), 4u);
  EXPECT_GT(recorder.size(), 0u);  // mirrored as counter events
}

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

TEST(TraceReportTest, AttributesStallsAndComputesRecoveryGap) {
  EventLoop loop;
  SimScheduler sched(&loop);
  TraceRecorder recorder(&sched);

  // Synthesized run: vertex 7 stalls twice on loop 1, node 2 fails at
  // t=1.0, recovers at t=2.0, and commits again at t=2.4.
  recorder.Span(trace_cat::kProtocol, "blocked_at_bound", 0, 0.1, 0.4,
                {{"loop", 1}, {"vertex", 7}, {"updates", 3}});
  recorder.Span(trace_cat::kProtocol, "blocked_at_bound", 0, 0.5, 0.9,
                {{"loop", 1}, {"vertex", 7}, {"updates", 2}});
  recorder.Span(trace_cat::kProtocol, "blocked_at_bound", 1, 0.2, 0.3,
                {{"loop", 1}, {"vertex", 9}, {"updates", 1}});
  loop.Schedule(0.5, [&]() {
    recorder.Instant(trace_cat::kProtocol, "commit", 2, {{"loop", 1}});
  });
  loop.Schedule(1.0, [&]() {
    recorder.Instant(trace_cat::kFailure, "node_killed", 2, {{"node", 2}});
  });
  loop.Schedule(2.0, [&]() {
    recorder.Instant(trace_cat::kFailure, "node_recovered", 2,
                     {{"node", 2}});
  });
  loop.Schedule(2.2, [&]() {
    // A commit on another track first: the report must keep looking for
    // the failed node's own first commit.
    recorder.Instant(trace_cat::kProtocol, "commit", 0, {{"loop", 1}});
  });
  loop.Schedule(2.4, [&]() {
    recorder.Instant(trace_cat::kProtocol, "commit", 2, {{"loop", 1}});
  });
  loop.Run();

  std::ostringstream os;
  recorder.WriteChromeTrace(os);
  std::istringstream in(os.str());
  const TraceSummary summary = SummarizeChromeTrace(in);

  EXPECT_EQ(summary.instants.at("commit"), 3u);
  ASSERT_EQ(summary.phases.count("blocked_at_bound"), 1u);
  EXPECT_EQ(summary.phases.at("blocked_at_bound").count, 3u);

  // Stalls sorted by total time: vertex 7 (0.7s) before vertex 9 (0.1s).
  ASSERT_EQ(summary.stalls.size(), 2u);
  EXPECT_EQ(summary.stalls[0].vertex, 7u);
  EXPECT_EQ(summary.stalls[0].intervals, 2u);
  EXPECT_EQ(summary.stalls[0].updates, 5u);
  EXPECT_NEAR(summary.stalls[0].total_seconds, 0.7, 1e-9);
  EXPECT_EQ(summary.stalls[1].vertex, 9u);

  ASSERT_EQ(summary.recoveries.size(), 1u);
  const TraceSummary::RecoveryEvent& ev = summary.recoveries[0];
  EXPECT_EQ(ev.node, 2u);
  EXPECT_TRUE(ev.complete());
  EXPECT_TRUE(ev.on_failed_node);
  EXPECT_NEAR(ev.recovered_ts, 2.0, 1e-6);
  EXPECT_NEAR(ev.first_commit_after, 2.4, 1e-6);
  EXPECT_NEAR(ev.gap_seconds(), 1.4, 1e-6);

  const std::string report = FormatSummary(summary, 5);
  EXPECT_NE(report.find("top stall causes"), std::string::npos);
  EXPECT_NE(report.find("loop 1 vertex 7"), std::string::npos);
  EXPECT_NE(report.find("recovery gaps"), std::string::npos);
  EXPECT_NE(report.find("gap 1.4"), std::string::npos);
}

TEST(TraceReportTest, MasterFailureFallsBackToClusterWideCommit) {
  EventLoop loop;
  SimScheduler sched(&loop);
  TraceRecorder recorder(&sched);
  loop.Schedule(1.0, [&]() {
    recorder.Instant(trace_cat::kFailure, "node_killed", 8, {{"node", 8}});
  });
  loop.Schedule(2.0, [&]() {
    recorder.Instant(trace_cat::kFailure, "node_recovered", 8,
                     {{"node", 8}});
  });
  loop.Schedule(2.3, [&]() {
    recorder.Instant(trace_cat::kProtocol, "commit", 3, {{"loop", 0}});
  });
  loop.Run();

  std::ostringstream os;
  recorder.WriteChromeTrace(os);
  std::istringstream in(os.str());
  const TraceSummary summary = SummarizeChromeTrace(in);
  ASSERT_EQ(summary.recoveries.size(), 1u);
  EXPECT_TRUE(summary.recoveries[0].complete());
  EXPECT_FALSE(summary.recoveries[0].on_failed_node);
  EXPECT_NEAR(summary.recoveries[0].gap_seconds(), 1.3, 1e-6);
}

// ---------------------------------------------------------------------------
// Cluster wiring
// ---------------------------------------------------------------------------

JobConfig SmallSsspConfig() {
  JobConfig config;
  config.program = std::make_shared<SsspProgram>(0);
  config.delay_bound = 4;
  config.num_processors = 4;
  config.num_hosts = 2;
  config.ingest_rate = 100000.0;
  config.ingest_batch = 10;
  config.seed = 17;
  return config;
}

GraphStreamOptions SmallStream() {
  GraphStreamOptions options;
  options.num_vertices = 100;
  options.num_tuples = 600;
  options.seed = 7;
  return options;
}

TEST(ClusterTracingTest, EnableTracingCapturesProtocolAndTransport) {
  TornadoCluster cluster(SmallSsspConfig(),
                         std::make_unique<GraphStream>(SmallStream()));
  TraceRecorder* recorder = cluster.EnableTracing();
  ASSERT_NE(recorder, nullptr);
  EXPECT_EQ(recorder, cluster.trace());
  EXPECT_EQ(recorder, cluster.EnableTracing());  // idempotent
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilEmitted(600, 600.0));
  cluster.RunFor(0.5);

  EXPECT_GT(recorder->size(), 0u);
  std::ostringstream os;
  recorder->WriteChromeTrace(os);
  std::istringstream in(os.str());
  const TraceSummary summary = SummarizeChromeTrace(in);

  // The protocol phases, master decisions and transport all show up.
  EXPECT_GT(summary.instants.count("gather_input"), 0u);
  EXPECT_GT(summary.instants.at("commit"), 0u);
  EXPECT_GT(summary.instants.count("terminate"), 0u);
  EXPECT_FALSE(summary.messages.empty());
  EXPECT_GT(summary.phases.count("prepare_round"), 0u);

  // The sampler fed the cluster health series.
  ASSERT_NE(cluster.sampler(), nullptr);
  EXPECT_GT(cluster.sampler()->samples().size(), 0u);
  EXPECT_EQ(cluster.sampler()->probe_names().size(), 4u);

  // Commit staleness flowed into the metric registry's distribution.
  const Histogram* staleness =
      cluster.metrics().GetHistogram(metric::kCommitStaleness);
  ASSERT_NE(staleness, nullptr);
  EXPECT_GT(staleness->count(), 0u);
}

TEST(ClusterTracingTest, CauseIdsLinkPreparesToCommits) {
  TornadoCluster cluster(SmallSsspConfig(),
                         std::make_unique<GraphStream>(SmallStream()));
  TraceRecorder* recorder = cluster.EnableTracing();
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilEmitted(300, 600.0));
  cluster.RunFor(0.2);

  // Causal flows were recorded (PREPARE/ACK/UPDATE messages carry round
  // ids), and every flow id is a stamped (nonzero) cause.
  size_t flows = 0;
  for (const TraceEvent& ev : recorder->events()) {
    if (ev.ph == 's' || ev.ph == 'f') {
      ++flows;
      EXPECT_NE(ev.flow, 0u);
    }
  }
  EXPECT_GT(flows, 0u);
}

// ---------------------------------------------------------------------------
// BenchJson (bench/bench_util.h)
// ---------------------------------------------------------------------------

TEST(BenchJsonTest, OutputParsesWithTheDocumentedKeys) {
  const std::string label = "quote \" backslash \\ newline \n end";
  bench::BenchJson out("bench_test");
  out.AddKnob("label", label);
  out.AddKnob("delay_bound", 16);
  out.AddResult("p50_seconds", 0.25);
  Histogram latency;
  latency.Add(1.0);
  latency.Add(3.0);
  out.AddHistogram("latency", latency);
  MetricRegistry metrics;
  metrics.Inc("updates_committed", 7);
  out.AddMetrics(metrics);
  out.SetVirtualSeconds(2.5);

  JsonValue root;
  std::string error;
  ASSERT_TRUE(JsonParse(out.ToJson(), &root, &error)) << error;
  std::vector<std::string> keys;
  for (const auto& [key, value] : root.object) keys.push_back(key);
  EXPECT_EQ(keys, (std::vector<std::string>{
                      "bench", "knobs", "wall_seconds", "virtual_seconds",
                      "counters", "histograms", "results"}));
  EXPECT_EQ(root.Find("bench")->string_value, "bench_test");
  EXPECT_EQ(root.Find("knobs")->Find("label")->string_value, label);
  EXPECT_EQ(root.Find("knobs")->Find("delay_bound")->number, 16.0);
  EXPECT_GE(root.Find("wall_seconds")->number, 0.0);
  EXPECT_EQ(root.Find("virtual_seconds")->number, 2.5);
  EXPECT_EQ(root.Find("counters")->Find("updates_committed")->number, 7.0);
  const JsonValue* row = root.Find("histograms")->Find("latency");
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->Find("count")->number, 2.0);
  EXPECT_EQ(row->Find("min")->number, 1.0);
  EXPECT_EQ(row->Find("max")->number, 3.0);
  EXPECT_EQ(row->Find("p50")->number, 2.0);
  EXPECT_EQ(root.Find("results")->Find("p50_seconds")->number, 0.25);
}

}  // namespace
}  // namespace tornado
