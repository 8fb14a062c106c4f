#ifndef TORNADO_BENCH_BENCH_UTIL_H_
#define TORNADO_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <functional>

#include "algos/kmeans.h"
#include "algos/pagerank.h"
#include "algos/sgd.h"
#include "algos/sssp.h"
#include "algos/workloads.h"
#include "common/histogram.h"
#include "common/json.h"
#include "core/cluster.h"
#include "stream/graph_stream.h"
#include "stream/instance_stream.h"
#include "stream/point_stream.h"

namespace tornado {
namespace bench {

/// Fixed-width table printer for paper-style outputs.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  void AddRow(std::vector<std::string> cells);
  void Print() const;

  static std::string Num(double v, int precision = 2);
  static std::string Int(uint64_t v);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

void PrintHeader(const std::string& title, const std::string& paper_ref);

/// The paper workloads (algos/workloads.h), re-exported for the benches.
using tornado::BenchDense;
using tornado::BenchGraph;
using tornado::BenchPoints;
using tornado::BenchSparse;
using tornado::KMeansJob;
using tornado::kBenchSsspSource;
using tornado::PageRankJob;
using tornado::SgdJob;
using tornado::SsspJob;

/// Runs the cluster until `count` tuples are ingested, then submits a
/// query and returns its latency (virtual seconds), or -1 on timeout.
/// The latency is also observed into the cluster's
/// metric::kQueryLatency distribution so bench JSON reports p50/p95/max.
double MeasureQueryLatency(TornadoCluster& cluster, double timeout = 3000.0);

/// Common bench command-line flags (docs/OBSERVABILITY.md):
///   --json <path>        machine-readable run result (JSON)
///   --trace-out <path>   Chrome trace-event JSON of the traced window
///   --series-out <path>  sampler time-series CSV
/// Unknown arguments are ignored so benches stay drop-in runnable.
struct BenchArgs {
  std::string json_path;
  std::string trace_path;
  std::string series_path;

  bool WantsTrace() const { return !trace_path.empty(); }
};
BenchArgs ParseBenchArgs(int argc, char** argv);

/// Accumulates one bench run's machine-readable result and writes it as a
/// single JSON object (common/json.h), with keys in this order:
///
///   {"bench": "...", "knobs": {...}, "wall_seconds": W,
///    "virtual_seconds": V, "counters": {...},
///    "histograms": {"name": {"count": n, "min": ..., "max": ...,
///                            "mean": ..., "p50": ..., "p95": ...}},
///    "results": {...}}
///
/// Knobs are the configuration the run was parameterized by, results the
/// measured outputs; both are flat maps sorted by key (knob values are
/// numbers or strings). Wall time is stamped at ToJson; virtual time,
/// counters and histograms are whatever the bench recorded. Schema
/// documented in docs/OBSERVABILITY.md.
class BenchJson {
 public:
  explicit BenchJson(std::string bench);

  void AddKnob(const std::string& key, double value);
  void AddKnob(const std::string& key, const std::string& value);
  void AddResult(const std::string& key, double value);
  void AddHistogram(const std::string& key, const Histogram& histogram);
  void SetVirtualSeconds(double seconds) { virtual_seconds_ = seconds; }

  /// Snapshots every counter and distribution of `metrics`.
  void AddMetrics(const MetricRegistry& metrics);

  std::string ToJson() const;
  bool WriteFile(const std::string& path) const;

 private:
  std::string bench_;
  double start_wall_;  // seconds, process clock
  double virtual_seconds_ = 0.0;
  std::map<std::string, JsonValue> knobs_;
  std::map<std::string, JsonValue> results_;
  std::map<std::string, JsonValue> counters_;
  std::map<std::string, JsonValue> histograms_;
};

/// Factory for the (identically-seeded) input stream of one run.
using StreamFactory = std::function<std::unique_ptr<StreamSource>()>;

/// Figure 5 driver: the mini-batch method and the approximate method run
/// the *same* engine and configuration; they differ only in arrival shape
/// (Section 6.2.1).
///
/// Batch,N: tuples arrive in bursts of N; the query fires the moment the
/// burst has been gathered, so the branch loop must resolve the whole
/// batch — its initial guess is the fixed point from N tuples ago.
///
/// Approximate: tuples arrive smoothly at `rate`; the main loop absorbs
/// them continuously, so a query's branch loop only resolves the last
/// iteration's un-reflected inputs.
///
/// Returns the latency histogram over the queries at the given boundaries.
Histogram RunBatchSeries(const JobConfig& config, const StreamFactory& stream,
                         uint64_t warmup, uint64_t total, uint64_t batch_size,
                         double rate, size_t max_queries = 20);
Histogram RunApproximateSeries(const JobConfig& config,
                               const StreamFactory& stream, uint64_t warmup,
                               uint64_t total, uint64_t query_every,
                               double rate, size_t max_queries = 20);

/// Reads the main-loop or branch-loop SGD model.
std::vector<double> ReadSgdWeights(const TornadoCluster& cluster, LoopId loop);

}  // namespace bench
}  // namespace tornado

#endif  // TORNADO_BENCH_BENCH_UTIL_H_
