#include "bench/bench_util.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <fstream>

namespace tornado {
namespace bench {

namespace {
// Wall-clock stamping lives in bench/ only; src/ stays wall-clock-free
// (DET-001) so simulation results never depend on host speed.
double WallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

JsonValue ObjectOf(const std::map<std::string, JsonValue>& members) {
  JsonValue object = JsonValue::MakeObject();
  for (const auto& [key, value] : members) object.Add(key, value);
  return object;
}
}  // namespace

BenchArgs ParseBenchArgs(int argc, char** argv) {
  BenchArgs args;
  for (int i = 1; i + 1 < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--json") {
      args.json_path = argv[++i];
    } else if (flag == "--trace-out") {
      args.trace_path = argv[++i];
    } else if (flag == "--series-out") {
      args.series_path = argv[++i];
    }
  }
  return args;
}

BenchJson::BenchJson(std::string bench)
    : bench_(std::move(bench)), start_wall_(WallSeconds()) {}

void BenchJson::AddKnob(const std::string& key, double value) {
  knobs_[key] = JsonValue::Of(value);
}

void BenchJson::AddKnob(const std::string& key, const std::string& value) {
  knobs_[key] = JsonValue::Of(value);
}

void BenchJson::AddResult(const std::string& key, double value) {
  results_[key] = JsonValue::Of(value);
}

void BenchJson::AddHistogram(const std::string& key,
                             const Histogram& histogram) {
  JsonValue row = JsonValue::MakeObject();
  row.Add("count", JsonValue::Of(static_cast<double>(histogram.count())));
  row.Add("min", JsonValue::Of(histogram.min()));
  row.Add("max", JsonValue::Of(histogram.max()));
  row.Add("mean", JsonValue::Of(histogram.Mean()));
  row.Add("p50", JsonValue::Of(histogram.Percentile(50.0)));
  row.Add("p95", JsonValue::Of(histogram.Percentile(95.0)));
  histograms_[key] = std::move(row);
}

void BenchJson::AddMetrics(const MetricRegistry& metrics) {
  for (const auto& [name, value] : metrics.counters()) {
    counters_[name] = JsonValue::Of(static_cast<double>(value));
  }
  for (const auto& [name, hist] : metrics.histograms()) {
    if (hist.count() > 0) AddHistogram(name, hist);
  }
}

std::string BenchJson::ToJson() const {
  JsonValue root = JsonValue::MakeObject();
  root.Add("bench", JsonValue::Of(bench_));
  root.Add("knobs", ObjectOf(knobs_));
  root.Add("wall_seconds", JsonValue::Of(WallSeconds() - start_wall_));
  root.Add("virtual_seconds", JsonValue::Of(virtual_seconds_));
  root.Add("counters", ObjectOf(counters_));
  root.Add("histograms", ObjectOf(histograms_));
  root.Add("results", ObjectOf(results_));
  return JsonWrite(root) + "\n";
}

bool BenchJson::WriteFile(const std::string& path) const {
  std::ofstream out(path);
  if (!out.is_open()) return false;
  out << ToJson();
  return out.good();
}

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void Table::AddRow(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
}

void Table::Print() const {
  std::vector<size_t> widths(headers_.size());
  for (size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    std::printf("  ");
    for (size_t c = 0; c < widths.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : std::string();
      std::printf("%-*s  ", static_cast<int>(widths[c]), cell.c_str());
    }
    std::printf("\n");
  };
  print_row(headers_);
  std::string rule;
  for (size_t c = 0; c < widths.size(); ++c) {
    rule += std::string(widths[c], '-') + "  ";
  }
  std::printf("  %s\n", rule.c_str());
  for (const auto& row : rows_) print_row(row);
}

std::string Table::Num(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string Table::Int(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  return buf;
}

void PrintHeader(const std::string& title, const std::string& paper_ref) {
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("(reproduces %s of Shi et al., SIGMOD'16)\n\n",
              paper_ref.c_str());
}

double MeasureQueryLatency(TornadoCluster& cluster, double timeout) {
  const uint64_t query = cluster.ingester().SubmitQuery();
  if (!cluster.RunUntilQueryDone(query, timeout)) return -1.0;
  const double latency = cluster.QueryLatency(query);
  if (latency >= 0.0) {
    cluster.metrics().Observe(metric::kQueryLatency, latency);
  }
  return latency;
}

namespace {
bool RunUntilGathered(TornadoCluster& cluster, uint64_t count,
                      double timeout) {
  return cluster.RunUntil(
      [&]() {
        return cluster.metrics().Get(metric::kInputsGathered) >=
               static_cast<int64_t>(count);
      },
      timeout);
}
}  // namespace

Histogram RunBatchSeries(const JobConfig& base_config,
                         const StreamFactory& stream, uint64_t warmup,
                         uint64_t total, uint64_t batch_size, double rate,
                         size_t max_queries) {
  JobConfig config = base_config;
  // Bursts: the epoch's tuples arrive (and are gathered) "at once"; the
  // wall-clock cadence of the epochs matches the underlying arrival rate.
  config.ingest_rate = rate * 200.0;
  config.ingest_batch = 100;
  TornadoCluster cluster(config, stream());
  cluster.Start();

  Histogram latencies;
  if (!cluster.RunUntilEmitted(warmup, 3000.0)) return latencies;
  cluster.ingester().Pause();
  (void)RunUntilGathered(cluster, warmup, 1000.0);
  cluster.RunFor(1.0);  // absorb the warmup: the first fixed point

  for (uint64_t boundary = warmup + batch_size;
       boundary <= total && latencies.count() < max_queries;
       boundary += batch_size) {
    const double epoch_start = cluster.now();
    cluster.ingester().Resume();
    if (!cluster.RunUntilEmitted(boundary, 1000.0)) break;
    cluster.ingester().Pause();
    if (!RunUntilGathered(cluster, boundary, 1000.0)) break;

    const double latency = MeasureQueryLatency(cluster);
    if (latency >= 0.0) latencies.Add(latency);

    // Idle until the instant the next epoch's data has "arrived" in real
    // time; the main loop absorbs the batch meanwhile, becoming the next
    // warm start.
    const double next_epoch =
        epoch_start + static_cast<double>(batch_size) / rate;
    if (cluster.now() < next_epoch) {
      cluster.RunFor(next_epoch - cluster.now());
    }
  }
  return latencies;
}

Histogram RunApproximateSeries(const JobConfig& base_config,
                               const StreamFactory& stream, uint64_t warmup,
                               uint64_t total, uint64_t query_every,
                               double rate, size_t max_queries) {
  JobConfig config = base_config;
  config.ingest_rate = rate;
  TornadoCluster cluster(config, stream());
  cluster.Start();

  Histogram latencies;
  if (!cluster.RunUntilEmitted(warmup, 3000.0)) return latencies;
  for (uint64_t boundary = warmup + query_every;
       boundary <= total && latencies.count() < max_queries;
       boundary += query_every) {
    if (!cluster.RunUntilEmitted(boundary, 1000.0)) break;
    // Query live: ingestion keeps running while the branch executes.
    const double latency = MeasureQueryLatency(cluster);
    if (latency >= 0.0) latencies.Add(latency);
  }
  return latencies;
}

std::vector<double> ReadSgdWeights(const TornadoCluster& cluster,
                                   LoopId loop) {
  auto state = cluster.ReadVertexState(loop, kSgdParamVertex);
  if (state == nullptr) return {};
  return static_cast<const SgdParamState&>(*state).weights;
}

}  // namespace bench
}  // namespace tornado
