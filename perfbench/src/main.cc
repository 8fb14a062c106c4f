// The repository benchmark. Runs one seeded workload repeatedly for
// a fixed wall-time budget on the sim backend and prints its metrics; the
// last line of stdout is one JSON object. See README.md. Host timings are
// process CPU time, so they do not count the time other processes held the
// CPU; the time budget is wall time.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans-out <path>]
//
// --trace 0 measures the end-to-end metrics on untraced runs. --trace 1
// alternates untraced and traced passes and reports the per-layer metrics
// of the traced runs plus the tracing overhead. Every input runs at least
// twice, so every count and virtual time must repeat exactly; a mismatch, a
// timed-out query or a wrong answer fails the benchmark.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.h"
#include "core/cluster.h"
#include "runtime/sim_substrate.h"
#include "trace.h"
#include "workloads.h"
#include "wrappers.h"

namespace perfbench {
namespace {

using tornado::TornadoCluster;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--spans-out") {
      args->spans_out = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0.0;
}

// Each run measures this many distinct inputs, derived from --seed, so its
// medians average over input shapes as well as over repetitions.
constexpr int kInputsPerRun = 4;
constexpr int kSetupsPerCpu = 40;

// Virtual seconds a query may take before it counts as failed, and that the
// paused main loop settles before the answer-check query.
constexpr double kQueryTimeout = 600.0;
constexpr double kSettleSeconds = 3.0;

uint64_t InputSeed(uint64_t seed, int input) {
  return seed * kInputsPerRun + static_cast<uint64_t>(input);
}

/// Instrumentation of a traced run: the span recorder fed by the program
/// and stream wrappers, the engine and transport counters, and maxima of
/// queue sizes sampled at every predicate check of the drive loop.
struct Probe {
  Tracer tracer;
  std::unique_ptr<EngineCounter> engine;
  NetCounter net;
  int64_t inflight_max = 0;
  size_t inbox_max = 0, pending_max = 0, heap_max = 0;

  void Attach(TornadoCluster& cluster) {
    engine = std::make_unique<EngineCounter>(cluster.substrate().clock());
    cluster.AddEngineObserver(engine.get());
    cluster.transport().set_observer(&net);
  }

  void Sample(TornadoCluster& cluster) {
    tornado::Transport& transport = cluster.transport();
    inflight_max = std::max(inflight_max, transport.InFlightCount());
    for (tornado::NodeId n = 0; n < transport.node_count(); ++n) {
      inbox_max = std::max(inbox_max, transport.InboxDepth(n));
    }
    auto* sim = static_cast<tornado::SimSubstrate*>(&cluster.substrate());
    pending_max = std::max(pending_max, sim->loop()->pending());
    heap_max = std::max(heap_max, sim->loop()->heap_size());
  }
};

struct Episode {
  int input = 0;
  bool traced = false;
  double run_s = 0.0;
  std::vector<double> query_host_ms;
  std::vector<double> vlat_s;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  AnswerCheck check;
  // Deterministic quantities (counts and virtual times): equal across all
  // runs of one seed. Traced runs add the counts only the wrappers see.
  std::map<std::string, double> counts;
  // Host seconds per layer (traced runs only).
  std::map<std::string, double> times;
};

void RecordClusterCounts(TornadoCluster& cluster, Episode* ep) {
  auto& c = ep->counts;
  for (const auto& [name, value] : cluster.metrics().counters()) {
    c["registry." + name] = static_cast<double>(value.load());
  }
  const auto& registry = cluster.metrics();
  const double emitted = static_cast<double>(cluster.ingester().emitted());
  c["stream.tuples"] = emitted;
  c["sim.now"] = cluster.now();
  c["net.sent"] = registry.Get(tornado::metric::kMessagesSent);
  c["net.delivered"] = registry.Get(tornado::metric::kMessagesDelivered);
  c["net.retransmitted"] =
      registry.Get(tornado::metric::kMessagesRetransmitted);
  c["net.transport_acks"] = registry.Get(tornado::metric::kTransportAcks);
  c["net.msgs_per_tuple"] = c["net.sent"] / std::max(1.0, emitted);

  tornado::VersionedStore& store = cluster.store();
  std::vector<tornado::LoopId> loops = {tornado::kMainLoop};
  std::vector<double> iters, fork_wait;
  for (const tornado::QueryRecord& q : cluster.master().queries()) {
    if (q.branch != 0) loops.push_back(q.branch);
    if (!q.done) continue;
    iters.push_back(static_cast<double>(q.converged_iteration));
    fork_wait.push_back(q.fork_time - q.submit_time);
  }
  double arena = 0.0, compactions = 0.0;
  for (tornado::LoopId loop : loops) {
    arena += static_cast<double>(store.ArenaBytes(loop));
    compactions += static_cast<double>(store.ArenaCompactions(loop));
  }
  c["storage.versions"] = static_cast<double>(store.TotalVersions());
  c["storage.bytes"] = static_cast<double>(store.TotalBytes());
  c["storage.arena_bytes"] = arena;
  c["storage.compactions"] = compactions;
  c["master.queries"] = static_cast<double>(iters.size());
  c["master.iters_per_query"] = Median(iters);
  c["master.fork_wait_vs"] = Median(fork_wait);
}

// Payload type names of core/messages.h; anything else counts as "other".
constexpr const char* kPayloadTypes[] = {
    "Input",       "Update",        "Prepare",     "Ack",
    "Progress",    "Terminated",    "ForkBranch",  "StopLoop",
    "RestartLoop", "AdoptMerge",    "ProcessorHello", "MasterHello",
    "Query",       "QueryResult",   "other"};

void RecordProbe(const Probe& probe, Episode* ep) {
  auto& c = ep->counts;
  const EngineCounter& e = *probe.engine;
  c["engine.inputs"] = static_cast<double>(e.inputs);
  c["engine.prepares"] = static_cast<double>(e.prepares);
  c["engine.acks"] = static_cast<double>(e.acks);
  c["engine.commits"] = static_cast<double>(e.commits);
  c["engine.blocked"] = static_cast<double>(e.blocked);
  c["engine.flushed_versions"] = static_cast<double>(e.flushed_versions);
  c["engine.terminations"] = static_cast<double>(e.terminations);
  c["engine.blocked_vs"] = e.blocked_vs;
  for (const char* type : kPayloadTypes) {
    c[std::string("net.sent.") + type] = 0.0;
  }
  for (const auto& [type, count] : probe.net.SendsByType()) {
    const bool known = std::find(std::begin(kPayloadTypes),
                                 std::end(kPayloadTypes),
                                 type) != std::end(kPayloadTypes);
    c["net.sent." + (known ? type : std::string("other"))] +=
        static_cast<double>(count);
  }
  c["net.inflight_max"] = static_cast<double>(probe.inflight_max);
  c["net.inbox_max"] = static_cast<double>(probe.inbox_max);
  c["sim.pending_max"] = static_cast<double>(probe.pending_max);
  c["sim.heap_max"] = static_cast<double>(probe.heap_max);

  const Tracer& t = probe.tracer;
  auto& times = ep->times;
  double algos = 0.0;
  for (Layer layer : {Layer::kAlgosInput, Layer::kAlgosUpdate,
                      Layer::kAlgosScatter, Layer::kAlgosState}) {
    const std::string stem = LayerName(layer);
    times[stem + "_s"] = t.totals(layer).seconds;
    c[stem + "_calls"] = static_cast<double>(t.totals(layer).calls);
    algos += t.totals(layer).seconds;
  }
  times["stream.next_s"] = t.totals(Layer::kStreamNext).seconds;
  times["core.ingest_s"] = t.totals(Layer::kCoreIngest).seconds;
  times["core.query_s"] = t.totals(Layer::kCoreQuery).seconds;
  const double self =
      t.SelfSeconds(Layer::kCoreIngest) + t.SelfSeconds(Layer::kCoreQuery);
  times["core.self_s"] = self;
  const double root = std::max(1e-12, t.RootSeconds());
  times["algos.share_pct"] = 100.0 * algos / root;
  times["stream.share_pct"] =
      100.0 * t.totals(Layer::kStreamNext).seconds / root;
  times["core.self_share_pct"] = 100.0 * self / root;
}

/// One seeded run: set-up, the timed closed-loop drive, then the untimed
/// answer check.
Episode RunEpisode(Workload& workload, uint64_t seed, bool traced,
                   std::string* spans_json) {
  Episode ep;
  ep.traced = traced;
  const Drive drive = workload.drive();
  std::unique_ptr<Probe> probe = traced ? std::make_unique<Probe>() : nullptr;
  Tracer* tracer = traced ? &probe->tracer : nullptr;

  tornado::JobConfig config = workload.Config(seed);
  std::unique_ptr<tornado::StreamSource> stream = workload.Stream(seed);
  if (traced) {
    config.program = WrapProgram(config.program, tracer);
    stream = std::make_unique<TimedStream>(std::move(stream), tracer);
  }
  auto cluster = std::make_unique<TornadoCluster>(config, std::move(stream));
  if (traced) probe->Attach(*cluster);
  cluster->Start();

  tornado::Ingester& ingester = cluster->ingester();
  auto run_until = [&](Layer layer, auto&& done, double timeout) {
    const ScopedSpan span(tracer, layer);
    return cluster->RunUntil(
        [&]() {
          if (traced) probe->Sample(*cluster);
          return done();
        },
        timeout);
  };
  const double ingest_timeout =
      2.0 * static_cast<double>(drive.tuples) / drive.rate + 60.0;

  const double run_start = CpuSeconds();
  bool ok = true;
  uint64_t next = drive.warmup;
  while (ep.vlat_s.size() < drive.max_queries && next <= drive.tuples) {
    ok = run_until(
        Layer::kCoreIngest, [&]() { return ingester.emitted() >= next; },
        ingest_timeout);
    if (!ok) break;
    const double query_start = CpuSeconds();
    const uint64_t query = ingester.SubmitQuery();
    ++ep.attempted;
    ok = run_until(
        Layer::kCoreQuery,
        [&]() { return ingester.FindCompleted(query).has_value(); },
        kQueryTimeout);
    if (!ok) break;
    ep.query_host_ms.push_back((CpuSeconds() - query_start) * 1e3);
    ep.vlat_s.push_back(cluster->QueryLatency(query));
    next = ingester.emitted() + drive.query_every;
  }
  if (ok) {
    ok = run_until(
        Layer::kCoreIngest,
        [&]() { return ingester.emitted() >= drive.tuples; }, ingest_timeout);
  }
  ep.run_s = CpuSeconds() - run_start;
  if (!ok) ++ep.failed;

  RecordClusterCounts(*cluster, &ep);
  if (traced) {
    RecordProbe(*probe, &ep);
    if (spans_json != nullptr) {
      if (!spans_json->empty()) spans_json->push_back(',');
      probe->tracer.AppendSpansJson(spans_json);
    }
  }

  // Answer check: freeze the input, let the main loop settle, and compare
  // one more branch with the exact solver on the emitted prefix.
  ingester.Pause();
  cluster->RunFor(kSettleSeconds);
  const uint64_t query = ingester.SubmitQuery();
  ++ep.attempted;
  if (cluster->RunUntilQueryDone(query, kQueryTimeout)) {
    ep.check = workload.Check(*cluster, cluster->BranchOf(query), seed,
                              ingester.emitted());
    ep.counts["check.error"] = ep.check.error;
    ep.counts["check.vlat_s"] = cluster->QueryLatency(query);
  }
  if (!ep.check.ok) ++ep.failed;
  return ep;
}

/// Set-up times of constructing and starting `count` clusters.
std::vector<double> SetupTimes(Workload& workload, uint64_t seed, int count) {
  std::vector<double> out;
  for (int i = 0; i < count; ++i) {
    const double start = CpuSeconds();
    auto cluster = std::make_unique<TornadoCluster>(workload.Config(seed),
                                                    workload.Stream(seed));
    cluster->Start();
    out.push_back(CpuSeconds() - start);
  }
  return out;
}

/// The CPUs this process may run on; {-1} (do not pin) when unknown.
std::vector<int> AllowedCpus() {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return {-1};
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  return cpus;
}

/// Restricts the process to `cpu`; a no-op for -1.
bool PinTo(int cpu) {
  if (cpu < 0) return true;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return sched_setaffinity(0, sizeof(one), &one) == 0;
}

/// Samples set-up `count` times on each of `cpus`, then pins the process to
/// the CPU on which its samples took the least wall time. On a shared host
/// a CPU whose core is also busy with other work runs everything markedly
/// slower, and which CPUs those are changes within seconds, so the choice
/// is made again before every timed run. Wall time, unlike CPU time, also
/// sees a CPU that this process would have to share with another runnable
/// process. Sampling on every CPU makes the set-up median reflect the whole
/// host rather than the CPU picked.
std::vector<double> SampleSetupAndPin(Workload& workload, uint64_t seed,
                                      const std::vector<int>& cpus,
                                      int count) {
  std::vector<double> samples;
  int best = -1;
  double best_seconds = std::numeric_limits<double>::infinity();
  for (int cpu : cpus) {
    const bool pinned = PinTo(cpu);
    const double start = WallSeconds();
    const std::vector<double> times = SetupTimes(workload, seed, count);
    const double seconds = WallSeconds() - start;
    samples.insert(samples.end(), times.begin(), times.end());
    if (pinned && seconds < best_seconds) {
      best_seconds = seconds;
      best = cpu;
    }
  }
  PinTo(best);
  return samples;
}

/// Every deterministic quantity two runs both measured must agree exactly.
/// Returns the first differing key, or "" when they agree.
std::string FirstMismatch(const Episode& a, const Episode& b) {
  if (a.vlat_s != b.vlat_s) return "vlat_s";
  for (const auto& [key, value] : a.counts) {
    auto it = b.counts.find(key);
    if (it != b.counts.end() && it->second != value) return key;
  }
  return "";
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Timed-run seconds per input.
using RunTimes = std::map<int, std::vector<double>>;

/// The mean over inputs of each input's fastest run. Other processes on
/// the host only ever slow a run down, so the fastest repeat is the best
/// estimate of the program's own time; every input weighs the same,
/// however long it runs.
double MeanOfMinima(const RunTimes& times) {
  double sum = 0.0;
  for (const auto& [input, samples] : times) {
    sum += *std::min_element(samples.begin(), samples.end());
  }
  return times.empty() ? 0.0 : sum / static_cast<double>(times.size());
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// Per-layer metric units follow from their name suffixes.
const char* UnitOf(const std::string& key) {
  if (key.ends_with("_pct")) return "%";
  if (key.ends_with("_vs")) return "virtual_s";
  if (key.ends_with("_s")) return "s";
  if (key.ends_with("bytes")) return "bytes";
  if (key.ends_with("_per_tuple")) return "msgs/tuple";
  return "count";
}

std::string FormatNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Prints a timing as its median and highest reportable percentile with
/// the sample count.
void PrintTiming(const char* name, const char* unit,
                 const std::vector<double>& samples) {
  std::printf("  %-20s p50 %.6g %s", name, Median(samples), unit);
  if (auto pct = HighestReportablePercentile(samples.size())) {
    std::printf(", p%g %.6g %s", *pct, Percentile(samples, *pct), unit);
  }
  std::printf("  (n=%zu)\n", samples.size());
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--spans-out <path>]\n");
    return 2;
  }
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'; workloads:",
                 args.workload.c_str());
    for (const std::string& name : WorkloadNames()) {
      std::fprintf(stderr, " %s", name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  tornado::SetLogLevel(tornado::LogLevel::kWarning);

  const std::vector<int> cpus = AllowedCpus();
  std::vector<double> setups;

  // Whole passes over the run's inputs while another pass fits in the time
  // budget; at least two, so every input is checked for determinism. With
  // --trace 1 the passes alternate untraced and traced.
  std::string spans_json;
  std::vector<Episode> episodes;
  const double start = WallSeconds();
  double pass_seconds = 0.0;
  std::string mismatch;
  bool failed_query = false;
  for (int pass = 0;
       mismatch.empty() && !failed_query &&
       (pass < 2 || WallSeconds() - start + pass_seconds <= args.seconds);
       ++pass) {
    const double pass_start = WallSeconds();
    const bool traced = args.trace && pass % 2 == 1;
    for (int input = 0; input < kInputsPerRun; ++input) {
      // Set-up takes microseconds, so it is sampled many times.
      const std::vector<double> times = SampleSetupAndPin(
          *workload, InputSeed(args.seed, input), cpus, kSetupsPerCpu);
      setups.insert(setups.end(), times.begin(), times.end());
      Episode ep = RunEpisode(
          *workload, InputSeed(args.seed, input), traced,
          traced && !args.spans_out.empty() ? &spans_json : nullptr);
      ep.input = input;
      for (const Episode& other : episodes) {
        if (other.input != input || !mismatch.empty()) continue;
        mismatch = FirstMismatch(other, ep);
      }
      failed_query = failed_query || ep.failed > 0;
      episodes.push_back(std::move(ep));
    }
    pass_seconds = std::max(pass_seconds, WallSeconds() - pass_start);
  }

  std::vector<double> run_s, traced_run_s, host_ms, vlat_s;
  RunTimes run_times, traced_run_times;
  uint64_t attempted = 0, failed = 0;
  std::map<std::string, std::vector<double>> layers;
  // The failed answer check, or else the one closest to its bound.
  const AnswerCheck* worst = &episodes.front().check;
  for (size_t i = 0; i < episodes.size(); ++i) {
    const Episode& ep = episodes[i];
    attempted += ep.attempted;
    failed += ep.failed;
    if (worst->ok && (!ep.check.ok || ep.check.error / ep.check.bound >
                                          worst->error / worst->bound)) {
      worst = &ep.check;
    }
    if (i < kInputsPerRun) {  // virtual latencies repeat in later passes
      vlat_s.insert(vlat_s.end(), ep.vlat_s.begin(), ep.vlat_s.end());
    }
    if (ep.traced) {
      traced_run_s.push_back(ep.run_s);
      traced_run_times[ep.input].push_back(ep.run_s);
      for (const auto* values : {&ep.times, &ep.counts}) {
        for (const auto& [key, value] : *values) {
          layers[key].push_back(value);
        }
      }
      continue;
    }
    run_s.push_back(ep.run_s);
    run_times[ep.input].push_back(ep.run_s);
    host_ms.insert(host_ms.end(), ep.query_host_ms.begin(),
                   ep.query_host_ms.end());
  }

  std::printf("perfbench %s seed %" PRIu64
              ": %zu runs over %d inputs (%zu traced), %.1f s\n",
              workload->name(), args.seed, episodes.size(), kInputsPerRun,
              traced_run_s.size(), WallSeconds() - start);
  std::printf("  answer check: %s (largest error %.3g, bound %.3g)\n",
              worst->ok ? "ok" : "FAILED", worst->error, worst->bound);
  if (!mismatch.empty()) {
    std::printf("  determinism: MISMATCH in %s\n", mismatch.c_str());
  }
  std::printf("  queries_failed       %" PRIu64 " of %" PRIu64 "\n", failed,
              attempted);
  PrintTiming("run_s", "s", run_s);
  PrintTiming("setup_s", "s", setups);
  PrintTiming("query_host_ms", "ms", host_ms);
  PrintTiming("vlat_s", "s", vlat_s);

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"run_s", MeanOfMinima(run_times), "s"},
        {"setup_s", Median(setups), "s"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
        {"query_host_p50_ms", Median(host_ms), "ms"},
        {"vlat_p50_s", Median(vlat_s), "s"},
    };
  } else if (!traced_run_s.empty()) {
    // Each per-layer value is its median over the traced runs.
    for (const auto& [key, values] : layers) {
      if (key.starts_with("registry.") || key.starts_with("check.") ||
          key == "sim.now") {
        continue;
      }
      metrics.push_back({key, Median(values), UnitOf(key)});
    }
    metrics.push_back(
        {"trace.overhead_pct",
         100.0 * (MeanOfMinima(traced_run_times) / MeanOfMinima(run_times) -
                  1.0),
         "%"});
  }
  for (const Metric& m : metrics) {
    std::printf("  %-28s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }

  if (!args.spans_out.empty()) {
    std::ofstream out(args.spans_out);
    out << "{\"workload\":\"" << workload->name() << "\",\"seed\":"
        << args.seed << ",\"runs\":[" << spans_json << "]}\n";
  }

  const bool correct = mismatch.empty() && failed == 0;
  std::string json = "{\"correct\":";
  json += correct ? "true" : "false";
  json += ",\"attempted\":" + std::to_string(attempted);
  json += ",\"failed\":" + std::to_string(failed);
  json += ",\"metrics\":{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += (i == 0 ? "\"" : ",\"") + metrics[i].name + "\":{\"value\":" +
            FormatNumber(metrics[i].value) + ",\"unit\":\"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
