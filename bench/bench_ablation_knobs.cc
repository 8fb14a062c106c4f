// Ablation study of the design knobs DESIGN.md calls out:
//
//  (a) the delay bound B — staleness vs. coordination trade-off for a
//      fixed SSSP branch workload (Section 6.3's axis, swept densely);
//  (b) the master's progress-collection period — how often the detector
//      runs determines both the main loop's iteration cadence and branch
//      convergence-detection latency;
//  (c) the no-op commit-notification protocol — message amplification the
//      full-fan-out commit contract costs, measured as messages per
//      committed update.
//
// The delay bound is the one consistency setting, so (a) also covers Table
// 2's axis: its B = 1 row is synchronous execution (no prepares) and its
// B = 4096 row blocks no update.

#include <memory>

#include "bench/bench_util.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "stream/graph_stream.h"

namespace tornado {
namespace bench {
namespace {

constexpr uint64_t kTuples = 24000;

struct Run {
  double latency = -1.0;
  uint64_t updates = 0;
  uint64_t prepares = 0;
  uint64_t messages = 0;
  uint64_t blocked = 0;
};

Run RunOnce(uint64_t bound, double progress_period) {
  JobConfig config = SsspJob(bound, /*batch_mode=*/true);
  config.cost.progress_period = progress_period;
  TornadoCluster cluster(config,
                         std::make_unique<GraphStream>(BenchGraph(kTuples)));
  cluster.Start();
  Run run;
  if (!cluster.RunUntilEmitted(kTuples / 2, 3000.0)) return run;
  cluster.ingester().Pause();
  cluster.RunFor(0.5);

  const int64_t msg0 = cluster.metrics().Get(metric::kMessagesSent);
  const int64_t upd0 =
      cluster.metrics().Get(metric::kUpdatesCommitted);
  run.latency = MeasureQueryLatency(cluster);
  run.messages =
      cluster.metrics().Get(metric::kMessagesSent) - msg0;
  run.updates =
      cluster.metrics().Get(metric::kUpdatesCommitted) - upd0;
  run.prepares = cluster.master().TotalPrepares(1);
  run.blocked = cluster.metrics().Get(metric::kUpdatesBlocked);
  return run;
}

void Ablate() {
  PrintHeader("Ablation: delay bound, detector period, commit fan-out",
              "DESIGN.md design choices (no direct paper counterpart)");

  std::printf("(a) delay bound sweep (progress period 5 ms)\n");
  Table bounds({"B", "branch latency (s)", "#updates", "#prepares",
                "blocked updates"});
  for (uint64_t bound : {1u, 2u, 4u, 8u, 16u, 32u, 64u, 256u, 4096u}) {
    Run run = RunOnce(bound, 5e-3);
    bounds.AddRow({Table::Int(bound), Table::Num(run.latency, 3),
                   Table::Int(run.updates), Table::Int(run.prepares),
                   Table::Int(run.blocked)});
  }
  bounds.Print();

  std::printf("\n(b) progress-collection period sweep (B = 64)\n");
  Table periods({"period (ms)", "branch latency (s)"});
  for (double period : {1e-3, 2e-3, 5e-3, 10e-3, 20e-3, 50e-3}) {
    Run run = RunOnce(64, period);
    periods.AddRow({Table::Num(period * 1e3, 0), Table::Num(run.latency, 3)});
  }
  periods.Print();

  std::printf(
      "\n(c) commit fan-out: messages per committed update (B = 64)\n");
  Run run = RunOnce(64, 5e-3);
  if (run.updates > 0) {
    std::printf(
        "  %.2f messages per update (%llu messages, %llu updates) — the\n"
        "  excess over ~2 (update + transport ack) is PREPARE/ACK rounds\n"
        "  plus the no-op notifications that keep consumers' PrepareLists\n"
        "  live when values are suppressed.\n",
        static_cast<double>(run.messages) / static_cast<double>(run.updates),
        static_cast<unsigned long long>(run.messages),
        static_cast<unsigned long long>(run.updates));
  }
}

}  // namespace
}  // namespace bench
}  // namespace tornado

int main() {
  tornado::SetLogLevel(tornado::LogLevel::kWarning);
  tornado::bench::Ablate();
  return 0;
}
