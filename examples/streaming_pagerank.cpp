// Streaming PageRank with periodic queries and branch-merging — the
// search-engine scenario from the paper's introduction: crawlers produce a
// retractable edge stream; the engine keeps an up-to-date ranking
// approximation and answers "rank as of now" requests at regular
// intervals. When no input arrived during a branch loop, its converged
// results are merged back into the main loop (Section 5.2), improving the
// approximation for free.
//
// Build & run:
//   ./build/examples/streaming_pagerank [--backend=sim|thread]
//
// The default runs on the deterministic simulation; --backend=thread runs
// it on real OS threads (docs/RUNTIME.md) and converges to the same fixed
// point, though latencies become wall-clock measurements.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "algos/pagerank.h"
#include "common/logging.h"
#include "core/cluster.h"
#include "stream/graph_stream.h"

using namespace tornado;

int main(int argc, char** argv) {
  SetLogLevel(LogLevel::kWarning);

  SubstrateBackend backend = SubstrateBackend::kSim;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--backend=thread") == 0) {
      backend = SubstrateBackend::kThread;
    } else if (std::strcmp(argv[i], "--backend=sim") == 0) {
      backend = SubstrateBackend::kSim;
    } else {
      std::fprintf(stderr, "usage: %s [--backend=sim|thread]\n", argv[0]);
      return 2;
    }
  }

  GraphStreamOptions stream_options;
  stream_options.num_vertices = 3000;
  stream_options.num_tuples = 24000;
  stream_options.preferential = 0.7;  // heavy-tailed: a few "popular pages"
  stream_options.deletion_ratio = 0.05;

  JobConfig config;
  config.program = std::make_shared<PageRankProgram>(/*damping=*/0.85,
                                                     /*tolerance=*/1e-3);
  config.delay_bound = 64;
  config.num_processors = 8;
  config.num_hosts = 4;
  config.ingest_rate = 8000.0;
  config.merge_branches = true;  // fold converged results back into main
  config.backend = backend;

  TornadoCluster cluster(config,
                         std::make_unique<GraphStream>(stream_options));
  cluster.Start();

  // "Hourly" ranking updates: pause the crawler briefly at each interval
  // (so the branch result is exact for that instant and merges back), then
  // resume crawling.
  const uint64_t interval = stream_options.num_tuples / 4;
  for (int hour = 1; hour <= 4; ++hour) {
    cluster.RunUntilEmitted(interval * hour, 600.0);
    cluster.ingester().Pause();
    cluster.RunFor(0.3);  // drain in-flight input

    const uint64_t query = cluster.ingester().SubmitQuery();
    if (!cluster.RunUntilQueryDone(query, 600.0)) {
      std::fprintf(stderr, "ranking %d did not converge\n", hour);
      return 1;
    }
    const LoopId branch = cluster.BranchOf(query);

    // Top-5 pages by rank at this instant.
    std::vector<std::pair<double, VertexId>> top;
    for (VertexId v = 0; v < stream_options.num_vertices; ++v) {
      auto state = cluster.ReadVertexState(branch, v);
      if (state == nullptr) continue;
      top.emplace_back(static_cast<const PageRankState&>(*state).rank, v);
    }
    std::partial_sort(top.begin(), top.begin() + std::min<size_t>(5, top.size()),
                      top.end(), std::greater<>());
    std::printf("ranking %d (latency %.3fs): top pages:", hour,
                cluster.QueryLatency(query));
    for (size_t i = 0; i < top.size() && i < 5; ++i) {
      std::printf(" v%llu(%.2f)", static_cast<unsigned long long>(top[i].second),
                  top[i].first);
    }
    std::printf("\n");

    cluster.RunFor(0.2);  // let the merge-back settle
    cluster.ingester().Resume();
  }
  return 0;
}
