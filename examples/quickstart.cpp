// Quickstart: real-time single-source shortest paths over an evolving
// edge stream.
//
// This walks through the whole Tornado workflow in ~60 lines of user code:
//   1. describe the job (program + cluster shape + delay bound),
//   2. feed an evolving input stream through the ingester,
//   3. ask for results "as of now" — a branch loop forks from the main
//      loop's approximation and converges to the exact fixed point,
//   4. read the converged results from the versioned store.
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>
#include <memory>

#include "algos/sssp.h"
#include "common/logging.h"
#include "core/cluster.h"
#include "stream/graph_stream.h"

using namespace tornado;

int main() {
  SetLogLevel(LogLevel::kWarning);

  // An evolving power-law edge stream: 20k insertions/retractions over
  // ~2.5k vertices, with vertex 0 seeded as a hub (our SSSP source).
  GraphStreamOptions stream_options;
  stream_options.num_vertices = 2500;
  stream_options.num_tuples = 20000;
  stream_options.deletion_ratio = 0.05;
  stream_options.source_hub_weight = 20;

  // The job: incremental SSSP from vertex 0, bounded asynchrony B = 64,
  // 8 worker processors on 4 hosts.
  JobConfig config;
  config.program = std::make_shared<SsspProgram>(/*source=*/0);
  config.delay_bound = 64;
  config.num_processors = 8;
  config.num_hosts = 4;
  config.ingest_rate = 10000.0;  // tuples per (virtual) second

  TornadoCluster cluster(config,
                         std::make_unique<GraphStream>(stream_options));
  cluster.Start();

  // Let half the stream flow in, then query "the shortest paths as of
  // now". The main loop has been approximating all along, so the branch
  // loop only needs to resolve the most recent inputs.
  cluster.RunUntilEmitted(stream_options.num_tuples / 2, 600.0);
  const uint64_t q1 = cluster.ingester().SubmitQuery();
  if (!cluster.RunUntilQueryDone(q1, 600.0)) {
    std::fprintf(stderr, "query did not converge\n");
    return 1;
  }
  std::printf("query 1 converged in %.3f virtual seconds\n",
              cluster.QueryLatency(q1));

  // Results live in the versioned store under the branch loop's id.
  const LoopId branch1 = cluster.BranchOf(q1);
  size_t reachable = 0;
  for (VertexId v = 0; v < stream_options.num_vertices; ++v) {
    auto state = cluster.ReadVertexState(branch1, v);
    if (state == nullptr) continue;
    if (static_cast<const SsspState&>(*state).length != kSsspInfinity) {
      ++reachable;
    }
  }
  std::printf("query 1: %zu vertices reachable from the source\n", reachable);

  // Keep streaming to the end, then ask again: an independent branch loop,
  // a fresh snapshot, no dependency on the earlier query.
  cluster.RunUntilEmitted(stream_options.num_tuples, 600.0);
  const uint64_t q2 = cluster.ingester().SubmitQuery();
  if (!cluster.RunUntilQueryDone(q2, 600.0)) {
    std::fprintf(stderr, "query 2 did not converge\n");
    return 1;
  }
  std::printf("query 2 converged in %.3f virtual seconds\n",
              cluster.QueryLatency(q2));

  auto state = cluster.ReadVertexState(cluster.BranchOf(q2), 42);
  if (state != nullptr) {
    std::printf("distance of vertex 42 at the end of the stream: %.3f\n",
                static_cast<const SsspState&>(*state).length);
  }
  return 0;
}
