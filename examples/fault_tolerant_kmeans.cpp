// Fault-tolerant streaming KMeans — demonstrates the recovery machinery of
// Section 5.3: a worker is killed mid-query; the loop rolls back to its
// last terminated iteration (the checkpoint that flush-before-progress
// guarantees), re-drives the computation, and still converges to the
// correct clustering. Also shows the on-disk checkpoint log for users who
// want results to survive a *process* restart, not just a simulated node
// failure.
//
// Build & run:  ./build/examples/fault_tolerant_kmeans

#include <cstdio>
#include <memory>

#include "algos/kmeans.h"
#include "common/logging.h"
#include "core/cluster.h"
#include "storage/checkpoint_log.h"
#include "stream/point_stream.h"

using namespace tornado;

int main() {
  SetLogLevel(LogLevel::kWarning);

  PointStreamOptions stream_options;
  stream_options.dimensions = 8;
  stream_options.num_clusters = 5;
  stream_options.num_tuples = 10000;
  stream_options.cluster_spread = 1.5;
  stream_options.space_extent = 80.0;

  KMeansOptions kmeans;
  kmeans.num_clusters = 5;
  kmeans.num_shards = 8;
  kmeans.dimensions = 8;
  kmeans.space_extent = 80.0;
  kmeans.move_tolerance = 1e-3;

  JobConfig config;
  config.program = std::make_shared<KMeansProgram>(kmeans);
  config.router = KMeansProgram::MakeRouter(kmeans);
  config.delay_bound = 64;
  config.num_processors = 8;
  config.num_hosts = 4;
  config.ingest_rate = 10000.0;
  config.convergence.epsilon = 1e-3;
  config.convergence.window = 2;
  config.convergence.max_iterations = 300;

  TornadoCluster cluster(config,
                         std::make_unique<PointStream>(stream_options));
  cluster.Start();
  cluster.RunUntilEmitted(stream_options.num_tuples, 600.0);
  cluster.ingester().Pause();
  cluster.RunFor(0.5);

  // Submit the query, then kill a worker while the branch loop runs. An
  // undisturbed query converges in about 13 ms of virtual time, so the
  // crash lands 5 ms in.
  const double crash_after = 0.005;
  const uint64_t query = cluster.ingester().SubmitQuery();
  cluster.failures().CrashFor(cluster.processor_node(3),
                              cluster.now() + crash_after, /*downtime=*/0.8);
  std::printf("worker 3 will crash 5ms into the query and be down 0.8s\n");

  if (!cluster.RunUntilQueryDone(query, 600.0)) {
    std::fprintf(stderr, "query did not survive the crash\n");
    return 1;
  }
  const double latency = cluster.QueryLatency(query);
  if (latency <= crash_after) {
    std::fprintf(stderr,
                 "query converged in %.3fs, before the crash: the recovery "
                 "was not exercised\n",
                 latency);
    return 1;
  }
  std::printf("query converged despite the crash: latency %.3fs\n", latency);

  const LoopId branch = cluster.BranchOf(query);
  std::printf("converged centroids:\n");
  for (uint32_t k = 0; k < kmeans.num_clusters; ++k) {
    auto state = cluster.ReadVertexState(branch, KMeansCentroidVertex(k));
    if (state == nullptr) continue;
    const auto& centroid = static_cast<const KMeansCentroidState&>(*state);
    std::printf("  c%u = (", k);
    for (size_t d = 0; d < centroid.position.size(); ++d) {
      std::printf("%s%.2f", d > 0 ? ", " : "", centroid.position[d]);
    }
    std::printf(")\n");
  }

  // Persist the converged centroids to a real on-disk checkpoint log and
  // replay it into a fresh store — durability across *process* restarts.
  // The log goes in the working directory, so concurrent runs from
  // different directories never share it.
  const std::string path = "tornado_kmeans_checkpoint.log";
  std::remove(path.c_str());
  CheckpointLog log;
  if (!log.Open(path).ok()) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  for (uint32_t k = 0; k < kmeans.num_clusters; ++k) {
    const VersionView blob =
        cluster.store().GetLatest(branch, KMeansCentroidVertex(k));
    if (blob) {
      (void)log.Append(branch, KMeansCentroidVertex(k), 0, blob.data(),
                       blob.size());
    }
  }
  (void)log.Close();

  VersionedStore restored;
  CheckpointLog reader;
  auto applied = reader.Replay(path, &restored);
  std::remove(path.c_str());
  if (!applied.ok() || *applied != kmeans.num_clusters) {
    std::fprintf(stderr, "checkpoint log replay lost records\n");
    return 1;
  }
  std::printf("checkpoint log: %zu centroid records survive a restart\n",
              *applied);
  return 0;
}
