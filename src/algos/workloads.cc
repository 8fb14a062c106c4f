#include "algos/workloads.h"

#include <memory>

#include "algos/kmeans.h"
#include "algos/pagerank.h"
#include "algos/sssp.h"

namespace tornado {

GraphStreamOptions BenchGraph(uint64_t tuples, uint64_t seed) {
  GraphStreamOptions options;
  options.num_vertices = tuples / 4;
  options.num_tuples = tuples;
  options.preferential = 0.6;
  options.deletion_ratio = 0.04;
  options.source_hub_weight = 40;  // vertex 0 is the SSSP source
  options.seed = seed;
  return options;
}

PointStreamOptions BenchPoints(uint64_t tuples, uint64_t seed) {
  PointStreamOptions options;
  options.dimensions = 20;
  options.num_clusters = 10;
  options.num_tuples = tuples;
  options.cluster_spread = 2.0;
  options.space_extent = 100.0;
  options.seed = seed;
  return options;
}

InstanceStreamOptions BenchDense(uint64_t tuples, uint64_t seed) {
  InstanceStreamOptions options;
  options.dimensions = 28;  // HIGGS-like
  options.num_tuples = tuples;
  options.label_noise = 0.05;
  options.concept_drift = 1e-4;
  options.seed = seed;
  return options;
}

InstanceStreamOptions BenchSparse(uint64_t tuples, uint64_t seed) {
  InstanceStreamOptions options;
  options.dimensions = 400;  // PubMed-like bag-of-words, scaled down
  options.num_tuples = tuples;
  options.sparse = true;
  options.sparsity_nnz = 40;
  options.zipf_exponent = 1.1;
  options.label_noise = 0.05;
  options.concept_drift = 1e-4;
  options.seed = seed;
  return options;
}

namespace {
JobConfig BaseConfig(uint64_t delay_bound) {
  JobConfig config;
  config.delay_bound = delay_bound;
  config.num_processors = 8;
  config.num_hosts = 4;
  config.ingest_rate = 10000.0;
  config.ingest_batch = 10;
  config.seed = 1;
  return config;
}
}  // namespace

JobConfig SsspJob(uint64_t delay_bound, bool batch_mode) {
  JobConfig config = BaseConfig(delay_bound);
  config.program =
      std::make_shared<SsspProgram>(kBenchSsspSource, batch_mode);
  return config;
}

JobConfig PageRankJob(uint64_t delay_bound) {
  JobConfig config = BaseConfig(delay_bound);
  config.program = std::make_shared<PageRankProgram>(0.85, 1e-3);
  return config;
}

JobConfig KMeansJob(uint64_t delay_bound, uint32_t num_shards) {
  JobConfig config = BaseConfig(delay_bound);
  KMeansOptions kmeans;
  kmeans.num_clusters = 10;
  kmeans.num_shards = num_shards;
  kmeans.dimensions = 20;
  kmeans.move_tolerance = 1e-2;
  config.program = std::make_shared<KMeansProgram>(kmeans);
  config.router = KMeansProgram::MakeRouter(kmeans);
  config.convergence.epsilon = 1e-2;
  config.convergence.window = 2;
  config.convergence.max_iterations = 400;
  return config;
}

JobConfig SgdJob(SgdLoss loss, uint64_t delay_bound, double descent_rate,
                 DescentSchedule schedule, bool batch_mode,
                 double sample_ratio, uint32_t num_shards) {
  JobConfig config = BaseConfig(delay_bound);
  SgdOptions sgd;
  sgd.loss = loss;
  sgd.num_shards = num_shards;
  sgd.dimensions = loss == SgdLoss::kSvmHinge ? 28 : 400;
  sgd.sample_ratio = sample_ratio;
  sgd.reservoir_capacity = 1500;
  sgd.schedule = schedule;
  sgd.descent_rate = descent_rate;
  sgd.batch_mode = batch_mode;
  config.program = std::make_shared<SgdProgram>(sgd);
  config.router = SgdProgram::MakeRouter(sgd);
  config.convergence.quiescence = true;
  config.convergence.epsilon = 1e-4;
  config.convergence.window = 4;
  config.convergence.max_iterations = 3000;
  return config;
}

}  // namespace tornado
