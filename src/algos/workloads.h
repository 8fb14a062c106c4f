#ifndef TORNADO_ALGOS_WORKLOADS_H_
#define TORNADO_ALGOS_WORKLOADS_H_

#include <cstdint>

#include "algos/sgd.h"
#include "core/config.h"
#include "stream/graph_stream.h"
#include "stream/instance_stream.h"
#include "stream/point_stream.h"

namespace tornado {

/// The paper workloads, defined once: the figure benches, perfbench and the
/// scenario runner all build their streams and jobs here.
///
/// Stream shapes: scaled-down stand-ins for the paper's datasets (Table 1);
/// DESIGN.md documents the substitution.
GraphStreamOptions BenchGraph(uint64_t tuples = 40000, uint64_t seed = 42);
PointStreamOptions BenchPoints(uint64_t tuples = 20000, uint64_t seed = 7);
InstanceStreamOptions BenchDense(uint64_t tuples = 20000, uint64_t seed = 13);
InstanceStreamOptions BenchSparse(uint64_t tuples = 20000, uint64_t seed = 13);

inline constexpr VertexId kBenchSsspSource = 0;

/// Jobs wired to those streams, on the benches' 8-processor, 4-host
/// cluster. A job's program, router and convergence policy are the
/// workload; `num_shards` (KMeans, SGD) is the data-shard count, one per
/// processor.
JobConfig SsspJob(uint64_t delay_bound, bool batch_mode = false);
JobConfig PageRankJob(uint64_t delay_bound);
JobConfig KMeansJob(uint64_t delay_bound, uint32_t num_shards = 8);
JobConfig SgdJob(SgdLoss loss, uint64_t delay_bound, double descent_rate,
                 DescentSchedule schedule = DescentSchedule::kStatic,
                 bool batch_mode = false, double sample_ratio = 0.01,
                 uint32_t num_shards = 8);

}  // namespace tornado

#endif  // TORNADO_ALGOS_WORKLOADS_H_
