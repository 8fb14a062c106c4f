#ifndef TORNADO_CORE_CONFIG_H_
#define TORNADO_CORE_CONFIG_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/types.h"
#include "core/vertex_program.h"
#include "sim/cost_model.h"
#include "stream/tuple.h"

namespace tornado {

/// When the master declares a (branch) loop converged. The main loop never
/// converges: it adapts forever (Section 3.3).
struct ConvergencePolicy {
  /// Converge when an iteration terminates with zero committed updates and
  /// no updates blocked at the delay bound (general fixed-point detection,
  /// Section 4.3: "a loop can converge when no updates are performed in an
  /// iteration").
  bool quiescence = true;

  /// If >= 0, additionally converge when the summed progress metric of
  /// `window` consecutive terminated iterations stays <= epsilon (used by
  /// the SGD workloads whose updates never become exactly zero).
  double epsilon = -1.0;
  uint32_t window = 3;

  /// Safety valve: converge unconditionally after this many terminated
  /// iterations (0 = unlimited).
  Iteration max_iterations = 0;
};

/// Routes one external stream tuple to the vertices that gather it.
/// The default (set by TornadoCluster) sends an EdgeDelta to its source
/// vertex; workloads with non-graph inputs (points, instances) install
/// their own routing. Routers must be stateless (a JobConfig may be
/// reused across clusters); one-time topology bootstrapping should key
/// off tuple.sequence == 0.
using InputRouter =
    std::function<void(const StreamTuple& tuple,
                       std::vector<std::pair<VertexId, Delta>>* out)>;

/// Which runtime substrate the cluster runs on (docs/RUNTIME.md).
enum class SubstrateBackend {
  /// Discrete-event simulation: virtual clock, deterministic, the
  /// correctness oracle. Failure injection supported.
  kSim,
  /// Real threads: one service thread per node, steady-clock time,
  /// honest wall-clock numbers. No failure injection or tracing.
  kThread,
};

/// Static description of a Tornado job.
struct JobConfig {
  /// The graph-parallel program (shared by main and branch loops).
  std::shared_ptr<const VertexProgram> program;

  /// Input routing; defaults to EdgeDelta -> source vertex.
  InputRouter router;

  /// Delay bound B of the bounded asynchronous iteration model
  /// (Section 4.4), the one consistency setting: B = 1 degenerates to
  /// synchronous execution, Table 2's "unbounded" row is B = 65536, and
  /// B = 0 means 1 (engine/consistency_policy.h).
  uint64_t delay_bound = 64;

  /// Convergence policy applied to branch loops.
  ConvergencePolicy convergence;

  /// Cluster shape: worker processors spread over physical hosts.
  uint32_t num_processors = 8;
  uint32_t num_hosts = 4;

  /// Optional per-processor relative speed factors (stragglers). Missing
  /// entries default to 1.0.
  std::vector<double> processor_speeds;

  /// Ingestion pacing: tuples per virtual second, emitted in batches.
  double ingest_rate = 200000.0;
  uint32_t ingest_batch = 20;

  /// Merge converged branch results back into the main loop when no input
  /// arrived during the branch's execution (Section 5.2).
  bool merge_branches = false;

  /// Branch-loop admission control (Section 5.2 forks "if there are
  /// sufficient idle processors"; Section 8 lists branch load shedding as
  /// future work). At most this many branch loops run concurrently;
  /// further queries queue at the master and fork — against a fresh, more
  /// recent snapshot — as slots free up. 0 = unlimited.
  uint32_t max_concurrent_branches = 0;

  /// Virtual-time cost parameters of the simulated cluster.
  CostModel cost;

  /// Seed for all engine-internal randomness.
  uint64_t seed = 1;

  /// Runtime substrate the cluster is assembled on. The sim backend is
  /// deterministic; `cost` is ignored by the thread backend (real CPUs
  /// are not modeled).
  SubstrateBackend backend = SubstrateBackend::kSim;
};

}  // namespace tornado

#endif  // TORNADO_CORE_CONFIG_H_
