#ifndef TORNADO_CORE_CLUSTER_H_
#define TORNADO_CORE_CLUSTER_H_

#include <functional>
#include <memory>
#include <vector>

#include "check/invariant_checker.h"
#include "core/config.h"
#include "core/ingester.h"
#include "core/master.h"
#include "core/processor.h"
#include "engine/metrics_observer.h"
#include "engine/observer.h"
#include "runtime/substrate.h"
#include "sim/failure_injector.h"
#include "storage/versioned_store.h"
#include "stream/stream_source.h"

namespace tornado {

class TraceRecorder;
class TraceObserver;
class TimeSeriesSampler;

/// The public entry point of the library: assembles a complete Tornado
/// deployment (ingester + processors + master + shared versioned store)
/// for one job on the configured runtime substrate — the deterministic
/// simulation by default, or real threads (JobConfig::backend, see
/// docs/RUNTIME.md) — and provides driving and result-reading helpers
/// for applications and benchmarks.
///
/// Typical use:
///
///   JobConfig config;
///   config.program = std::make_shared<SsspProgram>(source_vertex);
///   TornadoCluster cluster(config, std::make_unique<GraphStream>(opts));
///   cluster.Start();
///   cluster.RunUntilEmitted(100000, /*timeout=*/600.0);
///   uint64_t q = cluster.ingester().SubmitQuery();
///   cluster.RunUntilQueryDone(q, /*timeout=*/600.0);
///   auto state = cluster.ReadVertexState(cluster.BranchOf(q), vertex);
class TornadoCluster {
 public:
  TornadoCluster(JobConfig config, std::unique_ptr<StreamSource> source);
  ~TornadoCluster();

  TornadoCluster(const TornadoCluster&) = delete;
  TornadoCluster& operator=(const TornadoCluster&) = delete;

  /// Starts the processors' report timers and the ingester.
  void Start();

  // --- Driving the virtual clock. ---

  /// Runs until `pred()` holds, checking every `check_every` virtual
  /// seconds, up to `timeout`. Returns whether the predicate held.
  bool RunUntil(const std::function<bool()>& pred, double timeout,
                double check_every = 0.01);

  /// Runs until the ingester has emitted at least `count` tuples.
  bool RunUntilEmitted(uint64_t count, double timeout);

  /// Runs until the query's branch loop converges.
  bool RunUntilQueryDone(uint64_t query_id, double timeout);

  /// Runs the clock forward by `seconds` of virtual time.
  void RunFor(double seconds);

  // --- Results. ---

  /// Branch loop id of a completed query (0 if unknown/unfinished).
  LoopId BranchOf(uint64_t query_id) const;

  /// Latency of a completed query in virtual seconds (-1 if unfinished).
  double QueryLatency(uint64_t query_id) const;

  /// Reads and deserializes the newest state of `vertex` in `loop` from
  /// the store (nullptr if absent).
  std::unique_ptr<VertexState> ReadVertexState(LoopId loop,
                                               VertexId vertex) const;

  /// Same, but the snapshot-consistent version at `iteration`.
  std::unique_ptr<VertexState> ReadVertexStateAt(LoopId loop, VertexId vertex,
                                                 Iteration iteration) const;

  // --- Component access. ---
  Substrate& substrate() { return *substrate_; }
  Transport& transport() { return *substrate_->transport(); }
  Scheduler* scheduler() { return substrate_->scheduler(); }
  MetricRegistry& metrics() { return substrate_->transport()->metrics(); }
  double now() const { return substrate_->clock()->now(); }
  VersionedStore& store() { return store_; }
  Master& master() { return *master_; }
  Ingester& ingester() { return *ingester_; }
  Processor& processor(uint32_t index) { return *processors_[index]; }
  FailureInjector& failures() { return *failures_; }
  const JobConfig& config() const { return config_; }

  /// NodeIds for failure injection.
  NodeId processor_node(uint32_t index) const { return index; }
  NodeId master_node() const { return config_.num_processors; }
  NodeId ingester_node() const { return config_.num_processors + 1; }

  /// Subscribes an extra observer to every processor's engine events
  /// (debug probes, benches). The observer must outlive the cluster; call
  /// before any traffic flows to see all events.
  void AddEngineObserver(EngineObserver* observer) {
    engine_observers_.Add(observer);
  }

  /// The auto-attached invariant checker (nullptr unless the build has
  /// -DTORNADO_CHECK=ON).
  CheckObserver* check_observer() { return check_observer_.get(); }

  /// Attaches the causal trace subsystem (docs/OBSERVABILITY.md): a
  /// TraceRecorder fed by engine, network, and master hooks, plus a
  /// TimeSeriesSampler snapshotting cluster health every few virtual
  /// milliseconds. Idempotent; always resumes a paused recorder (the
  /// -DTORNADO_TRACE=ON auto-attach starts paused). Call before Start()
  /// to capture the whole run. Returns the recorder.
  ///
  /// `max_events` caps the recorder (0 = the recorder's default); pass a
  /// larger value when the run must not drop any event. Only the first
  /// call sizes the recorder; later calls just resume it.
  TraceRecorder* EnableTracing(size_t max_events = 0);

  /// The attached trace recorder (nullptr until EnableTracing, unless
  /// the build has -DTORNADO_TRACE=ON).
  TraceRecorder* trace() { return trace_recorder_.get(); }

  /// The attached progress sampler (nullptr until EnableTracing).
  TimeSeriesSampler* sampler() { return trace_sampler_.get(); }

  /// Runs the checker's structural pass over every processor's sessions.
  /// No-op when no checker is attached. Call between dispatches only
  /// (e.g. after RunUntil returns).
  void DeepCheckInvariants();

 private:
  JobConfig config_;
  // Destroyed last (declared first): Shutdown() in the destructor joins
  // any worker threads before the nodes below are torn down.
  std::unique_ptr<Substrate> substrate_;
  VersionedStore store_;
  EngineObserverList engine_observers_;
  std::unique_ptr<MetricsEngineObserver> metrics_observer_;
  std::unique_ptr<CheckObserver> check_observer_;
  // Declaration order matters: the observer and sampler hold raw pointers
  // into the recorder, so the recorder must be destroyed last of the three.
  std::unique_ptr<TraceRecorder> trace_recorder_;
  std::unique_ptr<TraceObserver> trace_observer_;
  std::unique_ptr<TimeSeriesSampler> trace_sampler_;
  std::vector<std::unique_ptr<Processor>> processors_;
  std::unique_ptr<Master> master_;
  std::unique_ptr<Ingester> ingester_;
  std::unique_ptr<FailureInjector> failures_;
};

}  // namespace tornado

#endif  // TORNADO_CORE_CLUSTER_H_
