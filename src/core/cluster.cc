#include "core/cluster.h"

#include <algorithm>
#include <string>

#include "common/logging.h"
#include "common/serde.h"
#include "runtime/sim_substrate.h"
#include "runtime/thread_substrate.h"
#include "trace/time_series.h"
#include "trace/trace_observer.h"
#include "trace/trace_recorder.h"

namespace tornado {

TornadoCluster::TornadoCluster(JobConfig config,
                               std::unique_ptr<StreamSource> source)
    : config_(std::move(config)) {
  TCHECK(config_.program != nullptr) << "JobConfig.program is required";
  TCHECK_GE(config_.num_processors, 1u);
  TCHECK_GE(config_.num_hosts, 1u);
  TCHECK_GE(config_.delay_bound, 1u);

  if (config_.backend == SubstrateBackend::kThread) {
    substrate_ = std::make_unique<ThreadSubstrate>(config_.seed);
    // Node service threads and the driver touch the shared store
    // concurrently; flip it into locked mode before any traffic.
    store_.SetThreadSafe(true);
  } else {
    substrate_ = std::make_unique<SimSubstrate>(config_.cost, config_.seed);
  }
  Transport* transport = substrate_->transport();
  failures_ =
      std::make_unique<FailureInjector>(substrate_->scheduler(), transport);

  // Engine accounting flows through the observer list; the metrics bridge
  // is the first (always-on) subscriber.
  metrics_observer_ =
      std::make_unique<MetricsEngineObserver>(&transport->metrics());
  engine_observers_.Add(metrics_observer_.get());
  store_.AttachMetrics(&transport->metrics());

#ifdef TORNADO_CHECK
  // Checked builds shadow the protocol with the invariant checker; any
  // violation aborts the process with a structured dump (docs/CHECKS.md).
  check_observer_ = std::make_unique<CheckObserver>(
      CheckObserver::Options{/*abort_on_violation=*/true, &store_});
  engine_observers_.Add(check_observer_.get());
#endif

  const HashPartitioner partitioner(config_.num_processors);
  const NodeId master_id = config_.num_processors;

  // Node ids: [0, P) processors, P master, P+1 ingester. Worker threads
  // share the configured hosts; the master and ingester get hosts of their
  // own (the paper's master is a dedicated coordinator).
  for (uint32_t p = 0; p < config_.num_processors; ++p) {
    const double speed = p < config_.processor_speeds.size()
                             ? config_.processor_speeds[p]
                             : 1.0;
    auto proc = std::make_unique<Processor>(p, &config_, &store_, partitioner,
                                            master_id, /*first_processor=*/0,
                                            &engine_observers_);
    transport->RegisterNode(proc.get(), /*host=*/p % config_.num_hosts, speed);
    processors_.push_back(std::move(proc));
  }

  master_ = std::make_unique<Master>(&config_, &store_, /*first_processor=*/0,
                                     /*ingester=*/master_id + 1);
  transport->RegisterNode(master_.get(), /*host=*/config_.num_hosts);

  ingester_ = std::make_unique<Ingester>(&config_, std::move(source),
                                         partitioner, /*first_processor=*/0,
                                         master_id);
  transport->RegisterNode(ingester_.get(), /*host=*/config_.num_hosts + 1);

#ifdef TORNADO_TRACE
  // Traced builds wire the recorder into every sim cluster but keep it
  // paused so the ordinary test suite does not accumulate events; callers
  // (and the fig 8c/8d failure benches) resume it via EnableTracing().
  if (config_.backend != SubstrateBackend::kThread) {
    EnableTracing();
    trace_recorder_->Pause();
  }
#endif
}

TornadoCluster::~TornadoCluster() {
  // Joins worker threads (thread backend) before the node members below
  // this line in the class are destroyed; no-op on the sim backend.
  substrate_->Shutdown();
}

TraceRecorder* TornadoCluster::EnableTracing(size_t max_events) {
  if (trace_recorder_ != nullptr) {
    trace_recorder_->Resume();
    return trace_recorder_.get();
  }
  if (config_.backend == SubstrateBackend::kThread) {
    // Probes read live session tables without locks; tracing stays a
    // sim-backend facility.
    TLOG_WARN << "tracing is unsupported on the " << substrate_->name()
              << " substrate; EnableTracing ignored";
    return nullptr;
  }
  trace_recorder_ = std::make_unique<TraceRecorder>(
      substrate_->clock(),
      max_events == 0 ? TraceRecorder::kDefaultMaxEvents : max_events);

  // Track layout mirrors the node ids; one extra pseudo-track carries the
  // cluster-wide sampler counters and events without an owning node.
  const uint32_t cluster_track = config_.num_processors + 2;
  for (uint32_t p = 0; p < config_.num_processors; ++p) {
    trace_recorder_->SetTrackName(p, "processor " + std::to_string(p));
  }
  trace_recorder_->SetTrackName(master_node(), "master");
  trace_recorder_->SetTrackName(ingester_node(), "ingester");
  trace_recorder_->SetTrackName(cluster_track, "cluster");

  trace_observer_ = std::make_unique<TraceObserver>(
      trace_recorder_.get(), HashPartitioner(config_.num_processors),
      /*fallback_track=*/cluster_track, &substrate_->transport()->metrics());
  engine_observers_.Add(trace_observer_.get());
  substrate_->transport()->set_observer(trace_observer_.get());
  master_->set_trace(trace_recorder_.get());

  trace_sampler_ = std::make_unique<TimeSeriesSampler>(
      substrate_->scheduler(), /*period=*/0.05);
  trace_sampler_->AddProbe("commit_watermark", [this]() {
    const Iteration t = master_->LastTerminated(kMainLoop);
    return t == kNoIteration ? 0.0 : static_cast<double>(t);
  });
  trace_sampler_->AddProbe("staleness_spread", [this]() {
    // Widest lead of any committed vertex over its loop's watermark: how
    // far ahead the bound lets the fastest partition run (Section 4.4).
    double spread = 0.0;
    for (const auto& proc : processors_) {
      const LoopState* ls = proc->sessions().Get(kMainLoop);
      if (ls == nullptr) continue;
      for (auto it = ls->vertices.begin(); it != ls->vertices.end(); ++it) {
        const VertexSession& s = it->second;
        if (s.last_commit == kNoIteration || s.last_commit < ls->tau) {
          continue;
        }
        spread =
            std::max(spread, static_cast<double>(s.last_commit - ls->tau));
      }
    }
    return spread;
  });
  trace_sampler_->AddProbe("queue_depth", [this]() {
    // Updates the session tables are sitting on: bound-blocked buffers
    // plus inputs deferred behind an open prepare.
    double depth = 0.0;
    for (const auto& proc : processors_) {
      const LoopState* ls = proc->sessions().Get(kMainLoop);
      if (ls == nullptr) continue;
      for (auto it = ls->blocked.begin(); it != ls->blocked.end(); ++it) {
        depth += static_cast<double>(it->second.size());
      }
      for (auto it = ls->vertices.begin(); it != ls->vertices.end(); ++it) {
        depth += static_cast<double>(it->second.pending_inputs.size());
      }
    }
    return depth;
  });
  trace_sampler_->AddProbe("in_flight_messages", [this]() {
    return static_cast<double>(substrate_->transport()->InFlightCount());
  });
  trace_sampler_->set_recorder(trace_recorder_.get(), cluster_track);
  trace_sampler_->Start();
  return trace_recorder_.get();
}

void TornadoCluster::DeepCheckInvariants() {
  if (check_observer_ == nullptr) return;
  for (auto& proc : processors_) {
    check_observer_->DeepCheck(proc->sessions());
  }
}

void TornadoCluster::Start() {
  for (auto& proc : processors_) proc->Start();
  ingester_->Start();
  // Thread backend: releases the node service threads only now, so the
  // Start() calls above ran race-free. No-op on the sim backend.
  substrate_->Start();
}

bool TornadoCluster::RunUntil(const std::function<bool()>& pred,
                              double timeout, double check_every) {
  return substrate_->RunUntil(pred, timeout, check_every);
}

bool TornadoCluster::RunUntilEmitted(uint64_t count, double timeout) {
  return RunUntil([&]() { return ingester_->emitted() >= count; }, timeout);
}

bool TornadoCluster::RunUntilQueryDone(uint64_t query_id, double timeout) {
  return RunUntil(
      [&]() { return ingester_->FindCompleted(query_id).has_value(); },
      timeout);
}

void TornadoCluster::RunFor(double seconds) { substrate_->RunFor(seconds); }

LoopId TornadoCluster::BranchOf(uint64_t query_id) const {
  const std::optional<CompletedQuery> q = ingester_->FindCompleted(query_id);
  return q.has_value() ? q->branch : 0;
}

double TornadoCluster::QueryLatency(uint64_t query_id) const {
  const std::optional<CompletedQuery> q = ingester_->FindCompleted(query_id);
  return q.has_value() ? q->Latency() : -1.0;
}

std::unique_ptr<VertexState> TornadoCluster::ReadVertexStateAt(
    LoopId loop, VertexId vertex, Iteration iteration) const {
  // The guard spans the view's lifetime: a VersionView is only valid
  // until the store's next mutation, which on the thread backend can
  // come from any node thread.
  const VersionedStore::Guard guard = store_.Lock();
  const VersionView blob = store_.Get(loop, vertex, iteration);
  if (!blob) return nullptr;
  BufferReader reader(blob.data(), blob.size());
  std::unique_ptr<VertexState> state =
      config_.program->DeserializeState(&reader);
  if (blob.input() != nullptr) {
    BufferReader input(*blob.input());
    state->DeserializeInput(&input);
  }
  return state;
}

std::unique_ptr<VertexState> TornadoCluster::ReadVertexState(
    LoopId loop, VertexId vertex) const {
  return ReadVertexStateAt(loop, vertex, kNoIteration - 1);
}

}  // namespace tornado
