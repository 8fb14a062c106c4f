#ifndef TORNADO_CORE_PROCESSOR_H_
#define TORNADO_CORE_PROCESSOR_H_

#include <memory>

#include "core/config.h"
#include "core/messages.h"
#include "engine/observer.h"
#include "engine/protocol.h"
#include "engine/session_table.h"
#include "graph/dynamic_graph.h"
#include "runtime/substrate.h"
#include "storage/versioned_store.h"

namespace tornado {

/// A worker node of the simulated Tornado cluster.
///
/// Thin transport adapter over the engine layer (Section 5.1): the
/// SessionTable owns this partition's per-(loop, vertex) sessions and the
/// ProtocolStateMachine runs the three-phase update protocol under the
/// job's delay bound. This class only binds them to the event loop — it
/// routes delivered messages into the state machine, transmits the
/// actions it returns (resolving vertex ids to owning nodes), charges the
/// accumulated virtual CPU cost, and drives the periodic progress-report
/// timer.
class Processor : public Node {
 public:
  Processor(uint32_t index, const JobConfig* config, VersionedStore* store,
            HashPartitioner partitioner, NodeId master_node,
            NodeId first_processor_node,
            EngineObserver* observer = nullptr);

  void OnMessage(NodeId src, const Payload& msg) override;
  void OnRestart() override;

  /// Begins the periodic progress-report timer. Called once by the cluster.
  void Start();

  uint32_t index() const { return index_; }
  ProtocolStateMachine& engine() { return machine_; }
  const SessionTable& sessions() const { return sessions_; }

 private:
  /// Transmits the queued messages (in order) and charges the cost.
  void Execute(EngineActions& actions);

  NodeId NodeOfVertex(VertexId v) const {
    return first_processor_node_ + partitioner_.PartitionOf(v);
  }
  void SendProgressReports();

  uint32_t index_;
  const JobConfig* config_;
  HashPartitioner partitioner_;
  NodeId master_node_;
  NodeId first_processor_node_;
  SessionTable sessions_;
  ProtocolStateMachine machine_;
  bool started_ = false;
  bool announce_restart_ = false;
};

}  // namespace tornado

#endif  // TORNADO_CORE_PROCESSOR_H_
