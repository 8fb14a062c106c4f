#include "core/processor.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "common/ordered.h"

namespace tornado {

Processor::Processor(uint32_t index, const JobConfig* config,
                     VersionedStore* store, HashPartitioner partitioner,
                     NodeId master_node, NodeId first_processor_node,
                     EngineObserver* observer)
    : index_(index),
      config_(config),
      partitioner_(partitioner),
      master_node_(master_node),
      first_processor_node_(first_processor_node),
      sessions_(config, store),
      machine_(index, config, &sessions_, partitioner, observer) {}

void Processor::Start() {
  if (started_) return;
  started_ = true;
  // Materialize the main loop eagerly: the master needs a progress report
  // from every processor — including ones whose partition has no vertices
  // yet — before it can terminate an iteration.
  machine_.EnsureMainLoop();
  auto hello = std::make_shared<ProcessorHelloMsg>();
  hello->processor = index_;
  hello->restarted = announce_restart_;
  announce_restart_ = false;
  Send(master_node_, hello);
  // Stagger report phases so the master is not hit by synchronized bursts.
  const double phase = config_->cost.progress_period *
                       (static_cast<double>(index_) /
                        std::max<uint32_t>(1, config_->num_processors));
  ScheduleSelf(config_->cost.progress_period + phase,
               [this]() { SendProgressReports(); });
}

void Processor::OnRestart() {
  // The worker process was restarted by the supervisor: all in-memory
  // session state is gone (Section 5.3). Announce the restart; the master
  // rolls every active loop back to its last terminated iteration.
  machine_.Reset();
  started_ = false;
  announce_restart_ = true;
  Start();
}

void Processor::Execute(EngineActions& actions) {
  for (EngineActions::Outbound& o : actions.messages) {
    if (o.to_master) {
      Send(master_node_, std::move(o.payload));
    } else {
      Send(NodeOfVertex(o.dst_vertex), std::move(o.payload));
    }
  }
  if (actions.cost != 0.0) AddCost(actions.cost);
  actions.Clear();
}

void Processor::OnMessage(NodeId src, const Payload& msg) {
  (void)src;
  EngineActions actions;
  if (machine_.Dispatch(msg, &actions)) {
    Execute(actions);
    return;
  }
  if (dynamic_cast<const MasterHelloMsg*>(&msg) != nullptr) {
    SendProgressReports();
    return;
  }
  TLOG_WARN << "processor " << index_ << ": unknown message " << msg.name();
}

void Processor::SendProgressReports() {
  EngineActions actions;
  // Ordered walk: report emission order feeds the network (DET-003).
  ForEachOrdered(sessions_.loops(), [&](LoopId, LoopState& ls) {
    machine_.BuildReport(ls, &actions);
  });
  Execute(actions);
  ScheduleSelf(config_->cost.progress_period,
               [this]() { SendProgressReports(); });
}

}  // namespace tornado
