#include "wrappers.h"

namespace perfbench {
namespace {

using tornado::BatchVertexProgram;
using tornado::BufferReader;
using tornado::Delta;
using tornado::Iteration;
using tornado::VertexContext;
using tornado::VertexId;
using tornado::VertexProgram;
using tornado::VertexState;
using tornado::VertexUpdate;

/// Forwards every VertexProgram call to `inner_`, timing the callbacks the
/// engine makes per vertex. `Base` is VertexProgram or BatchVertexProgram,
/// so AsBatch() keeps the wrapped program's answer.
template <class Base>
class TimedProgram : public Base {
 public:
  TimedProgram(std::shared_ptr<const VertexProgram> inner, Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  std::unique_ptr<VertexState> CreateState(VertexId id) const override {
    return TimeLeaf(tracer_, Layer::kAlgosState,
                    [&]() { return inner_->CreateState(id); });
  }
  std::unique_ptr<VertexState> DeserializeState(
      BufferReader* reader) const override {
    return TimeLeaf(tracer_, Layer::kAlgosState,
                    [&]() { return inner_->DeserializeState(reader); });
  }
  bool OnInput(VertexContext& ctx, const Delta& delta) const override {
    return TimeLeaf(tracer_, Layer::kAlgosInput,
                    [&]() { return inner_->OnInput(ctx, delta); });
  }
  bool OnUpdate(VertexContext& ctx, VertexId source, Iteration iteration,
                const VertexUpdate& update) const override {
    return TimeLeaf(tracer_, Layer::kAlgosUpdate, [&]() {
      return inner_->OnUpdate(ctx, source, iteration, update);
    });
  }
  void Scatter(VertexContext& ctx) const override {
    TimeLeaf(tracer_, Layer::kAlgosScatter, [&]() { inner_->Scatter(ctx); });
  }
  void OnRestore(VertexState* state) const override {
    inner_->OnRestore(state);
  }
  bool ActivateOnFork(const VertexState& state) const override {
    return inner_->ActivateOnFork(state);
  }
  double GatherCost() const override { return inner_->GatherCost(); }
  double ScatterCost() const override { return inner_->ScatterCost(); }

 protected:
  std::shared_ptr<const VertexProgram> inner_;
  Tracer* tracer_;
};

class TimedBatchProgram final : public TimedProgram<BatchVertexProgram> {
 public:
  using TimedProgram::TimedProgram;

  bool OnUpdateBatch(VertexContext& ctx, const QueuedUpdate* items, size_t n,
                     double per_item_cost) const override {
    return TimeLeaf(tracer_, Layer::kAlgosUpdate, [&]() {
      return inner_->AsBatch()->OnUpdateBatch(ctx, items, n, per_item_cost);
    });
  }
};

}  // namespace

std::shared_ptr<const VertexProgram> WrapProgram(
    std::shared_ptr<const VertexProgram> inner, Tracer* tracer) {
  if (inner->AsBatch() != nullptr) {
    return std::make_shared<TimedBatchProgram>(std::move(inner), tracer);
  }
  return std::make_shared<TimedProgram<VertexProgram>>(std::move(inner),
                                                       tracer);
}

void EngineCounter::OnBlock(tornado::LoopId loop, tornado::LoopEpoch epoch,
                            tornado::VertexId vertex,
                            tornado::Iteration iteration) {
  ++blocked;
  open_blocks_[BlockKey{loop, epoch, vertex, iteration}].push_back(
      clock_->now());
}

void EngineCounter::OnUnblocked(tornado::LoopId loop, tornado::LoopEpoch epoch,
                                tornado::VertexId vertex,
                                tornado::Iteration iteration) {
  auto it = open_blocks_.find(BlockKey{loop, epoch, vertex, iteration});
  if (it == open_blocks_.end()) return;
  blocked_vs += clock_->now() - it->second.front();
  it->second.erase(it->second.begin());
  if (it->second.empty()) open_blocks_.erase(it);
}

std::map<std::string, uint64_t> NetCounter::SendsByType() const {
  std::map<std::string, uint64_t> out;
  for (const auto& [name, count] : by_name_ptr_) out[name] += count;
  return out;
}

}  // namespace perfbench
