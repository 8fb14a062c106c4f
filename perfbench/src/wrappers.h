#ifndef PERFBENCH_WRAPPERS_H_
#define PERFBENCH_WRAPPERS_H_

// Wrappers around the public extension points of the library. They time
// and count each call from outside the program and otherwise forward it
// unchanged, so a traced run simulates exactly what an untraced run does.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/vertex_program.h"
#include "engine/observer.h"
#include "runtime/substrate.h"
#include "stream/stream_source.h"
#include "trace.h"

namespace perfbench {

/// Returns a program that forwards every call to `inner` and times
/// OnInput, OnUpdate(Batch), Scatter, CreateState and DeserializeState as
/// algos.* leaf spans. AsBatch() is non-null exactly when it is on `inner`.
std::shared_ptr<const tornado::VertexProgram> WrapProgram(
    std::shared_ptr<const tornado::VertexProgram> inner, Tracer* tracer);

/// A stream source whose Next() is timed as a stream.next leaf span.
class TimedStream final : public tornado::StreamSource {
 public:
  TimedStream(std::unique_ptr<tornado::StreamSource> inner, Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  std::optional<tornado::StreamTuple> Next() override {
    return TimeLeaf(tracer_, Layer::kStreamNext,
                    [this]() { return inner_->Next(); });
  }
  size_t TotalTuples() const override { return inner_->TotalTuples(); }
  size_t Emitted() const override { return inner_->Emitted(); }

 private:
  std::unique_ptr<tornado::StreamSource> inner_;
  Tracer* tracer_;
};

/// Counts protocol events, and the virtual time updates spend blocked at
/// the delay bound.
class EngineCounter final : public tornado::EngineObserver {
 public:
  explicit EngineCounter(const tornado::Clock* clock) : clock_(clock) {}

  void OnInputGathered(tornado::LoopId, tornado::VertexId) override {
    ++inputs;
  }
  void OnPrepare(tornado::LoopId, tornado::LoopEpoch, tornado::VertexId,
                 uint64_t) override {
    ++prepares;
  }
  void OnAck(tornado::LoopId, tornado::LoopEpoch, tornado::VertexId,
             tornado::VertexId, tornado::Iteration) override {
    ++acks;
  }
  void OnCommit(tornado::LoopId, tornado::LoopEpoch, tornado::VertexId,
                tornado::Iteration, tornado::Iteration,
                tornado::Iteration) override {
    ++commits;
  }
  void OnBlock(tornado::LoopId loop, tornado::LoopEpoch epoch,
               tornado::VertexId vertex, tornado::Iteration iteration) override;
  void OnUnblocked(tornado::LoopId loop, tornado::LoopEpoch epoch,
                   tornado::VertexId vertex,
                   tornado::Iteration iteration) override;
  void OnFlush(tornado::LoopId, uint64_t versions) override {
    flushed_versions += versions;
  }
  void OnTerminated(tornado::LoopId, tornado::LoopEpoch, uint32_t,
                    tornado::Iteration) override {
    ++terminations;
  }

  uint64_t inputs = 0, prepares = 0, acks = 0, commits = 0, blocked = 0,
           flushed_versions = 0, terminations = 0;
  double blocked_vs = 0.0;

 private:
  struct BlockKey {
    tornado::LoopId loop;
    tornado::LoopEpoch epoch;
    tornado::VertexId vertex;
    tornado::Iteration iteration;
    auto operator<=>(const BlockKey&) const = default;
  };

  const tornado::Clock* clock_;
  // Open blocks per key, as their start times (first blocked first out).
  std::map<BlockKey, std::vector<double>> open_blocks_;
};

/// Counts logical sends per payload type.
class NetCounter final : public tornado::TransportObserver {
 public:
  void OnSend(tornado::NodeId, tornado::NodeId,
              const tornado::Payload& payload) override {
    ++by_name_ptr_[payload.name()];
  }

  /// Sends per payload type name.
  std::map<std::string, uint64_t> SendsByType() const;

 private:
  // Keyed by the name's address: names are string literals, so this is a
  // cheap exact key; SendsByType merges equal names.
  std::unordered_map<const char*, uint64_t> by_name_ptr_;
};

}  // namespace perfbench

#endif  // PERFBENCH_WRAPPERS_H_
