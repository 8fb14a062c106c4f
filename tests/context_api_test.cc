// Guard-rail tests: the engine must reject programs that misuse the
// vertex context (emissions outside Scatter, graph mutations outside
// input gathering, self-dependencies, input-part changes outside OnInput),
// failing fast instead of corrupting protocol state.

#include <gtest/gtest.h>

#include <memory>

#include "core/cluster.h"
#include "core/vertex_program.h"
#include "stream/vector_stream.h"
#include "tests/test_util.h"

namespace tornado {
namespace {

/// Iteration part: one dummy byte. Input part: how many inputs the vertex
/// gathered, which only OnInput may change.
struct NullState : VertexState {
  uint64_t inputs = 0;

  void Serialize(BufferWriter* writer) const override { writer->PutU8(0); }
  void SerializeInput(BufferWriter* writer) const override {
    writer->PutVarint(inputs);
  }
  void DeserializeInput(BufferReader* reader) override {
    (void)reader->GetVarint(&inputs);
  }
};

/// A configurable misbehaving program.
class EvilProgram : public VertexProgram {
 public:
  enum class Evil {
    kNone,
    kEmitInGather,
    kAddTargetInUpdate,
    kSelfTarget,
    kEmitNoopKind,
    kChangeInputPartInScatter,
  };

  explicit EvilProgram(Evil evil) : evil_(evil) {}

  std::unique_ptr<VertexState> CreateState(VertexId) const override {
    return std::make_unique<NullState>();
  }
  std::unique_ptr<VertexState> DeserializeState(
      BufferReader* reader) const override {
    uint8_t b;
    (void)reader->GetU8(&b);
    return std::make_unique<NullState>();
  }

  bool OnInput(VertexContext& ctx, const Delta& delta) const override {
    const auto& edge = std::get<EdgeDelta>(delta);
    if (evil_ == Evil::kSelfTarget) {
      ctx.AddTarget(ctx.id());  // must die: self-dependency
    } else {
      ctx.AddTarget(edge.dst);
    }
    if (evil_ == Evil::kEmitInGather) {
      ctx.EmitToTargets(VertexUpdate{});  // must die: not in Scatter
    }
    static_cast<NullState*>(ctx.state())->inputs++;
    return true;
  }

  bool OnUpdate(VertexContext& ctx, VertexId, Iteration,
                const VertexUpdate&) const override {
    if (evil_ == Evil::kAddTargetInUpdate) {
      ctx.AddTarget(12345);  // must die: graph mutation outside input
    }
    return true;
  }

  void Scatter(VertexContext& ctx) const override {
    VertexUpdate update;
    if (evil_ == Evil::kEmitNoopKind) {
      update.kind = kNoopUpdateKind;  // must die: reserved kind
    }
    if (evil_ == Evil::kChangeInputPartInScatter) {
      // Must die (TORNADO_CHECK builds) at the first commit that follows
      // no input: the input part changed without an input.
      static_cast<NullState*>(ctx.state())->inputs++;
    }
    ctx.EmitToTargets(update);
  }

 private:
  Evil evil_;
};

void RunScenario(EvilProgram::Evil evil) {
  JobConfig config;
  config.program = std::make_shared<EvilProgram>(evil);
  config.delay_bound = 8;
  config.num_processors = 2;
  config.num_hosts = 1;
  std::vector<Delta> deltas = {EdgeDelta{1, 2, 1.0, true},
                               EdgeDelta{2, 3, 1.0, true}};
  if (evil == EvilProgram::Evil::kChangeInputPartInScatter) {
    // Close a cycle, so vertices keep committing long after their inputs.
    deltas.push_back(EdgeDelta{3, 1, 1.0, true});
  }
  const size_t tuples = deltas.size();
  TornadoCluster cluster(config, std::make_unique<VectorStream>(deltas));
  cluster.Start();
  cluster.RunUntilEmitted(tuples, 60.0);
  cluster.RunFor(1.0);
}

using ContextApiDeathTest = ::testing::Test;

TEST(ContextApiDeathTest, EmissionOutsideScatterDies) {
  EXPECT_DEATH(RunScenario(EvilProgram::Evil::kEmitInGather),
               "emissions are only legal in Scatter");
}

TEST(ContextApiDeathTest, GraphMutationOutsideInputDies) {
  EXPECT_DEATH(RunScenario(EvilProgram::Evil::kAddTargetInUpdate),
               "only legal while gathering an input");
}

TEST(ContextApiDeathTest, SelfTargetDies) {
  EXPECT_DEATH(RunScenario(EvilProgram::Evil::kSelfTarget),
               "self-dependencies are not supported");
}

TEST(ContextApiDeathTest, ReservedNoopKindDies) {
  EXPECT_DEATH(RunScenario(EvilProgram::Evil::kEmitNoopKind),
               "reserved no-op kind");
}

TEST(ContextApiDeathTest, InputPartChangedOutsideOnInputDies) {
#ifdef TORNADO_CHECK
  EXPECT_DEATH(RunScenario(EvilProgram::Evil::kChangeInputPartInScatter),
               "changed its input part outside OnInput");
#else
  GTEST_SKIP() << "the input-part check is compiled into TORNADO_CHECK "
                  "builds only";
#endif
}

TEST(ContextApiTest, WellBehavedProgramRuns) {
  RunScenario(EvilProgram::Evil::kNone);  // must not die
  SUCCEED();
}

}  // namespace
}  // namespace tornado
