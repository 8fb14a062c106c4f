// Tests for the benchmark's own code: the percentile reporting rule, the
// span self-time arithmetic, and the fidelity of the program wrapper.

#include <gtest/gtest.h>

#include <memory>

#include "trace.h"
#include "wrappers.h"

namespace perfbench {
namespace {

using tornado::BatchVertexProgram;
using tornado::VertexProgram;

TEST(PercentileRuleTest, NeedsTenSamplesBeyondThePercentile) {
  EXPECT_FALSE(PercentileReportable(99, 90.0));
  EXPECT_TRUE(PercentileReportable(100, 90.0));
  EXPECT_FALSE(PercentileReportable(999, 99.0));
  EXPECT_TRUE(PercentileReportable(1000, 99.0));
  EXPECT_FALSE(PercentileReportable(9999, 99.9));
  EXPECT_TRUE(PercentileReportable(10000, 99.9));
  EXPECT_TRUE(PercentileReportable(20, 50.0));
  EXPECT_FALSE(PercentileReportable(19, 50.0));
}

TEST(PercentileRuleTest, HighestReportablePercentile) {
  EXPECT_FALSE(HighestReportablePercentile(0).has_value());
  EXPECT_FALSE(HighestReportablePercentile(99).has_value());
  EXPECT_EQ(HighestReportablePercentile(100), 90.0);
  EXPECT_EQ(HighestReportablePercentile(999), 90.0);
  EXPECT_EQ(HighestReportablePercentile(1000), 99.0);
  EXPECT_EQ(HighestReportablePercentile(10000), 99.9);
}

TEST(PercentileTest, InterpolatesBetweenRanks) {
  EXPECT_EQ(Percentile({}, 50.0), 0.0);
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(Median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_DOUBLE_EQ(Percentile({0.0, 10.0}, 90.0), 9.0);
}

// A clock the test advances by hand.
double fake_now = 0.0;
double FakeNow() { return fake_now; }

TEST(SelfTimeTest, DriveSpanMinusLeafChildren) {
  Tracer tracer(&FakeNow);
  fake_now = 0.0;
  tracer.Begin(Layer::kCoreIngest);
  tracer.AddLeaf(Layer::kAlgosUpdate, 2.0);
  tracer.AddLeaf(Layer::kStreamNext, 1.0);
  tracer.AddLeaf(Layer::kAlgosUpdate, 0.5);
  fake_now = 10.0;
  tracer.End();

  EXPECT_DOUBLE_EQ(tracer.totals(Layer::kCoreIngest).seconds, 10.0);
  EXPECT_DOUBLE_EQ(tracer.SelfSeconds(Layer::kCoreIngest), 6.5);
  EXPECT_DOUBLE_EQ(tracer.SelfSeconds(Layer::kAlgosUpdate), 2.5);
  EXPECT_EQ(tracer.totals(Layer::kAlgosUpdate).calls, 2u);
  EXPECT_DOUBLE_EQ(tracer.RootSeconds(), 10.0);
}

TEST(SelfTimeTest, NestedDriveSpansSubtractOnlyDirectChildren) {
  Tracer tracer(&FakeNow);
  fake_now = 0.0;
  tracer.Begin(Layer::kCoreQuery);       // [0, 10]
  fake_now = 2.0;
  tracer.Begin(Layer::kCoreIngest);      // [2, 5]
  tracer.AddLeaf(Layer::kAlgosScatter, 1.0);
  fake_now = 5.0;
  tracer.End();
  tracer.AddLeaf(Layer::kAlgosInput, 0.25);
  fake_now = 10.0;
  tracer.End();

  // Query: 10 s minus its children (3 s ingest span, 0.25 s leaf).
  EXPECT_DOUBLE_EQ(tracer.SelfSeconds(Layer::kCoreQuery), 6.75);
  // Ingest: 3 s minus its 1 s leaf.
  EXPECT_DOUBLE_EQ(tracer.SelfSeconds(Layer::kCoreIngest), 2.0);
  // Self times and leaves partition the root span.
  EXPECT_DOUBLE_EQ(tracer.SelfSeconds(Layer::kCoreQuery) +
                       tracer.SelfSeconds(Layer::kCoreIngest) +
                       tracer.SelfSeconds(Layer::kAlgosScatter) +
                       tracer.SelfSeconds(Layer::kAlgosInput),
                   tracer.RootSeconds());
  ASSERT_EQ(tracer.spans().size(), 2u);
  EXPECT_EQ(tracer.spans()[1].parent, 0);
}

TEST(SelfTimeTest, LeafOutsideDriveSpansCountsInTotalsOnly) {
  Tracer tracer(&FakeNow);
  tracer.AddLeaf(Layer::kAlgosState, 4.0);
  EXPECT_DOUBLE_EQ(tracer.totals(Layer::kAlgosState).seconds, 4.0);
  EXPECT_DOUBLE_EQ(tracer.RootSeconds(), 0.0);
}

// --- Wrapper fidelity. ---

struct FakeState : tornado::VertexState {
  bool active = false;
  int restored = 0;
  void Serialize(tornado::BufferWriter*) const override {}
};

// Records which callbacks ran; the wrapper must forward each one.
template <class Base>
class FakeProgram : public Base {
 public:
  std::unique_ptr<tornado::VertexState> CreateState(
      tornado::VertexId) const override {
    ++calls;
    return std::make_unique<FakeState>();
  }
  std::unique_ptr<tornado::VertexState> DeserializeState(
      tornado::BufferReader*) const override {
    ++calls;
    return std::make_unique<FakeState>();
  }
  bool OnInput(tornado::VertexContext&, const tornado::Delta&) const override {
    ++calls;
    return true;
  }
  bool OnUpdate(tornado::VertexContext&, tornado::VertexId, tornado::Iteration,
                const tornado::VertexUpdate&) const override {
    ++calls;
    return false;
  }
  void Scatter(tornado::VertexContext&) const override { ++calls; }
  void OnRestore(tornado::VertexState* state) const override {
    ++static_cast<FakeState*>(state)->restored;
  }
  bool ActivateOnFork(const tornado::VertexState& state) const override {
    return static_cast<const FakeState&>(state).active;
  }
  double GatherCost() const override { return 1.5; }
  double ScatterCost() const override { return 2.5; }

  mutable int calls = 0;
};

class FakeBatchProgram : public FakeProgram<BatchVertexProgram> {
 public:
  bool OnUpdateBatch(tornado::VertexContext&, const QueuedUpdate*, size_t n,
                     double per_item_cost) const override {
    batch_items += n;
    last_cost = per_item_cost;
    return true;
  }
  mutable size_t batch_items = 0;
  mutable double last_cost = 0.0;
};

// A context the fakes never read.
class FakeContext final : public tornado::VertexContext {
 public:
  tornado::VertexId id() const override { return 0; }
  tornado::LoopId loop() const override { return tornado::kMainLoop; }
  bool is_main_loop() const override { return true; }
  tornado::Iteration iteration() const override { return 0; }
  tornado::VertexState* state() override { return &state_; }
  void AddTarget(tornado::VertexId) override {}
  void RemoveTarget(tornado::VertexId) override {}
  const std::vector<tornado::VertexId>& targets() const override {
    return none_;
  }
  const std::vector<tornado::VertexId>& retiring_targets() const override {
    return none_;
  }
  void EmitToTargets(const tornado::VertexUpdate&) override {}
  void EmitTo(tornado::VertexId, const tornado::VertexUpdate&) override {}
  void AddCost(double) override {}
  void AddProgress(double) override {}
  tornado::Rng* rng() override { return &rng_; }

 private:
  FakeState state_;
  std::vector<tornado::VertexId> none_;
  tornado::Rng rng_{1};
};

template <class Program>
void ExpectForwards(const Program& fake, const VertexProgram& wrapped,
                    const Tracer& tracer) {
  EXPECT_EQ(wrapped.GatherCost(), 1.5);
  EXPECT_EQ(wrapped.ScatterCost(), 2.5);
  FakeState state;
  EXPECT_FALSE(wrapped.ActivateOnFork(state));
  state.active = true;
  EXPECT_TRUE(wrapped.ActivateOnFork(state));
  wrapped.OnRestore(&state);
  EXPECT_EQ(state.restored, 1);

  EXPECT_NE(wrapped.CreateState(7), nullptr);
  EXPECT_EQ(fake.calls, 1);
  EXPECT_EQ(tracer.totals(Layer::kAlgosState).calls, 1u);
}

TEST(WrapperTest, PlainProgramStaysPlain) {
  auto fake = std::make_shared<FakeProgram<VertexProgram>>();
  Tracer tracer;
  auto wrapped = WrapProgram(fake, &tracer);
  EXPECT_EQ(fake->AsBatch(), nullptr);
  EXPECT_EQ(wrapped->AsBatch(), nullptr);
  ExpectForwards(*fake, *wrapped, tracer);
}

TEST(WrapperTest, BatchProgramStaysBatchAndForwardsBatches) {
  auto fake = std::make_shared<FakeBatchProgram>();
  Tracer tracer;
  auto wrapped = WrapProgram(fake, &tracer);
  ASSERT_NE(wrapped->AsBatch(), nullptr);
  EXPECT_NE(wrapped->AsBatch(), fake->AsBatch());  // the wrapper, not inner
  ExpectForwards(*fake, *wrapped, tracer);

  tornado::VertexUpdate update;
  const BatchVertexProgram::QueuedUpdate items[2] = {{1, 0, &update},
                                                     {2, 0, &update}};
  FakeContext ctx;
  EXPECT_TRUE(wrapped->AsBatch()->OnUpdateBatch(ctx, items, 2, 0.75));
  EXPECT_EQ(fake->batch_items, 2u);
  EXPECT_EQ(fake->last_cost, 0.75);
  EXPECT_EQ(tracer.totals(Layer::kAlgosUpdate).calls, 1u);
}

}  // namespace
}  // namespace perfbench
