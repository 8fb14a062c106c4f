// Program-level unit tests, exercising the vertex programs directly
// through a fake context (no engine): state serialization round-trips,
// gather change-detection, scatter suppression, retraction emission, and
// restore-forced re-emission.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>

#include "algos/connected_components.h"
#include "algos/kmeans.h"
#include "algos/pagerank.h"
#include "algos/sgd.h"
#include "algos/sssp.h"
#include "tests/test_util.h"

namespace tornado {
namespace {

/// A stand-in VertexContext collecting emissions and graph mutations.
class FakeContext : public VertexContext {
 public:
  FakeContext(VertexId id, LoopId loop, VertexState* state)
      : id_(id), loop_(loop), state_(state), rng_(99) {}

  VertexId id() const override { return id_; }
  LoopId loop() const override { return loop_; }
  bool is_main_loop() const override { return loop_ == kMainLoop; }
  Iteration iteration() const override { return iteration_; }
  VertexState* state() override { return state_; }

  void AddTarget(VertexId target) override {
    if (std::find(targets_.begin(), targets_.end(), target) !=
        targets_.end()) {
      return;
    }
    targets_.push_back(target);
    auto it = std::find(retiring_.begin(), retiring_.end(), target);
    if (it != retiring_.end()) retiring_.erase(it);
  }
  void RemoveTarget(VertexId target) override {
    auto it = std::find(targets_.begin(), targets_.end(), target);
    if (it == targets_.end()) return;
    targets_.erase(it);
    retiring_.push_back(target);
  }
  const std::vector<VertexId>& targets() const override { return targets_; }
  const std::vector<VertexId>& retiring_targets() const override {
    return retiring_;
  }
  void EmitToTargets(const VertexUpdate& update) override {
    for (VertexId t : targets_) emissions.emplace_back(t, update);
  }
  void EmitTo(VertexId target, const VertexUpdate& update) override {
    emissions.emplace_back(target, update);
  }
  void AddCost(double seconds) override { cost += seconds; }
  void AddProgress(double delta) override { progress += delta; }
  Rng* rng() override { return &rng_; }

  void FinishCommit() {
    emissions.clear();
    retiring_.clear();
  }

  std::vector<std::pair<VertexId, VertexUpdate>> emissions;
  double cost = 0.0;
  double progress = 0.0;
  Iteration iteration_ = 0;

 private:
  VertexId id_;
  LoopId loop_;
  VertexState* state_;
  std::vector<VertexId> targets_;
  std::vector<VertexId> retiring_;
  Rng rng_;
};

/// Round-trips both state parts, the way the engine stores and restores
/// a version: the iteration part through DeserializeState, then the input
/// part through DeserializeInput.
template <typename ProgramT>
std::unique_ptr<VertexState> RoundTrip(const ProgramT& program,
                                       const VertexState& state) {
  BufferWriter writer;
  state.Serialize(&writer);
  BufferReader reader(writer.data());
  auto restored = program.DeserializeState(&reader);
  EXPECT_TRUE(reader.AtEnd()) << "trailing bytes after deserialization";
  BufferWriter input_writer;
  state.SerializeInput(&input_writer);
  BufferReader input(input_writer.data());
  restored->DeserializeInput(&input);
  EXPECT_TRUE(input.AtEnd()) << "trailing bytes after the input part";
  return restored;
}

std::vector<uint8_t> IterationPart(const VertexState& state) {
  BufferWriter writer;
  state.Serialize(&writer);
  return writer.Release();
}

std::vector<uint8_t> InputPart(const VertexState& state) {
  BufferWriter writer;
  state.SerializeInput(&writer);
  return writer.Release();
}

// ---------------------------------------------------------------------------
// SSSP
// ---------------------------------------------------------------------------

TEST(SsspUnitTest, SourceStartsAtZeroOthersAtInfinity) {
  SsspProgram program(7);
  auto source = program.CreateState(7);
  auto other = program.CreateState(8);
  EXPECT_EQ(static_cast<SsspState&>(*source).length, 0.0);
  EXPECT_EQ(static_cast<SsspState&>(*other).length, kSsspInfinity);
}

TEST(SsspUnitTest, GatherUpdateDetectsChange) {
  SsspProgram program(0);
  auto state = program.CreateState(5);
  FakeContext ctx(5, kMainLoop, state.get());
  VertexUpdate update;
  update.values = {4.5};
  EXPECT_TRUE(program.OnUpdate(ctx, 1, 0, update));   // new candidate
  EXPECT_FALSE(program.OnUpdate(ctx, 1, 1, update));  // identical
  update.values = {3.0};
  EXPECT_TRUE(program.OnUpdate(ctx, 1, 2, update));  // improved
  // The min re-reduction is memoized; EnsureLength is what Scatter calls.
  EXPECT_EQ(static_cast<SsspState&>(*state).EnsureLength(false), 3.0);
}

TEST(SsspUnitTest, InfinityRetractsCandidate) {
  SsspProgram program(0);
  auto state = program.CreateState(5);
  FakeContext ctx(5, kMainLoop, state.get());
  VertexUpdate update;
  update.values = {4.5};
  program.OnUpdate(ctx, 1, 0, update);
  update.values = {kSsspInfinity};
  EXPECT_TRUE(program.OnUpdate(ctx, 1, 1, update));
  EXPECT_EQ(static_cast<SsspState&>(*state).EnsureLength(false), kSsspInfinity);
  EXPECT_FALSE(program.OnUpdate(ctx, 1, 2, update));  // already gone
}

TEST(SsspUnitTest, ScatterSuppressesUnchangedCandidates) {
  SsspProgram program(0);
  auto state = program.CreateState(0);  // the source: length 0
  FakeContext ctx(0, kMainLoop, state.get());
  ASSERT_TRUE(program.OnInput(ctx, EdgeDelta{0, 9, 2.5, true}));
  program.Scatter(ctx);
  ASSERT_EQ(ctx.emissions.size(), 1u);
  EXPECT_EQ(ctx.emissions[0].first, 9u);
  EXPECT_DOUBLE_EQ(ctx.emissions[0].second.values[0], 2.5);
  ctx.FinishCommit();
  program.Scatter(ctx);  // nothing changed: no re-emission
  EXPECT_TRUE(ctx.emissions.empty());
}

TEST(SsspUnitTest, ParallelEdgeUsesMinWeightAndSurvivesPartialDelete) {
  SsspProgram program(0);
  auto state = program.CreateState(0);
  FakeContext ctx(0, kMainLoop, state.get());
  program.OnInput(ctx, EdgeDelta{0, 9, 5.0, true});
  program.OnInput(ctx, EdgeDelta{0, 9, 2.0, true});
  program.Scatter(ctx);
  ASSERT_EQ(ctx.emissions.size(), 1u);
  EXPECT_DOUBLE_EQ(ctx.emissions[0].second.values[0], 2.0);
  ctx.FinishCommit();
  // Delete the cheaper parallel edge: must re-emit the larger candidate.
  EXPECT_TRUE(program.OnInput(ctx, EdgeDelta{0, 9, 2.0, false}));
  EXPECT_EQ(ctx.targets().size(), 1u) << "other parallel edge remains";
  program.Scatter(ctx);
  ASSERT_EQ(ctx.emissions.size(), 1u);
  EXPECT_DOUBLE_EQ(ctx.emissions[0].second.values[0], 5.0);
}

TEST(SsspUnitTest, RemoveLastEdgeEmitsRetractionToRetiringTarget) {
  SsspProgram program(0);
  auto state = program.CreateState(0);
  FakeContext ctx(0, kMainLoop, state.get());
  program.OnInput(ctx, EdgeDelta{0, 9, 2.0, true});
  program.Scatter(ctx);
  ctx.FinishCommit();
  EXPECT_TRUE(program.OnInput(ctx, EdgeDelta{0, 9, 2.0, false}));
  EXPECT_TRUE(ctx.targets().empty());
  ASSERT_EQ(ctx.retiring_targets().size(), 1u);
  program.Scatter(ctx);
  ASSERT_EQ(ctx.emissions.size(), 1u);
  EXPECT_EQ(ctx.emissions[0].second.values[0], kSsspInfinity);
}

TEST(SsspUnitTest, DeleteUnknownEdgeIsNoChange) {
  SsspProgram program(0);
  auto state = program.CreateState(3);
  FakeContext ctx(3, kMainLoop, state.get());
  EXPECT_FALSE(program.OnInput(ctx, EdgeDelta{3, 9, 1.0, false}));
}

TEST(SsspUnitTest, StateSerializationRoundTrips) {
  SsspProgram program(0);
  auto state = program.CreateState(4);
  auto& sssp = static_cast<SsspState&>(*state);
  sssp.length = 7.25;
  sssp.out_edges[9] = {1.5, 2.5};
  sssp.candidates[2] = 7.25;
  sssp.last_sent[9] = 8.75;
  auto restored = RoundTrip(program, *state);
  const auto& got = static_cast<SsspState&>(*restored);
  EXPECT_EQ(got.length, 7.25);
  EXPECT_EQ(got.out_edges, sssp.out_edges);
  EXPECT_EQ(got.candidates, sssp.candidates);
  EXPECT_EQ(got.last_sent, sssp.last_sent);
}

TEST(SsspUnitTest, CandidatesAboveCapBecomeUnreachable) {
  SsspProgram program(0, false, /*max_distance=*/100.0);
  auto state = program.CreateState(5);
  FakeContext ctx(5, kMainLoop, state.get());
  VertexUpdate update;
  update.values = {250.0};  // beyond the count-to-infinity cap
  EXPECT_FALSE(program.OnUpdate(ctx, 1, 0, update));
  EXPECT_EQ(static_cast<SsspState&>(*state).length, kSsspInfinity);
}

TEST(SsspUnitTest, BatchModeSuppressesMainLoopEmissions) {
  SsspProgram program(0, /*batch_mode=*/true);
  auto state = program.CreateState(0);
  FakeContext main_ctx(0, kMainLoop, state.get());
  program.OnInput(main_ctx, EdgeDelta{0, 9, 2.0, true});
  program.Scatter(main_ctx);
  EXPECT_TRUE(main_ctx.emissions.empty());
  FakeContext branch_ctx(0, /*loop=*/3, state.get());
  branch_ctx.AddTarget(9);
  program.Scatter(branch_ctx);
  EXPECT_EQ(branch_ctx.emissions.size(), 1u);
  EXPECT_TRUE(program.ActivateOnFork(*state));
}

TEST(SsspUnitTest, OnRestoreForcesReemissionIncludingRetractions) {
  SsspProgram program(0);
  auto state = program.CreateState(0);
  FakeContext ctx(0, kMainLoop, state.get());
  program.OnInput(ctx, EdgeDelta{0, 9, 2.0, true});
  program.Scatter(ctx);
  ctx.FinishCommit();
  program.Scatter(ctx);
  ASSERT_TRUE(ctx.emissions.empty());  // suppressed
  program.OnRestore(state.get());
  program.Scatter(ctx);
  ASSERT_EQ(ctx.emissions.size(), 1u) << "restore must re-emit";
  EXPECT_DOUBLE_EQ(ctx.emissions[0].second.values[0], 2.0);
}

// ---------------------------------------------------------------------------
// PageRank
// ---------------------------------------------------------------------------

TEST(PageRankUnitTest, RankFollowsContributions) {
  PageRankProgram program(0.85, 1e-6);
  auto state = program.CreateState(1);
  FakeContext ctx(1, kMainLoop, state.get());
  VertexUpdate update;
  update.values = {1.0};
  EXPECT_TRUE(program.OnUpdate(ctx, 2, 0, update));
  auto& pr = static_cast<PageRankState&>(*state);
  // The re-sum is memoized; EnsureRank is what Scatter calls.
  EXPECT_NEAR(pr.EnsureRank(0.85), 0.15 + 0.85 * 1.0, 1e-12);
  update.values = {0.0};  // retraction
  EXPECT_TRUE(program.OnUpdate(ctx, 2, 1, update));
  EXPECT_NEAR(pr.EnsureRank(0.85), 0.15, 1e-12);
}

TEST(PageRankUnitTest, ContributionSplitsByParallelEdgeCount) {
  PageRankProgram program(0.85, 1e-9);
  auto state = program.CreateState(1);
  FakeContext ctx(1, kMainLoop, state.get());
  program.OnInput(ctx, EdgeDelta{1, 2, 1.0, true});
  program.OnInput(ctx, EdgeDelta{1, 2, 1.0, true});
  program.OnInput(ctx, EdgeDelta{1, 3, 1.0, true});
  program.Scatter(ctx);
  ASSERT_EQ(ctx.emissions.size(), 2u);
  double to2 = 0, to3 = 0;
  for (auto& [t, u] : ctx.emissions) {
    (t == 2 ? to2 : to3) = u.values[0];
  }
  EXPECT_NEAR(to2, 2.0 * to3, 1e-12) << "2 of 3 edges point to vertex 2";
}

TEST(PageRankUnitTest, EmissionSuppressedWithinTolerance) {
  PageRankProgram program(0.85, /*tolerance=*/0.5);
  auto state = program.CreateState(1);
  FakeContext ctx(1, kMainLoop, state.get());
  program.OnInput(ctx, EdgeDelta{1, 2, 1.0, true});
  VertexUpdate update;
  update.values = {1.0};
  program.OnUpdate(ctx, 3, 0, update);  // rank = 0.15 + 0.85 = 1.0
  program.Scatter(ctx);
  ASSERT_EQ(ctx.emissions.size(), 1u);
  ctx.FinishCommit();
  // A tiny incoming contribution changes the rank by < tolerance.
  update.values = {1.1};
  program.OnUpdate(ctx, 3, 1, update);
  program.Scatter(ctx);
  EXPECT_TRUE(ctx.emissions.empty());
}

TEST(PageRankUnitTest, StateSerializationRoundTrips) {
  PageRankProgram program;
  auto state = program.CreateState(1);
  auto& pr = static_cast<PageRankState&>(*state);
  pr.rank = 2.5;
  pr.edge_counts[7] = 3;
  pr.out_degree = 3;
  pr.contributions[4] = 1.25;
  pr.last_sent[7] = 0.5;
  auto restored = RoundTrip(program, *state);
  const auto& got = static_cast<PageRankState&>(*restored);
  EXPECT_EQ(got.rank, 2.5);
  EXPECT_EQ(got.edge_counts, pr.edge_counts);
  EXPECT_EQ(got.out_degree, 3u);
  EXPECT_EQ(got.contributions, pr.contributions);
  EXPECT_EQ(got.last_sent, pr.last_sent);
}

// ---------------------------------------------------------------------------
// KMeans
// ---------------------------------------------------------------------------

KMeansOptions SmallKMeans() {
  KMeansOptions options;
  options.num_clusters = 2;
  options.num_shards = 2;
  options.dimensions = 2;
  options.move_tolerance = 1e-6;
  return options;
}

TEST(KMeansUnitTest, ShardAssignsToNearestCentroid) {
  KMeansProgram program(SmallKMeans());
  auto state = program.CreateState(KMeansShardVertex(0));
  FakeContext ctx(KMeansShardVertex(0), kMainLoop, state.get());
  VertexUpdate c0, c1;
  c0.kind = 0;
  c0.values = {0.0, 0.0};
  c1.kind = 0;
  c1.values = {10.0, 10.0};
  EXPECT_TRUE(program.OnUpdate(ctx, KMeansCentroidVertex(0), 0, c0));
  EXPECT_TRUE(program.OnUpdate(ctx, KMeansCentroidVertex(1), 0, c1));
  program.OnInput(ctx, PointDelta{1, {1.0, 1.0}, true});
  program.OnInput(ctx, PointDelta{2, {9.0, 9.0}, true});
  program.Scatter(ctx);
  // One sum per centroid, each holding one point.
  ASSERT_EQ(ctx.emissions.size(), 2u);
  for (auto& [target, update] : ctx.emissions) {
    EXPECT_EQ(update.values[0], 1.0) << "count per centroid";
  }
}

TEST(KMeansUnitTest, UnchangedCentroidPositionDoesNotDirtyShard) {
  KMeansProgram program(SmallKMeans());
  auto state = program.CreateState(KMeansShardVertex(0));
  FakeContext ctx(KMeansShardVertex(0), kMainLoop, state.get());
  VertexUpdate c0;
  c0.kind = 0;
  c0.values = {1.0, 2.0};
  EXPECT_TRUE(program.OnUpdate(ctx, KMeansCentroidVertex(0), 0, c0));
  EXPECT_FALSE(program.OnUpdate(ctx, KMeansCentroidVertex(0), 1, c0));
}

SgdOptions MakeSmallSgdOptions() {
  SgdOptions options;
  options.num_shards = 2;
  options.dimensions = 3;
  options.reservoir_capacity = 8;
  options.descent_rate = 0.5;
  return options;
}

TEST(KMeansUnitTest, BranchLoopAlwaysRescansOnCentroidBroadcast) {
  // In a branch loop even a value-identical centroid broadcast schedules
  // the shard: the snapshot's assignment must be verified by at least one
  // full rescan (the inherent KMeans cost of Section 6.2.1).
  KMeansProgram program(SmallKMeans());
  auto state = program.CreateState(KMeansShardVertex(0));
  FakeContext ctx(KMeansShardVertex(0), /*loop=*/7, state.get());
  VertexUpdate c0;
  c0.kind = 0;
  c0.values = {1.0, 2.0};
  EXPECT_TRUE(program.OnUpdate(ctx, KMeansCentroidVertex(0), 0, c0));
  EXPECT_TRUE(program.OnUpdate(ctx, KMeansCentroidVertex(0), 1, c0))
      << "identical broadcast must still dirty the shard in a branch";
}

TEST(SgdUnitTest2, BranchLoopAlwaysSchedulesShardOnModelBroadcast) {
  SgdProgram program(MakeSmallSgdOptions());
  auto state = program.CreateState(SgdShardVertex(0));
  FakeContext main_ctx(SgdShardVertex(0), kMainLoop, state.get());
  VertexUpdate model;
  model.kind = 0;
  model.values = {1.0, 2.0, 3.0};
  EXPECT_TRUE(program.OnUpdate(main_ctx, kSgdParamVertex, 0, model));
  EXPECT_FALSE(program.OnUpdate(main_ctx, kSgdParamVertex, 1, model))
      << "main loop suppresses no-op re-broadcasts";
  FakeContext branch_ctx(SgdShardVertex(0), /*loop=*/3, state.get());
  EXPECT_TRUE(program.OnUpdate(branch_ctx, kSgdParamVertex, 0, model))
      << "branch must verify the fixed point at least once";
}

TEST(SgdUnitTest2, BranchGradientStepsDecay) {
  SgdProgram program(MakeSmallSgdOptions());
  auto state = program.CreateState(kSgdParamVertex);
  FakeContext ctx(kSgdParamVertex, /*loop=*/5, state.get());
  VertexUpdate g;
  g.kind = 1;
  g.values = {1.0, 0.0, 1.0, 0.0, 0.0};
  program.OnUpdate(ctx, SgdShardVertex(0), 0, g);
  program.Scatter(ctx);
  auto& param = static_cast<SgdParamState&>(*state);
  const double first_step = -param.weights[0];
  ASSERT_GT(first_step, 0.0);
  const double w0 = param.weights[0];
  program.OnUpdate(ctx, SgdShardVertex(0), 1, g);
  program.Scatter(ctx);
  const double second_step = w0 - param.weights[0];
  EXPECT_LT(second_step, first_step) << "branch GD steps must decay";
  EXPECT_EQ(param.branch_steps, 2u);
}

TEST(KMeansUnitTest, CentroidAveragesPartialSums) {
  KMeansProgram program(SmallKMeans());
  auto state = program.CreateState(KMeansCentroidVertex(0));
  FakeContext ctx(KMeansCentroidVertex(0), kMainLoop, state.get());
  VertexUpdate s0, s1;
  s0.kind = 1;
  s0.values = {2.0, 2.0, 4.0};  // count=2, sums (2, 4)
  s1.kind = 1;
  s1.values = {2.0, 6.0, 4.0};  // count=2, sums (6, 4)
  program.OnUpdate(ctx, KMeansShardVertex(0), 0, s0);
  program.OnUpdate(ctx, KMeansShardVertex(1), 0, s1);
  program.Scatter(ctx);
  const auto& centroid = static_cast<KMeansCentroidState&>(*state);
  EXPECT_DOUBLE_EQ(centroid.position[0], 2.0);
  EXPECT_DOUBLE_EQ(centroid.position[1], 2.0);
}

TEST(KMeansUnitTest, PointDeletionRetractsFromSums) {
  KMeansProgram program(SmallKMeans());
  auto state = program.CreateState(KMeansShardVertex(0));
  FakeContext ctx(KMeansShardVertex(0), kMainLoop, state.get());
  VertexUpdate c0;
  c0.kind = 0;
  c0.values = {0.0, 0.0};
  program.OnUpdate(ctx, KMeansCentroidVertex(0), 0, c0);
  program.OnInput(ctx, PointDelta{1, {1.0, 1.0}, true});
  EXPECT_TRUE(program.OnInput(ctx, PointDelta{1, {}, false}));
  const auto& shard = static_cast<KMeansShardState&>(*state);
  EXPECT_TRUE(shard.points.empty());
  EXPECT_TRUE(shard.sums.empty());
  EXPECT_FALSE(program.OnInput(ctx, PointDelta{1, {}, false}));
}

TEST(KMeansUnitTest, BothStateFlavoursSerialize) {
  KMeansProgram program(SmallKMeans());
  auto centroid = program.CreateState(KMeansCentroidVertex(0));
  auto shard = program.CreateState(KMeansShardVertex(0));
  static_cast<KMeansShardState&>(*shard).points[3] = {1.0, 2.0};
  auto centroid2 = RoundTrip(program, *centroid);
  auto shard2 = RoundTrip(program, *shard);
  EXPECT_NE(dynamic_cast<KMeansCentroidState*>(centroid2.get()), nullptr);
  auto* restored_shard = dynamic_cast<KMeansShardState*>(shard2.get());
  ASSERT_NE(restored_shard, nullptr);
  EXPECT_EQ(restored_shard->points.at(3), (std::vector<double>{1.0, 2.0}));
}

TEST(KMeansUnitTest, ShardPointsAreTheInputPart) {
  KMeansProgram program(SmallKMeans());
  auto state = program.CreateState(KMeansShardVertex(0));
  FakeContext ctx(KMeansShardVertex(0), kMainLoop, state.get());
  VertexUpdate c0;
  c0.kind = 0;
  c0.values = {0.0, 0.0};
  program.OnUpdate(ctx, KMeansCentroidVertex(0), 0, c0);
  program.OnInput(ctx, PointDelta{1, {1.0, 1.0}, true});
  program.OnInput(ctx, PointDelta{2, {3.0, 1.0}, true});
  const std::vector<uint8_t> input = InputPart(*state);

  // Scatter (an iteration) rewrites assignments and sums only: the input
  // part is unchanged, the iteration part carries no point coordinates.
  program.Scatter(ctx);
  EXPECT_EQ(InputPart(*state), input);
  EXPECT_TRUE(InputPart(*program.CreateState(KMeansCentroidVertex(0)))
                  .empty());

  // Iteration part alone: assignments but no points.
  const std::vector<uint8_t> iteration = IterationPart(*state);
  BufferReader reader(iteration);
  auto restored = program.DeserializeState(&reader);
  auto& shard = static_cast<KMeansShardState&>(*restored);
  EXPECT_TRUE(shard.points.empty());
  EXPECT_EQ(shard.assignment.size(), 2u);
  // Adding the input part completes the state.
  BufferReader input_reader(input);
  shard.DeserializeInput(&input_reader);
  EXPECT_TRUE(input_reader.AtEnd());
  EXPECT_EQ(shard.points.at(2), (std::vector<double>{3.0, 1.0}));
  EXPECT_EQ(IterationPart(shard), IterationPart(*state));
}

// ---------------------------------------------------------------------------
// SGD
// ---------------------------------------------------------------------------

SgdOptions SmallSgd() {
  SgdOptions options;
  options.num_shards = 2;
  options.dimensions = 3;
  options.reservoir_capacity = 8;
  options.descent_rate = 0.5;
  return options;
}

TEST(SgdUnitTest, HingeLossAndObjective) {
  std::vector<double> w = {1.0, 0.0, 0.0};
  SgdInstance good{1, 1.0, {{0, 2.0}}};   // margin 2 -> loss 0
  SgdInstance bad{2, -1.0, {{0, 2.0}}};   // margin -2 -> loss 3
  EXPECT_DOUBLE_EQ(SgdProgram::InstanceLoss(SgdLoss::kSvmHinge, w, good),
                   0.0);
  EXPECT_DOUBLE_EQ(SgdProgram::InstanceLoss(SgdLoss::kSvmHinge, w, bad),
                   3.0);
  const double objective =
      SgdProgram::Objective(SgdLoss::kSvmHinge, 0.0, w, {good, bad});
  EXPECT_DOUBLE_EQ(objective, 1.5);
}

TEST(SgdUnitTest, LogisticLossIsStableAtExtremes) {
  std::vector<double> w = {100.0};
  SgdInstance pos{1, 1.0, {{0, 1.0}}};
  SgdInstance neg{2, -1.0, {{0, 1.0}}};
  EXPECT_NEAR(SgdProgram::InstanceLoss(SgdLoss::kLogistic, w, pos), 0.0,
              1e-12);
  EXPECT_NEAR(SgdProgram::InstanceLoss(SgdLoss::kLogistic, w, neg), 100.0,
              1e-9);
}

TEST(SgdUnitTest, MainLoopGradientMovesWeights) {
  SgdProgram program(SmallSgd());
  auto state = program.CreateState(kSgdParamVertex);
  FakeContext ctx(kSgdParamVertex, kMainLoop, state.get());
  VertexUpdate gradient;
  gradient.kind = 1;
  gradient.values = {1.0, 0.0, /*grad=*/2.0, 0.0, 0.0};
  EXPECT_TRUE(program.OnUpdate(ctx, SgdShardVertex(0), 0, gradient));
  const auto& param = static_cast<SgdParamState&>(*state);
  EXPECT_LT(param.weights[0], 0.0) << "descent moved against the gradient";
  EXPECT_EQ(param.steps, 1u);
}

TEST(SgdUnitTest, BranchGradientsCombineAtScatter) {
  SgdProgram program(SmallSgd());
  auto state = program.CreateState(kSgdParamVertex);
  FakeContext ctx(kSgdParamVertex, /*loop=*/5, state.get());
  VertexUpdate g0, g1;
  g0.kind = 1;
  g0.values = {1.0, 0.0, 2.0, 0.0, 0.0};
  g1.kind = 1;
  g1.values = {1.0, 0.0, 0.0, 2.0, 0.0};
  program.OnUpdate(ctx, SgdShardVertex(0), 0, g0);
  program.OnUpdate(ctx, SgdShardVertex(1), 0, g1);
  const auto& param = static_cast<SgdParamState&>(*state);
  EXPECT_EQ(param.weights[0], 0.0) << "branch gathers defer application";
  program.Scatter(ctx);
  EXPECT_LT(param.weights[0], 0.0);
  EXPECT_LT(param.weights[1], 0.0);
  EXPECT_GT(ctx.progress, 0.0);
}

TEST(SgdUnitTest, ShardReservoirHonoursCapacity) {
  SgdProgram program(SmallSgd());
  auto state = program.CreateState(SgdShardVertex(0));
  FakeContext ctx(SgdShardVertex(0), kMainLoop, state.get());
  for (uint64_t i = 0; i < 100; ++i) {
    InstanceDelta delta;
    delta.id = i;
    delta.label = 1.0;
    delta.features = {{0, 1.0}};
    EXPECT_TRUE(program.OnInput(ctx, Delta{delta}));
  }
  const auto& shard = static_cast<SgdShardState&>(*state);
  EXPECT_EQ(shard.sample.size(), 8u);
  EXPECT_EQ(shard.seen, 100u);
}

TEST(SgdUnitTest, ParamStateSerializationRoundTrips) {
  SgdProgram program(SmallSgd());
  auto state = program.CreateState(kSgdParamVertex);
  auto& param = static_cast<SgdParamState&>(*state);
  param.weights = {1.0, -2.0, 3.0};
  param.rate = 0.25;
  param.steps = 7;
  param.partial_grads[1] = {0.5, 0.5, 0.5};
  param.partial_loss[1] = {2.0, 4};
  auto restored = RoundTrip(program, *state);
  const auto& got = static_cast<SgdParamState&>(*restored);
  EXPECT_EQ(got.weights, param.weights);
  EXPECT_EQ(got.rate, 0.25);
  EXPECT_EQ(got.steps, 7u);
  EXPECT_EQ(got.partial_grads, param.partial_grads);
  EXPECT_EQ(got.partial_loss, param.partial_loss);
}

TEST(SgdUnitTest, ShardStateSerializationRoundTrips) {
  SgdProgram program(SmallSgd());
  auto state = program.CreateState(SgdShardVertex(1));
  auto& shard = static_cast<SgdShardState&>(*state);
  shard.sample.push_back(SgdInstance{9, -1.0, {{0, 1.5}, {2, -0.5}}});
  shard.seen = 42;
  shard.weights = {0.5, 0.5, 0.5};
  shard.has_weights = true;
  auto restored = RoundTrip(program, *state);
  const auto& got = static_cast<SgdShardState&>(*restored);
  ASSERT_EQ(got.sample.size(), 1u);
  EXPECT_EQ(got.sample[0].id, 9u);
  EXPECT_EQ(got.sample[0].features, shard.sample[0].features);
  EXPECT_EQ(got.seen, 42u);
  EXPECT_TRUE(got.has_weights);
}

TEST(SgdUnitTest, ShardReservoirIsTheInputPart) {
  SgdProgram program(SmallSgd());
  auto state = program.CreateState(SgdShardVertex(0));
  FakeContext ctx(SgdShardVertex(0), kMainLoop, state.get());
  for (uint64_t i = 0; i < 3; ++i) {
    InstanceDelta inst;
    inst.id = i;
    inst.label = i % 2 == 0 ? 1.0 : -1.0;
    inst.features = {{0, 1.0 + static_cast<double>(i)}, {2, 0.5}};
    program.OnInput(ctx, inst);
  }
  const std::vector<uint8_t> input = InputPart(*state);

  // A model broadcast and a gradient scatter change only the iteration
  // part.
  VertexUpdate model;
  model.kind = 0;
  model.values = {0.1, 0.2, 0.3};
  program.OnUpdate(ctx, kSgdParamVertex, 0, model);
  program.Scatter(ctx);
  EXPECT_EQ(InputPart(*state), input);
  EXPECT_TRUE(InputPart(*program.CreateState(kSgdParamVertex)).empty());

  const std::vector<uint8_t> iteration = IterationPart(*state);
  BufferReader reader(iteration);
  auto restored = program.DeserializeState(&reader);
  auto& shard = static_cast<SgdShardState&>(*restored);
  EXPECT_TRUE(shard.sample.empty());
  EXPECT_EQ(shard.weights, model.values);
  BufferReader input_reader(input);
  shard.DeserializeInput(&input_reader);
  EXPECT_TRUE(input_reader.AtEnd());
  ASSERT_EQ(shard.sample.size(), 3u);
  EXPECT_EQ(shard.sample[1].features,
            (std::vector<std::pair<uint32_t, double>>{{0, 2.0}, {2, 0.5}}));
  EXPECT_EQ(shard.seen, 3u);
  EXPECT_EQ(InputPart(shard), input);
}

// ---------------------------------------------------------------------------
// Connected components
// ---------------------------------------------------------------------------

TEST(CcUnitTest, LabelIsMinOfSelfAndNeighbors) {
  ConnectedComponentsProgram program;
  auto state = program.CreateState(5);
  FakeContext ctx(5, kMainLoop, state.get());
  VertexUpdate label;
  label.values = {3.0};
  EXPECT_TRUE(program.OnUpdate(ctx, 8, 0, label));
  EXPECT_EQ(static_cast<ComponentState&>(*state).label, 3u);
  label.values = {7.0};
  EXPECT_TRUE(program.OnUpdate(ctx, 9, 0, label));  // stored, not adopted
  EXPECT_EQ(static_cast<ComponentState&>(*state).label, 3u);
}

TEST(CcUnitTest, EdgeDeltaRoutesToBothEndpoints) {
  auto router = ConnectedComponentsProgram::MakeRouter();
  std::vector<std::pair<VertexId, Delta>> out;
  StreamTuple tuple;
  tuple.sequence = 0;
  tuple.delta = EdgeDelta{3, 9, 1.0, true};
  router(tuple, &out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].first, 3u);
  EXPECT_EQ(out[1].first, 9u);
}

TEST(CcUnitTest, ScatterSuppressesUnchangedLabel) {
  ConnectedComponentsProgram program;
  auto state = program.CreateState(5);
  FakeContext ctx(5, kMainLoop, state.get());
  program.OnInput(ctx, EdgeDelta{5, 9, 1.0, true});
  program.Scatter(ctx);
  ASSERT_EQ(ctx.emissions.size(), 1u);
  ctx.FinishCommit();
  program.Scatter(ctx);
  EXPECT_TRUE(ctx.emissions.empty());
  program.OnRestore(state.get());
  program.Scatter(ctx);
  EXPECT_EQ(ctx.emissions.size(), 1u);
}

TEST(CcUnitTest, StateSerializationRoundTrips) {
  ConnectedComponentsProgram program;
  auto state = program.CreateState(5);
  auto& cc = static_cast<ComponentState&>(*state);
  cc.label = 2;
  cc.neighbors[9] = 2;
  cc.neighbor_labels[9] = 2;
  cc.last_sent[9] = 2;
  auto restored = RoundTrip(program, *state);
  const auto& got = static_cast<ComponentState&>(*restored);
  EXPECT_EQ(got.label, 2u);
  EXPECT_EQ(got.neighbors, cc.neighbors);
  EXPECT_EQ(got.neighbor_labels, cc.neighbor_labels);
  EXPECT_EQ(got.last_sent, cc.last_sent);
}

}  // namespace
}  // namespace tornado
