// Tests for the SIMD/SoA kernel substrate (src/kernel/):
//
//  - SmallVector / FlatMap container semantics (including std::map
//    iteration-order parity, which is what keeps wire formats stable);
//  - the canonical strided-lane reduction order, checked against an
//    independent reimplementation of the documented algorithm;
//  - the forced-dispatch matrix: every variant the host supports
//    (scalar / AVX2) must produce bit-identical results for every
//    kernel, including tails and the n == 0 edge cases;
//  - algo-level properties: identical seeded delta streams driven through
//    the four vertex programs under the scalar and each SIMD variant must
//    yield byte-identical serialized states and emitted updates.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "algos/kmeans.h"
#include "algos/pagerank.h"
#include "algos/sgd.h"
#include "algos/sssp.h"
#include "kernel/flat_map.h"
#include "kernel/kernels.h"
#include "kernel/small_vector.h"
#include "runtime/substrate.h"

namespace tornado {
namespace {

// ---------------------------------------------------------------------------
// SmallVector
// ---------------------------------------------------------------------------

TEST(SmallVectorTest, InlineThenHeapGrowth) {
  SmallVector<int, 4> v;
  EXPECT_TRUE(v.empty());
  for (int i = 0; i < 20; ++i) v.push_back(i);
  ASSERT_EQ(v.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(v[i], i);
  v.pop_back();
  EXPECT_EQ(v.size(), 19u);
}

TEST(SmallVectorTest, InsertAndEraseKeepOrder) {
  SmallVector<int, 2> v = {1, 3, 5};
  v.insert(v.begin() + 1, 2);
  v.insert(v.begin() + 3, 4);
  ASSERT_EQ(v.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(v[i], i + 1);
  v.erase(v.begin() + 2);
  EXPECT_EQ(v, (SmallVector<int, 2>{1, 2, 4, 5}));
}

TEST(SmallVectorTest, CopyMoveAndEquality) {
  SmallVector<std::string, 2> a = {"x", "y", "z"};
  SmallVector<std::string, 2> b = a;  // copy while heap-backed
  EXPECT_EQ(a, b);
  SmallVector<std::string, 2> c = std::move(a);
  EXPECT_EQ(c, b);
  SmallVector<std::string, 2> inline_only = {"p"};
  SmallVector<std::string, 2> d = std::move(inline_only);
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0], "p");
}

// ---------------------------------------------------------------------------
// FlatMap
// ---------------------------------------------------------------------------

TEST(FlatMapTest, MirrorsStdMapUnderRandomOps) {
  SubstrateRng substrate(2026);
  Rng rng = substrate.MakeRng(0x1);
  FlatMap<uint64_t, double, 4> flat;
  std::map<uint64_t, double> reference;
  for (int op = 0; op < 2000; ++op) {
    const uint64_t k = rng.NextUint64(64);
    switch (rng.NextUint64(3)) {
      case 0: {
        const double v = rng.NextDouble(-1.0, 1.0);
        flat[k] = v;
        reference[k] = v;
        break;
      }
      case 1: {
        auto [it, inserted] = flat.emplace(k, 0.5);
        auto [rit, rinserted] = reference.emplace(k, 0.5);
        EXPECT_EQ(inserted, rinserted);
        EXPECT_EQ(it->second, rit->second);
        break;
      }
      default:
        EXPECT_EQ(flat.erase(k), reference.erase(k));
        break;
    }
  }
  ASSERT_EQ(flat.size(), reference.size());
  // Iteration order — the wire-format guarantee — must match std::map's.
  auto rit = reference.begin();
  for (const auto& [k, v] : flat) {
    EXPECT_EQ(k, rit->first);
    EXPECT_EQ(v, rit->second);
    ++rit;
  }
}

TEST(FlatMapTest, LookupEraseAndIndexAccess) {
  FlatMap<uint32_t, int, 2> m;
  m[30] = 3;
  m[10] = 1;
  m[20] = 2;
  EXPECT_EQ(m.key_at(0), 10u);
  EXPECT_EQ(m.at_index(2), 3);
  EXPECT_EQ(m.at(20), 2);
  EXPECT_TRUE(m.contains(10));
  auto it = m.find(20);
  ASSERT_NE(it, m.end());
  it = m.erase(it);
  EXPECT_EQ(it->first, 30u);
  EXPECT_EQ(m.size(), 2u);
  EXPECT_FALSE(m.contains(20));
  EXPECT_EQ(m.erase(99u), 0u);
}

// ---------------------------------------------------------------------------
// Canonical reduction order
// ---------------------------------------------------------------------------

// Independent reimplementation of the documented canonical order (eight
// strided lanes, in-order tail fold, fixed combine tree) — the kernels
// must match this exactly at every dispatch level.
double ReferenceCanonicalSum(const std::vector<double>& x) {
  double lanes[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  size_t i = 0;
  for (; i + 8 <= x.size(); i += 8) {
    for (size_t j = 0; j < 8; ++j) lanes[j] += x[i + j];
  }
  for (size_t j = 0; i < x.size(); ++i, ++j) lanes[j] += x[i];
  const double a = lanes[0] + lanes[4];
  const double b = lanes[2] + lanes[6];
  const double c = lanes[1] + lanes[5];
  const double d = lanes[3] + lanes[7];
  return (a + b) + (c + d);
}

std::vector<double> RandomVec(Rng* rng, size_t n) {
  std::vector<double> x(n);
  for (double& v : x) v = rng->NextDouble(-1.0, 1.0);
  return x;
}

bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Same length, then every element bit-equal.
bool BitEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](double x, double y) { return BitEqual(x, y); });
}

TEST(KernelReductionTest, SumMatchesCanonicalReference) {
  SubstrateRng substrate(2026);
  Rng rng = substrate.MakeRng(0x2);
  for (const size_t n : {0, 1, 3, 7, 8, 9, 16, 31, 64, 67, 1000}) {
    const std::vector<double> x = RandomVec(&rng, n);
    EXPECT_TRUE(BitEqual(kernel::Kernels().sum(x.data(), n),
                         ReferenceCanonicalSum(x)))
        << "n=" << n;
  }
}

TEST(KernelReductionTest, MinOfEmptyIsInfinityAndHandlesTails) {
  EXPECT_EQ(kernel::Kernels().min(nullptr, 0),
            std::numeric_limits<double>::infinity());
  SubstrateRng substrate(2026);
  Rng rng = substrate.MakeRng(0x3);
  for (const size_t n : {1, 5, 8, 13, 64, 99}) {
    const std::vector<double> x = RandomVec(&rng, n);
    EXPECT_EQ(kernel::Kernels().min(x.data(), n),
              *std::min_element(x.begin(), x.end()))
        << "n=" << n;
  }
}

// ---------------------------------------------------------------------------
// Forced-dispatch matrix
// ---------------------------------------------------------------------------

struct KernelSnapshot {
  double sum, min, dot, sqdist;
  std::vector<double> add, axpy, scale_div, sgd;

  bool operator==(const KernelSnapshot& o) const {
    return BitEqual(sum, o.sum) && BitEqual(min, o.min) &&
           BitEqual(dot, o.dot) && BitEqual(sqdist, o.sqdist) &&
           BitEqual(add, o.add) && BitEqual(axpy, o.axpy) &&
           BitEqual(scale_div, o.scale_div) && BitEqual(sgd, o.sgd);
  }
};

KernelSnapshot RunAllKernels(const std::vector<double>& x,
                             const std::vector<double>& y) {
  const kernel::KernelOps& ops = kernel::Kernels();
  const size_t n = x.size();
  KernelSnapshot s;
  s.sum = ops.sum(x.data(), n);
  s.min = ops.min(x.data(), n);
  s.dot = ops.dot(x.data(), y.data(), n);
  s.sqdist = ops.sqdist(x.data(), y.data(), n);
  s.add = y;
  ops.add(s.add.data(), x.data(), n);
  s.axpy = y;
  ops.axpy(s.axpy.data(), -1.5, x.data(), n);
  s.scale_div.assign(n, 0.0);
  ops.scale_div(s.scale_div.data(), x.data(), 3.0, n);
  s.sgd = y;
  ops.sgd_step(s.sgd.data(), x.data(), 64.0, 0.1, 1e-4, n);
  return s;
}

TEST(KernelDispatchTest, ScalarAlwaysSupported) {
  const auto variants = kernel::SupportedKernelVariants();
  ASSERT_FALSE(variants.empty());
  EXPECT_EQ(variants.front(), kernel::KernelVariant::kScalar);
}

TEST(KernelDispatchTest, EverySupportedVariantIsBitIdentical) {
  SubstrateRng substrate(2026);
  Rng rng = substrate.MakeRng(0x4);
  for (const size_t n : {0, 1, 7, 8, 9, 24, 31, 256, 1001}) {
    const std::vector<double> x = RandomVec(&rng, n);
    const std::vector<double> y = RandomVec(&rng, n);
    ASSERT_TRUE(kernel::SetKernelVariant(kernel::KernelVariant::kScalar));
    const KernelSnapshot reference = RunAllKernels(x, y);
    for (const kernel::KernelVariant v : kernel::SupportedKernelVariants()) {
      ASSERT_TRUE(kernel::SetKernelVariant(v));
      EXPECT_TRUE(RunAllKernels(x, y) == reference)
          << "variant " << kernel::KernelVariantName(v) << " n=" << n;
    }
  }
  kernel::ResetKernelVariant();
}

TEST(KernelDispatchTest, ForceScalarEnvOverride) {
  ::setenv("TORNADO_FORCE_SCALAR", "1", 1);
  kernel::ResetKernelVariant();
  EXPECT_EQ(kernel::ActiveKernelVariant(), kernel::KernelVariant::kScalar);
  ::unsetenv("TORNADO_FORCE_SCALAR");
  kernel::ResetKernelVariant();
}

// ---------------------------------------------------------------------------
// Algo-level scalar-vs-SIMD property: identical seeded delta streams must
// produce byte-identical states and emissions under every variant.
// ---------------------------------------------------------------------------

/// A stand-in VertexContext recording emissions (a trimmed copy of the
/// program_unit_test fake; the kernels only see state and emissions).
class TraceContext : public VertexContext {
 public:
  TraceContext(VertexId id, LoopId loop, VertexState* state, uint64_t seed)
      : id_(id), loop_(loop), state_(state), rng_(seed) {}

  VertexId id() const override { return id_; }
  LoopId loop() const override { return loop_; }
  bool is_main_loop() const override { return loop_ == kMainLoop; }
  Iteration iteration() const override { return 0; }
  VertexState* state() override { return state_; }

  void AddTarget(VertexId target) override {
    if (std::find(targets_.begin(), targets_.end(), target) ==
        targets_.end()) {
      targets_.push_back(target);
    }
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
    for (VertexId t : targets_) Record(t, update);
  }
  void EmitTo(VertexId target, const VertexUpdate& update) override {
    Record(target, update);
  }
  void AddCost(double seconds) override { cost_ += seconds; }
  void AddProgress(double delta) override { progress_ += delta; }
  Rng* rng() override { return &rng_; }

  void FinishCommit() { retiring_.clear(); }

  /// Appends the run's observable side effects to `log` — emissions plus
  /// the accumulated cost/progress doubles (also variant-sensitive).
  void Flush(BufferWriter* log) {
    log->PutDouble(cost_);
    log->PutDouble(progress_);
  }

 private:
  void Record(VertexId target, const VertexUpdate& update) {
    emission_log.PutVarint(target);
    emission_log.PutVarint(static_cast<uint64_t>(update.kind));
    emission_log.PutDoubleVec(update.values);
  }

 public:
  BufferWriter emission_log;

 private:
  VertexId id_;
  LoopId loop_;
  VertexState* state_;
  std::vector<VertexId> targets_;
  std::vector<VertexId> retiring_;
  Rng rng_;
  double cost_ = 0.0;
  double progress_ = 0.0;
};

std::vector<uint8_t> TracePageRank(uint64_t seed) {
  PageRankProgram program(0.85, 1e-4);
  auto state = program.CreateState(1);
  TraceContext ctx(1, kMainLoop, state.get(), seed);
  Rng rng(seed);
  for (int round = 0; round < 30; ++round) {
    const uint64_t ops = 1 + rng.NextUint64(5);
    for (uint64_t i = 0; i < ops; ++i) {
      if (rng.NextUint64(4) == 0) {
        EdgeDelta e{1, 2 + rng.NextUint64(8), 1.0, rng.NextUint64(4) != 0};
        program.OnInput(ctx, Delta{e});
      } else {
        VertexUpdate u;
        u.kind = 0;
        u.values = {rng.NextUint64(8) == 0 ? 0.0 : rng.NextDouble(0.0, 2.0)};
        program.OnUpdate(ctx, 100 + rng.NextUint64(12), round, u);
      }
    }
    program.Scatter(ctx);
    ctx.FinishCommit();
  }
  BufferWriter log;
  state->Serialize(&log);
  ctx.Flush(&log);
  std::vector<uint8_t> out = log.Release();
  const auto& em = ctx.emission_log.data();
  out.insert(out.end(), em.begin(), em.end());
  return out;
}

std::vector<uint8_t> TraceSssp(uint64_t seed) {
  SsspProgram program(0);
  auto state = program.CreateState(5);
  TraceContext ctx(5, kMainLoop, state.get(), seed);
  Rng rng(seed);
  for (int round = 0; round < 30; ++round) {
    const uint64_t ops = 1 + rng.NextUint64(5);
    for (uint64_t i = 0; i < ops; ++i) {
      if (rng.NextUint64(4) == 0) {
        EdgeDelta e{5, 20 + rng.NextUint64(6),
                    1.0 + rng.NextDouble(0.0, 5.0), rng.NextUint64(4) != 0};
        program.OnInput(ctx, Delta{e});
      } else {
        VertexUpdate u;
        u.kind = 0;
        u.values = {rng.NextUint64(8) == 0 ? kSsspInfinity
                                           : rng.NextDouble(0.0, 50.0)};
        program.OnUpdate(ctx, 100 + rng.NextUint64(12), round, u);
      }
    }
    program.Scatter(ctx);
    ctx.FinishCommit();
  }
  BufferWriter log;
  state->Serialize(&log);
  ctx.Flush(&log);
  std::vector<uint8_t> out = log.Release();
  const auto& em = ctx.emission_log.data();
  out.insert(out.end(), em.begin(), em.end());
  return out;
}

std::vector<uint8_t> TraceKMeans(uint64_t seed) {
  KMeansOptions options;
  options.num_clusters = 3;
  options.num_shards = 2;
  options.dimensions = 5;
  KMeansProgram program(options);

  auto shard_state = program.CreateState(KMeansShardVertex(0));
  TraceContext shard(KMeansShardVertex(0), kMainLoop, shard_state.get(), seed);
  auto centroid_state = program.CreateState(KMeansCentroidVertex(0));
  TraceContext centroid(KMeansCentroidVertex(0), kMainLoop,
                        centroid_state.get(), seed ^ 1);
  PointDelta marker;
  marker.id = kKMeansInitMarker;
  program.OnInput(centroid, Delta{marker});

  Rng rng(seed);
  for (int round = 0; round < 20; ++round) {
    // Shard side: point churn plus centroid-position broadcasts.
    const uint64_t ops = 1 + rng.NextUint64(4);
    for (uint64_t i = 0; i < ops; ++i) {
      PointDelta p;
      p.id = rng.NextUint64(24);
      p.insert = rng.NextUint64(4) != 0;
      if (p.insert) {
        for (uint32_t d = 0; d < options.dimensions; ++d) {
          p.coords.push_back(rng.NextDouble(0.0, 10.0));
        }
      }
      program.OnInput(shard, Delta{p});
    }
    for (uint32_t k = 0; k < options.num_clusters; ++k) {
      if (rng.NextUint64(3) != 0) continue;
      VertexUpdate u;
      u.kind = 0;  // centroid position broadcast
      for (uint32_t d = 0; d < options.dimensions; ++d) {
        u.values.push_back(rng.NextDouble(0.0, 10.0));
      }
      program.OnUpdate(shard, KMeansCentroidVertex(k), round, u);
    }
    program.Scatter(shard);
    shard.FinishCommit();

    // Centroid side: partial-sum gathers from both shards.
    for (uint32_t s = 0; s < options.num_shards; ++s) {
      if (rng.NextUint64(3) == 0) continue;
      VertexUpdate u;
      u.kind = 1;  // partial sums: [count, sum_0..sum_{d-1}]
      u.values.push_back(static_cast<double>(1 + rng.NextUint64(9)));
      for (uint32_t d = 0; d < options.dimensions; ++d) {
        u.values.push_back(rng.NextDouble(0.0, 100.0));
      }
      program.OnUpdate(centroid, KMeansShardVertex(s), round, u);
    }
    program.Scatter(centroid);
    centroid.FinishCommit();
  }
  BufferWriter log;
  shard_state->Serialize(&log);
  centroid_state->Serialize(&log);
  shard.Flush(&log);
  centroid.Flush(&log);
  std::vector<uint8_t> out = log.Release();
  for (const auto* em : {&shard.emission_log, &centroid.emission_log}) {
    out.insert(out.end(), em->data().begin(), em->data().end());
  }
  return out;
}

std::vector<uint8_t> TraceSgd(uint64_t seed) {
  SgdOptions options;
  options.num_shards = 2;
  options.dimensions = 6;
  SgdProgram program(options);

  auto param_state = program.CreateState(kSgdParamVertex);
  TraceContext param(kSgdParamVertex, kMainLoop, param_state.get(), seed);
  InstanceDelta marker;
  marker.id = kSgdInitMarker;
  program.OnInput(param, Delta{marker});

  auto shard_state = program.CreateState(SgdShardVertex(0));
  TraceContext shard(SgdShardVertex(0), kMainLoop, shard_state.get(),
                     seed ^ 1);

  Rng rng(seed);
  for (int round = 0; round < 20; ++round) {
    // Shard side: instance arrivals plus a model broadcast, then a
    // stochastic gradient scatter (driven by the seeded context rng).
    const uint64_t ops = 1 + rng.NextUint64(4);
    for (uint64_t i = 0; i < ops; ++i) {
      InstanceDelta inst;
      inst.id = rng.NextUint64(1000);
      inst.label = rng.NextUint64(2) == 0 ? -1.0 : 1.0;
      for (uint32_t d = 0; d < options.dimensions; ++d) {
        inst.features.emplace_back(d, rng.NextDouble(-1.0, 1.0));
      }
      program.OnInput(shard, Delta{inst});
    }
    {
      VertexUpdate u;
      u.kind = 0;  // model broadcast
      for (uint32_t d = 0; d < options.dimensions; ++d) {
        u.values.push_back(rng.NextDouble(-0.5, 0.5));
      }
      program.OnUpdate(shard, kSgdParamVertex, round, u);
    }
    program.Scatter(shard);
    shard.FinishCommit();

    // Param side: gradient gathers (the kernel sgd_step) and a scatter.
    for (uint32_t s = 0; s < options.num_shards; ++s) {
      VertexUpdate u;
      u.kind = 1;  // gradient: [count, loss_sum, grad...]
      u.values.push_back(static_cast<double>(1 + rng.NextUint64(15)));
      u.values.push_back(rng.NextDouble(0.0, 3.0));
      for (uint32_t d = 0; d < options.dimensions; ++d) {
        u.values.push_back(rng.NextDouble(-1.0, 1.0));
      }
      program.OnUpdate(param, SgdShardVertex(s), round, u);
    }
    program.Scatter(param);
    param.FinishCommit();
  }
  BufferWriter log;
  param_state->Serialize(&log);
  shard_state->Serialize(&log);
  param.Flush(&log);
  shard.Flush(&log);
  std::vector<uint8_t> out = log.Release();
  for (const auto* em : {&param.emission_log, &shard.emission_log}) {
    out.insert(out.end(), em->data().begin(), em->data().end());
  }
  return out;
}

class AlgoKernelEquivalenceTest : public ::testing::Test {
 protected:
  void TearDown() override { kernel::ResetKernelVariant(); }

  template <typename TraceFn>
  void ExpectBitIdenticalAcrossVariants(TraceFn trace, const char* what) {
    SubstrateRng substrate(2026);
    for (uint64_t run = 0; run < 3; ++run) {
      const uint64_t seed = substrate.StreamSeed(0x8000 + run);
      ASSERT_TRUE(kernel::SetKernelVariant(kernel::KernelVariant::kScalar));
      const std::vector<uint8_t> reference = trace(seed);
      for (const kernel::KernelVariant v :
           kernel::SupportedKernelVariants()) {
        ASSERT_TRUE(kernel::SetKernelVariant(v));
        EXPECT_EQ(trace(seed), reference)
            << what << " diverged under " << kernel::KernelVariantName(v)
            << " (seed " << seed << ")";
      }
    }
  }
};

TEST_F(AlgoKernelEquivalenceTest, PageRank) {
  ExpectBitIdenticalAcrossVariants(&TracePageRank, "pagerank");
}

TEST_F(AlgoKernelEquivalenceTest, Sssp) {
  ExpectBitIdenticalAcrossVariants(&TraceSssp, "sssp");
}

TEST_F(AlgoKernelEquivalenceTest, KMeans) {
  ExpectBitIdenticalAcrossVariants(&TraceKMeans, "kmeans");
}

TEST_F(AlgoKernelEquivalenceTest, Sgd) {
  ExpectBitIdenticalAcrossVariants(&TraceSgd, "sgd");
}

}  // namespace
}  // namespace tornado
