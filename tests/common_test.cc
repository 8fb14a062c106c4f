// Unit tests for the foundation layer: Status/Result, Rng, Histogram,
// LamportClock, serialization, metrics.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>

#include "common/histogram.h"
#include "common/lamport_clock.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/serde.h"
#include "common/status.h"
#include "tests/test_util.h"

namespace tornado {
namespace {

// ---------------------------------------------------------------------------
// Status / Result
// ---------------------------------------------------------------------------

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, CarriesCodeAndMessage) {
  Status s = Status::NotFound("no such vertex");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NOT_FOUND: no such vertex");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::Aborted("x"), Status::Aborted("x"));
  EXPECT_FALSE(Status::Aborted("x") == Status::Aborted("y"));
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::Internal("boom"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, BoundedValuesStayInBounds) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextUint64(17), 17u);
    const int64_t v = rng.NextInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, UniformMeanIsCentered) {
  Rng rng(11);
  double sum = 0.0;
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) sum += rng.NextDouble();
  EXPECT_NEAR(sum / kN, 0.5, 0.01);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(13);
  double sum = 0.0, sum2 = 0.0;
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sum2 += g * g;
  }
  EXPECT_NEAR(sum / kN, 0.0, 0.02);
  EXPECT_NEAR(sum2 / kN, 1.0, 0.03);
}

TEST(RngTest, ZipfIsSkewedAndBounded) {
  Rng rng(17);
  std::map<uint64_t, int> counts;
  constexpr int kN = 50000;
  for (int i = 0; i < kN; ++i) {
    const uint64_t z = rng.NextZipf(1000, 1.2);
    ASSERT_LT(z, 1000u);
    counts[z]++;
  }
  // Rank 0 must dominate rank 99 heavily.
  EXPECT_GT(counts[0], 20 * std::max(1, counts[99]));
}

TEST(RngTest, NextBoolRespectsProbability) {
  Rng rng(19);
  int heads = 0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) heads += rng.NextBool(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(heads) / kN, 0.3, 0.01);
  EXPECT_FALSE(rng.NextBool(0.0));
  EXPECT_TRUE(rng.NextBool(1.0));
}

TEST(RngTest, ForkedStreamsAreIndependentAndDeterministic) {
  Rng a(31);
  Rng b(31);
  Rng fa = a.Fork();
  Rng fb = b.Fork();
  for (int i = 0; i < 32; ++i) EXPECT_EQ(fa.NextUint64(), fb.NextUint64());
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

TEST(HistogramTest, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Percentile(99), 0.0);
  EXPECT_EQ(h.Mean(), 0.0);
}

TEST(HistogramTest, BasicStats) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.Add(i);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.Mean(), 50.5);
  EXPECT_EQ(h.min(), 1.0);
  EXPECT_EQ(h.max(), 100.0);
  EXPECT_NEAR(h.Percentile(50), 50.5, 0.5);
  EXPECT_NEAR(h.Percentile(99), 99.0, 1.1);
}

TEST(HistogramTest, MergeCombinesSamples) {
  Histogram a, b;
  a.Add(1.0);
  b.Add(3.0);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.Mean(), 2.0);
}

TEST(HistogramTest, StddevOfConstantIsZero) {
  Histogram h;
  for (int i = 0; i < 10; ++i) h.Add(4.0);
  EXPECT_DOUBLE_EQ(h.Stddev(), 0.0);
}

// ---------------------------------------------------------------------------
// MetricRegistry distributions
// ---------------------------------------------------------------------------

TEST(MetricRegistryTest, ObserveFeedsNamedDistribution) {
  MetricRegistry metrics;
  EXPECT_EQ(metrics.GetHistogram("latency"), nullptr);
  metrics.Observe("latency", 0.5);
  metrics.Observe("latency", 1.5);
  const Histogram* h = metrics.GetHistogram("latency");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 2u);
  EXPECT_DOUBLE_EQ(h->Mean(), 1.0);
  EXPECT_NE(metrics.ToString().find("latency"), std::string::npos);
}

TEST(MetricRegistryTest, HandlesSurviveReset) {
  MetricRegistry metrics;
  Histogram& handle = metrics.HistogramHandle("staleness");
  handle.Add(2.0);
  std::atomic<int64_t>& counter = metrics.CounterHandle("commits");
  counter = 7;
  metrics.Reset();
  // Reset clears in place: both handles stay valid and read as empty.
  EXPECT_EQ(handle.count(), 0u);
  EXPECT_EQ(counter, 0);
  handle.Add(9.0);
  EXPECT_EQ(metrics.GetHistogram("staleness")->count(), 1u);
}

// ---------------------------------------------------------------------------
// LamportClock
// ---------------------------------------------------------------------------

TEST(LamportClockTest, TicksAreStrictlyIncreasing) {
  LamportClock clock(1);
  LamportTime prev = clock.Tick();
  for (int i = 0; i < 100; ++i) {
    const LamportTime next = clock.Tick();
    EXPECT_LT(prev, next);
    prev = next;
  }
}

TEST(LamportClockTest, WitnessAdvancesBeyondRemote) {
  LamportClock a(1), b(2);
  LamportTime ta;
  for (int i = 0; i < 10; ++i) ta = a.Tick();
  b.Witness(ta);
  EXPECT_GT(b.Tick(), ta);
}

TEST(LamportClockTest, NodeIdBreaksTies) {
  const LamportTime x{5, 1};
  const LamportTime y{5, 2};
  EXPECT_LT(x, y);
  EXPECT_NE(x, y);
}

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

TEST(SerdeTest, PrimitivesRoundTrip) {
  BufferWriter w;
  w.PutU8(7);
  w.PutU32(0xDEADBEEF);
  w.PutU64(~0ULL);
  w.PutDouble(3.14159);

  BufferReader r(w.data());
  uint8_t u8;
  uint32_t u32;
  uint64_t u64;
  double d;
  ASSERT_TRUE(r.GetU8(&u8).ok());
  ASSERT_TRUE(r.GetU32(&u32).ok());
  ASSERT_TRUE(r.GetU64(&u64).ok());
  ASSERT_TRUE(r.GetDouble(&d).ok());
  EXPECT_EQ(u8, 7);
  EXPECT_EQ(u32, 0xDEADBEEF);
  EXPECT_EQ(u64, ~0ULL);
  EXPECT_DOUBLE_EQ(d, 3.14159);
  EXPECT_TRUE(r.AtEnd());
}

class VarintRoundTrip : public ::testing::TestWithParam<uint64_t> {};

TEST_P(VarintRoundTrip, RoundTrips) {
  BufferWriter w;
  w.PutVarint(GetParam());
  BufferReader r(w.data());
  uint64_t v = 0;
  ASSERT_TRUE(r.GetVarint(&v).ok());
  EXPECT_EQ(v, GetParam());
  EXPECT_TRUE(r.AtEnd());
}

INSTANTIATE_TEST_SUITE_P(Boundaries, VarintRoundTrip,
                         ::testing::Values(0ULL, 1ULL, 127ULL, 128ULL,
                                           16383ULL, 16384ULL, (1ULL << 32),
                                           ~0ULL));

TEST(SerdeTest, VectorsRoundTrip) {
  BufferWriter w;
  w.PutDoubleVec({1.5, -2.5, std::numeric_limits<double>::infinity()});
  w.PutU64Vec({0, 42, ~0ULL});
  BufferReader r(w.data());
  std::vector<double> dv;
  std::vector<uint64_t> uv;
  ASSERT_TRUE(r.GetDoubleVec(&dv).ok());
  ASSERT_TRUE(r.GetU64Vec(&uv).ok());
  EXPECT_EQ(dv.size(), 3u);
  EXPECT_TRUE(std::isinf(dv[2]));
  EXPECT_EQ(uv, (std::vector<uint64_t>{0, 42, ~0ULL}));
}

// The encodings are the store and checkpoint format: pin them byte for byte
// (LEB128 varints, little-endian IEEE doubles, length-prefixed vectors).
TEST(SerdeTest, EncodingsArePinnedByteForByte) {
  BufferWriter w;
  for (uint64_t v : {0ULL, 1ULL, 127ULL, 128ULL, 300ULL, 16384ULL, ~0ULL}) {
    w.PutVarint(v);
  }
  w.PutDoubleVec({1.0, -2.5});
  w.PutDoubleVec({});
  w.PutU64Vec({5, 1000});
  const std::vector<uint8_t> want = {
      0x00, 0x01, 0x7F, 0x80, 0x01, 0xAC, 0x02, 0x80, 0x80, 0x01,  //
      0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01,  //
      0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xF0, 0x3F,        //
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0xC0,              //
      0x00,                                                        //
      0x02, 0x05, 0xE8, 0x07};
  EXPECT_EQ(w.data(), want);

  BufferReader r(want);
  for (uint64_t v : {0ULL, 1ULL, 127ULL, 128ULL, 300ULL, 16384ULL, ~0ULL}) {
    uint64_t got = 0;
    ASSERT_TRUE(r.GetVarint(&got).ok());
    EXPECT_EQ(got, v);
  }
  std::vector<double> dv = {9.0};
  ASSERT_TRUE(r.GetDoubleVec(&dv).ok());
  EXPECT_EQ(dv, (std::vector<double>{1.0, -2.5}));
  ASSERT_TRUE(r.GetDoubleVec(&dv).ok());
  EXPECT_TRUE(dv.empty());
}

TEST(SerdeTest, TruncatedDoubleVectorIsReported) {
  BufferWriter w;
  w.PutDoubleVec({1.0, 2.0});
  BufferReader r(w.data().data(), w.size() - 1);
  std::vector<double> dv;
  EXPECT_FALSE(r.GetDoubleVec(&dv).ok());
}

TEST(SerdeTest, TruncationIsReported) {
  BufferWriter w;
  w.PutU64(5);
  BufferReader r(w.data().data(), 3);  // cut mid-field
  uint64_t v;
  EXPECT_FALSE(r.GetU64(&v).ok());
}

TEST(SerdeTest, RandomRoundTripProperty) {
  Rng rng(99);
  for (int round = 0; round < 50; ++round) {
    BufferWriter w;
    std::vector<uint64_t> varints;
    std::vector<double> doubles;
    const int n = 1 + static_cast<int>(rng.NextUint64(20));
    for (int i = 0; i < n; ++i) {
      varints.push_back(rng.NextUint64() >> rng.NextUint64(64));
      doubles.push_back(rng.NextGaussian(0, 1e6));
    }
    for (int i = 0; i < n; ++i) {
      w.PutVarint(varints[i]);
      w.PutDouble(doubles[i]);
    }
    BufferReader r(w.data());
    for (int i = 0; i < n; ++i) {
      uint64_t v;
      double d;
      ASSERT_TRUE(r.GetVarint(&v).ok());
      ASSERT_TRUE(r.GetDouble(&d).ok());
      EXPECT_EQ(v, varints[i]);
      EXPECT_DOUBLE_EQ(d, doubles[i]);
    }
  }
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

TEST(MetricsTest, IncrementAndRead) {
  MetricRegistry m;
  EXPECT_EQ(m.Get("x"), 0);
  m.Inc("x");
  m.Inc("x", 4);
  EXPECT_EQ(m.Get("x"), 5);
  m.Reset();
  EXPECT_EQ(m.Get("x"), 0);
}

}  // namespace
}  // namespace tornado
