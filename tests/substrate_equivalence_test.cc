// Cross-backend equivalence (docs/RUNTIME.md): the same job must behave
// identically on the deterministic simulation across runs (byte-identical
// causal trace), and the thread backend — real OS threads, wall clock,
// in-process mailboxes — must converge to the same pagerank fixed point
// once both backends have ingested the identical stream.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "algos/pagerank.h"
#include "check/invariant_checker.h"
#include "core/cluster.h"
#include "runtime/thread_substrate.h"
#include "stream/graph_stream.h"
#include "trace/trace_recorder.h"

namespace tornado {
namespace {

constexpr uint64_t kVertices = 80;
constexpr uint64_t kTuples = 500;

// Trace-comparing runs must not overflow the recorder. The full
// fixed-point workload above records tens of millions of events (the
// 1e-12 branch relaxation runs thousands of iterations), so the
// byte-identity test runs a compact variant — byte-identity is a
// property of the simulation machinery, not of convergence depth — with
// the recorder sized well above the run and a zero-drop assertion.
constexpr uint64_t kTraceVertices = 16;
constexpr uint64_t kTraceTuples = 100;
constexpr double kTraceTolerance = 1e-7;
constexpr size_t kTraceMaxEvents = 4'000'000;

// Workload knobs for one RunToFixedPoint call; defaults reproduce the
// full fixed-point run the rank-comparison tests use.
struct RunParams {
  uint64_t vertices = kVertices;
  uint64_t tuples = kTuples;
  double tolerance = 1e-12;
};

constexpr RunParams kTraceRun = {kTraceVertices, kTraceTuples,
                                 kTraceTolerance};

JobConfig MakeConfig(SubstrateBackend backend, const RunParams& params) {
  JobConfig config;
  // The default tolerance sits far below the comparison bound: the
  // branch loops then relax all the way to the (unique) fixed point of
  // the final graph, so both backends must agree to ~1e-11 even though
  // their main loops took different paths to it.
  config.program = std::make_shared<PageRankProgram>(/*damping=*/0.85,
                                                     params.tolerance);
  config.delay_bound = 64;
  config.num_processors = 4;  // thread backend: >= 4 real node threads
  config.num_hosts = 2;
  config.ingest_rate = 8000.0;
  config.merge_branches = true;
  config.seed = 42;
  config.backend = backend;
  return config;
}

GraphStreamOptions MakeStream(const RunParams& params) {
  GraphStreamOptions options;
  options.num_vertices = params.vertices;
  options.num_tuples = params.tuples;
  options.preferential = 0.7;
  options.deletion_ratio = 0.05;
  return options;
}

// Ingests the whole stream, queries the final graph, and returns the
// converged branch ranks keyed by vertex. The invariant checker rides
// along; any protocol violation fails the test.
std::map<VertexId, double> RunToFixedPoint(SubstrateBackend backend,
                                           std::string* trace_json,
                                           const RunParams& params = {}) {
  JobConfig config = MakeConfig(backend, params);

  // Declared before the cluster: observers must outlive it (on the thread
  // backend, node threads report into the checker until Shutdown joins).
  CheckObserver::Options check_options;
  check_options.abort_on_violation = false;
  CheckObserver checker(check_options);

  TornadoCluster cluster(config,
                         std::make_unique<GraphStream>(MakeStream(params)));
  cluster.AddEngineObserver(&checker);

  if (trace_json != nullptr) cluster.EnableTracing(kTraceMaxEvents);

  cluster.Start();
  EXPECT_TRUE(cluster.RunUntilEmitted(params.tuples, 600.0));
  cluster.ingester().Pause();
  cluster.RunFor(0.3);  // drain in-flight input

  const uint64_t query = cluster.ingester().SubmitQuery();
  EXPECT_TRUE(cluster.RunUntilQueryDone(query, 600.0));
  const LoopId branch = cluster.BranchOf(query);

  std::map<VertexId, double> ranks;
  for (VertexId v = 0; v < params.vertices; ++v) {
    auto state = cluster.ReadVertexState(branch, v);
    if (state == nullptr) continue;
    ranks[v] = static_cast<const PageRankState&>(*state).rank;
  }
  EXPECT_FALSE(ranks.empty());

  cluster.DeepCheckInvariants();
  EXPECT_TRUE(checker.violations().empty())
      << checker.violations().size() << " protocol violations on the "
      << cluster.substrate().name() << " backend, first: "
      << (checker.violations().empty()
              ? ""
              : checker.violations()[0].invariant + ": " +
                    checker.violations()[0].detail);

  if (trace_json != nullptr) {
    EXPECT_EQ(cluster.trace()->dropped(), 0u)
        << "trace overflow voids the byte-identity comparison; raise "
           "kTraceMaxEvents";
    std::ostringstream os;
    cluster.trace()->WriteChromeTrace(os);
    *trace_json = os.str();
  }
  return ranks;
}

TEST(SubstrateEquivalenceTest, SimRunsAreByteIdentical) {
  std::string trace_a;
  std::string trace_b;
  const auto ranks_a =
      RunToFixedPoint(SubstrateBackend::kSim, &trace_a, kTraceRun);
  const auto ranks_b =
      RunToFixedPoint(SubstrateBackend::kSim, &trace_b, kTraceRun);

  ASSERT_FALSE(trace_a.empty());
  // The full causal trace — every event, timestamp, and argument — must
  // match byte for byte: the sim backend's determinism guarantee.
  EXPECT_EQ(trace_a, trace_b);
  EXPECT_EQ(ranks_a, ranks_b);
}

TEST(SubstrateEquivalenceTest, ThreadBackendReachesSimFixedPoint) {
  const auto sim_ranks = RunToFixedPoint(SubstrateBackend::kSim, nullptr);
  const auto thread_ranks =
      RunToFixedPoint(SubstrateBackend::kThread, nullptr);

  // Both backends ingested the identical stream (it is exhausted before
  // the query), so the branch loops solve the same system and must land
  // on the same fixed point.
  ASSERT_EQ(sim_ranks.size(), thread_ranks.size());
  double max_delta = 0.0;
  for (const auto& [vertex, rank] : sim_ranks) {
    const auto it = thread_ranks.find(vertex);
    ASSERT_NE(it, thread_ranks.end()) << "vertex " << vertex;
    max_delta = std::max(max_delta, std::fabs(rank - it->second));
  }
  EXPECT_LE(max_delta, 1e-9) << "backends diverged by " << max_delta;
}

// --- Mailbox contention --------------------------------------------------
//
// Many node threads hammering a single target mailbox is the thread
// backend's worst case for the per-node Mutex in ThreadTransport::NodeRec.
// This test exists to run under the thread-substrate TSan CI job: any
// unguarded access on the mailbox path (enqueue vs. drain vs. depth
// probes) shows up as a data race here.

struct PingMsg final : Payload {
  const char* name() const override { return "ping"; }
};

class SinkNode final : public Node {
 public:
  void OnMessage(NodeId /*src*/, const Payload& /*msg*/) override {
    received_.fetch_add(1, std::memory_order_relaxed);
  }

  int64_t received() const {
    return received_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<int64_t> received_{0};
};

// Sends `bursts` batches of `per_burst` messages at the sink, yielding
// back to its own mailbox between batches so deliveries from all hammers
// interleave rather than serialize.
class HammerNode final : public Node {
 public:
  HammerNode(NodeId sink, int bursts, int per_burst)
      : sink_(sink), bursts_left_(bursts), per_burst_(per_burst) {}

  void OnMessage(NodeId /*src*/, const Payload& /*msg*/) override {}

  void Kick() {
    ScheduleSelf(0.0, [this] { Burst(); });
  }

 private:
  void Burst() {
    for (int i = 0; i < per_burst_; ++i) {
      Send(sink_, std::make_shared<PingMsg>(), /*reliable=*/true);
    }
    if (--bursts_left_ > 0) ScheduleSelf(0.0, [this] { Burst(); });
  }

  const NodeId sink_;
  int bursts_left_;  // touched only on this node's service thread
  const int per_burst_;
};

TEST(SubstrateEquivalenceTest, ThreadMailboxContentionDrainsClean) {
  constexpr int kHammers = 16;
  constexpr int kBursts = 20;
  constexpr int kPerBurst = 25;
  constexpr int64_t kExpected =
      static_cast<int64_t>(kHammers) * kBursts * kPerBurst;

  // Nodes are declared before the substrate so the substrate's
  // destructor (which joins the service threads) runs first on any
  // early-exit path.
  SinkNode sink;
  std::vector<std::unique_ptr<HammerNode>> hammers;
  for (int i = 0; i < kHammers; ++i) {
    hammers.push_back(
        std::make_unique<HammerNode>(/*sink=*/0, kBursts, kPerBurst));
  }

  ThreadSubstrate substrate(/*base_seed=*/7);
  substrate.thread_transport()->RegisterNode(&sink, /*host=*/0,
                                             /*speed_factor=*/1.0);
  ASSERT_EQ(sink.id(), 0u);
  for (auto& hammer : hammers) {
    substrate.thread_transport()->RegisterNode(hammer.get(), /*host=*/1,
                                               /*speed_factor=*/1.0);
    hammer->Kick();  // queued behind the start gate until Start()
  }

  substrate.Start();
  const bool drained = substrate.RunUntil(
      [&] {
        return sink.received() == kExpected &&
               substrate.thread_transport()->InFlightCount() == 0;
      },
      /*timeout=*/120.0, /*check_every=*/0.001);
  EXPECT_TRUE(drained) << "delivered " << sink.received() << " of "
                       << kExpected << ", in flight "
                       << substrate.thread_transport()->InFlightCount();
  substrate.Shutdown();

  EXPECT_EQ(sink.received(), kExpected);
  EXPECT_EQ(substrate.thread_transport()->InFlightCount(), 0u);
  EXPECT_EQ(substrate.thread_transport()->InboxDepth(0), 0u);
}

// --- Shutdown ordering -----------------------------------------------------
//
// Send() is lossless on the thread backend, so a run that ends the
// instant after a burst must still deliver every accepted message: each
// mailbox is drained when its service thread observes stop.

TEST(SubstrateEquivalenceTest, ThreadShutdownDeliversAcceptedMessages) {
  constexpr int64_t kCount = 200;

  SinkNode sink;
  ThreadSubstrate substrate(/*base_seed=*/11);
  substrate.thread_transport()->RegisterNode(&sink, /*host=*/0,
                                             /*speed_factor=*/1.0);
  substrate.Start();
  // Race the burst against Shutdown: the sink's service thread has had no
  // time to drain 200 messages when stop is raised, so most of them are
  // still queued and only the stop-time drain can deliver them.
  for (int64_t i = 0; i < kCount; ++i) {
    substrate.thread_transport()->Send(/*src=*/0, /*dst=*/0,
                                       std::make_shared<PingMsg>(),
                                       /*reliable=*/true);
  }
  substrate.Shutdown();

  EXPECT_EQ(sink.received(), kCount);
  EXPECT_EQ(substrate.thread_transport()->InFlightCount(), 0);
  EXPECT_EQ(substrate.thread_transport()->InboxDepth(0), 0u);
}

}  // namespace
}  // namespace tornado
