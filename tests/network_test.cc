// Unit tests for the simulated transport: ordered reliable delivery,
// dedup, retransmission into dead nodes, failure/recovery semantics,
// service-queue cost accounting, NIC saturation.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/network.h"
#include "sim/event_loop.h"
#include "tests/test_util.h"

namespace tornado {
namespace {

struct TestPayload : Payload {
  explicit TestPayload(int v) : value(v) {}
  int value;
  const char* name() const override { return "Test"; }
};

/// Records everything it receives.
class SinkNode : public Node {
 public:
  void OnMessage(NodeId src, const Payload& msg) override {
    received.emplace_back(src, static_cast<const TestPayload&>(msg).value);
    if (extra_cost > 0.0) AddCost(extra_cost);
  }
  void OnRestart() override { ++restarts; }

  std::vector<std::pair<NodeId, int>> received;
  double extra_cost = 0.0;
  int restarts = 0;
};

class NetworkTest : public ::testing::Test {
 protected:
  void Init(int nodes, int hosts, CostModel cost = CostModel()) {
    network = std::make_unique<Network>(&loop, cost, /*seed=*/5);
    for (int i = 0; i < nodes; ++i) {
      auto node = std::make_unique<SinkNode>();
      network->RegisterNode(node.get(), i % hosts);
      sinks.push_back(std::move(node));
    }
  }

  void Send(NodeId from, NodeId to, int value, bool reliable = true) {
    network->Send(from, to, std::make_shared<TestPayload>(value), reliable);
  }

  EventLoop loop;
  std::unique_ptr<Network> network;
  std::vector<std::unique_ptr<SinkNode>> sinks;
};

TEST_F(NetworkTest, DeliversMessages) {
  Init(2, 2);
  Send(0, 1, 42);
  loop.Run();
  ASSERT_EQ(sinks[1]->received.size(), 1u);
  EXPECT_EQ(sinks[1]->received[0], (std::pair<NodeId, int>{0, 42}));
}

TEST_F(NetworkTest, ReliableChannelPreservesSendOrder) {
  // Latency jitter would reorder datagrams; the reliable channel must not.
  // Each input streams 200 messages under heavy jitter, so arrivals take
  // both the in-order path and the out-of-order hold.
  //
  // The second input kills and recovers the receiver mid-stream. The old
  // incarnation keeps the in-order prefix it got. The sender then migrates
  // every message the old incarnation had not acknowledged onto a fresh
  // channel of the same link, and the new incarnation receives those in
  // order. Messages that were delivered but whose ack died with the
  // receiver (41, 50, ...) arrive twice, once per incarnation. Messages
  // the receiver held out of order and selectively acknowledged (69, 71,
  // ...) die with it: rolling the computation back is the engine's job.
  // Neither incarnation sees a duplicate copy on its own channel.
  constexpr int kN = 200;
  std::vector<int> in_order(kN);
  for (int i = 0; i < kN; ++i) in_order[i] = i;
  std::vector<int> crashed(in_order.begin(), in_order.begin() + 65);
  for (int v : {41, 50, 53, 54, 57, 59, 61, 62, 64, 65, 66, 67, 68, 70, 73,
                74}) {
    crashed.push_back(v);
  }
  crashed.insert(crashed.end(), in_order.begin() + 77, in_order.end());

  struct Input {
    double kill_after;  // seconds after the first send; < 0: no failure
    std::vector<int> delivered;
  };
  for (const Input& input : {Input{-1.0, in_order}, Input{1.2e-3, crashed}}) {
    SCOPED_TRACE(input.kill_after);
    network.reset();
    sinks.clear();
    CostModel cost;
    cost.net_jitter = 0.9;  // heavy jitter
    Init(2, 2, cost);
    for (int i = 0; i < kN; ++i) Send(0, 1, i);
    if (input.kill_after >= 0.0) {
      loop.RunUntil(loop.now() + input.kill_after);
      network->KillNode(1);
      network->RecoverNode(1);
    }
    loop.Run();

    std::vector<int> got;
    for (const auto& [src, value] : sinks[1]->received) got.push_back(value);
    EXPECT_EQ(got, input.delivered);
    EXPECT_EQ(network->metrics().Get(metric::kMessagesDeduped), 0);
  }
}

TEST_F(NetworkTest, NodeRegisteredAfterTrafficKeepsOpenChannels) {
  // Registering a node regrows the channel table; channels already open
  // keep their sequence space, so the stream continues without a gap.
  Init(2, 2);
  for (int i = 0; i < 5; ++i) Send(0, 1, i);
  loop.RunUntil(loop.now() + 1e-4);  // some copies still in flight
  auto late = std::make_unique<SinkNode>();
  network->RegisterNode(late.get(), 0);
  sinks.push_back(std::move(late));
  for (int i = 5; i < 10; ++i) Send(0, 1, i);
  Send(0, 2, 100);
  loop.Run();
  ASSERT_EQ(sinks[1]->received.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(sinks[1]->received[i].second, i);
  ASSERT_EQ(sinks[2]->received.size(), 1u);
  EXPECT_EQ(network->metrics().Get(metric::kMessagesRetransmitted), 0);
}

TEST_F(NetworkTest, InterleavedChannelsEachStayOrdered) {
  Init(3, 3);
  for (int i = 0; i < 50; ++i) {
    Send(0, 2, i);
    Send(1, 2, 1000 + i);
  }
  loop.Run();
  ASSERT_EQ(sinks[2]->received.size(), 100u);
  int last0 = -1, last1 = 999;
  for (const auto& [src, value] : sinks[2]->received) {
    if (src == 0) {
      EXPECT_GT(value, last0);
      last0 = value;
    } else {
      EXPECT_GT(value, last1);
      last1 = value;
    }
  }
}

TEST_F(NetworkTest, MessagesToDeadNodesAreRetransmittedUntilRecovery) {
  Init(2, 2);
  network->KillNode(1);
  Send(0, 1, 7);
  loop.RunUntil(0.4);  // ack timeout is 0.25s: at least one retransmission
  EXPECT_TRUE(sinks[1]->received.empty());
  network->RecoverNode(1);
  loop.Run();
  ASSERT_EQ(sinks[1]->received.size(), 1u);
  EXPECT_EQ(sinks[1]->received[0].second, 7);
  EXPECT_GT(network->metrics().Get(metric::kMessagesRetransmitted), 0);
}

TEST_F(NetworkTest, DeadSenderDoesNotSend) {
  Init(2, 2);
  network->KillNode(0);
  Send(0, 1, 9);
  loop.Run();
  EXPECT_TRUE(sinks[1]->received.empty());
}

TEST_F(NetworkTest, RecoveryCallsOnRestartBeforeNewDeliveries) {
  Init(2, 2);
  network->KillNode(1);
  loop.RunUntil(0.1);
  network->RecoverNode(1);
  Send(0, 1, 5);
  loop.Run();
  EXPECT_EQ(sinks[1]->restarts, 1);
  ASSERT_EQ(sinks[1]->received.size(), 1u);
}

TEST_F(NetworkTest, NoDuplicateDeliveriesUnderRetransmission) {
  // Force retransmissions by keeping the receiver dead briefly; after
  // recovery every message must arrive exactly once, in order.
  Init(2, 2);
  for (int i = 0; i < 10; ++i) Send(0, 1, i);
  loop.RunUntil(0.01);
  network->KillNode(1);
  network->RecoverNode(1);  // channel state reset; retransmits re-deliver
  loop.Run();
  // Exactly-once within an incarnation: values 0..9 at most once each and
  // in order (some may be lost to the crash — the engine's rollback covers
  // that; here we assert no duplicates and order preservation).
  int last = -1;
  for (const auto& [src, value] : sinks[1]->received) {
    EXPECT_GT(value, last);
    last = value;
  }
}

TEST_F(NetworkTest, HandlerCostSerializesProcessing) {
  CostModel cost;
  Init(2, 2, cost);
  sinks[1]->extra_cost = 0.05;
  for (int i = 0; i < 4; ++i) Send(0, 1, i);
  loop.Run();
  // 4 messages, each costing ~0.05s of service: the virtual clock must
  // reflect the serialized handling (>= 3 * 0.05 after the first starts).
  EXPECT_GE(loop.now(), 0.15);
  EXPECT_EQ(sinks[1]->received.size(), 4u);
}

TEST_F(NetworkTest, ScheduleOnNodeRespectsIncarnation) {
  Init(2, 2);
  bool fired = false;
  network->ScheduleOnNode(1, 0.2, [&]() { fired = true; });
  network->KillNode(1);
  network->RecoverNode(1);
  loop.Run();
  EXPECT_FALSE(fired) << "timer from a previous incarnation must not fire";
}

TEST_F(NetworkTest, LocalMessagesSkipTheNic) {
  // Two nodes on one host exchange messages with tiny latency.
  Init(2, 1);
  Send(0, 1, 1);
  loop.Run();
  EXPECT_LT(loop.now(), 1e-3);
}

TEST_F(NetworkTest, SharedNicSerializesCrossHostTraffic) {
  // Many senders on one host: aggregate egress is capped by the NIC wire
  // time, so the last delivery lands no earlier than N * wire_time.
  CostModel cost;
  cost.nic_wire_time = 1e-4;
  Init(3, 2, cost);  // nodes 0,2 on host 0; node 1 on host 1
  constexpr int kN = 100;
  for (int i = 0; i < kN; ++i) Send(0, 1, i);
  loop.Run();
  EXPECT_GE(loop.now(), kN * cost.nic_wire_time);
  EXPECT_EQ(sinks[1]->received.size(), static_cast<size_t>(kN));
}

TEST_F(NetworkTest, MetricsCountTraffic) {
  Init(2, 2);
  for (int i = 0; i < 5; ++i) Send(0, 1, i);
  loop.Run();
  EXPECT_EQ(network->metrics().Get(metric::kMessagesSent), 5);
  EXPECT_EQ(network->metrics().Get(metric::kMessagesDelivered), 5);
}


TEST_F(NetworkTest, BurstCoalescesAcksAndFiresFewerEventsPerMessage) {
  // Steady-state event cost per delivered reliable message. The old
  // transport fired at least four events per message on a cross-host burst
  // (egress NIC hop, ingress NIC hop, one transport ack per message, plus
  // ~one service-queue pump); cumulative acks fold the per-message ack
  // events away, so the burst must land strictly below that bound.
  Init(2, 2);
  constexpr int kN = 200;
  for (int i = 0; i < kN; ++i) Send(0, 1, i);
  const uint64_t fired = loop.Run();

  ASSERT_EQ(sinks[1]->received.size(), static_cast<size_t>(kN));
  for (int i = 0; i < kN; ++i) EXPECT_EQ(sinks[1]->received[i].second, i);
  EXPECT_EQ(network->metrics().Get(metric::kMessagesDelivered), kN);
  EXPECT_EQ(network->metrics().Get(metric::kMessagesRetransmitted), 0);

  EXPECT_LT(fired, static_cast<uint64_t>(3.5 * kN))
      << "per-message-ack transports cannot go below 4 events/message";
  // Arrivals spaced one NIC wire time apart share acks that travel one
  // network latency: coalescing must collapse them well below one ack per
  // message (each ack covers ~net_latency / nic_wire_time arrivals).
  const int64_t acks = network->metrics().Get(metric::kTransportAcks);
  EXPECT_GT(acks, 0);
  EXPECT_LT(acks, kN / 2);
}

}  // namespace
}  // namespace tornado
