#ifndef TORNADO_NET_NETWORK_H_
#define TORNADO_NET_NETWORK_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <set>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "net/payload.h"
#include "runtime/substrate.h"
#include "sim/cost_model.h"
#include "sim/event_loop.h"

namespace tornado {

/// Transitional alias: the observer interface moved to the substrate seam
/// (runtime/substrate.h) when the transport became pluggable.
using NetworkObserver = TransportObserver;

/// The simulated cluster fabric: node registry, host NICs, reliable
/// channels (per-channel sequence numbers, transport acks, retransmission
/// with exponential backoff, receiver-side dedup) and failure injection.
/// This is the Transport implementation behind runtime::SimSubstrate.
///
/// This is the substitute for Storm's transportation layer (Section 5.1):
/// "it packages the messages from higher layers ... and ensures that
/// messages are delivered without any error", plus Section 5.3's
/// "when a sent message is not acknowledged in certain time, it will be
/// resent to ensure at-least-once message passing".
///
/// Latency jitter comes from per-node RNG streams: node i's stream is
/// derived from (seed, i) alone, data / retransmit jitter is drawn from
/// the *sender's* stream and ack jitter from the *receiver's*, so the
/// draw order inside each stream is that node's event order. Same-seed
/// traces depend on this draw schedule (docs/PERF.md, "Determinism
/// invariants").
class Network final : public Transport {
 public:
  Network(EventLoop* loop, CostModel cost, uint64_t seed = 1);

  /// Registers a node on a host. Node ids are assigned densely by the
  /// caller and must be unique. The node must outlive the network.
  void RegisterNode(Node* node, HostId host, double speed_factor = 1.0) override;

  /// Sends `payload` from `src` to `dst`. No-op if the sender is dead.
  void Send(NodeId src, NodeId dst, PayloadPtr payload, bool reliable) override;

  /// Schedules `fn` on `node`'s service queue after `delay` seconds.
  void ScheduleOnNode(NodeId node, double delay,
                      std::function<void()> fn) override;

  /// Charges extra cost to the handler currently running (if any).
  void AddHandlerCost(double seconds) override {
    handler_extra_cost_ += seconds;
  }

  /// Failure injection. Killing a node drops its inbox, its in-memory
  /// state and all unacknowledged outgoing messages; peers keep
  /// retransmitting into the void until recovery or retry exhaustion.
  void KillNode(NodeId id) override;
  void RecoverNode(NodeId id) override;
  bool IsAlive(NodeId id) const override;

  /// Link-level fault injection (one direction): while down, copies from
  /// `src` to `dst` are dropped at the sending host before any NIC or
  /// latency modeling, and transport acks whose reverse path is down are
  /// lost the same way. Reliable senders keep retransmitting (backoff
  /// capped) and the channel heals when the link is restored.
  void SetLinkDown(NodeId src, NodeId dst, bool down) override;
  bool IsLinkDown(NodeId src, NodeId dst) const {
    return !down_links_.empty() && down_links_.count(LinkKey(src, dst)) > 0;
  }

  /// Straggler injection: multiplies `id`'s message service time by
  /// `factor` from now on (1.0 restores nominal; registration
  /// speed_factor still applies multiplicatively).
  void SetNodeDelayFactor(NodeId id, double factor) override;

  double now() const override { return loop_->now(); }
  EventLoop* loop() { return loop_; }
  const CostModel& cost() const { return cost_; }
  MetricRegistry& metrics() override { return metrics_; }
  size_t node_count() const override { return nodes_.size(); }

  /// Subscribes `observer` to transport events (nullptr detaches). The
  /// observer must outlive the network; at most one is supported — the
  /// trace layer fans out internally if it ever needs to.
  void set_observer(TransportObserver* observer) override {
    observer_ = observer;
  }

  /// Messages accepted by Send but not yet handed to a service queue
  /// (in-flight or lost-awaiting-retransmission); the time-series sampler
  /// graphs this as transport backlog.
  int64_t InFlightCount() const override {
    return metrics_.Get(metric::kMessagesSent) -
           metrics_.Get(metric::kMessagesDelivered);
  }

  /// Service-queue depth of `id` (undelivered inbox entries).
  size_t InboxDepth(NodeId id) const override {
    return id < nodes_.size() ? nodes_[id].inbox.size() : 0;
  }

 private:
  struct InboxEntry {
    NodeId src = 0;
    PayloadPtr payload;                // null for timer entries
    std::function<void()> timer_fn;    // set for timer entries
  };

  struct NodeState {
    Node* node = nullptr;
    HostId host = 0;
    double speed = 1.0;
    double delay_factor = 1.0;  // straggler multiplier, schedule-driven
    bool alive = true;
    uint32_t incarnation = 0;
    Rng rng{0};  // latency jitter stream; derived from (seed, node id)
    std::deque<InboxEntry> inbox;
    double busy_until = 0.0;
    bool pump_scheduled = false;
  };

  struct HostState {
    double egress_busy = 0.0;
    double ingress_busy = 0.0;
  };

  // Sender-side reliable channel bookkeeping. Sequence numbers are dense
  // (next_seq++ per send), so the unacked set is a contiguous window
  // [base_seq, base_seq + window.size()) held in a deque — no per-message
  // map nodes — with `done` marking acked/dropped holes until the front
  // can advance. One deadline-ordered retransmit timer serves the whole
  // channel: it is armed at (a lower bound of) the earliest live deadline,
  // re-scanned and re-armed when it fires, and cancelled when the window
  // drains. Acks can only push the earliest deadline later, so leaving the
  // timer in place on ack keeps the bound valid at worst one spurious
  // wakeup per ack-timeout — far cheaper than the per-message timer
  // schedule/cancel churn this replaces.
  struct PendingSend {
    NodeId dst = 0;
    uint32_t dst_inc = 0;  // receiver incarnation the channel targets
    PayloadPtr payload;
    double timeout = 0.0;   // current backoff
    double deadline = 0.0;  // absolute next-retransmit time
    int retries = 0;
    bool done = false;  // acked (or dropped); awaiting front advance
  };
  struct SendChannel {
    uint32_t src_inc = 0;  // incarnations of the endpoints it connects
    uint32_t dst_inc = 0;
    uint64_t next_seq = 1;
    uint64_t base_seq = 1;  // seq of window.front()
    std::deque<PendingSend> window;
    size_t live = 0;  // window entries with done == false
    EventId timer = 0;
    double timer_deadline = 0.0;
  };

  // Receiver-side ordered-delivery bookkeeping per (src, src_incarnation):
  // reliable channels behave like TCP streams — duplicates are dropped and
  // out-of-order arrivals are held until the sequence gap fills.
  // Transport acks are coalesced, and their receive state (cumulative +
  // held sequences) is captured when the ack is *scheduled*, not when it
  // lands. Arrivals folded in while an ack is in flight mark
  // `followup_scheduled`; when the in-flight ack's apply time passes, a
  // receiver-local follow-up captures the newer state and schedules the
  // next ack. The capture points, the follow-up events and the jitter
  // drawn for them are part of the transport's RNG draw and event
  // schedule, which same-seed traces depend on (docs/PERF.md,
  // "Determinism invariants").
  struct HeldMessage {
    NodeId src = 0;
    PayloadPtr payload;
  };
  struct RecvChannel {
    uint32_t src_inc = 0;  // incarnations of the endpoints it connects
    uint32_t dst_inc = 0;
    uint64_t contiguous = 0;               // all seq <= this delivered
    std::map<uint64_t, HeldMessage> held;  // arrived out of order
    double ack_pending_until = -1.0;  // apply time of the in-flight ack
    bool followup_scheduled = false;  // a follow-up capture is queued
    double next_ack_lat = 0.0;        // latency drawn for the follow-up
  };

  // A channel is one "TCP connection": it exists between specific
  // incarnations of the two endpoints. Either endpoint restarting starts a
  // fresh channel with a fresh sequence space. A Link holds both ends of
  // every channel from `src` to `dst`: the sender's, one per receiver
  // incarnation it has sent to since its own start (KillNode clears them),
  // and the receiver's, one per sender incarnation it has heard from
  // since its own start (RecoverNode clears them). Outside failures each
  // list holds one channel. An unused link is two empty vectors: channels
  // (and their deques) are allocated on first use.
  struct Link {
    std::vector<SendChannel> send;
    std::vector<RecvChannel> recv;
  };

  static uint64_t LinkKey(NodeId src, NodeId dst) {
    return (static_cast<uint64_t>(src) << 32) | dst;
  }

  // The src -> dst link; sizes the table to the registered nodes first.
  Link& LinkOf(NodeId src, NodeId dst) {
    if (link_stride_ != nodes_.size()) ResizeLinks();
    return links_[src * link_stride_ + dst];
  }
  // Same, but null for a pair the table does not cover yet (no channel
  // can exist there).
  Link* FindLink(NodeId src, NodeId dst) {
    if (src >= link_stride_ || dst >= link_stride_) return nullptr;
    return &links_[src * link_stride_ + dst];
  }
  void ResizeLinks();
  // The channel between the given incarnations in `channels`, or null.
  // FindSend/FindRecv look it up on the src -> dst link.
  template <typename Channel>
  static Channel* FindChannel(std::vector<Channel>& channels,
                              uint32_t src_inc, uint32_t dst_inc) {
    for (Channel& ch : channels) {
      if (ch.src_inc == src_inc && ch.dst_inc == dst_inc) return &ch;
    }
    return nullptr;
  }
  SendChannel* FindSend(NodeId src, uint32_t src_inc, NodeId dst,
                        uint32_t dst_inc) {
    Link* link = FindLink(src, dst);
    return link == nullptr ? nullptr
                           : FindChannel(link->send, src_inc, dst_inc);
  }
  RecvChannel* FindRecv(NodeId src, uint32_t src_inc, NodeId dst,
                        uint32_t dst_inc) {
    Link* link = FindLink(src, dst);
    return link == nullptr ? nullptr
                           : FindChannel(link->recv, src_inc, dst_inc);
  }
  // Finds the channel, or opens it.
  template <typename Channel>
  static Channel& ChannelIn(std::vector<Channel>& channels, uint32_t src_inc,
                            uint32_t dst_inc) {
    if (Channel* ch = FindChannel(channels, src_inc, dst_inc)) return *ch;
    Channel& ch = channels.emplace_back();
    ch.src_inc = src_inc;
    ch.dst_inc = dst_inc;
    return ch;
  }

  void TransmitToHost(NodeId src, NodeId dst, uint32_t src_inc, uint64_t seq,
                      PayloadPtr payload, bool reliable, bool retransmit);
  void ArriveAtNode(NodeId src, NodeId dst, uint32_t src_inc,
                    uint32_t dst_inc, uint64_t seq, PayloadPtr payload,
                    bool reliable);
  void EnqueueAtNode(NodeId src, NodeId dst, PayloadPtr payload);
  void ScheduleAckApply(NodeId src, uint32_t src_inc, NodeId dst,
                        uint32_t dst_inc, double ack_lat, RecvChannel& rc);
  void ApplyAck(NodeId src, uint32_t src_inc, NodeId dst, uint32_t dst_inc,
                uint64_t cumulative, const std::vector<uint64_t>& sacks);
  void AckFollowup(NodeId src, uint32_t src_inc, NodeId dst,
                   uint32_t dst_inc);
  void EnsureChannelTimer(NodeId src, NodeId dst, SendChannel& ch,
                          double deadline);
  void ChannelTimerFired(NodeId src, uint32_t src_inc, NodeId dst,
                         uint32_t dst_inc);
  static void TrimWindow(SendChannel& ch);
  void SchedulePump(NodeId id);
  void Pump(NodeId id, uint32_t incarnation);
  double SampleLatency(NodeId node);

  EventLoop* loop_;
  CostModel cost_;
  uint64_t seed_;
  MetricRegistry metrics_;
  // Pre-resolved counter handles: one atomic add per event, no registry
  // lookup on the hot path.
  metric::Counter* c_sent_;
  metric::Counter* c_delivered_;
  metric::Counter* c_retransmitted_;
  metric::Counter* c_deduped_;
  metric::Counter* c_transport_acks_;
  metric::Counter* c_dropped_link_;
  metric::Counter* c_acks_dropped_link_;
  std::vector<NodeState> nodes_;
  std::vector<HostState> hosts_;
  // links_[src * link_stride_ + dst], sized to the node count when the
  // first channel is opened (and again if a node registers later).
  std::vector<Link> links_;
  size_t link_stride_ = 0;
  std::set<uint64_t> down_links_;  // LinkKey(src, dst) of one-way cuts
  double handler_extra_cost_ = 0.0;
  NetworkObserver* observer_ = nullptr;
};

}  // namespace tornado

#endif  // TORNADO_NET_NETWORK_H_
