#include "net/network.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace tornado {

Network::Network(EventLoop* loop, CostModel cost, uint64_t seed)
    : loop_(loop), cost_(cost), seed_(seed) {
  c_sent_ = &metrics_.CounterHandle(metric::kMessagesSent);
  c_delivered_ = &metrics_.CounterHandle(metric::kMessagesDelivered);
  c_retransmitted_ = &metrics_.CounterHandle(metric::kMessagesRetransmitted);
  c_deduped_ = &metrics_.CounterHandle(metric::kMessagesDeduped);
  c_transport_acks_ = &metrics_.CounterHandle(metric::kTransportAcks);
  c_dropped_link_ = &metrics_.CounterHandle(metric::kMessagesDroppedLink);
  c_acks_dropped_link_ = &metrics_.CounterHandle(metric::kAcksDroppedLink);
}

void Network::RegisterNode(Node* node, HostId host, double speed_factor) {
  TCHECK(node != nullptr);
  const NodeId id = static_cast<NodeId>(nodes_.size());
  Bind(node, id, this);
  NodeState state;
  state.node = node;
  state.host = host;
  state.speed = speed_factor;
  // Per-node jitter stream derived from (seed, id) alone, so a node's
  // draws depend only on its own event order.
  state.rng = Rng(seed_ + 0x9E3779B97F4A7C15ULL * (static_cast<uint64_t>(id) + 1));
  nodes_.push_back(std::move(state));
  if (host >= hosts_.size()) hosts_.resize(host + 1);
}

void Network::ResizeLinks() {
  const size_t n = nodes_.size();
  std::vector<Link> links(n * n);
  for (size_t src = 0; src < link_stride_; ++src) {
    for (size_t dst = 0; dst < link_stride_; ++dst) {
      links[src * n + dst] = std::move(links_[src * link_stride_ + dst]);
    }
  }
  links_ = std::move(links);
  link_stride_ = n;
}

double Network::SampleLatency(NodeId node) {
  const double jitter = nodes_[node].rng.NextDouble(1.0 - cost_.net_jitter,
                                                    1.0 + cost_.net_jitter);
  return cost_.net_latency * jitter;
}

void Network::Send(NodeId src, NodeId dst, PayloadPtr payload, bool reliable) {
  TCHECK_LT(src, nodes_.size());
  TCHECK_LT(dst, nodes_.size());
  NodeState& sender = nodes_[src];
  if (!sender.alive) return;
  c_sent_->fetch_add(1, std::memory_order_relaxed);
  if (observer_ != nullptr) observer_->OnSend(src, dst, *payload);

  uint64_t seq = 0;
  if (reliable) {
    const uint32_t dst_inc = nodes_[dst].incarnation;
    SendChannel& ch =
        ChannelIn(LinkOf(src, dst).send, sender.incarnation, dst_inc);
    seq = ch.next_seq++;
    PendingSend pending;
    pending.dst = dst;
    pending.dst_inc = dst_inc;
    pending.payload = payload;
    pending.timeout = cost_.ack_timeout;
    pending.deadline = loop_->now() + cost_.ack_timeout;
    const double deadline = pending.deadline;
    ch.window.push_back(std::move(pending));
    ++ch.live;
    EnsureChannelTimer(src, dst, ch, deadline);
  }
  TransmitToHost(src, dst, sender.incarnation, seq, std::move(payload),
                 reliable, /*retransmit=*/false);
}

void Network::TransmitToHost(NodeId src, NodeId dst, uint32_t src_inc,
                             uint64_t seq, PayloadPtr payload, bool reliable,
                             bool retransmit) {
  if (IsLinkDown(src, dst)) {
    // The copy dies at the sending host: no NIC time, no latency sample.
    // Reliable channels retry from their retransmit timer and succeed
    // once the link is restored; unreliable copies are simply lost.
    c_dropped_link_->fetch_add(1, std::memory_order_relaxed);
    return;
  }
  NodeState& sender = nodes_[src];
  NodeState& receiver = nodes_[dst];
  if (retransmit) c_retransmitted_->fetch_add(1, std::memory_order_relaxed);

  const uint32_t dst_inc = receiver.incarnation;
  double arrival = loop_->now();
  if (sender.host == receiver.host) {
    arrival += cost_.local_latency;
  } else {
    // Serialize through the sending host's NIC, cross the wire, then
    // serialize through the receiving host's NIC. NIC contention is what
    // saturates aggregate throughput when many workers share few hosts.
    HostState& egress = hosts_[sender.host];
    double start = std::max(arrival, egress.egress_busy);
    egress.egress_busy = start + cost_.nic_wire_time;
    arrival = egress.egress_busy + SampleLatency(src);
  }

  loop_->ScheduleAt(arrival, [this, src, dst, src_inc, dst_inc, seq,
                              payload = std::move(payload), reliable,
                              cross_host = sender.host != receiver.host]() {
    if (cross_host) {
      HostState& ingress = hosts_[nodes_[dst].host];
      const double start = std::max(loop_->now(), ingress.ingress_busy);
      ingress.ingress_busy = start + cost_.nic_wire_time;
      loop_->ScheduleAt(
          ingress.ingress_busy,
          [this, src, dst, src_inc, dst_inc, seq, payload, reliable]() {
            ArriveAtNode(src, dst, src_inc, dst_inc, seq, payload, reliable);
          });
    } else {
      ArriveAtNode(src, dst, src_inc, dst_inc, seq, payload, reliable);
    }
  });
}

void Network::ArriveAtNode(NodeId src, NodeId dst, uint32_t src_inc,
                           uint32_t dst_inc, uint64_t seq, PayloadPtr payload,
                           bool reliable) {
  NodeState& receiver = nodes_[dst];
  if (!receiver.alive) return;  // Dropped; the sender will retransmit.
  if (receiver.incarnation != dst_inc) {
    // The receiver restarted since this copy was transmitted; its channel
    // state (sequence space) was reset, so the stale copy must not be
    // interpreted under the new numbering. Retransmissions pick up the new
    // incarnation.
    return;
  }

  if (!reliable) {
    EnqueueAtNode(src, dst, std::move(payload));
    return;
  }

  // TCP-like per-channel semantics: drop duplicates, hold out-of-order
  // arrivals, deliver in sequence order. Delivery happens before the ack
  // below is captured, so the ack always covers this arrival.
  RecvChannel& rc = ChannelIn(LinkOf(src, dst).recv, src_inc, dst_inc);
  if (seq <= rc.contiguous || rc.held.count(seq) > 0) {
    c_deduped_->fetch_add(1, std::memory_order_relaxed);
  } else if (seq == rc.contiguous + 1) {
    // In order: deliver it, then whatever it unblocks from the hold.
    ++rc.contiguous;
    EnqueueAtNode(src, dst, std::move(payload));
    while (!rc.held.empty() && rc.held.begin()->first == rc.contiguous + 1) {
      HeldMessage next = std::move(rc.held.begin()->second);
      rc.held.erase(rc.held.begin());
      ++rc.contiguous;
      EnqueueAtNode(next.src, dst, std::move(next.payload));
    }
  } else {
    rc.held.emplace(seq, HeldMessage{src, std::move(payload)});
  }

  // Transport-level acknowledgement back to the sender (unreliable and
  // cheap; a lost ack only causes a duplicate, which dedup absorbs).
  // Coalesced: one in-flight ack per channel, carrying the receive state
  // (cumulative + held sequences) captured *now* — arrivals while it is
  // in flight mark a follow-up capture instead of scheduling their own
  // acks. The jitter sample is drawn per arrival (from the receiver's
  // stream) so the RNG stream — and with it every downstream
  // virtual-clock timestamp — is identical whether or not an arrival's
  // ack was folded into a pending one.
  const double ack_lat = SampleLatency(dst);
  if (IsLinkDown(dst, src)) {
    // Asymmetric-cut case: data still flows src -> dst, but the ack's
    // reverse path is down, so the ack is lost at the receiving host and
    // the sender keeps retransmitting into dedup (a gray failure). The
    // jitter sample above is still drawn to keep the RNG stream stable.
    c_acks_dropped_link_->fetch_add(1, std::memory_order_relaxed);
  } else if (loop_->now() >= rc.ack_pending_until) {
    ScheduleAckApply(src, src_inc, dst, dst_inc, ack_lat, rc);
    rc.ack_pending_until = loop_->now() + ack_lat;
  } else if (!rc.followup_scheduled) {
    rc.followup_scheduled = true;
    rc.next_ack_lat = ack_lat;
    loop_->ScheduleAt(rc.ack_pending_until,
                      [this, src, src_inc, dst, dst_inc]() {
                        AckFollowup(src, src_inc, dst, dst_inc);
                      });
  } else {
    rc.next_ack_lat = ack_lat;
  }
}

void Network::ScheduleAckApply(NodeId src, uint32_t src_inc, NodeId dst,
                               uint32_t dst_inc, double ack_lat,
                               RecvChannel& rc) {
  const double apply_time = loop_->now() + ack_lat;
  const uint64_t cumulative = rc.contiguous;
  std::vector<uint64_t> sacks;
  sacks.reserve(rc.held.size());
  for (const auto& [held_seq, held] : rc.held) {
    (void)held;
    sacks.push_back(held_seq);
  }
  loop_->ScheduleAt(apply_time,
                    [this, src, src_inc, dst, dst_inc, cumulative,
                     sacks = std::move(sacks)]() {
                      ApplyAck(src, src_inc, dst, dst_inc, cumulative, sacks);
                    });
}

void Network::AckFollowup(NodeId src, uint32_t src_inc, NodeId dst,
                          uint32_t dst_inc) {
  // The receiver restarted while the ack was in flight: its channel state
  // is gone, and the pending follow-up dies with it (the sender migrates
  // the messages to the new incarnation at the next retransmit).
  RecvChannel* found = FindRecv(src, src_inc, dst, dst_inc);
  if (found == nullptr) return;
  RecvChannel& rc = *found;
  rc.followup_scheduled = false;
  ScheduleAckApply(src, src_inc, dst, dst_inc, rc.next_ack_lat, rc);
  rc.ack_pending_until = loop_->now() + rc.next_ack_lat;
}

void Network::EnqueueAtNode(NodeId src, NodeId dst, PayloadPtr payload) {
  c_delivered_->fetch_add(1, std::memory_order_relaxed);
  if (observer_ != nullptr) observer_->OnDeliver(src, dst, *payload);
  nodes_[dst].inbox.push_back(InboxEntry{src, std::move(payload), nullptr});
  SchedulePump(dst);
}

void Network::TrimWindow(SendChannel& ch) {
  while (!ch.window.empty() && ch.window.front().done) {
    ch.window.pop_front();
    ++ch.base_seq;
  }
}

void Network::ApplyAck(NodeId src, uint32_t src_inc, NodeId dst,
                       uint32_t dst_inc, uint64_t cumulative,
                       const std::vector<uint64_t>& sacks) {
  c_transport_acks_->fetch_add(1, std::memory_order_relaxed);
  NodeState& sender = nodes_[src];
  if (!sender.alive || sender.incarnation != src_inc) return;
  SendChannel* found = FindSend(src, src_inc, dst, dst_inc);
  if (found == nullptr) return;
  SendChannel& ch = *found;

  // Cumulative prefix: everything at or below `cumulative` is received.
  while (!ch.window.empty() && ch.base_seq <= cumulative) {
    if (!ch.window.front().done) --ch.live;
    ch.window.pop_front();
    ++ch.base_seq;
  }
  // Selective part: sequences the receiver held out-of-order when the ack
  // was captured (already sorted — rc.held iterates in sequence order).
  for (const uint64_t held_seq : sacks) {
    if (held_seq < ch.base_seq) continue;
    const size_t idx = static_cast<size_t>(held_seq - ch.base_seq);
    if (idx >= ch.window.size()) continue;
    PendingSend& p = ch.window[idx];
    if (!p.done) {
      p.done = true;
      p.payload.reset();
      --ch.live;
    }
  }
  TrimWindow(ch);

  if (ch.live == 0) {
    ch.window.clear();
    ch.base_seq = ch.next_seq;
    if (ch.timer != 0) {
      loop_->Cancel(ch.timer);
      ch.timer = 0;
    }
  }
  // Otherwise the armed timer stays: acks only remove deadlines, so it
  // still lower-bounds the earliest live one and re-arms itself on fire.
}

void Network::EnsureChannelTimer(NodeId src, NodeId dst, SendChannel& ch,
                                 double deadline) {
  if (ch.timer != 0 && ch.timer_deadline <= deadline) return;
  if (ch.timer != 0) loop_->Cancel(ch.timer);
  ch.timer_deadline = deadline;
  ch.timer = loop_->ScheduleAt(
      deadline, [this, src, src_inc = ch.src_inc, dst, dst_inc = ch.dst_inc]() {
        ChannelTimerFired(src, src_inc, dst, dst_inc);
      });
}

void Network::ChannelTimerFired(NodeId src, uint32_t src_inc, NodeId dst,
                                uint32_t dst_inc) {
  SendChannel* found = FindSend(src, src_inc, dst, dst_inc);
  if (found == nullptr) return;
  SendChannel& ch = *found;
  ch.timer = 0;

  NodeState& sender = nodes_[src];
  if (!sender.alive || sender.incarnation != src_inc) {
    // A dead incarnation's channel (KillNode normally erased it already).
    std::vector<SendChannel>& channels = FindLink(src, dst)->send;
    channels.erase(channels.begin() + (found - channels.data()));
    return;
  }

  const double now = loop_->now();
  double next_deadline = 0.0;
  bool has_next = false;
  // Receiver-restart migrations are deferred: Send() may add a channel to
  // this link, so nothing may touch `ch` after the first migration.
  std::vector<std::pair<NodeId, PayloadPtr>> migrate;

  for (size_t i = 0; i < ch.window.size(); ++i) {
    PendingSend& p = ch.window[i];
    if (p.done) continue;
    if (p.deadline > now) {
      if (!has_next || p.deadline < next_deadline) next_deadline = p.deadline;
      has_next = true;
      continue;
    }
    const uint64_t seq = ch.base_seq + i;
    if (nodes_[p.dst].incarnation != p.dst_inc) {
      // The receiver restarted: this channel is dead. Migrate the message
      // onto a fresh channel toward the new incarnation (at-least-once
      // across receiver restarts, Section 5.3).
      c_retransmitted_->fetch_add(1, std::memory_order_relaxed);
      migrate.emplace_back(p.dst, std::move(p.payload));
      p.done = true;
      --ch.live;
      continue;
    }
    if (++p.retries > 64) {
      TLOG_WARN << "dropping message after 64 retransmissions (dst=" << p.dst
                << ")";
      p.done = true;
      p.payload.reset();
      --ch.live;
      continue;
    }
    p.timeout = std::min(p.timeout * 2.0, cost_.ack_timeout_max);
    p.deadline = now + p.timeout;
    if (!has_next || p.deadline < next_deadline) next_deadline = p.deadline;
    has_next = true;
    TransmitToHost(src, p.dst, src_inc, seq, p.payload, /*reliable=*/true,
                   /*retransmit=*/true);
  }
  TrimWindow(ch);
  if (ch.live == 0) {
    ch.window.clear();
    ch.base_seq = ch.next_seq;
  } else if (has_next) {
    EnsureChannelTimer(src, dst, ch, next_deadline);
  }

  for (auto& [migrate_dst, payload] : migrate) {
    Send(src, migrate_dst, std::move(payload), /*reliable=*/true);
  }
}

void Network::ScheduleOnNode(NodeId id, double delay,
                             std::function<void()> fn) {
  TCHECK_LT(id, nodes_.size());
  const uint32_t inc = nodes_[id].incarnation;
  loop_->Schedule(delay, [this, id, inc, fn = std::move(fn)]() {
    NodeState& ns = nodes_[id];
    if (!ns.alive || ns.incarnation != inc) return;
    ns.inbox.push_back(InboxEntry{id, nullptr, fn});
    SchedulePump(id);
  });
}

void Network::SchedulePump(NodeId id) {
  NodeState& ns = nodes_[id];
  if (ns.pump_scheduled || ns.inbox.empty()) return;
  ns.pump_scheduled = true;
  const uint32_t inc = ns.incarnation;
  const double start = std::max(loop_->now(), ns.busy_until);
  loop_->ScheduleAt(start, [this, id, inc]() { Pump(id, inc); });
}

void Network::Pump(NodeId id, uint32_t incarnation) {
  NodeState& ns = nodes_[id];
  ns.pump_scheduled = false;
  if (!ns.alive || ns.incarnation != incarnation || ns.inbox.empty()) return;

  InboxEntry entry = std::move(ns.inbox.front());
  ns.inbox.pop_front();

  handler_extra_cost_ = 0.0;
  if (entry.timer_fn) {
    entry.timer_fn();
  } else {
    ns.node->OnMessage(entry.src, *entry.payload);
  }
  // delay_factor is 1.0 outside straggler injection, so the expression —
  // and with it every same-seed virtual timestamp — is unchanged then.
  const double service =
      (cost_.per_message_cpu / ns.speed + handler_extra_cost_ / ns.speed) *
      ns.delay_factor;
  handler_extra_cost_ = 0.0;
  ns.busy_until = loop_->now() + service;

  if (!ns.inbox.empty() && ns.alive && ns.incarnation == incarnation) {
    SchedulePump(id);
  }
}

void Network::KillNode(NodeId id) {
  TCHECK_LT(id, nodes_.size());
  NodeState& ns = nodes_[id];
  if (!ns.alive) return;
  ns.alive = false;
  ns.inbox.clear();
  // The crashed process loses its send-side channel state: cancel its
  // (single, per-channel) retransmission timers.
  for (NodeId dst = 0; id < link_stride_ && dst < link_stride_; ++dst) {
    Link& link = links_[id * link_stride_ + dst];
    for (const SendChannel& ch : link.send) {
      if (ch.timer != 0) loop_->Cancel(ch.timer);
    }
    link.send.clear();
  }
  TLOG_INFO << "node " << id << " killed at t=" << loop_->now();
  if (observer_ != nullptr) observer_->OnNodeKilled(id);
}

void Network::RecoverNode(NodeId id) {
  TCHECK_LT(id, nodes_.size());
  NodeState& ns = nodes_[id];
  if (ns.alive) return;
  ns.alive = true;
  ns.incarnation++;
  ns.busy_until = loop_->now();
  ns.inbox.clear();
  ns.pump_scheduled = false;
  // Receiver-side channel state of old incarnations is garbage now; the
  // incarnation bump means senders open fresh channels (and migrate their
  // unacknowledged messages onto them at the next retransmission).
  for (NodeId src = 0; id < link_stride_ && src < link_stride_; ++src) {
    links_[src * link_stride_ + id].recv.clear();
  }
  TLOG_INFO << "node " << id << " recovered at t=" << loop_->now();
  if (observer_ != nullptr) observer_->OnNodeRecovered(id);
  ns.node->OnRestart();
}

bool Network::IsAlive(NodeId id) const {
  TCHECK_LT(id, nodes_.size());
  return nodes_[id].alive;
}

void Network::SetLinkDown(NodeId src, NodeId dst, bool down) {
  TCHECK_LT(src, nodes_.size());
  TCHECK_LT(dst, nodes_.size());
  if (down) {
    if (down_links_.insert(LinkKey(src, dst)).second) {
      TLOG_INFO << "link " << src << " -> " << dst << " down at t="
                << loop_->now();
    }
  } else if (down_links_.erase(LinkKey(src, dst)) > 0) {
    TLOG_INFO << "link " << src << " -> " << dst << " restored at t="
              << loop_->now();
  }
}

void Network::SetNodeDelayFactor(NodeId id, double factor) {
  TCHECK_LT(id, nodes_.size());
  TCHECK_GT(factor, 0.0);
  nodes_[id].delay_factor = factor;
  TLOG_INFO << "node " << id << " delay factor = " << factor
            << " at t=" << loop_->now();
}

}  // namespace tornado
