#ifndef TORNADO_RUNTIME_SUBSTRATE_H_
#define TORNADO_RUNTIME_SUBSTRATE_H_

#include <cstdint>
#include <functional>
#include <utility>

#include "common/metrics.h"
#include "common/rng.h"
#include "net/payload.h"

namespace tornado {

/// The runtime substrate seam (ROADMAP: "pluggable real-time substrate").
///
/// Everything above the transport layer — engine, core actors, trace,
/// storage flush scheduling — talks to these interfaces instead of the
/// concrete sim::EventLoop / net::Network types, so the same three-phase
/// protocol runs either on the deterministic discrete-event simulation
/// (the correctness oracle) or on real threads for honest wall-clock
/// numbers. Rule RUN-001 (tools/lint) enforces the seam: no concrete
/// sim/net includes outside src/sim/, src/net/ and src/runtime/sim_*.
///
/// See docs/RUNTIME.md for the interface contract and the determinism
/// rules each backend must obey.

/// Handle for a scheduled timer. Generation-tagged like sim::EventId
/// (PR-4 slab semantics): a stale handle cancels nothing. 0 is the
/// reserved "no timer" sentinel.
using TimerId = uint64_t;

/// A monotonically advancing clock. Virtual (simulated seconds) on the
/// sim backend, wall (steady-clock seconds since substrate start) on the
/// thread backend.
class Clock {
 public:
  virtual ~Clock() = default;

  /// Seconds since the substrate epoch.
  virtual double now() const = 0;

  /// True when time is simulated: callers may then rely on determinism
  /// and on time only advancing between events.
  virtual bool is_virtual() const = 0;
};

/// Timer facility over a Clock. Callbacks fire on the substrate's timer
/// context — the event loop for the sim backend, a dedicated timer
/// thread for the thread backend (handlers there must be thread-safe or
/// re-post to a node's service queue via Transport::ScheduleOnNode).
class Scheduler : public Clock {
 public:
  /// Runs `fn` after `delay` seconds. Returns a generation-tagged handle.
  virtual TimerId ScheduleAfter(double delay, std::function<void()> fn) = 0;

  /// Runs `fn` at absolute time `when` (clamped to now if in the past).
  virtual TimerId ScheduleAt(double when, std::function<void()> fn) = 0;

  /// Cancels a pending timer. Safe on fired/cancelled/zero handles.
  virtual void Cancel(TimerId id) = 0;
};

/// Hook interface over transport events, mirroring EngineObserver one
/// layer down: the trace subsystem subscribes to record message flow and
/// failure-injector activity without the transport knowing about tracing.
/// Callbacks run synchronously inside the transport; implementations must
/// not call back into it. On the thread backend, OnSend fires on the
/// sending node's thread and OnDeliver on the receiving node's thread —
/// observers attached there must be thread-safe.
class TransportObserver {
 public:
  virtual ~TransportObserver() = default;

  /// `src` handed `payload` to the transport, addressed to `dst` (fires
  /// once per logical send, not per retransmission).
  virtual void OnSend(NodeId /*src*/, NodeId /*dst*/,
                      const Payload& /*payload*/) {}

  /// `payload` reached `dst`'s service queue (post dedup/reordering).
  virtual void OnDeliver(NodeId /*src*/, NodeId /*dst*/,
                         const Payload& /*payload*/) {}

  /// Failure injection: `node` was killed / recovered.
  virtual void OnNodeKilled(NodeId /*node*/) {}
  virtual void OnNodeRecovered(NodeId /*node*/) {}
};

class Transport;

/// An actor attached to the transport: a processor, the master, or an
/// ingester. Messages are delivered one at a time through a single-server
/// service queue per node — the event-loop pump on the sim backend, a
/// dedicated mailbox thread on the thread backend — so handler code never
/// needs internal locking for its own state. Handlers can charge extra
/// virtual CPU time via AddCost() (a no-op on real threads, where CPU
/// time is spent, not modeled).
class Node {
 public:
  virtual ~Node() = default;

  /// Handles one delivered message. Runs on the node's service context.
  virtual void OnMessage(NodeId src, const Payload& msg) = 0;

  /// Called after the node recovers from a failure, before any new message
  /// is delivered. In-memory state is gone; reload from durable storage.
  virtual void OnRestart() {}

  NodeId id() const { return id_; }
  Transport* transport() const { return transport_; }

 protected:
  /// Sends a message to another node (reliable by default: acknowledged,
  /// retransmitted, deduplicated).
  inline void Send(NodeId dst, PayloadPtr payload, bool reliable = true);

  /// Schedules a callback on this node's service queue after `delay`
  /// seconds. The callback is dropped if the node fails meanwhile.
  inline void ScheduleSelf(double delay, std::function<void()> fn);

  /// Charges extra virtual CPU time to the message currently being handled.
  inline void AddCost(double seconds);

  inline double now() const;

 private:
  friend class Transport;
  NodeId id_ = 0;
  Transport* transport_ = nullptr;
};

/// The cluster fabric: node registry, reliable + unreliable channels,
/// per-node single-server service queues, failure injection (where the
/// backend supports it) and transport metrics.
///
/// This is the substitute for Storm's transportation layer (Section 5.1):
/// "it packages the messages from higher layers ... and ensures that
/// messages are delivered without any error", plus Section 5.3's
/// at-least-once resend contract. net::Network is the simulated
/// implementation; runtime::ThreadTransport is the real-thread one.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Registers a node on a host. Node ids are assigned densely in
  /// registration order. The node must outlive the transport.
  virtual void RegisterNode(Node* node, HostId host,
                            double speed_factor = 1.0) = 0;

  /// Sends `payload` from `src` to `dst`. No-op if the sender is dead.
  virtual void Send(NodeId src, NodeId dst, PayloadPtr payload,
                    bool reliable) = 0;

  /// Schedules `fn` on `node`'s service queue after `delay` seconds.
  virtual void ScheduleOnNode(NodeId node, double delay,
                              std::function<void()> fn) = 0;

  /// Charges extra cost to the handler currently running (if any).
  /// No-op on backends where CPU time is real.
  virtual void AddHandlerCost(double seconds) = 0;

  /// Failure injection. Killing a node drops its inbox, its in-memory
  /// state and all unacknowledged outgoing messages. Backends without
  /// failure support TCHECK-fail.
  virtual void KillNode(NodeId id) = 0;
  virtual void RecoverNode(NodeId id) = 0;
  virtual bool IsAlive(NodeId id) const = 0;

  /// Link-level fault injection: while `down`, traffic from `src` to
  /// `dst` is silently dropped at the sending host — one direction only,
  /// so asymmetric (gray) failures are expressible; cut both directions
  /// for a full partition edge. Reliable channels keep retransmitting and
  /// recover once the link is restored; transport acks crossing a downed
  /// reverse link are lost too. Backends without failure support
  /// TCHECK-fail.
  virtual void SetLinkDown(NodeId src, NodeId dst, bool down) = 0;

  /// Straggler injection: multiplies `id`'s per-message service time by
  /// `factor` (> 0; 1.0 restores nominal speed). Unlike the static
  /// registration speed_factor this can change mid-run on a schedule.
  /// Backends without failure support TCHECK-fail.
  virtual void SetNodeDelayFactor(NodeId id, double factor) = 0;

  /// Current substrate time (same epoch as the substrate Clock).
  virtual double now() const = 0;

  virtual MetricRegistry& metrics() = 0;
  virtual size_t node_count() const = 0;

  /// Subscribes `observer` to transport events (nullptr detaches). The
  /// observer must outlive the transport; at most one is supported — the
  /// trace layer fans out internally if it ever needs to.
  virtual void set_observer(TransportObserver* observer) = 0;

  /// Messages accepted by Send but not yet handed to a service queue
  /// (in-flight or lost-awaiting-retransmission); the time-series sampler
  /// graphs this as transport backlog.
  virtual int64_t InFlightCount() const = 0;

  /// Service-queue depth of `id` (undelivered inbox entries).
  virtual size_t InboxDepth(NodeId id) const = 0;

 protected:
  /// Binds `node` to this transport under `id`. Implementations call this
  /// from RegisterNode; it is the only writer of Node's identity fields.
  static void Bind(Node* node, NodeId id, Transport* transport) {
    node->id_ = id;
    node->transport_ = transport;
  }
};

inline void Node::Send(NodeId dst, PayloadPtr payload, bool reliable) {
  transport_->Send(id_, dst, std::move(payload), reliable);
}

inline void Node::ScheduleSelf(double delay, std::function<void()> fn) {
  transport_->ScheduleOnNode(id_, delay, std::move(fn));
}

inline void Node::AddCost(double seconds) {
  transport_->AddHandlerCost(seconds);
}

inline double Node::now() const { return transport_->now(); }

/// Seed-derivation helper: one base seed fans out into independent named
/// streams so components never share (or collide on) raw seeds. The
/// transport stream tag preserves the historical `seed ^ 0xA5A5A5A5`
/// network-seed derivation; the transport then fans that seed out into
/// per-node latency streams (net/network.h).
class SubstrateRng {
 public:
  static constexpr uint64_t kTransportStream = 0xA5A5A5A5ULL;
  static constexpr uint64_t kThreadStream = 0x7E57AB1E00000000ULL;
  /// Scenario fuzzing (src/scenario/fuzzer.h): per-run mutation streams
  /// are kFuzzMutationStream + run index.
  static constexpr uint64_t kFuzzMutationStream = 0xF0220000'00000000ULL;

  explicit SubstrateRng(uint64_t base_seed) : base_(base_seed) {}

  uint64_t base() const { return base_; }

  /// Seed for the named stream `tag`.
  uint64_t StreamSeed(uint64_t tag) const { return base_ ^ tag; }

  /// Fresh generator over the named stream. Per-thread generators on the
  /// thread backend use kThreadStream + thread index.
  Rng MakeRng(uint64_t tag) const { return Rng(StreamSeed(tag)); }

 private:
  uint64_t base_;
};

/// A complete runtime backend: clock + scheduler + transport + the drive
/// loop the cluster runs on. Owns its components; accessors stay valid
/// until destruction. Shutdown() must be called (and return) before any
/// registered Node is destroyed — on the thread backend it joins the node
/// threads.
class Substrate {
 public:
  virtual ~Substrate() = default;

  virtual const char* name() const = 0;

  /// True when the backend guarantees bit-identical same-seed runs.
  virtual bool is_deterministic() const = 0;

  virtual Clock* clock() = 0;
  virtual Scheduler* scheduler() = 0;
  virtual Transport* transport() = 0;
  const Clock* clock() const {
    return const_cast<Substrate*>(this)->clock();
  }

  const SubstrateRng& rng() const { return rng_; }

  /// Drives the substrate until `pred()` holds or `timeout` seconds pass
  /// (substrate seconds: virtual on sim, wall on threads), sampling the
  /// predicate every `check_every` seconds. Returns pred() at exit.
  virtual bool RunUntil(const std::function<bool()>& pred, double timeout,
                        double check_every) = 0;

  /// Advances the substrate by `seconds`.
  virtual void RunFor(double seconds) = 0;

  /// Opens the substrate for traffic. The cluster calls this after every
  /// node's Start() so backend wiring (thread backend: the mailbox start
  /// gate) can hold deliveries until driver-side setup is complete. No-op
  /// on backends that need no gate.
  virtual void Start() {}

  /// Stops timers and joins any worker threads. Idempotent.
  virtual void Shutdown() {}

 protected:
  explicit Substrate(uint64_t base_seed) : rng_(base_seed) {}

  SubstrateRng rng_;
};

}  // namespace tornado

#endif  // TORNADO_RUNTIME_SUBSTRATE_H_
