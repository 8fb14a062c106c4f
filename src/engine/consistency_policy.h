#ifndef TORNADO_ENGINE_CONSISTENCY_POLICY_H_
#define TORNADO_ENGINE_CONSISTENCY_POLICY_H_

#include <cstdint>

#include "common/types.h"

namespace tornado {

/// How far asynchrony may run ahead of the last terminated iteration τ:
/// the *policy* half of the bounded asynchronous iteration model (Section
/// 4.4), kept apart from the protocol *mechanism*. Its one parameter is
/// the delay bound B. B = 1 is lock-step synchronous execution (every
/// commit clamps to τ and skips the prepare round, Table 2's zero-PREPARE
/// row); Table 2's "unbounded" row is B = 65536. B = 0 means 1.
class ConsistencyPolicy {
 public:
  explicit ConsistencyPolicy(uint64_t delay_bound)
      : delta_(delay_bound == 0 ? 1 : delay_bound) {}

  /// Highest iteration a commit may land at while `tau` is the first
  /// not-yet-terminated iteration (the paper's τ + B − 1). Commits whose
  /// minimum iteration exceeds this stall until τ advances; commits
  /// exactly at it skip the prepare round (no consumer can report later).
  Iteration CommitHorizon(Iteration tau) const { return tau + delta_ - 1; }

  /// Whether an arriving update tagged `iteration` must be buffered until
  /// τ advances instead of being gathered now (Section 4.4's rule:
  /// updates of iteration τ + B − 1 wait for iteration τ to terminate).
  bool ShouldBlock(Iteration iteration, Iteration tau) const {
    return iteration >= CommitHorizon(tau);
  }

  /// Where converged branch results merge back into the parent loop
  /// (τ + B, Section 5.2): beyond the horizon, so in-window producers
  /// keep committing in-window and the per-vertex merge floor discards
  /// their in-transit updates.
  Iteration MergeIteration(Iteration tau) const { return tau + delta_; }

 private:
  uint64_t delta_;
};

}  // namespace tornado

#endif  // TORNADO_ENGINE_CONSISTENCY_POLICY_H_
