#ifndef TORNADO_ALGOS_SSSP_H_
#define TORNADO_ALGOS_SSSP_H_

#include <limits>
#include <vector>

#include "core/vertex_program.h"
#include "kernel/flat_map.h"

namespace tornado {

inline constexpr double kSsspInfinity =
    std::numeric_limits<double>::infinity();

/// Per-vertex state of the single-source shortest-path program. Hot
/// containers are sorted flat SoA maps (kernel/flat_map.h); iteration
/// order — and the serialized wire format — is identical to the std::map
/// layout this replaced, and the contiguous candidate array feeds the
/// SIMD min kernel.
struct SsspState : VertexState {
  /// Current shortest distance from the source (0 at the source itself).
  double length = kSsspInfinity;

  /// Outgoing edges: target -> multiset of weights (the stream is a
  /// multigraph; parallel edges arrive and retract independently).
  FlatMap<VertexId, std::vector<double>, 4> out_edges;

  /// Candidate distances received from producers: producer -> length
  /// through that producer (already including the edge weight). Keeping
  /// all candidates makes retractions (edge deletions, Appendix B's
  /// REMOVE_TARGET) converge to the correct, possibly larger, distance.
  FlatMap<VertexId, double, 8> candidates;

  /// Last value emitted to each target, to suppress no-op re-emissions.
  FlatMap<VertexId, double, 8> last_sent;

  /// True when `candidates` changed since `length` was last recomputed.
  /// In-memory memo only — never serialized: states persist at commit,
  /// after Scatter refreshed the length.
  bool length_stale = false;

  void Serialize(BufferWriter* writer) const override;

  /// Unconditionally recomputes `length` from the candidate set (kernel
  /// min reduction); returns it. EnsureLength is the memoized entry point.
  double Recompute(bool is_source);

  double EnsureLength(bool is_source) {
    if (length_stale) Recompute(is_source);
    return length;
  }
};

/// Weighted single-source shortest paths over a retractable edge stream —
/// the workload of Figures 5a, 8a, 8c, 8d and Tables 2 and 3.
///
/// The same code runs in the main loop (as the incremental approximation g;
/// the paper: "As the incremental method of SSSP can catch up with the
/// speed of data evolvement, we use it to approximate the results at each
/// instant") and in branch loops (as the exact method f).
///
/// With `batch_mode`, the main loop gathers edges but never emits —
/// Appendix B's doBatchProcessing — so branch loops start from the default
/// initial guess; the delay-bound and fault-tolerance experiments use this
/// to study pure branch-loop behaviour.
///
/// Gathering a candidate only marks the minimum stale; the re-reduction is
/// deferred to Scatter (the memoized flag).
class SsspProgram : public VertexProgram {
 public:
  /// `max_distance` caps propagated distances: candidates at or above it
  /// are treated as unreachable. This bounds the count-to-infinity rounds
  /// that edge retractions can otherwise trigger on cyclic graphs (the
  /// classic distance-vector pathology). Pick it larger than any real
  /// distance in the workload.
  explicit SsspProgram(VertexId source, bool batch_mode = false,
                       double max_distance = 1e4)
      : source_(source), batch_mode_(batch_mode), max_distance_(max_distance) {}

  std::unique_ptr<VertexState> CreateState(VertexId id) const override;
  std::unique_ptr<VertexState> DeserializeState(
      BufferReader* reader) const override;

  bool OnInput(VertexContext& ctx, const Delta& delta) const override;
  bool OnUpdate(VertexContext& ctx, VertexId source, Iteration iteration,
                const VertexUpdate& update) const override;
  void Scatter(VertexContext& ctx) const override;

  /// Forces every remembered emission to be re-sent on the next Scatter —
  /// including infinity retractions — by poisoning the memo with NaN.
  void OnRestore(VertexState* state) const override;

  bool ActivateOnFork(const VertexState& state) const override {
    // In batch mode nothing was propagated in the main loop, so every
    // vertex must start active ("all vertices are assigned with the
    // initial value", Appendix B).
    (void)state;
    return batch_mode_;
  }

  VertexId source() const { return source_; }

 private:
  /// Upserts one candidate; returns whether the candidate set changed.
  bool ApplyCandidate(SsspState* state, VertexId source,
                      const VertexUpdate& update) const;

  VertexId source_;
  bool batch_mode_;
  double max_distance_;
};

}  // namespace tornado

#endif  // TORNADO_ALGOS_SSSP_H_
