#ifndef TORNADO_ALGOS_PAGERANK_H_
#define TORNADO_ALGOS_PAGERANK_H_

#include "core/vertex_program.h"
#include "kernel/flat_map.h"

namespace tornado {

/// Per-vertex PageRank state. Hot containers are sorted flat SoA maps
/// (kernel/flat_map.h): iteration order — and therefore the serialized
/// wire format — is identical to the std::map layout this replaced, while
/// the contiguous value arrays feed the SIMD batch kernels.
struct PageRankState : VertexState {
  /// Unnormalized rank: r = (1 - d) + d * sum of incoming contributions.
  /// (The N-free formulation standard in vertex-centric engines; dividing
  /// by the vertex count recovers the probabilistic PageRank.)
  double rank = 1.0;

  /// Outgoing multigraph edges: target -> parallel edge count.
  FlatMap<VertexId, uint32_t, 8> edge_counts;
  uint64_t out_degree = 0;  // total outgoing edge count

  /// Incoming contributions by producer.
  FlatMap<VertexId, double, 8> contributions;

  /// Last contribution emitted per target (suppresses no-op re-emissions;
  /// changes below the program tolerance are not propagated, which is what
  /// lets the asynchronous loop quiesce).
  FlatMap<VertexId, double, 8> last_sent;

  /// True when `contributions` changed since `rank` was last recomputed.
  /// Starts true: the stored 1.0 is only a placeholder until the first
  /// Scatter derives the real rank (0.15 for a contribution-less vertex).
  /// In-memory memo only — never serialized: states persist at commit,
  /// after Scatter refreshed the rank.
  bool rank_stale = true;

  void Serialize(BufferWriter* writer) const override;

  /// Unconditionally re-sums contributions (canonical kernel sum) and
  /// refreshes `rank`. EnsureRank is the memoized entry point.
  double Recompute(double damping);

  double EnsureRank(double damping) {
    if (rank_stale) Recompute(damping);
    return rank;
  }
};

/// Incremental PageRank over a retractable edge stream (Figures 5b, 9,
/// Table 3). The main loop keeps relaxing ranks as edges arrive — the
/// approximation whose error the branch loops resolve. Gathering a
/// contribution only marks the rank stale; the re-sum is deferred to
/// Scatter (the memoized flag).
class PageRankProgram : public VertexProgram {
 public:
  explicit PageRankProgram(double damping = 0.85, double tolerance = 1e-3)
      : damping_(damping), tolerance_(tolerance) {}

  std::unique_ptr<VertexState> CreateState(VertexId id) const override;
  std::unique_ptr<VertexState> DeserializeState(
      BufferReader* reader) const override;

  bool OnInput(VertexContext& ctx, const Delta& delta) const override;
  bool OnUpdate(VertexContext& ctx, VertexId source, Iteration iteration,
                const VertexUpdate& update) const override;
  void Scatter(VertexContext& ctx) const override;
  void OnRestore(VertexState* state) const override;

  double damping() const { return damping_; }
  double tolerance() const { return tolerance_; }

 private:
  double damping_;
  double tolerance_;
};

}  // namespace tornado

#endif  // TORNADO_ALGOS_PAGERANK_H_
