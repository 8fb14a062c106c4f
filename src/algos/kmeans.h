#ifndef TORNADO_ALGOS_KMEANS_H_
#define TORNADO_ALGOS_KMEANS_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "core/config.h"
#include "core/vertex_program.h"
#include "kernel/flat_map.h"

namespace tornado {

/// Vertex-id layout of the KMeans topology: K centroid vertices and S
/// data-shard vertices forming a bipartite cyclic dependency graph
/// (centroids scatter positions to shards; shards scatter partial sums to
/// centroids).
inline constexpr VertexId kKMeansShardBase = 1ULL << 40;
inline VertexId KMeansCentroidVertex(uint32_t k) { return k; }
inline VertexId KMeansShardVertex(uint32_t s) { return kKMeansShardBase + s; }

/// Sentinel point id carried by the one-time bootstrap delta that teaches
/// each centroid its shard targets.
inline constexpr uint64_t kKMeansInitMarker = ~0ULL;

struct KMeansOptions {
  uint32_t num_clusters = 10;
  uint32_t num_shards = 8;
  uint32_t dimensions = 20;
  double space_extent = 100.0;  // initial centroid positions in [0, extent)

  /// Centroids re-scatter their position only when it moved farther than
  /// this (the emission tolerance that lets the loop quiesce).
  double move_tolerance = 1e-3;

  /// Virtual CPU seconds per point-centroid distance evaluation; a shard
  /// rescan costs points * clusters * this.
  double assign_cost = 4e-8;

  uint64_t seed = 99;
};

/// Per-shard aggregate: (coordinate sums, point count).
using KMeansSums = FlatMap<uint32_t, std::pair<std::vector<double>, uint64_t>, 8>;

/// Per-centroid state. Hot containers are sorted flat SoA maps
/// (kernel/flat_map.h); iteration — and wire — order matches the std::map
/// layout they replaced.
struct KMeansCentroidState : VertexState {
  std::vector<double> position;
  KMeansSums partial_sums;  // shard -> (coordinate sums, count)
  std::vector<double> last_emitted;
  bool branch_kicked = false;

  void Serialize(BufferWriter* writer) const override;
};

/// Per-shard state. The points change only in OnInput, so they are the
/// input part; assignments and aggregates are the iteration part.
struct KMeansShardState : VertexState {
  // Input part.
  FlatMap<uint64_t, std::vector<double>, 8> points;
  // Iteration part.
  FlatMap<uint64_t, uint32_t, 8> assignment;  // point -> centroid index
  FlatMap<uint32_t, std::vector<double>, 8> centroid_pos;
  // Running per-centroid aggregates of this shard's points.
  KMeansSums sums;
  KMeansSums last_sent;
  bool targets_added = false;

  void Serialize(BufferWriter* writer) const override;
  void SerializeInput(BufferWriter* writer) const override;
  void DeserializeInput(BufferReader* reader) override;
};

/// Streaming KMeans (the Figure 5c / 9 / Table 3 workload).
///
/// The main loop maintains assignments incrementally as points arrive and
/// retract; branch loops re-drive full Lloyd iterations from the main
/// loop's centroids. Because every shard re-evaluates all of its points
/// whenever a centroid position arrives, the branch latency is dominated
/// by the rescan, not by the approximation error — reproducing the
/// paper's observation that KMeans does not profit from the main-loop
/// approximation the way SSSP/PageRank do.
///
/// Distance scans and aggregate folds run on the SIMD kernels.
class KMeansProgram : public VertexProgram {
 public:
  explicit KMeansProgram(KMeansOptions options) : options_(options) {}

  std::unique_ptr<VertexState> CreateState(VertexId id) const override;
  std::unique_ptr<VertexState> DeserializeState(
      BufferReader* reader) const override;

  bool OnInput(VertexContext& ctx, const Delta& delta) const override;
  bool OnUpdate(VertexContext& ctx, VertexId source, Iteration iteration,
                const VertexUpdate& update) const override;
  void Scatter(VertexContext& ctx) const override;

  bool ActivateOnFork(const VertexState& state) const override;
  void OnRestore(VertexState* state) const override;

  const KMeansOptions& options() const { return options_; }

  /// Router for PointDelta streams: points go to their shard; the first
  /// tuple also bootstraps centroid -> shard dependency edges.
  static InputRouter MakeRouter(const KMeansOptions& options);

 private:
  bool IsCentroid(VertexId id) const { return id < options_.num_clusters; }

  bool CentroidInput(VertexContext& ctx, const PointDelta& delta) const;
  bool ShardInput(VertexContext& ctx, const PointDelta& delta) const;
  void CentroidScatter(VertexContext& ctx) const;
  void ShardScatter(VertexContext& ctx) const;

  uint32_t Nearest(const KMeansShardState& state,
                   const std::vector<double>& point) const;
  void AddPointToSums(KMeansShardState* state, uint32_t centroid,
                      const std::vector<double>& point, int sign) const;

  KMeansOptions options_;
};

}  // namespace tornado

#endif  // TORNADO_ALGOS_KMEANS_H_
