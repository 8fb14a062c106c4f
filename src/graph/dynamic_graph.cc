#include "graph/dynamic_graph.h"

#include <algorithm>
#include <cmath>

namespace tornado {

const std::vector<DynamicGraph::Edge> DynamicGraph::kEmpty = {};

bool DynamicGraph::Apply(const EdgeDelta& delta) {
  if (delta.insert) {
    adjacency_[delta.src].push_back(Edge{delta.dst, delta.weight});
    adjacency_.try_emplace(delta.dst);  // make the endpoint known
    ++num_edges_;
    return true;
  }
  auto it = adjacency_.find(delta.src);
  if (it == adjacency_.end()) return false;
  auto& edges = it->second;
  // Parallel edges are distinct: a retraction names the exact edge (the
  // generator replays recorded weights), so match dst AND weight.
  for (size_t i = 0; i < edges.size(); ++i) {
    if (edges[i].dst == delta.dst && edges[i].weight == delta.weight) {
      edges[i] = edges.back();
      edges.pop_back();
      --num_edges_;
      return true;
    }
  }
  return false;
}

const std::vector<DynamicGraph::Edge>& DynamicGraph::OutEdges(
    VertexId v) const {
  auto it = adjacency_.find(v);
  return it == adjacency_.end() ? kEmpty : it->second;
}

std::vector<VertexId> DynamicGraph::Vertices() const {
  std::vector<VertexId> out;
  out.reserve(adjacency_.size());
  for (const auto& [v, edges] : adjacency_) out.push_back(v);
  std::sort(out.begin(), out.end());  // deterministic listing for callers
  return out;
}

std::unordered_map<VertexId, double> DynamicGraph::PageRank(
    double damping, double epsilon, int max_iterations) const {
  std::unordered_map<VertexId, double> rank;
  const size_t n = adjacency_.size();
  if (n == 0) return rank;
  const double init = 1.0 / static_cast<double>(n);
  for (const auto& [v, edges] : adjacency_) rank[v] = init;

  for (int iter = 0; iter < max_iterations; ++iter) {
    std::unordered_map<VertexId, double> next;
    next.reserve(n);
    double dangling = 0.0;
    for (const auto& [v, edges] : adjacency_) {
      if (edges.empty()) {
        dangling += rank[v];
        continue;
      }
      const double share = rank[v] / static_cast<double>(edges.size());
      for (const Edge& e : edges) next[e.dst] += share;
    }
    const double base =
        (1.0 - damping) / static_cast<double>(n) +
        damping * dangling / static_cast<double>(n);
    double delta = 0.0;
    for (const auto& [v, edges] : adjacency_) {
      const double value = base + damping * next[v];
      delta += std::fabs(value - rank[v]);
      next[v] = value;
    }
    // Keep vertices with no in-edges present.
    for (const auto& [v, edges] : adjacency_) {
      if (next.find(v) == next.end()) next[v] = base;
    }
    rank = std::move(next);
    if (delta <= epsilon) break;
  }
  return rank;
}

}  // namespace tornado
