#include "baselines/solvers.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>

namespace tornado {

SsspSolution SolveSssp(const DynamicGraph& graph, VertexId source) {
  SsspSolution out;
  using Item = std::pair<double, VertexId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> heap;
  std::unordered_map<VertexId, uint64_t> hops;
  out.dist[source] = 0.0;
  hops[source] = 0;
  heap.emplace(0.0, source);
  while (!heap.empty()) {
    auto [d, v] = heap.top();
    heap.pop();
    auto it = out.dist.find(v);
    if (it != out.dist.end() && d > it->second) continue;
    out.depth = std::max(out.depth, hops[v]);
    for (const auto& e : graph.OutEdges(v)) {
      ++out.edges_relaxed;
      const double nd = d + e.weight;
      auto [dit, inserted] = out.dist.emplace(e.dst, nd);
      if (!inserted && nd >= dit->second) continue;
      dit->second = nd;
      hops[e.dst] = hops[v] + 1;
      heap.emplace(nd, e.dst);
    }
  }
  return out;
}

PageRankSolution SolvePageRank(
    const DynamicGraph& graph, double damping, double tolerance,
    const std::unordered_map<VertexId, double>& warm, int max_iterations) {
  PageRankSolution out;
  const auto vertices = graph.Vertices();
  for (VertexId v : vertices) {
    auto it = warm.find(v);
    out.rank[v] = it == warm.end() ? 1.0 : it->second;
  }
  for (int iter = 0; iter < max_iterations; ++iter) {
    ++out.iterations;
    std::unordered_map<VertexId, double> incoming;
    incoming.reserve(vertices.size());
    for (VertexId u : vertices) {
      const auto& edges = graph.OutEdges(u);
      if (edges.empty()) continue;
      const double share =
          out.rank[u] / static_cast<double>(edges.size());
      for (const auto& e : edges) {
        incoming[e.dst] += share;
        ++out.edge_work;
      }
    }
    double delta = 0.0;
    for (VertexId v : vertices) {
      const double next = (1.0 - damping) + damping * incoming[v];
      delta += std::fabs(next - out.rank[v]);
      out.rank[v] = next;
    }
    // Per-vertex (mean) tolerance, so the stopping criterion does not
    // tighten as the graph grows.
    if (delta <= tolerance * static_cast<double>(vertices.size())) break;
  }
  return out;
}

KMeansSolution SolveKMeans(
    const std::map<uint64_t, std::vector<double>>& points,
    std::vector<std::vector<double>> centroids, double tolerance,
    int max_iterations) {
  KMeansSolution out;
  out.centroids = std::move(centroids);
  if (out.centroids.empty() || points.empty()) return out;
  const size_t k = out.centroids.size();
  const size_t dims = out.centroids[0].size();

  for (int iter = 0; iter < max_iterations; ++iter) {
    ++out.iterations;
    std::vector<std::vector<double>> sums(k, std::vector<double>(dims, 0.0));
    std::vector<uint64_t> counts(k, 0);
    for (const auto& [id, coords] : points) {
      ++out.point_scans;
      size_t best = 0;
      double best_d = std::numeric_limits<double>::infinity();
      for (size_t c = 0; c < k; ++c) {
        double d = 0.0;
        for (size_t i = 0; i < dims && i < coords.size(); ++i) {
          const double diff = coords[i] - out.centroids[c][i];
          d += diff * diff;
        }
        if (d < best_d) {
          best_d = d;
          best = c;
        }
      }
      for (size_t i = 0; i < dims && i < coords.size(); ++i) {
        sums[best][i] += coords[i];
      }
      counts[best]++;
    }
    double moved = 0.0;
    for (size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) continue;
      for (size_t i = 0; i < dims; ++i) {
        const double next = sums[c][i] / static_cast<double>(counts[c]);
        moved += std::fabs(next - out.centroids[c][i]);
        out.centroids[c][i] = next;
      }
    }
    if (moved <= tolerance) break;
  }
  return out;
}

namespace {

/// One pass over `instances` at `w`: returns the objective there and
/// leaves the loss gradient's sum in `grad`. Each instance's dot product
/// serves both, and the losses add up in SgdProgram::Objective's order, so
/// the objective is bit-identical to it.
double ObjectiveAndGradient(const std::vector<SgdInstance>& instances,
                            SgdLoss loss, double regularization,
                            const std::vector<double>& w,
                            std::vector<double>* grad) {
  const size_t dims = w.size();
  grad->assign(dims, 0.0);
  double loss_sum = 0.0;
  for (const SgdInstance& inst : instances) {
    double dot = 0.0;
    for (const auto& [idx, value] : inst.features) {
      if (idx < dims) dot += w[idx] * value;
    }
    const double margin = inst.label * dot;
    loss_sum += SgdProgram::MarginLoss(loss, margin);
    double scale = 0.0;
    if (loss == SgdLoss::kSvmHinge) {
      if (margin < 1.0) scale = -inst.label;
    } else {
      const double m = std::clamp(margin, -30.0, 30.0);
      scale = -inst.label / (1.0 + std::exp(m));
    }
    if (scale == 0.0) continue;
    for (const auto& [idx, value] : inst.features) {
      if (idx < dims) (*grad)[idx] += scale * value;
    }
  }
  return SgdProgram::RegularizedMean(loss_sum, instances.size(),
                                     regularization, w);
}

}  // namespace

SgdSolution SolveSgd(const std::vector<SgdInstance>& instances, SgdLoss loss,
                     double regularization, double rate,
                     std::vector<double> warm, double tolerance,
                     int max_iterations) {
  SgdSolution out;
  out.weights = std::move(warm);
  if (instances.empty()) return out;
  const size_t dims = out.weights.size();
  // Each pass evaluates the objective at the current weights together with
  // the gradient the next step descends along; the last pass's gradient
  // goes unused.
  std::vector<double> grad;
  out.objective = ObjectiveAndGradient(instances, loss, regularization,
                                       out.weights, &grad);

  for (int iter = 0; iter < max_iterations; ++iter) {
    ++out.iterations;
    out.gradient_terms += instances.size();
    const double n = static_cast<double>(instances.size());
    // 1/t rate decay guarantees convergence of the subgradient method on
    // the hinge loss (constant rates oscillate around the optimum).
    const double effective_rate = rate / (1.0 + 0.02 * iter);
    double step_l1 = 0.0;
    for (size_t d = 0; d < dims; ++d) {
      const double step =
          effective_rate * (grad[d] / n + regularization * out.weights[d]);
      out.weights[d] -= step;
      step_l1 += std::fabs(step);
    }
    const double objective = ObjectiveAndGradient(
        instances, loss, regularization, out.weights, &grad);
    const double improvement = out.objective - objective;
    out.objective = objective;
    // Stop when either the objective or the iterate stops moving.
    if (step_l1 <= tolerance ||
        std::fabs(improvement) <=
            tolerance * std::max(1e-12, std::fabs(objective)) * 0.01) {
      break;
    }
  }
  return out;
}

}  // namespace tornado
