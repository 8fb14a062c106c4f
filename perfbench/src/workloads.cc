#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <optional>
#include <variant>

#include "baselines/solvers.h"
#include "bench/bench_util.h"
#include "graph/dynamic_graph.h"

namespace perfbench {
namespace {

using tornado::JobConfig;
using tornado::LoopId;
using tornado::StreamSource;
using tornado::TornadoCluster;

constexpr uint64_t kDelayBound = 64;

// A paper bench job (bench/bench_util.h), paced for a live run.
JobConfig Paced(JobConfig config, uint64_t seed, double rate) {
  config.ingest_rate = rate;
  config.cost.progress_period = 2e-3;
  config.seed = seed;
  return config;
}

// Replays the first `count` tuples of `stream`.
template <class Fn>
void Replay(std::unique_ptr<StreamSource> stream, uint64_t count, Fn&& fn) {
  for (uint64_t i = 0; i < count; ++i) {
    std::optional<tornado::StreamTuple> tuple = stream->Next();
    if (!tuple.has_value()) break;
    fn(tuple->delta);
  }
}

// --- pagerank_live ---

class PageRankLive final : public Workload {
 public:
  static constexpr double kDamping = 0.85;
  static constexpr double kTolerance = 3e-3;
  // Largest relative rank error of any vertex. An empirical bound: the
  // largest error seen over seeds 1-20 is recorded in README.md.
  static constexpr double kMaxRelativeError = 0.05;
  static constexpr uint64_t kTuples = 6000;

  const char* name() const override { return "pagerank_live"; }

  Drive drive() const override {
    Drive d;
    d.tuples = kTuples;
    d.rate = 200.0;
    d.warmup = 300;
    d.query_every = 30;
    d.max_queries = 1000;
    return d;
  }

  JobConfig Config(uint64_t seed) const override {
    JobConfig config = Paced(tornado::bench::PageRankJob(kDelayBound), seed,
                             drive().rate);
    config.program =
        std::make_shared<tornado::PageRankProgram>(kDamping, kTolerance);
    return config;
  }

  std::unique_ptr<StreamSource> Stream(uint64_t seed) const override {
    return std::make_unique<tornado::GraphStream>(
        tornado::bench::BenchGraph(kTuples, seed));
  }

  AnswerCheck Check(const TornadoCluster& cluster, LoopId branch,
                    uint64_t seed, uint64_t emitted) override {
    auto [it, fresh] = exact_.try_emplace({seed, emitted});
    if (fresh) {
      tornado::DynamicGraph graph;
      Replay(Stream(seed), emitted, [&](const tornado::Delta& delta) {
        graph.Apply(std::get<tornado::EdgeDelta>(delta));
      });
      it->second = tornado::SolvePageRank(graph, kDamping, 1e-12, {},
                                          /*max_iterations=*/5000)
                       .rank;
    }
    const auto& exact = it->second;
    AnswerCheck check;
    check.bound = kMaxRelativeError;
    size_t compared = 0;
    for (const auto& [vertex, want] : exact) {
      const auto state = cluster.ReadVertexState(branch, vertex);
      if (state == nullptr) continue;  // never touched: no in/out edges
      const double got =
          static_cast<const tornado::PageRankState&>(*state).rank;
      check.error = std::max(check.error, std::fabs(got - want) / want);
      ++compared;
    }
    check.ok = compared > exact.size() / 2 && check.error <= check.bound;
    return check;
  }

 private:
  // Exact ranks per (seed, emitted).
  std::map<std::pair<uint64_t, uint64_t>,
           std::unordered_map<tornado::VertexId, double>>
      exact_;
};

// --- kmeans_live ---

using Points = std::map<uint64_t, std::vector<double>>;

double KMeansObjective(const Points& points,
                       const std::vector<std::vector<double>>& centroids) {
  double total = 0.0;
  for (const auto& [id, coords] : points) {
    double best = std::numeric_limits<double>::infinity();
    for (const auto& c : centroids) {
      double d = 0.0;
      for (size_t i = 0; i < coords.size() && i < c.size(); ++i) {
        d += (coords[i] - c[i]) * (coords[i] - c[i]);
      }
      best = std::min(best, d);
    }
    total += best;
  }
  return total;
}

class KMeansLive final : public Workload {
 public:
  // Relative objective gap to Lloyd's algorithm run to convergence from the
  // branch's own centroids (a converged branch is a Lloyd fixed point).
  static constexpr double kMaxObjectiveGap = 1e-3;
  static constexpr uint64_t kTuples = 8000;

  const char* name() const override { return "kmeans_live"; }

  Drive drive() const override {
    Drive d;
    d.tuples = kTuples;
    d.rate = 300.0;
    d.warmup = 400;
    d.query_every = 50;
    d.max_queries = 1000;
    return d;
  }

  JobConfig Config(uint64_t seed) const override {
    return Paced(tornado::bench::KMeansJob(kDelayBound), seed, drive().rate);
  }

  std::unique_ptr<StreamSource> Stream(uint64_t seed) const override {
    return std::make_unique<tornado::PointStream>(
        tornado::bench::BenchPoints(kTuples, seed));
  }

  AnswerCheck Check(const TornadoCluster& cluster, LoopId branch,
                    uint64_t seed, uint64_t emitted) override {
    auto [it, fresh] = points_.try_emplace({seed, emitted});
    Points& points = it->second;
    if (fresh) {
      Replay(Stream(seed), emitted, [&](const tornado::Delta& delta) {
        const auto& p = std::get<tornado::PointDelta>(delta);
        if (p.insert) {
          points[p.id] = p.coords;
        } else {
          points.erase(p.id);
        }
      });
    }
    // The job's own program: the cluster's may be wrapped for tracing.
    const auto program = Config(seed).program;
    const uint32_t clusters =
        static_cast<const tornado::KMeansProgram&>(*program)
            .options()
            .num_clusters;
    std::vector<std::vector<double>> centroids;
    for (uint32_t k = 0; k < clusters; ++k) {
      const auto state =
          cluster.ReadVertexState(branch, tornado::KMeansCentroidVertex(k));
      if (state == nullptr) return AnswerCheck{};
      centroids.push_back(
          static_cast<const tornado::KMeansCentroidState&>(*state).position);
    }
    const double got = KMeansObjective(points, centroids);
    const double want = KMeansObjective(
        points, tornado::SolveKMeans(points, centroids, 1e-9).centroids);
    AnswerCheck check;
    check.bound = kMaxObjectiveGap;
    check.error = (got - want) / want;
    check.ok = check.error <= check.bound;
    return check;
  }

 private:
  // Live points per (seed, emitted).
  std::map<std::pair<uint64_t, uint64_t>, Points> points_;
};

// --- svm_live ---

class SvmLive final : public Workload {
 public:
  // The branch's objective may exceed the full-batch optimum by this share.
  static constexpr double kMaxObjectiveGap = 0.05;
  static constexpr uint64_t kTuples = 6000;

  const char* name() const override { return "svm_live"; }

  Drive drive() const override {
    Drive d;
    d.tuples = kTuples;
    d.rate = 400.0;
    d.warmup = 1000;
    d.query_every = 300;
    d.max_queries = 6;
    return d;
  }

  JobConfig Config(uint64_t seed) const override {
    JobConfig config =
        Paced(tornado::bench::SgdJob(tornado::SgdLoss::kSvmHinge, kDelayBound,
                                     /*descent_rate=*/0.1,
                                     tornado::DescentSchedule::kStatic,
                                     /*batch_mode=*/false,
                                     /*sample_ratio=*/0.02),
              seed, drive().rate);
    config.convergence.max_iterations = 400;
    return config;
  }

  std::unique_ptr<StreamSource> Stream(uint64_t seed) const override {
    return std::make_unique<tornado::InstanceStream>(
        tornado::bench::BenchDense(kTuples, seed));
  }

  AnswerCheck Check(const TornadoCluster& cluster, LoopId branch,
                    uint64_t seed, uint64_t emitted) override {
    // The job's own program: the cluster's may be wrapped for tracing.
    const auto program = Config(seed).program;
    const tornado::SgdOptions& sgd =
        static_cast<const tornado::SgdProgram&>(*program).options();
    auto [it, fresh] = exact_.try_emplace({seed, emitted});
    Exact& exact = it->second;
    if (fresh) {
      Replay(Stream(seed), emitted, [&](const tornado::Delta& delta) {
        const auto& d = std::get<tornado::InstanceDelta>(delta);
        exact.instances.push_back(
            tornado::SgdInstance{d.id, d.label, d.features});
      });
      exact.objective =
          tornado::SolveSgd(exact.instances, sgd.loss, sgd.regularization,
                            sgd.descent_rate,
                            std::vector<double>(sgd.dimensions, 0.0), 1e-9,
                            /*max_iterations=*/2000)
              .objective;
    }
    const auto state =
        cluster.ReadVertexState(branch, tornado::kSgdParamVertex);
    if (state == nullptr) return AnswerCheck{};
    const double got = tornado::SgdProgram::Objective(
        sgd.loss, sgd.regularization,
        static_cast<const tornado::SgdParamState&>(*state).weights,
        exact.instances);
    AnswerCheck check;
    check.bound = kMaxObjectiveGap;
    check.error = (got - exact.objective) / exact.objective;
    check.ok = check.error <= check.bound;
    return check;
  }

 private:
  struct Exact {
    std::vector<tornado::SgdInstance> instances;
    double objective = 0.0;  // full-batch optimum over `instances`
  };
  // Per (seed, emitted).
  std::map<std::pair<uint64_t, uint64_t>, Exact> exact_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "pagerank_live") return std::make_unique<PageRankLive>();
  if (name == "kmeans_live") return std::make_unique<KMeansLive>();
  if (name == "svm_live") return std::make_unique<SvmLive>();
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  return {"pagerank_live", "kmeans_live", "svm_live"};
}

}  // namespace perfbench
