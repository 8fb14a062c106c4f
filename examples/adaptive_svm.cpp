// Adaptive SVM over a drifting instance stream — the online-learning
// scenario of Sections 3.2 and 6.2.2: the main loop runs reservoir-sampled
// SGD with a bold-driver descent rate, continuously tracking the drifting
// ground-truth model; branch loops polish the model to a fixed point on
// demand.
//
// Build & run:  ./build/examples/adaptive_svm

#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "algos/sgd.h"
#include "common/logging.h"
#include "core/cluster.h"
#include "stream/instance_stream.h"

using namespace tornado;

namespace {

double CosineSimilarity(const std::vector<double>& a,
                        const std::vector<double>& b) {
  double dot = 0, na = 0, nb = 0;
  for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
    dot += a[i] * b[i];
    na += a[i] * a[i];
    nb += b[i] * b[i];
  }
  return na > 0 && nb > 0 ? dot / std::sqrt(na * nb) : 0.0;
}

}  // namespace

int main() {
  SetLogLevel(LogLevel::kWarning);

  // A drifting concept: the true separating hyperplane moves as the
  // stream flows, so a static model goes stale.
  InstanceStreamOptions stream_options;
  stream_options.dimensions = 20;
  stream_options.num_tuples = 24000;
  stream_options.label_noise = 0.03;
  stream_options.concept_drift = 3e-4;

  SgdOptions sgd;
  sgd.loss = SgdLoss::kSvmHinge;
  sgd.num_shards = 8;
  sgd.dimensions = stream_options.dimensions;
  sgd.sample_ratio = 0.05;
  sgd.reservoir_capacity = 1000;
  sgd.schedule = DescentSchedule::kBoldDriver;  // Section 6.2.2
  sgd.descent_rate = 0.2;
  sgd.max_rate = 0.5;   // keep the catch-up rule below instability
  sgd.min_rate = 0.005;

  JobConfig config;
  config.program = std::make_shared<SgdProgram>(sgd);
  config.router = SgdProgram::MakeRouter(sgd);
  config.delay_bound = 64;
  config.num_processors = 8;
  config.num_hosts = 4;
  config.ingest_rate = 8000.0;
  config.convergence.epsilon = 1e-4;
  config.convergence.window = 4;
  config.convergence.max_iterations = 2000;

  // Keep a handle on the generator to compare against the moving truth.
  auto stream = std::make_unique<InstanceStream>(stream_options);
  InstanceStream* truth = stream.get();

  TornadoCluster cluster(config, std::move(stream));
  cluster.Start();

  for (int checkpoint = 1; checkpoint <= 4; ++checkpoint) {
    cluster.RunUntilEmitted(stream_options.num_tuples * checkpoint / 4,
                            600.0);
    auto main_state = cluster.ReadVertexState(kMainLoop, kSgdParamVertex);
    if (main_state == nullptr) continue;
    const auto& param = static_cast<const SgdParamState&>(*main_state);
    std::printf(
        "t=%.2fs  main model ~ truth cosine=%.3f  bold-driver rate=%.4f  "
        "sgd steps=%llu\n",
        cluster.now(),
        CosineSimilarity(param.weights, truth->true_weights()), param.rate,
        static_cast<unsigned long long>(param.steps));
  }

  // Final on-demand polish: a branch loop runs deterministic full-batch
  // gradient descent over the reservoirs, starting from the adapted model.
  const uint64_t query = cluster.ingester().SubmitQuery();
  if (!cluster.RunUntilQueryDone(query, 600.0)) {
    std::fprintf(stderr, "branch loop did not converge\n");
    return 1;
  }
  auto branch_state =
      cluster.ReadVertexState(cluster.BranchOf(query), kSgdParamVertex);
  if (branch_state == nullptr) {
    std::fprintf(stderr, "branch loop has no model\n");
    return 1;
  }
  const auto& polished = static_cast<const SgdParamState&>(*branch_state);
  std::printf("polished model ~ truth cosine=%.3f (branch latency %.3fs)\n",
              CosineSimilarity(polished.weights, truth->true_weights()),
              cluster.QueryLatency(query));
  return 0;
}
