#ifndef TORNADO_ALGOS_SGD_H_
#define TORNADO_ALGOS_SGD_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "core/config.h"
#include "core/vertex_program.h"
#include "kernel/flat_map.h"
#include "stream/reservoir.h"

namespace tornado {

/// Vertex-id layout of the SGD topology: one parameter vertex plus S
/// sampler shards holding reservoir samples of the instance stream
/// (Section 3.2: reservoir sampling is what makes the main-loop SGD
/// approximation a *valid* initial guess over evolving data).
inline constexpr VertexId kSgdParamVertex = 0;
inline constexpr VertexId kSgdShardBase = 1ULL << 41;
inline VertexId SgdShardVertex(uint32_t s) { return kSgdShardBase + s; }
inline constexpr uint64_t kSgdInitMarker = ~0ULL;

/// Which loss the program optimizes.
enum class SgdLoss { kSvmHinge, kLogistic };

/// How the main loop adapts its descent rate (Section 6.2.2).
enum class DescentSchedule {
  kStatic,      // fixed rate
  kBoldDriver,  // -10% when the objective grows, +10% when it stalls
};

struct SgdOptions {
  SgdLoss loss = SgdLoss::kSvmHinge;
  uint32_t num_shards = 8;
  uint32_t dimensions = 28;
  double regularization = 1e-4;

  /// Main-loop stochastic behaviour: each shard commit samples
  /// ceil(sample_ratio * reservoir size) instances for its gradient.
  double sample_ratio = 0.01;
  size_t reservoir_capacity = 2000;

  DescentSchedule schedule = DescentSchedule::kStatic;
  double descent_rate = 0.1;
  double min_rate = 1e-6;
  double max_rate = 10.0;
  /// Bold driver: shrink when the loss grew, grow when it improved by less
  /// than this relative amount (the paper uses 10% / 1%).
  double bold_shrink = 0.9;
  double bold_grow = 1.1;
  double stall_threshold = 0.01;

  /// Parameter vertex re-broadcasts w only when it moved at least this far
  /// (L2) since the last emission.
  double emit_tolerance = 1e-4;

  /// Batch mode (Appendix B's doBatchProcessing): the main loop only
  /// collects instances into the reservoirs — no approximation — so branch
  /// loops start from the all-zero model. Used to compare against the
  /// approximate main loop (Figure 6b's "Batch" series).
  bool batch_mode = false;

  /// Virtual CPU seconds per (instance, feature) gradient term.
  double gradient_cost = 3e-9;

  uint64_t seed = 4242;
};

/// One training instance retained by a shard.
struct SgdInstance {
  uint64_t id = 0;
  double label = 0.0;
  std::vector<std::pair<uint32_t, double>> features;
};

/// Parameter-vertex state: the model, the adaptive descent rate, and the
/// latest partial gradients per shard (used by branch loops, which run
/// deterministic full-reservoir gradient descent). Shard-keyed containers
/// are sorted flat SoA maps (kernel/flat_map.h); iteration — and wire —
/// order matches the std::map layout they replaced.
struct SgdParamState : VertexState {
  std::vector<double> weights;
  double rate = 0.1;
  double last_objective = -1.0;
  uint64_t steps = 0;
  uint64_t branch_steps = 0;  // full-batch GD steps taken in this branch
  FlatMap<uint32_t, std::vector<double>, 8> partial_grads;
  FlatMap<uint32_t, std::pair<double, uint64_t>, 8> partial_loss;
  std::vector<double> last_emitted;
  bool branch_kicked = false;
  bool targets_added = false;

  void Serialize(BufferWriter* writer) const override;
};

/// Shard state: reservoir sample plus the latest model copy. The
/// reservoir and its counter change only in OnInput, so they are the
/// input part: a commit that follows no input (every branch-loop commit)
/// writes only the model copy and flags.
struct SgdShardState : VertexState {
  // Input part.
  std::vector<SgdInstance> sample;
  uint64_t seen = 0;
  // Iteration part.
  std::vector<double> weights;
  bool has_weights = false;
  bool targets_added = false;

  void Serialize(BufferWriter* writer) const override;
  void SerializeInput(BufferWriter* writer) const override;
  void DeserializeInput(BufferReader* reader) override;
};

/// Distributed SGD for SVM (hinge loss, the HIGGS workload) and logistic
/// regression (the PubMed workload) — Figures 6, 7, 8b, 9, Table 3.
///
/// Main loop: shards keep reservoir samples of the stream and push
/// stochastic mini-batch gradients; the parameter vertex applies them with
/// the (possibly bold-driver-adapted) descent rate and re-broadcasts the
/// model when it moved. This never converges — it *adapts*, tracking the
/// drifting ground truth (Observation: "the main loop will never converge,
/// and should continuously adapt its approximation to the input changes").
///
/// Branch loops: deterministic gradient descent over the full reservoirs,
/// starting from the main loop's model, run to convergence under the
/// epsilon policy.
///
/// Dense weight-vector arithmetic runs on the SIMD kernels.
class SgdProgram : public VertexProgram {
 public:
  explicit SgdProgram(SgdOptions options) : options_(options) {}

  std::unique_ptr<VertexState> CreateState(VertexId id) const override;
  std::unique_ptr<VertexState> DeserializeState(
      BufferReader* reader) const override;

  bool OnInput(VertexContext& ctx, const Delta& delta) const override;
  bool OnUpdate(VertexContext& ctx, VertexId source, Iteration iteration,
                const VertexUpdate& update) const override;
  void Scatter(VertexContext& ctx) const override;

  bool ActivateOnFork(const VertexState& state) const override {
    return dynamic_cast<const SgdParamState*>(&state) != nullptr;
  }

  void OnRestore(VertexState* state) const override {
    if (auto* param = dynamic_cast<SgdParamState*>(state)) {
      param->last_emitted.clear();  // re-broadcast the model
      param->branch_kicked = false;
    }
  }

  const SgdOptions& options() const { return options_; }

  /// Loss of one instance under model `w` (no regularization term).
  static double InstanceLoss(SgdLoss loss, const std::vector<double>& w,
                             const SgdInstance& instance);

  /// The same loss from the instance's margin y * (w . x).
  static double MarginLoss(SgdLoss loss, double margin);

  /// Mean loss of a set of instances plus L2 regularization.
  static double Objective(SgdLoss loss, double regularization,
                          const std::vector<double>& w,
                          const std::vector<SgdInstance>& instances);

  /// Objective from the summed instance losses `loss_sum` over `count`
  /// (> 0) instances: loss_sum / count + regularization / 2 * |w|^2.
  static double RegularizedMean(double loss_sum, size_t count,
                                double regularization,
                                const std::vector<double>& w);

  /// Router for InstanceDelta streams.
  static InputRouter MakeRouter(const SgdOptions& options);

 private:
  bool ParamUpdate(VertexContext& ctx, VertexId source,
                   const VertexUpdate& update) const;
  void ParamScatter(VertexContext& ctx) const;
  void ShardScatter(VertexContext& ctx) const;
  void AccumulateGradient(const std::vector<double>& w,
                          const SgdInstance& instance,
                          std::vector<double>* grad) const;

  SgdOptions options_;
};

}  // namespace tornado

#endif  // TORNADO_ALGOS_SGD_H_
