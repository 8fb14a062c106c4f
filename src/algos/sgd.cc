#include "algos/sgd.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "kernel/kernels.h"

namespace tornado {

namespace {
constexpr int kModel = 0;     // param -> shards: [w]
constexpr int kGradient = 1;  // shard -> param: [count, loss_sum, grad...]

double Dot(const std::vector<double>& w, const SgdInstance& inst) {
  double dot = 0.0;
  for (const auto& [idx, value] : inst.features) {
    if (idx < w.size()) dot += w[idx] * value;
  }
  return dot;
}

void PutInstances(BufferWriter* w, const std::vector<SgdInstance>& v) {
  w->PutVarint(v.size());
  for (const SgdInstance& inst : v) {
    w->PutVarint(inst.id);
    w->PutDouble(inst.label);
    w->PutVarint(inst.features.size());
    for (const auto& [idx, value] : inst.features) {
      w->PutVarint(idx);
      w->PutDouble(value);
    }
  }
}

void GetInstances(BufferReader* r, std::vector<SgdInstance>* v) {
  uint64_t n = 0;
  TCHECK(r->GetVarint(&n).ok());
  v->resize(n);
  for (uint64_t i = 0; i < n; ++i) {
    SgdInstance& inst = (*v)[i];
    uint64_t nnz = 0;
    TCHECK(r->GetVarint(&inst.id).ok());
    TCHECK(r->GetDouble(&inst.label).ok());
    TCHECK(r->GetVarint(&nnz).ok());
    inst.features.resize(nnz);
    for (uint64_t k = 0; k < nnz; ++k) {
      uint64_t idx = 0;
      double value = 0.0;
      TCHECK(r->GetVarint(&idx).ok());
      TCHECK(r->GetDouble(&value).ok());
      inst.features[k] = {static_cast<uint32_t>(idx), value};
    }
  }
}
}  // namespace

// ---------------------------------------------------------------------------
// State serialization
// ---------------------------------------------------------------------------

void SgdParamState::Serialize(BufferWriter* writer) const {
  writer->PutU8(0);  // state-flavour tag
  writer->PutDoubleVec(weights);
  writer->PutDouble(rate);
  writer->PutDouble(last_objective);
  writer->PutVarint(steps);
  writer->PutVarint(branch_steps);
  writer->PutVarint(partial_grads.size());
  for (const auto& [shard, grad] : partial_grads) {
    writer->PutVarint(shard);
    writer->PutDoubleVec(grad);
  }
  writer->PutVarint(partial_loss.size());
  for (const auto& [shard, loss] : partial_loss) {
    writer->PutVarint(shard);
    writer->PutDouble(loss.first);
    writer->PutVarint(loss.second);
  }
  writer->PutDoubleVec(last_emitted);
  writer->PutU8(branch_kicked ? 1 : 0);
  writer->PutU8(targets_added ? 1 : 0);
}

void SgdShardState::Serialize(BufferWriter* writer) const {
  writer->PutU8(1);  // state-flavour tag
  writer->PutDoubleVec(weights);
  writer->PutU8(has_weights ? 1 : 0);
  writer->PutU8(targets_added ? 1 : 0);
}

void SgdShardState::SerializeInput(BufferWriter* writer) const {
  PutInstances(writer, sample);
  writer->PutVarint(seen);
}

void SgdShardState::DeserializeInput(BufferReader* reader) {
  GetInstances(reader, &sample);
  TCHECK(reader->GetVarint(&seen).ok());
}

std::unique_ptr<VertexState> SgdProgram::CreateState(VertexId id) const {
  if (id == kSgdParamVertex) {
    auto state = std::make_unique<SgdParamState>();
    state->weights.assign(options_.dimensions, 0.0);
    state->rate = options_.descent_rate;
    return state;
  }
  return std::make_unique<SgdShardState>();
}

std::unique_ptr<VertexState> SgdProgram::DeserializeState(
    BufferReader* reader) const {
  uint8_t tag = 0;
  TCHECK(reader->GetU8(&tag).ok());
  if (tag == 0) {
    auto state = std::make_unique<SgdParamState>();
    uint8_t flag = 0;
    TCHECK(reader->GetDoubleVec(&state->weights).ok());
    TCHECK(reader->GetDouble(&state->rate).ok());
    TCHECK(reader->GetDouble(&state->last_objective).ok());
    TCHECK(reader->GetVarint(&state->steps).ok());
    TCHECK(reader->GetVarint(&state->branch_steps).ok());
    uint64_t n = 0;
    TCHECK(reader->GetVarint(&n).ok());
    for (uint64_t i = 0; i < n; ++i) {
      uint64_t shard = 0;
      std::vector<double> grad;
      TCHECK(reader->GetVarint(&shard).ok());
      TCHECK(reader->GetDoubleVec(&grad).ok());
      state->partial_grads[static_cast<uint32_t>(shard)] = std::move(grad);
    }
    TCHECK(reader->GetVarint(&n).ok());
    for (uint64_t i = 0; i < n; ++i) {
      uint64_t shard = 0, count = 0;
      double loss = 0.0;
      TCHECK(reader->GetVarint(&shard).ok());
      TCHECK(reader->GetDouble(&loss).ok());
      TCHECK(reader->GetVarint(&count).ok());
      state->partial_loss[static_cast<uint32_t>(shard)] = {loss, count};
    }
    TCHECK(reader->GetDoubleVec(&state->last_emitted).ok());
    TCHECK(reader->GetU8(&flag).ok());
    state->branch_kicked = flag != 0;
    TCHECK(reader->GetU8(&flag).ok());
    state->targets_added = flag != 0;
    return state;
  }
  auto state = std::make_unique<SgdShardState>();
  uint8_t flag = 0;
  TCHECK(reader->GetDoubleVec(&state->weights).ok());
  TCHECK(reader->GetU8(&flag).ok());
  state->has_weights = flag != 0;
  TCHECK(reader->GetU8(&flag).ok());
  state->targets_added = flag != 0;
  return state;
}

// ---------------------------------------------------------------------------
// Router
// ---------------------------------------------------------------------------

InputRouter SgdProgram::MakeRouter(const SgdOptions& options) {
  // Stateless: the parameter->shard dependency bootstrap rides on the
  // very first tuple of the stream.
  return [options](const StreamTuple& tuple,
                   std::vector<std::pair<VertexId, Delta>>* out) {
    if (tuple.sequence == 0) {
      InstanceDelta marker;
      marker.id = kSgdInitMarker;
      out->emplace_back(kSgdParamVertex, Delta{marker});
    }
    const auto* inst = std::get_if<InstanceDelta>(&tuple.delta);
    if (inst == nullptr) return;
    const uint32_t shard = static_cast<uint32_t>(
        ((inst->id * 0xD1B54A32D192ED03ULL) >> 33) % options.num_shards);
    out->emplace_back(SgdShardVertex(shard), tuple.delta);
  };
}

// ---------------------------------------------------------------------------
// Loss / gradients
// ---------------------------------------------------------------------------

double SgdProgram::InstanceLoss(SgdLoss loss, const std::vector<double>& w,
                                const SgdInstance& instance) {
  double dot = 0.0;
  for (const auto& [idx, value] : instance.features) {
    if (idx < w.size()) dot += w[idx] * value;
  }
  return MarginLoss(loss, instance.label * dot);
}

double SgdProgram::MarginLoss(SgdLoss loss, double margin) {
  if (loss == SgdLoss::kSvmHinge) {
    return std::max(0.0, 1.0 - margin);
  }
  // Numerically-stable log(1 + exp(-margin)).
  if (margin > 30.0) return std::exp(-margin);
  if (margin < -30.0) return -margin;
  return std::log1p(std::exp(-margin));
}

double SgdProgram::Objective(SgdLoss loss, double regularization,
                             const std::vector<double>& w,
                             const std::vector<SgdInstance>& instances) {
  if (instances.empty()) return 0.0;
  double total = 0.0;
  for (const SgdInstance& inst : instances) {
    total += InstanceLoss(loss, w, inst);
  }
  return RegularizedMean(total, instances.size(), regularization, w);
}

double SgdProgram::RegularizedMean(double loss_sum, size_t count,
                                   double regularization,
                                   const std::vector<double>& w) {
  const double norm2 = kernel::Kernels().dot(w.data(), w.data(), w.size());
  return loss_sum / static_cast<double>(count) + 0.5 * regularization * norm2;
}

void SgdProgram::AccumulateGradient(const std::vector<double>& w,
                                    const SgdInstance& instance,
                                    std::vector<double>* grad) const {
  const double margin = instance.label * Dot(w, instance);
  double scale = 0.0;
  if (options_.loss == SgdLoss::kSvmHinge) {
    if (margin < 1.0) scale = -instance.label;
  } else {
    // d/dw log(1+exp(-y w.x)) = -y x sigma(-y w.x)
    const double m = std::clamp(margin, -30.0, 30.0);
    scale = -instance.label / (1.0 + std::exp(m));
  }
  if (scale == 0.0) return;
  for (const auto& [idx, value] : instance.features) {
    if (idx < grad->size()) (*grad)[idx] += scale * value;
  }
}

// ---------------------------------------------------------------------------
// Gather
// ---------------------------------------------------------------------------

bool SgdProgram::OnInput(VertexContext& ctx, const Delta& delta) const {
  const auto* inst = std::get_if<InstanceDelta>(&delta);
  TCHECK(inst != nullptr) << "SGD consumes instance streams";

  if (ctx.id() == kSgdParamVertex) {
    TCHECK_EQ(inst->id, kSgdInitMarker);
    auto& state = static_cast<SgdParamState&>(*ctx.state());
    for (uint32_t s = 0; s < options_.num_shards; ++s) {
      ctx.AddTarget(SgdShardVertex(s));
    }
    state.targets_added = true;
    return true;  // broadcast the initial model
  }

  auto& state = static_cast<SgdShardState&>(*ctx.state());
  if (!state.targets_added) {
    ctx.AddTarget(kSgdParamVertex);
    state.targets_added = true;
  }
  if (!inst->insert) return false;  // instance streams are append-only

  // Reservoir sampling (Algorithm R): uniform over the whole history,
  // which is the correctness condition of Section 3.2.
  SgdInstance instance;
  instance.id = inst->id;
  instance.label = inst->label;
  instance.features = inst->features;
  state.seen++;
  if (state.sample.size() < options_.reservoir_capacity) {
    state.sample.push_back(std::move(instance));
  } else {
    const uint64_t slot = ctx.rng()->NextUint64(state.seen);
    if (slot < options_.reservoir_capacity) {
      state.sample[slot] = std::move(instance);
    }
  }
  return true;  // new data: push a fresh stochastic gradient
}

bool SgdProgram::OnUpdate(VertexContext& ctx, VertexId source,
                          Iteration iteration,
                          const VertexUpdate& update) const {
  (void)iteration;
  if (update.kind == kModel) {
    auto& state = static_cast<SgdShardState&>(*ctx.state());
    // In a branch loop a (re-)broadcast model always schedules the shard:
    // the branch must evaluate the gradient at the snapshot's model at
    // least once to verify (or refute) the fixed point, even when the
    // value equals what the shard already holds.
    const bool changed = !state.has_weights ||
                         state.weights != update.values ||
                         !ctx.is_main_loop();
    state.weights = update.values;
    state.has_weights = true;
    return changed;
  }
  TCHECK_EQ(update.kind, kGradient);
  return ParamUpdate(ctx, source, update);
}

bool SgdProgram::ParamUpdate(VertexContext& ctx, VertexId source,
                             const VertexUpdate& update) const {
  auto& state = static_cast<SgdParamState&>(*ctx.state());
  const uint32_t shard = static_cast<uint32_t>(source - kSgdShardBase);
  const auto count = static_cast<uint64_t>(update.values[0]);
  const double loss_sum = update.values[1];
  std::vector<double> grad(update.values.begin() + 2, update.values.end());
  state.partial_loss[shard] = {loss_sum, count};

  if (ctx.is_main_loop()) {
    // Stochastic step: apply the shard's mini-batch gradient immediately
    // (fine-grained asynchronous updates are the whole point of the
    // bounded asynchronous model).
    if (count > 0 && !options_.batch_mode) {
      kernel::Kernels().sgd_step(
          state.weights.data(), grad.data(), static_cast<double>(count),
          state.rate, options_.regularization,
          std::min<size_t>(options_.dimensions, grad.size()));
      state.steps++;
    }
  } else {
    // Branch loops run deterministic full-gradient descent: partials are
    // combined once per commit.
    state.partial_grads[shard] = std::move(grad);
  }
  ctx.AddCost(options_.gradient_cost * static_cast<double>(count));
  return true;  // gradients always move the model / feed the next step
}

// ---------------------------------------------------------------------------
// Scatter
// ---------------------------------------------------------------------------

void SgdProgram::Scatter(VertexContext& ctx) const {
  if (ctx.id() == kSgdParamVertex) {
    ParamScatter(ctx);
  } else {
    ShardScatter(ctx);
  }
}

void SgdProgram::ParamScatter(VertexContext& ctx) const {
  auto& state = static_cast<SgdParamState&>(*ctx.state());

  if (!ctx.is_main_loop()) {
    // Apply one combined full-batch step.
    uint64_t total = 0;
    std::vector<double> combined(options_.dimensions, 0.0);
    for (const auto& [shard, grad] : state.partial_grads) {
      auto loss = state.partial_loss.find(shard);
      const uint64_t count =
          loss == state.partial_loss.end() ? 0 : loss->second.second;
      total += count;
      kernel::Kernels().add(combined.data(), grad.data(),
                            std::min<size_t>(options_.dimensions, grad.size()));
    }
    if (total > 0) {
      // 1/t decay guarantees convergence of the branch's full-batch
      // (sub)gradient descent even at rates that oscillate undamped.
      const double effective_rate =
          state.rate /
          (1.0 + 0.02 * static_cast<double>(state.branch_steps));
      double movement = 0.0;
      for (uint32_t d = 0; d < options_.dimensions; ++d) {
        const double step =
            effective_rate * (combined[d] / static_cast<double>(total) +
                              options_.regularization * state.weights[d]);
        state.weights[d] -= step;
        movement += std::fabs(step);
      }
      state.steps++;
      state.branch_steps++;
      ctx.AddProgress(movement);
    }
  } else if (options_.schedule == DescentSchedule::kBoldDriver) {
    // Bold driver (Section 6.2.2): estimate the objective from the latest
    // shard losses; shrink the rate when it grew, grow it when the
    // improvement stalled.
    double loss_sum = 0.0;
    uint64_t count = 0;
    for (const auto& [shard, loss] : state.partial_loss) {
      loss_sum += loss.first;
      count += loss.second;
    }
    if (count > 0) {
      const double norm2 = kernel::Kernels().dot(
          state.weights.data(), state.weights.data(), state.weights.size());
      const double objective = loss_sum / static_cast<double>(count) +
                               0.5 * options_.regularization * norm2;
      // Mini-batch objective estimates are noisy; compare against an
      // exponential moving average so the driver reacts to trends, not to
      // sampling jitter.
      if (state.last_objective >= 0.0) {
        // Note: Section 6.2.2's prose says "decrease ... when the
        // objective increases", but its Figure 7b unambiguously shows the
        // driver *raising* the rate while the error grows ("realizing the
        // growth in the approximation error, the dynamic method increases
        // the descent rate") and lowering it once the error is small. We
        // follow the figure: a growing objective means the model lags the
        // drifting inputs and needs a larger rate to catch up; a stable
        // objective lets the rate anneal for a finer approximation.
        if (objective >
            state.last_objective * (1.0 + options_.stall_threshold)) {
          state.rate *= options_.bold_grow;  // error trending up: catch up
        } else if (objective >
                   state.last_objective * (1.0 - options_.stall_threshold)) {
          state.rate *= options_.bold_shrink;  // stable: anneal and refine
        }  // else: improving fast — keep the current rate
        state.rate =
            std::clamp(state.rate, options_.min_rate, options_.max_rate);
      }
      state.last_objective = state.last_objective < 0.0
                                 ? objective
                                 : 0.9 * state.last_objective +
                                       0.1 * objective;
    }
  }

  const bool kick = !ctx.is_main_loop() && !state.branch_kicked;
  if (kick) state.branch_kicked = true;

  double moved2 = 0.0;
  if (state.last_emitted.size() == state.weights.size()) {
    moved2 = kernel::Kernels().sqdist(
        state.weights.data(), state.last_emitted.data(), state.weights.size());
  }
  const bool first = state.last_emitted.empty();
  if (kick || first ||
      std::sqrt(moved2) > options_.emit_tolerance) {
    VertexUpdate update;
    update.kind = kModel;
    update.values = state.weights;
    ctx.EmitToTargets(update);
    state.last_emitted = state.weights;
    if (ctx.is_main_loop()) {
      // Main-loop progress: how far the model moved since last broadcast.
      ctx.AddProgress(std::sqrt(moved2));
    }
  }
}

void SgdProgram::ShardScatter(VertexContext& ctx) const {
  auto& state = static_cast<SgdShardState&>(*ctx.state());
  if (!state.has_weights || state.sample.empty()) return;
  if (options_.batch_mode && ctx.is_main_loop()) return;  // collect only

  std::vector<double> grad(options_.dimensions, 0.0);
  double loss_sum = 0.0;
  uint64_t count = 0;

  if (ctx.is_main_loop()) {
    const size_t batch = std::max<size_t>(
        1, static_cast<size_t>(options_.sample_ratio *
                               static_cast<double>(state.sample.size())));
    for (size_t i = 0; i < batch; ++i) {
      const SgdInstance& inst =
          state.sample[ctx.rng()->NextUint64(state.sample.size())];
      AccumulateGradient(state.weights, inst, &grad);
      loss_sum += InstanceLoss(options_.loss, state.weights, inst);
      ++count;
    }
  } else {
    for (const SgdInstance& inst : state.sample) {
      AccumulateGradient(state.weights, inst, &grad);
      loss_sum += InstanceLoss(options_.loss, state.weights, inst);
      ++count;
    }
  }
  const double avg_features =
      options_.loss == SgdLoss::kSvmHinge ? options_.dimensions : 40.0;
  ctx.AddCost(options_.gradient_cost * static_cast<double>(count) *
              avg_features);

  VertexUpdate update;
  update.kind = kGradient;
  update.values.reserve(2 + options_.dimensions);
  update.values.push_back(static_cast<double>(count));
  update.values.push_back(loss_sum);
  update.values.insert(update.values.end(), grad.begin(), grad.end());
  ctx.EmitTo(kSgdParamVertex, update);
}

}  // namespace tornado
