#include "algos/sssp.h"

#include <algorithm>

#include "common/logging.h"
#include "kernel/kernels.h"

namespace tornado {

namespace {
constexpr int kDistanceUpdate = 0;

/// Doubles survive raw round-trips including infinity, but map keys do not
/// need that care; serialize pairs directly.
void PutDoubleMap(BufferWriter* w, const FlatMap<VertexId, double, 8>& m) {
  w->PutVarint(m.size());
  for (const auto& [k, v] : m) {
    w->PutVarint(k);
    w->PutDouble(v);
  }
}

bool GetDoubleMap(BufferReader* r, FlatMap<VertexId, double, 8>* m) {
  uint64_t n = 0;
  if (!r->GetVarint(&n).ok()) return false;
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t k = 0;
    double v = 0;
    if (!r->GetVarint(&k).ok() || !r->GetDouble(&v).ok()) return false;
    (*m)[k] = v;
  }
  return true;
}
}  // namespace

void SsspState::Serialize(BufferWriter* writer) const {
  writer->PutDouble(length);
  writer->PutVarint(out_edges.size());
  for (const auto& [dst, weights] : out_edges) {
    writer->PutVarint(dst);
    writer->PutDoubleVec(weights);
  }
  PutDoubleMap(writer, candidates);
  PutDoubleMap(writer, last_sent);
}

double SsspState::Recompute(bool is_source) {
  // Min is an exact (order-insensitive) reduction, so the kernel's lane
  // order gives bit-identical results to the old sequential walk.
  double best = kernel::Kernels().min(candidates.values_data(),
                                      candidates.size());
  if (is_source && !(0.0 > best)) best = 0.0;
  length = best;
  length_stale = false;
  return length;
}

std::unique_ptr<VertexState> SsspProgram::CreateState(VertexId id) const {
  auto state = std::make_unique<SsspState>();
  state->length = id == source_ ? 0.0 : kSsspInfinity;
  return state;
}

std::unique_ptr<VertexState> SsspProgram::DeserializeState(
    BufferReader* reader) const {
  auto state = std::make_unique<SsspState>();
  // Defensive: re-derive the length from candidates on the first Scatter
  // after a load; for a state serialized post-Scatter this recomputes the
  // identical value.
  state->length_stale = true;
  TCHECK(reader->GetDouble(&state->length).ok());
  uint64_t n = 0;
  TCHECK(reader->GetVarint(&n).ok());
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t dst = 0;
    std::vector<double> weights;
    TCHECK(reader->GetVarint(&dst).ok());
    TCHECK(reader->GetDoubleVec(&weights).ok());
    state->out_edges.emplace(dst, std::move(weights));
  }
  TCHECK(GetDoubleMap(reader, &state->candidates));
  TCHECK(GetDoubleMap(reader, &state->last_sent));
  return state;
}

bool SsspProgram::OnInput(VertexContext& ctx, const Delta& delta) const {
  const auto* edge = std::get_if<EdgeDelta>(&delta);
  TCHECK(edge != nullptr) << "SSSP consumes edge streams";
  auto& state = static_cast<SsspState&>(*ctx.state());
  if (edge->insert) {
    state.out_edges[edge->dst].push_back(edge->weight);
    ctx.AddTarget(edge->dst);
    return true;
  }
  auto it = state.out_edges.find(edge->dst);
  if (it == state.out_edges.end()) return false;  // unknown edge retracted
  auto& weights = it->second;
  auto w = std::find(weights.begin(), weights.end(), edge->weight);
  bool changed = false;
  if (w != weights.end()) {
    *w = weights.back();
    weights.pop_back();
    changed = true;
  }
  if (weights.empty()) {
    state.out_edges.erase(it);
    ctx.RemoveTarget(edge->dst);
  }
  return changed;
}

bool SsspProgram::ApplyCandidate(SsspState* state, VertexId source,
                                 const VertexUpdate& update) const {
  TCHECK_EQ(update.kind, kDistanceUpdate);
  TCHECK_EQ(update.values.size(), 1u);
  const double candidate = update.values[0];
  if (candidate >= max_distance_) {
    // Path through `source` retracted.
    return state->candidates.erase(source) > 0;
  }
  auto [it, inserted] = state->candidates.emplace(source, candidate);
  if (inserted) return true;
  if (it->second == candidate) return false;
  it->second = candidate;
  return true;
}

bool SsspProgram::OnUpdate(VertexContext& ctx, VertexId source,
                           Iteration iteration,
                           const VertexUpdate& update) const {
  (void)iteration;
  auto& state = static_cast<SsspState&>(*ctx.state());
  const bool changed = ApplyCandidate(&state, source, update);
  // The min re-reduction is memoized: Scatter recomputes once per commit
  // instead of the legacy full candidate walk on every gathered delta.
  if (changed) state.length_stale = true;
  return changed;
}

void SsspProgram::OnRestore(VertexState* state) const {
  auto& sssp = static_cast<SsspState&>(*state);
  for (size_t i = 0; i < sssp.last_sent.size(); ++i) {
    sssp.last_sent.at_index(i) =
        std::numeric_limits<double>::quiet_NaN();  // != any candidate
  }
}

void SsspProgram::Scatter(VertexContext& ctx) const {
  auto& state = static_cast<SsspState&>(*ctx.state());
  if (batch_mode_ && ctx.is_main_loop()) return;

  state.EnsureLength(ctx.id() == source_);

  uint64_t changed = 0;
  for (VertexId target : ctx.targets()) {
    auto edges = state.out_edges.find(target);
    double candidate = kSsspInfinity;
    if (edges != state.out_edges.end() && !edges->second.empty() &&
        state.length != kSsspInfinity) {
      const double min_w =
          *std::min_element(edges->second.begin(), edges->second.end());
      candidate = state.length + min_w;
      if (candidate >= max_distance_) candidate = kSsspInfinity;
    }
    auto sent = state.last_sent.find(target);
    if (sent != state.last_sent.end() && sent->second == candidate) continue;
    if (sent == state.last_sent.end() && candidate == kSsspInfinity) continue;
    VertexUpdate update;
    update.kind = kDistanceUpdate;
    update.values.push_back(candidate);
    ctx.EmitTo(target, update);
    state.last_sent[target] = candidate;
    ++changed;
  }
  // Consumers we dropped since the last commit observe the retraction.
  for (VertexId target : ctx.retiring_targets()) {
    auto sent = state.last_sent.find(target);
    if (sent == state.last_sent.end()) continue;
    if (sent->second != kSsspInfinity) {
      VertexUpdate update;
      update.kind = kDistanceUpdate;
      update.values.push_back(kSsspInfinity);
      ctx.EmitTo(target, update);
      ++changed;
    }
    state.last_sent.erase(sent);
  }
  ctx.AddProgress(static_cast<double>(changed));
}

}  // namespace tornado
