#include "algos/pagerank.h"

#include <cmath>
#include <limits>

#include "common/logging.h"
#include "kernel/kernels.h"

namespace tornado {

namespace {
constexpr int kContribution = 0;

/// Upserts one contribution; returns whether the stored set changed.
bool ApplyContribution(PageRankState* state, VertexId source, double value) {
  if (value == 0.0) return state->contributions.erase(source) > 0;
  auto [it, inserted] = state->contributions.emplace(source, value);
  if (inserted) return true;
  if (it->second == value) return false;
  it->second = value;
  return true;
}

}  // namespace

void PageRankState::Serialize(BufferWriter* writer) const {
  writer->PutDouble(rank);
  writer->PutVarint(edge_counts.size());
  for (const auto& [dst, count] : edge_counts) {
    writer->PutVarint(dst);
    writer->PutVarint(count);
  }
  writer->PutVarint(out_degree);
  writer->PutVarint(contributions.size());
  for (const auto& [src, value] : contributions) {
    writer->PutVarint(src);
    writer->PutDouble(value);
  }
  writer->PutVarint(last_sent.size());
  for (const auto& [dst, value] : last_sent) {
    writer->PutVarint(dst);
    writer->PutDouble(value);
  }
}

double PageRankState::Recompute(double damping) {
  const double sum = kernel::Kernels().sum(contributions.values_data(),
                                           contributions.size());
  rank = (1.0 - damping) + damping * sum;
  rank_stale = false;
  return rank;
}

std::unique_ptr<VertexState> PageRankProgram::CreateState(VertexId id) const {
  (void)id;
  return std::make_unique<PageRankState>();
}

std::unique_ptr<VertexState> PageRankProgram::DeserializeState(
    BufferReader* reader) const {
  auto state = std::make_unique<PageRankState>();
  // Defensive: re-derive the rank from contributions on the first Scatter
  // after a load; for a state serialized post-Scatter this recomputes the
  // identical value.
  state->rank_stale = true;
  TCHECK(reader->GetDouble(&state->rank).ok());
  uint64_t n = 0;
  TCHECK(reader->GetVarint(&n).ok());
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t dst = 0, count = 0;
    TCHECK(reader->GetVarint(&dst).ok());
    TCHECK(reader->GetVarint(&count).ok());
    state->edge_counts[dst] = static_cast<uint32_t>(count);
  }
  uint64_t degree = 0;
  TCHECK(reader->GetVarint(&degree).ok());
  state->out_degree = degree;
  TCHECK(reader->GetVarint(&n).ok());
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t src = 0;
    double value = 0;
    TCHECK(reader->GetVarint(&src).ok());
    TCHECK(reader->GetDouble(&value).ok());
    state->contributions[src] = value;
  }
  TCHECK(reader->GetVarint(&n).ok());
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t dst = 0;
    double value = 0;
    TCHECK(reader->GetVarint(&dst).ok());
    TCHECK(reader->GetDouble(&value).ok());
    state->last_sent[dst] = value;
  }
  return state;
}

bool PageRankProgram::OnInput(VertexContext& ctx, const Delta& delta) const {
  const auto* edge = std::get_if<EdgeDelta>(&delta);
  TCHECK(edge != nullptr) << "PageRank consumes edge streams";
  auto& state = static_cast<PageRankState&>(*ctx.state());
  if (edge->insert) {
    state.edge_counts[edge->dst]++;
    state.out_degree++;
    ctx.AddTarget(edge->dst);
    return true;
  }
  auto it = state.edge_counts.find(edge->dst);
  if (it == state.edge_counts.end()) return false;
  state.out_degree--;
  if (--it->second == 0) {
    state.edge_counts.erase(it);
    ctx.RemoveTarget(edge->dst);
  }
  return true;
}

bool PageRankProgram::OnUpdate(VertexContext& ctx, VertexId source,
                               Iteration iteration,
                               const VertexUpdate& update) const {
  (void)iteration;
  TCHECK_EQ(update.kind, kContribution);
  auto& state = static_cast<PageRankState&>(*ctx.state());
  const bool changed = ApplyContribution(&state, source, update.values[0]);
  // The re-sum is memoized: Scatter recomputes once per commit instead of
  // the legacy full contribution walk on every gathered delta.
  if (changed) state.rank_stale = true;
  return changed;
}

void PageRankProgram::OnRestore(VertexState* state) const {
  auto& pr = static_cast<PageRankState&>(*state);
  for (size_t i = 0; i < pr.last_sent.size(); ++i) {
    // Force re-emission of every target's value.
    pr.last_sent.at_index(i) = std::numeric_limits<double>::quiet_NaN();
  }
}

void PageRankProgram::Scatter(VertexContext& ctx) const {
  auto& state = static_cast<PageRankState&>(*ctx.state());
  // Progress is how far the rank moved since the previous commit refreshed
  // it (exactly +0.0 when no contribution changed — the memoized case).
  const double before = state.rank;
  state.EnsureRank(damping_);
  ctx.AddProgress(std::fabs(state.rank - before));

  for (VertexId target : ctx.targets()) {
    auto counts = state.edge_counts.find(target);
    double contribution = 0.0;
    if (counts != state.edge_counts.end() && state.out_degree > 0) {
      contribution = state.rank * static_cast<double>(counts->second) /
                     static_cast<double>(state.out_degree);
    }
    auto sent = state.last_sent.find(target);
    const double previous = sent == state.last_sent.end() ? 0.0 : sent->second;
    if (std::fabs(contribution - previous) <= tolerance_) continue;
    VertexUpdate update;
    update.kind = kContribution;
    update.values.push_back(contribution);
    ctx.EmitTo(target, update);
    state.last_sent[target] = contribution;
  }
  for (VertexId target : ctx.retiring_targets()) {
    auto sent = state.last_sent.find(target);
    if (sent == state.last_sent.end()) continue;
    if (sent->second != 0.0) {
      VertexUpdate update;
      update.kind = kContribution;
      update.values.push_back(0.0);
      ctx.EmitTo(target, update);
    }
    state.last_sent.erase(sent);
  }
}

}  // namespace tornado
