#include "algos/kmeans.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/rng.h"
#include "kernel/kernels.h"

namespace tornado {

namespace {
constexpr int kCentroidPosition = 0;  // centroid -> shard
constexpr int kPartialSums = 1;       // shard -> centroid

void PutSums(BufferWriter* w, const KMeansSums& m) {
  w->PutVarint(m.size());
  for (const auto& [k, sums] : m) {
    w->PutVarint(k);
    w->PutDoubleVec(sums.first);
    w->PutVarint(sums.second);
  }
}

void GetSums(BufferReader* r, KMeansSums* m) {
  uint64_t n = 0;
  TCHECK(r->GetVarint(&n).ok());
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t k = 0, count = 0;
    std::vector<double> sums;
    TCHECK(r->GetVarint(&k).ok());
    TCHECK(r->GetDoubleVec(&sums).ok());
    TCHECK(r->GetVarint(&count).ok());
    (*m)[static_cast<uint32_t>(k)] = {std::move(sums), count};
  }
}

double Distance2(const std::vector<double>& a, const std::vector<double>& b) {
  const size_t n = std::min(a.size(), b.size());
  return kernel::Kernels().sqdist(a.data(), b.data(), n);
}
}  // namespace

// ---------------------------------------------------------------------------
// State serialization
// ---------------------------------------------------------------------------

void KMeansCentroidState::Serialize(BufferWriter* writer) const {
  writer->PutU8(0);  // state-flavour tag
  writer->PutDoubleVec(position);
  PutSums(writer, partial_sums);
  writer->PutDoubleVec(last_emitted);
  writer->PutU8(branch_kicked ? 1 : 0);
}

void KMeansShardState::Serialize(BufferWriter* writer) const {
  writer->PutU8(1);  // state-flavour tag
  writer->PutVarint(assignment.size());
  for (const auto& [id, k] : assignment) {
    writer->PutVarint(id);
    writer->PutVarint(k);
  }
  writer->PutVarint(centroid_pos.size());
  for (const auto& [k, pos] : centroid_pos) {
    writer->PutVarint(k);
    writer->PutDoubleVec(pos);
  }
  PutSums(writer, sums);
  PutSums(writer, last_sent);
  writer->PutU8(targets_added ? 1 : 0);
}

void KMeansShardState::SerializeInput(BufferWriter* writer) const {
  writer->PutVarint(points.size());
  for (const auto& [id, coords] : points) {
    writer->PutVarint(id);
    writer->PutDoubleVec(coords);
  }
}

void KMeansShardState::DeserializeInput(BufferReader* reader) {
  uint64_t n = 0;
  TCHECK(reader->GetVarint(&n).ok());
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t id = 0;
    std::vector<double> coords;
    TCHECK(reader->GetVarint(&id).ok());
    TCHECK(reader->GetDoubleVec(&coords).ok());
    points.emplace(id, std::move(coords));
  }
}

std::unique_ptr<VertexState> KMeansProgram::CreateState(VertexId id) const {
  if (IsCentroid(id)) {
    auto state = std::make_unique<KMeansCentroidState>();
    Rng rng(options_.seed ^ (id * 0x2545F4914F6CDD1DULL));
    state->position.resize(options_.dimensions);
    for (auto& x : state->position) {
      x = rng.NextDouble(0.0, options_.space_extent);
    }
    return state;
  }
  return std::make_unique<KMeansShardState>();
}

std::unique_ptr<VertexState> KMeansProgram::DeserializeState(
    BufferReader* reader) const {
  // A leading tag distinguishes the two state flavours.
  uint8_t tag = 0;
  TCHECK(reader->GetU8(&tag).ok());
  if (tag == 0) {
    auto state = std::make_unique<KMeansCentroidState>();
    TCHECK(reader->GetDoubleVec(&state->position).ok());
    GetSums(reader, &state->partial_sums);
    TCHECK(reader->GetDoubleVec(&state->last_emitted).ok());
    uint8_t kicked = 0;
    TCHECK(reader->GetU8(&kicked).ok());
    state->branch_kicked = kicked != 0;
    return state;
  }
  auto state = std::make_unique<KMeansShardState>();
  uint64_t n = 0;
  TCHECK(reader->GetVarint(&n).ok());
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t id = 0, k = 0;
    TCHECK(reader->GetVarint(&id).ok());
    TCHECK(reader->GetVarint(&k).ok());
    state->assignment[id] = static_cast<uint32_t>(k);
  }
  TCHECK(reader->GetVarint(&n).ok());
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t k = 0;
    std::vector<double> pos;
    TCHECK(reader->GetVarint(&k).ok());
    TCHECK(reader->GetDoubleVec(&pos).ok());
    state->centroid_pos[static_cast<uint32_t>(k)] = std::move(pos);
  }
  GetSums(reader, &state->sums);
  GetSums(reader, &state->last_sent);
  uint8_t added = 0;
  TCHECK(reader->GetU8(&added).ok());
  state->targets_added = added != 0;
  return state;
}

// ---------------------------------------------------------------------------
// Router
// ---------------------------------------------------------------------------

InputRouter KMeansProgram::MakeRouter(const KMeansOptions& options) {
  // Stateless: the centroid->shard dependency bootstrap rides on the very
  // first tuple of the stream.
  return [options](const StreamTuple& tuple,
                   std::vector<std::pair<VertexId, Delta>>* out) {
    if (tuple.sequence == 0) {
      PointDelta marker;
      marker.id = kKMeansInitMarker;
      for (uint32_t k = 0; k < options.num_clusters; ++k) {
        out->emplace_back(KMeansCentroidVertex(k), Delta{marker});
      }
    }
    const auto* point = std::get_if<PointDelta>(&tuple.delta);
    if (point == nullptr) return;
    const uint32_t shard = static_cast<uint32_t>(
        ((point->id * 0x9E3779B97F4A7C15ULL) >> 33) % options.num_shards);
    out->emplace_back(KMeansShardVertex(shard), tuple.delta);
  };
}

// ---------------------------------------------------------------------------
// Gather
// ---------------------------------------------------------------------------

bool KMeansProgram::OnInput(VertexContext& ctx, const Delta& delta) const {
  const auto* point = std::get_if<PointDelta>(&delta);
  TCHECK(point != nullptr) << "KMeans consumes point streams";
  return IsCentroid(ctx.id()) ? CentroidInput(ctx, *point)
                              : ShardInput(ctx, *point);
}

bool KMeansProgram::CentroidInput(VertexContext& ctx,
                                  const PointDelta& delta) const {
  TCHECK_EQ(delta.id, kKMeansInitMarker);
  for (uint32_t s = 0; s < options_.num_shards; ++s) {
    ctx.AddTarget(KMeansShardVertex(s));
  }
  return true;  // broadcast the initial position
}

bool KMeansProgram::ShardInput(VertexContext& ctx,
                               const PointDelta& delta) const {
  auto& state = static_cast<KMeansShardState&>(*ctx.state());
  if (!state.targets_added) {
    for (uint32_t k = 0; k < options_.num_clusters; ++k) {
      ctx.AddTarget(KMeansCentroidVertex(k));
    }
    state.targets_added = true;
  }
  if (delta.insert) {
    state.points[delta.id] = delta.coords;
    if (!state.centroid_pos.empty()) {
      const uint32_t k = Nearest(state, delta.coords);
      state.assignment[delta.id] = k;
      AddPointToSums(&state, k, delta.coords, +1);
      ctx.AddCost(options_.assign_cost *
                  static_cast<double>(options_.num_clusters));
    }
    return true;
  }
  auto it = state.points.find(delta.id);
  if (it == state.points.end()) return false;
  auto assigned = state.assignment.find(delta.id);
  if (assigned != state.assignment.end()) {
    AddPointToSums(&state, assigned->second, it->second, -1);
    state.assignment.erase(assigned);
  }
  state.points.erase(it);
  return true;
}

bool KMeansProgram::OnUpdate(VertexContext& ctx, VertexId source,
                             Iteration iteration,
                             const VertexUpdate& update) const {
  (void)iteration;
  if (update.kind == kCentroidPosition) {
    auto& state = static_cast<KMeansShardState&>(*ctx.state());
    auto& stored = state.centroid_pos[static_cast<uint32_t>(source)];
    // Branch loops always rescan on a centroid broadcast — verifying the
    // snapshot's assignment is the inherent cost of KMeans (Section 6.2.1)
    // — while the main loop skips no-op re-broadcasts.
    if (stored == update.values && ctx.is_main_loop()) return false;
    stored = update.values;
    return true;
  }
  TCHECK_EQ(update.kind, kPartialSums);
  auto& state = static_cast<KMeansCentroidState&>(*ctx.state());
  // values = [count, sum_0, ..., sum_{d-1}]
  const uint64_t count = static_cast<uint64_t>(update.values[0]);
  std::vector<double> sums(update.values.begin() + 1, update.values.end());
  const uint32_t shard =
      static_cast<uint32_t>(source - kKMeansShardBase);
  if (count == 0) {
    return state.partial_sums.erase(shard) > 0;
  }
  auto [it, inserted] = state.partial_sums.emplace(
      shard, std::pair<std::vector<double>, uint64_t>{sums, count});
  if (!inserted) {
    if (it->second.first == sums && it->second.second == count) return false;
    it->second = {std::move(sums), count};
  }
  return true;
}

// ---------------------------------------------------------------------------
// Scatter
// ---------------------------------------------------------------------------

void KMeansProgram::Scatter(VertexContext& ctx) const {
  if (IsCentroid(ctx.id())) {
    CentroidScatter(ctx);
  } else {
    ShardScatter(ctx);
  }
}

void KMeansProgram::CentroidScatter(VertexContext& ctx) const {
  auto& state = static_cast<KMeansCentroidState&>(*ctx.state());

  // New position: mean of all assigned points (if any).
  const auto& ops = kernel::Kernels();
  uint64_t total = 0;
  std::vector<double> sums(options_.dimensions, 0.0);
  for (const auto& [shard, partial] : state.partial_sums) {
    total += partial.second;
    ops.add(sums.data(), partial.first.data(),
            std::min<size_t>(options_.dimensions, partial.first.size()));
  }
  if (total > 0) {
    ops.scale_div(state.position.data(), sums.data(),
                  static_cast<double>(total), options_.dimensions);
  }

  const bool kick = !ctx.is_main_loop() && !state.branch_kicked;
  if (kick) state.branch_kicked = true;

  const bool first_emit = state.last_emitted.empty();
  const double moved =
      first_emit ? 0.0
                 : std::sqrt(Distance2(state.position, state.last_emitted));
  ctx.AddProgress(moved);

  if (kick || first_emit || moved > options_.move_tolerance) {
    VertexUpdate update;
    update.kind = kCentroidPosition;
    update.values = state.position;
    ctx.EmitToTargets(update);
    state.last_emitted = state.position;
  }
}

void KMeansProgram::ShardScatter(VertexContext& ctx) const {
  auto& state = static_cast<KMeansShardState&>(*ctx.state());
  if (state.centroid_pos.empty()) return;

  // Re-evaluate every point against the current centroids — this full
  // rescan is the inherent per-iteration cost of Lloyd's algorithm and the
  // reason the approximation does not shorten KMeans branch loops
  // (Section 6.2.1).
  state.sums.clear();
  for (const auto& [id, coords] : state.points) {
    const uint32_t k = Nearest(state, coords);
    state.assignment[id] = k;
    AddPointToSums(&state, k, coords, +1);
  }
  ctx.AddCost(options_.assign_cost * static_cast<double>(state.points.size()) *
              static_cast<double>(options_.num_clusters));

  for (uint32_t k = 0; k < options_.num_clusters; ++k) {
    auto current = state.sums.find(k);
    std::pair<std::vector<double>, uint64_t> value =
        current == state.sums.end()
            ? std::pair<std::vector<double>, uint64_t>{{}, 0}
            : current->second;
    auto sent = state.last_sent.find(k);
    if (sent != state.last_sent.end() && sent->second == value) continue;
    if (sent == state.last_sent.end() && value.second == 0) continue;
    VertexUpdate update;
    update.kind = kPartialSums;
    update.values.push_back(static_cast<double>(value.second));
    update.values.insert(update.values.end(), value.first.begin(),
                         value.first.end());
    ctx.EmitTo(KMeansCentroidVertex(k), update);
    state.last_sent[k] = value;
  }
}

void KMeansProgram::OnRestore(VertexState* state) const {
  if (auto* centroid = dynamic_cast<KMeansCentroidState*>(state)) {
    centroid->last_emitted.clear();  // re-broadcast the position
    centroid->branch_kicked = false;
    return;
  }
  auto& shard = static_cast<KMeansShardState&>(*state);
  for (size_t i = 0; i < shard.last_sent.size(); ++i) {
    // Impossible count: forces re-emission.
    shard.last_sent.at_index(i).second = ~0ULL;
  }
}

bool KMeansProgram::ActivateOnFork(const VertexState& state) const {
  // Centroids drive the branch loop: their first branch commit re-emits
  // positions, forcing the full re-evaluation pass.
  return dynamic_cast<const KMeansCentroidState*>(&state) != nullptr;
}

uint32_t KMeansProgram::Nearest(const KMeansShardState& state,
                                const std::vector<double>& point) const {
  uint32_t best = 0;
  double best_d = std::numeric_limits<double>::infinity();
  for (uint32_t k = 0; k < options_.num_clusters; ++k) {
    auto pos = state.centroid_pos.find(k);
    if (pos == state.centroid_pos.end()) continue;
    const double d = Distance2(pos->second, point);
    if (d < best_d) {
      best_d = d;
      best = k;
    }
  }
  return best;
}

void KMeansProgram::AddPointToSums(KMeansShardState* state, uint32_t centroid,
                                   const std::vector<double>& point,
                                   int sign) const {
  auto it = state->sums.find(centroid);
  if (it == state->sums.end()) {
    if (sign < 0) return;  // no aggregate to retract from
    it = state->sums.emplace(centroid,
                             std::pair<std::vector<double>, uint64_t>{{}, 0})
             .first;
  }
  auto& entry = it->second;
  if (entry.first.size() < options_.dimensions) {
    entry.first.resize(options_.dimensions, 0.0);
  }
  kernel::Kernels().axpy(entry.first.data(), static_cast<double>(sign),
                         point.data(),
                         std::min<size_t>(options_.dimensions, point.size()));
  if (sign > 0) {
    ++entry.second;
  } else if (entry.second > 0) {
    --entry.second;
  }
  if (entry.second == 0) state->sums.erase(it);
}

}  // namespace tornado
