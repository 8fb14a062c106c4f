#include "trace.h"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace perfbench {

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kCoreIngest:
      return "core.ingest";
    case Layer::kCoreQuery:
      return "core.query";
    case Layer::kAlgosInput:
      return "algos.input";
    case Layer::kAlgosUpdate:
      return "algos.update";
    case Layer::kAlgosScatter:
      return "algos.scatter";
    case Layer::kAlgosState:
      return "algos.state";
    case Layer::kStreamNext:
      return "stream.next";
    case Layer::kCount:
      break;
  }
  return "?";
}

double WallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

void Tracer::Begin(Layer layer) {
  const int32_t parent = open_.empty() ? -1 : open_.back();
  open_.push_back(static_cast<int32_t>(spans_.size()));
  spans_.push_back(Span{layer, parent, now(), 0.0, 0.0});
}

void Tracer::End() {
  Span& span = spans_[open_.back()];
  open_.pop_back();
  span.end = now();
  const double seconds = span.end - span.start;
  Totals& totals = totals_[static_cast<size_t>(span.layer)];
  totals.seconds += seconds;
  ++totals.calls;
  if (span.parent >= 0) spans_[span.parent].child_seconds += seconds;
}

void Tracer::AddLeaf(Layer layer, double seconds) {
  Totals& totals = totals_[static_cast<size_t>(layer)];
  totals.seconds += seconds;
  ++totals.calls;
  if (!open_.empty()) spans_[open_.back()].child_seconds += seconds;
}

double Tracer::SelfSeconds(Layer layer) const {
  bool found = false;
  double self = 0.0;
  for (const Span& span : spans_) {
    if (span.layer != layer) continue;
    found = true;
    self += (span.end - span.start) - span.child_seconds;
  }
  return found ? self : totals(layer).seconds;
}

double Tracer::RootSeconds() const {
  double total = 0.0;
  for (const Span& span : spans_) {
    if (span.parent < 0) total += span.end - span.start;
  }
  return total;
}

void Tracer::AppendSpansJson(std::string* out) const {
  out->push_back('[');
  char buf[192];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"parent\":%d,\"start\":%.9f,"
                  "\"end\":%.9f,\"child_s\":%.9f}",
                  i == 0 ? "" : ",", LayerName(s.layer), s.parent, s.start,
                  s.end, s.child_seconds);
    out->append(buf);
  }
  out->push_back(']');
}

double Percentile(std::vector<double> samples, double pct) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank =
      std::clamp(pct, 0.0, 100.0) / 100.0 *
      static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 50.0);
}

bool PercentileReportable(size_t n, double pct) {
  // n * (100 - pct) / 100 >= 10, with slack for pct values such as 99.9
  // that have no exact binary form.
  return static_cast<double>(n) * (100.0 - pct) >= 1000.0 - 1e-6;
}

std::optional<double> HighestReportablePercentile(size_t n) {
  for (double pct : {99.9, 99.0, 90.0}) {
    if (PercentileReportable(n, pct)) return pct;
  }
  return std::nullopt;
}

}  // namespace perfbench
