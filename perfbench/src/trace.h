#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// Host-time spans recorded by the benchmark around its calls into each
// layer, and the sample statistics the benchmark reports.
//
// Two kinds of span:
//  - Drive spans (core.ingest, core.query) are the benchmark's own calls
//    into TornadoCluster. Each one is kept in memory as a full record and
//    written out at exit.
//  - Leaf spans (algos.*, stream.next) are timed by the wrappers around the
//    program's extension points. There are millions per run, so each one is
//    folded into its layer's totals and into the child time of the drive
//    span that is open when it ends.
// A span's self time is its duration minus its children's time.

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

namespace perfbench {

enum class Layer : uint8_t {
  kCoreIngest,
  kCoreQuery,
  kAlgosInput,
  kAlgosUpdate,
  kAlgosScatter,
  kAlgosState,
  kStreamNext,
  kCount,
};
inline constexpr size_t kLayerCount = static_cast<size_t>(Layer::kCount);

/// Metric-name stem of a layer ("core.ingest", "algos.update", ...).
const char* LayerName(Layer layer);

/// Seconds since an arbitrary epoch, from std::chrono::steady_clock.
double WallSeconds();

/// CPU seconds this process has used (CLOCK_PROCESS_CPUTIME_ID). The sim
/// backend runs on the calling thread, so this is the host time the
/// simulation took, without the time other processes held the CPU.
double CpuSeconds();

/// Span recorder. Single-threaded: the sim backend runs every layer on the
/// calling thread.
class Tracer {
 public:
  using NowFn = double (*)();

  struct Span {
    Layer layer;
    int32_t parent;  // index into spans(), -1 for a root
    double start;
    double end;
    double child_seconds;  // time of the span's (leaf or drive) children
  };

  struct Totals {
    double seconds = 0.0;  // inclusive time
    uint64_t calls = 0;
  };

  explicit Tracer(NowFn now = &WallSeconds) : now_(now) {}

  double now() const { return now_(); }

  /// Opens a drive span nested in the innermost open one.
  void Begin(Layer layer);
  /// Closes the innermost open drive span.
  void End();

  /// Records a closed leaf span of `seconds` under the innermost open
  /// drive span. Leaves that end while no drive span is open count in
  /// the layer totals only.
  void AddLeaf(Layer layer, double seconds);

  const std::vector<Span>& spans() const { return spans_; }
  const Totals& totals(Layer layer) const {
    return totals_[static_cast<size_t>(layer)];
  }

  /// Summed self time of every drive span of `layer`, or of every leaf of
  /// `layer` (leaves have no children, so that is their inclusive time).
  double SelfSeconds(Layer layer) const;

  /// Summed duration of all root spans: the time the drive loop spent inside
  /// the program.
  double RootSeconds() const;

  /// Appends the drive spans as a JSON array to `out`.
  void AppendSpansJson(std::string* out) const;

 private:
  NowFn now_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
  std::array<Totals, kLayerCount> totals_{};
};

/// Times `fn()` as a leaf span of `layer` on `tracer`.
template <class Fn>
auto TimeLeaf(Tracer* tracer, Layer layer, Fn&& fn) {
  const double start = tracer->now();
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    tracer->AddLeaf(layer, tracer->now() - start);
  } else {
    auto result = fn();
    tracer->AddLeaf(layer, tracer->now() - start);
    return result;
  }
}

/// RAII drive span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, Layer layer) : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->Begin(layer);
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
};

// --- Sample statistics. ---

/// Linear-interpolated percentile (0..100) of `samples`; 0 when empty.
double Percentile(std::vector<double> samples, double pct);

double Median(std::vector<double> samples);

/// Whether `pct` of `n` samples leaves at least ten samples beyond it, the
/// rule for reporting a tail percentile.
bool PercentileReportable(size_t n, double pct);

/// The highest of p99.9, p99 and p90 that `n` samples may report, or
/// nullopt when even p90 has fewer than ten samples beyond it.
std::optional<double> HighestReportablePercentile(size_t n);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
