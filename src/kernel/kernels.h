#ifndef TORNADO_KERNEL_KERNELS_H_
#define TORNADO_KERNEL_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace tornado {
namespace kernel {

/// One batch-kernel vtable. Two instances exist per binary — scalar and
/// AVX2 — compiled from the same source (kernels_body.inc) against
/// the matching simd_vec.h level. Every entry is bit-identical across
/// variants by the canonical-lane-order construction documented in
/// docs/KERNELS.md, so switching variants can never change a result, only
/// its speed.
struct KernelOps {
  const char* name;

  /// Canonical pairwise-tree sum of x[0..n): eight strided lane
  /// accumulators combined in a fixed tree. NOT the sequential
  /// left-to-right sum — but the same value at every variant.
  double (*sum)(const double* x, size_t n);

  /// Minimum of x[0..n) (SSE operand-order min); +inf when n == 0.
  double (*min)(const double* x, size_t n);

  /// Canonical-tree dot product of x and y.
  double (*dot)(const double* x, const double* y, size_t n);

  /// Canonical-tree squared Euclidean distance between x and y.
  double (*sqdist)(const double* x, const double* y, size_t n);

  /// y[i] += x[i] (elementwise, bit-identical at every variant).
  void (*add)(double* y, const double* x, size_t n);

  /// y[i] += a * x[i] (explicit mul-then-add; never fused).
  void (*axpy)(double* y, double a, const double* x, size_t n);

  /// y[i] = x[i] / c.
  void (*scale_div)(double* y, const double* x, double c, size_t n);

  /// SGD weight step: w[i] -= rate * (g[i] / count + reg * w[i]).
  void (*sgd_step)(double* w, const double* g, double count, double rate,
                   double reg, size_t n);
};

enum class KernelVariant : uint8_t { kScalar = 0, kAvx2 = 1 };

const char* KernelVariantName(KernelVariant v);

/// The active kernel table. Selected once at first use: AVX2 when the
/// host supports it, unless TORNADO_FORCE_SCALAR is set (any non-empty
/// value other than "0"). Cheap enough to call per batch.
const KernelOps& Kernels();

KernelVariant ActiveKernelVariant();

/// Variants the host can run: always kScalar; kAvx2 when both the build
/// and the CPU support it (dispatch-matrix tests iterate this).
std::vector<KernelVariant> SupportedKernelVariants();

/// Forces the active variant (tests / benchmarks). Returns false — and
/// leaves the selection unchanged — when the host can't run `v`.
bool SetKernelVariant(KernelVariant v);

/// Drops any forced choice and re-runs startup selection (env + CPUID).
void ResetKernelVariant();

}  // namespace kernel
}  // namespace tornado

#endif  // TORNADO_KERNEL_KERNELS_H_
