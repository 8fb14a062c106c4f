// Runtime CPU dispatch for the batch kernels: pick AVX2 when the host
// supports it, once, at first use. TORNADO_FORCE_SCALAR=<non-empty,
// != "0"> pins the scalar table instead (CI matrix lane).
//
// Because both variants are bit-identical (docs/KERNELS.md), the override
// is a performance knob, never a correctness one — which is exactly what
// the dispatch-matrix test asserts.

#include "kernel/kernels.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

namespace tornado {
namespace kernel {

extern const KernelOps kScalarKernels;
#if defined(__x86_64__) || defined(_M_X64)
extern const KernelOps kAvx2Kernels;
#endif

namespace {

bool HostSupports(KernelVariant v) {
  switch (v) {
    case KernelVariant::kScalar:
      return true;
    case KernelVariant::kAvx2:
#if (defined(__x86_64__) || defined(_M_X64)) && \
    (defined(__GNUC__) || defined(__clang__))
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
  }
  return false;
}

const KernelOps* TableFor(KernelVariant v) {
  switch (v) {
#if defined(__x86_64__) || defined(_M_X64)
    case KernelVariant::kAvx2:
      return &kAvx2Kernels;
#endif
    default:
      return &kScalarKernels;
  }
}

KernelVariant SelectFromEnv() {
  const char* force = std::getenv("TORNADO_FORCE_SCALAR");
  if (force != nullptr && force[0] != '\0' && std::strcmp(force, "0") != 0) {
    return KernelVariant::kScalar;
  }
  if (HostSupports(KernelVariant::kAvx2)) return KernelVariant::kAvx2;
  return KernelVariant::kScalar;
}

std::atomic<const KernelOps*>& ActiveTable() {
  static std::atomic<const KernelOps*> active{TableFor(SelectFromEnv())};
  return active;
}

std::atomic<KernelVariant>& ActiveVariantSlot() {
  static std::atomic<KernelVariant> v{SelectFromEnv()};
  return v;
}

}  // namespace

const char* KernelVariantName(KernelVariant v) {
  switch (v) {
    case KernelVariant::kScalar:
      return "scalar";
    case KernelVariant::kAvx2:
      return "avx2";
  }
  return "unknown";
}

const KernelOps& Kernels() { return *ActiveTable().load(std::memory_order_acquire); }

KernelVariant ActiveKernelVariant() {
  return ActiveVariantSlot().load(std::memory_order_acquire);
}

std::vector<KernelVariant> SupportedKernelVariants() {
  std::vector<KernelVariant> out = {KernelVariant::kScalar};
  if (HostSupports(KernelVariant::kAvx2)) out.push_back(KernelVariant::kAvx2);
  return out;
}

bool SetKernelVariant(KernelVariant v) {
  if (!HostSupports(v)) return false;
  ActiveTable().store(TableFor(v), std::memory_order_release);
  ActiveVariantSlot().store(v, std::memory_order_release);
  return true;
}

void ResetKernelVariant() { SetKernelVariant(SelectFromEnv()); }

}  // namespace kernel
}  // namespace tornado
