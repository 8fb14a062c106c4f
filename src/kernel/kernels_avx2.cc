// AVX2 kernel variant. Compiled with -mavx2 and -ffp-contract=off; only
// ever selected after a CPUID check, so the binary stays runnable on
// hosts without AVX2. On non-x86 builds this TU compiles to nothing.
#if defined(__x86_64__) || defined(_M_X64)

#define TORNADO_SIMD_LEVEL 2
#define TORNADO_SIMD_NS vec_avx2
#define TORNADO_KERNEL_TABLE kAvx2Kernels
#define TORNADO_KERNEL_NAME "avx2"

#include "kernel/simd_vec.h"

#include "kernel/kernels_body.inc"

#endif  // x86-64
