#ifndef TORNADO_KERNEL_SIMD_VEC_H_
#define TORNADO_KERNEL_SIMD_VEC_H_

// Portable 8-lane double vector, compiled per-TU at one of two levels:
//
//   TORNADO_SIMD_LEVEL 0  — scalar (double[8] loops)
//   TORNADO_SIMD_LEVEL 2  — AVX2   (2 x __m256d)
//
// Each kernel variant TU (kernels_scalar.cc / kernels_avx2.cc) defines
// TORNADO_SIMD_LEVEL and TORNADO_SIMD_NS before including this header, so
// every level gets its own namespace and there
// is exactly one definition of each DVec8 per program. The active variant
// is picked once at startup by kernel/dispatch.cc (CPUID, with the
// TORNADO_FORCE_SCALAR override).
//
// Determinism contract (docs/KERNELS.md): both levels perform the
// same IEEE-754 operations on the same lane assignment, so any
// lane-by-lane computation — and any reduction that combines the eight
// lane accumulators in the shared canonical tree — is bit-identical
// across levels. Min uses the SSE `a < b ? a : b` operand order at every
// level. These TUs are compiled with -ffp-contract=off so the scalar
// level cannot fuse a*b+c into an FMA the vector levels don't issue.

#ifndef TORNADO_SIMD_LEVEL
#define TORNADO_SIMD_LEVEL 0
#endif
#ifndef TORNADO_SIMD_NS
#define TORNADO_SIMD_NS vec_scalar
#endif

#if TORNADO_SIMD_LEVEL == 2
#include <immintrin.h>
#endif

#include <cstddef>

namespace tornado {
namespace kernel {
namespace TORNADO_SIMD_NS {

/// Eight doubles; lane j of a load from `p` is p[j] at every level.
struct DVec8;

#if TORNADO_SIMD_LEVEL == 2

struct DVec8 {
  __m256d lo;  // lanes 0..3
  __m256d hi;  // lanes 4..7

  static DVec8 Zero() {
    return {_mm256_setzero_pd(), _mm256_setzero_pd()};
  }
  static DVec8 Broadcast(double s) {
    return {_mm256_set1_pd(s), _mm256_set1_pd(s)};
  }
  static DVec8 Load(const double* p) {
    return {_mm256_loadu_pd(p), _mm256_loadu_pd(p + 4)};
  }
  void Store(double* p) const {
    _mm256_storeu_pd(p, lo);
    _mm256_storeu_pd(p + 4, hi);
  }
  friend DVec8 operator+(DVec8 a, DVec8 b) {
    return {_mm256_add_pd(a.lo, b.lo), _mm256_add_pd(a.hi, b.hi)};
  }
  friend DVec8 operator-(DVec8 a, DVec8 b) {
    return {_mm256_sub_pd(a.lo, b.lo), _mm256_sub_pd(a.hi, b.hi)};
  }
  friend DVec8 operator*(DVec8 a, DVec8 b) {
    return {_mm256_mul_pd(a.lo, b.lo), _mm256_mul_pd(a.hi, b.hi)};
  }
  friend DVec8 operator/(DVec8 a, DVec8 b) {
    return {_mm256_div_pd(a.lo, b.lo), _mm256_div_pd(a.hi, b.hi)};
  }
  static DVec8 Min(DVec8 a, DVec8 b) {
    return {_mm256_min_pd(a.lo, b.lo), _mm256_min_pd(a.hi, b.hi)};
  }
};

#else  // scalar

struct DVec8 {
  double l[8];

  static DVec8 Zero() { return {{0, 0, 0, 0, 0, 0, 0, 0}}; }
  static DVec8 Broadcast(double s) { return {{s, s, s, s, s, s, s, s}}; }
  static DVec8 Load(const double* p) {
    DVec8 r;
    for (int j = 0; j < 8; ++j) r.l[j] = p[j];
    return r;
  }
  void Store(double* p) const {
    for (int j = 0; j < 8; ++j) p[j] = l[j];
  }
  friend DVec8 operator+(DVec8 a, DVec8 b) {
    DVec8 r;
    for (int j = 0; j < 8; ++j) r.l[j] = a.l[j] + b.l[j];
    return r;
  }
  friend DVec8 operator-(DVec8 a, DVec8 b) {
    DVec8 r;
    for (int j = 0; j < 8; ++j) r.l[j] = a.l[j] - b.l[j];
    return r;
  }
  friend DVec8 operator*(DVec8 a, DVec8 b) {
    DVec8 r;
    for (int j = 0; j < 8; ++j) r.l[j] = a.l[j] * b.l[j];
    return r;
  }
  friend DVec8 operator/(DVec8 a, DVec8 b) {
    DVec8 r;
    for (int j = 0; j < 8; ++j) r.l[j] = a.l[j] / b.l[j];
    return r;
  }
  /// SSE minpd operand order: `a < b ? a : b`, so NaN/-0 handling matches
  /// the vector levels bit-for-bit.
  static DVec8 Min(DVec8 a, DVec8 b) {
    DVec8 r;
    for (int j = 0; j < 8; ++j) r.l[j] = a.l[j] < b.l[j] ? a.l[j] : b.l[j];
    return r;
  }
};

#endif  // TORNADO_SIMD_LEVEL

}  // namespace TORNADO_SIMD_NS
}  // namespace kernel
}  // namespace tornado

#endif  // TORNADO_KERNEL_SIMD_VEC_H_
