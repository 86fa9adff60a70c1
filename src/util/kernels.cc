#include "util/kernels.h"

#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define SPROUT_KERNELS_HAVE_AVX2 1
#include <immintrin.h>
#else
#define SPROUT_KERNELS_HAVE_AVX2 0
#endif

namespace sprout::kernels {

namespace {

// --- scalar path ---------------------------------------------------------
//
// The panel16 loop is element-wise, so whatever the compiler
// does with them (SSE2, unrolling) cannot change results — IEEE add/mul per
// element, and FMA contraction is off by default without -ffast-math.  The
// dot loop spells out the same four-accumulator pattern the AVX2 path uses
// so both reduce in the same order.

void panel16_scalar(double* out, const double* w, const double* x,
                    std::size_t stride, std::size_t n) {
  double acc[16] = {};
  for (std::size_t t = 0; t < n; ++t) {
    const double wt = w[t];
    const double* row = x + t * stride;
    for (int k = 0; k < 16; ++k) acc[k] += wt * row[k];
  }
  for (int k = 0; k < 16; ++k) out[k] = acc[k];
}

double dot_scalar(const double* a, const double* b, std::size_t n) {
  double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    acc0 += a[j] * b[j];
    acc1 += a[j + 1] * b[j + 1];
    acc2 += a[j + 2] * b[j + 2];
    acc3 += a[j + 3] * b[j + 3];
  }
  double sum = (acc0 + acc2) + (acc1 + acc3);
  for (; j < n; ++j) sum += a[j] * b[j];
  return sum;
}

// --- AVX2 path -----------------------------------------------------------

#if SPROUT_KERNELS_HAVE_AVX2

__attribute__((target("avx2"))) double dot_avx2(const double* a,
                                                const double* b,
                                                std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    acc = _mm256_add_pd(
        acc, _mm256_mul_pd(_mm256_loadu_pd(a + j), _mm256_loadu_pd(b + j)));
  }
  // Reduce lanes [0,1,2,3] as (l0 + l2) + (l1 + l3) — the scalar path's
  // accumulators map to lanes, so the tree must match it exactly.
  alignas(32) double lane[4];
  _mm256_store_pd(lane, acc);
  double sum = (lane[0] + lane[2]) + (lane[1] + lane[3]);
  for (; j < n; ++j) sum += a[j] * b[j];
  return sum;
}

__attribute__((target("avx2"))) void panel16_avx2(double* out,
                                                  const double* w,
                                                  const double* x,
                                                  std::size_t stride,
                                                  std::size_t n) {
  // Four independent accumulators cover the panel, so consecutive terms'
  // adds overlap instead of waiting on one chain.  Mul + add, not FMA.
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  __m256d acc2 = _mm256_setzero_pd();
  __m256d acc3 = _mm256_setzero_pd();
  for (std::size_t t = 0; t < n; ++t) {
    const __m256d wt = _mm256_set1_pd(w[t]);
    const double* row = x + t * stride;
    acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(wt, _mm256_loadu_pd(row)));
    acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(wt, _mm256_loadu_pd(row + 4)));
    acc2 = _mm256_add_pd(acc2, _mm256_mul_pd(wt, _mm256_loadu_pd(row + 8)));
    acc3 = _mm256_add_pd(acc3, _mm256_mul_pd(wt, _mm256_loadu_pd(row + 12)));
  }
  _mm256_storeu_pd(out, acc0);
  _mm256_storeu_pd(out + 4, acc1);
  _mm256_storeu_pd(out + 8, acc2);
  _mm256_storeu_pd(out + 12, acc3);
}

#endif  // SPROUT_KERNELS_HAVE_AVX2

using DotFn = double (*)(const double*, const double*, std::size_t);
using Panel16Fn = void (*)(double*, const double*, const double*, std::size_t,
                           std::size_t);

struct Backend {
  DotFn dot;
  Panel16Fn panel16;
  const char* name;
};

constexpr Backend kScalar{dot_scalar, panel16_scalar, "scalar"};
#if SPROUT_KERNELS_HAVE_AVX2
constexpr Backend kAvx2{dot_avx2, panel16_avx2, "avx2"};
#endif

bool avx2_supported() {
#if SPROUT_KERNELS_HAVE_AVX2
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

Backend pick_auto() {
#if SPROUT_KERNELS_HAVE_AVX2
  if (avx2_supported()) return kAvx2;
#endif
  return kScalar;
}

Backend resolve_startup() {
  if (const char* env = std::getenv("SPROUT_KERNELS")) {
    if (std::strcmp(env, "scalar") == 0) return kScalar;
#if SPROUT_KERNELS_HAVE_AVX2
    if (std::strcmp(env, "avx2") == 0 && avx2_supported()) return kAvx2;
#endif
  }
  return pick_auto();
}

// Dispatch state.  Resolved once before main() (static init is
// single-threaded here: no other static initializer in this TU); only
// force_backend — a bench/test entry — mutates it afterwards.
Backend g_backend = resolve_startup();

}  // namespace

// NOTE: these wrappers are the hottest call sites in the tree and carry NO
// instrumentation — not even a disabled-branch check.  The per-backend
// dispatch tally ("kernels.dot.avx2", ...) is counted per forecast at the
// call site, which knows how many probes it made; the perf trajectory's
// obs-overhead guard (< 1% on the banded-evolve bench) exists to keep it
// that way.

double dot(const double* a, const double* b, std::size_t n) {
  return g_backend.dot(a, b, n);
}

void panel16(double* out, const double* w, const double* x,
             std::size_t stride, std::size_t n) {
  g_backend.panel16(out, w, x, stride, n);
}

const char* active_backend() { return g_backend.name; }

bool force_backend(const char* name) {
  if (std::strcmp(name, "scalar") == 0) {
    g_backend = kScalar;
    return true;
  }
  if (std::strcmp(name, "auto") == 0) {
    g_backend = pick_auto();
    return true;
  }
#if SPROUT_KERNELS_HAVE_AVX2
  if (std::strcmp(name, "avx2") == 0 && avx2_supported()) {
    g_backend = kAvx2;
    return true;
  }
#endif
  return false;
}

}  // namespace sprout::kernels
