// Vectorized inner-loop kernels for the inference hot path.
//
// Two primitives carry nearly all of Sprout's per-tick arithmetic:
//   axpy:  dst[j] += a * src[j]   (the evolve accumulation, row by row)
//   dot:   Σ_j a[j] * b[j]        (the mixture-CDF weighted sum)
//
// Both ship in two builds: a portable scalar path the compiler is free to
// auto-vectorize, and a hand-written AVX2 path selected by RUNTIME cpuid
// dispatch.  Release artifacts are never compiled with -march=native — the
// AVX2 code is emitted behind a per-function target attribute, so one
// binary runs (and picks the fast path) anywhere.
//
// Determinism contract: both paths produce BIT-IDENTICAL results.  axpy is
// element-wise (no reassociation, no FMA contraction), and dot uses a fixed
// four-accumulator summation tree — the scalar path mimics the vector
// lanes' order exactly — so golden metrics and content-addressed shard
// merges do not depend on which machine ran the sweep.
#pragma once

#include <cstddef>

namespace sprout::kernels {

// dst[j] += a * src[j] for j in [0, n).
void axpy(double* dst, const double* src, double a, std::size_t n);

// Σ_j a[j] * b[j] for j in [0, n), fixed 4-lane summation tree.
double dot(const double* a, const double* b, std::size_t n);

// Name of the dispatched backend: "avx2" or "scalar".
const char* active_backend();

// Force a backend for benches/tests: "avx2", "scalar" or "auto".  Returns
// false (and changes nothing) if the request is unknown or unsupported on
// this CPU.  The SPROUT_KERNELS environment variable applies the same
// override at startup.
bool force_backend(const char* name);

}  // namespace sprout::kernels
