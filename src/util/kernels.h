// Vectorized inner-loop kernels for the inference hot path.
//
// Two primitives carry nearly all of Sprout's arithmetic:
//   panel16:  out[k] = Σ_t w[t] * x[t·stride + k], k in [0, 16)
//             (the evolve, one 16-column output tile at a time, and the
//             forecaster's table build once per parameter set)
//   dot:      Σ_j a[j] * b[j]   (the forecast-CDF weighted sum)
//
// Both ship in two builds: a portable scalar path the compiler is free to
// auto-vectorize, and a hand-written AVX2 path selected by RUNTIME cpuid
// dispatch.  Release artifacts are never compiled with -march=native — the
// AVX2 code is emitted behind a per-function target attribute, so one
// binary runs (and picks the fast path) anywhere.
//
// Determinism contract: both paths produce BIT-IDENTICAL results.  panel16
// is element-wise (a multiply then an add per term, in order; no
// reassociation, no FMA contraction), and dot uses a fixed four-accumulator
// summation tree — the scalar path mimics the vector lanes' order exactly —
// so golden metrics, content-addressed shard merges and the forecast tables
// do not depend on which machine ran the sweep.
#pragma once

#include <cstddef>

namespace sprout::kernels {

// Σ_j a[j] * b[j] for j in [0, n), fixed 4-lane summation tree.
double dot(const double* a, const double* b, std::size_t n);

// out[k] = Σ_t w[t] * x[t * stride + k] for k in [0, 16) and t in [0, n),
// each term a multiply then an add in t order, starting from 0.  A 16-wide
// column panel of the product of a weight row and an n-row matrix; the
// register-blocked inner loop of the evolve and of the forecast-table
// build.
void panel16(double* out, const double* w, const double* x,
             std::size_t stride, std::size_t n);

// Name of the dispatched backend: "avx2" or "scalar".
const char* active_backend();

// Force a backend for benches/tests: "avx2", "scalar" or "auto".  Returns
// false (and changes nothing) if the request is unknown or unsupported on
// this CPU.  The SPROUT_KERNELS environment variable applies the same
// override at startup.
bool force_backend(const char* name);

}  // namespace sprout::kernels
