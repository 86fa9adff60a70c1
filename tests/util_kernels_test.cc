#include "util/kernels.h"

#include <cstring>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace sprout::kernels {
namespace {

std::vector<double> random_vec(std::mt19937_64& rng, std::size_t n) {
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  std::vector<double> v(n);
  for (double& x : v) x = u(rng);
  return v;
}

// Restores whatever backend was active on entry, so tests compose.
class BackendGuard {
 public:
  BackendGuard() : saved_(active_backend()) {}
  ~BackendGuard() { force_backend(saved_.c_str()); }

 private:
  std::string saved_;
};

TEST(Kernels, DotMatchesNaiveSumWithinTolerance) {
  std::mt19937_64 rng(2);
  for (const std::size_t n : {0UL, 1UL, 5UL, 64UL, 109UL, 257UL}) {
    const std::vector<double> a = random_vec(rng, n);
    const std::vector<double> b = random_vec(rng, n);
    double naive = 0.0;
    for (std::size_t j = 0; j < n; ++j) naive += a[j] * b[j];
    EXPECT_NEAR(dot(a.data(), b.data(), n), naive, 1e-12 * (1.0 + n));
  }
}

TEST(Kernels, BackendsAreBitIdentical) {
  // The determinism contract: whatever backend cpuid picked must agree with
  // the scalar reference TO THE BIT, or goldens become machine-dependent.
  BackendGuard guard;
  if (!force_backend("avx2")) {
    GTEST_SKIP() << "no AVX2 on this host; scalar is the only backend";
  }
  std::mt19937_64 rng(3);
  for (const std::size_t n : {1UL, 4UL, 6UL, 64UL, 109UL, 255UL, 256UL}) {
    const std::vector<double> a = random_vec(rng, n);
    const std::vector<double> b = random_vec(rng, n);

    // panel16 over an n-row matrix whose row stride is off the panel width.
    const std::size_t stride = 24;
    const std::vector<double> x = random_vec(rng, n * stride);
    double panel_vec[16];
    double panel_sca[16];

    ASSERT_TRUE(force_backend("avx2"));
    const double dot_vec = dot(a.data(), b.data(), n);
    panel16(panel_vec, a.data(), x.data(), stride, n);

    ASSERT_TRUE(force_backend("scalar"));
    const double dot_sca = dot(a.data(), b.data(), n);
    panel16(panel_sca, a.data(), x.data(), stride, n);

    EXPECT_EQ(std::memcmp(&dot_vec, &dot_sca, sizeof(double)), 0) << "n=" << n;
    EXPECT_EQ(std::memcmp(panel_vec, panel_sca, sizeof panel_vec), 0)
        << "n=" << n;
    // Each lane is the in-order multiply-then-add sum, bit for bit.
    for (std::size_t k = 0; k < 16; ++k) {
      double acc = 0.0;
      for (std::size_t t = 0; t < n; ++t) acc += a[t] * x[t * stride + k];
      EXPECT_EQ(std::memcmp(&acc, &panel_sca[k], sizeof acc), 0)
          << "n=" << n << " k=" << k;
    }
  }
}

TEST(Kernels, ForceBackendRejectsUnknownNames) {
  BackendGuard guard;
  EXPECT_FALSE(force_backend("avx512"));
  EXPECT_FALSE(force_backend(""));
  EXPECT_TRUE(force_backend("scalar"));
  EXPECT_STREQ(active_backend(), "scalar");
  EXPECT_TRUE(force_backend("auto"));
}

}  // namespace
}  // namespace sprout::kernels
