// Tests for the hand-rolled ZGEMM/ZGEMV kernels against a naive reference.
#include "linalg/blas.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "common/rng.hpp"
#include "perf/flops.hpp"

namespace wlsms::linalg {
namespace {

ZMatrix random_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
  ZMatrix m(rows, cols);
  for (std::size_t c = 0; c < cols; ++c)
    for (std::size_t r = 0; r < rows; ++r)
      m(r, c) = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  return m;
}

ZMatrix naive_gemm(Complex alpha, const ZMatrix& a, const ZMatrix& b,
                   Complex beta, const ZMatrix& c) {
  ZMatrix out = c;
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < b.cols(); ++j) {
      Complex acc{0.0, 0.0};
      for (std::size_t k = 0; k < a.cols(); ++k) acc += a(i, k) * b(k, j);
      out(i, j) = beta * c(i, j) + alpha * acc;
    }
  return out;
}

struct GemmShape {
  std::size_t m, k, n;
};

class ZgemmShapes : public ::testing::TestWithParam<GemmShape> {};

TEST_P(ZgemmShapes, MatchesNaiveReference) {
  const auto [m, k, n] = GetParam();
  Rng rng(m * 10007 + k * 101 + n);
  const ZMatrix a = random_matrix(m, k, rng);
  const ZMatrix b = random_matrix(k, n, rng);
  ZMatrix c = random_matrix(m, n, rng);
  const Complex alpha{0.7, -0.3};
  const Complex beta{-0.2, 0.4};
  const ZMatrix expected = naive_gemm(alpha, a, b, beta, c);
  zgemm(alpha, a, b, beta, c);
  EXPECT_LT(c.max_abs_diff(expected), 1e-12 * static_cast<double>(k + 1));
}

// The shapes deliberately straddle every tiling boundary of the packed
// kernel: below the packing threshold, non-multiples of the MR x NR register
// tile, non-multiples of the cache blocks, and the LU trailing-update shapes
// (k = panel width).
INSTANTIATE_TEST_SUITE_P(
    Shapes, ZgemmShapes,
    ::testing::Values(GemmShape{1, 1, 1}, GemmShape{2, 3, 4},
                      GemmShape{5, 5, 5}, GemmShape{16, 16, 16},
                      GemmShape{17, 31, 13}, GemmShape{64, 64, 64},
                      GemmShape{65, 70, 67}, GemmShape{1, 128, 1},
                      GemmShape{128, 1, 128}, GemmShape{130, 130, 2},
                      GemmShape{kGemmMR - 1, 40, kGemmNR - 1},
                      GemmShape{kGemmMR + 1, 50, kGemmNR + 1},
                      GemmShape{130, 130, 130}, GemmShape{112, 16, 112},
                      GemmShape{33, 129, 65}, GemmShape{96, 200, 40}));

TEST_P(ZgemmShapes, NaiveKernelMatchesReference) {
  const auto [m, k, n] = GetParam();
  Rng rng(m * 7919 + k * 31 + n);
  const ZMatrix a = random_matrix(m, k, rng);
  const ZMatrix b = random_matrix(k, n, rng);
  ZMatrix c = random_matrix(m, n, rng);
  const Complex alpha{0.7, -0.3};
  const Complex beta{-0.2, 0.4};
  const ZMatrix expected = naive_gemm(alpha, a, b, beta, c);
  zgemm_naive(alpha, a, b, beta, c);
  EXPECT_LT(c.max_abs_diff(expected), 1e-12 * static_cast<double>(k + 1));
}

TEST(Zgemm, BetaZeroOverwritesGarbage) {
  Rng rng(77);
  const ZMatrix a = random_matrix(4, 4, rng);
  const ZMatrix b = random_matrix(4, 4, rng);
  ZMatrix c(4, 4);
  for (std::size_t i = 0; i < 4; ++i) c(i, i) = {1e300, -1e300};
  zgemm(Complex{1, 0}, a, b, Complex{0, 0}, c);
  const ZMatrix expected = naive_gemm({1, 0}, a, b, {0, 0}, ZMatrix(4, 4));
  EXPECT_LT(c.max_abs_diff(expected), 1e-10);
}

TEST(Zgemm, BetaZeroOverwritesNan) {
  // beta == 0 must mean "overwrite", never "multiply": NaN or Inf left in an
  // uninitialized output buffer would otherwise poison the product.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Rng rng(81);
  const ZMatrix a = random_matrix(24, 24, rng);
  const ZMatrix b = random_matrix(24, 24, rng);
  const ZMatrix expected = naive_gemm({1, 0}, a, b, {0, 0}, ZMatrix(24, 24));
  for (const bool naive : {false, true}) {
    ZMatrix c(24, 24);
    for (std::size_t j = 0; j < 24; ++j)
      for (std::size_t i = 0; i < 24; ++i) c(i, j) = {nan, nan};
    if (naive)
      zgemm_naive(Complex{1, 0}, a, b, Complex{0, 0}, c);
    else
      zgemm(Complex{1, 0}, a, b, Complex{0, 0}, c);
    EXPECT_LT(c.max_abs_diff(expected), 1e-11) << "naive=" << naive;
  }
}

TEST(Zgemv, BetaZeroOverwritesNan) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Rng rng(82);
  const ZMatrix a = random_matrix(6, 5, rng);
  const ZMatrix x = random_matrix(5, 1, rng);
  ZMatrix expected(6, 1);
  zgemm(Complex{1, 0}, a, x, Complex{0, 0}, expected);
  std::vector<Complex> y(6, Complex{nan, nan});
  zgemv(Complex{1, 0}, a, x.data(), Complex{0, 0}, y.data());
  for (std::size_t i = 0; i < 6; ++i)
    EXPECT_NEAR(std::abs(y[i] - expected(i, 0)), 0.0, 1e-13);
}

TEST(ZgemmView, OperatesOnSubmatrixWithLeadingDimension) {
  // The raw seam an accelerator backend would implement: C views need not
  // be packed, so exercise lda/ldb/ldc larger than the logical extents.
  Rng rng(84);
  const std::size_t ld = 40;
  const std::size_t m = 17, n = 13, k = 29;
  const ZMatrix a_full = random_matrix(ld, k, rng);
  const ZMatrix b_full = random_matrix(ld, n, rng);
  ZMatrix c_full = random_matrix(ld, n, rng);
  const ZMatrix c_orig = c_full;
  zgemm_view(m, n, k, Complex{1, 0}, a_full.data(), ld, b_full.data(), ld,
             Complex{1, 0}, c_full.data(), ld);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < ld; ++i) {
      Complex expected = c_orig(i, j);
      if (i < m)
        for (std::size_t kk = 0; kk < k; ++kk)
          expected += a_full(i, kk) * b_full(kk, j);
      EXPECT_NEAR(std::abs(c_full(i, j) - expected), 0.0, 1e-12)
          << "i=" << i << " j=" << j;
    }
}

TEST(Zgemm, BooksExactFlopsUnderZgemmKernel) {
  Rng rng(85);
  const ZMatrix a = random_matrix(70, 30, rng);
  const ZMatrix b = random_matrix(30, 20, rng);
  ZMatrix c(70, 20);
  perf::FlopWindow window;
  zgemm(Complex{1, 0}, a, b, Complex{0, 0}, c);
  EXPECT_EQ(window.elapsed(perf::Kernel::kZgemm),
            perf::cost::zgemm(70, 20, 30));
  EXPECT_EQ(window.elapsed(), perf::cost::zgemm(70, 20, 30));
}

TEST(Zgemm, MultiplyByIdentityIsIdentityMap) {
  Rng rng(78);
  const ZMatrix a = random_matrix(9, 9, rng);
  EXPECT_LT(multiply(a, ZMatrix::identity(9)).max_abs_diff(a), 1e-13);
  EXPECT_LT(multiply(ZMatrix::identity(9), a).max_abs_diff(a), 1e-13);
}

TEST(Zgemm, ShapeMismatchThrows) {
  const ZMatrix a(2, 3);
  const ZMatrix b(4, 2);  // inner dimensions disagree
  ZMatrix c(2, 2);
  EXPECT_THROW(zgemm(Complex{1, 0}, a, b, Complex{0, 0}, c),
               ContractError);
}

TEST(Zgemm, ReportsFlops) {
  Rng rng(79);
  const ZMatrix a = random_matrix(8, 8, rng);
  const ZMatrix b = random_matrix(8, 8, rng);
  ZMatrix c(8, 8);
  perf::FlopWindow window;
  zgemm(Complex{1, 0}, a, b, Complex{0, 0}, c);
  EXPECT_GE(window.elapsed(), perf::cost::zgemm(8, 8, 8));
}

TEST(Zgemv, MatchesGemmColumn) {
  Rng rng(80);
  const ZMatrix a = random_matrix(6, 5, rng);
  const ZMatrix x = random_matrix(5, 1, rng);
  ZMatrix y_ref(6, 1);
  zgemm(Complex{1, 0}, a, x, Complex{0, 0}, y_ref);

  std::vector<Complex> y(6, Complex{0, 0});
  zgemv(Complex{1, 0}, a, x.data(), Complex{0, 0}, y.data());
  for (std::size_t i = 0; i < 6; ++i)
    EXPECT_NEAR(std::abs(y[i] - y_ref(i, 0)), 0.0, 1e-13);
}

}  // namespace
}  // namespace wlsms::linalg
