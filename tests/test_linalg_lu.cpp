// Tests for the pivoted LU factorization, inverse, and log-determinant.
#include "linalg/lu.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "linalg/blas.hpp"
#include "perf/flops.hpp"

namespace wlsms::linalg {
namespace {

ZMatrix random_matrix(std::size_t n, Rng& rng) {
  ZMatrix m(n, n);
  for (std::size_t c = 0; c < n; ++c)
    for (std::size_t r = 0; r < n; ++r)
      m(r, c) = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  // Diagonal dominance keeps the condition number benign for the exactness
  // checks below.
  for (std::size_t d = 0; d < n; ++d) m(d, d) += Complex{4.0, 0.0};
  return m;
}

class LuSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LuSizes, InverseTimesMatrixIsIdentity) {
  const std::size_t n = GetParam();
  Rng rng(n * 31 + 1);
  const ZMatrix a = random_matrix(n, rng);
  const ZMatrix inv = inverse(a);
  const ZMatrix prod = multiply(a, inv);
  EXPECT_LT(prod.max_abs_diff(ZMatrix::identity(n)),
            1e-11 * static_cast<double>(n));
}

TEST_P(LuSizes, SolveRecoversKnownSolution) {
  const std::size_t n = GetParam();
  Rng rng(n * 31 + 2);
  const ZMatrix a = random_matrix(n, rng);
  ZMatrix x_true(n, 2);
  for (std::size_t c = 0; c < 2; ++c)
    for (std::size_t r = 0; r < n; ++r)
      x_true(r, c) = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  const ZMatrix b = multiply(a, x_true);
  const ZMatrix x = LuFactorization(a).solve(b);
  EXPECT_LT(x.max_abs_diff(x_true), 1e-10 * static_cast<double>(n));
}

TEST_P(LuSizes, LogDetMatchesProductOfEigenvaluesForTriangular) {
  const std::size_t n = GetParam();
  Rng rng(n * 31 + 3);
  // Upper-triangular matrix: det = product of diagonal entries.
  ZMatrix t(n, n);
  Complex expected_log{0.0, 0.0};
  for (std::size_t c = 0; c < n; ++c) {
    for (std::size_t r = 0; r < c; ++r)
      t(r, c) = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
    const Complex d{rng.uniform(0.5, 2.0), rng.uniform(-0.4, 0.4)};
    t(c, c) = d;
    expected_log += Complex{std::log(std::abs(d)), std::arg(d)};
  }
  const Complex got = log_det(t);
  EXPECT_NEAR(got.real(), expected_log.real(), 1e-10);
  // The imaginary part is branch-dependent; compare modulo 2 pi.
  const double two_pi = 2.0 * std::acos(-1.0);
  double diff = std::fmod(got.imag() - expected_log.imag(), two_pi);
  if (diff > two_pi / 2) diff -= two_pi;
  if (diff < -two_pi / 2) diff += two_pi;
  EXPECT_NEAR(diff, 0.0, 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Sizes, LuSizes,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 64, 130));

// ---------------------------------------------------------------------------
// Blocked vs unblocked factorization. The two algorithms make identical
// pivot choices (same column search order), so they must agree on pivots and
// parity exactly and on the factors to roundoff.

ZMatrix reconstruct_plu(const LuFactorization& f) {
  const std::size_t n = f.order();
  ZMatrix l = ZMatrix::identity(n);
  ZMatrix u(n, n);
  for (std::size_t c = 0; c < n; ++c)
    for (std::size_t r = 0; r < n; ++r) {
      if (r > c)
        l(r, c) = f.packed()(r, c);
      else
        u(r, c) = f.packed()(r, c);
    }
  ZMatrix lu = multiply(l, u);
  // Undo the row interchanges in reverse: P^T (L U) should equal A.
  for (std::size_t k = n; k-- > 0;) {
    const std::size_t p = f.pivots()[k];
    if (p == k) continue;
    for (std::size_t c = 0; c < n; ++c) std::swap(lu(k, c), lu(p, c));
  }
  return lu;
}

TEST(LuBlocked, MatchesUnblockedOnRandomMatrix) {
  const std::size_t n = 130;  // the paper-geometry zone order
  Rng rng(1301);
  const ZMatrix a = random_matrix(n, rng);
  const LuFactorization blocked(a, LuAlgorithm::kBlocked);
  const LuFactorization unblocked(a, LuAlgorithm::kUnblocked);
  EXPECT_EQ(blocked.pivots(), unblocked.pivots());
  EXPECT_LT(blocked.packed().max_abs_diff(unblocked.packed()), 1e-10);
  const Complex ld_b = blocked.log_det();
  const Complex ld_u = unblocked.log_det();
  EXPECT_NEAR(ld_b.real(), ld_u.real(), 1e-10);
  EXPECT_NEAR(ld_b.imag(), ld_u.imag(), 1e-10);
}

TEST(LuBlocked, MatchesUnblockedWhenFirstPanelInverseIsWorst) {
  // The row-panel solve multiplies A12 by an explicit inv(L11). Its worst
  // case is a first L11 whose sub-diagonal multipliers are all -1:
  // inv(L11) then has entries 2^(i-j-1), up to 2^14 at a 16-wide panel, and
  // U12 = inv(L11) A12 comes out of heavy cancellation. A = L U with
  // L = [L11 0; L21 I] (L11, L21 all -1 below the diagonal) and
  // U = [I U12; 0 U22] builds it: every candidate in a first-panel column
  // ties the pivot under cabs1, so no row moves, and the dominant upper
  // triangular U22 keeps the later panels in place too.
  const std::size_t n = 128;
  const std::size_t w = kLuBlockSize;
  Rng rng(1282);
  ZMatrix u12(w, n - w);
  for (std::size_t c = 0; c < n - w; ++c)
    for (std::size_t r = 0; r < w; ++r)
      u12(r, c) = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  ZMatrix a(n, n);
  for (std::size_t j = 0; j < w; ++j) {
    a(j, j) = {1.0, 0.0};
    for (std::size_t i = j + 1; i < n; ++i) a(i, j) = {-1.0, 0.0};
  }
  for (std::size_t c = w; c < n; ++c) {
    // A12 = L11 U12 and A22 = L21 U12 + U22, row by row.
    Complex prefix{0.0, 0.0};  // sum of U12 rows above the current one
    for (std::size_t r = 0; r < w; ++r) {
      a(r, c) = u12(r, c - w) - prefix;
      prefix += u12(r, c - w);
    }
    for (std::size_t r = w; r < n; ++r) a(r, c) = -prefix;
    for (std::size_t r = w; r < c; ++r)
      a(r, c) += Complex{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
    a(c, c) += Complex{4.0 + rng.uniform(0.0, 1.0), rng.uniform(-1.0, 1.0)};
  }

  const LuFactorization blocked(a, LuAlgorithm::kBlocked);
  const LuFactorization unblocked(a, LuAlgorithm::kUnblocked);
  for (std::size_t j = 0; j < w; ++j) {
    ASSERT_EQ(unblocked.pivots()[j], j);
    for (std::size_t i = j + 1; i < w; ++i)
      ASSERT_EQ(unblocked.packed()(i, j), Complex(-1.0, 0.0));
  }
  EXPECT_EQ(blocked.pivots(), unblocked.pivots());
  EXPECT_LT(blocked.packed().max_abs_diff(unblocked.packed()), 1e-10);
  const Complex ld_b = blocked.log_det();
  const Complex ld_u = unblocked.log_det();
  EXPECT_NEAR(ld_b.real(), ld_u.real(), 1e-10);
  EXPECT_NEAR(ld_b.imag(), ld_u.imag(), 1e-10);
}

TEST(LuBlocked, ReconstructsMatrixThroughPlu) {
  for (const std::size_t n : {64ul, 97ul, 130ul}) {
    Rng rng(n);
    const ZMatrix a = random_matrix(n, rng);
    const LuFactorization f(a, LuAlgorithm::kBlocked);
    EXPECT_LT(reconstruct_plu(f).max_abs_diff(a), 1e-10 * static_cast<double>(n))
        << "n=" << n;
  }
}

TEST(LuBlocked, FactorizesPermutationMatrixExactly) {
  // Every pivot search must walk past zeros to the single 1 in the column;
  // a pure permutation stresses the row-interchange bookkeeping.
  const std::size_t n = 130;
  ZMatrix p(n, n);
  for (std::size_t c = 0; c < n; ++c) p((c + 37) % n, c) = {1.0, 0.0};
  const LuFactorization f(p, LuAlgorithm::kBlocked);
  EXPECT_LT(multiply(p, f.inverse()).max_abs_diff(ZMatrix::identity(n)),
            1e-13);
  EXPECT_NEAR(f.log_det().real(), 0.0, 1e-13);
}

TEST(LuBlocked, HandlesNearSingularMatrix) {
  // One row nearly linearly dependent on another: the factorization must
  // pivot through the tiny remaining entries and still solve accurately
  // (residual-wise) in both algorithms.
  const std::size_t n = 96;
  Rng rng(961);
  ZMatrix a = random_matrix(n, rng);
  for (std::size_t c = 0; c < n; ++c)
    a(1, c) = a(0, c) * Complex{2.0, 0.0} + a(1, c) * Complex{1e-10, 0.0};
  ZMatrix x_true(n, 1);
  for (std::size_t r = 0; r < n; ++r)
    x_true(r, 0) = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  const ZMatrix b = multiply(a, x_true);
  for (const LuAlgorithm alg :
       {LuAlgorithm::kBlocked, LuAlgorithm::kUnblocked}) {
    const ZMatrix x = LuFactorization(a, alg).solve(b);
    const ZMatrix residual = multiply(a, x);
    EXPECT_LT(residual.max_abs_diff(b), 1e-7)
        << "alg=" << static_cast<int>(alg);
  }
}

TEST(LuBlocked, SingularMatrixThrowsAtBlockedSize) {
  ZMatrix m(70, 70);  // all zeros, above the kAuto blocked threshold
  EXPECT_THROW(LuFactorization(m, LuAlgorithm::kBlocked), SingularMatrixError);
  std::vector<std::size_t> pivots;
  ZMatrix m2(70, 70);
  EXPECT_THROW(zgetrf_in_place(m2, pivots, LuAlgorithm::kBlocked),
               SingularMatrixError);
}

TEST(LuBlocked, AutoSelectsByOrder) {
  // kAuto must agree with whichever algorithm it picks; spot-check both
  // sides of the threshold by comparing against the explicit selections.
  Rng rng(77);
  const ZMatrix small = random_matrix(kLuBlockedThreshold - 1, rng);
  const ZMatrix large = random_matrix(kLuBlockedThreshold + 1, rng);
  EXPECT_EQ(zgetrf_flops(small.rows()),
            zgetrf_flops(small.rows(), LuAlgorithm::kUnblocked));
  EXPECT_EQ(zgetrf_flops(large.rows()),
            zgetrf_flops(large.rows(), LuAlgorithm::kBlocked));
}

TEST(LuBlocked, InstrumentedFlopsMatchAnalyticCount) {
  // The per-kernel counters booked by the panel/TRSM/GEMM pieces must sum
  // to exactly what zgetrf_flops predicts, for both algorithms.
  for (const LuAlgorithm alg :
       {LuAlgorithm::kBlocked, LuAlgorithm::kUnblocked}) {
    const std::size_t n = 130;
    Rng rng(n + static_cast<std::size_t>(alg));
    ZMatrix a = random_matrix(n, rng);
    std::vector<std::size_t> pivots;
    perf::FlopWindow window;
    zgetrf_in_place(a, pivots, alg);
    EXPECT_EQ(window.elapsed(), zgetrf_flops(n, alg))
        << "alg=" << static_cast<int>(alg);
  }
}

TEST(LuBlocked, GemmCarriesMostBlockedFlops) {
  // The point of the blocked factorization: at LIZ-sized orders the GEMM
  // trailing updates retire the bulk of the flops.
  const std::size_t n = 128;
  Rng rng(1281);
  ZMatrix a = random_matrix(n, rng);
  std::vector<std::size_t> pivots;
  perf::FlopWindow window;
  zgetrf_in_place(a, pivots, LuAlgorithm::kBlocked);
  EXPECT_GE(window.gemm_fraction(), 0.6);
}

TEST(Lu, SolveMultipleRhsInPlace) {
  Rng rng(93);
  const std::size_t n = 40;
  const ZMatrix a = random_matrix(n, rng);
  ZMatrix x_true(n, 3);
  for (std::size_t c = 0; c < 3; ++c)
    for (std::size_t r = 0; r < n; ++r)
      x_true(r, c) = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  ZMatrix b = multiply(a, x_true);
  std::vector<std::size_t> pivots;
  ZMatrix lu = a;
  zgetrf_in_place(lu, pivots);
  zgetrs_in_place(lu, pivots, b.data(), 3, n);
  EXPECT_LT(b.max_abs_diff(x_true), 1e-10);
}

TEST(Lu, DetOfKnownTwoByTwo) {
  ZMatrix m(2, 2);
  m(0, 0) = {1, 0};
  m(0, 1) = {2, 0};
  m(1, 0) = {3, 0};
  m(1, 1) = {4, 0};
  const Complex d = LuFactorization(m).det();
  EXPECT_NEAR(d.real(), -2.0, 1e-13);
  EXPECT_NEAR(d.imag(), 0.0, 1e-13);
}

TEST(Lu, DetTracksRowSwapSign) {
  // Permutation matrix with one swap: det = -1.
  ZMatrix p(2, 2);
  p(0, 1) = {1, 0};
  p(1, 0) = {1, 0};
  const Complex d = LuFactorization(p).det();
  EXPECT_NEAR(d.real(), -1.0, 1e-14);
}

TEST(Lu, LogDetOfIdentityIsZero) {
  const Complex ld = log_det(ZMatrix::identity(7));
  EXPECT_NEAR(ld.real(), 0.0, 1e-14);
  EXPECT_NEAR(ld.imag(), 0.0, 1e-14);
}

TEST(Lu, LogDetRealPartIsScaleCovariant) {
  // log|det(s A)| = n log s + log|det A| for real s > 0.
  Rng rng(91);
  const std::size_t n = 6;
  ZMatrix a = random_matrix(n, rng);
  const double base = log_det(a).real();
  ZMatrix scaled = a;
  for (std::size_t c = 0; c < n; ++c)
    for (std::size_t r = 0; r < n; ++r) scaled(r, c) *= 2.0;
  EXPECT_NEAR(log_det(scaled).real(),
              base + static_cast<double>(n) * std::log(2.0), 1e-10);
}

TEST(Lu, SingularMatrixThrows) {
  ZMatrix m(3, 3);  // all zeros
  EXPECT_THROW(LuFactorization{m}, SingularMatrixError);
}

TEST(Lu, RankDeficientThrows) {
  ZMatrix m(2, 2);
  m(0, 0) = {1, 0};
  m(0, 1) = {2, 0};
  m(1, 0) = {2, 0};
  m(1, 1) = {4, 0};  // second row = 2 * first
  EXPECT_THROW(LuFactorization{m}, SingularMatrixError);
}

TEST(Lu, NonSquareThrows) {
  const ZMatrix m(2, 3);
  EXPECT_THROW(LuFactorization{m}, ContractError);
}

TEST(Lu, PivotingHandlesZeroLeadingEntry) {
  ZMatrix m(2, 2);
  m(0, 0) = {0, 0};
  m(0, 1) = {1, 0};
  m(1, 0) = {1, 0};
  m(1, 1) = {0, 0};
  const ZMatrix inv = LuFactorization(m).inverse();
  EXPECT_LT(multiply(m, inv).max_abs_diff(ZMatrix::identity(2)), 1e-13);
}

TEST(Lu, SolveInPlaceSingleRhs) {
  Rng rng(92);
  const ZMatrix a = random_matrix(5, rng);
  std::vector<Complex> x_true(5);
  for (Complex& v : x_true) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  std::vector<Complex> b(5, Complex{0, 0});
  for (std::size_t j = 0; j < 5; ++j)
    for (std::size_t i = 0; i < 5; ++i) b[i] += a(i, j) * x_true[j];
  LuFactorization(a).solve_in_place(b.data());
  for (std::size_t i = 0; i < 5; ++i)
    EXPECT_NEAR(std::abs(b[i] - x_true[i]), 0.0, 1e-11);
}

}  // namespace
}  // namespace wlsms::linalg
