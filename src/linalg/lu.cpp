#include "linalg/lu.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "linalg/blas.hpp"
#include "perf/flops.hpp"

namespace wlsms::linalg {

namespace {

// Unblocked partial-pivoting factorization of the panel occupying columns
// [k0, k0+width) of an n x n matrix, rows k0..n-1. Row swaps are applied to
// the *full* rows immediately (equivalent to LAPACK's deferred ZLASWP), so
// the packed factors are laid out exactly as the unblocked algorithm leaves
// them. Rank-1 updates stay inside the panel columns; the caller updates
// the row panel and the trailing matrix with two GEMMs. Returns the swap
// parity contribution of this panel.
// Pivot magnitude |re| + |im| (LAPACK's CABS1, as in ZGETF2): a cheaper
// magnitude proxy that is within sqrt(2) of the modulus but NOT
// order-equivalent to it (cabs1(3+4i) = 7 > cabs1(6) = 6 while
// |3+4i| = 5 < 6), so it can select different — equally valid — pivots
// than the std::abs pivoting used before the blocked rewrite. Factors may
// therefore differ from earlier releases in row ordering and rounding,
// within normal partial-pivoting error bounds.
double cabs1(Complex z) { return std::abs(z.real()) + std::abs(z.imag()); }

int factor_panel(ZMatrix& a, std::vector<std::size_t>& pivots, std::size_t k0,
                 std::size_t width) {
  const std::size_t n = a.rows();
  int parity = 1;
  for (std::size_t j = k0; j < k0 + width; ++j) {
    std::size_t pivot_row = j;
    double pivot_mag = cabs1(a(j, j));
    for (std::size_t i = j + 1; i < n; ++i) {
      const double mag = cabs1(a(i, j));
      if (mag > pivot_mag) {
        pivot_mag = mag;
        pivot_row = i;
      }
    }
    if (pivot_mag == 0.0) throw SingularMatrixError(j);
    pivots[j] = pivot_row;
    if (pivot_row != j) {
      parity = -parity;
      for (std::size_t c = 0; c < n; ++c) std::swap(a(j, c), a(pivot_row, c));
    }

    const Complex inv_pivot = Complex{1.0, 0.0} / a(j, j);
    Complex* colj = a.col(j);
    for (std::size_t i = j + 1; i < n; ++i) colj[i] *= inv_pivot;

    for (std::size_t c = j + 1; c < k0 + width; ++c) {
      const Complex ujc = a(j, c);
      if (ujc == Complex{0.0, 0.0}) continue;
      Complex* colc = a.col(c);
      for (std::size_t i = j + 1; i < n; ++i) colc[i] -= colj[i] * ujc;
    }
  }
  perf::add_flops(perf::Kernel::kPanel,
                  perf::cost::zgetrf_panel(n - k0, width));
  return parity;
}

// inv (width x width, column-major, leading dimension width) := L11^{-1}
// with L11 the unit-lower panel block a[k0.., k0..], by forward
// substitution against the identity one column at a time.
void invert_unit_lower(const ZMatrix& a, std::size_t k0, std::size_t width,
                       Complex* inv) {
  for (std::size_t c = 0; c < width; ++c) {
    Complex* x = inv + c * width;
    std::fill(x, x + width, Complex{0.0, 0.0});
    x[c] = {1.0, 0.0};
    for (std::size_t kk = c; kk < width; ++kk) {
      const Complex xk = x[kk];
      const Complex* lk = a.col(k0 + kk) + k0;
      for (std::size_t i = kk + 1; i < width; ++i) x[i] -= lk[i] * xk;
    }
  }
  perf::add_flops(perf::Kernel::kTrsm, perf::cost::ztrtri_unit_lower(width));
}

int zgetrf_unblocked(ZMatrix& a, std::vector<std::size_t>& pivots) {
  return factor_panel(a, pivots, 0, a.rows());
}

// One panel of the right-looking blocked factorization: factorize the
// pivot panel, solve the row panel U12 = L11^{-1} A12, then apply the
// trailing update A22 -= L21 * U12 -- the GEMM that dominates. The row-panel
// solve is GEMM-shaped too: the explicit inverse of the unit-lower w x w
// L11 times a copy of A12 (the GEMM cannot overwrite the A12 it reads).
// That doubles the row panel's flops, yet at order 128 it takes ~30% less
// time than a scalar triangular solve. Returns the panel's swap parity.
int blocked_panel(ZMatrix& a, std::vector<std::size_t>& pivots,
                  std::size_t k0) {
  const std::size_t n = a.rows();
  const std::size_t w = std::min(kLuBlockSize, n - k0);
  const int parity = factor_panel(a, pivots, k0, w);
  const std::size_t rem = n - k0 - w;
  if (rem != 0) {
    // Per-thread scratch for L11^{-1} and the A12 copy, grown on first use
    // so steady-state factorizations allocate nothing.
    static thread_local std::vector<Complex> scratch;
    if (scratch.size() < w * (w + rem)) scratch.resize(w * (w + rem));
    Complex* inv = scratch.data();
    Complex* a12 = inv + w * w;
    invert_unit_lower(a, k0, w, inv);
    for (std::size_t c = 0; c < rem; ++c)
      std::copy_n(a.col(k0 + w + c) + k0, w, a12 + c * w);
    zgemm_view(w, rem, w, Complex{1.0, 0.0}, inv, w, a12, w,
               Complex{0.0, 0.0}, a.col(k0 + w) + k0, n);
    zgemm_view(rem, rem, w, Complex{-1.0, 0.0}, a.col(k0) + k0 + w, n,
               a.col(k0 + w) + k0, n, Complex{1.0, 0.0},
               a.col(k0 + w) + k0 + w, n);
  }
  return parity;
}

int zgetrf_blocked(ZMatrix& a, std::vector<std::size_t>& pivots) {
  int parity = 1;
  for (std::size_t k0 = 0; k0 < a.rows(); k0 += kLuBlockSize)
    parity *= blocked_panel(a, pivots, k0);
  return parity;
}

bool use_blocked(std::size_t n, LuAlgorithm algorithm) {
  switch (algorithm) {
    case LuAlgorithm::kUnblocked:
      return false;
    case LuAlgorithm::kBlocked:
      return true;
    case LuAlgorithm::kAuto:
    default:
      return n >= kLuBlockedThreshold;
  }
}

}  // namespace

int zgetrf_in_place(ZMatrix& a, std::vector<std::size_t>& pivots,
                    LuAlgorithm algorithm) {
  WLSMS_EXPECTS(a.square());
  const std::size_t n = a.rows();
  pivots.resize(n);
  if (n == 0) return 1;
  return use_blocked(n, algorithm) ? zgetrf_blocked(a, pivots)
                                   : zgetrf_unblocked(a, pivots);
}

void zgetrs_in_place(const ZMatrix& lu, const std::vector<std::size_t>& pivots,
                     Complex* b, std::size_t nrhs, std::size_t ldb) {
  const std::size_t n = lu.rows();
  WLSMS_EXPECTS(pivots.size() == n && ldb >= n);
  for (std::size_t r = 0; r < nrhs; ++r) {
    Complex* col = b + r * ldb;
    // Apply row interchanges.
    for (std::size_t k = 0; k < n; ++k)
      if (pivots[k] != k) std::swap(col[k], col[pivots[k]]);
    // Forward substitution with unit-lower L.
    for (std::size_t k = 0; k < n; ++k) {
      const Complex bk = col[k];
      if (bk == Complex{0.0, 0.0}) continue;
      const Complex* colk = lu.col(k);
      for (std::size_t i = k + 1; i < n; ++i) col[i] -= colk[i] * bk;
    }
    // Backward substitution with U.
    for (std::size_t k = n; k-- > 0;) {
      col[k] /= lu(k, k);
      const Complex bk = col[k];
      const Complex* colk = lu.col(k);
      for (std::size_t i = 0; i < k; ++i) col[i] -= colk[i] * bk;
    }
  }
  perf::add_flops(perf::Kernel::kTrsm, perf::cost::zgetrs(n, nrhs));
}

std::uint64_t zgetrf_flops(std::size_t n, LuAlgorithm algorithm) {
  return use_blocked(n, algorithm)
             ? perf::cost::zgetrf_blocked(n, kLuBlockSize)
             : perf::cost::zgetrf_panel(n, n);
}

LuFactorization::LuFactorization(ZMatrix a, LuAlgorithm algorithm)
    : lu_(std::move(a)) {
  swap_parity_ = zgetrf_in_place(lu_, pivots_, algorithm);
}

void LuFactorization::solve_in_place(Complex* b) const {
  zgetrs_in_place(lu_, pivots_, b, 1, order());
}

ZMatrix LuFactorization::solve(const ZMatrix& b) const {
  WLSMS_EXPECTS(b.rows() == order());
  ZMatrix x = b;
  zgetrs_in_place(lu_, pivots_, x.data(), x.cols(), order());
  return x;
}

ZMatrix LuFactorization::inverse() const {
  return solve(ZMatrix::identity(order()));
}

Complex LuFactorization::log_det() const {
  double log_abs = 0.0;
  double arg_sum = (swap_parity_ < 0) ? std::acos(-1.0) : 0.0;
  for (std::size_t k = 0; k < order(); ++k) {
    const Complex u = lu_(k, k);
    log_abs += std::log(std::abs(u));
    arg_sum += std::arg(u);
  }
  return {log_abs, arg_sum};
}

Complex LuFactorization::det() const {
  Complex d{static_cast<double>(swap_parity_), 0.0};
  for (std::size_t k = 0; k < order(); ++k) d *= lu_(k, k);
  return d;
}

ZMatrix inverse(const ZMatrix& a) { return LuFactorization(a).inverse(); }

Complex log_det(const ZMatrix& a) { return LuFactorization(a).log_det(); }

}  // namespace wlsms::linalg
