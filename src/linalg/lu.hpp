#pragma once

/// \file lu.hpp
/// LU factorization (ZGETRF/ZGETRS equivalents) and the derived operations
/// the multiple-scattering solver needs: matrix inverse and log-determinant.
///
/// Two factorization algorithms are provided behind one interface: the
/// original unblocked rank-1-update loop (reference) and a blocked
/// right-looking variant (panel factorization, a row-panel solve by an
/// explicit unit-lower inverse times ZGEMM, and a ZGEMM trailing update)
/// that retires the bulk of its flops in the packed ZGEMM — the
/// level-3-rich structure the paper's LSMS relies on (§II-B). `kAuto` picks
/// blocked at and above `kLuBlockedThreshold`.
///
/// Lloyd's formula evaluates ln det M(z) of the LIZ scattering matrix on a
/// complex-energy contour; the determinant's logarithm is accumulated from
/// the U diagonal of the pivoted LU factorization, tracking the branch
/// explicitly so d/dz ln det stays continuous along the contour.

#include <cstdint>
#include <optional>
#include <vector>

#include "linalg/blas.hpp"
#include "linalg/matrix.hpp"

namespace wlsms::linalg {

/// Factorization algorithm selector.
enum class LuAlgorithm {
  kAuto,       ///< blocked for order >= kLuBlockedThreshold, else unblocked
  kUnblocked,  ///< reference rank-1-update loop
  kBlocked,    ///< right-looking blocked (panel + row-panel GEMM + GEMM)
};

/// Panel width of the blocked factorization. Narrow enough that the GEMM
/// trailing updates dominate the flop count already at LIZ-sized matrices
/// (n ~ 130: ~90 % of the factorization flops are ZGEMM).
inline constexpr std::size_t kLuBlockSize = 16;

/// Matrix order at and above which kAuto picks the blocked algorithm.
inline constexpr std::size_t kLuBlockedThreshold = 64;

/// In-place pivoted LU factorization A = P L U; on return `a` holds the
/// packed L (unit lower) and U factors and `pivots[k]` is the row swapped
/// with row k at step k. Returns the pivot-swap parity (+1/-1). Throws
/// SingularMatrixError on an exactly zero pivot. Flops are booked per
/// kernel (panel / L11 inverse / GEMM); `zgetrf_flops(n)` returns the exact
/// total the chosen algorithm will report.
int zgetrf_in_place(ZMatrix& a, std::vector<std::size_t>& pivots,
                    LuAlgorithm algorithm = LuAlgorithm::kAuto);

/// Solves A X = B in place given the packed factors and pivots from
/// zgetrf_in_place. `b` points to `nrhs` column-major columns with leading
/// dimension `ldb` (>= order).
void zgetrs_in_place(const ZMatrix& lu, const std::vector<std::size_t>& pivots,
                     Complex* b, std::size_t nrhs, std::size_t ldb);

/// Exact instrumented flop count of zgetrf_in_place for an n x n matrix
/// under the given algorithm (the analytic side of the perf assertion).
std::uint64_t zgetrf_flops(std::size_t n,
                           LuAlgorithm algorithm = LuAlgorithm::kAuto);

/// Pivoted LU factorization of a square matrix, A = P L U.
/// Holds the packed factors plus the pivot sequence.
class LuFactorization {
 public:
  /// Factorizes `a` (copied). Throws SingularMatrixError if a zero pivot is
  /// encountered (exactly singular input).
  explicit LuFactorization(ZMatrix a,
                           LuAlgorithm algorithm = LuAlgorithm::kAuto);

  std::size_t order() const { return lu_.rows(); }

  /// Solves A x = b in place; b has order() entries.
  void solve_in_place(Complex* b) const;

  /// Solves A X = B for a matrix of right-hand sides.
  ZMatrix solve(const ZMatrix& b) const;

  /// A^-1 via n solves against the identity.
  ZMatrix inverse() const;

  /// Principal value of ln det A: sum of ln(U_ii) plus i*pi per row swap...
  /// More precisely: log|det| is exact; the imaginary part is the sum of
  /// arg(U_ii) over the diagonal (each in (-pi, pi]) with the pivot sign
  /// folded in, which is the standard KKR practice for Lloyd's formula.
  Complex log_det() const;

  /// det A (may overflow/underflow for large matrices; prefer log_det).
  Complex det() const;

  const ZMatrix& packed() const { return lu_; }
  const std::vector<std::size_t>& pivots() const { return pivots_; }

 private:
  ZMatrix lu_;
  std::vector<std::size_t> pivots_;  // pivots_[k] = row swapped with row k
  int swap_parity_ = 1;              // +1 even number of swaps, -1 odd
};

/// Thrown when a factorization meets an exactly singular matrix.
class SingularMatrixError : public std::runtime_error {
 public:
  explicit SingularMatrixError(std::size_t column)
      : std::runtime_error("singular matrix: zero pivot in column " +
                           std::to_string(column)) {}
};

/// Convenience: A^-1.
ZMatrix inverse(const ZMatrix& a);

/// Convenience: ln det A (see LuFactorization::log_det for branch rules).
Complex log_det(const ZMatrix& a);

}  // namespace wlsms::linalg
