#pragma once

/// \file flops.hpp
/// Floating-point-operation accounting with per-kernel attribution.
///
/// The paper instruments WL-LSMS with PAPI FP_OPS counters to report the
/// sustained petaflop number (Table II) and attributes "the bulk of the
/// calculation" to ZGEMM (§II-B). PAPI is hardware-specific, so this
/// library provides the equivalent observable in software: every linear
/// algebra kernel reports the number of real floating-point operations it
/// retired into a thread-local counter, tagged with the kernel that retired
/// them, so the harness can report both sustained Flop/s and the fraction
/// of flops flowing through ZGEMM. The discrete-event cluster model
/// (src/cluster) combines these counts with the machine description to
/// compute sustained Flop/s at scale.

#include <array>
#include <cstddef>
#include <cstdint>

namespace wlsms::perf {

/// Kernel classes flops are attributed to. kOther collects everything that
/// is not one of the named level-3 kernels (GEMV, small closed-form ops).
enum class Kernel : unsigned {
  kZgemm = 0,  ///< packed/naive matrix-matrix multiply
  kTrsm = 1,   ///< triangular solves (LU L11 inverses, GETRS substitution)
  kPanel = 2,  ///< unblocked LU panel factorization (rank-1 updates, scaling)
  kOther = 3,  ///< everything else (GEMV, accumulations)
};

inline constexpr std::size_t kKernelCount = 4;

/// Adds `count` retired real floating-point operations to this thread's
/// counter for `kernel`. Kernels call this once per call with an analytic
/// count, so the overhead is negligible.
void add_flops(Kernel kernel, std::uint64_t count);

/// Unattributed convenience overload: books under Kernel::kOther.
void add_flops(std::uint64_t count);

/// Flops retired by the calling thread since thread start (monotonic),
/// summed over kernels.
std::uint64_t thread_flops();

/// Flops retired by all threads that ever reported, aggregated over kernels.
std::uint64_t total_flops();

/// Aggregated flops retired by one kernel class across all threads.
std::uint64_t total_flops(Kernel kernel);

/// RAII window over the *global* counters: records the totals at
/// construction and reports deltas. Captures work done by every thread, so
/// it is the right tool around an OpenMP region.
class FlopWindow {
 public:
  FlopWindow();
  /// Flops retired globally since construction, all kernels.
  std::uint64_t elapsed() const;
  /// Flops retired globally since construction by one kernel class.
  std::uint64_t elapsed(Kernel kernel) const;
  /// Fraction of the window's flops retired by ZGEMM (0 if none retired).
  double gemm_fraction() const;

 private:
  std::array<std::uint64_t, kKernelCount> start_{};
};

/// Analytic real-flop counts for the complex kernels (1 complex multiply =
/// 6 real flops, 1 complex add = 2 real flops, so 1 complex fused
/// multiply-add = 8 real flops), matching what PAPI would count on scalar
/// hardware.
namespace cost {

/// C += A*B with A (m x k), B (k x n), complex double.
constexpr std::uint64_t zgemm(std::uint64_t m, std::uint64_t n,
                              std::uint64_t k) {
  return 8ULL * m * n * k;
}

/// LU factorization with partial pivoting of an n x n complex matrix
/// (classical leading-order count; the DES cost model uses this).
constexpr std::uint64_t zgetrf(std::uint64_t n) {
  return 8ULL * n * n * n / 3ULL;
}

/// Triangular solves for one right-hand side after zgetrf.
constexpr std::uint64_t zgetrs(std::uint64_t n, std::uint64_t nrhs) {
  return 8ULL * n * n * nrhs;
}

/// Inverse of an n x n unit-lower triangular matrix by forward substitution
/// against the identity: column c costs (n-c)(n-c-1)/2 complex fused
/// multiply-adds, (n+1)n(n-1)/6 in total.
constexpr std::uint64_t ztrtri_unit_lower(std::uint64_t n) {
  return n == 0 ? 0 : 8ULL * ((n + 1) * n * (n - 1) / 6);
}

/// Unblocked partial-pivoting LU of an m x n panel (m >= n): per column j,
/// one reciprocal (booked as 6 flops), (m-j-1) complex scalings (6 flops
/// each) and (m-j-1)(n-j-1) complex fused multiply-adds (8 flops each).
/// This is the exact count the panel kernel retires, used so instrumented
/// counters and the analytic model agree to the flop.
constexpr std::uint64_t zgetrf_panel(std::uint64_t m, std::uint64_t n) {
  std::uint64_t total = 0;
  const std::uint64_t cols = m < n ? m : n;
  for (std::uint64_t j = 0; j < cols; ++j) {
    const std::uint64_t below = m - j - 1;
    total += 6 + 6 * below + 8 * below * (n - j - 1);
  }
  return total;
}

/// Blocked right-looking LU of an n x n matrix with block size nb: per
/// panel, an unblocked panel factorization, then (while columns remain to
/// its right) the row-panel solve -- inverting the w x w unit-lower L11 and
/// one w x rem x w ZGEMM -- and the rem x rem x w ZGEMM trailing update.
/// Exactly the sum of what the blocked kernel's pieces retire.
constexpr std::uint64_t zgetrf_blocked(std::uint64_t n, std::uint64_t nb) {
  std::uint64_t total = 0;
  for (std::uint64_t k0 = 0; k0 < n; k0 += nb) {
    const std::uint64_t w = (n - k0) < nb ? (n - k0) : nb;
    const std::uint64_t rem = n - k0 - w;
    total += zgetrf_panel(n - k0, w);
    if (rem > 0)
      total += ztrtri_unit_lower(w) + zgemm(w, rem, w) + zgemm(rem, rem, w);
  }
  return total;
}

}  // namespace cost

}  // namespace wlsms::perf
