// Microbenchmarks of the dense complex kernels that dominate LSMS runtime
// (paper §II-B: "the bulk of the calculation is done by ZGEMM in the
// evaluation of the local sub-block of the inverse of the real space KKR
// matrix"). Reports achieved GFlop/s per kernel and size, the per-core
// efficiency number behind the Table II projection.
#include <benchmark/benchmark.h>

#include <map>

#include "common/rng.hpp"
#include "linalg/blas.hpp"
#include "linalg/lu.hpp"
#include "perf/flops.hpp"
#include "perf/timer.hpp"

namespace {

using namespace wlsms;

linalg::ZMatrix random_matrix(std::size_t n, Rng& rng) {
  linalg::ZMatrix m(n, n);
  for (std::size_t c = 0; c < n; ++c)
    for (std::size_t r = 0; r < n; ++r)
      m(r, c) = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  for (std::size_t d = 0; d < n; ++d) m(d, d) += linalg::Complex{4.0, 0.0};
  return m;
}

// Packed, register-blocked production kernel.
void BM_Zgemm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  const linalg::ZMatrix a = random_matrix(n, rng);
  const linalg::ZMatrix b = random_matrix(n, rng);
  linalg::ZMatrix c(n, n);
  for (auto _ : state) {
    linalg::zgemm({1.0, 0.0}, a, b, {0.0, 0.0}, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFlop/s"] = benchmark::Counter(
      static_cast<double>(perf::cost::zgemm(n, n, n)) * state.iterations() /
          1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Zgemm)->Arg(30)->Arg(65)->Arg(130)->Arg(192);

// Cache-tiled triple-loop reference, for the packed-vs-naive headline.
void BM_ZgemmNaive(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  const linalg::ZMatrix a = random_matrix(n, rng);
  const linalg::ZMatrix b = random_matrix(n, rng);
  linalg::ZMatrix c(n, n);
  for (auto _ : state) {
    linalg::zgemm_naive({1.0, 0.0}, a, b, {0.0, 0.0}, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFlop/s"] = benchmark::Counter(
      static_cast<double>(perf::cost::zgemm(n, n, n)) * state.iterations() /
          1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ZgemmNaive)->Arg(30)->Arg(65)->Arg(130)->Arg(192);

// Single-thread packed ZGEMM GFlop/s of an n x n x n product, timed once
// per order over at least 50 ms: the peak the blocked LU is held against.
double zgemm_gflops(std::size_t n) {
  static std::map<std::size_t, double> measured;
  const auto it = measured.find(n);
  if (it != measured.end()) return it->second;
  Rng rng(1);
  const linalg::ZMatrix a = random_matrix(n, rng);
  const linalg::ZMatrix b = random_matrix(n, rng);
  linalg::ZMatrix c(n, n);
  linalg::zgemm({1.0, 0.0}, a, b, {0.0, 0.0}, c);  // warm the pack buffers
  std::size_t reps = 0;
  const perf::Timer timer;
  do {
    linalg::zgemm({1.0, 0.0}, a, b, {0.0, 0.0}, c);
    benchmark::DoNotOptimize(c.data());
    ++reps;
  } while (timer.seconds() < 0.05);
  const double gflops = static_cast<double>(perf::cost::zgemm(n, n, n)) *
                        static_cast<double>(reps) / timer.seconds() / 1e9;
  return measured[n] = gflops;
}

// Blocked right-looking factorization (panel, GEMM-shaped row-panel solve,
// GEMM trailing update); gemm_frac is the measured share of flops the
// ZGEMMs retire, lu_frac_of_zgemm the LU's GFlop/s over single-thread
// ZGEMM's at the same order.
void BM_Zgetrf(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  const linalg::ZMatrix a = random_matrix(n, rng);
  perf::FlopWindow window;
  for (auto _ : state) {
    linalg::LuFactorization lu(a, linalg::LuAlgorithm::kBlocked);
    benchmark::DoNotOptimize(lu.packed().data());
  }
  state.counters["GFlop/s"] = benchmark::Counter(
      static_cast<double>(
          linalg::zgetrf_flops(n, linalg::LuAlgorithm::kBlocked)) *
          state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
  state.counters["gemm_frac"] = window.gemm_fraction();
  // A rate counter of flops / peak reads as LU GFlop/s / ZGEMM GFlop/s.
  state.counters["lu_frac_of_zgemm"] = benchmark::Counter(
      static_cast<double>(
          linalg::zgetrf_flops(n, linalg::LuAlgorithm::kBlocked)) *
          state.iterations() / 1e9 / zgemm_gflops(n),
      benchmark::Counter::kIsRate);
}
// 128 = the paper-geometry member block (64 members x 2 spins), 130 = its
// full zone matrix, 100 = the serving geometry's member block, 30 = the
// fast-test zone.
BENCHMARK(BM_Zgetrf)->Arg(30)->Arg(65)->Arg(100)->Arg(128)->Arg(130)->Arg(192);

// Reference rank-1-update loop, for the blocked-vs-unblocked headline.
void BM_ZgetrfUnblocked(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  const linalg::ZMatrix a = random_matrix(n, rng);
  for (auto _ : state) {
    linalg::LuFactorization lu(a, linalg::LuAlgorithm::kUnblocked);
    benchmark::DoNotOptimize(lu.packed().data());
  }
  state.counters["GFlop/s"] = benchmark::Counter(
      static_cast<double>(
          linalg::zgetrf_flops(n, linalg::LuAlgorithm::kUnblocked)) *
          state.iterations() / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ZgetrfUnblocked)->Arg(30)->Arg(65)->Arg(130)->Arg(192);

void BM_CentralColumnsSolve(benchmark::State& state) {
  // Factor once, then the two central-column solves of the tau block.
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  const linalg::LuFactorization lu(random_matrix(n, rng));
  std::vector<linalg::Complex> col(n);
  for (auto _ : state) {
    std::fill(col.begin(), col.end(), linalg::Complex{0.0, 0.0});
    col[0] = {1.0, 0.0};
    lu.solve_in_place(col.data());
    benchmark::DoNotOptimize(col.data());
  }
}
BENCHMARK(BM_CentralColumnsSolve)->Arg(130);

void BM_LogDet(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(4);
  const linalg::ZMatrix a = random_matrix(n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::log_det(a));
  }
}
BENCHMARK(BM_LogDet)->Arg(65)->Arg(130);

}  // namespace
