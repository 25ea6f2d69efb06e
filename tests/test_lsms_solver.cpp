// Physics and consistency tests for the LSMS energy engine.
#include "lsms/solver.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

#include <omp.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/rng.hpp"
#include "linalg/lu.hpp"
#include "lsms/fe_parameters.hpp"
#include "perf/flops.hpp"
#include "spin/rotation.hpp"

namespace wlsms::lsms {
namespace {

LsmsSolver fast_solver(std::size_t n_cells = 2) {
  return LsmsSolver(lattice::make_fe_supercell(n_cells),
                    fe_lsms_parameters_fast());
}

// Applies a global SO(3) rotation (angle about axis) to every moment.
spin::MomentConfiguration rotate_all(const spin::MomentConfiguration& config,
                                     const Vec3& axis_raw, double angle) {
  const Vec3 axis = axis_raw.normalized();
  const double c = std::cos(angle);
  const double s = std::sin(angle);
  std::vector<Vec3> dirs;
  dirs.reserve(config.size());
  for (std::size_t i = 0; i < config.size(); ++i) {
    const Vec3& v = config[i];
    // Rodrigues' formula.
    dirs.push_back(v * c + axis.cross(v) * s + axis * (axis.dot(v) * (1 - c)));
  }
  return spin::MomentConfiguration::from_directions(dirs);
}

TEST(LsmsSolver, EnergyIsGlobalRotationInvariant) {
  // The frozen-potential functional depends only on relative moment
  // orientations; a global rotation must leave E unchanged. This is the
  // fundamental symmetry of the method (no spin-orbit terms).
  const LsmsSolver solver = fast_solver();
  Rng rng(1);
  const auto config = spin::MomentConfiguration::random(16, rng);
  const double e0 = solver.energy(config);
  for (int k = 0; k < 3; ++k) {
    const Vec3 axis = rng.unit_vector();
    const double angle = rng.uniform(0.1, 3.0);
    const double e_rot = solver.energy(rotate_all(config, axis, angle));
    EXPECT_NEAR(e_rot, e0, 1e-9 * std::abs(e0) + 1e-12);
  }
}

TEST(LsmsSolver, FerromagneticEnergyIndependentOfDirection) {
  const LsmsSolver solver = fast_solver();
  const double e_z = solver.energy(spin::MomentConfiguration::ferromagnetic(16));
  const double e_x = solver.energy(spin::MomentConfiguration::from_directions(
      std::vector<Vec3>(16, Vec3{1, 0, 0})));
  const double e_tilt = solver.energy(spin::MomentConfiguration::from_directions(
      std::vector<Vec3>(16, Vec3{1, 1, 1})));
  EXPECT_NEAR(e_x, e_z, 1e-9 * std::abs(e_z));
  EXPECT_NEAR(e_tilt, e_z, 1e-9 * std::abs(e_z));
}

TEST(LsmsSolver, FerromagneticBelowDisorderedBelowStaggered) {
  // The calibrated Fe substrate orders ferromagnetically: E_FM < E_random
  // (and the staggered arrangement tops the exchange energy scale).
  const LsmsSolver solver = fast_solver();
  Rng rng(2);
  const double e_fm =
      solver.energy(spin::MomentConfiguration::ferromagnetic(16));
  double e_random_mean = 0.0;
  for (int k = 0; k < 4; ++k)
    e_random_mean +=
        solver.energy(spin::MomentConfiguration::random(16, rng));
  e_random_mean /= 4.0;
  std::vector<bool> sub(16);
  for (std::size_t i = 0; i < 16; ++i) sub[i] = (i % 2 == 1);
  const double e_afm =
      solver.energy(spin::MomentConfiguration::staggered(sub));
  EXPECT_LT(e_fm, e_random_mean);
  EXPECT_LT(e_random_mean, e_afm);
}

TEST(LsmsSolver, TotalEqualsSumOfLocalEnergies) {
  const LsmsSolver solver = fast_solver();
  Rng rng(3);
  const auto config = spin::MomentConfiguration::random(16, rng);
  const LocalEnergies all = solver.energies(config);
  double sum = 0.0;
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_NEAR(solver.local_energy(i, config), all.per_atom[i], 1e-12);
    sum += all.per_atom[i];
  }
  EXPECT_NEAR(all.total, sum, 1e-12);
}

TEST(LsmsSolver, LocalEnergiesEqualOnEquivalentSitesOfFm) {
  const LsmsSolver solver = fast_solver();
  const LocalEnergies all =
      solver.energies(spin::MomentConfiguration::ferromagnetic(16));
  for (std::size_t i = 1; i < 16; ++i)
    EXPECT_NEAR(all.per_atom[i], all.per_atom[0], 1e-10);
}

TEST(LsmsSolver, EnergyAfterMoveMatchesFullRecompute) {
  const LsmsSolver solver = fast_solver();
  Rng rng(4);
  auto config = spin::MomentConfiguration::random(16, rng);
  LocalEnergies current = solver.energies(config);

  for (int k = 0; k < 3; ++k) {
    spin::TrialMove move;
    move.site = rng.uniform_index(16);
    move.new_direction = rng.unit_vector();

    const LocalEnergies incremental =
        solver.energy_after_move(config, move, current);
    config.set(move.site, move.new_direction);
    const LocalEnergies recomputed = solver.energies(config);

    EXPECT_EQ(std::memcmp(incremental.per_atom.data(),
                          recomputed.per_atom.data(), 16 * sizeof(double)),
              0)
        << "move " << k;
    EXPECT_EQ(std::memcmp(&incremental.total, &recomputed.total,
                          sizeof(double)),
              0)
        << "move " << k;
    current = incremental;
  }
}

TEST(LsmsSolver, EnergiesBitIdenticalAcrossTeamSizes) {
  // Every (atom, contour point) Schur solve is one OpenMP item, and each
  // atom's terms are summed afterwards in point order, so the breakdown must
  // not depend on the team size -- nor on whether energy_after_move or a
  // full energies() produced it. The paper geometry puts the order-128
  // member block on the blocked-LU path.
  const LsmsSolver solver(lattice::make_fe_supercell(2), fe_lsms_parameters());
  ASSERT_EQ(2 * (solver.liz_size(0) - 1), 128u);
  Rng rng(41);
  const auto config = spin::MomentConfiguration::random(16, rng);
  spin::TrialMove move;
  move.site = 5;
  move.new_direction = rng.unit_vector();
  spin::MomentConfiguration moved = config;
  moved.set(move.site, move.new_direction);

  const auto same_bits = [](const LocalEnergies& a, const LocalEnergies& b) {
    return a.per_atom.size() == b.per_atom.size() &&
           std::memcmp(a.per_atom.data(), b.per_atom.data(),
                       a.per_atom.size() * sizeof(double)) == 0 &&
           std::memcmp(&a.total, &b.total, sizeof(double)) == 0;
  };
  const int saved_threads = omp_get_max_threads();
  omp_set_num_threads(1);
  const LocalEnergies reference = solver.energies(config);
  const LocalEnergies moved_reference = solver.energies(moved);
  for (const int threads : {1, 2, 3, 4}) {
    omp_set_num_threads(threads);
    EXPECT_TRUE(same_bits(solver.energies(config), reference))
        << "threads " << threads;
    EXPECT_TRUE(same_bits(solver.energy_after_move(config, move, reference),
                          moved_reference))
        << "threads " << threads;
  }
  omp_set_num_threads(saved_threads);
}

TEST(LsmsSolver, AffectedSitesAreSymmetricAndIncludeSelf) {
  const LsmsSolver solver = fast_solver();
  for (std::size_t i = 0; i < solver.n_atoms(); ++i) {
    const auto& affected = solver.affected_sites(i);
    EXPECT_TRUE(std::find(affected.begin(), affected.end(), i) !=
                affected.end());
    for (std::size_t j : affected) {
      const auto& back = solver.affected_sites(j);
      EXPECT_TRUE(std::find(back.begin(), back.end(), i) != back.end());
    }
  }
}

TEST(LsmsSolver, AffectedSitesOfPeriodicCrystalCoverLizNeighbors) {
  const LsmsSolver solver = fast_solver();
  // Fast parameters use a 2-shell LIZ (15 atoms in the zone). In the
  // 16-atom periodic cell those 14 neighbours map onto fewer *distinct*
  // sites: the 8 first-shell neighbours are distinct, but the 6 second-
  // shell ones (+-a along each axis) pair up through the 2-cell box,
  // giving 3 distinct sites. Affected = self + 8 + 3 = 12.
  EXPECT_EQ(solver.affected_sites(0).size(), 12u);
}

TEST(LsmsSolver, LizSizeMatchesGeometry) {
  const LsmsSolver solver = fast_solver();
  for (std::size_t i = 0; i < solver.n_atoms(); ++i)
    EXPECT_EQ(solver.liz_size(i), 15u);  // 1 + 8 + 6
}

TEST(LsmsSolver, FlopsPerEnergyMatchesAnalyticCount) {
  const LsmsSolver solver = fast_solver();
  // Fast parameters: 15-atom zones, so the Schur path factorizes the 28 x 28
  // member block, solves the two coupling columns, and closes with a
  // 2 x 2 x 28 GEMM -- per contour point (8 of them), per atom (16).
  const std::uint64_t per_point = linalg::zgetrf_flops(28) +
                                  perf::cost::zgetrs(28, 2) +
                                  perf::cost::zgemm(2, 2, 28);
  EXPECT_EQ(solver.flops_per_zone_energy(0), 8u * per_point);
  EXPECT_EQ(solver.flops_per_energy(), 16u * 8u * per_point);
}

TEST(LsmsSolver, InstrumentedFlopsMatchAnalyticCount) {
  // The analytic model must agree with the perf counters to the flop, for
  // both the unblocked (fast-radius) and blocked (paper-radius) zone orders.
  Rng rng(11);
  {
    const LsmsSolver solver = fast_solver();
    const auto config = spin::MomentConfiguration::random(16, rng);
    perf::FlopWindow window;
    solver.local_energy(0, config);
    EXPECT_EQ(window.elapsed(), solver.flops_per_zone_energy(0));
  }
  {
    const LsmsSolver solver(lattice::make_fe_supercell(2),
                            fe_lsms_parameters());
    ASSERT_EQ(solver.liz_size(0), 65u);
    const auto config = spin::MomentConfiguration::random(16, rng);
    perf::FlopWindow window;
    solver.local_energy(0, config);
    EXPECT_EQ(window.elapsed(), solver.flops_per_zone_energy(0));
  }
}

TEST(LsmsSolver, GemmFractionDominatesAtPaperGeometry) {
  // The acceptance bar of the GEMM-rich refactor: at the paper's LIZ the
  // packed ZGEMM retires at least 60 % of the flops of an energy zone.
  const LsmsSolver solver(lattice::make_fe_supercell(2), fe_lsms_parameters());
  Rng rng(12);
  const auto config = spin::MomentConfiguration::random(16, rng);
  perf::FlopWindow window;
  solver.local_energy(0, config);
  EXPECT_GE(window.gemm_fraction(), 0.6);
}

TEST(LsmsSolver, SchurPathMatchesReferenceAssembly) {
  // Reconstruct atom 0's local energy through the original path -- full
  // zone-matrix assembly and center-first factorization -- and require the
  // production Schur path to agree to 1e-10 Ry.
  const LsmsSolver solver = fast_solver();
  Rng rng(13);
  const auto config = spin::MomentConfiguration::random(16, rng);

  const LizGeometry liz =
      build_liz(solver.structure(), 0, solver.params().liz_radius);
  Complex accumulated{0.0, 0.0};
  for (const ContourPoint& cp : solver.contour()) {
    const linalg::ZMatrix p = scalar_propagator_matrix(liz, cp.z);
    const spin::Spin2x2 tau = central_tau_block(
        assemble_kkr_matrix(solver.scatterer(), liz, config, cp.z, p));
    accumulated += cp.weight * cp.z * (tau[0] + tau[3]);
  }
  const double reference = -accumulated.imag() / std::acos(-1.0);
  EXPECT_NEAR(solver.local_energy(0, config), reference, 1e-10);
}

TEST(LsmsSolver, BatchEnergiesMatchEnergiesBitExactly) {
  // batch_energies runs every (configuration, atom) zone solve of a batch in
  // one OpenMP loop; each result must be bitwise energies() of its
  // configuration at any team size, including a configuration that appears
  // twice in one batch. A 50-member LIZ puts the order-100 member block on
  // the blocked-LU path the serving daemon runs.
  LsmsParameters params = fe_lsms_parameters_fast();
  params.liz_radius = 9.1;
  const LsmsSolver solver(lattice::make_fe_supercell(2), params);
  ASSERT_GE(2 * (solver.liz_size(0) - 1), linalg::kLuBlockedThreshold);
  Rng rng(29);
  const auto a = spin::MomentConfiguration::random(16, rng);
  const auto b = spin::MomentConfiguration::random(16, rng);
  const std::vector<std::vector<const spin::MomentConfiguration*>> batches = {
      {}, {&a}, {&a, &b, &a}};

  const int saved_threads = omp_get_max_threads();
  for (const int threads : {1, 4}) {
    omp_set_num_threads(threads);
    for (const auto& batch : batches) {
      const std::vector<LocalEnergies> got = solver.batch_energies(batch);
      ASSERT_EQ(got.size(), batch.size());
      for (std::size_t c = 0; c < batch.size(); ++c) {
        const LocalEnergies expected = solver.energies(*batch[c]);
        ASSERT_EQ(got[c].per_atom.size(), expected.per_atom.size());
        EXPECT_EQ(std::memcmp(got[c].per_atom.data(), expected.per_atom.data(),
                              expected.per_atom.size() * sizeof(double)),
                  0)
            << "threads " << threads << ", batch of " << batch.size()
            << ", config " << c;
        EXPECT_EQ(std::memcmp(&got[c].total, &expected.total, sizeof(double)),
                  0)
            << "threads " << threads << ", batch of " << batch.size()
            << ", config " << c;
      }
    }
  }
  omp_set_num_threads(saved_threads);
}

TEST(LsmsSolver, EnergyScalesExtensively) {
  // Twice the cell volume (FM reference): twice the energy per the shared-
  // geometry zones.
  const LsmsSolver small = fast_solver(2);
  const LsmsSolver large(lattice::make_fe_supercell(3),
                         fe_lsms_parameters_fast());
  const double e_small =
      small.energy(spin::MomentConfiguration::ferromagnetic(16));
  const double e_large =
      large.energy(spin::MomentConfiguration::ferromagnetic(54));
  EXPECT_NEAR(e_large / e_small, 54.0 / 16.0, 1e-6);
}

TEST(LsmsSolver, ContractViolations) {
  const LsmsSolver solver = fast_solver();
  Rng rng(6);
  const auto wrong_size = spin::MomentConfiguration::random(8, rng);
  EXPECT_THROW(solver.energy(wrong_size), ContractError);
  EXPECT_THROW(solver.local_energy(99, wrong_size), ContractError);
  EXPECT_THROW(solver.affected_sites(99), ContractError);
  EXPECT_THROW(solver.batch_energies({&wrong_size}), ContractError);
  EXPECT_THROW(solver.batch_energies({nullptr}), ContractError);
}

}  // namespace
}  // namespace wlsms::lsms
