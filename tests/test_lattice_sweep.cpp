// Parameterized geometry sweeps: properties that must hold for every cell
// size and lattice type the library supports.
#include <gtest/gtest.h>

#include "common/error.hpp"

#include <cmath>
#include <cstdint>

#include "common/units.hpp"
#include "lattice/shells.hpp"
#include "lattice/structure.hpp"

namespace wlsms::lattice {
namespace {

class SupercellSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SupercellSizes, BccAtomCountIsTwoNCubed) {
  const std::size_t n = GetParam();
  EXPECT_EQ(make_fe_supercell(n).size(), 2 * n * n * n);
}

TEST_P(SupercellSizes, EveryAtomHasEightNearestNeighbors) {
  const std::size_t n = GetParam();
  const Structure cell = make_fe_supercell(n);
  const double nn_cutoff =
      units::fe_lattice_parameter_a0 * std::sqrt(3.0) / 2.0 * 1.01;
  for (std::size_t i = 0; i < cell.size(); i += std::max<std::size_t>(
           1, cell.size() / 8))
    EXPECT_EQ(cell.neighbors_within(i, nn_cutoff).size(), 8u);
}

TEST_P(SupercellSizes, PaperLizHolds65AtomsAtEverySize) {
  // The LIZ census is independent of the supercell (images compensate).
  const std::size_t n = GetParam();
  const Structure cell = make_fe_supercell(n);
  EXPECT_EQ(cell.neighbors_within(0, units::fe_liz_radius_a0).size() + 1,
            65u);
}

TEST_P(SupercellSizes, DisplacementIsAntisymmetric) {
  const std::size_t n = GetParam();
  const Structure cell = make_fe_supercell(n);
  const std::size_t j = cell.size() / 2;
  const Vec3 dij = cell.displacement(0, j);
  const Vec3 dji = cell.displacement(j, 0);
  EXPECT_NEAR((dij + dji).norm(), 0.0, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SupercellSizes, ::testing::Values(2, 3, 4, 5));

struct LatticeCase {
  CubicLattice lattice;
  // gtest prints a parameter without a printer as its raw bytes and ctest
  // names the case after them, so the bytes that would be padding here are
  // a zeroed member: otherwise they hold stack garbage and the case gets a
  // new name on every test discovery.
  std::uint32_t zero_padding = 0;
  std::size_t first_shell;
  double first_radius_over_a;
};

class CubicLattices : public ::testing::TestWithParam<LatticeCase> {};

TEST_P(CubicLattices, FirstShellGeometry) {
  const LatticeCase c = GetParam();
  const Structure cell = make_supercell(c.lattice, 2.0, 3, 3, 3);
  const auto shells = neighbor_shells(cell, 0, 2.0 * 1.8);
  ASSERT_FALSE(shells.empty());
  EXPECT_EQ(shells[0].coordination(), c.first_shell);
  EXPECT_NEAR(shells[0].radius, 2.0 * c.first_radius_over_a, 1e-10);
}

INSTANTIATE_TEST_SUITE_P(
    Types, CubicLattices,
    ::testing::Values(LatticeCase{.lattice = CubicLattice::kSimpleCubic,
                                  .first_shell = 6,
                                  .first_radius_over_a = 1.0},
                      LatticeCase{.lattice = CubicLattice::kBcc,
                                  .first_shell = 8,
                                  .first_radius_over_a = std::sqrt(3.0) / 2.0},
                      LatticeCase{.lattice = CubicLattice::kFcc,
                                  .first_shell = 12,
                                  .first_radius_over_a =
                                      std::sqrt(2.0) / 2.0}));

TEST(LatticeSweep, ShellRadiiAreStrictlyIncreasing) {
  const Structure cell = make_fe_supercell(3);
  const auto shells = neighbor_shells(cell, 0, 14.0);
  for (std::size_t s = 1; s < shells.size(); ++s)
    EXPECT_GT(shells[s].radius, shells[s - 1].radius);
}

TEST(LatticeSweep, NeighborCountsGrowMonotonicallyWithCutoff) {
  const Structure cell = make_fe_supercell(3);
  std::size_t previous = 0;
  for (double cutoff = 4.0; cutoff < 13.0; cutoff += 1.5) {
    const std::size_t count = cell.neighbors_within(0, cutoff).size();
    EXPECT_GE(count, previous);
    previous = count;
  }
}

}  // namespace
}  // namespace wlsms::lattice
