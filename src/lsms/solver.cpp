#include "lsms/solver.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <limits>

#include "common/error.hpp"
#include "linalg/lu.hpp"
#include "obs/trace.hpp"
#include "perf/flops.hpp"

namespace wlsms::lsms {

namespace {

/// Runs body(0) .. body(count - 1) as one OpenMP loop: the solver's only
/// parallel runtime, one independent zone solve per iteration. An exception
/// must not escape an OpenMP region (GCC calls std::terminate), so the first
/// one thrown is kept and rethrown after the loop.
template <class Body>
void parallel_for(std::size_t count, const Body& body) {
  std::exception_ptr error;
  const std::int64_t n = static_cast<std::int64_t>(count);
#pragma omp parallel for schedule(dynamic)
  for (std::int64_t k = 0; k < n; ++k) {
    try {
      body(static_cast<std::size_t>(k));
    } catch (...) {
#pragma omp critical(wlsms_lsms_parallel_for)
      if (!error) error = std::current_exception();
    }
  }
  if (error) std::rethrow_exception(error);
}

/// Local band energy -(1/pi) Im of a zone's summed contour terms.
double band_energy(Complex contour_sum) {
  const double pi = std::acos(-1.0);
  return -contour_sum.imag() / pi;
}

/// Band energy of one zone from its n_points contour terms, summed in point
/// order k = 0 .. n_points-1: the arithmetic of LsmsSolver::zone_energy, so
/// the parallel loops that compute the terms in any order reduce to the same
/// bits at any team size.
double band_energy(const Complex* terms, std::size_t n_points) {
  Complex accumulated{0.0, 0.0};
  for (std::size_t k = 0; k < n_points; ++k) accumulated += terms[k];
  return band_energy(accumulated);
}

}  // namespace

LsmsSolver::LsmsSolver(lattice::Structure structure, LsmsParameters params)
    : structure_(std::move(structure)),
      params_(params),
      scatterer_(params.scattering),
      contour_(semicircle_contour(params.scattering.band_bottom,
                                  params.scattering.fermi_energy,
                                  params.contour_points)) {
  const obs::Span span("lsms.build_solver");
  const std::size_t n = structure_.size();
  lizs_.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    lizs_.push_back(build_liz(structure_, i, params_.liz_radius));

  // Hopping templates are pure geometry: share them between congruent zones
  // (every atom of a perfect crystal) through the canonical key.
  const double strength = params_.scattering.propagator_strength;
  std::map<std::vector<std::int64_t>,
           std::shared_ptr<const std::vector<SchurTemplates>>>
      cache;
  templates_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto key = geometry_key(lizs_[i]);
    auto it = cache.find(key);
    if (it == cache.end()) {
      auto templates = std::make_shared<std::vector<SchurTemplates>>();
      templates->reserve(contour_.size());
      for (const ContourPoint& cp : contour_)
        templates->push_back(make_schur_templates(
            scalar_propagator_matrix(lizs_[i], cp.z), strength));
      it = cache.emplace(std::move(key), std::move(templates)).first;
    }
    templates_.push_back(it->second);
  }

  // Reverse map: which zones does each site appear in?
  affected_.assign(n, {});
  for (std::size_t i = 0; i < n; ++i) affected_[i].push_back(i);
  for (std::size_t i = 0; i < n; ++i)
    for (const lattice::Neighbor& member : lizs_[i].members)
      if (member.site != i) affected_[member.site].push_back(i);
  for (std::vector<std::size_t>& list : affected_) {
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
  }

  const double nan = std::numeric_limits<double>::quiet_NaN();
  t_cache_directions_.assign(n, Vec3{nan, nan, nan});
  t_cache_table_.assign(n * contour_.size(), spin::Spin2x2{});
}

void LsmsSolver::refresh_t_table(const spin::MomentConfiguration& moments,
                                 std::vector<spin::Spin2x2>& out) const {
  const obs::Span span("lsms.t_table_refresh");
  const std::size_t n_points = contour_.size();
  std::lock_guard<std::mutex> lock(t_cache_mutex_);
  for (std::size_t i = 0; i < n_atoms(); ++i) {
    const Vec3& e = moments[i];
    // NaN-initialized cache directions compare unequal to everything, so the
    // first call populates every site; later calls only touch moved sites.
    if (e == t_cache_directions_[i]) continue;
    t_cache_directions_[i] = e;
    spin::Spin2x2* row = t_cache_table_.data() + i * n_points;
    for (std::size_t k = 0; k < n_points; ++k)
      row[k] = scatterer_.t_inverse(e, contour_[k].z);
  }
  out = t_cache_table_;
}

Complex LsmsSolver::zone_point_term(const LizGeometry& liz,
                                    const std::vector<spin::Spin2x2>& t_table,
                                    std::size_t k) const {
  const std::size_t n_points = contour_.size();
  const std::size_t n_members = liz.members.size();

  // Per-thread reusable scratch: the member matrix / B panel / pivots the
  // Schur elimination destroys, plus the zone-ordered t^-1 gather. Sized on
  // first use, so steady-state evaluations allocate nothing.
  static thread_local SchurWorkspace workspace;
  static thread_local std::vector<spin::Spin2x2> member_tinv;
  member_tinv.resize(n_members);

  const spin::Spin2x2& center = t_table[liz.center * n_points + k];
  for (std::size_t j = 0; j < n_members; ++j)
    member_tinv[j] = t_table[liz.members[j].site * n_points + k];
  const spin::Spin2x2 tau = central_tau_schur((*templates_[liz.center])[k],
                                              center, member_tinv.data(),
                                              workspace);
  const Complex trace = tau[0] + tau[3];
  return contour_[k].weight * contour_[k].z * trace;
}

double LsmsSolver::zone_energy(
    const LizGeometry& liz, const std::vector<spin::Spin2x2>& t_table) const {
  Complex accumulated{0.0, 0.0};
  for (std::size_t k = 0; k < contour_.size(); ++k)
    accumulated += zone_point_term(liz, t_table, k);
  return band_energy(accumulated);
}

double LsmsSolver::local_energy(std::size_t i,
                                const spin::MomentConfiguration& moments) const {
  WLSMS_EXPECTS(i < n_atoms());
  WLSMS_EXPECTS(moments.size() == n_atoms());
  static thread_local std::vector<spin::Spin2x2> table;
  refresh_t_table(moments, table);
  return zone_energy(lizs_[i], table);
}

LocalEnergies LsmsSolver::energies(
    const spin::MomentConfiguration& moments) const {
  const obs::Span span("lsms.energies");
  WLSMS_EXPECTS(moments.size() == n_atoms());
  std::vector<spin::Spin2x2> table;
  refresh_t_table(moments, table);
  // One item per (atom, contour point) Schur solve, atom-major.
  const std::size_t n_points = contour_.size();
  std::vector<Complex> terms(n_atoms() * n_points);
  parallel_for(terms.size(), [&](std::size_t p) {
    terms[p] = zone_point_term(lizs_[p / n_points], table, p % n_points);
  });
  LocalEnergies out;
  out.per_atom.resize(n_atoms());
  for (std::size_t i = 0; i < n_atoms(); ++i) {
    out.per_atom[i] = band_energy(terms.data() + i * n_points, n_points);
    out.total += out.per_atom[i];
  }
  return out;
}

double LsmsSolver::energy(const spin::MomentConfiguration& moments) const {
  return energies(moments).total;
}

std::vector<double> LsmsSolver::shard_energies(
    const spin::MomentConfiguration& moments, std::size_t first,
    std::size_t count) const {
  const obs::Span span("lsms.shard_solve");
  WLSMS_EXPECTS(moments.size() == n_atoms());
  WLSMS_EXPECTS(count >= 1);
  WLSMS_EXPECTS(first + count <= n_atoms());
  static thread_local std::vector<spin::Spin2x2> table;
  refresh_t_table(moments, table);
  std::vector<double> out(count);
  for (std::size_t k = 0; k < count; ++k)
    out[k] = zone_energy(lizs_[first + k], table);
  return out;
}

std::vector<LocalEnergies> LsmsSolver::batch_energies(
    const std::vector<const spin::MomentConfiguration*>& configs) const {
  const obs::Span span("lsms.batch_energies");
  const std::size_t n_configs = configs.size();
  const std::size_t n = n_atoms();
  const std::size_t n_points = contour_.size();
  for (const spin::MomentConfiguration* config : configs) {
    WLSMS_EXPECTS(config != nullptr);
    WLSMS_EXPECTS(config->size() == n);
  }

  // Per-configuration t^-1 tables, computed directly rather than through
  // the shared incremental cache (which alternating configurations would
  // thrash into full recomputes anyway). t_inverse is pure, so the values
  // are bitwise the ones refresh_t_table hands energies(). Plain locals,
  // never thread_local: the OpenMP workers below must all read these
  // tables, not each see its own empty copy.
  std::vector<std::vector<spin::Spin2x2>> tables(n_configs);
  for (std::size_t c = 0; c < n_configs; ++c) {
    tables[c].resize(n * n_points);
    for (std::size_t i = 0; i < n; ++i) {
      const Vec3& e = (*configs[c])[i];
      spin::Spin2x2* row = tables[c].data() + i * n_points;
      for (std::size_t k = 0; k < n_points; ++k)
        row[k] = scatterer_.t_inverse(e, contour_[k].z);
    }
  }

  // Every (config, atom, contour point) triple is one independent Schur
  // solve, the same kernel and item grain energies() runs.
  const std::size_t per_config = n * n_points;
  std::vector<Complex> terms(n_configs * per_config);
  parallel_for(terms.size(), [&](std::size_t p) {
    const std::size_t c = p / per_config;
    const std::size_t i = p % per_config / n_points;
    terms[p] = zone_point_term(lizs_[i], tables[c], p % n_points);
  });

  std::vector<LocalEnergies> out(n_configs);
  for (std::size_t c = 0; c < n_configs; ++c) {
    out[c].per_atom.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      out[c].per_atom[i] =
          band_energy(terms.data() + c * per_config + i * n_points, n_points);
      out[c].total += out[c].per_atom[i];
    }
  }
  return out;
}

const std::vector<std::size_t>& LsmsSolver::affected_sites(
    std::size_t site) const {
  WLSMS_EXPECTS(site < n_atoms());
  return affected_[site];
}

LocalEnergies LsmsSolver::energy_after_move(
    const spin::MomentConfiguration& moments, const spin::TrialMove& move,
    const LocalEnergies& current) const {
  const obs::Span span("lsms.energy_after_move");
  WLSMS_EXPECTS(moments.size() == n_atoms());
  WLSMS_EXPECTS(current.per_atom.size() == n_atoms());
  WLSMS_EXPECTS(move.site < n_atoms());

  spin::MomentConfiguration trial = moments;
  trial.set(move.site, move.new_direction);

  // The incremental refresh recomputes t^-1 only for sites whose direction
  // differs from the cached configuration -- for the usual accept/reject
  // walk that is the moved site alone (plus a possible revert).
  std::vector<spin::Spin2x2> table;
  refresh_t_table(trial, table);

  const std::vector<std::size_t>& affected = affected_[move.site];
  const std::size_t n_points = contour_.size();
  std::vector<Complex> terms(affected.size() * n_points);
  parallel_for(terms.size(), [&](std::size_t p) {
    terms[p] =
        zone_point_term(lizs_[affected[p / n_points]], table, p % n_points);
  });
  LocalEnergies out = current;
  for (std::size_t a = 0; a < affected.size(); ++a)
    out.per_atom[affected[a]] =
        band_energy(terms.data() + a * n_points, n_points);
  out.total = 0.0;
  for (double e : out.per_atom) out.total += e;
  return out;
}

std::uint64_t LsmsSolver::flops_per_zone_energy(std::size_t i) const {
  WLSMS_EXPECTS(i < n_atoms());
  const std::uint64_t l = lizs_[i].members.size();
  if (l == 0) return 0;  // zone is the bare center: closed-form 2x2 only
  const std::uint64_t order = 2 * l;
  // Member-block factorization + two-column panel solve + 2x2 Schur GEMM;
  // assembly and the closed-form 2x2 inversion are uncounted on both the
  // analytic and instrumented sides.
  const std::uint64_t per_point = linalg::zgetrf_flops(order) +
                                  perf::cost::zgetrs(order, 2) +
                                  perf::cost::zgemm(2, 2, order);
  return per_point * contour_.size();
}

std::uint64_t LsmsSolver::flops_per_energy() const {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < n_atoms(); ++i) total += flops_per_zone_energy(i);
  return total;
}

}  // namespace wlsms::lsms
