#include "workloads.hpp"

#include <omp.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <exception>
#include <latch>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "comm/communicator.hpp"
#include "comm/distributed_service.hpp"
#include "lattice/structure.hpp"
#include "linalg/blas.hpp"
#include "lsms/fe_parameters.hpp"
#include "lsms/solver.hpp"
#include "obs/metrics.hpp"
#include "perf/flops.hpp"
#include "recorder.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "wl/driver.hpp"
#include "wl/energy_function.hpp"
#include "wl/schedule.hpp"
#include "wl/speculator.hpp"

namespace perfbench {

namespace {

using namespace wlsms;
using obs::JsonValue;

constexpr std::size_t kSamplePerBoundary = 8;  // oracle pairs per boundary
constexpr std::size_t kServeClients = 4;       // tenants t0..t3
constexpr std::size_t kServeWalkersPerClient = 2;
constexpr std::size_t kShardGroups = 2;
constexpr std::size_t kShardGroupSize = 2;

// ---------------------------------------------------------------- inputs --

/// The workload's substrate. paper_wl: the paper geometry (65-atom LIZ, 16
/// contour points). serve_mix: bench_serve's serving substrate (fast
/// contour, 50-member LIZ). shard_fe16: the fast 16-atom substrate
/// (15-atom LIZ, 8 contour points).
std::shared_ptr<const lsms::LsmsSolver> make_solver(const std::string& name) {
  lsms::LsmsParameters params;
  if (name == "paper_wl") {
    params = lsms::fe_lsms_parameters();
  } else if (name == "serve_mix") {
    params = lsms::fe_lsms_parameters_fast();
    params.liz_radius = 9.1;  // 1st-4th bcc shells: 50 neighbours
  } else if (name == "shard_fe16") {
    params = lsms::fe_lsms_parameters_fast();
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return std::make_shared<const lsms::LsmsSolver>(lattice::make_fe_supercell(2),
                                                  params);
}

/// Seed of driver `k`'s RNG (walker start configurations and WL moves).
std::uint64_t driver_seed(std::uint64_t seed, std::size_t k) {
  return seed * 64 + k + 1;
}

/// Serial reference energy: per-atom shard solves summed in atom order, the
/// same reduction LsmsSolver::energies performs.
double serial_energy(const lsms::LsmsSolver& solver,
                     const spin::MomentConfiguration& config) {
  double total = 0.0;
  for (double e : solver.shard_energies(config, 0, solver.n_atoms()))
    total += e;
  return total;
}

struct Window {
  double lo = 0.0;
  double hi = 0.0;
};

/// Energy window of the WL grid: the ferromagnetic state, eight random
/// configurations (fixed stream, as bench_speculation), and the start
/// configuration of every walker the run's drivers will draw from their
/// seeded RNGs, so no walker can start outside the grid.
Window energy_window(const lsms::LsmsSolver& solver, std::uint64_t seed,
                     std::size_t n_drivers, std::size_t walkers_per_driver) {
  const std::size_t n = solver.n_atoms();
  const double e_fm =
      serial_energy(solver, spin::MomentConfiguration::ferromagnetic(n));
  Window window{e_fm, e_fm};
  Rng fixed(7);
  for (int k = 0; k < 8; ++k)
    window.hi = std::max(
        window.hi,
        serial_energy(solver, spin::MomentConfiguration::random(n, fixed)));
  for (std::size_t d = 0; d < n_drivers; ++d) {
    Rng rng(driver_seed(seed, d));  // WlDriver draws its starts first
    for (std::size_t w = 0; w < walkers_per_driver; ++w) {
      const double e =
          serial_energy(solver, spin::MomentConfiguration::random(n, rng));
      window.lo = std::min(window.lo, e);
      window.hi = std::max(window.hi, e);
    }
  }
  window.lo -= 0.002;
  window.hi += 0.01;
  return window;
}

/// bench_speculation's WL settings: 64 bins, flatness checks every 200
/// steps, iterations capped at 400 steps so gamma keeps falling. The final
/// gamma is out of reach, so every run stops at exactly `max_steps`.
wl::WangLandauConfig wl_config(const Window& window, std::size_t walkers,
                               std::uint64_t max_steps) {
  wl::WangLandauConfig config;
  config.grid.e_min = window.lo;
  config.grid.e_max = window.hi;
  config.grid.bins = 64;
  config.grid.kernel_width_fraction = 0.5 / 64.0;
  config.n_walkers = walkers;
  config.max_steps = max_steps;
  config.check_interval = 200;
  config.max_iteration_steps = 400;
  return config;
}

std::unique_ptr<wl::ModificationSchedule> wl_schedule() {
  return std::make_unique<wl::HalvingSchedule>(1.0, 1e-300);
}

/// bench_speculation's speculation settings.
wl::SpeculationConfig paper_speculation() {
  wl::SpeculationConfig config;
  config.band = 1.5;
  config.audit_fraction = 0.05;
  config.refit_interval = 32;
  config.error_budget = 2e-3;
  config.n_shells = 4;
  std::vector<double> j = lsms::fe_reference_exchange();
  for (double& v : j) v *= lsms::fe_exchange_energy_scale;
  config.initial_j = std::move(j);
  return config;
}

// ------------------------------------------------------------ run record --

JsonValue number(double v) { return JsonValue(v); }

JsonValue numbers(const std::vector<double>& values) {
  JsonValue::Array out;
  out.reserve(values.size());
  for (double v : values) out.emplace_back(v);
  return JsonValue(std::move(out));
}

double median_of(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t m = values.size() / 2;
  return values.size() % 2 ? values[m] : 0.5 * (values[m - 1] + values[m]);
}

/// One timed region: drivers started, run to their step count, drained.
struct Pass {
  double wall_s = 0.0;
  std::vector<double> thread_wall_s;  ///< per driver thread
  wl::DriverStats driver;             ///< summed over drivers
  std::deque<BoundaryLog> logs;       ///< deque: references stay valid
  std::vector<std::string> log_layers;
  std::uint64_t comm_errors = 0;
  std::uint64_t flops = 0;
  std::uint64_t gemm_flops = 0;
  obs::MetricsSnapshot before;
  obs::MetricsSnapshot after;
  JsonValue::Object extra;

  BoundaryLog& add_log(const std::string& layer, std::uint64_t seed) {
    log_layers.push_back(layer);
    return logs.emplace_back(seed * 1000 + logs.size(), kSamplePerBoundary);
  }

  void add_driver(const wl::DriverStats& s) {
    driver.total_steps += s.total_steps;
    driver.accepted_steps += s.accepted_steps;
    driver.out_of_range += s.out_of_range;
    driver.resubmissions += s.resubmissions;
    driver.iterations += s.iterations;
  }
};

/// Registry series the ledger reads: the serve and comm layers' own
/// counters and histograms (per-tenant series excluded).
bool reported_counter(const std::string& name) {
  if (name.rfind("serve.tenant.", 0) == 0) return false;
  return name.rfind("serve.", 0) == 0 || name.rfind("comm.", 0) == 0;
}

JsonValue pass_json(const Pass& pass) {
  JsonValue::Object o;
  o["wall_s"] = number(pass.wall_s);
  o["thread_wall_s"] = numbers(pass.thread_wall_s);
  o["steps"] = JsonValue(pass.driver.total_steps);
  o["accepted"] = JsonValue(pass.driver.accepted_steps);
  o["out_of_range"] = JsonValue(pass.driver.out_of_range);
  o["resubmissions"] = JsonValue(pass.driver.resubmissions);
  o["comm_errors"] = JsonValue(pass.comm_errors);
  o["flops"] = JsonValue(pass.flops);
  o["gemm_flops"] = JsonValue(pass.gemm_flops);

  JsonValue::Array logs;
  for (std::size_t i = 0; i < pass.logs.size(); ++i) {
    const BoundaryLog& log = pass.logs[i];
    JsonValue::Object l;
    l["layer"] = JsonValue(pass.log_layers[i]);
    l["submitted"] = JsonValue(log.submitted);
    l["results"] = JsonValue(log.results);
    l["failed"] = JsonValue(log.failed);
    l["latency_ms"] = numbers(log.latency_ms);
    l["submit_ms"] = numbers(log.submit_ms);
    l["retrieve_ms"] = numbers(log.retrieve_ms);
    logs.emplace_back(std::move(l));
  }
  o["boundaries"] = JsonValue(std::move(logs));

  // Registry deltas over the timed region.
  JsonValue::Object counters;
  for (const auto& [name, value] : pass.after.counters) {
    if (!reported_counter(name)) continue;
    const auto it = pass.before.counters.find(name);
    const std::uint64_t base = it == pass.before.counters.end() ? 0 : it->second;
    counters[name] = JsonValue(value - base);
  }
  o["counters"] = JsonValue(std::move(counters));
  JsonValue::Object histograms;
  for (const auto& [name, h] : pass.after.histograms) {
    if (!reported_counter(name)) continue;
    double sum = h.sum;
    std::uint64_t count = h.total;
    if (const auto it = pass.before.histograms.find(name);
        it != pass.before.histograms.end()) {
      sum -= it->second.sum;
      count -= it->second.total;
    }
    JsonValue::Object entry;
    entry["sum"] = number(sum);
    entry["count"] = JsonValue(count);
    histograms[name] = JsonValue(std::move(entry));
  }
  o["histograms"] = JsonValue(std::move(histograms));
  for (const auto& [key, value] : pass.extra) o[key] = value;
  return JsonValue(std::move(o));
}

/// Re-checks every sampled (configuration, energy) pair bit for bit against
/// a freshly built solver evaluated serially.
JsonValue oracle(const std::string& workload, const Pass& pass,
                 const std::string& layer) {
  const auto fresh = make_solver(workload);
  std::uint64_t checked = 0;
  std::uint64_t mismatches = 0;
  double max_abs_diff = 0.0;
  for (std::size_t i = 0; i < pass.logs.size(); ++i) {
    if (pass.log_layers[i] != layer) continue;
    for (const EnergyPair& pair : pass.logs[i].sample) {
      const double reference = serial_energy(*fresh, pair.config);
      ++checked;
      if (reference != pair.energy) ++mismatches;
      max_abs_diff = std::max(max_abs_diff, std::abs(reference - pair.energy));
    }
  }
  JsonValue::Object o;
  o["layer"] = JsonValue(layer);
  o["checked"] = JsonValue(checked);
  o["mismatches"] = JsonValue(mismatches);
  o["max_abs_diff"] = number(max_abs_diff);
  return JsonValue(std::move(o));
}

// ----------------------------------------------------------- calibration --

/// ZGEMM rate [GFlop/s] at order n on `threads` threads, each multiplying
/// its own matrices (the shape of the solver's per-atom parallelism).
/// Median of three ~0.1 s batches.
double zgemm_gflops(std::size_t n, int threads) {
  const Span span("calib.zgemm");
  const double flops_per_call = static_cast<double>(perf::cost::zgemm(n, n, n));
  const int reps = std::max(
      4, static_cast<int>(0.1 * 20e9 / flops_per_call));  // ~0.1 s at 20 GF/s
  std::vector<double> rates;
  for (int batch = 0; batch < 3; ++batch) {
    double seconds = 0.0;
#pragma omp parallel num_threads(threads)
    {
      linalg::ZMatrix a(n, n), b(n, n), c(n, n);
      for (std::size_t j = 0; j < n; ++j)
        for (std::size_t i = 0; i < n; ++i) {
          a(i, j) = {1.0 / static_cast<double>(i + j + 1), 0.5};
          b(i, j) = {0.25, 1.0 / static_cast<double>(i + 2 * j + 1)};
        }
      linalg::zgemm({1.0, 0.0}, a, b, {0.0, 0.0}, c);  // warm
#pragma omp barrier
      double begin = 0.0;
#pragma omp master
      begin = now_us();
      for (int r = 0; r < reps; ++r)
        linalg::zgemm({1.0, 0.0}, a, b, {0.5, 0.0}, c);
#pragma omp barrier
#pragma omp master
      seconds = (now_us() - begin) / 1e6;
    }
    rates.push_back(flops_per_call * reps * threads / seconds / 1e9);
  }
  return median_of(rates);
}

/// Calibration common to every workload: ZGEMM at the zone order (2 * LIZ
/// size), single thread and full team.
JsonValue::Object calibrate(const lsms::LsmsSolver& solver) {
  const std::size_t order = 2 * solver.liz_size(0);
  const int team = static_cast<int>(
      std::max(1u, std::thread::hardware_concurrency()));
  JsonValue::Object o;
  o["zone_order"] = JsonValue(static_cast<std::uint64_t>(order));
  o["zgemm_team_threads"] = JsonValue(static_cast<std::uint64_t>(team));
  o["zgemm_gflops_1t"] = number(zgemm_gflops(order, 1));
  o["zgemm_gflops_team"] = number(zgemm_gflops(order, team));
  return o;
}

/// shard_fe16's compute floor: serial shard_energies for one rank's shard,
/// over four walkers' configurations served round-robin with single-site
/// moves (the order a rank of a 2-group service sees them).
void calibrate_shard(const lsms::LsmsSolver& solver, std::uint64_t seed,
                     JsonValue::Object& out) {
  const std::size_t n = solver.n_atoms();
  const std::size_t count = n / kShardGroupSize;
  Rng rng(seed ^ 0x5a4d);
  std::vector<spin::MomentConfiguration> walkers;
  for (int w = 0; w < 4; ++w)
    walkers.push_back(spin::MomentConfiguration::random(n, rng));
  std::vector<double> ms;
  perf::FlopWindow flops;
  for (int call = 0; call < 256; ++call) {
    spin::MomentConfiguration& config = walkers[call % 4];
    config.set(rng.uniform_index(n), rng.unit_vector());
    const Span span("calib.lsms_shard");
    const double begin = now_us();
    (void)solver.shard_energies(config, 0, count);
    if (call >= 4) ms.push_back((now_us() - begin) / 1e3);
  }
  out["shard_atoms"] = JsonValue(static_cast<std::uint64_t>(count));
  out["shard_ms"] = number(median_of(ms));
  out["shard_gemm_frac"] = number(flops.gemm_fraction());
}

// ------------------------------------------------------------- workloads --

/// Runs `setups` timed set-ups, keeps the last, then the timed region.
/// Set-up = everything from nothing to a warm service: solver construction,
/// daemon bind / worker fork + handshake, and one warm-up evaluation per
/// connection or group.
template <typename Rig, typename MakeRig, typename Timed>
Pass run_pass(std::size_t setups, std::vector<double>& setup_s,
              MakeRig make_rig, Timed timed) {
  std::unique_ptr<Rig> rig;
  for (std::size_t i = 0; i < setups; ++i) {
    rig.reset();
    const double begin = now_us();
    rig = make_rig();
    setup_s.push_back((now_us() - begin) / 1e6);
  }
  return timed(rig);
}

// paper_wl ------------------------------------------------------------------

struct PaperRig {
  std::shared_ptr<const lsms::LsmsSolver> solver;
};

Pass paper_pass(const RunConfig& rc, const Window& window, std::size_t setups,
                std::vector<double>& setup_s) {
  auto make = [] {
    auto rig = std::make_unique<PaperRig>();
    const Span span("setup.lsms_solver");
    rig->solver = make_solver("paper_wl");
    (void)rig->solver->energy(  // warm-up: OpenMP team, scratch, t^-1 cache
        spin::MomentConfiguration::ferromagnetic(rig->solver->n_atoms()));
    return rig;
  };
  auto timed = [&](std::unique_ptr<PaperRig>& rig) {
    const wl::LsmsEnergy energy(rig->solver);
    Pass pass;
    BoundaryLog& outer_log = pass.add_log("spec", rc.seed);
    BoundaryLog& inner_log = pass.add_log("lsms", rc.seed);
    wl::SpeculativeEnergyService spec(
        std::make_unique<TimedService>(
            std::make_unique<wl::SynchronousEnergyService>(energy),
            "lsms.submit", "lsms.retrieve", inner_log),
        wl::Speculator(rig->solver->structure(), paper_speculation()));
    TimedService outer(spec, "spec.submit", "spec.retrieve", outer_log);

    pass.before = obs::Registry::instance().snapshot();
    const perf::FlopWindow flops;
    const double begin = now_us();
    {
      const Span run("wl.run");
      wl::WlDriver driver(rig->solver->n_atoms(), outer,
                          wl_config(window, 4, rc.steps), wl_schedule(),
                          Rng(driver_seed(rc.seed, 0)));
      // The driver binds its grid only to a service that *is* a speculator;
      // behind the timing decorator it cannot see one, so bind it here.
      spec.attach_dos(&driver.dos());
      driver.run();
      spec.attach_dos(nullptr);
      pass.add_driver(driver.stats());
    }
    pass.wall_s = (now_us() - begin) / 1e6;
    pass.thread_wall_s = {pass.wall_s};
    pass.flops = flops.elapsed();
    pass.gemm_flops = flops.elapsed(perf::Kernel::kZgemm);
    pass.after = obs::Registry::instance().snapshot();

    const wl::SpeculationStats& s = spec.stats();
    JsonValue::Object o;
    o["proposed"] = JsonValue(s.proposed);
    o["speculated"] = JsonValue(s.speculated);
    o["audits"] = JsonValue(s.audits);
    o["boundary_exact"] = JsonValue(s.boundary_exact);
    o["warmup_exact"] = JsonValue(s.warmup_exact);
    o["tripped_exact"] = JsonValue(s.tripped_exact);
    o["forwarded"] = JsonValue(s.forwarded);
    o["retries"] = JsonValue(s.retries);
    o["trips"] = JsonValue(s.trips);
    o["tripped"] = JsonValue(spec.speculator().tripped());
    o["residual_rms_ry"] = number(spec.speculator().residual_rms());
    o["error_budget_ry"] = number(paper_speculation().error_budget);
    pass.extra["spec"] = JsonValue(std::move(o));
    pass.extra["lsms_threads"] =
        JsonValue(static_cast<std::uint64_t>(omp_get_max_threads()));
    pass.extra["flops_per_eval"] = JsonValue(rig->solver->flops_per_energy());
    return pass;
  };
  return run_pass<PaperRig>(setups, setup_s, make, timed);
}

// serve_mix -----------------------------------------------------------------

/// A daemon on its own thread plus four connected tenants. The destructor
/// closes the clients, stops the daemon and joins its thread.
struct ServeRig {
  std::shared_ptr<const lsms::LsmsSolver> solver;
  std::unique_ptr<serve::Daemon> daemon;
  std::exception_ptr server_error;
  std::thread server;  // after the members it uses
  std::vector<std::unique_ptr<serve::ServeClient>> clients;

  ServeRig() = default;
  ServeRig(const ServeRig&) = delete;
  ServeRig& operator=(const ServeRig&) = delete;
  ~ServeRig() { stop(); }

  void stop() {
    clients.clear();
    if (daemon) daemon->stop();
    if (server.joinable()) server.join();
  }
};

Pass serve_pass(const RunConfig& rc, const Window& window, std::size_t setups,
                std::vector<double>& setup_s) {
  auto make = [&rc] {
    auto rig = std::make_unique<ServeRig>();
    {
      const Span span("setup.lsms_solver");
      rig->solver = make_solver("serve_mix");
    }
    // Default ServeOptions; their limits already admit every request this
    // mix can have outstanding, which is checked rather than assumed.
    serve::ServeOptions options;
    const std::size_t walkers = kServeClients * kServeWalkersPerClient;
    if (options.limits.max_pending < walkers ||
        options.limits.max_session_outstanding < kServeWalkersPerClient)
      throw std::runtime_error("serve_mix: default limits would refuse work");
    rig->daemon = std::make_unique<serve::Daemon>(rig->solver, options);
    ServeRig* raw = rig.get();
    rig->server = std::thread([raw] {
      try {
        raw->daemon->run();
      } catch (...) {
        raw->server_error = std::current_exception();
      }
    });
    Rng warm(rc.seed ^ 0x3e27e);
    for (std::size_t k = 0; k < kServeClients; ++k) {
      serve::ClientOptions client_options;
      client_options.tenant = "t" + std::to_string(k);
      rig->clients.push_back(std::make_unique<serve::ServeClient>(
          rig->daemon->address(), client_options));
      rig->clients.back()->submit(
          {0, 1,
           spin::MomentConfiguration::random(rig->solver->n_atoms(), warm)});
      if (rig->clients.back()->retrieve().failed)
        throw std::runtime_error("serve_mix: warm-up request failed");
    }
    return rig;
  };
  auto timed = [&](std::unique_ptr<ServeRig>& rig) {
    Pass pass;
    std::vector<BoundaryLog*> logs;
    for (std::size_t k = 0; k < kServeClients; ++k)
      logs.push_back(&pass.add_log("serve", rc.seed));
    std::vector<wl::DriverStats> stats(kServeClients);
    std::vector<double> begin_us(kServeClients), end_us(kServeClients);
    std::vector<std::uint64_t> comm_errors(kServeClients, 0);
    std::vector<std::exception_ptr> errors(kServeClients);
    const std::size_t n = rig->solver->n_atoms();
    const std::uint64_t steps_per_driver = rc.steps / kServeClients;

    pass.before = obs::Registry::instance().snapshot();
    const perf::FlopWindow flops;
    std::latch start(static_cast<std::ptrdiff_t>(kServeClients));
    std::vector<std::thread> threads;
    for (std::size_t k = 0; k < kServeClients; ++k)
      threads.emplace_back([&, k] {
        start.arrive_and_wait();
        begin_us[k] = now_us();
        try {
          const Span run("wl.run");
          TimedService service(*rig->clients[k], "serve.submit",
                               "serve.retrieve", *logs[k]);
          wl::WlDriver driver(
              n, service,
              wl_config(window, kServeWalkersPerClient, steps_per_driver),
              wl_schedule(), Rng(driver_seed(rc.seed, k)));
          stats[k] = driver.run();
        } catch (const comm::CommError&) {
          comm_errors[k] = 1;
        } catch (...) {
          errors[k] = std::current_exception();
        }
        end_us[k] = now_us();
      });
    for (std::thread& t : threads) t.join();
    const double first = *std::min_element(begin_us.begin(), begin_us.end());
    const double last = *std::max_element(end_us.begin(), end_us.end());
    pass.wall_s = (last - first) / 1e6;
    pass.flops = flops.elapsed();
    pass.gemm_flops = flops.elapsed(perf::Kernel::kZgemm);
    // Stop the daemon before reading its histograms: it records a request's
    // stages after writing the result, so only a stopped daemon is settled.
    rig->stop();
    if (rig->server_error) std::rethrow_exception(rig->server_error);
    for (const std::exception_ptr& e : errors)
      if (e) std::rethrow_exception(e);
    pass.after = obs::Registry::instance().snapshot();
    for (std::size_t k = 0; k < kServeClients; ++k) {
      pass.thread_wall_s.push_back((end_us[k] - begin_us[k]) / 1e6);
      pass.add_driver(stats[k]);
      pass.comm_errors += comm_errors[k];
    }
    pass.extra["lsms_threads"] = JsonValue(std::uint64_t{1});
    pass.extra["flops_per_eval"] = JsonValue(rig->solver->flops_per_energy());
    return pass;
  };
  return run_pass<ServeRig>(setups, setup_s, make, timed);
}

// shard_fe16 ----------------------------------------------------------------

struct ShardRig {
  std::shared_ptr<const lsms::LsmsSolver> solver;
  std::unique_ptr<comm::DistributedEnergyService> service;
};

Pass shard_pass(const RunConfig& rc, const Window& window, std::size_t setups,
                std::vector<double>& setup_s) {
  auto make = [&rc] {
    auto rig = std::make_unique<ShardRig>();
    {
      const Span span("setup.lsms_solver");
      rig->solver = make_solver("shard_fe16");
    }
    comm::DistributedConfig config;
    config.n_groups = kShardGroups;
    config.group_size = kShardGroupSize;
    config.transport = comm::Transport::kTcp;
    rig->service =
        std::make_unique<comm::DistributedEnergyService>(rig->solver, config);
    // Warm-up: one evaluation per group under a session of its own, evicted
    // afterwards so the timed run starts with empty delta caches.
    Rng warm(rc.seed ^ 0x5a7d);
    constexpr std::uint64_t kWarmSession = 1;
    for (std::size_t g = 0; g < kShardGroups; ++g) {
      wl::EnergyRequest request{
          g, g + 1,
          spin::MomentConfiguration::random(rig->solver->n_atoms(), warm)};
      request.session = kWarmSession;
      rig->service->submit(std::move(request));
    }
    for (std::size_t g = 0; g < kShardGroups; ++g)
      if (rig->service->retrieve().failed)
        throw std::runtime_error("shard_fe16: warm-up request failed");
    rig->service->evict_session(kWarmSession);
    return rig;
  };
  auto timed = [&](std::unique_ptr<ShardRig>& rig) {
    Pass pass;
    BoundaryLog& log = pass.add_log("comm", rc.seed);
    TimedService service(*rig->service, "comm.submit", "comm.retrieve", log);
    pass.before = obs::Registry::instance().snapshot();
    const double begin = now_us();
    try {
      const Span run("wl.run");
      wl::WlDriver driver(rig->solver->n_atoms(), service,
                          wl_config(window, 4, rc.steps), wl_schedule(),
                          Rng(driver_seed(rc.seed, 0)));
      pass.add_driver(driver.run());
    } catch (const comm::CommError&) {
      pass.comm_errors = 1;
    }
    pass.wall_s = (now_us() - begin) / 1e6;
    pass.thread_wall_s = {pass.wall_s};
    pass.after = obs::Registry::instance().snapshot();
    pass.extra["reroutes"] = JsonValue(rig->service->reroutes());
    pass.extra["groups"] = JsonValue(static_cast<std::uint64_t>(kShardGroups));
    pass.extra["lsms_threads"] =
        JsonValue(static_cast<std::uint64_t>(kShardGroups * kShardGroupSize));
    pass.extra["flops_per_eval"] = JsonValue(rig->solver->flops_per_energy());
    rig.reset();  // reap the workers so their peak RSS is counted
    return pass;
  };
  return run_pass<ShardRig>(setups, setup_s, make, timed);
}

struct Workload {
  const char* name;
  std::size_t drivers;
  std::size_t walkers_per_driver;
  const char* oracle_layer;  ///< boundary whose pairs are exact energies
  Pass (*pass)(const RunConfig&, const Window&, std::size_t,
               std::vector<double>&);
};

constexpr Workload kWorkloads[] = {
    {"paper_wl", 1, 4, "lsms", paper_pass},
    {"serve_mix", kServeClients, kServeWalkersPerClient, "serve", serve_pass},
    {"shard_fe16", 1, 4, "comm", shard_pass},
};

double max_rss_mb(int who) {
  rusage usage{};
  ::getrusage(who, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace

JsonValue::Object run_workload(const RunConfig& rc) {
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads)
    if (rc.workload == w.name) workload = &w;
  if (workload == nullptr)
    throw std::invalid_argument("unknown workload: " + rc.workload);

  JsonValue::Object record;
  const auto probe = make_solver(rc.workload);
  const Window window = energy_window(*probe, rc.seed, workload->drivers,
                                      workload->walkers_per_driver);
  record["window_ry"] = numbers({window.lo, window.hi});
  record["liz_size"] =
      JsonValue(static_cast<std::uint64_t>(probe->liz_size(0)));
  record["contour_points"] =
      JsonValue(static_cast<std::uint64_t>(probe->contour().size()));

  std::vector<double> setup_s;
  Pass pass;
  if (!rc.trace) {
    pass = workload->pass(rc, window, rc.setup_runs, setup_s);
  } else {
    // Traced run: calibrate, then the same work untraced and traced; the
    // wall-time ratio of the two is the tracing overhead.
    enable_spans(true);
    JsonValue::Object calibration = calibrate(*probe);
    if (rc.workload == "shard_fe16")
      calibrate_shard(*probe, rc.seed, calibration);
    record["calibration"] = JsonValue(std::move(calibration));
    enable_spans(false);
    std::vector<SpanRecord> recorded = take_spans();
    const Pass untraced = workload->pass(rc, window, 1, setup_s);
    record["untraced_wall_s"] = number(untraced.wall_s);
    enable_spans(true);
    pass = workload->pass(rc, window, 1, setup_s);
    enable_spans(false);
    for (const SpanRecord& s : take_spans()) recorded.push_back(s);
    JsonValue::Array spans;
    for (const SpanRecord& s : recorded)
      spans.emplace_back(JsonValue::Array{
          JsonValue(std::string(s.name)), number(s.begin_us), number(s.end_us),
          JsonValue(s.id), JsonValue(s.parent),
          JsonValue(static_cast<std::uint64_t>(s.thread))});
    record["spans"] = JsonValue(std::move(spans));
  }
  record["setup_s"] = numbers(setup_s);
  record["oracle"] = oracle(rc.workload, pass, workload->oracle_layer);
  record["pass"] = pass_json(pass);
  record["peak_rss_mb"] = number(max_rss_mb(RUSAGE_SELF));
  record["children_peak_rss_mb"] = number(max_rss_mb(RUSAGE_CHILDREN));
  return record;
}

}  // namespace perfbench
