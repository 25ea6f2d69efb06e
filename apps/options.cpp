#include "options.hpp"

#include <stdexcept>

namespace wlsms::cli {
namespace {

/// Non-negative count with a lower bound; get_long already rejects
/// non-numeric text, this adds the range check a silent size_t cast loses.
std::size_t get_size(const Options& options, const std::string& key,
                     std::size_t fallback, std::size_t min_value) {
  const long value = options.get_long(key, static_cast<long>(fallback));
  if (value < static_cast<long>(min_value))
    throw std::runtime_error("--" + key + ": must be >= " +
                             std::to_string(min_value) + ", got " +
                             std::to_string(value));
  return static_cast<std::size_t>(value);
}

double get_min(const Options& options, const std::string& key, double fallback,
               double min_value, bool exclusive = false) {
  const double value = options.get_double(key, fallback);
  if (exclusive ? value <= min_value : value < min_value)
    throw std::runtime_error("--" + key + ": must be " +
                             (exclusive ? "> " : ">= ") +
                             std::to_string(min_value));
  return value;
}

double get_fraction(const Options& options, const std::string& key,
                    double fallback) {
  const double value = options.get_double(key, fallback);
  if (!(value >= 0.0 && value <= 1.0))
    throw std::runtime_error("--" + key + ": must be in [0, 1]");
  return value;
}

bool get_bool(const Options& options, const std::string& key, bool fallback) {
  return options.get_long(key, fallback ? 1 : 0) != 0;
}

std::string get_required(const Options& options, const std::string& key,
                         const std::string& command) {
  const std::string value = options.get_string(key, "");
  if (value.empty())
    throw std::runtime_error(command + ": --" + key + " is required");
  return value;
}

}  // namespace

SpeculateOptions SpeculateOptions::parse(const Options& options) {
  SpeculateOptions parsed;
  parsed.enabled = get_bool(options, "speculate", false);
  parsed.band = get_min(options, "spec-band", parsed.band, 0.0);
  parsed.audit_fraction =
      get_fraction(options, "spec-audit-frac", parsed.audit_fraction);
  parsed.refit_interval =
      options.get_u64("spec-refit-interval", parsed.refit_interval);
  parsed.error_budget =
      get_min(options, "spec-budget", parsed.error_budget, 0.0);
  return parsed;
}

CurieOptions CurieOptions::parse(const Options& options) {
  CurieOptions parsed;
  parsed.cells = get_size(options, "cells", parsed.cells, 1);
  parsed.gamma_final =
      get_min(options, "gamma-final", parsed.gamma_final, 0.0, true);
  parsed.walkers = get_size(options, "walkers", parsed.walkers, 1);
  parsed.flatness = get_fraction(options, "flatness", parsed.flatness);
  parsed.seed = options.get_u64("seed", parsed.seed);
  parsed.t_min = get_min(options, "tmin", parsed.t_min, 0.0, true);
  parsed.dos_path = options.get_string("dos", "");
  parsed.rewl_windows = get_size(options, "rewl-windows", parsed.rewl_windows, 1);
  parsed.rewl_overlap =
      get_fraction(options, "rewl-overlap", parsed.rewl_overlap);
  parsed.rewl_interval = options.get_u64("rewl-exchange-interval", 2000);
  if (parsed.rewl_interval < 1)
    throw std::runtime_error("--rewl-exchange-interval: must be >= 1");
  return parsed;
}

ThermoOptions ThermoOptions::parse(const Options& options) {
  ThermoOptions parsed;
  parsed.dos_path = get_required(options, "dos", "thermo");
  parsed.t_min = get_min(options, "tmin", parsed.t_min, 0.0, true);
  parsed.t_max = get_min(options, "tmax", parsed.t_max, 0.0, true);
  if (parsed.t_max <= parsed.t_min)
    throw std::runtime_error("--tmax: must be > --tmin");
  parsed.points = get_size(options, "points", parsed.points, 2);
  return parsed;
}

ExtractOptions ExtractOptions::parse(const Options& options) {
  ExtractOptions parsed;
  parsed.cells = get_size(options, "cells", parsed.cells, 1);
  parsed.liz = get_min(options, "liz", parsed.liz, 0.0, true);
  parsed.contour = get_size(options, "contour", parsed.contour, 1);
  parsed.shells = get_size(options, "shells", parsed.shells, 1);
  parsed.samples =
      get_size(options, "samples", parsed.samples, parsed.shells + 2);
  return parsed;
}

ScalingOptions ScalingOptions::parse(const Options& options) {
  ScalingOptions parsed;
  parsed.walkers = get_size(options, "walkers", parsed.walkers, 1);
  parsed.steps = get_size(options, "steps", parsed.steps, 1);
  parsed.atoms = get_size(options, "atoms", parsed.atoms, 1);
  return parsed;
}

DistributedOptions DistributedOptions::parse(const Options& options) {
  DistributedOptions parsed;
  parsed.transport = options.get_string("transport", parsed.transport);
  parsed.groups = get_size(options, "groups", parsed.groups, 1);
  parsed.group_size = get_size(options, "group-size", parsed.group_size, 1);
  parsed.cells = get_size(options, "cells", parsed.cells, 1);
  parsed.evals = get_size(options, "evals", parsed.evals, 1);
  parsed.seed = options.get_u64("seed", parsed.seed);
  parsed.check = get_bool(options, "check", parsed.check);
  parsed.wl_steps = options.get_u64("wl-steps", parsed.wl_steps);
  parsed.wl_walkers = get_size(options, "wl-walkers", parsed.wl_walkers, 1);
  parsed.listen = options.get_string("listen", parsed.listen);
  parsed.external = get_bool(options, "external", parsed.external);
  parsed.status_listen = options.get_string("status-listen", "");
  parsed.speculate = SpeculateOptions::parse(options);
  if (parsed.speculate.enabled && parsed.wl_steps == 0)
    throw std::runtime_error(
        "--speculate: needs a WL driver to screen for; set --wl-steps");
  return parsed;
}

WorkerOptions WorkerOptions::parse(const Options& options) {
  WorkerOptions parsed;
  parsed.connect = get_required(options, "connect", "worker");
  parsed.cells = get_size(options, "cells", parsed.cells, 1);
  return parsed;
}

ServeOptions ServeOptions::parse(const Options& options) {
  ServeOptions parsed;
  parsed.cells = get_size(options, "cells", parsed.cells, 1);
  parsed.listen = options.get_string("listen", parsed.listen);
  parsed.max_pending = get_size(options, "max-pending", parsed.max_pending, 1);
  parsed.max_outstanding =
      get_size(options, "max-outstanding", parsed.max_outstanding, 1);
  parsed.max_batch = get_size(options, "max-batch", parsed.max_batch, 1);
  parsed.batch_window_ms = options.get_long("batch-window", parsed.batch_window_ms);
  if (parsed.batch_window_ms < 0)
    throw std::runtime_error("--batch-window: must be >= 0");
  parsed.checkpoint_dir = options.get_string("checkpoint-dir", "");
  return parsed;
}

StatusOptions StatusOptions::parse(const Options& options) {
  StatusOptions parsed;
  parsed.connect = options.positional().empty()
                       ? options.get_string("connect", "")
                       : options.positional();
  if (parsed.connect.empty())
    throw std::runtime_error("status: give the target as `wlsms status "
                             "host:port` or via --connect");
  parsed.timeout_ms = options.get_long("timeout", parsed.timeout_ms);
  if (parsed.timeout_ms < 1)
    throw std::runtime_error("--timeout: must be >= 1 (milliseconds)");
  return parsed;
}

ClientOptions ClientOptions::parse(const Options& options) {
  ClientOptions parsed;
  parsed.connect = get_required(options, "connect", "client");
  parsed.tenant = options.get_string("tenant", parsed.tenant);
  parsed.evals = get_size(options, "evals", parsed.evals, 1);
  parsed.walkers = get_size(options, "walkers", parsed.walkers, 1);
  parsed.seed = options.get_u64("seed", parsed.seed);
  parsed.check = get_bool(options, "check", parsed.check);
  parsed.cells = get_size(options, "cells", parsed.cells, 1);
  parsed.resume_session = options.get_u64("resume-session", 0);
  parsed.resume_token = options.get_u64("resume-token", 0);
  return parsed;
}

}  // namespace wlsms::cli
