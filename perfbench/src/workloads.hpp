#pragma once

/// \file workloads.hpp
/// The benchmark's three Wang-Landau workloads. Each drives the real
/// wl::WlDriver through one service stack and returns the raw record of the
/// run — samples, spans, counter deltas — for perfbench/ledger.py to turn
/// into metrics.

#include <cstddef>
#include <cstdint>
#include <string>

#include "obs/json.hpp"

namespace perfbench {

struct RunConfig {
  std::string workload;            ///< paper_wl | serve_mix | shard_fe16
  std::uint64_t seed = 0;          ///< drives every generated input
  std::uint64_t steps = 0;         ///< WL steps the timed region completes
  std::size_t setup_runs = 3;      ///< set-ups timed (last one is used)
  bool trace = false;              ///< traced run: calibration + spans
};

/// Runs `config.workload` and returns its raw record. Throws on an unknown
/// workload or a failure that leaves nothing to report.
wlsms::obs::JsonValue::Object run_workload(const RunConfig& config);

}  // namespace perfbench
