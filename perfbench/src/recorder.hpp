#pragma once

/// \file recorder.hpp
/// What the benchmark records from outside the program: spans around the
/// calls it makes into each layer, and per-request samples at each
/// EnergyService boundary it wraps. Nothing here reaches into src/; every
/// number is taken at a public function boundary.

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "spin/moments.hpp"
#include "wl/energy_service.hpp"

namespace perfbench {

/// Microseconds on the steady clock since the first call in this process.
double now_us();

/// One completed span: a timed call the benchmark made into a layer. The
/// layer is the part of `name` before the first '.'.
struct SpanRecord {
  const char* name = nullptr;  ///< string literal
  double begin_us = 0.0;
  double end_us = 0.0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< enclosing span on the same thread; 0 = root
  std::uint32_t thread = 0;
};

/// Turns span recording on or off (off by default). Spans stay in memory
/// until take_spans().
void enable_spans(bool on);

/// Removes and returns every completed span, in completion order.
std::vector<SpanRecord> take_spans();

/// RAII span around one call; a no-op while recording is off. Spans nest
/// per thread: the innermost open span on this thread is the parent.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_ = nullptr;  ///< null when recording was off
  double begin_us_ = 0.0;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
};

/// One (configuration, energy) pair a workload received.
struct EnergyPair {
  wlsms::spin::MomentConfiguration config;
  double energy = 0.0;
};

/// Samples taken at one EnergyService boundary.
struct BoundaryLog {
  BoundaryLog(std::uint64_t sample_seed, std::size_t sample_size);

  std::uint64_t submitted = 0;  ///< submit() calls
  std::uint64_t results = 0;    ///< successful results retrieved
  std::uint64_t failed = 0;     ///< results flagged failed
  std::vector<double> latency_ms;   ///< submit -> result, per request
  std::vector<double> submit_ms;    ///< duration of each submit() call
  std::vector<double> retrieve_ms;  ///< duration of each retrieve() call
  /// Seeded uniform sample (reservoir) of the successful pairs.
  std::vector<EnergyPair> sample;

  void record_pair(const wlsms::spin::MomentConfiguration& config,
                   double energy);

 private:
  wlsms::Rng rng_;
  std::size_t sample_size_;
  std::uint64_t seen_ = 0;
};

/// EnergyService decorator that times every call into the service it wraps
/// and logs each request's submit-to-result latency and result. It is not a
/// SpeculativeEnergyService, so a WlDriver handed one does not bind its DOS
/// grid to a speculator behind it; callers do that with attach_dos().
class TimedService final : public wlsms::wl::EnergyService {
 public:
  /// Wraps `inner` without owning it.
  TimedService(wlsms::wl::EnergyService& inner, const char* submit_span,
               const char* retrieve_span, BoundaryLog& log);
  /// Wraps and owns `inner`.
  TimedService(std::unique_ptr<wlsms::wl::EnergyService> inner,
               const char* submit_span, const char* retrieve_span,
               BoundaryLog& log);

  void submit(wlsms::wl::EnergyRequest request) override;
  wlsms::wl::EnergyResult retrieve() override;
  std::size_t outstanding() const override { return inner_.outstanding(); }

 private:
  struct InFlight {
    double submitted_us = 0.0;
    wlsms::spin::MomentConfiguration config;
  };

  std::unique_ptr<wlsms::wl::EnergyService> owned_;
  wlsms::wl::EnergyService& inner_;
  const char* submit_span_;
  const char* retrieve_span_;
  BoundaryLog& log_;
  std::map<std::uint64_t, InFlight> in_flight_;  ///< by ticket
};

}  // namespace perfbench
