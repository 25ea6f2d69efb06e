#include "recorder.hpp"

#include <atomic>
#include <chrono>
#include <mutex>
#include <utility>

namespace perfbench {

namespace {

std::atomic<bool> g_spans_on{false};
std::atomic<std::uint64_t> g_next_span{1};
std::atomic<std::uint32_t> g_next_thread{0};
std::mutex g_spans_mutex;
std::vector<SpanRecord> g_spans;  // guarded by g_spans_mutex

thread_local std::vector<std::uint64_t> t_open;  // open span ids, innermost last
thread_local const std::uint32_t t_thread = g_next_thread.fetch_add(1);

}  // namespace

double now_us() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double, std::micro>(Clock::now() - epoch)
      .count();
}

void enable_spans(bool on) { g_spans_on.store(on); }

std::vector<SpanRecord> take_spans() {
  const std::lock_guard<std::mutex> lock(g_spans_mutex);
  return std::exchange(g_spans, {});
}

Span::Span(const char* name) {
  if (!g_spans_on.load(std::memory_order_relaxed)) return;
  name_ = name;
  id_ = g_next_span.fetch_add(1, std::memory_order_relaxed);
  parent_ = t_open.empty() ? 0 : t_open.back();
  t_open.push_back(id_);
  begin_us_ = now_us();
}

Span::~Span() {
  if (name_ == nullptr) return;
  const double end_us = now_us();
  t_open.pop_back();
  const std::lock_guard<std::mutex> lock(g_spans_mutex);
  g_spans.push_back({name_, begin_us_, end_us, id_, parent_, t_thread});
}

BoundaryLog::BoundaryLog(std::uint64_t sample_seed, std::size_t sample_size)
    : rng_(sample_seed), sample_size_(sample_size) {}

void BoundaryLog::record_pair(const wlsms::spin::MomentConfiguration& config,
                              double energy) {
  ++seen_;
  if (sample.size() < sample_size_) {
    sample.push_back({config, energy});
    return;
  }
  const std::uint64_t slot = rng_.uniform_index(seen_);
  if (slot < sample_size_) sample[slot] = {config, energy};
}

TimedService::TimedService(wlsms::wl::EnergyService& inner,
                           const char* submit_span, const char* retrieve_span,
                           BoundaryLog& log)
    : inner_(inner),
      submit_span_(submit_span),
      retrieve_span_(retrieve_span),
      log_(log) {}

TimedService::TimedService(std::unique_ptr<wlsms::wl::EnergyService> inner,
                           const char* submit_span, const char* retrieve_span,
                           BoundaryLog& log)
    : owned_(std::move(inner)),
      inner_(*owned_),
      submit_span_(submit_span),
      retrieve_span_(retrieve_span),
      log_(log) {}

void TimedService::submit(wlsms::wl::EnergyRequest request) {
  const std::uint64_t ticket = request.ticket;
  InFlight entry{0.0, request.config};
  const double begin_us = now_us();
  {
    const Span span(submit_span_);
    inner_.submit(std::move(request));
  }
  const double end_us = now_us();
  ++log_.submitted;
  log_.submit_ms.push_back((end_us - begin_us) / 1e3);
  entry.submitted_us = begin_us;
  in_flight_[ticket] = std::move(entry);
}

wlsms::wl::EnergyResult TimedService::retrieve() {
  const double begin_us = now_us();
  wlsms::wl::EnergyResult result;
  {
    const Span span(retrieve_span_);
    result = inner_.retrieve();
  }
  const double end_us = now_us();
  log_.retrieve_ms.push_back((end_us - begin_us) / 1e3);
  if (result.failed)
    ++log_.failed;
  else
    ++log_.results;
  if (const auto it = in_flight_.find(result.ticket); it != in_flight_.end()) {
    log_.latency_ms.push_back((end_us - it->second.submitted_us) / 1e3);
    if (!result.failed) log_.record_pair(it->second.config, result.energy);
    in_flight_.erase(it);
  }
  return result;
}

}  // namespace perfbench
