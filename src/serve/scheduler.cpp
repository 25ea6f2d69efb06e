#include "serve/scheduler.hpp"

#include <utility>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/prometheus.hpp"
#include "obs/trace.hpp"

namespace wlsms::serve {

namespace {

struct SchedulerMetrics {
  obs::Counter& accepted;
  obs::Counter& rejects_queue_full;
  obs::Counter& rejects_quota;
  obs::Counter& batches;
  obs::Gauge& pending;
  obs::Histogram& request_latency_ms;
};

SchedulerMetrics& scheduler_metrics() {
  static SchedulerMetrics metrics{
      obs::Registry::instance().counter("serve.accepted"),
      obs::Registry::instance().counter("serve.rejects_queue_full"),
      obs::Registry::instance().counter("serve.rejects_quota"),
      // Counts dispatches, one per request solved. The name predates
      // one-at-a-time dispatch and stays, because the benchmark ledger
      // reads accepted / batches as its occupancy (now 1.0).
      obs::Registry::instance().counter("serve.batches"),
      obs::Registry::instance().gauge("serve.pending"),
      obs::Registry::instance().histogram(
          "serve.request_latency_ms",
          obs::exponential_bounds(0.1, 2.0, 16)),
  };
  return metrics;
}

}  // namespace

RequestScheduler::RequestScheduler(
    std::shared_ptr<const lsms::LsmsSolver> solver, ServeLimits limits)
    : solver_(std::move(solver)), limits_(limits) {
  WLSMS_EXPECTS(solver_ != nullptr);
  WLSMS_EXPECTS(limits_.max_pending >= 1);
  WLSMS_EXPECTS(limits_.max_session_outstanding >= 1);
}

RequestScheduler::Admission RequestScheduler::submit(
    std::uint64_t session, wl::EnergyRequest request) {
  SchedulerMetrics& metrics = scheduler_metrics();
  if (n_pending_ >= limits_.max_pending) {
    metrics.rejects_queue_full.inc();
    return Admission::kQueueFull;
  }
  if (session_pending(session) >= limits_.max_session_outstanding) {
    metrics.rejects_quota.inc();
    return Admission::kQuotaExceeded;
  }
  request.session = session;
  queues_[session].push_back({std::move(request), obs::trace_now_us()});
  ++n_pending_;
  metrics.accepted.inc();
  metrics.pending.set(static_cast<double>(n_pending_));
  return Admission::kAccepted;
}

std::size_t RequestScheduler::session_pending(std::uint64_t session) const {
  const auto it = queues_.find(session);
  return it == queues_.end() ? 0 : it->second.size();
}

std::optional<RequestScheduler::Completed> RequestScheduler::run_next() {
  if (n_pending_ == 0) return std::nullopt;
  const obs::Span span("serve.dispatch");
  SchedulerMetrics& metrics = scheduler_metrics();

  // Round-robin: the first session past the cursor, wrapping around, gives
  // up its oldest request, so a chatty session gets one dispatch per lap.
  auto it = queues_.upper_bound(cursor_);
  if (it == queues_.end()) it = queues_.begin();
  cursor_ = it->first;
  const Queued queued = std::move(it->second.front());
  it->second.pop_front();
  if (it->second.empty()) queues_.erase(it);
  --n_pending_;
  metrics.pending.set(static_cast<double>(n_pending_));
  ++stats_.dispatches;
  metrics.batches.inc();

  Completed done;
  done.session = queued.request.session;
  done.result.walker = queued.request.walker;
  done.result.ticket = queued.request.ticket;
  done.trace = queued.request.trace;
  done.admitted_us = queued.admitted_us;
  const std::uint64_t dispatched_us = obs::trace_now_us();
  try {
    done.result.energy = solver_->energy(queued.request.config);
  } catch (const linalg::SingularMatrixError&) {
    done.result.failed = true;
  }
  // Stage vector: admitted -> dispatched is queue wait, dispatched -> now
  // is the solve (the daemon adds serialize_us).
  const std::uint64_t solved_us = obs::trace_now_us();
  done.stages.queue_us = dispatched_us - queued.admitted_us;
  done.stages.solve_us = solved_us - dispatched_us;
  metrics.request_latency_ms.observe(
      static_cast<double>(solved_us - queued.admitted_us) / 1000.0);
  return done;
}

std::vector<wl::EnergyRequest> RequestScheduler::take_session(
    std::uint64_t session) {
  std::vector<wl::EnergyRequest> taken;
  const auto it = queues_.find(session);
  if (it == queues_.end()) return taken;
  taken.reserve(it->second.size());
  for (Queued& queued : it->second)
    taken.push_back(std::move(queued.request));
  n_pending_ -= it->second.size();
  queues_.erase(it);
  scheduler_metrics().pending.set(static_cast<double>(n_pending_));
  return taken;
}

}  // namespace wlsms::serve
