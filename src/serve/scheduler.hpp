#pragma once

/// \file scheduler.hpp
/// The daemon's request scheduler: admission control over a bounded pending
/// queue with per-session quotas, round-robin batch formation across
/// sessions, and the batched solve itself.
///
/// Coalescing (DESIGN.md §12): every pending request is an independent
/// walker configuration of the same structure, so one batch of B requests
/// is B x n_atoms x n_points independent Schur solves.
/// LsmsSolver::batch_energies runs them as one OpenMP loop (team size from
/// OMP_NUM_THREADS) over the same per-point kernel energies() uses. Under
/// light load (a lone pending request) the scheduler falls back to a real
/// SynchronousEnergyService; both paths sum the same point terms in point
/// then atom order, so they return bit-identical energies.

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "lsms/solver.hpp"
#include "serve/protocol.hpp"
#include "wl/energy_function.hpp"
#include "wl/energy_service.hpp"

namespace wlsms::serve {

/// Admission and batching knobs.
struct ServeLimits {
  /// Daemon-wide cap on accepted-but-uncompleted requests; submissions
  /// beyond it are rejected with kQueueFull (backpressure, not buffering).
  std::size_t max_pending = 256;
  /// Per-session outstanding quota; beyond it kQuotaExceeded.
  std::size_t max_session_outstanding = 64;
  /// Most requests one batched dispatch coalesces.
  std::size_t max_batch = 16;
  /// Latency budget: a pending request older than this forces a (possibly
  /// singleton) dispatch even if the batch is not full.
  std::chrono::milliseconds batch_window{5};
};

/// Session-aware batching scheduler over one LsmsSolver.
class BatchScheduler {
 public:
  enum class Admission { kAccepted, kQueueFull, kQuotaExceeded };

  /// One completed request, routed back by session. Carries the critical-
  /// path stage vector (queue_us/solve_us stamped here; serialize_us filled
  /// by the daemon at encode time) and the originating trace context plus
  /// admission timestamp, so the daemon can emit one serve.request span per
  /// request adopted under the client's driver span.
  struct Completed {
    std::uint64_t session = 0;
    wl::EnergyResult result;
    StageBreakdown stages;
    obs::TraceContext trace;
    std::uint64_t admitted_us = 0;  ///< obs::trace_now_us() at admission
  };

  /// Dispatch accounting, exposed for the bench and tests.
  struct Stats {
    std::uint64_t batches = 0;            ///< run_next_batch calls
    std::uint64_t batched_requests = 0;   ///< requests solved in multi-batches
    std::uint64_t singleton_requests = 0; ///< requests solved one-at-a-time
  };

  BatchScheduler(std::shared_ptr<const lsms::LsmsSolver> solver,
                 ServeLimits limits);

  /// Admission-controlled enqueue. On kAccepted the request is owned by the
  /// scheduler until run_next_batch completes it or take_session removes it.
  Admission submit(std::uint64_t session, wl::EnergyRequest request);

  std::size_t pending() const { return n_pending_; }
  std::size_t session_pending(std::uint64_t session) const;

  /// Enqueue time of the oldest pending request (nullopt when idle); the
  /// daemon schedules its poll timeout so the batch window expires on time.
  std::optional<std::chrono::steady_clock::time_point> oldest_pending_since()
      const;

  /// Forms the next batch — round-robin across sessions, one request per
  /// session per lap, up to max_batch — solves it, and appends the results
  /// to `out`. A batch of one runs through the synchronous reference
  /// service; a failed batch (singular matrix) is retried request by
  /// request so only the genuinely failing ones come back failed=true,
  /// matching singleton semantics. No-op when nothing is pending.
  void run_next_batch(std::vector<Completed>& out);

  /// Removes and returns every pending request of `session` (disconnect ->
  /// checkpoint). Oldest first.
  std::vector<wl::EnergyRequest> take_session(std::uint64_t session);

  const Stats& stats() const { return stats_; }
  const ServeLimits& limits() const { return limits_; }
  std::size_t n_atoms() const { return solver_->n_atoms(); }

 private:
  struct Queued {
    wl::EnergyRequest request;
    std::chrono::steady_clock::time_point enqueued;
    std::uint64_t admitted_us = 0;  ///< obs::trace_now_us() at admission
  };

  wl::EnergyResult solve_singleton(wl::EnergyRequest request);

  std::shared_ptr<const lsms::LsmsSolver> solver_;
  ServeLimits limits_;
  /// The singleton / retry path: a real SynchronousEnergyService over the
  /// same solver, constructed directly — the factory (wlsms_factory) sits
  /// above the serve client and thus above this library, so the daemon
  /// cannot link back into it.
  wl::LsmsEnergy energy_;
  std::unique_ptr<wl::EnergyService> singleton_;

  /// Ordered by session id for deterministic round-robin; the cursor
  /// rotates so one chatty session cannot starve the others.
  std::map<std::uint64_t, std::deque<Queued>> queues_;
  std::uint64_t cursor_ = 0;
  std::size_t n_pending_ = 0;
  Stats stats_;
};

}  // namespace wlsms::serve
