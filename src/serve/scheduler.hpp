#pragma once

/// \file scheduler.hpp
/// The daemon's request scheduler: admission control over a bounded pending
/// queue with per-session quotas, and round-robin dispatch across sessions,
/// one request at a time.
///
/// One request is already n_atoms x n_points independent Schur solves, which
/// LsmsSolver::energies runs as one OpenMP loop (team size from
/// OMP_NUM_THREADS), so the scheduler hands the solver one configuration per
/// dispatch and returns exactly the energy energies() computes
/// (DESIGN.md §12).

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "lsms/solver.hpp"
#include "serve/protocol.hpp"
#include "wl/energy_service.hpp"

namespace wlsms::serve {

/// Admission limits.
struct ServeLimits {
  /// Daemon-wide cap on accepted-but-uncompleted requests; submissions
  /// beyond it are rejected with kQueueFull (backpressure, not buffering).
  std::size_t max_pending = 256;
  /// Per-session outstanding quota; beyond it kQuotaExceeded.
  std::size_t max_session_outstanding = 64;
};

/// Session-aware request scheduler over one LsmsSolver.
class RequestScheduler {
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
    std::uint64_t dispatches = 0;  ///< requests solved by run_next
  };

  RequestScheduler(std::shared_ptr<const lsms::LsmsSolver> solver,
                   ServeLimits limits);

  /// Admission-controlled enqueue. On kAccepted the request is owned by the
  /// scheduler until run_next completes it or take_session removes it.
  Admission submit(std::uint64_t session, wl::EnergyRequest request);

  std::size_t pending() const { return n_pending_; }
  std::size_t session_pending(std::uint64_t session) const;

  /// Takes the oldest request of the next session (round-robin in id order
  /// past the last session served), solves it with the solver and returns
  /// it; a singular zone solve completes it with failed=true. nullopt when
  /// nothing is pending.
  std::optional<Completed> run_next();

  /// Removes and returns every pending request of `session` (disconnect ->
  /// checkpoint). Oldest first.
  std::vector<wl::EnergyRequest> take_session(std::uint64_t session);

  const Stats& stats() const { return stats_; }
  std::size_t n_atoms() const { return solver_->n_atoms(); }

 private:
  struct Queued {
    wl::EnergyRequest request;
    std::uint64_t admitted_us = 0;  ///< obs::trace_now_us() at admission
  };

  std::shared_ptr<const lsms::LsmsSolver> solver_;
  ServeLimits limits_;
  /// Non-empty queues only, ordered by session id for deterministic
  /// round-robin; the cursor rotates so one chatty session cannot starve
  /// the others.
  std::map<std::uint64_t, std::deque<Queued>> queues_;
  std::uint64_t cursor_ = 0;
  std::size_t n_pending_ = 0;
  Stats stats_;
};

}  // namespace wlsms::serve
