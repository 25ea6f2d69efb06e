#pragma once

/// \file distributed_service.hpp
/// The paper's two-level decomposition made real: an EnergyService whose
/// evaluations are sharded across the worker ranks of M LSMS groups of N
/// ranks each ("one atom per processor", §II-C / Fig. 3), over either
/// communicator transport — threads for the sanitizer suites, fork()ed
/// processes for genuine multi-process evaluation.
///
/// One submitted configuration occupies one group: the controller scatters
/// contiguous atom shards (full configurations the first time a rank sees
/// a walker, moved-site deltas afterwards — the t-matrix-update scatter),
/// the ranks run the per-atom LIZ solves serially, and the controller
/// gathers the per-atom energies and sums them in atom order, making the
/// distributed total bit-identical to LsmsSolver::energies.
///
/// Resilience (paper §V): rank death — socket EOF, a killed thread, or a
/// heartbeat older than `heartbeat_timeout` while work is assigned — is
/// detected inside retrieve(), the victim's group re-scatters the affected
/// request over its surviving ranks (or the request migrates to another
/// group), and outstanding() never miscounts. Stale gathers from the
/// aborted scatter are discarded by attempt number. Only when every rank
/// of every group is gone does retrieve() throw.

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "comm/communicator.hpp"
#include "lsms/solver.hpp"
#include "wl/energy_service.hpp"

namespace wlsms::comm {

/// Group topology and failure-detection knobs.
struct DistributedConfig {
  std::size_t n_groups = 1;    ///< M independent LSMS groups
  std::size_t group_size = 1;  ///< N worker ranks per group
  Transport transport = Transport::kInProcess;
  /// Controller poll granularity inside retrieve().
  std::chrono::milliseconds poll_interval{20};
  /// A rank with assigned work unheard-from for longer than this is
  /// declared dead and its work rerouted. Must comfortably exceed the
  /// worst-case single-shard solve time (workers cannot heartbeat while
  /// computing).
  std::chrono::milliseconds heartbeat_timeout{5000};
  /// Listener/handshake/coalescing knobs, used only when `transport` is
  /// kTcp. With `tcp.spawn_workers` false the workers are external
  /// processes started by the operator (`wlsms worker --connect`), running
  /// run_shard_worker over their own solver build.
  TcpOptions tcp;
};

/// The worker-rank protocol loop of DistributedEnergyService: caches the
/// last configuration per (session, walker) (the basis delta scatters apply
/// to, dropped again on a ShardEvict when that session ends), runs the
/// serial per-atom shard solves of `solver`, and replies with gathers.
/// Returns when the channel reports shutdown/EOF; throws on a malformed
/// request (a throwing worker is a dying worker — the controller reroutes).
/// Exposed so external TCP workers (`wlsms worker`) run the identical loop
/// the controller forks locally.
void run_shard_worker(WorkerChannel& channel,
                      std::shared_ptr<const lsms::LsmsSolver> solver);

/// Group-sharded, transport-agnostic, fault-tolerant energy service.
class DistributedEnergyService final : public wl::EnergyService {
 public:
  /// Workers run per-atom zone solves of `solver`. With the process
  /// transport the solver must be fully constructed before this call (the
  /// children inherit it copy-on-write), and workers stay off OpenMP: they
  /// solve through the serial LsmsSolver::shard_energies — see
  /// communicator.hpp fork discipline.
  DistributedEnergyService(std::shared_ptr<const lsms::LsmsSolver> solver,
                           DistributedConfig config);
  ~DistributedEnergyService() override;

  void submit(wl::EnergyRequest request) override;
  wl::EnergyResult retrieve() override;
  std::size_t outstanding() const override { return outstanding_; }

  /// Drops every (session, walker) delta-cache entry of `session`, on the
  /// controller and on every alive worker rank. Multiplexers serving many
  /// short-lived tenant sessions over one service call this when a session
  /// ends, so the caches cannot grow without bound under session churn; a
  /// reused (session, walker) key simply scatters full again.
  void evict_session(std::uint64_t session);

  /// Controller-side delta-cache entries summed over ranks (for tests and
  /// capacity monitoring).
  std::size_t delta_cache_entries() const;

  /// Requests re-scattered after a detected worker death.
  std::uint64_t reroutes() const { return reroutes_; }
  std::size_t n_workers() const { return comm_->n_ranks(); }
  std::size_t n_alive_workers() const { return comm_->n_alive(); }

  /// The underlying transport — exposed so resilience tests and harnesses
  /// can kill ranks out from under the service.
  Communicator& communicator() { return *comm_; }

 private:
  /// One rank's slice of the current scatter.
  struct Assignment {
    std::size_t rank = 0;
    std::size_t first = 0;  ///< the rank solves atoms [first, first+count)
    std::size_t count = 0;
  };

  struct Group {
    std::vector<std::size_t> ranks;  ///< global rank ids of this group
    bool busy = false;
    wl::EnergyRequest request;            ///< in-flight request
    std::uint32_t attempt = 0;            ///< current scatter generation
    std::vector<Assignment> assigned;     ///< shards of the current scatter
    std::vector<double> per_atom;         ///< gathered e_i
    std::vector<std::uint8_t> have_atom;  ///< gather bitmap
    std::size_t missing = 0;              ///< atoms not yet gathered
  };

  /// Scatters `request` over group `g`'s alive ranks. Returns false (group
  /// untouched further) if the group has no alive ranks left.
  bool dispatch(std::size_t g, const wl::EnergyRequest& request);
  /// Finds an idle group with alive ranks; npos if none.
  std::size_t idle_group() const;
  /// Dispatches waiting requests onto idle groups.
  void pump_waiting();
  /// Handles one gathered shard result message.
  void on_shard_result(std::size_t rank, const std::vector<std::byte>& payload);
  /// Death and heartbeat-timeout sweep over busy groups; reroutes work.
  void check_health();
  /// Reacts to the death of `rank`: forgets its delta cache and, if its
  /// group had work in flight, re-scatters that work.
  void on_rank_death(std::size_t rank);

  std::shared_ptr<const lsms::LsmsSolver> solver_;
  DistributedConfig config_;
  std::unique_ptr<Communicator> comm_;
  std::vector<Group> groups_;
  std::vector<std::size_t> rank_group_;  ///< rank id -> group index

  /// Delta-cache key: one tenant-session's walker. The serving daemon
  /// multiplexes many sessions over one service, so walker id alone would
  /// alias two tenants' configurations and corrupt the delta basis.
  using ConfigKey = std::pair<std::uint64_t, std::uint64_t>;

  /// Per-rank, per-(session, walker) directions last successfully sent:
  /// the basis the moved-site delta scatter is encoded against.
  std::vector<std::map<ConfigKey, std::vector<Vec3>>> sent_;

  /// Per-rank flag: this rank's death was already counted in the
  /// comm.rank_deaths metric (on_rank_death can fire more than once for
  /// one rank — observed death, then heartbeat sweep).
  std::vector<std::uint8_t> death_counted_;

  std::deque<wl::EnergyRequest> waiting_;  ///< submitted, no free group yet
  std::deque<wl::EnergyResult> done_;      ///< completed, not yet retrieved
  std::size_t outstanding_ = 0;
  std::uint32_t next_attempt_ = 1;
  std::uint64_t reroutes_ = 0;
};

}  // namespace wlsms::comm
