// Multi-process Communicator tests: fork()ed worker ranks over UNIX-domain
// socketpairs. Covers the echo plumbing, large-frame handling, process
// death via SIGKILL (instant EOF on the socket), and the distributed
// energy service end to end across real OS processes — including the
// acceptance case: energies bit-identical to the serial solver, and a
// worker SIGKILLed mid-run with the request completing via reroute.
//
// Deliberately NOT in the `sanitize` ctest label: tsan does not support
// fork-heavy tests; the thread-backed twin (test_comm_transport.cpp)
// carries the sanitizer coverage for the same service logic.
#include "comm/communicator.hpp"

#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>

#include <csignal>
#include <unistd.h>

#include "comm/distributed_service.hpp"
#include "comm/framing.hpp"
#include "common/rng.hpp"
#include "lattice/structure.hpp"
#include "lsms/fe_parameters.hpp"
#include "lsms/solver.hpp"
#include "obs/metrics.hpp"
#include "wl/energy_function.hpp"

namespace wlsms::comm {
namespace {

using namespace std::chrono_literals;

Message text_message(std::uint32_t tag, const std::string& text) {
  Message message;
  message.tag = tag;
  message.payload.resize(text.size());
  if (!text.empty())
    std::memcpy(message.payload.data(), text.data(), text.size());
  return message;
}

/// Worker that answers every request with its own pid, so a test can map
/// ranks to OS processes.
void pid_echo_worker(WorkerChannel& channel) {
  while (std::optional<Message> message = channel.recv()) {
    const std::uint64_t pid = static_cast<std::uint64_t>(::getpid());
    Message reply{message->tag, std::vector<std::byte>(sizeof(pid))};
    std::memcpy(reply.payload.data(), &pid, sizeof(pid));
    channel.send(reply);
  }
}

/// Asks `rank` for its pid; -1 if it does not answer within 5 s.
pid_t rank_pid(Communicator& comm, std::size_t rank) {
  if (!comm.send(rank, Message{static_cast<std::uint32_t>(rank), {}}))
    return -1;
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (std::chrono::steady_clock::now() < deadline) {
    const std::optional<Incoming> incoming = comm.recv(100ms);
    if (!incoming || incoming->rank != rank) continue;
    std::uint64_t pid = 0;
    if (incoming->message.payload.size() != sizeof(pid)) return -1;
    std::memcpy(&pid, incoming->message.payload.data(), sizeof(pid));
    return static_cast<pid_t>(pid);
  }
  return -1;
}

/// kill(r) must end rank r's process and nothing else: every rank not yet
/// killed keeps its process and still answers.
void expect_kill_ends_exactly_that_rank(Communicator& comm) {
  std::vector<pid_t> pids;
  for (std::size_t r = 0; r < comm.n_ranks(); ++r) {
    pids.push_back(rank_pid(comm, r));
    ASSERT_GT(pids.back(), 0) << "rank " << r << " never reported its pid";
  }
  for (std::size_t r = 0; r < comm.n_ranks(); ++r) {
    comm.kill(r);
    const int rc = ::kill(pids[r], 0);
    const int error = errno;
    EXPECT_EQ(rc, -1) << "rank " << r << " survived kill";
    EXPECT_EQ(error, ESRCH) << "rank " << r;
    for (std::size_t other = r + 1; other < comm.n_ranks(); ++other) {
      EXPECT_EQ(::kill(pids[other], 0), 0)
          << "kill(" << r << ") ended rank " << other << "'s process";
      EXPECT_TRUE(comm.alive(other));
      EXPECT_EQ(rank_pid(comm, other), pids[other]) << "rank " << other;
    }
  }
}

TEST(ProcessCommunicator, EchoAcrossRealProcesses) {
  constexpr std::size_t kRanks = 4;
  auto comm = make_process_communicator(kRanks, [](WorkerChannel& channel) {
    while (std::optional<Message> message = channel.recv())
      channel.send({message->tag + 1, message->payload});
  });
  EXPECT_EQ(comm->n_alive(), kRanks);
  for (std::size_t r = 0; r < kRanks; ++r)
    EXPECT_TRUE(comm->send(r, text_message(static_cast<std::uint32_t>(r),
                                           "rank" + std::to_string(r))));
  std::vector<bool> seen(kRanks, false);
  for (std::size_t k = 0; k < kRanks; ++k) {
    std::optional<Incoming> incoming;
    while (!incoming) incoming = comm->recv(500ms);
    EXPECT_EQ(incoming->message.tag, incoming->rank + 1);
    EXPECT_FALSE(seen[incoming->rank]);
    seen[incoming->rank] = true;
  }
  comm->shutdown();
  EXPECT_EQ(comm->n_alive(), 0u);
}

TEST(ProcessCommunicator, LargeFrameSurvivesTheSocket) {
  // Bigger than any socket buffer, so both the chunked write (EAGAIN +
  // poll) and the reassembling reader are exercised.
  auto comm = make_process_communicator(1, [](WorkerChannel& channel) {
    while (std::optional<Message> message = channel.recv())
      channel.send(*message);
  });
  std::string big(1 << 22, 'x');  // 4 MiB
  for (std::size_t i = 0; i < big.size(); i += 4096)
    big[i] = static_cast<char>('a' + (i / 4096) % 26);
  EXPECT_TRUE(comm->send(0, text_message(7, big)));
  std::optional<Incoming> incoming;
  while (!incoming) incoming = comm->recv(1000ms);
  ASSERT_EQ(incoming->message.payload.size(), big.size());
  EXPECT_EQ(std::memcmp(incoming->message.payload.data(), big.data(),
                        big.size()),
            0);
}

TEST(ProcessCommunicator, SigkillIsImmediateEofDeath) {
  auto comm = make_process_communicator(2, [](WorkerChannel& channel) {
    while (std::optional<Message> message = channel.recv())
      channel.send(*message);
  });
  comm->kill(0);
  comm->kill(0);  // idempotent
  EXPECT_FALSE(comm->alive(0));
  EXPECT_TRUE(comm->alive(1));
  EXPECT_FALSE(comm->send(0, text_message(1, "gone")));
  EXPECT_TRUE(comm->send(1, text_message(2, "alive")));
  std::optional<Incoming> incoming;
  while (!incoming) incoming = comm->recv(500ms);
  EXPECT_EQ(incoming->rank, 1u);
}

TEST(ProcessCommunicator, KillEndsExactlyThatRanksProcess) {
  auto comm = make_process_communicator(4, pid_echo_worker);
  expect_kill_ends_exactly_that_rank(*comm);
}

TEST(ProcessCommunicator, CrashingWorkerIsRankDeath) {
  // The worker _exit(1)s on its first message (a throw inside the child is
  // treated the same way); the parent must see EOF-death, not hang.
  auto comm = make_process_communicator(1, [](WorkerChannel& channel) {
    (void)channel.recv();
    throw Error("child dies");
  });
  EXPECT_TRUE(comm->send(0, text_message(1, "trigger")));
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (comm->alive(0) && std::chrono::steady_clock::now() < deadline)
    (void)comm->recv(50ms);
  EXPECT_FALSE(comm->alive(0));
}

TEST(ProcessCommunicator, StoppedWorkerTripsTheSendDeadlineNotAHang) {
  // Regression: the controller's write loop used to poll forever when the
  // peer's socket buffer stayed full, so a SIGSTOPped child (or a
  // partitioned TCP peer) wedged the controller inside send(). Now the
  // send deadline expires, send() returns false, and the rank is dead.
  StreamOptions options;
  options.send_deadline = 300ms;
  auto comm = make_process_communicator(
      1,
      [](WorkerChannel& channel) {
        // Report our pid, then go quiet (never read again) so the socket
        // fills once we're stopped.
        const std::uint64_t pid = static_cast<std::uint64_t>(::getpid());
        Message hello;
        hello.tag = 1;
        hello.payload.resize(sizeof(pid));
        std::memcpy(hello.payload.data(), &pid, sizeof(pid));
        channel.send(hello);
        for (;;) ::usleep(100000);
      },
      options);

  std::optional<Incoming> incoming;
  while (!incoming) incoming = comm->recv(500ms);
  std::uint64_t pid = 0;
  ASSERT_EQ(incoming->message.payload.size(), sizeof(pid));
  std::memcpy(&pid, incoming->message.payload.data(), sizeof(pid));
  ASSERT_EQ(::kill(static_cast<pid_t>(pid), SIGSTOP), 0);

  // 1 MiB frames are above the coalescing cork limit, so every send is a
  // direct bounded write. The socket buffer absorbs a few, then the
  // deadline must trip — bounded by iterations * deadline, not forever.
  const Message big{2, std::vector<std::byte>(1 << 20)};
  bool failed = false;
  for (int k = 0; k < 64 && !failed; ++k) failed = !comm->send(0, big);
  EXPECT_TRUE(failed) << "send() never failed against a stopped reader";
  EXPECT_FALSE(comm->alive(0));

  // SIGKILL works on a stopped process; teardown must not hang either.
  comm->kill(0);
  comm->shutdown();
}

TEST(ProcessCommunicator, ShutdownReapsStragglersInParallel) {
  // Regression: shutdown() used to give EACH child its own grace period
  // sequentially (up to 5 s per rank). Four children that ignore EOF must
  // now share ONE grace period and be SIGKILLed together: teardown is
  // O(grace), not O(ranks * grace).
  StreamOptions options;
  options.shutdown_grace = 600ms;
  auto comm = make_process_communicator(
      4,
      [](WorkerChannel& channel) {
        (void)channel;  // never reads: EOF on shutdown is ignored
        for (;;) ::usleep(100000);
      },
      options);
  EXPECT_EQ(comm->n_alive(), 4u);

  const auto start = std::chrono::steady_clock::now();
  comm->shutdown();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  // One shared grace (600 ms) + kill/reap overhead. The old sequential
  // behavior would take >= 4 * 600 ms = 2.4 s.
  EXPECT_LT(elapsed, 1800ms)
      << "shutdown took "
      << std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count()
      << " ms; stragglers are being reaped sequentially";
  EXPECT_EQ(comm->n_alive(), 0u);
}

struct Fe16 {
  std::shared_ptr<const lsms::LsmsSolver> solver;
  std::unique_ptr<wl::LsmsEnergy> energy;
};

const Fe16& fe16() {
  static Fe16 fixture = [] {
    Fe16 f;
    f.solver = std::make_shared<const lsms::LsmsSolver>(
        lattice::make_fe_supercell(2), lsms::fe_lsms_parameters_fast());
    f.energy = std::make_unique<wl::LsmsEnergy>(f.solver);
    return f;
  }();
  return fixture;
}

TEST(ProcessDistributedService, BitIdenticalToSerialSolver) {
  const Fe16& f = fe16();
  DistributedConfig config;
  config.n_groups = 2;
  config.group_size = 2;
  config.transport = Transport::kProcess;
  DistributedEnergyService distributed(f.solver, config);
  EXPECT_EQ(distributed.n_workers(), 4u);

  Rng rng(31);
  constexpr std::size_t kEvals = 6;
  std::vector<spin::MomentConfiguration> configs;
  for (std::size_t k = 0; k < kEvals; ++k)
    configs.push_back(spin::MomentConfiguration::random(16, rng));
  for (std::size_t k = 0; k < kEvals; ++k)
    distributed.submit({k % 2, k + 1, configs[k]});
  std::vector<double> got(kEvals, 0.0);
  for (std::size_t k = 0; k < kEvals; ++k) {
    const wl::EnergyResult r = distributed.retrieve();
    EXPECT_FALSE(r.failed);
    got[r.ticket - 1] = r.energy;
  }
  for (std::size_t k = 0; k < kEvals; ++k)
    EXPECT_EQ(got[k], f.energy->total_energy(configs[k]))
        << "eval " << k << " differs from the serial solver";
}

TEST(ProcessDistributedService, SigkilledWorkerMidRunRequestCompletes) {
  const Fe16& f = fe16();
  DistributedConfig config;
  config.n_groups = 1;
  config.group_size = 2;
  config.transport = Transport::kProcess;
  DistributedEnergyService distributed(f.solver, config);

  Rng rng(32);
  const auto moments = spin::MomentConfiguration::random(16, rng);
  distributed.submit({0, 1, moments});
  // SIGKILL one assigned rank immediately after the scatter: the child has
  // barely been scheduled, so its shard is still owed. The controller must
  // see the EOF, re-scatter onto the survivor, and complete the request.
  distributed.communicator().kill(0);
  const wl::EnergyResult result = distributed.retrieve();
  EXPECT_FALSE(result.failed);
  EXPECT_EQ(result.energy, f.energy->total_energy(moments));
  EXPECT_EQ(distributed.n_alive_workers(), 1u);
  EXPECT_GE(distributed.reroutes(), 1u);

  // Still serviceable afterwards.
  distributed.submit({0, 2, moments});
  EXPECT_EQ(distributed.retrieve().energy, f.energy->total_energy(moments));
}

/// Pids of this process's live children, from every thread's
/// /proc/self/task/<tid>/children list.
std::set<pid_t> child_pids() {
  std::set<pid_t> pids;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    std::ifstream children(task.path() / "children");
    pid_t pid = 0;
    while (children >> pid) pids.insert(pid);
  }
  return pids;
}

TEST(ProcessDistributedService, HeartbeatTimeoutKillsExactlyTheStoppedWorker) {
  // A SIGSTOPped worker stays connected but never answers its shard: only
  // the heartbeat timeout can find it. The controller must count exactly
  // one miss, kill and reap exactly that process, and finish the request
  // on the other ranks with the serial solver's bits.
  const Fe16& f = fe16();
  DistributedConfig config;
  config.n_groups = 1;
  config.group_size = 3;
  config.transport = Transport::kProcess;
  config.heartbeat_timeout = 1000ms;
  const std::set<pid_t> before = child_pids();
  DistributedEnergyService distributed(f.solver, config);
  std::vector<pid_t> workers;
  for (const pid_t pid : child_pids())
    if (before.count(pid) == 0) workers.push_back(pid);
  ASSERT_EQ(workers.size(), 3u);

  obs::Counter& misses =
      obs::Registry::instance().counter("comm.heartbeat_misses");
  const std::uint64_t misses_before = misses.value();
  const pid_t stopped = workers[1];
  ASSERT_EQ(::kill(stopped, SIGSTOP), 0);

  Rng rng(34);
  const auto moments = spin::MomentConfiguration::random(16, rng);
  distributed.submit({0, 1, moments});
  const wl::EnergyResult result = distributed.retrieve();
  EXPECT_FALSE(result.failed);
  EXPECT_EQ(result.energy, f.energy->total_energy(moments));
  EXPECT_EQ(misses.value() - misses_before, 1u);

  const int probe = ::kill(stopped, 0);
  const int probe_errno = errno;
  EXPECT_EQ(probe, -1) << "stopped worker was not reaped";
  EXPECT_EQ(probe_errno, ESRCH);
  for (const pid_t pid : workers)
    if (pid != stopped)
      EXPECT_EQ(::kill(pid, 0), 0) << "healthy worker " << pid << " is gone";
  EXPECT_EQ(distributed.n_alive_workers(), 2u);
}

TEST(ProcessDistributedService, DeltaScatterAcrossProcessesStaysBitIdentical) {
  const Fe16& f = fe16();
  DistributedConfig config;
  config.n_groups = 1;
  config.group_size = 4;
  config.transport = Transport::kProcess;
  DistributedEnergyService distributed(f.solver, config);

  Rng rng(33);
  spin::MomentConfiguration moments = spin::MomentConfiguration::random(16, rng);
  for (std::uint64_t step = 1; step <= 4; ++step) {
    moments.set(rng.uniform_index(16), rng.unit_vector());
    distributed.submit({0, step, moments});
    EXPECT_EQ(distributed.retrieve().energy, f.energy->total_energy(moments))
        << "step " << step;
  }
}

}  // namespace
}  // namespace wlsms::comm
