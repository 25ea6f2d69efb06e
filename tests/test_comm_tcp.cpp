// TCP Communicator tests over loopback: the handshake (including garbage
// connections that must be rejected without consuming a rank slot), echo
// plumbing and large frames through real TCP sockets, corrupt-stream rank
// death, and the distributed energy service end to end — energies
// bit-identical to the serial solver and kill-a-rank failover, exactly
// mirroring the socketpair suite (test_comm_process.cpp).
//
// In the `net` ctest label, NOT `sanitize`: these tests fork worker
// processes and open real sockets, neither of which tsan supports.
#include "comm/communicator.hpp"

#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <future>
#include <set>
#include <string>
#include <thread>

#include <poll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "comm/distributed_service.hpp"
#include "comm/framing.hpp"
#include "comm/socket.hpp"
#include "common/rng.hpp"
#include "common/serial.hpp"
#include "lattice/structure.hpp"
#include "lsms/fe_parameters.hpp"
#include "lsms/solver.hpp"
#include "obs/metrics.hpp"
#include "wl/energy_function.hpp"
#include "child_process.hpp"

namespace wlsms::comm {
namespace {

using namespace std::chrono_literals;
using test::child_pids;

Message text_message(std::uint32_t tag, const std::string& text) {
  Message message;
  message.tag = tag;
  message.payload.resize(text.size());
  if (!text.empty())
    std::memcpy(message.payload.data(), text.data(), text.size());
  return message;
}

void echo_worker(WorkerChannel& channel) {
  while (std::optional<Message> message = channel.recv())
    channel.send(*message);
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

/// Client connect for tests that speak the protocol (or deliberately
/// don't) by hand; -1 on failure.
int raw_connect(const std::string& address) {
  try {
    return connect_with_timeout(address, 2s).release();
  } catch (const CommError&) {
    return -1;
  }
}

TEST(TcpCommunicator, EchoAcrossForkedLoopbackWorkers) {
  constexpr std::size_t kRanks = 4;
  auto comm = make_tcp_communicator(kRanks, echo_worker, TcpOptions{});
  EXPECT_EQ(comm->n_alive(), kRanks);
  for (std::size_t r = 0; r < kRanks; ++r)
    EXPECT_TRUE(comm->send(r, text_message(static_cast<std::uint32_t>(r),
                                           "rank" + std::to_string(r))));
  std::vector<bool> seen(kRanks, false);
  for (std::size_t k = 0; k < kRanks; ++k) {
    std::optional<Incoming> incoming;
    while (!incoming) incoming = comm->recv(500ms);
    EXPECT_EQ(incoming->message.tag, incoming->rank);
    EXPECT_FALSE(seen[incoming->rank]);
    seen[incoming->rank] = true;
  }
  comm->shutdown();
  EXPECT_EQ(comm->n_alive(), 0u);
}

TEST(TcpCommunicator, LargeFrameSurvivesTcp) {
  auto comm = make_tcp_communicator(1, echo_worker, TcpOptions{});
  std::string big(1 << 22, 'x');  // 4 MiB: chunked writes + reassembly
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

TEST(TcpCommunicator, ExternalWorkersJoinAndGarbageConnectionsAreRejected) {
  // spawn_workers = false: the controller only listens; "remote" workers
  // are threads of this test running the public run_tcp_worker entry point
  // — the same code path `wlsms worker --connect` uses. Before the real
  // workers join, a garbage connection (wrong magic, no valid hello) must
  // be rejected WITHOUT consuming one of the two rank slots.
  // The workers connect only after the garbage connection has: otherwise
  // both can join first, the listener closes, and the garbage connect is
  // refused.
  std::vector<std::thread> workers;
  std::thread nuisance;
  std::promise<void> nuisance_connected;
  const std::shared_future<void> nuisance_queued =
      nuisance_connected.get_future().share();
  TcpOptions options;
  options.spawn_workers = false;
  options.on_listening = [&](const std::string& address) {
    nuisance = std::thread([address, &nuisance_connected] {
      const int fd = raw_connect(address);
      nuisance_connected.set_value();
      ASSERT_GE(fd, 0);
      const char junk[] = "GET / HTTP/1.1\r\n\r\n";
      (void)::send(fd, junk, sizeof(junk), MSG_NOSIGNAL);
      ::close(fd);
    });
    for (int k = 0; k < 2; ++k)
      workers.emplace_back([address, nuisance_queued] {
        nuisance_queued.wait();
        (void)run_tcp_worker(address, echo_worker);
      });
  };
  auto comm = make_tcp_communicator(2, nullptr, options);
  nuisance.join();
  EXPECT_EQ(comm->n_alive(), 2u);
  EXPECT_TRUE(comm->send(0, text_message(5, "over tcp")));
  std::optional<Incoming> incoming;
  while (!incoming) incoming = comm->recv(500ms);
  EXPECT_EQ(incoming->rank, 0u);
  EXPECT_EQ(incoming->message.tag, 5u);
  comm->shutdown();  // workers see EOF and return
  for (std::thread& w : workers) w.join();
}

TEST(TcpCommunicator, CorruptFrameAfterHandshakeIsRankDeathNotCrash) {
  // A worker that handshakes correctly, then floods the stream with a
  // corrupt length field: the controller must mark the rank dead and keep
  // serving the healthy rank, never crash or wedge.
  std::thread rogue;
  std::vector<std::thread> workers;
  TcpOptions options;
  options.spawn_workers = false;
  options.on_listening = [&](const std::string& address) {
    rogue = std::thread([address] {
      const int fd = raw_connect(address);
      ASSERT_GE(fd, 0);
      serial::Encoder hello;
      serial::write_header(hello, serial::PayloadKind::kTcpHello);
      hello.put_u64(0);  // trace node
      hello.put_u64(0);  // clock-probe t0
      const std::vector<std::byte> frame =
          frame_bytes(Message{kTagHello, hello.take()});
      ASSERT_TRUE(write_all(fd, frame.data(), frame.size(),
                            StreamClock::now() + 2s));
      // Swallow the welcome header + payload (8 + 52 bytes), then betray
      // the protocol: a length field far beyond kMaxFrameBytes.
      char welcome[60];
      ASSERT_TRUE(read_all(fd, welcome, sizeof(welcome)));
      const std::uint8_t corrupt[8] = {0xFF, 0xFF, 0xFF, 0xFF, 1, 0, 0, 0};
      (void)::send(fd, corrupt, sizeof(corrupt), MSG_NOSIGNAL);
      // Stay connected so death comes from the corrupt frame, not EOF.
      char sink;
      (void)::recv(fd, &sink, 1, 0);
      ::close(fd);
    });
    workers.emplace_back([address] {
      (void)run_tcp_worker(address, echo_worker);
    });
  };
  auto comm = make_tcp_communicator(2, nullptr, options);

  // Drive recv until the corrupt stream is drained and the rogue rank dies.
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (comm->n_alive() == 2 && std::chrono::steady_clock::now() < deadline)
    (void)comm->recv(50ms);
  EXPECT_EQ(comm->n_alive(), 1u);

  // The surviving rank still echoes.
  std::size_t healthy = comm->alive(0) ? 0 : 1;
  EXPECT_TRUE(comm->send(healthy, text_message(6, "still here")));
  std::optional<Incoming> incoming;
  while (!incoming) incoming = comm->recv(500ms);
  EXPECT_EQ(incoming->rank, healthy);
  comm->shutdown();
  rogue.join();
  for (std::thread& w : workers) w.join();
}

TEST(TcpCommunicator, KillEndsExactlyThatRanksProcess) {
  auto comm = make_tcp_communicator(4, pid_echo_worker, TcpOptions{});
  expect_kill_ends_exactly_that_rank(*comm);
}

TEST(TcpCommunicator, IncompleteGroupReapsItsForkedWorkers) {
  // A zero accept window fails group formation after both workers are
  // forked: the factory must close what it made and reap its children
  // before throwing, leaving neither a running worker nor a zombie.
  TcpOptions options;
  options.accept_timeout = 0ms;
  EXPECT_THROW((void)make_tcp_communicator(2, echo_worker, options),
               CommError);
  const pid_t reaped = ::waitpid(-1, nullptr, WNOHANG);
  const int error = errno;
  EXPECT_EQ(reaped, -1) << "a forked worker outlived the failed factory";
  EXPECT_EQ(error, ECHILD);
}

TEST(TcpCommunicator, StalledWelcomeTimesOutTheWorker) {
  // A controller that sends the welcome header (announcing 52 payload
  // bytes) and then stalls must cost the worker the handshake deadline,
  // not hang `wlsms worker --connect` forever.
  std::string address;
  Socket listener = make_listener("127.0.0.1:0", 1, address);
  std::thread controller([&listener] {
    Socket conn(::accept(listener.get(), nullptr, nullptr));
    if (conn.get() < 0) return;
    try {
      (void)read_one_frame(conn.get(), StreamClock::now() + 5s);  // hello
    } catch (const CommError&) {
      return;
    }
    const std::uint32_t header[2] = {4 + 52, kTagWelcome};
    (void)write_all(conn.get(), header, sizeof(header),
                    StreamClock::now() + 1s);
    // Hold the connection open until the worker gives up and closes it.
    struct pollfd pfd{conn.get(), POLLIN, 0};
    (void)::poll(&pfd, 1, 10000);
  });
  const auto start = StreamClock::now();
  EXPECT_THROW((void)run_tcp_worker(address, echo_worker), CommError);
  EXPECT_LT(StreamClock::now() - start, 5s);
  controller.join();
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

TEST(TcpDistributedService, BitIdenticalToSerialSolver) {
  const Fe16& f = fe16();
  DistributedConfig config;
  config.n_groups = 2;
  config.group_size = 2;
  config.transport = Transport::kTcp;
  DistributedEnergyService distributed(f.solver, config);
  EXPECT_EQ(distributed.n_workers(), 4u);

  Rng rng(41);
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

TEST(TcpDistributedService, KilledWorkerMidRunRequestCompletes) {
  const Fe16& f = fe16();
  DistributedConfig config;
  config.n_groups = 1;
  config.group_size = 2;
  config.transport = Transport::kTcp;
  DistributedEnergyService distributed(f.solver, config);

  Rng rng(42);
  const auto moments = spin::MomentConfiguration::random(16, rng);
  distributed.submit({0, 1, moments});
  // SIGKILL one assigned TCP worker right after the scatter: ECONNRESET/EOF
  // on its socket must reroute the shard to the survivor.
  distributed.communicator().kill(0);
  const wl::EnergyResult result = distributed.retrieve();
  EXPECT_FALSE(result.failed);
  EXPECT_EQ(result.energy, f.energy->total_energy(moments));
  EXPECT_EQ(distributed.n_alive_workers(), 1u);
  EXPECT_GE(distributed.reroutes(), 1u);

  distributed.submit({0, 2, moments});
  EXPECT_EQ(distributed.retrieve().energy, f.energy->total_energy(moments));
}

TEST(TcpDistributedService, HeartbeatTimeoutKillsExactlyTheStoppedWorker) {
  // The TCP twin of the process-transport test: a SIGSTOPped worker keeps
  // its socket open but never answers its shard, so only the heartbeat
  // timeout can find it. The controller must count exactly one miss, kill
  // and reap exactly that process, and finish the request on the other
  // ranks with the serial solver's bits.
  const Fe16& f = fe16();
  DistributedConfig config;
  config.n_groups = 1;
  config.group_size = 3;
  config.transport = Transport::kTcp;
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

  Rng rng(44);
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
  for (const pid_t pid : workers) {
    if (pid != stopped) {
      EXPECT_EQ(::kill(pid, 0), 0) << "healthy worker " << pid << " is gone";
    }
  }
  EXPECT_EQ(distributed.n_alive_workers(), 2u);
}

TEST(TcpDistributedService, DeltaScatterOverTcpStaysBitIdentical) {
  // Single-moved-site walks: after the first full scatter every subsequent
  // send is a coalesced delta frame; energies must stay bit-identical.
  const Fe16& f = fe16();
  DistributedConfig config;
  config.n_groups = 1;
  config.group_size = 4;
  config.transport = Transport::kTcp;
  DistributedEnergyService distributed(f.solver, config);

  Rng rng(43);
  spin::MomentConfiguration moments =
      spin::MomentConfiguration::random(16, rng);
  for (std::uint64_t step = 1; step <= 4; ++step) {
    moments.set(rng.uniform_index(16), rng.unit_vector());
    distributed.submit({0, step, moments});
    EXPECT_EQ(distributed.retrieve().energy, f.energy->total_energy(moments))
        << "step " << step;
  }
}

}  // namespace
}  // namespace wlsms::comm
