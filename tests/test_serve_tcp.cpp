// End-to-end daemon tests over real TCP loopback sockets: hostile byte
// streams against a live daemon, admission-control backpressure on the
// wire, checkpointed session resume, a client killed while its requests are
// queued, and a multi-client connect/disconnect soak — the daemon must never
// crash, leak sessions (the serve.sessions gauge returns to zero), or stall
// the surviving tenants.
//
// The backpressure and resume tests need requests to stay pending, so they
// run `wlsms serve` (WLSMS_BINARY, injected by CMake) and SIGSTOP it. What
// a client writes meanwhile, frames and EOF alike, queues in the kernel;
// once continued, the daemon reads all of it in one poll cycle, admitting
// or rejecting every frame and checkpointing on the EOF, before it solves
// anything.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <thread>
#include <vector>

#include <dirent.h>
#include <linux/sockios.h>
#include <poll.h>
#include <sys/ioctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include "comm/framing.hpp"
#include "comm/socket.hpp"
#include "common/rng.hpp"
#include "lattice/structure.hpp"
#include "lsms/fe_parameters.hpp"
#include "obs/metrics.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "serve/status.hpp"
#include "child_process.hpp"

namespace wlsms::serve {
namespace {

using namespace std::chrono_literals;

std::shared_ptr<const lsms::LsmsSolver> small_solver() {
  static const auto solver = std::make_shared<const lsms::LsmsSolver>(
      lattice::make_fe_supercell(2), lsms::fe_lsms_parameters_fast());
  return solver;
}

/// Daemon on an ephemeral loopback port with its poll loop on a thread.
class DaemonFixture {
 public:
  explicit DaemonFixture(ServeOptions options)
      : daemon_(small_solver(), std::move(options)),
        thread_([this] { daemon_.run(); }) {}

  ~DaemonFixture() {
    daemon_.stop();
    thread_.join();
  }

  Daemon& daemon() { return daemon_; }
  const std::string& address() const { return daemon_.address(); }

 private:
  Daemon daemon_;
  std::thread thread_;
};

wl::EnergyRequest make_request(std::uint64_t ticket, Rng& rng) {
  wl::EnergyRequest request;
  request.walker = static_cast<std::size_t>(ticket % 8);
  request.ticket = ticket;
  request.config =
      spin::MomentConfiguration::random(small_solver()->n_atoms(), rng);
  return request;
}

/// Unlinks everything inside `dir` and removes it (daemons write session
/// checkpoints on every clean disconnect, so tests sweep rather than
/// enumerate).
void remove_checkpoint_dir(const std::string& dir) {
  if (DIR* d = ::opendir(dir.c_str())) {
    while (struct dirent* entry = ::readdir(d)) {
      const std::string name = entry->d_name;
      if (name == "." || name == "..") continue;
      (void)std::remove((dir + "/" + name).c_str());
    }
    ::closedir(d);
  }
  (void)::rmdir(dir.c_str());
}

bool wait_for_sessions_gauge(double expected,
                             std::chrono::milliseconds timeout) {
  obs::Gauge& gauge = obs::Registry::instance().gauge("serve.sessions");
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    if (gauge.value() == expected) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return gauge.value() == expected;
}

/// `wlsms serve --cells 2` (the small_solver() substrate) in a child
/// process on an ephemeral loopback port, which the test can stop and
/// continue.
class ServeProcess {
 public:
  explicit ServeProcess(const std::vector<std::string>& extra_args) {
    std::vector<std::string> args = {"serve", "--cells", "2", "--listen",
                                     "127.0.0.1:0"};
    args.insert(args.end(), extra_args.begin(), extra_args.end());
    test::spawn(child_, args);
    address_ = test::address_after(
        test::await_line(child_, "serving on ", 60s), "serving on ");
  }

  const std::string& address() const { return address_; }

  /// SIGSTOP, returning once the daemon is stopped.
  void pause() {
    ASSERT_EQ(::kill(child_.pid, SIGSTOP), 0);
    int status = 0;
    ASSERT_EQ(::waitpid(child_.pid, &status, WUNTRACED), child_.pid);
    ASSERT_TRUE(WIFSTOPPED(status));
  }

  void resume() { ASSERT_EQ(::kill(child_.pid, SIGCONT), 0); }

  /// SIGINT (drain, checkpoint, exit); the daemon's exit status.
  int stop() {
    if (::kill(child_.pid, SIGINT) != 0) return -1;
    return test::await_exit(child_, 30s);
  }

 private:
  test::Child child_;
  std::string address_;
};

/// A serve session driven frame by frame, so the test holds the socket.
struct RawSession {
  comm::Socket sock;
  ServeWelcome welcome;
};

RawSession raw_handshake(const std::string& address,
                         const std::string& tenant) {
  RawSession session;
  session.sock = comm::connect_with_timeout(address, 2000ms);
  ServeHello hello;
  hello.tenant = tenant;
  const std::vector<std::byte> frame =
      comm::frame_bytes({kTagServeHello, encode_serve_hello(hello)});
  EXPECT_TRUE(comm::write_all(session.sock.get(), frame.data(), frame.size(),
                              comm::StreamClock::now() + 2s));
  const comm::Message reply =
      comm::read_one_frame(session.sock.get(), comm::StreamClock::now() + 5s);
  EXPECT_EQ(reply.tag, static_cast<std::uint32_t>(kTagServeWelcome));
  session.welcome = decode_serve_welcome(reply.payload);
  return session;
}

void raw_submit(int fd, const wl::EnergyRequest& request) {
  const std::vector<std::byte> frame =
      comm::frame_bytes({kTagServeSubmit, encode_serve_submit(request)});
  ASSERT_TRUE(comm::write_all(fd, frame.data(), frame.size(),
                              comm::StreamClock::now() + 2s));
}

/// Returns once the peer's kernel has acknowledged every byte written on
/// `fd` (and the FIN, after a shutdown): all of it is then queued for the
/// daemon, stopped or not.
void wait_until_acknowledged(int fd) {
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  int unacknowledged = 0;
  while (::ioctl(fd, SIOCOUTQ, &unacknowledged) == 0 && unacknowledged > 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::yield();
  ASSERT_EQ(unacknowledged, 0);
}

/// Writes `requests` while the daemon is stopped and, unless `stay`, hangs
/// up; the frames (and the EOF) are all in the daemon's receive queue when
/// it continues.
void submit_while_paused(ServeProcess& daemon, RawSession& session,
                         const std::vector<wl::EnergyRequest>& requests,
                         bool stay) {
  daemon.pause();
  for (const wl::EnergyRequest& request : requests)
    raw_submit(session.sock.get(), request);
  if (!stay) {
    ASSERT_EQ(::shutdown(session.sock.get(), SHUT_WR), 0);
  }
  wait_until_acknowledged(session.sock.get());
  if (!stay) session.sock.close();
  daemon.resume();
}

TEST(ServeTcp, GarbageStreamsAgainstLiveDaemonNeverCrashIt) {
  ServeOptions options;
  options.handshake_timeout = std::chrono::milliseconds(300);
  DaemonFixture fixture(options);
  Rng rng(901);

  // A mix of hostile connections: pure garbage, an oversize length field,
  // a valid frame header with a garbage hello, and a silent half-open
  // connection that must be expired by the handshake deadline.
  for (int round = 0; round < 10; ++round) {
    comm::Socket sock = comm::connect_with_timeout(
        fixture.address(), std::chrono::milliseconds(2000));
    std::vector<char> garbage(16 + rng.uniform_index(256));
    for (char& c : garbage)
      c = static_cast<char>(rng.uniform_index(256));
    if (round % 3 == 0) {
      // Frame-shaped prefix with a hostile length.
      const std::uint32_t huge = 0x7FFFFFFFu;
      std::memcpy(garbage.data(), &huge, sizeof(huge));
    }
    (void)!::write(sock.get(), garbage.data(), garbage.size());
    // Half of them hang up immediately, half linger for the reaper.
    if (round % 2 == 0) sock.close();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(400));

  // The daemon is still alive and serving correct energies.
  ServeClient client(fixture.address());
  const wl::EnergyRequest request = make_request(1, rng);
  client.submit(request);
  const wl::EnergyResult result = client.retrieve();
  EXPECT_FALSE(result.failed);
  EXPECT_EQ(result.energy, small_solver()->energy(request.config));
}

TEST(ServeTcp, QueueFullBackpressureRejectsOnTheWire) {
  ServeProcess daemon({"--max-pending", "2", "--max-outstanding", "16"});
  Rng rng(902);

  RawSession client = raw_handshake(daemon.address(), "backpressure");
  std::vector<wl::EnergyRequest> requests;
  for (std::uint64_t t = 1; t <= 5; ++t)
    requests.push_back(make_request(t, rng));
  submit_while_paused(daemon, client, requests, /*stay=*/true);

  std::size_t rejected = 0, succeeded = 0;
  for (std::size_t k = 0; k < requests.size(); ++k) {
    const comm::Message reply =
        comm::read_one_frame(client.sock.get(), comm::StreamClock::now() + 30s);
    if (reply.tag == kTagServeReject) {
      EXPECT_EQ(decode_serve_reject(reply.payload).reason,
                ServeReject::Reason::kQueueFull);
      ++rejected;
    } else {
      ASSERT_EQ(reply.tag, static_cast<std::uint32_t>(kTagServeResult));
      const wl::EnergyResult result = decode_serve_result(reply.payload);
      ASSERT_FALSE(result.failed);
      EXPECT_EQ(result.energy,
                small_solver()->energy(requests[result.ticket - 1].config));
      ++succeeded;
    }
  }
  EXPECT_EQ(succeeded, 2u);
  EXPECT_EQ(rejected, 3u);
  EXPECT_EQ(daemon.stop(), 0);
}

TEST(ServeTcp, SessionCheckpointResumeRecoversPendingWork) {
  char dir_template[] = "/tmp/wlsms-serve-XXXXXX";
  ASSERT_NE(::mkdtemp(dir_template), nullptr);
  const std::string checkpoint_dir = dir_template;

  ServeProcess daemon({"--checkpoint-dir", checkpoint_dir});
  Rng rng(903);

  std::vector<wl::EnergyRequest> requests;
  for (std::uint64_t t = 1; t <= 3; ++t)
    requests.push_back(make_request(t, rng));
  RawSession client = raw_handshake(daemon.address(), "resumer");
  const std::uint64_t session = client.welcome.session;
  const std::uint64_t token = client.welcome.resume_token;
  // Die with 3 requests in flight.
  submit_while_paused(daemon, client, requests, /*stay=*/false);

  // The wrong token must not resurrect the session. Its hello is read on a
  // later poll cycle than the EOF above, so the checkpoint exists by then.
  {
    ClientOptions stolen;
    stolen.tenant = "resumer";
    stolen.resume_session = session;
    stolen.resume_token = token ^ 1;
    EXPECT_THROW(ServeClient(daemon.address(), stolen), comm::CommError);
  }
  EXPECT_NE(fetch_status(daemon.address()).find("\nserve_sessions 0\n"),
            std::string::npos);
  const std::string checkpoint_file =
      checkpoint_dir + "/session-" + std::to_string(session) + ".wlsm";
  ASSERT_EQ(::access(checkpoint_file.c_str(), F_OK), 0);

  ClientOptions resume_options;
  resume_options.tenant = "resumer";
  resume_options.resume_session = session;
  resume_options.resume_token = token;
  ServeClient resumed(daemon.address(), resume_options);
  EXPECT_TRUE(resumed.resumed());
  EXPECT_EQ(resumed.session(), session);
  ASSERT_EQ(resumed.outstanding(), 3u);
  std::size_t received = 0;
  while (resumed.outstanding() > 0) {
    const wl::EnergyResult result = resumed.retrieve();
    ASSERT_FALSE(result.failed);
    EXPECT_EQ(result.energy,
              small_solver()->energy(requests[result.ticket - 1].config));
    ++received;
  }
  EXPECT_EQ(received, 3u);
  // A consumed checkpoint is deleted — it cannot be replayed twice.
  EXPECT_NE(::access(checkpoint_file.c_str(), F_OK), 0);

  EXPECT_EQ(daemon.stop(), 0);
  remove_checkpoint_dir(checkpoint_dir);
}

TEST(ServeTcp, KillingAClientMidBatchDoesNotStallTheOtherTenant) {
  DaemonFixture fixture(ServeOptions{});
  Rng rng(904);

  ClientOptions alice_options;
  alice_options.tenant = "alice";
  ServeClient alice(fixture.address(), alice_options);
  ClientOptions bob_options;
  bob_options.tenant = "bob";
  ServeClient bob(fixture.address(), bob_options);

  std::vector<wl::EnergyRequest> bob_requests;
  for (std::uint64_t t = 1; t <= 4; ++t) {
    alice.submit(make_request(100 + t, rng));
    bob_requests.push_back(make_request(t, rng));
    bob.submit(bob_requests.back());
  }
  alice.abort_socket();  // alice dies while her requests are queued

  std::size_t received = 0;
  while (bob.outstanding() > 0) {
    const wl::EnergyResult result = bob.retrieve();
    ASSERT_FALSE(result.failed);
    EXPECT_EQ(
        result.energy,
        small_solver()->energy(bob_requests[result.ticket - 1].config));
    ++received;
  }
  EXPECT_EQ(received, 4u);
}

TEST(ServeTcp, RestartedDaemonNeverReissuesACheckpointedSessionId) {
  char dir_template[] = "/tmp/wlsms-serve-XXXXXX";
  ASSERT_NE(::mkdtemp(dir_template), nullptr);
  const std::string checkpoint_dir = dir_template;
  Rng rng(905);

  std::vector<wl::EnergyRequest> requests;
  for (std::uint64_t t = 1; t <= 2; ++t)
    requests.push_back(make_request(t, rng));
  std::uint64_t session = 0, token = 0;
  {
    ServeProcess first({"--checkpoint-dir", checkpoint_dir});
    RawSession alice = raw_handshake(first.address(), "alice");
    session = alice.welcome.session;
    token = alice.welcome.resume_token;
    // Die with in-flight work checkpointed.
    submit_while_paused(first, alice, requests, /*stay=*/false);
    // The status probe is read on a later poll cycle than alice's frames
    // and EOF, so her checkpoint is on disk before the daemon stops.
    EXPECT_NE(fetch_status(first.address()).find("\nserve_sessions 0\n"),
              std::string::npos);
    EXPECT_EQ(first.stop(), 0);
  }  // daemon restarts; checkpoint files survive in checkpoint_dir

  {
    ServeProcess second({"--checkpoint-dir", checkpoint_dir});
    // A fresh tenant on the restarted daemon must get a brand-new session
    // id. Without seeding next_session_ past the surviving checkpoints it
    // got alice's id, which first blocked her resume and then overwrote
    // her checkpoint (destroying her in-flight work) on disconnect.
    ClientOptions bob_options;
    bob_options.tenant = "bob";
    {
      ServeClient bob(second.address(), bob_options);
      EXPECT_GT(bob.session(), session);
      const wl::EnergyRequest request = make_request(7, rng);
      bob.submit(request);
      EXPECT_EQ(bob.retrieve().energy,
                small_solver()->energy(request.config));
    }

    ClientOptions resume_options;
    resume_options.tenant = "alice";
    resume_options.resume_session = session;
    resume_options.resume_token = token;
    ServeClient resumed(second.address(), resume_options);
    EXPECT_TRUE(resumed.resumed());
    EXPECT_EQ(resumed.session(), session);
    ASSERT_EQ(resumed.outstanding(), 2u);
    while (resumed.outstanding() > 0) {
      const wl::EnergyResult result = resumed.retrieve();
      ASSERT_FALSE(result.failed);
      EXPECT_EQ(result.energy,
                small_solver()->energy(requests[result.ticket - 1].config));
    }
    EXPECT_EQ(second.stop(), 0);
  }
  remove_checkpoint_dir(checkpoint_dir);
}

TEST(ServeTcp, ClientDeathMidResumeReplayKeepsCheckpointRecoverable) {
  char dir_template[] = "/tmp/wlsms-serve-XXXXXX";
  ASSERT_NE(::mkdtemp(dir_template), nullptr);
  const std::string checkpoint_dir = dir_template;
  Rng rng(906);

  // A checkpoint with far more undelivered results than the kernel socket
  // buffers can absorb, plus two pending requests.
  constexpr std::uint64_t kSession = 777;
  constexpr std::uint64_t kToken = 0x5EEDF00Dull;
  constexpr std::size_t kUndelivered = 20000;
  constexpr std::uint64_t kPendingBase = 999001;
  SessionCheckpoint checkpoint;
  checkpoint.session = kSession;
  checkpoint.resume_token = kToken;
  checkpoint.tenant = "replay";
  for (std::size_t k = 0; k < kUndelivered; ++k) {
    wl::EnergyResult result;
    result.ticket = k + 1;
    result.energy = static_cast<double>(k + 1);
    checkpoint.undelivered.push_back(result);
  }
  std::vector<wl::EnergyRequest> pending;
  for (std::uint64_t t = 0; t < 2; ++t) {
    pending.push_back(make_request(kPendingBase + t, rng));
    checkpoint.pending.push_back(pending.back());
  }
  {
    const std::vector<std::byte> bytes = encode_session_checkpoint(checkpoint);
    std::ofstream out(checkpoint_dir + "/session-777.wlsm", std::ios::binary);
    ASSERT_TRUE(out.good());
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }

  ServeOptions options;
  options.checkpoint_dir = checkpoint_dir;
  options.send_deadline = std::chrono::milliseconds(200);
  options.client_sndbuf = 8192;  // keeps the stalled replay's buffering small
  options.limits.max_pending = 512;
  DaemonFixture fixture(options);

  // Victim: resumes the session but never reads a byte, so the replay
  // stalls against full socket buffers and trips the daemon's send deadline
  // mid-replay. The daemon must re-checkpoint the unsent remainder and the
  // pending requests — not clobber the file with a near-empty session.
  {
    comm::Socket victim = comm::connect_with_timeout(
        fixture.address(), std::chrono::milliseconds(2000));
    const int rcvbuf = 4096;
    (void)::setsockopt(victim.get(), SOL_SOCKET, SO_RCVBUF, &rcvbuf,
                       sizeof(rcvbuf));
    ServeHello hello;
    hello.tenant = "replay";
    hello.resume_session = kSession;
    hello.resume_token = kToken;
    const std::vector<std::byte> frame =
        comm::frame_bytes({kTagServeHello, encode_serve_hello(hello)});
    ASSERT_TRUE(comm::write_all(
        victim.get(), frame.data(), frame.size(),
        comm::StreamClock::now() + std::chrono::seconds(2)));
    ASSERT_TRUE(wait_for_sessions_gauge(1.0, std::chrono::seconds(5)));
    ASSERT_TRUE(wait_for_sessions_gauge(0.0, std::chrono::seconds(10)));
  }

  ClientOptions resume_options;
  resume_options.tenant = "replay";
  resume_options.resume_session = kSession;
  resume_options.resume_token = kToken;
  ServeClient resumed(fixture.address(), resume_options);
  EXPECT_TRUE(resumed.resumed());
  // The unsent tail of the replay and both pending requests survived (the
  // victim absorbed at most a bounded prefix into its kernel buffers).
  ASSERT_GE(resumed.outstanding(), 3u);
  std::size_t replayed = 0, solved = 0;
  while (resumed.outstanding() > 0) {
    const wl::EnergyResult result = resumed.retrieve();
    ASSERT_FALSE(result.failed);
    if (result.ticket >= kPendingBase) {
      EXPECT_EQ(result.energy,
                small_solver()->energy(
                    pending[result.ticket - kPendingBase].config));
      ++solved;
    } else {
      EXPECT_EQ(result.energy, static_cast<double>(result.ticket));
      ++replayed;
    }
  }
  EXPECT_EQ(solved, 2u);
  EXPECT_GT(replayed, 0u);
  remove_checkpoint_dir(checkpoint_dir);
}

TEST(ServeTcp, TenantMetricSeriesAreCappedAtMaxTenantSeries) {
  ServeOptions options;
  options.max_tenant_series = 2;
  DaemonFixture fixture(options);
  Rng rng(907);

  for (const char* tenant : {"cap-a", "cap-b", "cap-c", "cap-d"}) {
    ClientOptions client_options;
    client_options.tenant = tenant;
    ServeClient client(fixture.address(), client_options);
    const wl::EnergyRequest request = make_request(1, rng);
    client.submit(request);
    EXPECT_EQ(client.retrieve().energy,
              small_solver()->energy(request.config));
  }

  // The daemon increments .results after the socket write, so the last
  // retrieve can race the counter; wait for it to settle.
  obs::Counter& other_results =
      obs::Registry::instance().counter("serve.tenant.other.results");
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (other_results.value() < 2 && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));

  // Tenant names arrive unauthenticated, so only the first
  // max_tenant_series distinct names get their own metric series; the rest
  // fold into "other" and cannot grow the registry without bound.
  const obs::MetricsSnapshot snapshot = obs::Registry::instance().snapshot();
  EXPECT_EQ(snapshot.counters.at("serve.tenant.cap-a.sessions"), 1u);
  EXPECT_EQ(snapshot.counters.at("serve.tenant.cap-b.sessions"), 1u);
  EXPECT_EQ(snapshot.counters.count("serve.tenant.cap-c.sessions"), 0u);
  EXPECT_EQ(snapshot.counters.count("serve.tenant.cap-d.sessions"), 0u);
  EXPECT_EQ(snapshot.counters.at("serve.tenant.other.sessions"), 2u);
  EXPECT_EQ(snapshot.counters.at("serve.tenant.other.results"), 2u);
}

TEST(ServeTcp, MultiClientChaosSoakLeaksNothingAndStallsNoOne) {
  ServeOptions options;
  options.limits.max_pending = 128;
  DaemonFixture fixture(options);

  std::atomic<bool> chaos_failed{false};
  std::vector<std::thread> chaos;
  for (int c = 0; c < 3; ++c) {
    chaos.emplace_back([&fixture, &chaos_failed, c] {
      try {
        Rng rng(910 + static_cast<std::uint64_t>(c));
        for (int iteration = 0; iteration < 3; ++iteration) {
          ClientOptions client_options;
          client_options.tenant = "chaos" + std::to_string(c);
          ServeClient client(fixture.address(), client_options);
          const std::size_t n_submit = 1 + rng.uniform_index(3);
          for (std::size_t t = 0; t < n_submit; ++t)
            client.submit(make_request(t + 1, rng));
          if (rng.uniform_index(2) == 0) {
            client.abort_socket();  // vanish mid-flight
          } else {
            while (client.outstanding() > 0) (void)client.retrieve();
          }
        }
      } catch (const std::exception&) {
        chaos_failed = true;
      }
    });
  }

  // The stable tenant keeps computing correct energies throughout.
  Rng rng(909);
  ClientOptions stable_options;
  stable_options.tenant = "stable";
  {
    ServeClient stable(fixture.address(), stable_options);
    for (int round = 0; round < 3; ++round) {
      std::vector<wl::EnergyRequest> requests;
      for (std::uint64_t t = 1; t <= 4; ++t) {
        requests.push_back(make_request(t, rng));
        stable.submit(requests.back());
      }
      while (stable.outstanding() > 0) {
        const wl::EnergyResult result = stable.retrieve();
        ASSERT_FALSE(result.failed);
        EXPECT_EQ(
            result.energy,
            small_solver()->energy(requests[result.ticket - 1].config));
      }
    }
  }
  for (std::thread& t : chaos) t.join();
  EXPECT_FALSE(chaos_failed.load());

  // Every connection is gone; the daemon must not leak a single session.
  EXPECT_TRUE(wait_for_sessions_gauge(0.0, std::chrono::seconds(5)));
}


TEST(ServeTcp, HttpProbeOnStatusPortAllocatesOnlyWhatArrives) {
  // "GET " decodes as a 542,393,671-byte frame length, under the 1 GiB cap.
  // The status endpoint must grow the payload with the bytes that actually
  // arrive, not allocate the announced length before reading any of it.
  StatusServer server("127.0.0.1:0");
  struct rusage before{};
  ASSERT_EQ(::getrusage(RUSAGE_SELF, &before), 0);

  comm::Socket probe = comm::connect_with_timeout(
      server.address(), std::chrono::milliseconds(2000));
  const char request[] = "GET / HTTP/1.1\r\n\r\n";
  ASSERT_EQ(::send(probe.get(), request, sizeof(request) - 1, MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof(request) - 1));
  ASSERT_EQ(::shutdown(probe.get(), SHUT_WR), 0);
  // The server reads the short "frame", hits EOF, and closes.
  struct pollfd pfd{probe.get(), POLLIN, 0};
  ASSERT_EQ(::poll(&pfd, 1, 5000), 1) << "status server never closed";
  char sink;
  EXPECT_EQ(::recv(probe.get(), &sink, 1, 0), 0);

  struct rusage after{};
  ASSERT_EQ(::getrusage(RUSAGE_SELF, &after), 0);
  const long grown_kib = after.ru_maxrss - before.ru_maxrss;  // KiB on Linux
  EXPECT_LT(grown_kib, 64 * 1024) << "max RSS grew " << grown_kib << " KiB";
}

}  // namespace
}  // namespace wlsms::serve
