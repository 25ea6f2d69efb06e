// TCP Communicator: the multi-node transport. The controller binds a
// listening socket, workers dial in — from other nodes via `wlsms worker
// --connect host:port`, or (for loopback tests and single-host runs) as
// fork()ed local children — and each connection becomes one rank after a
// magic/version handshake framed in the shared WLSM serial schema. From
// then on the stream is indistinguishable from the socketpair transport:
// the same [u32 length][u32 tag] frames, coalesced controller writes,
// bounded send deadlines, idle heartbeats both ways, and EOF/ECONNRESET
// death detection feeding alive()/millis_since_heard (comm/framing).
//
// Handshake (before any framing trust is extended):
//   worker -> controller   frame{kTagHello,   WLSM header kTcpHello +
//                                             u64 trace_node + u64 t0}
//   controller -> worker   frame{kTagWelcome, WLSM header kTcpWelcome +
//                                             u64 rank + u64 n_ranks +
//                                             u64 trace_node + u64 t1 +
//                                             u64 t2}
// The trace_node/t0..t2 fields double the handshake as an NTP-style clock
// probe: the worker samples t3 at welcome receipt and records its offset to
// the controller clock (obs::set_clock_offset + comm.clock_offset_us), so
// its trace file can be merged into the controller's timebase.
// A connection that sends anything else — wrong magic, wrong schema
// version, garbage, or nothing within the per-connection window — is
// closed and never occupies a rank slot; the controller keeps accepting
// until the group is complete or options.accept_timeout expires.

#include <algorithm>
#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "comm/framing.hpp"
#include "comm/socket.hpp"
#include "common/error.hpp"
#include "common/logging.hpp"
#include "common/serial.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace wlsms::comm {

namespace {

using std::chrono::milliseconds;

/// Per-connection handshake window: generous for a WAN round-trip, small
/// enough that a garbage connection cannot stall group formation.
constexpr milliseconds kHandshakeTimeout{2000};

std::vector<std::byte> hello_payload(std::uint64_t t0_us) {
  serial::Encoder encoder;
  serial::write_header(encoder, serial::PayloadKind::kTcpHello);
  encoder.put_u64(obs::local_trace_node());
  encoder.put_u64(t0_us);  // worker clock at hello send
  return encoder.take();
}

std::vector<std::byte> welcome_payload(std::uint64_t rank,
                                       std::uint64_t n_ranks,
                                       std::uint64_t t1_us) {
  serial::Encoder encoder;
  serial::write_header(encoder, serial::PayloadKind::kTcpWelcome);
  encoder.put_u64(rank);
  encoder.put_u64(n_ranks);
  encoder.put_u64(obs::local_trace_node());
  encoder.put_u64(t1_us);                // controller clock at hello receipt
  encoder.put_u64(obs::trace_now_us());  // t2: controller clock at send
  return encoder.take();
}

/// Reads and validates a connection's hello, then welcomes it as `rank`.
/// Throws (CommError / SerializationError) when the connection is not a
/// worker speaking this protocol version.
void welcome_worker(int fd, std::size_t rank, std::size_t n_ranks) {
  const Message hello =
      read_one_frame(fd, StreamClock::now() + kHandshakeTimeout);
  const std::uint64_t t1_us = obs::trace_now_us();
  if (hello.tag != kTagHello) throw CommError("not a hello frame");
  serial::Decoder decoder(hello.payload);
  serial::read_header(decoder, serial::PayloadKind::kTcpHello);
  (void)decoder.get_u64();  // worker trace node
  (void)decoder.get_u64();  // t0: the worker keeps its own copy
  decoder.expect_end();
  const std::vector<std::byte> welcome =
      frame_bytes(Message{kTagWelcome, welcome_payload(rank, n_ranks, t1_us)});
  if (!write_all(fd, welcome.data(), welcome.size(),
                 StreamClock::now() + kHandshakeTimeout))
    throw CommError("welcome write failed");
}

}  // namespace

// ---------------------------------------------------------------------------
// Controller side.

std::unique_ptr<Communicator> make_tcp_communicator(std::size_t n_ranks,
                                                    WorkerMain worker_main,
                                                    const TcpOptions& options) {
  WLSMS_EXPECTS(n_ranks >= 1);
  if (options.spawn_workers) WLSMS_EXPECTS(worker_main != nullptr);

  // Bind + listen before anything can try to connect.
  std::string bound_address;
  Socket listener = make_listener(
      options.listen, static_cast<int>(n_ranks) + 8, bound_address);
  log_debug("comm: tcp controller listening on ", bound_address, " for ",
            n_ranks, " workers");
  if (options.on_listening) options.on_listening(bound_address);

  std::vector<int> fds;  // accepted connections, in rank order
  std::vector<pid_t> pids;
  fds.reserve(n_ranks);
  pids.reserve(n_ranks);
  try {
    // Ranks are numbered in accept order, and forked workers may connect
    // in any order. Each one writes (rank, pid) to this pipe once welcomed,
    // so pids can be put in rank order and kill(r) signals rank r's process.
    Socket report_read, report_write;
    if (options.spawn_workers) {
      int report[2];
      if (::pipe2(report, O_CLOEXEC) != 0)
        throw CommError(std::string("tcp: pipe failed: ") +
                        std::strerror(errno));
      report_read = Socket(report[0]);
      report_write = Socket(report[1]);
      // Loopback workers, forked exactly like the kProcess transport (same
      // copy-on-write solver reuse, same _exit discipline) but connected
      // through the real listener so the full accept/handshake path runs.
      const std::string connect_address =
          "127.0.0.1:" + split_address(bound_address).port;
      for (std::size_t r = 0; r < n_ranks; ++r)
        pids.push_back(fork_worker([&] {
          listener.close();
          report_read.close();
          const int report_fd = report_write.get();
          const WorkerMain reporting_main = [&](WorkerChannel& channel) {
            // One 16-byte write: atomic on a pipe, so reports never
            // interleave.
            const std::uint64_t entry[2] = {
                channel.rank(), static_cast<std::uint64_t>(::getpid())};
            [[maybe_unused]] const ssize_t written =
                ::write(report_fd, entry, sizeof(entry));
            ::close(report_fd);
            worker_main(channel);
          };
          (void)run_tcp_worker(connect_address, reporting_main,
                               options.connect_timeout);
        }));
      report_write.close();
    }

    // Accept until the group is complete. A connection that fails the
    // handshake is closed and does not consume a rank slot.
    const StreamClock::time_point accept_deadline =
        StreamClock::now() + options.accept_timeout;
    while (fds.size() < n_ranks) {
      const auto remaining = std::chrono::duration_cast<milliseconds>(
          accept_deadline - StreamClock::now());
      if (remaining.count() <= 0) break;
      struct pollfd pfd{listener.get(), POLLIN, 0};
      const int ready =
          ::poll(&pfd, 1, static_cast<int>(remaining.count()));
      if (ready < 0) {
        if (errno == EINTR) continue;
        throw CommError(std::string("tcp: poll on listener failed: ") +
                        std::strerror(errno));
      }
      if (ready == 0) break;  // deadline
      Socket conn(::accept(listener.get(), nullptr, nullptr));
      if (conn.get() < 0) {
        if (errno == EINTR || errno == ECONNABORTED) continue;
        throw CommError(std::string("tcp: accept failed: ") +
                        std::strerror(errno));
      }
      set_nodelay(conn.get());
      set_cloexec(conn.get());
      try {
        welcome_worker(conn.get(), fds.size(), n_ranks);
      } catch (const Error& error) {
        log_warn("comm: tcp connection rejected (", error.what(), ")");
        continue;
      }
      log_debug("comm: tcp worker accepted as rank ", fds.size());
      fds.push_back(conn.release());
    }
    if (fds.size() < n_ranks)
      throw CommError("tcp: only " + std::to_string(fds.size()) + " of " +
                      std::to_string(n_ranks) +
                      " workers joined within the accept timeout");
    if (options.spawn_workers) {
      // Every rank has been welcomed, so the reports are on their way; a
      // worker that died first never writes, and its pid takes a free slot
      // so shutdown still reaps it.
      std::vector<pid_t> by_rank(n_ranks, -1);
      for (std::size_t k = 0; k < n_ranks; ++k) {
        std::uint64_t entry[2];
        struct pollfd pfd{report_read.get(), POLLIN, 0};
        const int wait_ms = static_cast<int>(kHandshakeTimeout.count());
        if (::poll(&pfd, 1, wait_ms) <= 0 ||
            ::read(report_read.get(), entry, sizeof(entry)) !=
                static_cast<ssize_t>(sizeof(entry)))
          break;
        const auto pid = static_cast<pid_t>(entry[1]);
        if (entry[0] < n_ranks && by_rank[entry[0]] < 0 &&
            std::find(pids.begin(), pids.end(), pid) != pids.end())
          by_rank[entry[0]] = pid;
      }
      for (pid_t pid : pids)
        if (std::find(by_rank.begin(), by_rank.end(), pid) == by_rank.end())
          *std::find(by_rank.begin(), by_rank.end(), pid_t{-1}) = pid;
      pids = std::move(by_rank);
    } else {
      pids.assign(n_ranks, -1);
    }
  } catch (...) {
    listener.close();  // connecting workers are refused and exit
    abandon_ranks(fds, pids);
    throw;
  }
  // Group membership is fixed at construction; the listener closes here.
  return std::make_unique<StreamCommunicator>(options.stream, std::move(fds),
                                              std::move(pids));
}

// ---------------------------------------------------------------------------
// Worker side.

std::size_t run_tcp_worker(const std::string& address,
                           const WorkerMain& worker_main,
                           std::chrono::milliseconds connect_timeout) {
  WLSMS_EXPECTS(worker_main != nullptr);
  Socket sock = connect_with_timeout(address, connect_timeout);

  // Handshake: hello out, welcome (rank assignment) back. The welcome also
  // closes the four-timestamp clock probe opened by the hello, giving this
  // worker its offset to the controller clock before any spans are emitted.
  const std::uint64_t t0_us = obs::trace_now_us();
  const std::vector<std::byte> hello =
      frame_bytes(Message{kTagHello, hello_payload(t0_us)});
  if (!write_all(sock.get(), hello.data(), hello.size(),
                 StreamClock::now() + kHandshakeTimeout))
    throw CommError("tcp: handshake hello to '" + address + "' failed");
  // Exactly one frame: the controller's first coalesced batch (heartbeat +
  // first scatter) can already be queued behind the welcome, and those
  // frames belong to the StreamWorkerChannel.
  Message welcome;
  try {
    welcome =
        read_one_frame(sock.get(), StreamClock::now() + kHandshakeTimeout);
  } catch (const CommError& error) {
    throw CommError("tcp: no welcome from controller at '" + address +
                    "': " + error.what());
  }
  const std::uint64_t t3_us = obs::trace_now_us();
  if (welcome.tag != kTagWelcome)
    throw CommError("tcp: no welcome from controller at '" + address + "'");
  std::uint64_t rank = 0;
  try {
    serial::Decoder decoder(welcome.payload);
    serial::read_header(decoder, serial::PayloadKind::kTcpWelcome);
    rank = decoder.get_u64();
    (void)decoder.get_u64();  // n_ranks; informational
    const std::uint64_t controller_node = decoder.get_u64();
    const std::uint64_t t1_us = decoder.get_u64();
    const std::uint64_t t2_us = decoder.get_u64();
    decoder.expect_end();
    const double offset_us =
        ((static_cast<double>(t1_us) - static_cast<double>(t0_us)) +
         (static_cast<double>(t2_us) - static_cast<double>(t3_us))) /
        2.0;
    obs::set_clock_offset(offset_us, controller_node);
    obs::Registry::instance()
        .gauge("comm.clock_offset_us")
        .set(offset_us);
  } catch (const serial::SerializationError& error) {
    throw CommError(std::string("tcp: malformed welcome: ") + error.what());
  }

  StreamWorkerChannel channel(sock.get(), static_cast<std::size_t>(rank));
  worker_main(channel);
  return static_cast<std::size_t>(rank);
}

}  // namespace wlsms::comm
