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
#include <csignal>
#include <cstdio>
#include <cstring>

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "comm/framing.hpp"
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

struct HostPort {
  std::string host;
  std::string port;
};

HostPort split_address(const std::string& address) {
  const std::size_t colon = address.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 == address.size())
    throw CommError("tcp: address '" + address +
                    "' is not of the form host:port");
  return {address.substr(0, colon), address.substr(colon + 1)};
}

void set_nodelay(int fd) {
  int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

void set_cloexec(int fd) {
  const int flags = ::fcntl(fd, F_GETFD, 0);
  if (flags >= 0) (void)::fcntl(fd, F_SETFD, flags | FD_CLOEXEC);
}

/// RAII socket so every throw path closes cleanly.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept {
    if (this != &other) {
      close();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  ~Socket() { close(); }

  int get() const { return fd_; }
  int release() {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }
  void close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

 private:
  int fd_ = -1;
};

/// Reads one complete frame from `fd` within `deadline`; nullopt on EOF,
/// error, timeout, or a corrupt length (the assembler throw is mapped to
/// nullopt — a handshake failure, not a controller crash). May consume
/// bytes PAST the frame it returns — controller-side use only, where the
/// worker is guaranteed silent between its hello and our welcome.
std::optional<Message> read_frame_with_deadline(
    int fd, StreamClock::time_point deadline) {
  FrameAssembler assembler;
  Message message;
  char chunk[4096];
  while (true) {
    try {
      if (assembler.pop(message)) return message;
    } catch (const CommError&) {
      return std::nullopt;
    }
    const auto remaining =
        std::chrono::duration_cast<milliseconds>(deadline -
                                                 StreamClock::now());
    if (remaining.count() <= 0) return std::nullopt;
    struct pollfd pfd{fd, POLLIN, 0};
    const int ready =
        ::poll(&pfd, 1, static_cast<int>(remaining.count()));
    if (ready < 0) {
      if (errno == EINTR) continue;
      return std::nullopt;
    }
    if (ready == 0) return std::nullopt;
    const ssize_t got = ::recv(fd, chunk, sizeof(chunk), 0);
    if (got > 0) {
      assembler.push(chunk, static_cast<std::size_t>(got));
      continue;
    }
    if (got < 0 && (errno == EINTR || errno == EAGAIN ||
                    errno == EWOULDBLOCK))
      continue;
    return std::nullopt;  // EOF or hard error
  }
}

/// Reads exactly one frame — header then payload, nothing more — so bytes
/// that follow it stay in the kernel buffer. The worker MUST use this for
/// the welcome: the controller's first coalesced batch (heartbeat + first
/// scatter) can already be queued behind it, and a greedy read would
/// silently swallow frames that belong to the StreamWorkerChannel.
std::optional<Message> read_one_frame_exact(int fd,
                                            StreamClock::time_point deadline) {
  while (true) {
    const auto remaining =
        std::chrono::duration_cast<milliseconds>(deadline -
                                                 StreamClock::now());
    if (remaining.count() <= 0) return std::nullopt;
    struct pollfd pfd{fd, POLLIN, 0};
    const int ready =
        ::poll(&pfd, 1, static_cast<int>(remaining.count()));
    if (ready < 0) {
      if (errno == EINTR) continue;
      return std::nullopt;
    }
    if (ready == 0) return std::nullopt;
    break;
  }
  std::uint32_t header[2];
  if (!read_all(fd, header, sizeof(header))) return std::nullopt;
  const std::uint32_t length = header[0];
  if (length < 4 || length > kMaxFrameBytes) return std::nullopt;
  Message message;
  message.tag = header[1];
  message.payload.resize(length - 4);
  if (!message.payload.empty() &&
      !read_all(fd, message.payload.data(), message.payload.size()))
    return std::nullopt;
  return message;
}

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

// ---------------------------------------------------------------------------
// Controller side.

class TcpCommunicator final : public StreamCommunicatorBase {
 public:
  TcpCommunicator(std::size_t n_ranks, const WorkerMain& worker_main,
                  const TcpOptions& options);
  ~TcpCommunicator() override { shutdown(); }

  void kill(std::size_t rank) override;
  void shutdown() override;

 private:
  /// Pid of rank r's locally spawned worker, or -1 (external / reaped).
  std::vector<pid_t> pids_;
};

TcpCommunicator::TcpCommunicator(std::size_t n_ranks,
                                 const WorkerMain& worker_main,
                                 const TcpOptions& options)
    : StreamCommunicatorBase(options.stream) {
  WLSMS_EXPECTS(n_ranks >= 1);
  if (options.spawn_workers) WLSMS_EXPECTS(worker_main != nullptr);

  const HostPort bind_to = split_address(options.listen);

  // Bind + listen before anything can try to connect.
  struct addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_PASSIVE | AI_NUMERICSERV;
  struct addrinfo* resolved = nullptr;
  const int rc = ::getaddrinfo(bind_to.host.c_str(), bind_to.port.c_str(),
                               &hints, &resolved);
  if (rc != 0)
    throw CommError("tcp: cannot resolve listen address '" + options.listen +
                    "': " + ::gai_strerror(rc));
  Socket listener(::socket(resolved->ai_family, resolved->ai_socktype, 0));
  if (listener.get() < 0) {
    ::freeaddrinfo(resolved);
    throw CommError(std::string("tcp: socket failed: ") +
                    std::strerror(errno));
  }
  set_cloexec(listener.get());
  int one = 1;
  (void)::setsockopt(listener.get(), SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof(one));
  const int bind_rc =
      ::bind(listener.get(), resolved->ai_addr, resolved->ai_addrlen);
  ::freeaddrinfo(resolved);
  if (bind_rc != 0)
    throw CommError("tcp: bind to '" + options.listen +
                    "' failed: " + std::strerror(errno));
  if (::listen(listener.get(), static_cast<int>(n_ranks) + 8) != 0)
    throw CommError(std::string("tcp: listen failed: ") +
                    std::strerror(errno));

  // Resolve the ephemeral port the kernel picked.
  struct sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listener.get(),
                    reinterpret_cast<struct sockaddr*>(&bound),
                    &bound_len) != 0)
    throw CommError(std::string("tcp: getsockname failed: ") +
                    std::strerror(errno));
  const std::uint16_t port = ntohs(bound.sin_port);
  const std::string bound_address =
      bind_to.host + ":" + std::to_string(port);
  log_debug("comm: tcp controller listening on ", bound_address, " for ",
            n_ranks, " workers");
  if (options.on_listening) options.on_listening(bound_address);

  pids_.assign(n_ranks, -1);
  // Ranks are numbered in accept order, and forked workers may connect in
  // any order. Each one writes (rank, pid) to this pipe once welcomed, so
  // pids_ can be put in rank order and kill(r) signals rank r's process.
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
        "127.0.0.1:" + std::to_string(port);
    std::fflush(nullptr);
    for (std::size_t r = 0; r < n_ranks; ++r) {
      const pid_t pid = ::fork();
      if (pid < 0)
        throw CommError(std::string("tcp: fork failed: ") +
                        std::strerror(errno));
      if (pid == 0) {
        listener.close();
        report_read.close();
        const int report_fd = report_write.get();
        const WorkerMain reporting_main = [&](WorkerChannel& channel) {
          // One 16-byte write: atomic on a pipe, so reports never interleave.
          const std::uint64_t entry[2] = {
              channel.rank(), static_cast<std::uint64_t>(::getpid())};
          [[maybe_unused]] const ssize_t written =
              ::write(report_fd, entry, sizeof(entry));
          ::close(report_fd);
          worker_main(channel);
        };
        int status = 0;
        try {
          (void)run_tcp_worker(connect_address, reporting_main,
                               options.connect_timeout);
        } catch (...) {
          status = 1;
        }
        ::_exit(status);
      }
      pids_[r] = pid;
    }
    report_write.close();
  }

  // Accept until the group is complete. A connection that fails the
  // handshake is closed and does not consume a rank slot.
  const StreamClock::time_point accept_deadline =
      StreamClock::now() + options.accept_timeout;
  std::size_t accepted = 0;
  while (accepted < n_ranks) {
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

    // Validate the hello before the connection becomes a rank.
    const std::optional<Message> hello = read_frame_with_deadline(
        conn.get(), StreamClock::now() + kHandshakeTimeout);
    const std::uint64_t t1_us = obs::trace_now_us();
    if (!hello || hello->tag != kTagHello) {
      log_warn("comm: tcp connection rejected (no valid hello frame)");
      continue;
    }
    try {
      serial::Decoder decoder(hello->payload);
      serial::read_header(decoder, serial::PayloadKind::kTcpHello);
      (void)decoder.get_u64();  // worker trace node
      (void)decoder.get_u64();  // t0: the worker keeps its own copy
      decoder.expect_end();
    } catch (const serial::SerializationError& error) {
      log_warn("comm: tcp connection rejected (bad hello: ", error.what(),
               ")");
      continue;
    }
    const std::vector<std::byte> welcome = frame_bytes(
        Message{kTagWelcome, welcome_payload(accepted, n_ranks, t1_us)});
    if (!write_all(conn.get(), welcome.data(), welcome.size(),
                   StreamClock::now() + kHandshakeTimeout)) {
      log_warn("comm: tcp connection rejected (welcome write failed)");
      continue;
    }
    log_debug("comm: tcp worker accepted as rank ", accepted);
    add_peer(conn.release());
    ++accepted;
  }
  if (accepted < n_ranks) {
    close_all_peers();
    reap_children(pids_, milliseconds{100});
    throw CommError("tcp: only " + std::to_string(accepted) + " of " +
                    std::to_string(n_ranks) +
                    " workers joined within the accept timeout");
  }
  if (options.spawn_workers) {
    // Every rank has been welcomed, so the reports are on their way; a
    // worker that died first never writes, and its pid takes a free slot
    // so shutdown still reaps it.
    std::vector<pid_t> by_rank(n_ranks, -1);
    for (std::size_t k = 0; k < n_ranks; ++k) {
      std::uint64_t entry[2];
      struct pollfd pfd{report_read.get(), POLLIN, 0};
      if (::poll(&pfd, 1, static_cast<int>(kHandshakeTimeout.count())) <= 0 ||
          ::read(report_read.get(), entry, sizeof(entry)) !=
              static_cast<ssize_t>(sizeof(entry)))
        break;
      const auto pid = static_cast<pid_t>(entry[1]);
      if (entry[0] < n_ranks && by_rank[entry[0]] < 0 &&
          std::find(pids_.begin(), pids_.end(), pid) != pids_.end())
        by_rank[entry[0]] = pid;
    }
    for (pid_t pid : pids_)
      if (std::find(by_rank.begin(), by_rank.end(), pid) == by_rank.end())
        *std::find(by_rank.begin(), by_rank.end(), pid_t{-1}) = pid;
    pids_ = std::move(by_rank);
  }
  // Group membership is fixed at construction; stop accepting.
}

void TcpCommunicator::kill(std::size_t rank) {
  WLSMS_EXPECTS(rank < n_ranks());
  if (alive(rank))
    log_debug("comm: tcp kill rank ", rank,
              pids_[rank] >= 0 ? " (SIGKILL local worker)"
                               : " (closing connection)");
  if (pids_[rank] >= 0) {
    ::kill(pids_[rank], SIGKILL);
    (void)::waitpid(pids_[rank], nullptr, 0);
    pids_[rank] = -1;
  }
  // External workers see EOF on the close and exit on their own.
  mark_dead(rank);
}

void TcpCommunicator::shutdown() {
  if (shutting_down()) return;
  begin_shutdown();
  close_all_peers();
  reap_children(pids_, stream_options().shutdown_grace);
}

}  // namespace

std::unique_ptr<Communicator> make_tcp_communicator(std::size_t n_ranks,
                                                    WorkerMain worker_main,
                                                    const TcpOptions& options) {
  return std::make_unique<TcpCommunicator>(n_ranks, worker_main, options);
}

// ---------------------------------------------------------------------------
// Worker side.

std::size_t run_tcp_worker(const std::string& address,
                           const WorkerMain& worker_main,
                           std::chrono::milliseconds connect_timeout) {
  WLSMS_EXPECTS(worker_main != nullptr);
  const HostPort target = split_address(address);

  struct addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_NUMERICSERV;
  struct addrinfo* resolved = nullptr;
  const int rc = ::getaddrinfo(target.host.c_str(), target.port.c_str(),
                               &hints, &resolved);
  if (rc != 0)
    throw CommError("tcp: cannot resolve '" + address +
                    "': " + ::gai_strerror(rc));

  // Non-blocking connect with a deadline: a black-holed controller address
  // fails in connect_timeout, not the kernel's multi-minute SYN retry.
  Socket sock;
  std::string last_error = "no addresses";
  for (struct addrinfo* ai = resolved; ai != nullptr; ai = ai->ai_next) {
    Socket candidate(::socket(ai->ai_family, ai->ai_socktype, 0));
    if (candidate.get() < 0) {
      last_error = std::string("socket: ") + std::strerror(errno);
      continue;
    }
    const int flags = ::fcntl(candidate.get(), F_GETFL, 0);
    (void)::fcntl(candidate.get(), F_SETFL, flags | O_NONBLOCK);
    const int connect_rc =
        ::connect(candidate.get(), ai->ai_addr, ai->ai_addrlen);
    if (connect_rc != 0 && errno != EINPROGRESS) {
      last_error = std::string("connect: ") + std::strerror(errno);
      continue;
    }
    if (connect_rc != 0) {
      struct pollfd pfd{candidate.get(), POLLOUT, 0};
      const int ready = ::poll(&pfd, 1,
                               static_cast<int>(connect_timeout.count()));
      if (ready <= 0) {
        last_error = "connect timed out";
        continue;
      }
      int so_error = 0;
      socklen_t len = sizeof(so_error);
      (void)::getsockopt(candidate.get(), SOL_SOCKET, SO_ERROR, &so_error,
                         &len);
      if (so_error != 0) {
        last_error = std::string("connect: ") + std::strerror(so_error);
        continue;
      }
    }
    // Connected: back to blocking for the worker's read loop.
    (void)::fcntl(candidate.get(), F_SETFL, flags);
    sock = std::move(candidate);
    break;
  }
  ::freeaddrinfo(resolved);
  if (sock.get() < 0)
    throw CommError("tcp: cannot connect to '" + address +
                    "': " + last_error);
  set_nodelay(sock.get());
  set_cloexec(sock.get());

  // Handshake: hello out, welcome (rank assignment) back. The welcome also
  // closes the four-timestamp clock probe opened by the hello, giving this
  // worker its offset to the controller clock before any spans are emitted.
  const std::uint64_t t0_us = obs::trace_now_us();
  const std::vector<std::byte> hello =
      frame_bytes(Message{kTagHello, hello_payload(t0_us)});
  if (!write_all(sock.get(), hello.data(), hello.size(),
                 StreamClock::now() + kHandshakeTimeout))
    throw CommError("tcp: handshake hello to '" + address + "' failed");
  const std::optional<Message> welcome = read_one_frame_exact(
      sock.get(), StreamClock::now() + kHandshakeTimeout);
  const std::uint64_t t3_us = obs::trace_now_us();
  if (!welcome || welcome->tag != kTagWelcome)
    throw CommError("tcp: no welcome from controller at '" + address + "'");
  std::uint64_t rank = 0;
  try {
    serial::Decoder decoder(welcome->payload);
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
