#pragma once

/// \file socket.hpp
/// The one socket layer under every TCP endpoint — the kTcp controller and
/// worker, the serve daemon and client, and the status endpoint: RAII fd
/// ownership, host:port splitting, the bind/listen and bounded-connect
/// rituals, fd flags, and the exact single-frame read every handshake uses.

#include <chrono>
#include <string>

#include "comm/framing.hpp"

namespace wlsms::comm {

/// RAII fd so every throw path closes cleanly.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  ~Socket() { close(); }

  int get() const { return fd_; }
  /// Gives up ownership: the caller now closes the fd.
  int release();
  void close();

 private:
  int fd_ = -1;
};

struct HostPort {
  std::string host;
  std::string port;
};

/// Splits "host:port" at the last colon; throws CommError when either side
/// is empty or there is no colon.
HostPort split_address(const std::string& address);

void set_nodelay(int fd);
void set_cloexec(int fd);
void set_nonblocking(int fd);

/// Binds and listens on `address` (port 0 = kernel-assigned); returns the
/// close-on-exec listener and writes the resolved host:port to
/// `bound_address`. Throws CommError on resolve/bind/listen failure.
Socket make_listener(const std::string& address, int backlog,
                     std::string& bound_address);

/// Non-blocking connect with a deadline (a black-holed address fails in
/// `timeout`, not the kernel's multi-minute SYN retry). Returns a connected
/// blocking socket with TCP_NODELAY and close-on-exec set; throws CommError
/// on failure.
Socket connect_with_timeout(const std::string& address,
                            std::chrono::milliseconds timeout);

/// Reads exactly one [u32 length][u32 tag][payload] frame — not a byte more,
/// so frames the peer queued behind it stay in the kernel buffer for the
/// next reader. `deadline` bounds every byte, not just the first, and the
/// payload grows only as bytes arrive, so a peer announcing a huge frame
/// costs memory for what it actually sends. Throws CommError on EOF, read
/// error, timeout, or a length field < 4 or > kMaxFrameBytes.
Message read_one_frame(int fd, StreamClock::time_point deadline);

}  // namespace wlsms::comm
