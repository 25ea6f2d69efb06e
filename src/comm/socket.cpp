#include "comm/socket.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

namespace wlsms::comm {

namespace {

std::string errno_text() { return std::strerror(errno); }

/// Receives between 1 and `n` bytes into `out`, waiting for readability no
/// later than `deadline`. Throws CommError on EOF, error, or timeout.
std::size_t recv_some(int fd, std::byte* out, std::size_t n,
                      StreamClock::time_point deadline) {
  while (true) {
    const ssize_t got = ::recv(fd, out, n, MSG_DONTWAIT);
    if (got > 0) return static_cast<std::size_t>(got);
    if (got == 0) throw CommError("comm: peer closed the connection");
    if (errno == EINTR) continue;
    if (errno != EAGAIN && errno != EWOULDBLOCK)
      throw CommError("comm: read failed: " + errno_text());
    const auto remaining =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            deadline - StreamClock::now());
    if (remaining.count() <= 0)
      throw CommError("comm: frame read timed out");
    struct pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, static_cast<int>(remaining.count())) < 0 &&
        errno != EINTR)
      throw CommError("comm: poll failed: " + errno_text());
  }
}

std::uint32_t get_u32_le(const std::byte* p) {
  std::uint32_t v = 0;
  for (int k = 0; k < 4; ++k) v |= static_cast<std::uint32_t>(p[k]) << (8 * k);
  return v;
}

}  // namespace

Socket::Socket(Socket&& other) noexcept : fd_(other.release()) {}

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.release();
  }
  return *this;
}

int Socket::release() {
  const int fd = fd_;
  fd_ = -1;
  return fd;
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

HostPort split_address(const std::string& address) {
  const std::size_t colon = address.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == address.size())
    throw CommError("comm: address '" + address +
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

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) (void)::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

Socket make_listener(const std::string& address, int backlog,
                     std::string& bound_address) {
  const HostPort bind_to = split_address(address);
  struct addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_PASSIVE | AI_NUMERICSERV;
  struct addrinfo* resolved = nullptr;
  const int rc = ::getaddrinfo(bind_to.host.c_str(), bind_to.port.c_str(),
                               &hints, &resolved);
  if (rc != 0)
    throw CommError("comm: cannot resolve listen address '" + address +
                    "': " + ::gai_strerror(rc));
  Socket listener(::socket(resolved->ai_family, resolved->ai_socktype, 0));
  if (listener.get() < 0) {
    ::freeaddrinfo(resolved);
    throw CommError("comm: socket failed: " + errno_text());
  }
  set_cloexec(listener.get());
  int one = 1;
  (void)::setsockopt(listener.get(), SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof(one));
  const int bind_rc =
      ::bind(listener.get(), resolved->ai_addr, resolved->ai_addrlen);
  ::freeaddrinfo(resolved);
  if (bind_rc != 0)
    throw CommError("comm: bind to '" + address +
                    "' failed: " + errno_text());
  if (::listen(listener.get(), backlog) != 0)
    throw CommError("comm: listen failed: " + errno_text());
  struct sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listener.get(),
                    reinterpret_cast<struct sockaddr*>(&bound),
                    &bound_len) != 0)
    throw CommError("comm: getsockname failed: " + errno_text());
  bound_address = bind_to.host + ":" + std::to_string(ntohs(bound.sin_port));
  return listener;
}

Socket connect_with_timeout(const std::string& address,
                            std::chrono::milliseconds timeout) {
  const HostPort target = split_address(address);
  struct addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_NUMERICSERV;
  struct addrinfo* resolved = nullptr;
  const int rc = ::getaddrinfo(target.host.c_str(), target.port.c_str(),
                               &hints, &resolved);
  if (rc != 0)
    throw CommError("comm: cannot resolve '" + address +
                    "': " + ::gai_strerror(rc));
  Socket sock;
  std::string last_error = "no addresses";
  for (struct addrinfo* ai = resolved; ai != nullptr; ai = ai->ai_next) {
    Socket candidate(::socket(ai->ai_family, ai->ai_socktype, 0));
    if (candidate.get() < 0) {
      last_error = "socket: " + errno_text();
      continue;
    }
    const int flags = ::fcntl(candidate.get(), F_GETFL, 0);
    (void)::fcntl(candidate.get(), F_SETFL, flags | O_NONBLOCK);
    const int connect_rc =
        ::connect(candidate.get(), ai->ai_addr, ai->ai_addrlen);
    if (connect_rc != 0 && errno != EINPROGRESS) {
      last_error = "connect: " + errno_text();
      continue;
    }
    if (connect_rc != 0) {
      struct pollfd pfd{candidate.get(), POLLOUT, 0};
      const int ready = ::poll(&pfd, 1, static_cast<int>(timeout.count()));
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
    // Connected: back to blocking for the caller's read loop.
    (void)::fcntl(candidate.get(), F_SETFL, flags);
    sock = std::move(candidate);
    break;
  }
  ::freeaddrinfo(resolved);
  if (sock.get() < 0)
    throw CommError("comm: cannot connect to '" + address +
                    "': " + last_error);
  set_nodelay(sock.get());
  set_cloexec(sock.get());
  return sock;
}

Message read_one_frame(int fd, StreamClock::time_point deadline) {
  std::byte header[8];
  for (std::size_t done = 0; done < sizeof(header);)
    done += recv_some(fd, header + done, sizeof(header) - done, deadline);
  const std::uint32_t length = get_u32_le(header);
  if (length < 4 || length > kMaxFrameBytes)
    throw CommError("comm: corrupt frame length " + std::to_string(length));
  Message message;
  message.tag = get_u32_le(header + 4);
  // Grow with the bytes that arrive, never to the announced length up
  // front: an HTTP probe's first four bytes decode as a ~540 MB frame.
  constexpr std::size_t kChunk = 64 * 1024;
  const std::size_t size = length - 4;
  while (message.payload.size() < size) {
    const std::size_t done = message.payload.size();
    const std::size_t want = std::min(size - done, kChunk);
    message.payload.resize(done + want);
    message.payload.resize(
        done + recv_some(fd, message.payload.data() + done, want, deadline));
  }
  return message;
}

}  // namespace wlsms::comm
