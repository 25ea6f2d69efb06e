// Multi-process Communicator: each rank is a fork()ed child of the
// controller process, connected by a SOCK_STREAM UNIX-domain socketpair.
// Everything past fd creation — frame codec, coalesced controller writes,
// bounded send deadlines, the poll/drain loop, SIGKILL and reaping — is the
// shared StreamCommunicator (comm/framing); this file only makes the
// socketpairs and forks the children.
//
// Liveness is real here: a SIGKILLed or crashed child closes its socket,
// the controller's poll() sees EOF, and alive() flips — the hard-death
// half of the failure detector. Children heartbeat every
// kHeartbeatInterval while idle so millis_since_heard covers the wedged
// case too.
//
// Fork discipline: children are forked before any request traffic, inherit
// the parent's address space copy-on-write (so a pre-built LsmsSolver is
// usable as-is), never touch OpenMP or in-process thread pools, and leave
// via _exit so no parent-side atexit/static destructors run twice.

#include <cerrno>
#include <cstring>

#include <sys/socket.h>
#include <unistd.h>

#include "comm/framing.hpp"
#include "common/error.hpp"

namespace wlsms::comm {

std::unique_ptr<Communicator> make_process_communicator(
    std::size_t n_ranks, WorkerMain worker_main) {
  return make_process_communicator(n_ranks, std::move(worker_main),
                                   StreamOptions{});
}

std::unique_ptr<Communicator> make_process_communicator(
    std::size_t n_ranks, WorkerMain worker_main,
    const StreamOptions& options) {
  WLSMS_EXPECTS(n_ranks >= 1);
  WLSMS_EXPECTS(worker_main != nullptr);

  // All socketpairs exist before the first fork, so every child can close
  // every descriptor that is not its own.
  std::vector<int> parent_fd, child_fd;
  std::vector<pid_t> pids;
  parent_fd.reserve(n_ranks);
  child_fd.reserve(n_ranks);
  pids.reserve(n_ranks);
  try {
    for (std::size_t r = 0; r < n_ranks; ++r) {
      int fds[2];
      if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0)
        throw CommError(std::string("socketpair failed: ") +
                        std::strerror(errno));
      parent_fd.push_back(fds[0]);
      child_fd.push_back(fds[1]);
    }
    for (std::size_t r = 0; r < n_ranks; ++r)
      pids.push_back(fork_worker([&] {
        // Keep only our own endpoint, then run the worker.
        for (std::size_t k = 0; k < n_ranks; ++k) {
          if (k != r) ::close(child_fd[k]);
          ::close(parent_fd[k]);
        }
        StreamWorkerChannel channel(child_fd[r], r);
        worker_main(channel);
      }));
  } catch (...) {
    for (int fd : child_fd) ::close(fd);
    abandon_ranks(parent_fd, pids);
    throw;
  }
  for (int fd : child_fd) ::close(fd);
  return std::make_unique<StreamCommunicator>(options, std::move(parent_fd),
                                              std::move(pids));
}

}  // namespace wlsms::comm
