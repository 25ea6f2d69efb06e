#pragma once

// Child-process helpers shared by the suites that run the real `wlsms`
// binary (WLSMS_BINARY, injected by CMake) or fork workers of their own:
// spawn with captured output, wait for a line, wait for exit, and list this
// process's live children.

#include <poll.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace wlsms::test {

/// One spawned wlsms subprocess with its stdout captured through a pipe.
/// stderr stays on the test's stderr (so failures are debuggable) unless
/// the spawn merges it into the pipe. Destruction SIGKILLs and reaps a
/// child still running, stopped or not.
struct Child {
  pid_t pid = -1;
  int out = -1;
  std::string buffered;

  Child() = default;
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  ~Child() {
    if (out >= 0) ::close(out);
    if (pid > 0) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
    }
  }
};

#ifdef WLSMS_BINARY
/// Runs `wlsms args...` as `child`; with `merge_stderr` its stderr joins
/// stdout in the pipe, so the test sees both streams in write order.
inline void spawn(Child& child, const std::vector<std::string>& args,
                  bool merge_stderr = false) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::close(fds[0]);
    ::dup2(fds[1], STDOUT_FILENO);
    if (merge_stderr) ::dup2(fds[1], STDERR_FILENO);
    ::close(fds[1]);
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(WLSMS_BINARY));
    for (const std::string& arg : args)
      argv.push_back(const_cast<char*>(arg.c_str()));
    argv.push_back(nullptr);
    ::execv(WLSMS_BINARY, argv.data());
    std::perror("execv wlsms");
    ::_exit(127);
  }
  ::close(fds[1]);
  child.pid = pid;
  child.out = fds[0];
}
#endif

/// Reads the child's output until a line containing `needle` appears;
/// returns that line and keeps what follows it buffered. Fails the test on
/// timeout or EOF.
inline std::string await_line(Child& child, const std::string& needle,
                              std::chrono::seconds timeout) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point deadline = Clock::now() + timeout;
  while (Clock::now() < deadline) {
    std::size_t start = 0;
    for (std::size_t end = child.buffered.find('\n', start);
         end != std::string::npos;
         start = end + 1, end = child.buffered.find('\n', start)) {
      const std::string line = child.buffered.substr(start, end - start);
      if (line.find(needle) != std::string::npos) {
        child.buffered.erase(0, end + 1);
        return line;
      }
    }
    child.buffered.erase(0, start);

    struct pollfd pfd = {child.out, POLLIN, 0};
    if (::poll(&pfd, 1, 200) <= 0) continue;
    char chunk[4096];
    const ssize_t got = ::read(child.out, chunk, sizeof(chunk));
    if (got <= 0) break;  // EOF: fall through to the failure below
    child.buffered.append(chunk, static_cast<std::size_t>(got));
  }
  ADD_FAILURE() << "never saw '" << needle << "' in child output; got:\n"
                << child.buffered;
  return {};
}

/// Waits for exit (draining the pipe so the child never blocks on it);
/// returns the exit status, -2 for a death by signal, -1 on timeout.
inline int await_exit(Child& child, std::chrono::seconds timeout) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point deadline = Clock::now() + timeout;
  while (Clock::now() < deadline) {
    char chunk[4096];
    struct pollfd pfd = {child.out, POLLIN, 0};
    while (::poll(&pfd, 1, 0) > 0 &&
           ::read(child.out, chunk, sizeof(chunk)) > 0) {
    }
    int status = 0;
    const pid_t got = ::waitpid(child.pid, &status, WNOHANG);
    if (got == child.pid) {
      child.pid = -1;
      return WIFEXITED(status) ? WEXITSTATUS(status) : -2;
    }
    ::poll(&pfd, 1, 100);
  }
  return -1;
}

/// The text after `prefix` in `line`, up to the next space or ';'.
inline std::string address_after(const std::string& line,
                                 const std::string& prefix) {
  const std::size_t at = line.find(prefix);
  if (at == std::string::npos) return {};
  std::string rest = line.substr(at + prefix.size());
  const std::size_t cut = rest.find_first_of(" ;");
  if (cut != std::string::npos) rest.resize(cut);
  return rest;
}

/// Pids of this process's live children, from every thread's
/// /proc/self/task/<tid>/children list.
inline std::set<pid_t> child_pids() {
  std::set<pid_t> pids;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    std::ifstream children(task.path() / "children");
    pid_t pid = 0;
    while (children >> pid) pids.insert(pid);
  }
  return pids;
}

}  // namespace wlsms::test
