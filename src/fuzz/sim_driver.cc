#include "fuzz/sim_driver.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

namespace locktune {

namespace {

// Wall-clock ms for the kill deadline. steady_clock: the harness measures
// real elapsed time, and must be immune to clock steps.
int64_t WallNowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string ReadFileOrEmpty(const std::string& path) {
  if (path.empty()) return "";
  std::ifstream in(path);
  if (!in) return "";
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// Drains one pipe end into `out` until EOF or EWOULDBLOCK.
// Returns false on EOF.
bool DrainPipe(int fd, std::string* out) {
  char buf[4096];
  for (;;) {
    const ssize_t n = read(fd, buf, sizeof(buf));
    if (n > 0) {
      out->append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) return false;  // EOF
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    if (errno == EINTR) continue;
    return false;  // read error: treat as EOF
  }
}

}  // namespace

SimRunResult RunSim(const SimRunRequest& request) {
  SimRunResult result;

  int out_pipe[2] = {-1, -1};
  int err_pipe[2] = {-1, -1};
  if (pipe(out_pipe) != 0) return result;
  if (pipe(err_pipe) != 0) {
    close(out_pipe[0]);
    close(out_pipe[1]);
    return result;
  }

  std::vector<std::string> args;
  args.push_back(request.sim_binary);
  args.push_back(request.conf_path);
  if (request.tick_watchdog_ms > 0) {
    args.push_back("--tick-watchdog-ms");
    args.push_back(std::to_string(request.tick_watchdog_ms));
  }
  if (!request.metrics_path.empty()) {
    args.push_back("--metrics-out");
    args.push_back(request.metrics_path);
  }
  if (!request.trace_path.empty()) {
    args.push_back("--trace-out");
    args.push_back(request.trace_path);
  }

  const pid_t pid = fork();
  if (pid < 0) {
    close(out_pipe[0]);
    close(out_pipe[1]);
    close(err_pipe[0]);
    close(err_pipe[1]);
    return result;
  }

  if (pid == 0) {
    // Child. Route stdout/stderr through the pipes, apply the run
    // environment, exec the simulator. Only async-signal-safe calls plus
    // the unavoidable argv marshalling before exec.
    dup2(out_pipe[1], STDOUT_FILENO);
    dup2(err_pipe[1], STDERR_FILENO);
    close(out_pipe[0]);
    close(out_pipe[1]);
    close(err_pipe[0]);
    close(err_pipe[1]);
    if (request.paranoid) setenv("LOCKTUNE_PARANOID", "1", 1);
    for (const auto& [key, value] : request.extra_env) {
      setenv(key.c_str(), value.c_str(), 1);
    }
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (const std::string& a : args) {
      argv.push_back(const_cast<char*>(a.c_str()));
    }
    argv.push_back(nullptr);
    execv(argv[0], argv.data());
    // exec failed: report on the (redirected) stderr and die with a
    // distinctive code the parent maps to started = false.
    std::fprintf(stderr, "locktune_fuzz: cannot exec %s: %s\n",
                 argv[0], std::strerror(errno));
    _exit(127);
  }

  // Parent: non-blocking drains of both pipes under a wall-clock deadline.
  close(out_pipe[1]);
  close(err_pipe[1]);
  fcntl(out_pipe[0], F_SETFL, O_NONBLOCK);
  fcntl(err_pipe[0], F_SETFL, O_NONBLOCK);

  const int64_t deadline_ms = WallNowMs() + request.timeout_ms;
  bool out_open = true;
  bool err_open = true;
  while (out_open || err_open) {
    struct pollfd fds[2];
    nfds_t nfds = 0;
    if (out_open) fds[nfds++] = {out_pipe[0], POLLIN, 0};
    if (err_open) fds[nfds++] = {err_pipe[0], POLLIN, 0};
    const int64_t budget = deadline_ms - WallNowMs();
    if (budget <= 0) {
      result.timed_out = true;
      kill(pid, SIGKILL);
      break;
    }
    const int rc =
        poll(fds, nfds, static_cast<int>(std::min<int64_t>(budget, 200)));
    if (rc < 0 && errno != EINTR) break;
    if (out_open) out_open = DrainPipe(out_pipe[0], &result.stdout_text);
    if (err_open) err_open = DrainPipe(err_pipe[0], &result.stderr_text);
  }
  // Final drain after kill/EOF so buffered output is not lost.
  DrainPipe(out_pipe[0], &result.stdout_text);
  DrainPipe(err_pipe[0], &result.stderr_text);
  close(out_pipe[0]);
  close(err_pipe[0]);

  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (WIFEXITED(status)) {
    result.exit_code = WEXITSTATUS(status);
    result.started = result.exit_code != 127;
  } else if (WIFSIGNALED(status)) {
    result.started = true;
    result.term_signal = WTERMSIG(status);
  }

  result.metrics_text = ReadFileOrEmpty(request.metrics_path);
  return result;
}

}  // namespace locktune
