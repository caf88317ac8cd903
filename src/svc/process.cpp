#include "svc/process.h"

#include <stdexcept>
#include <utility>

#ifndef _WIN32
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>
#endif
#ifdef __linux__
#include <sys/prctl.h>
#endif

namespace nada::svc {

std::string ExitStatus::describe() const {
  switch (kind) {
    case Kind::kRunning: return "running";
    case Kind::kExited: return "exit " + std::to_string(exit_code);
    case Kind::kSignaled: return "signal " + std::to_string(signal);
  }
  return "unknown";
}

ChildProcess::ChildProcess(ChildProcess&& other) noexcept
    : pid_(other.pid_), last_(other.last_), reaped_(other.reaped_) {
  other.pid_ = -1;
  other.reaped_ = false;
}

ChildProcess& ChildProcess::operator=(ChildProcess&& other) noexcept {
  if (this != &other) {
    pid_ = other.pid_;
    last_ = other.last_;
    reaped_ = other.reaped_;
    other.pid_ = -1;
    other.reaped_ = false;
  }
  return *this;
}

#ifndef _WIN32

ChildProcess ChildProcess::spawn(const std::vector<std::string>& argv) {
  if (argv.empty()) {
    throw std::invalid_argument("ChildProcess::spawn: empty argv");
  }
  std::vector<char*> raw;
  raw.reserve(argv.size() + 1);
  for (const auto& arg : argv) raw.push_back(const_cast<char*>(arg.c_str()));
  raw.push_back(nullptr);

  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    throw std::runtime_error("ChildProcess::spawn: fork failed for " +
                             argv[0]);
  }
  if (pid == 0) {
    // Lead a process group of our own, so terminate() reaches everything
    // the command starts (a wrapper script's payload included).
    ::setpgid(0, 0);
#ifdef __linux__
    // Outside the parent's group, a SIGKILL aimed at that group (a
    // timeout killing the whole driver) no longer reaches us: die with
    // the parent instead. The getppid check closes the race with a parent
    // that died before prctl ran.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
#endif
    ::execvp(raw[0], raw.data());
    // exec failed (missing binary, permissions). _exit, never return into
    // the parent's state: flushing its stdio or running its atexit hooks
    // from the forked child would corrupt both.
    ::_exit(127);
  }
  // The parent makes the same call, so the group exists before spawn()
  // returns and a terminate() can never race the child's own setpgid.
  // Failure here means the child already did it (or already exec'd).
  (void)::setpgid(pid, pid);
  ChildProcess child;
  child.pid_ = pid;
  return child;
}

ExitStatus ChildProcess::wait_impl(bool block) {
  if (reaped_ || !valid()) return last_;
  int status = 0;
  const pid_t r = ::waitpid(pid_, &status, block ? 0 : WNOHANG);
  if (r == 0) return ExitStatus{};  // still running
  if (r < 0) {
    // ECHILD or similar: nothing to reap; report the child as crashed so
    // the supervisor's restart path handles a state we cannot explain.
    last_ = ExitStatus{ExitStatus::Kind::kSignaled, 0, SIGKILL};
    reaped_ = true;
    return last_;
  }
  if (WIFEXITED(status)) {
    last_ = ExitStatus{ExitStatus::Kind::kExited, WEXITSTATUS(status), 0};
    reaped_ = true;
  } else if (WIFSIGNALED(status)) {
    last_ = ExitStatus{ExitStatus::Kind::kSignaled, 0, WTERMSIG(status)};
    reaped_ = true;
  }
  return reaped_ ? last_ : ExitStatus{};
}

ExitStatus ChildProcess::poll() { return wait_impl(/*block=*/false); }

ExitStatus ChildProcess::wait() { return wait_impl(/*block=*/true); }

void ChildProcess::terminate(int signum) {
  if (reaped_ || !valid()) return;
  // The child leads its own group (see spawn); until it is reaped, its pid
  // names that group. Fall back to the child alone if the group is gone.
  if (::kill(-pid_, signum) != 0) ::kill(pid_, signum);
}

#else  // _WIN32: the svc layer needs POSIX process control.

ChildProcess ChildProcess::spawn(const std::vector<std::string>&) {
  throw std::runtime_error(
      "ChildProcess::spawn: process supervision requires POSIX");
}

ExitStatus ChildProcess::wait_impl(bool) { return last_; }
ExitStatus ChildProcess::poll() { return last_; }
ExitStatus ChildProcess::wait() { return last_; }
void ChildProcess::terminate(int) {}

#endif

}  // namespace nada::svc
