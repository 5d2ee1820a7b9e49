#include "src/campaign/subprocess.h"

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <utility>

#ifdef _WIN32
// The campaign coordinator's scheduling logic is portable (std::filesystem);
// only worker spawning needs a platform backend. Wire CreateProcess here if
// Windows support is ever needed — every caller goes through this one file.
#else
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/syscall.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace varbench::campaign {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("subprocess: " + what + ": " +
                           std::strerror(errno));
}

#ifndef _WIN32
/// waitpid status → the exit-code convention documented in the header.
int decode_status(int status) {
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
  return -1;
}
#endif

}  // namespace

#ifdef _WIN32

Subprocess Subprocess::spawn(const std::vector<std::string>&,
                             const std::string&) {
  throw std::runtime_error(
      "subprocess: process spawning is not implemented on this platform "
      "(campaign workers require POSIX; use an in-process WorkerLauncher)");
}
bool Subprocess::running() { return false; }
int Subprocess::wait() { return exit_code_; }
void Subprocess::kill() {}
void Subprocess::close_exit_fd() {}
Subprocess::~Subprocess() = default;
Subprocess::Subprocess(Subprocess&& other) noexcept { *this = std::move(other); }
Subprocess& Subprocess::operator=(Subprocess&& other) noexcept {
  pid_ = std::exchange(other.pid_, -1);
  exit_code_ = other.exit_code_;
  exit_fd_ = std::exchange(other.exit_fd_, -1);
  return *this;
}

void wait_for_exit(const std::vector<int>&, std::chrono::milliseconds timeout) {
  std::this_thread::sleep_for(timeout);
}

std::string current_executable(const std::string& fallback) { return fallback; }

unsigned long current_process_id() { return 0; }

#else

Subprocess Subprocess::spawn(const std::vector<std::string>& argv,
                             const std::string& log_path) {
  if (argv.empty()) throw std::runtime_error("subprocess: empty argv");

  int log_fd = -1;
  if (!log_path.empty()) {
    log_fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (log_fd < 0) fail("cannot open log file '" + log_path + "'");
  }

  std::vector<char*> cargv;
  cargv.reserve(argv.size() + 1);
  for (const std::string& a : argv) cargv.push_back(const_cast<char*>(a.c_str()));
  cargv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) {
    if (log_fd >= 0) ::close(log_fd);
    fail("fork failed");
  }
  if (pid == 0) {
    // Child: redirect stdout/stderr to the log, then exec. On any failure
    // exit with 127 (the shell convention for "command not found").
    if (log_fd >= 0) {
      ::dup2(log_fd, STDOUT_FILENO);
      ::dup2(log_fd, STDERR_FILENO);
      ::close(log_fd);
    }
    ::execvp(cargv[0], cargv.data());
    ::_exit(127);
  }
  if (log_fd >= 0) ::close(log_fd);

  Subprocess p;
  p.pid_ = pid;
#ifdef SYS_pidfd_open
  // A pidfd is close-on-exec, so later children never inherit it. Where the
  // kernel has no pidfd_open the call fails and exit_fd() stays -1.
  p.exit_fd_ = static_cast<int>(::syscall(SYS_pidfd_open, pid, 0));
#endif
  return p;
}

Subprocess::Subprocess(Subprocess&& other) noexcept {
  *this = std::move(other);
}

Subprocess& Subprocess::operator=(Subprocess&& other) noexcept {
  if (this != &other) {
    if (pid_ > 0) {
      kill();
      wait();
    }
    close_exit_fd();
    pid_ = std::exchange(other.pid_, -1);
    exit_code_ = other.exit_code_;
    exit_fd_ = std::exchange(other.exit_fd_, -1);
  }
  return *this;
}

Subprocess::~Subprocess() {
  if (pid_ > 0) {
    kill();
    wait();
  }
  close_exit_fd();
}

void Subprocess::close_exit_fd() {
  if (exit_fd_ >= 0) ::close(exit_fd_);
  exit_fd_ = -1;
}

bool Subprocess::running() {
  if (pid_ <= 0) return false;
  int status = 0;
  const pid_t r = ::waitpid(static_cast<pid_t>(pid_), &status, WNOHANG);
  if (r == 0) return true;
  if (r == static_cast<pid_t>(pid_)) {
    exit_code_ = decode_status(status);
    pid_ = -1;
  }
  return false;
}

int Subprocess::wait() {
  if (pid_ <= 0) return exit_code_;
  int status = 0;
  while (::waitpid(static_cast<pid_t>(pid_), &status, 0) < 0) {
    if (errno != EINTR) fail("waitpid failed");
  }
  exit_code_ = decode_status(status);
  pid_ = -1;
  return exit_code_;
}

void Subprocess::kill() {
  if (pid_ > 0) ::kill(static_cast<pid_t>(pid_), SIGKILL);
}

void wait_for_exit(const std::vector<int>& exit_fds,
                   std::chrono::milliseconds timeout) {
  std::vector<pollfd> fds;
  fds.reserve(exit_fds.size());
  for (const int fd : exit_fds) fds.push_back(pollfd{fd, POLLIN, 0});
  // poll() skips negative descriptors and returns early on EINTR, which
  // counts as a wake. Any other failure sleeps instead: returning at once
  // would turn the caller's loop into a spin.
  if (::poll(fds.data(), static_cast<nfds_t>(fds.size()),
             static_cast<int>(timeout.count())) < 0 &&
      errno != EINTR) {
    std::this_thread::sleep_for(timeout);
  }
}

std::string current_executable(const std::string& fallback) {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return fallback;
  buf[n] = '\0';
  return std::string{buf};
}

unsigned long current_process_id() {
  return static_cast<unsigned long>(::getpid());
}

#endif

}  // namespace varbench::campaign
