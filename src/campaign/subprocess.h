// Minimal portable subprocess wrapper — the only place the campaign
// coordinator touches processes: spawning them, reaping them, and sleeping
// until one exits (wait_for_exit). The scheduling logic itself talks
// to the WorkerLauncher abstraction (campaign.h), so everything above this
// file is testable in-process; only subprocess_launcher() reaches here.
#pragma once

#include <chrono>
#include <string>
#include <vector>

namespace varbench::campaign {

/// One spawned child process. Move-only; the destructor of a still-running
/// process kills it (a coordinator that unwinds must not leak workers) and
/// closes its exit descriptor.
class Subprocess {
 public:
  /// Start `argv` (argv[0] = program path, resolved through PATH) with
  /// stdout and stderr appended to the file at `log_path` (created if
  /// missing; empty path → inherit the parent's streams). Throws
  /// std::runtime_error when the process cannot be started.
  [[nodiscard]] static Subprocess spawn(const std::vector<std::string>& argv,
                                        const std::string& log_path);

  Subprocess(Subprocess&& other) noexcept;
  Subprocess& operator=(Subprocess&& other) noexcept;
  Subprocess(const Subprocess&) = delete;
  Subprocess& operator=(const Subprocess&) = delete;
  ~Subprocess();

  /// Non-blocking liveness poll; reaps the child when it has exited.
  [[nodiscard]] bool running();

  /// Block until exit. Returns the exit status: the child's exit code when
  /// it exited normally, 128 + signal number when it was killed.
  int wait();

  /// Exit status after running() turned false / wait() returned.
  [[nodiscard]] int exit_code() const { return exit_code_; }

  /// Forcibly terminate (SIGKILL) a still-running child.
  void kill();

  /// A close-on-exec descriptor that polls readable once the child has
  /// exited (a Linux pidfd), for wait_for_exit(); -1 where the platform
  /// cannot open one. Owned by this object; valid until it is destroyed.
  [[nodiscard]] int exit_fd() const { return exit_fd_; }

 private:
  Subprocess() = default;
  void close_exit_fd();

  long pid_ = -1;  // -1 → reaped or never started
  int exit_code_ = -1;
  int exit_fd_ = -1;
};

/// Sleep until one of `exit_fds` polls readable (a child behind it has
/// exited) or `timeout` passes; a signal also ends the wait. Negative
/// descriptors are ignored, so with no valid one this is a plain sleep.
void wait_for_exit(const std::vector<int>& exit_fds,
                   std::chrono::milliseconds timeout);

/// Absolute path of the currently running executable when the platform can
/// tell us (/proc/self/exe on Linux), else `fallback` (typically argv[0]) —
/// how `varbench campaign` finds the binary to spawn workers with.
[[nodiscard]] std::string current_executable(const std::string& fallback);

/// This process's id — claim-owner uniqueness across coordinators.
[[nodiscard]] unsigned long current_process_id();

}  // namespace varbench::campaign
