// A lazily grown, process-wide worker pool. Parallel regions submit
// self-scheduling tasks (each pops chunk indices off a shared atomic
// counter), so the pool itself needs no notion of loops or determinism —
// that lives in parallel_for and the replicate ranges (parallel_replicate.h).
#pragma once

#include <cstddef>
#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace varbench::exec {

class ThreadPool {
 public:
  /// The shared pool used by parallel_for. Created on first use; grows to
  /// the largest worker count any ExecContext has asked for, never shrinks.
  [[nodiscard]] static ThreadPool& global();

  explicit ThreadPool(std::size_t num_workers = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Grow to at least `n` workers (no-op when already large enough).
  void ensure_workers(std::size_t n);

  [[nodiscard]] std::size_t num_workers() const;

  /// Enqueue one task. Tasks must not block waiting on other queued tasks
  /// (the pool has no work stealing); parallel_for's tasks never do.
  void submit(std::function<void()> task);

  /// Enqueue a batch under ONE lock acquisition, moving every task in,
  /// and wake up to `tasks.size()` workers. parallel_for uses this for
  /// its helper fan-out: the per-task lock/notify cost of repeated
  /// submit() was the dominant term in the exec.queue_wait_ns histogram
  /// under contention (see bench/BENCH_exec.json, exec.pool_submit vs
  /// exec.pool_submit_batched).
  void submit_many(std::vector<std::function<void()>> tasks);

 private:
  void worker_loop();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  bool stopping_ = false;
};

}  // namespace varbench::exec
