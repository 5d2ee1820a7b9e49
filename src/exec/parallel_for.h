// parallel_for: chunked, self-scheduling index loop on the global pool.
//
// Scheduling is dynamic (an atomic chunk cursor), so thread assignment is
// nondeterministic — which is exactly why bodies must depend only on their
// index, never on which thread runs them or in what order. Determinism of
// every randomized caller comes from parallel_replicate's per-index streams.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <latch>
#include <mutex>
#include <vector>

#include "src/exec/exec_context.h"
#include "src/exec/thread_pool.h"
#include "src/metrics/clock.h"
#include "src/metrics/metrics.h"

namespace varbench::exec {

namespace detail {
/// True while the current thread is inside a parallel_for region. Nested
/// regions run inline: helper tasks waiting on a nested region would
/// otherwise occupy every pool worker while the nested region's own tasks
/// sit queued behind them — a permanent deadlock.
inline thread_local bool t_in_parallel_region = false;
}  // namespace detail

/// Invoke `body(i)` for every i in [begin, end). Blocks until done.
///
/// `grain` is the number of consecutive indices a worker claims at a time
/// (0 → automatic: ~8 chunks per worker, the classic balance between
/// scheduling overhead and tail latency). The first exception thrown by any
/// body cancels remaining chunks and is rethrown on the calling thread.
/// Nested calls (from inside a body) always run inline.
template <typename Body>
void parallel_for(const ExecContext& ctx, std::size_t begin, std::size_t end,
                  Body&& body, std::size_t grain = 0) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  std::size_t threads = ctx.resolved_threads();
  if (threads > n) threads = n;
  if (detail::t_in_parallel_region) threads = 1;

  // Instrumentation (docs/metrics.md): every call below is a no-op branch
  // unless the entry was enabled on this context's sink, and nothing
  // recorded here can reach artifact bytes — metrics are provenance only.
  metrics::Sink& sink = ctx.sink();
  sink.add(metrics::kExecRegions);
  sink.observe(metrics::kExecRegionThreads, threads);

  // Span idents are identity-derived: a sink-wide region sequence number,
  // with chunk idents packed as (region << 32) | chunk index — never a
  // pointer, tid, or clock value, so the same work traced at any thread
  // count yields the same (span, ident) multiset.
  const std::uint64_t region_ident =
      sink.is_enabled(metrics::kExecRegion) ||
              sink.is_enabled(metrics::kExecChunk)
          ? sink.next_sequence()
          : 0;
  const metrics::ScopedSpan region_span{sink, metrics::kExecRegion,
                                        region_ident};

  if (threads <= 1) {
    // An inline region is one chunk spanning the whole range.
    sink.add(metrics::kExecChunks);
    sink.observe(metrics::kExecChunkSize, n);
    const metrics::ScopedSpan chunk_span{sink, metrics::kExecChunk,
                                         region_ident << 32,
                                         metrics::kExecChunkRunNs};
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }

  if (grain == 0) grain = std::max<std::size_t>(1, n / (threads * 8));
  const std::size_t num_chunks = (n + grain - 1) / grain;

  std::atomic<std::size_t> next_chunk{0};
  std::atomic<bool> cancelled{false};
  std::exception_ptr first_error;
  std::mutex error_mu;

  auto drain = [&] {
    const bool was_in_region = detail::t_in_parallel_region;
    detail::t_in_parallel_region = true;
    while (!cancelled.load(std::memory_order_relaxed)) {
      const std::size_t c = next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (c >= num_chunks) break;
      const std::size_t lo = begin + c * grain;
      const std::size_t hi = std::min(end, lo + grain);
      sink.add(metrics::kExecChunks);
      sink.observe(metrics::kExecChunkSize, hi - lo);
      try {
        const metrics::ScopedSpan chunk_span{
            sink, metrics::kExecChunk,
            (region_ident << 32) | static_cast<std::uint64_t>(c),
            metrics::kExecChunkRunNs};
        for (std::size_t i = lo; i < hi; ++i) body(i);
      } catch (...) {
        {
          const std::lock_guard<std::mutex> lock{error_mu};
          if (!first_error) first_error = std::current_exception();
        }
        cancelled.store(true, std::memory_order_relaxed);
      }
    }
    detail::t_in_parallel_region = was_in_region;
  };

  const std::size_t helpers = threads - 1;  // the caller participates too
  ThreadPool& pool = ThreadPool::global();
  pool.ensure_workers(helpers);
  sink.add(metrics::kExecTasksSubmitted, helpers);
  std::latch done{static_cast<std::ptrdiff_t>(helpers)};
  // One batched enqueue: a single lock acquisition + wakeup for the whole
  // helper fan-out (see ThreadPool::submit_many). Queue-wait timestamps
  // are captured at submit time only when the metric is live.
  const bool time_queue_wait = sink.is_enabled(metrics::kExecQueueWaitNs);
  std::vector<std::function<void()>> tasks;
  tasks.reserve(helpers);
  for (std::size_t t = 0; t < helpers; ++t) {
    if (time_queue_wait) {
      const std::uint64_t submitted_ns = metrics::monotonic_ns();
      tasks.push_back([&, submitted_ns] {
        sink.observe(metrics::kExecQueueWaitNs,
                     metrics::monotonic_ns() - submitted_ns);
        drain();
        done.count_down();
      });
    } else {
      tasks.push_back([&] {
        drain();
        done.count_down();
      });
    }
  }
  pool.submit_many(std::move(tasks));
  drain();
  done.wait();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace varbench::exec
