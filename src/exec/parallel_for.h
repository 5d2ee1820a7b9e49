// parallel_for: chunked, self-scheduling index loop on the global pool.
//
// Scheduling is dynamic (an atomic chunk cursor), so thread assignment is
// nondeterministic — which is exactly why bodies must depend only on their
// index, never on which thread runs them or in what order. Determinism of
// every randomized caller comes from the replicate ranges' per-index streams.
// detail::run_region is the one scheduler, under parallel_for and under
// ReplicatePlan::run (parallel_replicate.h).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <latch>
#include <mutex>
#include <span>
#include <vector>

#include "src/exec/exec_context.h"
#include "src/exec/thread_pool.h"
#include "src/metrics/clock.h"
#include "src/metrics/metrics.h"

namespace varbench::exec {

/// A contiguous slice [begin, end) of an index space: a chunk of a region,
/// and the unit of process-level sharding (parallel_replicate.h).
struct IndexRange {
  std::size_t begin = 0;
  std::size_t end = 0;

  [[nodiscard]] constexpr std::size_t size() const { return end - begin; }
  friend constexpr bool operator==(const IndexRange&,
                                   const IndexRange&) = default;
};

namespace detail {
/// True while the current thread runs a chunk of a region that fanned out
/// (a parallel_for or a ReplicatePlan). Nested regions run inline: helper tasks waiting on a nested region would
/// otherwise occupy every pool worker while the nested region's own tasks
/// sit queued behind them — a permanent deadlock.
inline thread_local bool t_in_parallel_region = false;

/// The threads a region over `n` indices runs on: the context's count,
/// capped at n, and 1 inside another region.
[[nodiscard]] inline std::size_t region_threads(const ExecContext& ctx,
                                                std::size_t n) {
  if (t_in_parallel_region) return 1;
  return std::min(ctx.resolved_threads(), n);
}

/// Append the chunks a region on `threads` threads cuts `range` into:
/// `grain` consecutive indices each, the last possibly shorter (0 → the
/// automatic grain, ~8 chunks per worker, the classic balance between
/// scheduling overhead and tail latency).
inline void cut_chunks(IndexRange range, std::size_t threads,
                       std::size_t grain, std::vector<IndexRange>& chunks) {
  if (grain == 0) {
    grain = std::max<std::size_t>(1, range.size() / (threads * 8));
  }
  for (std::size_t lo = range.begin; lo < range.end; lo += grain) {
    chunks.push_back({lo, std::min(range.end, lo + grain)});
  }
}

/// The one scheduler under parallel_for and ReplicatePlan::run: one region
/// that calls `run_chunk(c)` once for every c in [0, chunks.size()), where
/// chunk c covers `chunks[c]`. On one thread the chunks run in order on
/// the caller; otherwise `threads` threads (the caller and threads − 1
/// pool helpers) claim chunks from an atomic cursor in list order. The
/// first exception thrown by any chunk cancels the unclaimed ones and is
/// rethrown on the calling thread.
template <typename RunChunk>
void run_region(const ExecContext& ctx, std::size_t threads,
                std::span<const IndexRange> chunks, RunChunk&& run_chunk) {
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
  const auto chunk_span = [&](std::size_t c) {
    return metrics::ScopedSpan{sink, metrics::kExecChunk,
                               (region_ident << 32) |
                                   static_cast<std::uint64_t>(c),
                               metrics::kExecChunkRunNs};
  };

  if (threads <= 1) {
    for (std::size_t c = 0; c < chunks.size(); ++c) {
      sink.add(metrics::kExecChunks);
      sink.observe(metrics::kExecChunkSize, chunks[c].size());
      const metrics::ScopedSpan span = chunk_span(c);
      run_chunk(c);
    }
    return;
  }

  // exec.idle_ns: the region's thread-time minus its chunks' run time.
  const bool time_idle = sink.is_enabled(metrics::kExecIdleNs);
  const std::uint64_t region_start_ns =
      time_idle ? metrics::monotonic_ns() : 0;
  std::atomic<std::uint64_t> busy_ns{0};

  std::atomic<std::size_t> next_chunk{0};
  std::atomic<bool> cancelled{false};
  std::exception_ptr first_error;
  std::mutex error_mu;

  auto drain = [&] {
    const bool was_in_region = t_in_parallel_region;
    t_in_parallel_region = true;
    std::uint64_t drained_ns = 0;
    while (!cancelled.load(std::memory_order_relaxed)) {
      const std::size_t c = next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (c >= chunks.size()) break;
      sink.add(metrics::kExecChunks);
      sink.observe(metrics::kExecChunkSize, chunks[c].size());
      const std::uint64_t chunk_start_ns =
          time_idle ? metrics::monotonic_ns() : 0;
      try {
        const metrics::ScopedSpan span = chunk_span(c);
        run_chunk(c);
      } catch (...) {
        {
          const std::lock_guard<std::mutex> lock{error_mu};
          if (!first_error) first_error = std::current_exception();
        }
        cancelled.store(true, std::memory_order_relaxed);
      }
      if (time_idle) drained_ns += metrics::monotonic_ns() - chunk_start_ns;
    }
    if (time_idle) busy_ns.fetch_add(drained_ns, std::memory_order_relaxed);
    t_in_parallel_region = was_in_region;
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
  if (time_idle) {
    const std::uint64_t thread_ns =
        threads * (metrics::monotonic_ns() - region_start_ns);
    const std::uint64_t busy = busy_ns.load(std::memory_order_relaxed);
    sink.add(metrics::kExecIdleNs, thread_ns > busy ? thread_ns - busy : 0);
  }
  if (first_error) std::rethrow_exception(first_error);
}
}  // namespace detail

/// Invoke `body(i)` for every i in [begin, end). Blocks until done.
///
/// `grain` is the number of consecutive indices a worker claims at a time
/// (0 → automatic: ~8 chunks per worker). The first exception thrown by any
/// body cancels remaining chunks and is rethrown on the calling thread.
/// Nested calls (from inside a body) always run inline, as one chunk.
template <typename Body>
void parallel_for(const ExecContext& ctx, std::size_t begin, std::size_t end,
                  Body&& body, std::size_t grain = 0) {
  if (begin >= end) return;
  const IndexRange range{begin, end};
  const std::size_t threads = detail::region_threads(ctx, range.size());
  std::vector<IndexRange> chunks;  // an inline region is the whole range
  if (threads > 1) detail::cut_chunks(range, threads, grain, chunks);
  const std::span<const IndexRange> cut =
      threads > 1 ? std::span<const IndexRange>{chunks}
                  : std::span<const IndexRange>{&range, 1};
  detail::run_region(ctx, threads, cut, [&](std::size_t c) {
    for (std::size_t i = cut[c].begin; i < cut[c].end; ++i) body(i);
  });
}

}  // namespace varbench::exec
