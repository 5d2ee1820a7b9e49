// The instrumentation layer (docs/metrics.md): one compile-time registry of
// counters, timers, histograms, spans and instants, and the Sink they all
// record into.
//
// Design contract:
//   - Entries are registered at compile time in VARBENCH_METRIC_ENTRIES;
//     an entry's id is its index in that list, so ids are small dense
//     integers, stable across runs. New entries are appended, never
//     inserted; ids never leave the process (trace files, snapshots and
//     campaign.json carry names), so an entry may be removed.
//   - `Sink::is_enabled(id)` is an inlined bounds check plus a byte load: a
//     disabled entry costs ~one predictable branch, no locks, no clock
//     reads, no allocation. Everything expensive — clock reads
//     (src/metrics/clock.h, the one clock site), derived values
//     (observe_lazy), span idents — sits behind that branch.
//   - Each recording thread owns one of 16 per-sink slots, allocated on
//     first use. Counters, timers and histograms add into the slot's relaxed
//     atomic u64 cells (count / sum / log2 bins); integer addition commutes,
//     so `snapshot()` is the same for the same multiset of events at any
//     thread count or interleaving. Spans and instants append POD SpanEvents
//     to the slot's bounded buffer; every event carries an identity-derived
//     ident (a task-id hash, a region sequence number, a chunk index) —
//     never a pointer, tid, or clock value — so the same work traced at any
//     thread or worker split yields the same (span, ident) multiset.
//   - Everything a sink holds is provenance, never identity: nothing
//     recorded may flow into canonical_text() bytes (docs/determinism.md).
//
// This header is io-free and exec-free so that ExecContext can include it.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace varbench::metrics {

using MetricId = std::uint32_t;

enum class MetricKind : std::uint8_t {
  kCounter,    // monotonic sum of deltas (count = number of increments)
  kTimer,      // nanosecond durations, histogrammed
  kHistogram,  // arbitrary non-negative integer values, histogrammed
  kSpan,       // a duration event: start + dur (Chrome "ph":"X")
  kInstant,    // a point event: start only, dur = 0 (Chrome "ph":"i")
};

[[nodiscard]] std::string_view kind_name(MetricKind kind);

/// Spans and instants are events, drained into trace files; the other
/// kinds aggregate into snapshot cells.
[[nodiscard]] constexpr bool is_event(MetricKind kind) {
  return kind == MetricKind::kSpan || kind == MetricKind::kInstant;
}

struct MetricDef {
  std::string_view name;       // "exec.queue_wait_ns" — "<subsystem>.<entry>"
  std::string_view subsystem;  // "exec" | "campaign" | "io" | ...
  std::string_view unit;       // "ns", "count", "bytes", "indices", ...
  MetricKind kind = MetricKind::kCounter;
  std::string_view help;
};

// The compile-time entry list. Ids are indices into this list; append
// only — never reorder or remove — so ids stay stable across versions.
// X(symbol, name, subsystem, unit, kind, help)
#define VARBENCH_METRIC_ENTRIES(X)                                           \
  X(ExecRegions, "exec.parallel_regions", "exec", "count", kCounter,         \
    "parallel_for regions that actually fanned out to the pool")             \
  X(ExecTasksSubmitted, "exec.tasks_submitted", "exec", "count", kCounter,   \
    "helper tasks enqueued on the global ThreadPool")                        \
  X(ExecChunks, "exec.chunks", "exec", "count", kCounter,                    \
    "self-scheduled chunks claimed across all parallel_for regions")         \
  X(ExecChunkSize, "exec.chunk_size", "exec", "indices", kHistogram,         \
    "indices per claimed chunk (the effective grain)")                       \
  X(ExecChunkRunNs, "exec.chunk_run_ns", "exec", "ns", kTimer,               \
    "wall time spent running one chunk's body calls")                        \
  X(ExecQueueWaitNs, "exec.queue_wait_ns", "exec", "ns", kTimer,             \
    "submit-to-start latency of pool helper tasks")                          \
  X(ExecRegionThreads, "exec.region_threads", "exec", "threads", kHistogram, \
    "resolved worker count per parallel region (pool utilization)")          \
  X(CampaignClaimToStartNs, "campaign.claim_to_start_ns", "campaign", "ns",  \
    kTimer, "ticket claim to worker launch latency per task")                \
  X(CampaignTaskRetries, "campaign.task_retries", "campaign", "count",       \
    kCounter, "failed attempts that were requeued for retry")                \
  X(CampaignHeartbeatJitterNs, "campaign.heartbeat_jitter_ns", "campaign",   \
    "ns", kTimer,                                                            \
    "absolute deviation of the reap loop period from poll_interval")         \
  X(CampaignTasksLaunched, "campaign.tasks_launched", "campaign", "count",   \
    kCounter, "worker launches, including retries")                          \
  X(IoBytesMapped, "io.vbt_bytes_mapped", "io", "bytes", kCounter,           \
    "bytes of VBT1 artifacts mapped (or buffered) by MappedTable::open")     \
  X(IoTablesMapped, "io.vbt_tables_mapped", "io", "count", kCounter,         \
    "VBT1 artifacts opened")                                                 \
  X(RngxStreamsDerived, "rngx.streams_derived", "rngx", "count", kCounter,   \
    "Rng streams created — constructions, reseeds, and tag splits")          \
  X(RngxDraws, "rngx.draws", "rngx", "count", kCounter,                      \
    "raw 64-bit draws from the xoshiro core (every distribution bottoms "    \
    "out here)")                                                             \
  X(StatsResamples, "stats.resamples", "stats", "count", kCounter,           \
    "bootstrap resamples and permutation replicates evaluated by the "       \
    "fused resampling kernels")                                              \
  X(StudyRun, "study.run", "study", "ns", kSpan,                             \
    "one run_study() execution; ident = hash of '<kind>:<case_study>'")      \
  X(ExecRegion, "exec.region", "exec", "ns", kSpan,                          \
    "one parallel_for region; ident = per-sink region sequence number")      \
  X(ExecChunk, "exec.chunk", "exec", "ns", kSpan,                            \
    "one self-scheduled chunk; ident = (region sequence << 32) | chunk")     \
  X(IoVbtMap, "io.vbt_map", "io", "ns", kSpan,                               \
    "MappedTable::open of one VBT1 artifact; ident = hash of the file name") \
  X(CampaignTaskQueued, "campaign.task_queued", "campaign", "ns", kInstant,  \
    "task ticket entered the work queue; ident = hash of the task id")       \
  X(CampaignTaskClaimed, "campaign.task_claimed", "campaign", "ns",          \
    kInstant, "coordinator claimed the ticket; ident = hash of the task id") \
  X(CampaignTaskRunning, "campaign.task_running", "campaign", "ns", kSpan,   \
    "worker launch to reap for one attempt; ident = hash of the task id")    \
  X(CampaignTaskPromoted, "campaign.task_promoted", "campaign", "ns",        \
    kInstant,                                                                \
    "validated artifact promoted to artifacts/; ident = hash of the task "   \
    "id")                                                                    \
  X(CampaignTaskRetried, "campaign.task_retried", "campaign", "ns",          \
    kInstant, "failed attempt requeued for retry; ident = hash of the task " \
    "id")                                                                    \
  X(CampaignStudyMerged, "campaign.study_merged", "campaign", "ns", kSpan,   \
    "per-study incremental merge of all landed shards; ident = study index")

enum : MetricId {
#define VARBENCH_METRIC_ENUM(sym, name, subsystem, unit, kind, help) k##sym,
  VARBENCH_METRIC_ENTRIES(VARBENCH_METRIC_ENUM)
#undef VARBENCH_METRIC_ENUM
      kNumMetrics
};

/// All registered entries, id order.
inline constexpr std::array<MetricDef, kNumMetrics> kMetricDefs{{
#define VARBENCH_METRIC_DEF(sym, name, subsystem, unit, kind, help) \
  {name, subsystem, unit, MetricKind::kind, help},
    VARBENCH_METRIC_ENTRIES(VARBENCH_METRIC_DEF)
#undef VARBENCH_METRIC_DEF
}};

/// No entry has this id, so every sink reports it disabled.
inline constexpr MetricId kNoMetric = ~MetricId{0};

/// Id for `name`; throws std::invalid_argument for unknown names.
[[nodiscard]] MetricId metric_id(std::string_view name);

/// Histogram geometry: integer log2 bins. Bin 0 holds value 0; bin i>=1
/// holds [2^(i-1), 2^i). Integer bin edges are part of the deterministic
/// merge contract — no floating-point bucketing.
inline constexpr std::size_t kNumBins = 64;

[[nodiscard]] constexpr std::size_t bin_index(std::uint64_t value) {
  const std::size_t w = static_cast<std::size_t>(std::bit_width(value));
  return w < kNumBins ? w : kNumBins - 1;
}

/// Inclusive upper bound of bin `i` (the value reported for percentiles).
[[nodiscard]] constexpr std::uint64_t bin_upper(std::size_t i) {
  if (i == 0) return 0;
  if (i >= kNumBins - 1) return ~std::uint64_t{0};
  return (std::uint64_t{1} << i) - 1;
}

/// Deterministically merged totals for one counter, timer or histogram.
struct MetricSnapshot {
  MetricId id = 0;
  std::uint64_t count = 0;  // events recorded
  std::uint64_t sum = 0;    // sum of recorded values / counter deltas
  std::array<std::uint64_t, kNumBins> bins{};  // timers/histograms only

  [[nodiscard]] double mean() const {
    return count == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(count);
  }

  /// Upper bound of the bin containing the p-quantile (p in [0, 1]).
  /// Integer-exact: no interpolation, so snapshots merge/compare bytewise.
  [[nodiscard]] std::uint64_t percentile_upper(double p) const;
};

/// One entry per enabled counter, timer or histogram, fixed id order.
struct Snapshot {
  std::vector<MetricSnapshot> metrics;

  [[nodiscard]] const MetricSnapshot* find(MetricId id) const;
  [[nodiscard]] bool empty() const { return metrics.empty(); }
};

/// One recorded span or instant. POD on purpose: the hot path copies 40
/// bytes into a per-thread buffer and nothing else. `tid` is the recording
/// thread's slot ordinal — presentation only (Chrome "tid"), never identity.
/// Field order is the deterministic drain order (the defaulted <=>).
struct SpanEvent {
  std::uint64_t start_ns = 0;  // monotonic, process-local
  MetricId span = 0;
  std::uint64_t ident = 0;     // identity-derived (see the entry's help text)
  std::uint64_t tid = 0;       // slot of the recording thread
  std::uint64_t dur_ns = 0;    // 0 for instants

  friend auto operator<=>(const SpanEvent&, const SpanEvent&) = default;
};

/// The events one process drained from a sink: the in-memory form of a
/// `traces/*.trace.json` file (src/metrics/trace_file.h).
struct TraceFile {
  std::string process;  // producing-process label, e.g. "worker-s0-0of2"
  std::uint64_t dropped = 0;  // events lost to the per-slot cap
  std::vector<SpanEvent> spans;  // sorted (SpanEvent's <=>)
  std::vector<std::pair<std::uint64_t, std::string>> labels;  // by ident

  friend bool operator==(const TraceFile&, const TraceFile&) = default;
};

/// The object instrumented code records into. Default state is
/// all-disabled, in which every record call is a branch on a byte load.
///
/// Thread model: add/observe/emit/next_sequence/set_label are safe from
/// any thread; enable/disable/snapshot/drain/reset are coordinator-side
/// operations and must not race with recorders.
class Sink {
 public:
  Sink() = default;
  ~Sink();
  Sink(const Sink&) = delete;
  Sink& operator=(const Sink&) = delete;

  /// Hot-path gate. Inlined: bounds check + byte load.
  [[nodiscard]] bool is_enabled(MetricId id) const {
    return id < enabled_.size() && enabled_[id] != 0;
  }

  void enable(MetricId id);  // throws std::invalid_argument out of range
  void disable(MetricId id);
  void enable_all();
  void disable_all();

  /// Counter increment: sum += delta, count += 1. No-op when disabled.
  void add(MetricId id, std::uint64_t delta = 1) {
    if (!is_enabled(id)) return;
    record(id, delta);
  }

  /// Histogram/timer observation: sum += value, count += 1,
  /// bins[bin_index(value)] += 1. No-op when disabled.
  void observe(MetricId id, std::uint64_t value) {
    if (!is_enabled(id)) return;
    record(id, value);
  }

  /// Defer an expensive-to-compute value behind the enabled check: `fn`
  /// is only invoked when the metric is live.
  template <typename Fn>
  void observe_lazy(MetricId id, Fn&& fn) {
    if (!is_enabled(id)) return;
    record(id, static_cast<std::uint64_t>(std::forward<Fn>(fn)()));
  }

  /// Append one span or instant event (timestamps already taken by the
  /// caller — see src/metrics/clock.h). No-op when disabled. Buffers are
  /// bounded (kMaxEventsPerSlot); overflow is counted, not grown.
  void emit(MetricId id, std::uint64_t ident, std::uint64_t start_ns,
            std::uint64_t dur_ns) {
    if (!is_enabled(id)) return;
    record_event(SpanEvent{start_ns, id, ident, 0, dur_ns});
  }

  /// Next value of the sink-wide sequence counter — the identity source
  /// for ordered-by-construction idents (exec region numbers). Reset by
  /// drain()/reset(), so every flushed trace numbers from 0.
  [[nodiscard]] std::uint64_t next_sequence() {
    return sequence_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Attach a human-readable label to an ident (e.g. the task id behind
  /// its hash) for the exported trace. Cold path; last writer wins.
  void set_label(std::uint64_t ident, std::string label);

  /// Merge all slots' cells, fixed id order. Only enabled counters, timers
  /// and histograms appear (with zero counts if nothing was recorded).
  [[nodiscard]] Snapshot snapshot() const;

  /// Move every buffered event and label into a TraceFile labeled
  /// `process`, with the events dropped since the last drain, and reset the
  /// sequence counter. Metric cells are untouched.
  [[nodiscard]] TraceFile drain(std::string process);

  /// Zero every cell and discard every event and label (enabled set kept).
  void reset();

  /// Slots allocated so far — 0 until the first enabled record from some
  /// thread. Exposed so tests can pin the disabled path's zero-allocation
  /// guarantee.
  [[nodiscard]] std::size_t allocated_slots() const;

  /// Backstop against runaway span volume per slot (~40 MB/slot).
  static constexpr std::size_t kMaxEventsPerSlot = std::size_t{1} << 20;

 private:
  // Threads hash onto kSlots slots; two threads sharing a slot is correct
  // (atomic adds, a mutex around the event buffer), just contended.
  static constexpr std::size_t kSlots = 16;
  static constexpr std::size_t kCellsPerMetric = 2 + kNumBins;  // count, sum, bins

  struct Slot {
    std::array<std::atomic<std::uint64_t>, kNumMetrics * kCellsPerMetric>
        cells{};
    std::mutex mu;  // guards events
    std::vector<SpanEvent> events;
  };

  void record(MetricId id, std::uint64_t value);
  void record_event(SpanEvent event);
  [[nodiscard]] std::pair<Slot&, std::size_t> slot_for_this_thread();

  std::array<std::uint8_t, kNumMetrics> enabled_{};
  std::array<std::atomic<Slot*>, kSlots> slots_{};
  std::atomic<std::uint64_t> sequence_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::mutex labels_mu_;
  std::vector<std::pair<std::uint64_t, std::string>> labels_;
};

/// The process-wide default sink (everything disabled until a CLI flag or
/// test enables it). ExecContext falls back to it when no explicit sink is
/// attached; `varbench run --trace-out` drains its events.
[[nodiscard]] Sink& global_sink();

/// Which entries a selection addresses: counters, timers and histograms
/// (what --metrics enables) or spans and instants (what tracing enables).
enum class Entries : std::uint8_t { kMetrics, kSpans };

/// Enable a comma-separated selection of `which` entries on `sink`: "all",
/// "none", a subsystem ("exec"), or a full entry name
/// ("exec.queue_wait_ns"). Throws std::invalid_argument for selectors
/// matching nothing.
void enable_selection(Sink& sink, std::string_view selection,
                      Entries which = Entries::kMetrics);

}  // namespace varbench::metrics
