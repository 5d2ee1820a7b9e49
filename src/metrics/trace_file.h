// Trace files on disk, and stitching them into one timeline.
//
// A traced run leaves one `*.trace.json` file per producing process —
// worker or coordinator — so flushing never needs cross-process
// coordination; the stitcher merges them deterministically afterwards.
//
// Schema "varbench.trace.v1":
//   {
//     "schema": "varbench.trace.v1",
//     "process": "worker-s0-0of2",
//     "dropped": 0,
//     "spans": [{"span": "exec.chunk", "ident": ..., "tid": ...,
//                "start_ns": ..., "dur_ns": ...}, ...],
//     "labels": [{"ident": ..., "label": "s0-0of2"}, ...]
//   }
// Timestamps are process-local monotonic nanoseconds (only differences are
// meaningful); span names — not raw ids — are serialized, so files stay
// readable across builds as the registry grows.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/io/json.h"
#include "src/metrics/metrics.h"
#include "src/study/result_table.h"

namespace varbench::metrics {

/// Fold `extra`'s spans, labels, and dropped count into `into` (same
/// process), restoring the deterministic event order.
void append(TraceFile& into, TraceFile&& extra);

[[nodiscard]] std::string to_json_text(const TraceFile& file);

/// Parse one trace file document. Throws io::JsonError naming `path` on
/// malformed JSON, a wrong schema, or names that are not spans/instants.
[[nodiscard]] TraceFile parse_trace_file(const std::string& text,
                                         const std::string& path);

/// write = serialize + io::write_file; read = io::read_file + parse.
void write_trace_file(const std::string& path, const TraceFile& file);
[[nodiscard]] TraceFile read_trace_file(const std::string& path);

/// The per-worker trace file name inside a state dir's traces/ directory:
/// "worker-<task_id>.trace.json".
[[nodiscard]] std::string worker_trace_name(const std::string& task_id);

struct StitchedTrace {
  /// One entry per trace file, lexicographic by file name; Chrome pid is
  /// index + 1 (pid 0 is reserved by the trace-event format).
  std::vector<TraceFile> processes;

  [[nodiscard]] std::size_t total_spans() const;
};

/// Read every `<dir>/traces/*.trace.json` in lexicographic file-name order
/// — a deterministic function of the on-disk set, independent of scan
/// order. A regular file (what `run --trace-out` writes) is read as a
/// one-process trace. Throws io::JsonError when the traces/ directory is
/// missing/empty (the actionable "did you pass --trace?" case) or any file
/// is malformed.
[[nodiscard]] StitchedTrace stitch_state_dir(const std::string& state_dir);

/// Chrome trace-event JSON (chrome://tracing, Perfetto): "X" duration
/// events for spans, "i" instants, plus "M" process_name metadata rows.
/// ts/dur are microseconds, each process normalized to its own earliest
/// event — monotonic clocks are process-local, so cross-process offsets
/// would be noise. Ident hashes render as hex strings in args (JSON doubles
/// cannot hold them); labels recorded via Sink::set_label are joined in as
/// args.label.
[[nodiscard]] io::Json chrome_trace_json(const StitchedTrace& stitched);

/// Per-span aggregate across all processes, id order: count, total/mean/max
/// duration. A spec-less ResultTable so the report machinery renders it.
[[nodiscard]] study::ResultTable summary_table(const StitchedTrace& stitched);

/// The timestamp-free shape of a trace: every (span, ident) pair across all
/// processes, sorted. Two runs of the same campaign — at any worker or
/// thread split — must produce equal shapes (pinned by tests).
[[nodiscard]] std::vector<std::pair<MetricId, std::uint64_t>> span_shape(
    const StitchedTrace& stitched);

}  // namespace varbench::metrics
