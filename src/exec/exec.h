// varbench::exec — deterministic parallel execution engine.
//
// The three layers, bottom-up:
//   ThreadPool          process-wide workers, grow-on-demand   (thread_pool.h)
//   parallel_for        chunked self-scheduling index loops    (parallel_for.h)
//   parallel_replicate_range / parallel_replicate_blocks / ReplicatePlan
//                       per-index RNG streams → bit-identical Monte-Carlo
//                       results at any thread count; a ReplicatePlan runs
//                       many such ranges as one region  (parallel_replicate.h)
//
// Consumers receive an ExecContext (exec_context.h) through their config
// structs; ExecContext::serial() is the default, and ctx.inline_view() is
// what nested regions use when an outer loop owns the hardware.
#pragma once

#include "src/exec/exec_context.h"        // IWYU pragma: export
#include "src/exec/parallel_for.h"        // IWYU pragma: export
#include "src/exec/parallel_replicate.h"  // IWYU pragma: export
#include "src/exec/thread_pool.h"         // IWYU pragma: export
