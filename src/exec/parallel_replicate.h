// Replicate ranges: the deterministic Monte-Carlo fan-out primitive.
//
// Every task index derives its own RNG stream from (master seed, tag, index),
// so replication results are bit-identical for every thread count — 1 thread,
// N threads, and the serial fallback all produce the same vector. This is the
// repo-wide replacement for "loop r times drawing from one shared Rng&",
// which is inherently order-dependent and therefore unparallelizable.
// Three entry points: parallel_replicate_range (one range, one result per
// index), parallel_replicate_blocks (one range in blocks of indices, for
// SIMD-lane kernels) and ReplicatePlan::add (several ranges as one region,
// with the bits the separate calls give; parallel_replicate_range is a
// one-range plan). A caller that holds a parent Rng passes
// `master.next_u64()` as the master seed: exactly one draw, independent of
// the range and the thread count, so shard runs advance the parent stream
// as the unsharded run does.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string_view>
#include <type_traits>
#include <vector>

#include "src/exec/exec_context.h"
#include "src/exec/parallel_for.h"
#include "src/rngx/rng.h"

namespace varbench::exec {

/// The seed of replicate index `index` within the (master, tag) stream:
/// the index-th output of the SplitMix64 sequence started at the derived
/// stream seed. Adjacent indices give statistically independent streams.
[[nodiscard]] constexpr std::uint64_t replicate_seed(std::uint64_t stream_seed,
                                                     std::uint64_t index) {
  std::uint64_t state =
      stream_seed + index * 0x9E3779B97F4A7C15ULL;  // jump to element `index`
  return rngx::splitmix64(state);
}

/// The balanced contiguous partition of [0, n) into `shard_count` slices:
/// slice i gets floor/ceil(n / count) items, earlier slices the larger share.
/// shard_subrange(n, 0, 1) == {0, n}; slices for i = 0..count-1 tile [0, n).
[[nodiscard]] constexpr IndexRange shard_subrange(std::size_t n,
                                                  std::size_t shard_index,
                                                  std::size_t shard_count) {
  const std::size_t base = n / shard_count;
  const std::size_t extra = n % shard_count;
  const std::size_t begin =
      shard_index * base + (shard_index < extra ? shard_index : extra);
  const std::size_t len = base + (shard_index < extra ? 1 : 0);
  return IndexRange{begin, begin + len};
}

/// Most replicates one parallel_replicate_blocks block holds.
inline constexpr std::size_t kMaxReplicateBlock = 64;

/// The blocked form, for kernels that run several replicates at once (one
/// SIMD lane each): run `fn(block, seeds)` for the consecutive blocks of
/// `block_size` global indices tiling `range` (the last may be shorter),
/// in parallel over blocks. seeds[j] is the seed of global index
/// block.begin + j within the (master_seed, tag) stream, so an Rng (or a
/// lane) seeded with it draws exactly that replicate's stream. `fn` must
/// not depend on how blocks are spread over threads.
template <typename Fn>
void parallel_replicate_blocks(const ExecContext& ctx, IndexRange range,
                               std::size_t block_size,
                               std::uint64_t master_seed, std::string_view tag,
                               Fn&& fn) {
  if (block_size == 0 || block_size > kMaxReplicateBlock) {
    throw std::invalid_argument{"parallel_replicate_blocks: block size"};
  }
  const std::uint64_t stream_seed = rngx::derive_seed(master_seed, tag);
  const std::size_t blocks = (range.size() + block_size - 1) / block_size;
  parallel_for(ctx, 0, blocks, [&](std::size_t k) {
    const std::size_t begin = range.begin + k * block_size;
    const IndexRange block{begin, std::min(range.end, begin + block_size)};
    std::array<std::uint64_t, kMaxReplicateBlock> seeds;  // first size() set
    for (std::size_t j = 0; j < block.size(); ++j) {
      seeds[j] = replicate_seed(stream_seed, block.begin + j);
    }
    fn(block, std::span<const std::uint64_t>{seeds.data(), block.size()});
  });
}

/// Several replicate ranges run as one parallel region (docs/determinism.md
/// §2). `add` takes a range, its master seed, its tag and
/// `fn(global_index, rng)`, and returns the vector `run` fills: out[j] is
/// global index range.begin + j, computed with the child Rng derived from
/// (master seed, tag, global index) — exactly what a separate
/// parallel_replicate_range call gives. `run(ctx)` computes every added
/// range in one region: each range is cut alone, as parallel_for cuts one
/// range, and the chunk lists are concatenated in add order, so no chunk
/// spans two ranges and one thread runs the ranges in add order. The plan
/// owns each `fn` (a copy) and result vector; whatever the `fn`s refer to
/// must outlive `run`. T must be default-constructible and movable.
class ReplicatePlan {
 public:
  template <typename T, typename Fn>
  std::vector<T>& add(IndexRange range, std::uint64_t master_seed,
                      std::string_view tag, Fn&& fn) {
    auto added = std::make_unique<Range<T, std::decay_t<Fn>>>(
        range, rngx::derive_seed(master_seed, tag), std::forward<Fn>(fn));
    std::vector<T>& out = added->out;
    ranges_.push_back(std::move(added));
    return out;
  }

  /// Compute every added range; blocks until done. Inside another region
  /// (or on one thread) the ranges run inline, one chunk each, in add
  /// order. The first exception thrown by any `fn` is rethrown here.
  void run(const ExecContext& ctx) {
    std::size_t n = 0;
    for (const auto& r : ranges_) n += r->range.size();
    if (n == 0) return;
    const std::size_t threads = detail::region_threads(ctx, n);
    std::vector<IndexRange> chunks;
    std::vector<RangeBase*> owner;  // the range chunk c belongs to
    for (const auto& r : ranges_) {
      if (r->range.size() == 0) continue;
      if (threads <= 1) {
        chunks.push_back(r->range);
      } else {
        detail::cut_chunks(r->range, std::min(threads, r->range.size()), 0,
                           chunks);
      }
      owner.resize(chunks.size(), r.get());
    }
    detail::run_region(ctx, threads, chunks,
                       [&](std::size_t c) { owner[c]->run(chunks[c]); });
  }

 private:
  struct RangeBase {
    RangeBase(IndexRange r, std::uint64_t seed)
        : range(r), stream_seed(seed) {}
    RangeBase(const RangeBase&) = delete;
    RangeBase& operator=(const RangeBase&) = delete;
    virtual ~RangeBase() = default;
    /// Compute the global indices of `chunk`, a slice of `range`.
    virtual void run(IndexRange chunk) = 0;

    IndexRange range;
    std::uint64_t stream_seed;
  };

  template <typename T, typename Fn>
  struct Range final : RangeBase {
    Range(IndexRange r, std::uint64_t seed, Fn f)
        : RangeBase(r, seed), fn(std::move(f)), out(r.size()) {}
    void run(IndexRange chunk) override {
      for (std::size_t i = chunk.begin; i < chunk.end; ++i) {
        rngx::Rng rng{replicate_seed(stream_seed, i)};
        out[i - range.begin] = fn(i, rng);
      }
    }

    Fn fn;
    std::vector<T> out;
  };

  std::vector<std::unique_ptr<RangeBase>> ranges_;
};

/// Run `fn(global_index, rng)` for every global index in `range`, each with
/// an independent child Rng derived from (master_seed, tag, global_index),
/// and collect the results in index order (out[j] is global index
/// range.begin + j): a one-range ReplicatePlan.
template <typename T, typename Fn>
[[nodiscard]] std::vector<T> parallel_replicate_range(
    const ExecContext& ctx, IndexRange range, std::uint64_t master_seed,
    std::string_view tag, Fn&& fn) {
  ReplicatePlan plan;
  std::vector<T>& out =
      plan.add<T>(range, master_seed, tag, std::forward<Fn>(fn));
  plan.run(ctx);
  return std::move(out);
}

}  // namespace varbench::exec
