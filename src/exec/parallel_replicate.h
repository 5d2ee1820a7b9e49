// parallel_replicate: the deterministic Monte-Carlo fan-out primitive.
//
// Every task index derives its own RNG stream from (master seed, tag, index),
// so replication results are bit-identical for every thread count — 1 thread,
// N threads, and the serial fallback all produce the same vector. This is the
// repo-wide replacement for "loop r times drawing from one shared Rng&",
// which is inherently order-dependent and therefore unparallelizable.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string_view>
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

/// A contiguous slice [begin, end) of a replicate index space — the unit of
/// process-level sharding. Per-index RNG streams are keyed by the *global*
/// index, so computing any subrange yields exactly the values the full run
/// would produce at those indices (docs/study_api.md).
struct IndexRange {
  std::size_t begin = 0;
  std::size_t end = 0;

  [[nodiscard]] constexpr std::size_t size() const { return end - begin; }
  friend constexpr bool operator==(const IndexRange&,
                                   const IndexRange&) = default;
};

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

/// As above with the master seed drawn from `master` — exactly one draw.
template <typename Fn>
void parallel_replicate_blocks(const ExecContext& ctx, IndexRange range,
                               std::size_t block_size, rngx::Rng& master,
                               std::string_view tag, Fn&& fn) {
  parallel_replicate_blocks(ctx, range, block_size, master.next_u64(), tag,
                            std::forward<Fn>(fn));
}

/// Run `fn(global_index, rng)` for every global index in `range`, each with
/// an independent child Rng derived from (master_seed, tag, global_index),
/// and collect the results in index order (out[j] is global index
/// range.begin + j). T must be default-constructible and movable.
template <typename T, typename Fn>
[[nodiscard]] std::vector<T> parallel_replicate_range(
    const ExecContext& ctx, IndexRange range, std::uint64_t master_seed,
    std::string_view tag, Fn&& fn) {
  std::vector<T> out(range.size());
  parallel_replicate_blocks(
      ctx, range, 1, master_seed, tag,
      [&](IndexRange one, std::span<const std::uint64_t> seed) {
        rngx::Rng rng{seed[0]};
        out[one.begin - range.begin] = fn(one.begin, rng);
      });
  return out;
}

/// As above with the master seed drawn from `master` — exactly one draw,
/// independent of the range, the total n, and the thread count, so shard
/// runs advance the parent stream identically to the unsharded run.
template <typename T, typename Fn>
[[nodiscard]] std::vector<T> parallel_replicate_range(const ExecContext& ctx,
                                                      IndexRange range,
                                                      rngx::Rng& master,
                                                      std::string_view tag,
                                                      Fn&& fn) {
  return parallel_replicate_range<T>(ctx, range, master.next_u64(), tag,
                                     std::forward<Fn>(fn));
}

/// Run `fn(index, rng)` for index in [0, n), each with an independent child
/// Rng derived from (master_seed, tag, index), and collect the results in
/// index order. T must be default-constructible and movable.
template <typename T, typename Fn>
[[nodiscard]] std::vector<T> parallel_replicate(const ExecContext& ctx,
                                                std::size_t n,
                                                std::uint64_t master_seed,
                                                std::string_view tag, Fn&& fn) {
  return parallel_replicate_range<T>(ctx, IndexRange{0, n}, master_seed, tag,
                                     std::forward<Fn>(fn));
}

/// As above, but the master seed is drawn from `master` — exactly one draw,
/// independent of n and of the thread count, so the parent stream advances
/// identically in serial and parallel runs.
template <typename T, typename Fn>
[[nodiscard]] std::vector<T> parallel_replicate(const ExecContext& ctx,
                                                std::size_t n,
                                                rngx::Rng& master,
                                                std::string_view tag, Fn&& fn) {
  return parallel_replicate<T>(ctx, n, master.next_u64(), tag,
                               std::forward<Fn>(fn));
}

}  // namespace varbench::exec
