// Deterministic data-parallel primitives over a ThreadPool.
//
// The contract that everything in this header upholds: **for a fixed
// chunk count, results are bit-identical for any thread count, including
// 1** (and for pool == nullptr, which runs inline).  Two rules make
// that hold:
//
//   1. Static chunking.  [0, n) is split into a chunk list that is a pure
//      function of (n, chunks) — never of runtime timing.  Chunks are the
//      unit of scheduling; which worker runs a chunk is irrelevant
//      because chunks never share mutable state.
//   2. A task owns its metrics; callers merge results in index order.
//      The runtime hands bodies no shared registry: a body that counts
//      things returns them in its result (or writes its own slot), and
//      the caller folds the results on its own thread after the join.
//
// Scheduling is an atomic chunk ticket: the calling thread (inline) or
// one task per worker lane (pooled) runs the same drain loop, claiming
// chunks with fetch_add until the ticket runs dry.  Load balancing is
// automatic — a lane stuck on a heavy chunk simply claims fewer — and
// there is no per-chunk packaged_task/future/queue-mutex round trip.
//
// Default granularity: when opts.chunks == 0 the chunk count adapts to
// the pool — 1 chunk inline or on a 1-worker pool, else
// min(n, workers * kChunksPerWorker).  The adaptive default therefore
// DEPENDS on the pool size: bodies that consume per-chunk identity
// (ctx.chunk) and need cross-thread-count bit-identity must pin
// opts.chunks explicitly.
//
// Exception propagation: if any chunk body throws, every chunk still
// runs, then parallel_for rethrows the lowest-indexed failing chunk's
// exception (stable error reporting across thread counts).
// See DESIGN.md §8 ("Parallel execution runtime").
#pragma once

#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

#include "exec/thread_pool.hpp"

namespace dragon::exec {

/// Per-chunk execution context handed to every body invocation.
struct TaskContext {
  /// Chunk index in [0, chunk_count) — stable across thread counts.
  std::size_t chunk = 0;
};

struct ParallelOptions {
  /// Fixed chunk count; 0 picks the adaptive default (1 when inline or on
  /// a 1-worker pool, else min(n, workers * kChunksPerWorker), which
  /// varies with the pool size).  Pin this to a constant when the body
  /// consumes per-chunk identity and results must be bit-identical across
  /// thread counts.
  std::size_t chunks = 0;
};

/// Chunks per worker under the adaptive default: enough slack for the
/// ticket scheduler to balance uneven chunks without shrinking chunks to
/// per-item dispatch.
inline constexpr std::size_t kChunksPerWorker = 8;

/// Splits [0, n) into at most `chunks` contiguous [begin, end) ranges of
/// near-equal size (earlier chunks get the remainder).  Pure function of
/// its arguments; empty when n == 0.
[[nodiscard]] std::vector<std::pair<std::size_t, std::size_t>> static_chunks(
    std::size_t n, std::size_t chunks);

/// Runs body(i, ctx) for every i in [0, n), chunked over `pool` (nullptr
/// runs inline on the calling thread with identical semantics).  Blocks
/// until every chunk finished.
void parallel_for(ThreadPool* pool, std::size_t n,
                  const std::function<void(std::size_t, TaskContext&)>& body,
                  const ParallelOptions& opts = {});

/// Like parallel_for, but collects one result per index (R must be
/// default-constructible; each slot is written exactly once, by the chunk
/// owning its index).
template <typename R, typename Fn>
[[nodiscard]] std::vector<R> parallel_map(ThreadPool* pool, std::size_t n,
                                          Fn&& fn,
                                          const ParallelOptions& opts = {}) {
  std::vector<R> out(n);
  parallel_for(
      pool, n,
      [&out, &fn](std::size_t i, TaskContext& ctx) { out[i] = fn(i, ctx); },
      opts);
  return out;
}

}  // namespace dragon::exec
