// Batched LPM query serving over a compiled table.
//
// Query streams come from a QueryGen (uniform or Zipf-skewed mixes over
// the FIB's prefixes) driven by per-chunk RNG streams forked exec-style,
// so serve() is bit-identical for any thread count.  An LpmTable is
// immutable after compile, so any number of pool workers can share one
// `const LpmTable&`; workers return plain BatchResults that the calling
// thread sums after the join.
#pragma once

#include <cstdint>
#include <vector>

#include "dataplane/lpm_table.hpp"
#include "exec/thread_pool.hpp"
#include "fibcomp/fib.hpp"
#include "util/rng.hpp"

namespace dragon::dataplane {

/// What addresses a synthetic query stream draws.
struct QueryMix {
  enum class Kind {
    kUniform,  ///< every FIB prefix equally likely
    kZipf,     ///< prefix i (FIB order) weighted 1/(i+1)^s — skewed traffic
  };
  Kind kind = Kind::kUniform;
  double zipf_s = 1.0;
  /// Fraction of queries drawn uniformly over the whole 32-bit address
  /// space instead of inside a FIB prefix (mostly misses).
  double miss_fraction = 0.0;
};

/// Precompiled sampler: draw(rng) returns one query address.  Immutable
/// after construction — shareable across reader threads.
class QueryGen {
 public:
  QueryGen(const fibcomp::Fib& fib, QueryMix mix);

  [[nodiscard]] prefix::Address draw(util::Rng& rng) const noexcept;

  [[nodiscard]] std::size_t prefix_count() const noexcept {
    return first_.size();
  }

 private:
  QueryMix mix_;
  // Parallel arrays (hot loop: no Prefix methods, just adds).
  std::vector<prefix::Address> first_;
  std::vector<std::uint64_t> size_;
  std::vector<double> cdf_;  ///< Zipf CDF over prefixes; empty for uniform
};

/// One reader's tally over a batch of queries.  checksum is an
/// order-independent sum of per-query hashes, so chunk results combine
/// associatively and a parallel serve can be compared bit-for-bit
/// against a serial one.
struct BatchResult {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;  ///< results != kDrop
  std::uint64_t checksum = 0;

  BatchResult& operator+=(const BatchResult& o) noexcept {
    lookups += o.lookups;
    hits += o.hits;
    checksum += o.checksum;
    return *this;
  }
};

/// Serves `count` queries drawn from `gen` against `table`, split over
/// exec::kDefaultChunks exec::static_chunks ranges on `pool` (nullptr:
/// inline).  Chunk i draws from Rng(seed).fork_stream(i), so the combined
/// result is identical for any thread count.
[[nodiscard]] BatchResult serve(const LpmTable& table, const QueryGen& gen,
                                exec::ThreadPool* pool, std::uint64_t seed,
                                std::uint64_t count);

}  // namespace dragon::dataplane
