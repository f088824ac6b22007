// LPM query serving over a compiled table.
//
// Query streams come from a QueryGen (uniform or Zipf-skewed mixes over
// the FIB's prefixes) driven by one util::Rng, so serve() is a pure
// function of (table, gen, seed, count).  bench_dataplane replays the
// same stream against a node's pre- and post-DRAGON tables.
#pragma once

#include <cstdint>
#include <vector>

#include "dataplane/lpm_table.hpp"
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
/// after construction.
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

/// Tally of one serve() call.
struct ServeResult {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;  ///< results != kDrop
};

/// Serves `count` queries drawn from `gen` with Rng(seed) against `table`.
[[nodiscard]] ServeResult serve(const LpmTable& table, const QueryGen& gen,
                                std::uint64_t seed, std::uint64_t count);

}  // namespace dragon::dataplane
