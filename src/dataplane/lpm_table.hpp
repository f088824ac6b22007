// Compiled LPM lookup table — the data-plane forwarding structure.
//
// A DIR-16-8-8 layout: a dense root array indexed by the top kTopBits = 16
// address bits, then chained 256-entry overflow buckets, one 8-bit stride
// per level, for prefixes longer than /16 (a /32 sits two buckets deep).
// Bucket count tracks FIB content, so table bytes measure what DRAGON's
// filtering saves; bench_dataplane compares pre- vs post-DRAGON tables.
//
// Entry encoding (u32, shared by root and buckets):
//   0                      — no match at or below this slot (lookup → kDrop)
//   bit 31 set             — pointer: low 31 bits index a bucket (times 256)
//   otherwise              — 1 + index into the next-hop palette
//
// The palette dedupes next hops: FIBs here have few distinct next hops
// (an AS's neighbour count), so entries stay small u32s while next hops
// keep the full fibcomp::NextHop space including kDrop/kLocal sentinels.
//
// Tables are immutable after compile(); lookup() is const.
#pragma once

#include <cstdint>
#include <vector>

#include "fibcomp/fib.hpp"
#include "prefix/prefix.hpp"

namespace dragon::dataplane {

/// Compile-time facts about a table, exported as dragon.dataplane.* metrics.
struct LpmStats {
  std::size_t entries = 0;       ///< FIB entries compiled in
  std::size_t palette_size = 0;  ///< distinct next hops
  std::size_t bucket_count = 0;  ///< 256-entry overflow buckets allocated
  std::size_t table_bytes = 0;   ///< root + buckets + palette, in bytes
  /// bucket_depth_hist[d] = buckets whose chain depth below the root is
  /// d+1 (a /32 reaches depth 2).
  std::vector<std::size_t> bucket_depth_hist;
};

class LpmTable {
 public:
  /// Width of the dense root index; every deeper level is an 8-bit stride.
  static constexpr int kTopBits = 16;

  /// Compiles a FIB into a flat table.  Throws std::invalid_argument when
  /// the FIB trips check_fib_next_hops; when the same prefix appears twice
  /// the later entry wins (matching PrefixTrie::insert overwrite
  /// semantics).
  [[nodiscard]] static LpmTable compile(const fibcomp::Fib& fib);

  /// Longest-prefix-match lookup; kDrop when nothing matches.  No
  /// allocation.
  [[nodiscard]] fibcomp::NextHop lookup(prefix::Address addr) const noexcept {
    std::uint32_t e = top_[addr >> kRootShift];
    int shift = kRootShift;
    while (e & kBucketBit) {
      shift -= 8;
      e = buckets_[((e & ~kBucketBit) << 8) |
                   ((addr >> shift) & 0xFFu)];
    }
    return e == 0 ? fibcomp::kDrop : palette_[e - 1];
  }

  [[nodiscard]] const LpmStats& stats() const noexcept { return stats_; }

 private:
  static constexpr std::uint32_t kBucketBit = 0x80000000u;
  static constexpr int kRootShift = prefix::kAddressBits - kTopBits;

  LpmTable() = default;

  std::vector<std::uint32_t> top_;
  std::vector<std::uint32_t> buckets_;  ///< flat; bucket b = [256*b, 256*b+256)
  std::vector<fibcomp::NextHop> palette_;
  LpmStats stats_;
};

}  // namespace dragon::dataplane
