// Data-plane tests (the `dataplane_smoke` ctest target): compiled-table-
// vs-trie differential oracle across seeded compiles, query-mix coverage,
// and first-hop equivalence against Simulator::trace().
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "algebra/gr_path_algebra.hpp"
#include "dataplane/compiler.hpp"
#include "dataplane/lpm_table.hpp"
#include "dataplane/serve.hpp"
#include "engine/simulator.hpp"
#include "paper_networks.hpp"
#include "prefix/prefix_trie.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace dragon::dataplane {
namespace {

using algebra::GrClass;
using algebra::GrPathAlgebra;
using fibcomp::Fib;
using fibcomp::kDrop;
using fibcomp::kLocal;
using fibcomp::NextHop;
using prefix::Address;
using prefix::Prefix;
using F1 = dragon::testing::Figure1;
using dragon::testing::quiesce;

Prefix bp(const char* s) { return *Prefix::from_bit_string(s); }

Fib random_fib(util::Rng& rng, std::size_t entries) {
  Fib fib;
  fib.reserve(entries);
  for (std::size_t i = 0; i < entries; ++i) {
    const int len = static_cast<int>(rng.below(33));
    const Prefix p(static_cast<Address>(rng()), len);
    NextHop nh;
    if (rng.chance(0.05)) {
      nh = kDrop;
    } else if (rng.chance(0.05)) {
      nh = kLocal;
    } else {
      nh = static_cast<NextHop>(rng.below(1000));
    }
    fib.push_back({p, nh});
  }
  return fib;
}

/// Boundary addresses of every prefix (first, last, the neighbours just
/// outside) — where an LPM implementation disagreement would hide.
std::vector<Address> boundary_probes(const Fib& fib) {
  std::vector<Address> probes;
  probes.reserve(4 * fib.size() + 1);
  for (const auto& e : fib) {
    const Address first = e.prefix.first_address();
    const std::uint64_t after = first + e.prefix.size();
    probes.push_back(first);
    probes.push_back(static_cast<Address>(after - 1));
    if (first > 0) probes.push_back(first - 1);
    if (after <= 0xFFFFFFFFull) probes.push_back(static_cast<Address>(after));
  }
  probes.push_back(0);
  return probes;
}

void expect_matches_trie(const LpmTable& table, const Fib& fib,
                         util::Rng& rng, std::size_t random_probes) {
  const auto trie = fibcomp::build_trie(fib);
  for (const Address addr : boundary_probes(fib)) {
    ASSERT_EQ(table.lookup(addr), fibcomp::lookup(trie, addr))
        << "boundary addr " << addr;
  }
  for (std::size_t i = 0; i < random_probes; ++i) {
    const auto addr = static_cast<Address>(rng());
    ASSERT_EQ(table.lookup(addr), fibcomp::lookup(trie, addr))
        << "random addr " << addr;
  }
}

// ---------------------------------------------------------------------------
// LpmTable compile + lookup
// ---------------------------------------------------------------------------

TEST(DataplaneSmoke, TableMatchesTrieOnHandCases) {
  // Nested prefixes straddling the root/bucket boundary, a default route,
  // and a full /32 (two chained buckets below the /16 root).
  const Fib fib{
      {bp(""), 7},                        // /0 default
      {bp("1"), 1},                       {bp("10"), 2},
      {bp("101"), 3},                     {Prefix(0x80000000u, 20), 4},
      {Prefix(0x80000100u, 26), 5},       {Prefix(0x80000142u, 32), 6},
      {Prefix(0xFFFFFF00u, 24), kLocal},  {Prefix(0x00000000u, 9), kDrop},
  };
  util::Rng rng(1);
  const auto table = LpmTable::compile(fib);
  expect_matches_trie(table, fib, rng, 2000);
  EXPECT_EQ(table.stats().entries, fib.size());
  ASSERT_EQ(table.stats().bucket_depth_hist.size(), 2u);
  EXPECT_GE(table.stats().bucket_depth_hist[1], 1u);
}

TEST(DataplaneSmoke, EmptyAndSingleEntryTables) {
  const auto empty = LpmTable::compile({});
  EXPECT_EQ(empty.lookup(0), kDrop);
  EXPECT_EQ(empty.lookup(0xFFFFFFFFu), kDrop);
  EXPECT_EQ(empty.stats().bucket_count, 0u);

  const auto root = LpmTable::compile({{bp(""), 42}});
  EXPECT_EQ(root.lookup(0), 42u);
  EXPECT_EQ(root.lookup(0x12345678u), 42u);
}

TEST(DataplaneSmoke, PaletteDedupesNextHops) {
  const Fib fib{{bp("0"), 9}, {bp("10"), 9}, {bp("110"), 9}, {bp("111"), 5}};
  const auto table = LpmTable::compile(fib);
  EXPECT_EQ(table.stats().palette_size, 2u);
}

TEST(DataplaneSmoke, DuplicatePrefixLaterEntryWins) {
  const Fib fib{{bp("10"), 1}, {bp("10"), 2}};
  const auto table = LpmTable::compile(fib);
  const auto trie = fibcomp::build_trie(fib);  // insert overwrites: 2 wins
  const Address a = bp("10").first_address();
  EXPECT_EQ(table.lookup(a), 2u);
  EXPECT_EQ(table.lookup(a), fibcomp::lookup(trie, a));
}

TEST(DataplaneSmoke, BucketDepthHistogramCountsChains) {
  // /24 and /32 below the /16 root: one depth-1 and one depth-2 bucket.
  const Fib fib{{Prefix(0x0A000000u, 24), 1}, {Prefix(0x0A000010u, 32), 2}};
  const auto table = LpmTable::compile(fib);
  ASSERT_EQ(table.stats().bucket_depth_hist.size(), 2u);
  EXPECT_EQ(table.stats().bucket_depth_hist[0], 1u);
  EXPECT_EQ(table.stats().bucket_depth_hist[1], 1u);
  EXPECT_EQ(table.stats().bucket_count, 2u);
  EXPECT_EQ(table.stats().table_bytes,
            (table.stats().bucket_count * 256 +
             (std::size_t{1} << LpmTable::kTopBits) +
             table.stats().palette_size) *
                sizeof(std::uint32_t));
}

// ---------------------------------------------------------------------------
// Sentinel-hazard guard (fibcomp satellite)
// ---------------------------------------------------------------------------

TEST(DataplaneSmoke, CompileRejectsUndefinedSentinelNextHops) {
  const Fib bad{{bp("1"), fibcomp::kSentinelBase}};
  EXPECT_THROW((void)LpmTable::compile(bad), std::invalid_argument);
  EXPECT_THROW((void)fibcomp::build_trie(bad), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Differential oracle across >= 100 seeded compiles
// ---------------------------------------------------------------------------

TEST(DataplaneSmoke, DifferentialOracleAcrossCompileSwapCycles) {
  util::Rng rng(20260808);
  for (int cycle = 0; cycle < 110; ++cycle) {
    const std::size_t entries = 20 + rng.below(60);
    const Fib fib = random_fib(rng, entries);
    const auto table = LpmTable::compile(fib);
    expect_matches_trie(table, fib, rng, 200);
  }
}

// ---------------------------------------------------------------------------
// Query serving
// ---------------------------------------------------------------------------

TEST(DataplaneSmoke, ServeReplaysTheStreamOfItsSeed) {
  util::Rng rng(7);
  const Fib fib = random_fib(rng, 50);
  QueryMix mix;
  mix.kind = QueryMix::Kind::kZipf;
  mix.zipf_s = 1.1;
  mix.miss_fraction = 0.1;
  const QueryGen gen(fib, mix);
  const auto table = LpmTable::compile(fib);

  const ServeResult r = serve(table, gen, /*seed=*/42, /*count=*/20000);
  EXPECT_EQ(r.lookups, 20000u);
  EXPECT_GT(r.hits, 0u);
  EXPECT_LT(r.hits, r.lookups);
  // serve() counts exactly the non-drop lookups of Rng(seed)'s draws.
  util::Rng replay(42);
  std::uint64_t hits = 0;
  for (int q = 0; q < 20000; ++q) {
    if (table.lookup(gen.draw(replay)) != kDrop) ++hits;
  }
  EXPECT_EQ(r.hits, hits);
}

TEST(DataplaneSmoke, ZipfQueriesHitTheFib) {
  // With miss_fraction = 0 every draw lands inside some FIB prefix, so a
  // FIB with no kDrop entries answers every query.
  const Fib fib{{bp("0"), 1}, {bp("10"), 2}, {bp("11"), 3}};
  QueryMix mix;
  mix.kind = QueryMix::Kind::kZipf;
  const auto table = LpmTable::compile(fib);
  const ServeResult r = serve(table, QueryGen(fib, mix), 5, 5000);
  EXPECT_EQ(r.lookups, 5000u);
  EXPECT_EQ(r.hits, r.lookups);

  // On an empty FIB QueryGen draws whole-space addresses, which a table
  // holding only "0" answers about half the time.
  const QueryGen whole_space(Fib{}, mix);
  EXPECT_EQ(whole_space.prefix_count(), 0u);
  const auto half = LpmTable::compile({{bp("0"), 1}});
  const ServeResult w = serve(half, whole_space, 3, 4000);
  EXPECT_EQ(w.lookups, 4000u);
  EXPECT_GT(w.hits, 1000u);
  EXPECT_LT(w.hits, 3000u);
}

TEST(DataplaneSmoke, ServeBeforeFirstPublishDropsEverything) {
  // A node with no routes yet serves from the table compiled from an
  // empty FIB: every query is counted and every one is dropped.
  const QueryGen gen(Fib{}, {});
  const ServeResult r = serve(LpmTable::compile({}), gen, /*seed=*/3, 100);
  EXPECT_EQ(r.lookups, 100u);
  EXPECT_EQ(r.hits, 0u);
}

// ---------------------------------------------------------------------------
// Compile-from-snapshot: first-hop equivalence with the engine
// ---------------------------------------------------------------------------

TEST(DataplaneSmoke, CompiledTableMatchesEngineTrace) {
  const auto topo = F1::topology();
  GrPathAlgebra alg;
  engine::Config config;
  config.mrai = 0.5;
  config.link_delay = 0.01;
  config.enable_dragon = true;
  config.l_attr = [](algebra::Attr a) {
    return static_cast<std::uint32_t>(GrPathAlgebra::class_of(a));
  };
  engine::Simulator sim(topo, alg, config);
  const algebra::Attr origin_attr = GrPathAlgebra::make(GrClass::kCustomer, 0);
  sim.originate(bp("10"), F1::origin_p, origin_attr);
  sim.originate(bp("10000"), F1::origin_q, origin_attr);
  quiesce(sim);

  util::Rng rng(11);
  const auto fibs = fibs_from_simulator(sim, SnapshotKind::kPostDragon);
  for (topology::NodeId u = 0; u < topo.node_count(); ++u) {
    const auto table = LpmTable::compile(fibs[u]);

    std::vector<Address> probes = boundary_probes(fibs[u]);
    for (int i = 0; i < 200; ++i) {
      probes.push_back(static_cast<Address>(rng()));
    }
    for (const Address addr : probes) {
      const auto tr = sim.trace(u, addr);
      NextHop expect = kDrop;
      if (tr.outcome == engine::Simulator::Outcome::kDelivered &&
          tr.path.size() == 1) {
        expect = kLocal;
      } else if (tr.path.size() >= 2) {
        expect = static_cast<NextHop>(tr.path[1]);
      }
      ASSERT_EQ(table.lookup(addr), expect)
          << "node " << u << " addr " << addr;
    }
  }
}

TEST(DataplaneSmoke, PreDragonSnapshotKeepsFilteredEntries) {
  const auto topo = F1::topology();
  GrPathAlgebra alg;
  engine::Config config;
  config.mrai = 0.5;
  config.link_delay = 0.01;
  config.enable_dragon = true;
  config.l_attr = [](algebra::Attr a) {
    return static_cast<std::uint32_t>(GrPathAlgebra::class_of(a));
  };
  engine::Simulator sim(topo, alg, config);
  const algebra::Attr origin_attr = GrPathAlgebra::make(GrClass::kCustomer, 0);
  sim.originate(bp("10"), F1::origin_p, origin_attr);
  sim.originate(bp("10000"), F1::origin_q, origin_attr);
  quiesce(sim);

  const auto pre = fibs_from_simulator(sim, SnapshotKind::kPreDragon);
  const auto post = fibs_from_simulator(sim, SnapshotKind::kPostDragon);
  std::size_t pre_total = 0;
  std::size_t post_total = 0;
  for (topology::NodeId u = 0; u < topo.node_count(); ++u) {
    EXPECT_GE(pre[u].size(), post[u].size()) << u;
    pre_total += pre[u].size();
    post_total += post[u].size();
    // Filtering drops entries; it never changes a kept entry's next hop.
    for (const auto& e : post[u]) {
      EXPECT_NE(std::find(pre[u].begin(), pre[u].end(), e), pre[u].end())
          << "node " << u << " prefix " << e.prefix.to_cidr();
    }
  }
  // DRAGON filters q somewhere in Figure 1, so the totals must differ.
  EXPECT_GT(pre_total, post_total);
}

}  // namespace
}  // namespace dragon::dataplane
