// Synthetic Internet-like AS topology generator.
//
// Substitutes for the UCLA inferred topology used in §5.1 (see DESIGN.md).
// The generator reproduces the structural aggregates DRAGON's behaviour
// depends on:
//   * a provider-customer hierarchy, acyclic by construction, anchored at a
//     tier-1 peering clique (hence policy-connected by construction);
//   * a heavy-tailed customer-degree distribution via preferential
//     attachment of providers;
//   * a large stub perimeter (the paper's cleaned topology is 84% stubs);
//   * multi-homing with a truncated-geometric provider count (median 2);
//   * peer links among transit ASs, biased to the same region, plus an
//     optional IXP-style peering injection for the sensitivity experiment;
//   * regions, which the addressing module uses to allocate PI prefixes
//     contiguously per region (mirroring RIR behaviour).
#pragma once

#include <cstdint>
#include <vector>

#include "topology/graph.hpp"
#include "util/rng.hpp"

namespace dragon::topology {

enum class Role : std::uint8_t { kTier1 = 0, kTransit = 1, kStub = 2 };

struct GeneratorParams {
  std::uint32_t tier1_count = 10;
  std::uint32_t transit_count = 150;
  std::uint32_t stub_count = 840;
  std::uint32_t regions = 5;
  std::uint64_t seed = 1;
};

struct GeneratedTopology {
  Topology graph;
  std::vector<Role> role;           // per node
  std::vector<std::uint32_t> region;  // per node
};

/// Generates a topology per the parameters.  Fully deterministic in
/// params.seed.  The result is acyclic in customer->provider links and
/// policy-connected.
[[nodiscard]] GeneratedTopology generate_internet(const GeneratorParams& params);

/// Adds `count` extra peer links between random transit/stub pairs of the
/// same region that are not yet linked (the §5.1 "missing peering links at
/// IXPs" compensation experiment).  Returns the number of links added
/// (may be < count if the graph saturates).
std::size_t add_ixp_peering(GeneratedTopology& topo, std::size_t count,
                            util::Rng& rng);

}  // namespace dragon::topology
