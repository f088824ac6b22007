#include "topology/generator.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace dragon::topology {

namespace {

constexpr NodeId kNoNode = 0xFFFFFFFFu;

/// Per-extra-provider continuation probability of the truncated-geometric
/// multihoming draw (success p stops the draw; mean providers ~ 1/p).
constexpr double kMultihomeStop = 0.45;
constexpr std::uint32_t kMaxProviders = 6;
/// Expected number of transit-transit peer links per transit AS.
constexpr double kTransitPeeringDegree = 1.5;
/// Probability that a provider or peer is drawn from the same region.
constexpr double kSameRegionBias = 0.8;
/// Probability that a regional AS connects under its region's hub
/// transit (the "national incumbent"); aligns customer cones with the
/// registry pools, which drives aggregation effectiveness (§3.7).
constexpr double kHubBias = 0.6;

/// Draws a provider for `node` among candidate transit-or-tier1 nodes,
/// preferring the same region and attaching preferentially to nodes that
/// already have many customers (heavy-tailed degrees).  Returns the chosen
/// provider, avoiding duplicates with `existing`.
NodeId pick_provider(const GeneratedTopology& gen,
                     const std::vector<NodeId>& candidates, NodeId node,
                     const std::vector<NodeId>& existing, util::Rng& rng) {
  const std::uint32_t my_region = gen.region[node];
  const bool want_same_region = rng.chance(kSameRegionBias);
  // Preferential attachment: weight 1 + current customer count.  Filter by
  // region on a first pass; fall back to all candidates if the region has
  // no eligible provider.
  for (int pass = 0; pass < 2; ++pass) {
    const bool region_filter = want_same_region && pass == 0;
    std::vector<double> weights;
    std::vector<NodeId> eligible;
    weights.reserve(candidates.size());
    eligible.reserve(candidates.size());
    for (NodeId c : candidates) {
      if (c == node) continue;
      if (region_filter && gen.region[c] != my_region) continue;
      if (std::find(existing.begin(), existing.end(), c) != existing.end()) {
        continue;
      }
      eligible.push_back(c);
      // Superlinear preferential attachment: real transit hierarchies are
      // dominated by a few very large providers whose customer cones cover
      // most of the Internet (CAIDA cone data); the exponent fattens the
      // tail enough to reproduce that.
      const double customers =
          static_cast<double>(gen.graph.customer_count(c));
      weights.push_back(1.0 + customers * std::sqrt(1.0 + customers));
    }
    if (!eligible.empty()) return eligible[rng.weighted(weights)];
  }
  return node;  // sentinel: no provider available
}

}  // namespace

GeneratedTopology generate_internet(const GeneratorParams& params) {
  GeneratedTopology gen;
  util::Rng rng(params.seed);
  const std::uint32_t total =
      params.tier1_count + params.transit_count + params.stub_count;
  gen.role.reserve(total);
  gen.region.reserve(total);

  // Tier-1 clique.
  std::vector<NodeId> tier1;
  for (std::uint32_t i = 0; i < params.tier1_count; ++i) {
    const NodeId u = gen.graph.add_node();
    gen.role.push_back(Role::kTier1);
    gen.region.push_back(
        static_cast<std::uint32_t>(rng.below(params.regions)));
    for (NodeId v : tier1) gen.graph.add_peer_peer(u, v);
    tier1.push_back(u);
  }

  // Transit ASs attach to earlier transit/tier-1 nodes only, so the
  // customer->provider digraph is acyclic by construction.  The first
  // transit of each region is that region's "hub" (the national incumbent
  // carrier): later regional ASs connect under it with high probability,
  // which is what aligns customer cones with the registries' regional
  // address pools (and in turn makes §3.7 aggregation effective, as the
  // paper observes on the real topology).
  std::vector<NodeId> transit_or_tier1 = tier1;
  std::vector<NodeId> transits;
  std::vector<NodeId> hub(params.regions, kNoNode);
  for (std::uint32_t i = 0; i < params.transit_count; ++i) {
    const NodeId u = gen.graph.add_node();
    gen.role.push_back(Role::kTransit);
    const auto region = static_cast<std::uint32_t>(rng.below(params.regions));
    gen.region.push_back(region);
    const std::uint64_t provider_count =
        rng.truncated_geometric(kMultihomeStop, kMaxProviders);
    std::vector<NodeId> chosen;
    if (hub[region] == kNoNode) {
      hub[region] = u;  // the hub itself attaches straight to tier-1s
    } else if (rng.chance(kHubBias)) {
      chosen.push_back(hub[region]);
      gen.graph.add_provider_customer(hub[region], u);
    }
    for (std::uint64_t k = chosen.size(); k < provider_count; ++k) {
      const auto& pool = hub[region] == u ? tier1 : transit_or_tier1;
      const NodeId p = pick_provider(gen, pool, u, chosen, rng);
      if (p == u) break;
      chosen.push_back(p);
      gen.graph.add_provider_customer(p, u);
    }
    transit_or_tier1.push_back(u);
    transits.push_back(u);
  }

  // Stubs attach to transit (preferred) or tier-1 providers.
  const std::vector<NodeId>& stub_candidates =
      transits.empty() ? tier1 : transits;
  for (std::uint32_t i = 0; i < params.stub_count; ++i) {
    const NodeId u = gen.graph.add_node();
    gen.role.push_back(Role::kStub);
    gen.region.push_back(
        static_cast<std::uint32_t>(rng.below(params.regions)));
    const std::uint64_t provider_count =
        rng.truncated_geometric(kMultihomeStop, kMaxProviders);
    std::vector<NodeId> chosen;
    for (std::uint64_t k = 0; k < provider_count; ++k) {
      // Mostly transit providers, occasionally direct tier-1 connections.
      const auto& pool =
          (!transits.empty() && !rng.chance(0.05)) ? stub_candidates : tier1;
      const NodeId p = pick_provider(gen, pool, u, chosen, rng);
      if (p == u) break;
      chosen.push_back(p);
      gen.graph.add_provider_customer(p, u);
    }
    // A stub must have at least one provider for policy-connectivity, and
    // connects under the regional hub with the configured bias.
    if (chosen.empty()) {
      gen.graph.add_provider_customer(rng.pick(tier1), u);
    } else if (const NodeId h = hub[gen.region[u]];
               h != kNoNode && !gen.graph.linked(h, u) &&
               rng.chance(kHubBias) && h != u) {
      gen.graph.add_provider_customer(h, u);
    }
  }

  // Transit-transit peering, biased to same region.
  if (!transits.empty()) {
    const auto target = static_cast<std::size_t>(
        kTransitPeeringDegree * static_cast<double>(transits.size()) / 2.0);
    std::size_t added = 0;
    std::size_t attempts = 0;
    const std::size_t max_attempts = target * 20 + 100;
    while (added < target && attempts++ < max_attempts) {
      const NodeId a = rng.pick(transits);
      NodeId b = rng.pick(transits);
      if (rng.chance(kSameRegionBias)) {
        // Retry a few times for a same-region partner.
        for (int t = 0; t < 4 && gen.region[b] != gen.region[a]; ++t) {
          b = rng.pick(transits);
        }
      }
      if (a == b || gen.graph.linked(a, b)) continue;
      gen.graph.add_peer_peer(a, b);
      ++added;
    }
  }

  return gen;
}

std::size_t add_ixp_peering(GeneratedTopology& gen, std::size_t count,
                            util::Rng& rng) {
  std::vector<NodeId> eligible;
  for (NodeId u = 0; u < gen.graph.node_count(); ++u) {
    if (gen.role[u] != Role::kTier1) eligible.push_back(u);
  }
  if (eligible.size() < 2) return 0;
  std::size_t added = 0;
  std::size_t attempts = 0;
  const std::size_t max_attempts = count * 50 + 100;
  while (added < count && attempts++ < max_attempts) {
    const NodeId a = rng.pick(eligible);
    const NodeId b = rng.pick(eligible);
    if (a == b || gen.region[a] != gen.region[b] || gen.graph.linked(a, b)) {
      continue;
    }
    gen.graph.add_peer_peer(a, b);
    ++added;
  }
  return added;
}

}  // namespace dragon::topology
