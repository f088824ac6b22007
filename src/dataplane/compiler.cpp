#include "dataplane/compiler.hpp"

#include "algebra/algebra.hpp"
#include "obs/span.hpp"

namespace dragon::dataplane {

std::vector<fibcomp::Fib> fibs_from_simulator(const engine::Simulator& sim,
                                              SnapshotKind kind) {
  DRAGON_SPAN("dataplane", "fib_snapshot_all");
  std::vector<fibcomp::Fib> fibs(sim.topology_used().node_count());
  sim.for_each_route([&](engine::Simulator::NodeId u, const prefix::Prefix& p,
                         const engine::RouteEntry& e) {
    if (e.elected == algebra::kUnreachable) return;
    if (kind == SnapshotKind::kPostDragon && e.filtered) return;
    const auto hop = sim.next_hop(u, e);
    fibs[u].push_back({p, !hop         ? fibcomp::kDrop
                          : *hop == u  ? fibcomp::kLocal
                                       : fibcomp::next_hop_from_node(*hop)});
  });
  return fibs;
}

}  // namespace dragon::dataplane
