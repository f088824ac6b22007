// Snapshotting simulator routing state as FIBs for the data plane.
//
// The bridge between control plane and data plane: snapshot every node's
// forwarding state out of a (quiescent) Simulator as a fibcomp::Fib, with
// next hops resolved by Simulator::next_hop (the rule trace() forwards
// by), so a table compiled with LpmTable::compile forwards identically to
// the simulated node.
//
// Two snapshot kinds make DRAGON's payoff measurable: kPostDragon is the
// real FIB (elected, not filtered); kPreDragon additionally keeps the
// entries DRAGON filtered, i.e. the table the node would hold without
// aggregation.  bench_dataplane compiles both and compares bytes and
// lookup cost.
#pragma once

#include <vector>

#include "engine/simulator.hpp"
#include "fibcomp/fib.hpp"

namespace dragon::dataplane {

enum class SnapshotKind {
  kPostDragon,  ///< installed FIB: elected and not DRAGON-filtered
  kPreDragon,   ///< elected entries including DRAGON-filtered ones
};

/// One pass over the whole RIB: the FIBs of every node (indexed by node
/// id).  Entry order follows the simulator's sorted per-node route
/// iteration; next hops are kLocal where Simulator::next_hop returns the
/// node itself, kDrop where it returns nullopt, the neighbour otherwise.
[[nodiscard]] std::vector<fibcomp::Fib> fibs_from_simulator(
    const engine::Simulator& sim, SnapshotKind kind);

}  // namespace dragon::dataplane
