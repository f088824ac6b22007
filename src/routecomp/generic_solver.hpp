// Generic vector-protocol fixpoint solver for arbitrary algebras (§2, §4.1).
//
// Models the standard vector-protocol: the origin announces its route; each
// node keeps one candidate attribute per in-neighbour (the neighbour's
// elected attribute extended across the learning relation's label) and
// elects the most preferred.  Synchronous rounds run until nothing changes.
// With strictly absorbent cycles (Theorem 1) this terminates in <= V rounds.
//
// A per-node suppression mask lets the DRAGON layer model filtering: a
// suppressed node still elects a route but announces nothing, exactly the
// visible effect of filtering a prefix (§3.1).  Used by the small-network
// cross-checks and the route-consistency tests; Internet-scale runs use the
// specialised GR sweep instead.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "algebra/algebra.hpp"
#include "topology/graph.hpp"

namespace dragon::routecomp {

/// A learning relation: `learner` derives a candidate from `speaker`'s
/// elected attribute through `label` (the paper's L[uv] with u = learner).
struct LearningRelation {
  topology::NodeId learner;
  topology::NodeId speaker;
  algebra::LabelId label;
};

class LabeledNetwork {
 public:
  explicit LabeledNetwork(std::size_t nodes) : out_(nodes) {}

  [[nodiscard]] std::size_t node_count() const noexcept { return out_.size(); }

  /// Adds a one-way learning relation learner <- speaker.
  void add_relation(topology::NodeId learner, topology::NodeId speaker,
                    algebra::LabelId label);

  /// Adds relations in both directions with the given labels.
  void add_symmetric(topology::NodeId a, topology::NodeId b,
                     algebra::LabelId a_learns_with,
                     algebra::LabelId b_learns_with);

  /// Relations spoken by `v` (fan-out used during propagation).
  [[nodiscard]] const std::vector<LearningRelation>& spoken_by(
      topology::NodeId v) const {
    return out_[v];
  }

  /// All relations learned by `u` (computed view; used for election checks).
  [[nodiscard]] std::vector<LearningRelation> learned_by(
      topology::NodeId u) const;

  /// Builds the GR-labeled view of an AS topology.
  [[nodiscard]] static LabeledNetwork from_topology(
      const topology::Topology& topo);

 private:
  std::vector<std::vector<LearningRelation>> out_;
};

struct SolveResult {
  std::vector<algebra::Attr> attr;  // elected attribute per node
  bool converged = false;
  int rounds = 0;
};

/// Runs the protocol to its fixpoint.  `suppressed`, if given, marks nodes
/// whose elected route is not announced (DRAGON filtering).  `max_rounds`
/// guards against non-convergent (non-absorbent) configurations.
[[nodiscard]] SolveResult solve(const algebra::Algebra& algebra,
                                const LabeledNetwork& net,
                                topology::NodeId origin,
                                algebra::Attr origin_attr,
                                const std::vector<char>* suppressed = nullptr,
                                int max_rounds = 1000);

/// One origination: `origin` announces with `attr`.
struct Origination {
  topology::NodeId origin;
  algebra::Attr attr;
};

/// Multi-origin (anycast) fixpoint: every origin elects the best of its own
/// announcement and the learned candidates (aggregation prefixes, §3.7, and
/// the traffic-engineering scenario of §3.9 need this).
[[nodiscard]] SolveResult solve_multi(
    const algebra::Algebra& algebra, const LabeledNetwork& net,
    std::span<const Origination> origins,
    const std::vector<char>* suppressed = nullptr, int max_rounds = 1000);

/// Forwarding neighbours of `u` in a solved state: speakers whose extended
/// elected attribute equals u's elected attribute (§2).  Empty at origin.
[[nodiscard]] std::vector<topology::NodeId> solver_forwarding_neighbors(
    const algebra::Algebra& algebra, const LabeledNetwork& net,
    const SolveResult& result, topology::NodeId origin, topology::NodeId u,
    const std::vector<char>* suppressed = nullptr);

}  // namespace dragon::routecomp
