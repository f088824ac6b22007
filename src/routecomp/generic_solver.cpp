#include "routecomp/generic_solver.hpp"

#include <algorithm>


namespace dragon::routecomp {

using algebra::Algebra;
using algebra::Attr;
using algebra::kUnreachable;
using topology::NodeId;

void LabeledNetwork::add_relation(NodeId learner, NodeId speaker,
                                  algebra::LabelId label) {
  out_[speaker].push_back({learner, speaker, label});
}

void LabeledNetwork::add_symmetric(NodeId a, NodeId b,
                                   algebra::LabelId a_learns_with,
                                   algebra::LabelId b_learns_with) {
  add_relation(a, b, a_learns_with);
  add_relation(b, a, b_learns_with);
}

std::vector<LearningRelation> LabeledNetwork::learned_by(NodeId u) const {
  std::vector<LearningRelation> result;
  for (NodeId v = 0; v < out_.size(); ++v) {
    for (const LearningRelation& rel : out_[v]) {
      if (rel.learner == u) result.push_back(rel);
    }
  }
  return result;
}

LabeledNetwork LabeledNetwork::from_topology(const topology::Topology& topo) {
  LabeledNetwork net(topo.node_count());
  for (NodeId u = 0; u < topo.node_count(); ++u) {
    for (const auto& nb : topo.neighbors(u)) {
      // u learns from nb.id with the label named by what nb is to u.
      net.add_relation(u, nb.id, topology::gr_label(nb.rel));
    }
  }
  return net;
}

SolveResult solve_multi(const Algebra& algebra, const LabeledNetwork& net,
                        std::span<const Origination> origins,
                        const std::vector<char>* suppressed, int max_rounds) {
  const std::size_t n = net.node_count();
  std::vector<Attr> own(n, kUnreachable);
  for (const Origination& o : origins) {
    if (own[o.origin] == kUnreachable || algebra.prefer(o.attr, own[o.origin])) {
      own[o.origin] = o.attr;
    }
  }

  SolveResult result;
  result.attr = own;

  auto announces = [&](NodeId v) {
    // Origins always announce their own route even when marked suppressed.
    return suppressed == nullptr || !(*suppressed)[v] ||
           own[v] != kUnreachable;
  };

  for (int round = 1; round <= max_rounds; ++round) {
    // Synchronous round: every node re-elects from its own announcement and
    // the previous round's announcements.
    std::vector<Attr> next = own;
    for (NodeId v = 0; v < n; ++v) {
      if (result.attr[v] == kUnreachable || !announces(v)) continue;
      for (const LearningRelation& rel : net.spoken_by(v)) {
        const Attr cand = algebra.extend(rel.label, result.attr[v]);
        if (algebra.prefer(cand, next[rel.learner])) {
          next[rel.learner] = cand;
        }
      }
    }
    result.rounds = round;
    if (next == result.attr) {
      result.converged = true;
      return result;
    }
    result.attr = std::move(next);
  }
  result.converged = false;
  return result;
}

SolveResult solve(const Algebra& algebra, const LabeledNetwork& net,
                  NodeId origin, Attr origin_attr,
                  const std::vector<char>* suppressed, int max_rounds) {
  const Origination one[1] = {{origin, origin_attr}};
  return solve_multi(algebra, net, one, suppressed, max_rounds);
}

std::vector<NodeId> solver_forwarding_neighbors(
    const Algebra& algebra, const LabeledNetwork& net,
    const SolveResult& result, NodeId origin, NodeId u,
    const std::vector<char>* suppressed) {
  std::vector<NodeId> out;
  if (u == origin || result.attr[u] == kUnreachable) return out;
  for (const LearningRelation& rel : net.learned_by(u)) {
    const NodeId v = rel.speaker;
    if (result.attr[v] == kUnreachable) continue;
    if (suppressed != nullptr && (*suppressed)[v] && v != origin) continue;
    if (algebra.extend(rel.label, result.attr[v]) == result.attr[u]) {
      out.push_back(v);
    }
  }
  return out;
}

}  // namespace dragon::routecomp
