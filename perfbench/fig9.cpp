// fig9_failures: the Fig. 9 link-failure loop, run sequentially.
//
// One pass: for every sampled non-trivial prefix tree (at most 12
// prefixes), twin BGP and DRAGON simulators (GrPathVectorAlgebra, MRAI
// 30 s, re-aggregation off, as in bench_fig9_convergence) originate the
// tree, converge and snapshot; then every trial restores both, fails one
// link and converges under the watchdog.  One trial is the BGP + DRAGON
// twin.
#include <array>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "chaos/watchdog.hpp"
#include "engine/simulator.hpp"
#include "perfbench.hpp"
#include "util/rng.hpp"

namespace dragon::perfbench {
namespace {

using algebra::GrPathVectorAlgebra;
using topology::NodeId;

struct Tree {
  std::vector<prefix::Prefix> prefixes;
  std::vector<NodeId> origins;
};

class Fig9 final : public Workload {
 public:
  Fig9(Run& run, const Scenario& sc)
      : sc_(sc), seed_(run.opt.seed), link_rng_(sc.sample_seed) {
    const bool tiny = run.opt.scale == "tiny";
    const std::size_t want_trees = tiny ? 2 : 12;
    random_trials_ = tiny ? 3 : 16;
    auto roots = sc.forest.non_trivial_roots();
    util::Rng tree_rng(sc.dataset_seed);
    tree_rng.shuffle(roots);
    for (std::int32_t r : roots) {
      if (trees_.size() >= want_trees) break;
      const auto members = sc.forest.tree_members(r);
      if (members.size() > 12) continue;
      Tree tree;
      for (std::int32_t m : members) {
        const auto i = static_cast<std::size_t>(m);
        tree.prefixes.push_back(sc.assignment.prefixes[i]);
        tree.origins.push_back(sc.assignment.origin[i]);
      }
      trees_.push_back(std::move(tree));
    }
  }

  std::string describe() const override {
    return "fig9_failures: " + std::to_string(trees_.size()) +
           " trees, " + std::to_string(random_trials_) +
           " random failures per tree plus each child origin's provider links";
  }

  std::uint64_t pass(Run& run, bool /*first*/) override {
    Digest digest;
    for (std::size_t t = 0; t < trees_.size(); ++t) run_tree(run, t, digest);
    return digest.value();
  }

 private:
  /// bench_fig9_convergence's watchdog limits.
  bool converge_twin(Run& run, engine::Simulator& sim, bool bringup) {
    return converge(run, sim, {1e6, 50'000'000}, bringup,
                    "fig9: convergence quiescent within watchdog limits");
  }

  void run_tree(Run& run, std::size_t t, Digest& digest) {
    next_cpu();
    std::optional<engine::Simulator> bgp, drg;
    PB_CALL(run, "engine.construct_s", "engine", "Simulator::Simulator", [&] {
      bgp.emplace(sc_.generated.graph, alg_, sim_config(false, seed_));
      drg.emplace(sc_.generated.graph, alg_, sim_config(true, seed_));
    }());
    Snapshots snaps;
    run_trials(run, t, *bgp, *drg, snaps, digest);
    PB_CALL(run, "engine.destroy_s", "engine", "Simulator::~Simulator", [&] {
      snaps = {};
      bgp.reset();
      drg.reset();
    }());
  }

  using Snapshots =
      std::array<std::shared_ptr<const engine::Simulator::Snapshot>, 2>;

  /// Brings the twins up, snapshots them into `snaps` and runs every
  /// failure trial of tree `t`.
  void run_trials(Run& run, std::size_t t, engine::Simulator& bgp,
                  engine::Simulator& drg, Snapshots& snaps, Digest& digest) {
    const auto& topo = sc_.generated.graph;
    const Tree& tree = trees_[t];
    util::Rng link_rng = link_rng_.fork_stream(t);
    PB_CALL(run, "engine.originate_s", "engine", "Simulator::originate", [&] {
      for (std::size_t i = 0; i < tree.prefixes.size(); ++i) {
        bgp.originate(tree.prefixes[i], tree.origins[i], kOriginAttr);
        drg.originate(tree.prefixes[i], tree.origins[i], kOriginAttr);
      }
    }());
    if (!converge_twin(run, bgp, true) || !converge_twin(run, drg, true)) {
      return;
    }
    snaps[0] = PB_CALL(run, "engine.snapshot_s", "engine",
                       "Simulator::snapshot", bgp.snapshot());
    snaps[1] = PB_CALL(run, "engine.snapshot_s", "engine",
                       "Simulator::snapshot", drg.snapshot());

    // Random links that carry the tree's traffic, plus the provider links
    // of every child origin (the de-aggregation candidates).
    const auto used = PB_CALL(run, "engine.forwarding_links_s", "engine",
                              "Simulator::forwarding_links",
                              bgp.forwarding_links());
    std::vector<std::pair<NodeId, NodeId>> links;
    for (std::size_t k = 0; k < random_trials_ && !used.empty(); ++k) {
      links.push_back(used[link_rng.below(used.size())]);
    }
    for (std::size_t i = 1; i < tree.origins.size(); ++i) {
      for (NodeId p : topo.providers(tree.origins[i])) {
        links.emplace_back(p, tree.origins[i]);
      }
    }

    for (const auto& [a, b] : links) {
      const double t0 = run.clock();
      std::uint64_t updates[2] = {0, 0};
      engine::Simulator* sims[2] = {&bgp, &drg};
      for (int k = 0; k < 2; ++k) {
        engine::Simulator& sim = *sims[k];
        PB_CALL(run, "engine.restore_s", "engine", "Simulator::restore", [&] {
          sim.restore(*snaps[static_cast<std::size_t>(k)]);
          sim.reset_stats();
        }());
        run.add("engine.restores", 1.0);
        PB_CALL(run, "engine.fail_link_s", "engine", "Simulator::fail_link",
                sim.fail_link(a, b));
        if (!converge_twin(run, sim, false)) return;
        updates[k] = sim.stats().updates();
      }
      if (run.untraced) run.trial_ms.push_back(1e3 * (run.clock() - t0));
      digest.add(updates[0]);
      digest.add(updates[1]);
      digest.add(drg.stats().deaggregations);
    }
  }

  const Scenario& sc_;
  std::uint64_t seed_;
  util::Rng link_rng_;
  std::size_t random_trials_ = 0;
  std::vector<Tree> trees_;
  GrPathVectorAlgebra alg_;
};

}  // namespace

std::unique_ptr<Workload> make_fig9(Run& run, const Scenario& sc) {
  return std::make_unique<Fig9>(run, sc);
}

}  // namespace dragon::perfbench
