// fig8_closed_form: the Fig. 8 pipeline on the closed-form optimal state.
//
// One pass: DRAGON efficiency without and with aggregation prefixes,
// aggregate election, one gr_sweep_batch over every origin (on the pool),
// the sampled ASs' forwarding tables, and their conservative and ORTC
// compression (on the pool).  The engine is never touched.
#include <algorithm>
#include <cmath>
#include <map>

#include "dragon/aggregation.hpp"
#include "dragon/efficiency.hpp"
#include "exec/parallel.hpp"
#include "fibcomp/ortc.hpp"
#include "perfbench.hpp"
#include "routecomp/gr_sweep.hpp"
#include "util/rng.hpp"

namespace dragon::perfbench {
namespace {

using topology::NodeId;

[[nodiscard]] std::uint64_t basis_points(double efficiency) {
  return static_cast<std::uint64_t>(std::llround(10000.0 * efficiency));
}

[[nodiscard]] fibcomp::NextHop next_hop(const topology::Topology& topo,
                                        const routecomp::GrStableState& sweep,
                                        NodeId u) {
  if (sweep.is_origin(u)) return fibcomp::kLocal;
  const NodeId fwd = routecomp::best_forwarding_neighbor(topo, sweep, u);
  return fwd == routecomp::kNoNeighbor ? fibcomp::kDrop
                                       : fibcomp::next_hop_from_node(fwd);
}

class Fig8 final : public Workload {
 public:
  Fig8(Run& run, const Scenario& sc) : sc_(sc) {
    const auto& topo = sc.generated.graph;
    const std::size_t want = run.opt.scale == "tiny" ? 4 : 16;
    std::vector<NodeId> all(topo.node_count());
    for (NodeId u = 0; u < all.size(); ++u) all[u] = u;
    util::Rng rng(sc.sample_seed);
    rng.shuffle(all);
    sample_.assign(all.begin(),
                   all.begin() + static_cast<long>(std::min(want, all.size())));
    // Prefixes grouped by origin, ascending, so the FIB entry order (the
    // compression input) is canonical.
    std::map<NodeId, std::vector<std::size_t>> by_origin;
    for (std::size_t i = 0; i < sc.assignment.size(); ++i) {
      by_origin[sc.assignment.origin[i]].push_back(i);
    }
    for (auto& [origin, indices] : by_origin) {
      origins_.push_back(origin);
      by_origin_.push_back(std::move(indices));
    }
  }

  std::string describe() const override {
    return "fig8_closed_form: " + std::to_string(origins_.size()) +
           " origins, " + std::to_string(sample_.size()) +
           " sampled ASs for FIB compression";
  }

  std::uint64_t pass(Run& run, bool first) override {
    const auto& topo = sc_.generated.graph;
    const auto& assignment = sc_.assignment;
    const double total = static_cast<double>(assignment.size());

    const auto def = PB_CALL(run, "dragon.efficiency_def_s", "dragon",
                             "dragon_efficiency(def)",
                             core::dragon_efficiency(topo, assignment, {}));
    core::EfficiencyOptions agg_options;
    agg_options.with_aggregation = true;
    const auto agg =
        PB_CALL(run, "dragon.efficiency_agg_s", "dragon",
                "dragon_efficiency(agg)",
                core::dragon_efficiency(topo, assignment, agg_options));
    const auto aggregates =
        PB_CALL(run, "dragon.elect_aggregates_s", "dragon",
                "elect_aggregation_prefixes",
                core::elect_aggregation_prefixes(topo, assignment));

    // --- Sampled FIBs: one sweep per origin, one per aggregate ------------
    double sweep_s = 0.0;
    double t0 = run.clock();
    const auto sweeps =
        PB_CALL(run, "routecomp.sweep_batch_s", "routecomp", "gr_sweep_batch",
                routecomp::gr_sweep_batch(topo, origins_, run.pool));
    sweep_s += run.clock() - t0;
    std::vector<fibcomp::Fib> fib_def(sample_.size());
    PB_CALL(run, "routecomp.forwarding_s", "routecomp",
            "best_forwarding_neighbor",
            fill_def_fibs(topo, sweeps, fib_def));
    std::vector<fibcomp::Fib> fib_agg = fib_def;
    for (const auto& a : aggregates) {
      t0 = run.clock();
      const auto sweep = PB_CALL(
          run, "routecomp.sweep_multi_s", "routecomp", "gr_sweep_multi",
          routecomp::gr_sweep_multi(topo, a.originators, nullptr));
      sweep_s += run.clock() - t0;
      PB_CALL(run, "routecomp.forwarding_s", "routecomp",
              "best_forwarding_neighbor", [&] {
                for (std::size_t s = 0; s < sample_.size(); ++s) {
                  fib_agg[s].push_back(
                      {a.aggregate, next_hop(topo, sweep, sample_[s])});
                }
              }());
    }
    const std::size_t solved = origins_.size() + aggregates.size();
    run.add("routecomp.sweeps", static_cast<double>(solved));
    if (run.untraced) {
      // The closed-form counterpart of an update: one stable route per AS
      // per solved origin, over the seconds spent sweeping.
      run.updates += solved * topo.node_count();
      run.converge_s += sweep_s;
    }

    // --- Compression on the pool ------------------------------------------
    const std::size_t n = sample_.size();
    std::vector<fibcomp::Fib> out_def(n), out_agg(n);
    std::vector<double> cons_s(n), ortc_s(n), body_s(n);
    {
      LayerTimer region(run, "exec.region_wall_s");
      DRAGON_SPAN("exec", "parallel_for(compress)");
      exec::parallel_for(
          run.pool, n, [&](std::size_t s, exec::TaskContext&) {
            const double t0 = now_s();
            {
              DRAGON_SPAN("fibcomp", "compress_conservative");
              out_def[s] = fibcomp::compress_conservative(fib_def[s]);
            }
            const double t1 = now_s();
            {
              DRAGON_SPAN("fibcomp", "compress_ortc");
              out_agg[s] = fibcomp::compress_ortc(fib_agg[s]);
            }
            const double t2 = now_s();
            cons_s[s] = t1 - t0;
            ortc_s[s] = t2 - t1;
            body_s[s] = t2 - t0;
          });
    }
    for (std::size_t s = 0; s < n; ++s) {
      run.add("fibcomp.compress_conservative_s", cons_s[s]);
      run.add("fibcomp.compress_ortc_s", ortc_s[s]);
      run.add("exec.body_s", body_s[s]);
      run.add("fibcomp.entries_in",
              static_cast<double>(fib_def[s].size() + fib_agg[s].size()));
      run.add("fibcomp.entries_out",
              static_cast<double>(out_def[s].size() + out_agg[s].size()));
    }

    // --- Outcome digest: per-AS efficiency in basis points ----------------
    Digest digest;
    for (NodeId u = 0; u < topo.node_count(); ++u) {
      digest.add(basis_points(def.efficiency[u]));
      digest.add(basis_points(agg.efficiency[u]));
    }
    std::vector<double> fib_def_eff(n);
    for (std::size_t s = 0; s < n; ++s) {
      fib_def_eff[s] =
          (total - static_cast<double>(out_def[s].size())) / total;
      const double fib_agg_eff =
          (total - static_cast<double>(out_agg[s].size())) / total;
      digest.add(basis_points(fib_def_eff[s]));
      digest.add(basis_points(fib_agg_eff));
    }

    // --- Output checks ----------------------------------------------------
    CheckTimer timer(run);
    for (std::size_t s = 0; s < n; ++s) {
      run.check(def.efficiency[sample_[s]] >= fib_def_eff[s] - 1e-12,
                "fig8: DRG def >= FIB def on a sampled AS");
    }
    if (first) {
      for (std::size_t s = 0; s < n; ++s) {
        run.check(fibcomp::forwarding_equivalent(fib_agg[s], out_agg[s]),
                  "fig8: ORTC output forwards like its input");
      }
    }
    return digest.value();
  }

 private:
  void fill_def_fibs(const topology::Topology& topo,
                     const std::vector<routecomp::GrStableState>& sweeps,
                     std::vector<fibcomp::Fib>& fibs) const {
    for (std::size_t oi = 0; oi < origins_.size(); ++oi) {
      for (std::size_t s = 0; s < sample_.size(); ++s) {
        const fibcomp::NextHop nh = next_hop(topo, sweeps[oi], sample_[s]);
        for (std::size_t i : by_origin_[oi]) {
          fibs[s].push_back({sc_.assignment.prefixes[i], nh});
        }
      }
    }
  }

  const Scenario& sc_;
  std::vector<NodeId> sample_;
  std::vector<NodeId> origins_;
  std::vector<std::vector<std::size_t>> by_origin_;
};

}  // namespace

std::unique_ptr<Workload> make_fig8(Run& run, const Scenario& sc) {
  return std::make_unique<Fig8>(run, sc);
}

}  // namespace dragon::perfbench
