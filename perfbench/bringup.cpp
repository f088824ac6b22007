// table_bringup: a full-table convergence from empty, then the data plane.
//
// One pass: a DRAGON simulator originates every prefix of the scenario
// and converges; every node's pre- and post-DRAGON FIB is snapshotted and
// compiled into an LpmTable, and both tables serve lookups on addresses
// drawn from announced prefixes.  Heavy update volume, no restore.  One
// trial is one node's data-plane turn: compiling its two tables and
// serving every lookup address from each.
#include <optional>
#include <string>

#include "chaos/watchdog.hpp"
#include "dataplane/compiler.hpp"
#include "dataplane/lpm_table.hpp"
#include "engine/simulator.hpp"
#include "fibcomp/fib.hpp"
#include "perfbench.hpp"
#include "util/rng.hpp"

namespace dragon::perfbench {
namespace {

using algebra::GrPathVectorAlgebra;
using topology::NodeId;

class Bringup final : public Workload {
 public:
  // The bring-up is one fixed experiment: its timer jitter comes from the
  // dataset, not the workload seed (per-seed jitter moves the update count
  // by up to 18% and the wall by 40%).  The seed draws the lookup
  // addresses.
  Bringup(Run& run, const Scenario& sc)
      : sc_(sc), config_(sim_config(true, sc.dataset_seed)) {
    // Lookup addresses: a uniform announced prefix, a uniform address
    // inside it.
    util::Rng rng(sc.sample_seed);
    const std::size_t queries = run.opt.scale == "tiny" ? 256 : 4096;
    for (std::size_t q = 0; q < queries; ++q) {
      const prefix::Prefix p =
          sc.assignment.prefixes[rng.below(sc.assignment.size())];
      const prefix::Address host =
          p.length() >= prefix::kAddressBits
              ? 0u
              : static_cast<prefix::Address>(
                    rng.below(std::uint64_t{1} << (prefix::kAddressBits -
                                                   p.length())));
      addresses_.push_back(p.bits() | host);
    }
  }

  std::string describe() const override {
    return "table_bringup: " + std::to_string(sc_.assignment.size()) +
           " prefixes originated, " + std::to_string(addresses_.size()) +
           " lookups per node and table";
  }

  std::uint64_t pass(Run& run, bool first) override {
    const auto& topo = sc_.generated.graph;
    std::optional<engine::Simulator> sim;
    PB_CALL(run, "engine.construct_s", "engine", "Simulator::Simulator",
            sim.emplace(topo, alg_, config_));
    const std::uint64_t digest = serve_pass(run, *sim, first);
    PB_CALL(run, "engine.destroy_s", "engine", "Simulator::~Simulator",
            sim.reset());
    return digest;
  }

 private:
  /// Brings the table up in `sim`, then compiles and serves every node's
  /// pre- and post-DRAGON FIB; returns the pass digest.
  std::uint64_t serve_pass(Run& run, engine::Simulator& sim, bool first) {
    const auto& topo = sc_.generated.graph;
    Digest digest;
    PB_CALL(run, "engine.originate_s", "engine", "Simulator::originate", [&] {
      for (std::size_t i = 0; i < sc_.assignment.size(); ++i) {
        sim.originate(sc_.assignment.prefixes[i], sc_.assignment.origin[i],
                      kOriginAttr);
      }
    }());
    if (!converge(run, sim, {1e7, 200'000'000}, true,
                  "table_bringup: bring-up quiescent")) {
      return digest.value();
    }
    digest.add(sim.stats().updates());

    const auto pre = PB_CALL(
        run, "dataplane.snapshot_s", "dataplane", "fibs_from_simulator(pre)",
        dataplane::fibs_from_simulator(sim, dataplane::SnapshotKind::kPreDragon));
    const auto post = PB_CALL(
        run, "dataplane.snapshot_s", "dataplane", "fibs_from_simulator(post)",
        dataplane::fibs_from_simulator(sim,
                                       dataplane::SnapshotKind::kPostDragon));

    double lookup_s[2] = {0.0, 0.0};
    std::uint64_t sink = 0;
    for (NodeId u = 0; u < topo.node_count(); ++u) {
      const double t0 = run.clock();
      const auto table_pre = PB_CALL(run, "dataplane.compile_s", "dataplane",
                                     "LpmTable::compile(pre)",
                                     dataplane::LpmTable::compile(pre[u]));
      const auto table_post = PB_CALL(run, "dataplane.compile_s", "dataplane",
                                      "LpmTable::compile(post)",
                                      dataplane::LpmTable::compile(post[u]));
      lookup_s[0] += serve(table_post, sink);
      lookup_s[1] += serve(table_pre, sink);
      if (run.untraced) run.trial_ms.push_back(1e3 * (run.clock() - t0));
      const std::size_t bytes_post = table_post.stats().table_bytes;
      const std::size_t bytes_pre = table_pre.stats().table_bytes;
      run.add("dataplane.table_bytes_post", static_cast<double>(bytes_post));
      run.add("dataplane.table_bytes_pre", static_cast<double>(bytes_pre));
      digest.add(pre[u].size());
      digest.add(post[u].size());
      digest.add(bytes_pre);
      digest.add(bytes_post);
      if (first) check_node(run, table_post, post[u], bytes_post, bytes_pre);
    }
    const double lookups = static_cast<double>(addresses_.size()) *
                           static_cast<double>(topo.node_count());
    run.add("dataplane.lookup_ns", 1e9 * lookup_s[0] / lookups);
    run.add("dataplane.lookup_ns_pre", 1e9 * lookup_s[1] / lookups);
    digest.add(sink);  // the served next hops; also keeps the lookups live
    return digest.value();
  }

  /// Serves every lookup address from `table`; returns the seconds taken.
  double serve(const dataplane::LpmTable& table, std::uint64_t& sink) const {
    DRAGON_SPAN("dataplane", "LpmTable::lookup");
    const double t0 = now_s();
    for (prefix::Address a : addresses_) sink += table.lookup(a);
    return now_s() - t0;
  }

  void check_node(Run& run, const dataplane::LpmTable& table,
                  const fibcomp::Fib& fib, std::size_t bytes_post,
                  std::size_t bytes_pre) const {
    CheckTimer timer(run);
    const auto trie = fibcomp::build_trie(fib);
    bool same = true;
    for (prefix::Address a : addresses_) {
      same = same && table.lookup(a) == fibcomp::lookup(trie, a);
    }
    run.check(same, "table_bringup: LpmTable next hops equal the trie's");
    run.check(bytes_post <= bytes_pre,
              "table_bringup: table_bytes_post <= table_bytes_pre");
  }

  const Scenario& sc_;
  engine::Config config_;
  GrPathVectorAlgebra alg_;
  std::vector<prefix::Address> addresses_;
};

}  // namespace

std::unique_ptr<Workload> make_bringup(Run& run, const Scenario& sc) {
  return std::make_unique<Bringup>(run, sc);
}

}  // namespace dragon::perfbench
