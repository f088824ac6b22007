// Simulator set-up and convergence shared by the two engine workloads,
// and the CPU rotation of runs without a pool.
#include <sched.h>

#include <vector>

#include "chaos/watchdog.hpp"
#include "engine/simulator.hpp"
#include "perfbench.hpp"

namespace dragon::perfbench {

engine::Config sim_config(bool dragon, std::uint64_t seed) {
  engine::Config config;
  config.mrai = 30.0;
  config.link_delay = 0.01;
  config.enable_dragon = dragon;
  // §5.3 leaves out new aggregation prefixes; so does the convergence study.
  config.enable_reaggregation = false;
  config.unique_link_labels = true;
  config.seed = seed;
  if (dragon) {
    config.l_attr = [](algebra::Attr a) {
      return static_cast<std::uint32_t>(
          algebra::GrPathVectorAlgebra::class_of(a));
    };
  }
  return config;
}

void next_cpu() {
  static const std::vector<int> cpus = [] {
    std::vector<int> allowed;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) allowed.push_back(c);
      }
    }
    return allowed;
  }();
  static std::size_t next = 0;
  if (cpus.size() < 2) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[next++ % cpus.size()], &one);
  sched_setaffinity(0, sizeof one, &one);  // best effort
}

bool converge(Run& run, engine::Simulator& sim,
              const chaos::WatchdogLimits& limits, bool bringup,
              const char* what) {
  const double t0 = now_s();
  const double c0 = run.clock();
  const chaos::WatchdogResult r =
      PB_CALL(run, "engine.converge_s", "engine", "run_to_quiescence",
              chaos::run_to_quiescence(sim, limits));
  const double dc = run.clock() - c0;
  if (bringup) run.add("engine.bringup_s", now_s() - t0);
  const auto& m = sim.metrics();
  const auto counter = [&m](const char* name) {
    const obs::Counter* c = m.find_counter(name);
    return c == nullptr ? 0.0 : static_cast<double>(c->value());
  };
  const std::uint64_t updates = sim.stats().updates();
  run.add("engine.updates", static_cast<double>(updates));
  run.add("engine.mrai_flushes", counter("dragon.engine.mrai_flushes"));
  run.add("engine.fib_installs", counter("dragon.engine.fib_installs"));
  run.add("engine.dragon.filter_transitions",
          counter("dragon.dragon.filter_transitions"));
  run.add("engine.dragon.deaggregations",
          counter("dragon.dragon.deaggregations"));
  if (run.untraced) {
    run.converge_s += dc;
    run.updates += updates;
  }
  return run.check(r.quiescent, what);
}

}  // namespace dragon::perfbench
