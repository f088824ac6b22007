// perfbench: the repository benchmark binary.  Builds one workload's
// scenario from --seed (and again before every untraced pass, for
// setup_s), then runs the workload's fixed work list in closed-loop
// passes for --seconds, checks its outputs, and writes end-to-end and
// per-layer metrics as a registry-JSON document (the shape of
// bench::write_metrics_json).  With --trace 1 the first half of the time
// runs untraced and the second half traced, so the span trace, the
// per-layer metrics and the tracing overhead all come from one run.
// perfbench/run.py drives it.
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/trace_export.hpp"
#include "perfbench.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"

namespace dragon::perfbench {

topology::GeneratorParams scenario_params(const Options& opt) {
  topology::GeneratorParams p;
  const bool tiny = opt.scale == "tiny";
  if (opt.workload == "fig8_closed_form") {
    p.tier1_count = tiny ? 4 : 12;
    p.transit_count = tiny ? 40 : 600;
    p.stub_count = tiny ? 200 : 4400;
  } else if (opt.workload == "fig9_failures") {
    p.tier1_count = tiny ? 4 : 8;
    p.transit_count = tiny ? 40 : 250;
    p.stub_count = tiny ? 200 : 1800;
  } else {
    p.tier1_count = 3;
    p.transit_count = tiny ? 12 : 24;
    p.stub_count = tiny ? 60 : 150;
  }
  p.regions = 5;
  return p;
}

namespace {

/// The synthetic Internet every run measures is one fixed dataset, like
/// the paper's single Internet snapshot: the benches' default `--seed 1`
/// scenario, with fig9's prefix trees.  The workload seed draws what the
/// workload samples from it (failed links, FIB sample, lookup addresses)
/// and the engine's timer jitter.  Per-seed scenarios would differ in
/// prefix count by up to 2.4x, and per-seed tree samples in pass cost by
/// 1.4x, which no run-to-run bound could absorb.
constexpr std::uint64_t kScenarioSeed = 1;

/// Builds the scenario like bench::build_scenario: one master Rng hands
/// out the topology and assignment seeds.
Scenario build_scenario(Run& run) {
  util::Rng master(kScenarioSeed);
  topology::GeneratorParams tparams = scenario_params(run.opt);
  tparams.seed = master();
  addressing::AssignmentParams aparams;
  aparams.seed = master();

  Scenario sc;
  sc.generated = PB_CALL(run, "topology.generate_s", "topology",
                         "generate_internet",
                         topology::generate_internet(tparams));
  sc.assignment = PB_CALL(run, "addressing.assign_s", "addressing",
                          "generate_assignment",
                          addressing::generate_assignment(sc.generated,
                                                          aparams));
  sc.forest = PB_CALL(run, "prefix.forest_s", "prefix", "PrefixForest",
                      prefix::PrefixForest(sc.assignment.prefixes));
  sc.dataset_seed = master();
  sc.sample_seed = util::Rng(run.opt.seed)();
  return sc;
}

[[nodiscard]] double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile of an unsorted sample.
[[nodiscard]] double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

/// Peak resident set (VmHWM) of this process in MiB.
[[nodiscard]] double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

/// Portability stamp: ns per step of a fixed pointer-chase + integer-mix
/// kernel over a 4 MiB single-cycle permutation, median of 7 samples.
/// Reported beside hw_concurrency so numbers from different machines can
/// be put on one scale; never gated.
[[nodiscard]] double calibrate_ns() {
  constexpr std::size_t kLinks = std::size_t{1} << 20;
  constexpr std::size_t kSteps = std::size_t{1} << 20;
  std::vector<std::uint32_t> next(kLinks);
  std::iota(next.begin(), next.end(), 0u);
  util::Rng rng(0xCA11B8A7EULL);
  for (std::size_t i = kLinks - 1; i > 0; --i) {  // Sattolo: one cycle
    std::swap(next[i], next[rng.below(i)]);
  }
  std::vector<double> samples;
  for (int s = 0; s < 7; ++s) {
    std::uint32_t idx = 0;
    std::uint64_t acc = 0x9E3779B97F4A7C15ULL;
    const double t0 = now_s();
    for (std::size_t k = 0; k < kSteps; ++k) {
      idx = next[idx];
      acc = (acc ^ idx) * 0xBF58476D1CE4E5B9ULL;
      acc ^= acc >> 29;
    }
    asm volatile("" : "+r"(acc) : : "memory");  // finish before the clock
    samples.push_back((now_s() - t0) * 1e9 / static_cast<double>(kSteps));
  }
  return median(samples);
}

int run_main(int argc, char** argv) {
  util::Flags flags;
  flags.define("workload", "",
               "fig8_closed_form | fig9_failures | table_bringup");
  flags.define_int("seed", 1, "workload seed (samples, engine jitter)", 0,
                   std::numeric_limits<std::int64_t>::max());
  flags.define("seconds", "10", "measured seconds (closed-loop passes)");
  flags.define_int("trace", 0, "1: traced run (per-layer metrics)", 0, 1);
  flags.define("scale", "full", "full | tiny (self-test sizes)");
  flags.define_int(
      "lanes",
      static_cast<std::int64_t>(exec::ThreadPool::default_thread_count()),
      "worker lanes of the fig8 pool (capped to the hardware)", 1, 4096);
  flags.define("out", "", "write the metrics JSON here");
  flags.define("span-trace", "", "write the Chrome span trace here");
  if (!flags.parse(argc, argv)) return 2;

  Run run;
  run.opt.workload = flags.str("workload");
  run.opt.seed = flags.u64("seed");
  run.opt.seconds = flags.f64("seconds");
  run.opt.trace = flags.i64("trace") == 1;
  run.opt.scale = flags.str("scale");
  const auto& wl_name = run.opt.workload;
  if (wl_name != "fig8_closed_form" && wl_name != "fig9_failures" &&
      wl_name != "table_bringup") {
    std::fprintf(stderr, "perfbench: unknown --workload '%s'\n",
                 wl_name.c_str());
    return 2;
  }
  if (run.opt.scale != "full" && run.opt.scale != "tiny") {
    std::fprintf(stderr, "perfbench: unknown --scale '%s'\n",
                 run.opt.scale.c_str());
    return 2;
  }
  if (!(run.opt.seconds > 0.0)) {
    std::fprintf(stderr, "perfbench: --seconds must be positive\n");
    return 2;
  }

  const double calib = calibrate_ns();

  // Span rings sized for a whole traced phase (no wrap); recording is on
  // for set-up and the traced passes of a --trace 1 run only.
  obs::span_set_default_capacity(std::size_t{1} << 17);
  obs::span_enable(run.opt.trace);
  obs::span_set_thread_name("main");
  std::unique_ptr<exec::ThreadPool> pool;
  if (wl_name == "fig8_closed_form" && flags.u64("lanes") > 1) {
    pool = std::make_unique<exec::ThreadPool>(
        flags.u64("lanes"), exec::PoolOptions{.cap_to_hardware = true});
    run.pool = pool.get();
    run.clock = now_s;  // CPU time of the main thread misses the lanes' work
  }

  // --- Set-up -------------------------------------------------------------
  // setup_s is the median of many timed set-ups spread over the run: the
  // one that builds the measured scenario, then a burst of at least one
  // set-up and kSetupBurstSeconds of wall before every untraced pass (those
  // scenarios are thrown away), so setup_s rides out the host's slow
  // drifts as run_s does.  Set-up runs on the main thread alone, so it is
  // timed in that thread's CPU time.
  constexpr double kSetupBurstSeconds = 0.05;
  std::vector<double> setup_times;
  std::map<std::string, std::vector<double>> setup_layers;
  const auto timed_setup = [&](Scenario& into) {
    run.layer.clear();
    const double t0 = thread_cpu_s();
    into = build_scenario(run);
    setup_times.push_back(thread_cpu_s() - t0);
    for (const auto& [k, v] : run.layer) setup_layers[k].push_back(v);
    run.layer.clear();
  };
  Scenario scenario;
  timed_setup(scenario);
  std::printf("# scenario: %zu ASs, %zu links, %zu prefixes\n",
              scenario.generated.graph.node_count(),
              scenario.generated.graph.link_count(),
              scenario.assignment.size());

  std::unique_ptr<Workload> workload;
  if (wl_name == "fig8_closed_form") {
    workload = make_fig8(run, scenario);
  } else if (wl_name == "fig9_failures") {
    workload = make_fig9(run, scenario);
  } else {
    workload = make_bringup(run, scenario);
  }
  std::printf("# %s\n", workload->describe().c_str());

  // --- Closed-loop passes ---------------------------------------------------
  // Each pass is timed on run.clock.  The phase budget is wall: a phase
  // runs at least one pass and starts no pass that the last one's wall
  // (set-up burst included) says would end past the budget.  Without a
  // pool, every pass (and fig9 every tree) moves to the next CPU.
  bool first = true;
  std::uint64_t digest = 0;
  const auto run_phase = [&](double budget, std::vector<double>& times) {
    const double t0 = now_s();
    double last_wall = 0.0;
    do {
      const double wall0 = now_s();
      if (run.pool == nullptr) next_cpu();
      if (run.untraced) {
        do {
          Scenario spare;
          timed_setup(spare);
        } while (now_s() - wall0 < kSetupBurstSeconds);
      }
      run.check_s = 0.0;
      const double start = run.clock();
      std::uint64_t d = 0;
      {
        DRAGON_SPAN("bench", "pass");
        d = workload->pass(run, first);
      }
      times.push_back(run.clock() - start - run.check_s);
      last_wall = now_s() - wall0;
      if (first) {
        digest = d;
      } else {
        run.check(d == digest, "pass digest repeats the first pass");
      }
      first = false;
    } while (now_s() - t0 + last_wall < budget);
  };

  std::vector<double> pass_times, traced_times;
  obs::span_enable(false);
  run_phase(run.opt.trace ? run.opt.seconds / 2 : run.opt.seconds, pass_times);
  if (run.opt.trace) {
    run.layer.clear();
    run.untraced = false;
    obs::span_enable(true);
    run_phase(run.opt.seconds / 2, traced_times);
    obs::span_enable(false);
  }

  // --- End-to-end metrics (untraced passes) --------------------------------
  obs::MetricsRegistry e2e;
  std::vector<double> trials = run.trial_ms;
  if (trials.empty()) {  // the pass is the workload's unit of work
    for (double t : pass_times) trials.push_back(1e3 * t);
  }
  const double trial_total_s =
      std::accumulate(trials.begin(), trials.end(), 0.0) / 1e3;
  e2e.gauge("setup_s")->set(median(setup_times));
  e2e.gauge("run_s")->set(median(pass_times));
  e2e.gauge("peak_rss_mb")->set(peak_rss_mb());
  e2e.gauge("trials_per_s")
      ->set(static_cast<double>(trials.size()) / trial_total_s);
  e2e.gauge("trial_p50_ms")->set(percentile(trials, 0.50));
  e2e.gauge("trial_p99_ms")->set(percentile(trials, 0.99));
  e2e.gauge("updates_per_s")
      ->set(run.converge_s > 0.0
                ? static_cast<double>(run.updates) / run.converge_s
                : 0.0);
  e2e.gauge("fail_frac")
      ->set(static_cast<double>(run.failed) /
            static_cast<double>(std::max<std::uint64_t>(run.attempted, 1)));
  e2e.counter("trials")->inc(trials.size());
  e2e.counter("updates")->inc(run.updates);
  e2e.counter("passes")->inc(pass_times.size());

  // --- Per-layer metrics (traced passes) -----------------------------------
  // Per traced pass; set-up layers are medians over the set-ups.  Layers a
  // workload does not reach are absent here and print as 0 (run.py).
  obs::MetricsRegistry layers;
  if (run.opt.trace) {
    const double passes = static_cast<double>(traced_times.size());
    for (const auto& [m, v] : run.layer) layers.gauge(m)->set(v / passes);
    for (const auto& [m, v] : setup_layers) layers.gauge(m)->set(median(v));
    const auto get = [&run](const char* m) {
      auto it = run.layer.find(m);
      return it == run.layer.end() ? 0.0 : it->second;
    };
    const double wall_lanes =
        get("exec.region_wall_s") * static_cast<double>(run.lanes());
    if (wall_lanes > 0.0) {
      layers.gauge("exec.utilisation")->set(get("exec.body_s") / wall_lanes);
    }
    if (get("engine.updates") > 0.0) {
      layers.gauge("engine.us_per_update")
          ->set(1e6 * get("engine.converge_s") / get("engine.updates"));
    }
    layers.gauge("trace.overhead")
        ->set(median(traced_times) / median(pass_times));
  }

  char digest_hex[17];
  std::snprintf(digest_hex, sizeof digest_hex, "%016" PRIx64, digest);
  std::string meta = bench::run_meta_json("perfbench", run.opt.seed,
                                          run.lanes());
  meta.pop_back();  // extend the shared header with the run's own fields
  char extra[512];
  std::snprintf(extra, sizeof extra,
                ",\"workload\":\"%s\",\"scale\":\"%s\",\"trace\":%d,"
                "\"seconds\":%.17g,\"calib_ns\":%.17g,\"digest\":\"%s\","
                "\"attempted\":%llu,\"failed\":%llu}",
                wl_name.c_str(), run.opt.scale.c_str(), run.opt.trace ? 1 : 0,
                run.opt.seconds, calib, digest_hex,
                static_cast<unsigned long long>(run.attempted),
                static_cast<unsigned long long>(run.failed));
  meta += extra;
  std::printf("# digest %s, %zu passes, checks %llu/%llu failed\n",
              digest_hex, pass_times.size() + traced_times.size(),
              static_cast<unsigned long long>(run.failed),
              static_cast<unsigned long long>(run.attempted));

  int rc = 0;
  if (!flags.str("out").empty() &&
      !bench::write_metrics_json(flags.str("out"),
                                 {{"end_to_end", &e2e}, {"per_layer", &layers}},
                                 meta)) {
    rc = 1;
  }
  pool.reset();  // span export requires the workers joined
  if (run.opt.trace && !flags.str("span-trace").empty()) {
    obs::TraceExportOptions options;
    options.process_name = "perfbench." + wl_name;
    if (!obs::export_chrome_trace(flags.str("span-trace"), options)) rc = 1;
  }
  return rc;
}

}  // namespace
}  // namespace dragon::perfbench

int main(int argc, char** argv) {
  try {
    return dragon::perfbench::run_main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: FATAL: %s\n", e.what());
    return 1;
  }
}
