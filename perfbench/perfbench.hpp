// Shared state of the repository benchmark (perfbench): run options, the
// per-layer call timers, output checks and outcome digests that every
// workload fills in.  See README.md for the workloads and the layer ->
// metric map.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "addressing/assignment.hpp"
#include "algebra/gr_path_algebra.hpp"
#include "exec/thread_pool.hpp"
#include "obs/span.hpp"
#include "prefix/prefix_forest.hpp"
#include "topology/generator.hpp"

namespace dragon::chaos {
struct WatchdogLimits;
}
namespace dragon::engine {
class Simulator;
struct Config;
}

namespace dragon::perfbench {

[[nodiscard]] inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU seconds of the calling thread.  Time the thread spends descheduled
/// (other processes on a shared host, hypervisor steal) does not count.
[[nodiscard]] inline double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// "full" (the measured sizes) or "tiny" (seconds-scale self-test).
  std::string scale = "full";
};

/// One generated scenario: topology, prefix assignment and prefix forest.
struct Scenario {
  topology::GeneratedTopology generated;
  addressing::Assignment assignment;
  prefix::PrefixForest forest;
  /// The dataset's own sampling stream (bench::Scenario::trial_seed):
  /// fig9 draws its prefix trees from it, as bench_fig9_convergence does.
  std::uint64_t dataset_seed = 0;
  /// Seed of the workload's own sampling (failed links, FIB sample,
  /// lookup addresses), drawn from the workload seed.
  std::uint64_t sample_seed = 0;
};

/// FNV-1a over 64-bit words: the outcome digest of one pass.
class Digest {
 public:
  void add(std::uint64_t v) noexcept {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFFu;
      h_ *= 0x100000001B3ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

/// Everything one benchmark run accumulates.  Layer timers are always on
/// (two steady-clock reads per call); span recording is switched on only
/// for the traced passes.
struct Run {
  Options opt;
  exec::ThreadPool* pool = nullptr;  // nullptr: one lane
  /// The clock of every end-to-end time: the main thread's CPU time when
  /// the workload runs on it alone, wall time when there is a pool.
  double (*clock)() = thread_cpu_s;

  /// Per-layer seconds and counts, keyed by metric name; reset when the
  /// traced phase starts so they describe traced passes only.
  std::map<std::string, double> layer;
  /// Checks that feed fail_frac.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Seconds on run.clock spent inside checks during the current pass
  /// (excluded from the pass time).
  double check_s = 0.0;

  /// Closed-loop trial times of the untraced phase on run.clock, in ms.
  /// Workloads whose unit of work is the whole pass leave this empty.
  std::vector<double> trial_ms;
  /// True during the untraced phase: the end-to-end accumulators below
  /// and trial_ms record only then.
  bool untraced = true;
  /// Convergence totals of the untraced phase (updates_per_s), seconds on
  /// run.clock.
  double converge_s = 0.0;
  std::uint64_t updates = 0;

  [[nodiscard]] std::size_t lanes() const {
    return pool == nullptr ? 1 : pool->size();
  }

  void add(const std::string& metric, double v) { layer[metric] += v; }

  /// Records one output check; returns `ok`.
  bool check(bool ok, const char* what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (failed <= 10) std::fprintf(stderr, "# CHECK FAILED: %s\n", what);
    }
    return ok;
  }
};

/// Adds the wall time of its scope to `run.layer[metric]`.
class LayerTimer {
 public:
  LayerTimer(Run& run, const char* metric)
      : run_(run), metric_(metric), start_(now_s()) {}
  ~LayerTimer() { run_.add(metric_, now_s() - start_); }
  LayerTimer(const LayerTimer&) = delete;
  LayerTimer& operator=(const LayerTimer&) = delete;

 private:
  Run& run_;
  const char* metric_;
  double start_;
};

/// Times a check's scope on run.clock so the pass time can exclude it.
class CheckTimer {
 public:
  explicit CheckTimer(Run& run) : run_(run), start_(run.clock()) {}
  ~CheckTimer() { run_.check_s += run_.clock() - start_; }
  CheckTimer(const CheckTimer&) = delete;
  CheckTimer& operator=(const CheckTimer&) = delete;

 private:
  Run& run_;
  double start_;
};

/// One pass of a workload: its fixed work list, run once.  `first` is
/// true for the run's first pass, which also runs the expensive output
/// checks; every pass returns the outcome digest, and passes after the
/// first must reproduce it.
class Workload {
 public:
  virtual ~Workload() = default;
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  [[nodiscard]] virtual std::uint64_t pass(Run& run, bool first) = 0;
  /// Human-readable description of the work list (stdout comment line).
  [[nodiscard]] virtual std::string describe() const = 0;
};

/// Attribute every origination carries (a customer route of length 0).
inline constexpr algebra::Attr kOriginAttr =
    algebra::GrPathVectorAlgebra::make(algebra::GrClass::kCustomer, 0);

/// bench_fig9_convergence's simulator configuration (the paper's §5.3
/// setting): GrPathVectorAlgebra path identities, MRAI 30 s, re-aggregation
/// off; `dragon` turns on CR/RA over class-projected L-attributes.
[[nodiscard]] engine::Config sim_config(bool dragon, std::uint64_t seed);

/// Runs `sim` to quiescence under `limits`, adds its engine counters to
/// the run (and bring-up seconds when `bringup`), and records the
/// quiescence check `what`; returns whether the run was quiescent.
bool converge(Run& run, engine::Simulator& sim,
              const chaos::WatchdogLimits& limits, bool bringup,
              const char* what);

/// Moves the calling thread to the next CPU, round robin, of the set it
/// was allowed when first called.  Runs without a pool call it before
/// every pass, and fig9 before every tree, so that a run spreads over
/// every CPU it is given, as fig8's pool does: on a shared host the CPUs
/// do not all run at the same speed, and the one the scheduler happens
/// to pick must not decide the result.
void next_cpu();

/// Scenario sizes per workload and scale.
[[nodiscard]] topology::GeneratorParams scenario_params(const Options& opt);

[[nodiscard]] std::unique_ptr<Workload> make_fig8(Run& run,
                                                  const Scenario& sc);
[[nodiscard]] std::unique_ptr<Workload> make_fig9(Run& run,
                                                  const Scenario& sc);
[[nodiscard]] std::unique_ptr<Workload> make_bringup(Run& run,
                                                     const Scenario& sc);

}  // namespace dragon::perfbench

/// Wraps one call into a layer: a span named (category, name) for the
/// Chrome trace, plus the wall time added to run.layer[metric].
#define PB_CALL(run, metric, category, name, expr) \
  [&]() -> decltype(auto) {                        \
    DRAGON_SPAN(category, name);                   \
    ::dragon::perfbench::LayerTimer pb_timer_(run, metric); \
    return expr;                                   \
  }()
