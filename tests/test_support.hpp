// Shared helpers for the engine/integration/chaos tests.
#pragma once

#include <gtest/gtest.h>

#include "chaos/watchdog.hpp"
#include "engine/simulator.hpp"

namespace dragon::testing {

/// Converges the simulator under the chaos watchdog: a livelocked
/// protocol fails the test with diagnostics instead of hanging the suite.
inline void quiesce(engine::Simulator& sim,
                    chaos::WatchdogLimits limits = {1e7, 2'000'000}) {
  const chaos::WatchdogResult r = chaos::run_to_quiescence(sim, limits);
  ASSERT_TRUE(r.quiescent) << r.diagnostics;
}

}  // namespace dragon::testing
