// Differential convergence oracle.
//
// The GR-family algebras used throughout the reproduction are strictly
// monotone, so the stable state is unique: whatever path a convergence
// run takes — whatever order failures, restorations, flaps, message
// losses, duplicates and reorderings interleave in — the quiescent
// outcome must be *identical* to a from-scratch run on the surviving
// network.  differential_check() builds that reference: a fresh
// simulator on the same topology/algebra/config with message faults
// zeroed, the surviving originations injected in record order and
// converged on the FULL topology, and only then the net-failed links
// cut and the network re-converged.  The two-phase shape matters: rule
// RA is event-driven, so an origin that never learned a route for a
// delegated more-specific would never de-aggregate in a "fail the links
// first" reference, while every chaotic history that reaches the same
// cut has lost the route and has.  It then compares the full (node,
// prefix) route state of both simulators and reports every divergence.
//
// The chaotic simulator must be quiescent; comparing mid-convergence
// states diverges trivially (tests use that as the oracle's negative
// control).
#pragma once

#include <string>
#include <vector>

#include "engine/simulator.hpp"

namespace dragon::chaos {

struct OracleResult {
  bool match = false;
  /// False when the reference run itself tripped the watchdog (its
  /// diagnostics are appended to `mismatches`).
  bool reference_quiescent = false;
  std::vector<std::string> mismatches;

  [[nodiscard]] std::string to_string() const;
};

/// Compares `chaotic` (already quiescent, after an arbitrary fault
/// schedule) against a from-scratch run on the surviving network, cell by
/// cell on the raw elected attribute: exact for GR-family algebras, whose
/// stable state is unique.  Automatic watches from surviving originations
/// are recreated by origination; manual watch_aggregate() roots are not
/// modelled, so the chaotic simulator must not have any.
[[nodiscard]] OracleResult differential_check(const engine::Simulator& chaotic);

}  // namespace dragon::chaos
