// Strict number parsing for every hand-written input surface (command-line
// flags, scenario specs, FaultPlan JSON).
//
// A token parses only when the whole of it is one base-10 number that
// fits the target type: no leading whitespace or '+', no trailing junk,
// no wrap-around on overflow, and for doubles no nan, inf or
// out-of-range exponent.  Anything else is nullopt, never a clamped or
// partial value.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace dragon::util {

[[nodiscard]] std::optional<std::int64_t> parse_i64(std::string_view s);
[[nodiscard]] std::optional<std::uint64_t> parse_u64(std::string_view s);
/// Finite values only.
[[nodiscard]] std::optional<double> parse_f64(std::string_view s);

/// The shortest text that parse_f64 reads back as exactly `v` (finite v).
[[nodiscard]] std::string format_f64(double v);

}  // namespace dragon::util
