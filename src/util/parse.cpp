#include "util/parse.hpp"

#include <charconv>
#include <cmath>
#include <system_error>

namespace dragon::util {

namespace {

template <typename T>
std::optional<T> parse_whole(std::string_view s) {
  T v{};
  const char* const end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (s.empty() || ec != std::errc() || ptr != end) return std::nullopt;
  return v;
}

}  // namespace

std::optional<std::int64_t> parse_i64(std::string_view s) {
  return parse_whole<std::int64_t>(s);
}

std::optional<std::uint64_t> parse_u64(std::string_view s) {
  return parse_whole<std::uint64_t>(s);
}

std::optional<double> parse_f64(std::string_view s) {
  const auto v = parse_whole<double>(s);
  if (!v || !std::isfinite(*v)) return std::nullopt;
  return v;
}

std::string format_f64(double v) {
  char buf[32];  // the longest shortest form is 24 characters
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

}  // namespace dragon::util
