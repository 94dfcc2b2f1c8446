// Strict flag-value parsing shared by the command-line tools.  A numeric
// flag value must be one whole token inside its range: "12x", "abc", an
// empty string or an overflowing count is rejected, never read as a
// prefix or as 0.  The *_flag() forms print what was wrong and exit with
// status 2 (the tools' usage-error status).
#pragma once

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>

#include "util/date.h"

namespace diurnal::tools {

/// Parses a whole base-10 integer token in [lo, hi].
template <typename T>
std::optional<T> parse_int(std::string_view s,
                           T lo = std::numeric_limits<T>::min(),
                           T hi = std::numeric_limits<T>::max()) {
  T v{};
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (ec != std::errc{} || ptr != end || v < lo || v > hi) {
    return std::nullopt;
  }
  return v;
}

/// Parses a positive duration in seconds: "1d", "6h", "90m", "660s", or
/// bare seconds.  At most one unit suffix, nothing after it.
inline std::optional<std::int64_t> parse_duration(std::string_view s) {
  constexpr std::pair<char, std::int64_t> kUnits[] = {
      {'d', util::kSecondsPerDay}, {'h', 3600}, {'m', 60}, {'s', 1}};
  std::int64_t scale = 1;
  for (const auto& [unit, seconds] : kUnits) {
    if (!s.empty() && s.back() == unit) {
      scale = seconds;
      s.remove_suffix(1);
      break;
    }
  }
  const auto n = parse_int<std::int64_t>(
      s, 1, std::numeric_limits<std::int64_t>::max() / scale);
  if (!n) return std::nullopt;
  return *n * scale;
}

/// parse_int(), or exit 2 naming the flag and the accepted range.
template <typename T>
T int_flag(const std::string& flag, const std::string& value,
           T lo = std::numeric_limits<T>::min(),
           T hi = std::numeric_limits<T>::max()) {
  if (const auto v = parse_int<T>(value, lo, hi)) return *v;
  const std::string range =
      "[" + std::to_string(lo) + ", " + std::to_string(hi) + "]";
  std::fprintf(stderr, "%s: bad value '%s' (want an integer in %s)\n",
               flag.c_str(), value.c_str(), range.c_str());
  std::exit(2);
}

/// parse_duration(), or exit 2 naming the flag.
inline std::int64_t duration_flag(const std::string& flag,
                                  const std::string& value) {
  if (const auto v = parse_duration(value)) return *v;
  std::fprintf(stderr, "%s: bad duration '%s' (use e.g. 1d, 6h, 90m, 660s)\n",
               flag.c_str(), value.c_str());
  std::exit(2);
}

}  // namespace diurnal::tools
