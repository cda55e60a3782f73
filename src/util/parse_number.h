// Checked number parsing for command-line arguments and text inputs: the
// whole string must be one base-10 value inside the caller's range, so a
// malformed or out-of-range value is rejected instead of being read as 0,
// cut short at trailing junk, or wrapped into a different value.
#pragma once

#include <charconv>
#include <limits>
#include <optional>
#include <string_view>
#include <system_error>

namespace atis::util {

/// Parses the whole of `text` as a base-10 T in [lo, hi] with
/// std::from_chars: no leading space or '+', no trailing junk, no value
/// that would wrap or truncate, and (for floating T) no NaN or infinity,
/// which fail the range test. Returns nullopt on any of these.
template <typename T>
std::optional<T> ParseNumber(std::string_view text,
                             T lo = std::numeric_limits<T>::lowest(),
                             T hi = std::numeric_limits<T>::max()) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || !(value >= lo && value <= hi)) {
    return std::nullopt;
  }
  return value;
}

}  // namespace atis::util
