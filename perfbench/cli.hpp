// Strict command-line number parsing: the whole argument must be
// decimal digits that fit the type. "4x", "abc", "-1", " 7" and "" are
// all rejected, where std::atoi would read 4, 0, -1 and 7.
#pragma once

#include <charconv>
#include <cstdint>
#include <optional>
#include <string_view>

namespace perfbench {

inline std::optional<std::uint64_t> parse_uint(std::string_view text) {
  if (text.empty() || text.front() < '0' || text.front() > '9') {
    return std::nullopt;
  }
  std::uint64_t value = 0;
  const auto [end, error] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (error != std::errc() || end != text.data() + text.size()) {
    return std::nullopt;
  }
  return value;
}

}  // namespace perfbench
