#pragma once

#include <charconv>
#include <cstdint>
#include <string_view>
#include <system_error>

/// \file parse.hpp
/// Strict parsing of numeric command-line values.

namespace prema::util {

/// Parse a non-empty run of decimal digits that fits in 64 bits. False on
/// anything else (a sign, spaces, trailing text).
[[nodiscard]] inline bool parse_u64(std::string_view text, std::uint64_t& value) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  return ec == std::errc() && ptr == end;
}

}  // namespace prema::util
