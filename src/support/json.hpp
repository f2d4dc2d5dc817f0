#pragma once

#include <string>
#include <string_view>

/// \file json.hpp
/// JSON string escaping, shared by the trace exporter and the bench JSON
/// writer.

namespace prema::util {

/// Escape `s` for a JSON string literal: quotes, backslashes and every
/// control character.
std::string json_escape(std::string_view s);

}  // namespace prema::util
