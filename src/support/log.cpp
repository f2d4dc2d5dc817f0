#include "support/log.hpp"

#include <cstdlib>
#include <cstring>
#include <string>

namespace prema::util {
namespace {

LogLevel level_from_env() {
  const char* env = std::getenv("PREMA_LOG");
  if (env == nullptr) return LogLevel::kWarn;
  if (std::strcmp(env, "debug") == 0) return LogLevel::kDebug;
  if (std::strcmp(env, "info") == 0) return LogLevel::kInfo;
  if (std::strcmp(env, "error") == 0) return LogLevel::kError;
  return LogLevel::kWarn;
}

const char* level_tag(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO ";
    case LogLevel::kWarn: return "WARN ";
    case LogLevel::kError: return "ERROR";
  }
  return "?";
}

}  // namespace

void logf(LogLevel level, const char* fmt, ...) {
  static const LogLevel threshold = level_from_env();
  if (static_cast<int>(level) < static_cast<int>(threshold)) return;
  std::string line = std::string("[prema ") + level_tag(level) + "] ";
  const std::size_t prefix = line.size();
  va_list args;
  va_start(args, fmt);
  va_list sizing;
  va_copy(sizing, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, sizing);
  va_end(sizing);
  const std::size_t body = n > 0 ? static_cast<std::size_t>(n) : 0;
  // The body's terminating NUL lands on the last byte, which becomes '\n'.
  line.resize(prefix + body + 1);
  if (body > 0) std::vsnprintf(line.data() + prefix, body + 1, fmt, args);
  va_end(args);
  line.back() = '\n';
  std::fwrite(line.data(), 1, line.size(), stderr);
}

}  // namespace prema::util
