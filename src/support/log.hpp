#pragma once

#include <cstdarg>
#include <cstdio>

/// \file log.hpp
/// Minimal leveled logging to stderr. Default level is Warn so tests and
/// benchmarks stay quiet; set PREMA_LOG=debug|info|warn|error in the
/// environment to change it (read once, at the first log statement).

namespace prema::util {

enum class LogLevel : int { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

/// printf-style log statement; drops the message if below the threshold.
/// Each line goes out in one stdio call, which locks the stream, so lines
/// from concurrent thread-backend workers never interleave.
void logf(LogLevel level, const char* fmt, ...) __attribute__((format(printf, 2, 3)));

}  // namespace prema::util

#define PREMA_LOG_DEBUG(...) ::prema::util::logf(::prema::util::LogLevel::kDebug, __VA_ARGS__)
#define PREMA_LOG_INFO(...) ::prema::util::logf(::prema::util::LogLevel::kInfo, __VA_ARGS__)
#define PREMA_LOG_WARN(...) ::prema::util::logf(::prema::util::LogLevel::kWarn, __VA_ARGS__)
#define PREMA_LOG_ERROR(...) ::prema::util::logf(::prema::util::LogLevel::kError, __VA_ARGS__)
