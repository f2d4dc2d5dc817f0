// trace_check: validate a Chrome trace-event JSON file emitted by the trace
// subsystem (or anything else claiming the format). Exit 0 iff the file is a
// structurally valid trace with monotonic per-track timestamps.
//
// Usage: trace_check <trace.json> [--min-events=N]
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "support/parse.hpp"
#include "trace/export.hpp"

int main(int argc, char** argv) {
  const char* path = nullptr;
  std::uint64_t min_events = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--min-events=", 13) == 0) {
      if (!prema::util::parse_u64(argv[i] + 13, min_events)) {
        std::fprintf(stderr, "bad --min-events value: %s\n", argv[i] + 13);
        return 2;
      }
    } else if (!path) {
      path = argv[i];
    } else {
      std::fprintf(stderr, "usage: trace_check <trace.json> [--min-events=N]\n");
      return 2;
    }
  }
  if (!path) {
    std::fprintf(stderr, "usage: trace_check <trace.json> [--min-events=N]\n");
    return 2;
  }

  std::ifstream f(path, std::ios::binary);
  if (!f) {
    std::fprintf(stderr, "trace_check: cannot open %s\n", path);
    return 1;
  }
  std::ostringstream ss;
  ss << f.rdbuf();
  const std::string json = ss.str();

  const auto res = prema::trace::check_chrome_trace(json);
  if (!res.ok) {
    std::fprintf(stderr, "trace_check: %s: INVALID: %s\n", path,
                 res.error.c_str());
    return 1;
  }
  if (res.events < min_events) {
    std::fprintf(stderr,
                 "trace_check: %s: valid but only %zu events (< %llu)\n", path,
                 res.events, static_cast<unsigned long long>(min_events));
    return 1;
  }
  std::printf("trace_check: %s: OK (%zu events on %zu tracks)\n", path,
              res.events, res.tracks);
  return 0;
}
