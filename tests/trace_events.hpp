#pragma once

#include <cstddef>
#include <fstream>
#include <string>
#include <vector>

/// \file trace_events.hpp
/// Test helper: read an exported Chrome trace (src/trace/export.cpp writes
/// one event per line) and count the events of one name on each track.

namespace prema::testutil {

/// Number of `name` events on each of the tracks (`tid`s) 0..ntracks-1 in
/// the trace file at `path`.
inline std::vector<int> events_per_track(const std::string& path,
                                         const std::string& name, int ntracks) {
  std::vector<int> counts(static_cast<std::size_t>(ntracks), 0);
  const std::string key = "\"name\":\"" + name + "\"";
  std::ifstream in(path);
  for (std::string line; std::getline(in, line);) {
    const auto tid_at = line.find("\"tid\":");
    if (line.find(key) == std::string::npos || tid_at == std::string::npos) continue;
    const int tid = std::stoi(line.substr(tid_at + 6));
    if (tid >= 0 && tid < ntracks) ++counts[static_cast<std::size_t>(tid)];
  }
  return counts;
}

}  // namespace prema::testutil
