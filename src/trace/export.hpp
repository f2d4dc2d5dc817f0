#pragma once

#include <iosfwd>
#include <span>
#include <string>
#include <string_view>

#include "support/time_ledger.hpp"
#include "trace/trace.hpp"

/// \file export.hpp
/// Exporters over a TraceRecorder:
///  - Chrome trace-event JSON: one track (tid) per processor, work-unit and
///    partition spans as complete ("X") events, everything else as instants.
///    Loadable in Perfetto (ui.perfetto.dev) or chrome://tracing.
///  - Text summary: per-processor counter table, machine-wide distributions
///    (via util::RunningStats::merge), and — when the machine's TimeLedgers
///    are supplied — a reconciliation of traced work/partition span time
///    against the corresponding ledger buckets.
/// Plus a small structural checker for the emitted JSON, used by tests and
/// the `trace_check` tool.
///
/// All output is deterministic: events are sorted per track by timestamp
/// (ties keep recording order) and numbers are printed with fixed formats,
/// so identical runs produce byte-identical files.

namespace prema::trace {

/// Write the whole recorder as Chrome trace-event JSON ("ts" in microseconds).
void write_chrome_trace(std::ostream& os, const TraceRecorder& rec);

/// write_chrome_trace to `path`; returns false (and logs) on I/O failure.
bool write_chrome_trace_file(const std::string& path, const TraceRecorder& rec);

/// Human-readable summary. When `ledgers` is non-empty it must have one
/// entry per processor; the summary then reconciles traced span time against
/// the ledger's Computation (+Callback) and Partition Calculation buckets.
void write_summary(std::ostream& os, const TraceRecorder& rec,
                   std::span<const util::TimeLedger> ledgers = {});

/// Result of structurally checking a Chrome trace-event JSON document.
struct ChromeTraceCheck {
  bool ok = false;
  std::string error;        ///< first problem found, empty when ok
  std::size_t events = 0;   ///< "X"/"i" events seen
  std::size_t tracks = 0;   ///< distinct (pid, tid) pairs
};

/// Parse `json` (self-contained minimal JSON parser — no third-party
/// dependency) and verify it is a Chrome trace: top-level object with a
/// "traceEvents" array; every event has "ph"/"pid"/"tid"; "X"/"i" events
/// carry finite "ts" (and "dur" >= 0 for "X"); per-track timestamps are
/// monotonically non-decreasing.
ChromeTraceCheck check_chrome_trace(std::string_view json);

}  // namespace prema::trace
