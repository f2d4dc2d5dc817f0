#pragma once

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analyze/core.hpp"

/// \file passes.hpp
/// The analyzer passes. Each pass is a pure function over the loaded tree:
/// it may not touch the filesystem, so fixtures and self-tests can run it on
/// synthetic trees.
///
///   conventions    the migrated prema_lint rule families (determinism,
///                  randomness, locking, logging); determinism is the one
///                  check for wall clocks and ambient randomness outside
///                  the thread backend
///   lock-order     acquisition graph vs tools/analyze/lock_hierarchy.txt:
///                  lexical nesting + PREMA_REQUIRES edges must point
///                  strictly down the hierarchy; cycles are reported; every
///                  declared util::Mutex must be listed and carry at least
///                  one thread-safety annotation (GUARDED_BY coverage)
///   serialization  `// wire:<name> <pack|unpack> <var>` marked field
///                  sequences must agree across pack and unpack sites
///   lock-flow      interprocedural: lock-sets propagated over the call
///                  graph; noblock locks held across blocking operations,
///                  PREMA_REQUIRES callees reached without the lock,
///                  unannotated shared fields written on locked paths
///   protocol-fsm   machine-readable state-machine specs
///                  (tools/analyze/protocols/*.txt) vs the handlers that
///                  mutate protocol state: undeclared transitions, writes
///                  outside a transition's grant, missing bound trace events
///   sim-purity     functions outside the wall-clock domains must not
///                  iterate unordered containers
///   atomics        every std::atomic declaration must be registered in
///                  tools/analyze/atomics.txt with a role and an allowed
///                  memory-order set; flags unregistered atomics, implicit
///                  seq_cst operations, RMWs on non-counter roles, orders
///                  outside the allowed set, atomics also GUARDED_BY a
///                  mutex and stale manifest entries; then pairs every
///                  explicit release store of a manifest field with a load
///                  on the acquire side, and every explicit acquire load
///                  with a store on the release side (direct evidence only,
///                  like lock-flow)
///   mixed-access   fields of classes reachable from the ThreadMachine
///                  worker/poller closure with locked plain writes but
///                  reads carrying no direct lock evidence

namespace prema::analyze {

using Findings = std::vector<Finding>;

void pass_conventions(const Tree& tree, const Options& opts, Findings& out);
void pass_lock_order(const Tree& tree, const Options& opts, Findings& out);
void pass_serialization(const Tree& tree, const Options& opts, Findings& out);
void pass_lock_flow(const Tree& tree, const Options& opts, Findings& out);
void pass_protocol_fsm(const Tree& tree, const Options& opts, Findings& out);
void pass_sim_purity(const Tree& tree, const Options& opts, Findings& out);
void pass_atomics(const Tree& tree, const Options& opts, Findings& out);
void pass_mixed_access(const Tree& tree, const Options& opts, Findings& out);

using PassFn = void (*)(const Tree&, const Options&, Findings&);

struct PassInfo {
  const char* name;
  PassFn fn;
  /// Uses the whole-program index: run_all_passes builds it once and shares
  /// it through Options::index.
  bool needs_index = false;
};

/// All passes, in reporting order.
const std::vector<PassInfo>& all_passes();

/// Host time of one run_all_passes call, for `--timings`.
struct PassTimings {
  double index_ms = 0;  ///< building the shared whole-program index
  std::vector<std::pair<const char*, double>> pass_ms;  ///< passes run, in order
};

/// The analyzer's one driver: run the passes named in `only` (every pass when
/// empty) over `tree` in registry order, appending their findings to `out`.
/// The whole-program index is built once, when a selected pass needs it and
/// `opts.index` is null. `timings`, when given, receives the host time spent.
void run_all_passes(const Tree& tree, const Options& opts, Findings& out,
                    const std::set<std::string>& only = {},
                    PassTimings* timings = nullptr);

// -- conventions scanner ----------------------------------------------------

/// The conventions scan of one in-memory file, shared by the conventions
/// pass and its self-test snippets.
void lint_content(const std::string& rel, std::string_view raw, Findings& out);

/// Run the conventions self-test snippets (part of --self-test). Returns the
/// number of failures; prints each failure to stderr.
int legacy_self_test(std::size_t& cases_out);

/// prema_analyze's own self-test: per-pass positive/negative synthetic
/// trees plus report-layer checks. Returns a process exit code (0 = OK).
int run_self_test();

}  // namespace prema::analyze
