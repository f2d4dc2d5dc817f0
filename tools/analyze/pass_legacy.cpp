// The original prema_lint rule families, migrated into the analyzer
// framework as the "conventions" pass:
//
//  1. determinism — no wall clocks or ambient randomness in library code.
//     std::chrono::{steady,system,high_resolution}_clock, std::random_device,
//     the C legacy rand()/srand()/time()/gettimeofday(), and the wall
//     sources elapsed_s()/seconds_between()/time_since_epoch() (matched as
//     member calls too: `machine_.elapsed_s()` is still a wall read) are
//     banned everywhere except the real-threads backend (thread_machine.*,
//     which *is* the wall-clock domain) and the seeded RNG wrapper
//     (support/rng.hpp).
//
//  2. locking — no raw std:: synchronization primitives outside
//     support/thread_annotations.hpp; a std::mutex smuggled in anywhere else
//     is invisible to -Wthread-safety.
//
//  3. logging — no direct stdout/stderr writes in library code; use
//     support/log.hpp. CLI entry points (*_main.cpp) and the log/assert
//     implementation itself are exempt.
//
// The randomness family (owning util::Rng outside the sanctioned owners)
// rides along with determinism as it always has.

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <iterator>
#include <string>

#include "analyze/passes.hpp"

namespace prema::analyze {
namespace {

struct Rule {
  const char* name;
  const char* needle;
  bool allow_scope_prefix;  ///< std::-qualified names keep their ':' prefix
  bool require_call;        ///< only flag when followed by '('
  const char* why;
  bool skip_if_ref = false;  ///< ignore when followed by '&' (a reference)
  bool match_member = false;  ///< also flag `x.needle(` / `x->needle(` calls
};

constexpr Rule kRules[] = {
    // -- determinism --------------------------------------------------------
    {"determinism", "steady_clock", true, false,
     "wall clock in library code; use the machine's virtual clock"},
    {"determinism", "system_clock", true, false,
     "wall clock in library code; use the machine's virtual clock"},
    {"determinism", "high_resolution_clock", true, false,
     "wall clock in library code; use the machine's virtual clock"},
    {"determinism", "random_device", true, false,
     "ambient entropy; use the seeded util::Rng (support/rng.hpp)"},
    {"determinism", "rand", true, true,
     "legacy C PRNG; use the seeded util::Rng (support/rng.hpp)"},
    {"determinism", "srand", true, true,
     "legacy C PRNG; use the seeded util::Rng (support/rng.hpp)"},
    {"determinism", "time", true, true,
     "wall clock in library code; use the machine's virtual clock"},
    {"determinism", "gettimeofday", true, true,
     "wall clock in library code; use the machine's virtual clock"},
    {"determinism", "elapsed_s", true, true,
     "wall clock in library code; use the machine's virtual clock",
     /*skip_if_ref=*/false, /*match_member=*/true},
    {"determinism", "seconds_between", true, true,
     "wall clock in library code; use the machine's virtual clock",
     /*skip_if_ref=*/false, /*match_member=*/true},
    {"determinism", "time_since_epoch", true, true,
     "wall clock in library code; use the machine's virtual clock",
     /*skip_if_ref=*/false, /*match_member=*/true},
    // -- randomness ---------------------------------------------------------
    // Owning a util::Rng means owning a random stream, and every stream is
    // schedule-relevant state: only the emulator core, the thread backend,
    // the fault-injection subsystem and the partitioner may hold one.
    // Borrowing by reference (util::Rng&) is fine — that consumes the
    // machine's seeded stream instead of minting a new one.
    {"randomness", "Rng", true, false,
     "owning RNG stream outside the sanctioned owners (sim engine, thread "
     "backend, src/fault, partitioner); take util::Rng& from the node instead",
     /*skip_if_ref=*/true},
    // -- locking ------------------------------------------------------------
    {"locking", "mutex", true, false,
     "raw std::mutex; use util::Mutex (support/thread_annotations.hpp) so "
     "-Wthread-safety can see it"},
    {"locking", "recursive_mutex", true, false,
     "raw std::recursive_mutex; use util::RecursiveMutex"},
    {"locking", "shared_mutex", true, false,
     "raw std::shared_mutex; use util::Mutex"},
    {"locking", "lock_guard", true, false, "raw std::lock_guard; use util::LockGuard"},
    {"locking", "scoped_lock", true, false, "raw std::scoped_lock; use util::LockGuard"},
    {"locking", "unique_lock", true, false, "raw std::unique_lock; use util::UniqueLock"},
    {"locking", "condition_variable", true, false,
     "raw std::condition_variable; use util::CondVar"},
    // -- logging ------------------------------------------------------------
    {"logging", "printf", true, true,
     "direct stdout write; use PREMA_LOG_* (support/log.hpp)"},
    {"logging", "fprintf", true, true,
     "direct stderr write; use PREMA_LOG_* (support/log.hpp)"},
    {"logging", "vfprintf", true, true,
     "direct stderr write; use PREMA_LOG_* (support/log.hpp)"},
    {"logging", "puts", true, true,
     "direct stdout write; use PREMA_LOG_* (support/log.hpp)"},
    {"logging", "fputs", true, true,
     "direct stream write; use PREMA_LOG_* (support/log.hpp)"},
    {"logging", "cout", true, false,
     "direct stdout write; use PREMA_LOG_* (support/log.hpp)"},
    {"logging", "cerr", true, false,
     "direct stderr write; use PREMA_LOG_* (support/log.hpp)"},
};

/// Per-rule allowlist, matched against the path relative to the src root
/// (forward slashes).
bool allowed(std::string_view rule, std::string_view rel) {
  if (rule == "determinism") {
    // The real-threads backend is the wall-clock domain by definition; the
    // RNG wrapper is where seeding is implemented.
    return rel == "dmcs/thread_machine.hpp" || rel == "dmcs/thread_machine.cpp" ||
           rel == "support/rng.hpp";
  }
  if (rule == "randomness") {
    // The sanctioned RNG owners: the emulator core (one stream per machine),
    // the thread backend (per-worker streams), the fault subsystem (one
    // stream per link — the whole point of src/fault), the RNG wrapper
    // itself, the partitioner's seeded coarsening, and the service-mode
    // arrival generators (one seeded stream per synthetic client source).
    if (rel.size() >= 6 && rel.substr(0, 6) == "fault/") return true;
    return rel == "sim/engine.hpp" || rel == "dmcs/thread_machine.hpp" ||
           rel == "dmcs/thread_machine.cpp" || rel == "support/rng.hpp" ||
           rel == "partition/multilevel.cpp" ||
           rel == "service/arrivals.hpp" || rel == "service/arrivals.cpp";
  }
  if (rule == "locking") {
    // The one place raw primitives may appear: the annotated wrappers.
    return rel == "support/thread_annotations.hpp";
  }
  if (rule == "logging") {
    // CLI entry points print by design; the logger and the assert macro are
    // the sanctioned stderr writers.
    if (rel.size() >= 9 && rel.substr(rel.size() - 9) == "_main.cpp") return true;
    return rel == "support/log.hpp" || rel == "support/log.cpp" ||
           rel == "support/assert.hpp";
  }
  return false;
}

// ---------------------------------------------------------------------------
// Self-test snippets: every rule must fire on a seeded violation and stay
// silent on the idiomatic legal spelling of the same thing.
// `prema_analyze --self-test` runs them.
// ---------------------------------------------------------------------------

struct Snippet {
  const char* label;
  const char* rel;  ///< pretend path relative to src root
  const char* code;
  bool expect_violation;
};

constexpr Snippet kSnippets[] = {
    // Positives: each rule family catches its seeded violation.
    {"steady_clock in library code", "ilb/balancer.cpp",
     "auto t = std::chrono::steady_clock::now();", true},
    {"wall elapsed_s() member call", "mol/mixer.cpp",
     "double d = machine_.elapsed_s() + n->now();", true},
    {"wall seconds_between() call", "prema/runtime.cpp",
     "double d = seconds_between(t0, t1);", true},
    {"time_since_epoch() member call", "ilb/sfc.cpp",
     "auto e = tp.time_since_epoch().count();", true},
    {"random_device in library code", "mol/mol.cpp",
     "std::random_device rd; auto s = rd();", true},
    {"bare rand() call", "sim/event_queue.cpp", "int r = rand();", true},
    {"bare time() call", "prema/runtime.cpp", "auto t = time(nullptr);", true},
    {"std::time() call", "prema/runtime.cpp", "auto t = std::time(nullptr);", true},
    {"owning Rng in library code", "ilb/policies/work_stealing.cpp",
     "util::Rng rng_{7};", true},
    {"Rng in a container outside src/fault", "mol/mol.cpp",
     "std::vector<util::Rng> streams_;", true},
    {"raw std::mutex", "ilb/scheduler.hpp", "std::mutex mu_;", true},
    {"raw lock_guard", "ilb/scheduler.cpp",
     "std::lock_guard<std::mutex> g(mu_);", true},
    {"raw condition_variable", "dmcs/node.hpp", "std::condition_variable cv_;", true},
    {"printf in library code", "mol/mol.cpp", "printf(\"%d\", x);", true},
    {"std::cout in library code", "trace/export.cpp", "std::cout << x;", true},
    {"fprintf in library code", "graph/graph.cpp",
     "std::fprintf(stderr, \"x\");", true},

    // Negatives: legal idioms that a naive substring scan would flag.
    {"steady_clock allowed in the thread backend", "dmcs/thread_machine.cpp",
     "using Clock = std::chrono::steady_clock;", false},
    {"elapsed_s() allowed in the thread backend", "dmcs/thread_machine.cpp",
     "double ThreadNode::now() const { return machine_.elapsed_s(); }", false},
    {"a variable named elapsed_s is not a wall read", "service/ledger.cpp",
     "double elapsed_s = t - t0;", false},
    {"raw mutex allowed in the wrapper header", "support/thread_annotations.hpp",
     "std::mutex mu_; std::condition_variable cv_;", false},
    {"fprintf allowed in CLI entry points", "trace/trace_check_main.cpp",
     "std::fprintf(stderr, \"usage\\n\");", false},
    {"fprintf allowed in the logger", "support/log.cpp",
     "std::vfprintf(stderr, fmt, args);", false},
    {"snprintf is formatting, not output", "trace/export.cpp",
     "std::snprintf(buf, sizeof buf, \"%g\", v);", false},
    {"transfer_time() is not ::time()", "sim/network.cpp",
     "double t = transfer_time(bytes);", false},
    {"member .time() is not ::time()", "sim/event_queue.cpp",
     "double t = ev.time();", false},
    {"steady_clock in a comment", "ilb/balancer.cpp",
     "// steady_clock would be wrong here\nint x = 0;", false},
    {"mutex in a string literal", "support/log.cpp",
     "const char* s = \"std::mutex is banned\";", false},
    {"util::Mutex wrapper is fine", "dmcs/thread_machine.hpp",
     "util::Mutex inbox_mutex_; util::LockGuard g(inbox_mutex_);", false},
    {"identifier containing a banned word", "ilb/scheduler.cpp",
     "int mutex_count = 0; double timeout = grand_total;", false},
    {"rng.hpp may seed from anywhere", "support/rng.hpp",
     "std::random_device rd;", false},
    {"borrowing util::Rng& is fine anywhere", "ilb/policies/work_stealing.cpp",
     "util::Rng& rng = ctx.rng();", false},
    {"fault subsystem owns its per-link streams", "fault/fault_plan.hpp",
     "std::vector<util::Rng> link_rng_;", false},
    {"sim engine owns the machine stream", "sim/engine.hpp",
     "util::Rng rng_;", false},
    {"partitioner seeds its own stream", "partition/multilevel.cpp",
     "util::Rng rng(opts.seed);", false},
    {"arrival generator owns its client streams", "service/arrivals.hpp",
     "util::Rng rng_;", false},
    {"Rng owned outside the service allowlist", "service/ledger.cpp",
     "util::Rng rng_{3};", true},
};

}  // namespace

void lint_content(const std::string& rel, std::string_view raw, Findings& out) {
  const std::string code = strip_comments_and_literals(raw);
  for (const Rule& r : kRules) {
    if (allowed(r.name, rel)) continue;
    std::size_t from = 0;
    while (true) {
      std::size_t pos =
          find_ident(code, r.needle, from, r.allow_scope_prefix, r.require_call);
      if (r.match_member) pos = std::min(pos, find_member_call(code, r.needle, from));
      if (pos == std::string_view::npos) break;
      from = pos + 1;
      if (r.skip_if_ref) {
        std::size_t after = pos + std::string_view(r.needle).size();
        after = skip_ws(code, after);
        if (after < code.size() && code[after] == '&') continue;
      }
      Finding f;
      f.rule = r.name;
      f.file = rel;
      f.line = line_of(code, pos);
      f.message = std::string("`") + r.needle + "`: " + r.why;
      out.push_back(std::move(f));
    }
  }
}

void pass_conventions(const Tree& tree, const Options&, Findings& out) {
  for (const SourceFile& f : tree.files) lint_content(f.rel, f.raw, out);
}

int legacy_self_test(std::size_t& cases_out) {
  cases_out = std::size(kSnippets);
  int failures = 0;
  for (const Snippet& s : kSnippets) {
    Findings out;
    lint_content(s.rel, s.code, out);
    const bool fired = !out.empty();
    if (fired != s.expect_violation) {
      std::fprintf(stderr, "self-test FAIL: %s (expected %s, got %s)\n", s.label,
                   s.expect_violation ? "violation" : "clean",
                   fired ? "violation" : "clean");
      for (const auto& f : out) {
        std::fprintf(stderr, "  fired: [%s] %s at line %d\n", f.rule.c_str(),
                     f.message.c_str(), f.line);
      }
      ++failures;
    }
  }
  return failures;
}

}  // namespace prema::analyze
