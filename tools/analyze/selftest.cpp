// prema_analyze self-test: every semantic pass must fire on a seeded
// violation assembled from snippets and stay silent on the idiomatic legal
// spelling of the same construct. These are the in-binary counterparts of
// the on-disk fixtures under tools/analyze/fixtures/ — the fixtures exercise
// the CLI end to end, these exercise the passes as library code.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "analyze/report.hpp"

namespace prema::analyze {
namespace {

struct TreeCase {
  TreeCase(const char* label_, PassFn pass_,
           std::vector<std::pair<const char*, const char*>> files_,
           const char* hierarchy_, const char* design_, const char* expect_rule_,
           std::vector<std::pair<const char*, const char*>> protocols_ = {},
           const char* atomics_ = "")
      : label(label_), pass(pass_), files(std::move(files_)),
        hierarchy(hierarchy_), design(design_), expect_rule(expect_rule_),
        protocols(std::move(protocols_)), atomics(atomics_) {}

  const char* label;
  PassFn pass;
  std::vector<std::pair<const char*, const char*>> files;  ///< rel -> content
  const char* hierarchy;    ///< lock_hierarchy.txt text ("" = none)
  const char* design;       ///< DESIGN.md text ("" = none)
  const char* expect_rule;  ///< nullptr = expect no findings at all
  /// Protocol spec files (name -> text) handed to opts.protocol_specs.
  std::vector<std::pair<const char*, const char*>> protocols;
  const char* atomics;  ///< atomics.txt text ("" = pass disabled)
};

std::vector<TreeCase> tree_cases() {
  std::vector<TreeCase> cases;

  // -- conventions (the migrated prema_lint families; the full snippet set
  //    runs via legacy_self_test, this is just the pass-level wiring) -------
  cases.push_back({"conventions: wall clock in library code", pass_conventions,
                   {{"ilb/balancer.cpp",
                     "auto t = std::chrono::steady_clock::now();"}},
                   "", "", "determinism"});
  cases.push_back({"conventions: wall clock allowed in thread backend",
                   pass_conventions,
                   {{"dmcs/thread_machine.cpp",
                     "using Clock = std::chrono::steady_clock;"}},
                   "", "", nullptr});

  // -- lock-order ----------------------------------------------------------
  const char* kAB = "a a_mu\nb b_mu\n";
  cases.push_back({"lock-order: inversion against the hierarchy",
                   pass_lock_order,
                   {{"dmcs/x.cpp",
                     "void f() {\n"
                     "  util::LockGuard g1(b_mu_);\n"
                     "  util::LockGuard g2(a_mu_);\n"
                     "}\n"}},
                   kAB, "", "lock-order"});
  cases.push_back({"lock-order: nesting down the hierarchy is legal",
                   pass_lock_order,
                   {{"dmcs/x.cpp",
                     "void f() {\n"
                     "  util::LockGuard g1(a_mu_);\n"
                     "  util::LockGuard g2(b_mu_);\n"
                     "}\n"}},
                   kAB, "", nullptr});
  cases.push_back({"lock-order: re-acquire without recursive marking",
                   pass_lock_order,
                   {{"dmcs/x.cpp",
                     "void f() {\n"
                     "  util::LockGuard g1(a_mu_);\n"
                     "  { util::LockGuard g2(a_mu_); }\n"
                     "}\n"}},
                   "a a_mu\n", "", "lock-order"});
  cases.push_back({"lock-order: recursive lock may re-acquire itself",
                   pass_lock_order,
                   {{"dmcs/x.cpp",
                     "void f() {\n"
                     "  util::RecursiveLock g1(a_mu_);\n"
                     "  { util::RecursiveLock g2(a_mu_); }\n"
                     "}\n"}},
                   "a a_mu recursive\n", "", nullptr});
  cases.push_back({"lock-order: cross-file acquisition cycle", pass_lock_order,
                   {{"dmcs/x.cpp",
                     "void f() { util::LockGuard g1(a_mu_); "
                     "util::LockGuard g2(b_mu_); }\n"},
                    {"dmcs/y.cpp",
                     "void g() { util::LockGuard g1(b_mu_); "
                     "util::LockGuard g2(a_mu_); }\n"}},
                   "", "", "lock-order"});
  cases.push_back({"lock-order: PREMA_REQUIRES hold creates an edge",
                   pass_lock_order,
                   {{"dmcs/x.cpp",
                     "void f() PREMA_REQUIRES(b_mu_) {\n"
                     "  util::LockGuard g(a_mu_);\n"
                     "}\n"}},
                   kAB, "", "lock-order"});
  cases.push_back({"lock-order: acquisition of an unlisted lock",
                   pass_lock_order,
                   {{"dmcs/x.cpp",
                     "void f() { util::LockGuard g(x_mu_); }\n"}},
                   "a a_mu\n", "", "lock-unlisted"});
  cases.push_back({"lock-order: declared mutex without any annotation",
                   pass_lock_order,
                   {{"dmcs/x.hpp", "class C { util::Mutex mu_; };\n"}},
                   "mu mu\n", "", "lock-unguarded"});
  cases.push_back({"lock-order: GUARDED_BY satisfies coverage",
                   pass_lock_order,
                   {{"dmcs/x.hpp",
                     "class C {\n"
                     "  util::Mutex mu_;\n"
                     "  int state_ PREMA_GUARDED_BY(mu_) = 0;\n"
                     "};\n"}},
                   "mu mu\n", "", nullptr});
  cases.push_back({"lock-order: hierarchy entry missing from DESIGN.md",
                   pass_lock_order,
                   {},
                   "zeta zeta_mu\n", "The design prose names no such lock.",
                   "lock-hierarchy-drift"});

  // -- serialization -------------------------------------------------------
  const char* kPack =
      "void send(W& w) {\n"
      "  // wire:test.msg pack w\n"
      "  w.put<std::uint32_t>(x);\n"
      "  w.put_bytes(b, n);\n"
      "}\n";
  cases.push_back({"serialization: symmetric pack/unpack is clean",
                   pass_serialization,
                   {{"dmcs/a.cpp", kPack},
                    {"dmcs/b.cpp",
                     "void recv(R& r) {\n"
                     "  // wire:test.msg unpack r\n"
                     "  auto x = r.get<std::uint32_t>();\n"
                     "  r.get_bytes(n);\n"
                     "}\n"}},
                   "", "", nullptr});
  cases.push_back({"serialization: field type diverges", pass_serialization,
                   {{"dmcs/a.cpp", kPack},
                    {"dmcs/b.cpp",
                     "void recv(R& r) {\n"
                     "  // wire:test.msg unpack r\n"
                     "  auto x = r.get<std::uint64_t>();\n"
                     "  r.get_bytes(n);\n"
                     "}\n"}},
                   "", "", "serialization-asymmetry"});
  cases.push_back({"serialization: pack side without unpack",
                   pass_serialization,
                   {{"dmcs/a.cpp", kPack}},
                   "", "", "serialization-unpaired"});
  cases.push_back({"serialization: malformed marker", pass_serialization,
                   {{"dmcs/a.cpp", "// wire:oops\nvoid f() {}\n"}},
                   "", "", "serialization-unpaired"});

  // -- lock-flow -----------------------------------------------------------
  const char* kNb = "t t_mu noblock\n";
  cases.push_back({"lock-flow: send under a noblock lock", pass_lock_flow,
                   {{"dmcs/x.cpp",
                     "void f(N* n) {\n"
                     "  util::LockGuard g(t_mu_);\n"
                     "  n->send(1, m);\n"
                     "}\n"}},
                   kNb, "", "lock-flow-blocking"});
  cases.push_back({"lock-flow: send after the guard scope closes",
                   pass_lock_flow,
                   {{"dmcs/x.cpp",
                     "void f(N* n) {\n"
                     "  { util::LockGuard g(t_mu_); touch(); }\n"
                     "  n->send(1, m);\n"
                     "}\n"}},
                   kNb, "", nullptr});
  cases.push_back({"lock-flow: blocking callee reached through the call graph",
                   pass_lock_flow,
                   {{"dmcs/x.cpp",
                     "void leaf(N* n) { n->send(1, m); }\n"
                     "void f(N* n) {\n"
                     "  util::LockGuard g(t_mu_);\n"
                     "  leaf(n);\n"
                     "}\n"}},
                   kNb, "", "lock-flow-blocking"});
  cases.push_back({"lock-flow: cv wait may hold its own guard", pass_lock_flow,
                   {{"dmcs/x.cpp",
                     "void f() {\n"
                     "  util::UniqueLock lk(t_mu_);\n"
                     "  cv_.wait(lk);\n"
                     "}\n"}},
                   kNb, "", nullptr});
  cases.push_back({"lock-flow: call without the callee's REQUIRES lock",
                   pass_lock_flow,
                   {{"dmcs/x.cpp",
                     "void callee() PREMA_REQUIRES(t_mu_) { touch(); }\n"
                     "void f() { callee(); }\n"}},
                   kNb, "", "lock-flow-requires"});
  cases.push_back({"lock-flow: REQUIRES satisfied by a lexical guard",
                   pass_lock_flow,
                   {{"dmcs/x.cpp",
                     "void callee() PREMA_REQUIRES(t_mu_) { touch(); }\n"
                     "void f() {\n"
                     "  util::LockGuard g(t_mu_);\n"
                     "  callee();\n"
                     "}\n"}},
                   kNb, "", nullptr});
  cases.push_back({"lock-flow: locked write to an unannotated shared field",
                   pass_lock_flow,
                   {{"dmcs/x.hpp",
                     "class C {\n"
                     " public:\n"
                     "  void f() PREMA_REQUIRES(t_mu_) { state_ = 1; }\n"
                     " private:\n"
                     "  util::Mutex t_mu_;\n"
                     "  int state_ = 0;\n"
                     "};\n"}},
                   kNb, "", "lock-flow-unguarded"});
  cases.push_back({"lock-flow: GUARDED_BY covers the locked write",
                   pass_lock_flow,
                   {{"dmcs/x.hpp",
                     "class C {\n"
                     " public:\n"
                     "  void f() PREMA_REQUIRES(t_mu_) { state_ = 1; }\n"
                     " private:\n"
                     "  util::Mutex t_mu_;\n"
                     "  int state_ PREMA_GUARDED_BY(t_mu_) = 0;\n"
                     "};\n"}},
                   kNb, "", nullptr});

  // -- protocol-fsm --------------------------------------------------------
  const char* kSpec =
      "protocol demo\n"
      "files dmcs/\n"
      "var st_\n"
      "transition step fn=do_step writes=st_\n";
  cases.push_back({"protocol-fsm: declared transition writes are legal",
                   pass_protocol_fsm,
                   {{"dmcs/x.cpp", "void do_step() { st_ = 1; }\n"}},
                   "", "", nullptr, {{"demo", kSpec}}});
  cases.push_back({"protocol-fsm: undeclared handler mutates protocol state",
                   pass_protocol_fsm,
                   {{"dmcs/x.cpp",
                     "void do_step() { st_ = 1; }\n"
                     "void rogue() { st_ = 2; }\n"}},
                   "", "", "protocol-fsm-undeclared", {{"demo", kSpec}}});
  cases.push_back({"protocol-fsm: write outside the transition's grant",
                   pass_protocol_fsm,
                   {{"dmcs/x.cpp", "void do_step() { st_ = 1; extra_ = 2; }\n"}},
                   "", "", "protocol-fsm-extra-write",
                   {{"demo",
                     "protocol demo\n"
                     "files dmcs/\n"
                     "var st_ extra_\n"
                     "transition step fn=do_step writes=st_\n"}}});
  const char* kEmitSpec =
      "protocol demo\n"
      "files dmcs/\n"
      "var st_\n"
      "transition step fn=do_step writes=st_ emits=step_done\n";
  cases.push_back({"protocol-fsm: transition must emit its trace event",
                   pass_protocol_fsm,
                   {{"dmcs/x.cpp", "void do_step() { st_ = 1; }\n"}},
                   "", "", "protocol-fsm-missing-emit", {{"demo", kEmitSpec}}});
  cases.push_back({"protocol-fsm: emitting transition is clean",
                   pass_protocol_fsm,
                   {{"dmcs/x.cpp",
                     "void do_step() { st_ = 1; trace_->step_done(1); }\n"}},
                   "", "", nullptr, {{"demo", kEmitSpec}}});
  const char* kKindSpec =
      "protocol demo\n"
      "files dmcs/\n"
      "var st_\n"
      "transition step fn=do_step writes=st_ emits=kStepDone\n";
  cases.push_back({"protocol-fsm: recording the bound event kind is clean",
                   pass_protocol_fsm,
                   {{"dmcs/x.cpp",
                     "void do_step() {\n"
                     "  st_ = 1;\n"
                     "  trace_->record(EventKind::kStepDone, now(), -1, 0);\n"
                     "}\n"}},
                   "", "", nullptr, {{"demo", kKindSpec}}});
  cases.push_back({"protocol-fsm: recording another kind still misses the emit",
                   pass_protocol_fsm,
                   {{"dmcs/x.cpp",
                     "void do_step() {\n"
                     "  st_ = 1;\n"
                     "  trace_->record(EventKind::kStepBegun, now());\n"
                     "}\n"}},
                   "", "", "protocol-fsm-missing-emit", {{"demo", kKindSpec}}});
  cases.push_back({"protocol-fsm: transition function missing from the tree",
                   pass_protocol_fsm,
                   {{"dmcs/x.cpp", "void other() { touch(); }\n"}},
                   "", "", "protocol-fsm-missing-fn", {{"demo", kSpec}}});
  cases.push_back({"protocol-fsm: malformed spec surfaces as a finding",
                   pass_protocol_fsm,
                   {{"dmcs/x.cpp", "void do_step() { touch(); }\n"}},
                   "", "", "protocol-fsm-spec", {{"demo", "transition step\n"}}});

  // -- sim-purity ----------------------------------------------------------
  cases.push_back({"sim-purity: iteration over an unordered container",
                   pass_sim_purity,
                   {{"ilb/x.hpp",
                     "class C {\n"
                     " public:\n"
                     "  void f() { for (const auto& kv : m_) { use(kv); } }\n"
                     " private:\n"
                     "  std::unordered_map<int, int> m_;\n"
                     "};\n"}},
                   "", "", "sim-purity-unordered"});
  cases.push_back({"sim-purity: thread backend is outside the sim domain",
                   pass_sim_purity,
                   {{"dmcs/thread_machine.hpp",
                     "class C {\n"
                     " public:\n"
                     "  void f() { for (const auto& kv : m_) { use(kv); } }\n"
                     " private:\n"
                     "  std::unordered_map<int, int> m_;\n"
                     "};\n"}},
                   "", "", nullptr});
  cases.push_back({"sim-purity: ordered container iteration is deterministic",
                   pass_sim_purity,
                   {{"ilb/x.hpp",
                     "class C {\n"
                     " public:\n"
                     "  void f() { for (const auto& kv : m_) { use(kv); } }\n"
                     " private:\n"
                     "  std::map<int, int> m_;\n"
                     "};\n"}},
                   "", "", nullptr});

  // -- atomics: discipline -------------------------------------------------
  const char* kGate =
      "class Gate {\n"
      " public:\n"
      "  void open() { flag_.store(true, std::memory_order_release); }\n"
      "  bool is_open() const {\n"
      "    return flag_.load(std::memory_order_acquire);\n"
      "  }\n"
      " private:\n"
      "  std::atomic<bool> flag_{false};\n"
      "};\n";
  const char* kGateManifest =
      "flag_ role=flag orders=release,acquire class=Gate\n";
  cases.push_back({"atomics: registered flag, paired release/acquire, is clean",
                   pass_atomics,
                   {{"dmcs/gate.hpp", kGate}},
                   "", "", nullptr, {}, kGateManifest});
  cases.push_back({"atomics: atomic missing from the manifest",
                   pass_atomics,
                   {{"dmcs/gate.hpp", kGate}},
                   "", "", "atomic-unregistered", {},
                   "# reviewed: nothing registered yet\n"});
  cases.push_back({"atomics: allow-comment acknowledges a decl",
                   pass_atomics,
                   {{"dmcs/gate.hpp",
                     "class Gate {\n"
                     "  // analyze:allow(atomic-unregistered)\n"
                     "  std::atomic<bool> flag_{false};\n"
                     "};\n"}},
                   "", "", nullptr, {}, "# reviewed: nothing registered yet\n"});
  cases.push_back({"atomics: store with no order is implicit seq_cst",
                   pass_atomics,
                   {{"dmcs/gate.hpp",
                     "class Gate {\n"
                     " public:\n"
                     "  void open() { flag_.store(true); }\n"
                     " private:\n"
                     "  std::atomic<bool> flag_{false};\n"
                     "};\n"}},
                   "", "", "atomic-implicit-order", {}, kGateManifest});
  cases.push_back({"atomics: plain `=` routes through seq_cst store",
                   pass_atomics,
                   {{"dmcs/gate.hpp",
                     "class Gate {\n"
                     " public:\n"
                     "  void open() { flag_ = true; }\n"
                     " private:\n"
                     "  std::atomic<bool> flag_{false};\n"
                     "};\n"}},
                   "", "", "atomic-implicit-order", {}, kGateManifest});
  cases.push_back({"atomics: order outside the allowed set",
                   pass_atomics,
                   {{"dmcs/gate.hpp",
                     "class Gate {\n"
                     " public:\n"
                     "  bool peek() const {\n"
                     "    return flag_.load(std::memory_order_relaxed);\n"
                     "  }\n"
                     " private:\n"
                     "  std::atomic<bool> flag_{false};\n"
                     "};\n"}},
                   "", "", "atomic-order", {}, kGateManifest});
  cases.push_back({"atomics: RMW on a flag role",
                   pass_atomics,
                   {{"dmcs/gate.hpp",
                     "class Gate {\n"
                     " public:\n"
                     "  bool claim() {\n"
                     "    return flag_.exchange(true, std::memory_order_acq_rel);\n"
                     "  }\n"
                     " private:\n"
                     "  std::atomic<bool> flag_{false};\n"
                     "};\n"}},
                   "", "", "atomic-rmw", {},
                   "flag_ role=flag orders=release,acquire,acq_rel class=Gate\n"});
  const char* kTally =
      "class Tally {\n"
      " public:\n"
      "  void hit() { n_++; }\n"
      "  void add(long k) { n_.fetch_add(k, std::memory_order_relaxed); }\n"
      "  long total() const { return n_.load(std::memory_order_relaxed); }\n"
      " private:\n"
      "  std::atomic<long> n_{0};\n"
      "};\n";
  cases.push_back({"atomics: counter may use operator and RMW forms",
                   pass_atomics,
                   {{"dmcs/tally.hpp", kTally}},
                   "", "", nullptr, {},
                   "n_ role=counter orders=relaxed class=Tally\n"});
  cases.push_back({"atomics: atomic also GUARDED_BY a mutex",
                   pass_atomics,
                   {{"dmcs/both.hpp",
                     "class Both {\n"
                     " private:\n"
                     "  util::Mutex mu_;\n"
                     "  std::atomic<int> n_ PREMA_GUARDED_BY(mu_){0};\n"
                     "};\n"}},
                   "", "", "atomic-guarded", {},
                   "n_ role=counter orders=seq_cst class=Both\n"});
  cases.push_back({"atomics: manifest entry matching no declaration",
                   pass_atomics,
                   {{"dmcs/x.cpp", "void f() { touch(); }\n"}},
                   "", "", "atomic-stale", {},
                   "ghost_ role=flag orders=seq_cst\n"});
  cases.push_back({"atomics: malformed manifest surfaces as finding",
                   pass_atomics,
                   {{"dmcs/gate.hpp", kGate}},
                   "", "", "atomic-manifest", {},
                   "flag_ role=banana orders=seq_cst class=Gate\n"});

  // -- atomics: release-acquire pairing ------------------------------------
  cases.push_back({"atomics: release store nobody loads",
                   pass_atomics,
                   {{"dmcs/gate.hpp",
                     "class Gate {\n"
                     " public:\n"
                     "  void open() { flag_.store(true, std::memory_order_release); }\n"
                     " private:\n"
                     "  std::atomic<bool> flag_{false};\n"
                     "};\n"}},
                   "", "", "release-acquire-unpaired-store", {}, kGateManifest});
  cases.push_back({"atomics: acquire load nobody stores",
                   pass_atomics,
                   {{"dmcs/gate.hpp",
                     "class Gate {\n"
                     " public:\n"
                     "  bool is_open() const {\n"
                     "    return flag_.load(std::memory_order_acquire);\n"
                     "  }\n"
                     " private:\n"
                     "  std::atomic<bool> flag_{false};\n"
                     "};\n"}},
                   "", "", "release-acquire-unpaired-load", {}, kGateManifest});
  cases.push_back({"atomics: an RMW counts as the acquire side",
                   pass_atomics,
                   {{"dmcs/gate.hpp",
                     "class Gate {\n"
                     " public:\n"
                     "  void open() { flag_.store(true, std::memory_order_release); }\n"
                     "  bool take() {\n"
                     "    return flag_.exchange(false, std::memory_order_acq_rel);\n"
                     "  }\n"
                     " private:\n"
                     "  std::atomic<bool> flag_{false};\n"
                     "};\n"}},
                   "", "", nullptr, {},
                   "flag_ role=seqcount orders=release,acquire,acq_rel class=Gate\n"});
  cases.push_back({"atomics: implicit seq_cst load still observes",
                   pass_atomics,
                   {{"dmcs/gate.hpp",
                     "class Gate {\n"
                     " public:\n"
                     "  void open() { flag_.store(true, std::memory_order_release); }\n"
                     "  // analyze:allow(atomic-implicit-order)\n"
                     "  bool peek() const { return flag_.load(); }\n"
                     " private:\n"
                     "  std::atomic<bool> flag_{false};\n"
                     "};\n"}},
                   "", "", nullptr, {}, kGateManifest});

  // -- mixed-access ---------------------------------------------------------
  cases.push_back({"mixed-access: locked write, unlocked read in the closure",
                   pass_mixed_access,
                   {{"dmcs/pump.hpp",
                     "class Pump {\n"
                     " public:\n"
                     "  void worker_loop() {\n"
                     "    bump();\n"
                     "    show();\n"
                     "  }\n"
                     "  void bump() PREMA_REQUIRES(mu_) { n_ = n_ + 1; }\n"
                     "  void show() { use(n_); }\n"
                     " private:\n"
                     "  util::Mutex mu_;\n"
                     "  int n_ = 0;\n"
                     "};\n"}},
                   "", "", "mixed-access"});
  cases.push_back({"mixed-access: REQUIRES on the reader is direct evidence",
                   pass_mixed_access,
                   {{"dmcs/pump.hpp",
                     "class Pump {\n"
                     " public:\n"
                     "  void worker_loop() {\n"
                     "    bump();\n"
                     "    show();\n"
                     "  }\n"
                     "  void bump() PREMA_REQUIRES(mu_) { n_ = n_ + 1; }\n"
                     "  void show() PREMA_REQUIRES(mu_) { use(n_); }\n"
                     " private:\n"
                     "  util::Mutex mu_;\n"
                     "  int n_ = 0;\n"
                     "};\n"}},
                   "", "", nullptr});
  cases.push_back({"mixed-access: a lexical guard covers the read",
                   pass_mixed_access,
                   {{"dmcs/pump.hpp",
                     "class Pump {\n"
                     " public:\n"
                     "  void worker_loop() {\n"
                     "    bump();\n"
                     "    show();\n"
                     "  }\n"
                     "  void bump() PREMA_REQUIRES(mu_) { n_ = n_ + 1; }\n"
                     "  void show() {\n"
                     "    util::LockGuard g(mu_);\n"
                     "    use(n_);\n"
                     "  }\n"
                     " private:\n"
                     "  util::Mutex mu_;\n"
                     "  int n_ = 0;\n"
                     "};\n"}},
                   "", "", nullptr});
  cases.push_back({"mixed-access: no thread closure, no second thread",
                   pass_mixed_access,
                   {{"dmcs/pump.hpp",
                     "class Pump {\n"
                     " public:\n"
                     "  void run() {\n"
                     "    bump();\n"
                     "    show();\n"
                     "  }\n"
                     "  void bump() PREMA_REQUIRES(mu_) { n_ = n_ + 1; }\n"
                     "  void show() { use(n_); }\n"
                     " private:\n"
                     "  util::Mutex mu_;\n"
                     "  int n_ = 0;\n"
                     "};\n"}},
                   "", "", nullptr});
  cases.push_back({"mixed-access: stamping a value object is per-object state",
                   pass_mixed_access,
                   {{"dmcs/pump.hpp",
                     "class Msg {\n"
                     " public:\n"
                     "  int seq = 0;\n"
                     "};\n"
                     "class Pump {\n"
                     " public:\n"
                     "  void worker_loop() {\n"
                     "    Msg m;\n"
                     "    stamp(m);\n"
                     "    look(m);\n"
                     "  }\n"
                     "  void stamp(Msg& m) PREMA_REQUIRES(mu_) { m.seq = 1; }\n"
                     "  void look(Msg& m) { use(m.seq); }\n"
                     " private:\n"
                     "  util::Mutex mu_;\n"
                     "};\n"}},
                   "", "", nullptr});
  cases.push_back({"mixed-access: allow-comment marks a reviewed read",
                   pass_mixed_access,
                   {{"dmcs/pump.hpp",
                     "class Pump {\n"
                     " public:\n"
                     "  void worker_loop() {\n"
                     "    bump();\n"
                     "    show();\n"
                     "  }\n"
                     "  void bump() PREMA_REQUIRES(mu_) { n_ = n_ + 1; }\n"
                     "  void show() {\n"
                     "    // analyze:allow(mixed-access)\n"
                     "    use(n_);\n"
                     "  }\n"
                     " private:\n"
                     "  util::Mutex mu_;\n"
                     "  int n_ = 0;\n"
                     "};\n"}},
                   "", "", nullptr});

  return cases;
}

bool run_tree_case(const TreeCase& c) {
  Tree tree;
  for (const auto& [rel, content] : c.files) {
    tree.files.push_back(make_file(rel, content));
  }
  Options opts;
  opts.hierarchy_text = c.hierarchy;
  opts.design_text = c.design;
  opts.atomics_text = c.atomics;
  for (const auto& [name, text] : c.protocols) {
    opts.protocol_specs.emplace_back(name, text);
  }
  Findings out;
  c.pass(tree, opts, out);

  if (c.expect_rule == nullptr) {
    if (out.empty()) return true;
    std::fprintf(stderr, "self-test FAIL: %s (expected clean, got %zu)\n",
                 c.label, out.size());
  } else {
    bool hit = false;
    for (const Finding& f : out) hit = hit || f.rule == c.expect_rule;
    if (hit) return true;
    std::fprintf(stderr, "self-test FAIL: %s (expected rule %s, got %zu other)\n",
                 c.label, c.expect_rule, out.size());
  }
  for (const Finding& f : out) {
    std::fprintf(stderr, "  fired: %s:%d: [%s] %s\n", f.file.c_str(), f.line,
                 f.rule.c_str(), f.message.c_str());
  }
  return false;
}

/// Protocol-spec parser checks: the grammar round-trips, malformed input
/// fails loudly, and line numbers survive for spec-anchored findings.
int spec_parser_checks(std::size_t& cases_out) {
  int failures = 0;
  auto fail = [&](const char* what) {
    std::fprintf(stderr, "self-test FAIL: spec parser: %s\n", what);
    ++failures;
  };

  ++cases_out;
  {
    std::vector<Finding> errs;
    const auto spec = parse_protocol_spec(
        "demo.txt",
        "# comment line\n"
        "protocol demo\n"
        "files dmcs/\n"
        "var a_ b_\n"
        "var c_\n"
        "transition open fn=do_open writes=a_,b_ emits=opened\n"
        "transition close fn=do_close files=mol/ writes=c_  # trailing\n",
        errs);
    if (!spec.has_value() || !errs.empty()) {
      fail("well-formed spec rejected");
    } else if (spec->name != "demo" || spec->files != "dmcs/" ||
               spec->vars != std::vector<std::string>{"a_", "b_", "c_"}) {
      fail("header directives misparsed");
    } else if (spec->transitions.size() != 2 ||
               spec->transitions[0].fn != "do_open" ||
               spec->transitions[0].writes !=
                   std::vector<std::string>{"a_", "b_"} ||
               spec->transitions[0].emits != "opened" ||
               spec->transitions[0].line != 6 ||
               spec->transitions[1].files != "mol/" ||
               spec->transitions[1].emits != "") {
      fail("transition attributes misparsed");
    }
  }

  // Each malformed input must produce a protocol-fsm-spec error and nullopt.
  const char* kBad[] = {
      "transition step fn=f\n",                          // no protocol/files
      "protocol demo\nfiles d/\nwat is this\n",          // unknown directive
      "protocol demo\nfiles d/\ntransition step\n",      // no fn=
      "protocol demo\nfiles d/\ntransition s fn=f writes=ghost_\n",  // undeclared var
  };
  for (const char* text : kBad) {
    ++cases_out;
    std::vector<Finding> errs;
    const auto spec = parse_protocol_spec("bad.txt", text, errs);
    if (spec.has_value() || errs.empty()) {
      std::fprintf(stderr, "self-test FAIL: spec parser accepted:\n%s", text);
      ++failures;
      continue;
    }
    for (const Finding& e : errs) {
      if (e.rule != "protocol-fsm-spec" || e.file != "bad.txt") {
        fail("error finding has wrong rule or file");
        break;
      }
    }
  }
  return failures;
}

/// Manifest parser checks: the atomics.txt grammar round-trips, every
/// malformed spelling fails loudly with an atomic-manifest finding, and line
/// numbers survive for the stale-entry and error anchors.
int atomics_manifest_checks(std::size_t& cases_out) {
  int failures = 0;
  auto fail = [&](const char* what) {
    std::fprintf(stderr, "self-test FAIL: atomics manifest: %s\n", what);
    ++failures;
  };

  ++cases_out;
  {
    std::vector<Finding> errs;
    const std::vector<AtomicEntry> entries = parse_atomics_manifest(
        "atomics.txt",
        "# reviewed inventory\n"
        "done_ role=flag orders=release,acquire class=TM file=dmcs/\n"
        "hits role=counter orders=relaxed,seq_cst  # trailing comment\n",
        errs);
    if (!errs.empty() || entries.size() != 2) {
      fail("well-formed manifest rejected");
    } else if (entries[0].name != "done_" || entries[0].role != "flag" ||
               entries[0].orders != std::set<std::string>{"acquire",
                                                          "release"} ||
               entries[0].cls != "TM" || entries[0].path != "dmcs/" ||
               entries[0].line != 2) {
      fail("fully-qualified entry misparsed");
    } else if (entries[1].name != "hits" || entries[1].role != "counter" ||
               entries[1].orders != std::set<std::string>{"relaxed",
                                                          "seq_cst"} ||
               !entries[1].cls.empty() || !entries[1].path.empty() ||
               entries[1].line != 3) {
      fail("minimal entry misparsed");
    }
  }

  // Each malformed input must produce at least one atomic-manifest error
  // anchored in the manifest itself.
  const char* kBad[] = {
      "done_ orders=seq_cst\n",                     // no role=
      "done_ role=banana orders=seq_cst\n",         // unknown role
      "done_ role=flag orders=wibbly\n",            // unknown memory order
      "done_ role=flag orders=seq_cst reviewed\n",  // attr is not key=value
      "done_ role=flag orders=seq_cst\n"
      "done_ role=flag orders=seq_cst\n",           // duplicate entry
  };
  for (const char* text : kBad) {
    ++cases_out;
    std::vector<Finding> errs;
    parse_atomics_manifest("atomics.txt", text, errs);
    if (errs.empty()) {
      std::fprintf(stderr, "self-test FAIL: manifest parser accepted:\n%s",
                   text);
      ++failures;
      continue;
    }
    for (const Finding& e : errs) {
      if (e.rule != "atomic-manifest" || e.file != "atomics.txt" ||
          e.line < 1) {
        fail("error finding has wrong rule, file or line");
        break;
      }
    }
  }
  return failures;
}

/// The perf-budget workload: `nfiles` generated classes, `nfuncs` locked
/// methods and as many guarded fields each, with an intra-class call chain so
/// the interprocedural passes have real work per file.
Tree synthetic_tree(int nfiles) {
  constexpr int nfuncs = 8;
  Tree tree;
  for (int i = 0; i < nfiles; ++i) {
    std::string code;
    code += "class C" + std::to_string(i) + " {\n public:\n";
    for (int j = 0; j < nfuncs; ++j) {
      const std::string fn = "f" + std::to_string(i) + "_" + std::to_string(j);
      code += "  void " + fn + "(N* n) PREMA_REQUIRES(mu_) {\n";
      code += "    util::LockGuard g(mu_);\n";
      code += "    v" + std::to_string(j) + "_ = n->now() + " +
              std::to_string(j) + ";\n";
      if (j > 0) {
        code += "    f" + std::to_string(i) + "_" + std::to_string(j - 1) +
                "(n);\n";
      }
      code += "  }\n";
    }
    code += " private:\n  util::Mutex mu_;\n";
    for (int j = 0; j < nfuncs; ++j) {
      code += "  double v" + std::to_string(j) +
              "_ PREMA_GUARDED_BY(mu_) = 0.0;\n";
    }
    code += "};\n";
    tree.files.push_back(
        make_file("gen/c" + std::to_string(i) + ".hpp", std::move(code)));
  }
  return tree;
}

/// Full-pipeline time budget: all passes over a synthetic tree an order of
/// magnitude larger than src/ must finish comfortably within CI tolerances,
/// so quadratic blowups in the index or the interprocedural passes fail the
/// suite rather than silently slowing every CI run.
int perf_budget_check(std::size_t& cases_out) {
  ++cases_out;
  const Tree tree = synthetic_tree(200);
  Options opts;
  opts.hierarchy_text = "mu mu recursive\n";
  Findings out;
  const auto t0 = std::chrono::steady_clock::now();
  run_all_passes(tree, opts, out);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  constexpr double kBudgetS = 20.0;
  if (elapsed > kBudgetS) {
    std::fprintf(stderr,
                 "self-test FAIL: %zu-file synthetic tree took %.1fs "
                 "(budget %.0fs)\n",
                 tree.files.size(), elapsed, kBudgetS);
    return 1;
  }
  return 0;
}

/// The one driver: run_all_passes reports in (pass registry, file) order and
/// its --pass filter returns exactly the selected passes' findings, parse
/// errors included.
int driver_checks(std::size_t& cases_out) {
  ++cases_out;
  int failures = 0;
  auto fail = [&](const char* what) {
    std::fprintf(stderr, "self-test FAIL: driver: %s\n", what);
    ++failures;
  };
  const auto same = [](const Findings& a, const Findings& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (a[i].rule != b[i].rule || a[i].file != b[i].file ||
          a[i].line != b[i].line || a[i].message != b[i].message) {
        return false;
      }
    }
    return true;
  };

  // Every file fires one conventions finding (determinism) and one
  // sim-purity finding (unordered iteration), so both ordering keys have
  // work to do.
  Tree tree;
  for (int i = 0; i < 12; ++i) {
    const std::string n = std::to_string(i);
    tree.files.push_back(make_file(
        "ilb/f" + n + ".hpp",
        "class C" + n + " {\n"
        " public:\n"
        "  void f() {\n"
        "    auto t = std::chrono::steady_clock::now();\n"
        "    for (const auto& kv : m_) use(kv, t);\n"
        "  }\n"
        " private:\n"
        "  std::unordered_map<int, int> m_;\n"
        "};\n"));
  }
  const Options opts;
  Findings conventions, sim_purity;
  pass_conventions(tree, opts, conventions);
  pass_sim_purity(tree, opts, sim_purity);
  const auto one_per_file_in_order = [&tree](const Findings& group) {
    if (group.size() != tree.files.size()) return false;
    for (std::size_t i = 0; i < group.size(); ++i) {
      if (group[i].file != tree.files[i].rel) return false;
    }
    return true;
  };
  if (!one_per_file_in_order(conventions)) {
    fail("conventions findings not one per file in file order");
  }
  if (!one_per_file_in_order(sim_purity)) {
    fail("sim-purity findings not one per file in file order");
  }

  Findings all;
  run_all_passes(tree, opts, all);
  Findings expect = conventions;
  expect.insert(expect.end(), sim_purity.begin(), sim_purity.end());
  if (!same(all, expect)) {
    fail("all passes: conventions then sim-purity findings expected");
  }

  Findings filtered;
  run_all_passes(tree, opts, filtered, {"sim-purity"});
  if (!same(filtered, sim_purity)) {
    fail("--pass sim-purity did not return exactly the sim-purity findings");
  }

  // A run restricted to the atomics pass still reports a malformed manifest.
  ++cases_out;
  Tree gate;
  gate.files.push_back(
      make_file("dmcs/gate.hpp", "class Gate {\n  std::atomic<bool> flag_{false};\n};\n"));
  Options bad_manifest;
  bad_manifest.atomics_text = "flag_ role=banana orders=seq_cst class=Gate\n";
  Findings atomics;
  run_all_passes(gate, bad_manifest, atomics, {"atomics"});
  if (std::none_of(atomics.begin(), atomics.end(),
                   [](const Finding& f) { return f.rule == "atomic-manifest"; })) {
    fail("--pass atomics dropped the atomic-manifest finding");
  }
  return failures;
}

/// Report-layer check: SARIF shape.
int report_checks(std::size_t& cases_out) {
  int failures = 0;
  const Findings sample = {{"demo-rule", "dmcs/x.cpp", 3, "a \"quoted\" message"}};

  ++cases_out;
  const std::string sarif = render_sarif(sample);
  if (sarif.find("\"ruleId\": \"demo-rule\"") == std::string::npos ||
      sarif.find("\\\"quoted\\\"") == std::string::npos ||
      sarif.find("premaAnalyze/v1") == std::string::npos) {
    std::fprintf(stderr, "self-test FAIL: SARIF output malformed\n%s\n",
                 sarif.c_str());
    ++failures;
  }
  return failures;
}

}  // namespace

int run_self_test() {
  std::size_t cases = 0;
  int failures = 0;
  for (const TreeCase& c : tree_cases()) {
    ++cases;
    if (!run_tree_case(c)) ++failures;
  }
  failures += spec_parser_checks(cases);
  failures += atomics_manifest_checks(cases);
  failures += perf_budget_check(cases);
  failures += driver_checks(cases);
  failures += report_checks(cases);

  // The migrated prema_lint snippets are part of this binary's contract too.
  std::size_t legacy_cases = 0;
  failures += legacy_self_test(legacy_cases);
  cases += legacy_cases;

  if (failures != 0) {
    std::fprintf(stderr, "prema_analyze --self-test: %d failure(s) out of %zu cases\n",
                 failures, cases);
    return 1;
  }
  std::printf("prema_analyze --self-test: OK (%zu cases)\n", cases);
  return 0;
}

}  // namespace prema::analyze
