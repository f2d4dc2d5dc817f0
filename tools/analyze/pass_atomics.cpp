// The memory-model layer: one pass over the atomic sites, driven by
// tools/analyze/atomics.txt. Every std::atomic in the tree must be
// registered there with a role and the set of memory orders its uses are
// allowed to spell:
//
//   <name> role=<flag|counter|seqcount|published-ptr> orders=<o1[,o2...]>
//          [class=<Cls>] [file=<rel-path-substring>]
//
// The manifest is the reviewed source of truth: an atomic that is not
// registered has never had its ordering argued about, and an operation
// spelling no order at all silently buys seq_cst — usually by accident,
// occasionally hiding a real acquire/release dependency under the strongest
// (and slowest) fence.
//
// Discipline — declarations and operation sites versus the manifest:
//
//  atomic-unregistered    a std::atomic declaration with no manifest entry.
//  atomic-implicit-order  load()/store(v)/RMW with no memory-order argument,
//                         or a plain `=` assignment routing through the
//                         implicitly-seq_cst store operator. `++`/`+=` are
//                         exempt: counters legitimately use the operator
//                         forms, and non-counter roles hit atomic-rmw.
//  atomic-rmw             read-modify-write on a role that is not counter or
//                         seqcount: flags and published pointers are
//                         store/load protocols, an RMW on one signals a
//                         design change the manifest never reviewed.
//  atomic-order           an explicit memory order outside the entry's
//                         allowed set.
//  atomic-guarded         a field both atomic and PREMA_GUARDED_BY a mutex:
//                         two synchronization regimes on one field.
//  atomic-stale           a manifest entry matching no declaration.
//  atomic-manifest        the manifest itself failed to parse.
//
// Release-acquire pairing — a release store only synchronizes-with a load
// that acquires the same atomic. A release store of a manifest field with no
// acquire-side load anywhere in the tree publishes into the void; an acquire
// load of a field that no site ever releases orders against stores that
// never happen — both usually mean the protocol partner was refactored away.
// Like lock-flow, this is direct-evidence-only: a finding fires only on
// sites that *explicitly* spell release or acquire. Implicit seq_cst
// operations, relaxed counters and `++` operator forms participate as
// pairing partners (a seq_cst load is an acquire load and then some) but
// never trigger.
//
//  release-acquire-unpaired-store  an explicit memory_order_release store of
//                                  a manifest field with no load/RMW of that
//                                  field anywhere in the tree.
//  release-acquire-unpaired-load   an explicit acquire (or acq_rel) load of
//                                  a manifest field with no store/RMW of
//                                  that field anywhere in the tree.
//
// Every atomic-* finding is emitted before any release-acquire-* finding.
// Reads that go through the implicit conversion operator (`T x = a;`) carry
// no member call and are out of scope. `// analyze:allow(<rule>)` on the
// offending line (or the line above) acknowledges a reviewed exception.

#include <algorithm>
#include <optional>
#include <set>
#include <string>

#include "analyze/passes.hpp"

namespace prema::analyze {

void pass_atomics(const Tree& tree, const Options& opts, Findings& out) {
  if (opts.atomics_text.empty()) return;
  std::vector<Finding> manifest_errors;
  const std::vector<AtomicEntry> entries =
      parse_atomics_manifest("atomics.txt", opts.atomics_text, manifest_errors);
  for (const Finding& e : manifest_errors) out.push_back(e);

  std::optional<Index> local;
  const Index& idx =
      opts.index != nullptr ? *opts.index : local.emplace(build_index(tree));

  std::set<std::string> reported;
  auto report = [&](const char* rule, const SourceFile& f, std::size_t pos,
                    const std::string& key, const std::string& message) {
    if (allow_comment(f, pos, rule)) return;
    if (!reported.insert(std::string(rule) + "|" + key).second) return;
    out.push_back({rule, f.rel, line_of(f.code, pos), message});
  };

  // -- declarations vs manifest ---------------------------------------------
  const std::vector<AtomicDecl> decls = collect_atomic_decls(idx);
  std::vector<char> entry_used(entries.size(), 0);
  std::set<std::string> names;
  for (const AtomicEntry& e : entries) names.insert(e.name);
  for (const AtomicDecl& d : decls) {
    names.insert(d.name);
    const SourceFile& f = tree.files[static_cast<std::size_t>(d.file)];
    const std::string qual = d.cls.empty() ? d.name : d.cls + "::" + d.name;
    const int ei = resolve_atomic(entries, f.rel, d.cls, d.name);
    if (ei < 0) {
      report("atomic-unregistered", f, d.pos, qual,
             "atomic '" + qual +
                 "' is not registered in atomics.txt (every std::atomic "
                 "needs a reviewed role and allowed memory-order set)");
    } else {
      entry_used[static_cast<std::size_t>(ei)] = 1;
    }
    if (d.annotated) {
      report("atomic-guarded", f, d.pos, qual,
             "atomic '" + qual +
                 "' is also PREMA_GUARDED_BY a mutex — pick one "
                 "synchronization regime");
    }
  }
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (entry_used[i] != 0) continue;
    out.push_back({"atomic-stale", "atomics.txt", entries[i].line,
                   "manifest entry '" + entries[i].name +
                       "' matches no atomic declaration in the tree"});
  }

  // -- operation sites: role and order set, and pairing evidence ------------
  struct Evidence {
    const AtomicOp* release_store = nullptr;  ///< first explicit release store
    const AtomicOp* acquire_load = nullptr;   ///< first explicit acquire load
    int acquire_side = 0;  ///< loads / RMWs: anything that can observe
    int release_side = 0;  ///< stores / RMWs / operator writes: publishers
  };
  std::vector<Evidence> evidence(entries.size());

  const std::vector<AtomicOp> ops = collect_atomic_ops(idx, names);
  for (const AtomicOp& op : ops) {
    const SourceFile& f = tree.files[static_cast<std::size_t>(op.file)];
    const int ei = resolve_atomic(entries, f.rel, op.cls, op.field);
    // Unresolvable sites are same-named plain fields (the manifest's class=
    // and file= qualifiers exclude them) or unregistered atomics already
    // reported at the declaration.
    if (ei < 0) continue;
    const AtomicEntry& e = entries[static_cast<std::size_t>(ei)];
    const std::string qual =
        e.cls.empty() ? e.name : e.cls + "::" + e.name;
    if (atomic_op_is_implicit(op)) {
      const std::string spelled =
          op.op == "=" || op.op.size() == 2
              ? "operator " + op.op
              : op.op + "() with no order argument";
      report("atomic-implicit-order", f, op.pos, qual + "|" + op.op,
             "'" + qual + "' " + spelled +
                 " is an implicit seq_cst operation — spell the memory "
                 "order explicitly");
    }
    for (const std::string& o : op.orders) {
      if (e.orders.count(o) != 0) continue;
      std::string allowed;
      for (const std::string& a : e.orders) {
        allowed += allowed.empty() ? a : ", " + a;
      }
      report("atomic-order", f, op.pos, qual + "|" + o,
             "'" + qual + "' uses memory_order_" + o +
                 ", outside its allowed set {" + allowed + "}");
    }
    const bool is_rmw = atomic_op_is_rmw(op.op);
    if (is_rmw && e.role != "counter" && e.role != "seqcount") {
      report("atomic-rmw", f, op.pos, qual + "|rmw",
             "read-modify-write ('" + op.op + "') on '" + qual +
                 "' whose role is '" + e.role +
                 "' — RMWs are reserved for counter/seqcount roles");
    }

    Evidence& ev = evidence[static_cast<std::size_t>(ei)];
    const auto spells = [&](const char* order) {
      return std::find(op.orders.begin(), op.orders.end(), order) !=
             op.orders.end();
    };
    const bool is_load = op.op == "load";
    const bool is_store = op.op == "store" || op.op == "=";
    if (is_store || is_rmw) ++ev.release_side;
    if (is_load || is_rmw) ++ev.acquire_side;
    if (is_store && spells("release") && ev.release_store == nullptr) {
      ev.release_store = &op;
    }
    if (is_load && (spells("acquire") || spells("acq_rel")) &&
        ev.acquire_load == nullptr) {
      ev.acquire_load = &op;
    }
  }

  // -- release-acquire pairing ----------------------------------------------
  // Returned by reference: `"'" + <temporary string>` trips GCC 12's
  // -Wrestrict false positive at -O3.
  auto site_context = [&](const AtomicOp& op) -> const std::string& {
    static const std::string kFileScope = "<file scope>";
    const int fn = idx.enclosing(op.file, op.pos);
    return fn < 0 ? kFileScope : idx.funcs[static_cast<std::size_t>(fn)].qual;
  };
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const AtomicEntry& e = entries[i];
    const Evidence& ev = evidence[i];
    const std::string qual = e.cls.empty() ? e.name : e.cls + "::" + e.name;
    if (ev.release_store != nullptr && ev.acquire_side == 0) {
      const AtomicOp& op = *ev.release_store;
      const SourceFile& f = tree.files[static_cast<std::size_t>(op.file)];
      if (!allow_comment(f, op.pos, "release-acquire-unpaired-store")) {
        out.push_back(
            {"release-acquire-unpaired-store", f.rel, line_of(f.code, op.pos),
             "'" + site_context(op) + "' publishes '" + qual +
                 "' with memory_order_release but no site anywhere loads "
                 "it — the release synchronizes-with nothing"});
      }
    }
    if (ev.acquire_load != nullptr && ev.release_side == 0) {
      const AtomicOp& op = *ev.acquire_load;
      const SourceFile& f = tree.files[static_cast<std::size_t>(op.file)];
      if (!allow_comment(f, op.pos, "release-acquire-unpaired-load")) {
        out.push_back(
            {"release-acquire-unpaired-load", f.rel, line_of(f.code, op.pos),
             "'" + site_context(op) + "' acquires '" + qual +
                 "' but no site anywhere stores it — the acquire orders "
                 "against stores that never happen"});
      }
    }
  }
}

}  // namespace prema::analyze
