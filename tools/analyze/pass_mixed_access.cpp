// Mixed-access analysis — the gap the GUARDED_BY coverage check cannot see.
// A field written under a mutex on the threaded path and read elsewhere with
// no lock is a data race the annotation layer only catches if someone
// remembered to annotate the field; an atomic would be safe but these are
// the *plain* fields. The scope is the live-thread closure: everything
// reachable from the ThreadMachine worker/poller loops, where a second
// thread actually exists to race with.
//
// Direct-evidence-only, like lock-flow: a read counts as unlocked when the
// reading function neither declares PREMA_REQUIRES nor holds a lexical
// guard at the read site. May-analysis entry-lock sets are deliberately not
// consulted — a finding means "no lock is visible here", not "some caller
// might forget one".
//
//  mixed-access  a non-atomic field with a locked write inside the
//                ThreadMachine closure and a read (in the closure) carrying
//                no direct lock evidence.
//
// `// analyze:allow(<rule>)` on the offending line (or the line above)
// acknowledges a reviewed exception, e.g. a read on a path proven
// single-threaded by construction.

#include <map>
#include <optional>
#include <set>
#include <string>

#include "analyze/passes.hpp"

namespace prema::analyze {
namespace {

std::string class_of_qual(const std::string& qual) {
  const std::size_t sep = qual.rfind("::");
  if (sep == std::string::npos) return "";
  const std::string scope = qual.substr(0, sep);
  const std::size_t sep2 = scope.rfind("::");
  return sep2 == std::string::npos ? scope : scope.substr(sep2 + 2);
}

bool is_constructor(const FunctionDef& fn) {
  const std::size_t sep = fn.qual.rfind("::");
  return sep != std::string::npos && fn.qual.substr(sep + 2) == fn.name &&
         class_of_qual(fn.qual) == fn.name;
}

}  // namespace

void pass_mixed_access(const Tree& tree, const Options& opts, Findings& out) {
  std::optional<Index> local;
  const Index& idx = pass_index(tree, opts, local);

  // Closure roots: the functions a live second thread actually runs.
  std::vector<char> reachable(idx.funcs.size(), 0);
  bool any_root = false;
  for (std::size_t i = 0; i < idx.funcs.size(); ++i) {
    const FunctionDef& fn = idx.funcs[i];
    if (fn.qual.starts_with("ThreadMachine::") ||
        fn.qual.starts_with("ThreadNode::") || fn.name == "worker_loop" ||
        fn.name == "poller_loop") {
      reachable[i] = 1;
      any_root = true;
    }
  }
  if (!any_root) return;
  for (bool changed = true; changed;) {
    changed = false;
    for (const CallSite& call : idx.calls) {
      if (call.callee < 0) continue;
      if (reachable[static_cast<std::size_t>(call.caller)] != 0 &&
          reachable[static_cast<std::size_t>(call.callee)] == 0) {
        reachable[static_cast<std::size_t>(call.callee)] = 1;
        changed = true;
      }
    }
  }

  // Direct evidence only: entry sets are each function's own REQUIRES facts.
  std::vector<std::set<std::string>> direct(idx.funcs.size());
  for (std::size_t i = 0; i < idx.funcs.size(); ++i) {
    direct[i].insert(idx.funcs[i].requires_locks.begin(),
                     idx.funcs[i].requires_locks.end());
  }

  // Candidates: non-atomic fields with a locked write inside the closure.
  // Key: cls + "::" + name; value: a lock the writer demonstrably held.
  struct Writer {
    std::string fn_qual;
    std::string lock;
  };
  std::map<std::string, Writer> candidates;
  std::map<std::string, std::set<std::size_t>> write_positions;
  for (std::size_t i = 0; i < idx.funcs.size(); ++i) {
    if (reachable[i] == 0) continue;
    const FunctionDef& fn = idx.funcs[i];
    const SourceFile& f = tree.files[static_cast<std::size_t>(fn.file)];
    for (const WriteSite& site :
         collect_writes(f, fn.body_begin, fn.body_end)) {
      std::string hint;
      if (site.chain.size() >= 2) {
        hint = receiver_class(idx, f, &fn, site.chain[site.chain.size() - 2], site.pos);
      } else {
        hint = class_of_qual(fn.qual);
      }
      const FieldDecl* field = idx.find_field(hint, fn.file, site.chain.back());
      if (field == nullptr || field->type.find("atomic") != std::string::npos) {
        continue;
      }
      // Shared state only: a write through a parameter/local of another
      // class (a Message being stamped, a result struct being filled) is a
      // per-object access, not a race candidate — unless the field is
      // annotated, which marks it shared by declaration.
      if (field->cls != class_of_qual(fn.qual) && !field->guarded) continue;
      const std::string key = field->cls + "::" + field->name;
      write_positions[key].insert(site.pos);
      const std::set<std::string> held =
          held_at(idx, direct, static_cast<int>(i), site.pos);
      if (held.empty()) continue;
      candidates.emplace(key, Writer{fn.qual, *held.begin()});
    }
  }
  if (candidates.empty()) return;

  // Reads of a candidate field in the closure with no direct lock evidence.
  std::set<std::string> reported;
  for (std::size_t i = 0; i < idx.funcs.size(); ++i) {
    if (reachable[i] == 0) continue;
    const FunctionDef& fn = idx.funcs[i];
    if (is_constructor(fn)) continue;  // pre-publication initialization
    const SourceFile& f = tree.files[static_cast<std::size_t>(fn.file)];
    const std::string_view code = f.code;
    for (const auto& [key, writer] : candidates) {
      const std::string name = key.substr(key.rfind("::") + 2);
      const std::string cls = key.substr(0, key.rfind("::"));
      std::size_t from = fn.body_begin;
      while (true) {
        const std::size_t pos = code.find(name, from);
        if (pos == std::string_view::npos || pos >= fn.body_end) break;
        from = pos + 1;
        if (pos > 0 && ident_char(code[pos - 1])) continue;
        const std::size_t end = pos + name.size();
        if (end < code.size() && ident_char(code[end])) continue;
        const std::size_t after = skip_ws(code, end);
        if (after < code.size() && code[after] == '(') continue;  // a call
        if (write_positions[key].count(pos) != 0) continue;  // the write side
        // Attribute the access: a member chain must resolve to the field's
        // class, a bare mention must sit inside one of its methods.
        const bool member_access =
            pos > 0 && (code[pos - 1] == '.' ||
                        (pos >= 2 && code[pos - 1] == '>' &&
                         code[pos - 2] == '-'));
        if (member_access) {
          std::vector<std::string> chain;
          if (parse_chain_back(code, end, chain) == std::string_view::npos ||
              chain.size() < 2) {
            continue;
          }
          const std::string recv_cls =
              chain[chain.size() - 2] == "this"
                  ? class_of_qual(fn.qual)
                  : receiver_class(idx, f, &fn, chain[chain.size() - 2], pos);
          if (recv_cls != cls) continue;
        } else {
          if (class_of_qual(fn.qual) != cls) continue;
        }
        if (!held_at(idx, direct, static_cast<int>(i), pos).empty()) continue;
        if (allow_comment(f, pos, "mixed-access")) continue;
        if (!reported.insert(key + "|" + fn.qual).second) continue;
        out.push_back(
            {"mixed-access", f.rel, line_of(code, pos),
             "'" + fn.qual + "' reads '" + key +
                 "' with no lock held, but '" + writer.fn_qual +
                 "' writes it under '" + writer.lock +
                 "' on the ThreadMachine path — locked writes with unlocked "
                 "reads race"});
      }
    }
  }
}

}  // namespace prema::analyze
