// Interprocedural lock-flow analysis, built on the whole-program index
// (core.hpp): lock-sets are propagated transitively over resolved call
// edges (entry(callee) ⊇ holds-at-call-site(caller), to a fixed point), and
// three rule families are checked against them:
//
//  lock-flow-blocking   a lock whose hierarchy entry is marked `noblock`
//                       is held across a blocking operation — a wire send,
//                       a condition wait, a retransmit-backoff sleep — or
//                       across a call that transitively reaches one. A
//                       condition wait releases its own guard, so the lock
//                       bound to the wait's guard argument is exempt.
//  lock-flow-requires   a call site reaches a PREMA_REQUIRES(m) function
//                       without `m` in the caller's lock-set (lexical holds
//                       + assert-capability grants + propagated entry
//                       context). The static counterpart of the runtime's
//                       assert_state_held() discipline.
//  lock-flow-unguarded  a shared field — reached through a member chain,
//                       a reference rebind of one, or a file-local shared
//                       struct passed by reference — is written while a
//                       lock is held, but its declaration carries no
//                       PREMA_GUARDED_BY / PREMA_GUARDED_BY_CONTEXT (and is
//                       not atomic).
//
// The analysis is a may-analysis over a heuristic index: unresolved or
// ambiguous calls propagate nothing, unknown roots are skipped. That keeps
// src/ at zero findings while still proving the properties the
// lock-free-refactor roadmap item needs diffable.

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <string>

#include "analyze/passes.hpp"

namespace prema::analyze {
namespace {

const std::set<std::string>& blocking_ops() {
  static const std::set<std::string> ops = {
      "send",     "wire_send",  "send_self_after", "wait",
      "wait_for", "wait_until", "sleep_for",       "sleep_until"};
  return ops;
}

bool is_wait_op(const std::string& name) {
  return name == "wait" || name == "wait_for" || name == "wait_until";
}

/// The lock exempted at a condition wait: `cv.wait_for(g, ...)` releases
/// whatever `g` guards for the duration of the wait.
std::string wait_guard_lock(const Index& idx, const CallSite& call) {
  const FunctionDef& fn = idx.funcs[static_cast<std::size_t>(call.caller)];
  const SourceFile& f = idx.tree->files[static_cast<std::size_t>(fn.file)];
  const std::string_view code = f.code;
  std::size_t open = call.pos + call.name.size();
  open = skip_ws(code, open);
  if (open >= code.size() || code[open] != '(') return "";
  std::size_t p = skip_ws(code, open + 1);
  std::size_t end = p;
  while (end < code.size() && ident_char(code[end])) ++end;
  if (end == p) return "";
  const std::string var(code.substr(p, end - p));
  for (const LockAcq& acq : fn.acquisitions) {
    if (!acq.guard_var.empty() && acq.guard_var == var &&
        acq.pos <= call.pos && call.pos < acq.end) {
      return acq.base;
    }
  }
  return "";
}

/// True when the write's access chain reaches shared state: a member
/// component (trailing '_' / this), a reference rebind that resolves to one,
/// or a by-reference parameter of a file-locally declared class.
bool root_is_shared(const Index& idx, const SourceFile& f,
                    const FunctionDef& fn, const WriteSite& site) {
  for (std::size_t i = 0; i + 1 < site.chain.size(); ++i) {
    const std::string& comp = site.chain[i];
    if (comp == "this" || (!comp.empty() && comp.back() == '_')) return true;
  }
  if (site.chain.size() == 1 && site.chain[0].back() == '_') return true;
  const std::string_view code = f.code;
  std::string root = site.chain[0];
  for (int depth = 0; depth < 4; ++depth) {
    if (!root.empty() && root.back() == '_') return true;
    if (root == "this") return true;
    bool rebound = false;
    std::size_t from = fn.name_pos;
    while (true) {
      const std::size_t pos = find_ident(code, root, from, false, false);
      if (pos == std::string_view::npos || pos >= site.pos) break;
      from = pos + 1;
      std::size_t r = pos;
      while (r > 0 && std::isspace(static_cast<unsigned char>(code[r - 1]))) --r;
      if (r == 0) continue;
      const char before = code[r - 1];
      if (before == '&' || before == '*') {
        // `T& root = rhs;` rebind, or `T& root` parameter.
        std::size_t after = skip_ws(code, pos + root.size());
        if (after < code.size() && code[after] == '=') {
          std::size_t q = skip_ws(code, after + 1);
          while (q < code.size() &&
                 (code[q] == '*' || code[q] == '&' || code[q] == '(')) {
            q = skip_ws(code, q + 1);
          }
          std::size_t e2 = q;
          while (e2 < code.size() && ident_char(code[e2])) ++e2;
          if (e2 == q) return false;
          root = std::string(code.substr(q, e2 - q));
          rebound = true;
          break;
        }
        if (pos < fn.body_begin) {
          // Reference parameter: shared when its class is declared in this
          // same file (the file-local shared-struct idiom, e.g. a
          // coordinator struct owned by the translation unit).
          std::size_t tb = r;
          while (tb > 0 && (code[tb - 1] == '&' || code[tb - 1] == '*')) --tb;
          while (tb > 0 && std::isspace(static_cast<unsigned char>(code[tb - 1]))) {
            --tb;
          }
          std::size_t te = tb;
          while (tb > 0 && ident_char(code[tb - 1])) --tb;
          const std::string cls(code.substr(tb, te - tb));
          for (const ClassRegion& region : idx.classes) {
            if (region.name == cls && region.file == fn.file) return true;
          }
          return false;
        }
        continue;
      }
      if (ident_char(before)) return false;  // value declaration, local copy
    }
    if (!rebound) return false;
  }
  return false;
}

/// Class hint for the written field: the declared type of the chain
/// component preceding it, the enclosing class for bare member writes.
std::string field_class_hint(const Index& idx, const SourceFile& f,
                             const FunctionDef& fn, const WriteSite& site) {
  if (site.chain.size() >= 2) {
    return receiver_class(idx, f, &fn, site.chain[site.chain.size() - 2], site.pos);
  }
  const std::size_t sep = fn.qual.rfind("::");
  return sep == std::string::npos ? "" : fn.qual.substr(0, sep);
}

}  // namespace

void pass_lock_flow(const Tree& tree, const Options& opts, Findings& out) {
  const std::vector<LockEntry> entries = parse_hierarchy(opts.hierarchy_text);
  std::optional<Index> local;
  const Index& idx = pass_index(tree, opts, local);
  const std::vector<std::set<std::string>> entry = propagate_entry_locks(idx);

  auto noblock = [&](const std::string& base, std::string_view rel) {
    const int e = resolve_lock(entries, rel, base);
    return e >= 0 && entries[static_cast<std::size_t>(e)].noblock;
  };

  // Transitive may-block: a function with a direct blocking op, then every
  // function that (transitively) calls one through resolved edges.
  std::vector<char> may_block(idx.funcs.size(), 0);
  for (const CallSite& call : idx.calls) {
    if (blocking_ops().count(call.name) != 0) {
      may_block[static_cast<std::size_t>(call.caller)] = 1;
    }
  }
  for (bool changed = true; changed;) {
    changed = false;
    for (const CallSite& call : idx.calls) {
      if (call.callee < 0) continue;
      if (may_block[static_cast<std::size_t>(call.callee)] != 0 &&
          may_block[static_cast<std::size_t>(call.caller)] == 0) {
        may_block[static_cast<std::size_t>(call.caller)] = 1;
        changed = true;
      }
    }
  }

  std::set<std::string> reported_blocking;
  std::set<std::string> reported_requires;
  for (const CallSite& call : idx.calls) {
    const FunctionDef& caller = idx.funcs[static_cast<std::size_t>(call.caller)];
    const SourceFile& f = idx.tree->files[static_cast<std::size_t>(caller.file)];

    // -- lock-flow-blocking -------------------------------------------------
    const bool direct = blocking_ops().count(call.name) != 0;
    const bool transitive =
        call.callee >= 0 && may_block[static_cast<std::size_t>(call.callee)] != 0;
    if (!entries.empty() && (direct || transitive)) {
      std::set<std::string> held = held_at(idx, entry, call.caller, call.pos);
      if (direct && is_wait_op(call.name)) {
        held.erase(wait_guard_lock(idx, call));
      }
      for (const std::string& lock : held) {
        if (!noblock(lock, f.rel)) continue;
        if (allow_comment(f, call.pos, "lock-flow-blocking")) continue;
        const std::string key = caller.qual + "|" + call.name + "|" + lock;
        if (!reported_blocking.insert(key).second) continue;
        out.push_back({"lock-flow-blocking", f.rel, line_of(f.code, call.pos),
                       "'" + caller.qual + "' reaches blocking operation '" +
                           call.name + "' while holding '" + lock +
                           "' (marked noblock in lock_hierarchy.txt)"});
      }
    }

    // -- lock-flow-requires -------------------------------------------------
    if (call.callee < 0) continue;
    const FunctionDef& callee = idx.funcs[static_cast<std::size_t>(call.callee)];
    if (callee.requires_locks.empty()) continue;
    const std::set<std::string> held =
        held_at(idx, entry, call.caller, call.pos);
    for (const std::string& need : callee.requires_locks) {
      if (held.count(need) != 0) continue;
      if (allow_comment(f, call.pos, "lock-flow-requires")) continue;
      const std::string key = caller.qual + "|" + callee.qual + "|" + need;
      if (!reported_requires.insert(key).second) continue;
      out.push_back({"lock-flow-requires", f.rel, line_of(f.code, call.pos),
                     "'" + caller.qual + "' calls '" + callee.qual +
                         "' (PREMA_REQUIRES " + need + ") without holding '" +
                         need + "'"});
    }
  }

  // -- lock-flow-unguarded --------------------------------------------------
  // This rule wants *direct* evidence that the writer runs under a lock: its
  // own PREMA_REQUIRES facts, an assert-capability grant, or a lexical RAII
  // hold. Caller-propagated entry sets are deliberately not used here — a
  // may-hold union would drag every value type called from under a lock
  // (histograms, byte buffers, the sim engine) into the annotation burden.
  std::vector<std::set<std::string>> direct(idx.funcs.size());
  for (std::size_t fi = 0; fi < idx.funcs.size(); ++fi) {
    direct[fi].insert(idx.funcs[fi].requires_locks.begin(),
                      idx.funcs[fi].requires_locks.end());
  }
  std::set<std::string> reported_fields;
  for (std::size_t fi = 0; fi < idx.funcs.size(); ++fi) {
    const FunctionDef& fn = idx.funcs[fi];
    const SourceFile& f = idx.tree->files[static_cast<std::size_t>(fn.file)];
    // Constructor bodies initialize, they don't race: skip them.
    const std::size_t sep = fn.qual.rfind("::");
    if (sep != std::string::npos && fn.qual.substr(0, sep) == fn.name) continue;
    for (const WriteSite& site :
         collect_writes(f, fn.body_begin, fn.body_end)) {
      const std::set<std::string> held =
          held_at(idx, direct, static_cast<int>(fi), site.pos);
      if (held.empty()) continue;
      if (!root_is_shared(idx, f, fn, site)) continue;
      const std::string hint = field_class_hint(idx, f, fn, site);
      const FieldDecl* field =
          idx.find_field(hint, fn.file, site.chain.back());
      if (field == nullptr || field->guarded) continue;
      // Guard inheritance: writing through a guarded aggregate member
      // (`work_.dur = ...` where `work_` is GUARDED_BY) is covered — the
      // outer annotation owns every field reached through it.
      const std::size_t cls_sep = fn.qual.rfind("::");
      const std::string own_cls =
          cls_sep == std::string::npos ? "" : fn.qual.substr(0, cls_sep);
      bool inherited = false;
      for (std::size_t i = 0; i + 1 < site.chain.size(); ++i) {
        const FieldDecl* outer =
            idx.find_field(i == 0 ? own_cls : "", fn.file, site.chain[i]);
        if (outer != nullptr && outer->guarded) {
          inherited = true;
          break;
        }
      }
      if (inherited) continue;
      const SourceFile& df = idx.tree->files[static_cast<std::size_t>(field->file)];
      if (allow_comment(f, site.pos, "lock-flow-unguarded") ||
          allow_comment(df, field->pos, "lock-flow-unguarded")) {
        continue;
      }
      const std::string key = field->cls + "::" + field->name;
      if (!reported_fields.insert(key).second) continue;
      out.push_back(
          {"lock-flow-unguarded", df.rel, field->line,
           "field '" + field->name + "' of '" + field->cls +
               "' is written on locked paths (e.g. holding '" + *held.begin() +
               "' in '" + fn.qual +
               "') but carries no PREMA_GUARDED_BY / PREMA_GUARDED_BY_CONTEXT"});
    }
  }
}

}  // namespace prema::analyze
