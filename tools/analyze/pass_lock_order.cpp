// Lock-order analysis. Builds an acquisition graph from the whole-program
// index's lock facts — each function's RAII lock scopes (util::LockGuard /
// util::UniqueLock / util::RecursiveLock / Node::lock_state(), up to scope
// end or an explicit .unlock()), assert-capability grants, and its
// PREMA_REQUIRES facts, which hold for the whole body — and checks every
// edge against the checked-in hierarchy (tools/analyze/lock_hierarchy.txt):
// a lock acquired while another is held must sit strictly *below* the held
// one, except a lock marked `recursive` re-acquiring itself. Independently of
// the hierarchy, the accumulated graph is searched for cycles (potential
// deadlocks).
//
// Two structural checks ride along:
//  - every declared util::Mutex / util::RecursiveMutex member must resolve
//    to a hierarchy entry (lock-unlisted) and be referenced by at least one
//    thread-safety annotation in its file (lock-unguarded) — the
//    GUARDED_BY-coverage rule that keeps -Wthread-safety airtight;
//  - every hierarchy entry must be named in DESIGN.md's prose hierarchy
//    (lock-hierarchy-drift), so the document and the machine-readable file
//    cannot diverge silently.

#include <algorithm>
#include <iterator>
#include <map>
#include <optional>
#include <set>
#include <string>

#include "analyze/passes.hpp"

namespace prema::analyze {
namespace {

/// True when the identifier token ending just before `pos` (after a "::")
/// is `qual` — e.g. is this `LockGuard` spelled `util::LockGuard`?
bool has_qualifier(std::string_view code, std::size_t pos, std::string_view qual) {
  if (pos < 2 || code[pos - 1] != ':' || code[pos - 2] != ':') return false;
  std::size_t end = pos - 2;
  std::size_t begin = end;
  while (begin > 0 && ident_char(code[begin - 1])) --begin;
  return code.substr(begin, end - begin) == qual;
}

struct DeclaredMutex {
  std::string rel;
  std::string name;  ///< canonical base
  int line = 0;
};

/// util::Mutex / util::RecursiveMutex member declarations (`util::Mutex x_;`).
std::vector<DeclaredMutex> collect_mutex_decls(const SourceFile& f) {
  std::vector<DeclaredMutex> out;
  const std::string_view code = f.code;
  for (const char* type : {"Mutex", "RecursiveMutex"}) {
    std::size_t from = 0;
    while (true) {
      const std::size_t pos = find_ident(code, type, from, true, false);
      if (pos == std::string_view::npos) break;
      from = pos + 1;
      if (!has_qualifier(code, pos, "util")) continue;
      std::size_t p = skip_ws(code, pos + std::string_view(type).size());
      std::size_t name_begin = p;
      while (p < code.size() && ident_char(code[p])) ++p;
      if (p == name_begin) continue;  // `util::Mutex&` — a reference, not a decl
      const std::string name(code.substr(name_begin, p - name_begin));
      p = skip_ws(code, p);
      if (p >= code.size() || code[p] != ';') continue;
      out.push_back({f.rel, lock_base_name(name), line_of(code, pos)});
    }
  }
  return out;
}

/// Canonical base names referenced by any thread-safety annotation in `f`.
std::set<std::string> collect_annotation_refs(const SourceFile& f) {
  static constexpr const char* kMacros[] = {
      "PREMA_GUARDED_BY",      "PREMA_PT_GUARDED_BY", "PREMA_REQUIRES",
      "PREMA_ACQUIRE",         "PREMA_RELEASE",       "PREMA_TRY_ACQUIRE",
      "PREMA_EXCLUDES",        "PREMA_ASSERT_CAPABILITY",
      "PREMA_RETURN_CAPABILITY",                      "PREMA_GUARDED_BY_CONTEXT"};
  std::set<std::string> refs;
  const std::string_view code = f.code;
  for (const char* macro : kMacros) {
    std::size_t from = 0;
    while (true) {
      const std::size_t pos = find_ident(code, macro, from, false, true);
      if (pos == std::string_view::npos) break;
      from = pos + 1;
      const std::size_t open = code.find('(', pos);
      const std::size_t close = matching_paren(code, open);
      if (close == std::string_view::npos) continue;
      for (const std::string& arg :
           split_args(code.substr(open + 1, close - open - 1))) {
        const std::string base = lock_base_name(arg);
        if (!base.empty()) refs.insert(base);
      }
    }
  }
  return refs;
}

}  // namespace

void pass_lock_order(const Tree& tree, const Options& opts, Findings& out) {
  const std::vector<LockEntry> entries = parse_hierarchy(opts.hierarchy_text);
  const bool have_hierarchy = !entries.empty();
  std::optional<Index> local;
  const Index& idx = pass_index(tree, opts, local);

  // name -> successors, over canonical entry names (unresolved locks keep
  // their base name so cycles are still visible without a hierarchy).
  std::map<std::string, std::set<std::string>> graph;

  for (const FunctionDef& fn : idx.funcs) {
    const SourceFile& f = tree.files[static_cast<std::size_t>(fn.file)];
    // The body's holds in acquisition order: its PREMA_REQUIRES facts, held
    // from the opening brace to the closing one, then its acquisitions.
    std::vector<LockAcq> holds;
    for (const std::string& base : fn.requires_locks) {
      holds.push_back({fn.body_begin, fn.body_end, base, ""});
    }
    const std::size_t required = holds.size();
    holds.insert(holds.end(), fn.acquisitions.begin(), fn.acquisitions.end());
    std::vector<int> entry_of;
    for (std::size_t i = 0; i < holds.size(); ++i) {
      const LockAcq& a = holds[i];
      const int entry = resolve_lock(entries, f.rel, a.base);
      entry_of.push_back(entry);
      const std::string name = entry >= 0 ? entries[entry].name : a.base;
      const int line = line_of(f.code, a.pos);
      if (entry < 0 && have_hierarchy && i >= required) {
        out.push_back({"lock-unlisted", f.rel, line,
                       "lock acquisition '" + a.base +
                           "' matches no lock_hierarchy.txt entry"});
      }
      for (std::size_t j = 0; j < i; ++j) {
        const LockAcq& h = holds[j];
        if (h.end <= a.pos) continue;  // released before this acquisition
        const int h_entry = entry_of[j];
        const std::string held_name =
            h_entry >= 0 ? entries[static_cast<std::size_t>(h_entry)].name : h.base;
        const bool same = held_name == name;
        const bool recursive_ok =
            same && entry >= 0 && entries[static_cast<std::size_t>(entry)].recursive;
        if (!same || !recursive_ok) graph[held_name].insert(name);
        if (entry < 0 || h_entry < 0) continue;
        std::string msg;
        if (same && !recursive_ok) {
          msg = "lock '" + name + "' re-acquired while held but not marked recursive";
          msg += " in lock_hierarchy.txt";
        } else if (!same && entry <= h_entry) {
          msg = "acquires '" + name + "' while holding '" + held_name + "', inverting";
          msg += " the lock hierarchy (" + name + " is ordered above " + held_name + ")";
        }
        if (!msg.empty()) out.push_back({"lock-order", f.rel, line, msg});
      }
    }
  }

  // Cycle search over the accumulated graph (DFS, deterministic order).
  std::set<std::string> reported;
  std::map<std::string, int> state;  // 0 unseen, 1 on stack, 2 done
  std::vector<std::string> stack;
  auto dfs = [&](auto&& self, const std::string& node) -> void {
    state[node] = 1;
    stack.push_back(node);
    if (const auto it = graph.find(node); it != graph.end()) {
      for (const std::string& next : it->second) {
        if (state[next] == 1) {
          std::string cycle = next;
          for (auto sit = std::next(std::find(stack.begin(), stack.end(), next));
               sit != stack.end(); ++sit) {
            cycle += " -> " + *sit;
          }
          cycle += " -> " + next;
          if (reported.insert(cycle).second) {
            out.push_back({"lock-order", "<graph>", 0,
                           "lock acquisition cycle (potential deadlock): " + cycle});
          }
        } else if (state[next] == 0) {
          self(self, next);
        }
      }
    }
    stack.pop_back();
    state[node] = 2;
  };
  for (const auto& [node, succs] : graph) {
    if (state[node] == 0) dfs(dfs, node);
  }

  // GUARDED_BY coverage + hierarchy membership of every declared mutex.
  for (const SourceFile& f : tree.files) {
    const auto decls = collect_mutex_decls(f);
    if (decls.empty()) continue;
    const auto refs = collect_annotation_refs(f);
    for (const DeclaredMutex& d : decls) {
      if (have_hierarchy && resolve_lock(entries, d.rel, d.name) < 0) {
        out.push_back({"lock-unlisted", d.rel, d.line,
                       "mutex '" + d.name +
                           "' is not listed in lock_hierarchy.txt"});
      }
      if (refs.find(d.name) == refs.end()) {
        out.push_back({"lock-unguarded", d.rel, d.line,
                       "mutex '" + d.name +
                           "' is never referenced by a thread-safety annotation "
                           "(PREMA_GUARDED_BY / PREMA_REQUIRES / PREMA_ACQUIRE)"});
      }
    }
  }

  // Hierarchy entries must appear in DESIGN.md's prose hierarchy.
  if (have_hierarchy && !opts.design_text.empty()) {
    for (const LockEntry& e : entries) {
      if (opts.design_text.find(e.name) == std::string::npos) {
        out.push_back({"lock-hierarchy-drift", "DESIGN.md", 0,
                       "hierarchy entry '" + e.name +
                           "' is not mentioned in DESIGN.md's lock hierarchy"});
      }
    }
  }
}

}  // namespace prema::analyze
