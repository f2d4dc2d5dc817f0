// Sim-domain purity analysis — the static counterpart of the determinism
// tests. The SimMachine event loop replays identically given a seed; that
// only holds if nothing on a sim-reachable path consults state outside the
// simulation. Wall clocks and ambient randomness are the conventions pass's
// `determinism` rule, which covers every file this pass does; what is left
// is hash-ordered iteration that feeds ordered output (message emission,
// trace events, worklists).
//
// Domain: every function outside the files that belong to a wall-clock
// domain by design — the threaded machine (dmcs/thread_machine*), the live
// service harness (service/), portable support utilities (support/,
// bench_support/). Handlers shared by both machines (mol, prema, ilb) are in
// the domain: they must be pure to keep the simulator honest.
//
//  sim-purity-unordered  range-for over an unordered_map/unordered_set
//                        field: hash-order iteration feeding whatever the
//                        loop body emits.
//
// `// analyze:allow(<rule>)` on the offending line (or the line above)
// acknowledges a reviewed exception, e.g. a loop whose results are sorted
// before use.

#include <optional>
#include <set>
#include <string>

#include "analyze/passes.hpp"

namespace prema::analyze {
namespace {

/// Files that are wall-clock / live-thread domains by design.
bool excluded_file(std::string_view rel) {
  return rel.find("thread_machine") != std::string_view::npos ||
         rel.starts_with("support/") || rel.starts_with("bench_support/") ||
         rel.starts_with("service/");
}

/// Parse the range expression of `for (... : EXPR)` into a member-access
/// chain of plain identifiers; empty when EXPR is anything more exotic
/// (a call, arithmetic, an initializer list).
std::vector<std::string> range_chain(std::string_view expr) {
  std::vector<std::string> chain;
  std::size_t p = skip_ws(expr, 0);
  while (p < expr.size() && (expr[p] == '*' || expr[p] == '&')) {
    p = skip_ws(expr, p + 1);
  }
  while (true) {
    std::size_t e = p;
    while (e < expr.size() && ident_char(expr[e])) ++e;
    if (e == p) return {};
    chain.emplace_back(expr.substr(p, e - p));
    p = skip_ws(expr, e);
    if (p >= expr.size()) return chain;
    if (expr[p] == '.') {
      p = skip_ws(expr, p + 1);
    } else if (expr[p] == '-' && p + 1 < expr.size() && expr[p + 1] == '>') {
      p = skip_ws(expr, p + 2);
    } else {
      return {};  // call parens, indexing, arithmetic — give up
    }
  }
}

}  // namespace

void pass_sim_purity(const Tree& tree, const Options& opts, Findings& out) {
  std::optional<Index> local;
  const Index& idx = pass_index(tree, opts, local);

  constexpr const char* kRule = "sim-purity-unordered";
  std::set<std::string> reported;  // one finding per (function, field)
  for (const FunctionDef& fn : idx.funcs) {
    const SourceFile& f = idx.tree->files[static_cast<std::size_t>(fn.file)];
    if (excluded_file(f.rel)) continue;
    const std::string_view code = f.code;

    std::size_t from = fn.body_begin;
    while (true) {
      const std::size_t pos = find_ident(code, "for", from, false, false);
      if (pos == std::string_view::npos || pos >= fn.body_end) break;
      from = pos + 1;
      const std::size_t open = skip_ws(code, pos + 3);
      if (open >= code.size() || code[open] != '(') continue;
      const std::size_t close = matching_paren(code, open);
      if (close == std::string_view::npos || close > fn.body_end) continue;
      // Top-level ':' that is not part of a '::'.
      std::size_t colon = std::string_view::npos;
      int depth = 0;
      for (std::size_t p = open + 1; p < close; ++p) {
        const char c = code[p];
        if (c == '(' || c == '[' || c == '{' || c == '<') ++depth;
        if (c == ')' || c == ']' || c == '}' || c == '>') --depth;
        if (c == ':' && depth == 0 && (p == 0 || code[p - 1] != ':') &&
            (p + 1 >= code.size() || code[p + 1] != ':')) {
          colon = p;
          break;
        }
      }
      if (colon == std::string_view::npos) continue;
      const std::vector<std::string> chain =
          range_chain(code.substr(colon + 1, close - colon - 1));
      if (chain.empty()) continue;
      std::string hint;
      if (chain.size() >= 2) {
        hint = receiver_class(idx, f, &fn, chain[chain.size() - 2], pos);
      } else if (const std::size_t sep = fn.qual.rfind("::");
                 sep != std::string::npos) {
        hint = fn.qual.substr(0, sep);
      }
      const FieldDecl* field = idx.find_field(hint, fn.file, chain.back());
      if (field == nullptr) continue;
      if (field->type.find("unordered_") == std::string::npos) continue;
      if (allow_comment(f, pos, kRule)) continue;
      const std::string member = field->cls + "::" + field->name;
      if (!reported.insert(fn.qual + "|" + member).second) continue;
      out.push_back({kRule, f.rel, line_of(code, pos),
                     "'" + fn.qual + "' iterates unordered container '" + member +
                         "' on a sim-reachable path (hash order is not "
                         "deterministic across platforms)"});
    }
  }
}

}  // namespace prema::analyze
