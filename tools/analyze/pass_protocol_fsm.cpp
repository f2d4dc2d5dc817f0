// Protocol state-machine verification. Each spec file under
// tools/analyze/protocols/*.txt declares a protocol's state variables and
// the complete set of transitions allowed to mutate them:
//
//   protocol reliable
//   files dmcs/reliable
//   var next_seq pending expected buffer
//   transition stamp fn=stamp writes=next_seq,pending
//   transition retx fn=on_retransmit_timer files=dmcs/sim emits=kRetransmit
//
// The pass then checks, whole-program via the symbol index:
//
//  protocol-fsm-missing-fn   a declared transition names a function that
//                            does not exist in its scope — the spec and the
//                            code have drifted apart.
//  protocol-fsm-extra-write  a transition's implementation writes a protocol
//                            state variable its declaration does not grant.
//  protocol-fsm-missing-emit a transition bound to a trace event
//                            (emits=<event>) never names it: neither the
//                            EventKind enumerator passed to TraceSink::record
//                            nor a call of that name appears in its body —
//                            the protocol would mutate state invisibly to
//                            the replay/validation tooling.
//  protocol-fsm-undeclared   a function inside the protocol's owning files
//                            mutates protocol state without being declared
//                            as a transition at all.
//  protocol-fsm-spec         the spec file itself is malformed (parse
//                            errors surface as findings, not silent skips).
//
// Writes are attributed to protocol variables only through member-access
// chains (`tx.pending.emplace(...)`) or trailing-underscore members, so a
// local variable that happens to share a state-variable name cannot trip
// the check.

#include <map>
#include <optional>
#include <set>
#include <string>

#include "analyze/passes.hpp"

namespace prema::analyze {
namespace {

/// A write counts against protocol var `v` only when it is plausibly a
/// member access: reached through a chain (`tx.pending...`) or spelled with
/// the member trailing underscore.
bool is_protocol_var_write(const WriteSite& site, const std::string& v) {
  if (site.chain.back() != v) return false;
  return site.chain.size() >= 2 || (!v.empty() && v.back() == '_');
}

}  // namespace

void pass_protocol_fsm(const Tree& tree, const Options& opts, Findings& out) {
  if (opts.protocol_specs.empty()) return;
  std::optional<Index> local;
  const Index& idx = pass_index(tree, opts, local);

  for (const auto& [spec_name, text] : opts.protocol_specs) {
    std::vector<Finding> errors;
    const std::optional<ProtocolSpec> parsed =
        parse_protocol_spec(spec_name, text, errors);
    for (const Finding& e : errors) out.push_back(e);
    if (!parsed) continue;
    const ProtocolSpec& spec = *parsed;
    const std::set<std::string> vars(spec.vars.begin(), spec.vars.end());

    // Union of granted writes per implementing function, and the set of
    // function names the spec declares as transitions.
    std::map<std::string, std::set<std::string>> allowed;
    std::set<std::string> declared;
    for (const ProtocolTransition& t : spec.transitions) {
      declared.insert(t.fn);
      allowed[t.fn].insert(t.writes.begin(), t.writes.end());
    }

    for (const ProtocolTransition& t : spec.transitions) {
      const std::string& scope = t.files.empty() ? spec.files : t.files;
      bool found = false;
      for (std::size_t fi = 0; fi < idx.funcs.size(); ++fi) {
        const FunctionDef& fn = idx.funcs[fi];
        if (fn.name != t.fn) continue;
        const SourceFile& f = idx.tree->files[static_cast<std::size_t>(fn.file)];
        if (!f.rel.starts_with(scope)) continue;
        found = true;

        // -- declared writes only -------------------------------------------
        const std::set<std::string>& grant = allowed[t.fn];
        for (const WriteSite& site :
             collect_writes(f, fn.body_begin, fn.body_end)) {
          for (const std::string& v : spec.vars) {
            if (!is_protocol_var_write(site, v)) continue;
            if (grant.count(v) != 0) continue;
            if (allow_comment(f, site.pos, "protocol-fsm-extra-write")) continue;
            out.push_back({"protocol-fsm-extra-write", f.rel,
                           line_of(f.code, site.pos),
                           "protocol '" + spec.name + "': '" + fn.qual +
                               "' writes state variable '" + v +
                               "' not granted to transition '" + t.name + "'"});
          }
        }

        // -- bound trace event ----------------------------------------------
        if (!t.emits.empty()) {
          const std::string_view body =
              std::string_view(f.code).substr(0, fn.body_end);
          const std::size_t member =
              find_member_call(body, t.emits, fn.body_begin);
          const std::size_t plain =
              find_ident(body, t.emits, fn.body_begin, true, false);
          if (member == std::string_view::npos &&
              plain == std::string_view::npos &&
              !allow_comment(f, fn.name_pos, "protocol-fsm-missing-emit")) {
            out.push_back({"protocol-fsm-missing-emit", f.rel, fn.line,
                           "protocol '" + spec.name + "': transition '" +
                               t.name + "' ('" + fn.qual +
                               "') never emits bound trace event '" + t.emits +
                               "'"});
          }
        }
      }
      if (!found) {
        out.push_back({"protocol-fsm-missing-fn", spec_name, t.line,
                       "protocol '" + spec.name + "': transition '" + t.name +
                           "' names function '" + t.fn +
                           "' but none exists under '" + scope + "'"});
      }
    }

    // -- undeclared writers inside the protocol's owning files --------------
    std::set<std::string> reported;
    for (std::size_t fi = 0; fi < idx.funcs.size(); ++fi) {
      const FunctionDef& fn = idx.funcs[fi];
      if (declared.count(fn.name) != 0) continue;
      const SourceFile& f = idx.tree->files[static_cast<std::size_t>(fn.file)];
      if (!f.rel.starts_with(spec.files)) continue;
      for (const WriteSite& site :
           collect_writes(f, fn.body_begin, fn.body_end)) {
        for (const std::string& v : spec.vars) {
          if (!is_protocol_var_write(site, v)) continue;
          if (allow_comment(f, site.pos, "protocol-fsm-undeclared")) continue;
          const std::string key = fn.qual + "|" + v;
          if (!reported.insert(key).second) continue;
          out.push_back({"protocol-fsm-undeclared", f.rel,
                         line_of(f.code, site.pos),
                         "protocol '" + spec.name + "': '" + fn.qual +
                             "' mutates state variable '" + v +
                             "' but is not a declared transition"});
        }
      }
    }
  }
}

}  // namespace prema::analyze
