#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

/// \file core.hpp
/// Shared substrate of prema_analyze (tools/analyze): source loading, the
/// comment/literal-stripping lexer, the identifier-level scanning helpers
/// every pass is built from, and the whole-program symbol index (function
/// definitions, call graph, lock acquisitions/releases, class/field tables)
/// that the interprocedural passes — lock-flow, protocol-fsm, sim-purity —
/// are built on. No libclang: the passes work on a byte-offset preserving
/// "code view" of each file (comments and literals blanked out, so positions
/// in the code view index the raw bytes too, which is how comment markers
/// such as `// analyze:allow(...)` are read back after a match).

namespace prema::analyze {

/// One source file of the analyzed tree.
struct SourceFile {
  std::string rel;   ///< path relative to the scanned root, forward slashes
  std::string raw;   ///< original bytes
  std::string code;  ///< raw with comments/literals blanked (same length)
};

struct Tree {
  std::vector<SourceFile> files;
};

/// One analyzer finding. `message` must be deterministic and line-free so the
/// fingerprint survives unrelated edits to the same file.
struct Finding {
  std::string rule;
  std::string file;
  int line = 0;
  std::string message;
};

/// Stable identity of a finding (SARIF partialFingerprints): rule|file|message
/// (no line number, so findings don't churn when code moves within a file).
std::string fingerprint(const Finding& f);

struct Index;

/// Inputs shared by the passes. Empty text disables the dependent checks
/// (fixtures provide their own hierarchy; a missing DESIGN.md skips the
/// drift check; no protocol specs disables protocol-fsm; an empty atomics
/// manifest disables the atomics pass).
struct Options {
  std::string hierarchy_text;  ///< contents of tools/analyze/lock_hierarchy.txt
  std::string design_text;     ///< contents of DESIGN.md (drift check)
  std::string atomics_text;    ///< contents of tools/analyze/atomics.txt
  /// Protocol state-machine specs (tools/analyze/protocols/*.txt), as
  /// (spec-name, contents) pairs in deterministic order.
  std::vector<std::pair<std::string, std::string>> protocol_specs;
  /// Prebuilt whole-program index shared across passes (set by
  /// run_all_passes). Passes that need the index build their own when null,
  /// so fixtures can still call a single pass directly.
  const Index* index = nullptr;
};

// ---------------------------------------------------------------------------
// Lock hierarchy (tools/analyze/lock_hierarchy.txt)
// ---------------------------------------------------------------------------

struct LockMatcher {
  std::string path;   ///< rel-path substring qualifier ("" = any file)
  std::string ident;  ///< canonical base name (lock_base_name form)
};

struct LockEntry {
  std::string name;
  std::vector<LockMatcher> matchers;
  bool recursive = false;  ///< may be re-acquired while held
  bool noblock = false;    ///< must never be held across a blocking operation
};

/// lock_hierarchy.txt: one entry per line, ordered top (outermost) to bottom
/// (innermost). `name  matcher[,matcher...]  [recursive] [noblock]` where a
/// matcher is `ident` or `path-substring!ident`. '#' starts a comment.
std::vector<LockEntry> parse_hierarchy(std::string_view text);

/// Hierarchy entry index for a canonical lock name acquired in `rel`;
/// -1 when nothing matches.
int resolve_lock(const std::vector<LockEntry>& entries, std::string_view rel,
                 std::string_view base);

// ---------------------------------------------------------------------------
// Protocol state-machine specs (tools/analyze/protocols/*.txt)
// ---------------------------------------------------------------------------

struct ProtocolTransition {
  std::string name;
  std::string fn;                   ///< function implementing the transition
  std::string files;                ///< rel-path prefix override ("" = spec's)
  std::vector<std::string> writes;  ///< protocol vars this transition may write
  std::string emits;                ///< trace event the fn must call ("" = none)
  int line = 0;                     ///< line in the spec file
};

struct ProtocolSpec {
  std::string name;
  std::string files;  ///< rel-path prefix owning the protocol state
  std::vector<std::string> vars;
  std::vector<ProtocolTransition> transitions;
};

/// Parse one spec file. Grammar (one directive per line, '#' comments):
///   protocol <name>
///   files <rel-path-prefix>
///   var <ident> [<ident>...]
///   transition <name> fn=<ident> [files=<prefix>] [writes=<a,b,..>]
///              [emits=<event>]
/// Malformed directives are reported into `errors` (file = `spec_name`).
std::optional<ProtocolSpec> parse_protocol_spec(const std::string& spec_name,
                                                std::string_view text,
                                                std::vector<Finding>& errors);

// ---------------------------------------------------------------------------
// Atomics manifest (tools/analyze/atomics.txt)
// ---------------------------------------------------------------------------

/// One registered std::atomic declaration. `role` constrains which operations
/// are legitimate (read-modify-writes only on counters), `orders` is the set
/// of memory-order suffixes (`relaxed`, `acquire`, `release`, `acq_rel`,
/// `seq_cst`) its operations may spell explicitly.
struct AtomicEntry {
  std::string name;               ///< declared identifier (trailing '_' kept)
  std::string role;               ///< flag | counter | seqcount | published-ptr
  std::set<std::string> orders;   ///< allowed explicit memory-order suffixes
  std::string cls;                ///< owning-class qualifier ("" = any)
  std::string path;               ///< rel-path substring qualifier ("" = any)
  int line = 0;                   ///< line in the manifest
};

/// Parse atomics.txt. Grammar (one entry per line, '#' comments):
///   <name> role=<flag|counter|seqcount|published-ptr> orders=<o1[,o2...]>
///          [class=<Class>] [file=<rel-path-substring>]
/// Malformed lines are reported into `errors` (rule `atomic-manifest`,
/// file = `manifest_name`); well-formed entries are always returned.
std::vector<AtomicEntry> parse_atomics_manifest(const std::string& manifest_name,
                                                std::string_view text,
                                                std::vector<Finding>& errors);

/// Manifest entry index for atomic `name` declared in class `cls` (may be ""
/// for function-local statics / unresolved receivers) in file `rel`; -1 when
/// nothing matches. A class qualifier only discriminates when both sides are
/// known; a path qualifier always must match.
int resolve_atomic(const std::vector<AtomicEntry>& entries, std::string_view rel,
                   std::string_view cls, std::string_view name);

/// A `std::atomic<T> name` declaration discovered in the tree: class fields,
/// function-local statics and namespace-scope objects alike.
struct AtomicDecl {
  std::string name;
  std::string cls;  ///< innermost enclosing class ("" for non-members)
  int file = -1;
  int line = 0;
  std::size_t pos = 0;    ///< offset of the declared name
  bool annotated = false;  ///< PREMA_GUARDED_BY also present on the statement
};

/// Every atomic declaration in the tree, in (file, offset) order. Reference
/// and pointer bindings (`std::atomic<int>&`) and function declarations
/// returning an atomic are not declarations of a new atomic object.
std::vector<AtomicDecl> collect_atomic_decls(const Index& idx);

/// One operation on a (suspected) atomic object: a member call such as
/// `x.load(...)` / `x.fetch_add(...)`, or an operator form (`++x`, `x = v`).
struct AtomicOp {
  std::string field;                ///< final chain component (the object)
  std::string cls;                  ///< resolved receiver class ("" unknown)
  std::string op;     ///< "load", "store", "fetch_add", ..., "++", "--", "="
  int file = -1;
  std::size_t pos = 0;              ///< offset of the op (or written name)
  int args = 0;                     ///< argument count (member calls only)
  std::vector<std::string> orders;  ///< explicit memory_order_* suffixes
};

/// True for exchange / compare_exchange_* / fetch_* / ++ / -- / compound ops.
bool atomic_op_is_rmw(const std::string& op);

/// True when the op spells no memory order but could: `load()` with no
/// argument, `store(v)` / `exchange(v)` / `fetch_*(v)` with one, a plain
/// `=` assignment. Operator increments cannot spell an order and are exempt.
bool atomic_op_is_implicit(const AtomicOp& op);

/// Scan the whole tree for operations whose receiver's final component is in
/// `names`. Receiver classes are resolved through the index (member types,
/// enclosing class for bare members); unresolvable receivers get cls "".
/// Sorted by (file, pos).
std::vector<AtomicOp> collect_atomic_ops(const Index& idx,
                                         const std::set<std::string>& names);

// ---------------------------------------------------------------------------
// Lexing / scanning helpers
// ---------------------------------------------------------------------------

/// Replace comments, string literals (including raw strings) and char
/// literals with spaces, preserving newlines and byte offsets so line numbers
/// and raw-text lookups survive.
std::string strip_comments_and_literals(std::string_view in);

/// True for [A-Za-z0-9_].
bool ident_char(char c);

/// First position >= `from` where `needle` occurs as a whole identifier.
/// Member access (`msg.time`, `obj->time`) never matches — that names
/// someone else's `time`, not ::time. `allow_scope_prefix` permits a
/// preceding "::" (so `std::time` is caught too); without it any scope
/// qualification disqualifies the match. `require_call` additionally demands
/// a following '(' (possibly after whitespace).
std::size_t find_ident(std::string_view hay, std::string_view needle,
                       std::size_t from, bool allow_scope_prefix,
                       bool require_call);

/// Like find_ident but the identifier must be reached through member access
/// (`x.name` / `x->name`) and be called — how state-lock acquisitions
/// (`n.lock_state()`) and atomic operations (`flag_.load(...)`) appear.
std::size_t find_member_call(std::string_view hay, std::string_view needle,
                             std::size_t from);

/// 1-based line number of byte offset `pos`.
int line_of(std::string_view text, std::size_t pos);

/// Position past any whitespace starting at `pos`.
std::size_t skip_ws(std::string_view text, std::size_t pos);

/// Offset of the ')' matching the '(' at `open`; npos if unbalanced.
std::size_t matching_paren(std::string_view code, std::size_t open);

/// Offset of the '}' matching the '{' at `open`; npos if unbalanced.
std::size_t matching_brace(std::string_view code, std::size_t open);

/// Split an annotation argument list at top-level commas.
std::vector<std::string> split_args(std::string_view args);

/// Walk a member-access chain backwards from `end` (exclusive end of the
/// final identifier). Appends components front-first into `chain` (`a.b->c`
/// yields {"a","b","c"}); returns the offset of the chain's first component,
/// or npos on failure (the chain starts from a call/temporary).
std::size_t parse_chain_back(std::string_view code, std::size_t end,
                             std::vector<std::string>& chain);

/// Canonical base name of a lock expression: `node_.state_mutex()` ->
/// "state_mutex", `mu_` -> "mu" (member access, call parens, `&`, `this->`
/// and one trailing underscore stripped).
std::string lock_base_name(std::string_view expr);

/// True when the raw line containing `pos` (or the line above it) carries an
/// `analyze:allow(<rule>)` suppression comment for `rule`.
bool allow_comment(const SourceFile& f, std::size_t pos, std::string_view rule);

/// Load every .hpp/.cpp/.h/.cc under `root` (sorted, rel paths generic).
/// Returns false when root is not a directory.
bool load_tree(const std::string& root, Tree& out);

/// Run a single in-memory file through the same pipeline (self-tests,
/// fixtures assembled from snippets).
SourceFile make_file(std::string rel, std::string raw);

// ---------------------------------------------------------------------------
// Whole-program symbol index / call graph
// ---------------------------------------------------------------------------
//
// Built once per run from the code views alone. Function discovery is
// heuristic (identifier + balanced parens + a conservative trailing-token
// walk to the body '{'), which is exact enough for this repo's idiom:
// out-of-line `Class::method` definitions, inline methods inside class
// bodies, and free functions. Lambdas are intentionally *not*
// separate functions — their bodies belong to the enclosing definition, so
// facts established inside a registration lambda (e.g. an
// assert-capability call) stay attached to the function that created it.

/// A `class X {` / `struct X {` body range.
struct ClassRegion {
  std::string name;
  int file = -1;
  std::size_t body_begin = 0;  ///< offset of '{'
  std::size_t body_end = 0;    ///< offset of matching '}'
};

/// A data-member declaration inside a class region.
struct FieldDecl {
  std::string cls;   ///< owning class
  std::string name;
  std::string type;  ///< declaration text left of the name (whitespace-packed)
  int file = -1;
  int line = 0;
  std::size_t pos = 0;  ///< offset of the name in the file
  bool guarded = false;  ///< GUARDED_BY / GUARDED_BY_CONTEXT / std::atomic
};

/// One RAII lock hold (or assert-capability grant) inside a function body.
struct LockAcq {
  std::size_t pos = 0;  ///< acquisition offset
  std::size_t end = 0;  ///< hold ends here (explicit .unlock() or scope close)
  std::string base;     ///< canonical lock name, capability aliases resolved
  std::string guard_var;  ///< RAII guard variable ("" for asserts/lock_state)
};

struct FunctionDef {
  std::string name;  ///< unqualified name
  std::string qual;  ///< "Class::name" when known, else == name
  int file = -1;
  int line = 0;
  std::size_t name_pos = 0;
  std::size_t body_begin = 0;  ///< offset of '{'
  std::size_t body_end = 0;    ///< offset of matching '}'
  std::vector<std::string> requires_locks;  ///< PREMA_REQUIRES facts
  std::vector<LockAcq> acquisitions;        ///< sorted by pos
};

struct CallSite {
  int caller = -1;   ///< index into Index::funcs
  int callee = -1;   ///< resolved index, -1 when unresolved or ambiguous
  std::size_t pos = 0;  ///< offset of the callee name in the caller's file
  std::string name;     ///< callee name as written (last path component)
};

struct Index {
  const Tree* tree = nullptr;
  std::vector<FunctionDef> funcs;
  std::vector<CallSite> calls;                     ///< sorted by (caller, pos)
  std::vector<ClassRegion> classes;
  std::vector<FieldDecl> fields;
  std::map<std::string, std::vector<int>> by_name;  ///< unqualified -> funcs
  std::map<std::string, std::vector<int>> by_qual;  ///< "Class::name" -> funcs
  std::set<std::string> class_names;
  /// Member/field name -> declared class type (for receiver resolution);
  /// only kept when unambiguous across the tree.
  std::map<std::string, std::string> member_types;
  /// fn name -> lock base: PREMA_RETURN_CAPABILITY aliases, so
  /// `coord_mutex()` used as a lock expression resolves to its capability.
  std::map<std::string, std::string> capability_alias;
  /// fn name -> lock base: PREMA_ASSERT_CAPABILITY grantors — calling one
  /// proves the lock is held for the rest of the enclosing scope.
  std::map<std::string, std::string> assert_grants;

  /// Index into funcs of the definition whose body contains (file, pos);
  /// innermost match wins. -1 when outside every body.
  int enclosing(int file, std::size_t pos) const;

  /// Field lookup: prefer `cls_hint`'s region, then classes declared in
  /// `file` or its same-stem header/source pair. nullptr when not found.
  const FieldDecl* find_field(const std::string& cls_hint, int file,
                              const std::string& name) const;
};

/// Build the whole-program index for `tree`.
Index build_index(const Tree& tree);

/// Declared class of the receiver `recv` used at offset `use` of `f`: its
/// unambiguous member type, else a `Cls[&*] recv` declaration in `fn`'s
/// signature or body before `use` (members only when `fn` is null). "" when
/// neither resolves; callers pick their own enclosing-class fallback.
std::string receiver_class(const Index& idx, const SourceFile& f,
                           const FunctionDef* fn, const std::string& recv,
                           std::size_t use);

/// May-hold lock sets at function entry, propagated to a fixed point over
/// resolved call edges: entry(callee) ⊇ holds-at-call-site(caller). Seeded
/// from each function's PREMA_REQUIRES facts.
std::vector<std::set<std::string>> propagate_entry_locks(const Index& idx);

/// Locks possibly held at `pos` inside funcs[fi]: the propagated entry set
/// plus every lexical hold (RAII guard or assert grant) covering `pos`.
std::set<std::string> held_at(const Index& idx,
                              const std::vector<std::set<std::string>>& entry,
                              int fi, std::size_t pos);

/// A mutation site inside a function body: `chain.back()` (the field) is
/// assigned, incremented/decremented, compound-assigned, or receives a
/// mutating container call (emplace/erase/insert/push_back/clear/resize/...).
struct WriteSite {
  std::size_t pos = 0;               ///< offset of the written field name
  std::vector<std::string> chain;    ///< access chain, e.g. {"tx", "pending"}
  std::string op;                    ///< "=", "++", "+=", "erase", ...
};

/// Collect mutation sites in `f.code[[begin,end))`, sorted by position.
/// Declarations-with-initializer (`auto& x = ...`, `int x = ...`) are not
/// writes; chains are member-access paths of plain identifiers.
std::vector<WriteSite> collect_writes(const SourceFile& f, std::size_t begin,
                                      std::size_t end);

}  // namespace prema::analyze
