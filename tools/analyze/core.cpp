#include "analyze/core.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace prema::analyze {

namespace fs = std::filesystem;

std::string fingerprint(const Finding& f) {
  return f.rule + "|" + f.file + "|" + f.message;
}

std::string strip_comments_and_literals(std::string_view in) {
  std::string out;
  out.reserve(in.size());
  std::size_t i = 0;
  const std::size_t n = in.size();

  auto blank_until = [&](std::size_t end) {
    for (; i < end && i < n; ++i) out.push_back(in[i] == '\n' ? '\n' : ' ');
  };

  while (i < n) {
    const char c = in[i];
    // Line comment.
    if (c == '/' && i + 1 < n && in[i + 1] == '/') {
      std::size_t end = in.find('\n', i);
      blank_until(end == std::string_view::npos ? n : end);
      continue;
    }
    // Block comment.
    if (c == '/' && i + 1 < n && in[i + 1] == '*') {
      std::size_t end = in.find("*/", i + 2);
      blank_until(end == std::string_view::npos ? n : end + 2);
      continue;
    }
    // Raw string literal: R"delim( ... )delim".
    if (c == 'R' && i + 1 < n && in[i + 1] == '"' &&
        (i == 0 || (!std::isalnum(static_cast<unsigned char>(in[i - 1])) &&
                    in[i - 1] != '_'))) {
      std::size_t p = i + 2;
      std::string delim;
      while (p < n && in[p] != '(' && delim.size() <= 16) delim.push_back(in[p++]);
      const std::string closer = ")" + delim + "\"";
      std::size_t end = in.find(closer, p);
      blank_until(end == std::string_view::npos ? n : end + closer.size());
      continue;
    }
    // Ordinary string / char literal. A lone apostrophe between digits is a
    // C++14 digit separator (1'000'000), not a char literal.
    if (c == '"' ||
        (c == '\'' && !(i > 0 && std::isdigit(static_cast<unsigned char>(in[i - 1])) &&
                        i + 1 < n && std::isdigit(static_cast<unsigned char>(in[i + 1]))))) {
      std::size_t p = i + 1;
      while (p < n && in[p] != c && in[p] != '\n') {
        if (in[p] == '\\' && p + 1 < n) ++p;
        ++p;
      }
      blank_until(p < n ? p + 1 : n);
      continue;
    }
    out.push_back(c);
    ++i;
  }
  return out;
}

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

std::size_t find_ident(std::string_view hay, std::string_view needle,
                       std::size_t from, bool allow_scope_prefix,
                       bool require_call) {
  while (true) {
    const std::size_t pos = hay.find(needle, from);
    if (pos == std::string_view::npos) return std::string_view::npos;
    from = pos + 1;
    if (pos > 0) {
      const char before = hay[pos - 1];
      if (ident_char(before)) continue;
      if (before == '.' || (before == '>' && pos >= 2 && hay[pos - 2] == '-')) {
        continue;
      }
      if (!allow_scope_prefix && before == ':') continue;
    }
    std::size_t after = pos + needle.size();
    if (after < hay.size() && ident_char(hay[after])) continue;
    if (require_call) {
      while (after < hay.size() &&
             std::isspace(static_cast<unsigned char>(hay[after]))) {
        ++after;
      }
      if (after >= hay.size() || hay[after] != '(') continue;
    }
    return pos;
  }
}

std::size_t find_member_call(std::string_view hay, std::string_view needle,
                             std::size_t from) {
  while (true) {
    const std::size_t pos = hay.find(needle, from);
    if (pos == std::string_view::npos) return std::string_view::npos;
    from = pos + 1;
    if (pos == 0) continue;
    const char before = hay[pos - 1];
    const bool member = before == '.' ||
                        (before == '>' && pos >= 2 && hay[pos - 2] == '-');
    if (!member) continue;
    std::size_t after = pos + needle.size();
    if (after < hay.size() && ident_char(hay[after])) continue;
    after = skip_ws(hay, after);
    if (after >= hay.size() || hay[after] != '(') continue;
    return pos;
  }
}

int line_of(std::string_view text, std::size_t pos) {
  pos = std::min(pos, text.size());
  return 1 + static_cast<int>(std::count(text.begin(),
                                         text.begin() + static_cast<std::ptrdiff_t>(pos),
                                         '\n'));
}

std::size_t skip_ws(std::string_view text, std::size_t pos) {
  while (pos < text.size() && std::isspace(static_cast<unsigned char>(text[pos]))) {
    ++pos;
  }
  return pos;
}

std::size_t matching_paren(std::string_view code, std::size_t open) {
  int depth = 0;
  for (std::size_t p = open; p < code.size(); ++p) {
    if (code[p] == '(') ++depth;
    if (code[p] == ')' && --depth == 0) return p;
  }
  return std::string_view::npos;
}

std::size_t matching_brace(std::string_view code, std::size_t open) {
  int depth = 0;
  for (std::size_t p = open; p < code.size(); ++p) {
    if (code[p] == '{') ++depth;
    if (code[p] == '}' && --depth == 0) return p;
  }
  return std::string_view::npos;
}

std::vector<std::string> split_args(std::string_view args) {
  std::vector<std::string> out;
  int depth = 0;
  std::string cur;
  for (const char c : args) {
    if (c == '(' || c == '<' || c == '[') ++depth;
    if (c == ')' || c == '>' || c == ']') --depth;
    if (c == ',' && depth == 0) {
      out.push_back(cur);
      cur.clear();
      continue;
    }
    cur.push_back(c);
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

std::string lock_base_name(std::string_view expr) {
  std::string s;
  for (const char c : expr) {
    if (!std::isspace(static_cast<unsigned char>(c))) s.push_back(c);
  }
  // Keep only the final component of any member-access chain.
  for (std::size_t p = s.size(); p-- > 0;) {
    if (s[p] == '.') {
      s = s.substr(p + 1);
      break;
    }
    if (s[p] == '>' && p > 0 && s[p - 1] == '-') {
      s = s.substr(p + 1);
      break;
    }
  }
  if (s.size() >= 2 && s.substr(s.size() - 2) == "()") s.resize(s.size() - 2);
  if (!s.empty() && s.front() == '&') s.erase(s.begin());
  if (!s.empty() && s.back() == '_') s.pop_back();
  return s;
}

bool allow_comment(const SourceFile& f, std::size_t pos, std::string_view rule) {
  const std::string needle = "analyze:allow(" + std::string(rule) + ")";
  pos = std::min(pos, f.raw.size());
  std::size_t line_begin = f.raw.rfind('\n', pos == 0 ? 0 : pos - 1);
  line_begin = line_begin == std::string::npos ? 0 : line_begin + 1;
  std::size_t line_end = f.raw.find('\n', pos);
  line_end = line_end == std::string::npos ? f.raw.size() : line_end;
  // The line itself, or the full line above it.
  std::size_t prev_begin = line_begin;
  if (line_begin >= 2) {
    const std::size_t above = f.raw.rfind('\n', line_begin - 2);
    prev_begin = above == std::string::npos ? 0 : above + 1;
  }
  return std::string_view(f.raw).substr(prev_begin, line_end - prev_begin)
             .find(needle) != std::string_view::npos;
}

bool load_tree(const std::string& root, Tree& out) {
  if (!fs::is_directory(root)) return false;
  std::vector<fs::path> files;
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file()) continue;
    const auto ext = entry.path().extension();
    if (ext != ".hpp" && ext != ".cpp" && ext != ".h" && ext != ".cc") continue;
    files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  out.files.reserve(files.size());
  for (const auto& path : files) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    out.files.push_back(
        make_file(fs::relative(path, root).generic_string(), ss.str()));
  }
  return true;
}

SourceFile make_file(std::string rel, std::string raw) {
  SourceFile f;
  f.rel = std::move(rel);
  f.code = strip_comments_and_literals(raw);
  f.raw = std::move(raw);
  return f;
}

// ---------------------------------------------------------------------------
// Lock hierarchy
// ---------------------------------------------------------------------------

namespace {

/// One non-blank manifest line: its 1-based number and its whitespace-
/// separated fields, with any '#' comment stripped.
struct ManifestLine {
  int line = 0;
  std::vector<std::string> fields;
};

/// The manifest reader every checked-in table shares (lock_hierarchy.txt,
/// the protocol specs, atomics.txt).
std::vector<ManifestLine> read_manifest(std::string_view text) {
  std::vector<ManifestLine> lines;
  int lineno = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t eol = std::min(text.find('\n', pos), text.size());
    std::string line(text.substr(pos, eol - pos));
    pos = eol + 1;
    ++lineno;
    if (const auto hash = line.find('#'); hash != std::string::npos) {
      line.resize(hash);
    }
    ManifestLine ml;
    ml.line = lineno;
    std::string cur;
    for (const char c : line + " ") {
      if (c == ' ' || c == '\t' || c == '\r') {
        if (!cur.empty()) ml.fields.push_back(cur);
        cur.clear();
      } else {
        cur.push_back(c);
      }
    }
    if (!ml.fields.empty()) lines.push_back(std::move(ml));
  }
  return lines;
}

/// Split a `key=value` field at its first '='; false when it has none.
bool split_key_value(const std::string& kv, std::string& key, std::string& value) {
  const std::size_t eq = kv.find('=');
  if (eq == std::string::npos) return false;
  key = kv.substr(0, eq);
  value = kv.substr(eq + 1);
  return true;
}

}  // namespace

std::vector<LockEntry> parse_hierarchy(std::string_view text) {
  std::vector<LockEntry> entries;
  for (const ManifestLine& ml : read_manifest(text)) {
    const std::vector<std::string>& fields = ml.fields;
    LockEntry e;
    e.name = fields[0];
    if (fields.size() >= 2) {
      for (const std::string& m : split_args(fields[1])) {
        LockMatcher matcher;
        if (const auto bang = m.find('!'); bang != std::string::npos) {
          matcher.path = m.substr(0, bang);
          matcher.ident = m.substr(bang + 1);
        } else {
          matcher.ident = m;
        }
        e.matchers.push_back(std::move(matcher));
      }
    }
    for (std::size_t i = 2; i < fields.size(); ++i) {
      if (fields[i] == "recursive") e.recursive = true;
      if (fields[i] == "noblock") e.noblock = true;
    }
    entries.push_back(std::move(e));
  }
  return entries;
}

int resolve_lock(const std::vector<LockEntry>& entries, std::string_view rel,
                 std::string_view base) {
  for (std::size_t i = 0; i < entries.size(); ++i) {
    for (const LockMatcher& m : entries[i].matchers) {
      if (m.ident != base) continue;
      if (!m.path.empty() && rel.find(m.path) == std::string_view::npos) continue;
      return static_cast<int>(i);
    }
  }
  return -1;
}

// ---------------------------------------------------------------------------
// Protocol specs
// ---------------------------------------------------------------------------

std::optional<ProtocolSpec> parse_protocol_spec(const std::string& spec_name,
                                                std::string_view text,
                                                std::vector<Finding>& errors) {
  ProtocolSpec spec;
  bool bad = false;
  auto err = [&](int line, const std::string& msg) {
    errors.push_back({"protocol-fsm-spec", spec_name, line, msg});
    bad = true;
  };
  for (const ManifestLine& ml : read_manifest(text)) {
    const std::vector<std::string>& fields = ml.fields;
    const int lineno = ml.line;
    const std::string& kw = fields[0];
    if (kw == "protocol") {
      if (fields.size() != 2) {
        err(lineno, "'protocol' takes exactly one name");
      } else {
        spec.name = fields[1];
      }
    } else if (kw == "files") {
      if (fields.size() != 2) {
        err(lineno, "'files' takes exactly one rel-path prefix");
      } else {
        spec.files = fields[1];
      }
    } else if (kw == "var") {
      if (fields.size() < 2) err(lineno, "'var' needs at least one identifier");
      for (std::size_t i = 1; i < fields.size(); ++i) {
        spec.vars.push_back(fields[i]);
      }
    } else if (kw == "transition") {
      if (fields.size() < 3) {
        err(lineno, "'transition' needs a name and at least fn=<ident>");
        continue;
      }
      ProtocolTransition t;
      t.name = fields[1];
      t.line = lineno;
      for (std::size_t i = 2; i < fields.size(); ++i) {
        std::string key, value;
        if (!split_key_value(fields[i], key, value)) {
          err(lineno, "transition attribute '" + fields[i] + "' is not key=value");
          continue;
        }
        if (key == "fn") {
          t.fn = value;
        } else if (key == "files") {
          t.files = value;
        } else if (key == "emits") {
          t.emits = value;
        } else if (key == "writes") {
          for (const std::string& w : split_args(value)) {
            if (!w.empty()) t.writes.push_back(w);
          }
        } else {
          err(lineno, "unknown transition attribute '" + key + "'");
        }
      }
      if (t.fn.empty()) {
        err(lineno, "transition '" + t.name + "' has no fn=");
        continue;
      }
      spec.transitions.push_back(std::move(t));
    } else {
      err(lineno, "unknown directive '" + kw + "'");
    }
  }
  if (spec.name.empty()) {
    err(1, "spec declares no 'protocol <name>'");
  }
  if (spec.files.empty()) {
    err(1, "spec declares no 'files <prefix>'");
  }
  // Every transition's writes must name declared vars.
  for (const ProtocolTransition& t : spec.transitions) {
    for (const std::string& w : t.writes) {
      if (std::find(spec.vars.begin(), spec.vars.end(), w) == spec.vars.end()) {
        err(t.line, "transition '" + t.name + "' writes undeclared var '" + w + "'");
      }
    }
  }
  if (bad) return std::nullopt;
  return spec;
}

// ---------------------------------------------------------------------------
// Atomics manifest
// ---------------------------------------------------------------------------

std::vector<AtomicEntry> parse_atomics_manifest(const std::string& manifest_name,
                                                std::string_view text,
                                                std::vector<Finding>& errors) {
  std::vector<AtomicEntry> entries;
  static const std::set<std::string, std::less<>> kRoles = {
      "flag", "counter", "seqcount", "published-ptr"};
  static const std::set<std::string, std::less<>> kOrders = {
      "relaxed", "acquire", "release", "acq_rel", "seq_cst"};
  auto err = [&](int line, const std::string& msg) {
    errors.push_back({"atomic-manifest", manifest_name, line, msg});
  };
  for (const ManifestLine& ml : read_manifest(text)) {
    const std::vector<std::string>& fields = ml.fields;
    const int lineno = ml.line;
    AtomicEntry e;
    e.line = lineno;
    e.name = fields[0];
    if (e.name.find('=') != std::string::npos) {
      err(lineno, "entry must start with the declared name, got '" + e.name + "'");
      continue;
    }
    bool bad = false;
    for (std::size_t i = 1; i < fields.size(); ++i) {
      std::string key, value;
      if (!split_key_value(fields[i], key, value)) {
        err(lineno, "attribute '" + fields[i] + "' is not key=value");
        bad = true;
        continue;
      }
      if (key == "role") {
        if (kRoles.count(value) == 0) {
          err(lineno, "unknown role '" + value +
                          "' (flag, counter, seqcount or published-ptr)");
          bad = true;
        } else {
          e.role = value;
        }
      } else if (key == "orders") {
        for (const std::string& o : split_args(value)) {
          if (kOrders.count(o) == 0) {
            err(lineno, "unknown memory order '" + o +
                            "' (relaxed, acquire, release, acq_rel, seq_cst)");
            bad = true;
          } else {
            e.orders.insert(o);
          }
        }
      } else if (key == "class") {
        e.cls = value;
      } else if (key == "file") {
        e.path = value;
      } else {
        err(lineno, "unknown attribute '" + key + "'");
        bad = true;
      }
    }
    if (e.role.empty()) {
      err(lineno, "entry '" + e.name + "' declares no role=");
      bad = true;
    }
    if (e.orders.empty()) {
      err(lineno, "entry '" + e.name + "' declares no orders=");
      bad = true;
    }
    for (const AtomicEntry& prev : entries) {
      if (prev.name == e.name && prev.cls == e.cls && prev.path == e.path) {
        err(lineno, "duplicate entry for '" + e.name + "'");
        bad = true;
        break;
      }
    }
    if (!bad) entries.push_back(std::move(e));
  }
  return entries;
}

int resolve_atomic(const std::vector<AtomicEntry>& entries, std::string_view rel,
                   std::string_view cls, std::string_view name) {
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const AtomicEntry& e = entries[i];
    if (e.name != name) continue;
    if (!e.path.empty() && rel.find(e.path) == std::string_view::npos) continue;
    if (!e.cls.empty() && !cls.empty() && e.cls != cls) continue;
    return static_cast<int>(i);
  }
  return -1;
}

bool atomic_op_is_rmw(const std::string& op) {
  return op == "exchange" || op.compare(0, 6, "fetch_") == 0 ||
         op.compare(0, 16, "compare_exchange") == 0 || op == "++" ||
         op == "--" || (op.size() == 2 && op[1] == '=');
}

bool atomic_op_is_implicit(const AtomicOp& op) {
  if (!op.orders.empty()) return false;
  if (op.op == "load") return op.args == 0;
  if (op.op == "store" || op.op == "exchange" ||
      op.op.compare(0, 6, "fetch_") == 0) {
    return op.args == 1;
  }
  if (op.op.compare(0, 16, "compare_exchange") == 0) return op.args <= 2;
  return op.op == "=";  // plain assignment: an implicit seq_cst store
}

// ---------------------------------------------------------------------------
// Whole-program index
// ---------------------------------------------------------------------------

namespace {

bool is_keyword(std::string_view w) {
  static const std::set<std::string, std::less<>> kKeywords = {
      "if",       "for",      "while",   "switch",   "catch",    "return",
      "sizeof",   "alignof",  "decltype", "noexcept", "new",      "delete",
      "throw",    "static_assert",       "assert",   "case",     "default",
      "do",       "else",     "operator", "co_await", "co_return", "typeid",
      "alignas",  "static_cast",         "const_cast",           "not",
      "reinterpret_cast",     "dynamic_cast",        "requires", "and", "or"};
  return kKeywords.count(w) != 0;
}

bool is_trailing_keyword(std::string_view w) {
  return w == "const" || w == "noexcept" || w == "override" || w == "final" ||
         w == "mutable" || w == "volatile" || w == "try";
}

/// Blank preprocessor lines (and their backslash continuations) so macro
/// definitions — X-macro tables, the annotation macros themselves — don't
/// masquerade as function definitions or call sites.
std::string blank_preprocessor(std::string_view code) {
  std::string out(code);
  std::size_t pos = 0;
  bool continued = false;
  while (pos < out.size()) {
    std::size_t eol = out.find('\n', pos);
    if (eol == std::string::npos) eol = out.size();
    const std::size_t first = skip_ws(out, pos);
    const bool directive = continued || (first < eol && out[first] == '#');
    if (directive) {
      // A trailing backslash continues the directive onto the next line.
      std::size_t last = eol;
      while (last > pos &&
             std::isspace(static_cast<unsigned char>(out[last - 1]))) {
        --last;
      }
      continued = last > pos && out[last - 1] == '\\';
      for (std::size_t p = pos; p < eol; ++p) {
        if (out[p] != '\n') out[p] = ' ';
      }
    } else {
      continued = false;
    }
    pos = eol + 1;
  }
  return out;
}

/// Identifier token ending at `end` (exclusive); empty when none.
std::string_view ident_before(std::string_view code, std::size_t end) {
  std::size_t begin = end;
  while (begin > 0 && ident_char(code[begin - 1])) --begin;
  return code.substr(begin, end - begin);
}

std::size_t skip_ws_back(std::string_view code, std::size_t pos) {
  while (pos > 0 && std::isspace(static_cast<unsigned char>(code[pos - 1]))) {
    --pos;
  }
  return pos;
}

/// Offset of the '(' matching the ')' ending at `close` (inclusive); npos
/// when unbalanced.
std::size_t matching_paren_back(std::string_view code, std::size_t close) {
  int depth = 0;
  for (std::size_t p = close + 1; p-- > 0;) {
    if (code[p] == ')') ++depth;
    if (code[p] == '(' && --depth == 0) return p;
  }
  return std::string_view::npos;
}

std::size_t matching_bracket_back(std::string_view code, std::size_t close) {
  int depth = 0;
  for (std::size_t p = close + 1; p-- > 0;) {
    if (code[p] == ']') ++depth;
    if (code[p] == '[' && --depth == 0) return p;
  }
  return std::string_view::npos;
}

/// End of the scope the position `pos` sits in: the '}' closing the innermost
/// enclosing brace, clamped to `limit`.
std::size_t scope_end(std::string_view code, std::size_t pos, std::size_t limit) {
  int depth = 0;
  for (std::size_t p = pos; p < limit && p < code.size(); ++p) {
    if (code[p] == '{') ++depth;
    if (code[p] == '}') {
      if (depth == 0) return p;
      --depth;
    }
  }
  return limit;
}

/// Parse a constructor member-initializer list starting just after ':';
/// returns the offset of the body '{', or npos when this is not one.
std::size_t scan_init_list(std::string_view code, std::size_t p) {
  while (true) {
    p = skip_ws(code, p);
    if (p >= code.size()) return std::string_view::npos;
    if (code[p] == '{') return p;
    const std::size_t start = p;
    while (p < code.size()) {
      if (ident_char(code[p])) {
        ++p;
      } else if (code[p] == ':' && p + 1 < code.size() && code[p + 1] == ':') {
        p += 2;
      } else if (code[p] == '<') {
        int depth = 1;
        ++p;
        while (p < code.size() && depth > 0) {
          if (code[p] == '<') ++depth;
          if (code[p] == '>') --depth;
          ++p;
        }
      } else {
        break;
      }
    }
    if (p == start) return std::string_view::npos;
    p = skip_ws(code, p);
    if (p >= code.size()) return std::string_view::npos;
    if (code[p] == '(') {
      const std::size_t close = matching_paren(code, p);
      if (close == std::string_view::npos) return std::string_view::npos;
      p = close + 1;
    } else if (code[p] == '{') {
      const std::size_t close = matching_brace(code, p);
      if (close == std::string_view::npos) return std::string_view::npos;
      p = close + 1;
    } else {
      return std::string_view::npos;
    }
    p = skip_ws(code, p);
    if (p < code.size() && code[p] == ',') {
      ++p;
      continue;
    }
    if (p < code.size() && code[p] == '{') return p;
    return std::string_view::npos;
  }
}

}  // namespace

/// Walk a member-access chain backwards from `end` (exclusive end of the
/// final identifier). Appends components front-first into `chain`; returns
/// the offset of the chain's first component, or npos on failure (the chain
/// starts from a call/temporary we cannot name).
std::size_t parse_chain_back(std::string_view code, std::size_t end,
                             std::vector<std::string>& chain) {
  std::size_t p = end;
  for (int hops = 0; hops < 8; ++hops) {
    // Skip index groups: tx_[dst] — the component name precedes the '['.
    while (p > 0 && code[p - 1] == ']') {
      const std::size_t open = matching_bracket_back(code, p - 1);
      if (open == std::string_view::npos) return std::string_view::npos;
      p = open;
    }
    if (p > 0 && code[p - 1] == ')') return std::string_view::npos;  // temp
    const std::string_view comp = ident_before(code, p);
    if (comp.empty()) return std::string_view::npos;
    chain.insert(chain.begin(), std::string(comp));
    p -= comp.size();
    if (p >= 1 && code[p - 1] == '.') {
      --p;
      continue;
    }
    if (p >= 2 && code[p - 1] == '>' && code[p - 2] == '-') {
      p -= 2;
      continue;
    }
    return p;
  }
  return std::string_view::npos;
}

namespace {

void collect_class_regions(const Tree& tree, int fi, const std::string& pp,
                           std::vector<ClassRegion>& out) {
  for (const char* kw : {"class", "struct"}) {
    std::size_t from = 0;
    while (true) {
      const std::size_t pos = find_ident(pp, kw, from, false, false);
      if (pos == std::string::npos) break;
      from = pos + 1;
      // `enum class` is not a class region.
      if (ident_before(pp, skip_ws_back(pp, pos)) == "enum") continue;
      std::size_t p = skip_ws(pp, pos + std::string_view(kw).size());
      std::size_t name_begin = p;
      while (p < pp.size() && ident_char(pp[p])) ++p;
      if (p == name_begin) continue;  // anonymous
      const std::string name = pp.substr(name_begin, p - name_begin);
      p = skip_ws(pp, p);
      if (p < pp.size() && pp.compare(p, 5, "final") == 0) p = skip_ws(pp, p + 5);
      if (p >= pp.size()) continue;
      if (pp[p] == ',' || pp[p] == '>' || pp[p] == ';') continue;  // tmpl / fwd
      if (pp[p] == ':') {
        if (p + 1 < pp.size() && pp[p + 1] == ':') continue;  // qualified use
        while (p < pp.size() && pp[p] != '{' && pp[p] != ';') ++p;
      }
      if (p >= pp.size() || pp[p] != '{') continue;
      const std::size_t close = matching_brace(pp, p);
      if (close == std::string::npos) continue;
      out.push_back({name, fi, p, close});
    }
  }
  (void)tree;
}

void collect_fields(const SourceFile& f, const std::string& pp,
                    const ClassRegion& region, std::vector<FieldDecl>& out) {
  // Member-scope statements: text between ';' / '}' boundaries at the
  // region's top brace depth. Function bodies and nested classes nest one
  // level deeper and terminate with '}', so their statements are dropped.
  std::size_t stmt_begin = region.body_begin + 1;
  int depth = 0;
  for (std::size_t p = region.body_begin + 1; p < region.body_end; ++p) {
    const char c = pp[p];
    if (c == '{') {
      ++depth;
      continue;
    }
    if (c == '}') {
      --depth;
      if (depth == 0) {
        // End of an inline body — unless ';' follows directly, which makes
        // the braces a member initializer (`TraceEvent work_ {};`): keep the
        // statement so the declaration survives.
        const std::size_t nx = skip_ws(pp, p + 1);
        if (nx >= region.body_end || pp[nx] != ';') stmt_begin = p + 1;
      }
      continue;
    }
    if (depth != 0) continue;
    if (c == ':' && p + 1 < region.body_end && pp[p + 1] != ':' &&
        (p == 0 || pp[p - 1] != ':')) {
      const std::string_view label = ident_before(pp, skip_ws_back(pp, p));
      if (label == "public" || label == "private" || label == "protected") {
        stmt_begin = p + 1;
      }
      continue;
    }
    if (c != ';') continue;
    const std::string_view s =
        std::string_view(pp).substr(stmt_begin, p - stmt_begin);
    stmt_begin = p + 1;
    // Reject non-data statements.
    const std::size_t first = skip_ws(s, 0);
    if (first >= s.size()) continue;
    const std::string_view head = [&] {
      std::size_t e = first;
      while (e < s.size() && ident_char(s[e])) ++e;
      return s.substr(first, e - first);
    }();
    if (head == "using" || head == "typedef" || head == "friend" ||
        head == "template" || head == "static_assert" || head == "enum" ||
        head == "class" || head == "struct" || head == "union") {
      continue;
    }
    // Cut before any initializer / annotation: the declared name is the last
    // identifier left of the cut.
    std::size_t cut = s.size();
    int pd = 0;
    for (std::size_t q = 0; q < s.size(); ++q) {
      const char d = s[q];
      if (d == '(' || d == '<') ++pd;
      if (d == ')' || d == '>') pd = pd > 0 ? pd - 1 : 0;
      if (pd != 0) continue;
      if (d == '=' || d == '{' || d == '[') {
        cut = q;
        break;
      }
    }
    if (const std::size_t prema = s.find("PREMA_"); prema < cut) cut = prema;
    std::size_t name_end = skip_ws_back(s, cut);
    const std::string_view name = ident_before(s, name_end);
    if (name.empty() || std::isdigit(static_cast<unsigned char>(name[0]))) {
      continue;
    }
    if (is_trailing_keyword(name) || is_keyword(name)) continue;
    const std::string_view type_raw = s.substr(0, name_end - name.size());
    // A top-level '(' left of the name means this was a function declaration.
    bool fn_decl = false;
    int fd = 0;
    for (const char d : type_raw) {
      if (d == '<') ++fd;
      if (d == '>') fd = fd > 0 ? fd - 1 : 0;
      if (d == '(' && fd == 0) fn_decl = true;
    }
    if (fn_decl) continue;
    std::string type;
    for (const char d : type_raw) {
      if (!std::isspace(static_cast<unsigned char>(d))) {
        type.push_back(d);
      } else if (!type.empty() && type.back() != ' ') {
        type.push_back(' ');
      }
    }
    while (!type.empty() && type.back() == ' ') type.pop_back();
    if (type.empty()) continue;
    FieldDecl field;
    field.cls = region.name;
    field.name = std::string(name);
    field.type = type;
    field.file = region.file;
    field.pos = static_cast<std::size_t>(s.data() - pp.data()) +
                (name_end - name.size());
    field.line = line_of(pp, field.pos);
    field.guarded = s.find("PREMA_GUARDED_BY") != std::string_view::npos ||
                    s.find("PREMA_PT_GUARDED_BY") != std::string_view::npos ||
                    type.find("atomic") != std::string::npos;
    out.push_back(std::move(field));
  }
  (void)f;
}

void collect_functions(const Tree& tree, int fi, const std::string& pp,
                       std::vector<FunctionDef>& out) {
  const std::string_view code = pp;
  for (std::size_t q = 0; q < code.size(); ++q) {
    if (code[q] != '(') continue;
    const std::size_t name_end = skip_ws_back(code, q);
    const std::string_view name = ident_before(code, name_end);
    if (name.empty() || std::isdigit(static_cast<unsigned char>(name[0]))) {
      continue;
    }
    if (is_keyword(name) || name.substr(0, 6) == "PREMA_") continue;
    const std::size_t name_begin = name_end - name.size();
    // Qualification chain: A::B::name.
    std::vector<std::string> quals;
    std::size_t s = name_begin;
    while (s >= 2 && code[s - 1] == ':' && code[s - 2] == ':') {
      const std::string_view part = ident_before(code, s - 2);
      if (part.empty()) break;
      quals.insert(quals.begin(), std::string(part));
      s = s - 2 - part.size();
    }
    // Preceding context: member-initializer items and comma lists are not
    // function definitions.
    const std::size_t t = skip_ws_back(code, s);
    if (t > 0) {
      const char before = code[t - 1];
      if (before == ',' || before == '~' || before == '.' || before == '<') {
        continue;
      }
      if (before == ':' && !(t >= 2 && code[t - 2] == ':')) {
        const std::string_view label = ident_before(code, skip_ws_back(code, t - 1));
        if (label != "public" && label != "private" && label != "protected") {
          continue;
        }
      }
    }
    const std::size_t close = matching_paren(code, q);
    if (close == std::string_view::npos) continue;
    // Trailing-token walk to the body '{' (or rejection).
    std::size_t u = close + 1;
    std::vector<std::string> requires_locks;
    std::size_t body = std::string_view::npos;
    while (u < code.size()) {
      u = skip_ws(code, u);
      if (u >= code.size()) break;
      const char ch = code[u];
      if (ch == '{') {
        body = u;
        break;
      }
      if (ch == ':' && (u + 1 >= code.size() || code[u + 1] != ':')) {
        body = scan_init_list(code, u + 1);
        break;
      }
      if (ch == '-' && u + 1 < code.size() && code[u + 1] == '>') {
        // Trailing return type: skip tokens up to the body or ';'.
        u += 2;
        while (u < code.size() && code[u] != '{' && code[u] != ';') {
          if (code[u] == '(') {
            const std::size_t c2 = matching_paren(code, u);
            if (c2 == std::string_view::npos) break;
            u = c2;
          }
          ++u;
        }
        continue;
      }
      if (!ident_char(ch)) break;
      std::size_t w_end = u;
      while (w_end < code.size() && ident_char(code[w_end])) ++w_end;
      const std::string_view word = code.substr(u, w_end - u);
      if (is_trailing_keyword(word)) {
        u = w_end;
        if (word == "noexcept") {
          const std::size_t nw = skip_ws(code, u);
          if (nw < code.size() && code[nw] == '(') {
            const std::size_t c2 = matching_paren(code, nw);
            if (c2 == std::string_view::npos) break;
            u = c2 + 1;
          }
        }
        continue;
      }
      if (word.substr(0, 6) == "PREMA_") {
        const std::size_t open2 = skip_ws(code, w_end);
        if (open2 < code.size() && code[open2] == '(') {
          const std::size_t c2 = matching_paren(code, open2);
          if (c2 == std::string_view::npos) break;
          if (word == "PREMA_REQUIRES") {
            for (const std::string& arg :
                 split_args(code.substr(open2 + 1, c2 - open2 - 1))) {
              const std::string base = lock_base_name(arg);
              if (!base.empty()) requires_locks.push_back(base);
            }
          }
          u = c2 + 1;
        } else {
          u = w_end;
        }
        continue;
      }
      break;
    }
    if (body == std::string_view::npos) continue;
    const std::size_t body_end = matching_brace(code, body);
    if (body_end == std::string_view::npos) continue;
    FunctionDef fn;
    fn.name = std::string(name);
    if (!quals.empty()) {
      std::string qual;
      for (const std::string& part : quals) qual += part + "::";
      fn.qual = qual + fn.name;
    }
    fn.file = fi;
    fn.name_pos = name_begin;
    fn.line = line_of(code, name_begin);
    fn.body_begin = body;
    fn.body_end = body_end;
    fn.requires_locks = std::move(requires_locks);
    out.push_back(std::move(fn));
  }
  (void)tree;
}

void collect_capabilities(const Tree& tree, Index& idx) {
  for (const SourceFile& f : tree.files) {
    const std::string_view code = f.code;
    for (const char* macro :
         {"PREMA_RETURN_CAPABILITY", "PREMA_ASSERT_CAPABILITY"}) {
      std::size_t from = 0;
      while (true) {
        const std::size_t pos = find_ident(code, macro, from, false, true);
        if (pos == std::string_view::npos) break;
        from = pos + 1;
        const std::size_t open = code.find('(', pos);
        const std::size_t close = matching_paren(code, open);
        if (close == std::string_view::npos) continue;
        const auto args = split_args(code.substr(open + 1, close - open - 1));
        if (args.empty()) continue;
        const std::string base = lock_base_name(args[0]);
        if (base.empty()) continue;
        // The annotated function: `name(...) [const ...] MACRO(...)`.
        std::size_t r = skip_ws_back(code, pos);
        while (true) {
          const std::string_view word = ident_before(code, r);
          if (!word.empty() && is_trailing_keyword(word)) {
            r = skip_ws_back(code, r - word.size());
            continue;
          }
          break;
        }
        if (r == 0 || code[r - 1] != ')') continue;
        const std::size_t po = matching_paren_back(code, r - 1);
        if (po == std::string_view::npos) continue;
        const std::string_view fname = ident_before(code, skip_ws_back(code, po));
        if (fname.empty()) continue;
        if (std::string_view(macro) == "PREMA_RETURN_CAPABILITY") {
          idx.capability_alias[std::string(fname)] = base;
        } else {
          idx.assert_grants[std::string(fname)] = base;
        }
      }
    }
  }
}

void collect_acquisitions(const Index& idx, FunctionDef& fn,
                          const SourceFile& f) {
  const std::string_view code = f.code;
  const std::size_t b = fn.body_begin;
  const std::size_t e = fn.body_end;
  auto canon = [&](const std::string& base) {
    const auto it = idx.capability_alias.find(base);
    return it == idx.capability_alias.end() ? base : it->second;
  };
  auto find_unlock = [&](std::string_view var, std::size_t from,
                         std::size_t limit) {
    std::size_t p = from;
    while (true) {
      const std::size_t m = find_member_call(code, "unlock", p);
      if (m == std::string_view::npos || m >= limit) return limit;
      p = m + 1;
      std::size_t r = m - 1;  // '.' or '->'
      if (code[r] == '>') --r;
      if (ident_before(code, r) == var) return m;
    }
  };

  for (const char* type : {"LockGuard", "UniqueLock", "RecursiveLock"}) {
    std::size_t from = b;
    while (true) {
      const std::size_t pos = find_ident(code, type, from, true, false);
      if (pos == std::string_view::npos || pos >= e) break;
      from = pos + 1;
      if (pos < 2 || code[pos - 1] != ':' || code[pos - 2] != ':') continue;
      if (ident_before(code, pos - 2) != "util") continue;
      std::size_t p = skip_ws(code, pos + std::string_view(type).size());
      const std::size_t var_begin = p;
      while (p < code.size() && ident_char(code[p])) ++p;
      const std::string var(code.substr(var_begin, p - var_begin));
      p = skip_ws(code, p);
      if (p >= code.size() || code[p] != '(') continue;
      const std::size_t close = matching_paren(code, p);
      if (close == std::string_view::npos) continue;
      const auto args = split_args(code.substr(p + 1, close - p - 1));
      if (args.empty()) continue;
      LockAcq acq;
      acq.pos = pos;
      acq.base = canon(lock_base_name(args[0]));
      acq.guard_var = var;
      const std::size_t scope = scope_end(code, pos, e);
      acq.end = var.empty() ? scope : find_unlock(var, close, scope);
      fn.acquisitions.push_back(std::move(acq));
    }
  }

  // Node::lock_state() — an RAII handle over the node's state mutex, usually
  // bound as `auto lock = n.lock_state();` and sometimes released early with
  // `lock.unlock()`.
  std::size_t from = b;
  while (true) {
    const std::size_t pos = find_member_call(code, "lock_state", from);
    if (pos == std::string_view::npos || pos >= e) break;
    from = pos + 1;
    // Recover the bound variable, if any: walk back over the receiver chain
    // to `=`, then take the identifier before it.
    std::string var;
    std::size_t r = pos;
    while (r > 0 && (ident_char(code[r - 1]) || code[r - 1] == '.' ||
                     code[r - 1] == '_' ||
                     (code[r - 1] == '>' && r >= 2 && code[r - 2] == '-'))) {
      r -= (code[r - 1] == '>') ? 2 : 1;
    }
    r = skip_ws_back(code, r);
    if (r > 0 && code[r - 1] == '=' && (r < 2 || code[r - 2] != '=')) {
      var = std::string(ident_before(code, skip_ws_back(code, r - 1)));
    }
    LockAcq acq;
    acq.pos = pos;
    acq.base = "state_mutex";
    acq.guard_var = var;
    const std::size_t scope = scope_end(code, pos, e);
    acq.end = var.empty() ? scope : find_unlock(var, pos, scope);
    fn.acquisitions.push_back(std::move(acq));
  }

  // Assert-capability grantors prove the lock for the rest of the scope.
  for (const auto& [fname, base] : idx.assert_grants) {
    std::size_t from2 = b;
    while (true) {
      const std::size_t pos = find_ident(code, fname, from2, false, true);
      const std::size_t mpos = find_member_call(code, fname, from2);
      const std::size_t hit = std::min(pos, mpos);
      if (hit == std::string_view::npos || hit >= e) break;
      from2 = hit + 1;
      LockAcq acq;
      acq.pos = hit;
      acq.base = canon(base);
      acq.end = scope_end(code, hit, e);
      fn.acquisitions.push_back(std::move(acq));
    }
  }

  std::sort(fn.acquisitions.begin(), fn.acquisitions.end(),
            [](const LockAcq& a, const LockAcq& b2) { return a.pos < b2.pos; });

  // Canonicalize REQUIRES facts through capability aliases too.
  for (std::string& base : fn.requires_locks) base = canon(base);
}

/// PREMA_REQUIRES facts attached to *declarations* (`void f() PREMA_REQUIRES(m);`
/// in a header) — the out-of-line definition does not repeat the macro, so
/// the fact is collected here and merged into the matching FunctionDefs.
/// Keys are "Class::name" when the declaration sits inside a class region
/// (so an unrelated method that happens to share a name is not polluted),
/// bare names for free functions.
void collect_decl_requires(const Tree& tree, const Index& idx,
                           std::map<std::string, std::set<std::string>>& out) {
  for (std::size_t fidx = 0; fidx < tree.files.size(); ++fidx) {
    const SourceFile& f = tree.files[fidx];
    const std::string_view code = f.code;
    std::size_t from = 0;
    while (true) {
      const std::size_t pos =
          find_ident(code, "PREMA_REQUIRES", from, false, true);
      if (pos == std::string_view::npos) break;
      from = pos + 1;
      const std::size_t open = code.find('(', pos);
      const std::size_t close = matching_paren(code, open);
      if (close == std::string_view::npos) continue;
      // A declaration ends in ';' before any '{' — definitions were already
      // captured by collect_functions' trailing-token walk.
      std::size_t q = close + 1;
      while (q < code.size() && code[q] != ';' && code[q] != '{' &&
             code[q] != '}') {
        ++q;
      }
      if (q >= code.size() || code[q] != ';') continue;
      // Function name: walk back over trailing keywords to the parameter
      // list's ')', then take the identifier before its '('.
      std::size_t r = skip_ws_back(code, pos);
      std::string name;
      for (int guard = 0; guard < 6 && r > 0; ++guard) {
        if (code[r - 1] == ')') {
          const std::size_t po = matching_paren_back(code, r - 1);
          if (po == std::string_view::npos) break;
          name = std::string(ident_before(code, skip_ws_back(code, po)));
          break;
        }
        const std::string_view word = ident_before(code, r);
        if (word.empty() || !is_trailing_keyword(word)) break;
        r = skip_ws_back(code, r - word.size());
      }
      if (name.empty() || is_keyword(name)) continue;
      // Qualify by the innermost class region containing the declaration.
      const ClassRegion* owner = nullptr;
      for (const ClassRegion& region : idx.classes) {
        if (region.file != static_cast<int>(fidx) ||
            pos <= region.body_begin || pos >= region.body_end) {
          continue;
        }
        if (owner == nullptr || region.body_end - region.body_begin <
                                    owner->body_end - owner->body_begin) {
          owner = &region;
        }
      }
      const std::string key =
          owner != nullptr ? owner->name + "::" + name : name;
      for (const std::string& arg :
           split_args(code.substr(open + 1, close - open - 1))) {
        const std::string base = lock_base_name(arg);
        if (!base.empty()) out[key].insert(base);
      }
    }
  }
}

std::string type_class(const Index& idx, const std::string& type) {
  // Last identifier in the declaration's type text that names a known class:
  // `std::unique_ptr<ReliableLink>` -> ReliableLink, `Scheduler` -> itself.
  std::string best;
  std::size_t p = 0;
  while (p < type.size()) {
    if (!ident_char(type[p])) {
      ++p;
      continue;
    }
    std::size_t end = p;
    while (end < type.size() && ident_char(type[end])) ++end;
    const std::string word = type.substr(p, end - p);
    if (idx.class_names.count(word) != 0) best = word;
    p = end;
  }
  return best;
}

void collect_calls(const Index& idx, int fi, const SourceFile& f,
                   const std::string& pp, std::vector<CallSite>& out) {
  const FunctionDef& fn = idx.funcs[static_cast<std::size_t>(fi)];
  const std::string_view code = pp;
  for (std::size_t q = fn.body_begin; q < fn.body_end; ++q) {
    if (code[q] != '(') continue;
    const std::size_t name_end = skip_ws_back(code, q);
    const std::string_view name = ident_before(code, name_end);
    if (name.empty() || std::isdigit(static_cast<unsigned char>(name[0]))) {
      continue;
    }
    if (is_keyword(name) || is_trailing_keyword(name) ||
        name.substr(0, 6) == "PREMA_") {
      continue;
    }
    const std::size_t name_begin = name_end - name.size();
    CallSite call;
    call.caller = fi;
    call.pos = name_begin;
    call.name = std::string(name);
    const char before = name_begin > 0 ? code[name_begin - 1] : ' ';
    const bool member =
        before == '.' ||
        (before == '>' && name_begin >= 2 && code[name_begin - 2] == '-');
    auto resolve_unique = [&](const std::map<std::string, std::vector<int>>& m,
                              const std::string& key) {
      const auto it = m.find(key);
      return (it != m.end() && it->second.size() == 1) ? it->second[0] : -1;
    };
    if (member) {
      std::size_t r = name_begin - 1;
      if (code[r] == '>') --r;
      std::string recv(ident_before(code, r));
      const std::string cls =
          recv.empty() ? "" : receiver_class(idx, f, &fn, recv, name_begin);
      if (!cls.empty()) {
        call.callee = resolve_unique(idx.by_qual, cls + "::" + call.name);
      }
      if (call.callee < 0) {
        call.callee = resolve_unique(idx.by_name, call.name);
      }
    } else {
      std::vector<std::string> quals;
      std::size_t s = name_begin;
      while (s >= 2 && code[s - 1] == ':' && code[s - 2] == ':') {
        const std::string_view part = ident_before(code, s - 2);
        if (part.empty()) break;
        quals.insert(quals.begin(), std::string(part));
        s = s - 2 - part.size();
      }
      if (!quals.empty()) {
        std::string qual;
        for (const std::string& part : quals) qual += part + "::";
        call.callee = resolve_unique(idx.by_qual, qual + call.name);
      } else {
        call.callee = resolve_unique(idx.by_name, call.name);
      }
    }
    out.push_back(std::move(call));
  }
}

}  // namespace

int Index::enclosing(int file, std::size_t pos) const {
  int best = -1;
  std::size_t best_span = 0;
  for (std::size_t i = 0; i < funcs.size(); ++i) {
    const FunctionDef& fn = funcs[i];
    if (fn.file != file || pos < fn.body_begin || pos >= fn.body_end) continue;
    const std::size_t span = fn.body_end - fn.body_begin;
    if (best < 0 || span < best_span) {
      best = static_cast<int>(i);
      best_span = span;
    }
  }
  return best;
}

const FieldDecl* Index::find_field(const std::string& cls_hint, int file,
                                   const std::string& name) const {
  if (!cls_hint.empty()) {
    for (const FieldDecl& f : fields) {
      if (f.cls == cls_hint && f.name == name) return &f;
    }
  }
  if (file < 0 || tree == nullptr) return nullptr;
  auto stem = [](const std::string& rel) {
    const std::size_t dot = rel.rfind('.');
    return dot == std::string::npos ? rel : rel.substr(0, dot);
  };
  const std::string want = stem(tree->files[static_cast<std::size_t>(file)].rel);
  for (const FieldDecl& f : fields) {
    if (f.name != name) continue;
    if (stem(tree->files[static_cast<std::size_t>(f.file)].rel) == want) {
      return &f;
    }
  }
  return nullptr;
}

std::string receiver_class(const Index& idx, const SourceFile& f,
                           const FunctionDef* fn, const std::string& recv,
                           std::size_t use) {
  if (const auto it = idx.member_types.find(recv); it != idx.member_types.end()) {
    return it->second;
  }
  if (fn == nullptr) return "";
  const std::string_view code = f.code;
  std::size_t from = fn->name_pos;
  while (true) {
    const std::size_t pos = find_ident(code, recv, from, false, false);
    if (pos == std::string_view::npos || pos >= use) return "";
    from = pos + 1;
    std::size_t r = skip_ws_back(code, pos);
    while (r > 0 && (code[r - 1] == '&' || code[r - 1] == '*')) --r;
    r = skip_ws_back(code, r);
    const std::string_view word = ident_before(code, r);
    if (!word.empty() && idx.class_names.count(std::string(word)) != 0) {
      return std::string(word);
    }
  }
}

Index build_index(const Tree& tree) {
  Index idx;
  idx.tree = &tree;
  const std::size_t nfiles = tree.files.size();
  std::vector<std::string> pps(nfiles);
  for (std::size_t fi = 0; fi < nfiles; ++fi) {
    pps[fi] = blank_preprocessor(tree.files[fi].code);
    collect_class_regions(tree, static_cast<int>(fi), pps[fi], idx.classes);
  }
  for (const ClassRegion& region : idx.classes) {
    idx.class_names.insert(region.name);
  }
  // Fields: innermost region owns a declaration, so scan small regions last
  // and let exact (cls, name) duplicates from the enclosing region stand —
  // find_field prefers the first hit with a class hint, and nested regions
  // have distinct names in practice.
  for (const ClassRegion& region : idx.classes) {
    collect_fields(tree.files[static_cast<std::size_t>(region.file)],
                   pps[static_cast<std::size_t>(region.file)], region,
                   idx.fields);
  }
  // Drop fields whose offsets fall inside a *smaller* nested region of a
  // different class: the nested scan already records them under the right
  // class, keep only the innermost attribution.
  {
    std::vector<FieldDecl> keep;
    for (const FieldDecl& f : idx.fields) {
      bool inner_owns = false;
      for (const ClassRegion& region : idx.classes) {
        if (region.file != f.file || region.name == f.cls) continue;
        if (f.pos > region.body_begin && f.pos < region.body_end) {
          // Is the nested region itself inside the recorded class? Then the
          // nested class is the true owner.
          for (const ClassRegion& outer : idx.classes) {
            if (outer.file == f.file && outer.name == f.cls &&
                region.body_begin > outer.body_begin &&
                region.body_end < outer.body_end) {
              inner_owns = true;
            }
          }
        }
      }
      if (!inner_owns) keep.push_back(f);
    }
    idx.fields = std::move(keep);
  }
  collect_capabilities(tree, idx);
  for (std::size_t fi = 0; fi < nfiles; ++fi) {
    collect_functions(tree, static_cast<int>(fi), pps[fi], idx.funcs);
  }
  for (std::size_t i = 0; i < idx.funcs.size(); ++i) {
    FunctionDef& fn = idx.funcs[i];
    if (fn.qual.empty()) {
      // Inline method: adopt the innermost class region containing the name.
      const ClassRegion* best = nullptr;
      for (const ClassRegion& region : idx.classes) {
        if (region.file != fn.file || fn.name_pos <= region.body_begin ||
            fn.name_pos >= region.body_end) {
          continue;
        }
        if (best == nullptr ||
            region.body_end - region.body_begin <
                best->body_end - best->body_begin) {
          best = &region;
        }
      }
      fn.qual = best != nullptr ? best->name + "::" + fn.name : fn.name;
    }
    idx.by_name[fn.name].push_back(static_cast<int>(i));
    idx.by_qual[fn.qual].push_back(static_cast<int>(i));
  }
  // Member-variable types, kept only when unambiguous tree-wide.
  {
    std::map<std::string, std::string> types;
    std::set<std::string> ambiguous;
    for (const FieldDecl& f : idx.fields) {
      const std::string cls = type_class(idx, f.type);
      if (cls.empty()) continue;
      const auto [it, inserted] = types.emplace(f.name, cls);
      if (!inserted && it->second != cls) ambiguous.insert(f.name);
    }
    for (const std::string& name : ambiguous) types.erase(name);
    idx.member_types = std::move(types);
  }
  // Merge declaration-site REQUIRES facts (headers) into the definitions;
  // collect_acquisitions canonicalizes them through capability aliases.
  {
    std::map<std::string, std::set<std::string>> decl_req;
    collect_decl_requires(tree, idx, decl_req);
    for (FunctionDef& fn : idx.funcs) {
      auto it = decl_req.find(fn.qual);
      if (it == decl_req.end() && fn.qual == fn.name) {
        it = decl_req.find(fn.name);
      }
      if (it == decl_req.end()) continue;
      for (const std::string& base : it->second) {
        if (std::find(fn.requires_locks.begin(), fn.requires_locks.end(),
                      base) == fn.requires_locks.end()) {
          fn.requires_locks.push_back(base);
        }
      }
    }
  }
  for (FunctionDef& fn : idx.funcs) {
    collect_acquisitions(idx, fn, tree.files[static_cast<std::size_t>(fn.file)]);
  }
  for (std::size_t i = 0; i < idx.funcs.size(); ++i) {
    const auto file = static_cast<std::size_t>(idx.funcs[i].file);
    collect_calls(idx, static_cast<int>(i), tree.files[file], pps[file],
                  idx.calls);
  }
  return idx;
}

const Index& pass_index(const Tree& tree, const Options& opts,
                        std::optional<Index>& local) {
  return opts.index != nullptr ? *opts.index : local.emplace(build_index(tree));
}

std::set<std::string> held_at(const Index& idx,
                              const std::vector<std::set<std::string>>& entry,
                              int fi, std::size_t pos) {
  std::set<std::string> held;
  if (fi < 0 || static_cast<std::size_t>(fi) >= idx.funcs.size()) return held;
  if (static_cast<std::size_t>(fi) < entry.size()) {
    held = entry[static_cast<std::size_t>(fi)];
  }
  for (const LockAcq& acq : idx.funcs[static_cast<std::size_t>(fi)].acquisitions) {
    if (acq.pos <= pos && pos < acq.end) held.insert(acq.base);
  }
  return held;
}

std::vector<std::set<std::string>> propagate_entry_locks(const Index& idx) {
  std::vector<std::set<std::string>> entry(idx.funcs.size());
  for (std::size_t i = 0; i < idx.funcs.size(); ++i) {
    entry[i].insert(idx.funcs[i].requires_locks.begin(),
                    idx.funcs[i].requires_locks.end());
  }
  bool changed = true;
  for (int iter = 0; changed && iter < 32; ++iter) {
    changed = false;
    for (const CallSite& call : idx.calls) {
      if (call.callee < 0) continue;
      const std::set<std::string> held =
          held_at(idx, entry, call.caller, call.pos);
      auto& dst = entry[static_cast<std::size_t>(call.callee)];
      for (const std::string& lock : held) {
        if (dst.insert(lock).second) changed = true;
      }
    }
  }
  return entry;
}

std::vector<WriteSite> collect_writes(const SourceFile& f, std::size_t begin,
                                      std::size_t end) {
  const std::string_view code = f.code;
  end = std::min(end, code.size());
  std::vector<WriteSite> out;

  auto is_decl_context = [&](std::size_t chain_begin) {
    // `auto& x = ...`, `int x = ...`, `std::vector<int> v = ...` declare, they
    // don't mutate; so does a comma list. A write statement starts after
    // ';', '{', '}', ')' (if/for headers), ':' (case labels) or an operator.
    const std::size_t t = skip_ws_back(code, chain_begin);
    if (t == 0) return false;
    const char c = code[t - 1];
    return ident_char(c) || c == '&' || c == '*' || c == '>' || c == ',';
  };
  auto push_site = [&](std::size_t field_end, const std::string& op) {
    std::vector<std::string> chain;
    const std::size_t start = parse_chain_back(code, field_end, chain);
    if (start == std::string_view::npos || chain.empty()) return;
    if (is_decl_context(start)) return;
    WriteSite site;
    site.pos = field_end - chain.back().size();
    site.chain = std::move(chain);
    site.op = op;
    out.push_back(std::move(site));
  };

  for (std::size_t p = begin; p < end; ++p) {
    const char c = code[p];
    if (c == '=') {
      if (p + 1 < end && code[p + 1] == '=') {
        ++p;
        continue;
      }
      const char prev = p > 0 ? code[p - 1] : ' ';
      if (prev == '=' || prev == '!' || prev == '<' || prev == '>') continue;
      std::size_t field_end;
      std::string op;
      if (prev == '+' || prev == '-' || prev == '*' || prev == '/' ||
          prev == '%' || prev == '&' || prev == '|' || prev == '^') {
        field_end = skip_ws_back(code, p - 1);
        op = std::string(1, prev) + "=";
      } else {
        field_end = skip_ws_back(code, p);
        op = "=";
      }
      // Skip index groups so `c.sent[i] = v` writes `sent`.
      while (field_end > 0 && code[field_end - 1] == ']') {
        const std::size_t open = matching_bracket_back(code, field_end - 1);
        if (open == std::string_view::npos) break;
        field_end = skip_ws_back(code, open);
      }
      push_site(field_end, op);
      continue;
    }
    if ((c == '+' && p + 1 < end && code[p + 1] == '+') ||
        (c == '-' && p + 1 < end && code[p + 1] == '-')) {
      const std::string op(2, c);
      const std::size_t after = skip_ws(code, p + 2);
      const bool prefix = !(p > 0 && (ident_char(code[p - 1]) ||
                                      code[p - 1] == ')' || code[p - 1] == ']'));
      if (prefix) {
        // ++rx.expected — walk the chain forward.
        std::size_t q = after;
        std::size_t last_end = std::string_view::npos;
        while (q < end && ident_char(code[q])) {
          std::size_t e2 = q;
          while (e2 < end && ident_char(code[e2])) ++e2;
          last_end = e2;
          if (e2 < end && code[e2] == '.') {
            q = e2 + 1;
          } else if (e2 + 1 < end && code[e2] == '-' && code[e2 + 1] == '>') {
            q = e2 + 2;
          } else {
            break;
          }
        }
        if (last_end != std::string_view::npos) push_site(last_end, op);
      } else {
        std::size_t field_end = skip_ws_back(code, p);
        while (field_end > 0 && code[field_end - 1] == ']') {
          const std::size_t open = matching_bracket_back(code, field_end - 1);
          if (open == std::string_view::npos) break;
          field_end = skip_ws_back(code, open);
        }
        if (field_end > 0 && ident_char(code[field_end - 1])) {
          push_site(field_end, op);
        }
      }
      ++p;
      continue;
    }
  }

  // Mutating container-member calls: the receiver's last component is the
  // written field.
  static constexpr const char* kMutators[] = {
      "emplace", "emplace_back", "push_back", "pop_back",  "insert",
      "erase",   "clear",        "resize",    "push_front", "pop_front",
      "assign"};
  for (const char* m : kMutators) {
    std::size_t from = begin;
    while (true) {
      const std::size_t pos = find_member_call(code, m, from);
      if (pos == std::string_view::npos || pos >= end) break;
      from = pos + 1;
      std::size_t r = pos - 1;  // '.' or '->'
      if (code[r] == '>') --r;
      push_site(skip_ws_back(code, r), m);
    }
  }

  std::sort(out.begin(), out.end(),
            [](const WriteSite& a, const WriteSite& b) { return a.pos < b.pos; });
  return out;
}

namespace {

/// Class owning the receiver of an atomic op: `x.load()` resolves `x`'s
/// declared type; a bare `field.load()` belongs to the enclosing method's
/// class. Unresolvable receivers (locals of unknown type) get "".
std::string atomic_receiver_class(const Index& idx, const SourceFile& f,
                                  int file,
                                  const std::vector<std::string>& chain,
                                  std::size_t pos) {
  const int efn = idx.enclosing(file, pos);
  const auto enclosing_cls = [&]() -> std::string {
    if (efn < 0) return "";
    const std::string& qual = idx.funcs[static_cast<std::size_t>(efn)].qual;
    const std::size_t sep = qual.rfind("::");
    if (sep == std::string::npos) return "";
    const std::string scope = qual.substr(0, sep);
    const std::size_t sep2 = scope.rfind("::");
    return sep2 == std::string::npos ? scope : scope.substr(sep2 + 2);
  };
  if (chain.size() >= 2) {
    const std::string& comp = chain[chain.size() - 2];
    if (comp == "this") return enclosing_cls();
    const FunctionDef* fn = efn < 0 ? nullptr : &idx.funcs[static_cast<std::size_t>(efn)];
    return receiver_class(idx, f, fn, comp, pos);
  }
  return enclosing_cls();
}

}  // namespace

std::vector<AtomicDecl> collect_atomic_decls(const Index& idx) {
  std::vector<AtomicDecl> out;
  const Tree& tree = *idx.tree;
  for (std::size_t fi = 0; fi < tree.files.size(); ++fi) {
    const SourceFile& f = tree.files[fi];
    const std::string pp = blank_preprocessor(f.code);
    std::size_t from = 0;
    while (true) {
      const std::size_t pos = find_ident(pp, "atomic", from, true, false);
      if (pos == std::string::npos) break;
      from = pos + 1;
      std::size_t p = skip_ws(pp, pos + 6);
      if (p >= pp.size() || pp[p] != '<') continue;
      // Matching '>' of the template argument list.
      int depth = 0;
      std::size_t q = p;
      for (; q < pp.size(); ++q) {
        if (pp[q] == '<') {
          ++depth;
        } else if (pp[q] == '>') {
          if (--depth == 0) break;
        } else if (pp[q] == ';') {
          break;  // runaway: a stray comparison, not a template
        }
      }
      if (q >= pp.size() || pp[q] != '>') continue;
      p = skip_ws(pp, q + 1);
      // References / pointers to atomics alias a declaration elsewhere.
      if (p < pp.size() && (pp[p] == '&' || pp[p] == '*')) continue;
      const std::size_t name_begin = p;
      while (p < pp.size() && ident_char(pp[p])) ++p;
      if (p == name_begin ||
          std::isdigit(static_cast<unsigned char>(pp[name_begin]))) {
        continue;
      }
      const std::size_t after = skip_ws(pp, p);
      if (after < pp.size() && pp[after] == '(') continue;  // function decl
      AtomicDecl d;
      d.name = pp.substr(name_begin, p - name_begin);
      d.file = static_cast<int>(fi);
      d.pos = name_begin;
      d.line = line_of(pp, name_begin);
      const ClassRegion* owner = nullptr;
      for (const ClassRegion& region : idx.classes) {
        if (region.file != static_cast<int>(fi) ||
            name_begin <= region.body_begin || name_begin >= region.body_end) {
          continue;
        }
        if (owner == nullptr || region.body_end - region.body_begin <
                                    owner->body_end - owner->body_begin) {
          owner = &region;
        }
      }
      if (owner != nullptr) d.cls = owner->name;
      const std::size_t semi = pp.find(';', name_begin);
      const std::string_view stmt =
          std::string_view(pp).substr(name_begin,
                                      (semi == std::string::npos ? pp.size()
                                                                 : semi) -
                                          name_begin);
      d.annotated = stmt.find("PREMA_GUARDED_BY") != std::string_view::npos ||
                    stmt.find("PREMA_PT_GUARDED_BY") != std::string_view::npos;
      out.push_back(std::move(d));
    }
  }
  return out;
}

std::vector<AtomicOp> collect_atomic_ops(const Index& idx,
                                         const std::set<std::string>& names) {
  static constexpr const char* kCalls[] = {
      "load",      "store",     "exchange", "compare_exchange_weak",
      "compare_exchange_strong", "fetch_add", "fetch_sub", "fetch_and",
      "fetch_or",  "fetch_xor"};
  std::vector<AtomicOp> out;
  const Tree& tree = *idx.tree;
  for (std::size_t fi = 0; fi < tree.files.size(); ++fi) {
    const SourceFile& f = tree.files[fi];
    const std::string_view code = f.code;
    for (const char* call : kCalls) {
      const std::string_view callee = call;
      std::size_t from = 0;
      while (true) {
        const std::size_t pos = find_member_call(code, callee, from);
        if (pos == std::string_view::npos) break;
        from = pos + 1;
        std::size_t r = pos - 1;  // '.' or the '>' of '->'
        if (code[r] == '>') --r;
        std::vector<std::string> chain;
        if (parse_chain_back(code, skip_ws_back(code, r), chain) ==
                std::string_view::npos ||
            chain.empty() || names.count(chain.back()) == 0) {
          continue;
        }
        const std::size_t open = skip_ws(code, pos + callee.size());
        if (open >= code.size() || code[open] != '(') continue;
        const std::size_t close = matching_paren(code, open);
        if (close == std::string_view::npos) continue;
        AtomicOp op;
        op.field = chain.back();
        op.op = std::string(callee);
        op.file = static_cast<int>(fi);
        op.pos = pos;
        const auto args = split_args(code.substr(open + 1, close - open - 1));
        op.args = static_cast<int>(args.size());
        for (const std::string& a : args) {
          std::size_t mp = 0;
          while ((mp = a.find("memory_order", mp)) != std::string::npos) {
            std::size_t s = mp + 12;
            if (s < a.size() && a[s] == '_') {
              ++s;
            } else if (s + 1 < a.size() && a[s] == ':' && a[s + 1] == ':') {
              s += 2;
            } else {
              mp = s;
              continue;
            }
            std::size_t e = s;
            while (e < a.size() && ident_char(a[e])) ++e;
            if (e > s) op.orders.push_back(a.substr(s, e - s));
            mp = e;
          }
        }
        op.cls =
            atomic_receiver_class(idx, f, static_cast<int>(fi), chain, pos);
        out.push_back(std::move(op));
      }
    }
    // Operator forms (`flag = true`, `++counter`, `counter += n`) route
    // through the overloaded atomic operators — all implicitly seq_cst.
    for (const WriteSite& site : collect_writes(f, 0, code.size())) {
      if (names.count(site.chain.back()) == 0) continue;
      const bool atomic_form =
          site.op == "=" || site.op == "++" || site.op == "--" ||
          (site.op.size() == 2 && site.op[1] == '=');
      if (!atomic_form) continue;
      AtomicOp op;
      op.field = site.chain.back();
      op.op = site.op;
      op.file = static_cast<int>(fi);
      op.pos = site.pos;
      op.cls = atomic_receiver_class(idx, f, static_cast<int>(fi), site.chain,
                                     site.pos);
      out.push_back(std::move(op));
    }
  }
  std::sort(out.begin(), out.end(), [](const AtomicOp& a, const AtomicOp& b) {
    return a.file != b.file ? a.file < b.file : a.pos < b.pos;
  });
  return out;
}

}  // namespace prema::analyze
