// prema_analyze — multi-pass semantic static analyzer for the PREMA runtime.
//
//   prema_analyze <src-root> [--hierarchy F] [--design F] [--protocols DIR]
//                            [--atomics F] [--sarif OUT] [--pass NAME]...
//                            [--timings]
//   prema_analyze --list-passes
//   prema_analyze --self-test
//
// Scans the tree rooted at <src-root> with all eight passes (see passes.hpp;
// --list-passes names them), one after another on one thread, and reports
// every finding. `--pass NAME` (repeatable) restricts the run to the named
// passes so CI and local runs can bisect a regression. `--timings` prints
// per-pass host time to stderr. Exit 0 when there are no findings, 1 when
// there are, 2 on usage/IO errors.
//
// Defaults, resolved relative to <src-root>'s parent (the repo root when
// scanning src/): tools/analyze/lock_hierarchy.txt, DESIGN.md,
// tools/analyze/atomics.txt and tools/analyze/protocols/. A missing *default*
// file just disables the dependent checks; an explicitly given path must
// exist.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analyze/report.hpp"

namespace {

namespace fs = std::filesystem;
using namespace prema::analyze;

std::optional<std::string> read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

int usage() {
  std::fprintf(stderr,
               "usage: prema_analyze <src-root> [--hierarchy F] [--design F]\n"
               "                     [--protocols DIR] [--atomics F] "
               "[--sarif OUT]\n"
               "                     [--pass NAME]... [--timings]\n"
               "       prema_analyze --list-passes\n"
               "       prema_analyze --self-test\n");
  return 2;
}

/// Load every protocols/*.txt (sorted) as (stem, contents) pairs.
bool load_protocol_specs(const fs::path& dir, bool required, Options& opts) {
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    if (!required) return true;
    std::fprintf(stderr, "prema_analyze: %s is not a directory\n",
                 dir.string().c_str());
    return false;
  }
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file() && entry.path().extension() == ".txt") {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  for (const fs::path& p : files) {
    const auto text = read_file(p);
    if (!text) {
      std::fprintf(stderr, "prema_analyze: cannot read %s\n", p.string().c_str());
      return false;
    }
    opts.protocol_specs.emplace_back(p.stem().string(), *text);
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::string(argv[1]) == "--self-test") return run_self_test();
  if (argc == 2 && std::string(argv[1]) == "--list-passes") {
    for (const PassInfo& p : all_passes()) std::printf("%s\n", p.name);
    return 0;
  }
  if (argc < 2 || argv[1][0] == '-') return usage();

  // "src/" and "src" name the same tree: drop trailing separators so the
  // defaults below resolve against the same parent either way.
  std::string root_arg = argv[1];
  while (root_arg.size() > 1 && root_arg.back() == '/') root_arg.pop_back();
  const fs::path root = root_arg;
  std::string hierarchy_path;
  std::string design_path;
  std::string protocols_path;
  std::string atomics_path;
  std::string sarif_out;
  std::set<std::string> selected;
  bool timings = false;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--timings") {
      timings = true;
      continue;
    }
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    if (flag == "--hierarchy") {
      hierarchy_path = value;
    } else if (flag == "--design") {
      design_path = value;
    } else if (flag == "--protocols") {
      protocols_path = value;
    } else if (flag == "--atomics") {
      atomics_path = value;
    } else if (flag == "--sarif") {
      sarif_out = value;
    } else if (flag == "--pass") {
      selected.insert(value);
    } else {
      return usage();
    }
  }

  for (const std::string& name : selected) {
    const auto& passes = all_passes();
    const bool known = std::any_of(
        passes.begin(), passes.end(),
        [&](const PassInfo& p) { return name == p.name; });
    if (!known) {
      std::fprintf(stderr,
                   "prema_analyze: unknown pass '%s' (see --list-passes)\n",
                   name.c_str());
      return 2;
    }
  }

  Tree tree;
  if (!load_tree(root.string(), tree)) {
    std::fprintf(stderr, "prema_analyze: %s is not a directory\n",
                 root.string().c_str());
    return 2;
  }

  // Resolve inputs: explicit paths are required to exist, defaults are
  // optional (an absent default simply disables the dependent checks).
  const fs::path repo = root.parent_path();
  auto resolve = [&](const std::string& given, const fs::path& fallback,
                     std::string& out_text) -> bool {
    const fs::path path = given.empty() ? fallback : fs::path(given);
    const auto text = read_file(path);
    if (!text && !given.empty()) {
      std::fprintf(stderr, "prema_analyze: cannot read %s\n", path.string().c_str());
      return false;
    }
    if (text) out_text = *text;
    return true;
  };

  Options opts;
  if (!resolve(hierarchy_path, repo / "tools" / "analyze" / "lock_hierarchy.txt",
               opts.hierarchy_text) ||
      !resolve(design_path, repo / "DESIGN.md", opts.design_text) ||
      !resolve(atomics_path, repo / "tools" / "analyze" / "atomics.txt",
               opts.atomics_text)) {
    return 2;
  }
  if (!load_protocol_specs(protocols_path.empty()
                               ? repo / "tools" / "analyze" / "protocols"
                               : fs::path(protocols_path),
                           !protocols_path.empty(), opts)) {
    return 2;
  }

  Findings all;
  PassTimings times;
  run_all_passes(tree, opts, all, selected, &times);
  if (timings) {
    double total_ms = times.index_ms;
    for (const auto& [name, ms] : times.pass_ms) {
      std::fprintf(stderr, "prema_analyze: pass %-17s %8.1f ms\n", name, ms);
      total_ms += ms;
    }
    std::fprintf(stderr, "prema_analyze: index %.1f ms, total %.1f ms\n",
                 times.index_ms, total_ms);
  }

  if (!sarif_out.empty()) {
    std::ofstream out(sarif_out, std::ios::binary);
    out << render_sarif(all);
    if (!out) {
      std::fprintf(stderr, "prema_analyze: cannot write %s\n", sarif_out.c_str());
      return 2;
    }
  }

  for (const Finding& f : all) {
    std::fprintf(stderr, "%s:%d: [%s] %s\n", f.file.c_str(), f.line,
                 f.rule.c_str(), f.message.c_str());
  }
  if (!all.empty()) {
    std::fprintf(stderr, "prema_analyze: %zu finding(s) in %zu file(s) scanned\n",
                 all.size(), tree.files.size());
    return 1;
  }
  std::printf("prema_analyze: OK (%zu files scanned, %zu passes)\n",
              tree.files.size(), times.pass_ms.size());
  return 0;
}
