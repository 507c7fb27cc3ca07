// ednsm_lint CLI: run the project-invariant static analyzer over source
// roots (default: src tools bench, resolved against the current directory)
// and exit nonzero when any unsuppressed violation remains. An inline
// `// ednsm-lint: allow(rule) — reason` comment is the one way to accept a
// finding.
//
//   ednsm_lint                          # lint src/, tools/, bench/ under $PWD
//   ednsm_lint path/to/src ...          # explicit roots (files or directories)
//   ednsm_lint --list-rules             # print the rule table and exit
//   ednsm_lint --layers FILE            # module DAG config (default:
//                                       #   tools/lint/layers.conf if present)
//   ednsm_lint --no-layers              # disable the default layers config
//   ednsm_lint --json                   # machine-readable report on stdout
//   ednsm_lint --json-out FILE          # write the JSON report to FILE too
//
// Exit codes: 0 clean, 1 findings, 2 usage/config.
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "lint/lint.h"

namespace {

int usage() {
  std::cerr << "usage: ednsm_lint [--list-rules] [--json] [--json-out FILE]\n"
               "                  [--layers FILE | --no-layers] [root...]\n"
               "Roots may be directories (scanned recursively for .h/.hpp/.cc/.cpp)\n"
               "or single files; default roots are src, tools, and bench.\n";
  return 2;
}

bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = std::move(buf).str();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> roots;
  std::string layers_path;
  std::string json_out_path;
  bool json_stdout = false;
  bool no_layers = false;

  auto need_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::cerr << "ednsm_lint: option '" << argv[i] << "' needs a value\n";
      return nullptr;
    }
    return argv[++i];
  };

  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--list-rules") {
      for (const ednsm::lint::RuleInfo& r : ednsm::lint::rules()) {
        std::cout << r.id << ": " << r.summary << "\n";
      }
      return 0;
    }
    if (arg == "--help" || arg == "-h") return usage();
    if (arg == "--json") {
      json_stdout = true;
      continue;
    }
    if (arg == "--no-layers") {
      no_layers = true;
      continue;
    }
    if (arg == "--layers" || arg == "--json-out") {
      const char* value = need_value(i);
      if (value == nullptr) return usage();
      if (arg == "--layers") layers_path = value;
      if (arg == "--json-out") json_out_path = value;
      continue;
    }
    if (arg[0] == '-') {
      std::cerr << "ednsm_lint: unknown option '" << arg << "'\n";
      return usage();
    }
    roots.emplace_back(arg);
  }
  if (roots.empty()) roots = {"src", "tools", "bench"};
  // Committed default, picked up when running from the repo root.
  if (layers_path.empty() && !no_layers &&
      std::filesystem::is_regular_file("tools/lint/layers.conf")) {
    layers_path = "tools/lint/layers.conf";
  }

  std::vector<ednsm::lint::SourceFile> files;
  for (const std::string& root : roots) {
    if (std::filesystem::is_regular_file(root)) {
      std::string content;
      if (!read_file(root, &content)) {
        std::cerr << "ednsm_lint: cannot read " << root << "\n";
        return 2;
      }
      files.push_back({root, std::move(content)});
    } else if (std::filesystem::is_directory(root)) {
      for (ednsm::lint::SourceFile& f : ednsm::lint::load_tree({root})) {
        files.push_back(std::move(f));
      }
    } else {
      std::cerr << "ednsm_lint: no such file or directory: " << root << "\n";
      return 2;
    }
  }
  if (files.empty()) {
    std::cerr << "ednsm_lint: no source files found under the given roots\n";
    return 2;
  }

  ednsm::lint::Options options;
  if (!layers_path.empty() && !read_file(layers_path, &options.layers_text)) {
    std::cerr << "ednsm_lint: cannot read layers config " << layers_path << "\n";
    return 2;
  }

  const std::vector<ednsm::lint::Diagnostic> diags = ednsm::lint::run_lint(files, options);

  const std::string report = ednsm::lint::format_json(diags);
  if (!json_out_path.empty()) {
    std::ofstream out(json_out_path, std::ios::binary);
    out << report;
    if (!out) {
      std::cerr << "ednsm_lint: cannot write " << json_out_path << "\n";
      return 2;
    }
  }
  if (json_stdout) {
    std::cout << report;
  } else {
    for (const ednsm::lint::Diagnostic& d : diags) {
      std::cout << ednsm::lint::format(d) << "\n";
    }
  }
  if (!diags.empty()) {
    if (!json_stdout) {
      std::cout << "ednsm_lint: " << diags.size() << " violation"
                << (diags.size() == 1 ? "" : "s") << " in " << files.size() << " files\n";
    }
    return 1;
  }
  if (!json_stdout) std::cout << "ednsm_lint: clean (" << files.size() << " files)\n";
  return 0;
}
