// hvbench — the benchmark's measuring tool.  perfbench/run.py builds it
// next to the `hv` tool and calls one command per step:
//
//   hvbench study-setup --workdir W --domains N --pages N --seed N
//                       [--gzip] --threads N
//   hvbench study       (the same) --seconds S --trace 0|1
//                       [--corrupt-rate P]
//   hvbench serve-load  --workdir W --port N --seed N --connections N
//
// Each prints one JSON line: {"attempted", "failed", "metrics", "facts"}.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <map>
#include <string>

#include "serve_load.h"
#include "study.h"

namespace {

using Args = std::map<std::string, std::string>;

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 2; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) throw std::invalid_argument("unexpected " + key);
    key = key.substr(2);
    if (key == "gzip") {
      args[key] = "1";
    } else if (i + 1 < argc) {
      args[key] = argv[++i];
    } else {
      throw std::invalid_argument("--" + key + " needs a value");
    }
  }
  return args;
}

std::string need(const Args& args, const std::string& key) {
  const auto it = args.find(key);
  if (it == args.end()) throw std::invalid_argument("missing --" + key);
  return it->second;
}

std::string get(const Args& args, const std::string& key,
                const std::string& fallback) {
  const auto it = args.find(key);
  return it == args.end() ? fallback : it->second;
}

perfbench::StudyOptions study_options(const Args& args) {
  perfbench::StudyOptions options;
  options.workdir = need(args, "workdir");
  options.domains = std::stoul(need(args, "domains"));
  options.pages = std::stoi(need(args, "pages"));
  options.seed = std::stoull(need(args, "seed"));
  options.gzip = args.count("gzip") > 0;
  options.threads = std::stoi(need(args, "threads"));
  options.seconds = std::stod(get(args, "seconds", "0"));
  options.trace = get(args, "trace", "0") == "1";
  options.corrupt_rate = std::stod(get(args, "corrupt-rate", "0"));
  return options;
}

perfbench::ServeOptions serve_options(const Args& args) {
  perfbench::ServeOptions options;
  options.workdir = need(args, "workdir");
  options.port = std::stoi(need(args, "port"));
  options.seed = std::stoull(need(args, "seed"));
  options.connections = std::stoi(need(args, "connections"));
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: hvbench study-setup|study|serve-load "
                 "[--key value ...]\n";
    return 2;
  }
  const std::string command = argv[1];
  try {
    const Args args = parse_args(argc, argv);
    perfbench::Result result;
    if (command == "study-setup") {
      result = perfbench::study_setup(study_options(args));
    } else if (command == "study") {
      result = perfbench::study_run(study_options(args));
    } else if (command == "serve-load") {
      result = perfbench::serve_load(serve_options(args));
    } else {
      std::cerr << "hvbench: unknown command " << command << "\n";
      return 2;
    }
    std::cout << result.json() << std::endl;
  } catch (const std::exception& error) {
    std::cerr << "hvbench " << command << ": " << error.what() << "\n";
    return 2;
  }
  return 0;
}
