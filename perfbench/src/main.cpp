// perfbench — the benchmark binary.  run.py is its front end:
//
//   perfbench prepare --inputs DIR --seed N --workload W
//       writes the seeded inputs W needs (untimed, its own process so the
//       trainer's memory never shows in the workload's peak RSS)
//   perfbench run --inputs DIR --seed N --workload W --seconds S --trace 0|1
//                 --cli PATH --out DIR [--git-sha SHA]
//       runs W and prints info lines, then the result line; exits 1 when
//       any prediction mismatched its reference
//   perfbench metrics
//       prints the end-to-end and per-layer metric names, one per line
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>

#include "inputs.hpp"
#include "report.hpp"
#include "workloads.hpp"

namespace {

std::map<std::string, std::string> parse(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 2; i < argc; i += 2) {
    const std::string key = argv[i];
    if (!key.starts_with("--") || i + 1 >= argc) {
      throw std::invalid_argument("expected --key value, got '" + key + "'");
    }
    args[key.substr(2)] = argv[i + 1];
  }
  return args;
}

std::string require(const std::map<std::string, std::string>& args, const std::string& key) {
  const auto it = args.find(key);
  if (it == args.end()) throw std::invalid_argument("missing --" + key);
  return it->second;
}

std::string get(const std::map<std::string, std::string>& args, const std::string& key,
                const std::string& fallback) {
  const auto it = args.find(key);
  return it == args.end() ? fallback : it->second;
}

int run(int argc, char** argv) {
  const std::string command = argc > 1 ? argv[1] : "";
  if (command == "metrics") {
    for (const auto& s : perfbench::end_to_end_metrics()) {
      std::cout << "end_to_end " << s.name << ' ' << s.unit << '\n';
    }
    for (const auto& s : perfbench::per_layer_metrics()) {
      std::cout << "per_layer " << s.name << ' ' << s.unit << '\n';
    }
    return 0;
  }
  const auto args = parse(argc, argv);
  const std::string workload = require(args, "workload");
  const auto seed = std::stoull(require(args, "seed"));
  const std::string inputs = require(args, "inputs");
  if (command == "prepare") {
    const auto needs = perfbench::workload_inputs(workload);
    perfbench::prepare(inputs, needs.wide_model ? perfbench::kWideModel : perfbench::kDeepModel,
                       seed, needs.csv, std::thread::hardware_concurrency());
    return 0;
  }
  if (command == "run") {
    perfbench::RunOptions opt;
    opt.workload = workload;
    opt.seed = seed;
    opt.inputs_dir = inputs;
    opt.seconds = std::stod(require(args, "seconds"));
    opt.trace = require(args, "trace") == "1";
    opt.cli_path = require(args, "cli");
    opt.out_dir = require(args, "out");
    opt.git_sha = get(args, "git-sha", "unknown");
    if (!(opt.seconds > 0)) throw std::invalid_argument("--seconds must be positive");
    const auto result = perfbench::run_workload(opt);
    for (const auto& line : result.info) std::cout << line << '\n';
    std::cout << perfbench::result_line(
                     result.correct(), result.outcomes, result.metrics,
                     opt.trace ? perfbench::per_layer_metrics()
                               : perfbench::end_to_end_metrics())
              << std::endl;
    if (!result.correct()) {
      std::cerr << "perfbench: " << result.outcomes.mismatched
                << " responses did not match Forest::predict\n";
      return 1;
    }
    return 0;
  }
  throw std::invalid_argument("usage: perfbench prepare|run|metrics [--key value ...]");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 2;
  }
}
