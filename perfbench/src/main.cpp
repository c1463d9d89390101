// perfbench — the repository benchmark's driver binary.
//
//   perfbench --workload <pipeline|threaded|recovery> --seed <n>
//             --seconds <s> --trace <0|1> --scratch <dir> [--trace-out <file>]
//
// Prints progress lines starting with "# " and, as its last line, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. A plain run
// (--trace 0) reports every end-to-end metric; a traced run (--trace 1)
// every per-layer metric. The scratch directory holds the run's WALs and is
// removed before the program exits, on failure too. Exit code 0 on a
// completed run (correct or not), 2 on a usage error, 1 on any other error.
#include <cmath>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>

#include "common.h"
#include "workloads.h"

namespace {

using namespace perfbench;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload <pipeline|threaded|recovery> --seed <n>"
               " --seconds <s> --trace <0|1> --scratch <dir> [--trace-out <file>]\n";
  std::exit(2);
}

RunOptions parse(int argc, char** argv) {
  RunOptions options;
  bool have_scratch = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        options.trace = value == "1";
      } else if (flag == "--scratch") {
        options.scratch = value;
        have_scratch = true;
      } else if (flag == "--trace-out") {
        options.trace_out = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (options.workload.empty()) usage("--workload is required");
  if (!have_scratch) usage("--scratch is required");
  if (!(options.seconds > 0.0)) usage("--seconds must be positive");
  return options;
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string result_line(const RunResult& result, const std::vector<MetricDef>& defs) {
  std::ostringstream out;
  out << std::setprecision(17);
  out << "{\"correct\": " << (result.correct ? "true" : "false")
      << ", \"attempted\": " << result.attempted << ", \"failed\": " << result.failed
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& def : defs) {
    const auto it = result.metrics.find(def.name);
    if (it == result.metrics.end() || !std::isfinite(it->second)) {
      throw std::runtime_error(std::string("metric ") + def.name + " was not measured");
    }
    out << (first ? "" : ", ") << json_string(def.name) << ": {\"value\": " << it->second
        << ", \"unit\": " << json_string(def.unit) << "}";
    first = false;
  }
  out << "}}";
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  const RunOptions options = parse(argc, argv);
  RunResult (*run)(const RunOptions&) = nullptr;
  if (options.workload == "pipeline") {
    run = run_pipeline;
  } else if (options.workload == "threaded") {
    run = run_threaded;
  } else if (options.workload == "recovery") {
    run = run_recovery;
  } else {
    usage("unknown workload " + options.workload);
  }
  try {
    std::string line;
    {
      ScratchDir scratch(options.scratch);
      const RunResult result = run(options);
      line = result_line(result, options.trace ? per_layer_metrics() : end_to_end_metrics());
      for (const auto& def : options.trace ? per_layer_metrics() : end_to_end_metrics()) {
        note() << std::left << std::setw(34) << def.name << std::setprecision(6)
               << result.metrics.at(def.name) << " " << def.unit << "\n";
      }
    }
    std::cout << line << std::endl;
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << options.workload << ": " << error.what() << "\n";
    return 1;
  }
}
