// perfbench: the repository benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Runs one workload for about `seconds` of wall time on inputs made from
// `seed` and prints, as its last line, one JSON object: whether every
// operation's output check passed, operations attempted and failed, and
// every end-to-end metric (trace 0) or every per-layer metric (trace 1).
// perfbench/run.py builds this binary and is the command to use.
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "metrics.hpp"
#include "workloads.hpp"

namespace {

int usage() {
  std::cerr << "usage: perfbench --workload "
               "<sparse_pool_churn|hotspot_sharded|oneshot_cdn_tree> "
               "--seed <n> --seconds <s> --trace <0|1>\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  perfbench::RunOptions options;
  bool haveSeed = false, haveSeconds = false, haveTrace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
        haveSeed = true;
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
        haveSeconds = options.seconds > 0;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage();
        options.trace = value == "1";
        haveTrace = true;
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (argc % 2 != 1 || !haveSeed || !haveSeconds || !haveTrace) {
    return usage();
  }

  try {
    perfbench::RunResult result;
    if (workload == "sparse_pool_churn") {
      result = perfbench::runSparsePoolChurn(options);
    } else if (workload == "hotspot_sharded") {
      result = perfbench::runHotspotSharded(options);
    } else if (workload == "oneshot_cdn_tree") {
      result = perfbench::runOneshotCdnTree(options);
    } else {
      return usage();
    }
    const auto specs = options.trace ? perfbench::perLayerMetrics()
                                     : perfbench::endToEndMetrics();
    std::cout << perfbench::resultJson(result, specs, !options.trace)
              << std::endl;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
