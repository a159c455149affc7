// perfbench: runs one named DominoDB workload from a seed and prints its
// metrics. The last line of stdout is the JSON result:
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
// With --trace 0 the metrics are the end-to-end set, with --trace 1 the
// per-layer set (see lib/metrics.cc and README.md).
//
// Usage: perfbench --workload readers|commits|groupware --seed N
//                  --seconds S --trace 0|1 --data-dir DIR --out-dir DIR

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>

#include "base/env.h"
#include "workloads/workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "readers|commits|groupware --seed N --seconds S --trace 0|1 "
               "--data-dir DIR --out-dir DIR\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
  if (argc % 2 != 1) return Usage("arguments come in --name value pairs");
  for (const char* required :
       {"--workload", "--seed", "--seconds", "--trace", "--data-dir",
        "--out-dir"}) {
    if (args.count(required) == 0) {
      return Usage((std::string("missing ") + required).c_str());
    }
  }
  const std::map<std::string, RunResult (*)(const RunConfig&)> workloads = {
      {"readers", RunReaders},
      {"commits", RunCommits},
      {"groupware", RunGroupware}};
  auto workload = workloads.find(args["--workload"]);
  if (workload == workloads.end()) return Usage("unknown workload");

  RunConfig config;
  config.seed = std::strtoull(args["--seed"].c_str(), nullptr, 10);
  config.seconds = std::strtod(args["--seconds"].c_str(), nullptr);
  config.trace = args["--trace"] == "1";
  config.data_dir = args["--data-dir"];
  config.out_dir = args["--out-dir"];
  if (config.seconds <= 0) return Usage("--seconds must be positive");
  if (config.trace) config.setups = 1;  // setup_s comes from untraced runs

  std::printf("workload %s seed %llu seconds %g trace %d\n",
              workload->first.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0);
  RunResult result;
  try {
    dominodb::Status made = dominodb::CreateDirIfMissing(config.data_dir);
    if (made.ok()) made = dominodb::CreateDirIfMissing(config.out_dir);
    Check(made, "create directories");
    result = workload->second(config);
    Check(dominodb::RemoveDirRecursively(config.data_dir), "remove data dir");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  for (const auto& [name, value] : result.metrics) {
    std::printf("metric %-30s %.6g\n", name.c_str(), value);
  }
  std::string error;
  const std::string json = ResultJson(
      result, config.trace ? PerLayerMetrics() : EndToEndMetrics(), &error);
  if (json.empty()) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 1;
  }
  std::fflush(stdout);
  std::printf("%s\n", json.c_str());
  return 0;
}
