#ifndef PERFBENCH_LIB_METRICS_H_
#define PERFBENCH_LIB_METRICS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct MetricDef {
  const char* name;
  const char* unit;
};

/// The metrics an untraced run reports (BENCHMARK.json `end_to_end`):
/// the ones every workload measures steadily enough to gate on. The
/// report lines before the result carry the rest (latency percentiles,
/// reopen time).
const std::vector<MetricDef>& EndToEndMetrics();
/// The metrics a traced run reports (BENCHMARK.json `per_layer`). A layer
/// a workload never enters reports 0.
const std::vector<MetricDef>& PerLayerMetrics();

using MetricValues = std::map<std::string, double>;

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  MetricValues metrics;
};

/// The one-line JSON result. Reports exactly the `declared` metrics, each
/// with its unit; sets `*error` and returns "" if one is missing or not a
/// finite number.
std::string ResultJson(const RunResult& result,
                       const std::vector<MetricDef>& declared,
                       std::string* error);

}  // namespace perfbench

#endif  // PERFBENCH_LIB_METRICS_H_
