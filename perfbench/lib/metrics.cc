#include "lib/metrics.h"

#include <cmath>
#include <cstdio>

namespace perfbench {

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> kMetrics = {
      {"setup_s", "s"},
      {"ops_per_s", "1/s"},
      {"rss_mb", "MB"},
      {"space_amp", "ratio"},
  };
  return kMetrics;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> kMetrics = {
      {"core.readtxn_us", "us"},
      {"core.mvcc.live_versions_max", "count"},
      {"core.update_conflicts", "count"},
      {"security.rows_returned_share", "ratio"},
      {"view.traverse_us", "us"},
      {"view.evals_per_write", "count"},
      {"storage.read_us", "us"},
      {"storage.write_us", "us"},
      {"storage.commit_us_mean", "us"},
      {"storage.checkpoints", "count"},
      {"storage.compactions", "count"},
      {"storage.write_amp", "ratio"},
      {"pager.hit_ratio", "ratio"},
      {"pager.misses_per_op", "count"},
      {"pager.evictions", "count"},
      {"wal.records_per_sync", "count"},
      {"wal.sync_us_mean", "us"},
      {"wal.bytes_per_commit", "B"},
      {"indexer.busy_ms", "ms"},
      {"indexer.queue_depth_max", "count"},
      {"formula.evals_per_op", "count"},
      {"formula.cache_hit_ratio", "ratio"},
      {"fulltext.search_us", "us"},
      {"fulltext.hits_per_query", "count"},
      {"fulltext.bytes_per_doc", "B"},
      {"mail.submit_us", "us"},
      {"mail.router_pass_us", "us"},
      {"mail.retries", "count"},
      {"repl.pass_us", "us"},
      {"repl.bytes_per_doc", "B"},
      {"repl.conflicts", "count"},
      {"net.bytes_per_op", "B"},
      {"trace.overhead_share", "ratio"},
      {"trace.uncovered_share", "ratio"},
  };
  return kMetrics;
}

std::string ResultJson(const RunResult& result,
                       const std::vector<MetricDef>& declared,
                       std::string* error) {
  std::string metrics;
  for (const MetricDef& def : declared) {
    auto it = result.metrics.find(def.name);
    if (it == result.metrics.end()) {
      *error = std::string("metric not measured: ") + def.name;
      return "";
    }
    if (!std::isfinite(it->second)) {
      *error = std::string("metric is not a finite number: ") + def.name;
      return "";
    }
    char entry[256];
    std::snprintf(entry, sizeof(entry),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", def.name, it->second,
                  def.unit);
    metrics += entry;
  }
  char head[160];
  std::snprintf(head, sizeof(head),
                "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, ",
                result.correct ? "true" : "false",
                static_cast<unsigned long long>(result.attempted),
                static_cast<unsigned long long>(result.failed));
  return std::string(head) + "\"metrics\": {" + metrics + "}}";
}

}  // namespace perfbench
