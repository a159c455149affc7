#ifndef PERFBENCH_WORKLOADS_HARNESS_H_
#define PERFBENCH_WORKLOADS_HARNESS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "base/status.h"
#include "lib/metrics.h"
#include "lib/proc.h"
#include "lib/samples.h"
#include "lib/trace.h"
#include "stats/stats.h"

namespace perfbench {

/// Command-line settings shared by every workload.
struct RunConfig {
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory for the workload's databases (main creates it and
  /// removes it after the run).
  std::string data_dir;
  /// Where the traced run writes its spans.
  std::string out_dir;
  /// Timed set-ups per untraced run; setup_s is their median.
  int setups = 3;
};

/// Throws on a failed engine call during set-up or teardown (an error
/// there is a broken run, not a failed operation).
void Check(const dominodb::Status& status, const std::string& what);

/// Collects failed correctness checks from any thread.
class Checker {
 public:
  void Fail(const std::string& message);
  bool ok() const;
  /// Prints the first few failures to stderr.
  void Print() const;

 private:
  mutable std::mutex mu_;
  uint64_t failures_ = 0;
  std::vector<std::string> first_;
};

/// What one closed-loop step did. The step opens its operation's root
/// span ("op.<class>", root = true) itself, once it has chosen the class.
/// `us` is the operation's latency; a step that also timed a read inside a
/// larger operation (read-modify-write) passes it as `read_us`, which
/// feeds the read class without counting as an operation.
struct OpOutcome {
  int op_class = 0;
  double us = 0;
  bool ok = true;
  double read_us = -1;
};

struct LoopConfig {
  int clients = 1;
  double warmup_seconds = 1;
  double seconds = 10;
  /// Alternate untraced and traced slices (for trace.overhead_share)
  /// instead of one untraced window.
  bool trace = false;
  std::vector<std::string> class_names;
  /// Class that receives OpOutcome::read_us (-1: none).
  int read_class = -1;
  /// Gauges whose maximum over the measured window is reported.
  std::vector<const dominodb::stats::Gauge*> watched_gauges;
  /// Called on the controller thread as the measured window opens and
  /// after the clients have stopped.
  std::function<void()> on_measure_start;
  std::function<void()> on_measure_end;
  /// Called on the controller thread about once a second while the
  /// measured window is open.
  std::function<void()> on_tick;
};

struct LoopResult {
  /// Latency samples of untraced operations, per class.
  std::vector<std::vector<double>> samples_us;
  /// Untraced operations, all classes together, as (seconds since the
  /// measured window opened, latency in microseconds). A read timed
  /// inside a larger operation is not among them.
  std::vector<std::pair<double, double>> ops;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t untraced_ops = 0;
  double untraced_seconds = 0;
  uint64_t traced_ops = 0;
  double traced_seconds = 0;
  std::vector<double> gauge_max;
  /// Spans recorded during traced slices.
  std::vector<SpanRecord> spans;

  double untraced_ops_per_s() const;
};

/// Runs `clients` threads, each calling `step(client)` back to back
/// (closed loop) through a warm-up and the measured window.
LoopResult RunClosedLoop(const LoopConfig& config,
                         const std::function<OpOutcome(int client)>& step);

/// Times `fn` and returns microseconds, wrapping it in a child span.
double TimeCall(const char* span_name, const std::function<void()>& fn);

/// Calls `setup` `setups` times, destroying each fixture before the next
/// set-up starts, and stores the median set-up time. Returns the last
/// fixture.
template <typename Fixture>
std::unique_ptr<Fixture> TimedSetups(
    int setups, const std::function<std::unique_ptr<Fixture>()>& setup,
    double* setup_seconds) {
  std::vector<double> times;
  std::unique_ptr<Fixture> fixture;
  for (int i = 0; i < setups; ++i) {
    fixture.reset();
    double start = NowSeconds();
    fixture = setup();
    times.push_back(NowSeconds() - start);
  }
  *setup_seconds = Median(times);
  return fixture;
}

/// Writes the traced run's spans to `<out_dir>/trace-<workload>.jsonl`.
void WriteSpans(const RunConfig& config, const std::string& workload,
                const std::vector<SpanRecord>& spans);

/// Everything the per-layer metrics are computed from.
struct LayerInputs {
  dominodb::stats::StatSnapshot diff;  // counters over the measured window
  const LoopResult* loop = nullptr;
  uint64_t writes = 0;  // user writes in the measured window
  /// Workload-measured values (rows_returned_share, hits_per_query, ...).
  MetricValues extras;
};

/// The per-layer metric set; metrics of layers the run never entered
/// read 0. Also prints each layer's self time and each op class's
/// uncovered share.
MetricValues LayerMetrics(const LayerInputs& inputs);

/// End-to-end latency/throughput metrics of an untraced loop, plus a
/// printed per-class table with sample counts.
void LatencyMetrics(const LoopResult& loop, const LoopConfig& config,
                    MetricValues* metrics);

/// Snapshot diff of several registries merged into one.
dominodb::stats::StatSnapshot MergedDiff(
    const std::vector<dominodb::stats::StatSnapshot>& before,
    const std::vector<dominodb::stats::StatSnapshot>& after);

/// Prints one workload-shape guard line.
void Guard(const std::string& name, double value, bool ok,
           const std::string& rule);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_HARNESS_H_
