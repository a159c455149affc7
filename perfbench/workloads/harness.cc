#include "workloads/harness.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <map>
#include <string_view>
#include <thread>

namespace perfbench {

using dominodb::stats::StatSnapshot;

void Check(const dominodb::Status& status, const std::string& what) {
  if (!status.ok()) {
    throw std::runtime_error(what + ": " + status.ToString());
  }
}

void Checker::Fail(const std::string& message) {
  std::lock_guard<std::mutex> lock(mu_);
  ++failures_;
  if (first_.size() < 10) first_.push_back(message);
}

bool Checker::ok() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failures_ == 0;
}

void Checker::Print() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (failures_ == 0) return;
  std::fprintf(stderr, "perfbench: %llu correctness check(s) failed\n",
               static_cast<unsigned long long>(failures_));
  for (const std::string& message : first_) {
    std::fprintf(stderr, "  CHECK FAILED: %s\n", message.c_str());
  }
}

double LoopResult::untraced_ops_per_s() const {
  return untraced_seconds > 0 ? untraced_ops / untraced_seconds : 0;
}

namespace {

enum Phase : int { kWarmup, kUntraced, kTraced, kStop };

/// Per-client tallies, merged after the clients join.
struct ClientTally {
  std::vector<std::vector<double>> samples_us;
  std::vector<std::pair<double, double>> ops;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t untraced_ops = 0;
  uint64_t traced_ops = 0;
};

}  // namespace

LoopResult RunClosedLoop(const LoopConfig& config,
                         const std::function<OpOutcome(int client)>& step) {
  const size_t classes = config.class_names.size();
  std::atomic<int> phase{kWarmup};
  std::atomic<double> measure_start{0};
  std::vector<ClientTally> tallies(config.clients);
  for (ClientTally& tally : tallies) tally.samples_us.resize(classes);

  std::mutex error_mu;
  std::exception_ptr error;  // first exception a client threw
  auto client_loop = [&](int client) {
    ClientTally& tally = tallies[client];
    for (;;) {
      const int now = phase.load(std::memory_order_acquire);
      if (now == kStop) return;
      const OpOutcome outcome = step(client);
      if (now == kWarmup) continue;
      ++tally.attempted;
      if (!outcome.ok) ++tally.failed;
      if (now == kTraced) {
        ++tally.traced_ops;
        continue;
      }
      ++tally.untraced_ops;
      tally.samples_us[outcome.op_class].push_back(outcome.us);
      tally.ops.emplace_back(NowSeconds() - measure_start, outcome.us);
      if (outcome.read_us >= 0 && config.read_class >= 0) {
        tally.samples_us[config.read_class].push_back(outcome.read_us);
      }
    }
  };
  auto client_main = [&](int client) {
    try {
      client_loop(client);
    } catch (...) {
      std::lock_guard<std::mutex> lock(error_mu);
      if (!error) error = std::current_exception();
    }
  };

  LoopResult result;
  double next_tick = 0;
  result.gauge_max.assign(config.watched_gauges.size(), 0);
  // Holds `p` for `seconds`, sampling the watched gauges; returns the
  // phase's real length.
  auto hold = [&](Phase p, double seconds) {
    Tracer::SetEnabled(p == kTraced);
    phase.store(p, std::memory_order_release);
    const double start = NowSeconds();
    while (NowSeconds() - start < seconds) {
      if (p != kWarmup && config.on_tick && NowSeconds() >= next_tick) {
        config.on_tick();
        next_tick += 1.0;
      }
      if (p != kWarmup) {
        for (size_t g = 0; g < config.watched_gauges.size(); ++g) {
          result.gauge_max[g] =
              std::max(result.gauge_max[g],
                       static_cast<double>(config.watched_gauges[g]->value()));
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return NowSeconds() - start;
  };

  Tracer::Clear();
  std::vector<std::thread> clients;
  for (int c = 0; c < config.clients; ++c) clients.emplace_back(client_main, c);
  hold(kWarmup, config.warmup_seconds);
  if (config.on_measure_start) config.on_measure_start();
  measure_start = NowSeconds();
  next_tick = measure_start + 0.5;
  if (config.trace) {
    // Interleaved slices, so drift over the run loads both sides evenly.
    constexpr int kSlicePairs = 4;
    for (int i = 0; i < kSlicePairs; ++i) {
      result.untraced_seconds +=
          hold(kUntraced, config.seconds / (2 * kSlicePairs));
      result.traced_seconds += hold(kTraced, config.seconds / (2 * kSlicePairs));
    }
  } else {
    result.untraced_seconds = hold(kUntraced, config.seconds);
  }
  Tracer::SetEnabled(false);
  phase.store(kStop, std::memory_order_release);
  for (std::thread& t : clients) t.join();
  if (error) std::rethrow_exception(error);
  if (config.on_measure_end) config.on_measure_end();

  result.samples_us.resize(classes);
  for (ClientTally& tally : tallies) {
    for (size_t c = 0; c < classes; ++c) {
      auto& dst = result.samples_us[c];
      dst.insert(dst.end(), tally.samples_us[c].begin(),
                 tally.samples_us[c].end());
    }
    result.ops.insert(result.ops.end(), tally.ops.begin(), tally.ops.end());
    result.attempted += tally.attempted;
    result.failed += tally.failed;
    result.untraced_ops += tally.untraced_ops;
    result.traced_ops += tally.traced_ops;
  }
  result.spans = Tracer::Collect();
  Tracer::Clear();
  return result;
}

double TimeCall(const char* span_name, const std::function<void()>& fn) {
  const double start = NowSeconds();
  {
    Span span(span_name);
    fn();
  }
  return (NowSeconds() - start) * 1e6;
}

void WriteSpans(const RunConfig& config, const std::string& workload,
                const std::vector<SpanRecord>& spans) {
  const std::string path = config.out_dir + "/trace-" + workload + ".jsonl";
  if (!Tracer::WriteJsonLines(spans, path)) {
    throw std::runtime_error("cannot write " + path);
  }
  std::printf("spans written to %s\n", path.c_str());
}

StatSnapshot MergedDiff(const std::vector<StatSnapshot>& before,
                        const std::vector<StatSnapshot>& after) {
  StatSnapshot merged;
  for (size_t i = 0; i < before.size(); ++i) {
    StatSnapshot diff = dominodb::stats::DiffSnapshots(before[i], after[i]);
    merged.counters.insert(diff.counters.begin(), diff.counters.end());
    merged.gauges.insert(diff.gauges.begin(), diff.gauges.end());
    merged.histograms.insert(diff.histograms.begin(), diff.histograms.end());
  }
  return merged;
}

void Guard(const std::string& name, double value, bool ok,
           const std::string& rule) {
  std::printf("GUARD %-28s %12.4f  %-4s (%s)\n", name.c_str(), value,
              ok ? "ok" : "FAIL", rule.c_str());
  if (!ok) {
    std::fprintf(stderr, "perfbench: workload-shape guard %s failed (%s)\n",
                 name.c_str(), rule.c_str());
  }
}

void LatencyMetrics(const LoopResult& loop, const LoopConfig& config,
                    MetricValues* metrics) {
  std::printf("%-10s %9s %12s %12s %11s\n", "class", "samples", "p50_us",
              "p99_us", "beyond_p99");
  for (size_t c = 0; c < config.class_names.size(); ++c) {
    const std::vector<double>& samples = loop.samples_us[c];
    Summary s = Summarize(samples);
    std::printf("%-10s %9zu %12.2f %12.2f %11zu\n",
                config.class_names[c].c_str(), s.count, s.p50, s.p99,
                s.beyond_p99);
    Guard(config.class_names[c] + ".beyond_p99",
          static_cast<double>(s.beyond_p99), s.beyond_p99 >= 10,
          ">= 10 samples beyond the p99");
  }
  std::vector<double> all;
  for (const auto& [t, us] : loop.ops) all.push_back(us);
  Summary total = Summarize(all);
  std::printf("%-10s %9zu %12.2f %12.2f %11zu\n", "all", total.count,
              total.p50, total.p99, total.beyond_p99);
  // Throughput and latency over time, in windows of ~1/5 of the run.
  const double window = loop.untraced_seconds / 5;
  std::vector<std::vector<double>> windows(5);
  for (const auto& [t, us] : loop.ops) {
    windows[std::min<size_t>(4, static_cast<size_t>(t / window))].push_back(us);
  }
  std::printf("%-10s %9s %12s %12s %12s\n", "window", "ops", "ops_per_s",
              "p50_us", "p99_us");
  for (size_t w = 0; w < windows.size(); ++w) {
    Summary s = Summarize(windows[w]);
    std::printf("%-10zu %9zu %12.1f %12.2f %12.2f\n", w, s.count,
                s.count / window, s.p50, s.p99);
  }
  (*metrics)["ops_per_s"] = loop.untraced_ops_per_s();
  (*metrics)["p50_us"] = total.p50;
  (*metrics)["p99_us"] = total.p99;
  if (config.read_class >= 0) {
    (*metrics)["read.p50_us"] =
        Summarize(loop.samples_us[config.read_class]).p50;
  }
}

namespace {

uint64_t Counter(const StatSnapshot& s, const std::string& name) {
  auto it = s.counters.find(name);
  return it == s.counters.end() ? 0 : it->second;
}

double HistMean(const StatSnapshot& s, const std::string& name) {
  auto it = s.histograms.find(name);
  if (it == s.histograms.end() || it->second.count == 0) return 0;
  return static_cast<double>(it->second.sum) / it->second.count;
}

double HistSum(const StatSnapshot& s, const std::string& name) {
  auto it = s.histograms.find(name);
  return it == s.histograms.end() ? 0 : static_cast<double>(it->second.sum);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

bool StartsWith(const char* s, const char* prefix) {
  return std::string_view(s).substr(0, std::string_view(prefix).size()) ==
         prefix;
}

}  // namespace

MetricValues LayerMetrics(const LayerInputs& in) {
  const StatSnapshot& d = in.diff;
  const LoopResult& loop = *in.loop;
  const double ops = static_cast<double>(loop.attempted);
  MetricValues m;

  // -- Span-derived: mean self time per call, per layer self time -------
  const std::vector<SpanRecord>& spans = loop.spans;
  std::vector<int64_t> self = SelfTimes(spans);
  struct Acc {
    double total_us = 0;
    uint64_t calls = 0;
    double Mean() const { return Ratio(total_us, calls); }
  };
  std::map<std::string, Acc> by_name;
  std::map<std::string, Acc> layer_self;
  std::map<std::string, Acc> op_duration;  // root spans: whole duration
  double root_us = 0, root_self_us = 0;
  uint64_t roots = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    const double self_us = self[i] / 1e3;
    by_name[spans[i].name].total_us += self_us;
    by_name[spans[i].name].calls += 1;
    layer_self[spans[i].layer()].total_us += self_us;
    if (spans[i].parent_id == 0 && StartsWith(spans[i].name, "op.")) {
      root_us += spans[i].duration_ns() / 1e3;
      op_duration[spans[i].name].total_us += spans[i].duration_ns() / 1e3;
      op_duration[spans[i].name].calls += 1;
      root_self_us += self_us;
      ++roots;
    }
  }
  auto mean_of = [&](const char* prefix, const char* exclude = nullptr) {
    Acc acc;
    for (const auto& [name, a] : by_name) {
      if (!StartsWith(name.c_str(), prefix)) continue;
      if (exclude != nullptr && StartsWith(name.c_str(), exclude)) continue;
      acc.total_us += a.total_us;
      acc.calls += a.calls;
    }
    return acc.Mean();
  };
  m["core.readtxn_us"] = mean_of("core.ReadTxn");
  m["view.traverse_us"] = mean_of("view.");
  m["storage.read_us"] = mean_of("storage.Read");
  m["storage.write_us"] = mean_of("storage.", "storage.Read");
  m["fulltext.search_us"] = mean_of("fulltext.");
  m["mail.submit_us"] = mean_of("mail.Submit");
  m["mail.router_pass_us"] = mean_of("mail.RunRouterOnce");
  m["repl.pass_us"] = mean_of("repl.");
  m["trace.uncovered_share"] = Ratio(root_self_us, root_us);
  m["trace.overhead_share"] =
      loop.traced_seconds > 0 && loop.untraced_ops_per_s() > 0
          ? 1.0 - (loop.traced_ops / loop.traced_seconds) /
                      loop.untraced_ops_per_s()
          : 0;

  std::printf("traced: %llu root spans, %zu spans\n",
              static_cast<unsigned long long>(roots), spans.size());
  std::printf("%-24s %10s %12s %10s\n", "span", "calls", "self_us/call",
              "share");
  for (const auto& [name, a] : by_name) {
    std::printf("%-24s %10llu %12.2f %10.4f\n", name.c_str(),
                static_cast<unsigned long long>(a.calls), a.Mean(),
                Ratio(a.total_us, root_us));
  }
  std::printf("%-24s %10s %12s %16s\n", "op", "calls", "mean_us",
              "uncovered_share");
  for (const auto& [name, a] : op_duration) {
    std::printf("%-24s %10llu %12.2f %16.4f\n", name.c_str(),
                static_cast<unsigned long long>(a.calls), a.Mean(),
                Ratio(by_name[name].total_us, a.total_us));
  }
  std::printf("%-24s %12s %10s\n", "layer", "self_ms", "share");
  for (const auto& [layer, a] : layer_self) {
    std::printf("%-24s %12.2f %10.4f\n", layer.c_str(), a.total_us / 1e3,
                Ratio(a.total_us, root_us));
  }

  // -- Counter-derived ---------------------------------------------------
  const double hits = Counter(d, "Store.Cache.Hits");
  const double misses = Counter(d, "Store.Cache.Misses");
  m["pager.hit_ratio"] = Ratio(hits, hits + misses);
  m["pager.misses_per_op"] = Ratio(misses, ops);
  m["pager.evictions"] = Counter(d, "Store.Cache.Evictions");
  m["storage.checkpoints"] = Counter(d, "Database.Checkpoints");
  m["storage.compactions"] = Counter(d, "Store.Compact.Runs");
  m["storage.commit_us_mean"] = HistMean(d, "Database.WAL.CommitMicros");
  if (Counter(d, "Server.WAL.Commits") > 0) {
    m["wal.records_per_sync"] = Ratio(Counter(d, "Server.WAL.Commits"),
                                      Counter(d, "Server.WAL.Syncs"));
    m["wal.bytes_per_commit"] = Ratio(Counter(d, "Server.WAL.CommittedBytes"),
                                      Counter(d, "Server.WAL.Commits"));
  } else {
    m["wal.records_per_sync"] =
        Ratio(Counter(d, "WAL.Appends"), Counter(d, "WAL.Syncs"));
    m["wal.bytes_per_commit"] =
        Ratio(Counter(d, "WAL.AppendedBytes"), Counter(d, "WAL.Appends"));
  }
  m["wal.sync_us_mean"] = HistMean(d, "WAL.SyncMicros");
  m["indexer.busy_ms"] = HistSum(d, "Indexer.Threads.TaskMicros") / 1e3;
  m["view.evals_per_write"] =
      Ratio(Counter(d, "Database.View.SelectionEvals") +
                Counter(d, "Database.View.ColumnEvals"),
            static_cast<double>(in.writes));
  const double fhits = Counter(d, "Formula.CacheHits");
  m["formula.evals_per_op"] = Ratio(Counter(d, "Formula.Evals"), ops);
  m["formula.cache_hit_ratio"] =
      Ratio(fhits, fhits + Counter(d, "Formula.CacheMisses"));
  m["mail.retries"] = Counter(d, "Mail.Transfer.Retries");
  m["repl.conflicts"] = Counter(d, "Replica.Docs.Conflicts");
  m["repl.bytes_per_doc"] = Ratio(Counter(d, "Replica.Bytes.Transferred"),
                                  Counter(d, "Replica.Docs.Received"));
  m["net.bytes_per_op"] = Ratio(Counter(d, "Net.Bytes"), ops);

  // -- Zero unless the workload measured them ----------------------------
  for (const char* name :
       {"core.mvcc.live_versions_max", "core.update_conflicts",
        "security.rows_returned_share", "storage.write_amp",
        "indexer.queue_depth_max", "fulltext.hits_per_query",
        "fulltext.bytes_per_doc"}) {
    m[name] = 0;
  }
  for (const auto& [name, value] : in.extras) m[name] = value;
  return m;
}

}  // namespace perfbench
