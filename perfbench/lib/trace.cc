#include "lib/trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

namespace perfbench {
namespace {

std::atomic<bool> g_enabled{false};

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Finished spans of one thread. Owned by the registry so they outlive
/// the thread that recorded them.
struct ThreadBuffer {
  uint64_t thread_index = 0;
  uint64_t next_id = 1;
  std::vector<SpanRecord> spans;
};

std::mutex g_registry_mu;
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;

ThreadBuffer* LocalBuffer() {
  thread_local ThreadBuffer* buffer = [] {
    std::lock_guard<std::mutex> lock(g_registry_mu);
    g_buffers.push_back(std::make_unique<ThreadBuffer>());
    g_buffers.back()->thread_index = g_buffers.size();
    g_buffers.back()->spans.reserve(1 << 16);
    return g_buffers.back().get();
  }();
  return buffer;
}

/// Ids of the thread's open spans, innermost last.
thread_local std::vector<std::pair<uint64_t, uint64_t>> t_open;  // (trace, span)

}  // namespace

std::string SpanRecord::layer() const {
  std::string full(name);
  return full.substr(0, full.find('.'));
}

void Tracer::SetEnabled(bool enabled) {
  g_enabled.store(enabled, std::memory_order_relaxed);
}

bool Tracer::enabled() { return g_enabled.load(std::memory_order_relaxed); }

std::vector<SpanRecord> Tracer::Collect() {
  std::lock_guard<std::mutex> lock(g_registry_mu);
  std::vector<SpanRecord> all;
  for (const auto& buffer : g_buffers) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  return all;
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(g_registry_mu);
  for (const auto& buffer : g_buffers) buffer->spans.clear();
}

bool Tracer::WriteJsonLines(const std::vector<SpanRecord>& spans,
                            const std::string& path) {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (const SpanRecord& s : spans) {
    std::fprintf(out,
                 "{\"trace\":%" PRIu64 ",\"span\":%" PRIu64
                 ",\"parent\":%" PRIu64
                 ",\"name\":\"%s\",\"start_ns\":%" PRId64
                 ",\"end_ns\":%" PRId64 "}\n",
                 s.trace_id, s.span_id, s.parent_id, s.name, s.start_ns,
                 s.end_ns);
  }
  return std::fclose(out) == 0;
}

Span::Span(const char* name, bool root) {
  if (!Tracer::enabled()) return;
  if (!root && t_open.empty()) return;
  ThreadBuffer* buffer = LocalBuffer();
  active_ = true;
  record_.name = name;
  record_.span_id = (buffer->thread_index << 40) | buffer->next_id++;
  if (root) {
    record_.trace_id = record_.span_id;
  } else {
    record_.trace_id = t_open.back().first;
    record_.parent_id = t_open.back().second;
  }
  t_open.emplace_back(record_.trace_id, record_.span_id);
  record_.start_ns = NowNs();
}

Span::~Span() {
  if (!active_) return;
  record_.end_ns = NowNs();
  t_open.pop_back();
  LocalBuffer()->spans.push_back(record_);
}

std::vector<int64_t> SelfTimes(const std::vector<SpanRecord>& spans) {
  std::unordered_map<uint64_t, size_t> index_of;
  index_of.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) index_of[spans[i].span_id] = i;

  std::vector<std::vector<std::pair<int64_t, int64_t>>> child_intervals(
      spans.size());
  for (const SpanRecord& s : spans) {
    if (s.parent_id == 0) continue;
    auto it = index_of.find(s.parent_id);
    if (it != index_of.end()) {
      child_intervals[it->second].emplace_back(s.start_ns, s.end_ns);
    }
  }

  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t lo = spans[i].start_ns;
    const int64_t hi = spans[i].end_ns;
    auto& intervals = child_intervals[i];
    std::sort(intervals.begin(), intervals.end());
    int64_t covered = 0;
    int64_t cursor = lo;  // everything before `cursor` is already counted
    for (auto [start, end] : intervals) {
      start = std::max(start, cursor);
      end = std::min(end, hi);
      if (end > start) {
        covered += end - start;
        cursor = end;
      }
    }
    self[i] = (hi - lo) - covered;
  }
  return self;
}

}  // namespace perfbench
