// Unit tests for the benchmark's own code: exact percentiles, span self
// time, and the result line.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "lib/metrics.h"
#include "lib/samples.h"
#include "lib/trace.h"

namespace perfbench {
namespace {

TEST(SamplesTest, NearestRankPercentilesOfKnownSamples) {
  std::vector<double> samples;
  for (int i = 100; i >= 1; --i) samples.push_back(i);  // 1..100, unsorted
  Summary s = Summarize(samples);
  EXPECT_EQ(s.count, 100u);
  EXPECT_EQ(s.p50, 50);
  EXPECT_EQ(s.p99, 99);
  EXPECT_EQ(s.beyond_p99, 1u);

  std::vector<double> thousand;
  for (int i = 1; i <= 1000; ++i) thousand.push_back(i * 1.5);
  s = Summarize(thousand);
  EXPECT_EQ(s.p50, 750);    // rank 500
  EXPECT_EQ(s.p99, 1485);   // rank 990
  EXPECT_EQ(s.beyond_p99, 10u);
}

TEST(SamplesTest, NoPowerOfTwoRounding) {
  // A bucketed histogram would report these as 16/32/...; exact
  // percentiles return observed values.
  std::vector<double> samples = {17, 19, 23, 29, 31};
  EXPECT_EQ(Summarize(samples).p50, 23);
  EXPECT_EQ(Summarize(samples).p99, 31);
}

TEST(SamplesTest, EdgeCases) {
  EXPECT_EQ(Summarize({}).count, 0u);
  EXPECT_EQ(Summarize({}).p50, 0);
  EXPECT_EQ(Summarize({7}).p50, 7);
  EXPECT_EQ(Summarize({7}).p99, 7);
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(NearestRank(10, 0.5), 5u);
  EXPECT_EQ(NearestRank(10, 0.0), 1u);
  EXPECT_EQ(NearestRank(10, 1.0), 10u);
}

SpanRecord MakeSpan(uint64_t id, uint64_t parent, int64_t start, int64_t end,
                    const char* name = "x.y") {
  SpanRecord s;
  s.trace_id = 1;
  s.span_id = id;
  s.parent_id = parent;
  s.name = name;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

TEST(TraceTest, SelfTimeOfSyntheticTree) {
  // root [0,100): children [10,30) and [20,50) overlap, [60,70); the
  // second child has a grandchild [25,45) that must not count for root.
  // A child sticking out past the root's end is clipped.
  std::vector<SpanRecord> spans = {
      MakeSpan(1, 0, 0, 100),  MakeSpan(2, 1, 10, 30),
      MakeSpan(3, 1, 20, 50),  MakeSpan(4, 3, 25, 45),
      MakeSpan(5, 1, 60, 70),  MakeSpan(6, 1, 95, 120),
  };
  std::vector<int64_t> self = SelfTimes(spans);
  ASSERT_EQ(self.size(), spans.size());
  // Covered by children of root: [10,50) + [60,70) + [95,100) = 55.
  EXPECT_EQ(self[0], 45);
  EXPECT_EQ(self[1], 20);
  EXPECT_EQ(self[2], 10);  // 30 minus the grandchild's 20
  EXPECT_EQ(self[3], 20);
  EXPECT_EQ(self[4], 10);
  EXPECT_EQ(self[5], 25);
}

TEST(TraceTest, SpansRecordParentsOnlyWhileEnabled) {
  Tracer::Clear();
  {
    Span orphan("core.Orphan");  // no root open: not recorded
  }
  Tracer::SetEnabled(true);
  {
    Span root("op.test", true);
    Span child("core.Child");
  }
  Tracer::SetEnabled(false);
  {
    Span off("op.off", true);
  }
  std::vector<SpanRecord> spans = Tracer::Collect();
  Tracer::Clear();
  ASSERT_EQ(spans.size(), 2u);
  const SpanRecord& child = spans[0];  // closes first
  const SpanRecord& root = spans[1];
  EXPECT_EQ(std::string(child.name), "core.Child");
  EXPECT_EQ(child.layer(), "core");
  EXPECT_EQ(child.parent_id, root.span_id);
  EXPECT_EQ(child.trace_id, root.span_id);
  EXPECT_EQ(root.parent_id, 0u);
  EXPECT_EQ(root.trace_id, root.span_id);
  EXPECT_LE(root.start_ns, child.start_ns);
  EXPECT_GE(root.end_ns, child.end_ns);
}

TEST(MetricsTest, ResultLineCarriesEveryDeclaredMetric) {
  RunResult result;
  result.attempted = 10;
  result.failed = 1;
  for (const MetricDef& def : EndToEndMetrics()) result.metrics[def.name] = 1.25;
  std::string error;
  std::string json = ResultJson(result, EndToEndMetrics(), &error);
  ASSERT_FALSE(json.empty()) << error;
  EXPECT_EQ(json.rfind("{\"correct\": true, \"attempted\": 10, \"failed\": 1", 0),
            0u);
  for (const MetricDef& def : EndToEndMetrics()) {
    EXPECT_NE(json.find(std::string("\"") + def.name +
                        "\": {\"value\": 1.25, \"unit\": \"" + def.unit + "\"}"),
              std::string::npos)
        << def.name;
  }

  result.metrics.erase("setup_s");
  EXPECT_TRUE(ResultJson(result, EndToEndMetrics(), &error).empty());
  EXPECT_NE(error.find("setup_s"), std::string::npos);
}

}  // namespace
}  // namespace perfbench
