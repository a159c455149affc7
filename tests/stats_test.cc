#include "stats/stats.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "server/server.h"
#include "tests/test_util.h"
#include "view/view_design.h"

namespace dominodb {
namespace {

using stats::DiffSnapshots;
using stats::EventLog;
using stats::Histogram;
using stats::Severity;
using stats::StatRegistry;
using stats::StatSnapshot;
using testing_util::MakeDoc;
using testing_util::ScratchDir;

// -- Primitives -----------------------------------------------------------

TEST(CounterTest, AddAndReset) {
  stats::Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.value(), 42u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(CounterTest, ConcurrentAddsDontLoseIncrements) {
  stats::Counter c;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < 10'000; ++i) c.Add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), 40'000u);
}

TEST(GaugeTest, SetAddNegative) {
  stats::Gauge g;
  g.Set(5);
  g.Add(-7);
  EXPECT_EQ(g.value(), -2);
}

TEST(HistogramTest, BucketMath) {
  // Bucket i covers (2^(i-1), 2^i]: value 1 → bucket 0, 2 → bucket 1,
  // 3..4 → bucket 2, 5..8 → bucket 3, ...
  EXPECT_EQ(Histogram::BucketFor(0), 0u);
  EXPECT_EQ(Histogram::BucketFor(1), 0u);
  EXPECT_EQ(Histogram::BucketFor(2), 1u);
  EXPECT_EQ(Histogram::BucketFor(3), 2u);
  EXPECT_EQ(Histogram::BucketFor(4), 2u);
  EXPECT_EQ(Histogram::BucketFor(5), 3u);
  EXPECT_EQ(Histogram::BucketFor(1'000'000), 20u);
  // Values past the covered range land in the unbounded tail bucket.
  EXPECT_EQ(Histogram::BucketFor(~0ull), Histogram::kNumBuckets - 1);
  EXPECT_EQ(Histogram::BucketUpperBound(0), 1u);
  EXPECT_EQ(Histogram::BucketUpperBound(10), 1024u);
  EXPECT_EQ(Histogram::BucketUpperBound(Histogram::kNumBuckets - 1), ~0ull);
}

TEST(HistogramTest, CountSumMaxPercentile) {
  Histogram h;
  EXPECT_EQ(h.Percentile(0.5), 0u);  // empty
  for (uint64_t v : {1, 2, 3, 100}) h.Record(v);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 106u);
  EXPECT_EQ(h.max(), 100u);
  EXPECT_DOUBLE_EQ(h.Mean(), 106.0 / 4.0);
  // p50: 2 of 4 samples ≤ bucket of value 2 (upper bound 2).
  EXPECT_EQ(h.Percentile(0.5), 2u);
  // p100 lands in the bucket of 100 (upper bound 128), but the report is
  // clamped to the observed max: no percentile may exceed it.
  EXPECT_EQ(h.Percentile(1.0), 100u);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max(), 0u);
}

// Regression: a mid-range bucket's power-of-two upper bound used to be
// reported verbatim, so a single sample of 5 claimed p50 = 8 — a latency
// the workload never saw.
TEST(HistogramTest, PercentileNeverExceedsObservedMax) {
  Histogram single;
  single.Record(5);  // (4, 8] bucket
  for (double p : {0.01, 0.5, 0.95, 0.99, 1.0}) {
    EXPECT_EQ(single.Percentile(p), 5u) << "p=" << p;
  }

  // Samples sitting exactly on a bucket boundary report the boundary.
  Histogram boundary;
  boundary.Record(8);
  boundary.Record(8);
  EXPECT_EQ(boundary.Percentile(0.5), 8u);
  EXPECT_EQ(boundary.Percentile(1.0), 8u);

  // Mixed buckets: low percentiles keep their (exact) bucket bounds, the
  // top of the distribution clamps to the max.
  Histogram mixed;
  for (uint64_t v : {1, 2, 3, 100}) mixed.Record(v);
  for (double p : {0.25, 0.5, 0.75, 0.95, 0.99, 1.0}) {
    EXPECT_LE(mixed.Percentile(p), mixed.max()) << "p=" << p;
  }
  EXPECT_EQ(mixed.Percentile(0.25), 1u);
  EXPECT_EQ(mixed.Percentile(1.0), 100u);
}

TEST(HistogramTest, TailBucketReportsRecordedMax) {
  Histogram h;
  uint64_t huge = ~0ull - 5;
  h.Record(huge);
  EXPECT_EQ(h.Percentile(0.99), huge);
}

// -- EventLog -------------------------------------------------------------

TEST(EventLogTest, RingKeepsMostRecent) {
  EventLog log(/*capacity=*/3);
  for (int i = 0; i < 5; ++i) {
    log.Log(Severity::kNormal, "Test", "event " + std::to_string(i), i);
  }
  EXPECT_EQ(log.total_logged(), 5u);
  std::vector<stats::Event> events = log.Events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events.front().message, "event 2");  // oldest retained
  EXPECT_EQ(events.back().message, "event 4");
}

TEST(EventLogTest, CountRetainedBySeverity) {
  EventLog log;
  log.Log(Severity::kNormal, "A", "fine");
  log.Log(Severity::kWarning, "A", "hmm");
  log.Log(Severity::kFailure, "B", "bad");
  log.Log(Severity::kFailure, "B", "worse");
  EXPECT_EQ(log.CountRetained(Severity::kNormal), 1u);
  EXPECT_EQ(log.CountRetained(Severity::kWarning), 1u);
  EXPECT_EQ(log.CountRetained(Severity::kFailure), 2u);
  EXPECT_EQ(log.CountRetained(Severity::kFatal), 0u);
}

// -- Registry -------------------------------------------------------------

TEST(StatRegistryTest, GetReturnsStableNamedStats) {
  StatRegistry reg;
  stats::Counter& c1 = reg.GetCounter("Replica.Docs.Received");
  c1.Add(3);
  // Same name → same counter; registering more stats must not move it.
  for (int i = 0; i < 100; ++i) {
    reg.GetCounter("Filler.Stat." + std::to_string(i));
  }
  EXPECT_EQ(&reg.GetCounter("Replica.Docs.Received"), &c1);
  EXPECT_EQ(c1.value(), 3u);
  EXPECT_EQ(reg.FindCounter("Replica.Docs.Received"), &c1);
  EXPECT_EQ(reg.FindCounter("No.Such.Stat"), nullptr);
}

TEST(StatRegistryTest, NamesAreSortedAndSpanAllKinds) {
  StatRegistry reg;
  reg.GetCounter("Mail.Dead");
  reg.GetGauge("Server.Databases");
  reg.GetHistogram("Database.WAL.CommitMicros");
  std::vector<std::string> names = reg.StatNames();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "Database.WAL.CommitMicros");
  EXPECT_EQ(names[1], "Mail.Dead");
  EXPECT_EQ(names[2], "Server.Databases");
}

TEST(StatRegistryTest, ShowStatFiltersByPrefixPattern) {
  StatRegistry reg;
  reg.GetCounter("Replica.Docs.Received").Add(7);
  reg.GetCounter("Replica.Docs.Sent").Add(2);
  reg.GetCounter("Mail.Delivered").Add(1);
  std::string all = reg.ShowStat();
  EXPECT_NE(all.find("Mail.Delivered = 1"), std::string::npos);
  EXPECT_NE(all.find("Replica.Docs.Received = 7"), std::string::npos);
  // Case-insensitive prefix with optional trailing '*'.
  std::string replica = reg.ShowStat("replica.*");
  EXPECT_NE(replica.find("Replica.Docs.Sent = 2"), std::string::npos);
  EXPECT_EQ(replica.find("Mail.Delivered"), std::string::npos);
}

// The store's decoded-note cache reports through `show stat
// Store.NoteCache`: hit/miss/eviction counters and a byte gauge that a
// closed database gives back.
TEST(StatRegistryTest, NoteCacheStatsTrackReads) {
  testing_util::ScratchDir dir;
  SimClock clock;
  StatRegistry reg;
  {
    DatabaseOptions options;
    options.stats = &reg;
    auto db = Database::Open(dir.Sub("db"), options, &clock);
    ASSERT_OK(db);
    auto id = (*db)->CreateNote(testing_util::MakeDoc("Memo", "cached"));
    ASSERT_OK(id);
    const uint64_t misses = reg.GetCounter("Store.NoteCache.Misses").value();
    const uint64_t hits = reg.GetCounter("Store.NoteCache.Hits").value();
    ASSERT_OK((*db)->ReadNote(*id));
    ASSERT_OK((*db)->ReadNote(*id));
    EXPECT_EQ(reg.GetCounter("Store.NoteCache.Misses").value(), misses + 1);
    EXPECT_EQ(reg.GetCounter("Store.NoteCache.Hits").value(), hits + 1);
    EXPECT_GT(reg.GetGauge("Store.NoteCache.Bytes").value(), 0);
    std::string shown = reg.ShowStat("Store.NoteCache");
    for (const char* name : {"Bytes", "Evictions", "Hits", "Misses"}) {
      EXPECT_NE(shown.find(std::string("Store.NoteCache.") + name),
                std::string::npos)
          << shown;
    }
    EXPECT_EQ(shown.find("Store.Cache."), std::string::npos);
  }
  EXPECT_EQ(reg.GetGauge("Store.NoteCache.Bytes").value(), 0);
}

TEST(StatRegistryTest, ShowStatJsonFilters) {
  StatRegistry reg;
  reg.GetCounter("Replica.Docs.Received").Add(7);
  reg.GetCounter("Mail.Delivered").Add(1);
  std::string json = reg.ShowStatJson("Replica");
  EXPECT_NE(json.find("\"Replica.Docs.Received\":7"), std::string::npos);
  EXPECT_EQ(json.find("Mail.Delivered"), std::string::npos);
}

TEST(StatRegistryTest, ThresholdEventsLatchUntilReset) {
  StatRegistry reg;
  reg.AddThreshold("Mail.Dead", 2, Severity::kWarning, "dead mail piling up");
  stats::Counter& dead = reg.GetCounter("Mail.Dead");
  EXPECT_EQ(reg.CheckThresholds(), 0u);  // below threshold
  dead.Add(2);
  EXPECT_EQ(reg.CheckThresholds(100), 1u);
  // Latched: still over threshold, but already fired.
  EXPECT_EQ(reg.CheckThresholds(200), 0u);
  std::vector<stats::Event> events = reg.events().Events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].severity, Severity::kWarning);
  EXPECT_EQ(events[0].when, 100);
  EXPECT_NE(events[0].message.find("dead mail piling up"),
            std::string::npos);
  // ResetAll re-arms the rule (and zeroes the stat).
  reg.ResetAll();
  EXPECT_EQ(dead.value(), 0u);
  dead.Add(5);
  EXPECT_EQ(reg.CheckThresholds(), 1u);
}

TEST(StatRegistryTest, DuplicateThresholdRegistrationsIgnored) {
  StatRegistry reg;
  reg.AddThreshold("X", 1, Severity::kWarning, "first");
  reg.AddThreshold("X", 1, Severity::kFailure, "duplicate");
  reg.GetCounter("X").Add(1);
  EXPECT_EQ(reg.CheckThresholds(), 1u);
}

// -- Snapshots ------------------------------------------------------------

TEST(StatSnapshotTest, DiffSubtractsCountersAndTakesAfterGauges) {
  StatRegistry reg;
  stats::Counter& c = reg.GetCounter("Replica.Docs.Received");
  stats::Gauge& g = reg.GetGauge("Server.Databases");
  stats::Histogram& h = reg.GetHistogram("Database.WAL.CommitMicros");
  c.Add(10);
  g.Set(2);
  h.Record(100);
  StatSnapshot before = reg.Snapshot();
  c.Add(5);
  g.Set(3);
  h.Record(200);
  h.Record(300);
  StatSnapshot after = reg.Snapshot();
  StatSnapshot diff = DiffSnapshots(before, after);
  EXPECT_EQ(diff.counters.at("Replica.Docs.Received"), 5u);
  EXPECT_EQ(diff.gauges.at("Server.Databases"), 3);
  EXPECT_EQ(diff.histograms.at("Database.WAL.CommitMicros").count, 2u);
  EXPECT_EQ(diff.histograms.at("Database.WAL.CommitMicros").sum, 500u);
}

TEST(StatSnapshotTest, ToJsonEscapesAndStructures) {
  StatRegistry reg;
  reg.GetCounter("A.B").Add(1);
  reg.GetGauge("G").Set(-4);
  reg.GetHistogram("H").Record(7);
  std::string json = reg.Snapshot().ToJson();
  EXPECT_NE(json.find("\"counters\":{\"A.B\":1}"), std::string::npos);
  EXPECT_NE(json.find("\"G\":-4"), std::string::npos);
  EXPECT_NE(json.find("\"count\":1"), std::string::npos);
}

// The workload driver's SLO tables read p99 out of every report surface:
// the snapshot struct, the JSON dump, the `show stat` text line, and the
// merged before/after delta.
TEST(StatSnapshotTest, P99PresentInEveryReportSurface) {
  StatRegistry reg;
  Histogram& h = reg.GetHistogram("Workload.Op.Micros");
  for (int i = 0; i < 98; ++i) h.Record(4);
  h.Record(1000);  // the 2% tail
  h.Record(1000);

  stats::HistogramSummary s = reg.Snapshot().histograms.at(
      "Workload.Op.Micros");
  EXPECT_EQ(s.p50, 4u);
  // Rank 99 of 100 reaches the tail bucket (512, 1024]; the report is
  // clamped to the observed max of 1000.
  EXPECT_EQ(s.p99, 1000u);
  EXPECT_LE(s.p99, s.max);

  std::string json = reg.Snapshot().ToJson();
  EXPECT_NE(json.find("\"p99\":1000"), std::string::npos);

  std::string show = reg.ShowStat("Workload.*");
  EXPECT_NE(show.find("p99 1000"), std::string::npos);

  // Merged delta: histogram percentiles take the `after` values.
  StatSnapshot before;  // empty: everything counts from zero
  StatSnapshot diff = DiffSnapshots(before, reg.Snapshot());
  EXPECT_EQ(diff.histograms.at("Workload.Op.Micros").p99, 1000u);
  EXPECT_EQ(diff.histograms.at("Workload.Op.Micros").count, 100u);
}

// -- Server integration ----------------------------------------------------

class ServerStatsFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    clock_.Set(1'000'000'000);
    net_ = std::make_unique<SimNet>(&clock_, &hub_stats_);
    hub_ = std::make_unique<Server>("hub", dir_.Sub("hub"), &clock_,
                                    net_.get(), &directory_, &hub_stats_);
    spoke_ = std::make_unique<Server>("spoke", dir_.Sub("spoke"), &clock_,
                                      net_.get(), &directory_, &spoke_stats_);
  }

  ScratchDir dir_;
  SimClock clock_;
  MailDirectory directory_;
  stats::StatRegistry hub_stats_, spoke_stats_;
  std::unique_ptr<SimNet> net_;
  std::unique_ptr<Server> hub_, spoke_;
};

TEST_F(ServerStatsFixture, ReplicationAndMailShowUpInShowStat) {
  // One replication session moving 3 documents hub → spoke.
  DatabaseOptions options;
  options.title = "App";
  ASSERT_OK_AND_ASSIGN(Database * app, hub_->OpenDatabase("app.nsf", options));
  ASSERT_OK(spoke_->CreateReplicaOf(*app, "app.nsf").status());
  for (int i = 0; i < 3; ++i) {
    ASSERT_OK(
        app->CreateNote(MakeDoc("Memo", "m" + std::to_string(i))).status());
  }
  clock_.Advance(1000);
  ASSERT_OK_AND_ASSIGN(ReplicationReport report,
                       hub_->ReplicateWith(*spoke_, "app.nsf"));
  EXPECT_EQ(report.pushed, 3u);

  // The hub drove the session, so its registry holds the session counters
  // and they equal the returned report field-for-field.
  auto counter = [this](const std::string& name) {
    const stats::Counter* c = hub_stats_.FindCounter(name);
    return c != nullptr ? c->value() : 0u;
  };
  EXPECT_EQ(counter("Replica.Sessions.Completed"), 1u);
  EXPECT_EQ(counter("Replica.Sessions.Failed"), 0u);
  EXPECT_EQ(counter("Replica.Docs.Summarized"), report.summarized);
  EXPECT_EQ(counter("Replica.Docs.Received"), report.pulled);
  EXPECT_EQ(counter("Replica.Docs.Sent"), report.pushed);
  EXPECT_EQ(counter("Replica.Docs.Conflicts"), report.conflicts);
  EXPECT_EQ(counter("Replica.Docs.Skipped"), report.skipped_unchanged);
  EXPECT_EQ(counter("Replica.Bytes.Transferred"), report.bytes_transferred);
  EXPECT_EQ(counter("Replica.Messages"), report.messages);
  EXPECT_GT(report.bytes_transferred, 0u);

  // One mail delivery: alice (hub) → bob (hub).
  ASSERT_OK(hub_->CreateMailFile("alice").status());
  ASSERT_OK(hub_->CreateMailFile("bob").status());
  ASSERT_OK(hub_->SendMail("alice", {"bob"}, "hi", "hello bob"));
  std::map<std::string, Router*> peers = {{"hub", hub_->router()}};
  ASSERT_OK(hub_->RunRouterOnce(peers).status());
  EXPECT_EQ(counter("Mail.Submitted"), 1u);
  EXPECT_EQ(counter("Mail.Delivered"), 1u);
  EXPECT_EQ(counter("Mail.Dead"), 0u);

  // `show stat` surfaces both subsystems with non-zero values.
  std::string show = hub_->ShowStat();
  EXPECT_NE(show.find("Replica.Docs.Sent = 3"), std::string::npos);
  EXPECT_NE(show.find("Mail.Delivered = 1"), std::string::npos);
  // The spoke served the session passively; its registry saw none of it.
  EXPECT_EQ(spoke_stats_.FindCounter("Replica.Sessions.Completed"), nullptr);

  // Store/WAL instrumentation fed the same registry.
  EXPECT_GT(counter("Database.Docs.Added"), 0u);
  EXPECT_GT(counter("Server.WAL.Commits"), 0u);
}

TEST_F(ServerStatsFixture, DeadMailFiresThresholdEvent) {
  ASSERT_OK(hub_->CreateMailFile("alice").status());
  ASSERT_OK(hub_->SendMail("alice", {"nobody"}, "void", "hello?"));
  std::map<std::string, Router*> peers = {{"hub", hub_->router()}};
  ASSERT_OK(hub_->RunRouterOnce(peers).status());
  const stats::Counter* dead = hub_stats_.FindCounter("Mail.Dead");
  ASSERT_NE(dead, nullptr);
  EXPECT_EQ(dead->value(), 1u);
  // The router logged the warning immediately...
  EXPECT_GE(hub_stats_.events().CountRetained(Severity::kWarning), 1u);
  // ...and the Server's default Mail.Dead >= 1 statistic event fires on
  // the next Collector poll.
  EXPECT_EQ(hub_->CheckThresholds(), 1u);
  EXPECT_EQ(hub_->CheckThresholds(), 0u);  // latched
}

TEST_F(ServerStatsFixture, MvccStatsShowUpInShowStat) {
  DatabaseOptions options;
  ASSERT_OK_AND_ASSIGN(Database * db, hub_->OpenDatabase("app.nsf", options));
  ASSERT_OK_AND_ASSIGN(NoteId id, db->CreateNote(MakeDoc("Memo", "v1")));
  {
    Database::ReadTxn txn(db);
    // A pinned reader plus a commit after the pin → one pinned epoch and
    // a live overlay version, visible through the server's registry.
    ASSERT_OK_AND_ASSIGN(Note note, db->ReadNote(id));
    note.SetText("Subject", "v2");
    ASSERT_OK(db->UpdateNote(std::move(note)));
    const stats::Gauge* pinned = hub_stats_.FindGauge("Db.Mvcc.PinnedEpochs");
    const stats::Gauge* live = hub_stats_.FindGauge("Db.Mvcc.LiveVersions");
    ASSERT_NE(pinned, nullptr);
    ASSERT_NE(live, nullptr);
    EXPECT_EQ(pinned->value(), 1);
    EXPECT_GE(live->value(), 1);
    std::string show = hub_->ShowStat("Db.Mvcc.*");
    EXPECT_NE(show.find("Db.Mvcc.PinnedEpochs = 1"), std::string::npos);
    EXPECT_NE(show.find("Db.Mvcc.LiveVersions"), std::string::npos);
    EXPECT_NE(show.find("Db.Mvcc.ReclaimedVersions"), std::string::npos);
    EXPECT_NE(show.find("Db.Mvcc.OldestPinAgeMicros"), std::string::npos);
  }
  // Unpinned: gauges return to zero, the reclaim counter moved.
  EXPECT_EQ(hub_stats_.FindGauge("Db.Mvcc.PinnedEpochs")->value(), 0);
  EXPECT_EQ(hub_stats_.FindGauge("Db.Mvcc.LiveVersions")->value(), 0);
  const stats::Counter* reclaimed =
      hub_stats_.FindCounter("Db.Mvcc.ReclaimedVersions");
  ASSERT_NE(reclaimed, nullptr);
  EXPECT_GT(reclaimed->value(), 0u);
}

TEST_F(ServerStatsFixture, ViewReaderSetsGaugeTracksInternedSets) {
  DatabaseOptions options;
  ASSERT_OK_AND_ASSIGN(Database * db, hub_->OpenDatabase("app.nsf", options));
  ViewColumn subject;
  subject.title = "Subject";
  subject.formula_source = "Subject";
  subject.sort = ColumnSort::kAscending;
  ASSERT_OK(db->CreateView(*ViewDesign::Create("all", "SELECT @All",
                                               {subject}))
                .status());
  auto restricted = [](const std::string& subject_text,
                       std::vector<std::string> readers) {
    Note doc = MakeDoc("Memo", subject_text);
    doc.SetItem("DocReaders", Value::TextList(std::move(readers)),
                kItemReaders | kItemNames);
    return doc;
  };
  ASSERT_OK(db->CreateNote(restricted("a", {"Alice"})).status());
  ASSERT_OK(db->CreateNote(restricted("b", {"Alice"})).status());
  ASSERT_OK_AND_ASSIGN(NoteId bob_doc,
                       db->CreateNote(restricted("c", {"Bob", "Carol"})));
  ASSERT_OK(db->CreateNote(MakeDoc("Memo", "open")).status());
  const stats::Gauge* sets = hub_stats_.FindGauge("Database.View.ReaderSets");
  ASSERT_NE(sets, nullptr);
  // Two distinct sets; the unrestricted document interns none.
  EXPECT_EQ(sets->value(), 2);
  EXPECT_NE(hub_->ShowStat("Database.View.*")
                .find("Database.View.ReaderSets = 2"),
            std::string::npos);
  ASSERT_OK(db->DeleteNote(bob_doc));
  EXPECT_EQ(sets->value(), 1);  // dropped with the last entry using it
}

TEST_F(ServerStatsFixture, SnapshotDiffBracketsAWorkload) {
  DatabaseOptions options;
  ASSERT_OK_AND_ASSIGN(Database * db, hub_->OpenDatabase("app.nsf", options));
  ASSERT_OK(db->CreateNote(MakeDoc("Memo", "one")).status());
  stats::StatSnapshot before = hub_->StatSnapshot();
  ASSERT_OK(db->CreateNote(MakeDoc("Memo", "two")).status());
  ASSERT_OK(db->CreateNote(MakeDoc("Memo", "three")).status());
  stats::StatSnapshot diff = DiffSnapshots(before, hub_->StatSnapshot());
  EXPECT_EQ(diff.counters.at("Database.Docs.Added"), 2u);
}

}  // namespace
}  // namespace dominodb
