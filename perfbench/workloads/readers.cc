// readers: read-only, closed loop, 4 client threads on one database whose
// data fits the buffer pool. 60 % ReadNote on Zipf-popular ids, 25 %
// ReadTxn + TraverseViewAs (ACL-filtered categorized view), 15 % SearchAs.

#include <atomic>
#include <optional>
#include <unordered_map>

#include "base/clock.h"
#include "base/env.h"
#include "core/database.h"
#include "workloads/docs.h"
#include "workloads/harness.h"
#include "workloads/workloads.h"

namespace perfbench {
namespace {

using namespace dominodb;

constexpr int kDocs = 2000;
constexpr size_t kBodyBytes = 1000;
constexpr int kUsers = 8;
constexpr int kClients = 4;
constexpr const char* kView = "Topics";
enum Class { kRead, kViewOp, kSearch };

struct Loaded {
  NoteId id = kInvalidNoteId;
  Unid unid;
  uint32_t sequence = 0;
};

struct Fixture {
  std::string dir;
  SystemClock clock;
  stats::StatRegistry registry;
  std::unique_ptr<Database> db;
  std::vector<Loaded> docs;
  std::unordered_map<NoteId, size_t> index_of;
  std::vector<Principal> users;
  std::vector<std::vector<char>> readable;  // [user][doc index]
  std::vector<size_t> readable_count;       // documents per user
  uint64_t user_bytes = 0;
};

DatabaseOptions Options(Fixture* f, uint64_t seed) {
  DatabaseOptions options;
  options.title = "readers";
  options.unid_seed = seed;
  options.stats = &f->registry;
  return options;
}

std::unique_ptr<Fixture> Setup(const RunConfig& config) {
  auto f = std::make_unique<Fixture>();
  f->dir = config.data_dir + "/readers";
  Check(RemoveDirRecursively(f->dir), "clear data dir");
  Check(CreateDirIfMissing(f->dir), "create data dir");
  auto db = Database::Open(f->dir, Options(f.get(), config.seed), &f->clock);
  Check(db.status(), "open database");
  f->db = std::move(*db);

  Rng rng(config.seed);
  for (int u = 0; u < kUsers; ++u) {
    f->users.push_back(Principal::User("user" + std::to_string(u)));
  }
  f->readable.assign(kUsers, std::vector<char>(kDocs, 1));
  for (int d = 0; d < kDocs; ++d) {
    Note doc = MakeDoc(&rng, kBodyBytes, "Topic");
    if (rng.Uniform(4) == 0) {  // a quarter carry reader fields
      const size_t a = rng.Uniform(kUsers);
      const size_t b = (a + 1 + rng.Uniform(kUsers - 1)) % kUsers;
      doc.SetItem("DocReaders",
                  Value::TextList({f->users[a].name, f->users[b].name}),
                  kItemReaders | kItemNames);
      for (size_t u = 0; u < kUsers; ++u) {
        f->readable[u][d] = (u == a || u == b);
      }
    }
    f->user_bytes += doc.ByteSize();
    auto id = f->db->CreateNote(std::move(doc));
    Check(id.status(), "create document");
    f->index_of[*id] = f->docs.size();
    f->docs.push_back(Loaded{*id, Unid(), 0});
  }
  for (Loaded& loaded : f->docs) {
    auto note = f->db->ReadNote(loaded.id);
    Check(note.status(), "read back document");
    loaded.unid = note->unid();
    loaded.sequence = note->sequence();
  }
  for (int u = 0; u < kUsers; ++u) {
    size_t count = 0;
    for (char r : f->readable[u]) count += r;
    f->readable_count.push_back(count);
  }
  Check(f->db->CreateView(CategorizedView(kView)).status(), "create view");
  Check(f->db->EnsureFullTextIndex(), "full-text index");
  return f;
}

}  // namespace

RunResult RunReaders(const RunConfig& config) {
  RunResult result;
  double setup_s = 0;
  std::unique_ptr<Fixture> f = TimedSetups<Fixture>(
      config.setups, [&] { return Setup(config); }, &setup_s);
  Database* db = f->db.get();
  const size_t view_size = db->FindView(kView)->size();

  Checker checker;
  Rng sampler_rng(config.seed ^ 0x5eed);
  ZipfSampler zipf(f->docs.size(), 0.99, &sampler_rng);
  std::vector<Rng> rngs;
  for (int c = 0; c < kClients; ++c) rngs.emplace_back(config.seed * 131 + c);
  std::atomic<uint64_t> rows_returned{0}, rows_possible{0};
  std::atomic<uint64_t> hits{0}, queries{0};

  auto step = [&](int client) {
    Rng& rng = rngs[client];
    const uint64_t roll = rng.Uniform(100);
    OpOutcome out;
    const double start = NowSeconds();
    if (roll < 60) {
      out.op_class = kRead;
      const Loaded& want = f->docs[zipf.Next(&rng)];
      std::optional<Result<Note>> note;
      {
        Span op("op.read", true);
        TimeCall("storage.ReadNote", [&] { note.emplace(db->ReadNote(want.id)); });
      }
      out.us = (NowSeconds() - start) * 1e6;
      if (!note->ok()) {
        out.ok = false;
        checker.Fail("ReadNote " + std::to_string(want.id) + ": " +
                     note->status().ToString());
      } else if ((*note)->unid() != want.unid ||
                 (*note)->sequence() != want.sequence) {
        checker.Fail("ReadNote " + std::to_string(want.id) +
                     " returned another UNID or sequence");
      }
    } else if (roll < 85) {
      out.op_class = kViewOp;
      const size_t u = rng.Uniform(kUsers);
      size_t doc_rows = 0;
      Status status;
      {
        Span op("op.view", true);
        std::optional<Database::ReadTxn> txn;
        TimeCall("core.ReadTxn", [&] { txn.emplace(db); });
        TimeCall("view.TraverseViewAs", [&] {
          status = db->TraverseViewAs(f->users[u], kView, [&](const ViewRow& row) {
            if (row.kind == ViewRow::Kind::kDocument) ++doc_rows;
          });
        });
      }
      out.us = (NowSeconds() - start) * 1e6;
      rows_returned += doc_rows;
      rows_possible += view_size;
      if (!status.ok()) {
        out.ok = false;
        checker.Fail("TraverseViewAs: " + status.ToString());
      } else if (doc_rows != f->readable_count[u]) {
        checker.Fail("TraverseViewAs as " + f->users[u].name + " returned " +
                     std::to_string(doc_rows) + " documents, expected " +
                     std::to_string(f->readable_count[u]));
      }
    } else {
      out.op_class = kSearch;
      const size_t u = rng.Uniform(kUsers);
      const std::string& word = Keywords()[rng.Uniform(Keywords().size())];
      std::optional<Result<std::vector<Note>>> found;
      {
        Span op("op.search", true);
        TimeCall("fulltext.SearchAs",
                 [&] { found.emplace(db->SearchAs(f->users[u], word)); });
      }
      out.us = (NowSeconds() - start) * 1e6;
      if (!found->ok()) {
        out.ok = false;
        checker.Fail("SearchAs: " + found->status().ToString());
      } else {
        queries += 1;
        hits += (*found)->size();
        if ((*found)->empty()) checker.Fail("SearchAs '" + word + "' found nothing");
        for (const Note& note : **found) {
          auto it = f->index_of.find(note.id());
          if (it == f->index_of.end() || !f->readable[u][it->second]) {
            checker.Fail("SearchAs returned a document " + f->users[u].name +
                         " may not read");
          }
        }
      }
    }
    return out;
  };

  LoopConfig loop_config;
  loop_config.clients = kClients;
  loop_config.warmup_seconds = 2;
  loop_config.seconds = config.seconds;
  loop_config.trace = config.trace;
  loop_config.class_names = {"read", "view", "search"};
  loop_config.read_class = kRead;
  loop_config.watched_gauges = {&f->registry.GetGauge("Db.Mvcc.LiveVersions")};
  std::vector<stats::StatSnapshot> before, after;
  auto snapshot = [&](std::vector<stats::StatSnapshot>* out) {
    *out = {f->registry.Snapshot(), stats::StatRegistry::Global().Snapshot()};
  };
  loop_config.on_measure_start = [&] { snapshot(&before); };
  loop_config.on_measure_end = [&] { snapshot(&after); };
  LoopResult loop = RunClosedLoop(loop_config, step);
  result.attempted = loop.attempted;
  result.failed = loop.failed;

  stats::StatSnapshot diff = MergedDiff(before, after);
  const double cache_hits = diff.counters["Store.Cache.Hits"];
  const double cache_misses = diff.counters["Store.Cache.Misses"];
  const double hit_ratio = cache_hits / std::max(1.0, cache_hits + cache_misses);
  Guard("pager.hit_ratio", hit_ratio, hit_ratio >= 0.99,
        ">= 0.99: the data fits the buffer pool");

  if (config.trace) {
    LayerInputs inputs;
    inputs.diff = std::move(diff);
    inputs.loop = &loop;
    inputs.extras["core.mvcc.live_versions_max"] = loop.gauge_max[0];
    inputs.extras["security.rows_returned_share"] =
        rows_possible > 0 ? double(rows_returned) / rows_possible : 0;
    inputs.extras["fulltext.hits_per_query"] =
        queries > 0 ? double(hits) / queries : 0;
    inputs.extras["fulltext.bytes_per_doc"] =
        double(db->fulltext()->ByteUsage()) /
        std::max<size_t>(1, db->fulltext()->doc_count());
    result.metrics = LayerMetrics(inputs);
    WriteSpans(config, "readers", loop.spans);
  } else {
    result.metrics["setup_s"] = setup_s;
    LatencyMetrics(loop, loop_config, &result.metrics);
    result.metrics["space_amp"] =
        double(DirBytes(f->dir)) / double(f->user_bytes);

    // Close, then reopen (recovery + index load) five times; every
    // loaded document must come back unchanged.
    f->db.reset();
    std::vector<double> reopen_times;
    for (int i = 0; i < 5; ++i) {
      const double start = NowSeconds();
      auto reopened = Database::Open(f->dir, Options(f.get(), config.seed),
                                     &f->clock);
      Check(reopened.status(), "reopen database");
      reopen_times.push_back(NowSeconds() - start);
      f->db = std::move(*reopened);
      if (f->db->FindView(kView) == nullptr) checker.Fail("view lost on reopen");
      f->db.reset();
    }
    result.metrics["reopen_s"] = Median(reopen_times);
    auto reopened =
        Database::Open(f->dir, Options(f.get(), config.seed), &f->clock);
    Check(reopened.status(), "reopen database");
    for (const Loaded& want : f->docs) {
      auto note = (*reopened)->ReadNote(want.id);
      if (!note.ok() || note->unid() != want.unid ||
          note->sequence() != want.sequence) {
        checker.Fail("document " + std::to_string(want.id) +
                     " changed across reopen");
      }
    }
    result.metrics["rss_mb"] = PeakRssMb();
  }
  checker.Print();
  result.correct = checker.ok();
  return result;
}

}  // namespace perfbench
