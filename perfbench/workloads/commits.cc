// commits: write-heavy, closed loop, 4 client threads over 4 databases on
// one Server. The databases share one SharedLog in group-commit mode (a
// leader fdatasyncs each batch before any committer in it returns), and a
// 2-thread indexer pool maintains each database's view and full-text
// index. The buffer pool is deliberately small, and the checkpoint and
// compaction thresholds low, so page misses, evictions, checkpoints and
// compaction all happen within a run. 50 % read-modify-UpdateNote on
// uniform keys, 35 % CreateNote, 15 % DeleteNote.

#include <atomic>
#include <memory>
#include <optional>
#include <unordered_map>

#include "base/clock.h"
#include "base/env.h"
#include "server/server.h"
#include "workloads/docs.h"
#include "workloads/harness.h"
#include "workloads/workloads.h"

namespace perfbench {
namespace {

using namespace dominodb;

constexpr int kDbs = 4;
constexpr int kClients = 4;
constexpr int kInitialDocs = 1000;  // per database: > 4x the pool
constexpr size_t kBodyBytes = 300;
constexpr size_t kCachePages = 16;  // 64 KiB of 4 KiB pages
constexpr uint64_t kCheckpointBytes = 1 << 20;
constexpr uint64_t kCompactBytes = 1 << 20;
constexpr int kTailUpdates = 200;  // per database, before the reopen
constexpr const char* kView = "ByCategory";
enum Class { kUpdate, kCreate, kDelete, kRead };

/// The last acknowledged state of one note.
struct Expect {
  uint32_t sequence = 0;
  bool deleted = false;
  size_t bytes = 0;  // user bytes of the acknowledged version
};

/// One database plus the keys the clients may pick and what every
/// acknowledged write left behind.
struct DbState {
  std::string file;
  Database* db = nullptr;
  std::mutex mu;
  std::vector<NoteId> live;
  std::unordered_map<NoteId, size_t> live_pos;
  std::unordered_map<NoteId, Expect> expect;

  void AddLive(NoteId id, size_t bytes) {
    live_pos[id] = live.size();
    live.push_back(id);
    expect[id] = Expect{1, false, bytes};
  }
  /// Removes and returns a random live id (kInvalidNoteId if none).
  NoteId TakeLive(Rng* rng) {
    if (live.empty()) return kInvalidNoteId;
    const size_t pos = rng->Uniform(live.size());
    const NoteId id = live[pos];
    live[pos] = live.back();
    live_pos[live[pos]] = pos;
    live.pop_back();
    live_pos.erase(id);
    return id;
  }
};

struct Fixture {
  std::string dir;
  SystemClock clock;
  stats::StatRegistry registry;
  std::unique_ptr<Server> server;
  std::vector<std::unique_ptr<DbState>> dbs;
  /// User bytes of every live document (kept under the DbState locks).
  std::atomic<int64_t> live_bytes{0};
};

std::string FileOf(int i) { return "db" + std::to_string(i) + ".nsf"; }

DatabaseOptions Options(int i, uint64_t seed) {
  DatabaseOptions options;
  options.title = FileOf(i);
  options.unid_seed = seed * 16 + i + 1;
  options.store.cache_pages = kCachePages;
  options.store.checkpoint_threshold_bytes = kCheckpointBytes;
  options.store.compact_threshold_bytes = kCompactBytes;
  return options;
}

/// A server over `dir` with the shared group-commit log; opens (and
/// recovers) the workload's databases.
std::unique_ptr<Server> OpenServer(const std::string& dir, const Clock* clock,
                                   stats::StatRegistry* registry,
                                   uint64_t seed, bool indexer) {
  auto server = std::make_unique<Server>("commits", dir, clock, nullptr,
                                         nullptr, registry);
  wal::SharedLogOptions log;
  log.sync_mode = wal::SyncMode::kGroupCommit;
  log.segment_bytes = 1 << 20;
  Check(server->EnableSharedLog(log), "shared log");
  if (indexer) Check(server->StartIndexer(2), "indexer pool");
  for (int i = 0; i < kDbs; ++i) {
    Check(server->OpenDatabase(FileOf(i), Options(i, seed)).status(),
          "open " + FileOf(i));
  }
  return server;
}

std::unique_ptr<Fixture> Setup(const RunConfig& config) {
  auto f = std::make_unique<Fixture>();
  f->dir = config.data_dir + "/commits";
  Check(RemoveDirRecursively(f->dir), "clear data dir");
  f->server = OpenServer(f->dir, &f->clock, &f->registry, config.seed,
                         /*indexer=*/true);
  for (int i = 0; i < kDbs; ++i) {
    auto state = std::make_unique<DbState>();
    state->file = FileOf(i);
    state->db = f->server->FindDatabase(state->file);
    f->dbs.push_back(std::move(state));
  }
  // Initial load, one thread per database so the loads share log syncs.
  std::vector<std::thread> loaders;
  std::vector<Status> statuses(kDbs);
  for (int i = 0; i < kDbs; ++i) {
    loaders.emplace_back([&, i] {
      Rng rng(config.seed * 977 + i);
      DbState& s = *f->dbs[i];
      for (int d = 0; d < kInitialDocs && statuses[i].ok(); ++d) {
        Note doc = MakeDoc(&rng, kBodyBytes, "Record");
        const size_t bytes = doc.ByteSize();
        auto id = s.db->CreateNote(std::move(doc));
        if (!id.ok()) {
          statuses[i] = id.status();
        } else {
          s.AddLive(*id, bytes);
          f->live_bytes += bytes;
        }
      }
      if (!statuses[i].ok()) return;
      auto view = s.db->CreateView(CategorizedView(kView));
      statuses[i] = view.ok() ? s.db->EnsureFullTextIndex() : view.status();
    });
  }
  for (std::thread& t : loaders) t.join();
  for (const Status& status : statuses) Check(status, "initial load");
  return f;
}

}  // namespace

RunResult RunCommits(const RunConfig& config) {
  RunResult result;
  double setup_s = 0;
  std::unique_ptr<Fixture> f = TimedSetups<Fixture>(
      config.setups, [&] { return Setup(config); }, &setup_s);

  Checker checker;
  std::vector<Rng> rngs;
  for (int c = 0; c < kClients; ++c) rngs.emplace_back(config.seed * 131 + c);
  std::atomic<uint64_t> writes{0}, user_bytes{0}, conflicts{0};

  // Read-modify-write of a random live note; a race with another
  // client's update or delete is a conflict, not a failure.
  auto update_one = [&](DbState& s, Rng& rng, OpOutcome* out) {
    NoteId id = kInvalidNoteId;
    {
      std::lock_guard<std::mutex> lock(s.mu);
      if (!s.live.empty()) id = s.live[rng.Uniform(s.live.size())];
    }
    std::optional<Result<Note>> note;
    Status status;
    uint32_t read_sequence = 0;
    size_t bytes = 0;
    {
      Span op("op.update", true);
      out->read_us = TimeCall("storage.ReadNote",
                              [&] { note.emplace(s.db->ReadNote(id)); });
      if (note->ok()) {
        read_sequence = (*note)->sequence();
        SetSubjectAndBody(&**note, &rng, kBodyBytes);
        bytes = (*note)->ByteSize();
        TimeCall("storage.UpdateNote",
                 [&] { status = s.db->UpdateNote(*std::move(*note)); });
      } else {
        status = note->status();
      }
    }
    if (status.ok()) {
      writes += 1;
      user_bytes += bytes;
      std::lock_guard<std::mutex> lock(s.mu);
      Expect& e = s.expect[id];
      if (read_sequence + 1 > e.sequence) {
        e.sequence = read_sequence + 1;
        if (!e.deleted) f->live_bytes += int64_t(bytes) - int64_t(e.bytes);
        e.bytes = bytes;
      }
    } else if (status.IsConflict() || status.IsNotFound()) {
      conflicts += 1;
    } else {
      out->ok = false;
      checker.Fail("UpdateNote: " + status.ToString());
    }
  };

  auto step = [&](int client) {
    Rng& rng = rngs[client];
    DbState& s = *f->dbs[rng.Uniform(kDbs)];
    const uint64_t roll = rng.Uniform(100);
    OpOutcome out;
    const double start = NowSeconds();
    if (roll < 50) {
      out.op_class = kUpdate;
      update_one(s, rng, &out);
      out.us = (NowSeconds() - start) * 1e6;
    } else if (roll < 85) {
      out.op_class = kCreate;
      Note doc = MakeDoc(&rng, kBodyBytes, "Record");
      const size_t bytes = doc.ByteSize();
      std::optional<Result<NoteId>> id;
      {
        Span op("op.create", true);
        TimeCall("storage.CreateNote",
                 [&] { id.emplace(s.db->CreateNote(std::move(doc))); });
      }
      out.us = (NowSeconds() - start) * 1e6;
      if (id->ok()) {
        writes += 1;
        user_bytes += bytes;
        std::lock_guard<std::mutex> lock(s.mu);
        s.AddLive(**id, bytes);
        f->live_bytes += bytes;
      } else {
        out.ok = false;
        checker.Fail("CreateNote: " + id->status().ToString());
      }
    } else {
      out.op_class = kDelete;
      NoteId id;
      {
        std::lock_guard<std::mutex> lock(s.mu);
        id = s.TakeLive(&rng);
      }
      Status status;
      {
        Span op("op.delete", true);
        TimeCall("storage.DeleteNote", [&] { status = s.db->DeleteNote(id); });
      }
      out.us = (NowSeconds() - start) * 1e6;
      if (status.ok()) {
        writes += 1;
        std::lock_guard<std::mutex> lock(s.mu);
        s.expect[id].deleted = true;
        f->live_bytes -= s.expect[id].bytes;
      } else {
        out.ok = false;
        checker.Fail("DeleteNote " + std::to_string(id) + ": " +
                     status.ToString());
      }
    }
    return out;
  };

  LoopConfig loop_config;
  loop_config.clients = kClients;
  loop_config.warmup_seconds = 1;
  loop_config.seconds = config.seconds;
  loop_config.trace = config.trace;
  loop_config.class_names = {"update", "create", "delete", "read"};
  loop_config.read_class = kRead;
  loop_config.watched_gauges = {
      &f->registry.GetGauge("Db.Mvcc.LiveVersions"),
      &f->registry.GetGauge("Indexer.Queue.Depth")};
  std::vector<stats::StatSnapshot> before, after;
  uint64_t wchar0 = 0, wchar1 = 0, writes0 = 0, writes1 = 0, bytes0 = 0,
           bytes1 = 0, conflicts0 = 0, conflicts1 = 0;
  loop_config.on_measure_start = [&] {
    before = {f->registry.Snapshot(), stats::StatRegistry::Global().Snapshot()};
    wchar0 = WrittenBytes();
    writes0 = writes, bytes0 = user_bytes, conflicts0 = conflicts;
  };
  loop_config.on_measure_end = [&] {
    after = {f->registry.Snapshot(), stats::StatRegistry::Global().Snapshot()};
    wchar1 = WrittenBytes();
    writes1 = writes, bytes1 = user_bytes, conflicts1 = conflicts;
  };
  // Space amplification, sampled once a second: on-disk bytes of the
  // stores and the shared log over the live user bytes.
  std::vector<double> space_amp;
  loop_config.on_tick = [&] {
    space_amp.push_back(double(DirBytes(f->dir)) /
                        std::max<int64_t>(1, f->live_bytes.load()));
  };
  LoopResult loop = RunClosedLoop(loop_config, step);
  result.attempted = loop.attempted;
  result.failed = loop.failed;

  stats::StatSnapshot diff = MergedDiff(before, after);
  const double hits = diff.counters["Store.Cache.Hits"];
  const double misses = diff.counters["Store.Cache.Misses"];
  const double hit_ratio = hits / std::max(1.0, hits + misses);
  const double checkpoints = diff.counters["Database.Checkpoints"];
  const double compactions = diff.counters["Store.Compact.Runs"];
  Guard("pager.hit_ratio", hit_ratio, hit_ratio <= 0.97,
        "<= 0.97: the stores do not fit the buffer pool");
  Guard("storage.checkpoints", checkpoints, checkpoints >= 3, ">= 3");
  Guard("storage.compactions", compactions, compactions >= 1, ">= 1");
  const double write_amp =
      double(wchar1 - wchar0) / std::max<double>(1, bytes1 - bytes0);
  std::printf("write_amp %.4f (%llu bytes written for %llu user bytes)\n",
              write_amp, static_cast<unsigned long long>(wchar1 - wchar0),
              static_cast<unsigned long long>(bytes1 - bytes0));

  for (auto& s : f->dbs) Check(s->db->FlushIndexes(), "flush indexes");

  if (config.trace) {
    LayerInputs inputs;
    inputs.diff = std::move(diff);
    inputs.loop = &loop;
    inputs.writes = writes1 - writes0;
    inputs.extras["core.mvcc.live_versions_max"] = loop.gauge_max[0];
    inputs.extras["indexer.queue_depth_max"] = loop.gauge_max[1];
    inputs.extras["core.update_conflicts"] = double(conflicts1 - conflicts0);
    inputs.extras["storage.write_amp"] = write_amp;
    result.metrics = LayerMetrics(inputs);
    WriteSpans(config, "commits", loop.spans);
  } else {
    result.metrics["setup_s"] = setup_s;
    LatencyMetrics(loop, loop_config, &result.metrics);
  }

  // A fixed recovery tail: checkpoint, then kTailUpdates acknowledged
  // updates per database, so every run's reopen replays the same amount
  // of log (less than one checkpoint threshold).
  Rng tail_rng(config.seed ^ 0x7a11);
  for (auto& s : f->dbs) {
    Check(s->db->Checkpoint(), "checkpoint");
    for (int i = 0; i < kTailUpdates; ++i) {
      OpOutcome ignored;
      update_one(*s, tail_rng, &ignored);
    }
  }

  // Close, then reopen with recovery. Every acknowledged create, update
  // and delete must be visible with its last acknowledged sequence.
  std::vector<double> reopen_times;
  for (int i = 0; i < (config.trace ? 1 : 5); ++i) {
    f->server.reset();
    const double start = NowSeconds();
    f->server = OpenServer(f->dir, &f->clock, &f->registry, config.seed,
                           /*indexer=*/false);
    reopen_times.push_back(NowSeconds() - start);
  }
  for (auto& s : f->dbs) {
    Database* db = f->server->FindDatabase(s->file);
    for (const auto& [id, want] : s->expect) {
      auto note = db->ReadNote(id);
      if (want.deleted) {
        if (note.ok()) {
          checker.Fail(s->file + ": deleted note " + std::to_string(id) +
                       " is back after reopen");
        }
      } else if (!note.ok()) {
        checker.Fail(s->file + ": note " + std::to_string(id) +
                     " lost on reopen: " + note.status().ToString());
      } else if (note->sequence() != want.sequence) {
        checker.Fail(s->file + ": note " + std::to_string(id) +
                     " has sequence " + std::to_string(note->sequence()) +
                     ", last acknowledged " + std::to_string(want.sequence));
      }
    }
  }
  if (!config.trace) {
    result.metrics["reopen_s"] = Median(reopen_times);
    result.metrics["space_amp"] = Median(space_amp);
    result.metrics["rss_mb"] = PeakRssMb();
  }
  checker.Print();
  result.correct = checker.ok();
  return result;
}

}  // namespace perfbench
