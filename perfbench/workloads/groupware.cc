// groupware: the E17 fleet. Three servers with shared logs, indexer pools
// and mail routers; a discussion database of 2 000 topics replicated by
// scheduled replicator tasks (RunAllDue); 100 users with mail files. One
// client thread runs the users closed-loop on the SimClock: 20 % open
// view, 30 % read, 20 % send, 20 % edit, 10 % SearchAs. Router and
// replication passes run between operations on their sim schedule, and
// their wall time counts toward ops_per_s. See README.md for why there is
// only one client thread.

#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <queue>

#include "base/env.h"
#include "server/replication_scheduler.h"
#include "server/server.h"
#include "workloads/docs.h"
#include "workloads/harness.h"
#include "workloads/workloads.h"

namespace perfbench {
namespace {

using namespace dominodb;

constexpr int kServers = 3;
constexpr int kTopics = 2000;
constexpr size_t kTopicBodyBytes = 256;
constexpr int kUsers = 100;
constexpr Micros kTaskInterval = 500'000;  // router + replicator passes
constexpr const char* kDiscussion = "disc.nsf";
constexpr const char* kView = "Topics";
enum Class { kOpenView, kRead, kSend, kEdit, kSearch };

struct Fixture {
  std::string dir;
  SimClock clock{1'700'000'000'000'000};
  stats::StatRegistry registry;
  SimNet net{&clock, &registry};
  MailDirectory directory;
  std::vector<std::string> names;
  std::vector<std::unique_ptr<Server>> servers;  // after what they use
  std::vector<Server*> fleet;
  std::unique_ptr<ReplicationScheduler> scheduler;
  std::vector<Database*> replicas;
  std::map<std::string, Router*> peers;
  std::vector<Unid> topics;
  std::vector<std::string> users;
  std::vector<int> home_of;  // user → fleet index
};

/// Opens (or creates) the fleet's servers and every database they hold;
/// `create` also builds the design, seeds and replicates the topics.
void OpenFleet(Fixture* f, uint64_t seed, bool create) {
  f->fleet.clear();
  for (int s = 0; s < kServers; ++s) {
    f->servers.push_back(std::make_unique<Server>(
        f->names[s], f->dir + "/" + f->names[s], &f->clock, &f->net,
        &f->directory, &f->registry));
    Server* server = f->servers.back().get();
    f->fleet.push_back(server);
    Check(server->EnableSharedLog(), "shared log");
    if (create) Check(server->StartIndexer(2), "indexer");
    Check(server->EnsureMailInfrastructure(), "mail infrastructure");
  }
  DatabaseOptions options;
  options.title = "Discussion";
  options.unid_seed = seed;
  auto disc0 = f->fleet[0]->OpenDatabase(kDiscussion, options);
  Check(disc0.status(), "open discussion");
  if (create) {
    Check((*disc0)->CreateView(CategorizedView(kView)).status(), "view");
    Rng rng(seed);
    for (int d = 0; d < kTopics; ++d) {
      Check((*disc0)->CreateNote(MakeDoc(&rng, kTopicBodyBytes, "Topic"))
                .status(),
            "seed topic");
    }
    for (int s = 1; s < kServers; ++s) {
      Check(f->fleet[s]->CreateReplicaOf(**disc0, kDiscussion).status(),
            "create replica");
    }
  } else {
    for (int s = 1; s < kServers; ++s) {
      Check(f->fleet[s]->OpenDatabase(kDiscussion, options).status(),
            "open replica");
    }
  }
  for (int u = 0; u < kUsers; ++u) {
    Check(f->fleet[f->home_of[u]]->CreateMailFile(f->users[u]).status(),
          "mail file");
  }
}

std::unique_ptr<Fixture> Setup(const RunConfig& config) {
  auto f = std::make_unique<Fixture>();
  f->dir = config.data_dir + "/groupware";
  Check(RemoveDirRecursively(f->dir), "clear data dir");
  f->net.SetDefaultLink(/*latency=*/5'000, /*bytes_per_second=*/1'000'000);
  for (int s = 0; s < kServers; ++s) f->names.push_back("srv" + std::to_string(s));
  for (int u = 0; u < kUsers; ++u) {
    f->users.push_back("user" + std::to_string(u));
    f->home_of.push_back(u % kServers);
  }
  OpenFleet(f.get(), config.seed, /*create=*/true);
  f->scheduler = std::make_unique<ReplicationScheduler>(f->fleet, kDiscussion);
  f->scheduler->SetTopology(MeshTopology(f->names));
  Check(f->scheduler->RunUntilConverged(20).status(), "initial convergence");
  f->replicas = f->scheduler->Replicas();
  for (Database* replica : f->replicas) {
    Check(replica->EnsureFullTextIndex(), "full-text index");
  }
  Check(f->scheduler->InstallConnections(/*interval=*/1'000'000),
        "install connections");
  auto peers = Server::RouterPeers(f->fleet);
  Check(peers.status(), "router peers");
  f->peers = *peers;
  f->replicas[0]->ForEachLiveNote([&](const Note& note) {
    if (note.GetText("Form") == "Topic") f->topics.push_back(note.unid());
  });
  return f;
}

/// Live documents per database file, per server.
std::map<std::string, size_t> NoteCounts(const Fixture& f) {
  std::map<std::string, size_t> counts;
  for (Server* server : f.fleet) {
    for (const std::string& file : server->DatabaseFiles()) {
      counts[server->name() + "/" + file] =
          server->FindDatabase(file)->note_count();
    }
  }
  return counts;
}

}  // namespace

RunResult RunGroupware(const RunConfig& config) {
  RunResult result;
  double setup_s = 0;
  std::unique_ptr<Fixture> f = TimedSetups<Fixture>(
      config.setups, [&] { return Setup(config); }, &setup_s);

  Checker checker;
  Rng rng(config.seed * 131 + 7);
  using Wakeup = std::pair<Micros, int>;  // (due sim time, user)
  std::priority_queue<Wakeup, std::vector<Wakeup>, std::greater<Wakeup>> idle;
  for (int u = 0; u < kUsers; ++u) {
    idle.emplace(f->clock.Now() + rng.Range(1'000, 500'000), u);
  }
  Micros next_tasks = f->clock.Now() + kTaskInterval;
  uint64_t expected_copies = 0;  // recipient copies owed by submitted mail
  uint64_t writes = 0, edit_conflicts = 0, hits = 0, queries = 0;

  auto step = [&](int) {
    auto [due, u] = idle.top();
    idle.pop();
    if (due > f->clock.Now()) f->clock.Set(due);
    // Server tasks run on their own sim schedule between user actions.
    while (f->clock.Now() >= next_tasks) {
      for (Server* server : f->fleet) {
        Span task("mail.RunRouterOnce", true);
        Check(server->RunRouterOnce(f->peers).status(), "router pass");
      }
      {
        Span task("repl.RunAllDue", true);
        f->scheduler->RunAllDue(f->clock.Now());
      }
      next_tasks += kTaskInterval;
    }

    Server* home = f->fleet[f->home_of[u]];
    Database* db = home->FindDatabase(kDiscussion);
    const std::string& user = f->users[u];
    const uint64_t roll = rng.Uniform(100);
    OpOutcome out;
    const double start = NowSeconds();
    if (roll < 20) {  // open the categorized view at a pinned snapshot
      out.op_class = kOpenView;
      Span op("op.open_view", true);
      std::optional<Database::ReadTxn> txn;
      TimeCall("core.ReadTxn", [&] { txn.emplace(db); });
      size_t rows = 0;
      TimeCall("view.TraverseAt", [&] {
        db->FindView(kView)->TraverseAt(txn->epoch(),
                                        [&](const ViewRow&) { ++rows; });
      });
      if (rows < f->topics.size()) {
        checker.Fail("view shows " + std::to_string(rows) + " rows");
      }
    } else if (roll < 50) {  // read three topics under one pin
      out.op_class = kRead;
      Span op("op.read", true);
      std::optional<Database::ReadTxn> txn;
      TimeCall("core.ReadTxn", [&] { txn.emplace(db); });
      for (int r = 0; r < 3; ++r) {
        const Unid& unid = f->topics[rng.Uniform(f->topics.size())];
        TimeCall("storage.ReadNoteByUnid", [&] {
          auto note = db->ReadNoteByUnid(unid);
          if (!note.ok()) {
            out.ok = false;
            checker.Fail("read topic: " + note.status().ToString());
          }
        });
      }
    } else if (roll < 70) {  // send a memo through the home router
      out.op_class = kSend;
      std::vector<std::string> to;
      const size_t fanout = 1 + rng.Uniform(3);
      for (size_t r = 0; r < fanout; ++r) {
        to.push_back(f->users[rng.Uniform(f->users.size())]);
      }
      Note memo = MakeMailMessage(user, to, rng.Word(4, 12), rng.Word(20, 60));
      memo.SetTime("PostedDate", f->clock.Now());
      Span op("op.send", true);
      Status sent;
      TimeCall("mail.Submit",
               [&] { sent = home->router()->Submit(std::move(memo)); });
      if (sent.ok()) {
        expected_copies += to.size();
        ++writes;
      } else {
        out.ok = false;
        checker.Fail("Submit: " + sent.ToString());
      }
    } else if (roll < 90) {  // edit a topic on the local replica
      out.op_class = kEdit;
      Span op("op.edit", true);
      std::optional<Result<Note>> note;
      const Unid& unid = f->topics[rng.Uniform(f->topics.size())];
      TimeCall("storage.ReadNoteByUnid",
               [&] { note.emplace(db->ReadNoteByUnid(unid)); });
      Status updated = note->status();
      if (note->ok()) {
        (*note)->SetText("Subject", Keywords()[rng.Uniform(Keywords().size())] +
                                        " edited by " + user);
        TimeCall("storage.UpdateNote",
                 [&] { updated = db->UpdateNote(*std::move(*note)); });
      }
      if (updated.ok()) {
        ++writes;
      } else if (updated.IsConflict()) {
        ++edit_conflicts;  // counted apart from failures
      } else {
        out.ok = false;
        checker.Fail("edit: " + updated.ToString());
      }
    } else {  // full-text search as this user
      out.op_class = kSearch;
      Span op("op.search", true);
      const std::string& word = Keywords()[rng.Uniform(Keywords().size())];
      TimeCall("fulltext.SearchAs", [&] {
        auto found = db->SearchAs(Principal::User(user), word);
        if (!found.ok()) {
          out.ok = false;
          checker.Fail("SearchAs: " + found.status().ToString());
        } else {
          ++queries;
          hits += found->size();
        }
      });
    }
    out.us = (NowSeconds() - start) * 1e6;
    idle.emplace(f->clock.Now() + rng.Range(200'000, 2'000'000), u);
    return out;
  };

  LoopConfig loop_config;
  loop_config.clients = 1;
  loop_config.warmup_seconds = 1;
  loop_config.seconds = config.seconds;
  loop_config.trace = config.trace;
  loop_config.class_names = {"open_view", "read", "send", "edit", "search"};
  loop_config.read_class = kRead;
  loop_config.watched_gauges = {
      &f->registry.GetGauge("Db.Mvcc.LiveVersions"),
      &f->registry.GetGauge("Indexer.Queue.Depth")};
  std::vector<stats::StatSnapshot> before, after;
  uint64_t writes0 = 0, writes1 = 0, conflicts0 = 0, conflicts1 = 0;
  loop_config.on_measure_start = [&] {
    before = {f->registry.Snapshot(), stats::StatRegistry::Global().Snapshot()};
    writes0 = writes, conflicts0 = edit_conflicts;
  };
  loop_config.on_measure_end = [&] {
    after = {f->registry.Snapshot(), stats::StatRegistry::Global().Snapshot()};
    writes1 = writes, conflicts1 = edit_conflicts;
  };
  LoopResult loop = RunClosedLoop(loop_config, step);
  result.attempted = loop.attempted;
  result.failed = loop.failed;

  // -- Quiesce: drain mail, converge replicas, flush indexers ------------
  for (int round = 0; round < 10; ++round) {
    Check(Server::DrainRouters(f->fleet, 20).status(), "final router drain");
    f->clock.Advance(1'000'000);
    bool empty = true;
    for (Server* server : f->fleet) {
      if (server->router()->mailbox()->note_count() != 0) empty = false;
    }
    if (empty) break;
  }
  Check(f->scheduler->RunUntilConverged(50).status(), "final convergence");
  for (Database* replica : f->replicas) Check(replica->FlushIndexes(), "flush");

  // -- E17 invariants -----------------------------------------------------
  uint64_t delivered = 0, dead = 0;
  for (Server* server : f->fleet) {
    delivered += server->router()->stats().delivered;
    dead += server->router()->stats().dead_lettered;
  }
  if (delivered + dead != expected_copies) {
    checker.Fail("mail: delivered " + std::to_string(delivered) + " + dead " +
                 std::to_string(dead) + " != submitted copies " +
                 std::to_string(expected_copies));
  }
  const stats::Gauge* live = f->registry.FindGauge("Db.Mvcc.LiveVersions");
  if (live != nullptr && live->value() != 0) {
    checker.Fail("Db.Mvcc.LiveVersions = " + std::to_string(live->value()) +
                 " after quiesce");
  }
  if (!DatabasesConverged(f->replicas)) {
    checker.Fail("discussion replicas did not converge");
  }

  stats::StatSnapshot diff = MergedDiff(before, after);
  if (config.trace) {
    LayerInputs inputs;
    inputs.diff = std::move(diff);
    inputs.loop = &loop;
    inputs.writes = writes1 - writes0;
    inputs.extras["core.mvcc.live_versions_max"] = loop.gauge_max[0];
    inputs.extras["indexer.queue_depth_max"] = loop.gauge_max[1];
    inputs.extras["core.update_conflicts"] = double(conflicts1 - conflicts0);
    inputs.extras["fulltext.hits_per_query"] =
        queries > 0 ? double(hits) / queries : 0;
    inputs.extras["fulltext.bytes_per_doc"] =
        double(f->replicas[0]->fulltext()->ByteUsage()) /
        std::max<size_t>(1, f->replicas[0]->fulltext()->doc_count());
    result.metrics = LayerMetrics(inputs);
    WriteSpans(config, "groupware", loop.spans);
  } else {
    result.metrics["setup_s"] = setup_s;
    LatencyMetrics(loop, loop_config, &result.metrics);

    // Close the fleet and reopen it (recovery of every database); every
    // database must come back with the documents it had.
    const std::map<std::string, size_t> counts = NoteCounts(*f);
    std::vector<double> reopen_times;
    for (int i = 0; i < 3; ++i) {
      f->scheduler.reset();
      f->replicas.clear();
      f->fleet.clear();
      f->servers.clear();
      const double start = NowSeconds();
      OpenFleet(f.get(), config.seed, /*create=*/false);
      reopen_times.push_back(NowSeconds() - start);
    }
    result.metrics["reopen_s"] = Median(reopen_times);
    if (NoteCounts(*f) != counts) {
      checker.Fail("document counts changed across reopen");
    }
    uint64_t live_bytes = 0;
    for (Server* server : f->fleet) {
      for (const std::string& file : server->DatabaseFiles()) {
        Database* db = server->FindDatabase(file);
        db->ForEachLiveNote([&](const Note& note) {
          if (note.note_class() == NoteClass::kDocument) {
            live_bytes += note.ByteSize();
          }
        });
        Check(db->Checkpoint(), "checkpoint");
      }
    }
    result.metrics["space_amp"] =
        double(DirBytes(f->dir)) / std::max<double>(1, live_bytes);
    result.metrics["rss_mb"] = PeakRssMb();
  }
  checker.Print();
  result.correct = checker.ok();
  return result;
}

}  // namespace perfbench
