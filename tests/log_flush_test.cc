// WriteScope::Finish flushes the logs it touched at the same time, and a
// log whose flush fails stops alone. This executable defines its own
// fsync (as perfbench/device.cc does): the definition in the executable
// takes precedence over the C library's for every call the statically
// linked engine makes. The tests use it to hold flushes until several
// are in flight, and to fail the flushes of files under one directory.

#include <gtest/gtest.h>

#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "server/server.h"
#include "storage/note_store.h"
#include "tests/test_util.h"
#include "wal/shared_log.h"

namespace {

// State of the interposed fsync, all under `mu`.
std::mutex mu;
std::condition_variable cv;
// While > 0, each fsync waits (up to kRendezvousWait) until this many
// calls have arrived.
size_t rendezvous = 0;
size_t arrivals = 0;
size_t in_flight = 0;
size_t max_in_flight = 0;
// Directory → errno: an fsync of a file under the directory fails.
std::map<std::string, int> failing_dirs;

constexpr auto kRendezvousWait = std::chrono::seconds(5);

std::string PathOfFd(int fd) {
  char buf[PATH_MAX];
  const std::string link = "/proc/self/fd/" + std::to_string(fd);
  const ssize_t n = ::readlink(link.c_str(), buf, sizeof(buf));
  return n > 0 ? std::string(buf, static_cast<size_t>(n)) : std::string();
}

}  // namespace

extern "C" int fsync(int fd) {
  const std::string path = PathOfFd(fd);
  std::unique_lock<std::mutex> lock(mu);
  for (const auto& [dir, error] : failing_dirs) {
    if (path.compare(0, dir.size() + 1, dir + "/") == 0) {
      errno = error;
      return -1;
    }
  }
  if (rendezvous > 0) {
    ++arrivals;
    ++in_flight;
    max_in_flight = std::max(max_in_flight, in_flight);
    cv.notify_all();
    cv.wait_for(lock, kRendezvousWait, [] { return arrivals >= rendezvous; });
    --in_flight;
  }
  lock.unlock();
  return static_cast<int>(::syscall(SYS_fsync, fd));
}

namespace dominodb {
namespace {

using testing_util::ScratchDir;

/// Holds every fsync until `n` are in flight while alive; reports the
/// most that were.
class Rendezvous {
 public:
  explicit Rendezvous(size_t n) {
    std::lock_guard<std::mutex> lock(mu);
    rendezvous = n;
    arrivals = in_flight = max_in_flight = 0;
  }
  ~Rendezvous() {
    std::lock_guard<std::mutex> lock(mu);
    rendezvous = 0;
    cv.notify_all();
  }
  size_t most_in_flight() const {
    std::lock_guard<std::mutex> lock(mu);
    return max_in_flight;
  }
};

/// Fails every fsync of a file under `dir` with `error` while alive.
class FailFlushes {
 public:
  FailFlushes(const std::string& dir, int error)
      : dir_(std::filesystem::canonical(dir).string()) {
    std::lock_guard<std::mutex> lock(mu);
    failing_dirs[dir_] = error;
  }
  ~FailFlushes() {
    std::lock_guard<std::mutex> lock(mu);
    failing_dirs.erase(dir_);
  }

 private:
  std::string dir_;
};

/// One group-commit log with one stream.
struct Log {
  std::string dir;
  std::unique_ptr<wal::SharedLog> log;
  uint32_t stream = 0;

  Status Open() {
    DOMINO_ASSIGN_OR_RETURN(log, wal::SharedLog::Open(dir, {}));
    DOMINO_ASSIGN_OR_RETURN(stream, log->RegisterStream("db.nsf"));
    return Status::Ok();
  }

  /// Appends `payload` and leaves its sync to `scope`.
  Status AppendDeferred(WriteScope* scope, const std::string& payload) {
    DOMINO_ASSIGN_OR_RETURN(
        uint64_t seq, log->Append(stream, wal::RecordType::kData, payload));
    scope->Defer(log.get(), seq);
    return Status::Ok();
  }

  std::vector<std::string> Replay() const {
    std::vector<std::string> records;
    EXPECT_OK(log->ReplayStream(
        stream, [&](wal::RecordType, std::string_view payload) {
          records.emplace_back(payload);
          return Status::Ok();
        }));
    return records;
  }
};

class LogFlushTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (const char* name : {"a", "b", "c"}) {
      logs_.emplace_back();
      logs_.back().dir = dir_.Sub(name);
      ASSERT_OK(logs_.back().Open());
    }
  }

  ScratchDir dir_;
  std::vector<Log> logs_;
};

TEST_F(LogFlushTest, FinishFlushesEveryLogAtOnce) {
  WriteScope scope;
  for (Log& log : logs_) ASSERT_OK(log.AppendDeferred(&scope, "x"));
  Rendezvous all_three(3);
  EXPECT_OK(scope.Finish());
  EXPECT_EQ(all_three.most_in_flight(), 3u);
}

TEST_F(LogFlushTest, UnfinishedScopeFlushesEveryLogAtOnce) {
  Rendezvous all_three(3);
  {
    WriteScope scope;
    for (Log& log : logs_) ASSERT_OK(log.AppendDeferred(&scope, "x"));
  }
  EXPECT_EQ(all_three.most_in_flight(), 3u);
  for (Log& log : logs_) {
    EXPECT_EQ(log.Replay(), std::vector<std::string>{"x"});
  }
}

// A failed flush stops only its own log: the others' records are durable
// and they keep committing.
TEST_F(LogFlushTest, FailedFlushStopsOnlyItsLog) {
  Status finished;
  {
    FailFlushes fail_b(logs_[1].dir, EIO);
    WriteScope scope;
    for (Log& log : logs_) ASSERT_OK(log.AppendDeferred(&scope, "first"));
    finished = scope.Finish();
    ASSERT_EQ(finished.code(), StatusCode::kIOError) << finished.ToString();
  }
  // Fail-stop: the flush error is sticky, with no failing fsync left.
  Status again = logs_[1].log->Commit(logs_[1].stream,
                                      wal::RecordType::kData, "second");
  EXPECT_EQ(again.code(), StatusCode::kIOError);
  EXPECT_EQ(again.ToString(), finished.ToString());

  for (size_t i : {0u, 2u}) {
    Log& log = logs_[i];
    ASSERT_OK(log.log->Commit(log.stream, wal::RecordType::kData, "second"));
    log.log.reset();
    ASSERT_OK(log.Open());
    EXPECT_EQ(log.Replay(), (std::vector<std::string>{"first", "second"}));
  }
}

// The syncs overlap, yet the error returned is the first in the order the
// logs were first touched, not in the order the flushes failed.
TEST_F(LogFlushTest, FirstErrorFollowsTouchOrder) {
  FailFlushes fail_b(logs_[1].dir, EIO);
  FailFlushes fail_c(logs_[2].dir, ENOSPC);
  WriteScope scope;
  for (Log& log : logs_) ASSERT_OK(log.AppendDeferred(&scope, "x"));
  const Status finished = scope.Finish();
  EXPECT_NE(finished.ToString().find(std::strerror(EIO)), std::string::npos)
      << finished.ToString();
}

/// Two mail servers, alpha (user Ada) and beta (user Bea), each on its
/// own shared log under one scratch directory.
struct MailPair {
  ScratchDir dir;
  SimClock clock;
  SimNet net{&clock};
  MailDirectory directory;
  std::unique_ptr<Server> alpha;
  std::unique_ptr<Server> beta;

  MailPair() {
    clock.Set(1'000'000'000);
    alpha = Open("alpha", "Ada");
    beta = Open("beta", "Bea");
  }

  std::unique_ptr<Server> Open(const std::string& name,
                               const std::string& user) {
    auto server = std::make_unique<Server>(name, dir.Sub(name), &clock, &net,
                                           &directory);
    EXPECT_OK(server->EnableSharedLog());
    EXPECT_OK(server->EnsureMailInfrastructure());
    EXPECT_OK(server->CreateMailFile(user).status());
    return server;
  }
  void ReopenBeta() {
    beta.reset();
    beta = Open("beta", "Bea");
  }
  std::vector<Server*> fleet() { return {alpha.get(), beta.get()}; }
  std::string beta_log() { return dir.Sub("beta") + "/txnlog"; }
};

// A router pass whose peer log fails its phase-1 flush stops before phase
// 2, so the memo stays queued; once the peer is reopened, the next passes
// deliver each copy exactly once.
TEST(RouterFlushFailureTest, MemoStaysQueuedUntilThePeerLogIsDurable) {
  MailPair mail;
  Server* alpha = mail.alpha.get();
  ASSERT_OK(alpha->SendMail("Ada", {"Ada", "Bea"}, "hello", "body"));
  {
    FailFlushes fail_beta(mail.beta_log(), EIO);
    ASSERT_OK_AND_ASSIGN(auto peers, Server::RouterPeers(mail.fleet()));
    auto pass = alpha->RunRouterOnce(peers);
    ASSERT_FALSE(pass.ok());
    EXPECT_EQ(pass.status().code(), StatusCode::kIOError);
    EXPECT_EQ(alpha->router()->mailbox()->note_count(), 1u);
    EXPECT_EQ(alpha->MailFileOf("Ada")->note_count(), 1u);
  }
  mail.ReopenBeta();
  ASSERT_OK(Server::DrainRouters(mail.fleet()).status());
  EXPECT_EQ(alpha->MailFileOf("Ada")->note_count(), 1u);
  EXPECT_EQ(mail.beta->MailFileOf("Bea")->note_count(), 1u);
  EXPECT_EQ(alpha->router()->mailbox()->note_count(), 0u);
  EXPECT_EQ(mail.beta->router()->mailbox()->note_count(), 0u);
}

// The forwarded copy a failed flush left in beta's memory is no delivery:
// a second pass, beta not reopened, keeps the memo in alpha's mail.box
// (owing Bea only) instead of deleting it.
TEST(RouterFlushFailureTest, ACopyOnlyInAFailStoppedPeerIsNoDelivery) {
  MailPair mail;
  Server* alpha = mail.alpha.get();
  ASSERT_OK(alpha->SendMail("Ada", {"Ada", "Bea"}, "hello", "body"));
  ASSERT_OK_AND_ASSIGN(auto peers, Server::RouterPeers(mail.fleet()));
  {
    FailFlushes fail_beta(mail.beta_log(), EIO);
    EXPECT_FALSE(alpha->RunRouterOnce(peers).ok());
    auto second = alpha->RunRouterOnce(peers);
    ASSERT_FALSE(second.ok());
    EXPECT_EQ(second.status().code(), StatusCode::kIOError);
  }
  Database* mailbox = alpha->router()->mailbox();
  ASSERT_EQ(mailbox->note_count(), 1u);
  std::vector<std::string> owed;
  mailbox->ForEachLiveNote(
      [&owed](const Note& memo) { owed = memo.FindValue("SendTo")->texts(); });
  EXPECT_EQ(owed, std::vector<std::string>{"Bea"});
  EXPECT_EQ(alpha->router()->stats().dead_lettered, 0u);

  mail.ReopenBeta();
  ASSERT_OK(Server::DrainRouters(mail.fleet()).status());
  EXPECT_EQ(alpha->MailFileOf("Ada")->note_count(), 1u);
  EXPECT_EQ(mail.beta->MailFileOf("Bea")->note_count(), 1u);
  EXPECT_EQ(mailbox->note_count(), 0u);
}

// A memo sent after beta's log went fail-stop is deferred, not
// dead-lettered: it waits in alpha's mail.box until beta reopens, then
// lands exactly once.
TEST(RouterFlushFailureTest, AFailStoppedPeerDefersForwards) {
  MailPair mail;
  Server* alpha = mail.alpha.get();
  // A named options object: a temporary DatabaseOptions{} here draws a
  // GCC 12 -Wmaybe-uninitialized on its checkpoint_fault in Release.
  DatabaseOptions options;
  ASSERT_OK_AND_ASSIGN(Database * scratch,
                       mail.beta->OpenDatabase("scratch.nsf", options));
  {
    FailFlushes fail_beta(mail.beta_log(), EIO);
    Note note(NoteClass::kDocument);
    note.SetText("Form", "Scratch");
    EXPECT_FALSE(scratch->CreateNote(std::move(note)).ok());
  }
  ASSERT_FALSE(mail.beta->router()->mailbox()->store()->log_status().ok());
  ASSERT_OK(alpha->SendMail("Ada", {"Bea"}, "later", "body"));
  ASSERT_OK_AND_ASSIGN(auto peers, Server::RouterPeers(mail.fleet()));
  auto pass = alpha->RunRouterOnce(peers);
  ASSERT_FALSE(pass.ok());
  EXPECT_EQ(pass.status().code(), StatusCode::kIOError);
  EXPECT_EQ(alpha->router()->mailbox()->note_count(), 1u);
  EXPECT_EQ(alpha->router()->stats().dead_lettered, 0u);

  mail.ReopenBeta();
  ASSERT_OK(Server::DrainRouters(mail.fleet()).status());
  EXPECT_EQ(alpha->router()->stats().dead_lettered, 0u);
  EXPECT_EQ(alpha->router()->stats().forwarded, 1u);
  EXPECT_EQ(mail.beta->MailFileOf("Bea")->note_count(), 1u);
  EXPECT_EQ(alpha->router()->mailbox()->note_count(), 0u);
  EXPECT_EQ(mail.beta->router()->mailbox()->note_count(), 0u);
}

}  // namespace
}  // namespace dominodb
