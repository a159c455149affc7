#include <gtest/gtest.h>

#include <filesystem>
#include <functional>

#include "mail/router.h"
#include "server/server.h"
#include "tests/test_util.h"

namespace dominodb {
namespace {

using testing_util::CopyDirTree;
using testing_util::ScratchDir;

class MailFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    clock_.Set(1'000'000'000);
    net_ = std::make_unique<SimNet>(&clock_);
    for (const char* name : {"alpha", "beta", "gamma"}) {
      servers_[name] = std::make_unique<Server>(
          name, dir_.Sub(name), &clock_, net_.get(), &directory_);
      ASSERT_OK(servers_[name]->EnsureMailInfrastructure());
    }
    ASSERT_OK(servers_["alpha"]->CreateMailFile("Ada").status());
    ASSERT_OK(servers_["alpha"]->CreateMailFile("Al").status());
    ASSERT_OK(servers_["beta"]->CreateMailFile("Bea").status());
    ASSERT_OK(servers_["gamma"]->CreateMailFile("Gil").status());
  }

  std::map<std::string, Router*> Peers() {
    std::map<std::string, Router*> peers;
    for (auto& [name, server] : servers_) {
      peers[name] = server->router();
    }
    return peers;
  }

  /// Runs every router until all mailboxes drain (or `max` passes).
  void RunAllRouters(int max = 10) {
    for (int i = 0; i < max; ++i) {
      size_t processed = 0;
      for (auto& [name, server] : servers_) {
        auto n = server->RunRouterOnce(Peers());
        ASSERT_OK(n);
        processed += *n;
      }
      if (processed == 0) return;
    }
  }

  size_t InboxCount(const std::string& server, const std::string& user) {
    Database* mail_file = servers_[server]->MailFileOf(user);
    EXPECT_NE(mail_file, nullptr);
    return mail_file != nullptr ? mail_file->note_count() : 0;
  }

  ScratchDir dir_;
  SimClock clock_;
  std::unique_ptr<SimNet> net_;
  MailDirectory directory_;
  std::map<std::string, std::unique_ptr<Server>> servers_;
};

TEST_F(MailFixture, LocalDelivery) {
  ASSERT_OK(servers_["alpha"]->SendMail("Al", {"Ada"}, "hi", "local note"));
  RunAllRouters();
  EXPECT_EQ(InboxCount("alpha", "Ada"), 1u);
  Database* inbox = servers_["alpha"]->MailFileOf("Ada");
  ASSERT_OK_AND_ASSIGN(auto memos, inbox->FormulaSearch("SELECT @All"));
  ASSERT_EQ(memos.size(), 1u);
  EXPECT_EQ(memos[0].GetText("Subject"), "hi");
  EXPECT_EQ(memos[0].GetText("From"), "Al");
  EXPECT_EQ(memos[0].GetText("DeliveredBy"), "alpha");
  EXPECT_TRUE(memos[0].HasItem("DeliveredDate"));
  // mail.box drained.
  EXPECT_EQ(servers_["alpha"]->router()->mailbox()->note_count(), 0u);
}

TEST_F(MailFixture, CrossServerDelivery) {
  ASSERT_OK(servers_["alpha"]->SendMail("Ada", {"Bea"}, "x-server", "body"));
  RunAllRouters();
  EXPECT_EQ(InboxCount("beta", "Bea"), 1u);
  EXPECT_GT(net_->StatsBetween("alpha", "beta").messages, 0u);
  const MailStats& stats = servers_["alpha"]->router()->stats();
  EXPECT_EQ(stats.forwarded, 1u);
}

TEST_F(MailFixture, MultiRecipientFanout) {
  ASSERT_OK(servers_["alpha"]->SendMail("Ada", {"Al", "Bea", "Gil"},
                                        "to everyone", "body"));
  RunAllRouters();
  EXPECT_EQ(InboxCount("alpha", "Al"), 1u);
  EXPECT_EQ(InboxCount("beta", "Bea"), 1u);
  EXPECT_EQ(InboxCount("gamma", "Gil"), 1u);
}

TEST_F(MailFixture, MultiHopRouting) {
  // alpha may not talk to gamma directly: route via beta.
  servers_["alpha"]->router()->SetNextHop("gamma", "beta");
  ASSERT_OK(servers_["alpha"]->SendMail("Ada", {"Gil"}, "via hub", "body"));
  RunAllRouters();
  EXPECT_EQ(InboxCount("gamma", "Gil"), 1u);
  // Traffic flowed alpha→beta and beta→gamma, not alpha→gamma.
  EXPECT_GT(net_->StatsBetween("alpha", "beta").messages, 0u);
  EXPECT_GT(net_->StatsBetween("beta", "gamma").messages, 0u);
  EXPECT_EQ(net_->StatsBetween("alpha", "gamma").messages, 0u);
  // The delivered copy shows two hops.
  Database* inbox = servers_["gamma"]->MailFileOf("Gil");
  ASSERT_OK_AND_ASSIGN(auto memos, inbox->FormulaSearch("SELECT @All"));
  ASSERT_EQ(memos.size(), 1u);
  EXPECT_EQ(memos[0].GetNumber("$Hops"), 2);
}

TEST_F(MailFixture, MultiHopDeliveryRetriesAcrossFaultyMiddleLink) {
  // 3-server chain: alpha may not talk to gamma directly, and the middle
  // link eats every transfer mid-flight until it heals.
  servers_["alpha"]->router()->SetNextHop("gamma", "beta");
  net_->SeedFaults(42);
  FaultProfile faulty;
  faulty.mid_transfer_probability = 1.0;
  net_->SetFaultProfile("beta", "gamma", faulty);

  ASSERT_OK(servers_["alpha"]->SendMail("Ada", {"Gil"}, "chain", "body"));
  RunAllRouters(5);

  // The memo crossed alpha→beta but is stuck retrying on beta→gamma.
  EXPECT_EQ(InboxCount("gamma", "Gil"), 0u);
  EXPECT_GT(servers_["beta"]->router()->stats().transfer_retries, 0u);
  EXPECT_GT(net_->StatsBetween("beta", "gamma").faults, 0u);
  EXPECT_GT(net_->StatsBetween("beta", "gamma").wasted_bytes, 0u);
  EXPECT_EQ(servers_["beta"]->router()->stats().dead_lettered, 0u);

  // Link heals: the queued copy delivers on the next passes, exactly once.
  net_->SetFaultProfile("beta", "gamma", FaultProfile{});
  RunAllRouters();
  EXPECT_EQ(InboxCount("gamma", "Gil"), 1u);
  Database* inbox = servers_["gamma"]->MailFileOf("Gil");
  ASSERT_OK_AND_ASSIGN(auto memos, inbox->FormulaSearch("SELECT @All"));
  ASSERT_EQ(memos.size(), 1u);
  EXPECT_EQ(memos[0].GetNumber("$Hops"), 2);  // alpha→beta, beta→gamma
  EXPECT_EQ(net_->StatsBetween("alpha", "gamma").messages, 0u);
  // Every router's mail.box drained; nothing dead-lettered.
  for (auto& [name, server] : servers_) {
    EXPECT_EQ(server->router()->mailbox()->note_count(), 0u) << name;
    EXPECT_EQ(server->router()->stats().dead_lettered, 0u) << name;
  }
}

TEST_F(MailFixture, NoDuplicateDeliveryOnResumedTransfer) {
  // One memo with a local and a remote recipient, where the remote leg
  // keeps failing: the local copy must not be re-delivered on retry
  // passes (the queued memo's recipient list shrinks to the remainder).
  ASSERT_OK(servers_["beta"]->CreateMailFile("Bob").status());
  net_->SeedFaults(7);
  FaultProfile faulty;
  faulty.mid_transfer_probability = 1.0;
  net_->SetFaultProfile("beta", "gamma", faulty);

  ASSERT_OK(servers_["beta"]->SendMail("Bea", {"Bob", "Gil"}, "split",
                                       "body"));
  RunAllRouters(5);

  // The local copy landed exactly once; the remote copy is still queued.
  EXPECT_EQ(InboxCount("beta", "Bob"), 1u);
  EXPECT_EQ(InboxCount("gamma", "Gil"), 0u);
  EXPECT_GT(servers_["beta"]->router()->stats().transfer_retries, 0u);
  EXPECT_EQ(servers_["beta"]->router()->mailbox()->note_count(), 1u);

  net_->SetFaultProfile("beta", "gamma", FaultProfile{});
  RunAllRouters();
  EXPECT_EQ(InboxCount("beta", "Bob"), 1u);  // still exactly one copy
  EXPECT_EQ(InboxCount("gamma", "Gil"), 1u);
  EXPECT_EQ(servers_["beta"]->router()->stats().delivered, 1u);
  EXPECT_EQ(servers_["beta"]->router()->stats().dead_lettered, 0u);
  EXPECT_EQ(servers_["beta"]->router()->mailbox()->note_count(), 0u);
}

TEST(RouterFailureTest, DeliveryFailurePropagatesRealStatusAndDeadLetters) {
  ScratchDir dir;
  SimClock clock;
  clock.Set(1'000'000'000);
  SimNet net(&clock);
  MailDirectory directory;
  stats::StatRegistry registry;
  Server solo("solo", dir.Sub("solo"), &clock, &net, &directory, &registry);
  ASSERT_OK(solo.EnsureMailInfrastructure());
  ASSERT_OK(solo.CreateMailFile("alice").status());
  ASSERT_OK(solo.CreateMailFile("bob").status());

  // Force bob's mail file to refuse the write with a concrete IO status.
  solo.router()->InjectDeliveryFaultForTesting(
      "bob", Status::IOError("simulated disk full on bob.nsf"));
  ASSERT_OK(solo.SendMail("alice", {"alice", "bob"}, "mixed", "body"));
  std::map<std::string, Router*> peers = {{"solo", solo.router()}};
  Result<size_t> run = solo.RunRouterOnce(peers);

  // The surfaced status is the store's, not a generic router error.
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kIOError);
  EXPECT_NE(run.status().message().find("simulated disk full"),
            std::string::npos);

  // Alice's copy still delivered; bob's copy dead-lettered exactly once,
  // and the registry counter agrees with the router's MailStats.
  const MailStats& mail = solo.router()->stats();
  EXPECT_EQ(mail.delivered, 1u);
  EXPECT_EQ(mail.dead_lettered, 1u);
  const stats::Counter* dead = registry.FindCounter("Mail.Dead");
  ASSERT_NE(dead, nullptr);
  EXPECT_EQ(dead->value(), mail.dead_lettered);
  EXPECT_EQ(registry.FindCounter("Mail.Delivered")->value(), mail.delivered);

  // The dead-letter event names the failing user AND the reason.
  bool event_found = false;
  for (const stats::Event& e : registry.events().Events()) {
    if (e.message.find("bob") != std::string::npos &&
        e.message.find("simulated disk full") != std::string::npos) {
      event_found = true;
    }
  }
  EXPECT_TRUE(event_found);

  // The memo was consumed (no infinite retry of a permanent failure), and
  // with the fault cleared the next memo delivers normally.
  EXPECT_EQ(solo.router()->mailbox()->note_count(), 0u);
  ASSERT_OK(solo.SendMail("alice", {"bob"}, "again", "body"));
  ASSERT_OK(solo.RunRouterOnce(peers).status());
  EXPECT_EQ(solo.MailFileOf("bob")->note_count(), 1u);
}

TEST_F(MailFixture, UnknownRecipientDeadLetters) {
  ASSERT_OK(servers_["alpha"]->SendMail("Ada", {"Nobody Real"}, "lost",
                                        "body"));
  RunAllRouters();
  EXPECT_EQ(servers_["alpha"]->router()->stats().dead_lettered, 1u);
  EXPECT_EQ(servers_["alpha"]->router()->stats().delivered, 0u);
}

TEST_F(MailFixture, MixedKnownAndUnknownRecipients) {
  ASSERT_OK(servers_["alpha"]->SendMail("Ada", {"Bea", "Ghost"}, "partial",
                                        "body"));
  RunAllRouters();
  EXPECT_EQ(InboxCount("beta", "Bea"), 1u);
  EXPECT_EQ(servers_["alpha"]->router()->stats().dead_lettered, 1u);
}

TEST_F(MailFixture, SubmitValidatesForm) {
  Note not_mail(NoteClass::kDocument);
  not_mail.SetText("Form", "Invoice");
  EXPECT_FALSE(servers_["alpha"]->router()->Submit(not_mail).ok());
}

// ------------------------------------------- crash at each router step --

// Three servers on group-commit shared logs: a router pass's copies sit
// unsynced in memory until its phase-1 Finish, and its mail.box deletes
// until its phase-2 Finish, so copying the fleet's directories at a fault
// hook point captures exactly what a crash there would leave.
class RouterCrashTest : public ::testing::Test {
 protected:
  using Fleet = std::vector<std::unique_ptr<Server>>;

  void SetUp() override {
    clock_.Set(1'000'000'000);
    net_ = std::make_unique<SimNet>(&clock_);
  }

  /// Opens (or reopens) the fleet stored under `base`.
  Fleet OpenFleet(const std::string& base) {
    Fleet fleet;
    for (const char* name : {"alpha", "beta", "gamma"}) {
      fleet.push_back(std::make_unique<Server>(
          name, base + "/" + name, &clock_, net_.get(), &directory_));
      EXPECT_OK(fleet.back()->EnableSharedLog());
      EXPECT_OK(fleet.back()->EnsureMailInfrastructure());
    }
    // alpha reaches gamma only through beta: forwards get forwarded.
    fleet[0]->router()->SetNextHop("gamma", "beta");
    for (const auto& [user, home] : kUsers) {
      EXPECT_OK(fleet[home]->CreateMailFile(user).status());
    }
    return fleet;
  }

  static std::vector<Server*> Raw(const Fleet& fleet) {
    std::vector<Server*> raw;
    for (const auto& server : fleet) raw.push_back(server.get());
    return raw;
  }

  /// Live copies in each user's mail file.
  static std::map<std::string, size_t> Inboxes(const Fleet& fleet) {
    std::map<std::string, size_t> counts;
    for (const auto& [user, home] : kUsers) {
      counts[user] = fleet[home]->MailFileOf(user)->note_count();
    }
    return counts;
  }

  /// Installs `hook` on every router of the fleet.
  static void SetHooks(const Fleet& fleet,
                       const std::function<Status(std::string_view)>& hook) {
    for (const auto& server : fleet) {
      server->router()->SetFaultHookForTesting(hook);
    }
  }

  static constexpr std::pair<const char*, int> kUsers[] = {
      {"Ada", 0}, {"Al", 0}, {"Bea", 1}, {"Gil", 2}};

  ScratchDir dir_;
  SimClock clock_;
  std::unique_ptr<SimNet> net_;
  MailDirectory directory_;
};

// Runs the same three memos once per hook point, copying the fleet at
// that point, then restarts the copy and drains it. Every recipient entry
// must end with exactly one copy — a memo to [Ada, Ada] with two — and
// delivered + dead must equal the copies submitted.
TEST_F(RouterCrashTest, EveryRecipientGetsExactlyOneCopyAfterACrashAnywhere) {
  const std::map<std::string, size_t> expected = {
      {"Ada", 3}, {"Al", 1}, {"Bea", 2}, {"Gil", 3}};
  constexpr size_t kSubmitted = 9;
  auto submit = [](const Fleet& fleet) {
    EXPECT_OK(fleet[0]->SendMail("Ada", {"Ada", "Ada", "Bea"}, "twice", "b"));
    EXPECT_OK(fleet[0]->SendMail("Al", {"Gil", "Bea", "Al"}, "hop", "b"));
    EXPECT_OK(fleet[1]->SendMail("Bea", {"Ada", "Gil", "Gil"}, "back", "b"));
  };

  // Dry run: count the hook points of a full drain.
  std::vector<std::string> points;
  {
    Fleet fleet = OpenFleet(dir_.Sub("dry"));
    submit(fleet);
    SetHooks(fleet, [&](std::string_view point) {
      points.emplace_back(point);
      return Status::Ok();
    });
    ASSERT_OK(Server::DrainRouters(Raw(fleet)).status());
    EXPECT_EQ(Inboxes(fleet), expected);
  }
  ASSERT_GT(points.size(), 8u);

  for (size_t crash_at = 0; crash_at < points.size(); ++crash_at) {
    SCOPED_TRACE("crash at hook call " + std::to_string(crash_at) + " (" +
                 points[crash_at] + ")");
    const std::string live = dir_.Sub("live");
    const std::string crashed = dir_.Sub("crashed");
    {
      Fleet fleet = OpenFleet(live);
      submit(fleet);
      size_t calls = 0;
      SetHooks(fleet, [&](std::string_view) {
        if (calls++ == crash_at) CopyDirTree(live, crashed);
        return Status::Ok();
      });
      ASSERT_OK(Server::DrainRouters(Raw(fleet)).status());
    }
    Fleet fleet = OpenFleet(crashed);
    ASSERT_OK(Server::DrainRouters(Raw(fleet)).status());
    const std::map<std::string, size_t> got = Inboxes(fleet);
    EXPECT_EQ(got, expected);
    size_t delivered = 0;
    for (const auto& [user, copies] : got) delivered += copies;
    size_t dead = 0;
    for (const auto& server : fleet) {
      dead += server->router()->stats().dead_lettered;
      EXPECT_EQ(server->router()->mailbox()->note_count(), 0u)
          << server->name();
    }
    EXPECT_EQ(delivered + dead, kSubmitted);
    fleet.clear();
    std::filesystem::remove_all(live);
    std::filesystem::remove_all(crashed);
  }
}

// A crash after a pass's copies are durable but before its memo left
// mail.box re-routes the memo on restart. A copy its owner deleted in
// between stays deleted: the stub still holds the copy's UNID.
TEST_F(RouterCrashTest, DeletedCopyIsNotRedeliveredAfterRestart) {
  const std::string live = dir_.Sub("live");
  const std::string crashed = dir_.Sub("crashed");
  {
    Fleet fleet = OpenFleet(live);
    ASSERT_OK(fleet[0]->SendMail("Al", {"Ada", "Bea"}, "read me", "b"));
    bool copied = false;
    fleet[0]->router()->SetFaultHookForTesting([&](std::string_view point) {
      if (point == "phase1:synced" && !copied) {
        CopyDirTree(live, crashed);
        copied = true;
      }
      return Status::Ok();
    });
    ASSERT_OK(Server::DrainRouters(Raw(fleet)).status());
    ASSERT_TRUE(copied);
  }
  Fleet fleet = OpenFleet(crashed);
  EXPECT_EQ(fleet[0]->router()->mailbox()->note_count(), 1u);
  Database* ada = fleet[0]->MailFileOf("Ada");
  ASSERT_EQ(ada->note_count(), 1u);
  std::vector<NoteId> ids;
  ada->ForEachLiveNote([&](const Note& note) { ids.push_back(note.id()); });
  ASSERT_OK(ada->DeleteNote(ids.at(0)));

  ASSERT_OK(Server::DrainRouters(Raw(fleet)).status());
  EXPECT_EQ(ada->note_count(), 0u);
  EXPECT_EQ(ada->stub_count(), 1u);
  EXPECT_EQ(fleet[1]->MailFileOf("Bea")->note_count(), 1u);
  EXPECT_EQ(fleet[0]->router()->mailbox()->note_count(), 0u);
  EXPECT_EQ(fleet[0]->router()->stats().delivered, 0u);
}

TEST(MailDirectoryTest, Lookup) {
  MailDirectory directory;
  directory.RegisterUser("Jo", "srv1");
  ASSERT_OK_AND_ASSIGN(std::string home, directory.HomeServerOf("JO"));
  EXPECT_EQ(home, "srv1");
  EXPECT_FALSE(directory.HomeServerOf("nobody").ok());
  directory.RegisterUser("Jo", "srv2");  // move mail file
  EXPECT_EQ(*directory.HomeServerOf("jo"), "srv2");
}

TEST(MailMessageTest, Shape) {
  Note memo = MakeMailMessage("From Me", {"You", "Them"}, "subj", "hello");
  EXPECT_EQ(memo.GetText("Form"), "Memo");
  EXPECT_EQ(memo.FindValue("SendTo")->texts().size(), 2u);
  EXPECT_EQ(memo.FindValue("Body")->runs()[0].text, "hello");
}

}  // namespace
}  // namespace dominodb
