#ifndef DOMINODB_MAIL_ROUTER_H_
#define DOMINODB_MAIL_ROUTER_H_

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "base/result.h"
#include "core/database.h"
#include "net/sim_net.h"
#include "stats/stats.h"

namespace dominodb {

/// The name-and-address book (Domino Directory) subset the router needs:
/// which server hosts each user's mail file. Shared by all servers of a
/// domain.
class MailDirectory {
 public:
  void RegisterUser(const std::string& user, const std::string& home_server);
  Result<std::string> HomeServerOf(const std::string& user) const;
  size_t user_count() const { return home_servers_.size(); }

 private:
  std::map<std::string, std::string> home_servers_;  // lower(user) → server
};

/// Builds a memo document (Form = "Memo") ready for Router::Submit.
Note MakeMailMessage(const std::string& from,
                     const std::vector<std::string>& to,
                     const std::string& subject, const std::string& body);

struct MailStats {
  uint64_t submitted = 0;
  uint64_t delivered = 0;     // copies placed into mail files
  uint64_t forwarded = 0;     // copies handed to another server
  uint64_t dead_lettered = 0; // unknown recipients + permanent failures
  uint64_t hops_total = 0;    // sum of per-message hop counts at delivery
  /// Transient transfer failures (the SimNet link ate the message) that
  /// left the affected copies queued for the next RunOnce pass.
  uint64_t transfer_retries = 0;
};

/// The router task of one server: drains the server's mail.box, delivering
/// local recipients into their mail files and forwarding remote
/// recipients toward their home server via the next-hop table (multi-hop
/// routing, as in Notes named networks).
///
/// Exactly-once hand-off. A pass runs in two phases, each one WriteScope:
/// phase 1 makes every local delivery and every forward of the pass and
/// syncs the logs it touched (this server's and the peers'), all at once,
/// as servers with a disk each would; only once every one of them is
/// durable does phase 2 delete (or requeue) the memos in mail.box and sync
/// again. A memo thus leaves mail.box only after its copies are durable,
/// and a phase-1 flush that fails on any log ends the pass before phase 2.
/// A crash before that re-routes the memo after restart, and every copy
/// carries a UNID derived from (memo UNID, destination, occurrence index),
/// created with Database::CreateNoteIfAbsent — so a copy that already
/// landed (or was since deleted by its owner) is skipped, not delivered
/// twice.
class Router {
 public:
  /// `stats` (nullable → the global registry) receives the server-wide
  /// `Mail.*` counters; dead letters also log a Warning event.
  Router(std::string server_name, Database* mailbox,
         const MailDirectory* directory, SimNet* net,
         stats::StatRegistry* stats = nullptr);

  /// Registers a locally hosted mail file.
  void AttachMailFile(const std::string& user, Database* mail_file);

  /// Explicit route: traffic for `destination` goes via `next_hop`.
  /// Without an entry the router sends directly.
  void SetNextHop(const std::string& destination,
                  const std::string& next_hop);

  /// Client submission into this server's mail.box. A mail.box write
  /// failure surfaces the store's real status (not a generic error).
  Status Submit(Note message);

  /// Processes every pending message once, in the two phases above.
  /// `peers` maps server names to
  /// their routers (the transport is the shared SimNet). Returns the
  /// number of messages processed (retained-for-retry messages count as
  /// processed, so drain loops keep polling while work remains).
  ///
  /// Failure handling, per recipient copy:
  ///  - transient transfer failures (the link dropped the message) keep
  ///    exactly the undelivered copies queued — the memo's recipient list
  ///    is rewritten to the remainder, so a resumed transfer can never
  ///    duplicate a delivery that already happened;
  ///  - a forward refused by a peer whose log is fail-stop (a flush of it
  ///    failed; see SharedLog::io_error) also keeps its copies queued:
  ///    the peer's disk is at fault, not the copy, and reopening the peer
  ///    clears it. Such a peer also never counts a copy that is only in
  ///    its memory as landed (Database::CreateNoteIfAbsent);
  ///  - permanent failures (unknown recipient, no route, a mail-file
  ///    write error, any other refusal by a peer's mail.box) dead-letter
  ///    the copy with the failing user and the real reason. The first
  ///    store failure's status, a fail-stopped peer's included, is
  ///    surfaced as the call's error after the pass completes.
  Result<size_t> RunOnce(const std::map<std::string, Router*>& peers);

  /// Test-only: forces the next local delivery for `user` to fail with
  /// `status` (cleared once it fires) — stands in for a store-level
  /// write failure, which the paged store offers no seam to inject.
  void InjectDeliveryFaultForTesting(const std::string& user, Status status);

  /// Test-only crash injection: when set, invoked at named points of
  /// RunOnce — "deliver" after each local recipient, "forward" after each
  /// destination group, "phase1:appended", "phase1:synced",
  /// "phase2:appended" and "phase2:synced" around each phase's
  /// WriteScope::Finish. A non-OK return aborts the pass there.
  void SetFaultHookForTesting(std::function<Status(std::string_view)> hook);

  const MailStats& stats() const { return stats_; }
  Database* mailbox() { return mailbox_; }
  const std::string& server_name() const { return server_name_; }

 private:
  /// Routes one memo (phase 1): delivers its local copies and forwards
  /// its remote ones. Appends the recipients whose transfer failed
  /// transiently to `retry_users`; records the first mail-file or peer
  /// write failure in `first_error`. Returns only a fault-hook abort.
  Status RouteMessage(const Note& message,
                      const std::map<std::string, Router*>& peers,
                      std::vector<std::string>* retry_users,
                      Status* first_error);
  /// Delivers copy `occurrence` (0 for a recipient's first entry in
  /// SendTo) into the user's local mail file. A missing mail file
  /// dead-letters and returns Ok (routing continues); a store write
  /// failure dead-letters with the real reason and returns that status.
  Status DeliverLocal(const std::string& user, size_t occurrence,
                      const Note& message);
  Status Fault(std::string_view point);
  std::string NextHopFor(const std::string& destination) const;
  void DeadLetter(const std::string& user, const std::string& reason,
                  size_t copies = 1);

  std::string server_name_;
  Database* mailbox_;
  const MailDirectory* directory_;
  SimNet* net_;
  std::map<std::string, Database*> mail_files_;  // lower(user) → db
  std::map<std::string, std::string> next_hops_;
  MailStats stats_;
  /// Armed by InjectDeliveryFaultForTesting: lower(user) → forced status.
  std::optional<std::pair<std::string, Status>> delivery_fault_;
  std::function<Status(std::string_view)> fault_hook_;

  // Server-wide mirrors of MailStats (dotted Domino stat names).
  stats::StatRegistry* registry_;
  stats::Counter* ctr_submitted_;
  stats::Counter* ctr_delivered_;
  stats::Counter* ctr_forwarded_;
  stats::Counter* ctr_dead_;
  stats::Counter* ctr_hops_;
  stats::Counter* ctr_retries_;
};

}  // namespace dominodb

#endif  // DOMINODB_MAIL_ROUTER_H_
