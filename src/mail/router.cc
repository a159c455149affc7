#include "mail/router.h"

#include "base/hash.h"
#include "base/string_util.h"
#include "storage/note_store.h"

namespace dominodb {

namespace {

/// The UNID of the copy of memo `memo` handed to `destination`, the
/// `occurrence`-th for that destination. Every replay of the same hand-off
/// (a pass re-run after a crash) derives the same UNID, after the
/// replicator's ConflictUnidFor.
Unid CopyUnidFor(const Unid& memo, const std::string& destination,
                 size_t occurrence) {
  std::string seed = memo.ToString();
  seed += ':';
  seed += destination;
  seed += ':';
  seed += std::to_string(occurrence);
  return Unid{Fnv1a64(seed, 0x3A11), Fnv1a64(seed, 0xB0C5)};
}

}  // namespace

void MailDirectory::RegisterUser(const std::string& user,
                                 const std::string& home_server) {
  home_servers_[ToLower(user)] = home_server;
}

Result<std::string> MailDirectory::HomeServerOf(
    const std::string& user) const {
  auto it = home_servers_.find(ToLower(user));
  if (it == home_servers_.end()) {
    return Status::NotFound("no such user: " + user);
  }
  return it->second;
}

Note MakeMailMessage(const std::string& from,
                     const std::vector<std::string>& to,
                     const std::string& subject, const std::string& body) {
  Note memo(NoteClass::kDocument);
  memo.SetText("Form", "Memo");
  memo.SetText("From", from);
  memo.SetTextList("SendTo", to);
  memo.SetText("Subject", subject);
  memo.SetItem("Body", Value::RichText({RichTextRun{body, 0, ""}}));
  memo.SetNumber("$Hops", 0);
  return memo;
}

Router::Router(std::string server_name, Database* mailbox,
               const MailDirectory* directory, SimNet* net,
               stats::StatRegistry* stats)
    : server_name_(std::move(server_name)),
      mailbox_(mailbox),
      directory_(directory),
      net_(net),
      registry_(stats != nullptr ? stats : &stats::StatRegistry::Global()) {
  stats::StatRegistry& reg = *registry_;
  ctr_submitted_ = &reg.GetCounter("Mail.Submitted");
  ctr_delivered_ = &reg.GetCounter("Mail.Delivered");
  ctr_forwarded_ = &reg.GetCounter("Mail.Forwarded");
  ctr_dead_ = &reg.GetCounter("Mail.Dead");
  ctr_hops_ = &reg.GetCounter("Mail.Hops.Total");
  ctr_retries_ = &reg.GetCounter("Mail.Transfer.Retries");
}

void Router::DeadLetter(const std::string& user, const std::string& reason,
                        size_t copies) {
  stats_.dead_lettered += copies;
  ctr_dead_->Add(copies);
  registry_->events().Log(
      stats::Severity::kWarning, "Router",
      "mail undeliverable on " + server_name_ + ": " + user + " (" +
          reason + ")",
      mailbox_->clock() != nullptr ? mailbox_->clock()->Now() : 0);
}

void Router::InjectDeliveryFaultForTesting(const std::string& user,
                                           Status status) {
  delivery_fault_ = std::make_pair(ToLower(user), std::move(status));
}

void Router::SetFaultHookForTesting(
    std::function<Status(std::string_view)> hook) {
  fault_hook_ = std::move(hook);
}

Status Router::Fault(std::string_view point) {
  return fault_hook_ ? fault_hook_(point) : Status::Ok();
}

void Router::AttachMailFile(const std::string& user, Database* mail_file) {
  mail_files_[ToLower(user)] = mail_file;
}

void Router::SetNextHop(const std::string& destination,
                        const std::string& next_hop) {
  next_hops_[destination] = next_hop;
}

std::string Router::NextHopFor(const std::string& destination) const {
  auto it = next_hops_.find(destination);
  return it == next_hops_.end() ? destination : it->second;
}

Status Router::Submit(Note message) {
  if (!EqualsIgnoreCase(message.GetText("Form"), "Memo")) {
    return Status::InvalidArgument("not a mail memo");
  }
  stats_.submitted += 1;
  ctr_submitted_->Add();
  // Surface the store's real status: callers must be able to tell an IO
  // failure from a rejected memo.
  return mailbox_->CreateNote(std::move(message)).status();
}

Status Router::DeliverLocal(const std::string& user, size_t occurrence,
                            const Note& message) {
  auto it = mail_files_.find(ToLower(user));
  if (it == mail_files_.end()) {
    DeadLetter(user, "no mail file on " + server_name_);
    return Status::Ok();  // dead letter; routing continues
  }
  Note copy = message;
  copy.SetTime("DeliveredDate", mailbox_->clock() != nullptr
                                    ? mailbox_->clock()->Now()
                                    : 0);
  copy.SetText("DeliveredBy", server_name_);
  Result<bool> put = false;
  if (delivery_fault_.has_value() && delivery_fault_->first == ToLower(user)) {
    put = delivery_fault_->second;
    delivery_fault_.reset();
  } else {
    put = it->second->CreateNoteIfAbsent(
        CopyUnidFor(message.unid(), "file:" + ToLower(user), occurrence),
        std::move(copy));
  }
  if (!put.ok()) {
    // The mail file refused the copy; retrying cannot help, so the copy
    // dead-letters with the store's reason and the status propagates.
    DeadLetter(user, put.status().message());
    return put.status();
  }
  if (!*put) return Status::Ok();  // delivered by an earlier pass
  stats_.delivered += 1;
  stats_.hops_total += static_cast<uint64_t>(message.GetNumber("$Hops"));
  ctr_delivered_->Add();
  ctr_hops_->Add(static_cast<uint64_t>(message.GetNumber("$Hops")));
  return Status::Ok();
}

Status Router::RouteMessage(const Note& message,
                            const std::map<std::string, Router*>& peers,
                            std::vector<std::string>* retry_users,
                            Status* first_error) {
  const Value* send_to = message.FindValue("SendTo");
  std::vector<std::string> recipients =
      send_to != nullptr ? send_to->texts() : std::vector<std::string>();

  // Group recipients: local, per-remote-destination, unknown.
  std::vector<std::string> local_users;
  std::map<std::string, std::vector<std::string>> remote;  // dest → users
  for (const std::string& user : recipients) {
    auto home = directory_->HomeServerOf(user);
    if (!home.ok()) {
      DeadLetter(user, home.status().message());
      continue;
    }
    if (EqualsIgnoreCase(*home, server_name_)) {
      local_users.push_back(user);
    } else {
      remote[*home].push_back(user);
    }
  }

  // A recipient listed twice gets two copies: the occurrence index keeps
  // their UNIDs apart.
  std::map<std::string, size_t> occurrences;  // lower(user) → seen so far
  for (const std::string& user : local_users) {
    Status delivered =
        DeliverLocal(user, occurrences[ToLower(user)]++, message);
    if (!delivered.ok() && first_error->ok()) *first_error = delivered;
    DOMINO_RETURN_IF_ERROR(Fault("deliver"));
  }

  for (const auto& [destination, users] : remote) {
    std::string hop = NextHopFor(destination);
    auto peer_it = peers.find(hop);
    if (peer_it == peers.end()) {
      DeadLetter("(no route to " + destination + ")",
                 "next hop " + hop + " is not a known router",
                 users.size());
      continue;
    }
    Note copy = message;
    copy.SetTextList("SendTo", users);
    copy.SetNumber("$Hops", message.GetNumber("$Hops") + 1);
    std::string encoded = copy.EncodeToString();
    if (net_ != nullptr) {
      Status sent = net_->Transfer(server_name_, hop, encoded.size() + 16);
      if (!sent.ok()) {
        // The link ate the transfer (partition, flap, injected fault):
        // transient, so these copies stay queued for the next pass.
        stats_.transfer_retries += 1;
        ctr_retries_->Add();
        retry_users->insert(retry_users->end(), users.begin(), users.end());
        DOMINO_RETURN_IF_ERROR(Fault("forward"));
        continue;
      }
    }
    // One copy per destination group: the group's server is the
    // destination, whichever hop carries it.
    Result<bool> enqueued = peer_it->second->mailbox()->CreateNoteIfAbsent(
        CopyUnidFor(message.unid(), "server:" + destination, 0),
        std::move(copy));
    if (!enqueued.ok()) {
      // The peer's mail.box refused the copy: permanent for this pass's
      // purposes — dead-letter with the real reason and surface it.
      for (const std::string& user : users) {
        DeadLetter(user, enqueued.status().message());
      }
      if (first_error->ok()) *first_error = enqueued.status();
    } else if (*enqueued) {
      stats_.forwarded += 1;
      ctr_forwarded_->Add();
    }
    DOMINO_RETURN_IF_ERROR(Fault("forward"));
  }
  return Status::Ok();
}

Result<size_t> Router::RunOnce(const std::map<std::string, Router*>& peers) {
  // Snapshot pending messages first; delivery mutates the mailbox.
  std::vector<Note> pending;
  mailbox_->ForEachLiveNote([&](const Note& note) {
    if (EqualsIgnoreCase(note.GetText("Form"), "Memo")) {
      pending.push_back(note);
    }
  });

  // First mail-file write failure of the pass; surfaced after every
  // message has been given its chance (one sick mail file must not stall
  // the rest of the queue).
  Status first_error;
  // Per memo: the recipient copies still owed after this pass (transient
  // transfer failures only — every other outcome is delivery or a dead
  // letter).
  std::vector<std::vector<std::string>> retry_users(pending.size());

  {
    // Phase 1: every copy of the pass, then one sync per touched log, the
    // logs flushing at the same time.
    WriteScope scope;
    for (size_t i = 0; i < pending.size(); ++i) {
      DOMINO_RETURN_IF_ERROR(
          RouteMessage(pending[i], peers, &retry_users[i], &first_error));
    }
    DOMINO_RETURN_IF_ERROR(Fault("phase1:appended"));
    DOMINO_RETURN_IF_ERROR(scope.Finish());
    DOMINO_RETURN_IF_ERROR(Fault("phase1:synced"));
  }
  {
    // Phase 2: the copies are durable, so the memos may leave mail.box.
    WriteScope scope;
    for (size_t i = 0; i < pending.size(); ++i) {
      const Note& message = pending[i];
      const Value* send_to = message.FindValue("SendTo");
      const size_t recipients =
          send_to != nullptr ? send_to->texts().size() : 0;
      if (retry_users[i].empty()) {
        DOMINO_RETURN_IF_ERROR(mailbox_->DeleteNote(message.id()));
      } else if (retry_users[i].size() != recipients) {
        // Partial progress: rewrite the queued memo's recipient list to
        // the remainder, so the retry pass only routes the copies still
        // owed.
        Note requeued = message;
        requeued.SetTextList("SendTo", retry_users[i]);
        DOMINO_RETURN_IF_ERROR(mailbox_->UpdateNote(std::move(requeued)));
      }
      // else: no recipient progressed; the memo is left untouched.
    }
    DOMINO_RETURN_IF_ERROR(Fault("phase2:appended"));
    DOMINO_RETURN_IF_ERROR(scope.Finish());
    DOMINO_RETURN_IF_ERROR(Fault("phase2:synced"));
  }
  if (!first_error.ok()) return first_error;
  return pending.size();
}

}  // namespace dominodb
