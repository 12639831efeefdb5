#include "replication/coordinator.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "server/wire.h"
#include "storage/commit_pipeline/segmented_wal.h"

namespace hm::replication {

namespace {

std::string ErrnoMessage(const char* what, const std::string& path) {
  return std::string(what) + " " + path + ": " + std::strerror(errno);
}

}  // namespace

std::string_view RoleName(Role role) {
  switch (role) {
    case Role::kPrimary:
      return "primary";
    case Role::kReplica:
      return "replica";
    case Role::kFenced:
      return "fenced";
  }
  return "unknown";
}

Coordinator::Coordinator(const CoordinatorOptions& options)
    : options_(options) {
  auto& reg = telemetry::Registry::Global();
  epoch_gauge_ = reg.GetGauge("replication.epoch");
  role_gauge_ = reg.GetGauge("replication.role");
  semisync_timeouts_ = reg.GetCounter("replication.semisync_timeouts");
  promotions_ = reg.GetCounter("replication.promotions");
  fences_ = reg.GetCounter("replication.fences");
}

Coordinator::~Coordinator() { Shutdown(); }

util::Result<std::unique_ptr<Coordinator>> Coordinator::Open(
    const CoordinatorOptions& options, bool as_replica) {
  std::unique_ptr<Coordinator> coordinator(new Coordinator(options));
  uint64_t epoch = 1;
  int fenced = 0;
  bool had_state = false;
  FILE* f = std::fopen(coordinator->StatePath().c_str(), "r");
  if (f != nullptr) {
    unsigned long long stored = 0;
    if (std::fscanf(f, "%llu %d", &stored, &fenced) == 2 && stored > 0) {
      epoch = stored;
      had_state = true;
    }
    std::fclose(f);
  }

  Role role;
  if (as_replica) {
    // A fence records "my chain was superseded"; a replica replays
    // someone else's chain, so the fence does not apply — but the
    // epoch floor does (a promotion must still exceed it).
    role = Role::kReplica;
  } else {
    role = fenced != 0 ? Role::kFenced : Role::kPrimary;
  }
  coordinator->epoch_.store(epoch, std::memory_order_release);
  coordinator->role_.store(role, std::memory_order_release);
  coordinator->epoch_gauge_->Set(static_cast<int64_t>(epoch));
  coordinator->role_gauge_->Set(static_cast<int64_t>(role));
  if (!had_state) {
    HM_RETURN_IF_ERROR(coordinator->PersistState(epoch, fenced != 0));
  }
  return coordinator;
}

util::Status Coordinator::PersistState(uint64_t epoch, bool fenced) {
  const std::string path = StatePath();
  const std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return util::Status::IoError(ErrnoMessage("open", tmp));
  std::string text =
      std::to_string(epoch) + " " + (fenced ? "1" : "0") + "\n";
  util::Status status = util::Status::Ok();
  if (::write(fd, text.data(), text.size()) !=
      static_cast<ssize_t>(text.size())) {
    status = util::Status::IoError(ErrnoMessage("write", tmp));
  }
  if (status.ok() && ::fsync(fd) != 0) {
    status = util::Status::IoError(ErrnoMessage("fsync", tmp));
  }
  ::close(fd);
  if (!status.ok()) return status;
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    return util::Status::IoError(ErrnoMessage("rename", path));
  }
  int dfd = ::open(options_.state_dir.c_str(), O_RDONLY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
  return util::Status::Ok();
}

util::Status Coordinator::ServePrimary(backends::OodbStore* store,
                                       bool chain_complete) {
  store_ = store;
  if (role() == Role::kFenced) {
    // Deposed while down. Serve reads, refuse writes, ship nothing —
    // this chain was superseded by the epoch that fenced us.
    std::fprintf(stderr,
                 "replication: node is fenced at epoch %llu; serving "
                 "read-only, not shipping\n",
                 static_cast<unsigned long long>(epoch()));
    return util::Status::Ok();
  }
  shipper_owner_ = std::make_unique<WalShipper>(store->object_store()->wal(),
                                                chain_complete);
  shipper_.store(shipper_owner_.get(), std::memory_order_release);
  return util::Status::Ok();
}

util::Status Coordinator::ServeReplica(const ReplicatorOptions& options,
                                       backends::OodbStore* store,
                                       ExclusiveHook exclusive) {
  store_ = store;
  replicator_ =
      std::make_unique<Replicator>(options, store, std::move(exclusive));
  return replicator_->Start();
}

void Coordinator::Shutdown() {
  if (replicator_ != nullptr) replicator_->Stop();
}

uint64_t Coordinator::DurableLsn() const {
  switch (role_.load(std::memory_order_acquire)) {
    case Role::kPrimary:
    case Role::kFenced:
      // Primary: everything appended to the local WAL. (Fenced: same —
      // the chain is dead but the question "how far did it get" still
      // has this answer.)
      return store_ != nullptr
                 ? store_->object_store()->wal()->NextLsn()
                 : 0;
    case Role::kReplica:
      return replicator_ != nullptr ? replicator_->replayed_lsn() : 0;
  }
  return 0;
}

util::Status Coordinator::CheckMutation() {
  switch (role_.load(std::memory_order_acquire)) {
    case Role::kPrimary:
      return util::Status::Ok();
    case Role::kReplica:
      return util::Status::ReadOnly(
          "replica: writes must go to the primary");
    case Role::kFenced:
      return util::Status::FencedOff(
          "fenced: a newer primary holds epoch " +
          std::to_string(epoch_.load(std::memory_order_acquire)));
  }
  return util::Status::Internal("unknown replication role");
}

util::Status Coordinator::WaitCommitReplicated() {
  WalShipper* shipper = this->shipper();
  if (role_.load(std::memory_order_acquire) != Role::kPrimary ||
      shipper == nullptr || store_ == nullptr) {
    return util::Status::Ok();
  }
  if (shipper->follower_count() == 0) return util::Status::Ok();
  // NextLsn is past every record appended before this commit, its own
  // kCommit included when it wrote. A read-only commit has no record
  // of its own, so the target can sit just past a kAbort or
  // kCheckpoint; the follower acks at each of those as at a kCommit.
  const uint64_t lsn = store_->object_store()->wal()->NextLsn();
  if (!shipper->WaitAcked(lsn, options_.semisync_timeout_ms)) {
    // Degrade to asynchronous for this commit rather than failing it:
    // the write IS durable locally, and the oracle for "acked edits
    // survive failover" only covers acks — which this path delays
    // past the replication gap it would otherwise hide.
    semisync_timeouts_->Add(1);
  }
  return util::Status::Ok();
}

util::Result<server::ReplChain> Coordinator::HandleSubscribe(
    uint64_t wire_version, uint64_t follower_id, uint64_t resume_seq) {
  WalShipper* shipper = this->shipper();
  if (role_.load(std::memory_order_acquire) != Role::kPrimary ||
      shipper == nullptr) {
    return util::Status::Unavailable(
        "replication: not a shipping primary (role " +
        std::string(RoleName(role())) + ")");
  }
  if (wire_version != server::kWireVersion) {
    return util::Status::VersionMismatch(
        "replication: follower speaks wire v" + std::to_string(wire_version) +
        ", primary speaks v" + std::to_string(server::kWireVersion));
  }
  server::ReplChain chain;
  HM_RETURN_IF_ERROR(shipper->Subscribe(follower_id, resume_seq,
                                        &chain.next_lsn, &chain.oldest_seq));
  chain.epoch = epoch_.load(std::memory_order_acquire);
  return chain;
}

util::Result<server::ReplChunk> Coordinator::HandleSegment(
    uint64_t seq, uint64_t offset, uint64_t max_bytes) {
  WalShipper* shipper = this->shipper();
  if (shipper == nullptr) {
    return util::Status::Unavailable(
        "replication: not a shipping primary (role " +
        std::string(RoleName(role())) + ")");
  }
  server::ReplChunk chunk;
  HM_RETURN_IF_ERROR(shipper->Serve(seq, offset, max_bytes, &chunk.bytes,
                                    &chunk.sealed, &chunk.flushed_size));
  return chunk;
}

util::Result<server::ReplPeer> Coordinator::HandleStatus(
    uint64_t follower_id, uint64_t replayed_lsn) {
  WalShipper* shipper = this->shipper();
  if (follower_id != 0 && shipper != nullptr) {
    shipper->Ack(follower_id, replayed_lsn);
  }
  server::ReplPeer peer;
  peer.role = static_cast<uint8_t>(role_.load(std::memory_order_acquire));
  peer.epoch = epoch_.load(std::memory_order_acquire);
  peer.durable_lsn = DurableLsn();
  return peer;
}

util::Result<uint64_t> Coordinator::HandlePromote(uint64_t proposed) {
  // Runs under the server's exclusive dispatch lock (kReplPromote is
  // not a read-only opcode), so no request is in flight and the
  // replicator's apply hook cannot be mid-apply.
  const uint64_t current = epoch_.load(std::memory_order_acquire);
  const Role current_role = role_.load(std::memory_order_acquire);
  if (proposed == current && current_role == Role::kPrimary) {
    // Idempotent retry: the promotion already happened (possibly on a
    // previous connection that died after persisting).
    return current;
  }
  if (proposed <= current) {
    return util::Status::InvalidArgument(
        "stale promotion epoch " + std::to_string(proposed) +
        " (current is " + std::to_string(current) + ")");
  }
  if (current_role == Role::kFenced) {
    return util::Status::FencedOff(
        "fenced node cannot be promoted: its chain was superseded at epoch " +
        std::to_string(current) + "; re-seed it first");
  }
  if (store_ == nullptr) {
    return util::Status::Internal("replication: no store wired");
  }

  if (current_role == Role::kReplica) {
    // 1. Apply every fully-received commit still queued; after this
    //    the local store state equals the acked state.
    if (replicator_ != nullptr) replicator_->FinalizeForPromotion();
    // 2. Make that state durable in the *local* store. Replicated
    //    applies bypassed the local WAL, so without this full
    //    checkpoint a post-promotion crash would forget them: the
    //    local chain alone must now reconstruct the store.
    HM_RETURN_IF_ERROR(store_->object_store()->Checkpoint());
  }
  // 3. Persist the epoch BEFORE replying: if we crash after this, the
  //    client's retry finds the epoch in force and the idempotent
  //    branch answers it.
  HM_RETURN_IF_ERROR(PersistState(proposed, false));
  epoch_.store(proposed, std::memory_order_release);
  role_.store(Role::kPrimary, std::memory_order_release);
  epoch_gauge_->Set(static_cast<int64_t>(proposed));
  role_gauge_->Set(static_cast<int64_t>(Role::kPrimary));
  promotions_->Add(1);
  // 4. Start shipping our own chain. It is NOT replayable from empty
  //    (its prefix lives in the pre-promotion mirror), so fresh
  //    followers are refused until re-seeded.
  if (this->shipper() == nullptr) {
    shipper_owner_ = std::make_unique<WalShipper>(
        store_->object_store()->wal(), /*chain_complete=*/false);
    shipper_.store(shipper_owner_.get(), std::memory_order_release);
  }
  return proposed;
}

util::Result<uint64_t> Coordinator::HandleFence(uint64_t fencing) {
  const uint64_t current = epoch_.load(std::memory_order_acquire);
  if (fencing > current) {
    const Role current_role = role_.load(std::memory_order_acquire);
    // A primary (or already-fenced node) is deposed: its chain was
    // superseded, so the fence persists across restarts. A replica
    // only adopts the epoch floor — it replays someone else's chain
    // and stays useful; chain-identity checking catches divergence.
    const bool fence_role = current_role != Role::kReplica;
    HM_RETURN_IF_ERROR(PersistState(fencing, fence_role));
    epoch_.store(fencing, std::memory_order_release);
    if (fence_role) {
      role_.store(Role::kFenced, std::memory_order_release);
      role_gauge_->Set(static_cast<int64_t>(Role::kFenced));
      // The shipper stays alive (the lock-bypassed paths may be
      // reading it); HandleSubscribe refuses by role, and followers
      // still fetching bounce off the epoch change on their next
      // status report.
    }
    epoch_gauge_->Set(static_cast<int64_t>(fencing));
    fences_->Add(1);
  }
  return epoch_.load(std::memory_order_acquire);
}

}  // namespace hm::replication
