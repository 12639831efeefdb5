#ifndef HM_REPLICATION_COORDINATOR_H_
#define HM_REPLICATION_COORDINATOR_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "hypermodel/backends/oodb_store.h"
#include "replication/replicator.h"
#include "replication/wal_shipper.h"
#include "server/replication_handler.h"
#include "telemetry/metrics.h"
#include "util/status.h"

namespace hm::replication {

/// A node's replication role. The byte values travel in kReplStatus
/// responses — append only.
enum class Role : uint8_t {
  kPrimary = 1,  // takes writes, ships its WAL
  kReplica = 2,  // read-only, replays a primary's WAL
  kFenced = 3,   // former primary demoted by a newer epoch; refuses
                 // writes until an operator re-seeds or re-points it
};

std::string_view RoleName(Role role);

struct CoordinatorOptions {
  /// Where the epoch/fence state persists (a small text file). Must be
  /// the node's data directory — the state has to survive restarts, or
  /// a resurrected old primary would happily split-brain.
  std::string state_dir;
  /// How long a semi-synchronous commit waits for a follower ack
  /// before degrading to asynchronous for that commit.
  int64_t semisync_timeout_ms = 5000;
};

/// The node-local replication brain: owns the role word and the epoch,
/// persists both, and implements the server's ReplicationHandler —
/// gating mutations by role, forwarding the kRepl* opcodes to the
/// shipper (primary) or answering for the replicator (replica), and
/// running the promotion / fencing transitions.
///
/// Epoch-fencing argument (DESIGN.md §16): every promotion proposes an
/// epoch strictly greater than any the proposer has observed. A node
/// accepts a promotion or a fence only for an epoch above its own, and
/// persists the new epoch *before* acknowledging. A resurrected old
/// primary therefore either (a) gets fenced on first contact by any
/// client that knows the newer epoch — it persists the fence and
/// answers every write kFencedOff from then on, across restarts — or
/// (b) keeps answering an isolated stale client's writes; that client
/// has never seen the new epoch, which is the documented split-brain
/// window of client-driven failover without quorum leases.
///
/// Role/epoch words are atomics written only inside the server's
/// exclusive dispatch section (HandlePromote / HandleFence), so every
/// other path reads them lock-free.
class Coordinator : public server::ReplicationHandler {
 public:
  /// Loads (or initializes) persistent state. `as_replica` is the
  /// requested role; a persisted fence overrides a requested primary
  /// (the node was deposed while down and must not take writes again).
  static util::Result<std::unique_ptr<Coordinator>> Open(
      const CoordinatorOptions& options, bool as_replica);

  ~Coordinator() override;

  /// Primary wiring: starts shipping `store`'s WAL. `chain_complete`
  /// says the chain is replayable from empty (fresh data directory);
  /// a promoted node passes false. Call after the store is open,
  /// before the server accepts connections.
  util::Status ServePrimary(backends::OodbStore* store, bool chain_complete);

  /// Replica wiring: starts the pull/replay engine against
  /// `options.primary`. `exclusive` must run its callback with the
  /// server's backend exclusively locked.
  util::Status ServeReplica(const ReplicatorOptions& options,
                            backends::OodbStore* store,
                            ExclusiveHook exclusive);

  /// Stops the replicator thread (replicas). Call before tearing down
  /// the server.
  void Shutdown();

  Role role() const { return role_.load(std::memory_order_acquire); }
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  WalShipper* shipper() const {
    return shipper_.load(std::memory_order_acquire);
  }
  Replicator* replicator() { return replicator_.get(); }

  // --- server::ReplicationHandler ------------------------------------
  util::Status CheckMutation() override;
  util::Status WaitCommitReplicated() override;
  util::Result<server::ReplChain> HandleSubscribe(
      uint64_t wire_version, uint64_t follower_id,
      uint64_t resume_seq) override;
  util::Result<server::ReplChunk> HandleSegment(uint64_t seq,
                                                uint64_t offset,
                                                uint64_t max_bytes) override;
  util::Result<server::ReplPeer> HandleStatus(uint64_t follower_id,
                                              uint64_t replayed_lsn) override;
  util::Result<uint64_t> HandlePromote(uint64_t proposed) override;
  util::Result<uint64_t> HandleFence(uint64_t fencing) override;

 private:
  explicit Coordinator(const CoordinatorOptions& options);

  std::string StatePath() const { return options_.state_dir + "/repl_epoch"; }
  /// Durably writes "<epoch> <fenced>" (tmp + fsync + rename). Called
  /// before any reply that makes the new epoch observable.
  util::Status PersistState(uint64_t epoch, bool fenced);
  uint64_t DurableLsn() const;

  const CoordinatorOptions options_;
  std::atomic<uint64_t> epoch_{1};
  std::atomic<Role> role_{Role::kReplica};

  backends::OodbStore* store_ = nullptr;  // not owned

  /// The shipper is created at most twice-never-destroyed (ServePrimary
  /// at startup, or HandlePromote under the exclusive lock) and read
  /// from the lock-bypassed kRepl* paths — hence ownership in
  /// shipper_owner_ and an atomic raw pointer for readers. A fence
  /// leaves the shipper alive (serving a dead chain's bytes is
  /// harmless; followers bounce off the epoch change), avoiding a
  /// destroy-vs-bypassed-read race.
  std::unique_ptr<WalShipper> shipper_owner_;
  std::atomic<WalShipper*> shipper_{nullptr};
  std::unique_ptr<Replicator> replicator_;

  telemetry::Gauge* epoch_gauge_;
  telemetry::Gauge* role_gauge_;
  telemetry::Counter* semisync_timeouts_;
  telemetry::Counter* promotions_;
  telemetry::Counter* fences_;
};

}  // namespace hm::replication

#endif  // HM_REPLICATION_COORDINATOR_H_
