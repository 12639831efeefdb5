#ifndef HM_REPLICATION_REPLICATOR_H_
#define HM_REPLICATION_REPLICATOR_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "hypermodel/backends/oodb_store.h"
#include "hypermodel/backends/remote_store.h"
#include "storage/file.h"
#include "storage/wal.h"
#include "telemetry/metrics.h"
#include "util/lock_rank.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace hm::replication {

/// Incremental WAL frame decoder for the replication stream: feed it
/// arbitrary byte chunks, pull out whole frames. It wraps
/// storage::DecodeWalFrame over memory (the shipped chunks), tolerates
/// a frame split across chunk boundaries, and reports how many bytes
/// it has *consumed* — the follower's replayed offset is always a
/// frame boundary. Exposed in the header for the unit tests.
class FrameDecoder {
 public:
  struct Frame {
    storage::WalRecordType type = storage::WalRecordType::kUpdate;
    uint64_t txn_id = 0;
    std::string payload;
  };

  void Feed(std::string_view bytes) { buffer_.append(bytes); }

  /// Decodes the next whole frame. Ok+true: *frame filled. Ok+false:
  /// need more bytes. Corruption: a torn (CRC-failing) frame, an
  /// impossible one, or a length over the stream's 256 MiB bound — the
  /// stream is unrecoverable.
  util::Result<bool> Next(Frame* frame);

  /// Bytes consumed through the end of the last decoded frame,
  /// relative to the first byte ever fed.
  uint64_t consumed() const { return consumed_; }

  /// True when every fed byte has been decoded (the stream sits on a
  /// frame boundary) — the precondition for advancing to the next
  /// segment.
  bool empty() const { return buffer_.empty(); }

  /// Forgets all state (segment switch).
  void Reset() {
    buffer_.clear();
    consumed_ = 0;
  }

 private:
  std::string buffer_;
  uint64_t consumed_ = 0;
};

/// Runs `fn` with the server's backend exclusively locked (no other
/// request in flight). The replicator never takes the server's lock
/// itself — the hook keeps hm_replication ignorant of the server's
/// internals and makes the replay path testable without a server.
using ExclusiveHook = std::function<void(const std::function<void()>&)>;

struct ReplicatorOptions {
  /// How to reach the primary. The replicator sets its own retry
  /// policy (fail fast, retry forever in its own loop).
  backends::RemoteOptions primary;
  /// Directory for the mirrored WAL segments and the chain-identity
  /// file. Must survive backend wipes: a follower restart rebuilds the
  /// whole store by re-replaying this mirror.
  std::string mirror_dir;
  /// Nonzero id, stable across restarts (the serve port works): keys
  /// the primary's per-follower retention floor.
  uint64_t follower_id = 0;
  /// Poll interval when caught up with the primary.
  int poll_ms = 20;
  /// Max bytes per kReplSegment fetch.
  uint64_t fetch_bytes = 1ull << 20;
};

/// Follower-side replication engine (DESIGN.md §16). One background
/// thread runs the pull loop:
///
///   mirror replay -> subscribe -> { fetch chunk -> append + fsync
///   mirror -> decode frames -> assemble transactions -> apply ready
///   commits under the exclusive hook -> ack replayed LSN } forever
///
/// Durability contract: an acked LSN is covered by fsynced mirror
/// bytes. Applies bypass the follower's own WAL (ApplyReplicated), so
/// the mirror — not the local store — is the follower's durable truth;
/// restart recovery is "wipe the store, re-replay the mirror". That is
/// also why the follower must not run fuzzy checkpoints: a checkpoint
/// that advances the local recovery start would drop replicated
/// applies that exist in no local WAL. Promotion runs one *full*
/// checkpoint instead, making the store self-contained before it
/// starts writing its own chain.
///
/// Chain identity: the primary's epoch at subscribe time is persisted
/// next to the mirror. A later subscribe answering a different epoch
/// means the chain this mirror prefixes no longer exists (a failover
/// happened elsewhere); replaying the new primary's chain on top would
/// corrupt the store, so the replicator stops pulling and keeps
/// serving stale reads until the operator re-seeds it.
class Replicator {
 public:
  /// `store` must outlive the replicator; `exclusive` must be callable
  /// until Stop() returns.
  Replicator(ReplicatorOptions options, backends::OodbStore* store,
             ExclusiveHook exclusive);
  ~Replicator();

  Replicator(const Replicator&) = delete;
  Replicator& operator=(const Replicator&) = delete;

  /// Validates the mirror directory and starts the pull thread. The
  /// initial mirror replay happens on the thread, so a restarted
  /// follower starts serving (increasingly less stale) reads
  /// immediately.
  util::Status Start();

  /// Signals the thread and joins it. Idempotent.
  void Stop();

  /// Highest LSN through which every committed transaction has been
  /// applied to the local store. This is what the follower acks, and
  /// what promotion compares across followers.
  uint64_t replayed_lsn() const {
    return replayed_lsn_.load(std::memory_order_acquire);
  }

  /// The primary's epoch learned at subscribe time (0 until then).
  uint64_t source_epoch() const {
    return source_epoch_.load(std::memory_order_relaxed);
  }

  /// Called by promotion with the exclusive dispatch lock already
  /// held: applies every fully-received commit still queued, marks the
  /// replicator promoted (the pull thread exits on its next hook
  /// entry; the caller must NOT join here — the thread may be waiting
  /// on the very lock the caller holds) and returns the final replayed
  /// LSN. After this the local store state == acked state.
  uint64_t FinalizeForPromotion();

  /// Why the pull thread stopped for good: a failed mirror replay or a
  /// fatal pull error. Ok while it runs and after a plain Stop().
  util::Status fatal_status() const;

 private:
  /// One commit (or, with no payloads, an abort or checkpoint frame)
  /// decoded and waiting to be applied.
  struct ReadyBatch {
    std::vector<std::string> payloads;  // kUpdate payloads, log order
    uint64_t end_lsn = 0;  // LSN just past the frame
  };

  void ThreadMain();
  /// Phase 1: replay the fsynced mirror into the (freshly opened)
  /// store. Leaves cursor_* at the mirror tail.
  util::Status ReplayMirror();
  /// Phase 2 body: one subscribe + pull session against the primary.
  /// Returns when the connection dies (retry), the chain diverges
  /// (fatal, stop pulling) or stop/promotion is signalled.
  util::Status PullFromPrimary();
  /// Decodes every whole frame buffered in decoder_ and Assemble()s it.
  util::Status DrainDecoder();
  /// Adds one decoded record, ending at `end_lsn`, to its pending
  /// transaction; a commit, abort or checkpoint becomes a ready batch.
  void Assemble(storage::WalRecordType type, uint64_t txn_id,
                std::string payload, uint64_t end_lsn);
  /// Applies all ready batches under the exclusive hook (coalesced:
  /// one index rebuild per call) and advances replayed_lsn_. Returns
  /// false when the hook found the replicator promoted/stopped.
  bool ApplyReady();
  /// Applies `batches` as one ApplyReplicated call (skipped when none
  /// carries a payload) and advances replayed_lsn_ past the last one.
  /// The caller holds the exclusive hook.
  util::Status ApplyBatches(std::vector<ReadyBatch>* batches);
  util::Status OpenMirrorSegment(uint64_t seq, bool truncate_to_cursor);
  std::string MirrorSegmentPath(uint64_t seq) const;
  static constexpr char kChainFileName[] = "chain";
  /// Reads/writes the persisted chain epoch (0 = no file yet).
  uint64_t ReadChainEpoch() const;
  util::Status WriteChainEpoch(uint64_t epoch);

  const ReplicatorOptions options_;
  backends::OodbStore* const store_;
  const ExclusiveHook exclusive_;

  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> promoted_{false};
  std::atomic<uint64_t> replayed_lsn_{0};
  std::atomic<uint64_t> source_epoch_{0};

  // Pull-loop state, owned by the thread (no lock needed) ------------
  FrameDecoder decoder_;
  uint64_t cursor_seq_ = 0;     // segment being fetched (0 = none yet)
  uint64_t cursor_offset_ = 0;  // next byte offset within it
  storage::File mirror_;        // open mirror file for cursor_seq_

  /// In-flight transactions: txn id -> kUpdate payloads so far. Lives
  /// across segment boundaries (a transaction may span a rollover).
  std::map<uint64_t, std::vector<std::string>> pending_;

  /// Commits decoded but not yet applied. Guarded by mu_ because
  /// FinalizeForPromotion drains it from another thread; the pull
  /// thread swaps it out *inside* the exclusive hook, so a batch can
  /// never fall between promotion's drain and the thread's role check.
  mutable util::RankedMutex<util::LockRank::kGroupCommit> mu_;
  std::vector<ReadyBatch> ready_ HM_GUARDED_BY(mu_);
  util::Status fatal_status_ HM_GUARDED_BY(mu_);

  telemetry::Counter* bytes_received_;
  telemetry::Counter* txns_applied_;
  telemetry::Gauge* lag_bytes_;
  telemetry::Gauge* lag_lsn_;
  telemetry::Gauge* replayed_gauge_;
};

}  // namespace hm::replication

#endif  // HM_REPLICATION_REPLICATOR_H_
