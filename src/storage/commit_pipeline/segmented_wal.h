#ifndef HM_STORAGE_COMMIT_PIPELINE_SEGMENTED_WAL_H_
#define HM_STORAGE_COMMIT_PIPELINE_SEGMENTED_WAL_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "storage/file.h"
#include "storage/wal.h"
#include "util/lock_rank.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace hm::storage {

struct SegmentedWalOptions {
  /// Roll to a new segment once the current one reaches this size. A
  /// single oversized frame still lands whole — frames never span
  /// segments — so a segment can exceed the threshold by one frame.
  uint64_t segment_bytes = 16ull << 20;
};

/// Write-ahead redo log split across an ordered chain of segment files
/// `<base>.<seq>` (six-digit decimal, starting at 000001). LSNs are
/// global and monotonic: (segment seq << 32) | byte offset within the
/// segment. Appends are buffered until Sync(); the buffer always
/// belongs to the current segment, because rolling over flushes and
/// fdatasync()s the old segment before the new one opens. Checkpoints
/// delete segments wholly below the recovery-start LSN instead of
/// truncating in place. This class owns the recovery rules of the log:
/// which damage is a crash scar to truncate, which is Corruption, and
/// which updates redo or undo. A bare `<base>` file (the single-file
/// log of earlier revisions) is Corruption on open.
class SegmentedWal {
 public:
  SegmentedWal() = default;
  ~SegmentedWal();

  SegmentedWal(const SegmentedWal&) = delete;
  SegmentedWal& operator=(const SegmentedWal&) = delete;

  static constexpr uint64_t MakeLsn(uint64_t seq, uint64_t offset) {
    return (seq << 32) | offset;
  }
  static constexpr uint64_t LsnSegment(uint64_t lsn) { return lsn >> 32; }
  static constexpr uint64_t LsnOffset(uint64_t lsn) {
    return lsn & 0xffffffffull;
  }
  static std::string SegmentPath(const std::string& base, uint64_t seq);

  util::Status Open(const std::string& base_path,
                    const SegmentedWalOptions& options = {});
  util::Status Close();
  bool is_open() const {
    util::MutexLock lock(mu_);
    return IsOpenLocked();
  }

  /// Appends one record (buffered), rolling to a fresh segment first
  /// if the current one is at the size threshold. Returns the
  /// record's LSN.
  util::Result<uint64_t> Append(WalRecordType type, uint64_t txn_id,
                                std::string_view payload);

  /// Flushes buffered records and fdatasync()s the current segment —
  /// but only when a record was appended since the last successful
  /// sync (a freshly opened log counts as pending). With nothing
  /// pending it returns Ok without writing or syncing, so a commit
  /// that logged nothing costs no fsync while a commit that follows
  /// someone else's unsynced append still makes it durable. The
  /// `wal/sync/error` failpoint fires ahead of that check, so fault
  /// schedules count every call.
  util::Status Sync();

  /// LSN the next Append() would return if no rollover intervenes — a
  /// lower bound on every future LSN, and an exclusive upper bound on
  /// every record already appended.
  uint64_t NextLsn() const;

  struct ScannedRecord {
    uint64_t lsn = 0;
    uint64_t end_lsn = 0;  // just past the frame
    WalRecordType type = WalRecordType::kUpdate;
    uint64_t txn_id = 0;
    std::string_view payload;  // valid only during the visit callback
  };

  /// Streams every record in the chain in LSN order. A torn tail on
  /// the *last* segment is truncated (the log stays appendable); a torn
  /// frame in any earlier segment, a frame DecodeWalFrame finds
  /// impossible in any segment, or a gap in the segment sequence is
  /// loud Corruption — never silently skipped.
  util::Status Scan(
      const std::function<util::Status(const ScannedRecord&)>& visit);

  /// Sequence numbers of the segment files `<base>.NNNNNN` on disk,
  /// ascending. Corruption when the sequence has a gap.
  static util::Result<std::vector<uint64_t>> ListSegments(
      const std::string& base_path);

  /// Streams the records of segment file `path` (sequence `seq`) under
  /// Scan()'s rules and returns the offset where its intact frames
  /// end. A torn frame ends a `last` segment there — the caller
  /// truncates the rest — and is Corruption in any other. A follower
  /// reloads its mirror of the primary's chain with this.
  static util::Result<uint64_t> ScanSegment(
      const std::string& path, uint64_t seq, bool last,
      const std::function<util::Status(const ScannedRecord&)>& visit);

  using UpdateFn =
      std::function<util::Status(uint64_t txn_id, std::string_view payload)>;

  /// The recovery classification. Streams the chain twice: the first
  /// pass finds the last checkpoint's recovery-start LSN and the
  /// committed and aborted transactions; the second calls, in log
  /// order, `redo` for each kUpdate of a committed transaction and
  /// `loser` (when given) for each kUpdate of a transaction that
  /// neither committed nor aborted, both only at or after the start.
  /// Aborted transactions reach neither. Damage is handled as in Scan().
  util::Status Recover(const UpdateFn& redo, const UpdateFn& loser = {});

  /// Seals the current segment (flush + fdatasync) and opens the next
  /// one, if the current segment has any content. No-op on an empty
  /// segment.
  util::Status RollIfNonEmpty();

  /// Appends a kCheckpoint record carrying `recovery_start_lsn`,
  /// syncs, then deletes every segment wholly below that LSN. Call
  /// after flushing all data pages.
  util::Status Checkpoint(uint64_t recovery_start_lsn);

  /// Full checkpoint with nothing to carry over: rolls off the current
  /// segment, checkpoints at the head of the new one, and prunes the
  /// entire old chain — the post-state is one segment holding one
  /// checkpoint record.
  util::Status Checkpoint();

  /// Total bytes across live segments (including unflushed buffer).
  uint64_t SizeBytes() const;

  /// Paths of the live segment files, oldest first (for backups).
  std::vector<std::string> SegmentPaths() const;

  /// Retention floor for checkpoint pruning: segments at or above
  /// LsnSegment(lsn) survive every Checkpoint() even when the recovery
  /// start has moved past them. A WAL shipper parks the floor at the
  /// minimum LSN its followers still need (0 = retain everything);
  /// kNoRetainLsn (the default) disables the floor entirely.
  void SetRetainLsn(uint64_t lsn);
  static constexpr uint64_t kNoRetainLsn = ~0ull;

  /// Sequence number of the oldest live segment (the current one when
  /// nothing is sealed). A follower asking below this has been pruned
  /// away and must re-bootstrap.
  uint64_t OldestSeq() const;

  /// Reads up to `max_bytes` of *flushed* bytes from segment `seq`
  /// starting at `offset`, for the replication shipper. `*sealed`
  /// reports whether the segment is complete (a follower at
  /// offset == *flushed_size of a sealed segment advances to seq + 1);
  /// `*flushed_size` is the segment's current flushed size. Buffered
  /// (unsynced) bytes are never served: every acknowledged commit has
  /// been synced, so followers can always reach acknowledged data.
  /// NotFound once `seq` has been pruned from the chain.
  util::Status ReadSegment(uint64_t seq, uint64_t offset, uint64_t max_bytes,
                           std::string* chunk, bool* sealed,
                           uint64_t* flushed_size) const;

  uint64_t segment_count() const;
  uint64_t records_appended() const;
  uint64_t syncs() const;

 private:
  util::Result<uint64_t> AppendLocked(WalRecordType type, uint64_t txn_id,
                                      std::string_view payload)
      HM_REQUIRES(mu_);
  util::Status SyncLocked() HM_REQUIRES(mu_);
  /// Writes the buffered frames. After a write fails, this and every
  /// Append fail with that error until the log is reopened: the failed
  /// write may have left a torn frame at the segment's end, and a frame
  /// written after it, or a rollover sealing it, would bury the tear
  /// mid-log, where recovery refuses the chain.
  util::Status FlushBuffer() HM_REQUIRES(mu_);
  util::Status WriteBuffer() HM_REQUIRES(mu_);
  util::Status RollLocked() HM_REQUIRES(mu_);
  util::Status PruneBelowLocked(uint64_t lsn) HM_REQUIRES(mu_);
  util::Status ScanLocked(
      const std::function<util::Status(const ScannedRecord&)>& visit)
      HM_REQUIRES(mu_);
  bool IsOpenLocked() const HM_REQUIRES(mu_) { return file_.is_open(); }
  uint64_t CurrentSizeLocked() const HM_REQUIRES(mu_) {
    return file_size_ + buffer_.size();
  }
  void UpdateSegmentsGauge() const HM_REQUIRES(mu_);

  /// Guards all mutable state. Ranked between the group-commit
  /// coordinator (above) and the buffer pool / telemetry (below).
  mutable util::RankedMutex<util::LockRank::kWal> mu_;

  SegmentedWalOptions options_ HM_GUARDED_BY(mu_);
  std::string base_path_ HM_GUARDED_BY(mu_);
  File file_ HM_GUARDED_BY(mu_);           // current (highest-seq) segment
  uint64_t seq_ HM_GUARDED_BY(mu_) = 0;    // its sequence number
  uint64_t file_size_ HM_GUARDED_BY(mu_) = 0;  // its on-disk size
  /// Unflushed frames for the current segment.
  std::string buffer_ HM_GUARDED_BY(mu_);
  /// Sealed (non-current) segments, oldest first: {seq, size}.
  std::vector<std::pair<uint64_t, uint64_t>> sealed_ HM_GUARDED_BY(mu_);
  uint64_t sealed_bytes_ HM_GUARDED_BY(mu_) = 0;
  uint64_t records_appended_ HM_GUARDED_BY(mu_) = 0;
  uint64_t syncs_ HM_GUARDED_BY(mu_) = 0;
  /// A record was appended since the last successful fdatasync, so
  /// Sync() has work to do. Set on Open, Append; cleared by Sync().
  bool sync_pending_ HM_GUARDED_BY(mu_) = true;
  /// The error of the first failed write since Open; see FlushBuffer.
  util::Status write_error_ HM_GUARDED_BY(mu_);
  /// Pruning floor; see SetRetainLsn().
  uint64_t retain_lsn_ HM_GUARDED_BY(mu_) = kNoRetainLsn;
};

}  // namespace hm::storage

#endif  // HM_STORAGE_COMMIT_PIPELINE_SEGMENTED_WAL_H_
