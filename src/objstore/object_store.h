#ifndef HM_OBJSTORE_OBJECT_STORE_H_
#define HM_OBJSTORE_OBJECT_STORE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/commit_pipeline/checkpointer.h"
#include "storage/commit_pipeline/group_commit.h"
#include "storage/commit_pipeline/segmented_wal.h"
#include "storage/file_manager.h"
#include "util/lock_rank.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace hm::objstore {

/// System-generated object identifier (the OODB "object id" of §6.1
/// op /*02*/). Sequential from 1; 0 is invalid.
using Oid = uint64_t;

inline constexpr Oid kInvalidOid = 0;

/// Physical placement policy for new objects.
enum class PlacementPolicy : uint8_t {
  /// Honour the `near` hint: co-locate with the hint object, spilling
  /// to a per-anchor-page overflow chain. This implements the paper's
  /// §5.2 instruction to cluster along the 1-N hierarchy.
  kClustered = 0,
  /// Ignore hints; append to a single global fill page (creation
  /// order = physical order).
  kSequential = 1,
  /// Scatter: place on a random existing page with room. Models a
  /// store without physical design (free-space reuse after churn) —
  /// the worst case the paper's clustering discussion contrasts with.
  kRandom = 2,
};

/// Tuning knobs for an object store instance (and, as OodbOptions, for
/// the oodb backend over it). Commits are always durable (R10).
struct ObjectStoreOptions {
  /// Buffer-pool capacity in pages (the workstation cache size, R7).
  size_t cache_pages = 2048;
  /// Physical placement of new objects (the §5.2 clustering knob).
  PlacementPolicy placement = PlacementPolicy::kClustered;
  /// Group-commit window in microseconds: every commit waits on the
  /// coordinator, where concurrent committers share one WAL fsync and
  /// a solo leader lingers up to this long for a companion. 0 = a
  /// solo leader syncs at once.
  uint32_t group_commit_us = 0;
  /// WAL segment rollover threshold. Overridden by
  /// $HM_WAL_SEGMENT_BYTES.
  uint64_t wal_segment_bytes = 16ull << 20;
  /// Background fuzzy-checkpointer period in milliseconds; 0 disables
  /// the thread (checkpoints still happen at open, close and backup).
  uint32_t checkpoint_interval_ms = 0;
  /// Nudge the checkpointer early once the WAL exceeds this many
  /// bytes; 0 derives 4 * wal_segment_bytes.
  uint64_t checkpoint_wal_bytes = 0;
};

/// Applies the HM_WAL_SEGMENT_BYTES environment override (used by the
/// CI torture job to re-run the whole suite with tiny WAL segments).
void ApplyEnvOverrides(ObjectStoreOptions* options);

class ObjectStore;

/// An open transaction. Writes are applied to cached pages immediately
/// and logged to the WAL; the in-memory undo list supports Abort().
/// Obtain via ObjectStore::Begin(); finish with Commit() or Abort().
/// A transaction that logged nothing leaves no trace in the WAL: its
/// Commit appends no kCommit (and its Abort no kAbort), and the log
/// sync it still requests is free unless someone else's records are
/// pending.
class Transaction {
 public:
  uint64_t id() const { return id_; }
  bool active() const { return active_; }
  size_t write_count() const { return undo_.size(); }

 private:
  friend class ObjectStore;

  struct Undo {
    enum class Kind { kCreate, kUpdate, kDelete } kind;
    Oid oid;
    std::string before;  // pre-image for kUpdate / kDelete
  };

  uint64_t id_ = 0;
  bool active_ = false;
  /// Set once a kUpdate append succeeds. Commit and Abort key on it,
  /// not on undo_: an append whose apply fails leaves no undo entry
  /// but still needs its kCommit or kAbort.
  bool logged_ = false;
  std::vector<Undo> undo_;
};

/// Aggregated store statistics for the benchmark report. Returned by
/// value from ObjectStore::stats() as a snapshot of relaxed atomics:
/// `objects_read` is bumped from concurrent reader threads.
struct ObjectStoreStats {
  uint64_t objects_created = 0;
  uint64_t objects_read = 0;
  uint64_t objects_updated = 0;
  uint64_t objects_deleted = 0;
  uint64_t commits = 0;
  uint64_t aborts = 0;
};

/// A single-file persistent object store: the OODB substrate under the
/// HyperModel's `oodb` backend. Objects are untyped byte strings
/// addressed by OID through a paged directory (OID -> page/slot), so
/// records can relocate without invalidating references. Large objects
/// (FormNode bitmaps) spill into overflow-page chains. Creation takes
/// an optional `near` OID hint implementing clustering along the 1-N
/// aggregation hierarchy.
///
/// Durability: write-ahead redo logging with a (group-)commit fsync (R10).
/// Recovery replays committed transactions over the last checkpointed
/// page image. `DropCaches()` gives the benchmark protocol its "close
/// the database" cold-cache step.
class ObjectStore {
 public:
  ~ObjectStore();

  ObjectStore(const ObjectStore&) = delete;
  ObjectStore& operator=(const ObjectStore&) = delete;

  /// Opens (creating or recovering) a store in directory `dir`, using
  /// files `dir/objects.db` and `dir/objects.wal`.
  static util::Result<std::unique_ptr<ObjectStore>> Open(
      const ObjectStoreOptions& options, const std::string& dir);

  /// Checkpoints and closes the files.
  util::Status Close();

  /// Starts a transaction. Writes nothing to the WAL: the
  /// transaction's first record is its first kUpdate, and NextLsn() at
  /// Begin — a lower bound on every record it will write — is what
  /// clamps a checkpoint's recovery start while it is active.
  util::Result<Transaction> Begin();

  /// Durably commits `txn`: appends its commit record and waits for
  /// the group-commit fsync that covers it. A transaction that logged
  /// nothing appends no commit record. Either way, every record
  /// appended before the commit returns is durable. Equivalent to
  /// CommitAsync() + WaitCommitDurable(), and an error means the same
  /// as there: the outcome is unknown.
  util::Status Commit(Transaction* txn);

  /// Appends `txn`'s commit record, ends the transaction and enrolls
  /// it with the group-commit coordinator, returning the ticket to
  /// pass to WaitCommitDurable(). If the commit record cannot be
  /// appended, no byte of it reached the log, so the transaction is a
  /// loser: it is rolled back as Abort would and ended, and the append
  /// error returned. Either way `txn` is no longer active.
  /// The caller may release its own serialization before waiting —
  /// that overlap is where fsync amortization comes from.
  util::Result<uint64_t> CommitAsync(Transaction* txn);

  /// Blocks until the batched fsync covering `ticket` completes;
  /// returns its status. An error means the commit's outcome is
  /// unknown: its records may or may not have reached the disk, so a
  /// crash now may recover it or not. The transaction has ended
  /// either way and no longer holds back checkpoints.
  util::Status WaitCommitDurable(uint64_t ticket);

  /// Rolls back `txn` using in-memory pre-images.
  util::Status Abort(Transaction* txn);

  /// Creates an object holding `data`. With clustering enabled and a
  /// valid `near` hint, tries to co-locate the object on the hint's
  /// page (falling back to the active fill page).
  util::Result<Oid> Create(Transaction* txn, std::string_view data,
                           Oid near = kInvalidOid);

  /// Runs `fn(std::string_view)` on an object's bytes without copying
  /// them out of the page: a slotted record is viewed in place while
  /// its data page is pinned under a shared read latch; an overflow
  /// record is first assembled into a local string. The view is valid
  /// only inside `fn`: nothing pointing into it may escape, and `fn`
  /// must not fetch pages or call back into the store (DESIGN.md §13).
  /// Returns `fn`'s status. Counts one object read.
  template <typename Fn>
  util::Status View(Oid oid, Fn&& fn) const {
    storage::PageGuard guard;
    std::string overflow;
    HM_ASSIGN_OR_RETURN(std::string_view record,
                        PinRecord(oid, &guard, &overflow));
    return fn(record);
  }

  /// View over a batch: runs `fn(i, record)` on the bytes of every
  /// `oids[i]`, a duplicate once per occurrence. A first pass decodes
  /// every directory entry in OID order, pinning each directory page
  /// once; a second visits the records in data-page order (ties in
  /// input order), pinning each data page once. So the callbacks
  /// arrive in page order, not input order, each with its input index.
  /// An overflow record is read as View reads it, after the data page
  /// held is dropped: at most one latch is held at a time. View's
  /// checks hold for every OID and its rules for every `fn` call. The
  /// first failure, or `fn`'s first error, ends the walk and is
  /// returned. Counts one object read per OID once every directory
  /// entry is found. A batch of one is View itself.
  util::Status ViewMany(
      std::span<const Oid> oids,
      const std::function<util::Status(size_t, std::string_view)>& fn) const;

  /// Reads a copy of an object's bytes (View plus a copy).
  util::Result<std::string> Read(Oid oid) const;

  /// The one read-modify-write of a record: under the write lock,
  /// reads `oid`'s bytes once and passes them to `change`, which
  /// returns the new bytes (the record may relocate) or an error. An
  /// error is returned as is, with nothing logged and nothing queued
  /// for undo. `change` runs under the write lock, so it must not call
  /// back into the store. Counts one object read.
  util::Status Modify(
      Transaction* txn, Oid oid,
      const std::function<util::Result<std::string>(std::string_view)>&
          change);

  /// Replaces an object's bytes: Modify with a `change` that ignores
  /// the old ones.
  util::Status Update(Transaction* txn, Oid oid, std::string_view data);

  /// Deletes an object; its OID is never reused.
  util::Status Delete(Transaction* txn, Oid oid);

  /// True if `oid` names a live object.
  bool Exists(Oid oid) const;

  /// Flushes all pages, persists the catalog, and collapses the WAL
  /// chain to a fresh segment holding one checkpoint record.
  util::Status Checkpoint();

  /// One fuzzy-checkpoint round, normally driven by the background
  /// checkpointer: waits (bounded) for a moment with no active
  /// transaction, sweeps dirty pages in small batches under the write
  /// lock, fsyncs the data file *outside* it, then appends a
  /// kCheckpoint carrying the recovery-start LSN and prunes dead
  /// segments. Readers are never blocked; committers only overlap the
  /// page sweep. Skipped (Ok) when the store is quiescent or never
  /// quiesces within the bound — the next tick retries.
  util::Status FuzzyCheckpoint();

  /// Flushes and evicts the entire page cache — the protocol's
  /// "close the database" step (§6 step e) making the next run cold.
  util::Status DropCaches();

  /// 16 named catalog slots for the embedding layer (index roots,
  /// schema metadata...). Persisted in the meta page at checkpoint.
  uint64_t GetCatalog(size_t slot) const;
  void SetCatalog(size_t slot, uint64_t value);

  /// Online backup (R10: "logging, backup and recovery"): checkpoints,
  /// then copies the store's files into `backup_dir`. The backup is a
  /// complete store openable with Open(). No transaction may be
  /// active.
  util::Status BackupTo(const std::string& backup_dir);

  /// Garbage collection of non-referenced objects (R10). Mark phase:
  /// `roots` are live; `trace(oid, data)` returns the OIDs an object
  /// references. Sweep phase: every unmarked object is deleted inside
  /// `txn`. Returns the number of objects collected.
  util::Result<uint64_t> CollectGarbage(
      Transaction* txn, const std::vector<Oid>& roots,
      const std::function<util::Result<std::vector<Oid>>(
          Oid, const std::string&)>& trace);

  /// Applies one logical WAL record shipped from a replication
  /// primary, outside any local transaction and without local WAL
  /// logging — the follower's mirror of the primary's segment chain is
  /// its durable history (DESIGN.md §16). Uses the same self-healing
  /// `recovering` apply as crash recovery, so replaying a prefix twice
  /// after a follower restart is idempotent.
  util::Status ApplyReplicatedRecord(std::string_view payload);

  /// OIDs are allocated sequentially; [1, next_oid) have been used.
  Oid next_oid() const { return next_oid_; }

  /// Number of WAL records replayed when this store was opened; > 0
  /// means the embedding layer must reconcile derived structures
  /// (e.g. rebuild secondary indexes).
  uint64_t recovered_records() const { return recovered_records_; }

  storage::BufferPool* buffer_pool() { return pool_.get(); }
  storage::SegmentedWal* wal() { return &wal_; }
  ObjectStoreStats stats() const {
    ObjectStoreStats out;
    out.objects_created =
        stats_.objects_created.load(std::memory_order_relaxed);
    out.objects_read = stats_.objects_read.load(std::memory_order_relaxed);
    out.objects_updated =
        stats_.objects_updated.load(std::memory_order_relaxed);
    out.objects_deleted =
        stats_.objects_deleted.load(std::memory_order_relaxed);
    out.commits = stats_.commits.load(std::memory_order_relaxed);
    out.aborts = stats_.aborts.load(std::memory_order_relaxed);
    return out;
  }
  const ObjectStoreOptions& options() const { return options_; }

  /// Total pages in the data file (for the §5.2 size report).
  uint64_t page_count() const { return data_file_.page_count(); }

 private:
  explicit ObjectStore(const ObjectStoreOptions& options);

  static constexpr size_t kCatalogSlots = 16;

  struct DirEntry {
    storage::PageId page = storage::kInvalidPageId;
    uint16_t slot = 0;
    uint16_t flags = 0;  // 0 free, 1 live-slotted, 2 overflow-head
  };

  util::Status InitFresh();
  /// Open-time only, before the store is published to any other
  /// thread; the thread-safety analysis is off because it writes
  /// write_mu_-guarded state (catalog_) without the lock.
  util::Status LoadMeta() HM_NO_THREAD_SAFETY_ANALYSIS;
  util::Status SaveMeta() HM_REQUIRES(write_mu_);
  /// Open-time only (see LoadMeta): replays the log single-threaded,
  /// calling the *Locked apply helpers without write_mu_.
  util::Status Recover() HM_NO_THREAD_SAFETY_ANALYSIS;
  util::Status CheckpointLocked() HM_REQUIRES(write_mu_);
  /// One write_mu_-held fuzzy-sweep round: roll the WAL, record the
  /// recovery-start LSN into `*start`, persist the meta page and flush
  /// dirty pages in small batches.
  util::Status FuzzySweepLocked(uint64_t* start) HM_REQUIRES(write_mu_);
  /// Applies the inverse of one logical record (undoing an in-flight
  /// loser transaction during recovery) using its stored pre-image.
  util::Status UndoLogical(std::string_view payload)
      HM_REQUIRES(write_mu_);
  /// Nudges the background checkpointer when the WAL has outgrown the
  /// configured threshold.
  void MaybeNudgeCheckpointer();
  /// Undoes `txn`'s writes in reverse order from the retained
  /// pre-images: Abort's rollback, and a failed commit's.
  util::Status UndoLocked(Transaction* txn) HM_REQUIRES(write_mu_);
  /// Ends `txn`: it leaves the active set (so it no longer holds back
  /// checkpoints) and becomes inactive.
  void EndLocked(Transaction* txn) HM_REQUIRES(write_mu_);

  util::Result<Oid> CreateLocked(Transaction* txn, std::string_view data,
                                 Oid near) HM_REQUIRES(write_mu_);
  util::Status DeleteLocked(Transaction* txn, Oid oid)
      HM_REQUIRES(write_mu_);

  util::Result<DirEntry> DirGet(Oid oid) const;
  /// `oid`'s index into the directory (oid - 1); NotFound unless the
  /// OID is in range and its directory page exists.
  util::Result<size_t> DirIndex(Oid oid) const;
  /// Decodes directory entry `index` from its pinned directory page;
  /// NotFound if the entry is free. The one parser of the entry layout.
  static util::Result<DirEntry> DecodeDirEntry(const storage::Page& page,
                                               size_t index);
  util::Status DirSet(Oid oid, DirEntry entry) HM_REQUIRES(write_mu_);
  /// Ensures a directory page exists for `oid`, allocating on demand.
  util::Result<storage::PageId> DirPageFor(Oid oid, bool create)
      HM_REQUIRES(write_mu_);

  /// Physical insert of `data`, honoring the `near` hint; returns the
  /// directory entry describing where it landed.
  util::Result<DirEntry> Place(std::string_view data, Oid near)
      HM_REQUIRES(write_mu_);
  /// Allocates a fresh slotted page, inserts `data`, and registers the
  /// page for random placement.
  util::Result<DirEntry> NewSlottedPage(std::string_view data)
      HM_REQUIRES(write_mu_);
  /// Recovery-time trampoline around ApplyLogical: the WAL scan
  /// callback is a lambda, which the thread-safety analysis treats as
  /// a separate function, so it cannot call an HM_REQUIRES method even
  /// from the (single-threaded, pre-publication) open path.
  util::Status ApplyRecoveredRecord(std::string_view payload)
      HM_NO_THREAD_SAFETY_ANALYSIS {
    return ApplyLogical(payload, /*recovering=*/true);
  }
  /// Writes `data` as an overflow chain; returns the head page.
  util::Result<storage::PageId> WriteOverflow(std::string_view data);
  /// The one overflow-chain walk: calls `visit(page, bytes)` for each
  /// page of the chain starting at `head`, in order, under a shared
  /// latch. Corruption if a chain page is not an overflow page, holds
  /// an out-of-range length, or the chain runs longer than the data
  /// file (a loop).
  util::Status WalkOverflow(
      storage::PageId head,
      const std::function<util::Status(storage::PageId, std::string_view)>&
          visit) const;
  /// Marks every page of the chain at `head` free, after WalkOverflow
  /// has vetted the whole chain (a corrupt chain changes no page).
  util::Status FreeOverflow(storage::PageId head);
  /// Appends the bytes of the overflow chain starting at `head` to
  /// `*out` (WalkOverflow's checks apply).
  util::Status ReadOverflow(storage::PageId head, std::string* out) const;
  /// The one record-reading walk behind View: directory page, then
  /// the data page (left pinned in `*guard`, the record viewed in
  /// place) or the overflow chain (assembled into `*overflow`).
  util::Result<std::string_view> PinRecord(Oid oid, storage::PageGuard* guard,
                                           std::string* overflow) const;
  /// Physically removes the record behind `entry`.
  util::Status Remove(const DirEntry& entry);

  /// Applies one logical WAL record (create/update/delete) — shared by
  /// the forward path and recovery redo. With `recovering` set the
  /// apply is self-healing: a crash mid-checkpoint can persist a
  /// directory page ahead of the data page it points into, so replay
  /// verifies each target location and relocates the record when the
  /// page image is older than the directory entry. The forward path
  /// stays strict — there a dangling entry is a bug, not a crash scar.
  util::Status ApplyLogical(std::string_view payload,
                            bool recovering = false)
      HM_REQUIRES(write_mu_);

  /// Logs then applies a logical mutation.
  util::Status LogAndApply(Transaction* txn, std::string_view payload)
      HM_REQUIRES(write_mu_);

  ObjectStoreOptions options_;
  std::string dir_;
  storage::FileManager data_file_;
  std::unique_ptr<storage::BufferPool> pool_;
  storage::SegmentedWal wal_;

  /// Serializes mutators (Begin/Commit/Abort/Create/Update/Delete,
  /// catalog writes, checkpoints) against the fuzzy checkpointer's
  /// page sweep. Readers never take it. Ranked above the group-commit
  /// coordinator and the WAL, below server dispatch.
  mutable util::RankedMutex<util::LockRank::kCommitPipeline> write_mu_;
  /// Signaled when active_txns_ drains to empty (checkpoint quiesce).
  std::condition_variable_any quiesce_cv_;
  /// Signaled when a pending checkpoint finishes its sweep; Begin()
  /// waits on it so a quiescing checkpointer isn't starved forever
  /// under constant load (the wait is bounded on both sides).
  std::condition_variable_any begin_cv_;
  bool checkpoint_waiting_ HM_GUARDED_BY(write_mu_) = false;
  /// Active transaction id -> the WAL's NextLsn() at its Begin; the
  /// minimum bounds the recovery-start LSN so in-flight undo
  /// information is never pruned.
  std::unordered_map<uint64_t, uint64_t> active_txns_
      HM_GUARDED_BY(write_mu_);
  uint64_t last_checkpoint_records_ HM_GUARDED_BY(write_mu_) = 0;

  /// Makes every commit durable; drained at close.
  storage::GroupCommitCoordinator group_commit_;
  storage::Checkpointer checkpointer_;
  /// Dedicated fd onto objects.db for the fuzzy checkpointer's data
  /// fsync, so it never touches FileManager state outside write_mu_.
  /// Set once at open (pre-publication), closed after the checkpointer
  /// thread has stopped — deliberately not HM_GUARDED_BY.
  int checkpoint_data_fd_ = -1;

  /// next_oid_ and dir_pages_ are written only under write_mu_ but
  /// *read* by the lock-free latch-crawling reader paths (DirGet /
  /// Read / Exists) under the documented readers-vs-one-writer
  /// contract, so they cannot carry HM_GUARDED_BY(write_mu_).
  Oid next_oid_ = 1;
  std::vector<storage::PageId> dir_pages_;
  uint64_t next_txn_id_ HM_GUARDED_BY(write_mu_) = 1;
  storage::PageId active_fill_page_ HM_GUARDED_BY(write_mu_) =
      storage::kInvalidPageId;
  /// Clustered placement: current overflow-chain tail per anchor page
  /// (in-memory placement state; placement after reopen restarts
  /// fresh chains, which only affects locality, never correctness).
  std::unordered_map<storage::PageId, storage::PageId> cluster_tails_
      HM_GUARDED_BY(write_mu_);
  /// All slotted data pages, for random placement.
  std::vector<storage::PageId> slotted_pages_ HM_GUARDED_BY(write_mu_);
  /// Deterministic scatter for PlacementPolicy::kRandom.
  uint64_t placement_rng_state_ HM_GUARDED_BY(write_mu_) =
      0x9E3779B97F4A7C15ULL;
  uint64_t catalog_[kCatalogSlots] HM_GUARDED_BY(write_mu_) = {};
  /// Written once during Open (single-threaded), read-only after.
  uint64_t recovered_records_ = 0;
  /// Relaxed-atomic mirror of ObjectStoreStats; `objects_read` is the
  /// only member touched outside write_mu_, but keeping them uniform
  /// costs nothing on these cold counters.
  struct AtomicStats {
    std::atomic<uint64_t> objects_created{0};
    std::atomic<uint64_t> objects_read{0};
    std::atomic<uint64_t> objects_updated{0};
    std::atomic<uint64_t> objects_deleted{0};
    std::atomic<uint64_t> commits{0};
    std::atomic<uint64_t> aborts{0};
  };
  mutable AtomicStats stats_;
  bool open_ HM_GUARDED_BY(write_mu_) = false;
};

}  // namespace hm::objstore

#endif  // HM_OBJSTORE_OBJECT_STORE_H_
