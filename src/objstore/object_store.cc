#include "objstore/object_store.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include "storage/slotted_page.h"
#include "telemetry/metrics.h"
#include "util/check.h"
#include "util/coding.h"
#include "util/failpoint.h"

namespace hm::objstore {

namespace {

using storage::kInvalidPageId;
using storage::kPagePayloadSize;
using storage::Page;
using storage::PageGuard;
using storage::PageId;
using storage::PageType;
using storage::SlotId;
using storage::SlottedPage;
using storage::WalRecordType;

constexpr uint64_t kMagic = 0x484D4F424A535431ULL;  // "HMOBJST1"
constexpr size_t kDirEntrySize = 8;
constexpr size_t kDirEntriesPerPage = kPagePayloadSize / kDirEntrySize;

// Directory entry flags.
constexpr uint16_t kDirFree = 0;  // zero-initialized pages read as free
constexpr uint16_t kDirSlotted = 1;
constexpr uint16_t kDirOverflow = 2;

// Logical WAL operation codes.
constexpr uint8_t kOpCreate = 1;
constexpr uint8_t kOpUpdate = 2;
constexpr uint8_t kOpDelete = 3;

// Overflow page payload: [next:4][len:4][bytes...].
constexpr size_t kOverflowHeader = 8;
constexpr size_t kOverflowCapacity = kPagePayloadSize - kOverflowHeader;

// Objects above this size go to an overflow chain instead of sharing a
// slotted page; chosen so several text nodes still share one page.
constexpr size_t kOverflowThreshold = kPagePayloadSize / 2;

std::string EncodeLogical(uint8_t op, Oid oid, Oid near,
                          std::string_view after, std::string_view before) {
  std::string payload;
  payload.push_back(static_cast<char>(op));
  util::PutFixed64(&payload, oid);
  util::PutFixed64(&payload, near);
  util::PutLengthPrefixed(&payload, after);
  util::PutLengthPrefixed(&payload, before);
  return payload;
}

/// Dirty frames flushed per write_mu_ hold during a fuzzy checkpoint;
/// small enough that committers interleave with the sweep.
constexpr size_t kCheckpointFlushBatch = 64;

/// How long a fuzzy checkpoint waits for active transactions to drain
/// before giving up until the next tick.
constexpr auto kQuiesceTimeout = std::chrono::milliseconds(100);

bool EnvU64(const char* name, uint64_t* out) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return false;
  char* end = nullptr;
  errno = 0;
  unsigned long long parsed = std::strtoull(value, &end, 10);
  if (errno != 0 || end == value || *end != '\0') return false;
  *out = parsed;
  return true;
}

}  // namespace

void ApplyEnvOverrides(ObjectStoreOptions* options) {
  uint64_t v = 0;
  if (EnvU64("HM_WAL_SEGMENT_BYTES", &v)) options->wal_segment_bytes = v;
}

ObjectStore::ObjectStore(const ObjectStoreOptions& options)
    : options_(options),
      group_commit_([this] { return wal_.Sync(); }, options.group_commit_us) {}

ObjectStore::~ObjectStore() {
  // Best-effort close; a failed final checkpoint has nowhere to
  // report from a destructor. Callers who care call Close() directly.
  (void)Close();
}

util::Result<std::unique_ptr<ObjectStore>> ObjectStore::Open(
    const ObjectStoreOptions& options, const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return util::Status::IoError("create_directories '" + dir +
                                 "': " + ec.message());
  }
  ObjectStoreOptions effective = options;
  ApplyEnvOverrides(&effective);
  std::unique_ptr<ObjectStore> store(new ObjectStore(effective));
  store->dir_ = dir;
  HM_RETURN_IF_ERROR(store->data_file_.Open(dir + "/objects.db"));
  store->pool_ = std::make_unique<storage::BufferPool>(&store->data_file_,
                                                       effective.cache_pages);
  storage::SegmentedWalOptions wal_options;
  wal_options.segment_bytes = effective.wal_segment_bytes;
  HM_RETURN_IF_ERROR(store->wal_.Open(dir + "/objects.wal", wal_options));

  if (store->data_file_.page_count() == 0) {
    HM_RETURN_IF_ERROR(store->InitFresh());
  } else {
    util::Status meta = store->LoadMeta();
    if (!meta.ok() && store->wal_.SizeBytes() == 0) {
      // Creation is made durable by InitFresh's checkpoint, whose WAL
      // checkpoint record is written last (after the data-file sync).
      // An unreadable meta page alongside an empty WAL therefore means
      // a crash interrupted the very first checkpoint: the store never
      // existed durably, so re-initialize instead of refusing forever.
      // An established store can never hit this branch — its meta page
      // is synced before its WAL is ever truncated.
      HM_RETURN_IF_ERROR(store->InitFresh());
    } else {
      HM_RETURN_IF_ERROR(meta);
      HM_RETURN_IF_ERROR(store->Recover());
    }
  }
  {
    util::MutexLock lock(store->write_mu_);
    store->open_ = true;
  }
  // FuzzyCheckpoint() is public (callable without the background
  // thread), so its dedicated data-sync fd always exists.
  store->checkpoint_data_fd_ = ::open((dir + "/objects.db").c_str(), O_RDONLY);
  if (store->checkpoint_data_fd_ < 0) {
    return util::Status::IoError(
        std::string("open objects.db for checkpoint sync: ") +
        std::strerror(errno));
  }
  if (store->options_.checkpoint_interval_ms > 0) {
    ObjectStore* raw = store.get();
    storage::Checkpointer::Options cp;
    cp.interval_ms = store->options_.checkpoint_interval_ms;
    store->checkpointer_.Start([raw] { return raw->FuzzyCheckpoint(); }, cp);
  }
  return store;
}

util::Status ObjectStore::InitFresh() {
  if (data_file_.page_count() == 0) {
    HM_ASSIGN_OR_RETURN(PageGuard meta, pool_->New(PageType::kMeta));
    HM_CHECK(meta.id() == 0);
    meta.MarkDirty();
    meta.Release();
  } else {
    // Re-initializing after a crash mid-creation: page 0 exists in the
    // file (zeroed — its write never happened) but holds no meta yet.
    HM_ASSIGN_OR_RETURN(PageGuard meta, pool_->Fetch(0));
    meta.MarkDirty();
    meta.Release();
  }
  next_oid_ = 1;
  // Establish a durable baseline immediately: a crash right after
  // creation must find a valid (empty) meta page to replay onto.
  return Checkpoint();
}

util::Status ObjectStore::SaveMeta() {
  HM_ASSIGN_OR_RETURN(PageGuard meta, pool_->Fetch(0));
  char* p = meta.page()->payload();
  std::memset(p, 0, kPagePayloadSize);
  size_t off = 0;
  util::EncodeFixed64(p + off, kMagic);
  off += 8;
  util::EncodeFixed64(p + off, next_oid_);
  off += 8;
  for (size_t i = 0; i < kCatalogSlots; ++i) {
    util::EncodeFixed64(p + off, catalog_[i]);
    off += 8;
  }
  util::EncodeFixed32(p + off, static_cast<uint32_t>(dir_pages_.size()));
  off += 4;
  for (PageId id : dir_pages_) {
    if (off + 4 > kPagePayloadSize) {
      return util::Status::Internal("meta page overflow: too many dir pages");
    }
    util::EncodeFixed32(p + off, id);
    off += 4;
  }
  meta.MarkDirty();
  return util::Status::Ok();
}

util::Status ObjectStore::LoadMeta() {
  HM_ASSIGN_OR_RETURN(PageGuard meta, pool_->Fetch(0));
  const char* p = meta.page()->payload();
  size_t off = 0;
  if (util::DecodeFixed64(p) != kMagic) {
    return util::Status::Corruption("bad object store magic");
  }
  off += 8;
  next_oid_ = util::DecodeFixed64(p + off);
  off += 8;
  for (size_t i = 0; i < kCatalogSlots; ++i) {
    catalog_[i] = util::DecodeFixed64(p + off);
    off += 8;
  }
  uint32_t dir_count = util::DecodeFixed32(p + off);
  off += 4;
  dir_pages_.clear();
  for (uint32_t i = 0; i < dir_count; ++i) {
    dir_pages_.push_back(util::DecodeFixed32(p + off));
    off += 4;
  }
  return util::Status::Ok();
}

util::Status ObjectStore::Recover() {
  // Redo/undo recovery across the segment chain. SegmentedWal::Recover
  // classifies the log and hands back, in log order, every committed
  // update at or after the recovery start (re-applied at once) and
  // every update of a *loser* transaction — neither committed nor
  // aborted, in flight at the crash. Losers are undone afterwards in
  // reverse using their logged pre-images, because a buffer-pool
  // steal or a fuzzy checkpoint may have pushed their uncommitted page
  // state to disk. Replay is self-healing (see ApplyLogical's
  // `recovering` mode): a crash mid-checkpoint persists an arbitrary
  // subset of dirty pages, so each record's target location is
  // verified and the record relocated when the page image is older
  // than the directory entry.
  std::vector<std::string> losers;
  uint64_t redone = 0;
  HM_RETURN_IF_ERROR(wal_.Recover(
      [&](uint64_t, std::string_view payload) {
        ++redone;
        return ApplyRecoveredRecord(payload);
      },
      [&](uint64_t, std::string_view payload) {
        losers.emplace_back(payload);
        return util::Status::Ok();
      }));
  for (auto it = losers.rbegin(); it != losers.rend(); ++it) {
    HM_RETURN_IF_ERROR(UndoLogical(*it));
  }
  recovered_records_ = redone + losers.size();
  // A full checkpoint makes the replayed state the new baseline.
  return Checkpoint();
}

util::Status ObjectStore::UndoLogical(std::string_view payload) {
  util::Decoder dec(payload);
  if (dec.Remaining() < 1) {
    return util::Status::Corruption("empty logical record");
  }
  uint8_t op = static_cast<uint8_t>(payload[0]);
  dec.Skip(1);
  uint64_t oid = 0;
  uint64_t near = 0;
  std::string_view after;
  std::string_view before;
  if (!dec.GetFixed64(&oid) || !dec.GetFixed64(&near) ||
      !dec.GetLengthPrefixed(&after) || !dec.GetLengthPrefixed(&before)) {
    return util::Status::Corruption("truncated logical record");
  }
  switch (op) {
    case kOpCreate:
      return ApplyLogical(EncodeLogical(kOpDelete, oid, kInvalidOid, "", ""),
                          /*recovering=*/true);
    case kOpUpdate:
      return ApplyLogical(
          EncodeLogical(kOpUpdate, oid, kInvalidOid, before, ""),
          /*recovering=*/true);
    case kOpDelete:
      return ApplyLogical(
          EncodeLogical(kOpCreate, oid, kInvalidOid, before, ""),
          /*recovering=*/true);
    default:
      return util::Status::Corruption("unknown logical op");
  }
}

util::Status ObjectStore::Close() {
  {
    util::MutexLock lock(write_mu_);
    if (!open_) return util::Status::Ok();
  }
  // Drain the pipeline front to back: no more background checkpoints,
  // then every enrolled commit durable, then the final full
  // checkpoint.
  checkpointer_.Stop();
  HM_RETURN_IF_ERROR(group_commit_.Drain());
  if (checkpoint_data_fd_ >= 0) {
    ::close(checkpoint_data_fd_);
    checkpoint_data_fd_ = -1;
  }
  {
    util::MutexLock lock(write_mu_);
    open_ = false;
    HM_RETURN_IF_ERROR(CheckpointLocked());
  }
  HM_RETURN_IF_ERROR(wal_.Close());
  pool_.reset();
  return data_file_.Close();
}

util::Status ObjectStore::Checkpoint() {
  util::MutexLock lock(write_mu_);
  return CheckpointLocked();
}

util::Status ObjectStore::CheckpointLocked() {
  HM_RETURN_IF_ERROR(SaveMeta());
  HM_RETURN_IF_ERROR(pool_->FlushAll());
  HM_RETURN_IF_ERROR(data_file_.Sync());
  // Roll the current segment off, checkpoint at the head of the fresh
  // one, and prune the old chain. The recovery-start LSN is clamped to
  // the oldest active transaction's begin LSN so in-flight undo
  // information survives the prune.
  HM_RETURN_IF_ERROR(wal_.RollIfNonEmpty());
  uint64_t start = wal_.NextLsn();
  for (const auto& [id, begin_lsn] : active_txns_) {
    start = std::min(start, begin_lsn);
  }
  HM_RETURN_IF_ERROR(wal_.Checkpoint(start));
  last_checkpoint_records_ = wal_.records_appended();
  return util::Status::Ok();
}

util::Status ObjectStore::FuzzySweepLocked(uint64_t* start) {
  HM_RETURN_IF_ERROR(wal_.RollIfNonEmpty());
  *start = wal_.NextLsn();
  HM_RETURN_IF_ERROR(SaveMeta());
  storage::BufferPool::FlushCursor cursor;
  bool done = false;
  while (!done) {
    HM_FAILPOINT("checkpoint/mid_flush/crash");
    HM_RETURN_IF_ERROR(
        pool_->FlushBatch(&cursor, kCheckpointFlushBatch, &done));
  }
  return util::Status::Ok();
}

util::Status ObjectStore::FuzzyCheckpoint() {
  uint64_t start = 0;
  {
    util::MutexLock lock(write_mu_);
    if (!open_) return util::Status::Ok();
    if (wal_.records_appended() == last_checkpoint_records_) {
      return util::Status::Ok();  // nothing new to checkpoint
    }
    checkpoint_waiting_ = true;
    // Begin() yields to the pending checkpoint, so under constant
    // commit load this converges as soon as in-flight transactions
    // finish; a transaction that never finishes only costs a bounded
    // stall before we give up until the next tick.
    const auto deadline = std::chrono::steady_clock::now() + kQuiesceTimeout;
    while (!active_txns_.empty()) {
      if (quiesce_cv_.wait_until(lock, deadline) ==
          std::cv_status::timeout) {
        break;
      }
    }
    const bool quiet = active_txns_.empty();
    util::Status sweep =
        quiet ? FuzzySweepLocked(&start) : util::Status::Ok();
    checkpoint_waiting_ = false;
    begin_cv_.notify_all();
    HM_RETURN_IF_ERROR(sweep);
    if (!quiet) {
      static telemetry::Counter* skipped =
          telemetry::Registry::Global().GetCounter(
              "storage.checkpoint.skipped");
      skipped->Add();
      return util::Status::Ok();
    }
  }
  // Every page swept above carries only updates with LSN < start (the
  // sweep ran at quiesce, and later dirtying appends at LSN >= start),
  // so once the data file is durable the chain below start is dead.
  // The fsync goes through a dedicated fd, off the write lock, so
  // committers run concurrently with the expensive part.
  if (::fdatasync(checkpoint_data_fd_) != 0) {
    return util::Status::IoError(std::string("checkpoint fdatasync: ") +
                                 std::strerror(errno));
  }
  HM_RETURN_IF_ERROR(wal_.Checkpoint(start));
  util::MutexLock lock(write_mu_);
  last_checkpoint_records_ = wal_.records_appended();
  return util::Status::Ok();
}

void ObjectStore::MaybeNudgeCheckpointer() {
  if (!checkpointer_.running()) return;
  uint64_t threshold = options_.checkpoint_wal_bytes > 0
                           ? options_.checkpoint_wal_bytes
                           : 4 * options_.wal_segment_bytes;
  if (wal_.SizeBytes() >= threshold) checkpointer_.Nudge();
}

util::Status ObjectStore::DropCaches() {
  util::MutexLock lock(write_mu_);
  HM_RETURN_IF_ERROR(SaveMeta());
  return pool_->DropAll();
}

uint64_t ObjectStore::GetCatalog(size_t slot) const {
  HM_CHECK(slot < kCatalogSlots);
  util::MutexLock lock(write_mu_);
  return catalog_[slot];
}

void ObjectStore::SetCatalog(size_t slot, uint64_t value) {
  HM_CHECK(slot < kCatalogSlots);
  util::MutexLock lock(write_mu_);
  catalog_[slot] = value;
}

util::Result<Transaction> ObjectStore::Begin() {
  util::MutexLock lock(write_mu_);
  // Yield to a quiescing checkpointer (bounded on its side): letting
  // new transactions slip in under constant load would starve it
  // forever.
  while (checkpoint_waiting_) begin_cv_.wait(lock);
  Transaction txn;
  txn.id_ = next_txn_id_++;
  txn.active_ = true;
  active_txns_[txn.id_] = wal_.NextLsn();
  return txn;
}

util::Status ObjectStore::Commit(Transaction* txn) {
  HM_ASSIGN_OR_RETURN(uint64_t ticket, CommitAsync(txn));
  return WaitCommitDurable(ticket);
}

util::Result<uint64_t> ObjectStore::CommitAsync(Transaction* txn) {
  if (!txn->active_) {
    return util::Status::InvalidArgument("transaction not active");
  }
  uint64_t ticket = 0;
  {
    util::MutexLock lock(write_mu_);
    if (txn->logged_) {
      util::Result<uint64_t> lsn =
          wal_.Append(WalRecordType::kCommit, txn->id_, "");
      if (!lsn.ok()) {
        // A failed append wrote nothing, so recovery would find no
        // commit record and undo the transaction. Do the same now, and
        // end it: left active, it would pin every later checkpoint.
        util::Status undone = UndoLocked(txn);
        EndLocked(txn);
        stats_.aborts.fetch_add(1, std::memory_order_relaxed);
        // A rollback that failed too is the graver of the two errors.
        return undone.ok() ? lsn.status() : undone;
      }
    }
    // Enrolling under write_mu_ keeps ticket order consistent with
    // append order, so a ticket's sync always covers its records.
    ticket = group_commit_.Enroll();
    EndLocked(txn);
    stats_.commits.fetch_add(1, std::memory_order_relaxed);
  }
  MaybeNudgeCheckpointer();
  return ticket;
}

util::Status ObjectStore::WaitCommitDurable(uint64_t ticket) {
  return group_commit_.WaitDurable(ticket);
}

util::Status ObjectStore::Abort(Transaction* txn) {
  if (!txn->active_) {
    return util::Status::InvalidArgument("transaction not active");
  }
  util::MutexLock lock(write_mu_);
  HM_RETURN_IF_ERROR(UndoLocked(txn));
  util::Status logged = util::Status::Ok();
  if (txn->logged_) {
    logged = wal_.Append(WalRecordType::kAbort, txn->id_, "").status();
  }
  // The pages are restored either way, and a log with no kAbort still
  // reads as a loser on recovery, so the transaction ends even when its
  // abort record did not land.
  EndLocked(txn);
  stats_.aborts.fetch_add(1, std::memory_order_relaxed);
  return logged;
}

util::Status ObjectStore::UndoLocked(Transaction* txn) {
  // Undo in reverse order using the retained pre-images.
  for (auto it = txn->undo_.rbegin(); it != txn->undo_.rend(); ++it) {
    switch (it->kind) {
      case Transaction::Undo::Kind::kCreate: {
        HM_ASSIGN_OR_RETURN(DirEntry entry, DirGet(it->oid));
        HM_RETURN_IF_ERROR(Remove(entry));
        HM_RETURN_IF_ERROR(DirSet(it->oid, DirEntry{}));
        break;
      }
      case Transaction::Undo::Kind::kUpdate: {
        HM_RETURN_IF_ERROR(
            ApplyLogical(EncodeLogical(kOpUpdate, it->oid, kInvalidOid,
                                       it->before, "")));
        break;
      }
      case Transaction::Undo::Kind::kDelete: {
        HM_RETURN_IF_ERROR(
            ApplyLogical(EncodeLogical(kOpCreate, it->oid, kInvalidOid,
                                       it->before, "")));
        break;
      }
    }
  }
  return util::Status::Ok();
}

void ObjectStore::EndLocked(Transaction* txn) {
  active_txns_.erase(txn->id_);
  if (active_txns_.empty()) quiesce_cv_.notify_all();
  txn->active_ = false;
  txn->undo_.clear();
}

util::Result<size_t> ObjectStore::DirIndex(Oid oid) const {
  if (oid == kInvalidOid || oid >= next_oid_) {
    return util::Status::NotFound("oid out of range");
  }
  size_t index = static_cast<size_t>(oid - 1);
  if (index / kDirEntriesPerPage >= dir_pages_.size()) {
    return util::Status::NotFound("oid has no directory page");
  }
  return index;
}

util::Result<ObjectStore::DirEntry> ObjectStore::DecodeDirEntry(
    const Page& page, size_t index) {
  const char* p =
      page.payload() + (index % kDirEntriesPerPage) * kDirEntrySize;
  DirEntry entry;
  entry.page = util::DecodeFixed32(p);
  entry.slot = util::DecodeFixed16(p + 4);
  entry.flags = util::DecodeFixed16(p + 6);
  if (entry.flags == kDirFree) {
    return util::Status::NotFound("object deleted or never created");
  }
  return entry;
}

util::Result<ObjectStore::DirEntry> ObjectStore::DirGet(Oid oid) const {
  HM_ASSIGN_OR_RETURN(size_t index, DirIndex(oid));
  // Shared latch: DirGet is on the concurrent-reader path (Read,
  // Exists); writer callers take their exclusive latches afterwards,
  // never while this guard is live.
  HM_ASSIGN_OR_RETURN(PageGuard guard,
                      pool_->Fetch(dir_pages_[index / kDirEntriesPerPage],
                                   storage::PinMode::kRead));
  return DecodeDirEntry(*guard.page(), index);
}

util::Result<PageId> ObjectStore::DirPageFor(Oid oid, bool create) {
  size_t index = static_cast<size_t>(oid - 1);
  size_t dir_index = index / kDirEntriesPerPage;
  while (dir_index >= dir_pages_.size()) {
    if (!create) return util::Status::NotFound("oid has no directory page");
    HM_ASSIGN_OR_RETURN(PageGuard guard, pool_->New(PageType::kDirectory));
    guard.MarkDirty();
    dir_pages_.push_back(guard.id());
  }
  return dir_pages_[dir_index];
}

util::Status ObjectStore::DirSet(Oid oid, DirEntry entry) {
  HM_ASSIGN_OR_RETURN(PageId dir_page, DirPageFor(oid, /*create=*/true));
  HM_ASSIGN_OR_RETURN(PageGuard guard, pool_->Fetch(dir_page));
  size_t index = static_cast<size_t>(oid - 1);
  char* p = guard.page()->payload() +
            (index % kDirEntriesPerPage) * kDirEntrySize;
  util::EncodeFixed32(p, entry.page);
  util::EncodeFixed16(p + 4, entry.slot);
  util::EncodeFixed16(p + 6, entry.flags);
  guard.MarkDirty();
  return util::Status::Ok();
}

bool ObjectStore::Exists(Oid oid) const { return DirGet(oid).ok(); }

util::Result<PageId> ObjectStore::WriteOverflow(std::string_view data) {
  // Build the chain back-to-front so each page knows its successor.
  size_t total = data.size();
  size_t num_pages = std::max<size_t>(1, (total + kOverflowCapacity - 1) /
                                             kOverflowCapacity);
  PageId next = kInvalidPageId;
  for (size_t i = num_pages; i-- > 0;) {
    size_t begin = i * kOverflowCapacity;
    size_t len = std::min(kOverflowCapacity, total - begin);
    HM_ASSIGN_OR_RETURN(PageGuard guard, pool_->New(PageType::kOverflow));
    char* p = guard.page()->payload();
    util::EncodeFixed32(p, next);
    util::EncodeFixed32(p + 4, static_cast<uint32_t>(len));
    std::memcpy(p + kOverflowHeader, data.data() + begin, len);
    guard.MarkDirty();
    next = guard.id();
  }
  return next;
}

util::Status ObjectStore::WalkOverflow(
    PageId head,
    const std::function<util::Status(PageId, std::string_view)>& visit)
    const {
  // Each hop visits a distinct page of a well-formed chain, so a chain
  // longer than the file loops.
  const uint64_t max_hops = data_file_.page_count();
  uint64_t hops = 0;
  PageId current = head;
  while (current != kInvalidPageId) {
    if (++hops > max_hops) {
      return util::Status::Corruption("overflow chain loops");
    }
    // Latch-crawl: one shared latch at a time down the chain.
    HM_ASSIGN_OR_RETURN(PageGuard guard,
                        pool_->Fetch(current, storage::PinMode::kRead));
    if (guard.page()->type() != PageType::kOverflow) {
      return util::Status::Corruption("overflow chain reaches page " +
                                      std::to_string(current) +
                                      " that is not an overflow page");
    }
    const char* p = guard.page()->payload();
    PageId next = util::DecodeFixed32(p);
    uint32_t len = util::DecodeFixed32(p + 4);
    if (len > kOverflowCapacity) {
      return util::Status::Corruption("overflow page length out of range");
    }
    HM_RETURN_IF_ERROR(
        visit(current, std::string_view(p + kOverflowHeader, len)));
    current = next;
  }
  return util::Status::Ok();
}

util::Status ObjectStore::FreeOverflow(PageId head) {
  // Walk the whole chain first, so a corrupt one is refused before any
  // page changes. Pages are not recycled (allocation is append-only);
  // just mark the chain pages free for diagnostics.
  std::vector<PageId> chain;
  HM_RETURN_IF_ERROR(WalkOverflow(head, [&chain](PageId id, std::string_view) {
    chain.push_back(id);
    return util::Status::Ok();
  }));
  for (PageId id : chain) {
    HM_ASSIGN_OR_RETURN(PageGuard guard, pool_->Fetch(id));
    guard.page()->set_type(PageType::kFree);
    guard.MarkDirty();
  }
  return util::Status::Ok();
}

util::Status ObjectStore::ReadOverflow(PageId head, std::string* out) const {
  return WalkOverflow(head, [out](PageId, std::string_view bytes) {
    out->append(bytes);
    return util::Status::Ok();
  });
}

util::Result<ObjectStore::DirEntry> ObjectStore::Place(std::string_view data,
                                                       Oid near) {
  if (data.size() > kOverflowThreshold) {
    HM_ASSIGN_OR_RETURN(PageId head, WriteOverflow(data));
    return DirEntry{head, 0, kDirOverflow};
  }
  const uint32_t size = static_cast<uint32_t>(data.size());

  // Inserts into an existing page if it fits, leaving `reserve` bytes
  // of slack. Clustered placement reserves growth room: node records
  // grow as relationships are added, and a packed page would force
  // relocations that destroy exactly the locality clustering builds.
  auto try_page = [&](PageId page_id,
                      uint32_t reserve) -> util::Result<DirEntry> {
    HM_ASSIGN_OR_RETURN(PageGuard guard, pool_->Fetch(page_id));
    if (!SlottedPage::CanFit(*guard.page(), size + reserve)) {
      return util::Status::OutOfRange("page full");
    }
    HM_ASSIGN_OR_RETURN(SlotId slot, SlottedPage::Insert(guard.page(), data));
    guard.MarkDirty();
    return DirEntry{page_id, slot, kDirSlotted};
  };
  // Reserve ~2x the record's size for future growth of co-located
  // records (fill-factor style), capped to stay usable on big records.
  const uint32_t cluster_reserve =
      std::min<uint32_t>(2 * size, kPagePayloadSize / 4);

  switch (options_.placement) {
    case PlacementPolicy::kClustered: {
      // §5.2: cluster along the 1-N hierarchy. Try the hint object's
      // page, then that page's private overflow chain, so an anchor
      // page's families stay together instead of interleaving with
      // unrelated creations on the global fill page.
      if (near != kInvalidOid) {
        auto near_entry = DirGet(near);
        if (near_entry.ok() && near_entry->flags == kDirSlotted) {
          PageId anchor = near_entry->page;
          auto placed = try_page(anchor, cluster_reserve);
          if (placed.ok()) return placed;
          auto tail_it = cluster_tails_.find(anchor);
          if (tail_it != cluster_tails_.end()) {
            placed = try_page(tail_it->second, cluster_reserve);
            if (placed.ok()) return placed;
          }
          HM_ASSIGN_OR_RETURN(DirEntry entry, NewSlottedPage(data));
          cluster_tails_[anchor] = entry.page;
          return entry;
        }
      }
      break;  // no usable hint: fall through to sequential fill
    }
    case PlacementPolicy::kRandom: {
      // Scatter over existing pages with room (bounded probes).
      for (int probe = 0; probe < 8 && !slotted_pages_.empty(); ++probe) {
        placement_rng_state_ =
            placement_rng_state_ * 6364136223846793005ULL + 1442695040888963407ULL;
        size_t index = static_cast<size_t>(
            (placement_rng_state_ >> 17) % slotted_pages_.size());
        auto placed = try_page(slotted_pages_[index], 0);
        if (placed.ok()) return placed;
      }
      return NewSlottedPage(data);
    }
    case PlacementPolicy::kSequential:
      break;
  }

  // Sequential fill: the current global fill page, else a new one.
  if (active_fill_page_ != kInvalidPageId) {
    auto placed = try_page(active_fill_page_, 0);
    if (placed.ok()) return placed;
  }
  HM_ASSIGN_OR_RETURN(DirEntry entry, NewSlottedPage(data));
  active_fill_page_ = entry.page;
  return entry;
}

util::Result<ObjectStore::DirEntry> ObjectStore::NewSlottedPage(
    std::string_view data) {
  HM_ASSIGN_OR_RETURN(PageGuard guard, pool_->New(PageType::kSlotted));
  SlottedPage::Init(guard.page());
  HM_ASSIGN_OR_RETURN(SlotId slot, SlottedPage::Insert(guard.page(), data));
  guard.MarkDirty();
  slotted_pages_.push_back(guard.id());
  return DirEntry{guard.id(), slot, kDirSlotted};
}

util::Status ObjectStore::Remove(const DirEntry& entry) {
  if (entry.flags == kDirOverflow) {
    return FreeOverflow(entry.page);
  }
  HM_ASSIGN_OR_RETURN(PageGuard guard, pool_->Fetch(entry.page));
  HM_RETURN_IF_ERROR(SlottedPage::Erase(guard.page(), entry.slot));
  guard.MarkDirty();
  return util::Status::Ok();
}

util::Status ObjectStore::ApplyLogical(std::string_view payload,
                                       bool recovering) {
  util::Decoder dec(payload);
  if (dec.Remaining() < 1) {
    return util::Status::Corruption("empty logical record");
  }
  uint8_t op = static_cast<uint8_t>(payload[0]);
  dec.Skip(1);
  uint64_t oid = 0;
  uint64_t near = 0;
  std::string_view after;
  std::string_view before;
  if (!dec.GetFixed64(&oid) || !dec.GetFixed64(&near) ||
      !dec.GetLengthPrefixed(&after) || !dec.GetLengthPrefixed(&before)) {
    return util::Status::Corruption("truncated logical record");
  }

  switch (op) {
    case kOpCreate: {
      if (Exists(oid)) {
        next_oid_ = std::max(next_oid_, oid + 1);
        // Replay idempotency normally trusts the directory, but after
        // a crash the entry may point into a data page whose flushed
        // image predates it. Only skip when the record is actually
        // readable there; otherwise rewrite it at a fresh location
        // (later update records in the log fix up the contents).
        if (!recovering || Read(oid).ok()) return util::Status::Ok();
      }
      HM_ASSIGN_OR_RETURN(DirEntry entry, Place(after, near));
      HM_RETURN_IF_ERROR(DirSet(oid, entry));
      next_oid_ = std::max(next_oid_, oid + 1);
      return util::Status::Ok();
    }
    case kOpUpdate: {
      auto entry_or = DirGet(oid);
      if (!entry_or.ok()) return util::Status::Ok();  // deleted later in log
      DirEntry entry = *entry_or;
      if (entry.flags == kDirSlotted &&
          after.size() <= kOverflowThreshold) {
        auto guard_or = pool_->Fetch(entry.page);
        if (!guard_or.ok() && !recovering) return guard_or.status();
        if (guard_or.ok()) {
          util::Status s =
              SlottedPage::Update(guard_or->page(), entry.slot, after);
          if (s.ok()) {
            guard_or->MarkDirty();
            return util::Status::Ok();
          }
          // kOutOfRange: the record no longer fits in place. During
          // recovery a stale page image can also make the slot itself
          // vanish (kNotFound); both relocate below.
          if (s.code() != util::StatusCode::kOutOfRange &&
              !(recovering && s.code() == util::StatusCode::kNotFound)) {
            return s;
          }
        }
      }
      util::Status removed = Remove(entry);
      if (!removed.ok() && !recovering) return removed;
      HM_ASSIGN_OR_RETURN(DirEntry fresh, Place(after, oid));
      return DirSet(oid, fresh);
    }
    case kOpDelete: {
      auto entry_or = DirGet(oid);
      if (!entry_or.ok()) return util::Status::Ok();  // idempotent replay
      util::Status removed = Remove(*entry_or);
      if (!removed.ok() && !recovering) return removed;
      return DirSet(oid, DirEntry{});
    }
    default:
      return util::Status::Corruption("unknown logical op");
  }
}

util::Status ObjectStore::ApplyReplicatedRecord(std::string_view payload) {
  util::MutexLock lock(write_mu_);
  if (!open_) return util::Status::InvalidArgument("store not open");
  return ApplyLogical(payload, /*recovering=*/true);
}

util::Status ObjectStore::LogAndApply(Transaction* txn,
                                      std::string_view payload) {
  HM_ASSIGN_OR_RETURN(uint64_t lsn,
                      wal_.Append(WalRecordType::kUpdate, txn->id_, payload));
  (void)lsn;
  txn->logged_ = true;
  return ApplyLogical(payload);
}

util::Result<Oid> ObjectStore::Create(Transaction* txn, std::string_view data,
                                      Oid near) {
  util::MutexLock lock(write_mu_);
  return CreateLocked(txn, data, near);
}

util::Result<Oid> ObjectStore::CreateLocked(Transaction* txn,
                                            std::string_view data, Oid near) {
  if (!txn->active_) {
    return util::Status::InvalidArgument("transaction not active");
  }
  Oid oid = next_oid_;
  HM_RETURN_IF_ERROR(
      LogAndApply(txn, EncodeLogical(kOpCreate, oid, near, data, "")));
  txn->undo_.push_back({Transaction::Undo::Kind::kCreate, oid, ""});
  stats_.objects_created.fetch_add(1, std::memory_order_relaxed);
  return oid;
}

util::Result<std::string_view> ObjectStore::PinRecord(
    Oid oid, PageGuard* guard, std::string* overflow) const {
  // Latch-crawling read: directory page, then data/overflow pages,
  // all under shared frame latches — never write_mu_ — so concurrent
  // readers proceed in parallel across (and within) pool shards.
  HM_ASSIGN_OR_RETURN(DirEntry entry, DirGet(oid));
  stats_.objects_read.fetch_add(1, std::memory_order_relaxed);
  if (entry.flags == kDirOverflow) {
    HM_RETURN_IF_ERROR(ReadOverflow(entry.page, overflow));
    return std::string_view(*overflow);
  }
  HM_ASSIGN_OR_RETURN(*guard,
                      pool_->Fetch(entry.page, storage::PinMode::kRead));
  return SlottedPage::Read(*guard->page(), entry.slot);
}

util::Status ObjectStore::ViewMany(
    std::span<const Oid> oids,
    const std::function<util::Status(size_t, std::string_view)>& fn) const {
  // One record is View's walk: the sorts and the visit list would only
  // slow a frontier of one, which ops 15 and 18 walk at every level.
  if (oids.size() == 1) {
    return View(oids[0],
                [&fn](std::string_view record) { return fn(0, record); });
  }
  // Otherwise the same latch-crawl as PinRecord, a pass at a time: one
  // shared latch held at most, and a page is re-pinned only when the
  // sorted walk moves off it.
  struct Visit {
    size_t index;    // into `oids`
    DirEntry entry;  // filled by the first pass
  };
  std::vector<Visit> visits(oids.size());
  for (size_t i = 0; i < oids.size(); ++i) visits[i].index = i;
  std::sort(visits.begin(), visits.end(),
            [oids](const Visit& a, const Visit& b) {
              return oids[a.index] != oids[b.index]
                         ? oids[a.index] < oids[b.index]
                         : a.index < b.index;
            });
  PageGuard guard;
  for (Visit& visit : visits) {
    HM_ASSIGN_OR_RETURN(size_t index, DirIndex(oids[visit.index]));
    const PageId dir_page = dir_pages_[index / kDirEntriesPerPage];
    if (!guard.valid() || guard.id() != dir_page) {
      guard.Release();
      HM_ASSIGN_OR_RETURN(guard,
                          pool_->Fetch(dir_page, storage::PinMode::kRead));
    }
    HM_ASSIGN_OR_RETURN(visit.entry, DecodeDirEntry(*guard.page(), index));
  }
  guard.Release();
  stats_.objects_read.fetch_add(oids.size(), std::memory_order_relaxed);

  std::sort(visits.begin(), visits.end(),
            [](const Visit& a, const Visit& b) {
              return a.entry.page != b.entry.page ? a.entry.page < b.entry.page
                                                  : a.index < b.index;
            });
  std::string overflow;
  for (const Visit& visit : visits) {
    if (visit.entry.flags == kDirOverflow) {
      guard.Release();
      overflow.clear();
      HM_RETURN_IF_ERROR(ReadOverflow(visit.entry.page, &overflow));
      HM_RETURN_IF_ERROR(fn(visit.index, overflow));
      continue;
    }
    if (!guard.valid() || guard.id() != visit.entry.page) {
      guard.Release();
      HM_ASSIGN_OR_RETURN(
          guard, pool_->Fetch(visit.entry.page, storage::PinMode::kRead));
    }
    HM_ASSIGN_OR_RETURN(std::string_view record,
                        SlottedPage::Read(*guard.page(), visit.entry.slot));
    HM_RETURN_IF_ERROR(fn(visit.index, record));
  }
  return util::Status::Ok();
}

util::Result<std::string> ObjectStore::Read(Oid oid) const {
  std::string out;
  HM_RETURN_IF_ERROR(View(oid, [&out](std::string_view record) {
    out.assign(record);
    return util::Status::Ok();
  }));
  return out;
}

util::Status ObjectStore::Modify(
    Transaction* txn, Oid oid,
    const std::function<util::Result<std::string>(std::string_view)>&
        change) {
  util::MutexLock lock(write_mu_);
  if (!txn->active_) {
    return util::Status::InvalidArgument("transaction not active");
  }
  HM_ASSIGN_OR_RETURN(std::string before, Read(oid));
  HM_ASSIGN_OR_RETURN(std::string after, change(before));
  HM_RETURN_IF_ERROR(
      LogAndApply(txn, EncodeLogical(kOpUpdate, oid, kInvalidOid, after,
                                     before)));
  txn->undo_.push_back(
      {Transaction::Undo::Kind::kUpdate, oid, std::move(before)});
  stats_.objects_updated.fetch_add(1, std::memory_order_relaxed);
  return util::Status::Ok();
}

util::Status ObjectStore::Update(Transaction* txn, Oid oid,
                                 std::string_view data) {
  return Modify(txn, oid,
                [data](std::string_view) -> util::Result<std::string> {
                  return std::string(data);
                });
}

util::Status ObjectStore::Delete(Transaction* txn, Oid oid) {
  util::MutexLock lock(write_mu_);
  return DeleteLocked(txn, oid);
}

util::Status ObjectStore::DeleteLocked(Transaction* txn, Oid oid) {
  if (!txn->active_) {
    return util::Status::InvalidArgument("transaction not active");
  }
  HM_ASSIGN_OR_RETURN(std::string before, Read(oid));
  HM_RETURN_IF_ERROR(
      LogAndApply(txn, EncodeLogical(kOpDelete, oid, kInvalidOid, "",
                                     before)));
  txn->undo_.push_back(
      {Transaction::Undo::Kind::kDelete, oid, std::move(before)});
  stats_.objects_deleted.fetch_add(1, std::memory_order_relaxed);
  return util::Status::Ok();
}

util::Status ObjectStore::BackupTo(const std::string& backup_dir) {
  // Holding write_mu_ across the copies keeps the checkpointer (and
  // any committer) from moving files or bytes underneath them.
  util::MutexLock lock(write_mu_);
  HM_RETURN_IF_ERROR(CheckpointLocked());
  std::error_code ec;
  std::filesystem::create_directories(backup_dir, ec);
  if (ec) {
    return util::Status::IoError("create_directories '" + backup_dir +
                                 "': " + ec.message());
  }
  std::vector<std::string> files = wal_.SegmentPaths();
  files.push_back(dir_ + "/objects.db");
  for (const std::string& file : files) {
    std::string base = file.substr(file.find_last_of('/') + 1);
    std::filesystem::copy_file(
        file, backup_dir + "/" + base,
        std::filesystem::copy_options::overwrite_existing, ec);
    if (ec) {
      return util::Status::IoError("backup copy of '" + base +
                                   "': " + ec.message());
    }
  }
  return util::Status::Ok();
}

util::Result<uint64_t> ObjectStore::CollectGarbage(
    Transaction* txn, const std::vector<Oid>& roots,
    const std::function<util::Result<std::vector<Oid>>(
        Oid, const std::string&)>& trace) {
  if (!txn->active_) {
    return util::Status::InvalidArgument("transaction not active");
  }
  util::MutexLock lock(write_mu_);
  // Mark: breadth-first from the roots through the caller's tracer.
  std::vector<bool> marked(next_oid_, false);
  std::vector<Oid> frontier;
  for (Oid root : roots) {
    if (root != kInvalidOid && root < next_oid_ && !marked[root] &&
        Exists(root)) {
      marked[root] = true;
      frontier.push_back(root);
    }
  }
  while (!frontier.empty()) {
    Oid oid = frontier.back();
    frontier.pop_back();
    HM_ASSIGN_OR_RETURN(std::string data, Read(oid));
    HM_ASSIGN_OR_RETURN(std::vector<Oid> refs, trace(oid, data));
    for (Oid ref : refs) {
      if (ref == kInvalidOid || ref >= next_oid_ || marked[ref]) continue;
      if (!Exists(ref)) continue;  // dangling reference: nothing to keep
      marked[ref] = true;
      frontier.push_back(ref);
    }
  }
  // Sweep: delete everything unmarked.
  uint64_t collected = 0;
  for (Oid oid = 1; oid < next_oid_; ++oid) {
    if (marked[oid] || !Exists(oid)) continue;
    HM_RETURN_IF_ERROR(DeleteLocked(txn, oid));
    ++collected;
  }
  return collected;
}

}  // namespace hm::objstore

