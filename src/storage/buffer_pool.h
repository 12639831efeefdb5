#ifndef HM_STORAGE_BUFFER_POOL_H_
#define HM_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "storage/file_manager.h"
#include "storage/page.h"
#include "telemetry/metrics.h"
#include "util/lock_rank.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace hm::storage {

class BufferPool;

/// Pin mode for a fetched page. A read pin takes the frame's latch
/// shared — any number of concurrent readers of the same page proceed
/// together — and forbids MarkDirty(); a write pin takes it exclusive.
enum class PinMode {
  kRead,
  kWrite,
};

/// Reader/writer latch for one buffer frame, built on mutex + condvar
/// rather than std::shared_mutex on purpose: write paths legitimately
/// hold several frame latches at once (a B+tree split pins the whole
/// root-to-leaf path, Table::Insert links two heap pages), which is
/// deadlock-free only because writers are externally serialized by
/// the store-level write lock (DESIGN.md §13) — an invariant TSAN's
/// lock-order heuristic can't see, so native rwlocks acquired in
/// frame-reuse order trip false "lock-order-inversion" reports. Here
/// the internal mutex is never held across another latch acquisition,
/// so no lock-order cycle exists for TSAN to flag, while the mutex
/// hand-off still gives race detection its happens-before edges.
/// No writer preference: at most one writer exists at a time and
/// readers hold latches briefly, so writers cannot starve for long.
///
/// The latch is an annotated capability like the mutexes, but most of
/// its acquisitions live outside the analysis: Fetch latches, hands
/// ownership to a PageGuard, and Unpin unlatches — a cross-function
/// (and potentially cross-thread) hand-off the per-function analysis
/// cannot model, exempted at exactly those two sites in
/// buffer_pool.cc (DESIGN.md §15). The annotations still pay off for
/// any in-scope use and make the latch's reader/writer contract
/// machine-readable.
class HM_CAPABILITY("latch") FrameLatch {
 public:
  void lock() HM_ACQUIRE() {
    util::MutexLock lock(mu_);
    while (state_ != 0) cv_.wait(lock);
    state_ = -1;
  }
  void unlock() HM_RELEASE() {
    {
      util::MutexLock lock(mu_);
      state_ = 0;
    }
    cv_.notify_all();
  }
  void lock_shared() HM_ACQUIRE_SHARED() {
    util::MutexLock lock(mu_);
    while (state_ < 0) cv_.wait(lock);
    ++state_;
  }
  void unlock_shared() HM_RELEASE_SHARED() {
    bool wake;
    {
      util::MutexLock lock(mu_);
      wake = --state_ == 0;
    }
    if (wake) cv_.notify_all();
  }

 private:
  util::Mutex mu_;
  std::condition_variable_any cv_;
  /// -1 = writer, 0 = free, > 0 = reader count.
  int state_ HM_GUARDED_BY(mu_) = 0;
};

/// RAII pin + frame latch on a cached page. While a guard is alive the
/// frame cannot be evicted; destruction (or Release) drops the latch
/// and then unpins. Call MarkDirty() after mutating the page (write
/// pins only) so the pool writes it back.
class PageGuard {
 public:
  PageGuard() = default;
  PageGuard(BufferPool* pool, size_t shard_index, size_t frame_index,
            Page* page, PageId id, PinMode mode);
  ~PageGuard();

  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;
  PageGuard(PageGuard&& other) noexcept;
  PageGuard& operator=(PageGuard&& other) noexcept;

  bool valid() const { return page_ != nullptr; }
  Page* page() { return page_; }
  const Page* page() const { return page_; }
  PageId id() const { return id_; }
  PinMode mode() const { return mode_; }

  /// Marks the underlying frame dirty; it will be flushed before
  /// eviction / on FlushAll. Aborts on a read pin.
  void MarkDirty();

  /// Unlatches and unpins early (the guard becomes invalid).
  void Release();

 private:
  BufferPool* pool_ = nullptr;
  size_t shard_index_ = 0;
  size_t frame_index_ = 0;
  Page* page_ = nullptr;
  PageId id_ = kInvalidPageId;
  PinMode mode_ = PinMode::kWrite;
};

/// Counters distinguishing cache behaviour; the HyperModel cold/warm
/// distinction is visible directly in hits vs misses. Returned by
/// value from BufferPool::stats() as an aggregated snapshot of the
/// per-shard relaxed atomics, so reading it races with nothing.
struct BufferPoolStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t flushes = 0;
};

/// Fixed-capacity page cache over a FileManager, with CLOCK
/// (second-chance) eviction and pin counting. This models the
/// workstation-side object cache of the paper's client/server
/// architecture (R6/R7): warm runs hit here, cold runs miss through to
/// the "server" (the file).
///
/// The pool is hash-partitioned into shards, each with its own frame
/// array, page table, CLOCK hand and kBufferPoolShard mutex, so
/// fetches of pages in different shards never contend. Within a
/// shard the mutex is held only for the table lookup / pin-count
/// update (plus read I/O on a miss); the returned guard then holds a
/// per-frame reader/writer latch outside any shard lock, so
/// concurrent readers of the same hot page proceed in parallel too.
///
/// Latch protocol (pin-before-latch): Fetch pins under the shard
/// mutex, releases it, then latches the frame; Release unlatches and
/// only then unpins. A frame with pin_count == 0 therefore has no
/// latch holders or waiters, so eviction and the flush sweeps never
/// touch latches. Readers hold at most one latch at a time along
/// every read path; writers may hold several (a B+tree split pins the
/// whole root-to-leaf path) but are externally serialized by the
/// store-level write lock. See DESIGN.md §13.
class BufferPool {
 public:
  /// `capacity` 8 KiB page frames in total, split over
  /// min(16, capacity / 64) shards rounded down to a power of two, at
  /// least 1 — small pools (unit tests) collapse to a single shard
  /// and keep exact CLOCK semantics.
  BufferPool(FileManager* file, size_t capacity);
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Pins page `id`, reading it from the file on a miss. The default
  /// write mode preserves the legacy exclusive behaviour; read paths
  /// pass PinMode::kRead to share the frame.
  util::Result<PageGuard> Fetch(PageId id, PinMode mode = PinMode::kWrite);

  /// Allocates a fresh page in the file, pins it (write mode) and tags
  /// its type.
  util::Result<PageGuard> New(PageType type);

  /// Writes every dirty frame back to the file (pages stay cached).
  /// Sweeps the shards one at a time in index order.
  util::Status FlushAll();

  /// Position of an incremental flush sweep: the next (shard, frame)
  /// pair to visit.
  struct FlushCursor {
    size_t shard = 0;
    size_t frame = 0;
  };

  /// Incremental FlushAll for the fuzzy checkpointer: flushes up to
  /// `max_frames` dirty frames starting at `*cursor`, advances the
  /// cursor past the frames visited, and sets `*done` once the sweep
  /// has covered every shard. Start a sweep with a default-constructed
  /// cursor; no lock is held between batches (frames dirtied behind
  /// the cursor belong to the next sweep, which is exactly the fuzzy
  /// contract).
  util::Status FlushBatch(FlushCursor* cursor, size_t max_frames, bool* done);

  /// Flushes then evicts every unpinned frame — the "close the
  /// database" step (§6 protocol step e) that makes the next run cold.
  util::Status DropAll();

  size_t capacity() const { return capacity_; }
  /// Pages in the file behind the pool.
  PageId page_count() const { return file_->page_count(); }
  size_t shard_count() const { return shard_count_; }

  /// Aggregated snapshot of the per-shard counters.
  BufferPoolStats stats() const;
  void ResetStats();

  /// Number of frames currently holding a page (diagnostics).
  size_t ResidentCount() const;

 private:
  friend class PageGuard;

  struct Frame {
    std::unique_ptr<Page> page = std::make_unique<Page>();
    PageId id = kInvalidPageId;
    int pin_count = 0;
    bool dirty = false;
    bool referenced = false;
    /// Reader/writer page latch, taken outside the shard mutex under
    /// the pin (see the class comment). Deliberately unranked: B+tree
    /// writers hold a root-to-leaf path of these at once.
    FrameLatch latch;
  };

  struct Shard {
    /// Guards the frame metadata, page table and clock hand of this
    /// shard only. Never held together with another shard's mutex
    /// (same rank), nor while blocking on a frame latch.
    mutable util::RankedMutex<util::LockRank::kBufferPoolShard> mu;
    /// Frame array (fixed at construction). The array pointer and
    /// frame_count are immutable; per-frame *metadata* (id, pin_count,
    /// dirty, referenced) is guarded by `mu`, while page *content* is
    /// protected by the frame latch — Frame members carry no
    /// HM_GUARDED_BY because one field set answers to two capabilities
    /// depending on the field (see the latch protocol above).
    std::unique_ptr<Frame[]> frames;
    size_t frame_count = 0;
    std::unordered_map<PageId, size_t> page_table HM_GUARDED_BY(mu);
    size_t clock_hand HM_GUARDED_BY(mu) = 0;
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> misses{0};
    std::atomic<uint64_t> evictions{0};
    std::atomic<uint64_t> flushes{0};
  };

  size_t ShardOf(PageId id) const;
  void Unpin(size_t shard_index, size_t frame_index, PinMode mode);
  void MarkDirty(size_t shard_index, size_t frame_index);
  util::Status FlushShardLocked(Shard* shard) HM_REQUIRES(shard->mu);
  util::Status FlushFrame(Shard* shard, Frame* frame)
      HM_REQUIRES(shard->mu);
  /// Finds a victim frame in `shard` via CLOCK; flushes it if dirty.
  util::Result<size_t> EvictOne(Shard* shard) HM_REQUIRES(shard->mu);
  /// Installs page `id` into `shard` under its (held) mutex and
  /// returns the pinned frame; shared by Fetch and New.
  util::Result<size_t> InstallLocked(Shard* shard, PageId id, bool read_file)
      HM_REQUIRES(shard->mu);

  FileManager* file_;
  size_t capacity_ = 0;
  size_t shard_count_ = 0;
  std::unique_ptr<Shard[]> shards_;
  // Process-wide mirrors of the shard counters
  // (`storage.buffer_pool.*`), interned once at construction so the
  // hot path pays one extra relaxed atomic add.
  telemetry::Counter* t_hits_;
  telemetry::Counter* t_misses_;
  telemetry::Counter* t_evictions_;
  telemetry::Counter* t_flushes_;
};

}  // namespace hm::storage

#endif  // HM_STORAGE_BUFFER_POOL_H_
