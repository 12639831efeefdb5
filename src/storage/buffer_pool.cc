#include "storage/buffer_pool.h"

#include <algorithm>
#include <mutex>
#include <string>

#include "telemetry/metrics.h"
#include "util/check.h"
#include "util/failpoint.h"

namespace hm::storage {

namespace {

/// Shard-count policy: one shard per 64 frames, at least 1 and capped
/// at 16, floored to a power of two (for mask-based selection). Every
/// shard owns at least one frame.
size_t ShardCountFor(size_t capacity) {
  size_t shards = std::max<size_t>(1, std::min<size_t>(16, capacity / 64));
  while ((shards & (shards - 1)) != 0) shards &= shards - 1;
  return shards;
}

/// Latch hand-off (the one deliberate gap in the static analysis,
/// DESIGN.md §15): Fetch/New acquire the frame latch here and transfer
/// ownership to the returned PageGuard, which releases it — possibly
/// from another function, possibly on another thread — via Unpin. A
/// cross-function ownership transfer is outside the per-function
/// capability model, so these two helpers are exempted; the protocol
/// itself (pin-before-latch, unlatch-before-unpin) runs under TSAN in
/// CI and is argued deadlock-free in DESIGN.md §13.
void LatchFrame(FrameLatch& latch, PinMode mode)
    HM_NO_THREAD_SAFETY_ANALYSIS {
  if (mode == PinMode::kRead) {
    latch.lock_shared();
  } else {
    latch.lock();
  }
}

void UnlatchFrame(FrameLatch& latch, PinMode mode)
    HM_NO_THREAD_SAFETY_ANALYSIS {
  if (mode == PinMode::kRead) {
    latch.unlock_shared();
  } else {
    latch.unlock();
  }
}

}  // namespace

PageGuard::PageGuard(BufferPool* pool, size_t shard_index, size_t frame_index,
                     Page* page, PageId id, PinMode mode)
    : pool_(pool),
      shard_index_(shard_index),
      frame_index_(frame_index),
      page_(page),
      id_(id),
      mode_(mode) {}

PageGuard::~PageGuard() { Release(); }

PageGuard::PageGuard(PageGuard&& other) noexcept
    : pool_(other.pool_),
      shard_index_(other.shard_index_),
      frame_index_(other.frame_index_),
      page_(other.page_),
      id_(other.id_),
      mode_(other.mode_) {
  other.page_ = nullptr;
  other.pool_ = nullptr;
}

PageGuard& PageGuard::operator=(PageGuard&& other) noexcept {
  if (this != &other) {
    Release();
    pool_ = other.pool_;
    shard_index_ = other.shard_index_;
    frame_index_ = other.frame_index_;
    page_ = other.page_;
    id_ = other.id_;
    mode_ = other.mode_;
    other.page_ = nullptr;
    other.pool_ = nullptr;
  }
  return *this;
}

void PageGuard::MarkDirty() {
  HM_CHECK(valid());
  HM_CHECK(mode_ == PinMode::kWrite);
  pool_->MarkDirty(shard_index_, frame_index_);
}

void PageGuard::Release() {
  if (page_ != nullptr) {
    pool_->Unpin(shard_index_, frame_index_, mode_);
    page_ = nullptr;
    pool_ = nullptr;
  }
}

BufferPool::BufferPool(FileManager* file, size_t capacity)
    : file_(file), capacity_(capacity) {
  HM_CHECK_GT(capacity_, 0u);
  shard_count_ = ShardCountFor(capacity_);
  shards_ = std::make_unique<Shard[]>(shard_count_);
  const size_t base = capacity_ / shard_count_;
  const size_t extra = capacity_ % shard_count_;
  for (size_t s = 0; s < shard_count_; ++s) {
    Shard& shard = shards_[s];
    shard.frame_count = base + (s < extra ? 1 : 0);
    shard.frames = std::make_unique<Frame[]>(shard.frame_count);
  }
  auto& registry = telemetry::Registry::Global();
  t_hits_ = registry.GetCounter("storage.buffer_pool.hits");
  t_misses_ = registry.GetCounter("storage.buffer_pool.misses");
  t_evictions_ = registry.GetCounter("storage.buffer_pool.evictions");
  t_flushes_ = registry.GetCounter("storage.buffer_pool.flushes");
}

BufferPool::~BufferPool() {
  // Best effort; errors on teardown are not recoverable anyway — the
  // explicit discard is the only place a Status may be dropped.
  (void)FlushAll();
}

size_t BufferPool::ShardOf(PageId id) const {
  // Fibonacci hash so runs of consecutive page ids (sequential scans,
  // clustered placement) spread across shards instead of marching
  // through one.
  const uint64_t h = static_cast<uint64_t>(id) * 0x9E3779B97F4A7C15ull;
  return static_cast<size_t>(h >> 32) & (shard_count_ - 1);
}

util::Result<size_t> BufferPool::InstallLocked(Shard* shard, PageId id,
                                               bool read_file) {
  HM_ASSIGN_OR_RETURN(size_t victim, EvictOne(shard));
  Frame& frame = shard->frames[victim];
  if (read_file) {
    HM_RETURN_IF_ERROR(file_->ReadPage(id, frame.page.get()));
  } else {
    frame.page->Zero();
  }
  frame.id = id;
  frame.pin_count = 1;
  frame.dirty = !read_file;
  frame.referenced = true;
  shard->page_table[id] = victim;
  return victim;
}

util::Result<PageGuard> BufferPool::Fetch(PageId id, PinMode mode) {
  const size_t s = ShardOf(id);
  Shard& shard = shards_[s];
  Frame* frame = nullptr;
  size_t index = 0;
  {
    util::MutexLock lock(shard.mu);
    auto it = shard.page_table.find(id);
    if (it != shard.page_table.end()) {
      shard.hits.fetch_add(1, std::memory_order_relaxed);
      t_hits_->Add();
      index = it->second;
      frame = &shard.frames[index];
      ++frame->pin_count;
      frame->referenced = true;
    } else {
      shard.misses.fetch_add(1, std::memory_order_relaxed);
      t_misses_->Add();
      HM_ASSIGN_OR_RETURN(index, InstallLocked(&shard, id, /*read_file=*/true));
      frame = &shard.frames[index];
    }
  }
  // Latch outside the shard mutex: the pin taken above keeps the frame
  // resident, and a blocked latch acquisition must not stall fetches
  // of other pages in the shard.
  LatchFrame(frame->latch, mode);
  return PageGuard(this, s, index, frame->page.get(), id, mode);
}

util::Result<PageGuard> BufferPool::New(PageType type) {
  HM_ASSIGN_OR_RETURN(PageId id, file_->AllocatePage());
  const size_t s = ShardOf(id);
  Shard& shard = shards_[s];
  Frame* frame = nullptr;
  size_t index = 0;
  {
    util::MutexLock lock(shard.mu);
    HM_ASSIGN_OR_RETURN(index, InstallLocked(&shard, id, /*read_file=*/false));
    frame = &shard.frames[index];
    frame->page->set_page_id(id);
    frame->page->set_type(type);
  }
  LatchFrame(frame->latch, PinMode::kWrite);
  return PageGuard(this, s, index, frame->page.get(), id, PinMode::kWrite);
}

util::Status BufferPool::FlushAll() {
  for (size_t s = 0; s < shard_count_; ++s) {
    Shard& shard = shards_[s];
    util::MutexLock lock(shard.mu);
    HM_RETURN_IF_ERROR(FlushShardLocked(&shard));
  }
  return util::Status::Ok();
}

util::Status BufferPool::FlushShardLocked(Shard* shard) {
  for (size_t i = 0; i < shard->frame_count; ++i) {
    Frame& frame = shard->frames[i];
    if (frame.id != kInvalidPageId && frame.dirty) {
      HM_RETURN_IF_ERROR(FlushFrame(shard, &frame));
    }
  }
  return util::Status::Ok();
}

util::Status BufferPool::FlushBatch(FlushCursor* cursor, size_t max_frames,
                                    bool* done) {
  size_t flushed = 0;
  while (cursor->shard < shard_count_ && flushed < max_frames) {
    Shard& shard = shards_[cursor->shard];
    util::MutexLock lock(shard.mu);
    while (cursor->frame < shard.frame_count && flushed < max_frames) {
      Frame& frame = shard.frames[cursor->frame];
      ++cursor->frame;
      if (frame.id != kInvalidPageId && frame.dirty) {
        HM_RETURN_IF_ERROR(FlushFrame(&shard, &frame));
        ++flushed;
      }
    }
    if (cursor->frame >= shard.frame_count) {
      ++cursor->shard;
      cursor->frame = 0;
    }
  }
  *done = cursor->shard >= shard_count_;
  return util::Status::Ok();
}

util::Status BufferPool::DropAll() {
  for (size_t s = 0; s < shard_count_; ++s) {
    Shard& shard = shards_[s];
    util::MutexLock lock(shard.mu);
    HM_RETURN_IF_ERROR(FlushShardLocked(&shard));
    for (size_t i = 0; i < shard.frame_count; ++i) {
      Frame& frame = shard.frames[i];
      if (frame.id == kInvalidPageId) continue;
      if (frame.pin_count > 0) {
        return util::Status::Internal("DropAll with pinned page " +
                                      std::to_string(frame.id));
      }
      shard.page_table.erase(frame.id);
      frame.id = kInvalidPageId;
      frame.dirty = false;
      frame.referenced = false;
    }
  }
  return util::Status::Ok();
}

BufferPoolStats BufferPool::stats() const {
  BufferPoolStats out;
  for (size_t s = 0; s < shard_count_; ++s) {
    const Shard& shard = shards_[s];
    out.hits += shard.hits.load(std::memory_order_relaxed);
    out.misses += shard.misses.load(std::memory_order_relaxed);
    out.evictions += shard.evictions.load(std::memory_order_relaxed);
    out.flushes += shard.flushes.load(std::memory_order_relaxed);
  }
  return out;
}

void BufferPool::ResetStats() {
  for (size_t s = 0; s < shard_count_; ++s) {
    Shard& shard = shards_[s];
    shard.hits.store(0, std::memory_order_relaxed);
    shard.misses.store(0, std::memory_order_relaxed);
    shard.evictions.store(0, std::memory_order_relaxed);
    shard.flushes.store(0, std::memory_order_relaxed);
  }
}

size_t BufferPool::ResidentCount() const {
  size_t resident = 0;
  for (size_t s = 0; s < shard_count_; ++s) {
    Shard& shard = shards_[s];
    util::MutexLock lock(shard.mu);
    resident += shard.page_table.size();
  }
  return resident;
}

void BufferPool::Unpin(size_t shard_index, size_t frame_index, PinMode mode) {
  Shard& shard = shards_[shard_index];
  Frame& frame = shard.frames[frame_index];
  // Unlatch before unpinning, so pin_count == 0 (observed under the
  // shard mutex) implies the latch is free — eviction relies on that.
  UnlatchFrame(frame.latch, mode);
  util::MutexLock lock(shard.mu);
  HM_CHECK_GT(frame.pin_count, 0);
  --frame.pin_count;
}

void BufferPool::MarkDirty(size_t shard_index, size_t frame_index) {
  Shard& shard = shards_[shard_index];
  util::MutexLock lock(shard.mu);
  shard.frames[frame_index].dirty = true;
}

util::Status BufferPool::FlushFrame(Shard* shard, Frame* frame) {
  HM_FAILPOINT("buffer_pool/flush/error");
  HM_RETURN_IF_ERROR(file_->WritePage(frame->id, frame->page.get()));
  frame->dirty = false;
  shard->flushes.fetch_add(1, std::memory_order_relaxed);
  t_flushes_->Add();
  return util::Status::Ok();
}

util::Result<size_t> BufferPool::EvictOne(Shard* shard) {
  // CLOCK sweep: up to two full passes (first clears reference bits).
  // A victim with pin_count == 0 has no latch holders or waiters
  // (pin-before-latch), so eviction never touches frame latches.
  const size_t n = shard->frame_count;
  for (size_t step = 0; step < 2 * n; ++step) {
    size_t i = shard->clock_hand;
    shard->clock_hand = (shard->clock_hand + 1) % n;
    Frame& frame = shard->frames[i];
    if (frame.id == kInvalidPageId) return i;  // free frame
    if (frame.pin_count > 0) continue;
    if (frame.referenced) {
      frame.referenced = false;
      continue;
    }
    if (frame.dirty) {
      HM_RETURN_IF_ERROR(FlushFrame(shard, &frame));
    }
    shard->page_table.erase(frame.id);
    frame.id = kInvalidPageId;
    shard->evictions.fetch_add(1, std::memory_order_relaxed);
    t_evictions_->Add();
    return i;
  }
  return util::Status::Internal("buffer pool exhausted: all pages pinned");
}

}  // namespace hm::storage
