// Concurrency tests for the sharded buffer pool: shard-count policy,
// racing readers across shards, shared-latch pile-ups on one hot page,
// eviction vs pinned readers, and the (shard, frame) flush cursor.
// Labelled `storage` so the TSAN CI job re-runs the threaded cases.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "storage/buffer_pool.h"
#include "storage/file_manager.h"
#include "storage/page.h"
#include "test_dir.h"

namespace hm::storage {
namespace {

class BufferPoolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(fm_.Open(dir_ + "/pool.db").ok());
  }
  void TearDown() override {
    EXPECT_TRUE(fm_.Close().ok());
  }

  /// Creates `n` pages whose payloads are stamped with their page id,
  /// flushed to the file so any later miss re-reads them intact.
  void Populate(BufferPool* pool, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      auto guard = pool->New(PageType::kHeap);
      ASSERT_TRUE(guard.ok());
      Stamp(guard->page(), guard->id());
      guard->MarkDirty();
    }
    ASSERT_TRUE(pool->FlushAll().ok());
  }

  static void Stamp(Page* page, PageId id) {
    std::memset(page->payload(), static_cast<int>('a' + id % 26), 64);
  }

  static bool StampOk(const Page& page, PageId id) {
    const char expect = static_cast<char>('a' + id % 26);
    const char* p = const_cast<Page&>(page).payload();
    for (size_t i = 0; i < 64; ++i) {
      if (p[i] != expect) return false;
    }
    return true;
  }

  test::TestDir tmp_{"hm_pool"};
  const std::string dir_ = tmp_.path();
  FileManager fm_;
};

// ---------- Shard-count policy ----------

TEST_F(BufferPoolTest, AutoShardCountScalesWithCapacity) {
  EXPECT_EQ(BufferPool(&fm_, 8).shard_count(), 1u);
  EXPECT_EQ(BufferPool(&fm_, 64).shard_count(), 1u);
  EXPECT_EQ(BufferPool(&fm_, 128).shard_count(), 2u);
  EXPECT_EQ(BufferPool(&fm_, 512).shard_count(), 8u);
  EXPECT_EQ(BufferPool(&fm_, 4096).shard_count(), 16u);
}

// ---------- Read pins ----------

TEST_F(BufferPoolTest, ReadGuardSeesDataAndCountsHit) {
  BufferPool pool(&fm_, 8);
  Populate(&pool, 2);
  pool.ResetStats();
  auto guard = pool.Fetch(0, PinMode::kRead);
  ASSERT_TRUE(guard.ok());
  EXPECT_EQ(guard->mode(), PinMode::kRead);
  EXPECT_TRUE(StampOk(*guard->page(), 0));
  EXPECT_EQ(pool.stats().hits, 1u);
}

TEST_F(BufferPoolTest, MarkDirtyOnReadPinAborts) {
  BufferPool pool(&fm_, 8);
  Populate(&pool, 1);
  auto guard = pool.Fetch(0, PinMode::kRead);
  ASSERT_TRUE(guard.ok());
  EXPECT_DEATH(guard->MarkDirty(), "HM_CHECK failed");
}

TEST_F(BufferPoolTest, ReadPinnedPageIsNotEvicted) {
  BufferPool pool(&fm_, 2);
  Populate(&pool, 2);
  auto pinned = pool.Fetch(0, PinMode::kRead);
  ASSERT_TRUE(pinned.ok());
  // The pool is full; a fresh page must evict page 1, never pinned 0.
  auto fresh = pool.New(PageType::kHeap);
  ASSERT_TRUE(fresh.ok());
  EXPECT_GE(pool.stats().evictions, 1u);
  EXPECT_TRUE(StampOk(*pinned->page(), 0));
  // Both frames pinned now (one read, one write): no room for more.
  auto overflow = pool.New(PageType::kHeap);
  ASSERT_FALSE(overflow.ok());
  EXPECT_NE(overflow.status().message().find("buffer pool exhausted"),
            std::string::npos);
}

// ---------- Concurrency ----------

TEST_F(BufferPoolTest, RacingReadersAcrossShards) {
  BufferPool pool(&fm_, 256);
  ASSERT_EQ(pool.shard_count(), 4u);
  constexpr size_t kPages = 64;
  Populate(&pool, kPages);

  constexpr int kThreads = 8;
  constexpr int kItersPerThread = 400;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937 rng(static_cast<unsigned>(t));
      std::uniform_int_distribution<PageId> pick(0, kPages - 1);
      for (int i = 0; i < kItersPerThread; ++i) {
        PageId id = pick(rng);
        auto guard = pool.Fetch(id, PinMode::kRead);
        if (!guard.ok() || !StampOk(*guard->page(), id)) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<uint64_t>(kThreads) * kItersPerThread);
}

TEST_F(BufferPoolTest, SamePageSharedLatchesOverlap) {
  BufferPool pool(&fm_, 8);
  Populate(&pool, 1);

  // Every thread read-pins page 0 and holds the guard until all of
  // them are inside: if shared latches serialized, this would never
  // converge and the deadline below would trip.
  constexpr int kThreads = 8;
  std::atomic<int> holding{0};
  std::atomic<int> failures{0};
  std::atomic<bool> timed_out{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      auto guard = pool.Fetch(0, PinMode::kRead);
      if (!guard.ok()) {
        failures.fetch_add(1);
        timed_out.store(true);  // unblock the others
        return;
      }
      holding.fetch_add(1);
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(30);
      while (holding.load() < kThreads && !timed_out.load()) {
        if (std::chrono::steady_clock::now() > deadline) {
          timed_out.store(true);
        }
        std::this_thread::yield();
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_FALSE(timed_out.load());
  EXPECT_EQ(holding.load(), kThreads);
}

TEST_F(BufferPoolTest, EvictionChurnsUnderPinnedReaders) {
  // One small shard so every fetch contends on the same CLOCK hand
  // while other threads hold read pins: eviction must skip pinned
  // frames and never hand a reader's page to someone else.
  BufferPool pool(&fm_, 4);
  constexpr size_t kPages = 16;
  Populate(&pool, kPages);

  constexpr int kThreads = 4;
  constexpr int kItersPerThread = 300;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937 rng(static_cast<unsigned>(100 + t));
      std::uniform_int_distribution<PageId> pick(0, kPages - 1);
      for (int i = 0; i < kItersPerThread; ++i) {
        PageId id = pick(rng);
        auto guard = pool.Fetch(id, PinMode::kRead);
        if (!guard.ok()) {
          // With 4 frames and 4 concurrent pins the shard can
          // legitimately be exhausted for a moment; only data
          // corruption counts as failure.
          continue;
        }
        if (guard->id() != id || !StampOk(*guard->page(), id)) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(pool.stats().evictions, 0u);
}

TEST_F(BufferPoolTest, ReadersWritersAndFlushSweepInterleave) {
  BufferPool pool(&fm_, 256);
  constexpr size_t kPages = 32;
  Populate(&pool, kPages);

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  // Stand-in for the store-level write lock: the flush sweep and the
  // writer are mutually exclusive (as ObjectStore's fuzzy checkpoint
  // is with committers), while readers run against both unserialized.
  std::mutex write_mu;

  // Two readers latch-crawl random pages; one writer rewrites a page
  // under an exclusive latch; the main thread runs fuzzy-checkpoint
  // style FlushBatch sweeps the whole time.
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937 rng(static_cast<unsigned>(200 + t));
      std::uniform_int_distribution<PageId> pick(0, kPages - 1);
      while (!stop.load()) {
        PageId id = pick(rng);
        auto guard = pool.Fetch(id, PinMode::kRead);
        if (!guard.ok() || !StampOk(*guard->page(), id)) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  threads.emplace_back([&] {
    std::mt19937 rng(300);
    std::uniform_int_distribution<PageId> pick(0, kPages - 1);
    while (!stop.load()) {
      PageId id = pick(rng);
      std::lock_guard lock(write_mu);
      auto guard = pool.Fetch(id, PinMode::kWrite);
      if (!guard.ok()) {
        failures.fetch_add(1);
        return;
      }
      Stamp(guard->page(), id);  // idempotent: readers see it either way
      guard->MarkDirty();
    }
  });

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(200);
  while (std::chrono::steady_clock::now() < deadline) {
    BufferPool::FlushCursor cursor;
    bool done = false;
    while (!done) {
      std::lock_guard lock(write_mu);
      ASSERT_TRUE(pool.FlushBatch(&cursor, 8, &done).ok());
    }
  }
  stop.store(true);
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

// ---------- Flush cursor ----------

TEST_F(BufferPoolTest, FlushBatchSweepsEveryShard) {
  BufferPool pool(&fm_, 256);
  constexpr size_t kPages = 32;
  Populate(&pool, kPages);

  // Dirty every page again, then sweep in small batches.
  for (PageId id = 0; id < kPages; ++id) {
    auto guard = pool.Fetch(id, PinMode::kWrite);
    ASSERT_TRUE(guard.ok());
    guard->MarkDirty();
  }
  pool.ResetStats();
  BufferPool::FlushCursor cursor;
  bool done = false;
  int batches = 0;
  while (!done) {
    ASSERT_TRUE(pool.FlushBatch(&cursor, 5, &done).ok());
    ++batches;
  }
  EXPECT_EQ(pool.stats().flushes, kPages);
  EXPECT_GE(batches, static_cast<int>(kPages / 5));

  // A second sweep finds nothing dirty.
  cursor = {};
  done = false;
  while (!done) {
    ASSERT_TRUE(pool.FlushBatch(&cursor, 5, &done).ok());
  }
  EXPECT_EQ(pool.stats().flushes, kPages);
}

TEST_F(BufferPoolTest, StatsAggregateAcrossShardsAndReset) {
  BufferPool pool(&fm_, 256);
  constexpr size_t kPages = 16;
  Populate(&pool, kPages);
  pool.ResetStats();
  for (PageId id = 0; id < kPages; ++id) {
    ASSERT_TRUE(pool.Fetch(id, PinMode::kRead).ok());
  }
  BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.hits + stats.misses, kPages);
  pool.ResetStats();
  stats = pool.stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.flushes, 0u);
}

}  // namespace
}  // namespace hm::storage
