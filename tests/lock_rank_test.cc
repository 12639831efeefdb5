// Lock-rank deadlock detector (src/util/lock_rank.h). The checking
// build must allow every descending acquisition chain and abort — with
// the diagnostic naming the ranks — on the first ascending or
// same-rank one. In Release (no HM_LOCK_RANK_CHECKS) the wrappers are
// forwarding shells over the std mutexes and only the passthrough
// checks below compile in.

#include "util/lock_rank.h"

#include <gtest/gtest.h>

#include <condition_variable>
#include <mutex>
#include <shared_mutex>
#include <thread>
#include <type_traits>

namespace hm::util {
namespace {

TEST(LockRankTest, RankNamesAreStable) {
  EXPECT_STREQ(LockRankName(LockRank::kTelemetryRegistry),
               "telemetry_registry");
  EXPECT_STREQ(LockRankName(LockRank::kListener), "listener");
}

// The wrappers must satisfy Lockable/SharedLockable regardless of
// build flavor — every std locking idiom the codebase uses.
TEST(LockRankTest, StandardLockIdiomsCompileAndRun) {
  RankedMutex<LockRank::kWal> wal;
  RankedSharedMutex<LockRank::kServerDispatch> dispatch;
  {
    std::shared_lock read(dispatch);
    std::lock_guard lock(wal);
  }
  {
    std::unique_lock lock(wal);
    std::condition_variable_any cv;
    cv.notify_all();  // cv binds to the wrapper via unique_lock
  }
  EXPECT_TRUE(wal.try_lock());
  wal.unlock();
}

#ifdef HM_LOCK_RANK_CHECKS

using lock_rank_internal::HeldDepth;

TEST(LockRankTest, DescendingChainIsLegal) {
  RankedMutex<LockRank::kListener> listener;
  RankedSharedMutex<LockRank::kServerDispatch> dispatch;
  RankedMutex<LockRank::kWal> wal;
  RankedMutex<LockRank::kBufferPoolShard> pool;
  RankedMutex<LockRank::kTelemetryRegistry> registry;
  {
    std::lock_guard l0(listener);
    std::shared_lock l1(dispatch);
    std::lock_guard l2(wal);
    std::lock_guard l3(pool);
    std::lock_guard l4(registry);
    EXPECT_EQ(HeldDepth(), 5);
  }
  EXPECT_EQ(HeldDepth(), 0);
}

TEST(LockRankTest, FailedTryLockLeavesNothingHeld) {
  RankedMutex<LockRank::kWal> wal;
  wal.lock();
  std::thread([&wal] {
    // Contended from another thread: try_lock fails and must pop the
    // speculatively pushed rank.
    EXPECT_FALSE(wal.try_lock());
    EXPECT_EQ(HeldDepth(), 0);
  }).join();
  wal.unlock();
  EXPECT_EQ(HeldDepth(), 0);
}

TEST(LockRankDeathTest, AscendingAcquisitionAborts) {
  RankedMutex<LockRank::kBufferPoolShard> pool;
  RankedMutex<LockRank::kWal> wal;
  std::lock_guard held(pool);
  EXPECT_DEATH(wal.lock(),
               "lock-rank violation: acquiring rank 3 \\(wal\\) while "
               "holding \\[2 \\(buffer_pool_shard\\)\\]");
}

TEST(LockRankDeathTest, SameRankReacquisitionAborts) {
  RankedMutex<LockRank::kWal> a;
  RankedMutex<LockRank::kWal> b;
  std::lock_guard held(a);
  EXPECT_DEATH(b.lock(), "lock-rank violation.*3 \\(wal\\)");
}

TEST(LockRankDeathTest, SharedSideParticipatesInRanking) {
  // A reader is a deadlock participant like a writer: holding the
  // buffer pool, even a *shared* dispatch acquisition must abort.
  RankedMutex<LockRank::kBufferPoolShard> pool;
  RankedSharedMutex<LockRank::kServerDispatch> dispatch;
  std::lock_guard held(pool);
  EXPECT_DEATH(dispatch.lock_shared(),
               "lock-rank violation: acquiring rank 6 \\(server_dispatch\\)");
}

TEST(LockRankDeathTest, AscendingTryLockAborts) {
  // try_lock blocks nobody on failure, but a *successful* ascending
  // try_lock would complete the inversion — the attempt itself must
  // be rank-legal.
  RankedMutex<LockRank::kTelemetryRegistry> registry;
  RankedMutex<LockRank::kListener> listener;
  std::lock_guard held(registry);
  EXPECT_DEATH((void)listener.try_lock(), "lock-rank violation");
}

TEST(LockRankDeathTest, UnlockWithoutLockAborts) {
  RankedMutex<LockRank::kWal> wal;
  EXPECT_DEATH(wal.unlock(), "releasing un-held rank 3 \\(wal\\)");
}

#else  // !HM_LOCK_RANK_CHECKS

// Release passthrough: the forwarding shells add no state and no
// vtable on top of the std mutex they wrap.
static_assert(!std::is_polymorphic_v<RankedMutex<LockRank::kWal>>);
static_assert(
    !std::is_polymorphic_v<RankedSharedMutex<LockRank::kServerDispatch>>);
static_assert(sizeof(RankedMutex<LockRank::kWal>) == sizeof(std::mutex));
static_assert(sizeof(RankedSharedMutex<LockRank::kServerDispatch>) ==
              sizeof(std::shared_mutex));

#endif  // HM_LOCK_RANK_CHECKS

}  // namespace
}  // namespace hm::util
