// Tests for the group-commit coordinator, the background checkpointer
// and their integration into the object store: batch formation, error
// poisoning, fuzzy checkpoints running against live committers, and
// the HM_* environment overrides. The multithreaded cases double as
// the TSAN workload for the commit pipeline.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "objstore/object_store.h"
#include "storage/commit_pipeline/checkpointer.h"
#include "storage/commit_pipeline/group_commit.h"
#include "telemetry/metrics.h"
#include "util/failpoint.h"
#include "test_dir.h"

namespace hm {
namespace {

using storage::Checkpointer;
using storage::GroupCommitCoordinator;

// ---- GroupCommitCoordinator ------------------------------------------

TEST(GroupCommitTest, SingleCommitterIsDurableAfterOneSync) {
  std::atomic<int> syncs{0};
  GroupCommitCoordinator gc(
      [&] {
        ++syncs;
        return util::Status::Ok();
      },
      100);
  uint64_t ticket = gc.Enroll();
  EXPECT_TRUE(gc.WaitDurable(ticket).ok());
  EXPECT_EQ(syncs.load(), 1);
  EXPECT_EQ(gc.batches(), 1u);
  // Waiting again for an already-durable ticket is free.
  EXPECT_TRUE(gc.WaitDurable(ticket).ok());
  EXPECT_EQ(syncs.load(), 1);
}

TEST(GroupCommitTest, PreEnrolledBatchSyncsOnce) {
  // All tickets exist before anyone waits: the first leader must cover
  // every one of them with a single sync.
  std::atomic<int> syncs{0};
  GroupCommitCoordinator gc(
      [&] {
        ++syncs;
        return util::Status::Ok();
      },
      0);
  std::vector<uint64_t> tickets;
  for (int i = 0; i < 16; ++i) tickets.push_back(gc.Enroll());
  std::vector<std::thread> waiters;
  for (uint64_t t : tickets) {
    waiters.emplace_back([&, t] { EXPECT_TRUE(gc.WaitDurable(t).ok()); });
  }
  for (auto& w : waiters) w.join();
  EXPECT_EQ(syncs.load(), 1);
  EXPECT_EQ(gc.batches(), 1u);
}

TEST(GroupCommitTest, ConcurrentCommittersAmortizeSyncs) {
  std::atomic<int> syncs{0};
  GroupCommitCoordinator gc(
      [&] {
        ++syncs;
        // Model a slow device so followers pile up behind the leader.
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        return util::Status::Ok();
      },
      2000);
  constexpr int kThreads = 8;
  constexpr int kCommitsPerThread = 25;
  std::vector<std::thread> committers;
  for (int i = 0; i < kThreads; ++i) {
    committers.emplace_back([&] {
      for (int j = 0; j < kCommitsPerThread; ++j) {
        ASSERT_TRUE(gc.WaitDurable(gc.Enroll()).ok());
      }
    });
  }
  for (auto& c : committers) c.join();
  // Every sync covered at least one commit; with 8 concurrent
  // committers and a lingering leader it must have covered more on
  // average (the precise ratio is timing-dependent, sublinearity is
  // the contract).
  EXPECT_GE(syncs.load(), 1);
  EXPECT_LT(syncs.load(), kThreads * kCommitsPerThread);
  EXPECT_EQ(static_cast<uint64_t>(syncs.load()), gc.batches());
}

TEST(GroupCommitTest, FailedSyncPoisonsExactlyItsBatch) {
  std::atomic<bool> fail{true};
  GroupCommitCoordinator gc(
      [&] {
        if (fail.exchange(false)) {
          return util::Status::IoError("injected sync failure");
        }
        return util::Status::Ok();
      },
      0);
  uint64_t doomed = gc.Enroll();
  util::Status s = gc.WaitDurable(doomed);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("injected sync failure"), std::string::npos);
  // The failure is confined to the batch it covered: the next commit
  // syncs cleanly.
  EXPECT_TRUE(gc.WaitDurable(gc.Enroll()).ok());
  // Re-asking about the poisoned ticket still reports the error.
  EXPECT_FALSE(gc.WaitDurable(doomed).ok());
}

TEST(GroupCommitTest, DrainCoversAllEnrolled) {
  std::atomic<int> syncs{0};
  GroupCommitCoordinator gc(
      [&] {
        ++syncs;
        return util::Status::Ok();
      },
      0);
  (void)gc.Enroll();
  (void)gc.Enroll();
  EXPECT_TRUE(gc.Drain().ok());
  EXPECT_GE(syncs.load(), 1);
  // Nothing pending: Drain is a no-op.
  int before = syncs.load();
  EXPECT_TRUE(gc.Drain().ok());
  EXPECT_EQ(syncs.load(), before);
}

// ---- Checkpointer -----------------------------------------------------

TEST(CheckpointerTest, NudgeTriggersRun) {
  std::atomic<int> runs{0};
  Checkpointer cp;
  cp.Start(
      [&] {
        ++runs;
        return util::Status::Ok();
      },
      {});  // interval 0: only nudges trigger
  EXPECT_TRUE(cp.running());
  cp.Nudge();
  for (int i = 0; i < 200 && runs.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(runs.load(), 1);
  cp.Stop();
  EXPECT_FALSE(cp.running());
}

TEST(CheckpointerTest, IntervalTicksWithoutNudges) {
  std::atomic<int> runs{0};
  Checkpointer cp;
  Checkpointer::Options options;
  options.interval_ms = 5;
  cp.Start(
      [&] {
        ++runs;
        return util::Status::Ok();
      },
      options);
  for (int i = 0; i < 400 && runs.load() < 3; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  cp.Stop();
  EXPECT_GE(runs.load(), 3);
}

TEST(CheckpointerTest, FailuresAreRecordedNotFatal) {
  uint64_t failures_before =
      telemetry::Registry::Global()
          .GetCounter("storage.checkpoint.failures")
          ->value();
  std::atomic<int> runs{0};
  Checkpointer cp;
  cp.Start(
      [&] {
        ++runs;
        return util::Status::IoError("checkpoint boom");
      },
      {});
  cp.Nudge();
  for (int i = 0; i < 200 && runs.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(cp.running());  // a failed checkpoint never kills the thread
  cp.Stop();
  EXPECT_GE(telemetry::Registry::Global()
                .GetCounter("storage.checkpoint.failures")
                ->value(),
            failures_before + 1);
}

// ---- ObjectStore integration -----------------------------------------

class CommitPipelineStoreTest : public ::testing::Test {
 protected:
  void TearDown() override {
    unsetenv("HM_WAL_SEGMENT_BYTES");
  }

  test::TestDir tmp_{"hm_pipeline"};
  const std::string dir_ = tmp_.path();
};

TEST_F(CommitPipelineStoreTest, CommitAsyncSplitsLoggingFromDurability) {
  objstore::ObjectStoreOptions options;
  options.group_commit_us = 100;
  auto store = objstore::ObjectStore::Open(options, dir_ + "/os");
  ASSERT_TRUE(store.ok());

  auto txn1 = (*store)->Begin();
  ASSERT_TRUE(txn1.ok());
  auto oid1 = (*store)->Create(&*txn1, "first");
  ASSERT_TRUE(oid1.ok());
  auto ticket1 = (*store)->CommitAsync(&*txn1);
  ASSERT_TRUE(ticket1.ok());

  // The transaction has ended in the API sense: a new one may begin
  // and commit before the first ticket is waited on.
  auto txn2 = (*store)->Begin();
  ASSERT_TRUE(txn2.ok());
  auto oid2 = (*store)->Create(&*txn2, "second");
  ASSERT_TRUE(oid2.ok());
  auto ticket2 = (*store)->CommitAsync(&*txn2);
  ASSERT_TRUE(ticket2.ok());

  EXPECT_TRUE((*store)->WaitCommitDurable(*ticket2).ok());
  EXPECT_TRUE((*store)->WaitCommitDurable(*ticket1).ok());
  ASSERT_TRUE((*store)->Close().ok());

  // Both commits survive a reopen.
  auto reopened = objstore::ObjectStore::Open(options, dir_ + "/os");
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(*(*reopened)->Read(*oid1), "first");
  EXPECT_EQ(*(*reopened)->Read(*oid2), "second");
  ASSERT_TRUE((*reopened)->Close().ok());
}

TEST_F(CommitPipelineStoreTest, ConcurrentCommittersAllDurable) {
  // Every window takes the same path through the coordinator; 0 only
  // stops a solo leader from lingering.
  for (uint32_t window_us : {0u, 100u}) {
    SCOPED_TRACE("group_commit_us=" + std::to_string(window_us));
    const std::string dir = dir_ + "/os_w" + std::to_string(window_us);
    objstore::ObjectStoreOptions options;
    options.group_commit_us = window_us;
    options.wal_segment_bytes = 8 * 1024;  // force rollovers under load
    auto opened = objstore::ObjectStore::Open(options, dir);
    ASSERT_TRUE(opened.ok());
    objstore::ObjectStore* store = opened->get();

    constexpr int kThreads = 4;
    constexpr int kCommitsPerThread = 30;
    std::vector<std::vector<objstore::Oid>> oids(kThreads);
    std::vector<std::thread> committers;
    for (int t = 0; t < kThreads; ++t) {
      committers.emplace_back([&, t] {
        for (int i = 0; i < kCommitsPerThread; ++i) {
          auto txn = store->Begin();
          ASSERT_TRUE(txn.ok());
          auto oid = store->Create(&*txn, "payload-" + std::to_string(t) +
                                              "-" + std::to_string(i));
          ASSERT_TRUE(oid.ok());
          ASSERT_TRUE(store->Commit(&*txn).ok());
          oids[t].push_back(*oid);
        }
      });
    }
    for (auto& c : committers) c.join();

    EXPECT_EQ(store->stats().commits,
              static_cast<uint64_t>(kThreads * kCommitsPerThread));
    // Strictly fewer syncs than commits would be timing-dependent, but
    // every commit funnels through a batch.
    EXPECT_GE(store->wal()->syncs(), 1u);
    ASSERT_TRUE(store->Close().ok());

    auto reopened = objstore::ObjectStore::Open(options, dir);
    ASSERT_TRUE(reopened.ok());
    for (int t = 0; t < kThreads; ++t) {
      for (int i = 0; i < kCommitsPerThread; ++i) {
        auto data = (*reopened)->Read(oids[t][i]);
        ASSERT_TRUE(data.ok()) << "thread " << t << " commit " << i;
        EXPECT_EQ(*data,
                  "payload-" + std::to_string(t) + "-" + std::to_string(i));
      }
    }
    ASSERT_TRUE((*reopened)->Close().ok());
  }
}

// A commit whose log sync fails has an unknown outcome, but it has
// ended: it must not stay registered as an active transaction, where
// it would pin every later checkpoint's recovery start and stall every
// fuzzy checkpoint until it gives up. Window 0 is the case that once
// took a private-fsync path of its own.
TEST_F(CommitPipelineStoreTest, FailedCommitSyncLeavesNoActiveTransaction) {
  if (!util::kFailpointsCompiled) {
    GTEST_SKIP() << "failpoints compiled out of this build";
  }
  objstore::ObjectStoreOptions options;
  options.group_commit_us = 0;
  options.wal_segment_bytes = 4 * 1024;
  auto opened = objstore::ObjectStore::Open(options, dir_ + "/os");
  ASSERT_TRUE(opened.ok());
  objstore::ObjectStore* store = opened->get();
  auto commit_one = [store](const std::string& data) {
    auto txn = store->Begin();
    EXPECT_TRUE(txn.ok());
    if (!txn.ok()) return txn.status();
    auto oid = store->Create(&*txn, data);
    EXPECT_TRUE(oid.ok());
    return store->Commit(&*txn);
  };
  ASSERT_TRUE(commit_one("before").ok());

  const uint64_t failed_seq =
      storage::SegmentedWal::LsnSegment(store->wal()->NextLsn());
  ASSERT_TRUE(
      util::Failpoint::Enable("wal/sync/error", "error,times=1").ok());
  util::Status failed = commit_one("doomed");
  util::Failpoint::DisableAll();
  EXPECT_EQ(failed.code(), util::StatusCode::kIoError) << failed.ToString();

  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(commit_one(std::string(100, 'a' + i % 26)).ok());
  }
  ASSERT_TRUE(store->Checkpoint().ok());
  EXPECT_GT(store->wal()->OldestSeq(), failed_seq);

  ASSERT_TRUE(commit_one("after checkpoint").ok());
  telemetry::Counter* skipped =
      telemetry::Registry::Global().GetCounter("storage.checkpoint.skipped");
  const uint64_t skipped_before = skipped->value();
  ASSERT_TRUE(store->FuzzyCheckpoint().ok());
  EXPECT_EQ(skipped->value(), skipped_before);
  ASSERT_TRUE(store->Close().ok());
}

TEST_F(CommitPipelineStoreTest, FuzzyCheckpointerRunsAgainstLiveCommitters) {
  uint64_t runs_before = telemetry::Registry::Global()
                             .GetCounter("storage.checkpoint.runs")
                             ->value();
  objstore::ObjectStoreOptions options;
  options.group_commit_us = 200;
  options.wal_segment_bytes = 4 * 1024;
  options.checkpoint_interval_ms = 5;
  options.checkpoint_wal_bytes = 4 * 1024;
  auto opened = objstore::ObjectStore::Open(options, dir_ + "/os");
  ASSERT_TRUE(opened.ok());
  objstore::ObjectStore* store = opened->get();

  constexpr int kThreads = 3;
  constexpr int kCommitsPerThread = 40;
  std::vector<std::thread> committers;
  for (int t = 0; t < kThreads; ++t) {
    committers.emplace_back([&, t] {
      for (int i = 0; i < kCommitsPerThread; ++i) {
        auto txn = store->Begin();
        ASSERT_TRUE(txn.ok());
        auto oid = store->Create(&*txn, std::string(200, 'a' + (t % 26)));
        ASSERT_TRUE(oid.ok());
        ASSERT_TRUE(store->Commit(&*txn).ok());
      }
    });
  }
  for (auto& c : committers) c.join();
  // Let the checkpointer take at least one full pass over the final
  // state, then verify it really ran while commits were in flight.
  ASSERT_TRUE(store->FuzzyCheckpoint().ok());
  EXPECT_GT(telemetry::Registry::Global()
                .GetCounter("storage.checkpoint.runs")
                ->value(),
            runs_before);
  uint64_t live_objects = 0;
  for (objstore::Oid oid = 1; oid < store->next_oid(); ++oid) {
    if (store->Exists(oid)) ++live_objects;
  }
  EXPECT_EQ(live_objects, static_cast<uint64_t>(kThreads * kCommitsPerThread));
  ASSERT_TRUE(store->Close().ok());

  // Checkpoints pruned dead segments: the surviving chain is short and
  // reopens clean.
  auto reopened = objstore::ObjectStore::Open(options, dir_ + "/os");
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->recovered_records(), 0u);
  ASSERT_TRUE((*reopened)->Close().ok());
}

TEST_F(CommitPipelineStoreTest, EnvOverridesControlSegmentSize) {
  // HM_WAL_SEGMENT_BYTES must override the (default) options a test
  // binary constructs — this is how the CI matrix exercises rollover
  // everywhere.
  setenv("HM_WAL_SEGMENT_BYTES", "512", 1);
  auto opened = objstore::ObjectStore::Open({}, dir_ + "/os");
  ASSERT_TRUE(opened.ok());
  objstore::ObjectStore* store = opened->get();
  for (int i = 0; i < 10; ++i) {
    auto txn = store->Begin();
    ASSERT_TRUE(txn.ok());
    auto oid = store->Create(&*txn, std::string(300, 'e'));
    ASSERT_TRUE(oid.ok());
    ASSERT_TRUE(store->Commit(&*txn).ok());
  }
  EXPECT_GT(store->wal()->segment_count(), 1u);
  ASSERT_TRUE(store->Close().ok());
}

TEST_F(CommitPipelineStoreTest, FuzzyCheckpointSkipsWhenIdle) {
  objstore::ObjectStoreOptions options;
  auto opened = objstore::ObjectStore::Open(options, dir_ + "/os");
  ASSERT_TRUE(opened.ok());
  objstore::ObjectStore* store = opened->get();
  auto txn = store->Begin();
  ASSERT_TRUE(txn.ok());
  auto oid = store->Create(&*txn, "once");
  ASSERT_TRUE(oid.ok());
  ASSERT_TRUE(store->Commit(&*txn).ok());

  ASSERT_TRUE(store->FuzzyCheckpoint().ok());
  uint64_t records_after_first = store->wal()->records_appended();
  // No new commits: the second fuzzy pass must not churn the log.
  ASSERT_TRUE(store->FuzzyCheckpoint().ok());
  EXPECT_EQ(store->wal()->records_appended(), records_after_first);
  ASSERT_TRUE(store->Close().ok());
}

TEST_F(CommitPipelineStoreTest, ReadOnlyCommitWaitsForEarlierUnsyncedRecords) {
  objstore::ObjectStoreOptions options;
  options.group_commit_us = 100;
  auto opened = objstore::ObjectStore::Open(options, dir_ + "/os");
  ASSERT_TRUE(opened.ok());
  objstore::ObjectStore* store = opened->get();

  // Session A appends its records and enrolls, but does not wait.
  auto a = store->Begin();
  ASSERT_TRUE(a.ok());
  auto oid = store->Create(&*a, "from a");
  ASSERT_TRUE(oid.ok());
  auto ticket_a = store->CommitAsync(&*a);
  ASSERT_TRUE(ticket_a.ok());
  const uint64_t records = store->wal()->records_appended();
  const uint64_t syncs = store->wal()->syncs();

  // Session B logs nothing, yet its commit returns only once the sync
  // covering A's records has run.
  auto b = store->Begin();
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(store->Read(*oid).ok());
  ASSERT_TRUE(store->Commit(&*b).ok());
  EXPECT_EQ(store->wal()->records_appended(), records);
  EXPECT_EQ(store->wal()->syncs(), syncs + 1);

  // A's ticket is already covered: its wait costs no second sync.
  ASSERT_TRUE(store->WaitCommitDurable(*ticket_a).ok());
  EXPECT_EQ(store->wal()->syncs(), syncs + 1);
  ASSERT_TRUE(store->Close().ok());
}

TEST_F(CommitPipelineStoreTest, TransactionSpanningRolloverAndCheckpointIsRedone) {
  // Begin logs nothing; the WAL's NextLsn() at Begin is the bound that
  // clamps a checkpoint's recovery start while a transaction is open.
  objstore::ObjectStoreOptions options;
  options.wal_segment_bytes = 4096;
  auto opened = objstore::ObjectStore::Open(options, dir_ + "/os");
  ASSERT_TRUE(opened.ok());
  objstore::ObjectStore* store = opened->get();

  auto spanning = store->Begin();
  ASSERT_TRUE(spanning.ok());
  // A loser: writes before the checkpoint, never finishes.
  auto loser = store->Begin();
  ASSERT_TRUE(loser.ok());
  auto loser_oid = store->Create(&*loser, "never committed");
  ASSERT_TRUE(loser_oid.ok());

  // Other commits roll the log past both begins.
  std::vector<objstore::Oid> others;
  while (store->wal()->segment_count() < 3) {
    auto txn = store->Begin();
    ASSERT_TRUE(txn.ok());
    auto oid = store->Create(&*txn, std::string(1000, 'o'));
    ASSERT_TRUE(oid.ok());
    ASSERT_TRUE(store->Commit(&*txn).ok());
    others.push_back(*oid);
  }
  ASSERT_TRUE(store->Checkpoint().ok());
  // The recovery start stayed at the oldest begin, so no segment was
  // pruned; the checkpoint flushed the loser's uncommitted page too.
  EXPECT_GE(store->wal()->segment_count(), 4u);

  auto oid = store->Create(&*spanning, "spans the checkpoint");
  ASSERT_TRUE(oid.ok());
  ASSERT_TRUE(store->Commit(&*spanning).ok());

  // Crash image: the data file as of the checkpoint plus the synced log.
  std::filesystem::copy(dir_ + "/os", dir_ + "/crash",
                        std::filesystem::copy_options::recursive);
  ASSERT_TRUE(store->Abort(&*loser).ok());
  ASSERT_TRUE(store->Close().ok());

  auto recovered = objstore::ObjectStore::Open(options, dir_ + "/crash");
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_GT((*recovered)->recovered_records(), 0u);
  auto data = (*recovered)->Read(*oid);
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  EXPECT_EQ(*data, "spans the checkpoint");
  for (objstore::Oid other : others) {
    EXPECT_TRUE((*recovered)->Exists(other)) << "oid " << other;
  }
  EXPECT_FALSE((*recovered)->Exists(*loser_oid));
  ASSERT_TRUE((*recovered)->Close().ok());
}

}  // namespace
}  // namespace hm
