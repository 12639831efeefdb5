// Tests for the segmented WAL (storage/commit_pipeline/segmented_wal):
// LSN arithmetic, rollover at exact frame boundaries, recovery across
// a segment chain with a torn tail on the last segment only, loud
// failure on a missing middle segment, on impossible frames and on
// formats earlier revisions wrote, the redo/loser classification,
// checkpoint pruning leaving the chain appendable, and Sync() costing
// nothing when no record is pending.

#include "storage/commit_pipeline/segmented_wal.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <thread>
#include <string>
#include <utility>
#include <vector>

#include "util/failpoint.h"
#include "test_dir.h"

namespace hm::storage {
namespace {

class SegmentedWalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = dir_ + "/wal.log";
  }

  std::string Segment(uint64_t seq) const {
    return SegmentedWal::SegmentPath(base_, seq);
  }

  /// One frame's on-disk size for a payload of `n` bytes.
  static uint64_t FrameBytes(size_t n) {
    return kWalFrameHeaderSize + kWalRecordPrefixSize + n;
  }

  test::TestDir tmp_{"hm_segwal"};
  const std::string dir_ = tmp_.path();
  std::string base_;
};

TEST_F(SegmentedWalTest, LsnArithmetic) {
  EXPECT_EQ(SegmentedWal::MakeLsn(1, 0), 1ull << 32);
  EXPECT_EQ(SegmentedWal::MakeLsn(3, 17), (3ull << 32) | 17);
  EXPECT_EQ(SegmentedWal::LsnSegment(SegmentedWal::MakeLsn(7, 123)), 7u);
  EXPECT_EQ(SegmentedWal::LsnOffset(SegmentedWal::MakeLsn(7, 123)), 123u);
  // LSNs order first by segment, then by offset.
  EXPECT_LT(SegmentedWal::MakeLsn(2, 0xffffffffull),
            SegmentedWal::MakeLsn(3, 0));
  EXPECT_TRUE(Segment(1).ends_with(".000001"));
  EXPECT_TRUE(Segment(42).ends_with(".000042"));
}

TEST_F(SegmentedWalTest, RollsAtExactFrameBoundary) {
  // Threshold exactly two frames: the third append must open segment 2.
  const size_t payload = 100;
  SegmentedWalOptions options;
  options.segment_bytes = 2 * FrameBytes(payload);
  SegmentedWal wal;
  ASSERT_TRUE(wal.Open(base_, options).ok());

  std::string body(payload, 'r');
  auto lsn1 = wal.Append(WalRecordType::kUpdate, 1, body);
  auto lsn2 = wal.Append(WalRecordType::kUpdate, 1, body);
  ASSERT_TRUE(lsn1.ok());
  ASSERT_TRUE(lsn2.ok());
  EXPECT_EQ(SegmentedWal::LsnSegment(*lsn1), 1u);
  EXPECT_EQ(SegmentedWal::LsnSegment(*lsn2), 1u);
  EXPECT_EQ(wal.segment_count(), 1u);

  auto lsn3 = wal.Append(WalRecordType::kUpdate, 1, body);
  ASSERT_TRUE(lsn3.ok());
  EXPECT_EQ(SegmentedWal::LsnSegment(*lsn3), 2u);
  EXPECT_EQ(SegmentedWal::LsnOffset(*lsn3), 0u);
  EXPECT_EQ(wal.segment_count(), 2u);
  ASSERT_TRUE(wal.Sync().ok());

  // The sealed segment holds exactly two frames; the rollover synced
  // it before the new segment opened.
  EXPECT_EQ(std::filesystem::file_size(Segment(1)), options.segment_bytes);
  EXPECT_TRUE(std::filesystem::exists(Segment(2)));

  // Scan sees all three records in LSN order across the boundary.
  std::vector<uint64_t> lsns;
  ASSERT_TRUE(wal.Scan([&](const SegmentedWal::ScannedRecord& rec) {
                   lsns.push_back(rec.lsn);
                   return util::Status::Ok();
                 })
                  .ok());
  EXPECT_EQ(lsns, (std::vector<uint64_t>{*lsn1, *lsn2, *lsn3}));
}

TEST_F(SegmentedWalTest, ReopenResumesAtHighestSegment) {
  SegmentedWalOptions options;
  options.segment_bytes = FrameBytes(10);  // roll after every frame
  {
    SegmentedWal wal;
    ASSERT_TRUE(wal.Open(base_, options).ok());
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(
          wal.Append(WalRecordType::kUpdate, 1, std::string(10, 'a')).ok());
    }
    ASSERT_TRUE(wal.Sync().ok());
    EXPECT_EQ(wal.segment_count(), 3u);
  }
  SegmentedWal wal;
  ASSERT_TRUE(wal.Open(base_, options).ok());
  EXPECT_EQ(wal.segment_count(), 3u);
  auto lsn = wal.Append(WalRecordType::kUpdate, 2, "x");
  ASSERT_TRUE(lsn.ok());
  EXPECT_GE(SegmentedWal::LsnSegment(*lsn), 3u);
}

TEST_F(SegmentedWalTest, TornTailOnLastSegmentKeepsEarlierSegments) {
  SegmentedWalOptions options;
  // Exactly txn 1's two frames: txn 2 starts segment 2.
  options.segment_bytes = FrameBytes(20) + FrameBytes(0);
  {
    SegmentedWal wal;
    ASSERT_TRUE(wal.Open(base_, options).ok());
    // Fill segment 1 with a committed txn, start segment 2.
    ASSERT_TRUE(
        wal.Append(WalRecordType::kUpdate, 1, std::string(20, 'k')).ok());
    ASSERT_TRUE(wal.Append(WalRecordType::kCommit, 1, "").ok());
    ASSERT_TRUE(
        wal.Append(WalRecordType::kUpdate, 2, std::string(20, 'l')).ok());
    ASSERT_TRUE(wal.Append(WalRecordType::kCommit, 2, "").ok());
    ASSERT_TRUE(wal.Sync().ok());
    ASSERT_EQ(wal.segment_count(), 2u);
  }
  // Tear the LAST segment mid-frame.
  uint64_t size2 = std::filesystem::file_size(Segment(2));
  std::filesystem::resize_file(Segment(2), size2 - 3);

  SegmentedWal wal;
  ASSERT_TRUE(wal.Open(base_, options).ok());
  std::vector<std::string> redone;
  ASSERT_TRUE(wal.Recover([&](uint64_t, std::string_view payload) {
                   redone.emplace_back(payload);
                   return util::Status::Ok();
                 })
                  .ok());
  // txn 1 (segment 1, intact) replays; txn 2 lost its commit record to
  // the torn tail so its update must not replay.
  ASSERT_EQ(redone.size(), 1u);
  EXPECT_EQ(redone[0], std::string(20, 'k'));
  // The torn frame was truncated away and the log is appendable.
  ASSERT_TRUE(wal.Append(WalRecordType::kUpdate, 3, "fresh").ok());
  ASSERT_TRUE(wal.Sync().ok());
}

TEST_F(SegmentedWalTest, CorruptFrameInEarlierSegmentIsLoud) {
  SegmentedWalOptions options;
  options.segment_bytes = FrameBytes(30);
  {
    SegmentedWal wal;
    ASSERT_TRUE(wal.Open(base_, options).ok());
    ASSERT_TRUE(
        wal.Append(WalRecordType::kUpdate, 1, std::string(30, 'a')).ok());
    ASSERT_TRUE(
        wal.Append(WalRecordType::kUpdate, 1, std::string(30, 'b')).ok());
    ASSERT_TRUE(wal.Sync().ok());
    ASSERT_EQ(wal.segment_count(), 2u);
  }
  // Flip a payload byte in the SEALED segment: that is real corruption,
  // not a torn tail, and recovery must refuse to continue silently.
  {
    std::fstream f(Segment(1), std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(20);
    f.put('!');
  }
  SegmentedWal wal;
  ASSERT_TRUE(wal.Open(base_, options).ok());
  util::Status s = wal.Scan(
      [](const SegmentedWal::ScannedRecord&) { return util::Status::Ok(); });
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_NE(s.message().find("non-last segment"), std::string::npos)
      << s.ToString();
}

TEST_F(SegmentedWalTest, MissingMiddleSegmentFailsLoudly) {
  SegmentedWalOptions options;
  options.segment_bytes = FrameBytes(5);
  {
    SegmentedWal wal;
    ASSERT_TRUE(wal.Open(base_, options).ok());
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(
          wal.Append(WalRecordType::kUpdate, 1, std::string(5, 'x')).ok());
    }
    ASSERT_TRUE(wal.Sync().ok());
    ASSERT_EQ(wal.segment_count(), 3u);
  }
  ASSERT_TRUE(std::filesystem::remove(Segment(2)));
  SegmentedWal wal;
  util::Status s = wal.Open(base_, options);
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_NE(s.message().find("missing WAL segment"), std::string::npos)
      << s.ToString();
}

TEST_F(SegmentedWalTest, CheckpointPrunesDeadSegmentsAndChainStaysAppendable) {
  SegmentedWalOptions options;
  options.segment_bytes = 4 * FrameBytes(50);
  SegmentedWal wal;
  ASSERT_TRUE(wal.Open(base_, options).ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(
        wal.Append(WalRecordType::kUpdate, 1, std::string(50, 'p')).ok());
  }
  ASSERT_TRUE(wal.Append(WalRecordType::kCommit, 1, "").ok());
  ASSERT_TRUE(wal.Sync().ok());
  uint64_t before_segments = wal.segment_count();
  uint64_t before_bytes = wal.SizeBytes();
  ASSERT_GT(before_segments, 2u);

  // Full checkpoint: everything before it is dead.
  ASSERT_TRUE(wal.Checkpoint().ok());
  EXPECT_EQ(wal.segment_count(), 1u);
  EXPECT_LT(wal.SizeBytes(), before_bytes);
  // The dead files are really gone from the directory.
  for (uint64_t seq = 1; seq < before_segments; ++seq) {
    EXPECT_FALSE(std::filesystem::exists(Segment(seq))) << seq;
  }

  // Nothing replays, and the chain accepts (and replays) new commits.
  int redone = 0;
  ASSERT_TRUE(wal.Recover([&](uint64_t, std::string_view) {
                   ++redone;
                   return util::Status::Ok();
                 })
                  .ok());
  EXPECT_EQ(redone, 0);
  ASSERT_TRUE(wal.Append(WalRecordType::kUpdate, 9, "after").ok());
  ASSERT_TRUE(wal.Append(WalRecordType::kCommit, 9, "").ok());
  ASSERT_TRUE(wal.Sync().ok());
  std::vector<std::string> replayed;
  ASSERT_TRUE(wal.Recover([&](uint64_t, std::string_view payload) {
                   replayed.emplace_back(payload);
                   return util::Status::Ok();
                 })
                  .ok());
  ASSERT_EQ(replayed.size(), 1u);
  EXPECT_EQ(replayed[0], "after");
}

TEST_F(SegmentedWalTest, PartialCheckpointKeepsSegmentsAtOrAboveStartLsn) {
  SegmentedWalOptions options;
  options.segment_bytes = FrameBytes(10);  // one frame per segment
  SegmentedWal wal;
  ASSERT_TRUE(wal.Open(base_, options).ok());
  std::vector<uint64_t> lsns;
  for (int i = 0; i < 4; ++i) {
    auto lsn = wal.Append(WalRecordType::kUpdate, 1, std::string(10, 'q'));
    ASSERT_TRUE(lsn.ok());
    lsns.push_back(*lsn);
  }
  ASSERT_TRUE(wal.Sync().ok());
  // Recovery start inside segment 3: segments 1 and 2 are wholly below
  // it and die; 3 and 4 must survive.
  ASSERT_TRUE(wal.Checkpoint(lsns[2]).ok());
  EXPECT_FALSE(std::filesystem::exists(Segment(1)));
  EXPECT_FALSE(std::filesystem::exists(Segment(2)));
  EXPECT_TRUE(std::filesystem::exists(Segment(3)));
  EXPECT_TRUE(std::filesystem::exists(Segment(4)));
}

TEST_F(SegmentedWalTest, BareBaseFileIsCorruption) {
  // Earlier revisions wrote the whole log to the bare base path. That
  // format is no longer read, and a file there is reported, never
  // ignored — with or without a segment chain next to it.
  { std::ofstream(base_) << "old log bytes"; }
  SegmentedWal wal;
  util::Status s = wal.Open(base_);
  ASSERT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_NE(s.message().find("single-file WAL"), std::string::npos)
      << s.ToString();
  EXPECT_FALSE(std::filesystem::exists(Segment(1)));

  ASSERT_TRUE(std::filesystem::remove(base_));
  {
    SegmentedWal chain;
    ASSERT_TRUE(chain.Open(base_).ok());
  }
  { std::ofstream(base_) << "old log bytes"; }
  s = wal.Open(base_);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

TEST_F(SegmentedWalTest, ImpossibleFramesAreCorruptionNamingTheFormat) {
  // CRC-valid frames that no current writer produces: an unknown type
  // (0, 6), the kBegin type earlier revisions logged (1), and the empty
  // kCheckpoint payload of pre-segmentation logs. Each is Corruption
  // even as the last frame of the last segment, where a torn frame
  // would be truncated, and the log is left as it was.
  struct Case {
    WalRecordType type;
    std::string payload;
    std::string message;
  };
  const std::vector<Case> cases = {
      {static_cast<WalRecordType>(0), "", "unknown WAL record type 0"},
      {WalRecordType::kBegin, "", "type 1 (kBegin)"},
      {static_cast<WalRecordType>(6), "", "unknown WAL record type 6"},
      {WalRecordType::kCheckpoint, "", "kCheckpoint payload is 0 bytes"},
  };
  for (const Case& c : cases) {
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    SegmentedWal wal;
    ASSERT_TRUE(wal.Open(base_).ok());
    ASSERT_TRUE(wal.Append(WalRecordType::kUpdate, 1, "kept").ok());
    ASSERT_TRUE(wal.Append(c.type, 1, c.payload).ok());
    ASSERT_TRUE(wal.Sync().ok());
    const uint64_t size = wal.SizeBytes();
    int visited = 0;
    util::Status s = wal.Scan([&](const SegmentedWal::ScannedRecord&) {
      ++visited;
      return util::Status::Ok();
    });
    ASSERT_TRUE(s.IsCorruption()) << c.message << ": " << s.ToString();
    EXPECT_NE(s.message().find(c.message), std::string::npos)
        << s.ToString();
    EXPECT_NE(s.message().find(Segment(1)), std::string::npos)
        << s.ToString();
    EXPECT_EQ(visited, 1);
    EXPECT_EQ(std::filesystem::file_size(Segment(1)), size);
  }
}

TEST_F(SegmentedWalTest, RecoverClassifiesCommittedAbortedAndInFlight) {
  // Three transactions, each with updates on both sides of the
  // checkpoint's recovery start: txn 1 commits, txn 2 aborts, txn 3 is
  // in flight at the crash.
  SegmentedWal wal;
  ASSERT_TRUE(wal.Open(base_).ok());
  for (uint64_t txn : {1, 2, 3}) {
    ASSERT_TRUE(wal.Append(WalRecordType::kUpdate, txn,
                           "old-" + std::to_string(txn))
                    .ok());
  }
  const uint64_t start = wal.NextLsn();
  for (uint64_t txn : {1, 2, 3}) {
    ASSERT_TRUE(wal.Append(WalRecordType::kUpdate, txn,
                           "new-" + std::to_string(txn))
                    .ok());
  }
  ASSERT_TRUE(wal.Checkpoint(start).ok());
  ASSERT_TRUE(wal.Append(WalRecordType::kUpdate, 3, "late-3").ok());
  ASSERT_TRUE(wal.Append(WalRecordType::kCommit, 1, "").ok());
  ASSERT_TRUE(wal.Append(WalRecordType::kAbort, 2, "").ok());
  ASSERT_TRUE(wal.Sync().ok());

  using Seen = std::vector<std::pair<uint64_t, std::string>>;
  Seen redone;
  Seen losers;
  auto record = [](Seen* seen) {
    return [seen](uint64_t txn, std::string_view payload) {
      seen->emplace_back(txn, std::string(payload));
      return util::Status::Ok();
    };
  };
  ASSERT_TRUE(wal.Recover(record(&redone), record(&losers)).ok());
  EXPECT_EQ(redone, (Seen{{1, "new-1"}}));
  EXPECT_EQ(losers, (Seen{{3, "new-3"}, {3, "late-3"}}));
}

TEST_F(SegmentedWalTest, NextLsnBoundsAppends) {
  SegmentedWal wal;
  ASSERT_TRUE(wal.Open(base_).ok());
  for (int i = 0; i < 5; ++i) {
    uint64_t bound = wal.NextLsn();
    auto lsn = wal.Append(WalRecordType::kUpdate, 1, "z");
    ASSERT_TRUE(lsn.ok());
    EXPECT_GE(*lsn, bound);
    EXPECT_LT(*lsn, wal.NextLsn());
  }
}

TEST_F(SegmentedWalTest, RetainFloorOutlivesCheckpointPruning) {
  SegmentedWalOptions options;
  options.segment_bytes = FrameBytes(32);  // one frame per segment
  SegmentedWal wal;
  ASSERT_TRUE(wal.Open(base_, options).ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        wal.Append(WalRecordType::kUpdate, 1, std::string(32, 'p')).ok());
  }
  ASSERT_TRUE(wal.Sync().ok());
  ASSERT_EQ(wal.segment_count(), 4u);

  // A subscriber still needs segment 2 onward. A full checkpoint would
  // otherwise collapse the chain to the tail; the retain floor must
  // cap the pruning.
  wal.SetRetainLsn(SegmentedWal::MakeLsn(2, 0));
  ASSERT_TRUE(wal.Checkpoint().ok());
  EXPECT_EQ(wal.OldestSeq(), 2u);
  EXPECT_FALSE(std::filesystem::exists(Segment(1)));
  EXPECT_TRUE(std::filesystem::exists(Segment(2)));
  EXPECT_TRUE(std::filesystem::exists(Segment(3)));

  // Below the floor: a typed NotFound telling the follower to re-seed,
  // not an IO error from a vanished file.
  std::string chunk;
  bool sealed = false;
  uint64_t flushed = 0;
  util::Status gone = wal.ReadSegment(1, 0, 1 << 16, &chunk, &sealed,
                                      &flushed);
  EXPECT_TRUE(gone.IsNotFound()) << gone.ToString();
  // At the floor: readable in full.
  ASSERT_TRUE(
      wal.ReadSegment(2, 0, 1 << 16, &chunk, &sealed, &flushed).ok());
  EXPECT_TRUE(sealed);
  EXPECT_EQ(chunk.size(), FrameBytes(32));

  // Raising the floor re-arms pruning.
  wal.SetRetainLsn(SegmentedWal::kNoRetainLsn);
  ASSERT_TRUE(wal.Checkpoint().ok());
  EXPECT_FALSE(std::filesystem::exists(Segment(2)));
}

TEST_F(SegmentedWalTest, ReadSegmentServesFlushedBytesOnly) {
  SegmentedWal wal;
  ASSERT_TRUE(wal.Open(base_).ok());
  ASSERT_TRUE(wal.Append(WalRecordType::kUpdate, 1, "durable").ok());
  ASSERT_TRUE(wal.Sync().ok());
  ASSERT_TRUE(wal.Append(WalRecordType::kUpdate, 1, "buffered").ok());

  std::string chunk;
  bool sealed = true;
  uint64_t flushed = 0;
  ASSERT_TRUE(
      wal.ReadSegment(1, 0, 1 << 16, &chunk, &sealed, &flushed).ok());
  EXPECT_FALSE(sealed);
  // Only the synced frame is visible; the buffered one is not yet
  // durable and must not be shipped (an acked LSN is a durable LSN).
  EXPECT_EQ(flushed, FrameBytes(7));
  EXPECT_EQ(chunk.size(), FrameBytes(7));

  ASSERT_TRUE(wal.Sync().ok());
  ASSERT_TRUE(
      wal.ReadSegment(1, flushed, 1 << 16, &chunk, &sealed, &flushed).ok());
  EXPECT_EQ(flushed, FrameBytes(7) + FrameBytes(8));
  EXPECT_EQ(chunk.size(), FrameBytes(8));
}

TEST_F(SegmentedWalTest, PruningRacingRolloverNeverDropsRetainedSegment) {
  // A shipper thread walks the chain under the retain-floor protocol
  // (floor at its cursor segment, advance on sealed-and-drained) while
  // the writer appends through rollovers and checkpoints aggressively.
  // The invariant under test: a checkpoint racing an in-flight
  // rollover never unlinks a segment the reader's floor still pins —
  // the reader must never see NotFound at or above its floor.
  SegmentedWalOptions options;
  options.segment_bytes = 2 * FrameBytes(64);
  SegmentedWal wal;
  ASSERT_TRUE(wal.Open(base_, options).ok());
  wal.SetRetainLsn(SegmentedWal::MakeLsn(1, 0));

  std::atomic<bool> writer_done{false};
  std::atomic<uint64_t> reader_bytes{0};
  std::atomic<bool> reader_failed{false};
  std::string reader_error;

  std::thread reader([&] {
    uint64_t seq = 1;
    uint64_t offset = 0;
    std::string chunk;
    bool sealed = false;
    uint64_t flushed = 0;
    // Keep draining until the writer is done AND the tail is drained.
    while (true) {
      util::Status status =
          wal.ReadSegment(seq, offset, 4096, &chunk, &sealed, &flushed);
      if (!status.ok()) {
        reader_error = status.ToString();
        reader_failed.store(true);
        return;
      }
      if (!chunk.empty()) {
        offset += chunk.size();
        reader_bytes.fetch_add(chunk.size());
        continue;
      }
      if (sealed && offset == flushed) {
        ++seq;
        offset = 0;
        // Floor moves forward *before* the old segment is released —
        // the pruning window this test exists to exercise.
        wal.SetRetainLsn(SegmentedWal::MakeLsn(seq, 0));
        continue;
      }
      if (writer_done.load()) return;
      std::this_thread::yield();
    }
  });

  // The writer stops at its first error rather than asserting, so the
  // reader thread is always joined (an injected sync failure must
  // fail the test, not terminate the process).
  uint64_t written = 0;
  util::Status write_status;
  for (int i = 0; i < 400 && write_status.ok(); ++i) {
    auto lsn = wal.Append(WalRecordType::kUpdate, 1, std::string(64, 'w'));
    write_status = lsn.status();
    if (!write_status.ok()) break;
    written += FrameBytes(64);
    if (i % 8 == 7) {
      write_status = wal.Sync();
      // Full checkpoint: prunes everything the reader's floor allows.
      if (write_status.ok()) write_status = wal.Checkpoint();
      written += FrameBytes(8);  // the checkpoint record itself
    }
  }
  if (write_status.ok()) write_status = wal.Sync();
  writer_done.store(true);
  reader.join();

  ASSERT_TRUE(write_status.ok()) << write_status.ToString();
  ASSERT_FALSE(reader_failed.load()) << reader_error;
  // The reader saw every flushed byte up to where it stopped; nothing
  // it still needed was pruned under it. (It may stop mid-tail if the
  // writer finished first — but it must have crossed every sealed
  // segment, whose bytes dominate the total.)
  EXPECT_GT(reader_bytes.load(), written / 2);
}

TEST_F(SegmentedWalTest, SyncWithNothingPendingMakesNoFdatasync) {
  SegmentedWal wal;
  ASSERT_TRUE(wal.Open(base_).ok());
  // A freshly opened log counts as pending.
  ASSERT_TRUE(wal.Sync().ok());
  EXPECT_EQ(wal.syncs(), 1u);
  // Nothing appended since the last sync: no write, no fdatasync.
  ASSERT_TRUE(wal.Sync().ok());
  EXPECT_EQ(wal.syncs(), 1u);
  ASSERT_TRUE(wal.Close().ok());
  EXPECT_EQ(wal.syncs(), 1u);
  // Reopening makes the log pending again.
  ASSERT_TRUE(wal.Open(base_).ok());
  ASSERT_TRUE(wal.Sync().ok());
  EXPECT_EQ(wal.syncs(), 2u);
}

TEST_F(SegmentedWalTest, SyncAfterAppendSyncsOnce) {
  SegmentedWal wal;
  ASSERT_TRUE(wal.Open(base_).ok());
  ASSERT_TRUE(wal.Sync().ok());
  const uint64_t syncs = wal.syncs();
  ASSERT_TRUE(wal.Append(WalRecordType::kUpdate, 1, "durable").ok());
  ASSERT_TRUE(wal.Sync().ok());
  EXPECT_EQ(wal.syncs(), syncs + 1);
  EXPECT_EQ(std::filesystem::file_size(Segment(1)), FrameBytes(7));
  ASSERT_TRUE(wal.Sync().ok());
  EXPECT_EQ(wal.syncs(), syncs + 1);
}

TEST_F(SegmentedWalTest, InjectedSyncErrorFiresOnCleanLog) {
  if (!util::kFailpointsCompiled) {
    GTEST_SKIP() << "failpoints compiled out of this build";
  }
  SegmentedWal wal;
  ASSERT_TRUE(wal.Open(base_).ok());
  ASSERT_TRUE(wal.Sync().ok());
  const uint64_t syncs = wal.syncs();
  // The failpoint sits ahead of the nothing-pending check, so fault
  // schedules count every Sync call, clean or not.
  ASSERT_TRUE(
      util::Failpoint::Enable("wal/sync/error", "error,times=1").ok());
  util::Status status = wal.Sync();
  util::Failpoint::DisableAll();
  EXPECT_EQ(status.code(), util::StatusCode::kIoError) << status.ToString();
  ASSERT_TRUE(wal.Sync().ok());
  EXPECT_EQ(wal.syncs(), syncs);
}

}  // namespace
}  // namespace hm::storage
