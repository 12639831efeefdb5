// Fault-injection tests: on-disk corruption and torn writes must be
// detected (CRC) and recovery must degrade gracefully — replaying the
// intact prefix of the WAL and refusing corrupt pages (R10).

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "hypermodel/backends/oodb_store.h"
#include "objstore/object_store.h"
#include "storage/buffer_pool.h"
#include "storage/file_manager.h"
#include "storage/commit_pipeline/segmented_wal.h"
#include "storage/wal.h"
#include "test_dir.h"

namespace hm {
namespace {

class FaultTest : public ::testing::Test {
 protected:
  /// XORs one byte at `offset` of `path`.
  void FlipByte(const std::string& path, std::streamoff offset) {
    std::fstream file(path,
                      std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.good()) << path;
    file.seekg(offset);
    char byte = 0;
    file.get(byte);
    file.seekp(offset);
    file.put(static_cast<char>(byte ^ 0x40));
  }

  test::TestDir tmp_{"hm_fault"};
  const std::string dir_ = tmp_.path();
};

TEST_F(FaultTest, WalMidLogCorruptionReplaysIntactPrefix) {
  std::string path = dir_ + "/wal.log";
  uint64_t second_record_offset = 0;
  {
    storage::SegmentedWal wal;
    ASSERT_TRUE(wal.Open(path).ok());
    ASSERT_TRUE(wal.Append(storage::WalRecordType::kUpdate, 1, "first").ok());
    ASSERT_TRUE(wal.Append(storage::WalRecordType::kCommit, 1, "").ok());
    ASSERT_TRUE(wal.Sync().ok());
    second_record_offset = wal.SizeBytes();
    ASSERT_TRUE(
        wal.Append(storage::WalRecordType::kUpdate, 2, "second").ok());
    ASSERT_TRUE(wal.Append(storage::WalRecordType::kCommit, 2, "").ok());
    ASSERT_TRUE(wal.Sync().ok());
  }
  // Corrupt the payload of transaction 2's update record (the
  // chain is a single segment, so segment offset == log offset).
  FlipByte(storage::SegmentedWal::SegmentPath(path, 1),
           static_cast<std::streamoff>(second_record_offset) + 20);

  storage::SegmentedWal wal;
  ASSERT_TRUE(wal.Open(path).ok());
  std::vector<std::string> replayed;
  ASSERT_TRUE(wal.Recover([&](uint64_t, std::string_view payload) {
                   replayed.emplace_back(payload);
                   return util::Status::Ok();
                 })
                  .ok());
  // The scan stops at the corrupt frame; only txn 1 replays.
  ASSERT_EQ(replayed.size(), 1u);
  EXPECT_EQ(replayed[0], "first");
}

TEST_F(FaultTest, WalLengthFieldCorruptionIsContained) {
  std::string path = dir_ + "/wal2.log";
  {
    storage::SegmentedWal wal;
    ASSERT_TRUE(wal.Open(path).ok());
    ASSERT_TRUE(wal.Append(storage::WalRecordType::kUpdate, 1, "ok").ok());
    ASSERT_TRUE(wal.Append(storage::WalRecordType::kCommit, 1, "").ok());
    ASSERT_TRUE(wal.Sync().ok());
  }
  // Corrupt the very first frame's length field: nothing replays, but
  // recovery itself must not fail or crash.
  FlipByte(storage::SegmentedWal::SegmentPath(path, 1), 0);
  storage::SegmentedWal wal;
  ASSERT_TRUE(wal.Open(path).ok());
  int replayed = 0;
  ASSERT_TRUE(wal.Recover([&](uint64_t, std::string_view) {
                   ++replayed;
                   return util::Status::Ok();
                 })
                  .ok());
  EXPECT_EQ(replayed, 0);
}

TEST_F(FaultTest, BufferPoolSurfacesPageCorruption) {
  std::string path = dir_ + "/data.db";
  storage::PageId id;
  {
    storage::FileManager fm;
    ASSERT_TRUE(fm.Open(path).ok());
    storage::BufferPool pool(&fm, 4);
    auto guard = pool.New(storage::PageType::kSlotted);
    ASSERT_TRUE(guard.ok());
    id = guard->id();
    guard->page()->payload()[17] = 'x';
    guard->MarkDirty();
    guard->Release();
    ASSERT_TRUE(pool.FlushAll().ok());
  }
  FlipByte(path, static_cast<std::streamoff>(id) * storage::kPageSize + 600);
  storage::FileManager fm;
  ASSERT_TRUE(fm.Open(path).ok());
  storage::BufferPool pool(&fm, 4);
  auto guard = pool.Fetch(id);
  ASSERT_FALSE(guard.ok());
  EXPECT_TRUE(guard.status().IsCorruption());
}

TEST_F(FaultTest, ObjectStoreReadHitsCorruptPage) {
  objstore::Oid oid;
  {
    auto store = objstore::ObjectStore::Open({}, dir_ + "/os");
    ASSERT_TRUE(store.ok());
    auto txn = (*store)->Begin();
    ASSERT_TRUE(txn.ok());
    oid = *(*store)->Create(&*txn, std::string(100, 'd'));
    ASSERT_TRUE((*store)->Commit(&*txn).ok());
    ASSERT_TRUE((*store)->Close().ok());
  }
  // Find the data page: with a fresh store, page 0 is meta, page 1 is
  // the directory, page 2 the first slotted page. Corrupt page 2.
  FlipByte(dir_ + "/os/objects.db", 2 * storage::kPageSize + 2000);
  auto store = objstore::ObjectStore::Open({}, dir_ + "/os");
  ASSERT_TRUE(store.ok());  // meta and directory are intact
  auto data = (*store)->Read(oid);
  ASSERT_FALSE(data.ok());
  EXPECT_TRUE(data.status().IsCorruption());
  // Close outcome is immaterial here: the store sits on a deliberately
  // corrupted data file.
  (void)(*store)->Close();
}

TEST_F(FaultTest, OodbOpenFailsCleanlyOnCorruptMeta) {
  {
    auto store = backends::OodbStore::Open({}, dir_ + "/oodb");
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Begin().ok());
    NodeAttrs attrs;
    attrs.unique_id = 1;
    ASSERT_TRUE((*store)->CreateNode(attrs, kInvalidNode).ok());
    ASSERT_TRUE((*store)->Commit().ok());
  }
  // Smash the meta page (page 0).
  FlipByte(dir_ + "/oodb/objects.db", 100);
  auto reopened = backends::OodbStore::Open({}, dir_ + "/oodb");
  EXPECT_FALSE(reopened.ok());
  EXPECT_TRUE(reopened.status().IsCorruption())
      << reopened.status().ToString();
}

TEST_F(FaultTest, TruncatedWalTailIsIgnored) {
  std::string path = dir_ + "/wal3.log";
  uint64_t full_size = 0;
  {
    storage::SegmentedWal wal;
    ASSERT_TRUE(wal.Open(path).ok());
    ASSERT_TRUE(wal.Append(storage::WalRecordType::kUpdate, 1, "keep").ok());
    ASSERT_TRUE(wal.Append(storage::WalRecordType::kCommit, 1, "").ok());
    ASSERT_TRUE(
        wal.Append(storage::WalRecordType::kUpdate, 2, "truncated").ok());
    ASSERT_TRUE(wal.Sync().ok());
    full_size = wal.SizeBytes();
  }
  // Chop the file mid-way through the last record (torn write).
  std::filesystem::resize_file(storage::SegmentedWal::SegmentPath(path, 1),
                               full_size - 5);
  storage::SegmentedWal wal;
  ASSERT_TRUE(wal.Open(path).ok());
  std::vector<std::string> replayed;
  ASSERT_TRUE(wal.Recover([&](uint64_t, std::string_view payload) {
                   replayed.emplace_back(payload);
                   return util::Status::Ok();
                 })
                  .ok());
  ASSERT_EQ(replayed.size(), 1u);
  EXPECT_EQ(replayed[0], "keep");
}

}  // namespace
}  // namespace hm
