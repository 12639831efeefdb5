// Unit tests for src/storage: page header/checksum, file manager,
// buffer pool (pinning, eviction, cold-drop), slotted pages and WAL.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <string>

#include "storage/buffer_pool.h"
#include "storage/commit_pipeline/segmented_wal.h"
#include "storage/file.h"
#include "storage/file_manager.h"
#include "storage/page.h"
#include "storage/slotted_page.h"
#include "storage/wal.h"
#include "util/failpoint.h"
#include "util/random.h"

namespace hm::storage {
namespace {

class TempDir : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/hm_storage_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) const { return dir_ + "/" + name; }

  std::string dir_;
};

// ---------- Page ----------

TEST(PageTest, HeaderRoundTrip) {
  Page page;
  page.set_page_id(42);
  page.set_type(PageType::kBTreeLeaf);
  page.set_lsn(0x1122334455667788ULL);
  page.set_aux(77);
  EXPECT_EQ(page.page_id(), 42u);
  EXPECT_EQ(page.type(), PageType::kBTreeLeaf);
  EXPECT_EQ(page.lsn(), 0x1122334455667788ULL);
  EXPECT_EQ(page.aux(), 77u);
}

TEST(PageTest, ChecksumDetectsCorruption) {
  Page page;
  page.set_page_id(1);
  page.payload()[100] = 'x';
  page.UpdateChecksum();
  EXPECT_TRUE(page.ChecksumOk());
  page.payload()[100] = 'y';
  EXPECT_FALSE(page.ChecksumOk());
}

TEST(PageTest, ZeroPageVerifies) {
  Page page;
  EXPECT_TRUE(page.ChecksumOk());  // never-written page
}

// ---------- File ----------

using FileTest = TempDir;

std::string ReadWhole(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

// ReplaceFile either installs the new bytes or leaves the old file and
// no temp behind: a failed sync must not leave `name.tmp`, and a temp
// a crash left must not block the next replacement.
TEST_F(FileTest, ReplaceFileIsAllOrNothing) {
  ASSERT_TRUE(ReplaceFile(dir_, "state", "one\n").ok());
  EXPECT_EQ(ReadWhole(Path("state")), "one\n");

  if (util::kFailpointsCompiled) {
    const FileSites sites{nullptr, nullptr, "storage_test/replace/sync"};
    ASSERT_TRUE(
        util::Failpoint::Enable("storage_test/replace/sync", "error").ok());
    util::Status failed = ReplaceFile(dir_, "state", "two\n", sites);
    util::Failpoint::DisableAll();
    EXPECT_EQ(failed.code(), util::StatusCode::kIoError) << failed.ToString();
    EXPECT_EQ(ReadWhole(Path("state")), "one\n");
    EXPECT_FALSE(std::filesystem::exists(Path("state.tmp")));
  }

  std::ofstream(Path("state.tmp")) << "left by a crash";
  ASSERT_TRUE(ReplaceFile(dir_, "state", "three\n").ok());
  EXPECT_EQ(ReadWhole(Path("state")), "three\n");
  EXPECT_FALSE(std::filesystem::exists(Path("state.tmp")));
}

// ---------- FileManager ----------

using FileManagerTest = TempDir;

TEST_F(FileManagerTest, AllocateReadWrite) {
  FileManager fm;
  ASSERT_TRUE(fm.Open(Path("a.db")).ok());
  EXPECT_EQ(fm.page_count(), 0u);
  auto id = fm.AllocatePage();
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, 0u);
  EXPECT_EQ(fm.page_count(), 1u);

  Page page;
  page.set_page_id(*id);
  page.set_type(PageType::kSlotted);
  std::string payload = "hello persistent world";
  std::memcpy(page.payload(), payload.data(), payload.size());
  ASSERT_TRUE(fm.WritePage(*id, &page).ok());

  Page readback;
  ASSERT_TRUE(fm.ReadPage(*id, &readback).ok());
  EXPECT_EQ(std::string(readback.payload(), payload.size()), payload);
  EXPECT_EQ(readback.type(), PageType::kSlotted);
}

TEST_F(FileManagerTest, PersistsAcrossReopen) {
  {
    FileManager fm;
    ASSERT_TRUE(fm.Open(Path("b.db")).ok());
    ASSERT_TRUE(fm.AllocatePage().ok());
    Page page;
    page.set_page_id(0);
    page.payload()[0] = 'Z';
    ASSERT_TRUE(fm.WritePage(0, &page).ok());
    ASSERT_TRUE(fm.Close().ok());
  }
  FileManager fm;
  ASSERT_TRUE(fm.Open(Path("b.db")).ok());
  EXPECT_EQ(fm.page_count(), 1u);
  Page page;
  ASSERT_TRUE(fm.ReadPage(0, &page).ok());
  EXPECT_EQ(page.payload()[0], 'Z');
}

TEST_F(FileManagerTest, ReadPastEndFails) {
  FileManager fm;
  ASSERT_TRUE(fm.Open(Path("c.db")).ok());
  Page page;
  EXPECT_EQ(fm.ReadPage(5, &page).code(), util::StatusCode::kOutOfRange);
}

TEST_F(FileManagerTest, DetectsZeroedChecksumWord) {
  {
    FileManager fm;
    ASSERT_TRUE(fm.Open(Path("z.db")).ok());
    ASSERT_TRUE(fm.AllocatePage().ok());
    Page page;
    page.set_page_id(0);
    page.payload()[10] = 'A';
    ASSERT_TRUE(fm.WritePage(0, &page).ok());
    ASSERT_TRUE(fm.Close().ok());
  }
  // A torn or stray write zeroes the checksum word, bytes [0,4).
  {
    std::fstream f(Path("z.db"),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(0);
    f.write("\0\0\0\0", 4);
  }
  FileManager fm;
  ASSERT_TRUE(fm.Open(Path("z.db")).ok());
  Page page;
  EXPECT_EQ(fm.ReadPage(0, &page).code(), util::StatusCode::kCorruption);
}

TEST_F(FileManagerTest, DetectsOnDiskCorruption) {
  {
    FileManager fm;
    ASSERT_TRUE(fm.Open(Path("d.db")).ok());
    ASSERT_TRUE(fm.AllocatePage().ok());
    Page page;
    page.set_page_id(0);
    page.payload()[10] = 'A';
    ASSERT_TRUE(fm.WritePage(0, &page).ok());
    ASSERT_TRUE(fm.Close().ok());
  }
  // Flip a byte in the middle of the page on disk.
  {
    std::fstream f(Path("d.db"),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(1000);
    f.put('!');
  }
  FileManager fm;
  ASSERT_TRUE(fm.Open(Path("d.db")).ok());
  Page page;
  EXPECT_TRUE(fm.ReadPage(0, &page).IsCorruption());
}

TEST_F(FileManagerTest, RejectsUnalignedFile) {
  {
    std::ofstream f(Path("e.db"), std::ios::binary);
    f << "not a page multiple";
  }
  FileManager fm;
  EXPECT_TRUE(fm.Open(Path("e.db")).IsCorruption());
}

TEST_F(FileManagerTest, DoubleOpenRejected) {
  FileManager fm;
  ASSERT_TRUE(fm.Open(Path("f.db")).ok());
  EXPECT_FALSE(fm.Open(Path("f.db")).ok());
}

// ---------- BufferPool ----------

using BufferPoolTest = TempDir;

TEST_F(BufferPoolTest, FetchHitsAfterFirstMiss) {
  FileManager fm;
  ASSERT_TRUE(fm.Open(Path("pool.db")).ok());
  BufferPool pool(&fm, 8);
  PageId id;
  {
    auto guard = pool.New(PageType::kSlotted);
    ASSERT_TRUE(guard.ok());
    id = guard->id();
    guard->page()->payload()[0] = 'q';
    guard->MarkDirty();
  }
  pool.ResetStats();
  {
    auto guard = pool.Fetch(id);
    ASSERT_TRUE(guard.ok());
    EXPECT_EQ(guard->page()->payload()[0], 'q');
  }
  EXPECT_EQ(pool.stats().hits, 1u);
  EXPECT_EQ(pool.stats().misses, 0u);
}

TEST_F(BufferPoolTest, EvictsUnpinnedAndWritesBack) {
  FileManager fm;
  ASSERT_TRUE(fm.Open(Path("evict.db")).ok());
  BufferPool pool(&fm, 4);
  std::vector<PageId> ids;
  for (int i = 0; i < 10; ++i) {
    auto guard = pool.New(PageType::kSlotted);
    ASSERT_TRUE(guard.ok());
    guard->page()->payload()[0] = static_cast<char>('a' + i);
    guard->MarkDirty();
    ids.push_back(guard->id());
  }
  EXPECT_GT(pool.stats().evictions, 0u);
  // Every page must read back with its byte, even evicted ones.
  for (int i = 0; i < 10; ++i) {
    auto guard = pool.Fetch(ids[static_cast<size_t>(i)]);
    ASSERT_TRUE(guard.ok());
    EXPECT_EQ(guard->page()->payload()[0], static_cast<char>('a' + i));
  }
}

TEST_F(BufferPoolTest, PinnedPagesAreNotEvicted) {
  FileManager fm;
  ASSERT_TRUE(fm.Open(Path("pin.db")).ok());
  BufferPool pool(&fm, 2);
  auto a = pool.New(PageType::kSlotted);
  ASSERT_TRUE(a.ok());
  auto b = pool.New(PageType::kSlotted);
  ASSERT_TRUE(b.ok());
  // Both frames pinned: a third page cannot be brought in.
  auto c = pool.New(PageType::kSlotted);
  EXPECT_FALSE(c.ok());
  // Releasing one pin frees a frame.
  a->Release();
  auto d = pool.New(PageType::kSlotted);
  EXPECT_TRUE(d.ok());
}

TEST_F(BufferPoolTest, DropAllMakesNextFetchCold) {
  FileManager fm;
  ASSERT_TRUE(fm.Open(Path("cold.db")).ok());
  BufferPool pool(&fm, 8);
  PageId id;
  {
    auto guard = pool.New(PageType::kSlotted);
    ASSERT_TRUE(guard.ok());
    id = guard->id();
    guard->MarkDirty();
  }
  ASSERT_TRUE(pool.DropAll().ok());
  EXPECT_EQ(pool.ResidentCount(), 0u);
  pool.ResetStats();
  ASSERT_TRUE(pool.Fetch(id).ok());
  EXPECT_EQ(pool.stats().misses, 1u);
  EXPECT_EQ(pool.stats().hits, 0u);
}

TEST_F(BufferPoolTest, DropAllWithPinnedPageFails) {
  FileManager fm;
  ASSERT_TRUE(fm.Open(Path("pinned.db")).ok());
  BufferPool pool(&fm, 4);
  auto guard = pool.New(PageType::kSlotted);
  ASSERT_TRUE(guard.ok());
  EXPECT_FALSE(pool.DropAll().ok());
  guard->Release();
  EXPECT_TRUE(pool.DropAll().ok());
}

TEST_F(BufferPoolTest, MoveGuardTransfersPin) {
  FileManager fm;
  ASSERT_TRUE(fm.Open(Path("move.db")).ok());
  BufferPool pool(&fm, 2);
  auto guard = pool.New(PageType::kSlotted);
  ASSERT_TRUE(guard.ok());
  PageGuard moved = std::move(*guard);
  EXPECT_TRUE(moved.valid());
  moved.Release();
  EXPECT_TRUE(pool.DropAll().ok());  // nothing pinned anymore
}

// ---------- SlottedPage ----------

TEST(SlottedPageTest, InsertRead) {
  Page page;
  SlottedPage::Init(&page);
  auto slot = SlottedPage::Insert(&page, "record-one");
  ASSERT_TRUE(slot.ok());
  auto rec = SlottedPage::Read(page, *slot);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(*rec, "record-one");
}

TEST(SlottedPageTest, MultipleRecordsKeepSlots) {
  Page page;
  SlottedPage::Init(&page);
  std::vector<SlotId> slots;
  for (int i = 0; i < 20; ++i) {
    auto slot = SlottedPage::Insert(&page, "rec" + std::to_string(i));
    ASSERT_TRUE(slot.ok());
    slots.push_back(*slot);
  }
  for (int i = 0; i < 20; ++i) {
    auto rec = SlottedPage::Read(page, slots[static_cast<size_t>(i)]);
    ASSERT_TRUE(rec.ok());
    EXPECT_EQ(*rec, "rec" + std::to_string(i));
  }
}

TEST(SlottedPageTest, EraseTombstonesAndReusesSlot) {
  Page page;
  SlottedPage::Init(&page);
  auto a = SlottedPage::Insert(&page, "aaa");
  auto b = SlottedPage::Insert(&page, "bbb");
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(SlottedPage::Erase(&page, *a).ok());
  EXPECT_TRUE(SlottedPage::Read(page, *a).status().IsNotFound());
  EXPECT_TRUE(SlottedPage::Erase(&page, *a).IsNotFound());
  auto c = SlottedPage::Insert(&page, "ccc");
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(*c, *a);  // tombstoned slot reused
  EXPECT_EQ(*SlottedPage::Read(page, *b), "bbb");
}

TEST(SlottedPageTest, UpdateInPlaceAndGrowing) {
  Page page;
  SlottedPage::Init(&page);
  auto slot = SlottedPage::Insert(&page, std::string(100, 'x'));
  ASSERT_TRUE(slot.ok());
  // Shrink.
  ASSERT_TRUE(SlottedPage::Update(&page, *slot, "small").ok());
  EXPECT_EQ(*SlottedPage::Read(page, *slot), "small");
  // Grow.
  ASSERT_TRUE(SlottedPage::Update(&page, *slot, std::string(500, 'y')).ok());
  EXPECT_EQ(SlottedPage::Read(page, *slot)->size(), 500u);
}

TEST(SlottedPageTest, FullPageRejectsInsert) {
  Page page;
  SlottedPage::Init(&page);
  std::string big(1000, 'z');
  int inserted = 0;
  while (SlottedPage::Insert(&page, big).ok()) ++inserted;
  EXPECT_GE(inserted, 7);  // ~8 KiB / 1 KiB
  EXPECT_EQ(SlottedPage::Insert(&page, big).status().code(),
            util::StatusCode::kOutOfRange);
  // A smaller record may still fit.
  EXPECT_TRUE(SlottedPage::Insert(&page, "tiny").ok());
}

TEST(SlottedPageTest, CompactionReclaimsTombstonedBytes) {
  Page page;
  SlottedPage::Init(&page);
  std::vector<SlotId> slots;
  std::string rec(700, 'r');
  for (;;) {
    auto slot = SlottedPage::Insert(&page, rec);
    if (!slot.ok()) break;
    slots.push_back(*slot);
  }
  // Erase every other record; a record the size of two frees must now
  // fit (after compaction).
  for (size_t i = 0; i < slots.size(); i += 2) {
    ASSERT_TRUE(SlottedPage::Erase(&page, slots[i]).ok());
  }
  auto big = SlottedPage::Insert(&page, std::string(1200, 'B'));
  ASSERT_TRUE(big.ok());
  EXPECT_EQ(SlottedPage::Read(page, *big)->size(), 1200u);
  // Survivors intact after compaction.
  for (size_t i = 1; i < slots.size(); i += 2) {
    EXPECT_EQ(*SlottedPage::Read(page, slots[i]), rec);
  }
}

TEST(SlottedPageTest, RecordTooLargeRejected) {
  Page page;
  SlottedPage::Init(&page);
  std::string huge(SlottedPage::MaxRecordSize() + 1, 'h');
  EXPECT_EQ(SlottedPage::Insert(&page, huge).status().code(),
            util::StatusCode::kInvalidArgument);
}

// Property test: random insert/erase/update churn, model-checked
// against a std::map.
class SlottedPageChurnTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SlottedPageChurnTest, MatchesModel) {
  util::Rng rng(GetParam());
  Page page;
  SlottedPage::Init(&page);
  std::map<SlotId, std::string> model;
  for (int step = 0; step < 500; ++step) {
    int action = static_cast<int>(rng.UniformInt(0, 2));
    if (action == 0) {  // insert
      std::string rec(static_cast<size_t>(rng.UniformInt(1, 300)), 'i');
      auto slot = SlottedPage::Insert(&page, rec);
      if (slot.ok()) {
        ASSERT_FALSE(model.contains(*slot));
        model[*slot] = rec;
      }
    } else if (action == 1 && !model.empty()) {  // erase random live
      auto it = model.begin();
      std::advance(it, static_cast<long>(rng.UniformInt(
                           0, static_cast<int64_t>(model.size()) - 1)));
      ASSERT_TRUE(SlottedPage::Erase(&page, it->first).ok());
      model.erase(it);
    } else if (!model.empty()) {  // update random live
      auto it = model.begin();
      std::advance(it, static_cast<long>(rng.UniformInt(
                           0, static_cast<int64_t>(model.size()) - 1)));
      std::string rec(static_cast<size_t>(rng.UniformInt(1, 300)), 'u');
      if (SlottedPage::Update(&page, it->first, rec).ok()) {
        it->second = rec;
      }
    }
  }
  for (const auto& [slot, expected] : model) {
    auto rec = SlottedPage::Read(page, slot);
    ASSERT_TRUE(rec.ok()) << "slot " << slot;
    EXPECT_EQ(*rec, expected);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SlottedPageChurnTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ---------- WAL ----------

using WalTest = TempDir;

TEST_F(WalTest, RecoversCommittedOnly) {
  std::string path = Path("wal1.log");
  {
    SegmentedWal wal;
    ASSERT_TRUE(wal.Open(path).ok());
    ASSERT_TRUE(wal.Append(WalRecordType::kUpdate, 1, "one").ok());
    ASSERT_TRUE(wal.Append(WalRecordType::kCommit, 1, "").ok());
    ASSERT_TRUE(wal.Append(WalRecordType::kUpdate, 2, "two").ok());
    // txn 2 never commits.
    ASSERT_TRUE(wal.Sync().ok());
  }
  SegmentedWal wal;
  ASSERT_TRUE(wal.Open(path).ok());
  std::vector<std::pair<uint64_t, std::string>> redone;
  ASSERT_TRUE(wal.Recover([&](uint64_t txn, std::string_view payload) {
                   redone.emplace_back(txn, std::string(payload));
                   return util::Status::Ok();
                 })
                  .ok());
  ASSERT_EQ(redone.size(), 1u);
  EXPECT_EQ(redone[0].first, 1u);
  EXPECT_EQ(redone[0].second, "one");
}

TEST_F(WalTest, ToleratesTornTail) {
  std::string path = Path("wal2.log");
  {
    SegmentedWal wal;
    ASSERT_TRUE(wal.Open(path).ok());
    ASSERT_TRUE(wal.Append(WalRecordType::kUpdate, 1, "good").ok());
    ASSERT_TRUE(wal.Append(WalRecordType::kCommit, 1, "").ok());
    ASSERT_TRUE(wal.Sync().ok());
  }
  // Append garbage to the live segment, simulating a torn write.
  {
    std::ofstream f(SegmentedWal::SegmentPath(path, 1),
                    std::ios::binary | std::ios::app);
    f << "\x50\x00\x00\x00garbage-without-valid-crc";
  }
  SegmentedWal wal;
  ASSERT_TRUE(wal.Open(path).ok());
  int redone = 0;
  ASSERT_TRUE(wal.Recover([&](uint64_t, std::string_view) {
                   ++redone;
                   return util::Status::Ok();
                 })
                  .ok());
  EXPECT_EQ(redone, 1);
}

TEST_F(WalTest, CheckpointTruncates) {
  std::string path = Path("wal3.log");
  SegmentedWal wal;
  ASSERT_TRUE(wal.Open(path).ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(wal.Append(WalRecordType::kUpdate, 1,
                           std::string(100, 'p')).ok());
  }
  ASSERT_TRUE(wal.Append(WalRecordType::kCommit, 1, "").ok());
  ASSERT_TRUE(wal.Sync().ok());
  uint64_t before = wal.SizeBytes();
  ASSERT_TRUE(wal.Checkpoint().ok());
  EXPECT_LT(wal.SizeBytes(), before);
  // Records before the checkpoint are not replayed.
  int redone = 0;
  ASSERT_TRUE(wal.Recover([&](uint64_t, std::string_view) {
                   ++redone;
                   return util::Status::Ok();
                 })
                  .ok());
  EXPECT_EQ(redone, 0);
}

TEST_F(WalTest, CommitAfterCheckpointIsReplayed) {
  std::string path = Path("wal4.log");
  SegmentedWal wal;
  ASSERT_TRUE(wal.Open(path).ok());
  ASSERT_TRUE(wal.Append(WalRecordType::kUpdate, 1, "old").ok());
  ASSERT_TRUE(wal.Append(WalRecordType::kCommit, 1, "").ok());
  ASSERT_TRUE(wal.Checkpoint().ok());
  ASSERT_TRUE(wal.Append(WalRecordType::kUpdate, 2, "new").ok());
  ASSERT_TRUE(wal.Append(WalRecordType::kCommit, 2, "").ok());
  ASSERT_TRUE(wal.Sync().ok());
  std::vector<std::string> redone;
  ASSERT_TRUE(wal.Recover([&](uint64_t, std::string_view payload) {
                   redone.emplace_back(payload);
                   return util::Status::Ok();
                 })
                  .ok());
  ASSERT_EQ(redone.size(), 1u);
  EXPECT_EQ(redone[0], "new");
}

TEST_F(WalTest, LsnsAreMonotonic) {
  SegmentedWal wal;
  ASSERT_TRUE(wal.Open(Path("wal5.log")).ok());
  uint64_t prev = 0;
  for (int i = 0; i < 10; ++i) {
    auto lsn = wal.Append(WalRecordType::kUpdate, 1, "x");
    ASSERT_TRUE(lsn.ok());
    if (i > 0) {
      EXPECT_GT(*lsn, prev);
    }
    prev = *lsn;
  }
}

}  // namespace
}  // namespace hm::storage
