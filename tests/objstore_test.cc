// Unit tests for the object store: CRUD, overflow chains, clustering,
// transactions (commit/abort), crash recovery and the catalog.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "objstore/object_store.h"
#include "util/coding.h"
#include "util/random.h"

namespace hm::objstore {
namespace {

class ObjectStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/hm_objstore_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::unique_ptr<ObjectStore> Open(ObjectStoreOptions options = {}) {
    auto store = ObjectStore::Open(options, dir_);
    EXPECT_TRUE(store.ok()) << store.status().ToString();
    return std::move(*store);
  }

  std::string dir_;
};

TEST_F(ObjectStoreTest, CreateReadRoundTrip) {
  auto store = Open();
  auto txn = store->Begin();
  ASSERT_TRUE(txn.ok());
  auto oid = store->Create(&*txn, "hello object");
  ASSERT_TRUE(oid.ok());
  EXPECT_EQ(*oid, 1u);
  ASSERT_TRUE(store->Commit(&*txn).ok());
  auto data = store->Read(*oid);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, "hello object");
}

TEST_F(ObjectStoreTest, OidsAreSequential) {
  auto store = Open();
  auto txn = store->Begin();
  ASSERT_TRUE(txn.ok());
  for (uint64_t i = 1; i <= 100; ++i) {
    auto oid = store->Create(&*txn, "obj" + std::to_string(i));
    ASSERT_TRUE(oid.ok());
    EXPECT_EQ(*oid, i);
  }
  ASSERT_TRUE(store->Commit(&*txn).ok());
}

TEST_F(ObjectStoreTest, ReadMissingOidFails) {
  auto store = Open();
  EXPECT_TRUE(store->Read(1).status().IsNotFound());
  EXPECT_TRUE(store->Read(0).status().IsNotFound());
  EXPECT_FALSE(store->Exists(7));
}

TEST_F(ObjectStoreTest, UpdateInPlaceAndGrowing) {
  auto store = Open();
  auto txn = store->Begin();
  ASSERT_TRUE(txn.ok());
  auto oid = store->Create(&*txn, std::string(100, 'a'));
  ASSERT_TRUE(oid.ok());
  ASSERT_TRUE(store->Update(&*txn, *oid, "short").ok());
  EXPECT_EQ(*store->Read(*oid), "short");
  ASSERT_TRUE(store->Update(&*txn, *oid, std::string(2000, 'b')).ok());
  EXPECT_EQ(store->Read(*oid)->size(), 2000u);
  ASSERT_TRUE(store->Commit(&*txn).ok());
}

TEST_F(ObjectStoreTest, DeleteRemovesObject) {
  auto store = Open();
  auto txn = store->Begin();
  ASSERT_TRUE(txn.ok());
  auto oid = store->Create(&*txn, "doomed");
  ASSERT_TRUE(oid.ok());
  ASSERT_TRUE(store->Delete(&*txn, *oid).ok());
  EXPECT_TRUE(store->Read(*oid).status().IsNotFound());
  EXPECT_FALSE(store->Exists(*oid));
  ASSERT_TRUE(store->Commit(&*txn).ok());
}

TEST_F(ObjectStoreTest, BigObjectsUseOverflowChains) {
  auto store = Open();
  auto txn = store->Begin();
  ASSERT_TRUE(txn.ok());
  // A 400x400 bitmap serializes to ~20 KB — several overflow pages.
  std::string big(20050, 'B');
  big[0] = 'X';
  big[20049] = 'Y';
  auto oid = store->Create(&*txn, big);
  ASSERT_TRUE(oid.ok());
  ASSERT_TRUE(store->Commit(&*txn).ok());
  auto data = store->Read(*oid);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, big);
}

// The overflow pages of a store holding one big object, with the
// page each one links to next.
std::vector<std::pair<storage::PageId, storage::PageId>> OverflowLinks(
    ObjectStore* store) {
  std::vector<std::pair<storage::PageId, storage::PageId>> links;
  for (storage::PageId id = 1; id < store->page_count(); ++id) {
    auto guard = store->buffer_pool()->Fetch(id, storage::PinMode::kRead);
    EXPECT_TRUE(guard.ok()) << guard.status().ToString();
    if (guard.ok() && guard->page()->type() == storage::PageType::kOverflow) {
      links.emplace_back(id, util::DecodeFixed32(guard->page()->payload()));
    }
  }
  return links;
}

// Commits one object spanning three overflow pages; returns its OID.
Oid CreateThreePageObject(ObjectStore* store) {
  auto txn = store->Begin();
  EXPECT_TRUE(txn.ok());
  auto oid = store->Create(&*txn, std::string(20050, 'B'));
  EXPECT_TRUE(oid.ok());
  EXPECT_TRUE(store->Commit(&*txn).ok());
  EXPECT_EQ(OverflowLinks(store).size(), 3u);
  return oid.ok() ? *oid : kInvalidOid;
}

// Points the chain's tail back at another chain page.
void LoopOverflowChain(ObjectStore* store) {
  auto links = OverflowLinks(store);
  auto tail = std::find_if(links.begin(), links.end(), [](const auto& link) {
    return link.second == storage::kInvalidPageId;
  });
  ASSERT_NE(tail, links.end());
  const storage::PageId target =
      links[0].first == tail->first ? links[1].first : links[0].first;
  auto guard = store->buffer_pool()->Fetch(tail->first);
  ASSERT_TRUE(guard.ok());
  util::EncodeFixed32(guard->page()->payload(), target);
  guard->MarkDirty();
}

// What FreeOverflow leaves behind: a chain page retyped to kFree,
// still linked and still holding its bytes.
void FreeMiddleOverflowPage(ObjectStore* store) {
  const storage::PageId freed = OverflowLinks(store)[1].first;
  auto guard = store->buffer_pool()->Fetch(freed);
  ASSERT_TRUE(guard.ok());
  guard->page()->set_type(storage::PageType::kFree);
  guard->MarkDirty();
}

TEST_F(ObjectStoreTest, OverflowChainThatLoopsIsCorruption) {
  auto store = Open();
  const Oid oid = CreateThreePageObject(store.get());
  LoopOverflowChain(store.get());
  auto data = store->Read(oid);
  EXPECT_EQ(data.status().code(), util::StatusCode::kCorruption)
      << data.status().ToString();
}

TEST_F(ObjectStoreTest, OverflowChainThroughFreedPageIsCorruption) {
  auto store = Open();
  const Oid oid = CreateThreePageObject(store.get());
  FreeMiddleOverflowPage(store.get());
  auto data = store->Read(oid);
  EXPECT_EQ(data.status().code(), util::StatusCode::kCorruption)
      << data.status().ToString();
}

// Deleting an object and aborting its creation both free its chain.
// A corrupt chain is refused with Corruption, never walked forever,
// and no page of it changes type.
TEST_F(ObjectStoreTest, DeleteThroughCorruptOverflowChainIsCorruption) {
  for (auto doctor : {&LoopOverflowChain, &FreeMiddleOverflowPage}) {
    auto store = Open();
    const Oid oid = CreateThreePageObject(store.get());
    doctor(store.get());
    const size_t overflow_pages = OverflowLinks(store.get()).size();
    auto txn = store->Begin();
    ASSERT_TRUE(txn.ok());
    util::Status deleted = store->Delete(&*txn, oid);
    EXPECT_EQ(deleted.code(), util::StatusCode::kCorruption)
        << deleted.ToString();
    ASSERT_TRUE(store->Abort(&*txn).ok());
    EXPECT_EQ(OverflowLinks(store.get()).size(), overflow_pages);
    ASSERT_TRUE(store->Close().ok());
    std::filesystem::remove_all(dir_);
  }
}

TEST_F(ObjectStoreTest, AbortedCreateWithCorruptOverflowChainIsCorruption) {
  for (auto doctor : {&LoopOverflowChain, &FreeMiddleOverflowPage}) {
    auto store = Open();
    auto txn = store->Begin();
    ASSERT_TRUE(txn.ok());
    ASSERT_TRUE(store->Create(&*txn, std::string(20050, 'B')).ok());
    ASSERT_EQ(OverflowLinks(store.get()).size(), 3u);
    doctor(store.get());
    const size_t overflow_pages = OverflowLinks(store.get()).size();
    util::Status aborted = store->Abort(&*txn);
    EXPECT_EQ(aborted.code(), util::StatusCode::kCorruption)
        << aborted.ToString();
    EXPECT_EQ(OverflowLinks(store.get()).size(), overflow_pages);
    store.reset();
    std::filesystem::remove_all(dir_);
  }
}

TEST_F(ObjectStoreTest, ViewSeesTheRecordInPlace) {
  auto store = Open();
  auto txn = store->Begin();
  ASSERT_TRUE(txn.ok());
  auto small = store->Create(&*txn, "in place");
  auto big = store->Create(&*txn, std::string(20050, 'B'));
  ASSERT_TRUE(small.ok() && big.ok());
  ASSERT_TRUE(store->Commit(&*txn).ok());

  std::string seen;
  ASSERT_TRUE(store
                  ->View(*small,
                         [&seen](std::string_view record) {
                           seen.assign(record);
                           return util::Status::Ok();
                         })
                  .ok());
  EXPECT_EQ(seen, "in place");
  size_t big_size = 0;
  ASSERT_TRUE(store
                  ->View(*big,
                         [&big_size](std::string_view record) {
                           big_size = record.size();
                           return util::Status::Ok();
                         })
                  .ok());
  EXPECT_EQ(big_size, 20050u);
  // The callback's status is View's.
  EXPECT_TRUE(store
                  ->View(*small,
                         [](std::string_view) {
                           return util::Status::Corruption("callback");
                         })
                  .IsCorruption());
  EXPECT_TRUE(store
                  ->View(*big + 1,
                         [](std::string_view) { return util::Status::Ok(); })
                  .IsNotFound());
}

TEST_F(ObjectStoreTest, OverflowUpdateAndShrinkBackToSlotted) {
  auto store = Open();
  auto txn = store->Begin();
  ASSERT_TRUE(txn.ok());
  auto oid = store->Create(&*txn, std::string(10000, 'o'));
  ASSERT_TRUE(oid.ok());
  ASSERT_TRUE(store->Update(&*txn, *oid, "tiny now").ok());
  EXPECT_EQ(*store->Read(*oid), "tiny now");
  ASSERT_TRUE(store->Update(&*txn, *oid, std::string(30000, 'p')).ok());
  EXPECT_EQ(store->Read(*oid)->size(), 30000u);
  ASSERT_TRUE(store->Commit(&*txn).ok());
}

TEST_F(ObjectStoreTest, ClusteringPlacesNearHint) {
  ObjectStoreOptions options;
  options.placement = PlacementPolicy::kClustered;
  auto store = Open(options);
  auto txn = store->Begin();
  ASSERT_TRUE(txn.ok());
  auto parent = store->Create(&*txn, std::string(64, 'p'));
  ASSERT_TRUE(parent.ok());
  // Large unrelated objects roll the active fill page several pages
  // past the parent's, while the parent's page keeps enough room for
  // the child plus the clustering growth reserve.
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(store->Create(&*txn, std::string(3000, 'f')).ok());
  }
  auto child = store->Create(&*txn, std::string(64, 'c'), *parent);
  ASSERT_TRUE(child.ok());
  ASSERT_TRUE(store->Commit(&*txn).ok());

  // With clustering, reading parent then child must hit the same page:
  // prime the cache with the parent, then check the child read costs
  // no additional miss.
  ASSERT_TRUE(store->DropCaches().ok());
  ASSERT_TRUE(store->Read(*parent).ok());
  auto before = store->buffer_pool()->stats();
  ASSERT_TRUE(store->Read(*child).ok());
  auto after = store->buffer_pool()->stats();
  EXPECT_EQ(after.misses, before.misses)
      << "child should be co-located with parent";
}

TEST_F(ObjectStoreTest, NoClusteringIgnoresHint) {
  ObjectStoreOptions options;
  options.placement = PlacementPolicy::kSequential;
  auto store = Open(options);
  auto txn = store->Begin();
  ASSERT_TRUE(txn.ok());
  auto parent = store->Create(&*txn, std::string(64, 'p'));
  ASSERT_TRUE(parent.ok());
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(store->Create(&*txn, std::string(200, 'f')).ok());
  }
  auto child = store->Create(&*txn, std::string(64, 'c'), *parent);
  ASSERT_TRUE(child.ok());
  ASSERT_TRUE(store->Commit(&*txn).ok());
  ASSERT_TRUE(store->DropCaches().ok());
  ASSERT_TRUE(store->Read(*parent).ok());
  auto before = store->buffer_pool()->stats();
  ASSERT_TRUE(store->Read(*child).ok());
  auto after = store->buffer_pool()->stats();
  EXPECT_GT(after.misses, before.misses)
      << "without clustering the child lands on the fill page";
}

TEST_F(ObjectStoreTest, AbortRollsBackCreatesUpdatesDeletes) {
  auto store = Open();
  Oid kept, updated, deleted;
  {
    auto txn = store->Begin();
    ASSERT_TRUE(txn.ok());
    kept = *store->Create(&*txn, "kept");
    updated = *store->Create(&*txn, "original");
    deleted = *store->Create(&*txn, "to-delete");
    ASSERT_TRUE(store->Commit(&*txn).ok());
  }
  {
    auto txn = store->Begin();
    ASSERT_TRUE(txn.ok());
    auto created = store->Create(&*txn, "phantom");
    ASSERT_TRUE(created.ok());
    ASSERT_TRUE(store->Update(&*txn, updated, "changed").ok());
    ASSERT_TRUE(store->Delete(&*txn, deleted).ok());
    ASSERT_TRUE(store->Abort(&*txn).ok());

    EXPECT_FALSE(store->Exists(*created));
    EXPECT_EQ(*store->Read(updated), "original");
    EXPECT_EQ(*store->Read(deleted), "to-delete");
    EXPECT_EQ(*store->Read(kept), "kept");
  }
}

TEST_F(ObjectStoreTest, PersistsAcrossCleanCloseReopen) {
  Oid oid;
  {
    auto store = Open();
    auto txn = store->Begin();
    ASSERT_TRUE(txn.ok());
    oid = *store->Create(&*txn, "durable");
    ASSERT_TRUE(store->Commit(&*txn).ok());
    store->SetCatalog(3, 0xC0FFEE);
    ASSERT_TRUE(store->Close().ok());
  }
  auto store = Open();
  EXPECT_EQ(*store->Read(oid), "durable");
  EXPECT_EQ(store->GetCatalog(3), 0xC0FFEEu);
  EXPECT_EQ(store->next_oid(), oid + 1);
}

TEST_F(ObjectStoreTest, RecoversCommittedAfterCrash) {
  Oid committed_oid, uncommitted_oid = kInvalidOid;
  {
    auto store = Open();
    auto txn = store->Begin();
    ASSERT_TRUE(txn.ok());
    committed_oid = *store->Create(&*txn, "survives crash");
    ASSERT_TRUE(store->Commit(&*txn).ok());

    auto txn2 = store->Begin();
    ASSERT_TRUE(txn2.ok());
    uncommitted_oid = *store->Create(&*txn2, "lost in crash");
    // Simulate a crash: no commit, no checkpoint, no clean close —
    // just drop the handle without flushing (the destructor closes,
    // so instead leak the pages by abandoning before Close).
    // We emulate by never calling Commit and letting Close checkpoint;
    // to test real WAL replay, reopen from the files as they are after
    // only the WAL sync of the first commit.
    // -> copy the directory now, then reopen from the copy.
    std::filesystem::copy(dir_, dir_ + "_crash",
                          std::filesystem::copy_options::recursive);
    ASSERT_TRUE(store->Abort(&*txn2).ok());
  }
  auto crashed = ObjectStore::Open({}, dir_ + "_crash");
  ASSERT_TRUE(crashed.ok());
  EXPECT_EQ(*(*crashed)->Read(committed_oid), "survives crash");
  // The uncommitted create was never committed: replay skips it.
  EXPECT_FALSE((*crashed)->Exists(uncommitted_oid));
  EXPECT_TRUE((*crashed)->Close().ok());
  std::filesystem::remove_all(dir_ + "_crash");
}

TEST_F(ObjectStoreTest, RecoveryReplaysUpdatesAndDeletes) {
  Oid a, b;
  {
    auto store = Open();
    auto txn = store->Begin();
    ASSERT_TRUE(txn.ok());
    a = *store->Create(&*txn, "v1");
    b = *store->Create(&*txn, "delete me");
    ASSERT_TRUE(store->Commit(&*txn).ok());
    ASSERT_TRUE(store->Checkpoint().ok());

    auto txn2 = store->Begin();
    ASSERT_TRUE(txn2.ok());
    ASSERT_TRUE(store->Update(&*txn2, a, "v2").ok());
    ASSERT_TRUE(store->Delete(&*txn2, b).ok());
    ASSERT_TRUE(store->Commit(&*txn2).ok());
    // Crash after commit, before checkpoint.
    std::filesystem::copy(dir_, dir_ + "_crash2",
                          std::filesystem::copy_options::recursive);
  }
  auto crashed = ObjectStore::Open({}, dir_ + "_crash2");
  ASSERT_TRUE(crashed.ok());
  EXPECT_GT((*crashed)->recovered_records(), 0u);
  EXPECT_EQ(*(*crashed)->Read(a), "v2");
  EXPECT_FALSE((*crashed)->Exists(b));
  EXPECT_TRUE((*crashed)->Close().ok());
  std::filesystem::remove_all(dir_ + "_crash2");
}

TEST_F(ObjectStoreTest, DropCachesForcesColdReads) {
  auto store = Open();
  auto txn = store->Begin();
  ASSERT_TRUE(txn.ok());
  auto oid = store->Create(&*txn, std::string(500, 'c'));
  ASSERT_TRUE(oid.ok());
  ASSERT_TRUE(store->Commit(&*txn).ok());

  ASSERT_TRUE(store->Read(*oid).ok());  // warm the cache
  store->buffer_pool()->ResetStats();
  ASSERT_TRUE(store->Read(*oid).ok());
  EXPECT_EQ(store->buffer_pool()->stats().misses, 0u);  // warm

  ASSERT_TRUE(store->DropCaches().ok());
  store->buffer_pool()->ResetStats();
  ASSERT_TRUE(store->Read(*oid).ok());
  EXPECT_GT(store->buffer_pool()->stats().misses, 0u);  // cold
}

TEST_F(ObjectStoreTest, OperationsRequireActiveTxn) {
  auto store = Open();
  Transaction dead;  // never begun
  EXPECT_FALSE(store->Create(&dead, "x").ok());
  EXPECT_FALSE(store->Update(&dead, 1, "x").ok());
  EXPECT_FALSE(store->Delete(&dead, 1).ok());
  EXPECT_FALSE(store->Commit(&dead).ok());
  EXPECT_FALSE(store->Abort(&dead).ok());
}

TEST_F(ObjectStoreTest, ManyObjectsAcrossDirectoryPages) {
  // More than one directory page's worth (1021 entries/page).
  auto store = Open();
  auto txn = store->Begin();
  ASSERT_TRUE(txn.ok());
  const uint64_t n = 2500;
  for (uint64_t i = 1; i <= n; ++i) {
    auto oid = store->Create(&*txn, "payload-" + std::to_string(i));
    ASSERT_TRUE(oid.ok());
  }
  ASSERT_TRUE(store->Commit(&*txn).ok());
  ASSERT_TRUE(store->Close().ok());

  auto reopened = Open();
  util::Rng rng(3);
  for (int trial = 0; trial < 200; ++trial) {
    uint64_t oid = static_cast<uint64_t>(rng.UniformInt(1, n));
    auto data = reopened->Read(oid);
    ASSERT_TRUE(data.ok()) << oid;
    EXPECT_EQ(*data, "payload-" + std::to_string(oid));
  }
}

TEST_F(ObjectStoreTest, StatsCount) {
  auto store = Open();
  auto txn = store->Begin();
  ASSERT_TRUE(txn.ok());
  auto oid = store->Create(&*txn, "s");
  ASSERT_TRUE(oid.ok());
  ASSERT_TRUE(store->Update(&*txn, *oid, "s2").ok());
  ASSERT_TRUE(store->Commit(&*txn).ok());
  ASSERT_TRUE(store->Read(*oid).ok());
  EXPECT_EQ(store->stats().objects_created, 1u);
  // Update's pre-image read plus the Read.
  EXPECT_EQ(store->stats().objects_read, 2u);
  // One per View, whatever the callback returns; none for a missing
  // OID.
  ASSERT_TRUE(store
                  ->View(*oid,
                         [](std::string_view) {
                           return util::Status::Corruption("callback");
                         })
                  .IsCorruption());
  EXPECT_FALSE(store->Read(*oid + 1).ok());
  EXPECT_EQ(store->stats().objects_read, 3u);
  EXPECT_EQ(store->stats().objects_updated, 1u);
  EXPECT_EQ(store->stats().commits, 1u);
}

}  // namespace
}  // namespace hm::objstore
