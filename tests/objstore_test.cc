// Unit tests for the object store: CRUD, overflow chains, clustering,
// transactions (commit/abort), crash recovery and the catalog.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "objstore/object_store.h"
#include "storage/slotted_page.h"
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

// ---------- ViewMany ----------

// Record i's bytes: unique, and long enough that several pages hold
// the batch.
std::string Payload(uint64_t i) {
  std::string record = "record-" + std::to_string(i) + "-";
  record.resize(600, static_cast<char>('a' + i % 26));
  return record;
}

// Commits records Payload(1..n); their OIDs are 1..n.
void CreateRecords(ObjectStore* store, uint64_t n) {
  auto txn = store->Begin();
  ASSERT_TRUE(txn.ok());
  for (uint64_t i = 1; i <= n; ++i) {
    auto oid = store->Create(&*txn, Payload(i));
    ASSERT_TRUE(oid.ok());
    ASSERT_EQ(*oid, i);
  }
  ASSERT_TRUE(store->Commit(&*txn).ok());
}

// The slotted page holding each slotted record, keyed by its bytes.
std::map<std::string, storage::PageId> RecordPages(ObjectStore* store) {
  std::map<std::string, storage::PageId> pages;
  for (storage::PageId id = 1; id < store->page_count(); ++id) {
    auto guard = store->buffer_pool()->Fetch(id, storage::PinMode::kRead);
    EXPECT_TRUE(guard.ok()) << guard.status().ToString();
    if (!guard.ok() || guard->page()->type() != storage::PageType::kSlotted) {
      continue;
    }
    const storage::Page& page = *guard->page();
    for (uint16_t slot = 0; slot < storage::SlottedPage::SlotCount(page);
         ++slot) {
      auto record = storage::SlottedPage::Read(page, slot);
      if (record.ok()) pages[std::string(*record)] = id;
    }
  }
  return pages;
}

uint64_t PoolFetches(ObjectStore* store) {
  const storage::BufferPoolStats stats = store->buffer_pool()->stats();
  return stats.hits + stats.misses;
}

// One callback: its input index and the bytes it saw.
struct Seen {
  size_t index;
  std::string record;
};

util::Result<std::vector<Seen>> ViewAll(const ObjectStore& store,
                                        std::span<const Oid> oids) {
  std::vector<Seen> seen;
  HM_RETURN_IF_ERROR(
      store.ViewMany(oids, [&seen](size_t i, std::string_view record) {
        seen.push_back({i, std::string(record)});
        return util::Status::Ok();
      }));
  return seen;
}

TEST_F(ObjectStoreTest, ViewManyOfNothingCallsNothing) {
  auto store = Open();
  CreateRecords(store.get(), 3);
  const uint64_t reads = store->stats().objects_read;
  const uint64_t fetches = PoolFetches(store.get());
  auto seen = ViewAll(*store, {});
  ASSERT_TRUE(seen.ok()) << seen.status().ToString();
  EXPECT_TRUE(seen->empty());
  EXPECT_EQ(store->stats().objects_read, reads);
  EXPECT_EQ(PoolFetches(store.get()), fetches);
}

// Records that outgrow their page move to a later one, so page order
// is not OID order; the callbacks still come in page order, each with
// its input index, and a duplicate is visited once per occurrence.
TEST_F(ObjectStoreTest, ViewManyVisitsInPageOrderWithInputIndexes) {
  auto store = Open();
  const uint64_t n = 60;
  CreateRecords(store.get(), n);
  std::map<Oid, std::string> expected;
  for (Oid oid = 1; oid <= n; ++oid) expected[oid] = Payload(oid);
  auto txn = store->Begin();
  ASSERT_TRUE(txn.ok());
  for (Oid moved : {Oid{1}, Oid{3}, Oid{29}}) {
    expected[moved] += std::string(3000, 'z');
    ASSERT_TRUE(store->Update(&*txn, moved, expected[moved]).ok());
  }
  ASSERT_TRUE(store->Commit(&*txn).ok());
  const auto pages = RecordPages(store.get());
  ASSERT_EQ(pages.size(), n);

  std::vector<Oid> oids = {41, 3, 17, 3, 60, 1, 29, 52, 8, 41, 33, 12};
  auto seen = ViewAll(*store, oids);
  ASSERT_TRUE(seen.ok()) << seen.status().ToString();
  ASSERT_EQ(seen->size(), oids.size());
  std::vector<size_t> order;
  std::vector<Oid> visited;
  for (size_t k = 0; k < seen->size(); ++k) {
    const Seen& visit = (*seen)[k];
    ASSERT_LT(visit.index, oids.size());
    EXPECT_EQ(visit.record, expected[oids[visit.index]]);
    order.push_back(visit.index);
    visited.push_back(oids[visit.index]);
    if (k > 0) {
      EXPECT_LE(pages.at((*seen)[k - 1].record), pages.at(visit.record))
          << "callback " << k << " went back a page";
    }
  }
  std::vector<size_t> sorted = order;
  std::sort(sorted.begin(), sorted.end());
  for (size_t i = 0; i < sorted.size(); ++i) EXPECT_EQ(sorted[i], i);
  // The batch does exercise both sorts: page order is neither input
  // order nor OID order.
  EXPECT_FALSE(std::is_sorted(order.begin(), order.end()));
  EXPECT_FALSE(std::is_sorted(visited.begin(), visited.end()));
}

TEST_F(ObjectStoreTest, ViewManyReadsAnOverflowRecordAmongSlottedOnes) {
  auto store = Open();
  auto txn = store->Begin();
  ASSERT_TRUE(txn.ok());
  std::string big(20050, 'B');
  big[0] = 'X';
  big[20049] = 'Y';
  auto a = store->Create(&*txn, "first");
  auto b = store->Create(&*txn, big);
  auto c = store->Create(&*txn, "third");
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  ASSERT_TRUE(store->Commit(&*txn).ok());

  const std::vector<Oid> oids = {*c, *b, *a, *b};
  auto seen = ViewAll(*store, oids);
  ASSERT_TRUE(seen.ok()) << seen.status().ToString();
  ASSERT_EQ(seen->size(), oids.size());
  std::vector<std::string> by_index(oids.size());
  for (const Seen& visit : *seen) by_index[visit.index] = visit.record;
  EXPECT_EQ(by_index[0], "third");
  EXPECT_EQ(by_index[1], big);
  EXPECT_EQ(by_index[2], "first");
  EXPECT_EQ(by_index[3], big);
  // A batch of one takes View's walk.
  const std::vector<Oid> alone = {*b};
  seen = ViewAll(*store, alone);
  ASSERT_TRUE(seen.ok()) << seen.status().ToString();
  ASSERT_EQ(seen->size(), 1u);
  EXPECT_EQ((*seen)[0].index, 0u);
  EXPECT_EQ((*seen)[0].record, big);
}

// Every OID is looked up before any record is visited: a deleted OID,
// one past the last allocated and the invalid OID are NotFound, as
// View says, with no callback and no object read counted.
TEST_F(ObjectStoreTest, ViewManyOfAMissingOidIsNotFound) {
  auto store = Open();
  CreateRecords(store.get(), 5);
  auto txn = store->Begin();
  ASSERT_TRUE(txn.ok());
  ASSERT_TRUE(store->Delete(&*txn, 4).ok());
  ASSERT_TRUE(store->Commit(&*txn).ok());
  const uint64_t reads = store->stats().objects_read;
  for (Oid missing : {Oid{4}, Oid{6}, kInvalidOid}) {
    for (const std::vector<Oid>& oids :
         {std::vector<Oid>{1, 2, missing, 5}, std::vector<Oid>{missing}}) {
      size_t calls = 0;
      util::Status status =
          store->ViewMany(oids, [&calls](size_t, std::string_view) {
            ++calls;
            return util::Status::Ok();
          });
      EXPECT_TRUE(status.IsNotFound()) << missing << ": " << status.ToString();
      EXPECT_EQ(calls, 0u) << missing;
    }
  }
  EXPECT_EQ(store->stats().objects_read, reads);
  // A callback's error ends the walk and is returned.
  size_t calls = 0;
  const std::vector<Oid> oids = {1, 2, 3};
  EXPECT_TRUE(store
                  ->ViewMany(oids,
                             [&calls](size_t, std::string_view) {
                               ++calls;
                               return util::Status::Corruption("callback");
                             })
                  .IsCorruption());
  EXPECT_EQ(calls, 1u);
}

// One object read per OID, duplicates included, and one pool fetch per
// distinct directory page plus one per distinct data page.
TEST_F(ObjectStoreTest, ViewManyPinsEachPageOnce) {
  auto store = Open();
  const uint64_t n = 2500;  // three directory pages
  CreateRecords(store.get(), n);
  const auto pages = RecordPages(store.get());
  const std::vector<Oid> oids = {5,    1500, 1021, 1022, 7,   7,
                                 2400, 6,    1023, 2499, 1500};
  const size_t entries_per_page = storage::kPagePayloadSize / 8;
  std::set<size_t> dir_pages;
  std::set<storage::PageId> data_pages;
  for (Oid oid : oids) {
    dir_pages.insert((oid - 1) / entries_per_page);
    data_pages.insert(pages.at(Payload(oid)));
  }
  ASSERT_EQ(dir_pages.size(), 3u);

  const uint64_t reads = store->stats().objects_read;
  const uint64_t fetches = PoolFetches(store.get());
  auto seen = ViewAll(*store, oids);
  ASSERT_TRUE(seen.ok()) << seen.status().ToString();
  ASSERT_EQ(seen->size(), oids.size());
  for (const Seen& visit : *seen) {
    EXPECT_EQ(visit.record, Payload(oids[visit.index]));
  }
  EXPECT_EQ(store->stats().objects_read - reads, oids.size());
  EXPECT_EQ(PoolFetches(store.get()) - fetches,
            dir_pages.size() + data_pages.size());
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

TEST_F(ObjectStoreTest, FailingModifyLogsNothingAndKeepsTheRecord) {
  auto store = Open();
  Oid oid;
  {
    auto txn = store->Begin();
    ASSERT_TRUE(txn.ok());
    oid = *store->Create(&*txn, "before");
    ASSERT_TRUE(store->Commit(&*txn).ok());
  }
  auto txn = store->Begin();
  ASSERT_TRUE(txn.ok());
  const uint64_t records = store->wal()->records_appended();
  std::string seen;
  auto refuse =
      [&seen](std::string_view before) -> util::Result<std::string> {
    seen.assign(before);
    return util::Status::InvalidArgument("refused");
  };
  util::Status status = store->Modify(&*txn, oid, refuse);
  EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument);
  EXPECT_EQ(seen, "before");
  EXPECT_EQ(store->wal()->records_appended(), records);
  EXPECT_EQ(txn->write_count(), 0u);
  EXPECT_EQ(store->stats().objects_updated, 0u);
  EXPECT_EQ(*store->Read(oid), "before");
  // Nothing was logged, so the commit appends no record either.
  ASSERT_TRUE(store->Commit(&*txn).ok());
  EXPECT_EQ(store->wal()->records_appended(), records);
}

TEST_F(ObjectStoreTest, AbortAfterModifyRestoresTheBeforeBytes) {
  auto store = Open();
  Oid oid;
  {
    auto txn = store->Begin();
    ASSERT_TRUE(txn.ok());
    oid = *store->Create(&*txn, "v1");
    ASSERT_TRUE(store->Commit(&*txn).ok());
  }
  auto txn = store->Begin();
  ASSERT_TRUE(txn.ok());
  // Grows the record past a page, so it moves to an overflow chain.
  auto grow = [](std::string_view before) -> util::Result<std::string> {
    return std::string(before) + std::string(20000, 'x');
  };
  ASSERT_TRUE(store->Modify(&*txn, oid, grow).ok());
  EXPECT_EQ(store->Read(oid)->size(), 20002u);
  EXPECT_EQ(txn->write_count(), 1u);
  ASSERT_TRUE(store->Abort(&*txn).ok());
  EXPECT_EQ(*store->Read(oid), "v1");
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
