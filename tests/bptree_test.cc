// Unit and property tests for the paged B+tree.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <vector>

#include "index/bptree.h"
#include "storage/buffer_pool.h"
#include "storage/file_manager.h"
#include "util/random.h"
#include "test_dir.h"

namespace hm::index {
namespace {

class BPlusTreeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(fm_.Open(dir_ + "/index.db").ok());
    pool_ = std::make_unique<storage::BufferPool>(&fm_, 256);
  }
  void TearDown() override {
    pool_.reset();
    EXPECT_TRUE(fm_.Close().ok());
  }

  BPlusTree Create() {
    auto tree = BPlusTree::Create(pool_.get());
    EXPECT_TRUE(tree.ok());
    return *tree;
  }

  test::TestDir tmp_{"hm_bptree"};
  const std::string dir_ = tmp_.path();
  storage::FileManager fm_;
  std::unique_ptr<storage::BufferPool> pool_;
};

Key128 K(uint64_t p, uint64_t s = 0) { return Key128{p, s}; }

TEST_F(BPlusTreeTest, EmptyTreeGetNotFound) {
  BPlusTree tree = Create();
  EXPECT_TRUE(tree.Get(K(1)).status().IsNotFound());
  auto count = tree.Count();
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 0u);
  EXPECT_TRUE(tree.CheckIntegrity().ok());
}

TEST_F(BPlusTreeTest, InsertGetSingle) {
  BPlusTree tree = Create();
  ASSERT_TRUE(tree.Insert(K(42), 4242).ok());
  auto v = tree.Get(K(42));
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 4242u);
  EXPECT_TRUE(tree.Get(K(41)).status().IsNotFound());
}

TEST_F(BPlusTreeTest, DuplicateInsertRejected) {
  BPlusTree tree = Create();
  ASSERT_TRUE(tree.Insert(K(1), 10).ok());
  EXPECT_EQ(tree.Insert(K(1), 20).code(),
            util::StatusCode::kAlreadyExists);
  EXPECT_EQ(*tree.Get(K(1)), 10u);
}

TEST_F(BPlusTreeTest, CompositeKeysAreDistinct) {
  BPlusTree tree = Create();
  // Same primary, distinct secondary — the duplicate-attribute trick.
  ASSERT_TRUE(tree.Insert(K(5, 1), 100).ok());
  ASSERT_TRUE(tree.Insert(K(5, 2), 200).ok());
  EXPECT_EQ(*tree.Get(K(5, 1)), 100u);
  EXPECT_EQ(*tree.Get(K(5, 2)), 200u);
}

TEST_F(BPlusTreeTest, UpdateChangesValue) {
  BPlusTree tree = Create();
  ASSERT_TRUE(tree.Insert(K(7), 70).ok());
  ASSERT_TRUE(tree.Update(K(7), 71).ok());
  EXPECT_EQ(*tree.Get(K(7)), 71u);
  EXPECT_TRUE(tree.Update(K(8), 80).IsNotFound());
}

TEST_F(BPlusTreeTest, DeleteRemoves) {
  BPlusTree tree = Create();
  ASSERT_TRUE(tree.Insert(K(1), 1).ok());
  ASSERT_TRUE(tree.Insert(K(2), 2).ok());
  ASSERT_TRUE(tree.Delete(K(1)).ok());
  EXPECT_TRUE(tree.Get(K(1)).status().IsNotFound());
  EXPECT_EQ(*tree.Get(K(2)), 2u);
  EXPECT_TRUE(tree.Delete(K(1)).IsNotFound());
}

TEST_F(BPlusTreeTest, ManyInsertsForceSplits) {
  BPlusTree tree = Create();
  const uint64_t n = 5000;  // > 340 per leaf forces multiple levels
  storage::PageId original_root = tree.root_id();
  for (uint64_t i = 0; i < n; ++i) {
    ASSERT_TRUE(tree.Insert(K(i * 7 % n, i), i).ok()) << i;
  }
  EXPECT_NE(tree.root_id(), original_root);  // root split happened
  EXPECT_TRUE(tree.CheckIntegrity().ok());
  EXPECT_EQ(*tree.Count(), n);
  for (uint64_t i = 0; i < n; ++i) {
    auto v = tree.Get(K(i * 7 % n, i));
    ASSERT_TRUE(v.ok()) << i;
    EXPECT_EQ(*v, i);
  }
}

TEST_F(BPlusTreeTest, AscendingAndDescendingInsertions) {
  BPlusTree asc = Create();
  BPlusTree desc = Create();
  for (uint64_t i = 0; i < 2000; ++i) {
    ASSERT_TRUE(asc.Insert(K(i), i).ok());
    ASSERT_TRUE(desc.Insert(K(2000 - i), i).ok());
  }
  EXPECT_TRUE(asc.CheckIntegrity().ok());
  EXPECT_TRUE(desc.CheckIntegrity().ok());
  EXPECT_EQ(*asc.Count(), 2000u);
  EXPECT_EQ(*desc.Count(), 2000u);
}

TEST_F(BPlusTreeTest, ScanRangeReturnsSortedSlice) {
  BPlusTree tree = Create();
  for (uint64_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(tree.Insert(K(i), i * 10).ok());
  }
  std::vector<uint64_t> keys;
  ASSERT_TRUE(tree.ScanRange(K(100), K(199, ~0ULL),
                             [&](Key128 key, uint64_t value) {
                               EXPECT_EQ(value, key.primary * 10);
                               keys.push_back(key.primary);
                               return true;
                             })
                  .ok());
  ASSERT_EQ(keys.size(), 100u);
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  EXPECT_EQ(keys.front(), 100u);
  EXPECT_EQ(keys.back(), 199u);
}

TEST_F(BPlusTreeTest, ScanRangeAcrossLeafBoundaries) {
  BPlusTree tree = Create();
  for (uint64_t i = 0; i < 3000; ++i) {
    ASSERT_TRUE(tree.Insert(K(i), i).ok());
  }
  uint64_t count = 0;
  ASSERT_TRUE(tree.ScanRange(kMinKey, kMaxKey, [&](Key128, uint64_t) {
                    ++count;
                    return true;
                  })
                  .ok());
  EXPECT_EQ(count, 3000u);
}

TEST_F(BPlusTreeTest, ScanEarlyStop) {
  BPlusTree tree = Create();
  for (uint64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(tree.Insert(K(i), i).ok());
  }
  int seen = 0;
  ASSERT_TRUE(tree.ScanRange(kMinKey, kMaxKey, [&](Key128, uint64_t) {
                    return ++seen < 10;
                  })
                  .ok());
  EXPECT_EQ(seen, 10);
}

TEST_F(BPlusTreeTest, EmptyRangeScans) {
  BPlusTree tree = Create();
  for (uint64_t i = 0; i < 100; i += 10) {
    ASSERT_TRUE(tree.Insert(K(i), i).ok());
  }
  int seen = 0;
  ASSERT_TRUE(tree.ScanRange(K(1), K(9), [&](Key128, uint64_t) {
                    ++seen;
                    return true;
                  })
                  .ok());
  EXPECT_EQ(seen, 0);
}

TEST_F(BPlusTreeTest, PersistsAcrossReattach) {
  storage::PageId root;
  {
    BPlusTree tree = Create();
    for (uint64_t i = 0; i < 2000; ++i) {
      ASSERT_TRUE(tree.Insert(K(i), i + 1).ok());
    }
    root = tree.root_id();
    ASSERT_TRUE(pool_->FlushAll().ok());
    ASSERT_TRUE(pool_->DropAll().ok());
  }
  BPlusTree reattached(pool_.get(), root);
  EXPECT_TRUE(reattached.CheckIntegrity().ok());
  for (uint64_t i = 0; i < 2000; i += 37) {
    auto v = reattached.Get(K(i));
    ASSERT_TRUE(v.ok()) << i;
    EXPECT_EQ(*v, i + 1);
  }
}

TEST_F(BPlusTreeTest, DeleteHeavyWorkloadStaysConsistent) {
  BPlusTree tree = Create();
  for (uint64_t i = 0; i < 2000; ++i) {
    ASSERT_TRUE(tree.Insert(K(i), i).ok());
  }
  for (uint64_t i = 0; i < 2000; i += 2) {
    ASSERT_TRUE(tree.Delete(K(i)).ok());
  }
  EXPECT_TRUE(tree.CheckIntegrity().ok());
  EXPECT_EQ(*tree.Count(), 1000u);
  for (uint64_t i = 0; i < 2000; ++i) {
    EXPECT_EQ(tree.Get(K(i)).ok(), i % 2 == 1) << i;
  }
  // Deleted keys can be re-inserted.
  for (uint64_t i = 0; i < 2000; i += 2) {
    ASSERT_TRUE(tree.Insert(K(i), i + 5).ok());
  }
  EXPECT_EQ(*tree.Count(), 2000u);
  EXPECT_TRUE(tree.CheckIntegrity().ok());
}

// Property test: random operation sequences checked against std::map.
class BPlusTreeChurnTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BPlusTreeChurnTest, MatchesModel) {
  test::TestDir tmp("hm_bptree_churn");
  const std::string dir = tmp.path();
  storage::FileManager fm;
  ASSERT_TRUE(fm.Open(dir + "/index.db").ok());
  auto pool = std::make_unique<storage::BufferPool>(&fm, 256);
  auto tree_or = BPlusTree::Create(pool.get());
  ASSERT_TRUE(tree_or.ok());
  BPlusTree tree = *tree_or;

  util::Rng rng(GetParam() * 31 + 17);
  std::map<std::pair<uint64_t, uint64_t>, uint64_t> model;
  for (int step = 0; step < 4000; ++step) {
    uint64_t p = static_cast<uint64_t>(rng.UniformInt(0, 500));
    uint64_t s = static_cast<uint64_t>(rng.UniformInt(0, 3));
    Key128 key{p, s};
    switch (rng.UniformInt(0, 3)) {
      case 0:
      case 1: {  // insert
        uint64_t value = rng.Next64();
        bool expect_ok = !model.contains({p, s});
        util::Status status = tree.Insert(key, value);
        EXPECT_EQ(status.ok(), expect_ok);
        if (expect_ok) model[{p, s}] = value;
        break;
      }
      case 2: {  // delete
        bool expect_ok = model.contains({p, s});
        EXPECT_EQ(tree.Delete(key).ok(), expect_ok);
        model.erase({p, s});
        break;
      }
      case 3: {  // get
        auto v = tree.Get(key);
        if (model.contains({p, s})) {
          ASSERT_TRUE(v.ok());
          uint64_t expected = model[{p, s}];
          EXPECT_EQ(*v, expected);
        } else {
          EXPECT_TRUE(v.status().IsNotFound());
        }
        break;
      }
    }
  }
  ASSERT_TRUE(tree.CheckIntegrity().ok());
  EXPECT_EQ(*tree.Count(), model.size());
  // Final full-scan equivalence.
  auto it = model.begin();
  ASSERT_TRUE(tree.ScanRange(kMinKey, kMaxKey,
                             [&](Key128 key, uint64_t value) {
                               EXPECT_NE(it, model.end());
                               EXPECT_EQ(key.primary, it->first.first);
                               EXPECT_EQ(key.secondary, it->first.second);
                               EXPECT_EQ(value, it->second);
                               ++it;
                               return true;
                             })
                  .ok());
  EXPECT_EQ(it, model.end());
  pool.reset();
  EXPECT_TRUE(fm.Close().ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BPlusTreeChurnTest,
                         ::testing::Range(0ul, 8ul));

}  // namespace
}  // namespace hm::index
