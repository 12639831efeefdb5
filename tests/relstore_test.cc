// Unit tests for the relational substrate: schema/tuple serialization,
// schema evolution padding, heap tables with RID stability rules.

#include <gtest/gtest.h>

#include <filesystem>
#include <set>

#include "relstore/schema.h"
#include "relstore/table.h"
#include "storage/buffer_pool.h"
#include "storage/file_manager.h"
#include "util/random.h"
#include "test_dir.h"

namespace hm::relstore {
namespace {

Schema TestSchema() {
  return Schema{{"id", ColumnType::kInt64},
                {"name", ColumnType::kString},
                {"score", ColumnType::kInt64}};
}

// ---------- Tuple ----------

TEST(TupleTest, SerializeRoundTrip) {
  Schema schema = TestSchema();
  Tuple row({int64_t{42}, std::string("alice"), int64_t{-7}});
  auto bytes = row.Serialize(schema);
  ASSERT_TRUE(bytes.ok());
  auto back = Tuple::Deserialize(schema, *bytes);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, row);
  EXPECT_EQ(back->GetInt(0), 42);
  EXPECT_EQ(back->GetString(1), "alice");
  EXPECT_EQ(back->GetInt(2), -7);
}

TEST(TupleTest, ArityMismatchRejected) {
  Schema schema = TestSchema();
  Tuple narrow({int64_t{1}});
  EXPECT_FALSE(narrow.Serialize(schema).ok());
}

TEST(TupleTest, TypeMismatchRejected) {
  Schema schema = TestSchema();
  Tuple wrong({std::string("not-an-int"), std::string("x"), int64_t{0}});
  EXPECT_FALSE(wrong.Serialize(schema).ok());
}

TEST(TupleTest, TrailingBytesRejected) {
  Schema schema = TestSchema();
  Tuple row({int64_t{1}, std::string("x"), int64_t{2}});
  std::string bytes = *row.Serialize(schema);
  bytes += "extra";
  EXPECT_TRUE(Tuple::Deserialize(schema, bytes).status().IsCorruption());
}

TEST(TupleTest, OldRowsReadUnderWiderSchema) {
  // Dynamic schema modification (R4): rows written before AddColumn
  // come back padded with defaults.
  Schema old_schema = TestSchema();
  Tuple row({int64_t{5}, std::string("bob"), int64_t{9}});
  std::string bytes = *row.Serialize(old_schema);

  Schema wider = TestSchema();
  wider.AddColumn({"extra_attr", ColumnType::kInt64});
  wider.AddColumn({"note", ColumnType::kString});
  auto back = Tuple::Deserialize(wider, bytes);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->size(), 5u);
  EXPECT_EQ(back->GetInt(3), 0);
  EXPECT_EQ(back->GetString(4), "");
}

TEST(SchemaTest, ColumnIndexLookup) {
  Schema schema = TestSchema();
  EXPECT_EQ(schema.ColumnIndex("name"), 1);
  EXPECT_EQ(schema.ColumnIndex("missing"), -1);
}

// ---------- Table ----------

class TableTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(fm_.Open(dir_ + "/t.db").ok());
    pool_ = std::make_unique<storage::BufferPool>(&fm_, 128);
  }
  void TearDown() override {
    pool_.reset();
    EXPECT_TRUE(fm_.Close().ok());
  }

  test::TestDir tmp_{"hm_relstore"};
  const std::string dir_ = tmp_.path();
  storage::FileManager fm_;
  std::unique_ptr<storage::BufferPool> pool_;
};

TEST_F(TableTest, InsertReadRoundTrip) {
  Table table(pool_.get(), TestSchema());
  ASSERT_TRUE(table.CreateNew().ok());
  auto rid = table.Insert(Tuple({int64_t{1}, std::string("n"), int64_t{2}}));
  ASSERT_TRUE(rid.ok());
  auto row = table.Read(*rid);
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(row->GetInt(0), 1);
}

TEST_F(TableTest, ManyRowsSpanPages) {
  Table table(pool_.get(), TestSchema());
  ASSERT_TRUE(table.CreateNew().ok());
  std::vector<Rid> rids;
  for (int i = 0; i < 2000; ++i) {
    auto rid = table.Insert(
        Tuple({int64_t{i}, std::string(100, 'r'), int64_t{i * 2}}));
    ASSERT_TRUE(rid.ok());
    rids.push_back(*rid);
  }
  std::set<storage::PageId> pages;
  for (Rid rid : rids) pages.insert(RidPage(rid));
  EXPECT_GT(pages.size(), 10u);  // heap grew across pages
  for (int i = 0; i < 2000; i += 131) {
    auto row = table.Read(rids[static_cast<size_t>(i)]);
    ASSERT_TRUE(row.ok());
    EXPECT_EQ(row->GetInt(0), i);
  }
}

TEST_F(TableTest, ScanVisitsAllLiveRows) {
  Table table(pool_.get(), TestSchema());
  ASSERT_TRUE(table.CreateNew().ok());
  std::vector<Rid> rids;
  for (int i = 0; i < 500; ++i) {
    rids.push_back(*table.Insert(
        Tuple({int64_t{i}, std::string("s"), int64_t{0}})));
  }
  for (size_t i = 0; i < rids.size(); i += 3) {
    ASSERT_TRUE(table.Delete(rids[i]).ok());
  }
  std::set<int64_t> seen;
  ASSERT_TRUE(table.Scan([&](Rid, const Tuple& row) {
                   seen.insert(row.GetInt(0));
                   return true;
                 })
                  .ok());
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(seen.contains(i), i % 3 != 0) << i;
  }
  EXPECT_EQ(*table.RowCount(), seen.size());
}

TEST_F(TableTest, FixedWidthUpdateKeepsRid) {
  Table table(pool_.get(), TestSchema());
  ASSERT_TRUE(table.CreateNew().ok());
  auto rid = table.Insert(Tuple({int64_t{1}, std::string("abc"), int64_t{2}}));
  ASSERT_TRUE(rid.ok());
  Tuple updated({int64_t{1}, std::string("xyz"), int64_t{3}});
  auto new_rid = table.Update(*rid, updated);
  ASSERT_TRUE(new_rid.ok());
  EXPECT_EQ(*new_rid, *rid);  // same size: in place
  EXPECT_EQ(table.Read(*rid)->GetInt(2), 3);
}

TEST_F(TableTest, GrowingUpdateMayRelocate) {
  Table table(pool_.get(), TestSchema());
  ASSERT_TRUE(table.CreateNew().ok());
  // Fill one page almost completely.
  std::vector<Rid> rids;
  for (int i = 0; i < 30; ++i) {
    rids.push_back(*table.Insert(
        Tuple({int64_t{i}, std::string(250, 'f'), int64_t{0}})));
  }
  // Grow row 0 far beyond the page's remaining space.
  Tuple grown({int64_t{0}, std::string(7000, 'g'), int64_t{0}});
  auto new_rid = table.Update(rids[0], grown);
  ASSERT_TRUE(new_rid.ok());
  auto row = table.Read(*new_rid);
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(row->GetString(1).size(), 7000u);
  // Old RID must be dead if relocated.
  if (*new_rid != rids[0]) {
    EXPECT_FALSE(table.Read(rids[0]).ok());
  }
}

TEST_F(TableTest, RowTooLargeRejected) {
  Table table(pool_.get(), TestSchema());
  ASSERT_TRUE(table.CreateNew().ok());
  Tuple huge({int64_t{0}, std::string(9000, 'h'), int64_t{0}});
  EXPECT_EQ(table.Insert(huge).status().code(),
            util::StatusCode::kInvalidArgument);
}

TEST_F(TableTest, OpenExistingResumesAppend) {
  storage::PageId first;
  {
    Table table(pool_.get(), TestSchema());
    ASSERT_TRUE(table.CreateNew().ok());
    for (int i = 0; i < 1000; ++i) {
      ASSERT_TRUE(table
                      .Insert(Tuple({int64_t{i}, std::string(50, 'p'),
                                     int64_t{0}}))
                      .ok());
    }
    first = table.first_page();
    ASSERT_TRUE(pool_->FlushAll().ok());
  }
  Table table(pool_.get(), TestSchema());
  ASSERT_TRUE(table.OpenExisting(first).ok());
  EXPECT_EQ(*table.RowCount(), 1000u);
  ASSERT_TRUE(
      table.Insert(Tuple({int64_t{1000}, std::string("new"), int64_t{0}}))
          .ok());
  EXPECT_EQ(*table.RowCount(), 1001u);
}

TEST_F(TableTest, ScanEarlyStop) {
  Table table(pool_.get(), TestSchema());
  ASSERT_TRUE(table.CreateNew().ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        table.Insert(Tuple({int64_t{i}, std::string("e"), int64_t{0}})).ok());
  }
  int seen = 0;
  ASSERT_TRUE(table.Scan([&](Rid, const Tuple&) { return ++seen < 5; }).ok());
  EXPECT_EQ(seen, 5);
}

TEST_F(TableTest, InsertWithoutCreateFails) {
  Table table(pool_.get(), TestSchema());
  EXPECT_FALSE(
      table.Insert(Tuple({int64_t{0}, std::string(), int64_t{0}})).ok());
}

// Property test: random insert/update/delete churn vs std::map model.
class TableChurnTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TableChurnTest, MatchesModel) {
  test::TestDir tmp("hm_table_churn");
  const std::string dir = tmp.path();
  storage::FileManager fm;
  ASSERT_TRUE(fm.Open(dir + "/t.db").ok());
  auto pool = std::make_unique<storage::BufferPool>(&fm, 128);
  Table table(pool.get(), TestSchema());
  ASSERT_TRUE(table.CreateNew().ok());

  util::Rng rng(GetParam() + 1000);
  std::map<Rid, Tuple> model;
  for (int step = 0; step < 1500; ++step) {
    int64_t action = rng.UniformInt(0, 3);
    if (action <= 1) {  // insert
      Tuple row({rng.UniformInt(0, 1000),
                 std::string(static_cast<size_t>(rng.UniformInt(0, 200)), 'c'),
                 rng.UniformInt(-100, 100)});
      auto rid = table.Insert(row);
      ASSERT_TRUE(rid.ok());
      model[*rid] = row;
    } else if (action == 2 && !model.empty()) {  // delete
      auto it = model.begin();
      std::advance(it, static_cast<long>(rng.UniformInt(
                           0, static_cast<int64_t>(model.size()) - 1)));
      ASSERT_TRUE(table.Delete(it->first).ok());
      model.erase(it);
    } else if (!model.empty()) {  // update (possibly relocating)
      auto it = model.begin();
      std::advance(it, static_cast<long>(rng.UniformInt(
                           0, static_cast<int64_t>(model.size()) - 1)));
      Tuple row({rng.UniformInt(0, 1000),
                 std::string(static_cast<size_t>(rng.UniformInt(0, 400)), 'u'),
                 rng.UniformInt(-100, 100)});
      auto new_rid = table.Update(it->first, row);
      ASSERT_TRUE(new_rid.ok());
      if (*new_rid != it->first) {
        model.erase(it);
        model[*new_rid] = row;
      } else {
        it->second = row;
      }
    }
  }
  for (const auto& [rid, expected] : model) {
    auto row = table.Read(rid);
    ASSERT_TRUE(row.ok());
    EXPECT_EQ(*row, expected);
  }
  EXPECT_EQ(*table.RowCount(), model.size());
  pool.reset();
  EXPECT_TRUE(fm.Close().ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, TableChurnTest, ::testing::Range(0ul, 6ul));

}  // namespace
}  // namespace hm::relstore
