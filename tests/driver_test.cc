// Tests for the benchmark driver: the §6 a-e protocol, normalization,
// database invariance after warm runs, and cold/warm cache behaviour.

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>

#include "hypermodel/backends/mem_store.h"
#include "hypermodel/backends/oodb_store.h"
#include "hypermodel/driver.h"
#include "hypermodel/generator.h"
#include "hypermodel/report.h"

namespace hm {
namespace {

class DriverTest : public ::testing::Test {
 protected:
  void SetUp() override {
    GeneratorConfig config;
    config.levels = 3;
    Generator generator(config);
    auto db = generator.Build(&store_, nullptr);
    ASSERT_TRUE(db.ok());
    db_ = *db;
    config_.iterations = 10;
  }

  backends::MemStore store_;
  TestDatabase db_;
  DriverConfig config_;
};

TEST_F(DriverTest, AllOpsHaveDistinctNames) {
  std::set<std::string_view> names;
  for (OpId op : AllOps()) {
    EXPECT_TRUE(names.insert(OpName(op)).second) << OpName(op);
  }
  EXPECT_EQ(AllOps().size(), 20u);  // the paper's 20 operations
}

TEST_F(DriverTest, RunProducesPlausibleResult) {
  Driver driver(&store_, &db_, config_);
  auto result = driver.Run(OpId::kNameLookup);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->backend, "mem");
  EXPECT_EQ(result->level, 3);
  EXPECT_EQ(result->cold_nodes, 10u);  // 1 node per iteration
  EXPECT_EQ(result->warm_nodes, 10u);
  EXPECT_GE(result->cold_total_ms, 0.0);
  EXPECT_GT(result->cold_ms_per_node(), 0.0);
}

TEST(DriverSmallDatabaseTest, OpWithoutInputNodesFailsWithStatus) {
  // A level-2 database has 25 leaves and no form node (one per 125
  // text nodes): op 17 must refuse, not abort.
  backends::MemStore store;
  GeneratorConfig config;
  config.levels = 2;
  auto db = Generator(config).Build(&store, nullptr);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE(db->form_nodes.empty());
  Driver driver(&store, &*db, DriverConfig{});
  auto result = driver.Run(OpId::kFormNodeEdit);
  EXPECT_EQ(result.status().code(), util::StatusCode::kFailedPrecondition)
      << result.status().ToString();
  EXPECT_TRUE(driver.Run(OpId::kTextNodeEdit).ok());
}

TEST_F(DriverTest, GroupLookupReturnsFanoutNodes) {
  Driver driver(&store_, &db_, config_);
  auto result = driver.Run(OpId::kGroupLookup1N);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->cold_nodes, 50u);  // 10 iterations x 5 children
}

TEST_F(DriverTest, RunAllCoversEveryOp) {
  Driver driver(&store_, &db_, config_);
  auto results = driver.RunAll();
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  EXPECT_EQ(results->size(), 20u);
  for (const OpResult& r : *results) {
    // Every op must have touched at least one node per run, except
    // refLookupMNATT which may legitimately return empty sets.
    if (r.op != OpId::kRefLookupMNAtt) {
      EXPECT_GT(r.cold_nodes, 0u) << r.op_name;
      EXPECT_GT(r.warm_nodes, 0u) << r.op_name;
    }
    EXPECT_EQ(r.cold_nodes, r.warm_nodes)
        << r.op_name << ": same inputs must touch the same node count";
  }
}

TEST_F(DriverTest, DatabaseRestoredAfterWarmRun) {
  // The self-inverse update operations (attSet 99-x twice, the
  // version1/version-2 swap, the double rectangle inversion) must
  // leave the database exactly as it was.
  std::vector<int64_t> hundreds_before;
  for (NodeRef node : db_.all_nodes) {
    hundreds_before.push_back(*store_.GetAttr(node, Attr::kHundred));
  }
  std::vector<std::string> texts_before;
  for (NodeRef node : db_.text_nodes) {
    texts_before.push_back(*store_.GetText(node));
  }
  std::vector<uint64_t> forms_before;
  for (NodeRef node : db_.form_nodes) {
    forms_before.push_back(store_.GetForm(node)->PopCount());
  }

  Driver driver(&store_, &db_, config_);
  ASSERT_TRUE(driver.Run(OpId::kClosure1NAttSet).ok());
  ASSERT_TRUE(driver.Run(OpId::kTextNodeEdit).ok());
  ASSERT_TRUE(driver.Run(OpId::kFormNodeEdit).ok());

  for (size_t i = 0; i < db_.all_nodes.size(); ++i) {
    ASSERT_EQ(*store_.GetAttr(db_.all_nodes[i], Attr::kHundred),
              hundreds_before[i])
        << "node " << i;
  }
  for (size_t i = 0; i < db_.text_nodes.size(); ++i) {
    ASSERT_EQ(*store_.GetText(db_.text_nodes[i]), texts_before[i]);
  }
  for (size_t i = 0; i < db_.form_nodes.size(); ++i) {
    ASSERT_EQ(store_.GetForm(db_.form_nodes[i])->PopCount(),
              forms_before[i]);
  }
}

TEST_F(DriverTest, SameSeedSameInputsAcrossDrivers) {
  Driver a(&store_, &db_, config_);
  Driver b(&store_, &db_, config_);
  auto ra = a.Run(OpId::kRangeLookupHundred);
  auto rb = b.Run(OpId::kRangeLookupHundred);
  ASSERT_TRUE(ra.ok() && rb.ok());
  EXPECT_EQ(ra->cold_nodes, rb->cold_nodes);
}

TEST_F(DriverTest, ColdRunSeesBufferPoolMisses) {
  std::string dir = ::testing::TempDir() + "/hm_driver_cold";
  std::filesystem::remove_all(dir);
  auto oodb = backends::OodbStore::Open({}, dir);
  ASSERT_TRUE(oodb.ok());
  GeneratorConfig gen_config;
  gen_config.levels = 3;
  Generator generator(gen_config);
  auto db = generator.Build(oodb->get(), nullptr);
  ASSERT_TRUE(db.ok());

  Driver driver(oodb->get(), &*db, config_);
  auto result = driver.Run(OpId::kClosure1N);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Cold includes page fetches; warm runs from the pool. Equality can
  // happen on trivial timings, so assert on the stats instead: the
  // CloseReopen between runs forced at least one miss in cold.
  EXPECT_GT(result->cold_total_ms, 0.0);
  EXPECT_GT(result->warm_total_ms, 0.0);
  EXPECT_TRUE((*oodb)->object_store()->Close().ok());
  std::filesystem::remove_all(dir);
}

TEST_F(DriverTest, ReportTablesRender) {
  Driver driver(&store_, &db_, config_);
  Report report;
  for (OpId op : {OpId::kNameLookup, OpId::kClosure1N}) {
    auto result = driver.Run(op);
    ASSERT_TRUE(result.ok());
    report.AddOpResult(*result);
  }
  CreationRow creation;
  creation.backend = "mem";
  creation.level = 3;
  creation.nodes = db_.node_count();
  creation.timing.internal_nodes = 31;
  creation.timing.internal_nodes_ms = 1.5;
  report.AddCreation(creation);

  std::ostringstream table;
  report.PrintOpTable(table);
  EXPECT_NE(table.str().find("01  nameLookup"), std::string::npos);
  EXPECT_NE(table.str().find("mem-cold"), std::string::npos);
  EXPECT_NE(table.str().find("level 3"), std::string::npos);

  std::ostringstream creation_table;
  report.PrintCreationTable(creation_table);
  EXPECT_NE(creation_table.str().find("int-node"), std::string::npos);

  std::ostringstream csv;
  report.PrintCsv(csv);
  // Header + 2 rows.
  std::string csv_text = csv.str();
  EXPECT_EQ(std::count(csv_text.begin(), csv_text.end(), '\n'), 3);
}

TEST_F(DriverTest, FormEditUsesSameNodeAllIterations) {
  // Indirect check: 10 edits on one bitmap with replayed rectangles in
  // the warm run restore the bitmap (verified in
  // DatabaseRestoredAfterWarmRun); here assert the op count semantics.
  Driver driver(&store_, &db_, config_);
  auto result = driver.Run(OpId::kFormNodeEdit);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->cold_nodes, 10u);  // one edit op per iteration
}

}  // namespace
}  // namespace hm
