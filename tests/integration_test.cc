// End-to-end integration: the complete benchmark protocol on the
// persistent backends, invariance of the database across protocol
// runs, determinism of node counts across backends, eviction pressure
// during the full run, online backup (R10), and reopen-after-run.

#include <gtest/gtest.h>

#include <filesystem>
#include <map>

#include "hypermodel/backends/mem_store.h"
#include "hypermodel/backends/net_store.h"
#include "hypermodel/backends/oodb_store.h"
#include "hypermodel/backends/rel_store.h"
#include "hypermodel/driver.h"
#include "hypermodel/generator.h"
#include "hypermodel/operations.h"
#include "objstore/object_store.h"
#include "util/text.h"
#include "test_dir.h"

namespace hm {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  test::TestDir tmp_{"hm_integration"};
  const std::string dir_ = tmp_.path();
};

TEST_F(IntegrationTest, FullProtocolOnAllBackendsAgreesOnNodeCounts) {
  GeneratorConfig gen_config;
  gen_config.levels = 3;
  DriverConfig config;
  config.iterations = 5;

  // op -> backend -> (cold_nodes, warm_nodes)
  std::map<std::string, std::map<std::string, uint64_t>> counts;

  auto run_backend = [&](HyperStore* store) {
    Generator generator(gen_config);
    auto db = generator.Build(store, nullptr);
    ASSERT_TRUE(db.ok()) << store->name();
    Driver driver(store, &*db, config);
    auto results = driver.RunAll();
    ASSERT_TRUE(results.ok())
        << store->name() << ": " << results.status().ToString();
    EXPECT_EQ(results->size(), 20u);
    for (const OpResult& result : *results) {
      EXPECT_EQ(result.cold_nodes, result.warm_nodes)
          << store->name() << " " << result.op_name;
      counts[result.op_name][store->name()] = result.cold_nodes;
    }
  };

  backends::MemStore mem;
  run_backend(&mem);
  auto oodb = backends::OodbStore::Open({}, dir_ + "/oodb");
  ASSERT_TRUE(oodb.ok());
  run_backend(oodb->get());
  auto rel = backends::RelStore::Open({}, dir_ + "/rel");
  ASSERT_TRUE(rel.ok());
  run_backend(rel->get());
  auto net = backends::NetStore::Open({}, dir_ + "/net");
  ASSERT_TRUE(net.ok());
  run_backend(net->get());

  // Same seed, same generated topology, same inputs: every backend
  // must return/involve exactly the same number of nodes per op.
  for (const auto& [op, by_backend] : counts) {
    ASSERT_EQ(by_backend.size(), 4u) << op;
    uint64_t expected = by_backend.begin()->second;
    for (const auto& [backend, nodes] : by_backend) {
      EXPECT_EQ(nodes, expected) << op << " on " << backend;
    }
  }
}

TEST_F(IntegrationTest, ProtocolLeavesDatabaseUnchangedOnOodb) {
  auto store = backends::OodbStore::Open({}, dir_ + "/oodb");
  ASSERT_TRUE(store.ok());
  GeneratorConfig gen_config;
  gen_config.levels = 3;
  Generator generator(gen_config);
  auto db = generator.Build(store->get(), nullptr);
  ASSERT_TRUE(db.ok());

  // Fingerprint: total hundred-sum from the root plus all text sizes.
  auto fingerprint = [&]() -> std::pair<int64_t, uint64_t> {
    uint64_t visited = 0;
    int64_t sum =
        *ops::Closure1NAttSum(store->get(), db->root, &visited);
    uint64_t text_bytes = 0;
    for (NodeRef node : db->text_nodes) {
      text_bytes += (*store)->GetText(node)->size();
    }
    return {sum, text_bytes};
  };
  auto before = fingerprint();

  DriverConfig config;
  config.iterations = 5;
  Driver driver(store->get(), &*db, config);
  auto results = driver.RunAll();
  ASSERT_TRUE(results.ok()) << results.status().ToString();

  // All update operations are self-inverse across cold+warm runs.
  EXPECT_EQ(fingerprint(), before);
}

TEST_F(IntegrationTest, FullRunUnderEvictionPressure) {
  backends::OodbOptions options;
  options.cache_pages = 8;  // far below the database page count
  auto store = backends::OodbStore::Open(options, dir_ + "/oodb");
  ASSERT_TRUE(store.ok());
  GeneratorConfig gen_config;
  gen_config.levels = 3;
  Generator generator(gen_config);
  auto db = generator.Build(store->get(), nullptr);
  ASSERT_TRUE(db.ok()) << db.status().ToString();

  DriverConfig config;
  config.iterations = 3;
  Driver driver(store->get(), &*db, config);
  auto results = driver.RunAll();
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  EXPECT_GT((*store)->object_store()->buffer_pool()->stats().evictions, 0u);
}

TEST_F(IntegrationTest, DatabaseSurvivesReopenAfterProtocol) {
  GeneratorConfig gen_config;
  gen_config.levels = 3;
  TestDatabase db;
  {
    auto store = backends::OodbStore::Open({}, dir_ + "/oodb");
    ASSERT_TRUE(store.ok());
    Generator generator(gen_config);
    auto built = generator.Build(store->get(), nullptr);
    ASSERT_TRUE(built.ok());
    db = *built;
    DriverConfig config;
    config.iterations = 3;
    Driver driver(store->get(), &db, config);
    ASSERT_TRUE(driver.Run(OpId::kClosure1NAttSet).ok());
    ASSERT_TRUE(driver.Run(OpId::kTextNodeEdit).ok());
  }
  auto reopened = backends::OodbStore::Open({}, dir_ + "/oodb");
  ASSERT_TRUE(reopened.ok());
  std::vector<NodeRef> closure;
  ASSERT_TRUE(ops::Closure1N(reopened->get(), db.root, &closure).ok());
  EXPECT_EQ(closure.size(), db.node_count());
  // The self-inverse edit pairs restored the contents.
  for (NodeRef node : db.text_nodes) {
    auto text = (*reopened)->GetText(node);
    ASSERT_TRUE(text.ok());
    EXPECT_EQ(util::CountOccurrences(*text, "version-2"), 0u);
  }
}

TEST_F(IntegrationTest, OnlineBackupIsAConsistentStore) {
  auto store = backends::OodbStore::Open({}, dir_ + "/live");
  ASSERT_TRUE(store.ok());
  GeneratorConfig gen_config;
  gen_config.levels = 2;
  Generator generator(gen_config);
  auto db = generator.Build(store->get(), nullptr);
  ASSERT_TRUE(db.ok());

  ASSERT_TRUE(
      (*store)->object_store()->BackupTo(dir_ + "/backup").ok());

  // Mutate the live store after the backup.
  ASSERT_TRUE((*store)->Begin().ok());
  ASSERT_TRUE(
      (*store)->SetText(db->text_nodes[0], "post-backup edit").ok());
  ASSERT_TRUE((*store)->Commit().ok());

  // The backup opens as a complete store with the pre-edit state.
  auto backup = backends::OodbStore::Open({}, dir_ + "/backup");
  ASSERT_TRUE(backup.ok()) << backup.status().ToString();
  std::vector<NodeRef> closure;
  ASSERT_TRUE(ops::Closure1N(backup->get(), db->root, &closure).ok());
  EXPECT_EQ(closure.size(), db->node_count());
  auto text = (*backup)->GetText(db->text_nodes[0]);
  ASSERT_TRUE(text.ok());
  EXPECT_NE(*text, "post-backup edit");
  EXPECT_EQ(*(*store)->GetText(db->text_nodes[0]), "post-backup edit");
}

TEST_F(IntegrationTest, BackupRequiresNoActiveTransactionSemantics) {
  auto store_or = objstore::ObjectStore::Open({}, dir_ + "/raw");
  ASSERT_TRUE(store_or.ok());
  objstore::ObjectStore* store = store_or->get();
  auto txn = store->Begin();
  ASSERT_TRUE(txn.ok());
  auto oid = store->Create(&*txn, "committed before backup");
  ASSERT_TRUE(oid.ok());
  ASSERT_TRUE(store->Commit(&*txn).ok());
  ASSERT_TRUE(store->BackupTo(dir_ + "/raw_backup").ok());

  auto backup = objstore::ObjectStore::Open({}, dir_ + "/raw_backup");
  ASSERT_TRUE(backup.ok());
  EXPECT_EQ(*(*backup)->Read(*oid), "committed before backup");
  EXPECT_TRUE((*backup)->Close().ok());
}

}  // namespace
}  // namespace hm
