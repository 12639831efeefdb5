// Backend-specific behaviour the generic contract suite cannot cover:
// OODB crash recovery with index rebuild, garbage collection (R10),
// abort semantics, tiny-cache eviction pressure, placement policies,
// and the relational backend's FORCE-commit durability, alone and
// under concurrent committers.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <mutex>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>

#include "analysis/fsck.h"
#include "hypermodel/backends/net_store.h"
#include "hypermodel/backends/oodb_store.h"
#include "hypermodel/backends/rel_store.h"
#include "hypermodel/generator.h"
#include "hypermodel/operations.h"
#include "hypermodel/traversal.h"
#include "storage/commit_pipeline/segmented_wal.h"
#include "telemetry/metrics.h"
#include "util/coding.h"
#include "util/failpoint.h"
#include "test_dir.h"

namespace hm::backends {
namespace {

class BackendDirTest : public ::testing::Test {
 protected:
  NodeAttrs Attrs(int64_t uid, NodeKind kind = NodeKind::kInternal) {
    NodeAttrs attrs;
    attrs.unique_id = uid;
    attrs.ten = uid % 10 + 1;
    attrs.hundred = uid % 100 + 1;
    attrs.thousand = uid % 1000 + 1;
    attrs.million = uid % 1000000 + 1;
    attrs.kind = kind;
    return attrs;
  }

  /// Runs fsck over `store`, a database `config` generated.
  static void ExpectFsckClean(HyperStore* store,
                              const GeneratorConfig& config) {
    analysis::FsckOptions fsck;
    fsck.config = config;
    auto report = analysis::RunFsck(store, fsck);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(report->ok()) << [&] {
      std::ostringstream os;
      report->PrintTo(os);
      return os.str();
    }();
  }

  test::TestDir tmp_{"hm_backend"};
  /// The store's directory; the store that opens it makes it.
  const std::string dir_ = tmp_.path() + "/db";
};

// ---------- OODB: crash recovery rebuilds indexes ----------

TEST_F(BackendDirTest, OodbCrashRecoveryRebuildsIndexes) {
  NodeRef node = kInvalidNode;
  {
    auto store = OodbStore::Open({}, dir_);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Begin().ok());
    node = *(*store)->CreateNode(Attrs(1), kInvalidNode);
    ASSERT_TRUE((*store)->SetAttr(node, Attr::kHundred, 77).ok());
    ASSERT_TRUE((*store)->Commit().ok());
    // Crash: copy the directory mid-life (WAL synced by the commit,
    // index pages only in the buffer pool).
    std::filesystem::copy(dir_, dir_ + "_crash",
                          std::filesystem::copy_options::recursive);
  }
  auto crashed = OodbStore::Open({}, dir_ + "_crash");
  ASSERT_TRUE(crashed.ok()) << crashed.status().ToString();
  // The WAL replayed and indexes were rebuilt: both key and range
  // access work.
  auto by_uid = (*crashed)->LookupUnique(1);
  ASSERT_TRUE(by_uid.ok());
  EXPECT_EQ(*(*crashed)->GetAttr(*by_uid, Attr::kHundred), 77);
  std::vector<NodeRef> hits;
  ASSERT_TRUE((*crashed)->RangeHundred(77, 77, &hits).ok());
  ASSERT_EQ(hits.size(), 1u);
  // The pre-update hundred value (2) must not be findable.
  hits.clear();
  ASSERT_TRUE((*crashed)->RangeHundred(2, 2, &hits).ok());
  EXPECT_TRUE(hits.empty());
  std::filesystem::remove_all(dir_ + "_crash");
}

TEST_F(BackendDirTest, OodbFullDatabaseSurvivesCrash) {
  GeneratorConfig config;
  config.levels = 3;
  TestDatabase db;
  {
    auto store = OodbStore::Open({}, dir_);
    ASSERT_TRUE(store.ok());
    Generator generator(config);
    auto built = generator.Build(store->get(), nullptr);
    ASSERT_TRUE(built.ok());
    db = *built;
    // Post-generation edits, committed but not checkpointed.
    ASSERT_TRUE((*store)->Begin().ok());
    ASSERT_TRUE((*store)->SetText(db.text_nodes[0], "crash edit").ok());
    ASSERT_TRUE((*store)->Commit().ok());
    std::filesystem::copy(dir_, dir_ + "_crash",
                          std::filesystem::copy_options::recursive);
  }
  auto crashed = OodbStore::Open({}, dir_ + "_crash");
  ASSERT_TRUE(crashed.ok()) << crashed.status().ToString();
  EXPECT_EQ(*(*crashed)->GetText(db.text_nodes[0]), "crash edit");
  // The whole structure is intact.
  std::vector<NodeRef> closure;
  ASSERT_TRUE(ops::Closure1N(crashed->get(), db.root, &closure).ok());
  EXPECT_EQ(closure.size(), db.node_count());
  std::filesystem::remove_all(dir_ + "_crash");
}

// ---------- OODB: abort ----------

TEST_F(BackendDirTest, OodbAbortRollsBackAndKeepsIndexesConsistent) {
  auto store = OodbStore::Open({}, dir_);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Begin().ok());
  NodeRef keeper = *(*store)->CreateNode(Attrs(1), kInvalidNode);
  ASSERT_TRUE((*store)->Commit().ok());

  ASSERT_TRUE((*store)->Begin().ok());
  ASSERT_TRUE((*store)->CreateNode(Attrs(2), kInvalidNode).ok());
  ASSERT_TRUE((*store)->SetAttr(keeper, Attr::kHundred, 50).ok());
  ASSERT_TRUE((*store)->Abort().ok());

  // The phantom node is gone from object store AND indexes.
  EXPECT_FALSE((*store)->LookupUnique(2).ok());
  std::vector<NodeRef> hits;
  ASSERT_TRUE((*store)->RangeHundred(1, 100, &hits).ok());
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], keeper);
  EXPECT_EQ(*(*store)->GetAttr(keeper, Attr::kHundred), 2);  // restored
}

// A commit whose commit record cannot be appended wrote no byte of it,
// so the transaction is a loser: it is rolled back and ended. It must
// not survive, before or after reopen, nor stay registered as active,
// where it would pin every later checkpoint's recovery start and make
// every fuzzy checkpoint give up.
TEST_F(BackendDirTest, OodbFailedCommitAppendRollsBackAndEnds) {
  if (!util::kFailpointsCompiled) {
    GTEST_SKIP() << "failpoints compiled out of this build";
  }
  OodbOptions options;
  options.wal_segment_bytes = 4 * 1024;
  GeneratorConfig config;
  config.levels = 2;
  constexpr int64_t kDoomed = 1000;
  {
    auto store = OodbStore::Open(options, dir_);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    auto db = Generator(config).Build(store->get(), nullptr);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    objstore::ObjectStore* objects = (*store)->object_store();

    const uint64_t failed_seq =
        storage::SegmentedWal::LsnSegment(objects->wal()->NextLsn());
    ASSERT_TRUE((*store)->Begin().ok());
    auto doomed = (*store)->CreateNode(Attrs(kDoomed), db->root);
    ASSERT_TRUE(doomed.ok()) << doomed.status().ToString();
    ASSERT_TRUE(
        util::Failpoint::Enable("wal/append/error", "error,times=1").ok());
    util::Status failed = (*store)->Commit();
    util::Failpoint::DisableAll();
    EXPECT_EQ(failed.code(), util::StatusCode::kIoError) << failed.ToString();
    EXPECT_TRUE((*store)->LookupUnique(kDoomed).status().IsNotFound());
    EXPECT_FALSE((*store)->GetAttr(*doomed, Attr::kTen).ok());

    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE((*store)->Begin().ok());
      ASSERT_TRUE((*store)
                      ->SetAttr(db->all_nodes[static_cast<size_t>(i) %
                                              db->all_nodes.size()],
                                Attr::kTen, 1 + i % 10)
                      .ok());
      ASSERT_TRUE((*store)->Commit().ok());
    }
    ASSERT_TRUE(objects->Checkpoint().ok());
    EXPECT_GT(objects->wal()->OldestSeq(), failed_seq);
    telemetry::Counter* skipped =
        telemetry::Registry::Global().GetCounter("storage.checkpoint.skipped");
    const uint64_t skipped_before = skipped->value();
    ASSERT_TRUE(objects->FuzzyCheckpoint().ok());
    EXPECT_EQ(skipped->value(), skipped_before);
    ExpectFsckClean(store->get(), config);
  }
  auto reopened = OodbStore::Open(options, dir_);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_TRUE((*reopened)->LookupUnique(kDoomed).status().IsNotFound());
  ExpectFsckClean(reopened->get(), config);
}

// A fuzzy checkpoint may prune the log only below changes the data
// file holds durably. When the data sync fails, the checkpoint reports
// it and prunes nothing, the next one still runs, and reopen finds
// every committed edit.
TEST_F(BackendDirTest, OodbFuzzyCheckpointDataSyncFailurePrunesNothing) {
  if (!util::kFailpointsCompiled) {
    GTEST_SKIP() << "failpoints compiled out of this build";
  }
  OodbOptions options;
  options.wal_segment_bytes = 4 * 1024;
  GeneratorConfig config;
  config.levels = 2;
  struct Committed {
    NodeRef node;
    int64_t uid;
    int64_t ten;
  };
  std::vector<Committed> committed;
  {
    auto store = OodbStore::Open(options, dir_);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    auto db = Generator(config).Build(store->get(), nullptr);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    for (size_t i = 0; i < 200; ++i) {
      ASSERT_TRUE((*store)->Begin().ok());
      ASSERT_TRUE((*store)
                      ->SetAttr(db->all_nodes[i % db->all_nodes.size()],
                                Attr::kTen, 1 + static_cast<int64_t>(i % 10))
                      .ok());
      ASSERT_TRUE((*store)->Commit().ok());
    }
    for (NodeRef node : db->all_nodes) {
      auto uid = (*store)->GetAttr(node, Attr::kUniqueId);
      auto ten = (*store)->GetAttr(node, Attr::kTen);
      ASSERT_TRUE(uid.ok() && ten.ok());
      committed.push_back({node, *uid, *ten});
    }

    objstore::ObjectStore* objects = (*store)->object_store();
    // Seal the tail first so the checkpoint's own roll adds no segment:
    // any change in the count below would be a prune.
    ASSERT_TRUE(objects->wal()->RollIfNonEmpty().ok());
    const uint64_t oldest = objects->wal()->OldestSeq();
    const uint64_t segments = objects->wal()->segment_count();
    ASSERT_GT(segments, 1u);
    ASSERT_TRUE(
        util::Failpoint::Enable("file/sync/error", "error,times=1").ok());
    util::Status failed = objects->FuzzyCheckpoint();
    util::Failpoint::DisableAll();
    EXPECT_EQ(failed.code(), util::StatusCode::kIoError) << failed.ToString();
    EXPECT_EQ(objects->wal()->OldestSeq(), oldest);
    EXPECT_EQ(objects->wal()->segment_count(), segments);

    ASSERT_TRUE(objects->FuzzyCheckpoint().ok());
    EXPECT_GT(objects->wal()->OldestSeq(), oldest);
  }
  auto reopened = OodbStore::Open(options, dir_);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  for (const Committed& c : committed) {
    auto found = (*reopened)->LookupUnique(c.uid);
    ASSERT_TRUE(found.ok()) << "uid " << c.uid << ": "
                            << found.status().ToString();
    EXPECT_EQ(*found, c.node);
    auto ten = (*reopened)->GetAttr(c.node, Attr::kTen);
    ASSERT_TRUE(ten.ok()) << ten.status().ToString();
    EXPECT_EQ(*ten, c.ten) << "uid " << c.uid;
  }
  ExpectFsckClean(reopened->get(), config);
}

// ---------- OODB: garbage collection (R10) ----------

TEST_F(BackendDirTest, OodbGarbageCollectionRemovesUnreachable) {
  auto store_or = OodbStore::Open({}, dir_);
  ASSERT_TRUE(store_or.ok());
  OodbStore* store = store_or->get();
  ASSERT_TRUE(store->Begin().ok());

  // A small tree plus two disconnected nodes.
  NodeRef root = *store->CreateNode(Attrs(1), kInvalidNode);
  NodeRef child = *store->CreateNode(Attrs(2, NodeKind::kText), root);
  ASSERT_TRUE(store->AddChild(root, child).ok());
  ASSERT_TRUE(store->SetText(child, "kept content").ok());
  NodeRef orphan1 = *store->CreateNode(Attrs(3, NodeKind::kText), kInvalidNode);
  ASSERT_TRUE(store->SetText(orphan1, "orphaned content").ok());
  NodeRef orphan2 = *store->CreateNode(Attrs(4), kInvalidNode);
  // orphan2 references the root — an incoming ref does NOT make
  // orphan2 reachable, but the edge makes root list orphan2 in
  // refs_from, keeping it alive. Use a ref from orphan1 to orphan2
  // instead (both unreachable from root).
  ASSERT_TRUE(store->AddRef(orphan1, orphan2, 1, 1).ok());

  auto collected = store->CollectGarbage({root});
  ASSERT_TRUE(collected.ok()) << collected.status().ToString();
  // orphan1, its content object, and orphan2 die: 3 objects.
  EXPECT_EQ(*collected, 3u);
  ASSERT_TRUE(store->Commit().ok());

  // Survivors are intact, indexes consistent.
  EXPECT_EQ(*store->GetText(child), "kept content");
  EXPECT_TRUE(store->LookupUnique(3).status().IsNotFound());
  EXPECT_TRUE(store->LookupUnique(4).status().IsNotFound());
  std::vector<NodeRef> all;
  ASSERT_TRUE(store->RangeHundred(1, 100, &all).ok());
  EXPECT_EQ(all.size(), 2u);  // root + child only
}

TEST_F(BackendDirTest, OodbGarbageCollectionKeepsEverythingReachable) {
  auto store_or = OodbStore::Open({}, dir_);
  ASSERT_TRUE(store_or.ok());
  OodbStore* store = store_or->get();
  GeneratorConfig config;
  config.levels = 3;
  Generator generator(config);
  auto db = generator.Build(store, nullptr);
  ASSERT_TRUE(db.ok());

  ASSERT_TRUE(store->Begin().ok());
  auto collected = store->CollectGarbage({db->root});
  ASSERT_TRUE(collected.ok());
  // Every node is reachable from the root via 1-N, and contents via
  // their nodes: nothing to collect.
  EXPECT_EQ(*collected, 0u);
  ASSERT_TRUE(store->Commit().ok());
}

// ---------- OODB: tiny cache forces eviction under load ----------

TEST_F(BackendDirTest, OodbWorksWithTinyCache) {
  OodbOptions options;
  options.cache_pages = 16;  // brutal eviction pressure
  auto store = OodbStore::Open(options, dir_);
  ASSERT_TRUE(store.ok());
  GeneratorConfig config;
  config.levels = 3;
  Generator generator(config);
  auto db = generator.Build(store->get(), nullptr);
  ASSERT_TRUE(db.ok()) << db.status().ToString();

  // Everything still reads back correctly through constant evictions.
  std::vector<NodeRef> closure;
  ASSERT_TRUE(ops::Closure1N(store->get(), db->root, &closure).ok());
  EXPECT_EQ(closure.size(), db->node_count());
  EXPECT_GT((*store)->object_store()->buffer_pool()->stats().evictions, 0u);
  for (NodeRef node : db->text_nodes) {
    auto text = (*store)->GetText(node);
    ASSERT_TRUE(text.ok());
    EXPECT_FALSE(text->empty());
  }
}

// ---------- OODB: corrupt node records ----------

// A node record in the oodb wire format (oodb_store.cc), with two
// entries in each of its five lists. `list_entry[i]` is the offset of
// list i's first entry.
struct RawNode {
  std::string bytes;
  size_t list_entry[5] = {};
  size_t entry_size[5] = {8, 8, 8, 24, 24};
};

RawNode EncodeRawNode(NodeKind kind) {
  RawNode raw;
  raw.bytes.push_back('N');
  raw.bytes.push_back(static_cast<char>(kind));
  for (uint64_t field : {7, 8, 9, 10, 11, 0, 0}) {
    util::PutFixed64(&raw.bytes, field);  // attrs, parent, content
  }
  for (size_t list = 0; list < 5; ++list) {
    util::PutFixed32(&raw.bytes, 2);
    raw.list_entry[list] = raw.bytes.size();
    for (size_t word = 0; word < 2 * raw.entry_size[list] / 8; ++word) {
      util::PutFixed64(&raw.bytes, 100 + word);
    }
  }
  return raw;
}

// Every read accessor's status code on `node`, by accessor name.
std::map<std::string, std::string> ReadStatuses(OodbStore* store,
                                                NodeRef node) {
  std::map<std::string, std::string> out;
  auto record = [&out](const std::string& name, const util::Status& s) {
    out[name] = std::string(util::StatusCodeName(s.code()));
  };
  std::vector<NodeRef> refs;
  std::vector<RefEdge> edges;
  record("Children", store->Children(node, &refs));
  record("Parts", store->Parts(node, &refs));
  record("PartOf", store->PartOf(node, &refs));
  record("RefsTo", store->RefsTo(node, &edges));
  record("RefsFrom", store->RefsFrom(node, &edges));
  record("Parent", store->Parent(node).status());
  record("GetKind", store->GetKind(node).status());
  const std::pair<Attr, const char*> kAttrs[] = {
      {Attr::kUniqueId, "uniqueId"}, {Attr::kTen, "ten"},
      {Attr::kHundred, "hundred"},   {Attr::kThousand, "thousand"},
      {Attr::kMillion, "million"}};
  for (const auto& [attr, name] : kAttrs) {
    record(std::string("GetAttr.") + name,
           store->GetAttr(node, attr).status());
  }
  record("GetText", store->GetText(node).status());
  record("GetForm", store->GetForm(node).status());
  record("GetContents", store->GetContents(node).status());
  return out;
}

// Pins what each read accessor returns on records that are not
// well-formed nodes. A change to the read path may keep each entry or
// tighten it from OK to Corruption, never loosen it.
TEST_F(BackendDirTest, OodbCorruptNodeRecordsPinnedStatuses) {
  auto store_or = OodbStore::Open({}, dir_);
  ASSERT_TRUE(store_or.ok());
  OodbStore* store = store_or->get();
  objstore::ObjectStore* objects = store->object_store();

  struct Case {
    std::string name;
    std::string bytes;
    // Accessors whose status is not Corruption, with their status.
    std::map<std::string, std::string> not_corruption;
  };
  const RawNode raw = EncodeRawNode(NodeKind::kText);
  std::vector<Case> cases;
  // Control: the intact record reads back, so the encoding above is
  // the one the backend parses.
  cases.push_back({"intact", raw.bytes,
                   {{"Children", "OK"}, {"Parts", "OK"}, {"PartOf", "OK"},
                    {"RefsTo", "OK"}, {"RefsFrom", "OK"}, {"Parent", "OK"},
                    {"GetKind", "OK"}, {"GetAttr.uniqueId", "OK"},
                    {"GetAttr.ten", "OK"}, {"GetAttr.hundred", "OK"},
                    {"GetAttr.thousand", "OK"}, {"GetAttr.million", "OK"},
                    {"GetText", "OK"}, {"GetForm", "InvalidArgument"},
                    {"GetContents", "OK"}}});
  const char* kLists[5] = {"children", "parts", "partOf", "refsTo",
                           "refsFrom"};
  for (size_t list = 0; list < 5; ++list) {
    // Cut inside the list's second entry. Every accessor validates the
    // whole record, so GetKind and GetAttr refuse it too.
    cases.push_back(
        {std::string("truncated_in_") + kLists[list],
         raw.bytes.substr(0, raw.list_entry[list] + raw.entry_size[list] + 3),
         {}});
  }
  cases.push_back({"short_header", raw.bytes.substr(0, 30), {}});
  std::string wrong_tag = raw.bytes;
  wrong_tag[0] = 'X';
  cases.push_back({"wrong_tag", wrong_tag, {}});
  cases.push_back({"content_object", "Csome text", {}});

  auto txn = objects->Begin();
  ASSERT_TRUE(txn.ok());
  std::vector<objstore::Oid> oids;
  for (const Case& c : cases) {
    auto oid = objects->Create(&*txn, c.bytes);
    ASSERT_TRUE(oid.ok()) << oid.status().ToString();
    oids.push_back(*oid);
  }
  ASSERT_TRUE(objects->Commit(&*txn).ok());

  for (size_t i = 0; i < cases.size(); ++i) {
    SCOPED_TRACE(cases[i].name);
    const std::map<std::string, std::string> actual =
        ReadStatuses(store, oids[i]);
    std::map<std::string, std::string> expected;
    for (const auto& [accessor, code] : actual) {
      auto it = cases[i].not_corruption.find(accessor);
      expected[accessor] =
          it == cases[i].not_corruption.end() ? "Corruption" : it->second;
    }
    EXPECT_EQ(actual, expected);
  }
  // The intact control's lists come back whole.
  std::vector<RefEdge> edges;
  ASSERT_TRUE(store->RefsFrom(oids[0], &edges).ok());
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_EQ(edges[1].node, 103u);
  EXPECT_EQ(edges[1].offset_from, 104);
  EXPECT_EQ(edges[1].offset_to, 105);
}

// ---------- OODB: object reads per call ----------

// perfbench's objstore.objects_read_per_node divides this counter by
// the nodes an operation returns, so each accessor's count is pinned.
TEST_F(BackendDirTest, OodbCountsOneObjectReadPerRecordVisited) {
  auto store_or = OodbStore::Open({}, dir_);
  ASSERT_TRUE(store_or.ok());
  OodbStore* store = store_or->get();
  GeneratorConfig config;
  config.levels = 3;
  Generator generator(config);
  auto db = generator.Build(store, nullptr);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  objstore::ObjectStore* objects = store->object_store();
  auto reads_during = [objects](const auto& op) {
    const uint64_t before = objects->stats().objects_read;
    op();
    return objects->stats().objects_read - before;
  };

  std::vector<NodeRef> children;
  EXPECT_EQ(reads_during([&] {
              ASSERT_TRUE(store->Children(db->root, &children).ok());
            }),
            1u);
  EXPECT_EQ(reads_during([&] {
              ASSERT_TRUE(store->GetAttr(db->root, Attr::kHundred).ok());
            }),
            1u);
  // The node, then its content object.
  EXPECT_EQ(reads_during([&] {
              ASSERT_TRUE(store->GetText(db->text_nodes[0]).ok());
            }),
            2u);
  std::vector<NodeRef> closure;
  EXPECT_EQ(reads_during([&] {
              ASSERT_TRUE(ops::Closure1N(store, db->root, &closure).ok());
            }),
            db->node_count());
  EXPECT_EQ(closure.size(), db->node_count());
  // Each node's children and hundred in one read.
  EXPECT_EQ(reads_during([&] {
              ASSERT_TRUE(ops::Closure1NAttSum(store, db->root, nullptr).ok());
            }),
            db->node_count());
  // Pruned at the first level-1 subtree: each visited node's million
  // and children in one read.
  ASSERT_TRUE(store->Children(db->root, &children).ok());
  auto band = store->GetAttr(children[0], Attr::kMillion);
  ASSERT_TRUE(band.ok()) << band.status().ToString();
  std::vector<NodeRef> kept;
  EXPECT_EQ(reads_during([&] {
              ASSERT_TRUE(
                  ops::Closure1NPred(store, db->root, *band, &kept).ok());
            }),
            126u);
  EXPECT_EQ(kept.size(), 124u);
  // Each node's children and hundred in one read, then one more to
  // rewrite it: the read inside its ObjectStore::Modify.
  ASSERT_TRUE(store->Begin().ok());
  EXPECT_EQ(reads_during([&] {
              ASSERT_TRUE(ops::Closure1NAttSet(store, db->root).ok());
            }),
            2 * db->node_count());
  // An attribute write reads its record once.
  EXPECT_EQ(reads_during([&] {
              ASSERT_TRUE(store->SetAttr(db->root, Attr::kTen, 5).ok());
            }),
            1u);
  ASSERT_TRUE(store->Commit().ok());
}

// ---------- OODB: native set-at-a-time reads ----------

/// The five FrontierFetch reads of `batch` through `fetch`, each
/// result (or its status code) in one comparable string.
std::vector<std::string> FetchAll(FrontierFetch* fetch,
                                  const std::vector<NodeRef>& batch) {
  std::vector<std::string> results;
  auto code = [](const util::Status& status) {
    return std::string(util::StatusCodeName(status.code()));
  };
  auto lists = [](const RefLists& lists) {
    std::ostringstream out;
    for (size_t i = 0; i < lists.size(); ++i) {
      out << "[";
      for (NodeRef ref : lists[i]) out << ref << " ";
      out << "]";
    }
    return out.str();
  };
  auto values = [](const std::vector<int64_t>& values) {
    std::ostringstream out;
    for (int64_t value : values) out << value << " ";
    return out.str();
  };
  RefLists refs;
  util::Status status = fetch->ChildrenMulti(batch, &refs);
  results.push_back("children " + (status.ok() ? lists(refs) : code(status)));
  status = fetch->PartsMulti(batch, &refs);
  results.push_back("parts " + (status.ok() ? lists(refs) : code(status)));
  EdgeLists edges;
  status = fetch->RefsToMulti(batch, &edges);
  std::ostringstream edge_text;
  for (size_t i = 0; status.ok() && i < edges.size(); ++i) {
    edge_text << "[";
    for (const RefEdge& edge : edges[i]) {
      edge_text << "(" << edge.node << "," << edge.offset_from << ","
                << edge.offset_to << ")";
    }
    edge_text << "]";
  }
  results.push_back("refsTo " + (status.ok() ? edge_text.str() : code(status)));
  for (Attr attr : {Attr::kUniqueId, Attr::kTen, Attr::kHundred,
                    Attr::kThousand, Attr::kMillion}) {
    std::vector<int64_t> column;
    status = fetch->ChildrenAttrsMulti(batch, attr, &refs, &column);
    results.push_back("childrenAttrs " +
                      (status.ok() ? lists(refs) + values(column)
                                   : code(status)));
    status = fetch->GetAttrsMulti(batch, attr, &column);
    results.push_back("attrs " + (status.ok() ? values(column) : code(status)));
  }
  return results;
}

// oodb answers the five reads itself, one ViewMany per call, which
// visits records in page order. Output i must still be node i's, equal
// to the per-item loop's, for every node, on either placement (random
// placement puts a tier's records on pages out of input order), for a
// batch with repeats and for a ref that is not a node.
TEST_F(BackendDirTest, OodbNativeReadsEqualThePerItemLoop) {
  for (objstore::PlacementPolicy placement :
       {objstore::PlacementPolicy::kClustered,
        objstore::PlacementPolicy::kRandom}) {
    SCOPED_TRACE(static_cast<int>(placement));
    OodbOptions options;
    options.placement = placement;
    auto store_or = OodbStore::Open(
        options, dir_ + "/" + std::to_string(static_cast<int>(placement)));
    ASSERT_TRUE(store_or.ok());
    OodbStore* store = store_or->get();
    GeneratorConfig config;
    config.levels = 4;
    auto db = Generator(config).Build(store, nullptr);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    StoreFetch per_item(store);

    std::vector<std::vector<NodeRef>> batches;
    batches.push_back(db->all_nodes);
    batches.emplace_back(db->all_nodes.rbegin(), db->all_nodes.rend());
    std::vector<NodeRef> repeats = db->all_nodes;
    repeats.insert(repeats.end(), db->level(2).begin(), db->level(2).end());
    repeats.push_back(db->root);
    std::shuffle(repeats.begin(), repeats.end(), std::mt19937(7));
    batches.push_back(repeats);
    for (size_t l = 0; l < db->nodes_by_level.size(); ++l) {
      batches.push_back(db->level(l));
    }
    for (size_t b = 0; b < batches.size(); ++b) {
      SCOPED_TRACE("batch " + std::to_string(b));
      const std::vector<std::string> native = FetchAll(store, batches[b]);
      EXPECT_EQ(native, FetchAll(&per_item, batches[b]));
      for (const std::string& result : native) {
        EXPECT_EQ(result.find("children NotFound"), std::string::npos);
      }
    }

    // Not a node: the invalid ref, one past the last object, and each
    // content object (a text, or a form's overflow chain).
    const std::set<NodeRef> nodes(db->all_nodes.begin(),
                                  db->all_nodes.end());
    std::vector<NodeRef> strays = {kInvalidNode,
                                   store->object_store()->next_oid()};
    for (NodeRef oid = 1; oid < store->object_store()->next_oid(); ++oid) {
      if (nodes.count(oid) == 0) strays.push_back(oid);
    }
    ASSERT_GT(strays.size(), 2u);
    for (NodeRef stray : strays) {
      SCOPED_TRACE("stray " + std::to_string(stray));
      const std::vector<NodeRef> batch = {db->root, stray, db->level(1)[0]};
      const std::vector<std::string> native = FetchAll(store, batch);
      EXPECT_EQ(native, FetchAll(&per_item, batch));
      const std::string expected =
          stray == kInvalidNode || stray >= store->object_store()->next_oid()
              ? "children NotFound"
              : "children Corruption";
      EXPECT_EQ(native[0], expected);
    }
    store_or->reset();
  }
}

// ---------- OODB: WAL traffic per transaction ----------

// perfbench's storage.wal.appends_per_commit and syncs_per_commit
// divide these counters by the commits of a run, so the records and
// log syncs of each transaction shape are pinned at every group-commit
// window: the window changes only how long a solo leader waits.
TEST_F(BackendDirTest, OodbWalTrafficPerTransactionIsPinned) {
  struct Traffic {
    uint64_t records;
    uint64_t syncs;
  };
  for (uint32_t window_us : {0u, 100u}) {
    SCOPED_TRACE("group_commit_us=" + std::to_string(window_us));
    std::filesystem::remove_all(dir_);
    OodbOptions options;
    options.group_commit_us = window_us;
    auto store_or = OodbStore::Open(options, dir_);
    ASSERT_TRUE(store_or.ok()) << store_or.status().ToString();
    OodbStore* store = store_or->get();
    ASSERT_TRUE(store->Begin().ok());
    auto node = store->CreateNode(Attrs(1), kInvalidNode);
    ASSERT_TRUE(node.ok());
    ASSERT_TRUE(store->Commit().ok());

    storage::SegmentedWal* wal = store->object_store()->wal();
    auto traffic = [wal](const auto& txn) {
      const uint64_t records = wal->records_appended();
      const uint64_t syncs = wal->syncs();
      txn();
      return Traffic{wal->records_appended() - records, wal->syncs() - syncs};
    };
    const Traffic read_only = traffic([&] {
      ASSERT_TRUE(store->Begin().ok());
      ASSERT_TRUE(store->GetAttr(*node, Attr::kHundred).ok());
      ASSERT_TRUE(store->LookupUnique(1).ok());
      ASSERT_TRUE(store->Commit().ok());
    });
    EXPECT_EQ(read_only.records, 0u);
    EXPECT_EQ(read_only.syncs, 0u);

    const Traffic edit = traffic([&] {
      ASSERT_TRUE(store->Begin().ok());
      ASSERT_TRUE(store->SetAttr(*node, Attr::kHundred, 7).ok());
      ASSERT_TRUE(store->Commit().ok());
    });
    EXPECT_EQ(edit.records, 2u);
    EXPECT_EQ(edit.syncs, 1u);

    const Traffic aborted = traffic([&] {
      ASSERT_TRUE(store->Begin().ok());
      ASSERT_TRUE(store->SetAttr(*node, Attr::kHundred, 9).ok());
      ASSERT_TRUE(store->Abort().ok());
    });
    EXPECT_EQ(aborted.records, 2u);
    EXPECT_EQ(aborted.syncs, 0u);
    store_or->reset();
  }
}

// ---------- OODB: placement policies all function ----------

class PlacementTest
    : public ::testing::TestWithParam<objstore::PlacementPolicy> {};

TEST_P(PlacementTest, GeneratedDatabaseIsCorrectUnderAnyPlacement) {
  test::TestDir tmp("hm_placement");
  const std::string dir = tmp.path() + "/db";
  OodbOptions options;
  options.placement = GetParam();
  auto store = OodbStore::Open(options, dir);
  ASSERT_TRUE(store.ok());
  GeneratorConfig config;
  config.levels = 3;
  Generator generator(config);
  auto db = generator.Build(store->get(), nullptr);
  ASSERT_TRUE(db.ok());
  // Logical content must be identical regardless of physical layout.
  std::vector<NodeRef> closure;
  ASSERT_TRUE(ops::Closure1N(store->get(), db->root, &closure).ok());
  EXPECT_EQ(closure.size(), 156u);
  uint64_t visited = 0;
  auto sum = ops::Closure1NAttSum(store->get(), db->root, &visited);
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ(visited, 156u);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, PlacementTest,
    ::testing::Values(objstore::PlacementPolicy::kClustered,
                      objstore::PlacementPolicy::kSequential,
                      objstore::PlacementPolicy::kRandom),
    [](const ::testing::TestParamInfo<objstore::PlacementPolicy>& info) {
      switch (info.param) {
        case objstore::PlacementPolicy::kClustered:
          return "clustered";
        case objstore::PlacementPolicy::kSequential:
          return "sequential";
        case objstore::PlacementPolicy::kRandom:
          return "random";
      }
      return "unknown";
    });

// ---------- REL: FORCE commit durability ----------

TEST_F(BackendDirTest, RelCommittedDataSurvivesProcessDrop) {
  NodeRef node = kInvalidNode;
  {
    auto store = RelStore::Open({}, dir_);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Begin().ok());
    node = *(*store)->CreateNode(Attrs(9, NodeKind::kText), kInvalidNode);
    ASSERT_TRUE((*store)->SetText(node, "forced to disk").ok());
    ASSERT_TRUE((*store)->Commit().ok());
    // Simulate process death right after commit (FORCE means the
    // commit already flushed everything).
    std::filesystem::copy(dir_, dir_ + "_crash",
                          std::filesystem::copy_options::recursive);
  }
  auto reopened = RelStore::Open({}, dir_ + "_crash");
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(*(*reopened)->GetText(node), "forced to disk");
  EXPECT_EQ(*(*reopened)->LookupUnique(9), node);
  std::filesystem::remove_all(dir_ + "_crash");
}

TEST_F(BackendDirTest, RelReopenPreservesFullDatabase) {
  GeneratorConfig config;
  config.levels = 3;
  TestDatabase db;
  {
    auto store = RelStore::Open({}, dir_);
    ASSERT_TRUE(store.ok());
    Generator generator(config);
    auto built = generator.Build(store->get(), nullptr);
    ASSERT_TRUE(built.ok());
    db = *built;
  }
  auto reopened = RelStore::Open({}, dir_);
  ASSERT_TRUE(reopened.ok());
  std::vector<NodeRef> closure;
  ASSERT_TRUE(ops::Closure1N(reopened->get(), db.root, &closure).ok());
  EXPECT_EQ(closure.size(), db.node_count());
  for (size_t i = 0; i < db.form_nodes.size(); ++i) {
    auto form = (*reopened)->GetForm(db.form_nodes[i]);
    ASSERT_TRUE(form.ok());
    EXPECT_GE(form->width(), 100u);
  }
}

TEST_F(BackendDirTest, RelWorksWithTinyCache) {
  RelOptions options;
  options.cache_pages = 16;
  auto store = RelStore::Open(options, dir_);
  ASSERT_TRUE(store.ok());
  GeneratorConfig config;
  config.levels = 3;
  Generator generator(config);
  auto db = generator.Build(store->get(), nullptr);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  std::vector<NodeRef> closure;
  ASSERT_TRUE(ops::Closure1N(store->get(), db->root, &closure).ok());
  EXPECT_EQ(closure.size(), db->node_count());
}

// The store is single-writer, so each committer runs its mutation and
// CommitBegin under one lock and waits for durability outside it —
// the overlap the group-commit coordinator batches. Every window takes
// the same path; 0 only stops a solo leader from lingering.
TEST_F(BackendDirTest, RelConcurrentCommittersAllDurable) {
  constexpr int kThreads = 4;
  constexpr int kCommitsPerThread = 20;
  for (uint32_t window_us : {0u, 100u}) {
    SCOPED_TRACE("group_commit_us=" + std::to_string(window_us));
    const std::string dir = dir_ + "/w" + std::to_string(window_us);
    RelOptions options;
    options.group_commit_us = window_us;
    {
      auto store = RelStore::Open(options, dir);
      ASSERT_TRUE(store.ok()) << store.status().ToString();
      RelStore* rel = store->get();
      std::mutex writer;
      std::vector<std::thread> committers;
      for (int t = 0; t < kThreads; ++t) {
        committers.emplace_back([&, t] {
          for (int i = 0; i < kCommitsPerThread; ++i) {
            util::Result<uint64_t> ticket = uint64_t{0};
            {
              std::lock_guard<std::mutex> lock(writer);
              ASSERT_TRUE(rel->Begin().ok());
              ASSERT_TRUE(rel->CreateNode(Attrs(1 + t * kCommitsPerThread + i),
                                          kInvalidNode)
                              .ok());
              ticket = rel->CommitBegin();
              ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
            }
            ASSERT_TRUE(rel->CommitWait(*ticket).ok());
          }
        });
      }
      for (auto& c : committers) c.join();
      // Simulate process death: the copy holds only what the commits
      // themselves wrote, not the destructor's final flush.
      std::filesystem::copy(dir, dir + "_crash",
                            std::filesystem::copy_options::recursive);
    }
    auto reopened = RelStore::Open(options, dir + "_crash");
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    for (int uid = 1; uid <= kThreads * kCommitsPerThread; ++uid) {
      EXPECT_TRUE((*reopened)->LookupUnique(uid).ok()) << "uid " << uid;
    }
  }
}

// ---------- NET: network-model specifics ----------

TEST_F(BackendDirTest, NetReopenRebuildsCalcKeyMap) {
  GeneratorConfig config;
  config.levels = 3;
  TestDatabase db;
  {
    auto store = NetStore::Open({}, dir_);
    ASSERT_TRUE(store.ok());
    Generator generator(config);
    auto built = generator.Build(store->get(), nullptr);
    ASSERT_TRUE(built.ok());
    db = *built;
    ASSERT_TRUE((*store)->Commit().ok());
  }
  // Reopen: the uid map is rebuilt by scanning the record file.
  auto reopened = NetStore::Open({}, dir_);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  for (int64_t uid : {1, 57, 156}) {
    auto node = (*reopened)->LookupUnique(uid);
    ASSERT_TRUE(node.ok()) << uid;
    EXPECT_EQ(*(*reopened)->GetAttr(*node, Attr::kUniqueId), uid);
  }
  std::vector<NodeRef> closure;
  ASSERT_TRUE(ops::Closure1N(reopened->get(), db.root, &closure).ok());
  EXPECT_EQ(closure.size(), db.node_count());
  // Text blobs survive too.
  for (NodeRef node : db.text_nodes) {
    auto text = (*reopened)->GetText(node);
    ASSERT_TRUE(text.ok());
    EXPECT_FALSE(text->empty());
  }
}

TEST_F(BackendDirTest, NetDirectAddressingSpansManyRecordPages) {
  auto store = NetStore::Open({}, dir_);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Begin().ok());
  // 60 fixed records per page: 500 nodes span ~9 pages.
  std::vector<NodeRef> refs;
  for (int64_t uid = 1; uid <= 500; ++uid) {
    refs.push_back(*(*store)->CreateNode(Attrs(uid), kInvalidNode));
  }
  ASSERT_TRUE((*store)->Commit().ok());
  for (int64_t uid = 1; uid <= 500; uid += 37) {
    NodeRef node = refs[static_cast<size_t>(uid - 1)];
    EXPECT_EQ(*(*store)->GetAttr(node, Attr::kUniqueId), uid);
  }
}

TEST_F(BackendDirTest, NetRingsHandleManyLinksPerNode) {
  auto store_or = NetStore::Open({}, dir_);
  ASSERT_TRUE(store_or.ok());
  NetStore* store = store_or->get();
  ASSERT_TRUE(store->Begin().ok());
  NodeRef hub = *store->CreateNode(Attrs(1), kInvalidNode);
  std::vector<NodeRef> spokes;
  for (int64_t uid = 2; uid <= 201; ++uid) {
    spokes.push_back(*store->CreateNode(Attrs(uid), kInvalidNode));
  }
  // 200 parts on one owner and 200 incoming refs on one member.
  for (NodeRef spoke : spokes) {
    ASSERT_TRUE(store->AddPart(hub, spoke).ok());
    ASSERT_TRUE(store->AddRef(spoke, hub, 1, 2).ok());
  }
  ASSERT_TRUE(store->Commit().ok());
  std::vector<NodeRef> parts;
  ASSERT_TRUE(store->Parts(hub, &parts).ok());
  EXPECT_EQ(parts.size(), 200u);
  std::vector<RefEdge> incoming;
  ASSERT_TRUE(store->RefsFrom(hub, &incoming).ok());
  EXPECT_EQ(incoming.size(), 200u);
  // Each spoke sees exactly one owner and one outgoing ref.
  std::vector<NodeRef> owners;
  ASSERT_TRUE(store->PartOf(spokes[77], &owners).ok());
  EXPECT_EQ(owners, std::vector<NodeRef>{hub});
}

TEST_F(BackendDirTest, NetWorksWithTinyCache) {
  NetOptions options;
  options.cache_pages = 8;
  auto store = NetStore::Open(options, dir_);
  ASSERT_TRUE(store.ok());
  GeneratorConfig config;
  config.levels = 3;
  Generator generator(config);
  auto db = generator.Build(store->get(), nullptr);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  std::vector<NodeRef> closure;
  ASSERT_TRUE(ops::Closure1N(store->get(), db->root, &closure).ok());
  EXPECT_EQ(closure.size(), db->node_count());
  EXPECT_GT((*store)->buffer_pool()->stats().evictions, 0u);
}

// Contents live in an overflow chain. A chain whose page points back at
// itself reads as Corruption instead of growing the result without end.
TEST_F(BackendDirTest, NetContentsChainThatLoopsIsCorruption) {
  auto store = NetStore::Open({}, dir_);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ASSERT_TRUE((*store)->Begin().ok());
  auto text = (*store)->CreateNode(Attrs(1, NodeKind::kText), kInvalidNode);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  ASSERT_TRUE((*store)->SetText(*text, "a one-page chain").ok());
  ASSERT_TRUE((*store)->Commit().ok());
  ASSERT_EQ(*(*store)->GetText(*text), "a one-page chain");

  storage::BufferPool* pool = (*store)->buffer_pool();
  int patched = 0;
  for (storage::PageId id = 0; id < pool->page_count(); ++id) {
    auto guard = pool->Fetch(id);
    ASSERT_TRUE(guard.ok()) << guard.status().ToString();
    if (guard->page()->type() != storage::PageType::kOverflow) continue;
    util::EncodeFixed32(guard->page()->payload(), id);  // next: itself
    guard->MarkDirty();
    ++patched;
  }
  ASSERT_EQ(patched, 1);
  auto looped = (*store)->GetText(*text);
  EXPECT_EQ(looped.status().code(), util::StatusCode::kCorruption)
      << looped.status().ToString();
}

}  // namespace
}  // namespace hm::backends
