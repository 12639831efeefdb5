// Tests for the extension modules: versioning (R5), access control
// (R11), schema evolution (R4), optimistic multi-user concurrency
// (R8/R9) and ad-hoc queries (R12).

#include <gtest/gtest.h>

#include <filesystem>
#include <thread>

#include "hypermodel/backends/mem_store.h"
#include "hypermodel/backends/oodb_store.h"
#include "hypermodel/backends/rel_store.h"
#include "hypermodel/ext/access_control.h"
#include "hypermodel/ext/occ.h"
#include "hypermodel/ext/query.h"
#include "hypermodel/ext/schema_evolution.h"
#include "hypermodel/ext/version.h"
#include "hypermodel/generator.h"
#include "test_dir.h"

namespace hm::ext {
namespace {

NodeAttrs MakeAttrs(int64_t uid, NodeKind kind = NodeKind::kInternal) {
  NodeAttrs attrs;
  attrs.unique_id = uid;
  attrs.ten = 5;
  attrs.hundred = 50;
  attrs.thousand = 500;
  attrs.million = 500000;
  attrs.kind = kind;
  return attrs;
}

// ---------- VersionManager (R5) ----------

class VersionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(store_.Begin().ok());
    node_ = *store_.CreateNode(MakeAttrs(1, NodeKind::kText), kInvalidNode);
    ASSERT_TRUE(store_.SetText(node_, "draft one").ok());
  }
  backends::MemStore store_;
  NodeRef node_;
};

TEST_F(VersionTest, CreateAndGetVersions) {
  VersionManager versions(&store_);
  EXPECT_EQ(versions.VersionCount(node_), 0u);

  auto v1 = versions.CreateVersion(node_, 100);
  ASSERT_TRUE(v1.ok());
  EXPECT_EQ(*v1, 1u);

  ASSERT_TRUE(store_.SetText(node_, "draft two").ok());
  ASSERT_TRUE(store_.SetAttr(node_, Attr::kHundred, 77).ok());
  auto v2 = versions.CreateVersion(node_, 200);
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(*v2, 2u);
  EXPECT_EQ(versions.VersionCount(node_), 2u);

  auto first = versions.GetVersion(node_, 1);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->contents, "draft one");
  EXPECT_EQ(first->hundred, 50);

  auto prev = versions.GetPrevious(node_);
  ASSERT_TRUE(prev.ok());
  EXPECT_EQ(prev->contents, "draft two");
  EXPECT_EQ(prev->hundred, 77);
}

TEST_F(VersionTest, GetAtTimePicksLatestBefore) {
  VersionManager versions(&store_);
  ASSERT_TRUE(versions.CreateVersion(node_, 100).ok());
  ASSERT_TRUE(store_.SetText(node_, "later").ok());
  ASSERT_TRUE(versions.CreateVersion(node_, 300).ok());

  auto at150 = versions.GetAtTime(node_, 150);
  ASSERT_TRUE(at150.ok());
  EXPECT_EQ(at150->contents, "draft one");
  auto at300 = versions.GetAtTime(node_, 300);
  ASSERT_TRUE(at300.ok());
  EXPECT_EQ(at300->contents, "later");
  EXPECT_TRUE(versions.GetAtTime(node_, 50).status().IsNotFound());
}

TEST_F(VersionTest, RestoreWritesVersionBack) {
  VersionManager versions(&store_);
  ASSERT_TRUE(versions.CreateVersion(node_, 100).ok());
  ASSERT_TRUE(store_.SetText(node_, "mangled").ok());
  ASSERT_TRUE(store_.SetAttr(node_, Attr::kMillion, 1).ok());

  ASSERT_TRUE(versions.Restore(node_, 1).ok());
  EXPECT_EQ(*store_.GetText(node_), "draft one");
  EXPECT_EQ(*store_.GetAttr(node_, Attr::kMillion), 500000);
}

TEST_F(VersionTest, TimestampsMustNotGoBackwards) {
  VersionManager versions(&store_);
  ASSERT_TRUE(versions.CreateVersion(node_, 100).ok());
  EXPECT_FALSE(versions.CreateVersion(node_, 50).ok());
}

TEST_F(VersionTest, StructureSnapshot) {
  // A small structure: root with two text children, versioned at
  // different times.
  NodeRef root = *store_.CreateNode(MakeAttrs(10), kInvalidNode);
  NodeRef a = *store_.CreateNode(MakeAttrs(11, NodeKind::kText), root);
  NodeRef b = *store_.CreateNode(MakeAttrs(12, NodeKind::kText), root);
  ASSERT_TRUE(store_.AddChild(root, a).ok());
  ASSERT_TRUE(store_.AddChild(root, b).ok());
  ASSERT_TRUE(store_.SetText(a, "a v1").ok());
  ASSERT_TRUE(store_.SetText(b, "b v1").ok());

  VersionManager versions(&store_);
  ASSERT_TRUE(versions.CreateVersion(a, 100).ok());
  ASSERT_TRUE(versions.CreateVersion(b, 100).ok());
  ASSERT_TRUE(store_.SetText(a, "a v2").ok());
  ASSERT_TRUE(versions.CreateVersion(a, 200).ok());

  std::vector<std::pair<NodeRef, NodeVersion>> snapshot;
  ASSERT_TRUE(versions.SnapshotStructure(root, 150, &snapshot).ok());
  // root was never versioned; a and b as of t=150 are their v1 states.
  ASSERT_EQ(snapshot.size(), 2u);
  for (const auto& [node, version] : snapshot) {
    if (node == a) {
      EXPECT_EQ(version.contents, "a v1");
    }
    if (node == b) {
      EXPECT_EQ(version.contents, "b v1");
    }
  }
}

// ---------- AccessControl (R11) ----------

class AccessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(store_.Begin().ok());
    // Two document structures, as in the paper's R11 example.
    doc1_ = *store_.CreateNode(MakeAttrs(1), kInvalidNode);
    doc1_child_ = *store_.CreateNode(MakeAttrs(2, NodeKind::kText), doc1_);
    ASSERT_TRUE(store_.AddChild(doc1_, doc1_child_).ok());
    doc2_ = *store_.CreateNode(MakeAttrs(3), kInvalidNode);
    doc2_child_ = *store_.CreateNode(MakeAttrs(4, NodeKind::kText), doc2_);
    ASSERT_TRUE(store_.AddChild(doc2_, doc2_child_).ok());
    // A link across the two structures must remain possible.
    ASSERT_TRUE(store_.AddRef(doc1_child_, doc2_child_, 0, 0).ok());
  }
  backends::MemStore store_;
  NodeRef doc1_, doc1_child_, doc2_, doc2_child_;
};

TEST_F(AccessTest, PaperExamplePublicReadVsPublicWrite) {
  AccessControl acl(&store_, AccessMode::kNone);
  // "public read-access for one document-structure, public
  // write-access for another" (R11).
  ASSERT_TRUE(acl.SetPublicAccess(doc1_, AccessMode::kRead).ok());
  ASSERT_TRUE(acl.SetPublicAccess(doc2_, AccessMode::kWrite).ok());

  const UserId user = 42;
  EXPECT_TRUE(acl.CheckRead(doc1_child_, user).ok());   // inherited
  EXPECT_TRUE(acl.CheckWrite(doc1_child_, user).IsPermissionDenied());
  EXPECT_TRUE(acl.CheckRead(doc2_child_, user).ok());
  EXPECT_TRUE(acl.CheckWrite(doc2_child_, user).ok());

  // The cross-structure link exists and each endpoint answers to its
  // own structure's policy.
  std::vector<RefEdge> edges;
  ASSERT_TRUE(store_.RefsTo(doc1_child_, &edges).ok());
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_TRUE(acl.CheckWrite(edges[0].node, user).ok());  // doc2 side
}

TEST_F(AccessTest, UserOverridesBeatPublicMode) {
  AccessControl acl(&store_, AccessMode::kNone);
  ASSERT_TRUE(acl.SetPublicAccess(doc1_, AccessMode::kRead).ok());
  ASSERT_TRUE(acl.SetUserAccess(doc1_, 7, AccessMode::kWrite).ok());
  ASSERT_TRUE(acl.SetUserAccess(doc1_, 8, AccessMode::kNone).ok());

  EXPECT_TRUE(acl.CheckWrite(doc1_child_, 7).ok());
  EXPECT_TRUE(acl.CheckRead(doc1_child_, 8).IsPermissionDenied());
  EXPECT_TRUE(acl.CheckRead(doc1_child_, 9).ok());  // public read
}

TEST_F(AccessTest, NearestAncestorWins) {
  AccessControl acl(&store_, AccessMode::kNone);
  ASSERT_TRUE(acl.SetPublicAccess(doc1_, AccessMode::kWrite).ok());
  ASSERT_TRUE(acl.SetPublicAccess(doc1_child_, AccessMode::kRead).ok());
  EXPECT_TRUE(acl.CheckWrite(doc1_child_, 1).IsPermissionDenied());
  acl.ClearAccess(doc1_child_);
  EXPECT_TRUE(acl.CheckWrite(doc1_child_, 1).ok());  // inherits again
}

TEST_F(AccessTest, GuardedAccessorsEnforce) {
  AccessControl acl(&store_, AccessMode::kNone);
  ASSERT_TRUE(acl.SetPublicAccess(doc1_, AccessMode::kRead).ok());
  auto value = acl.ReadAttr(doc1_child_, 1, Attr::kHundred);
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, 50);
  EXPECT_TRUE(
      acl.WriteAttr(doc1_child_, 1, Attr::kHundred, 60).IsPermissionDenied());
  EXPECT_EQ(*store_.GetAttr(doc1_child_, Attr::kHundred), 50);
}

TEST_F(AccessTest, DefaultModeApplies) {
  AccessControl open_acl(&store_, AccessMode::kWrite);
  EXPECT_TRUE(open_acl.CheckWrite(doc1_child_, 1).ok());
  AccessControl closed_acl(&store_, AccessMode::kNone);
  EXPECT_TRUE(closed_acl.CheckRead(doc1_child_, 1).IsPermissionDenied());
}

// ---------- SchemaEvolution (R4) ----------

TEST(DrawContentsTest, SerializeRoundTrip) {
  DrawContents contents;
  contents.Add({Shape::Kind::kCircle, 10, 20, 5, 0});
  contents.Add({Shape::Kind::kRectangle, 0, 0, 100, 50});
  contents.Add({Shape::Kind::kEllipse, -5, -5, 30, 20});
  auto back = DrawContents::Deserialize(contents.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, contents);
}

TEST(DrawContentsTest, RejectsCorruptInput) {
  EXPECT_FALSE(DrawContents::Deserialize("xy").ok());
  DrawContents contents;
  contents.Add({Shape::Kind::kCircle, 1, 2, 3, 0});
  std::string bytes = contents.Serialize();
  EXPECT_FALSE(
      DrawContents::Deserialize(bytes.substr(0, bytes.size() - 1)).ok());
  bytes[4] = 9;  // invalid shape kind
  EXPECT_FALSE(DrawContents::Deserialize(bytes).ok());
}

TEST(SchemaEvolutionTest, AddDrawNodeTypeAndUse) {
  backends::MemStore store;
  ASSERT_TRUE(store.Begin().ok());
  SchemaEvolution schema(&store);
  EXPECT_FALSE(schema.HasNodeType("DrawNode"));
  // Using the type before registration fails (R4 is explicit).
  DrawContents drawing;
  drawing.Add({Shape::Kind::kCircle, 50, 50, 25, 0});
  EXPECT_FALSE(
      schema.CreateDrawNode(MakeAttrs(1), drawing, kInvalidNode).ok());

  auto kind = schema.AddNodeType("DrawNode");
  ASSERT_TRUE(kind.ok());
  EXPECT_EQ(*kind, NodeKind::kDraw);
  EXPECT_TRUE(schema.HasNodeType("DrawNode"));
  EXPECT_FALSE(schema.AddNodeType("DrawNode").ok());  // duplicate

  auto node = schema.CreateDrawNode(MakeAttrs(1), drawing, kInvalidNode);
  ASSERT_TRUE(node.ok());
  EXPECT_EQ(*store.GetKind(*node), NodeKind::kDraw);
  auto back = schema.GetDrawContents(*node);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, drawing);
}

TEST(SchemaEvolutionTest, DynamicAttributesWithDefaults) {
  backends::MemStore store;
  ASSERT_TRUE(store.Begin().ok());
  NodeRef node = *store.CreateNode(MakeAttrs(1), kInvalidNode);
  SchemaEvolution schema(&store);
  ASSERT_TRUE(schema.AddAttribute("priority", 3).ok());
  EXPECT_FALSE(schema.AddAttribute("priority", 9).ok());

  // Existing nodes read the default until written (R4 semantics).
  EXPECT_EQ(*schema.GetDynamicAttr(node, "priority"), 3);
  ASSERT_TRUE(schema.SetDynamicAttr(node, "priority", 8).ok());
  EXPECT_EQ(*schema.GetDynamicAttr(node, "priority"), 8);
  EXPECT_TRUE(
      schema.GetDynamicAttr(node, "missing").status().IsNotFound());
}

TEST(SchemaEvolutionTest, RegistryPersistsThroughStore) {
  test::TestDir tmp("hm_schema_persist");
  const std::string dir = tmp.path() + "/db";
  {
    auto store = backends::OodbStore::Open({}, dir);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Begin().ok());
    NodeRef node = *(*store)->CreateNode(MakeAttrs(1), kInvalidNode);
    SchemaEvolution schema(store->get());
    ASSERT_TRUE(schema.AddNodeType("DrawNode").ok());
    ASSERT_TRUE(schema.AddAttribute("priority", 3).ok());
    ASSERT_TRUE(schema.SetDynamicAttr(node, "priority", 9).ok());
    ASSERT_TRUE((*store)->Commit().ok());
    ASSERT_TRUE((*store)->CloseReopen().ok());

    // Fresh SchemaEvolution over the same (reopened) store.
    SchemaEvolution reloaded(store->get());
    ASSERT_TRUE(reloaded.Load().ok());
    EXPECT_TRUE(reloaded.HasNodeType("DrawNode"));
    EXPECT_TRUE(reloaded.HasAttribute("priority"));
    EXPECT_EQ(*reloaded.GetDynamicAttr(node, "priority"), 9);
    EXPECT_EQ(*reloaded.GetDynamicAttr(kInvalidNode + 99, "priority"), 3);
  }
}

// ---------- OCC (R8/R9) ----------

class OccTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(store_.Begin().ok());
    for (int64_t uid = 1; uid <= 10; ++uid) {
      nodes_.push_back(
          *store_.CreateNode(MakeAttrs(uid, NodeKind::kText), kInvalidNode));
      ASSERT_TRUE(store_.SetText(nodes_.back(), "original").ok());
    }
    ASSERT_TRUE(store_.Commit().ok());
  }
  backends::MemStore store_;
  std::vector<NodeRef> nodes_;
};

TEST_F(OccTest, PrivateWritesInvisibleUntilCommit) {
  OccManager occ(&store_);
  WorkspaceId ws = occ.OpenWorkspace(1);
  ASSERT_TRUE(occ.SetText(ws, nodes_[0], "edited by 1").ok());
  // The workspace sees its own write; the store does not yet.
  EXPECT_EQ(*occ.GetText(ws, nodes_[0]), "edited by 1");
  EXPECT_EQ(*store_.GetText(nodes_[0]), "original");

  ASSERT_TRUE(occ.CommitWorkspace(ws).ok());
  EXPECT_EQ(*store_.GetText(nodes_[0]), "edited by 1");
  EXPECT_EQ(occ.commits(), 1u);
}

TEST_F(OccTest, DisjointUpdatesBothCommit) {
  // The paper's R9 scenario: two users update different nodes of the
  // same structure; both succeed.
  OccManager occ(&store_);
  WorkspaceId user1 = occ.OpenWorkspace(1);
  WorkspaceId user2 = occ.OpenWorkspace(2);
  ASSERT_TRUE(occ.SetText(user1, nodes_[0], "user1 edit").ok());
  ASSERT_TRUE(occ.SetText(user2, nodes_[1], "user2 edit").ok());
  EXPECT_TRUE(occ.CommitWorkspace(user1).ok());
  EXPECT_TRUE(occ.CommitWorkspace(user2).ok());
  EXPECT_EQ(occ.commits(), 2u);
  EXPECT_EQ(occ.conflicts(), 0u);
  EXPECT_EQ(*store_.GetText(nodes_[0]), "user1 edit");
  EXPECT_EQ(*store_.GetText(nodes_[1]), "user2 edit");
}

TEST_F(OccTest, OverlappingUpdatesConflict) {
  OccManager occ(&store_);
  WorkspaceId user1 = occ.OpenWorkspace(1);
  WorkspaceId user2 = occ.OpenWorkspace(2);
  ASSERT_TRUE(occ.SetText(user1, nodes_[0], "user1 edit").ok());
  ASSERT_TRUE(occ.SetText(user2, nodes_[0], "user2 edit").ok());
  EXPECT_TRUE(occ.CommitWorkspace(user1).ok());
  util::Status second = occ.CommitWorkspace(user2);
  EXPECT_TRUE(second.IsConflict()) << second.ToString();
  // The message names the stale node. Regression for an ASAN finding:
  // it used to be built from a reference into the just-erased
  // workspace's read_versions map (use-after-free).
  EXPECT_NE(second.ToString().find(std::to_string(nodes_[0])),
            std::string::npos)
      << second.ToString();
  EXPECT_EQ(occ.conflicts(), 1u);
  EXPECT_EQ(*store_.GetText(nodes_[0]), "user1 edit");  // first wins
}

TEST_F(OccTest, StaleReadConflicts) {
  OccManager occ(&store_);
  WorkspaceId reader = occ.OpenWorkspace(1);
  // Reader bases a decision on node 0...
  ASSERT_TRUE(occ.GetText(reader, nodes_[0]).ok());
  ASSERT_TRUE(occ.SetText(reader, nodes_[1], "derived from node0").ok());
  // ...while a writer commits to node 0 in between.
  WorkspaceId writer = occ.OpenWorkspace(2);
  ASSERT_TRUE(occ.SetText(writer, nodes_[0], "changed").ok());
  ASSERT_TRUE(occ.CommitWorkspace(writer).ok());

  EXPECT_TRUE(occ.CommitWorkspace(reader).IsConflict());
  EXPECT_EQ(*store_.GetText(nodes_[1]), "original");
}

TEST_F(OccTest, AbandonDiscardsWrites) {
  OccManager occ(&store_);
  WorkspaceId ws = occ.OpenWorkspace(1);
  ASSERT_TRUE(occ.SetText(ws, nodes_[0], "discard me").ok());
  ASSERT_TRUE(occ.AbandonWorkspace(ws).ok());
  EXPECT_EQ(*store_.GetText(nodes_[0]), "original");
  EXPECT_FALSE(occ.GetText(ws, nodes_[0]).ok());  // workspace gone
}

TEST_F(OccTest, AttrWritesValidateToo) {
  OccManager occ(&store_);
  WorkspaceId a = occ.OpenWorkspace(1);
  WorkspaceId b = occ.OpenWorkspace(2);
  ASSERT_TRUE(occ.SetAttr(a, nodes_[2], Attr::kHundred, 11).ok());
  ASSERT_TRUE(occ.SetAttr(b, nodes_[2], Attr::kThousand, 22).ok());
  EXPECT_TRUE(occ.CommitWorkspace(a).ok());
  // b touched the same node: conflict even though attrs differ (node
  // granularity matches the paper's per-node update model).
  EXPECT_TRUE(occ.CommitWorkspace(b).IsConflict());
}

TEST_F(OccTest, ManyThreadsDisjointNodesAllCommit) {
  OccManager occ(&store_);
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<util::Status> statuses(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      WorkspaceId ws = occ.OpenWorkspace(static_cast<uint64_t>(t));
      util::Status s = occ.SetText(ws, nodes_[static_cast<size_t>(t)],
                                   "thread " + std::to_string(t));
      if (s.ok()) s = occ.CommitWorkspace(ws);
      statuses[static_cast<size_t>(t)] = s;
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(statuses[static_cast<size_t>(t)].ok()) << t;
    EXPECT_EQ(*store_.GetText(nodes_[static_cast<size_t>(t)]),
              "thread " + std::to_string(t));
  }
  EXPECT_EQ(occ.commits(), static_cast<uint64_t>(kThreads));
}

TEST_F(OccTest, ManyThreadsSameNodeExactlyOneWins) {
  OccManager occ(&store_);
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::atomic<int> committed{0};
  std::atomic<int> conflicted{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      WorkspaceId ws = occ.OpenWorkspace(static_cast<uint64_t>(t));
      if (!occ.SetText(ws, nodes_[0], "thread " + std::to_string(t)).ok()) {
        return;
      }
      util::Status s = occ.CommitWorkspace(ws);
      if (s.ok()) {
        ++committed;
      } else if (s.IsConflict()) {
        ++conflicted;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  // All workspaces opened before any commit would see version 0, but
  // scheduling may let some open after a commit — so at least one
  // commits and the rest either commit (serially) or conflict.
  EXPECT_GE(committed.load(), 1);
  EXPECT_EQ(committed.load() + conflicted.load(), kThreads);
}

// Regression: commits()/conflicts() used to read their counters
// without the commit mutex, racing with committers that bump them
// under it. Hammer commits on worker threads while a monitor thread
// polls the counters; under TSAN the unlocked reads were reported.
TEST_F(OccTest, CounterReadsRaceFreeWithCommits) {
  OccManager occ(&store_);
  constexpr int kThreads = 4;
  constexpr int kCommitsPerThread = 50;
  std::atomic<bool> done{false};
  std::thread monitor([&] {
    uint64_t last = 0;
    while (!done.load(std::memory_order_relaxed)) {
      uint64_t seen = occ.commits() + occ.conflicts();
      EXPECT_GE(seen, last);  // outcomes only accumulate
      last = seen;
    }
  });
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kCommitsPerThread; ++i) {
        WorkspaceId ws = occ.OpenWorkspace(static_cast<uint64_t>(t));
        if (occ.SetText(ws, nodes_[static_cast<size_t>(t)], "spin").ok()) {
          (void)occ.CommitWorkspace(ws);  // conflicts count too
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  done.store(true, std::memory_order_relaxed);
  monitor.join();
  // Every commit attempt resolved to exactly one outcome.
  EXPECT_EQ(occ.commits() + occ.conflicts(),
            static_cast<uint64_t>(kThreads * kCommitsPerThread));
}

// ---------- Query (R12) ----------

class QueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    GeneratorConfig config;
    config.levels = 3;
    Generator generator(config);
    auto db = generator.Build(&store_, nullptr);
    ASSERT_TRUE(db.ok());
    db_ = *db;
    ASSERT_TRUE(store_.Begin().ok());
  }
  backends::MemStore store_;
  TestDatabase db_;
};

TEST_F(QueryTest, IndexedRangeQueryUsesIndex) {
  Query query;
  query.WhereBetween(Attr::kHundred, 20, 29);
  QueryStats stats;
  auto results = query.Run(&store_, db_.all_nodes, &stats);
  ASSERT_TRUE(results.ok());
  EXPECT_TRUE(stats.used_index);
  EXPECT_EQ(stats.results, results->size());
  EXPECT_GT(results->size(), 0u);
  for (NodeRef node : *results) {
    int64_t hundred = *store_.GetAttr(node, Attr::kHundred);
    EXPECT_GE(hundred, 20);
    EXPECT_LE(hundred, 29);
  }
}

TEST_F(QueryTest, NonIndexedQueryScansExtent) {
  Query query;
  query.WhereEq(Attr::kTen, 7);
  QueryStats stats;
  auto results = query.Run(&store_, db_.all_nodes, &stats);
  ASSERT_TRUE(results.ok());
  EXPECT_FALSE(stats.used_index);
  EXPECT_EQ(stats.candidates_examined, db_.node_count());
  for (NodeRef node : *results) {
    EXPECT_EQ(*store_.GetAttr(node, Attr::kTen), 7);
  }
}

TEST_F(QueryTest, ConjunctionFiltersOnTopOfIndex) {
  Query query;
  query.WhereBetween(Attr::kHundred, 1, 50).WhereGt(Attr::kTen, 5);
  QueryStats stats;
  auto results = query.Run(&store_, db_.all_nodes, &stats);
  ASSERT_TRUE(results.ok());
  EXPECT_TRUE(stats.used_index);
  EXPECT_LE(results->size(), stats.candidates_examined);
  for (NodeRef node : *results) {
    EXPECT_LE(*store_.GetAttr(node, Attr::kHundred), 50);
    EXPECT_GT(*store_.GetAttr(node, Attr::kTen), 5);
  }
  // Same answer when forced to scan (plan-equivalence).
  Query scan_query;
  scan_query.WhereGt(Attr::kTen, 5).WhereBetween(Attr::kThousand, 1, 1000);
  // Cross-check with a manual filter.
  size_t expected = 0;
  for (NodeRef node : db_.all_nodes) {
    if (*store_.GetAttr(node, Attr::kHundred) <= 50 &&
        *store_.GetAttr(node, Attr::kTen) > 5) {
      ++expected;
    }
  }
  EXPECT_EQ(results->size(), expected);
}

TEST_F(QueryTest, KindFilter) {
  Query query;
  query.OfKind(NodeKind::kText).WhereBetween(Attr::kHundred, 1, 100);
  auto results = query.Run(&store_, db_.all_nodes, nullptr);
  ASSERT_TRUE(results.ok());
  EXPECT_EQ(results->size(), db_.text_nodes.size());
}

TEST_F(QueryTest, EmptyDomainShortCircuits) {
  Query query;
  query.WhereBetween(Attr::kHundred, 200, 300);  // outside [1,100]
  QueryStats stats;
  auto results = query.Run(&store_, db_.all_nodes, &stats);
  ASSERT_TRUE(results.ok());
  EXPECT_TRUE(results->empty());
  EXPECT_EQ(stats.candidates_examined, 0u);
}

TEST_F(QueryTest, NoPredicatesReturnsExtent) {
  Query query;
  auto results = query.Run(&store_, db_.all_nodes, nullptr);
  ASSERT_TRUE(results.ok());
  EXPECT_EQ(results->size(), db_.node_count());
}

}  // namespace
}  // namespace hm::ext
