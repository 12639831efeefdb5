// Tests for the 20 benchmark operations (§6): exact semantics on
// hand-built structures, plus cross-backend result equivalence — every
// backend must compute identical logical answers on the same generated
// database (refs compared after mapping to uniqueIds).

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <numeric>
#include <set>

#include "analysis/compare.h"
#include "analysis/fsck.h"
#include "hypermodel/backends/mem_store.h"
#include "hypermodel/backends/net_store.h"
#include "hypermodel/backends/oodb_store.h"
#include "hypermodel/backends/rel_store.h"
#include "hypermodel/generator.h"
#include "hypermodel/operations.h"
#include "util/text.h"
#include "test_dir.h"

namespace hm {
namespace {

// ---------- Exact semantics on the mem backend ----------

class OpsFixture : public ::testing::Test {
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

TEST_F(OpsFixture, NameLookupReturnsHundred) {
  for (int64_t uid : {1, 50, 156}) {
    auto via_name = ops::NameLookup(&store_, uid);
    ASSERT_TRUE(via_name.ok());
    NodeRef ref = *store_.LookupUnique(uid);
    auto via_oid = ops::NameOidLookup(&store_, ref);
    ASSERT_TRUE(via_oid.ok());
    EXPECT_EQ(*via_name, *via_oid);
    EXPECT_EQ(*via_name, *store_.GetAttr(ref, Attr::kHundred));
  }
}

TEST_F(OpsFixture, RangeLookupSelectivityRoughlyMatches) {
  // hundred in [x, x+9] ~ 10% of nodes; million in [x, x+9999] ~ 1%.
  std::vector<NodeRef> hundred_nodes;
  ASSERT_TRUE(ops::RangeLookupHundred(&store_, 45, &hundred_nodes).ok());
  EXPECT_GT(hundred_nodes.size(), db_.node_count() / 30);
  EXPECT_LT(hundred_nodes.size(), db_.node_count() / 3);
  for (NodeRef node : hundred_nodes) {
    int64_t hundred = *store_.GetAttr(node, Attr::kHundred);
    EXPECT_GE(hundred, 45);
    EXPECT_LE(hundred, 54);
  }

  std::vector<NodeRef> million_nodes;
  ASSERT_TRUE(ops::RangeLookupMillion(&store_, 500000, &million_nodes).ok());
  EXPECT_LT(million_nodes.size(), db_.node_count() / 10);
  for (NodeRef node : million_nodes) {
    int64_t million = *store_.GetAttr(node, Attr::kMillion);
    EXPECT_GE(million, 500000);
    EXPECT_LE(million, 509999);
  }
}

TEST_F(OpsFixture, GroupAndRefLookupsAreInverse) {
  NodeRef parent = db_.level(1)[2];
  std::vector<NodeRef> children;
  ASSERT_TRUE(ops::GroupLookup1N(&store_, parent, &children).ok());
  ASSERT_EQ(children.size(), 5u);
  for (NodeRef child : children) {
    auto back = ops::RefLookup1N(&store_, child);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, parent);
  }

  std::vector<NodeRef> parts;
  ASSERT_TRUE(ops::GroupLookupMN(&store_, parent, &parts).ok());
  ASSERT_EQ(parts.size(), 5u);
  for (NodeRef part : parts) {
    std::vector<NodeRef> owners;
    ASSERT_TRUE(ops::RefLookupMN(&store_, part, &owners).ok());
    EXPECT_NE(std::find(owners.begin(), owners.end(), parent), owners.end());
  }

  std::vector<NodeRef> targets;
  ASSERT_TRUE(ops::GroupLookupMNAtt(&store_, parent, &targets).ok());
  ASSERT_EQ(targets.size(), 1u);
  std::vector<NodeRef> sources;
  ASSERT_TRUE(ops::RefLookupMNAtt(&store_, targets[0], &sources).ok());
  EXPECT_NE(std::find(sources.begin(), sources.end(), parent),
            sources.end());
}

TEST_F(OpsFixture, SeqScanVisitsEveryNode) {
  auto visited = ops::SeqScan(&store_, db_.all_nodes);
  ASSERT_TRUE(visited.ok());
  EXPECT_EQ(*visited, db_.node_count());
}

TEST_F(OpsFixture, Closure1NIsPreorder) {
  std::vector<NodeRef> out;
  ASSERT_TRUE(ops::Closure1N(&store_, db_.root, &out).ok());
  EXPECT_EQ(out.size(), db_.node_count());
  EXPECT_EQ(out[0], db_.root);
  // Pre-order property: the first child of the root comes second, and
  // the entire first subtree precedes the second child.
  std::vector<NodeRef> children;
  ASSERT_TRUE(store_.Children(db_.root, &children).ok());
  EXPECT_EQ(out[1], children[0]);
  size_t subtree = (db_.node_count() - 1) / 5;  // 31 nodes per subtree
  EXPECT_EQ(out[1 + subtree], children[1]);
  // No duplicates.
  std::set<NodeRef> unique(out.begin(), out.end());
  EXPECT_EQ(unique.size(), out.size());
}

TEST_F(OpsFixture, Closure1NFromLevel3IsLeafFanout) {
  std::vector<NodeRef> out;
  // Level 2 is the deepest internal level in a 3-level tree: 1 + 5.
  ASSERT_TRUE(ops::Closure1N(&store_, db_.level(2)[0], &out).ok());
  EXPECT_EQ(out.size(), 6u);
}

TEST_F(OpsFixture, ClosureMNVisitsSharedPartsOnce) {
  std::vector<NodeRef> out;
  ASSERT_TRUE(ops::ClosureMN(&store_, db_.root, &out).ok());
  std::set<NodeRef> unique(out.begin(), out.end());
  EXPECT_EQ(unique.size(), out.size()) << "shared sub-parts listed once";
  EXPECT_EQ(out[0], db_.root);
  // Every listed node (except the start) is someone's part.
  EXPECT_GT(out.size(), 1u);
}

TEST_F(OpsFixture, ClosureMNAttRespectsDepth) {
  NodeRef start = db_.level(1)[0];
  std::vector<NodeRef> d0, d1, d25;
  ASSERT_TRUE(ops::ClosureMNAtt(&store_, start, 0, &d0).ok());
  EXPECT_EQ(d0.size(), 1u);  // just the start
  ASSERT_TRUE(ops::ClosureMNAtt(&store_, start, 1, &d1).ok());
  EXPECT_LE(d1.size(), 2u);
  EXPECT_GE(d1.size(), 1u);
  ASSERT_TRUE(ops::ClosureMNAtt(&store_, start, 25, &d25).ok());
  EXPECT_LE(d25.size(), 26u);  // one edge per node: path of <= 25 steps
  EXPECT_GE(d25.size(), d1.size());
  std::set<NodeRef> unique(d25.begin(), d25.end());
  EXPECT_EQ(unique.size(), d25.size());  // cycles cut by visited set
}

TEST_F(OpsFixture, Closure1NAttSumMatchesManualSum) {
  NodeRef start = db_.level(1)[1];
  std::vector<NodeRef> nodes;
  ASSERT_TRUE(ops::Closure1N(&store_, start, &nodes).ok());
  int64_t expected = 0;
  for (NodeRef node : nodes) {
    expected += *store_.GetAttr(node, Attr::kHundred);
  }
  uint64_t visited = 0;
  auto sum = ops::Closure1NAttSum(&store_, start, &visited);
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ(*sum, expected);
  EXPECT_EQ(visited, nodes.size());
}

TEST_F(OpsFixture, Closure1NAttSetIsSelfInverse) {
  NodeRef start = db_.level(1)[3];
  std::vector<NodeRef> nodes;
  ASSERT_TRUE(ops::Closure1N(&store_, start, &nodes).ok());
  std::vector<int64_t> before;
  for (NodeRef node : nodes) {
    before.push_back(*store_.GetAttr(node, Attr::kHundred));
  }
  auto first = ops::Closure1NAttSet(&store_, start);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(*first, nodes.size());
  // Values are now 99 - x.
  for (size_t i = 0; i < nodes.size(); ++i) {
    EXPECT_EQ(*store_.GetAttr(nodes[i], Attr::kHundred), 99 - before[i]);
  }
  ASSERT_TRUE(ops::Closure1NAttSet(&store_, start).ok());
  for (size_t i = 0; i < nodes.size(); ++i) {
    EXPECT_EQ(*store_.GetAttr(nodes[i], Attr::kHundred), before[i]);
  }
}

TEST_F(OpsFixture, Closure1NPredExcludesAndPrunes) {
  // Build a tiny bespoke tree where the predicate prunes a subtree.
  backends::MemStore store;
  ASSERT_TRUE(store.Begin().ok());
  auto mk = [&](int64_t uid, int64_t million) {
    NodeAttrs attrs;
    attrs.unique_id = uid;
    attrs.million = million;
    attrs.hundred = 1;
    return *store.CreateNode(attrs, kInvalidNode);
  };
  NodeRef root = mk(1, 100000);  // outside [1, 10000]: kept
  NodeRef hit = mk(2, 5000);     // inside [1, 10000]: excluded + pruned
  NodeRef miss = mk(3, 50000);  // outside: kept
  NodeRef under_hit = mk(4, 50000);
  NodeRef under_miss = mk(5, 50000);
  ASSERT_TRUE(store.AddChild(root, hit).ok());
  ASSERT_TRUE(store.AddChild(root, miss).ok());
  ASSERT_TRUE(store.AddChild(hit, under_hit).ok());
  ASSERT_TRUE(store.AddChild(miss, under_miss).ok());

  std::vector<NodeRef> out;
  ASSERT_TRUE(ops::Closure1NPred(&store, root, 1, &out).ok());
  // hit is excluded AND recursion terminates there, so under_hit is
  // unreachable even though its own million doesn't match.
  EXPECT_EQ(out, (std::vector<NodeRef>{root, miss, under_miss}));
}

TEST_F(OpsFixture, ClosureMNAttLinkSumAccumulatesOffsets) {
  // Bespoke chain a -> b -> c with known offsets.
  backends::MemStore store;
  ASSERT_TRUE(store.Begin().ok());
  auto mk = [&](int64_t uid) {
    NodeAttrs attrs;
    attrs.unique_id = uid;
    return *store.CreateNode(attrs, kInvalidNode);
  };
  NodeRef a = mk(1), b = mk(2), c = mk(3);
  ASSERT_TRUE(store.AddRef(a, b, 1, 4).ok());
  ASSERT_TRUE(store.AddRef(b, c, 2, 5).ok());
  ASSERT_TRUE(store.AddRef(c, a, 3, 6).ok());  // cycle back

  std::vector<NodeDistance> out;
  ASSERT_TRUE(ops::ClosureMNAttLinkSum(&store, a, 25, &out).ok());
  ASSERT_EQ(out.size(), 3u);  // a, b, c; cycle cut at a
  EXPECT_EQ(out[0].node, a);
  EXPECT_EQ(out[0].distance, 0);
  EXPECT_EQ(out[1].node, b);
  EXPECT_EQ(out[1].distance, 4);
  EXPECT_EQ(out[2].node, c);
  EXPECT_EQ(out[2].distance, 9);  // 4 + 5, per offsetTo (§6.6)
}

TEST_F(OpsFixture, TextNodeEditSwapsVersions) {
  NodeRef node = db_.text_nodes[0];
  std::string original = *store_.GetText(node);
  size_t occurrences = util::CountOccurrences(original, "version1");
  ASSERT_GE(occurrences, 3u);

  auto replaced = ops::TextNodeEdit(&store_, node, "version1", "version-2");
  ASSERT_TRUE(replaced.ok());
  EXPECT_EQ(*replaced, occurrences);
  std::string edited = *store_.GetText(node);
  EXPECT_EQ(util::CountOccurrences(edited, "version1"), 0u);
  EXPECT_EQ(util::CountOccurrences(edited, "version-2"), occurrences);
  EXPECT_EQ(edited.size(), original.size() + occurrences);  // 1 char longer

  ASSERT_TRUE(ops::TextNodeEdit(&store_, node, "version-2", "version1").ok());
  EXPECT_EQ(*store_.GetText(node), original);
}

TEST_F(OpsFixture, FormNodeEditInvertsSubrectangle) {
  NodeRef node = db_.form_nodes[0];
  util::Bitmap before = *store_.GetForm(node);
  ASSERT_TRUE(ops::FormNodeEdit(&store_, node, 10, 10, 30, 40).ok());
  util::Bitmap after = *store_.GetForm(node);
  EXPECT_EQ(after.PopCount(), before.PopCount() + 30 * 40);
  // Self-inverse.
  ASSERT_TRUE(ops::FormNodeEdit(&store_, node, 10, 10, 30, 40).ok());
  EXPECT_EQ(*store_.GetForm(node), before);
}

TEST_F(OpsFixture, FormNodeEditClampsRectangle) {
  NodeRef node = db_.form_nodes[0];
  util::Bitmap before = *store_.GetForm(node);
  // Way out of bounds: the op clamps to the bitmap edge.
  ASSERT_TRUE(
      ops::FormNodeEdit(&store_, node, before.width(), before.height(), 25,
                        25)
          .ok());
  util::Bitmap after = *store_.GetForm(node);
  EXPECT_EQ(after.PopCount(), before.PopCount() + 25 * 25);
}

// The editing operations (/*16*/, /*17*/) and the attribute-writing
// closure (/*12*/) must leave a structurally valid database: fsck
// after a full round of edits. One Closure1NAttSet application moves
// `hundred` out of [1,100] by design, so that pass runs with the
// attr-range gate off; after the self-inverse second application the
// strict check passes again.
TEST_F(OpsFixture, FsckCleanAfterEditingOps) {
  ASSERT_TRUE(
      ops::TextNodeEdit(&store_, db_.text_nodes[0], "version1", "version-2")
          .ok());
  ASSERT_TRUE(ops::FormNodeEdit(&store_, db_.form_nodes[0], 10, 10, 30, 40)
                  .ok());
  ASSERT_TRUE(ops::Closure1NAttSet(&store_, db_.root).ok());

  analysis::FsckOptions options;
  options.config.levels = 3;  // matches the fixture's generator config
  options.check_attr_ranges = false;
  auto report = analysis::RunFsck(&store_, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->ok()) << report->violations[0].ToString();

  // hundred := 99 - hundred is self-inverse; a second application
  // restores the §5.2 intervals and full fsck passes.
  ASSERT_TRUE(ops::Closure1NAttSet(&store_, db_.root).ok());
  options.check_attr_ranges = true;
  report = analysis::RunFsck(&store_, options);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->ok()) << report->violations[0].ToString();
}

// ---------- Cross-backend equivalence ----------

class CrossBackendTest : public ::testing::Test {
 protected:
  void SetUp() override {

    GeneratorConfig config;
    config.levels = 3;

    mem_ = std::make_unique<backends::MemStore>();
    auto oodb = backends::OodbStore::Open({}, dir_ + "/oodb");
    ASSERT_TRUE(oodb.ok());
    oodb_ = std::move(*oodb);
    auto rel = backends::RelStore::Open({}, dir_ + "/rel");
    ASSERT_TRUE(rel.ok());
    rel_ = std::move(*rel);
    auto net = backends::NetStore::Open({}, dir_ + "/net");
    ASSERT_TRUE(net.ok());
    net_ = std::move(*net);

    for (HyperStore* store : Stores()) {
      Generator generator(config);
      auto db = generator.Build(store, nullptr);
      ASSERT_TRUE(db.ok()) << store->name();
      dbs_[store] = *db;
      ASSERT_TRUE(store->Begin().ok());
    }
  }
  void TearDown() override {
    for (HyperStore* store : Stores()) EXPECT_TRUE(store->Commit().ok());
    oodb_.reset();
    rel_.reset();
    net_.reset();
  }

  std::vector<HyperStore*> Stores() {
    return {mem_.get(), oodb_.get(), rel_.get(), net_.get()};
  }

  NodeRef ByUid(HyperStore* store, int64_t uid) {
    auto ref = store->LookupUnique(uid);
    EXPECT_TRUE(ref.ok());
    return ref.ValueOr(kInvalidNode);
  }

  test::TestDir tmp_{"hm_cross"};
  const std::string dir_ = tmp_.path();
  std::unique_ptr<backends::MemStore> mem_;
  std::unique_ptr<backends::OodbStore> oodb_;
  std::unique_ptr<backends::RelStore> rel_;
  std::unique_ptr<backends::NetStore> net_;
  std::map<HyperStore*, TestDatabase> dbs_;
};

TEST_F(CrossBackendTest, NameLookupAgrees) {
  for (int64_t uid = 1; uid <= 156; uid += 13) {
    auto expected = ops::NameLookup(mem_.get(), uid);
    ASSERT_TRUE(expected.ok());
    for (HyperStore* store : Stores()) {
      auto got = ops::NameLookup(store, uid);
      ASSERT_TRUE(got.ok()) << store->name();
      EXPECT_EQ(*got, *expected) << store->name() << " uid " << uid;
    }
  }
}

TEST_F(CrossBackendTest, RangeLookupsAgreeAsSets) {
  for (int64_t x : {1, 37, 85}) {
    std::vector<int64_t> expected;
    {
      std::vector<NodeRef> out;
      ASSERT_TRUE(ops::RangeLookupHundred(mem_.get(), x, &out).ok());
      expected = analysis::Uids(mem_.get(), out).ValueOr({});
      std::sort(expected.begin(), expected.end());
    }
    for (HyperStore* store : Stores()) {
      std::vector<NodeRef> out;
      ASSERT_TRUE(ops::RangeLookupHundred(store, x, &out).ok());
      std::vector<int64_t> uids = analysis::Uids(store, out).ValueOr({});
      std::sort(uids.begin(), uids.end());
      EXPECT_EQ(uids, expected) << store->name() << " x=" << x;
    }
  }
}

TEST_F(CrossBackendTest, TraversalsAgree) {
  for (int64_t uid : {1, 2, 10, 40}) {
    std::vector<int64_t> expected_children =
        analysis::Uids(mem_.get(), [&] {
          std::vector<NodeRef> out;
          EXPECT_TRUE(
              ops::GroupLookup1N(mem_.get(), ByUid(mem_.get(), uid), &out)
                  .ok());
          return out;
        }()).ValueOr({});
    for (HyperStore* store : Stores()) {
      std::vector<NodeRef> out;
      ASSERT_TRUE(
          ops::GroupLookup1N(store, ByUid(store, uid), &out).ok());
      EXPECT_EQ(analysis::Uids(store, out).ValueOr({}), expected_children)
          << store->name() << " children of uid " << uid
          << " (order matters: 1-N is ordered)";

      std::vector<NodeRef> parts;
      ASSERT_TRUE(ops::GroupLookupMN(store, ByUid(store, uid), &parts).ok());
      std::vector<int64_t> part_uids = analysis::Uids(store, parts).ValueOr({});
      std::sort(part_uids.begin(), part_uids.end());
      std::vector<NodeRef> mem_parts;
      ASSERT_TRUE(
          ops::GroupLookupMN(mem_.get(), ByUid(mem_.get(), uid), &mem_parts)
              .ok());
      std::vector<int64_t> expected_parts =
          analysis::Uids(mem_.get(), mem_parts).ValueOr({});
      std::sort(expected_parts.begin(), expected_parts.end());
      EXPECT_EQ(part_uids, expected_parts) << store->name();
    }
  }
}

TEST_F(CrossBackendTest, Closure1NAgreesInOrder) {
  // Pre-order lists must agree element-by-element (ordered children).
  for (int64_t uid : {1, 7, 31}) {
    std::vector<NodeRef> mem_out;
    ASSERT_TRUE(
        ops::Closure1N(mem_.get(), ByUid(mem_.get(), uid), &mem_out).ok());
    std::vector<int64_t> expected =
        analysis::Uids(mem_.get(), mem_out).ValueOr({});
    for (HyperStore* store : Stores()) {
      std::vector<NodeRef> out;
      ASSERT_TRUE(ops::Closure1N(store, ByUid(store, uid), &out).ok());
      EXPECT_EQ(analysis::Uids(store, out).ValueOr({}), expected)
          << store->name();
    }
  }
}

TEST_F(CrossBackendTest, ClosureSumsAgree) {
  for (int64_t uid : {1, 7, 31}) {
    auto expected =
        ops::Closure1NAttSum(mem_.get(), ByUid(mem_.get(), uid), nullptr);
    ASSERT_TRUE(expected.ok());
    for (HyperStore* store : Stores()) {
      auto got = ops::Closure1NAttSum(store, ByUid(store, uid), nullptr);
      ASSERT_TRUE(got.ok()) << store->name();
      EXPECT_EQ(*got, *expected) << store->name();
    }
  }
}

TEST_F(CrossBackendTest, WeightedClosureAgrees) {
  for (int64_t uid : {2, 9}) {
    std::vector<NodeDistance> mem_out;
    ASSERT_TRUE(ops::ClosureMNAttLinkSum(mem_.get(), ByUid(mem_.get(), uid),
                                         25, &mem_out)
                    .ok());
    for (HyperStore* store : Stores()) {
      std::vector<NodeDistance> out;
      ASSERT_TRUE(
          ops::ClosureMNAttLinkSum(store, ByUid(store, uid), 25, &out).ok());
      ASSERT_EQ(out.size(), mem_out.size()) << store->name();
      for (size_t i = 0; i < out.size(); ++i) {
        EXPECT_EQ(*store->GetAttr(out[i].node, Attr::kUniqueId),
                  *mem_->GetAttr(mem_out[i].node, Attr::kUniqueId))
            << store->name();
        EXPECT_EQ(out[i].distance, mem_out[i].distance) << store->name();
      }
    }
  }
}

// All twenty ops, each persistent backend against the mem oracle, on
// CompareOps' inputs inside the fixture's open transaction (the cases
// above compare eight of the ops on hand-picked inputs). The edits run
// there and back, so afterwards every node still reads as on mem.
TEST_F(CrossBackendTest, AllTwentyOpsAgreeWithMem) {
  for (HyperStore* store : Stores()) {
    if (store == mem_.get()) continue;
    SCOPED_TRACE(store->name());
    const analysis::CompareReport report = analysis::CompareOps(
        mem_.get(), dbs_[mem_.get()], store, dbs_[store], 3);
    EXPECT_EQ(report.records.size(), 3 * 24u);
    EXPECT_EQ(report.Failed(), std::vector<std::string>{});

    const auto expected = analysis::ImageOf(mem_.get(), dbs_[mem_.get()]);
    const auto got = analysis::ImageOf(store, dbs_[store]);
    ASSERT_TRUE(expected.ok() && got.ok());
    EXPECT_EQ(analysis::DifferingUids(*expected, *got),
              std::vector<int64_t>{});
  }
}

TEST_F(CrossBackendTest, EditsAgree) {
  // Pick a text node by uid (same on all backends by construction).
  int64_t text_uid =
      *mem_->GetAttr(dbs_[mem_.get()].text_nodes[3], Attr::kUniqueId);
  for (HyperStore* store : Stores()) {
    NodeRef node = ByUid(store, text_uid);
    auto replaced = ops::TextNodeEdit(store, node, "version1", "version-2");
    ASSERT_TRUE(replaced.ok()) << store->name();
    EXPECT_GE(*replaced, 3u);
  }
  // All backends hold the identical edited text.
  std::string expected = *mem_->GetText(ByUid(mem_.get(), text_uid));
  for (HyperStore* store : Stores()) {
    EXPECT_EQ(*store->GetText(ByUid(store, text_uid)), expected)
        << store->name();
  }
}

}  // namespace
}  // namespace hm
