// hm_fsck invariant checker (src/analysis/fsck.h): a freshly generated
// database verifies clean on every backend, and each class of seeded
// corruption is detected as exactly its own invariant class, with the
// violation naming the offending node's tree path.

#include "analysis/fsck.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>

#include "hypermodel/backends/mem_store.h"
#include "hypermodel/backends/oodb_store.h"
#include "hypermodel/backends/rel_store.h"
#include "hypermodel/backends/remote_store.h"
#include "hypermodel/generator.h"
#include "hypermodel/store.h"
#include "test_dir.h"

namespace hm::analysis {
namespace {

GeneratorConfig SmallConfig() {
  GeneratorConfig config;
  config.levels = 2;  // 31 nodes at fanout 5 — fast per backend
  return config;
}

FsckReport MustFsck(HyperStore* store, const FsckOptions& options) {
  auto report = RunFsck(store, options);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return std::move(*report);
}

void ExpectClean(HyperStore* store, const GeneratorConfig& config) {
  Generator generator(config);
  auto db = generator.Build(store, nullptr);
  ASSERT_TRUE(db.ok()) << db.status().ToString();

  FsckOptions options;
  options.config = config;
  FsckReport report = MustFsck(store, options);
  EXPECT_TRUE(report.ok()) << [&] {
    std::string all;
    for (const auto& v : report.violations) all += v.ToString() + "\n";
    return all;
  }();
  EXPECT_EQ(report.nodes_checked, Generator::ExpectedNodeCount(config));
  EXPECT_FALSE(report.truncated);
}

TEST(FsckCleanTest, MemGeneratedDatabase) {
  backends::MemStore store;
  ExpectClean(&store, SmallConfig());
}

TEST(FsckCleanTest, MemLevelFour) {
  backends::MemStore store;
  GeneratorConfig config;  // paper's smallest size: 781 nodes
  config.levels = 4;
  ExpectClean(&store, config);
}

TEST(FsckCleanTest, OodbGeneratedDatabase) {
  test::TestDir tmp("hm_fsck_oodb");
  const std::string dir = tmp.path();
  auto store = backends::OodbStore::Open(backends::OodbOptions{}, dir);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ExpectClean(store->get(), SmallConfig());
}

TEST(FsckCleanTest, RelGeneratedDatabase) {
  test::TestDir tmp("hm_fsck_rel");
  const std::string dir = tmp.path();
  auto store = backends::RelStore::Open(backends::RelOptions{}, dir);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ExpectClean(store->get(), SmallConfig());
}

TEST(FsckCleanTest, RemoteGeneratedDatabase) {
  // The whole walk runs through the wire protocol against a loopback
  // server, so every fsck probe is also a serving-path test.
  auto store =
      backends::RemoteStore::Loopback(std::make_unique<backends::MemStore>());
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ExpectClean(store->get(), SmallConfig());
}

TEST(FsckTest, EmptyStoreReportsMissingRoot) {
  backends::MemStore store;
  FsckOptions options;
  options.config = SmallConfig();
  FsckReport report = MustFsck(&store, options);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.violations[0].cls, InvariantClass::kStructure);
}

TEST(FsckTest, RejectsDegenerateConfig) {
  backends::MemStore store;
  FsckOptions options;
  options.config.levels = 0;
  EXPECT_FALSE(RunFsck(&store, options).ok());
  EXPECT_FALSE(RunFsck(nullptr, FsckOptions{}).ok());
}

// ---- Mutation tests -------------------------------------------------
// A hand-built minimal database (levels=2, fanout=2, one part per
// internal node, every 2nd leaf a form) with exactly one corruption
// seeded per invariant class. fsck must flag that class — and only
// that class — and anchor the violation to the right node path.

enum class Corrupt {
  kNone,
  kShuffledChildren,  // root's children linked in reversed order
  kDroppedPart,       // one internal node loses its parts edge
  kBadOffset,         // one refTo edge carries offset 12
  kMisplacedForm,     // a leaf that should be text is a form node
};

GeneratorConfig TinyConfig() {
  GeneratorConfig config;
  config.levels = 2;
  config.fanout = 2;
  config.parts_per_node = 1;
  config.leaves_per_form = 2;
  return config;
}

// Builds the TinyConfig database by hand: uids 1 (root), 2-3 (level
// 1), 4-7 (leaves; creation order makes leaves 5 and 7 the forms).
void BuildTiny(HyperStore* store, Corrupt corrupt) {
  auto create = [&](int64_t uid, NodeKind kind, NodeRef near) {
    NodeAttrs attrs;
    attrs.unique_id = uid;
    attrs.ten = 1;
    attrs.hundred = 1;
    attrs.thousand = 1;
    attrs.million = 1;
    attrs.kind = kind;
    auto ref = store->CreateNode(attrs, near);
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();
    ASSERT_EQ(*ref, static_cast<NodeRef>(uid))
        << "mem refs are expected to equal uids for this fixture";
  };
  auto kind_for_leaf = [&](int64_t uid) {
    const int64_t leaf_index = uid - 4;
    bool is_form = leaf_index % 2 == 1;
    if (corrupt == Corrupt::kMisplacedForm && uid == 4) is_form = true;
    return is_form ? NodeKind::kForm : NodeKind::kText;
  };

  create(1, NodeKind::kInternal, kInvalidNode);
  create(2, NodeKind::kInternal, 1);
  create(3, NodeKind::kInternal, 1);
  for (int64_t uid = 4; uid <= 7; ++uid) {
    create(uid, kind_for_leaf(uid), uid <= 5 ? 2 : 3);
  }
  for (int64_t uid = 4; uid <= 7; ++uid) {
    if (kind_for_leaf(uid) == NodeKind::kForm) {
      ASSERT_TRUE(store->SetForm(uid, util::Bitmap(100, 100)).ok());
    } else {
      ASSERT_TRUE(store->SetText(uid, "tiny").ok());
    }
  }

  if (corrupt == Corrupt::kShuffledChildren) {
    ASSERT_TRUE(store->AddChild(1, 3).ok());
    ASSERT_TRUE(store->AddChild(1, 2).ok());
  } else {
    ASSERT_TRUE(store->AddChild(1, 2).ok());
    ASSERT_TRUE(store->AddChild(1, 3).ok());
  }
  ASSERT_TRUE(store->AddChild(2, 4).ok());
  ASSERT_TRUE(store->AddChild(2, 5).ok());
  ASSERT_TRUE(store->AddChild(3, 6).ok());
  ASSERT_TRUE(store->AddChild(3, 7).ok());

  ASSERT_TRUE(store->AddPart(1, 2).ok());
  ASSERT_TRUE(store->AddPart(2, 4).ok());
  if (corrupt != Corrupt::kDroppedPart) {
    ASSERT_TRUE(store->AddPart(3, 6).ok());
  }

  for (int64_t uid = 1; uid <= 7; ++uid) {
    const int64_t offset_from =
        (corrupt == Corrupt::kBadOffset && uid == 1) ? 12 : 3;
    ASSERT_TRUE(store->AddRef(uid, 1, offset_from, 4).ok());
  }
}

FsckReport FsckTiny(Corrupt corrupt) {
  backends::MemStore store;
  BuildTiny(&store, corrupt);
  FsckOptions options;
  options.config = TinyConfig();
  return MustFsck(&store, options);
}

// Every violation in `report` is of class `cls` (exactness: a seeded
// corruption must not bleed into other invariant classes).
void ExpectOnly(const FsckReport& report, InvariantClass cls) {
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.CountOf(cls), report.violations.size())
      << "unexpected violation classes:\n" << [&] {
           std::string all;
           for (const auto& v : report.violations) all += v.ToString() + "\n";
           return all;
         }();
}

TEST(FsckMutationTest, HandBuiltCleanBaseline) {
  FsckReport report = FsckTiny(Corrupt::kNone);
  EXPECT_TRUE(report.ok()) << [&] {
    std::string all;
    for (const auto& v : report.violations) all += v.ToString() + "\n";
    return all;
  }();
  EXPECT_EQ(report.nodes_checked, 7u);
}

TEST(FsckMutationTest, ShuffledChildrenDetectedAsTree) {
  FsckReport report = FsckTiny(Corrupt::kShuffledChildren);
  ExpectOnly(report, InvariantClass::kTree);
  // The first wrong slot is root's child 0.
  EXPECT_EQ(report.violations[0].path, "root/0");
}

TEST(FsckMutationTest, DroppedPartDetectedAsParts) {
  FsckReport report = FsckTiny(Corrupt::kDroppedPart);
  ExpectOnly(report, InvariantClass::kParts);
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations[0].unique_id, 3);
  EXPECT_EQ(report.violations[0].path, "root/1");
}

TEST(FsckMutationTest, OutOfRangeOffsetDetectedAsRefs) {
  FsckReport report = FsckTiny(Corrupt::kBadOffset);
  ExpectOnly(report, InvariantClass::kRefs);
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations[0].unique_id, 1);
  EXPECT_EQ(report.violations[0].path, "root");
  EXPECT_NE(report.violations[0].detail.find("12"), std::string::npos);
}

TEST(FsckMutationTest, MisplacedFormDetectedAsLeafKind) {
  FsckReport report = FsckTiny(Corrupt::kMisplacedForm);
  ExpectOnly(report, InvariantClass::kLeafKind);
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations[0].unique_id, 4);
  EXPECT_EQ(report.violations[0].path, "root/0/0");
}

TEST(FsckMutationTest, OversizedBitmapDetectedAsContents) {
  backends::MemStore store;
  BuildTiny(&store, Corrupt::kNone);
  // Shrink a form below form_min_dim after the clean build.
  ASSERT_TRUE(store.SetForm(5, util::Bitmap(10, 10)).ok());
  FsckOptions options;
  options.config = TinyConfig();
  FsckReport report = MustFsck(&store, options);
  ExpectOnly(report, InvariantClass::kContents);
  EXPECT_EQ(report.violations[0].unique_id, 5);
}

TEST(FsckMutationTest, AttrOutOfRangeGatedByOption) {
  backends::MemStore store;
  BuildTiny(&store, Corrupt::kNone);
  ASSERT_TRUE(store.SetAttr(6, Attr::kHundred, 0).ok());
  FsckOptions options;
  options.config = TinyConfig();
  FsckReport report = MustFsck(&store, options);
  ExpectOnly(report, InvariantClass::kAttrRange);
  EXPECT_EQ(report.violations[0].unique_id, 6);

  // The editing operations legitimately rewrite `hundred`; with the
  // gate off the same store verifies clean.
  options.check_attr_ranges = false;
  EXPECT_TRUE(MustFsck(&store, options).ok());
}

TEST(FsckMutationTest, ViolationListTruncatesAtCap) {
  backends::MemStore store;
  BuildTiny(&store, Corrupt::kNone);
  // Break every node's attrs so the violation count exceeds the cap.
  for (int64_t uid = 1; uid <= 7; ++uid) {
    ASSERT_TRUE(store.SetAttr(uid, Attr::kTen, 99).ok());
    ASSERT_TRUE(store.SetAttr(uid, Attr::kThousand, 0).ok());
  }
  FsckOptions options;
  options.config = TinyConfig();
  options.max_violations = 3;
  FsckReport report = MustFsck(&store, options);
  EXPECT_TRUE(report.truncated);
  EXPECT_EQ(report.violations.size(), 3u);
}

}  // namespace
}  // namespace hm::analysis
