// Tests for the §5.2 test-database generator: topology, node counts,
// attribute intervals, contents, determinism and the exact sequence of
// store calls a build makes.

#include <gtest/gtest.h>

#include <filesystem>
#include <functional>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "analysis/fsck.h"
#include "hypermodel/backends/mem_store.h"
#include "hypermodel/backends/oodb_store.h"
#include "hypermodel/generator.h"
#include "hypermodel/traversal.h"
#include "objstore/object_store.h"
#include "telemetry/metrics.h"

namespace hm {
namespace {

/// A HyperStore decorator that logs every transaction and write call
/// the generator makes — method and arguments, in order — as a count
/// and a running FNV-1a hash, and can fail the Nth write. Reads are
/// forwarded unlogged.
class CallLog : public HyperStore {
 public:
  explicit CallLog(HyperStore* inner) : inner_(inner) {}

  uint64_t calls = 0;
  uint64_t hash = 14695981039346656037ull;
  uint64_t writes = 0;
  /// 1-based index of the write that fails with IoError (0: none).
  uint64_t fail_write = 0;

  std::string name() const override { return inner_->name(); }
  util::Status Begin() override {
    Log("Begin", "");
    return inner_->Begin();
  }
  util::Status Commit() override {
    Log("Commit", "");
    return inner_->Commit();
  }
  util::Status Abort() override {
    Log("Abort", "");
    return inner_->Abort();
  }
  util::Status CloseReopen() override { return inner_->CloseReopen(); }

  util::Result<NodeRef> CreateNode(const NodeAttrs& a, NodeRef near) override {
    HM_RETURN_IF_ERROR(Write(
        "CreateNode", Args(a.unique_id, a.ten, a.hundred, a.thousand,
                           a.million, static_cast<int>(a.kind), near)));
    return inner_->CreateNode(a, near);
  }
  util::Status SetText(NodeRef node, std::string_view text) override {
    HM_RETURN_IF_ERROR(Write("SetText", Args(node) + std::string(text)));
    return inner_->SetText(node, text);
  }
  util::Status SetForm(NodeRef node, const util::Bitmap& form) override {
    HM_RETURN_IF_ERROR(Write("SetForm", Args(node) + form.Serialize()));
    return inner_->SetForm(node, form);
  }
  util::Status AddChild(NodeRef parent, NodeRef child) override {
    HM_RETURN_IF_ERROR(Write("AddChild", Args(parent, child)));
    return inner_->AddChild(parent, child);
  }
  util::Status AddPart(NodeRef owner, NodeRef part) override {
    HM_RETURN_IF_ERROR(Write("AddPart", Args(owner, part)));
    return inner_->AddPart(owner, part);
  }
  util::Status AddRef(NodeRef from, NodeRef to, int64_t offset_from,
                      int64_t offset_to) override {
    HM_RETURN_IF_ERROR(
        Write("AddRef", Args(from, to, offset_from, offset_to)));
    return inner_->AddRef(from, to, offset_from, offset_to);
  }
  util::Status SetAttr(NodeRef node, Attr attr, int64_t value) override {
    HM_RETURN_IF_ERROR(
        Write("SetAttr", Args(node, static_cast<int>(attr), value)));
    return inner_->SetAttr(node, attr, value);
  }
  util::Status SetContents(NodeRef node, std::string_view data) override {
    HM_RETURN_IF_ERROR(Write("SetContents", Args(node) + std::string(data)));
    return inner_->SetContents(node, data);
  }

  util::Result<int64_t> GetAttr(NodeRef node, Attr attr) override {
    return inner_->GetAttr(node, attr);
  }
  util::Result<NodeKind> GetKind(NodeRef node) override {
    return inner_->GetKind(node);
  }
  util::Result<std::string> GetText(NodeRef node) override {
    return inner_->GetText(node);
  }
  util::Result<util::Bitmap> GetForm(NodeRef node) override {
    return inner_->GetForm(node);
  }
  util::Result<std::string> GetContents(NodeRef node) override {
    return inner_->GetContents(node);
  }
  util::Result<NodeRef> LookupUnique(int64_t unique_id) override {
    return inner_->LookupUnique(unique_id);
  }
  util::Status RangeHundred(int64_t lo, int64_t hi,
                            std::vector<NodeRef>* out) override {
    return inner_->RangeHundred(lo, hi, out);
  }
  util::Status RangeMillion(int64_t lo, int64_t hi,
                            std::vector<NodeRef>* out) override {
    return inner_->RangeMillion(lo, hi, out);
  }
  util::Status Children(NodeRef node, std::vector<NodeRef>* out) override {
    return inner_->Children(node, out);
  }
  util::Result<NodeRef> Parent(NodeRef node) override {
    return inner_->Parent(node);
  }
  util::Status Parts(NodeRef node, std::vector<NodeRef>* out) override {
    return inner_->Parts(node, out);
  }
  util::Status PartOf(NodeRef node, std::vector<NodeRef>* out) override {
    return inner_->PartOf(node, out);
  }
  util::Status RefsTo(NodeRef node, std::vector<RefEdge>* out) override {
    return inner_->RefsTo(node, out);
  }
  util::Status RefsFrom(NodeRef node, std::vector<RefEdge>* out) override {
    return inner_->RefsFrom(node, out);
  }
  util::Result<uint64_t> StorageBytes() override {
    return inner_->StorageBytes();
  }

 private:
  template <typename... T>
  static std::string Args(const T&... args) {
    std::string out;
    ((out += std::to_string(args), out += ','), ...);
    return out;
  }
  void Log(std::string_view method, std::string_view args) {
    ++calls;
    for (std::string_view part : {method, std::string_view("("), args}) {
      for (unsigned char c : part) {
        hash = (hash ^ c) * 1099511628211ull;
      }
    }
  }
  util::Status Write(std::string_view method, const std::string& args) {
    Log(method, args);
    if (++writes == fail_write) {
      return util::Status::IoError("injected failure of write " +
                                   std::to_string(writes));
    }
    return util::Status::Ok();
  }

  HyperStore* inner_;
};

TestDatabase BuildMem(backends::MemStore* store, GeneratorConfig config,
                      CreationTiming* timing = nullptr) {
  Generator generator(config);
  auto db = generator.Build(store, timing);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  return *db;
}

TEST(GeneratorTest, ExpectedNodeCountsMatchPaper) {
  GeneratorConfig config;
  config.levels = 4;
  EXPECT_EQ(Generator::ExpectedNodeCount(config), 781u);
  config.levels = 5;
  EXPECT_EQ(Generator::ExpectedNodeCount(config), 3906u);
  config.levels = 6;
  EXPECT_EQ(Generator::ExpectedNodeCount(config), 19531u);
}

TEST(GeneratorTest, LevelSizesFollowFanout) {
  backends::MemStore store;
  GeneratorConfig config;
  config.levels = 4;
  TestDatabase db = BuildMem(&store, config);
  ASSERT_EQ(db.nodes_by_level.size(), 5u);
  uint64_t expected = 1;
  for (size_t l = 0; l <= 4; ++l) {
    EXPECT_EQ(db.level(l).size(), expected) << "level " << l;
    expected *= 5;
  }
  EXPECT_EQ(db.node_count(), 781u);
  EXPECT_EQ(store.node_count(), 781u);
}

TEST(GeneratorTest, LeafMixOneFormPer125Texts) {
  backends::MemStore store;
  GeneratorConfig config;
  config.levels = 4;  // 625 leaves -> 5 form nodes, 620 text nodes
  TestDatabase db = BuildMem(&store, config);
  EXPECT_EQ(db.form_nodes.size(), 5u);
  EXPECT_EQ(db.text_nodes.size(), 620u);
  for (NodeRef node : db.form_nodes) {
    EXPECT_EQ(*store.GetKind(node), NodeKind::kForm);
  }
  for (NodeRef node : db.text_nodes) {
    EXPECT_EQ(*store.GetKind(node), NodeKind::kText);
  }
  // All internal nodes are plain Nodes.
  EXPECT_EQ(db.internal_nodes.size(), 156u);
}

TEST(GeneratorTest, EveryNonRootHasOneParentAndFanoutChildren) {
  backends::MemStore store;
  GeneratorConfig config;
  config.levels = 3;
  TestDatabase db = BuildMem(&store, config);
  for (size_t l = 0; l + 1 < db.nodes_by_level.size(); ++l) {
    for (NodeRef node : db.level(l)) {
      std::vector<NodeRef> children;
      ASSERT_TRUE(store.Children(node, &children).ok());
      EXPECT_EQ(children.size(), 5u);
      for (NodeRef child : children) {
        EXPECT_EQ(*store.Parent(child), node);
      }
    }
  }
  for (NodeRef leaf : db.level(3)) {
    std::vector<NodeRef> children;
    ASSERT_TRUE(store.Children(leaf, &children).ok());
    EXPECT_TRUE(children.empty());
  }
  EXPECT_EQ(*store.Parent(db.root), kInvalidNode);
}

TEST(GeneratorTest, PartsComeFromNextLevel) {
  backends::MemStore store;
  GeneratorConfig config;
  config.levels = 3;
  TestDatabase db = BuildMem(&store, config);
  for (size_t l = 0; l + 1 < db.nodes_by_level.size(); ++l) {
    std::set<NodeRef> next_level(db.level(l + 1).begin(),
                                 db.level(l + 1).end());
    for (NodeRef node : db.level(l)) {
      std::vector<NodeRef> parts;
      ASSERT_TRUE(store.Parts(node, &parts).ok());
      EXPECT_EQ(parts.size(), 5u);
      for (NodeRef part : parts) {
        EXPECT_TRUE(next_level.contains(part))
            << "part must come from the next level (§5.2)";
      }
    }
  }
  // Leaves have no parts.
  for (NodeRef leaf : db.level(3)) {
    std::vector<NodeRef> parts;
    ASSERT_TRUE(store.Parts(leaf, &parts).ok());
    EXPECT_TRUE(parts.empty());
  }
}

TEST(GeneratorTest, EveryNodeHasExactlyOneOutgoingRef) {
  backends::MemStore store;
  GeneratorConfig config;
  config.levels = 3;
  TestDatabase db = BuildMem(&store, config);
  uint64_t total_in = 0;
  for (NodeRef node : db.all_nodes) {
    std::vector<RefEdge> out;
    ASSERT_TRUE(store.RefsTo(node, &out).ok());
    EXPECT_EQ(out.size(), 1u);
    EXPECT_GE(out[0].offset_from, 0);
    EXPECT_LE(out[0].offset_from, 9);
    EXPECT_GE(out[0].offset_to, 0);
    EXPECT_LE(out[0].offset_to, 9);
    std::vector<RefEdge> in;
    ASSERT_TRUE(store.RefsFrom(node, &in).ok());
    total_in += in.size();
  }
  // Number of M-N attribute relationships equals the number of nodes.
  EXPECT_EQ(total_in, db.node_count());
}

TEST(GeneratorTest, AttributeIntervals) {
  backends::MemStore store;
  GeneratorConfig config;
  config.levels = 4;
  TestDatabase db = BuildMem(&store, config);
  std::set<int64_t> uniques;
  for (NodeRef node : db.all_nodes) {
    int64_t uid = *store.GetAttr(node, Attr::kUniqueId);
    EXPECT_TRUE(uniques.insert(uid).second) << "uniqueId must be unique";
    EXPECT_GE(uid, 1);
    EXPECT_LE(uid, static_cast<int64_t>(db.node_count()));
    int64_t ten = *store.GetAttr(node, Attr::kTen);
    EXPECT_GE(ten, 1);
    EXPECT_LE(ten, 10);
    int64_t hundred = *store.GetAttr(node, Attr::kHundred);
    EXPECT_GE(hundred, 1);
    EXPECT_LE(hundred, 100);
    int64_t thousand = *store.GetAttr(node, Attr::kThousand);
    EXPECT_GE(thousand, 1);
    EXPECT_LE(thousand, 1000);
    int64_t million = *store.GetAttr(node, Attr::kMillion);
    EXPECT_GE(million, 1);
    EXPECT_LE(million, 1000000);
  }
}

TEST(GeneratorTest, TextNodesFollowSpec) {
  backends::MemStore store;
  GeneratorConfig config;
  config.levels = 3;
  config.leaves_per_form = 25;  // denser form mix for this test
  TestDatabase db = BuildMem(&store, config);
  ASSERT_FALSE(db.text_nodes.empty());
  for (NodeRef node : db.text_nodes) {
    std::string text = *store.GetText(node);
    std::vector<std::string> words;
    std::stringstream ss(text);
    std::string w;
    while (ss >> w) words.push_back(w);
    ASSERT_GE(words.size(), 10u);
    ASSERT_LE(words.size(), 100u);
    EXPECT_EQ(words.front(), "version1");
    EXPECT_EQ(words[words.size() / 2], "version1");
    EXPECT_EQ(words.back(), "version1");
  }
}

TEST(GeneratorTest, FormNodesStartWhiteWithinDims) {
  backends::MemStore store;
  GeneratorConfig config;
  config.levels = 3;
  config.leaves_per_form = 25;
  TestDatabase db = BuildMem(&store, config);
  ASSERT_FALSE(db.form_nodes.empty());
  for (NodeRef node : db.form_nodes) {
    util::Bitmap form = *store.GetForm(node);
    EXPECT_GE(form.width(), 100u);
    EXPECT_LE(form.width(), 400u);
    EXPECT_GE(form.height(), 100u);
    EXPECT_LE(form.height(), 400u);
    EXPECT_EQ(form.PopCount(), 0u) << "forms start all white";
  }
}

TEST(GeneratorTest, DeterministicForSeed) {
  GeneratorConfig config;
  config.levels = 3;
  backends::MemStore a, b;
  TestDatabase db_a = BuildMem(&a, config);
  TestDatabase db_b = BuildMem(&b, config);
  ASSERT_EQ(db_a.node_count(), db_b.node_count());
  for (NodeRef node : db_a.all_nodes) {
    EXPECT_EQ(*a.GetAttr(node, Attr::kMillion),
              *b.GetAttr(node, Attr::kMillion));
    std::vector<RefEdge> ea, eb;
    ASSERT_TRUE(a.RefsTo(node, &ea).ok());
    ASSERT_TRUE(b.RefsTo(node, &eb).ok());
    ASSERT_EQ(ea.size(), eb.size());
    EXPECT_EQ(ea[0].node, eb[0].node);
  }
}

TEST(GeneratorTest, DifferentSeedsDiffer) {
  GeneratorConfig c1, c2;
  c1.levels = c2.levels = 3;
  c2.seed = 777;
  backends::MemStore a, b;
  TestDatabase db_a = BuildMem(&a, c1);
  TestDatabase db_b = BuildMem(&b, c2);
  int differing = 0;
  for (NodeRef node : db_a.all_nodes) {
    if (*a.GetAttr(node, Attr::kMillion) !=
        *b.GetAttr(node, Attr::kMillion)) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 100);
}

TEST(GeneratorTest, VariableFanoutAndLevelsSupported) {
  // The paper's N.B.: levels and fanout must not be baked in.
  backends::MemStore store;
  GeneratorConfig config;
  config.levels = 2;
  config.fanout = 3;
  config.parts_per_node = 2;
  config.leaves_per_form = 4;
  TestDatabase db = BuildMem(&store, config);
  EXPECT_EQ(db.node_count(), 1u + 3u + 9u);
  EXPECT_EQ(db.level(2).size(), 9u);
  EXPECT_EQ(db.form_nodes.size(), 2u);  // leaves 9 / 4 -> 2 forms
  for (NodeRef node : db.level(0)) {
    std::vector<NodeRef> parts;
    ASSERT_TRUE(store.Parts(node, &parts).ok());
    EXPECT_EQ(parts.size(), 2u);
  }
}

TEST(GeneratorTest, CreationTimingIsPopulated) {
  backends::MemStore store;
  GeneratorConfig config;
  config.levels = 3;
  CreationTiming timing;
  BuildMem(&store, config, &timing);
  EXPECT_EQ(timing.internal_nodes, 31u);
  EXPECT_EQ(timing.leaf_nodes, 125u);
  EXPECT_EQ(timing.rel_1n, 155u);     // nodes - 1
  EXPECT_EQ(timing.rel_mn, 155u);     // 31 internal x 5
  EXPECT_EQ(timing.rel_mnatt, 156u);  // one per node
  EXPECT_GT(timing.total_ms(), 0.0);
}

// Every generated database must pass the structural verifier: fsck
// re-derives the §4/§5.2 invariants from the config alone, so this is
// the end-to-end cross-check that generator and checker agree on them.
TEST(GeneratorTest, FsckVerifiesGeneratedDatabase) {
  for (int levels : {2, 3}) {
    backends::MemStore store;
    GeneratorConfig config;
    config.levels = levels;
    BuildMem(&store, config);
    analysis::FsckOptions options;
    options.config = config;
    auto report = analysis::RunFsck(&store, options);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(report->ok()) << [&] {
      std::ostringstream os;
      report->PrintTo(os);
      return os.str();
    }();
    EXPECT_EQ(report->nodes_checked, Generator::ExpectedNodeCount(config));
  }
}

// The build's store calls, in order, with their arguments: what an
// in-process backend with no set-at-a-time surface of its own sees
// (`mem`, `rel`, `net`), and so what file layout `rel` and `net` end
// up with. `oodb` takes each phase whole and lays its records out by
// its own write order (OodbLoadMatchesSerialBuild). The constants were
// recorded before the build went set-at-a-time; a change here changes
// every such database.
TEST(GeneratorTest, CallSequenceIsGolden) {
  backends::MemStore mem;
  CallLog log(&mem);
  GeneratorConfig config;
  config.levels = 4;
  config.seed = 42;
  Generator generator(config);
  auto db = generator.Build(&log, nullptr);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ(log.calls, 3757u);
  EXPECT_EQ(log.hash, 18070033841162103408ull);
}

/// The object-store writes of one committed phase: record updates and
/// WAL bytes, Begin to the end of Commit.
struct PhaseWrites {
  uint64_t updates = 0;
  uint64_t wal_bytes = 0;
};

/// A CallLog over an oodb store that passes the set-at-a-time surface
/// through to the store's own and records each phase's writes. The
/// generator commits once per phase.
class PhaseMeter : public CallLog, public FrontierFetch {
 public:
  explicit PhaseMeter(backends::OodbStore* oodb)
      : CallLog(oodb), objects_(oodb->object_store()), fetch_(oodb) {}

  std::vector<PhaseWrites> phases;

  util::Status Begin() override {
    start_ = Now();
    return CallLog::Begin();
  }
  util::Status Commit() override {
    HM_RETURN_IF_ERROR(CallLog::Commit());
    const PhaseWrites end = Now();
    phases.push_back({end.updates - start_.updates,
                      end.wal_bytes - start_.wal_bytes});
    return util::Status::Ok();
  }

  util::Status ChildrenMulti(std::span<const NodeRef> nodes,
                             RefLists* out) override {
    return fetch_->ChildrenMulti(nodes, out);
  }
  util::Status PartsMulti(std::span<const NodeRef> nodes,
                          RefLists* out) override {
    return fetch_->PartsMulti(nodes, out);
  }
  util::Status RefsToMulti(std::span<const NodeRef> nodes,
                           EdgeLists* out) override {
    return fetch_->RefsToMulti(nodes, out);
  }
  util::Status ChildrenAttrsMulti(std::span<const NodeRef> nodes, Attr attr,
                                  RefLists* children,
                                  std::vector<int64_t>* values) override {
    return fetch_->ChildrenAttrsMulti(nodes, attr, children, values);
  }
  util::Status GetAttrsMulti(std::span<const NodeRef> nodes, Attr attr,
                             std::vector<int64_t>* values) override {
    return fetch_->GetAttrsMulti(nodes, attr, values);
  }
  util::Status SetAttrsMulti(std::span<const NodeRef> nodes, Attr attr,
                             std::span<const int64_t> values) override {
    return fetch_->SetAttrsMulti(nodes, attr, values);
  }
  util::Status CreateNodesMulti(std::span<const NodeAttrs> attrs,
                                std::span<const NodeRef> near,
                                std::span<const std::string_view> contents,
                                std::vector<NodeRef>* refs) override {
    return fetch_->CreateNodesMulti(attrs, near, contents, refs);
  }
  util::Status AddChildrenMulti(std::span<const NodeRef> parents,
                                std::span<const NodeRef> children) override {
    return fetch_->AddChildrenMulti(parents, children);
  }
  util::Status AddPartsMulti(std::span<const NodeRef> owners,
                             std::span<const NodeRef> parts) override {
    return fetch_->AddPartsMulti(owners, parts);
  }
  util::Status AddRefsMulti(std::span<const NodeRef> from,
                            std::span<const NodeRef> to,
                            std::span<const int64_t> offset_from,
                            std::span<const int64_t> offset_to) override {
    return fetch_->AddRefsMulti(from, to, offset_from, offset_to);
  }

 private:
  PhaseWrites Now() const {
    return {objects_->stats().objects_updated, objects_->wal()->SizeBytes()};
  }

  objstore::ObjectStore* objects_;
  FrontierFetch* fetch_;
  PhaseWrites start_;
};

// What the load writes, by deterministic count: the record updates and
// WAL bytes of each edge phase of a level-4, seed-42 oodb build (780
// children, 780 parts and 781 refs). Each phase updates every record
// it touches once: all 781 nodes for the children and the refs, the
// 557 distinct owners and parts for the parts. The per-edge build
// made two updates per edge (1560, 1560 and 1562) and wrote 340097,
// 439313 and 477245 WAL bytes.
TEST(GeneratorTest, OodbLoadWritesArePinned) {
  const std::string dir = ::testing::TempDir() + "/hm_generator_writes";
  std::filesystem::remove_all(dir);
  auto oodb = backends::OodbStore::Open(backends::OodbOptions{}, dir);
  ASSERT_TRUE(oodb.ok()) << oodb.status().ToString();
  PhaseMeter meter(oodb->get());
  GeneratorConfig config;
  config.levels = 4;
  config.seed = 42;
  auto db = Generator(config).Build(&meter, nullptr);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_EQ(meter.phases.size(), 5u);
  const PhaseWrites& children = meter.phases[2];
  const PhaseWrites& parts = meter.phases[3];
  const PhaseWrites& refs = meter.phases[4];
  EXPECT_EQ(children.updates, 781u);
  EXPECT_EQ(parts.updates, 557u);
  EXPECT_EQ(refs.updates, 781u);
  EXPECT_EQ(children.wal_bytes, 160895u);
  EXPECT_EQ(parts.wal_bytes, 135263u);
  EXPECT_EQ(refs.wal_bytes, 229583u);
  oodb->reset();
  std::filesystem::remove_all(dir);
}

/// Everything a node holds, with every ref written as its uniqueId:
/// comparable across two stores that built the same database.
struct NodeImage {
  std::vector<int64_t> attrs;
  NodeKind kind = NodeKind::kInternal;
  std::string contents;
  int64_t parent = 0;
  std::vector<int64_t> children, parts, part_of;
  std::vector<std::tuple<int64_t, int64_t, int64_t>> refs_to, refs_from;

  bool operator==(const NodeImage&) const = default;
};

NodeImage ImageOf(HyperStore* store, NodeRef node) {
  auto uid = [store](NodeRef ref) -> int64_t {
    if (ref == kInvalidNode) return 0;
    auto got = store->GetAttr(ref, Attr::kUniqueId);
    EXPECT_TRUE(got.ok()) << got.status().ToString();
    return got.ok() ? *got : -1;
  };
  auto uids = [&](const std::vector<NodeRef>& refs) {
    std::vector<int64_t> out;
    for (NodeRef ref : refs) out.push_back(uid(ref));
    return out;
  };
  auto edges = [&](const std::vector<RefEdge>& list) {
    std::vector<std::tuple<int64_t, int64_t, int64_t>> out;
    for (const RefEdge& e : list) {
      out.emplace_back(uid(e.node), e.offset_from, e.offset_to);
    }
    return out;
  };
  NodeImage image;
  for (Attr attr : {Attr::kUniqueId, Attr::kTen, Attr::kHundred,
                    Attr::kThousand, Attr::kMillion}) {
    image.attrs.push_back(*store->GetAttr(node, attr));
  }
  image.kind = *store->GetKind(node);
  if (image.kind != NodeKind::kInternal) {
    image.contents = *store->GetContents(node);
  }
  image.parent = uid(*store->Parent(node));
  std::vector<NodeRef> refs;
  std::vector<RefEdge> list;
  EXPECT_TRUE(store->Children(node, &refs).ok());
  image.children = uids(refs);
  EXPECT_TRUE(store->Parts(node, &refs).ok());
  image.parts = uids(refs);
  EXPECT_TRUE(store->PartOf(node, &refs).ok());
  image.part_of = uids(refs);
  EXPECT_TRUE(store->RefsTo(node, &list).ok());
  image.refs_to = edges(list);
  EXPECT_TRUE(store->RefsFrom(node, &list).ok());
  image.refs_from = edges(list);
  return image;
}

/// The images of uniqueIds 1..count, looked up by uniqueId.
std::vector<NodeImage> ImagesOf(HyperStore* store, int64_t count) {
  std::vector<NodeImage> images;
  for (int64_t uid = 1; uid <= count; ++uid) {
    auto node = store->LookupUnique(uid);
    EXPECT_TRUE(node.ok()) << "uid " << uid << ": "
                           << node.status().ToString();
    if (node.ok()) images.push_back(ImageOf(store, *node));
  }
  return images;
}

void ExpectFsckClean(HyperStore* store, const GeneratorConfig& config) {
  analysis::FsckOptions options;
  options.config = config;
  auto report = analysis::RunFsck(store, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->ok()) << [&] {
    std::ostringstream os;
    report->PrintTo(os);
    return os.str();
  }();
  EXPECT_EQ(report->nodes_checked, Generator::ExpectedNodeCount(config));
}

// oodb takes the load natively, each edge phase as one write. The
// database must equal the serial build's — the generator's per-item
// calls through a StoreFetch, which a CallLog over the store forces —
// node for node: attributes, contents and all five lists in order.
// Both pass fsck, and both read the same after CloseReopen and after
// recovery from a copy of the live files (a crash image: the commits
// are in the WAL, the data pages not all flushed).
TEST(GeneratorTest, OodbLoadMatchesSerialBuild) {
  const std::string root = ::testing::TempDir() + "/hm_generator_native";
  std::filesystem::remove_all(root);
  GeneratorConfig config;
  config.levels = 4;
  config.seed = 42;
  const auto count = static_cast<int64_t>(Generator::ExpectedNodeCount(config));

  auto native = backends::OodbStore::Open(backends::OodbOptions{},
                                          root + "/native");
  auto serial = backends::OodbStore::Open(backends::OodbOptions{},
                                          root + "/serial");
  ASSERT_TRUE(native.ok()) << native.status().ToString();
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_TRUE(Generator(config).Build(native->get(), nullptr).ok());
  CallLog per_item(serial->get());
  ASSERT_TRUE(Generator(config).Build(&per_item, nullptr).ok());
  EXPECT_EQ(per_item.writes, 3747u);  // the serial build's per-item calls

  const std::vector<NodeImage> expected = ImagesOf(serial->get(), count);
  ASSERT_EQ(expected.size(), static_cast<size_t>(count));
  EXPECT_TRUE(ImagesOf(native->get(), count) == expected);
  ExpectFsckClean(native->get(), config);
  ExpectFsckClean(serial->get(), config);

  for (const char* name : {"native", "serial"}) {
    SCOPED_TRACE(name);
    const std::string dir = root + "/" + name;
    std::filesystem::copy(dir, dir + "_crash",
                          std::filesystem::copy_options::recursive);
    auto& store = std::string_view(name) == "native" ? *native : *serial;
    ASSERT_TRUE(store->CloseReopen().ok());
    EXPECT_TRUE(ImagesOf(store.get(), count) == expected);

    auto recovered =
        backends::OodbStore::Open(backends::OodbOptions{}, dir + "_crash");
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EXPECT_GT((*recovered)->object_store()->recovered_records(), 0u);
    EXPECT_TRUE(ImagesOf(recovered->get(), count) == expected);
    ExpectFsckClean(recovered->get(), config);
  }
  native->reset();
  serial->reset();
  std::filesystem::remove_all(root);
}

// A load write refused on its inputs writes nothing: the second naming
// of one child, a child that already has a parent, spans of different
// sizes, and no open transaction. After Abort the store reads as
// before.
TEST(GeneratorTest, OodbLoadWriteRefusalsWriteNothing) {
  const std::string dir = ::testing::TempDir() + "/hm_generator_refusals";
  std::filesystem::remove_all(dir);
  auto oodb = backends::OodbStore::Open(backends::OodbOptions{}, dir);
  ASSERT_TRUE(oodb.ok()) << oodb.status().ToString();
  backends::OodbStore* store = oodb->get();
  ASSERT_TRUE(store->Begin().ok());
  std::vector<NodeRef> nodes;
  for (int64_t uid = 1; uid <= 3; ++uid) {
    NodeAttrs attrs;
    attrs.unique_id = uid;
    nodes.push_back(*store->CreateNode(attrs, kInvalidNode));
  }
  const NodeRef a = nodes[0], b = nodes[1], c = nodes[2];
  ASSERT_TRUE(store->AddChild(a, b).ok());
  ASSERT_TRUE(store->Commit().ok());
  const std::vector<NodeImage> before = ImagesOf(store, 3);

  const NodeRef twice_parents[] = {a, a};
  const NodeRef twice_children[] = {c, c};
  const NodeRef one[] = {c};
  const NodeRef taken[] = {b};
  const int64_t offsets[] = {1, 2};
  const NodeAttrs attrs[1] = {};
  const std::string_view contents[] = {"", ""};
  std::vector<NodeRef> refs;
  struct Refusal {
    const char* what;
    std::function<util::Status()> call;
    util::StatusCode code;
    std::string_view message;
  };
  const Refusal refusals[] = {
      {"child named twice",
       [&] { return store->AddChildrenMulti(twice_parents, twice_children); },
       util::StatusCode::kInvalidArgument, "node already has a parent"},
      {"child with a parent",
       [&] { return store->AddChildrenMulti(one, taken); },
       util::StatusCode::kInvalidArgument, "node already has a parent"},
      {"children spans",
       [&] { return store->AddChildrenMulti(twice_parents, one); },
       util::StatusCode::kInvalidArgument,
       "AddChildrenMulti: input spans differ in size"},
      {"parts spans", [&] { return store->AddPartsMulti(one, twice_children); },
       util::StatusCode::kInvalidArgument,
       "AddPartsMulti: input spans differ in size"},
      {"refs spans",
       [&] {
         return store->AddRefsMulti(twice_parents, twice_children, offsets,
                                    std::span<const int64_t>(offsets, 1));
       },
       util::StatusCode::kInvalidArgument,
       "AddRefsMulti: input spans differ in size"},
      {"create spans",
       [&] { return store->CreateNodesMulti(attrs, one, contents, &refs); },
       util::StatusCode::kInvalidArgument,
       "CreateNodesMulti: input spans differ in size"},
  };
  objstore::ObjectStore* objects = store->object_store();
  for (const Refusal& refusal : refusals) {
    SCOPED_TRACE(refusal.what);
    ASSERT_TRUE(store->Begin().ok());
    const uint64_t updates = objects->stats().objects_updated;
    const uint64_t created = objects->stats().objects_created;
    util::Status status = refusal.call();
    EXPECT_EQ(status.code(), refusal.code) << status.ToString();
    EXPECT_EQ(status.message(), refusal.message);
    EXPECT_EQ(objects->stats().objects_updated, updates);
    EXPECT_EQ(objects->stats().objects_created, created);
    EXPECT_TRUE(ImagesOf(store, 3) == before);
    ASSERT_TRUE(store->Abort().ok());
    EXPECT_TRUE(ImagesOf(store, 3) == before);
  }
  {
    SCOPED_TRACE("no transaction");
    util::Status status = store->AddChildrenMulti(one, one);
    EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument);
    EXPECT_EQ(status.message(), "no active transaction: call Begin() first");
    EXPECT_TRUE(ImagesOf(store, 3) == before);
  }
  oodb->reset();
  std::filesystem::remove_all(dir);
}

// A build that fails part-way aborts its open phase transaction and
// returns the original error: left open, the transaction would refuse
// the next Begin and pin every later oodb checkpoint. The failing write
// falls in each phase in turn (a level-3 build makes 156 creates, 125
// contents writes, 155 children, 155 parts and 156 refs).
TEST(GeneratorTest, FailedBuildAbortsItsOpenTransaction) {
  const std::string dir = ::testing::TempDir() + "/hm_generator_abort";
  for (uint64_t fail_write : {1, 100, 200, 300, 500, 700}) {
    SCOPED_TRACE("write " + std::to_string(fail_write));
    std::filesystem::remove_all(dir);
    auto oodb = backends::OodbStore::Open(backends::OodbOptions{}, dir);
    ASSERT_TRUE(oodb.ok()) << oodb.status().ToString();
    CallLog log(oodb->get());
    log.fail_write = fail_write;
    GeneratorConfig config;
    config.levels = 3;
    auto db = Generator(config).Build(&log, nullptr);
    EXPECT_EQ(db.status().code(), util::StatusCode::kIoError);
    EXPECT_EQ(db.status().message(),
              "injected failure of write " + std::to_string(fail_write));

    telemetry::Counter* skipped =
        telemetry::Registry::Global().GetCounter("storage.checkpoint.skipped");
    const uint64_t skipped_before = skipped->value();
    ASSERT_TRUE((*oodb)->object_store()->FuzzyCheckpoint().ok());
    EXPECT_EQ(skipped->value(), skipped_before);
    EXPECT_TRUE((*oodb)->Begin().ok());
    EXPECT_TRUE((*oodb)->Abort().ok());
  }
  std::filesystem::remove_all(dir);
}

TEST(GeneratorTest, RejectsDegenerateConfig) {
  backends::MemStore store;
  GeneratorConfig config;
  config.levels = 0;
  Generator generator(config);
  EXPECT_FALSE(generator.Build(&store, nullptr).ok());
}

}  // namespace
}  // namespace hm
