// Tests for the §5.2 test-database generator: topology, node counts,
// attribute intervals, contents, determinism and the exact sequence of
// store calls a build makes.

#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <sstream>
#include <string>
#include <string_view>

#include "analysis/fsck.h"
#include "hypermodel/backends/mem_store.h"
#include "hypermodel/backends/oodb_store.h"
#include "hypermodel/generator.h"
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
// in-process backend sees and so what file layout `oodb`, `rel` and
// `net` end up with. The constants were recorded before the build went
// set-at-a-time; a change here changes every in-process database.
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
