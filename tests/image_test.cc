// Tests for varint coding and the MemStore image snapshot (the
// Smalltalk-80 persistence model: save/load the whole workstation
// image as one binary file).

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "hypermodel/backends/mem_store.h"
#include "hypermodel/generator.h"
#include "hypermodel/operations.h"
#include "util/coding.h"
#include "test_dir.h"

namespace hm {
namespace {

// ---------- Varint coding ----------

TEST(VarintTest, SmallValuesAreOneByte) {
  for (uint64_t v : {0ull, 1ull, 42ull, 127ull}) {
    std::string buf;
    util::PutVarint64(&buf, v);
    EXPECT_EQ(buf.size(), 1u) << v;
    util::Decoder dec(buf);
    uint64_t back = 0;
    ASSERT_TRUE(dec.GetVarint64(&back));
    EXPECT_EQ(back, v);
  }
}

TEST(VarintTest, RoundTripsAcrossMagnitudes) {
  std::string buf;
  std::vector<uint64_t> values = {0, 127, 128, 16383, 16384, 1ull << 32,
                                  ~0ull};
  for (uint64_t v : values) util::PutVarint64(&buf, v);
  util::Decoder dec(buf);
  for (uint64_t v : values) {
    uint64_t back = 0;
    ASSERT_TRUE(dec.GetVarint64(&back));
    EXPECT_EQ(back, v);
  }
  EXPECT_TRUE(dec.Empty());
}

TEST(VarintTest, TruncationDetected) {
  std::string buf;
  util::PutVarint64(&buf, 1ull << 40);
  util::Decoder dec(std::string_view(buf).substr(0, 2));
  uint64_t v;
  EXPECT_FALSE(dec.GetVarint64(&v));
}

TEST(VarintTest, Varint32RejectsOversized) {
  std::string buf;
  util::PutVarint64(&buf, 1ull << 40);
  util::Decoder dec(buf);
  uint32_t v;
  EXPECT_FALSE(dec.GetVarint32(&v));
}

TEST(VarintTest, ZigZagRoundTrip) {
  for (int64_t v : std::vector<int64_t>{0, -1, 1, -64, 64, INT64_MIN,
                                        INT64_MAX}) {
    EXPECT_EQ(util::ZigZagDecode(util::ZigZagEncode(v)), v) << v;
  }
  // Small negatives are small encodings.
  std::string buf;
  util::PutVarSigned64(&buf, -5);
  EXPECT_EQ(buf.size(), 1u);
  util::Decoder dec(buf);
  int64_t back = 0;
  ASSERT_TRUE(dec.GetVarSigned64(&back));
  EXPECT_EQ(back, -5);
}

// ---------- MemStore image ----------

class ImageTest : public ::testing::Test {
 protected:
  test::TestDir tmp_{"hm_image"};
  const std::string path_ = tmp_.path() + "/db.img";
};

TEST_F(ImageTest, SaveLoadRoundTripsFullDatabase) {
  backends::MemStore original;
  GeneratorConfig config;
  config.levels = 3;
  Generator generator(config);
  auto db = generator.Build(&original, nullptr);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE(original.SaveImage(path_).ok());

  backends::MemStore restored;
  ASSERT_TRUE(restored.LoadImage(path_).ok());
  EXPECT_EQ(restored.node_count(), original.node_count());

  // Structure, attributes, contents and indexes all round-trip.
  std::vector<NodeRef> closure_a, closure_b;
  ASSERT_TRUE(ops::Closure1N(&original, db->root, &closure_a).ok());
  ASSERT_TRUE(ops::Closure1N(&restored, db->root, &closure_b).ok());
  EXPECT_EQ(closure_a, closure_b);

  for (NodeRef node : db->text_nodes) {
    EXPECT_EQ(*restored.GetText(node), *original.GetText(node));
  }
  for (NodeRef node : db->form_nodes) {
    EXPECT_EQ(*restored.GetForm(node), *original.GetForm(node));
  }
  for (int64_t uid : {1, 77, 156}) {
    EXPECT_EQ(*restored.LookupUnique(uid), *original.LookupUnique(uid));
  }
  std::vector<NodeRef> range_a, range_b;
  ASSERT_TRUE(original.RangeHundred(10, 19, &range_a).ok());
  ASSERT_TRUE(restored.RangeHundred(10, 19, &range_b).ok());
  std::sort(range_a.begin(), range_a.end());
  std::sort(range_b.begin(), range_b.end());
  EXPECT_EQ(range_a, range_b);

  std::vector<RefEdge> edges_a, edges_b;
  ASSERT_TRUE(original.RefsTo(db->root, &edges_a).ok());
  ASSERT_TRUE(restored.RefsTo(db->root, &edges_b).ok());
  ASSERT_EQ(edges_a.size(), edges_b.size());
  EXPECT_EQ(edges_a[0].node, edges_b[0].node);
  EXPECT_EQ(edges_a[0].offset_to, edges_b[0].offset_to);
}

TEST_F(ImageTest, LoadReplacesExistingContents) {
  backends::MemStore small;
  ASSERT_TRUE(small.Begin().ok());
  NodeAttrs attrs;
  attrs.unique_id = 9001;
  ASSERT_TRUE(small.CreateNode(attrs, kInvalidNode).ok());
  ASSERT_TRUE(small.SaveImage(path_).ok());

  backends::MemStore target;
  GeneratorConfig config;
  config.levels = 2;
  Generator generator(config);
  ASSERT_TRUE(generator.Build(&target, nullptr).ok());
  ASSERT_TRUE(target.LoadImage(path_).ok());
  EXPECT_EQ(target.node_count(), 1u);
  EXPECT_TRUE(target.LookupUnique(9001).ok());
  EXPECT_TRUE(target.LookupUnique(1).status().IsNotFound());
}

TEST_F(ImageTest, MissingFileIsNotFound) {
  backends::MemStore store;
  EXPECT_TRUE(store.LoadImage(path_).IsNotFound());
}

TEST_F(ImageTest, CorruptImageRejected) {
  backends::MemStore original;
  GeneratorConfig config;
  config.levels = 2;
  Generator generator(config);
  ASSERT_TRUE(generator.Build(&original, nullptr).ok());
  ASSERT_TRUE(original.SaveImage(path_).ok());

  // Truncate the tail.
  auto size = std::filesystem::file_size(path_);
  std::filesystem::resize_file(path_, size - 7);
  backends::MemStore broken;
  EXPECT_TRUE(broken.LoadImage(path_).IsCorruption());

  // Smash the magic.
  {
    std::fstream f(path_, std::ios::in | std::ios::out | std::ios::binary);
    f.put('X');
  }
  EXPECT_TRUE(broken.LoadImage(path_).IsCorruption());
}

TEST_F(ImageTest, ImageIsCompact) {
  // Varint encoding keeps the image near the logical data size: a
  // level-3 database (~156 nodes, ~125 texts of ~380 B, one form).
  backends::MemStore store;
  GeneratorConfig config;
  config.levels = 3;
  Generator generator(config);
  ASSERT_TRUE(generator.Build(&store, nullptr).ok());
  ASSERT_TRUE(store.SaveImage(path_).ok());
  auto size = std::filesystem::file_size(path_);
  EXPECT_GT(size, 30'000u);   // real contents present
  EXPECT_LT(size, 300'000u);  // no fixed-width bloat
}

}  // namespace
}  // namespace hm
