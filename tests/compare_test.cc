// The uid-space comparison of two stores (src/analysis/compare.h), the
// code behind bench_shard --verify-level: two builds of one seed
// compare clean, one seeded difference fails exactly the ops that read
// it, and an error on one side is a FAIL record, not an exit.

#include "analysis/compare.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "hypermodel/backends/mem_store.h"
#include "hypermodel/generator.h"

namespace hm::analysis {
namespace {

TestDatabase Build(HyperStore* store, int levels) {
  GeneratorConfig config;
  config.levels = levels;
  auto db = Generator(config).Build(store, nullptr);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  return db.ok() ? *db : TestDatabase{};
}

TEST(CompareTest, TwoBuildsOfOneSeedCompareClean) {
  backends::MemStore a, b;
  const TestDatabase db_a = Build(&a, 3);
  const TestDatabase db_b = Build(&b, 3);
  const CompareReport report = CompareOps(&a, db_a, &b, db_b, 3);
  // Level 3 has text and form nodes, so every probe runs all 24 checks.
  ASSERT_EQ(report.records.size(), 3 * 24u);
  ASSERT_EQ(report.inputs.size(), 3u);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.Failed(), std::vector<std::string>{});
  EXPECT_EQ(report.records.front().name, "01 nameLookup");
  EXPECT_EQ(report.records.back().name, "17 formNodeEdit bitmap");
  EXPECT_EQ(report.records.back().probe, 3);

  // The edits ran there and back: both stores still read alike.
  const auto images_a = ImageOf(&a, db_a);
  const auto images_b = ImageOf(&b, db_b);
  ASSERT_TRUE(images_a.ok() && images_b.ok());
  EXPECT_EQ(images_a->size(), db_a.node_count());
  EXPECT_TRUE(*images_a == *images_b);
  EXPECT_EQ(DifferingUids(*images_a, *images_b), std::vector<int64_t>{});

  // bench_shard --verify-level prints these lines.
  std::ostringstream out;
  report.PrintTo(out);
  const std::string text = out.str();
  EXPECT_EQ(text.rfind(" probe 1/3\n  01 nameLookup               PASS\n", 0),
            0u)
      << text;
  EXPECT_NE(text.find(" probe 3/3\n"), std::string::npos);
  EXPECT_EQ(text.find("FAIL"), std::string::npos);
}

// At level 1 the root is the only internal node and the only closure
// start, so every probe reads the root's parts. An extra part on one
// side fails 05B (the root's parts) and 14 (closureMN from the root)
// on every probe, 07B (partOf) on the probes whose node is that part,
// and nothing else.
TEST(CompareTest, ExtraPartFailsExactlyTheOpsThatReadIt) {
  backends::MemStore a, b;
  const TestDatabase db_a = Build(&a, 1);
  const TestDatabase db_b = Build(&b, 1);
  std::vector<NodeRef> parts;
  ASSERT_TRUE(b.Parts(db_b.root, &parts).ok());
  const auto extra =
      std::find_if(db_b.all_nodes.begin() + 1, db_b.all_nodes.end(),
                   [&](NodeRef leaf) {
                     return std::find(parts.begin(), parts.end(), leaf) ==
                            parts.end();
                   });
  ASSERT_NE(extra, db_b.all_nodes.end()) << "the root owns every leaf";
  const int64_t extra_uid = *b.GetAttr(*extra, Attr::kUniqueId);
  ASSERT_TRUE(b.AddPart(db_b.root, *extra).ok());

  const CompareReport report = CompareOps(&a, db_a, &b, db_b, 3);
  std::vector<std::string> expected;
  for (const ProbeInputs& in : report.inputs) {
    expected.push_back("05B groupLookupMN");
    if (in.any == extra_uid) expected.push_back("07B refLookupMN");
    expected.push_back("14 closureMN");
  }
  EXPECT_EQ(report.Failed(), expected);
  EXPECT_EQ(report.failures(), static_cast<int>(expected.size()));

  const auto images_a = ImageOf(&a, db_a);
  const auto images_b = ImageOf(&b, db_b);
  ASSERT_TRUE(images_a.ok() && images_b.ok());
  EXPECT_EQ(DifferingUids(*images_a, *images_b),
            (std::vector<int64_t>{1, extra_uid}));
}

// A node one side cannot read: each op on it fails there and is
// recorded with both statuses, and the run goes on.
TEST(CompareTest, OneSidedErrorIsAFailRecord) {
  backends::MemStore a, b;
  const TestDatabase db_a = Build(&a, 1);
  TestDatabase db_b = Build(&b, 1);
  db_b.internal_nodes[0] = NodeRef{999};  // no such node on b

  const CompareReport report = CompareOps(&a, db_a, &b, db_b, 2);
  EXPECT_EQ(report.Failed(),
            (std::vector<std::string>{"05A groupLookup1N", "05B groupLookupMN",
                                      "05A groupLookup1N",
                                      "05B groupLookupMN"}));
  for (const CompareRecord& record : report.records) {
    if (record.ok) continue;
    EXPECT_NE(record.detail.find("expected: OK"), std::string::npos)
        << record.detail;
    EXPECT_NE(record.detail.find("got: NotFound"), std::string::npos)
        << record.detail;
  }
  // Every probe ran to its end: level 1 has text nodes, no form node.
  EXPECT_EQ(report.records.size(), 2 * 23u);
  EXPECT_EQ(report.records.back().name, "16 post-edit text bytes");
}

}  // namespace
}  // namespace hm::analysis
