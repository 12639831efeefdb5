// Backend contract suite: every HyperStore implementation must satisfy
// the same observable semantics. Parameterized over {mem, oodb, rel,
// net, remote, shard} so a behaviour divergence between backends fails
// here, not in a benchmark number. The `remote` entry runs the whole
// suite through the wire protocol against an in-process loopback
// server, so every contract guarantee is also a guarantee of the
// serving path; `shard` runs it against a two-shard loopback fleet,
// making every guarantee hold across shard boundaries too.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <random>
#include <span>
#include <string_view>
#include <thread>
#include <tuple>
#include <type_traits>
#include <unordered_set>

#include "cluster/shard_local_store.h"
#include "cluster/shard_map.h"
#include "hypermodel/backends/mem_store.h"
#include "hypermodel/backends/net_store.h"
#include "hypermodel/backends/oodb_store.h"
#include "hypermodel/backends/rel_store.h"
#include "hypermodel/backends/remote_store.h"
#include "hypermodel/backends/replicated_store.h"
#include "hypermodel/backends/sharded_store.h"
#include "hypermodel/operations.h"
#include "hypermodel/store.h"
#include "hypermodel/traversal.h"
#include "replication/node.h"
#include "test_dir.h"

namespace hm {
namespace {

struct BackendFactory {
  std::string name;
  std::function<std::unique_ptr<HyperStore>(const std::string& dir)> make;
};

std::vector<BackendFactory> Factories() {
  return {
      {"mem",
       [](const std::string&) -> std::unique_ptr<HyperStore> {
         return std::make_unique<backends::MemStore>();
       }},
      {"oodb",
       [](const std::string& dir) -> std::unique_ptr<HyperStore> {
         auto store = backends::OodbStore::Open(backends::OodbOptions{},
                                                dir + "/oodb");
         EXPECT_TRUE(store.ok()) << store.status().ToString();
         return std::move(*store);
       }},
      {"rel",
       [](const std::string& dir) -> std::unique_ptr<HyperStore> {
         auto store =
             backends::RelStore::Open(backends::RelOptions{}, dir + "/rel");
         EXPECT_TRUE(store.ok()) << store.status().ToString();
         return std::move(*store);
       }},
      {"net",
       [](const std::string& dir) -> std::unique_ptr<HyperStore> {
         auto store =
             backends::NetStore::Open(backends::NetOptions{}, dir + "/net");
         EXPECT_TRUE(store.ok()) << store.status().ToString();
         return std::move(*store);
       }},
      {"remote",
       [](const std::string&) -> std::unique_ptr<HyperStore> {
         // Server on a loopback in-process thread wrapping a MemStore;
         // the contract then exercises the wire path end-to-end.
         auto store =
             backends::RemoteStore::Loopback(std::make_unique<backends::MemStore>());
         EXPECT_TRUE(store.ok()) << store.status().ToString();
         return std::move(*store);
       }},
      {"shard",
       [](const std::string&) -> std::unique_ptr<HyperStore> {
         // Two-shard fleet; `near` hints spread nodes across both, so
         // the contract exercises cross-shard edges and proxy refs.
         auto store = backends::ShardedStore::Loopback(2);
         EXPECT_TRUE(store.ok()) << store.status().ToString();
         return std::move(*store);
       }},
  };
}

/// Navigation-at-a-time reference walks, written straight from the §6.6
/// definitions and independent of the level-synchronous engine: the
/// differential oracle every routed closure must match.
namespace reference {

void Preorder(HyperStore* store, NodeRef node, const int64_t* band,
              std::vector<NodeRef>* out) {
  if (band != nullptr) {
    auto million = store->GetAttr(node, Attr::kMillion);
    ASSERT_TRUE(million.ok());
    if (*million >= band[0] && *million <= band[1]) return;  // pruned
  }
  out->push_back(node);
  std::vector<NodeRef> children;
  ASSERT_TRUE(store->Children(node, &children).ok());
  for (NodeRef child : children) Preorder(store, child, band, out);
}

std::vector<NodeRef> PartsDfs(HyperStore* store, NodeRef start) {
  std::vector<NodeRef> out;
  std::unordered_set<NodeRef> visited;
  std::vector<NodeRef> stack{start};
  while (!stack.empty()) {
    NodeRef node = stack.back();
    stack.pop_back();
    if (!visited.insert(node).second) continue;
    out.push_back(node);
    std::vector<NodeRef> parts;
    EXPECT_TRUE(store->Parts(node, &parts).ok());
    stack.insert(stack.end(), parts.rbegin(), parts.rend());
  }
  return out;
}

std::vector<NodeDistance> RefsBfs(HyperStore* store, NodeRef start,
                                  int depth) {
  std::vector<NodeDistance> out{{start, 0}};
  std::unordered_set<NodeRef> visited{start};
  size_t begin = 0;
  for (int level = 0; level < depth; ++level) {
    const size_t end = out.size();
    for (size_t i = begin; i < end; ++i) {
      std::vector<RefEdge> edges;
      EXPECT_TRUE(store->RefsTo(out[i].node, &edges).ok());
      for (const RefEdge& edge : edges) {
        if (visited.insert(edge.node).second) {
          out.push_back({edge.node, out[i].distance + edge.offset_to});
        }
      }
    }
    begin = end;
  }
  return out;
}

}  // namespace reference

/// ChildrenAndAttr(node, attr) against Children(node) then
/// GetAttr(node, attr): the status of the first that fails, else the
/// same list (replacing what the output held) and the same value.
void ExpectChildrenAndAttrMatches(HyperStore* store, NodeRef node,
                                  Attr attr) {
  const std::string what = "node " + std::to_string(node) + " attr " +
                           std::to_string(static_cast<int>(attr));
  std::vector<NodeRef> children;
  util::Status expected = store->Children(node, &children);
  int64_t value = 0;
  if (expected.ok()) {
    util::Result<int64_t> got = store->GetAttr(node, attr);
    expected = got.status();
    if (got.ok()) value = *got;
  }
  std::vector<NodeRef> fused{kInvalidNode, kInvalidNode};
  int64_t fused_value = 0;
  util::Status status =
      store->ChildrenAndAttr(node, attr, &fused, &fused_value);
  EXPECT_EQ(status.code(), expected.code())
      << what << ": " << status.ToString() << " vs " << expected.ToString();
  if (!status.ok() || !expected.ok()) return;
  EXPECT_EQ(fused, children) << what;
  EXPECT_EQ(fused_value, value) << what;
}

constexpr Attr kAllAttrs[] = {Attr::kUniqueId, Attr::kTen, Attr::kHundred,
                              Attr::kThousand, Attr::kMillion};
/// One past kMillion: refused on the wire, by each backend as it does
/// today in process.
constexpr Attr kBadAttr = static_cast<Attr>(5);

class StoreContractTest : public ::testing::TestWithParam<size_t> {
 protected:
  void SetUp() override {
    factory_ = Factories()[GetParam()];
    store_ = factory_.make(dir_.path());
    ASSERT_NE(store_, nullptr);
  }
  void TearDown() override { store_.reset(); }

  NodeAttrs Attrs(int64_t uid, NodeKind kind = NodeKind::kInternal) {
    NodeAttrs attrs;
    attrs.unique_id = uid;
    attrs.ten = uid % 10 + 1;
    attrs.hundred = uid % 100 + 1;
    attrs.thousand = uid % 1000 + 1;
    attrs.million = uid * 37 % 1000000 + 1;
    attrs.kind = kind;
    return attrs;
  }

  NodeRef Create(int64_t uid, NodeKind kind = NodeKind::kInternal,
                 NodeRef near = kInvalidNode) {
    auto ref = store_->CreateNode(Attrs(uid, kind), near);
    EXPECT_TRUE(ref.ok()) << ref.status().ToString();
    return ref.ok() ? *ref : kInvalidNode;
  }

  test::TestDir dir_{"hm_contract"};
  BackendFactory factory_;
  std::unique_ptr<HyperStore> store_;
};

TEST_P(StoreContractTest, NameReportsBackend) {
  EXPECT_EQ(store_->name(), factory_.name);
}

TEST_P(StoreContractTest, CreateAndGetAttrs) {
  ASSERT_TRUE(store_->Begin().ok());
  NodeRef node = Create(17);
  ASSERT_TRUE(store_->Commit().ok());
  EXPECT_EQ(*store_->GetAttr(node, Attr::kUniqueId), 17);
  EXPECT_EQ(*store_->GetAttr(node, Attr::kTen), 8);
  EXPECT_EQ(*store_->GetAttr(node, Attr::kHundred), 18);
  EXPECT_EQ(*store_->GetAttr(node, Attr::kThousand), 18);
  EXPECT_EQ(*store_->GetAttr(node, Attr::kMillion), 17 * 37 + 1);
  EXPECT_EQ(*store_->GetKind(node), NodeKind::kInternal);
}

TEST_P(StoreContractTest, DuplicateUniqueIdRejected) {
  ASSERT_TRUE(store_->Begin().ok());
  Create(5);
  EXPECT_FALSE(store_->CreateNode(Attrs(5), kInvalidNode).ok());
  ASSERT_TRUE(store_->Commit().ok());
}

TEST_P(StoreContractTest, LookupUniqueFindsNode) {
  ASSERT_TRUE(store_->Begin().ok());
  NodeRef node = Create(123);
  ASSERT_TRUE(store_->Commit().ok());
  auto found = store_->LookupUnique(123);
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(*found, node);
  EXPECT_TRUE(store_->LookupUnique(999).status().IsNotFound());
}

TEST_P(StoreContractTest, SetAttrUpdatesValueAndIndexes) {
  ASSERT_TRUE(store_->Begin().ok());
  NodeRef node = Create(1);
  ASSERT_TRUE(store_->SetAttr(node, Attr::kHundred, 55).ok());
  ASSERT_TRUE(store_->SetAttr(node, Attr::kMillion, 777777).ok());
  ASSERT_TRUE(store_->Commit().ok());
  EXPECT_EQ(*store_->GetAttr(node, Attr::kHundred), 55);

  std::vector<NodeRef> out;
  ASSERT_TRUE(store_->RangeHundred(55, 55, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], node);
  out.clear();
  // The old hundred value (2) must no longer match.
  ASSERT_TRUE(store_->RangeHundred(2, 2, &out).ok());
  EXPECT_TRUE(out.empty());
  out.clear();
  ASSERT_TRUE(store_->RangeMillion(777777, 777777, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], node);
}

TEST_P(StoreContractTest, UniqueIdIsImmutable) {
  ASSERT_TRUE(store_->Begin().ok());
  NodeRef node = Create(1);
  EXPECT_FALSE(store_->SetAttr(node, Attr::kUniqueId, 2).ok());
  ASSERT_TRUE(store_->Commit().ok());
}

TEST_P(StoreContractTest, SetAttrsMultiAppliesItemsInInputOrder) {
  ASSERT_TRUE(store_->Begin().ok());
  const NodeRef a = Create(1);  // hundred 2
  const NodeRef b = Create(2);  // hundred 3
  ASSERT_TRUE(store_->Commit().ok());
  FetchFor fetch(store_.get());
  // `a` named twice ends as two SetAttrs leave it: with the later
  // value, indexed under that value alone.
  const std::vector<NodeRef> nodes{a, b, a};
  const std::vector<int64_t> values{40, 50, 60};
  ASSERT_TRUE(store_->Begin().ok());
  ASSERT_TRUE(fetch.get()->SetAttrsMulti(nodes, Attr::kHundred, values).ok());
  ASSERT_TRUE(store_->Commit().ok());
  // uniqueId is refused and nothing is written.
  ASSERT_TRUE(store_->Begin().ok());
  EXPECT_FALSE(
      fetch.get()->SetAttrsMulti(nodes, Attr::kUniqueId, values).ok());
  ASSERT_TRUE(store_->Commit().ok());

  EXPECT_EQ(*store_->GetAttr(a, Attr::kHundred), 60);
  EXPECT_EQ(*store_->GetAttr(b, Attr::kHundred), 50);
  EXPECT_EQ(*store_->GetAttr(a, Attr::kUniqueId), 1);
  EXPECT_EQ(*store_->GetAttr(b, Attr::kUniqueId), 2);
  EXPECT_EQ(*store_->LookupUnique(1), a);
  EXPECT_EQ(*store_->LookupUnique(2), b);
  auto range = [this](int64_t lo, int64_t hi) {
    std::vector<NodeRef> out;
    EXPECT_TRUE(store_->RangeHundred(lo, hi, &out).ok());
    std::sort(out.begin(), out.end());
    return out;
  };
  std::vector<NodeRef> both{a, b};
  std::sort(both.begin(), both.end());
  EXPECT_EQ(range(1, 100), both);
  EXPECT_TRUE(range(1, 49).empty());
  EXPECT_EQ(range(50, 50), std::vector<NodeRef>{b});
  EXPECT_TRUE(range(51, 59).empty());
  EXPECT_EQ(range(60, 60), std::vector<NodeRef>{a});
}

TEST_P(StoreContractTest, RangeLookupsReturnMatches) {
  ASSERT_TRUE(store_->Begin().ok());
  std::vector<NodeRef> nodes;
  for (int64_t uid = 1; uid <= 200; ++uid) nodes.push_back(Create(uid));
  ASSERT_TRUE(store_->Commit().ok());

  std::vector<NodeRef> out;
  ASSERT_TRUE(store_->RangeHundred(10, 19, &out).ok());
  // hundred = uid % 100 + 1, so hundred in [10,19] <=> uid%100 in [9,18]:
  // 10 values x 2 cycles = 20 nodes.
  EXPECT_EQ(out.size(), 20u);
  for (NodeRef node : out) {
    int64_t hundred = *store_->GetAttr(node, Attr::kHundred);
    EXPECT_GE(hundred, 10);
    EXPECT_LE(hundred, 19);
  }
  out.clear();
  ASSERT_TRUE(store_->RangeHundred(500, 600, &out).ok());
  EXPECT_TRUE(out.empty());
}

TEST_P(StoreContractTest, ChildrenAreOrdered) {
  ASSERT_TRUE(store_->Begin().ok());
  NodeRef parent = Create(1);
  std::vector<NodeRef> kids;
  for (int64_t uid = 2; uid <= 6; ++uid) {
    NodeRef kid = Create(uid, NodeKind::kInternal, parent);
    kids.push_back(kid);
    ASSERT_TRUE(store_->AddChild(parent, kid).ok());
  }
  ASSERT_TRUE(store_->Commit().ok());

  std::vector<NodeRef> children;
  ASSERT_TRUE(store_->Children(parent, &children).ok());
  EXPECT_EQ(children, kids);  // insertion order preserved (§5.1: ordered)
  for (NodeRef kid : kids) {
    EXPECT_EQ(*store_->Parent(kid), parent);
  }
  EXPECT_EQ(*store_->Parent(parent), kInvalidNode);  // the root
}

TEST_P(StoreContractTest, SecondParentRejected) {
  ASSERT_TRUE(store_->Begin().ok());
  NodeRef a = Create(1);
  NodeRef b = Create(2);
  NodeRef child = Create(3);
  ASSERT_TRUE(store_->AddChild(a, child).ok());
  EXPECT_FALSE(store_->AddChild(b, child).ok());  // 1-N: one parent
  ASSERT_TRUE(store_->Commit().ok());
}

// A node is not its own child: the 1-N self-cycle would never end a
// §6.6 pre-order closure. The refused call writes nothing.
TEST_P(StoreContractTest, SelfChildRejected) {
  ASSERT_TRUE(store_->Begin().ok());
  NodeRef a = Create(1);
  EXPECT_EQ(store_->AddChild(a, a).code(),
            util::StatusCode::kInvalidArgument);
  ASSERT_TRUE(store_->Commit().ok());
  EXPECT_EQ(store_->Parent(a).ValueOr(a), kInvalidNode);
  std::vector<NodeRef> children;
  ASSERT_TRUE(store_->Children(a, &children).ok());
  EXPECT_TRUE(children.empty());
}

TEST_P(StoreContractTest, PartsBothDirections) {
  ASSERT_TRUE(store_->Begin().ok());
  NodeRef owner1 = Create(1);
  NodeRef owner2 = Create(2);
  NodeRef shared = Create(3);
  ASSERT_TRUE(store_->AddPart(owner1, shared).ok());
  ASSERT_TRUE(store_->AddPart(owner2, shared).ok());  // M-N: shared part
  ASSERT_TRUE(store_->Commit().ok());

  std::vector<NodeRef> parts;
  ASSERT_TRUE(store_->Parts(owner1, &parts).ok());
  EXPECT_EQ(parts, std::vector<NodeRef>{shared});
  std::vector<NodeRef> owners;
  ASSERT_TRUE(store_->PartOf(shared, &owners).ok());
  std::sort(owners.begin(), owners.end());
  EXPECT_EQ(owners, (std::vector<NodeRef>{owner1, owner2}));
}

TEST_P(StoreContractTest, RefsCarryOffsets) {
  ASSERT_TRUE(store_->Begin().ok());
  NodeRef a = Create(1);
  NodeRef b = Create(2);
  ASSERT_TRUE(store_->AddRef(a, b, 3, 7).ok());
  ASSERT_TRUE(store_->Commit().ok());

  std::vector<RefEdge> out_edges;
  ASSERT_TRUE(store_->RefsTo(a, &out_edges).ok());
  ASSERT_EQ(out_edges.size(), 1u);
  EXPECT_EQ(out_edges[0].node, b);
  EXPECT_EQ(out_edges[0].offset_from, 3);
  EXPECT_EQ(out_edges[0].offset_to, 7);

  std::vector<RefEdge> in_edges;
  ASSERT_TRUE(store_->RefsFrom(b, &in_edges).ok());
  ASSERT_EQ(in_edges.size(), 1u);
  EXPECT_EQ(in_edges[0].node, a);

  // refsFrom of an unreferenced node is empty, not an error (§6.4).
  in_edges.clear();
  ASSERT_TRUE(store_->RefsFrom(a, &in_edges).ok());
  EXPECT_TRUE(in_edges.empty());
}

// A self-edge lands in both of the node's lists: the ref in refsTo and
// refsFrom, and (M-N) the part in parts and partOf.
TEST_P(StoreContractTest, SelfReferenceAllowed) {
  ASSERT_TRUE(store_->Begin().ok());
  NodeRef a = Create(1);
  ASSERT_TRUE(store_->AddRef(a, a, 1, 2).ok());
  ASSERT_TRUE(store_->AddPart(a, a).ok());
  ASSERT_TRUE(store_->Commit().ok());
  std::vector<NodeRef> parts, owners;
  ASSERT_TRUE(store_->Parts(a, &parts).ok());
  ASSERT_TRUE(store_->PartOf(a, &owners).ok());
  EXPECT_EQ(parts, std::vector<NodeRef>{a});
  EXPECT_EQ(owners, std::vector<NodeRef>{a});
  std::vector<RefEdge> out_edges;
  ASSERT_TRUE(store_->RefsTo(a, &out_edges).ok());
  ASSERT_EQ(out_edges.size(), 1u);
  EXPECT_EQ(out_edges[0].node, a);
  std::vector<RefEdge> in_edges;
  ASSERT_TRUE(store_->RefsFrom(a, &in_edges).ok());
  EXPECT_EQ(in_edges.size(), 1u);
}

TEST_P(StoreContractTest, TextContentsRoundTrip) {
  ASSERT_TRUE(store_->Begin().ok());
  NodeRef node = Create(1, NodeKind::kText);
  ASSERT_TRUE(store_->SetText(node, "version1 middle version1").ok());
  ASSERT_TRUE(store_->Commit().ok());
  EXPECT_EQ(*store_->GetText(node), "version1 middle version1");

  // Growing rewrite (version-2 is longer).
  ASSERT_TRUE(store_->Begin().ok());
  ASSERT_TRUE(store_->SetText(node, "version-2 middle version-2").ok());
  ASSERT_TRUE(store_->Commit().ok());
  EXPECT_EQ(*store_->GetText(node), "version-2 middle version-2");
}

TEST_P(StoreContractTest, TextOpsRejectNonTextNodes) {
  ASSERT_TRUE(store_->Begin().ok());
  NodeRef internal = Create(1, NodeKind::kInternal);
  EXPECT_FALSE(store_->SetText(internal, "x").ok());
  EXPECT_FALSE(store_->GetText(internal).ok());
  ASSERT_TRUE(store_->Commit().ok());
}

TEST_P(StoreContractTest, FormContentsRoundTrip) {
  ASSERT_TRUE(store_->Begin().ok());
  NodeRef node = Create(1, NodeKind::kForm);
  util::Bitmap bitmap(300, 250);
  ASSERT_TRUE(bitmap.InvertRect(10, 10, 50, 50).ok());
  ASSERT_TRUE(store_->SetForm(node, bitmap).ok());
  ASSERT_TRUE(store_->Commit().ok());
  auto back = store_->GetForm(node);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, bitmap);
  EXPECT_EQ(back->PopCount(), 2500u);
}

TEST_P(StoreContractTest, PersistsAcrossCloseReopen) {
  ASSERT_TRUE(store_->Begin().ok());
  NodeRef parent = Create(1);
  NodeRef child = Create(2, NodeKind::kText, parent);
  ASSERT_TRUE(store_->AddChild(parent, child).ok());
  ASSERT_TRUE(store_->SetText(child, "persistent text").ok());
  ASSERT_TRUE(store_->Commit().ok());

  ASSERT_TRUE(store_->CloseReopen().ok());

  std::vector<NodeRef> children;
  ASSERT_TRUE(store_->Children(parent, &children).ok());
  EXPECT_EQ(children, std::vector<NodeRef>{child});
  EXPECT_EQ(*store_->GetText(child), "persistent text");
  EXPECT_EQ(*store_->LookupUnique(1), parent);
}

TEST_P(StoreContractTest, ChildrenAndAttrIsChildrenThenGetAttr) {
  // The closure engine's per-node read must be exactly the two calls it
  // stands for, whether a backend fuses them or takes the default: on
  // a root, an inner node spread across shards and a leaf, for every
  // attribute, and with the same status on a missing node or an
  // attribute out of range.
  ASSERT_TRUE(store_->Begin().ok());
  NodeRef root = Create(1);
  std::vector<NodeRef> nodes{root};
  for (int64_t uid = 2; uid <= 9; ++uid) {
    const NodeRef parent = nodes[static_cast<size_t>(uid / 3)];
    NodeRef node = Create(uid, NodeKind::kInternal, uid <= 4 ? root : parent);
    ASSERT_TRUE(store_->AddChild(parent, node).ok());
    nodes.push_back(node);
  }
  ASSERT_TRUE(store_->Commit().ok());

  for (NodeRef node : nodes) {
    for (Attr attr : kAllAttrs) {
      ExpectChildrenAndAttrMatches(store_.get(), node, attr);
    }
  }
  ExpectChildrenAndAttrMatches(store_.get(), 987654, Attr::kTen);
  ExpectChildrenAndAttrMatches(store_.get(), root, kBadAttr);
  ExpectChildrenAndAttrMatches(store_.get(), nodes.back(), kBadAttr);
}

TEST(ShardLocalStoreContract, ChildrenAndAttrTranslatesAndRefusesForeignRefs) {
  // The decorator's fused read is the base's, translated like Children:
  // a cross-shard child comes back as the foreign global ref, never as
  // the proxy standing for it; a foreign node answers kOutOfRange, and
  // a ref naming the proxy's own slot NotFound.
  auto wrapped = cluster::ShardLocalStore::Wrap(
      {0, 2}, std::make_unique<backends::MemStore>());
  ASSERT_TRUE(wrapped.ok()) << wrapped.status().ToString();
  cluster::ShardLocalStore* store = wrapped->get();
  auto attrs = [](int64_t uid) {
    return NodeAttrs{uid, uid % 10, uid % 100, uid % 1000, uid * 37,
                     NodeKind::kInternal};
  };
  auto parent = store->CreateNode(attrs(1), kInvalidNode);
  auto child = store->CreateNode(attrs(2), kInvalidNode);
  ASSERT_TRUE(parent.ok() && child.ok());
  const NodeRef foreign = cluster::GlobalRef(1, 7);
  ASSERT_TRUE(store->AddChild(*parent, *child).ok());
  ASSERT_TRUE(store->AddChild(*parent, foreign).ok());

  for (NodeRef node : {*parent, *child, foreign}) {
    for (Attr attr : kAllAttrs) ExpectChildrenAndAttrMatches(store, node, attr);
    ExpectChildrenAndAttrMatches(store, node, kBadAttr);
  }
  std::vector<NodeRef> children;
  int64_t value = 0;
  ASSERT_TRUE(
      store->ChildrenAndAttr(*parent, Attr::kMillion, &children, &value).ok());
  EXPECT_EQ(children, (std::vector<NodeRef>{*child, foreign}));
  EXPECT_EQ(value, 37);
  EXPECT_EQ(store->ChildrenAndAttr(foreign, Attr::kTen, &children, &value)
                .code(),
            util::StatusCode::kOutOfRange);
  // The proxy took the next local slot after the two real nodes.
  const NodeRef proxy_slot = cluster::GlobalRef(0, 3);
  EXPECT_TRUE(store->ChildrenAndAttr(proxy_slot, Attr::kTen, &children, &value)
                  .IsNotFound());
  ExpectChildrenAndAttrMatches(store, proxy_slot, Attr::kTen);
}

TEST_P(StoreContractTest, GetAttrOnMissingNodeFails) {
  EXPECT_FALSE(store_->GetAttr(987654, Attr::kTen).ok());
}

TEST_P(StoreContractTest, StorageBytesGrowsWithData) {
  ASSERT_TRUE(store_->Begin().ok());
  auto empty = store_->StorageBytes();
  ASSERT_TRUE(empty.ok());
  for (int64_t uid = 1; uid <= 200; ++uid) {
    NodeRef node = Create(uid, NodeKind::kText);
    ASSERT_TRUE(store_->SetText(node, std::string(300, 't')).ok());
  }
  ASSERT_TRUE(store_->Commit().ok());
  auto full = store_->StorageBytes();
  ASSERT_TRUE(full.ok());
  EXPECT_GT(*full, *empty);
}

TEST_P(StoreContractTest, CapabilityTraversalsMatchGenericKernels) {
  // ops:: routes through TraversalCapable when the backend offers it
  // (remote pushes the walk across the wire, shard scatters it) and
  // runs the traversal engine in-process otherwise. Whichever path a
  // backend takes, the results must be byte-identical to the
  // navigation-at-a-time reference walks against the same store.
  ASSERT_TRUE(store_->Begin().ok());
  NodeRef root = Create(1);
  std::vector<NodeRef> nodes{root};
  for (int64_t uid = 2; uid <= 40; ++uid) {
    NodeRef node = Create(uid);
    ASSERT_TRUE(
        store_->AddChild(nodes[static_cast<size_t>(uid / 3)], node).ok());
    // A parts DAG with sharing (two owners for every third node) and
    // weighted ref edges so the M-N walks have real work to do.
    ASSERT_TRUE(store_->AddPart(nodes.back(), node).ok());
    if (uid % 3 == 0) {
      ASSERT_TRUE(store_->AddPart(nodes[nodes.size() / 2], node).ok());
    }
    ASSERT_TRUE(store_->AddRef(nodes.back(), node, uid, uid % 7 + 1).ok());
    nodes.push_back(node);
  }
  ASSERT_TRUE(store_->Commit().ok());

  HyperStore* store = store_.get();
  std::vector<NodeRef> closure;
  reference::Preorder(store, root, nullptr, &closure);
  ASSERT_EQ(closure.size(), nodes.size());
  {
    std::vector<NodeRef> routed;
    ASSERT_TRUE(ops::Closure1N(store, root, &routed).ok());
    EXPECT_EQ(routed, closure);
  }
  {
    uint64_t visited = 0;
    auto routed = ops::Closure1NAttSum(store, root, &visited);
    ASSERT_TRUE(routed.ok());
    int64_t sum = 0;
    for (NodeRef node : closure) sum += *store->GetAttr(node, Attr::kHundred);
    EXPECT_EQ(*routed, sum);
    EXPECT_EQ(visited, closure.size());
  }
  {
    // The predicate walk prunes whole subtrees; both paths must prune
    // identically. million = uid * 37 % 1e6 + 1 scatters values, so
    // pick a band that excludes some of the 40 nodes but not all.
    std::vector<NodeRef> routed, expected;
    ASSERT_TRUE(ops::Closure1NPred(store, root, 300, &routed).ok());
    const int64_t band[2] = {300, 300 + 9999};
    reference::Preorder(store, root, band, &expected);
    EXPECT_EQ(routed, expected);
    EXPECT_LT(routed.size(), closure.size());
    EXPECT_FALSE(routed.empty());
  }
  {
    std::vector<NodeRef> routed;
    ASSERT_TRUE(ops::ClosureMN(store, root, &routed).ok());
    EXPECT_EQ(routed, reference::PartsDfs(store, root));
  }
  for (int depth : {0, 2, 50}) {
    std::vector<NodeDistance> expected =
        reference::RefsBfs(store, root, depth);
    std::vector<NodeRef> routed;
    ASSERT_TRUE(ops::ClosureMNAtt(store, root, depth, &routed).ok());
    ASSERT_EQ(routed.size(), expected.size()) << "depth " << depth;
    for (size_t i = 0; i < routed.size(); ++i) {
      EXPECT_EQ(routed[i], expected[i].node);
    }

    std::vector<NodeDistance> routed_d;
    ASSERT_TRUE(
        ops::ClosureMNAttLinkSum(store, root, depth, &routed_d).ok());
    ASSERT_EQ(routed_d.size(), expected.size()) << "depth " << depth;
    for (size_t i = 0; i < routed_d.size(); ++i) {
      EXPECT_EQ(routed_d[i].node, expected[i].node);
      EXPECT_EQ(routed_d[i].distance, expected[i].distance);
    }
  }
  {
    // The mutating kernel: hundred := 99 - hundred over exactly the
    // 1-N closure, on every node of it.
    std::vector<int64_t> before;
    for (NodeRef node : closure) {
      before.push_back(*store->GetAttr(node, Attr::kHundred));
    }
    ASSERT_TRUE(store_->Begin().ok());
    auto routed = ops::Closure1NAttSet(store, root);
    ASSERT_TRUE(routed.ok());
    ASSERT_TRUE(store_->Commit().ok());
    EXPECT_EQ(*routed, closure.size());
    for (size_t i = 0; i < closure.size(); ++i) {
      EXPECT_EQ(*store->GetAttr(closure[i], Attr::kHundred), 99 - before[i]);
    }
  }
  {
    // BulkGetAttr (the SeqScan capability) positionally matches
    // per-node GetAttr.
    std::vector<int64_t> bulk;
    if (auto* trav = dynamic_cast<TraversalCapable*>(store)) {
      ASSERT_TRUE(trav->BulkGetAttr(nodes, Attr::kMillion, &bulk).ok());
    } else {
      ASSERT_TRUE(
          StoreFetch(store).GetAttrsMulti(nodes, Attr::kMillion, &bulk).ok());
    }
    ASSERT_EQ(bulk.size(), nodes.size());
    for (size_t i = 0; i < nodes.size(); ++i) {
      auto one = store->GetAttr(nodes[i], Attr::kMillion);
      ASSERT_TRUE(one.ok());
      EXPECT_EQ(bulk[i], *one) << "node " << i;
    }
  }
}

// Builds nodes with uniqueId 1..`count` under one transaction: node
// `uid` is a child of node `uid / 3 + 1`. Returns each node's expected
// child list, indexed by uniqueId.
std::vector<std::vector<NodeRef>> BuildReaderTree(HyperStore* store,
                                                  int64_t count) {
  std::vector<std::vector<NodeRef>> children(static_cast<size_t>(count + 1));
  std::vector<NodeRef> nodes{kInvalidNode};  // indexed by uniqueId
  EXPECT_TRUE(store->Begin().ok());
  for (int64_t uid = 1; uid <= count; ++uid) {
    NodeAttrs attrs;
    attrs.unique_id = uid;
    attrs.ten = uid % 10 + 1;
    attrs.hundred = uid % 100 + 1;
    attrs.thousand = uid % 1000 + 1;
    attrs.million = uid * 37 % 1000000 + 1;
    auto node = store->CreateNode(attrs, kInvalidNode);
    EXPECT_TRUE(node.ok()) << node.status().ToString();
    nodes.push_back(node.ok() ? *node : kInvalidNode);
    if (uid == 1) continue;
    const int64_t parent = uid / 3 + 1;
    EXPECT_TRUE(store->AddChild(nodes[static_cast<size_t>(parent)],
                                nodes.back())
                    .ok());
    children[static_cast<size_t>(parent)].push_back(nodes.back());
  }
  EXPECT_TRUE(store->Commit().ok());
  return children;
}

// Runs `threads` readers of random nodes of a BuildReaderTree tree at
// once; each checks the attributes and the exact child list it reads.
// Returns the number of readers that saw a failed or wrong read.
int ConcurrentReaderFailures(
    HyperStore* store, int threads, int iters_per_thread,
    const std::vector<std::vector<NodeRef>>& children) {
  const int64_t count = static_cast<int64_t>(children.size()) - 1;
  std::atomic<int> failures{0};
  auto reader = [&](int seed) {
    std::mt19937 rng(static_cast<unsigned>(seed));
    std::uniform_int_distribution<int64_t> pick(1, count);
    std::vector<NodeRef> got;
    for (int i = 0; i < iters_per_thread; ++i) {
      const int64_t uid = pick(rng);
      auto node = store->LookupUnique(uid);
      if (!node.ok()) {
        failures.fetch_add(1);
        return;
      }
      auto unique = store->GetAttr(*node, Attr::kUniqueId);
      auto hundred = store->GetAttr(*node, Attr::kHundred);
      if (!unique.ok() || *unique != uid || !hundred.ok() ||
          *hundred != uid % 100 + 1) {
        failures.fetch_add(1);
        return;
      }
      got.clear();
      if (!store->Children(*node, &got).ok() ||
          got != children[static_cast<size_t>(uid)]) {
        failures.fetch_add(1);
        return;
      }
      std::vector<NodeRef> band;
      if (!store->RangeHundred(10, 19, &band).ok() || band.empty()) {
        failures.fetch_add(1);
        return;
      }
    }
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) pool.emplace_back(reader, 7 + t);
  for (auto& th : pool) th.join();
  return failures.load();
}

TEST_P(StoreContractTest, ConcurrentReadersSeeConsistentData) {
  // The persistent page-based backends latch-crawl their reads and
  // advertise it alongside mem; net/remote stay read-serial (remote's
  // server decides per its own backend, the client stub itself is one
  // socket and stays conservative).
  const bool expect_parallel = factory_.name == "mem" ||
                               factory_.name == "oodb" ||
                               factory_.name == "rel";
  EXPECT_EQ(store_->SupportsConcurrentReads(), expect_parallel);

  const auto children = BuildReaderTree(store_.get(), 120);
  // Only backends that advertise the capability must survive races;
  // running the readers unthreaded everywhere keeps the checks
  // themselves covered for every backend.
  const int threads = store_->SupportsConcurrentReads() ? 8 : 1;
  EXPECT_EQ(ConcurrentReaderFailures(store_.get(), threads, 100, children), 0);
}

// oodb reads decode records in place on their pinned pages. With a
// pool this small the eight readers keep evicting one another's pages,
// so a record viewed after its pin was dropped would show up as a
// wrong child list. Ten frames leave room for the readers' pins:
// each holds at most one at a time.
TEST(OodbConcurrentReads, ReadersEvictingEachOtherSeeCorrectLists) {
  test::TestDir tmp("hm_contract_oodb_evict");
  const std::string dir = tmp.path() + "/oodb";
  backends::OodbOptions options;
  options.cache_pages = 10;
  auto store = backends::OodbStore::Open(options, dir);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  const auto children = BuildReaderTree(store->get(), 600);
  storage::BufferPool* pool = (*store)->object_store()->buffer_pool();
  pool->ResetStats();
  EXPECT_EQ(ConcurrentReaderFailures(store->get(), 8, 1000, children), 0);
  EXPECT_GT(pool->stats().evictions, 0u);
}

// The same eviction pressure on oodb's set-at-a-time read: each call
// walks a batch of records page by page, holding one pin at a time,
// and every list and value must land at its input position.
TEST(OodbConcurrentReads, BatchedReadersEvictingEachOtherSeeCorrectLists) {
  test::TestDir tmp("hm_contract_oodb_evict_batched");
  const std::string dir = tmp.path() + "/oodb";
  backends::OodbOptions options;
  options.cache_pages = 10;
  auto store = backends::OodbStore::Open(options, dir);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  const auto children = BuildReaderTree(store->get(), 600);
  const int64_t count = static_cast<int64_t>(children.size()) - 1;
  std::vector<NodeRef> nodes{kInvalidNode};  // indexed by uniqueId
  for (int64_t uid = 1; uid <= count; ++uid) {
    auto node = (*store)->LookupUnique(uid);
    ASSERT_TRUE(node.ok()) << node.status().ToString();
    nodes.push_back(*node);
  }
  storage::BufferPool* pool = (*store)->object_store()->buffer_pool();
  pool->ResetStats();
  std::atomic<int> failures{0};
  auto reader = [&](int seed) {
    std::mt19937 rng(static_cast<unsigned>(seed));
    std::uniform_int_distribution<int64_t> pick(1, count);
    std::vector<int64_t> uids(24);
    std::vector<NodeRef> batch(uids.size());
    RefLists lists;
    std::vector<int64_t> values;
    for (int i = 0; i < 300; ++i) {
      for (size_t k = 0; k < uids.size(); ++k) {
        uids[k] = pick(rng);
        batch[k] = nodes[static_cast<size_t>(uids[k])];
      }
      if (!(*store)
               ->ChildrenAttrsMulti(batch, Attr::kHundred, &lists, &values)
               .ok() ||
          lists.size() != batch.size() || values.size() != batch.size()) {
        failures.fetch_add(1);
        return;
      }
      for (size_t k = 0; k < uids.size(); ++k) {
        const auto& want = children[static_cast<size_t>(uids[k])];
        if (values[k] != uids[k] % 100 + 1 ||
            !std::equal(lists[k].begin(), lists[k].end(), want.begin(),
                        want.end())) {
          failures.fetch_add(1);
          return;
        }
      }
    }
  };
  std::vector<std::thread> readers;
  for (int t = 0; t < 8; ++t) readers.emplace_back(reader, 11 + t);
  for (auto& th : readers) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(pool->stats().evictions, 0u);
}

INSTANTIATE_TEST_SUITE_P(Backends, StoreContractTest,
                         ::testing::Range<size_t>(0, 6),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return Factories()[info.param].name;
                         });

// --- One output rule: every list output replaces what it held ---------

/// A stack to check the output rule on, and what its store needs kept
/// alive: the replicated client's primary node.
struct OutputStack {
  std::unique_ptr<replication::Node> primary;
  std::unique_ptr<HyperStore> store;
};

struct OutputStackFactory {
  std::string name;
  std::function<void(const std::string& dir, OutputStack*)> make;
};

OutputStackFactory InProcess(size_t factory) {
  return {Factories()[factory].name,
          [factory](const std::string& dir, OutputStack* stack) {
            stack->store = Factories()[factory].make(dir);
          }};
}

OutputStackFactory Remote(backends::RemoteMode mode) {
  return {"remote_" + std::string(backends::RemoteModeName(mode)),
          [mode](const std::string&, OutputStack* stack) {
            auto store = backends::RemoteStore::Loopback(
                std::make_unique<backends::MemStore>(), {}, mode);
            ASSERT_TRUE(store.ok()) << store.status().ToString();
            stack->store = std::move(*store);
          }};
}

/// The replica-aware client over a one-node fleet: an oodb primary.
void MakeReplicated(const std::string& dir, OutputStack* stack) {
  auto oodb = backends::OodbStore::Open(backends::OodbOptions{},
                                        dir + "/primary/oodb");
  ASSERT_TRUE(oodb.ok()) << oodb.status().ToString();
  replication::CoordinatorOptions copts;
  copts.state_dir = dir + "/primary";
  auto node = replication::Node::Start(std::move(*oodb), {}, copts);
  ASSERT_TRUE(node.ok()) << node.status().ToString();
  stack->primary = std::move(*node);
  backends::ReplicatedOptions options;
  backends::RemoteOptions peer;
  peer.host = "127.0.0.1";
  peer.port = stack->primary->port();
  options.peers.push_back(peer);
  auto client = backends::ReplicatedStore::Connect(options);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  stack->store = std::move(*client);
}

std::vector<OutputStackFactory> OutputStacks() {
  return {
      InProcess(0),  // mem
      InProcess(1),  // oodb
      InProcess(2),  // rel
      InProcess(3),  // net
      Remote(backends::RemoteMode::kPushdown),
      Remote(backends::RemoteMode::kBatched),
      Remote(backends::RemoteMode::kPerCall),
      {"shard",
       [](const std::string&, OutputStack* stack) {
         auto store = backends::ShardedStore::Loopback(2);
         ASSERT_TRUE(store.ok()) << store.status().ToString();
         stack->store = std::move(*store);
       }},
      {"replicated", MakeReplicated},
  };
}

constexpr NodeRef kSentinel = 0xDEADBEEF;

/// Comparable forms of the edge types, which define no operator==.
std::tuple<NodeRef, int64_t, int64_t> Key(const RefEdge& e) {
  return {e.node, e.offset_from, e.offset_to};
}
std::pair<NodeRef, int64_t> Key(const NodeDistance& d) {
  return {d.node, d.distance};
}
NodeRef Key(NodeRef ref) { return ref; }
int64_t Key(int64_t value) { return value; }

/// A list's entries as a sorted multiset. Order is the other contract
/// tests' business (`net` keeps its M-N sets newest first); these
/// check that nothing the output held survives the call.
template <typename T>
auto Keys(std::span<const T> items) {
  std::vector<decltype(Key(items[0]))> keys;
  for (const T& item : items) keys.push_back(Key(item));
  std::sort(keys.begin(), keys.end());
  return keys;
}

template <typename T>
T Junk() {
  if constexpr (std::is_same_v<T, RefEdge>) {
    return RefEdge{kSentinel, -1, -1};
  } else if constexpr (std::is_same_v<T, NodeDistance>) {
    return NodeDistance{kSentinel, -1};
  } else {
    return static_cast<T>(kSentinel);
  }
}

/// Two sentinel entries, the output a call must replace.
template <typename T>
std::vector<T> Prefilled() {
  return {Junk<T>(), Junk<T>()};
}
template <typename T>
FlatLists<T> PrefilledLists() {
  FlatLists<T> lists;
  lists.Append(Prefilled<T>());
  lists.Append(Prefilled<T>());
  return lists;
}

/// Runs `read` on a sentinel-prefilled vector: it must succeed and
/// leave exactly the entries of `expected`.
template <typename T, typename Read>
void ExpectReplaced(const std::string& what, const std::vector<T>& expected,
                    Read read) {
  std::vector<T> out = Prefilled<T>();
  util::Status status = read(&out);
  ASSERT_TRUE(status.ok()) << what << ": " << status.ToString();
  EXPECT_EQ(Keys<T>(out), Keys<T>(expected)) << what;
}

/// The same for flat lists, one expected list per input node.
template <typename T, typename Read>
void ExpectListsReplaced(const std::string& what,
                         const std::vector<std::vector<T>>& expected,
                         Read read) {
  FlatLists<T> out = PrefilledLists<T>();
  util::Status status = read(&out);
  ASSERT_TRUE(status.ok()) << what << ": " << status.ToString();
  ASSERT_EQ(out.size(), expected.size()) << what;
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(Keys<T>(out[i]), Keys<T>(std::span<const T>(expected[i])))
        << what << " list " << i;
  }
}

class ListOutputTest : public ::testing::TestWithParam<size_t> {
 protected:
  void SetUp() override {
    OutputStacks()[GetParam()].make(dir_.path(), stack_.get());
    ASSERT_NE(stack_->store, nullptr);
  }
  void TearDown() override { stack_.reset(); }

  test::TestDir dir_{"hm_output"};
  std::unique_ptr<OutputStack> stack_ = std::make_unique<OutputStack>();
};

// Every list output on every stack replaces what the caller's container
// held, on the per-item reads, the set-at-a-time fetches and the
// whole-walk capability alike. The database: root -> {a, b}, a -> {c}
// (1-N); root parts {a, b}, a and b parts {c}; refs root -> c, a -> root
// and c -> c. uniqueIds 1..4, hundred = uid + 1, million = 37 uid + 1.
TEST_P(ListOutputTest, EveryListOutputReplacesWhatItHeld) {
  HyperStore* store = stack_->store.get();
  auto make = [&](int64_t uid, NodeRef near) {
    NodeAttrs attrs;
    attrs.unique_id = uid;
    attrs.ten = uid % 10 + 1;
    attrs.hundred = uid % 100 + 1;
    attrs.thousand = uid % 1000 + 1;
    attrs.million = uid * 37 % 1000000 + 1;
    auto node = store->CreateNode(attrs, near);
    EXPECT_TRUE(node.ok()) << node.status().ToString();
    return node.ok() ? *node : kInvalidNode;
  };
  ASSERT_TRUE(store->Begin().ok());
  const NodeRef root = make(1, kInvalidNode);
  const NodeRef a = make(2, root);
  const NodeRef b = make(3, root);
  const NodeRef c = make(4, a);
  ASSERT_TRUE(store->AddChild(root, a).ok());
  ASSERT_TRUE(store->AddChild(root, b).ok());
  ASSERT_TRUE(store->AddChild(a, c).ok());
  ASSERT_TRUE(store->AddPart(root, a).ok());
  ASSERT_TRUE(store->AddPart(root, b).ok());
  ASSERT_TRUE(store->AddPart(a, c).ok());
  ASSERT_TRUE(store->AddPart(b, c).ok());
  ASSERT_TRUE(store->AddRef(root, c, 1, 2).ok());
  ASSERT_TRUE(store->AddRef(a, root, 3, 4).ok());
  ASSERT_TRUE(store->AddRef(c, c, 5, 6).ok());
  ASSERT_TRUE(store->Commit().ok());

  using Refs = std::vector<NodeRef>;
  using Edges = std::vector<RefEdge>;
  const Refs closure{root, a, c, b};

  // HyperStore's list reads, and the ops:: lookups over them.
  ExpectReplaced("RangeHundred", Refs{root, a}, [&](Refs* out) {
    return store->RangeHundred(2, 3, out);
  });
  ExpectReplaced("RangeMillion", Refs{a, b, c}, [&](Refs* out) {
    return store->RangeMillion(70, 150, out);
  });
  ExpectReplaced("Children", Refs{a, b},
                 [&](Refs* out) { return store->Children(root, out); });
  ExpectReplaced("Parts", Refs{a, b},
                 [&](Refs* out) { return store->Parts(root, out); });
  ExpectReplaced("PartOf", Refs{a, b},
                 [&](Refs* out) { return store->PartOf(c, out); });
  ExpectReplaced("RefsTo", Edges{{c, 1, 2}},
                 [&](Edges* out) { return store->RefsTo(root, out); });
  ExpectReplaced("RefsFrom", Edges{{root, 1, 2}, {c, 5, 6}},
                 [&](Edges* out) { return store->RefsFrom(c, out); });
  ExpectReplaced("ChildrenAndAttr", Refs{c}, [&](Refs* out) {
    int64_t value = 0;
    util::Status status = store->ChildrenAndAttr(a, Attr::kTen, out, &value);
    EXPECT_EQ(value, 3);
    return status;
  });
  ExpectReplaced("ops::RangeLookupMillion", Refs{a, b, c}, [&](Refs* out) {
    return ops::RangeLookupMillion(store, 70, out);
  });
  ExpectReplaced("ops::GroupLookupMNAtt", Refs{c}, [&](Refs* out) {
    return ops::GroupLookupMNAtt(store, root, out);
  });
  ExpectReplaced("ops::RefLookupMNAtt", Refs{root, c}, [&](Refs* out) {
    return ops::RefLookupMNAtt(store, c, out);
  });

  // The set-at-a-time fetch: the store's own, else the per-item loop.
  StoreFetch per_item(store);
  FrontierFetch* fetch = dynamic_cast<FrontierFetch*>(store);
  if (fetch == nullptr) fetch = &per_item;
  const Refs tier{root, a, b};
  ExpectListsReplaced<NodeRef>(
      "ChildrenMulti", {{a, b}, {c}, {}},
      [&](RefLists* out) { return fetch->ChildrenMulti(tier, out); });
  ExpectListsReplaced<NodeRef>(
      "PartsMulti", {{a, b}, {c}, {c}},
      [&](RefLists* out) { return fetch->PartsMulti(tier, out); });
  ExpectListsReplaced<RefEdge>(
      "RefsToMulti", {{{c, 1, 2}}, {{root, 3, 4}}, {}},
      [&](EdgeLists* out) { return fetch->RefsToMulti(tier, out); });
  std::vector<int64_t> values = Prefilled<int64_t>();
  ExpectListsReplaced<NodeRef>(
      "ChildrenAttrsMulti", {{a, b}, {c}, {}}, [&](RefLists* out) {
        return fetch->ChildrenAttrsMulti(tier, Attr::kHundred, out, &values);
      });
  EXPECT_EQ(values, (std::vector<int64_t>{2, 3, 4}));
  ExpectReplaced("GetAttrsMulti", std::vector<int64_t>{2, 3, 4},
                 [&](std::vector<int64_t>* out) {
                   return fetch->GetAttrsMulti(tier, Attr::kHundred, out);
                 });

  // The closures: ops:: on every stack, and the whole-walk capability
  // where the store has it.
  ExpectReplaced("ops::Closure1N", closure, [&](Refs* out) {
    return ops::Closure1N(store, root, out);
  });
  ExpectReplaced("ops::Closure1NPred", closure, [&](Refs* out) {
    return ops::Closure1NPred(store, root, 500000, out);
  });
  ExpectReplaced("ops::ClosureMN", closure,
                 [&](Refs* out) { return ops::ClosureMN(store, root, out); });
  ExpectReplaced("ops::ClosureMNAtt", Refs{root, c}, [&](Refs* out) {
    return ops::ClosureMNAtt(store, root, 2, out);
  });
  using Distances = std::vector<NodeDistance>;
  ExpectReplaced("ops::ClosureMNAttLinkSum", Distances{{root, 0}, {c, 2}},
                 [&](Distances* out) {
                   return ops::ClosureMNAttLinkSum(store, root, 2, out);
                 });
  if (auto* trav = dynamic_cast<TraversalCapable*>(store)) {
    ExpectReplaced("BulkGetAttr", std::vector<int64_t>{2, 3, 4},
                   [&](std::vector<int64_t>* out) {
                     return trav->BulkGetAttr(tier, Attr::kHundred, out);
                   });
    ExpectReplaced("TravClosure1N", closure, [&](Refs* out) {
      return trav->TravClosure1N(root, out);
    });
    ExpectReplaced("TravClosure1NPred", closure, [&](Refs* out) {
      return trav->TravClosure1NPred(root, 500000, 509999, out);
    });
    ExpectReplaced("TravClosureMN", closure, [&](Refs* out) {
      return trav->TravClosureMN(root, out);
    });
    ExpectReplaced("TravClosureMNAtt", Refs{root, c}, [&](Refs* out) {
      return trav->TravClosureMNAtt(root, 2, out);
    });
    ExpectReplaced("TravClosureMNAttLinkSum", Distances{{root, 0}, {c, 2}},
                   [&](Distances* out) {
                     return trav->TravClosureMNAttLinkSum(root, 2, out);
                   });
  }

  // The load's one output: the refs of the nodes it creates.
  ASSERT_TRUE(store->Begin().ok());
  const NodeAttrs fresh[] = {{5, 6, 6, 6, 186, NodeKind::kInternal},
                             {6, 7, 7, 7, 223, NodeKind::kInternal}};
  const NodeRef near[] = {root, root};
  const std::string_view contents[] = {"", ""};
  Refs created = Prefilled<NodeRef>();
  ASSERT_TRUE(fetch->CreateNodesMulti(fresh, near, contents, &created).ok());
  ASSERT_TRUE(store->Commit().ok());
  ASSERT_EQ(created.size(), 2u);
  for (size_t i = 0; i < created.size(); ++i) {
    auto found = store->LookupUnique(fresh[i].unique_id);
    ASSERT_TRUE(found.ok()) << found.status().ToString();
    EXPECT_EQ(created[i], *found);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Stacks, ListOutputTest,
    ::testing::Range<size_t>(0, OutputStacks().size()),
    [](const ::testing::TestParamInfo<size_t>& info) {
      return OutputStacks()[info.param].name;
    });

// --- One rule for form contents ---------------------------------------

using FormContentsTest = ListOutputTest;

// A form node's contents are a serialized bitmap. SetContents decodes
// the bytes before it writes, on every stack: bytes that are not a
// bitmap get Corruption and leave the form as it was.
TEST_P(FormContentsTest, BytesThatAreNotABitmapAreRefusedAndWriteNothing) {
  HyperStore* store = stack_->store.get();
  ASSERT_TRUE(store->Begin().ok());
  NodeAttrs attrs;
  attrs.unique_id = 1;
  attrs.ten = attrs.hundred = attrs.thousand = attrs.million = 2;
  attrs.kind = NodeKind::kForm;
  auto form = store->CreateNode(attrs, kInvalidNode);
  ASSERT_TRUE(form.ok()) << form.status().ToString();
  util::Bitmap bitmap(64, 16);
  ASSERT_TRUE(bitmap.InvertRect(3, 2, 20, 5).ok());
  ASSERT_TRUE(store->SetForm(*form, bitmap).ok());
  ASSERT_TRUE(store->Commit().ok());

  ASSERT_TRUE(store->Begin().ok());
  const util::Status refused = store->SetContents(*form, "not a bitmap");
  EXPECT_EQ(refused.code(), util::StatusCode::kCorruption)
      << refused.ToString();
  auto during = store->GetForm(*form);
  ASSERT_TRUE(during.ok()) << during.status().ToString();
  EXPECT_EQ(*during, bitmap);
  ASSERT_TRUE(store->Commit().ok());
  auto after = store->GetForm(*form);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(*after, bitmap);
}

INSTANTIATE_TEST_SUITE_P(
    Stacks, FormContentsTest,
    ::testing::Range<size_t>(0, OutputStacks().size()),
    [](const ::testing::TestParamInfo<size_t>& info) {
      return OutputStacks()[info.param].name;
    });

}  // namespace
}  // namespace hm
