// Cluster subsystem tests (DESIGN.md §14): the shard map encoding, the
// server-side ShardLocalStore decorator (proxy nodes, typed foreign-ref
// errors), and the routing ShardedStore client — cross-shard edges,
// fleet handshake validation, shard failure, and a small byte-identical
// comparison of a 4-shard fleet against a single-node remote server.
// The fan-out tests check that every request of a round is sent before
// any reply is read, and that a failure on one shard leaves every other
// shard's reply read.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "cluster/shard_local_store.h"
#include "cluster/shard_map.h"
#include "hypermodel/backends/mem_store.h"
#include "hypermodel/backends/remote_store.h"
#include "hypermodel/backends/sharded_store.h"
#include "hypermodel/generator.h"
#include "hypermodel/operations.h"
#include "hypermodel/traversal.h"
#include "server/server.h"
#include "telemetry/metrics.h"
#include "util/failpoint.h"

namespace hm {
namespace {

// ---- shard_map.h ----------------------------------------------------

TEST(ShardMapTest, RefEncodingRoundTrips) {
  for (uint32_t shard : {0u, 1u, 7u, 63u}) {
    for (NodeRef local : {NodeRef{1}, NodeRef{12345},
                          cluster::kLocalRefMask}) {
      NodeRef global = cluster::GlobalRef(shard, local);
      EXPECT_EQ(cluster::ShardOf(global), shard);
      EXPECT_EQ(cluster::LocalRef(global), local);
    }
  }
  // Shard 0 globals are bit-identical to their locals, so a
  // single-shard fleet hands out plain refs.
  EXPECT_EQ(cluster::GlobalRef(0, 42), NodeRef{42});
}

TEST(ShardMapTest, ParseShardSpec) {
  auto spec = cluster::ParseShardSpec("2/4");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->id, 2u);
  EXPECT_EQ(spec->count, 4u);

  EXPECT_FALSE(cluster::ParseShardSpec("").ok());
  EXPECT_FALSE(cluster::ParseShardSpec("3").ok());
  EXPECT_FALSE(cluster::ParseShardSpec("4/4").ok());    // id out of range
  EXPECT_FALSE(cluster::ParseShardSpec("0/0").ok());
  EXPECT_FALSE(cluster::ParseShardSpec("0/65").ok());   // > kMaxShards
  EXPECT_FALSE(cluster::ParseShardSpec("a/b").ok());
}

TEST(ShardMapTest, SplitShardAddrs) {
  auto plain = cluster::SplitShardAddrs("h1:1,h2:2");
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(*plain, (std::vector<std::string>{"h1:1", "h2:2"}));

  auto scheme = cluster::SplitShardAddrs("shard://h1:1,h2:2,h3:3");
  ASSERT_TRUE(scheme.ok());
  EXPECT_EQ(scheme->size(), 3u);
  EXPECT_EQ((*scheme)[2], "h3:3");

  EXPECT_FALSE(cluster::SplitShardAddrs("").ok());
  EXPECT_FALSE(cluster::SplitShardAddrs("h1:1,,h2:2").ok());
}

// ---- ShardLocalStore ------------------------------------------------

std::unique_ptr<cluster::ShardLocalStore> WrapMem(uint32_t id,
                                                  uint32_t count) {
  auto store = cluster::ShardLocalStore::Wrap(
      {id, count}, std::make_unique<backends::MemStore>());
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  return std::move(*store);
}

NodeAttrs TestAttrs(int64_t uid) {
  NodeAttrs attrs;
  attrs.unique_id = uid;
  attrs.ten = uid % 10 + 1;
  attrs.hundred = uid % 100 + 1;
  attrs.thousand = uid % 1000 + 1;
  attrs.million = uid % 1000000 + 1;
  return attrs;
}

TEST(ShardLocalStoreTest, ForeignRefReadsAreOutOfRange) {
  auto store = WrapMem(0, 2);
  auto local = store->CreateNode(TestAttrs(1), kInvalidNode);
  ASSERT_TRUE(local.ok());
  NodeRef foreign = cluster::GlobalRef(1, 7);
  // The typed "walk left my shard" signal — specifically kOutOfRange,
  // which the routing client turns into a scatter-gather fallback.
  EXPECT_TRUE(store->GetAttr(foreign, Attr::kTen).status().code() == util::StatusCode::kOutOfRange);
  std::vector<NodeRef> out;
  EXPECT_TRUE(store->Children(foreign, &out).code() == util::StatusCode::kOutOfRange);
}

TEST(ShardLocalStoreTest, CrossShardEdgeCreatesInvisibleProxy) {
  telemetry::Counter* proxies =
      telemetry::Registry::Global().GetCounter("cluster.shard.proxy_nodes");
  uint64_t before = proxies->value();

  auto store = WrapMem(0, 2);
  auto a = store->CreateNode(TestAttrs(1), kInvalidNode);
  auto b = store->CreateNode(TestAttrs(2), kInvalidNode);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  NodeRef foreign = cluster::GlobalRef(1, 7);

  ASSERT_TRUE(store->AddPart(*a, foreign).ok());
  EXPECT_EQ(proxies->value(), before + 1);
  // The same foreign endpoint is found, not re-created.
  ASSERT_TRUE(store->AddRef(*b, foreign, 3, 7).ok());
  EXPECT_EQ(proxies->value(), before + 1);

  // Edge lists hand the shard-qualified ref back out.
  std::vector<NodeRef> parts;
  ASSERT_TRUE(store->Parts(*a, &parts).ok());
  EXPECT_EQ(parts, std::vector<NodeRef>{foreign});
  std::vector<RefEdge> refs;
  ASSERT_TRUE(store->RefsTo(*b, &refs).ok());
  ASSERT_EQ(refs.size(), 1u);
  EXPECT_EQ(refs[0].node, foreign);
  EXPECT_EQ(refs[0].offset_from, 3);
  EXPECT_EQ(refs[0].offset_to, 7);

  // The proxy itself is invisible to every client-facing read: index
  // scans skip it, LookupUnique refuses the reserved uid band, and a
  // client ref naming the proxy's local slot answers NotFound.
  std::vector<NodeRef> scan;
  ASSERT_TRUE(
      store->RangeHundred(cluster::kProxyUidBase, cluster::kProxyUidBase,
                          &scan)
          .ok());
  EXPECT_TRUE(scan.empty());
  EXPECT_TRUE(store->LookupUnique(cluster::ProxyUid(foreign))
                  .status()
                  .IsNotFound());

  // Both-foreign edges are a routing bug, rejected loudly.
  EXPECT_TRUE(store->AddPart(foreign, cluster::GlobalRef(1, 9))
                  .code() == util::StatusCode::kInvalidArgument);
}

TEST(ShardLocalStoreTest, WrapRecoversProxiesFromBase) {
  // A shard server that restarts rebuilds its proxy maps by scanning
  // the reserved attribute band; a pre-existing proxy node must be
  // reused, not duplicated (duplicate uid would fail the create).
  NodeRef foreign = cluster::GlobalRef(1, 7);
  auto base = std::make_unique<backends::MemStore>();
  NodeAttrs proxy_attrs;
  proxy_attrs.unique_id = cluster::ProxyUid(foreign);
  proxy_attrs.ten = cluster::kProxyUidBase;
  proxy_attrs.hundred = cluster::kProxyUidBase;
  proxy_attrs.thousand = cluster::kProxyUidBase;
  proxy_attrs.million = cluster::kProxyUidBase;
  ASSERT_TRUE(base->CreateNode(proxy_attrs, kInvalidNode).ok());

  auto wrapped = cluster::ShardLocalStore::Wrap({0, 2}, std::move(base));
  ASSERT_TRUE(wrapped.ok()) << wrapped.status().ToString();
  auto store = std::move(*wrapped);

  telemetry::Counter* proxies =
      telemetry::Registry::Global().GetCounter("cluster.shard.proxy_nodes");
  uint64_t before = proxies->value();
  auto local = store->CreateNode(TestAttrs(1), kInvalidNode);
  ASSERT_TRUE(local.ok());
  ASSERT_TRUE(store->AddPart(*local, foreign).ok());
  EXPECT_EQ(proxies->value(), before);  // recovered, not re-created

  std::vector<NodeRef> parts;
  ASSERT_TRUE(store->Parts(*local, &parts).ok());
  EXPECT_EQ(parts, std::vector<NodeRef>{foreign});
}

// ---- ShardedStore ---------------------------------------------------

// Creates uid 1 as the root on shard 0 plus one child per shard placed
// by the `near` hint, returning refs whose shard byte is the uid % N
// placement ShardedStore advertises.
struct SmallFleet {
  std::unique_ptr<backends::ShardedStore> store;
  NodeRef root = kInvalidNode;
  std::vector<NodeRef> children;
};

SmallFleet MakeSmallFleet(uint32_t shards) {
  SmallFleet fleet;
  auto store = backends::ShardedStore::Loopback(shards);
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  fleet.store = std::move(*store);
  auto root = fleet.store->CreateNode(TestAttrs(1), kInvalidNode);
  EXPECT_TRUE(root.ok());
  fleet.root = *root;
  for (int64_t uid = 2; uid < 2 + static_cast<int64_t>(shards); ++uid) {
    auto child = fleet.store->CreateNode(TestAttrs(uid), fleet.root);
    EXPECT_TRUE(child.ok());
    EXPECT_TRUE(fleet.store->AddChild(fleet.root, *child).ok());
    fleet.children.push_back(*child);
  }
  return fleet;
}

TEST(ShardedStoreTest, PlacementSpreadsByUidModShards) {
  SmallFleet fleet = MakeSmallFleet(2);
  EXPECT_EQ(cluster::ShardOf(fleet.root), 0u);
  EXPECT_EQ(cluster::ShardOf(fleet.children[0]), 0u);  // uid 2 % 2
  EXPECT_EQ(cluster::ShardOf(fleet.children[1]), 1u);  // uid 3 % 2
  // Routing survives the spread: every node answers by ref and by uid.
  for (int64_t uid = 1; uid <= 3; ++uid) {
    auto found = fleet.store->LookupUnique(uid);
    ASSERT_TRUE(found.ok());
    EXPECT_EQ(*fleet.store->GetAttr(*found, Attr::kUniqueId), uid);
  }
}

TEST(ShardedStoreTest, CrossShardPartAndRefRoundTrip) {
  SmallFleet fleet = MakeSmallFleet(2);
  NodeRef on0 = fleet.children[0];
  NodeRef on1 = fleet.children[1];

  // Baseline after fleet setup: the cross-shard AddChild in
  // MakeSmallFleet already counted.
  telemetry::Counter* cross =
      telemetry::Registry::Global().GetCounter("cluster.cross_shard_edges");
  uint64_t before = cross->value();

  ASSERT_TRUE(fleet.store->AddPart(on0, on1).ok());
  ASSERT_TRUE(fleet.store->AddRef(on1, on0, 3, 7).ok());
  EXPECT_EQ(cross->value(), before + 2);

  // Both directions of both edges, read from either endpoint's shard.
  std::vector<NodeRef> parts;
  ASSERT_TRUE(fleet.store->Parts(on0, &parts).ok());
  EXPECT_EQ(parts, std::vector<NodeRef>{on1});
  std::vector<NodeRef> owners;
  ASSERT_TRUE(fleet.store->PartOf(on1, &owners).ok());
  EXPECT_EQ(owners, std::vector<NodeRef>{on0});
  std::vector<RefEdge> out_edges;
  ASSERT_TRUE(fleet.store->RefsTo(on1, &out_edges).ok());
  ASSERT_EQ(out_edges.size(), 1u);
  EXPECT_EQ(out_edges[0].node, on0);
  EXPECT_EQ(out_edges[0].offset_from, 3);
  EXPECT_EQ(out_edges[0].offset_to, 7);
  std::vector<RefEdge> in_edges;
  ASSERT_TRUE(fleet.store->RefsFrom(on0, &in_edges).ok());
  ASSERT_EQ(in_edges.size(), 1u);
  EXPECT_EQ(in_edges[0].node, on1);

  // A cross-shard child still has exactly one parent, enforced on the
  // child's (authoritative) shard.
  EXPECT_FALSE(fleet.store->AddChild(on0, fleet.children[1]).ok());
}

TEST(ShardedStoreTest, IndexScansMergeInCanonicalOrder) {
  // Five nodes (root + one child per shard), uids 1..5, so
  // hundred = uid % 100 + 1 gives 2..6 spread over all four shards.
  SmallFleet fleet = MakeSmallFleet(4);
  std::vector<NodeRef> out;
  ASSERT_TRUE(fleet.store->RangeHundred(2, 6, &out).ok());
  ASSERT_EQ(out.size(), 5u);
  // Canonical (value, uniqueId) order — here value order == uid order.
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(*fleet.store->GetAttr(out[i], Attr::kUniqueId),
              static_cast<int64_t>(i + 1));
  }
}

TEST(ShardedStoreTest, KilledShardSurfacesUnavailable) {
  backends::RemoteOptions client;
  client.deadline_ms = 1000;
  client.max_retries = 1;
  client.backoff_base_ms = 1;
  client.backoff_cap_ms = 5;
  auto store = backends::ShardedStore::Loopback(
      2, backends::RemoteMode::kPushdown, client);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  auto root = (*store)->CreateNode(TestAttrs(1), kInvalidNode);
  ASSERT_TRUE(root.ok());
  auto on1 = (*store)->CreateNode(TestAttrs(3), *root);  // uid 3 -> shard 1
  ASSERT_TRUE(on1.ok());
  ASSERT_EQ(cluster::ShardOf(*on1), 1u);

  (*store)->shard(1)->owned_server()->Stop();

  // Shard 0 keeps answering; shard 1 reports a typed kUnavailable
  // (no hang, no crash) both for routed reads and inside a fan-out.
  EXPECT_TRUE((*store)->GetAttr(*root, Attr::kTen).ok());
  EXPECT_TRUE((*store)->GetAttr(*on1, Attr::kTen).status().IsUnavailable());
  std::vector<NodeRef> out;
  util::Status scan = (*store)->RangeHundred(1, 100, &out);
  EXPECT_TRUE(scan.IsUnavailable()) << scan.ToString();
  EXPECT_NE(scan.message().find("shard 1"), std::string::npos)
      << scan.ToString();
  // Shard 0's scan reply was read in the same round, so its connection
  // is still in step: the next call gets its own reply.
  auto uid = (*store)->GetAttr(*root, Attr::kUniqueId);
  ASSERT_TRUE(uid.ok()) << uid.status().ToString();
  EXPECT_EQ(*uid, 1);
}

uint64_t CounterValue(const char* name) {
  return telemetry::Registry::Global().GetCounter(name)->value();
}

std::vector<NodeRef> ListAt(const RefLists& lists, size_t i) {
  return std::vector<NodeRef>(lists[i].begin(), lists[i].end());
}

// A transport failure in the middle of a fan-out round.
class ShardFanOutFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!util::kFailpointsCompiled) {
      GTEST_SKIP() << "failpoints compiled out of this build";
    }
  }
  void TearDown() override { util::Failpoint::DisableAll(); }
};

TEST_F(ShardFanOutFaultTest, CommitFailureLeavesNoReplyUnread) {
  SmallFleet fleet = MakeSmallFleet(2);
  const NodeRef on0 = fleet.children[0];
  const NodeRef on1 = fleet.children[1];
  ASSERT_TRUE(fleet.store->Begin().ok());
  ASSERT_TRUE(fleet.store->SetAttr(on0, Attr::kTen, 40).ok());
  ASSERT_TRUE(fleet.store->SetAttr(on1, Attr::kTen, 41).ok());

  // Both commits are on the wire before either reply is read, and the
  // first receive (shard 0's) fails. A commit of unknown fate is never
  // re-sent.
  ASSERT_TRUE(
      util::Failpoint::Enable("remote/recv/error", "error,times=1").ok());
  util::Status commit = fleet.store->Commit();
  EXPECT_TRUE(commit.IsUnavailable()) << commit.ToString();
  EXPECT_NE(commit.message().find("shard 0"), std::string::npos)
      << commit.ToString();
  EXPECT_EQ(util::Failpoint::FireCount("remote/recv/error"), 1u);

  // Shard 1's commit reply was read in that round: had it been left in
  // the socket, Begin would read it and GetAttr would read Begin's.
  ASSERT_TRUE(fleet.store->Begin().ok());
  auto ten0 = fleet.store->GetAttr(on0, Attr::kTen);
  auto ten1 = fleet.store->GetAttr(on1, Attr::kTen);
  ASSERT_TRUE(ten0.ok()) << ten0.status().ToString();
  ASSERT_TRUE(ten1.ok()) << ten1.status().ToString();
  EXPECT_EQ(*ten0, 40);
  EXPECT_EQ(*ten1, 41);
  EXPECT_TRUE(fleet.store->Commit().ok());
}

TEST_F(ShardFanOutFaultTest, ReadFramesRetryWriteFramesAreNotResent) {
  // Parts and attribute writes travel as one fused frame per shard.
  SmallFleet fleet = MakeSmallFleet(2);
  const NodeRef on0 = fleet.children[0];
  const NodeRef on1 = fleet.children[1];
  ASSERT_TRUE(fleet.store->AddPart(on0, on1).ok());
  ASSERT_TRUE(fleet.store->AddPart(on1, on0).ok());
  const NodeRef nodes[] = {on0, on1, fleet.root};

  // The failed frame is a kPartsMulti, a read: shard 0 reconnects and
  // re-sends it, and the fetch succeeds.
  uint64_t retries = CounterValue("remote.retries");
  ASSERT_TRUE(
      util::Failpoint::Enable("remote/recv/error", "error,times=1").ok());
  RefLists parts;
  util::Status read = fleet.store->PartsMulti(nodes, &parts);
  ASSERT_TRUE(read.ok()) << read.ToString();
  EXPECT_EQ(util::Failpoint::FireCount("remote/recv/error"), 1u);
  EXPECT_EQ(CounterValue("remote.retries"), retries + 1);
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(ListAt(parts, 0), std::vector<NodeRef>{on1});
  EXPECT_EQ(ListAt(parts, 1), std::vector<NodeRef>{on0});
  EXPECT_TRUE(ListAt(parts, 2).empty());

  // A kSetAttrsMulti frame has unknown fate once its receive fails:
  // kUnavailable, and nothing is re-sent.
  retries = CounterValue("remote.retries");
  ASSERT_TRUE(
      util::Failpoint::Enable("remote/recv/error", "error,times=1").ok());
  const int64_t tens[] = {70, 71, 72};
  util::Status write = fleet.store->SetAttrsMulti(nodes, Attr::kTen, tens);
  EXPECT_TRUE(write.IsUnavailable()) << write.ToString();
  EXPECT_NE(write.message().find("shard 0"), std::string::npos)
      << write.ToString();
  EXPECT_EQ(CounterValue("remote.retries"), retries);
  // Shard 1's write landed in the same round, and both shards answer.
  auto ten1 = fleet.store->GetAttr(on1, Attr::kTen);
  ASSERT_TRUE(ten1.ok()) << ten1.status().ToString();
  EXPECT_EQ(*ten1, 71);
  EXPECT_TRUE(fleet.store->GetAttr(on0, Attr::kTen).ok());
}

// Counts the engine's PartsMulti calls on their way to the fleet.
class CountingFetch final : public FrontierFetch {
 public:
  explicit CountingFetch(FrontierFetch* inner) : inner_(inner) {}

  util::Status ChildrenMulti(std::span<const NodeRef> nodes,
                             RefLists* out) override {
    return inner_->ChildrenMulti(nodes, out);
  }
  util::Status PartsMulti(std::span<const NodeRef> nodes,
                          RefLists* out) override {
    ++parts_calls;
    return inner_->PartsMulti(nodes, out);
  }
  util::Status RefsToMulti(std::span<const NodeRef> nodes,
                           EdgeLists* out) override {
    return inner_->RefsToMulti(nodes, out);
  }
  util::Status ChildrenAttrsMulti(std::span<const NodeRef> nodes, Attr attr,
                                  RefLists* children,
                                  std::vector<int64_t>* values) override {
    return inner_->ChildrenAttrsMulti(nodes, attr, children, values);
  }
  util::Status GetAttrsMulti(std::span<const NodeRef> nodes, Attr attr,
                             std::vector<int64_t>* values) override {
    return inner_->GetAttrsMulti(nodes, attr, values);
  }
  util::Status SetAttrsMulti(std::span<const NodeRef> nodes, Attr attr,
                             std::span<const int64_t> values) override {
    return inner_->SetAttrsMulti(nodes, attr, values);
  }
  util::Status CreateNodesMulti(std::span<const NodeAttrs> attrs,
                                std::span<const NodeRef> near,
                                std::span<const std::string_view> contents,
                                std::vector<NodeRef>* refs) override {
    return inner_->CreateNodesMulti(attrs, near, contents, refs);
  }
  util::Status AddChildrenMulti(std::span<const NodeRef> parents,
                                std::span<const NodeRef> children) override {
    return inner_->AddChildrenMulti(parents, children);
  }
  util::Status AddPartsMulti(std::span<const NodeRef> owners,
                             std::span<const NodeRef> parts) override {
    return inner_->AddPartsMulti(owners, parts);
  }
  util::Status AddRefsMulti(std::span<const NodeRef> from,
                            std::span<const NodeRef> to,
                            std::span<const int64_t> offset_from,
                            std::span<const int64_t> offset_to) override {
    return inner_->AddRefsMulti(from, to, offset_from, offset_to);
  }

  size_t parts_calls = 0;

 private:
  FrontierFetch* inner_;
};

TEST(ShardedStoreTest, ClosureMNTakesOneRoundPerFrontierLevel) {
  // Batched mode runs closureMN through the engine on the client, so
  // each frontier level is one PartsMulti over the fleet: one
  // kPartsMulti frame per touched shard, all sent in a single round.
  auto fleet =
      backends::ShardedStore::Loopback(2, backends::RemoteMode::kBatched);
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
  GeneratorConfig config;
  config.levels = 4;
  config.generate_contents = false;
  auto db = Generator(config).Build(fleet->get(), nullptr);
  ASSERT_TRUE(db.ok()) << db.status().ToString();

  auto& registry = telemetry::Registry::Global();
  telemetry::Counter* rounds = registry.GetCounter("cluster.rounds");
  telemetry::Histogram* fanout = registry.GetHistogram("cluster.fanout");
  const uint64_t rounds_before = rounds->value();
  const uint64_t fanout_count_before = fanout->count();
  const uint64_t fanout_sum_before = fanout->sum();

  CountingFetch counting(fleet->get());
  std::vector<NodeRef> out;
  ASSERT_TRUE(traversal::ClosureMN(&counting, db->root, &out).ok());
  ASSERT_GE(counting.parts_calls, 3u);

  EXPECT_EQ(rounds->value() - rounds_before, counting.parts_calls);
  EXPECT_EQ(fanout->count() - fanout_count_before, counting.parts_calls);
  // Some level spans both shards, and still costs one round.
  EXPECT_GT(fanout->sum() - fanout_sum_before, counting.parts_calls);

  std::vector<NodeRef> direct;
  ASSERT_TRUE(ops::ClosureMN(fleet->get(), db->root, &direct).ok());
  EXPECT_EQ(out, direct);
}

TEST(ShardedStoreTest, AttributeClosureRoundsArePinned) {
  // Batched mode runs the 1-N kernels through the engine on the client;
  // every frontier fetch is one round over the fleet. A level-3 tree
  // has four tiers.
  auto fleet =
      backends::ShardedStore::Loopback(2, backends::RemoteMode::kBatched);
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
  GeneratorConfig config;
  config.levels = 3;
  config.generate_contents = false;
  auto db = Generator(config).Build(fleet->get(), nullptr);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  auto rounds_during = [](const auto& op) {
    const uint64_t before = CounterValue("cluster.rounds");
    op();
    return CounterValue("cluster.rounds") - before;
  };

  // One fetch per tier, lists and hundreds together.
  uint64_t visited = 0;
  EXPECT_EQ(rounds_during([&] {
              ASSERT_TRUE(
                  ops::Closure1NAttSum(fleet->get(), db->root, &visited).ok());
            }),
            4u);
  EXPECT_EQ(visited, db->node_count());
  // One fetch per tier, lists and millions together.
  std::vector<NodeRef> kept;
  EXPECT_EQ(rounds_during([&] {
              ASSERT_TRUE(
                  ops::Closure1NPred(fleet->get(), db->root, 0, &kept).ok());
            }),
            4u);
  EXPECT_EQ(kept.size(), 155u);
}

TEST(ShardedStoreTest, ConnectRejectsMiswiredFleet) {
  // Two servers that both claim shard 0 of 2: the kShardInfo handshake
  // must reject the fleet instead of silently misrouting refs.
  auto make_server = [](uint32_t id, uint32_t count) {
    server::ServerOptions options;
    options.host = "127.0.0.1";
    options.port = 0;
    options.shard_id = id;
    options.shard_count = count;
    auto srv = server::Server::Start(
        options, std::make_unique<backends::MemStore>());
    EXPECT_TRUE(srv.ok()) << srv.status().ToString();
    return std::move(*srv);
  };
  auto s0 = make_server(0, 2);
  auto s1 = make_server(0, 2);  // mis-wired: should be 1/2
  std::string addrs = s0->host() + ":" + std::to_string(s0->port()) + "," +
                      s1->host() + ":" + std::to_string(s1->port());
  auto store = backends::ShardedStore::Connect(addrs);
  EXPECT_FALSE(store.ok());
  s0->Stop();
  s1->Stop();
}

TEST(ShardedStoreTest, FleetMatchesSingleNodeByteForByte) {
  // The §5.2 database at level 3, built identically (same Generator
  // seed) on a single-node remote server and a 4-shard fleet: the
  // §6.5/§6.6 closures and index scans must agree node for node once
  // refs are translated to uniqueIds. The full twenty-op version of
  // this comparison is bench_shard --verify-level.
  auto single = backends::RemoteStore::Loopback(
      std::make_unique<backends::MemStore>());
  ASSERT_TRUE(single.ok()) << single.status().ToString();
  auto fleet = backends::ShardedStore::Loopback(4);
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();

  GeneratorConfig config;
  config.levels = 3;
  config.generate_contents = false;
  Generator generator(config);
  auto db_single = generator.Build(single->get(), nullptr);
  ASSERT_TRUE(db_single.ok()) << db_single.status().ToString();
  auto db_fleet = generator.Build(fleet->get(), nullptr);
  ASSERT_TRUE(db_fleet.ok()) << db_fleet.status().ToString();
  ASSERT_EQ(db_single->node_count(), db_fleet->node_count());

  auto uids = [](HyperStore* store, const std::vector<NodeRef>& refs) {
    std::vector<int64_t> out;
    for (NodeRef ref : refs) {
      auto uid = store->GetAttr(ref, Attr::kUniqueId);
      EXPECT_TRUE(uid.ok()) << uid.status().ToString();
      out.push_back(uid.ok() ? *uid : -1);
    }
    return out;
  };

  {
    // closure1N from the root spans all four shards.
    std::vector<NodeRef> a, b;
    ASSERT_TRUE(ops::Closure1N(single->get(), db_single->root, &a).ok());
    ASSERT_TRUE(ops::Closure1N(fleet->get(), db_fleet->root, &b).ok());
    EXPECT_EQ(uids(single->get(), a), uids(fleet->get(), b));
    EXPECT_EQ(a.size(), db_single->node_count());
  }
  {
    std::vector<NodeRef> a, b;
    ASSERT_TRUE(ops::ClosureMN(single->get(), db_single->root, &a).ok());
    ASSERT_TRUE(ops::ClosureMN(fleet->get(), db_fleet->root, &b).ok());
    EXPECT_EQ(uids(single->get(), a), uids(fleet->get(), b));
  }
  {
    std::vector<NodeRef> a, b;
    ASSERT_TRUE(
        ops::ClosureMNAtt(single->get(), db_single->root, 25, &a).ok());
    ASSERT_TRUE(
        ops::ClosureMNAtt(fleet->get(), db_fleet->root, 25, &b).ok());
    EXPECT_EQ(uids(single->get(), a), uids(fleet->get(), b));
  }
  {
    std::vector<NodeRef> a, b;
    ASSERT_TRUE(ops::RangeLookupHundred(single->get(), 10, &a).ok());
    ASSERT_TRUE(ops::RangeLookupHundred(fleet->get(), 10, &b).ok());
    std::vector<int64_t> ua = uids(single->get(), a);
    std::vector<int64_t> ub = uids(fleet->get(), b);
    std::sort(ua.begin(), ua.end());
    std::sort(ub.begin(), ub.end());
    EXPECT_EQ(ua, ub);
  }
}

TEST(ShardedStoreTest, EveryModeMatchesInProcessClosures) {
  // One engine for every client: a 2-shard fleet in each RemoteMode
  // (per-call fetches, fused fetches, pushdown with scatter-gather
  // fallback) must reproduce the in-process closures node for node,
  // uid-translated, including the pruning and mutating kernels.
  GeneratorConfig config;
  config.levels = 3;
  config.generate_contents = false;
  backends::MemStore local;
  auto db_local = Generator(config).Build(&local, nullptr);
  ASSERT_TRUE(db_local.ok()) << db_local.status().ToString();

  // Prune at the root's first child: its million starts the band.
  std::vector<NodeRef> top;
  ASSERT_TRUE(local.Children(db_local->root, &top).ok());
  ASSERT_FALSE(top.empty());
  const int64_t band = *local.GetAttr(top[0], Attr::kMillion);

  auto uids = [](HyperStore* store, const std::vector<NodeRef>& refs) {
    std::vector<int64_t> out;
    for (NodeRef ref : refs) {
      out.push_back(*store->GetAttr(ref, Attr::kUniqueId));
    }
    return out;
  };
  struct Closures {
    std::vector<int64_t> c1n, pred, mn, mnatt, link_uids;
    std::vector<int64_t> link_dist;
    int64_t sum = 0;
    uint64_t visited = 0;
    uint64_t flipped = 0;
    int64_t sum_after_flip = 0;
  };
  auto run = [&](HyperStore* store, NodeRef root) {
    Closures c;
    std::vector<NodeRef> refs;
    EXPECT_TRUE(ops::Closure1N(store, root, &refs).ok());
    c.c1n = uids(store, refs);
    EXPECT_TRUE(ops::Closure1NPred(store, root, band, &refs).ok());
    c.pred = uids(store, refs);
    EXPECT_TRUE(ops::ClosureMN(store, root, &refs).ok());
    c.mn = uids(store, refs);
    EXPECT_TRUE(ops::ClosureMNAtt(store, root, 25, &refs).ok());
    c.mnatt = uids(store, refs);
    std::vector<NodeDistance> dists;
    EXPECT_TRUE(ops::ClosureMNAttLinkSum(store, root, 25, &dists).ok());
    for (const NodeDistance& d : dists) {
      c.link_uids.push_back(*store->GetAttr(d.node, Attr::kUniqueId));
      c.link_dist.push_back(d.distance);
    }
    c.sum = *ops::Closure1NAttSum(store, root, &c.visited);
    EXPECT_TRUE(store->Begin().ok());
    c.flipped = *ops::Closure1NAttSet(store, root);
    EXPECT_TRUE(store->Commit().ok());
    c.sum_after_flip = *ops::Closure1NAttSum(store, root, nullptr);
    return c;
  };
  Closures expected = run(&local, db_local->root);
  ASSERT_EQ(expected.c1n.size(), db_local->node_count());
  ASSERT_LT(expected.pred.size(), expected.c1n.size());
  ASSERT_EQ(expected.sum_after_flip,
            99 * static_cast<int64_t>(expected.visited) - expected.sum);

  for (backends::RemoteMode mode :
       {backends::RemoteMode::kPerCall, backends::RemoteMode::kBatched,
        backends::RemoteMode::kPushdown}) {
    SCOPED_TRACE(std::string(backends::RemoteModeName(mode)));
    auto fleet = backends::ShardedStore::Loopback(2, mode);
    ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
    auto db = Generator(config).Build(fleet->get(), nullptr);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    Closures got = run(fleet->get(), db->root);
    EXPECT_EQ(got.c1n, expected.c1n);
    EXPECT_EQ(got.pred, expected.pred);
    EXPECT_EQ(got.mn, expected.mn);
    EXPECT_EQ(got.mnatt, expected.mnatt);
    EXPECT_EQ(got.link_uids, expected.link_uids);
    EXPECT_EQ(got.link_dist, expected.link_dist);
    EXPECT_EQ(got.sum, expected.sum);
    EXPECT_EQ(got.visited, expected.visited);
    EXPECT_EQ(got.flipped, expected.flipped);
    EXPECT_EQ(got.sum_after_flip, expected.sum_after_flip);
  }
}

/// Everything observable about one node, refs translated to uniqueIds.
struct NodeImage {
  std::vector<int64_t> attrs;  // the five attributes, then the kind
  std::string contents;
  std::vector<int64_t> children, parts, part_of;
  std::vector<std::tuple<int64_t, int64_t, int64_t>> refs_to, refs_from;

  bool operator==(const NodeImage&) const = default;
};

/// The image of every node of `db`, in creation order.
std::vector<NodeImage> ImageOf(HyperStore* store, const TestDatabase& db) {
  std::unordered_map<NodeRef, int64_t> uid;
  for (NodeRef node : db.all_nodes) {
    uid[node] = store->GetAttr(node, Attr::kUniqueId).ValueOr(-1);
  }
  auto uids = [&](const std::vector<NodeRef>& refs) {
    std::vector<int64_t> out;
    for (NodeRef ref : refs) out.push_back(uid.at(ref));
    return out;
  };
  auto edges = [&](const std::vector<RefEdge>& list) {
    std::vector<std::tuple<int64_t, int64_t, int64_t>> out;
    for (const RefEdge& e : list) {
      out.emplace_back(uid.at(e.node), e.offset_from, e.offset_to);
    }
    return out;
  };
  std::vector<NodeImage> images;
  for (NodeRef node : db.all_nodes) {
    NodeImage image;
    for (Attr attr : {Attr::kUniqueId, Attr::kTen, Attr::kHundred,
                      Attr::kThousand, Attr::kMillion}) {
      image.attrs.push_back(store->GetAttr(node, attr).ValueOr(-1));
    }
    const NodeKind kind = store->GetKind(node).ValueOr(NodeKind::kDraw);
    image.attrs.push_back(static_cast<int64_t>(kind));
    if (kind == NodeKind::kText) {
      image.contents = store->GetText(node).ValueOr("?");
    } else if (kind == NodeKind::kForm) {
      auto form = store->GetForm(node);
      image.contents = form.ok() ? form->Serialize() : "?";
    }
    // Each list read into a fresh vector: the remote clients append.
    auto refs = [&](auto read) {
      std::vector<NodeRef> out;
      EXPECT_TRUE((store->*read)(node, &out).ok());
      return uids(out);
    };
    auto ref_edges = [&](auto read) {
      std::vector<RefEdge> out;
      EXPECT_TRUE((store->*read)(node, &out).ok());
      return edges(out);
    };
    image.children = refs(&HyperStore::Children);
    image.parts = refs(&HyperStore::Parts);
    image.part_of = refs(&HyperStore::PartOf);
    image.refs_to = ref_edges(&HyperStore::RefsTo);
    image.refs_from = ref_edges(&HyperStore::RefsFrom);
    images.push_back(std::move(image));
  }
  return images;
}

TEST(ShardedStoreTest, PerItemWritesCostOneRequestPerEndpointShard) {
  // A per-item create or edge write on one shard is one request, to the
  // owner. A cross-shard child goes to the child's shard, then to the
  // parent's; a cross-shard part or ref sends one request to each
  // endpoint's shard, both in one round. Each is the fused write with
  // one entry, which every mode sends the same way.
  for (backends::RemoteMode mode :
       {backends::RemoteMode::kPerCall, backends::RemoteMode::kBatched,
        backends::RemoteMode::kPushdown}) {
    SCOPED_TRACE(backends::RemoteModeName(mode));
    auto fleet = backends::ShardedStore::Loopback(2, mode);
    ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
    backends::ShardedStore& store = **fleet;
    // Requests per shard, fan-out rounds and their summed width, and
    // cross-shard edges counted.
    struct Cost {
      uint64_t rpcs[2];
      uint64_t rounds;
      uint64_t width;
      uint64_t cross;
    };
    telemetry::Histogram* fanout =
        telemetry::Registry::Global().GetHistogram("cluster.fanout");
    auto cost_of = [fanout](const auto& write) {
      auto value = [](const std::string& name) {
        return CounterValue(name.c_str());
      };
      const Cost before{
          {value("cluster.shard0.rpcs"), value("cluster.shard1.rpcs")},
          value("cluster.rounds"),
          fanout->sum(),
          value("cluster.cross_shard_edges")};
      write();
      return Cost{{value("cluster.shard0.rpcs") - before.rpcs[0],
                   value("cluster.shard1.rpcs") - before.rpcs[1]},
                  value("cluster.rounds") - before.rounds,
                  fanout->sum() - before.width,
                  value("cluster.cross_shard_edges") - before.cross};
    };
    auto expect = [](const char* what, const Cost& cost, uint64_t rpcs0,
                     uint64_t rpcs1, uint64_t rounds, uint64_t cross) {
      EXPECT_EQ(cost.rpcs[0], rpcs0) << what;
      EXPECT_EQ(cost.rpcs[1], rpcs1) << what;
      EXPECT_EQ(cost.rounds, rounds) << what;
      EXPECT_EQ(cost.width, rpcs0 + rpcs1) << what;
      EXPECT_EQ(cost.cross, cross) << what;
    };

    // The root lands on shard 0; uid 2 joins it, uid 3 goes to shard 1.
    const NodeRef root =
        store.CreateNode(TestAttrs(1), kInvalidNode).ValueOr(kInvalidNode);
    NodeRef a = kInvalidNode;
    NodeRef b = kInvalidNode;
    expect("create on shard 0", cost_of([&] {
             a = store.CreateNode(TestAttrs(2), root).ValueOr(kInvalidNode);
           }),
           1, 0, 1, 0);
    expect("create on shard 1", cost_of([&] {
             b = store.CreateNode(TestAttrs(3), root).ValueOr(kInvalidNode);
           }),
           0, 1, 1, 0);
    ASSERT_EQ(cluster::ShardOf(a), 0u);
    ASSERT_EQ(cluster::ShardOf(b), 1u);

    expect("same-shard child", cost_of([&] {
             ASSERT_TRUE(store.AddChild(root, a).ok());
           }),
           1, 0, 1, 0);
    expect("same-shard part", cost_of([&] {
             ASSERT_TRUE(store.AddPart(root, a).ok());
           }),
           1, 0, 1, 0);
    expect("same-shard ref", cost_of([&] {
             ASSERT_TRUE(store.AddRef(a, root, 1, 2).ok());
           }),
           1, 0, 1, 0);

    expect("cross-shard child", cost_of([&] {
             ASSERT_TRUE(store.AddChild(root, b).ok());
           }),
           1, 1, 2, 1);
    EXPECT_EQ(store.Parent(b).ValueOr(kInvalidNode), root);
    // A second parent: the child's shard refuses it, so the parent's
    // shard hears nothing and its children list stays as it was.
    expect("second parent", cost_of([&] {
             EXPECT_EQ(store.AddChild(a, b).code(),
                       util::StatusCode::kInvalidArgument);
           }),
           0, 1, 1, 0);
    std::vector<NodeRef> children;
    ASSERT_TRUE(store.Children(a, &children).ok());
    EXPECT_TRUE(children.empty());
    ASSERT_TRUE(store.Children(root, &children).ok());
    EXPECT_EQ(children, (std::vector<NodeRef>{a, b}));
    EXPECT_EQ(store.Parent(b).ValueOr(kInvalidNode), root);

    expect("cross-shard part", cost_of([&] {
             ASSERT_TRUE(store.AddPart(a, b).ok());
           }),
           1, 1, 1, 1);
    expect("cross-shard ref", cost_of([&] {
             ASSERT_TRUE(store.AddRef(b, a, 3, 7).ok());
           }),
           1, 1, 1, 1);
    std::vector<NodeRef> owners;
    ASSERT_TRUE(store.PartOf(b, &owners).ok());
    EXPECT_EQ(owners, std::vector<NodeRef>{a});
    std::vector<RefEdge> edges;
    ASSERT_TRUE(store.RefsFrom(a, &edges).ok());
    ASSERT_EQ(edges.size(), 1u);
    EXPECT_EQ(edges[0].node, b);
  }
}

TEST(ShardedStoreTest, SetAtATimeLoadMatchesSerialBuildInEveryMode) {
  // The generator loads a fleet with one fused write per level and per
  // edge phase. Each shard must still receive its entries in input
  // order: a naive "all owner halves, then all other halves" split
  // would reorder partOf and refsFrom. So every node — attributes,
  // contents and all five ordered lists — must match a serial MemStore
  // build of the same seed, uid-translated, on 2 and 3 shards in every
  // mode. The same builds pin the traffic.
  GeneratorConfig config;
  config.levels = 4;
  backends::MemStore local;
  auto db_local = Generator(config).Build(&local, nullptr);
  ASSERT_TRUE(db_local.ok()) << db_local.status().ToString();
  const std::vector<NodeImage> expected = ImageOf(&local, *db_local);
  const uint64_t nodes = db_local->node_count();
  const uint64_t edges = (nodes - 1) + 5 * db_local->internal_nodes.size() +
                         nodes;  // children, parts, refs

  for (uint32_t shards : {2u, 3u}) {
    // Cross-shard edges of this placement, as the serial AddChild /
    // AddPart / AddRef calls counted them.
    const uint64_t cross_edges = shards == 2 ? 782 : 1001;
    for (backends::RemoteMode mode :
         {backends::RemoteMode::kPerCall, backends::RemoteMode::kBatched,
          backends::RemoteMode::kPushdown}) {
      const std::string mode_name(backends::RemoteModeName(mode));
      SCOPED_TRACE(mode_name + " on " + std::to_string(shards) + " shards");
      auto fleet = backends::ShardedStore::Loopback(shards, mode);
      ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
      const telemetry::Snapshot before =
          telemetry::Registry::Global().TakeSnapshot();
      auto db = Generator(config).Build(fleet->get(), nullptr);
      ASSERT_TRUE(db.ok()) << db.status().ToString();
      const telemetry::Snapshot diff =
          telemetry::Registry::Global().TakeSnapshot().DiffSince(before);

      EXPECT_EQ(diff.counter("cluster.cross_shard_edges"), cross_edges);
      const uint64_t roundtrips =
          diff.counter("remote." + mode_name + ".roundtrips");
      if (mode == backends::RemoteMode::kPerCall) {
        // One entry per frame: a round trip per node, per edge half and
        // per shard's Begin and Commit of the five phases. A serial
        // build pays one more per leaf, whose contents now ride in its
        // node's create entry (4549 on 2 shards, 4778 on 3).
        EXPECT_EQ(roundtrips, nodes + edges + cross_edges + 10 * shards);
      } else {
        // Ten transaction calls, five node writes, two children rounds,
        // one parts and one refs write per shard, at most.
        for (uint32_t k = 0; k < shards; ++k) {
          EXPECT_LE(diff.counter("cluster.shard" + std::to_string(k) +
                                 ".rpcs"),
                    19u)
              << "shard " << k;
        }
        EXPECT_LE(roundtrips, 19u * shards);
      }

      const std::vector<NodeImage> got = ImageOf(fleet->get(), *db);
      ASSERT_EQ(got.size(), expected.size());
      for (size_t i = 0; i < got.size(); ++i) {
        SCOPED_TRACE("node " + std::to_string(i));
        EXPECT_EQ(got[i].attrs, expected[i].attrs);
        EXPECT_EQ(got[i].contents, expected[i].contents);
        EXPECT_EQ(got[i].children, expected[i].children);
        EXPECT_EQ(got[i].parts, expected[i].parts);
        EXPECT_EQ(got[i].part_of, expected[i].part_of);
        EXPECT_EQ(got[i].refs_to, expected[i].refs_to);
        EXPECT_EQ(got[i].refs_from, expected[i].refs_from);
        if (got[i] != expected[i]) break;
      }
    }
  }
}

}  // namespace
}  // namespace hm
