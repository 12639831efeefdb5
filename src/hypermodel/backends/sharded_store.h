#ifndef HM_HYPERMODEL_BACKENDS_SHARDED_STORE_H_
#define HM_HYPERMODEL_BACKENDS_SHARDED_STORE_H_

#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "hypermodel/backends/remote_store.h"
#include "hypermodel/store.h"
#include "hypermodel/traversal.h"
#include "telemetry/metrics.h"

namespace hm::backends {

/// Client half of the cluster subsystem (DESIGN.md §14): one logical
/// HyperModel database spread over N independent `hmbench serve
/// --shard=k/N` processes, presented as a single HyperStore. Spelled
/// `shard://host:port,host:port,...` — entry k serves shard k.
///
/// Placement partitions the §5 hierarchy by top-level subtree: the
/// root lands on shard 0; a node created `near` the root is placed by
/// uniqueId modulo N; every deeper node is placed `near` its parent,
/// so a whole subtree is co-resident and 1-N closure traffic crosses
/// shards only at the root fan-out. Cross-shard edges travel as
/// shard-qualified refs (cluster/shard_map.h) and are double-written,
/// one side per endpoint shard, with no distributed transaction (a
/// mid-pair transport failure surfaces kUnavailable and may leave the
/// pair half-written). Every create and edge write is a fused write,
/// split by owner and sent in rounds: a level of nodes or an edge
/// phase of the generator costs a few rounds, and a per-item write is
/// the same write with one entry.
///
/// Reads route by the ref's shard byte. Whatever goes to more than one
/// shard goes in rounds: each round sends one request to every shard
/// it involves before it reads any reply. Index scans fan out to every
/// shard and merge client-side in canonical (value, uniqueId) order.
/// As a FrontierFetch the client partitions each frontier by owner and
/// sends one fused request per touched shard, all in one round. §6.6
/// closures first try single-shard pushdown on the start node's owner
/// — if the walk stays on one shard it is exactly the remote fast path
/// — and otherwise run the traversal engine over those partitioned
/// fetches: on kOutOfRange (ShardLocalStore's typed "walk left my
/// shard" answer), or always when the shard clients are not in
/// pushdown mode. The attribute-update closure is never pushed down on
/// a fleet, because the server would mutate attributes up to the first
/// shard crossing before erroring.
///
/// Telemetry: `cluster.shard<k>.rpcs` (requests sent to shard k),
/// `cluster.rounds` (fan-out rounds), `cluster.fanout` (shards per
/// round) and `cluster.cross_shard_edges`.
///
/// Like every HyperStore, a ShardedStore is single-threaded.
class ShardedStore : public HyperStore,
                     public TraversalCapable,
                     public FrontierFetch {
 public:
  /// Connects to a running fleet. `addr_list` is the comma-separated
  /// address list, with or without the shard:// prefix. Each server's
  /// kShardInfo must answer exactly (its index, fleet size) — a
  /// mis-wired fleet is rejected here, not discovered as silent
  /// misrouting later. `base_options` supplies everything but
  /// host/port (mode, deadline, retry budget) to every shard client.
  static util::Result<std::unique_ptr<ShardedStore>> Connect(
      const std::string& addr_list, RemoteOptions base_options = {});

  /// Self-contained in-process fleet: N loopback servers on ephemeral
  /// ports, each a ShardLocalStore over a fresh MemStore. The returned
  /// store owns all the servers (this is `--backend=shard` without a
  /// `--remote` address, and what the tests use).
  static util::Result<std::unique_ptr<ShardedStore>> Loopback(
      uint32_t shard_count, RemoteMode mode = RemoteMode::kPushdown,
      RemoteOptions client_options = {});

  std::string name() const override { return "shard"; }

  /// One connection per shard, one request outstanding on each; the
  /// client is single-threaded like its per-shard clients.
  bool SupportsConcurrentReads() const override { return false; }

  size_t shard_count() const { return shards_.size(); }
  /// Per-shard client (tests reach through this to e.g. stop one
  /// loopback shard's server).
  RemoteStore* shard(size_t k) { return shards_[k].get(); }

  /// Fans kReset to every shard (harness reset-on-open, like remote).
  util::Status ResetServer();

  util::Status Begin() override;
  util::Status Commit() override;
  util::Status Abort() override;
  util::Status CloseReopen() override;

  /// The per-item creates and edge writes are the fused writes below
  /// with one entry; a create carries no contents.
  util::Result<NodeRef> CreateNode(const NodeAttrs& attrs,
                                   NodeRef near) override;
  util::Status SetText(NodeRef node, std::string_view text) override;
  util::Status SetForm(NodeRef node, const util::Bitmap& form) override;
  util::Status AddChild(NodeRef parent, NodeRef child) override;
  util::Status AddPart(NodeRef owner, NodeRef part) override;
  util::Status AddRef(NodeRef from, NodeRef to, int64_t offset_from,
                      int64_t offset_to) override;

  util::Result<int64_t> GetAttr(NodeRef node, Attr attr) override;
  util::Status SetAttr(NodeRef node, Attr attr, int64_t value) override;
  util::Result<NodeKind> GetKind(NodeRef node) override;
  util::Result<std::string> GetText(NodeRef node) override;
  util::Result<util::Bitmap> GetForm(NodeRef node) override;
  util::Status SetContents(NodeRef node, std::string_view data) override;
  util::Result<std::string> GetContents(NodeRef node) override;

  util::Result<NodeRef> LookupUnique(int64_t unique_id) override;
  util::Status RangeHundred(int64_t lo, int64_t hi,
                            std::vector<NodeRef>* out) override;
  util::Status RangeMillion(int64_t lo, int64_t hi,
                            std::vector<NodeRef>* out) override;

  util::Status Children(NodeRef node, std::vector<NodeRef>* out) override;
  util::Result<NodeRef> Parent(NodeRef node) override;
  util::Status Parts(NodeRef node, std::vector<NodeRef>* out) override;
  util::Status PartOf(NodeRef node, std::vector<NodeRef>* out) override;
  util::Status RefsTo(NodeRef node, std::vector<RefEdge>* out) override;
  util::Status RefsFrom(NodeRef node, std::vector<RefEdge>* out) override;

  util::Result<uint64_t> StorageBytes() override;

  // --- FrontierFetch -------------------------------------------------
  util::Status ChildrenMulti(std::span<const NodeRef> nodes,
                             RefLists* out) override;
  util::Status PartsMulti(std::span<const NodeRef> nodes,
                          RefLists* out) override;
  util::Status RefsToMulti(std::span<const NodeRef> nodes,
                           EdgeLists* out) override;
  util::Status ChildrenAttrsMulti(std::span<const NodeRef> nodes, Attr attr,
                                  RefLists* children,
                                  std::vector<int64_t>* values) override;
  util::Status GetAttrsMulti(std::span<const NodeRef> nodes, Attr attr,
                             std::vector<int64_t>* values) override;
  util::Status SetAttrsMulti(std::span<const NodeRef> nodes, Attr attr,
                             std::span<const int64_t> values) override;
  /// Each node goes to the shard PlaceOf picks; refs come back in input
  /// order.
  util::Status CreateNodesMulti(std::span<const NodeAttrs> attrs,
                                std::span<const NodeRef> near,
                                std::span<const std::string_view> contents,
                                std::vector<NodeRef>* refs) override;
  /// Two rounds: the child-side halves of the cross-shard edges, then —
  /// only if they all landed — every parent-side call in input order.
  util::Status AddChildrenMulti(std::span<const NodeRef> parents,
                                std::span<const NodeRef> children) override;
  /// One round: each shard receives every edge that touches it, in
  /// input order, so its parts, partOf, refsTo and refsFrom lists come
  /// out as a serial build leaves them.
  util::Status AddPartsMulti(std::span<const NodeRef> owners,
                             std::span<const NodeRef> parts) override;
  util::Status AddRefsMulti(std::span<const NodeRef> from,
                            std::span<const NodeRef> to,
                            std::span<const int64_t> offset_from,
                            std::span<const int64_t> offset_to) override;

  // --- TraversalCapable ----------------------------------------------
  util::Status BulkGetAttr(std::span<const NodeRef> nodes, Attr attr,
                           std::vector<int64_t>* values) override;
  util::Status TravClosure1N(NodeRef start,
                             std::vector<NodeRef>* out) override;
  util::Result<int64_t> TravClosure1NAttSum(NodeRef start,
                                            uint64_t* visited) override;
  util::Result<uint64_t> TravClosure1NAttSet(NodeRef start) override;
  util::Status TravClosure1NPred(NodeRef start, int64_t lo, int64_t hi,
                                 std::vector<NodeRef>* out) override;
  util::Status TravClosureMN(NodeRef start,
                             std::vector<NodeRef>* out) override;
  util::Status TravClosureMNAtt(NodeRef start, int depth,
                                std::vector<NodeRef>* out) override;
  util::Status TravClosureMNAttLinkSum(NodeRef start, int depth,
                                       std::vector<NodeDistance>* out) override;

 private:
  explicit ShardedStore(std::vector<std::unique_ptr<RemoteStore>> shards);

  bool Single() const { return shards_.size() == 1; }
  /// Shard client k, counting the logical call against its telemetry.
  RemoteStore* At(size_t k);
  /// Validates the ref's shard byte against the fleet size.
  util::Status OwnerOf(NodeRef node, size_t* shard) const;
  /// The shard a node created from `attrs` near `near` lands on.
  util::Status PlaceOf(const NodeAttrs& attrs, NodeRef near,
                       size_t* shard) const;

  /// One fan-out round: FanOut of frames[k] to shard k (null: not in
  /// this round), so every request is sent before any reply is read,
  /// and every posted reply is read even after a failure. Counts
  /// `cluster.rounds`, `cluster.fanout` and each shard's rpcs, and
  /// returns the first failure in shard order; `statuses` (may be null)
  /// receives every shard's outcome.
  util::Status Round(std::span<Frame* const> frames,
                     std::vector<util::Status>* statuses = nullptr);
  /// Runs (*frames)[k] on shard k in rounds: round r sends frame r of
  /// every shard that has one. Stops after the first failed round.
  util::Status Rounds(std::vector<Frames>* frames);
  /// Sends `C(args...)` to every shard in one round; shard k's reply
  /// decodes into (*replies)[k] and its outcome lands in (*statuses)[k]
  /// (may be null).
  template <typename C, typename... A>
  util::Status Broadcast(std::vector<typename C::Reply>* replies,
                         std::vector<util::Status>* statuses,
                         const A&... args);
  /// Broadcast of an argument-less call whose replies nobody reads.
  template <typename C>
  util::Status Broadcast();

  /// A frontier split by owner: nodes[k] holds shard k's nodes in input
  /// order, and where[i] = (k, j) says input i is nodes[k][j].
  struct Split {
    std::vector<std::vector<NodeRef>> nodes;
    std::vector<std::pair<size_t, size_t>> where;
  };
  util::Status SplitByOwner(std::span<const NodeRef> nodes,
                            Split* split) const;
  /// The fan-out behind every FrontierFetch method and the scan merge:
  /// build(k, items[k]) makes the frames of each non-empty slice (nodes,
  /// or input positions), which then run in Rounds — one round per
  /// frame, usually one per call.
  template <typename T, typename Build>
  util::Status Scatter(const std::vector<std::vector<T>>& items,
                       Build build);
  /// Scatter for the list fetches, merging the per-shard lists back
  /// into input order.
  template <typename T>
  util::Status GatherLists(
      std::span<const NodeRef> nodes, FlatLists<T>* out,
      Frames (RemoteStore::*make)(std::span<const NodeRef>, FlatLists<T>*));
  /// The fused edge write behind AddChildrenMulti, AddPartsMulti and
  /// AddRefsMulti: edge i is (a[i], b[i]), and make(k, picks) builds
  /// shard k's frames for the input positions `picks`. Every edge goes
  /// to a[i]'s shard, and a cross-shard edge to b[i]'s too, counted in
  /// `cluster.cross_shard_edges` once the write lands. Each shard gets
  /// its edges in input order: with `b_first` the b-side halves go in
  /// rounds before any a-side call, otherwise in the same rounds.
  template <typename Make>
  util::Status WriteEdges(std::span<const NodeRef> a,
                          std::span<const NodeRef> b, bool b_first,
                          Make make);
  /// One shard-merged index scan (shared by RangeHundred/Million).
  util::Status FanRange(bool hundred, int64_t lo, int64_t hi,
                        std::vector<NodeRef>* out);
  /// Runs a read-only closure: pushed down to the start node's owner
  /// when the shard clients push down, else (or when the walk leaves
  /// that shard) through the engine over this client's fetches.
  template <typename Pushed, typename Engine>
  auto Closure(NodeRef start, Pushed pushed, Engine engine)
      -> decltype(engine());

  std::vector<std::unique_ptr<RemoteStore>> shards_;
  /// First node ever created through this client — the §5 root, whose
  /// `near` hint spreads level-1 subtrees across the fleet.
  NodeRef root_ = kInvalidNode;
  std::vector<telemetry::Counter*> rpcs_;
  telemetry::Histogram* fanout_;
  telemetry::Counter* rounds_;
  telemetry::Counter* cross_edges_;
};

}  // namespace hm::backends

#endif  // HM_HYPERMODEL_BACKENDS_SHARDED_STORE_H_
