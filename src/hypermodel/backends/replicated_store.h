#ifndef HM_HYPERMODEL_BACKENDS_REPLICATED_STORE_H_
#define HM_HYPERMODEL_BACKENDS_REPLICATED_STORE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "hypermodel/backends/remote_store.h"
#include "hypermodel/store.h"
#include "hypermodel/traversal.h"
#include "telemetry/metrics.h"
#include "util/status.h"

namespace hm::backends {

struct ReplicatedOptions {
  /// Peers in configuration order; peers[0] is the presumed primary
  /// until the client learns better (an existing higher-epoch primary,
  /// or its own promotion after a failure).
  std::vector<RemoteOptions> peers;
};

/// Parses "host:port;host:port;..." (the `remote://a;b;c` spelling
/// minus the scheme) into peer options. Semicolons separate replicas;
/// commas belong to the shard:// fleet spelling.
util::Result<ReplicatedOptions> ParseReplicatedAddrs(const std::string& spec);

/// Replica-aware client (DESIGN.md §16): one RemoteStore connection
/// per peer, with role-based routing on top.
///
///   - Writes, and every op of a transaction that has performed a
///     write, go to the primary.
///   - Reads fan out round-robin over the replicas under a
///     read-your-writes watermark: after this client writes, a replica
///     may serve its reads again only once its replayed LSN has caught
///     up to the primary's durable LSN (observed once, lazily, after
///     the write). Lagging replicas fall back to the primary.
///   - Transactions materialize lazily: Begin() is deferred until the
///     first write, so the driver's read-only Begin/Commit brackets
///     still scale across replicas. Replicas reject writes with a
///     typed kReadOnly, so a routing bug surfaces loudly instead of
///     forking history.
///
/// Failover is client-driven: when the primary stops answering, the
/// client probes every peer at once (kReplStatus), adopts an existing
/// primary with a newer epoch if one is found, and otherwise promotes
/// the replica with the highest replayed LSN under an epoch one above
/// the highest it has seen, then best-effort fences the others, again
/// all at once. A write whose fate is unknown is never re-sent — it
/// surfaces kUnavailable and the *next* write lands on the new
/// primary. A resurrected old primary is fenced on first contact
/// (kReplFence), after which it answers kFencedOff.
///
/// Closures route like any other call: the read-only kernels are one
/// read on the chosen peer (pushed down, or the engine over that
/// peer's fetches, per its RemoteMode) and the attribute-update kernel
/// is one write on the primary.
class ReplicatedStore : public HyperStore, public TraversalCapable {
 public:
  static util::Result<std::unique_ptr<ReplicatedStore>> Connect(
      const ReplicatedOptions& options);

  ~ReplicatedStore() override = default;

  std::string name() const override { return "replicated"; }

  /// Index (into options.peers) of the peer currently treated as
  /// primary, and the highest epoch this client has observed.
  size_t primary_index() const { return primary_; }
  uint64_t known_epoch() const { return epoch_; }

  /// Forwards kReset to the primary (benchmark-harness hook, mirrors
  /// RemoteStore::ResetServer).
  util::Status ResetServer();

  util::Status Begin() override;
  util::Status Commit() override;
  util::Status Abort() override;
  util::Status CloseReopen() override;

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
  explicit ReplicatedStore(ReplicatedOptions options);

  /// Lazily (re)connects peer `i`. Null on failure (peer marked down).
  RemoteStore* Peer(size_t i);
  /// The primary's connection, or null when it is unreachable.
  RemoteStore* Primary() { return Peer(primary_); }

  /// Probes peer `i` (kReplStatus query form), updating its cached
  /// replayed LSN, the known epoch, and fencing stale primaries on
  /// contact. Returns false when unreachable.
  bool ProbePeer(size_t i, server::ReplPeer* out);
  /// ProbePeer for every peer in `targets` in one round: all queries
  /// are sent before any answer is read, then the answers are folded
  /// in `targets` order. Returns which peers answered; (*peers)[i]
  /// holds peer i's record.
  std::vector<bool> Probe(std::span<const size_t> targets,
                          std::vector<server::ReplPeer>* peers);
  /// Fences every peer in `targets` at the known epoch, all at once.
  void Fence(std::span<const size_t> targets);

  /// Re-reads the primary's durable LSN into watermark_ (called after
  /// a write made it stale). Failure leaves the watermark stale — the
  /// read that needed it falls back to the primary.
  void RefreshWatermark();

  /// The failover sweep described on the class. Ok when a (new or
  /// adopted) primary is in place.
  util::Status Failover();

  /// Picks the connection a read should use: a caught-up replica when
  /// the transaction (if any) is clean, else the primary.
  RemoteStore* PickReadPeer(size_t* index_out);

  /// Sends the deferred Begin when a write materializes the
  /// transaction on the primary.
  util::Status MaterializeTxn(RemoteStore* primary);

  /// Runs `fn` against the write target (the primary). On transport
  /// failure runs the failover sweep so the *next* write can land, but
  /// surfaces this one's kUnavailable untouched (its fate is unknown).
  template <typename Fn>
  auto WriteOp(Fn&& fn) -> decltype(fn(*(RemoteStore*)nullptr));

  /// Runs `fn` against a read target, falling over across replicas
  /// and finally the (possibly re-elected) primary.
  template <typename Fn>
  auto ReadOp(Fn&& fn) -> decltype(fn(*(RemoteStore*)nullptr));

  const ReplicatedOptions options_;
  std::vector<std::unique_ptr<RemoteStore>> conns_;
  std::vector<bool> down_;        // peer marked unreachable
  std::vector<uint64_t> replayed_;  // cached replayed LSN per peer

  size_t primary_ = 0;
  uint64_t epoch_ = 0;       // highest epoch observed anywhere
  uint64_t watermark_ = 0;   // primary durable LSN to read past
  bool watermark_stale_ = true;
  size_t rr_ = 0;            // replica round-robin cursor
  uint64_t reads_ = 0;       // read counter (down-peer revive pacing)

  bool txn_active_ = false;  // Begin() seen, Commit/Abort not yet
  bool txn_dirty_ = false;   // the active txn has written (materialized)
  bool txn_lost_ = false;    // materialized txn's primary failed over

  telemetry::Counter* replica_reads_;
  telemetry::Counter* primary_reads_;
  telemetry::Counter* failovers_;
  telemetry::Counter* fences_sent_;
};

}  // namespace hm::backends

#endif  // HM_HYPERMODEL_BACKENDS_REPLICATED_STORE_H_
