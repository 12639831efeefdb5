#ifndef HM_CLUSTER_SHARD_LOCAL_STORE_H_
#define HM_CLUSTER_SHARD_LOCAL_STORE_H_

#include <memory>
#include <string>
#include <unordered_map>

#include "cluster/shard_map.h"
#include "hypermodel/store.h"
#include "telemetry/metrics.h"

namespace hm::cluster {

/// uniqueId space reserved for proxy nodes: a proxy for global ref g
/// carries uniqueId = kProxyUidBase - g, and every sentinel attribute
/// value is kProxyUidBase itself. With kMaxShards = 64 every global
/// ref is < 2^62, so proxy uniqueIds live in (-2^63, -2^62] — far
/// below anything the generator (positive uids) or a sane application
/// produces, which keeps proxies invisible to LookupUnique and the
/// Range* indexes at every value a benchmark op can ask about
/// (op /*12*/ legitimately drives `hundred` to 99-100 = -1, so a
/// merely-negative sentinel would not be safe).
inline constexpr int64_t kProxyUidBase = -(int64_t{1} << 62);

inline int64_t ProxyUid(NodeRef global) {
  return kProxyUidBase - static_cast<int64_t>(global);
}

/// Server-side half of the cluster subsystem: wraps one shard's real
/// backend and translates between the fleet-wide shard-qualified refs
/// on the wire and the backend's local refs, so the backend itself
/// never learns it is part of a fleet.
///
/// Translation rules:
///  - A ref owned by this shard maps to its 56-bit local part (and
///    back, by qualifying with this shard's id).
///  - A ref owned by another shard is representable only as an edge
///    endpoint. Every backend validates both endpoints of AddChild/
///    AddPart/AddRef locally, so the foreign endpoint is materialized
///    as a local *proxy node* (find-or-create, keyed by global ref)
///    carrying the reserved uniqueId/sentinel attributes above. The
///    edge is stored against the proxy; when the edge list is read
///    back, the proxy translates to the foreign global ref it stands
///    for. Proxies never escape: list reads translate them away,
///    LookupUnique and Range* filter them, and a stray local ref that
///    names one answers NotFound.
///  - Reading *through* a foreign ref (GetAttr, Children, ... of a
///    node this shard does not own) answers kOutOfRange. That makes
///    server-side closure pushdown fail fast at the first shard
///    crossing instead of silently truncating the walk — the routing
///    client treats kOutOfRange as "fall back to the distributed
///    scatter-gather kernel".
///
/// Cross-shard edges are thus stored twice (once per endpoint's
/// shard), each side anchored at its real node, with no 2PC: the
/// routing client orders the two writes (child/target side first) and
/// a transport failure between them surfaces kUnavailable, leaving a
/// half-added edge — the documented no-distributed-transactions
/// limitation (DESIGN.md §14).
///
/// Proxy maps are rebuilt on open by scanning the reserved sentinel
/// range, so persistent backends survive restarts.
class ShardLocalStore : public HyperStore {
 public:
  /// Wraps `base` as shard `spec.id` of `spec.count`, recovering any
  /// persisted proxy nodes from the backend.
  static util::Result<std::unique_ptr<ShardLocalStore>> Wrap(
      ShardSpec spec, std::unique_ptr<HyperStore> base);

  /// Reports the wrapped backend's tag so Hello still names the real
  /// storage engine ("mem", "oodb", ...).
  std::string name() const override { return base_->name(); }

  /// Translation only reads the proxy maps on the read path (they are
  /// mutated exclusively by Add*/CreateNode, which the server already
  /// serializes), so concurrency is whatever the backend offers.
  bool SupportsConcurrentReads() const override {
    return base_->SupportsConcurrentReads();
  }

  uint32_t shard_id() const { return spec_.id; }
  uint32_t shard_count() const { return spec_.count; }

  util::Status Begin() override { return base_->Begin(); }
  util::Status Commit() override { return base_->Commit(); }
  util::Status Abort() override { return base_->Abort(); }
  util::Status CloseReopen() override { return base_->CloseReopen(); }

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
  util::Status ChildrenAndAttr(NodeRef node, Attr attr,
                               std::vector<NodeRef>* out,
                               int64_t* value) override;
  util::Result<NodeRef> Parent(NodeRef node) override;
  util::Status Parts(NodeRef node, std::vector<NodeRef>* out) override;
  util::Status PartOf(NodeRef node, std::vector<NodeRef>* out) override;
  util::Status RefsTo(NodeRef node, std::vector<RefEdge>* out) override;
  util::Status RefsFrom(NodeRef node, std::vector<RefEdge>* out) override;

  util::Result<uint64_t> StorageBytes() override {
    return base_->StorageBytes();
  }

 private:
  ShardLocalStore(ShardSpec spec, std::unique_ptr<HyperStore> base);

  bool Owns(NodeRef global) const { return ShardOf(global) == spec_.id; }
  bool IsProxyLocal(NodeRef local) const {
    return global_by_proxy_.contains(local);
  }

  /// Global -> local for a ref this shard owns; kOutOfRange otherwise,
  /// NotFound for a ref that names a proxy (proxies are invisible).
  util::Result<NodeRef> ToLocal(NodeRef global) const;
  /// Local -> global: proxies map to the foreign ref they stand for,
  /// real locals get qualified with this shard's id, 0 stays 0.
  NodeRef ToGlobal(NodeRef local) const;
  /// Finds or creates the proxy node for a foreign global ref.
  util::Result<NodeRef> EnsureProxy(NodeRef global);
  /// Resolves one edge endpoint: local part for an owned ref, proxy
  /// local for a foreign one.
  util::Result<NodeRef> EndpointLocal(NodeRef global);

  void TranslateList(std::vector<NodeRef>* refs) const;
  void TranslateEdges(std::vector<RefEdge>* edges) const;

  ShardSpec spec_;
  std::unique_ptr<HyperStore> base_;
  /// proxy local ref <-> the foreign global ref it stands for.
  std::unordered_map<NodeRef, NodeRef> proxy_by_global_;
  std::unordered_map<NodeRef, NodeRef> global_by_proxy_;
  telemetry::Counter* proxy_nodes_;
};

}  // namespace hm::cluster

#endif  // HM_CLUSTER_SHARD_LOCAL_STORE_H_
