#include "cluster/shard_local_store.h"

#include <utility>

namespace hm::cluster {

ShardLocalStore::ShardLocalStore(ShardSpec spec,
                                 std::unique_ptr<HyperStore> base)
    : spec_(spec), base_(std::move(base)),
      proxy_nodes_(telemetry::Registry::Global().GetCounter(
          "cluster.shard.proxy_nodes")) {}

util::Result<std::unique_ptr<ShardLocalStore>> ShardLocalStore::Wrap(
    ShardSpec spec, std::unique_ptr<HyperStore> base) {
  if (spec.count < 1 || spec.count > kMaxShards || spec.id >= spec.count) {
    return util::Status::InvalidArgument("bad shard spec");
  }
  auto store = std::unique_ptr<ShardLocalStore>(
      new ShardLocalStore(spec, std::move(base)));
  // Recover persisted proxies: all of them (and nothing else) carry the
  // sentinel value in every indexed attribute, so one point query on
  // the hundred index enumerates them.
  std::vector<NodeRef> proxies;
  HM_RETURN_IF_ERROR(store->base_->RangeHundred(kProxyUidBase,
                                                kProxyUidBase, &proxies));
  for (NodeRef local : proxies) {
    HM_ASSIGN_OR_RETURN(int64_t uid,
                        store->base_->GetAttr(local, Attr::kUniqueId));
    // uid = kProxyUidBase - global  =>  global = kProxyUidBase - uid.
    NodeRef global = static_cast<NodeRef>(kProxyUidBase - uid);
    store->proxy_by_global_[global] = local;
    store->global_by_proxy_[local] = global;
  }
  return store;
}

util::Result<NodeRef> ShardLocalStore::ToLocal(NodeRef global) const {
  if (global == kInvalidNode) {
    return util::Status::NotFound("invalid node ref");
  }
  if (!Owns(global)) {
    return util::Status::OutOfRange(
        "ref " + std::to_string(global) + " belongs to shard " +
        std::to_string(ShardOf(global)) + ", this is shard " +
        std::to_string(spec_.id));
  }
  NodeRef local = cluster::LocalRef(global);
  if (IsProxyLocal(local)) {
    // Proxies are an encoding artifact of this shard; to the fleet the
    // node only exists on its owner.
    return util::Status::NotFound("no such node on shard " +
                                  std::to_string(spec_.id));
  }
  return local;
}

NodeRef ShardLocalStore::ToGlobal(NodeRef local) const {
  if (local == kInvalidNode) return kInvalidNode;
  auto it = global_by_proxy_.find(local);
  if (it != global_by_proxy_.end()) return it->second;
  return GlobalRef(spec_.id, local);
}

util::Result<NodeRef> ShardLocalStore::EnsureProxy(NodeRef global) {
  auto it = proxy_by_global_.find(global);
  if (it != proxy_by_global_.end()) return it->second;
  NodeAttrs attrs;
  attrs.unique_id = ProxyUid(global);
  attrs.ten = kProxyUidBase;
  attrs.hundred = kProxyUidBase;
  attrs.thousand = kProxyUidBase;
  attrs.million = kProxyUidBase;
  attrs.kind = NodeKind::kInternal;
  HM_ASSIGN_OR_RETURN(NodeRef local,
                      base_->CreateNode(attrs, kInvalidNode));
  if (local > kLocalRefMask) {
    return util::Status::Internal("backend ref exceeds 56-bit shard space");
  }
  proxy_by_global_[global] = local;
  global_by_proxy_[local] = global;
  proxy_nodes_->Add();
  return local;
}

util::Result<NodeRef> ShardLocalStore::EndpointLocal(NodeRef global) {
  if (global == kInvalidNode) {
    return util::Status::NotFound("invalid node ref");
  }
  if (Owns(global)) return ToLocal(global);
  return EnsureProxy(global);
}

void ShardLocalStore::TranslateList(std::vector<NodeRef>* refs) const {
  for (NodeRef& r : *refs) r = ToGlobal(r);
}

void ShardLocalStore::TranslateEdges(std::vector<RefEdge>* edges) const {
  for (RefEdge& e : *edges) e.node = ToGlobal(e.node);
}

util::Result<NodeRef> ShardLocalStore::CreateNode(const NodeAttrs& attrs,
                                                  NodeRef near) {
  if (attrs.unique_id <= kProxyUidBase) {
    return util::Status::InvalidArgument(
        "uniqueId range below -2^62 is reserved for shard proxies");
  }
  // A placement hint naming a foreign node is meaningless to this
  // backend; drop it rather than point at an unrelated proxy.
  NodeRef local_near = kInvalidNode;
  if (near != kInvalidNode && Owns(near)) {
    HM_ASSIGN_OR_RETURN(local_near, ToLocal(near));
  }
  HM_ASSIGN_OR_RETURN(NodeRef local, base_->CreateNode(attrs, local_near));
  if (local > kLocalRefMask) {
    return util::Status::Internal("backend ref exceeds 56-bit shard space");
  }
  return GlobalRef(spec_.id, local);
}

util::Status ShardLocalStore::SetText(NodeRef node, std::string_view text) {
  HM_ASSIGN_OR_RETURN(NodeRef local, ToLocal(node));
  return base_->SetText(local, text);
}

util::Status ShardLocalStore::SetForm(NodeRef node,
                                      const util::Bitmap& form) {
  HM_ASSIGN_OR_RETURN(NodeRef local, ToLocal(node));
  return base_->SetForm(local, form);
}

util::Status ShardLocalStore::AddChild(NodeRef parent, NodeRef child) {
  if (!Owns(parent) && !Owns(child)) {
    return util::Status::InvalidArgument(
        "neither endpoint of addChild lives on shard " +
        std::to_string(spec_.id));
  }
  HM_ASSIGN_OR_RETURN(NodeRef lp, EndpointLocal(parent));
  HM_ASSIGN_OR_RETURN(NodeRef lc, EndpointLocal(child));
  return base_->AddChild(lp, lc);
}

util::Status ShardLocalStore::AddPart(NodeRef owner, NodeRef part) {
  if (!Owns(owner) && !Owns(part)) {
    return util::Status::InvalidArgument(
        "neither endpoint of addPart lives on shard " +
        std::to_string(spec_.id));
  }
  HM_ASSIGN_OR_RETURN(NodeRef lo, EndpointLocal(owner));
  HM_ASSIGN_OR_RETURN(NodeRef lp, EndpointLocal(part));
  return base_->AddPart(lo, lp);
}

util::Status ShardLocalStore::AddRef(NodeRef from, NodeRef to,
                                     int64_t offset_from,
                                     int64_t offset_to) {
  if (!Owns(from) && !Owns(to)) {
    return util::Status::InvalidArgument(
        "neither endpoint of addRef lives on shard " +
        std::to_string(spec_.id));
  }
  HM_ASSIGN_OR_RETURN(NodeRef lf, EndpointLocal(from));
  HM_ASSIGN_OR_RETURN(NodeRef lt, EndpointLocal(to));
  return base_->AddRef(lf, lt, offset_from, offset_to);
}

util::Result<int64_t> ShardLocalStore::GetAttr(NodeRef node, Attr attr) {
  HM_ASSIGN_OR_RETURN(NodeRef local, ToLocal(node));
  return base_->GetAttr(local, attr);
}

util::Status ShardLocalStore::SetAttr(NodeRef node, Attr attr,
                                      int64_t value) {
  HM_ASSIGN_OR_RETURN(NodeRef local, ToLocal(node));
  return base_->SetAttr(local, attr, value);
}

util::Result<NodeKind> ShardLocalStore::GetKind(NodeRef node) {
  HM_ASSIGN_OR_RETURN(NodeRef local, ToLocal(node));
  return base_->GetKind(local);
}

util::Result<std::string> ShardLocalStore::GetText(NodeRef node) {
  HM_ASSIGN_OR_RETURN(NodeRef local, ToLocal(node));
  return base_->GetText(local);
}

util::Result<util::Bitmap> ShardLocalStore::GetForm(NodeRef node) {
  HM_ASSIGN_OR_RETURN(NodeRef local, ToLocal(node));
  return base_->GetForm(local);
}

util::Status ShardLocalStore::SetContents(NodeRef node,
                                          std::string_view data) {
  HM_ASSIGN_OR_RETURN(NodeRef local, ToLocal(node));
  return base_->SetContents(local, data);
}

util::Result<std::string> ShardLocalStore::GetContents(NodeRef node) {
  HM_ASSIGN_OR_RETURN(NodeRef local, ToLocal(node));
  return base_->GetContents(local);
}

util::Result<NodeRef> ShardLocalStore::LookupUnique(int64_t unique_id) {
  if (unique_id <= kProxyUidBase) {
    return util::Status::NotFound("no node with uniqueId " +
                                  std::to_string(unique_id));
  }
  HM_ASSIGN_OR_RETURN(NodeRef local, base_->LookupUnique(unique_id));
  return GlobalRef(spec_.id, local);
}

util::Status ShardLocalStore::RangeHundred(int64_t lo, int64_t hi,
                                           std::vector<NodeRef>* out) {
  HM_RETURN_IF_ERROR(base_->RangeHundred(lo, hi, out));
  // Proxies carry the sentinel in every indexed attribute, so they can
  // only show up when the query range reaches down to it.
  if (lo <= kProxyUidBase) {
    std::erase_if(*out, [&](NodeRef r) { return IsProxyLocal(r); });
  }
  TranslateList(out);
  return util::Status::Ok();
}

util::Status ShardLocalStore::RangeMillion(int64_t lo, int64_t hi,
                                           std::vector<NodeRef>* out) {
  HM_RETURN_IF_ERROR(base_->RangeMillion(lo, hi, out));
  if (lo <= kProxyUidBase) {
    std::erase_if(*out, [&](NodeRef r) { return IsProxyLocal(r); });
  }
  TranslateList(out);
  return util::Status::Ok();
}

util::Status ShardLocalStore::Children(NodeRef node,
                                       std::vector<NodeRef>* out) {
  HM_ASSIGN_OR_RETURN(NodeRef local, ToLocal(node));
  HM_RETURN_IF_ERROR(base_->Children(local, out));
  TranslateList(out);
  return util::Status::Ok();
}

util::Status ShardLocalStore::ChildrenAndAttr(NodeRef node, Attr attr,
                                              std::vector<NodeRef>* out,
                                              int64_t* value) {
  HM_ASSIGN_OR_RETURN(NodeRef local, ToLocal(node));
  HM_RETURN_IF_ERROR(base_->ChildrenAndAttr(local, attr, out, value));
  TranslateList(out);
  return util::Status::Ok();
}

util::Result<NodeRef> ShardLocalStore::Parent(NodeRef node) {
  HM_ASSIGN_OR_RETURN(NodeRef local, ToLocal(node));
  HM_ASSIGN_OR_RETURN(NodeRef parent, base_->Parent(local));
  return ToGlobal(parent);
}

util::Status ShardLocalStore::Parts(NodeRef node,
                                    std::vector<NodeRef>* out) {
  HM_ASSIGN_OR_RETURN(NodeRef local, ToLocal(node));
  HM_RETURN_IF_ERROR(base_->Parts(local, out));
  TranslateList(out);
  return util::Status::Ok();
}

util::Status ShardLocalStore::PartOf(NodeRef node,
                                     std::vector<NodeRef>* out) {
  HM_ASSIGN_OR_RETURN(NodeRef local, ToLocal(node));
  HM_RETURN_IF_ERROR(base_->PartOf(local, out));
  TranslateList(out);
  return util::Status::Ok();
}

util::Status ShardLocalStore::RefsTo(NodeRef node,
                                     std::vector<RefEdge>* out) {
  HM_ASSIGN_OR_RETURN(NodeRef local, ToLocal(node));
  HM_RETURN_IF_ERROR(base_->RefsTo(local, out));
  TranslateEdges(out);
  return util::Status::Ok();
}

util::Status ShardLocalStore::RefsFrom(NodeRef node,
                                       std::vector<RefEdge>* out) {
  HM_ASSIGN_OR_RETURN(NodeRef local, ToLocal(node));
  HM_RETURN_IF_ERROR(base_->RefsFrom(local, out));
  TranslateEdges(out);
  return util::Status::Ok();
}

}  // namespace hm::cluster
