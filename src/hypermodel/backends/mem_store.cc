#include "hypermodel/backends/mem_store.h"

#include <algorithm>
#include <fstream>

#include "telemetry/metrics.h"
#include "util/coding.h"

namespace hm::backends {

util::Result<MemStore::MemNode*> MemStore::Find(NodeRef node) {
  if (node == kInvalidNode || node > nodes_.size()) {
    return util::Status::NotFound("no such node ref " +
                                  std::to_string(node));
  }
  return &nodes_[node - 1];
}

void MemStore::IndexErase(std::map<int64_t, std::vector<NodeRef>>* index,
                          int64_t value, NodeRef node) {
  auto it = index->find(value);
  if (it == index->end()) return;
  auto& bucket = it->second;
  bucket.erase(std::remove(bucket.begin(), bucket.end(), node),
               bucket.end());
  if (bucket.empty()) index->erase(it);
}

namespace {

// Live node/edge totals (`backend.mem.*`). Process-wide across store
// instances, so per-phase registry diffs show how much each run grew
// the database.
void CountNodes(int64_t n) {
  static telemetry::Gauge* nodes =
      telemetry::Registry::Global().GetGauge("backend.mem.nodes");
  nodes->Add(n);
}

void CountEdges(int64_t n) {
  static telemetry::Gauge* edges =
      telemetry::Registry::Global().GetGauge("backend.mem.edges");
  edges->Add(n);
}

util::Result<int64_t> AttrOf(const NodeAttrs& attrs, Attr attr) {
  switch (attr) {
    case Attr::kUniqueId:
      return attrs.unique_id;
    case Attr::kTen:
      return attrs.ten;
    case Attr::kHundred:
      return attrs.hundred;
    case Attr::kThousand:
      return attrs.thousand;
    case Attr::kMillion:
      return attrs.million;
  }
  return util::Status::InvalidArgument("unknown attribute");
}

}  // namespace

util::Result<NodeRef> MemStore::CreateNode(const NodeAttrs& attrs,
                                           NodeRef near) {
  (void)near;  // no physical placement in memory
  if (by_unique_.contains(attrs.unique_id)) {
    return util::Status::AlreadyExists("uniqueId already in use");
  }
  nodes_.push_back(MemNode{});
  nodes_.back().attrs = attrs;
  NodeRef ref = nodes_.size();
  by_unique_[attrs.unique_id] = ref;
  by_hundred_[attrs.hundred].push_back(ref);
  by_million_[attrs.million].push_back(ref);
  CountNodes(1);
  return ref;
}

util::Status MemStore::SetText(NodeRef node, std::string_view text) {
  HM_ASSIGN_OR_RETURN(MemNode * n, Find(node));
  if (n->attrs.kind != NodeKind::kText) {
    return util::Status::InvalidArgument("node is not a TextNode");
  }
  n->text = std::string(text);
  return util::Status::Ok();
}

util::Status MemStore::SetForm(NodeRef node, const util::Bitmap& form) {
  HM_ASSIGN_OR_RETURN(MemNode * n, Find(node));
  if (n->attrs.kind != NodeKind::kForm) {
    return util::Status::InvalidArgument("node is not a FormNode");
  }
  n->form = form;
  return util::Status::Ok();
}

util::Status MemStore::AddChild(NodeRef parent, NodeRef child) {
  if (parent == child) {
    return util::Status::InvalidArgument("a node cannot be its own child");
  }
  HM_ASSIGN_OR_RETURN(MemNode * p, Find(parent));
  HM_ASSIGN_OR_RETURN(MemNode * c, Find(child));
  if (c->parent != kInvalidNode) {
    return util::Status::InvalidArgument("node already has a parent");
  }
  p->children.push_back(child);
  c->parent = parent;
  CountEdges(1);
  return util::Status::Ok();
}

util::Status MemStore::AddPart(NodeRef owner, NodeRef part) {
  HM_ASSIGN_OR_RETURN(MemNode * o, Find(owner));
  HM_ASSIGN_OR_RETURN(MemNode * p, Find(part));
  o->parts.push_back(part);
  p->part_of.push_back(owner);
  CountEdges(1);
  return util::Status::Ok();
}

util::Status MemStore::AddRef(NodeRef from, NodeRef to, int64_t offset_from,
                              int64_t offset_to) {
  HM_ASSIGN_OR_RETURN(MemNode * f, Find(from));
  HM_ASSIGN_OR_RETURN(MemNode * t, Find(to));
  f->refs_to.push_back(RefEdge{to, offset_from, offset_to});
  t->refs_from.push_back(RefEdge{from, offset_from, offset_to});
  CountEdges(1);
  return util::Status::Ok();
}

util::Result<int64_t> MemStore::GetAttr(NodeRef node, Attr attr) {
  HM_ASSIGN_OR_RETURN(MemNode * n, Find(node));
  return AttrOf(n->attrs, attr);
}

util::Status MemStore::SetAttr(NodeRef node, Attr attr, int64_t value) {
  HM_ASSIGN_OR_RETURN(MemNode * n, Find(node));
  switch (attr) {
    case Attr::kUniqueId:
      return util::Status::InvalidArgument("uniqueId is immutable");
    case Attr::kTen:
      n->attrs.ten = value;
      return util::Status::Ok();
    case Attr::kHundred:
      IndexErase(&by_hundred_, n->attrs.hundred, node);
      n->attrs.hundred = value;
      by_hundred_[value].push_back(node);
      return util::Status::Ok();
    case Attr::kThousand:
      n->attrs.thousand = value;
      return util::Status::Ok();
    case Attr::kMillion:
      IndexErase(&by_million_, n->attrs.million, node);
      n->attrs.million = value;
      by_million_[value].push_back(node);
      return util::Status::Ok();
  }
  return util::Status::InvalidArgument("unknown attribute");
}

util::Result<NodeKind> MemStore::GetKind(NodeRef node) {
  HM_ASSIGN_OR_RETURN(MemNode * n, Find(node));
  return n->attrs.kind;
}

util::Result<std::string> MemStore::GetText(NodeRef node) {
  HM_ASSIGN_OR_RETURN(MemNode * n, Find(node));
  if (n->attrs.kind != NodeKind::kText) {
    return util::Status::InvalidArgument("node is not a TextNode");
  }
  return n->text;
}

util::Result<util::Bitmap> MemStore::GetForm(NodeRef node) {
  HM_ASSIGN_OR_RETURN(MemNode * n, Find(node));
  if (n->attrs.kind != NodeKind::kForm) {
    return util::Status::InvalidArgument("node is not a FormNode");
  }
  return n->form;
}

util::Status MemStore::SetContents(NodeRef node, std::string_view data) {
  HM_ASSIGN_OR_RETURN(MemNode * n, Find(node));
  switch (n->attrs.kind) {
    case NodeKind::kInternal:
      return util::Status::InvalidArgument(
          "internal nodes carry no contents");
    case NodeKind::kText:
      n->text = std::string(data);
      return util::Status::Ok();
    case NodeKind::kForm: {
      HM_ASSIGN_OR_RETURN(util::Bitmap form, util::Bitmap::Deserialize(data));
      n->form = form;
      return util::Status::Ok();
    }
    default:
      n->text = std::string(data);  // dynamic types share the blob slot
      return util::Status::Ok();
  }
}

util::Result<std::string> MemStore::GetContents(NodeRef node) {
  HM_ASSIGN_OR_RETURN(MemNode * n, Find(node));
  switch (n->attrs.kind) {
    case NodeKind::kInternal:
      return util::Status::InvalidArgument(
          "internal nodes carry no contents");
    case NodeKind::kForm:
      return n->form.Serialize();
    default:
      return n->text;
  }
}

util::Result<NodeRef> MemStore::LookupUnique(int64_t unique_id) {
  auto it = by_unique_.find(unique_id);
  if (it == by_unique_.end()) {
    return util::Status::NotFound("no node with uniqueId " +
                                  std::to_string(unique_id));
  }
  return it->second;
}

util::Status MemStore::RangeHundred(int64_t lo, int64_t hi,
                                    std::vector<NodeRef>* out) {
  out->clear();
  for (auto it = by_hundred_.lower_bound(lo);
       it != by_hundred_.end() && it->first <= hi; ++it) {
    out->insert(out->end(), it->second.begin(), it->second.end());
  }
  return util::Status::Ok();
}

util::Status MemStore::RangeMillion(int64_t lo, int64_t hi,
                                    std::vector<NodeRef>* out) {
  out->clear();
  for (auto it = by_million_.lower_bound(lo);
       it != by_million_.end() && it->first <= hi; ++it) {
    out->insert(out->end(), it->second.begin(), it->second.end());
  }
  return util::Status::Ok();
}

util::Status MemStore::Children(NodeRef node, std::vector<NodeRef>* out) {
  HM_ASSIGN_OR_RETURN(MemNode * n, Find(node));
  *out = n->children;
  return util::Status::Ok();
}

util::Status MemStore::ChildrenAndAttr(NodeRef node, Attr attr,
                                       std::vector<NodeRef>* out,
                                       int64_t* value) {
  HM_ASSIGN_OR_RETURN(MemNode * n, Find(node));
  HM_ASSIGN_OR_RETURN(*value, AttrOf(n->attrs, attr));
  *out = n->children;
  return util::Status::Ok();
}

util::Result<NodeRef> MemStore::Parent(NodeRef node) {
  HM_ASSIGN_OR_RETURN(MemNode * n, Find(node));
  return n->parent;
}

util::Status MemStore::Parts(NodeRef node, std::vector<NodeRef>* out) {
  HM_ASSIGN_OR_RETURN(MemNode * n, Find(node));
  *out = n->parts;
  return util::Status::Ok();
}

util::Status MemStore::PartOf(NodeRef node, std::vector<NodeRef>* out) {
  HM_ASSIGN_OR_RETURN(MemNode * n, Find(node));
  *out = n->part_of;
  return util::Status::Ok();
}

util::Status MemStore::RefsTo(NodeRef node, std::vector<RefEdge>* out) {
  HM_ASSIGN_OR_RETURN(MemNode * n, Find(node));
  *out = n->refs_to;
  return util::Status::Ok();
}

util::Status MemStore::RefsFrom(NodeRef node, std::vector<RefEdge>* out) {
  HM_ASSIGN_OR_RETURN(MemNode * n, Find(node));
  *out = n->refs_from;
  return util::Status::Ok();
}

util::Result<uint64_t> MemStore::StorageBytes() {
  uint64_t total = 0;
  for (const MemNode& n : nodes_) {
    total += sizeof(MemNode);
    total += n.text.size();
    total += n.form.ByteSize();
    total += (n.children.size() + n.parts.size() + n.part_of.size()) *
             sizeof(NodeRef);
    total += (n.refs_to.size() + n.refs_from.size()) * sizeof(RefEdge);
  }
  return total;
}

namespace {

constexpr uint64_t kImageMagic = 0x484D494D41474531ULL;  // "HMIMAGE1"

void PutEdges(std::string* out, const std::vector<RefEdge>& edges) {
  util::PutVarint64(out, edges.size());
  for (const RefEdge& edge : edges) {
    util::PutVarint64(out, edge.node);
    util::PutVarSigned64(out, edge.offset_from);
    util::PutVarSigned64(out, edge.offset_to);
  }
}

bool GetEdges(util::Decoder* dec, std::vector<RefEdge>* edges) {
  uint64_t count = 0;
  if (!dec->GetVarint64(&count)) return false;
  edges->resize(count);
  for (uint64_t i = 0; i < count; ++i) {
    RefEdge& edge = (*edges)[i];
    if (!dec->GetVarint64(&edge.node) ||
        !dec->GetVarSigned64(&edge.offset_from) ||
        !dec->GetVarSigned64(&edge.offset_to)) {
      return false;
    }
  }
  return true;
}

void PutRefs(std::string* out, const std::vector<hm::NodeRef>& refs) {
  util::PutVarint64(out, refs.size());
  for (hm::NodeRef ref : refs) util::PutVarint64(out, ref);
}

bool GetRefs(util::Decoder* dec, std::vector<hm::NodeRef>* refs) {
  uint64_t count = 0;
  if (!dec->GetVarint64(&count)) return false;
  refs->resize(count);
  for (uint64_t i = 0; i < count; ++i) {
    if (!dec->GetVarint64(&(*refs)[i])) return false;
  }
  return true;
}

}  // namespace

util::Status MemStore::SaveImage(const std::string& path) const {
  std::string image;
  util::PutFixed64(&image, kImageMagic);
  util::PutVarint64(&image, nodes_.size());
  for (const MemNode& node : nodes_) {
    image.push_back(static_cast<char>(node.attrs.kind));
    util::PutVarSigned64(&image, node.attrs.unique_id);
    util::PutVarSigned64(&image, node.attrs.ten);
    util::PutVarSigned64(&image, node.attrs.hundred);
    util::PutVarSigned64(&image, node.attrs.thousand);
    util::PutVarSigned64(&image, node.attrs.million);
    util::PutVarint64(&image, node.parent);
    util::PutLengthPrefixed(&image, node.text);
    util::PutLengthPrefixed(&image, node.form.Serialize());
    PutRefs(&image, node.children);
    PutRefs(&image, node.parts);
    PutRefs(&image, node.part_of);
    PutEdges(&image, node.refs_to);
    PutEdges(&image, node.refs_from);
  }
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file.good()) {
    return util::Status::IoError("cannot open image file " + path);
  }
  file.write(image.data(), static_cast<std::streamsize>(image.size()));
  file.flush();
  if (!file.good()) {
    return util::Status::IoError("image write failed: " + path);
  }
  return util::Status::Ok();
}

util::Status MemStore::LoadImage(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file.good()) {
    return util::Status::NotFound("no image file at " + path);
  }
  std::string image((std::istreambuf_iterator<char>(file)),
                    std::istreambuf_iterator<char>());
  util::Decoder dec(image);
  uint64_t magic = 0;
  if (!dec.GetFixed64(&magic) || magic != kImageMagic) {
    return util::Status::Corruption("bad image magic in " + path);
  }
  uint64_t count = 0;
  if (!dec.GetVarint64(&count)) {
    return util::Status::Corruption("image header truncated");
  }
  std::vector<MemNode> nodes;
  nodes.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    MemNode node;
    // The kind was written as a single raw byte < 0x80, so it reads
    // back as a one-byte varint.
    uint64_t kind = 0;
    if (!dec.GetVarint64(&kind) || kind > 3) {
      return util::Status::Corruption("image kind invalid");
    }
    node.attrs.kind = static_cast<NodeKind>(kind);
    std::string_view text;
    std::string_view form;
    if (!dec.GetVarSigned64(&node.attrs.unique_id) ||
        !dec.GetVarSigned64(&node.attrs.ten) ||
        !dec.GetVarSigned64(&node.attrs.hundred) ||
        !dec.GetVarSigned64(&node.attrs.thousand) ||
        !dec.GetVarSigned64(&node.attrs.million) ||
        !dec.GetVarint64(&node.parent) || !dec.GetLengthPrefixed(&text) ||
        !dec.GetLengthPrefixed(&form) || !GetRefs(&dec, &node.children) ||
        !GetRefs(&dec, &node.parts) || !GetRefs(&dec, &node.part_of) ||
        !GetEdges(&dec, &node.refs_to) || !GetEdges(&dec, &node.refs_from)) {
      return util::Status::Corruption("image node truncated");
    }
    node.text = std::string(text);
    if (!form.empty()) {
      HM_ASSIGN_OR_RETURN(node.form, util::Bitmap::Deserialize(form));
    }
    nodes.push_back(std::move(node));
  }
  if (!dec.Empty()) {
    return util::Status::Corruption("image has trailing bytes");
  }
  // Swap in and rebuild the indexes.
  nodes_ = std::move(nodes);
  by_unique_.clear();
  by_hundred_.clear();
  by_million_.clear();
  for (size_t i = 0; i < nodes_.size(); ++i) {
    NodeRef ref = i + 1;
    by_unique_[nodes_[i].attrs.unique_id] = ref;
    by_hundred_[nodes_[i].attrs.hundred].push_back(ref);
    by_million_[nodes_[i].attrs.million].push_back(ref);
  }
  return util::Status::Ok();
}

}  // namespace hm::backends
