#include "hypermodel/backends/net_store.h"

#include <filesystem>

#include "util/check.h"
#include "util/coding.h"

namespace hm::backends {

namespace {

using storage::kInvalidPageId;
using storage::kPagePayloadSize;
using storage::PageGuard;
using storage::PageId;
using storage::PageType;

constexpr uint64_t kMagic = 0x484D4E4554535431ULL;  // "HMNETST1"

// Fixed node-record layout (direct addressing).
constexpr size_t kNodeRecordSize = 136;
constexpr size_t kNodesPerPage = kPagePayloadSize / kNodeRecordSize;  // 60
constexpr size_t kOffFlags = 0;
constexpr size_t kOffKind = 1;
constexpr size_t kOffUid = 2;
constexpr size_t kOffTen = 10;
constexpr size_t kOffHundred = 18;
constexpr size_t kOffThousand = 26;
constexpr size_t kOffMillion = 34;
constexpr size_t kOffParent = 42;
constexpr size_t kOffNextSibling = 50;
constexpr size_t kOffFirstChild = 58;
constexpr size_t kOffLastChild = 66;
constexpr size_t kOffFirstPart = 74;
constexpr size_t kOffFirstPartOf = 82;
constexpr size_t kOffFirstRefTo = 90;
constexpr size_t kOffFirstRefFrom = 98;
constexpr size_t kOffBlobHead = 106;
constexpr size_t kOffBlobLen = 110;

// Fixed link-record layout (one record, two rings).
constexpr size_t kLinkRecordSize = 48;
constexpr size_t kLinksPerPage = kPagePayloadSize / kLinkRecordSize;  // 170

// Blob page payload: [next:4][len:4][bytes].
constexpr size_t kBlobHeader = 8;
constexpr size_t kBlobCapacity = kPagePayloadSize - kBlobHeader;

}  // namespace

/// Decoded fixed node record.
struct NetStore::NodeRecord {
  bool live = false;
  NodeKind kind = NodeKind::kInternal;
  int64_t uid = 0;
  int64_t ten = 0;
  int64_t hundred = 0;
  int64_t thousand = 0;
  int64_t million = 0;
  NodeRef parent = 0;
  NodeRef next_sibling = 0;
  NodeRef first_child = 0;
  NodeRef last_child = 0;
  uint64_t first_part = 0;
  uint64_t first_partof = 0;
  uint64_t first_refto = 0;
  uint64_t first_reffrom = 0;
  PageId blob_head = kInvalidPageId;
  uint32_t blob_len = 0;

  void EncodeTo(char* p) const {
    p[kOffFlags] = live ? 1 : 0;
    p[kOffKind] = static_cast<char>(kind);
    util::EncodeFixed64(p + kOffUid, static_cast<uint64_t>(uid));
    util::EncodeFixed64(p + kOffTen, static_cast<uint64_t>(ten));
    util::EncodeFixed64(p + kOffHundred, static_cast<uint64_t>(hundred));
    util::EncodeFixed64(p + kOffThousand, static_cast<uint64_t>(thousand));
    util::EncodeFixed64(p + kOffMillion, static_cast<uint64_t>(million));
    util::EncodeFixed64(p + kOffParent, parent);
    util::EncodeFixed64(p + kOffNextSibling, next_sibling);
    util::EncodeFixed64(p + kOffFirstChild, first_child);
    util::EncodeFixed64(p + kOffLastChild, last_child);
    util::EncodeFixed64(p + kOffFirstPart, first_part);
    util::EncodeFixed64(p + kOffFirstPartOf, first_partof);
    util::EncodeFixed64(p + kOffFirstRefTo, first_refto);
    util::EncodeFixed64(p + kOffFirstRefFrom, first_reffrom);
    util::EncodeFixed32(p + kOffBlobHead, blob_head);
    util::EncodeFixed32(p + kOffBlobLen, blob_len);
  }

  static NodeRecord DecodeFrom(const char* p) {
    NodeRecord rec;
    rec.live = p[kOffFlags] != 0;
    rec.kind = static_cast<NodeKind>(p[kOffKind]);
    rec.uid = static_cast<int64_t>(util::DecodeFixed64(p + kOffUid));
    rec.ten = static_cast<int64_t>(util::DecodeFixed64(p + kOffTen));
    rec.hundred =
        static_cast<int64_t>(util::DecodeFixed64(p + kOffHundred));
    rec.thousand =
        static_cast<int64_t>(util::DecodeFixed64(p + kOffThousand));
    rec.million =
        static_cast<int64_t>(util::DecodeFixed64(p + kOffMillion));
    rec.parent = util::DecodeFixed64(p + kOffParent);
    rec.next_sibling = util::DecodeFixed64(p + kOffNextSibling);
    rec.first_child = util::DecodeFixed64(p + kOffFirstChild);
    rec.last_child = util::DecodeFixed64(p + kOffLastChild);
    rec.first_part = util::DecodeFixed64(p + kOffFirstPart);
    rec.first_partof = util::DecodeFixed64(p + kOffFirstPartOf);
    rec.first_refto = util::DecodeFixed64(p + kOffFirstRefTo);
    rec.first_reffrom = util::DecodeFixed64(p + kOffFirstRefFrom);
    rec.blob_head = util::DecodeFixed32(p + kOffBlobHead);
    rec.blob_len = util::DecodeFixed32(p + kOffBlobLen);
    return rec;
  }
};

/// One link record threaded into the owner's ring (owner_next) and the
/// member's ring (member_next) simultaneously.
struct NetStore::LinkRecord {
  NodeRef owner = 0;
  NodeRef member = 0;
  int64_t offset_from = 0;
  int64_t offset_to = 0;
  uint64_t owner_next = 0;
  uint64_t member_next = 0;

  void EncodeTo(char* p) const {
    util::EncodeFixed64(p + 0, owner);
    util::EncodeFixed64(p + 8, member);
    util::EncodeFixed64(p + 16, static_cast<uint64_t>(offset_from));
    util::EncodeFixed64(p + 24, static_cast<uint64_t>(offset_to));
    util::EncodeFixed64(p + 32, owner_next);
    util::EncodeFixed64(p + 40, member_next);
  }

  static LinkRecord DecodeFrom(const char* p) {
    LinkRecord rec;
    rec.owner = util::DecodeFixed64(p + 0);
    rec.member = util::DecodeFixed64(p + 8);
    rec.offset_from = static_cast<int64_t>(util::DecodeFixed64(p + 16));
    rec.offset_to = static_cast<int64_t>(util::DecodeFixed64(p + 24));
    rec.owner_next = util::DecodeFixed64(p + 32);
    rec.member_next = util::DecodeFixed64(p + 40);
    return rec;
  }
};

util::Result<std::unique_ptr<NetStore>> NetStore::Open(
    const NetOptions& options, const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return util::Status::IoError("create_directories '" + dir +
                                 "': " + ec.message());
  }
  std::unique_ptr<NetStore> net(new NetStore());
  HM_RETURN_IF_ERROR(net->file_.Open(dir + "/network.db"));
  net->pool_ =
      std::make_unique<storage::BufferPool>(&net->file_, options.cache_pages);
  if (net->file_.page_count() == 0) {
    HM_RETURN_IF_ERROR(net->InitFresh());
  } else {
    HM_RETURN_IF_ERROR(net->LoadMeta());
    HM_RETURN_IF_ERROR(net->RebuildUidMap());
  }
  return net;
}

NetStore::~NetStore() {
  if (pool_ != nullptr) {
    // Best-effort teardown: a destructor has no caller to report to.
    (void)SaveMeta();
    (void)pool_->FlushAll();
  }
}

util::Status NetStore::InitFresh() {
  HM_ASSIGN_OR_RETURN(PageGuard meta, pool_->New(PageType::kMeta));
  HM_CHECK(meta.id() == 0);
  meta.MarkDirty();
  meta.Release();
  HM_RETURN_IF_ERROR(SaveMeta());
  return pool_->FlushAll();
}

util::Status NetStore::SaveMeta() {
  HM_ASSIGN_OR_RETURN(PageGuard meta, pool_->Fetch(0));
  char* p = meta.page()->payload();
  std::memset(p, 0, kPagePayloadSize);
  size_t off = 0;
  util::EncodeFixed64(p + off, kMagic);
  off += 8;
  util::EncodeFixed64(p + off, node_count_);
  off += 8;
  util::EncodeFixed64(p + off, link_count_);
  off += 8;
  util::EncodeFixed32(p + off, static_cast<uint32_t>(node_pages_.size()));
  off += 4;
  util::EncodeFixed32(p + off, static_cast<uint32_t>(link_pages_.size()));
  off += 4;
  for (PageId id : node_pages_) {
    if (off + 4 > kPagePayloadSize) {
      return util::Status::Internal("net meta overflow (node pages)");
    }
    util::EncodeFixed32(p + off, id);
    off += 4;
  }
  for (PageId id : link_pages_) {
    if (off + 4 > kPagePayloadSize) {
      return util::Status::Internal("net meta overflow (link pages)");
    }
    util::EncodeFixed32(p + off, id);
    off += 4;
  }
  meta.MarkDirty();
  return util::Status::Ok();
}

util::Status NetStore::LoadMeta() {
  HM_ASSIGN_OR_RETURN(PageGuard meta, pool_->Fetch(0));
  const char* p = meta.page()->payload();
  if (util::DecodeFixed64(p) != kMagic) {
    return util::Status::Corruption("bad network store magic");
  }
  size_t off = 8;
  node_count_ = util::DecodeFixed64(p + off);
  off += 8;
  link_count_ = util::DecodeFixed64(p + off);
  off += 8;
  uint32_t node_page_count = util::DecodeFixed32(p + off);
  off += 4;
  uint32_t link_page_count = util::DecodeFixed32(p + off);
  off += 4;
  node_pages_.clear();
  for (uint32_t i = 0; i < node_page_count; ++i) {
    node_pages_.push_back(util::DecodeFixed32(p + off));
    off += 4;
  }
  link_pages_.clear();
  for (uint32_t i = 0; i < link_page_count; ++i) {
    link_pages_.push_back(util::DecodeFixed32(p + off));
    off += 4;
  }
  return util::Status::Ok();
}

util::Status NetStore::RebuildUidMap() {
  uid_map_.clear();
  return ScanNodes([&](NodeRef ref, const NodeRecord& rec) {
    uid_map_[rec.uid] = ref;
    return true;
  });
}

util::Status NetStore::Commit() {
  HM_RETURN_IF_ERROR(SaveMeta());
  HM_RETURN_IF_ERROR(pool_->FlushAll());
  return file_.Sync();
}

util::Status NetStore::CloseReopen() {
  HM_RETURN_IF_ERROR(SaveMeta());
  return pool_->DropAll();
}

util::Result<NetStore::NodeRecord> NetStore::ReadNode(NodeRef ref) const {
  if (ref == 0 || ref > node_count_) {
    return util::Status::NotFound("no such node record " +
                                  std::to_string(ref));
  }
  size_t index = static_cast<size_t>(ref - 1);
  HM_ASSIGN_OR_RETURN(PageGuard guard,
                      pool_->Fetch(node_pages_[index / kNodesPerPage]));
  NodeRecord rec = NodeRecord::DecodeFrom(
      guard.page()->payload() + (index % kNodesPerPage) * kNodeRecordSize);
  if (!rec.live) {
    return util::Status::NotFound("node record " + std::to_string(ref) +
                                  " is not live");
  }
  return rec;
}

util::Status NetStore::WriteNode(NodeRef ref, const NodeRecord& record) {
  size_t index = static_cast<size_t>(ref - 1);
  HM_ASSIGN_OR_RETURN(PageGuard guard,
                      pool_->Fetch(node_pages_[index / kNodesPerPage]));
  record.EncodeTo(guard.page()->payload() +
                  (index % kNodesPerPage) * kNodeRecordSize);
  guard.MarkDirty();
  return util::Status::Ok();
}

util::Result<NetStore::LinkRecord> NetStore::ReadLink(uint64_t link) const {
  if (link == 0 || link > link_count_) {
    return util::Status::Corruption("bad link id " + std::to_string(link));
  }
  size_t index = static_cast<size_t>(link - 1);
  HM_ASSIGN_OR_RETURN(PageGuard guard,
                      pool_->Fetch(link_pages_[index / kLinksPerPage]));
  return LinkRecord::DecodeFrom(guard.page()->payload() +
                                (index % kLinksPerPage) * kLinkRecordSize);
}

util::Status NetStore::WriteLink(uint64_t link, const LinkRecord& record) {
  size_t index = static_cast<size_t>(link - 1);
  HM_ASSIGN_OR_RETURN(PageGuard guard,
                      pool_->Fetch(link_pages_[index / kLinksPerPage]));
  record.EncodeTo(guard.page()->payload() +
                  (index % kLinksPerPage) * kLinkRecordSize);
  guard.MarkDirty();
  return util::Status::Ok();
}

util::Result<NodeRef> NetStore::AllocNode() {
  size_t index = static_cast<size_t>(node_count_);
  if (index / kNodesPerPage >= node_pages_.size()) {
    HM_ASSIGN_OR_RETURN(PageGuard guard, pool_->New(PageType::kHeap));
    guard.MarkDirty();
    node_pages_.push_back(guard.id());
  }
  ++node_count_;
  return node_count_;
}

util::Result<uint64_t> NetStore::AllocLink() {
  size_t index = static_cast<size_t>(link_count_);
  if (index / kLinksPerPage >= link_pages_.size()) {
    HM_ASSIGN_OR_RETURN(PageGuard guard, pool_->New(PageType::kHeap));
    guard.MarkDirty();
    link_pages_.push_back(guard.id());
  }
  ++link_count_;
  return link_count_;
}

util::Status NetStore::ScanNodes(
    const std::function<bool(NodeRef, const NodeRecord&)>& fn) const {
  for (NodeRef ref = 1; ref <= node_count_; ++ref) {
    size_t index = static_cast<size_t>(ref - 1);
    HM_ASSIGN_OR_RETURN(PageGuard guard,
                        pool_->Fetch(node_pages_[index / kNodesPerPage]));
    NodeRecord rec = NodeRecord::DecodeFrom(
        guard.page()->payload() + (index % kNodesPerPage) * kNodeRecordSize);
    if (!rec.live) continue;
    if (!fn(ref, rec)) break;
  }
  return util::Status::Ok();
}

util::Result<PageId> NetStore::WriteBlob(std::string_view data) {
  // Chain built back to front. Old chains are not reclaimed — network
  // databases of this era required an offline reorganization pass;
  // documented as such.
  PageId next = kInvalidPageId;
  size_t total = data.size();
  size_t pages = std::max<size_t>(1, (total + kBlobCapacity - 1) /
                                         kBlobCapacity);
  for (size_t i = pages; i-- > 0;) {
    size_t begin = i * kBlobCapacity;
    size_t len = std::min(kBlobCapacity, total - begin);
    HM_ASSIGN_OR_RETURN(PageGuard guard, pool_->New(PageType::kOverflow));
    char* p = guard.page()->payload();
    util::EncodeFixed32(p, next);
    util::EncodeFixed32(p + 4, static_cast<uint32_t>(len));
    std::memcpy(p + kBlobHeader, data.data() + begin, len);
    guard.MarkDirty();
    next = guard.id();
  }
  return next;
}

util::Result<std::string> NetStore::ReadBlob(PageId head,
                                             uint32_t length) const {
  std::string out;
  out.reserve(length);
  PageId current = head;
  while (current != kInvalidPageId) {
    HM_ASSIGN_OR_RETURN(PageGuard guard, pool_->Fetch(current));
    const char* p = guard.page()->payload();
    PageId next = util::DecodeFixed32(p);
    uint32_t len = util::DecodeFixed32(p + 4);
    if (len > kBlobCapacity) {
      return util::Status::Corruption("blob page length out of range");
    }
    out.append(p + kBlobHeader, len);
    current = next;
  }
  if (out.size() != length) {
    return util::Status::Corruption("blob length mismatch");
  }
  return out;
}

util::Result<NodeRef> NetStore::CreateNode(const NodeAttrs& attrs,
                                           NodeRef near) {
  (void)near;  // placement is arithmetic; no hints
  if (uid_map_.contains(attrs.unique_id)) {
    return util::Status::AlreadyExists("uniqueId already in use");
  }
  HM_ASSIGN_OR_RETURN(NodeRef ref, AllocNode());
  NodeRecord rec;
  rec.live = true;
  rec.kind = attrs.kind;
  rec.uid = attrs.unique_id;
  rec.ten = attrs.ten;
  rec.hundred = attrs.hundred;
  rec.thousand = attrs.thousand;
  rec.million = attrs.million;
  HM_RETURN_IF_ERROR(WriteNode(ref, rec));
  uid_map_[attrs.unique_id] = ref;
  return ref;
}

util::Status NetStore::SetContents(NodeRef node, std::string_view data) {
  HM_ASSIGN_OR_RETURN(NodeRecord rec, ReadNode(node));
  if (rec.kind == NodeKind::kInternal) {
    return util::Status::InvalidArgument("internal nodes carry no contents");
  }
  HM_ASSIGN_OR_RETURN(PageId head, WriteBlob(data));
  rec.blob_head = head;
  rec.blob_len = static_cast<uint32_t>(data.size());
  return WriteNode(node, rec);
}

util::Result<std::string> NetStore::GetContents(NodeRef node) {
  HM_ASSIGN_OR_RETURN(NodeRecord rec, ReadNode(node));
  if (rec.kind == NodeKind::kInternal) {
    return util::Status::InvalidArgument("internal nodes carry no contents");
  }
  if (rec.blob_head == kInvalidPageId) return std::string();
  return ReadBlob(rec.blob_head, rec.blob_len);
}

util::Status NetStore::SetText(NodeRef node, std::string_view text) {
  HM_ASSIGN_OR_RETURN(NodeKind kind, GetKind(node));
  if (kind != NodeKind::kText) {
    return util::Status::InvalidArgument("node is not a TextNode");
  }
  return SetContents(node, text);
}

util::Status NetStore::SetForm(NodeRef node, const util::Bitmap& form) {
  HM_ASSIGN_OR_RETURN(NodeKind kind, GetKind(node));
  if (kind != NodeKind::kForm) {
    return util::Status::InvalidArgument("node is not a FormNode");
  }
  return SetContents(node, form.Serialize());
}

util::Result<std::string> NetStore::GetText(NodeRef node) {
  HM_ASSIGN_OR_RETURN(NodeKind kind, GetKind(node));
  if (kind != NodeKind::kText) {
    return util::Status::InvalidArgument("node is not a TextNode");
  }
  return GetContents(node);
}

util::Result<util::Bitmap> NetStore::GetForm(NodeRef node) {
  HM_ASSIGN_OR_RETURN(NodeKind kind, GetKind(node));
  if (kind != NodeKind::kForm) {
    return util::Status::InvalidArgument("node is not a FormNode");
  }
  HM_ASSIGN_OR_RETURN(std::string bits, GetContents(node));
  if (bits.empty()) return util::Bitmap();
  return util::Bitmap::Deserialize(bits);
}

util::Status NetStore::AddChild(NodeRef parent, NodeRef child) {
  if (parent == child) {
    return util::Status::InvalidArgument("a node cannot be its own child");
  }
  HM_ASSIGN_OR_RETURN(NodeRecord parent_rec, ReadNode(parent));
  HM_ASSIGN_OR_RETURN(NodeRecord child_rec, ReadNode(child));
  if (child_rec.parent != 0) {
    return util::Status::InvalidArgument("node already has a parent");
  }
  child_rec.parent = parent;
  if (parent_rec.last_child == 0) {
    parent_rec.first_child = child;
  } else {
    HM_ASSIGN_OR_RETURN(NodeRecord last_rec,
                        ReadNode(parent_rec.last_child));
    last_rec.next_sibling = child;
    HM_RETURN_IF_ERROR(WriteNode(parent_rec.last_child, last_rec));
  }
  parent_rec.last_child = child;
  HM_RETURN_IF_ERROR(WriteNode(parent, parent_rec));
  return WriteNode(child, child_rec);
}

util::Status NetStore::AddPart(NodeRef owner, NodeRef part) {
  HM_ASSIGN_OR_RETURN(NodeRecord owner_rec, ReadNode(owner));
  HM_ASSIGN_OR_RETURN(uint64_t link_id, AllocLink());
  LinkRecord link;
  link.owner = owner;
  link.member = part;
  link.owner_next = owner_rec.first_part;
  if (owner == part) {
    link.member_next = owner_rec.first_partof;
    owner_rec.first_part = link_id;
    owner_rec.first_partof = link_id;
    HM_RETURN_IF_ERROR(WriteLink(link_id, link));
    return WriteNode(owner, owner_rec);
  }
  HM_ASSIGN_OR_RETURN(NodeRecord part_rec, ReadNode(part));
  link.member_next = part_rec.first_partof;
  owner_rec.first_part = link_id;
  part_rec.first_partof = link_id;
  HM_RETURN_IF_ERROR(WriteLink(link_id, link));
  HM_RETURN_IF_ERROR(WriteNode(owner, owner_rec));
  return WriteNode(part, part_rec);
}

util::Status NetStore::AddRef(NodeRef from, NodeRef to, int64_t offset_from,
                              int64_t offset_to) {
  HM_ASSIGN_OR_RETURN(NodeRecord from_rec, ReadNode(from));
  HM_ASSIGN_OR_RETURN(uint64_t link_id, AllocLink());
  LinkRecord link;
  link.owner = from;
  link.member = to;
  link.offset_from = offset_from;
  link.offset_to = offset_to;
  link.owner_next = from_rec.first_refto;
  if (from == to) {
    link.member_next = from_rec.first_reffrom;
    from_rec.first_refto = link_id;
    from_rec.first_reffrom = link_id;
    HM_RETURN_IF_ERROR(WriteLink(link_id, link));
    return WriteNode(from, from_rec);
  }
  HM_ASSIGN_OR_RETURN(NodeRecord to_rec, ReadNode(to));
  link.member_next = to_rec.first_reffrom;
  from_rec.first_refto = link_id;
  to_rec.first_reffrom = link_id;
  HM_RETURN_IF_ERROR(WriteLink(link_id, link));
  HM_RETURN_IF_ERROR(WriteNode(from, from_rec));
  return WriteNode(to, to_rec);
}

util::Result<int64_t> NetStore::GetAttr(NodeRef node, Attr attr) {
  HM_ASSIGN_OR_RETURN(NodeRecord rec, ReadNode(node));
  switch (attr) {
    case Attr::kUniqueId:
      return rec.uid;
    case Attr::kTen:
      return rec.ten;
    case Attr::kHundred:
      return rec.hundred;
    case Attr::kThousand:
      return rec.thousand;
    case Attr::kMillion:
      return rec.million;
  }
  return util::Status::InvalidArgument("unknown attribute");
}

util::Status NetStore::SetAttr(NodeRef node, Attr attr, int64_t value) {
  HM_ASSIGN_OR_RETURN(NodeRecord rec, ReadNode(node));
  switch (attr) {
    case Attr::kUniqueId:
      return util::Status::InvalidArgument("uniqueId is immutable");
    case Attr::kTen:
      rec.ten = value;
      break;
    case Attr::kHundred:
      rec.hundred = value;  // no secondary indexes to maintain
      break;
    case Attr::kThousand:
      rec.thousand = value;
      break;
    case Attr::kMillion:
      rec.million = value;
      break;
  }
  return WriteNode(node, rec);
}

util::Result<NodeKind> NetStore::GetKind(NodeRef node) {
  HM_ASSIGN_OR_RETURN(NodeRecord rec, ReadNode(node));
  return rec.kind;
}

util::Result<NodeRef> NetStore::LookupUnique(int64_t unique_id) {
  auto it = uid_map_.find(unique_id);
  if (it == uid_map_.end()) {
    return util::Status::NotFound("no node with uniqueId " +
                                  std::to_string(unique_id));
  }
  return it->second;
}

util::Status NetStore::RangeHundred(int64_t lo, int64_t hi,
                                    std::vector<NodeRef>* out) {
  out->clear();
  // No secondary index: the network model scans (R12's motivation).
  return ScanNodes([&](NodeRef ref, const NodeRecord& rec) {
    if (rec.hundred >= lo && rec.hundred <= hi) out->push_back(ref);
    return true;
  });
}

util::Status NetStore::RangeMillion(int64_t lo, int64_t hi,
                                    std::vector<NodeRef>* out) {
  out->clear();
  return ScanNodes([&](NodeRef ref, const NodeRecord& rec) {
    if (rec.million >= lo && rec.million <= hi) out->push_back(ref);
    return true;
  });
}

util::Status NetStore::Children(NodeRef node, std::vector<NodeRef>* out) {
  out->clear();
  HM_ASSIGN_OR_RETURN(NodeRecord rec, ReadNode(node));
  NodeRef current = rec.first_child;
  while (current != 0) {
    out->push_back(current);
    HM_ASSIGN_OR_RETURN(NodeRecord child, ReadNode(current));
    current = child.next_sibling;
  }
  return util::Status::Ok();
}

util::Result<NodeRef> NetStore::Parent(NodeRef node) {
  HM_ASSIGN_OR_RETURN(NodeRecord rec, ReadNode(node));
  return rec.parent;
}

util::Status NetStore::Parts(NodeRef node, std::vector<NodeRef>* out) {
  out->clear();
  HM_ASSIGN_OR_RETURN(NodeRecord rec, ReadNode(node));
  uint64_t current = rec.first_part;
  while (current != 0) {
    HM_ASSIGN_OR_RETURN(LinkRecord link, ReadLink(current));
    out->push_back(link.member);
    current = link.owner_next;
  }
  return util::Status::Ok();
}

util::Status NetStore::PartOf(NodeRef node, std::vector<NodeRef>* out) {
  out->clear();
  HM_ASSIGN_OR_RETURN(NodeRecord rec, ReadNode(node));
  uint64_t current = rec.first_partof;
  while (current != 0) {
    HM_ASSIGN_OR_RETURN(LinkRecord link, ReadLink(current));
    out->push_back(link.owner);
    current = link.member_next;
  }
  return util::Status::Ok();
}

util::Status NetStore::RefsTo(NodeRef node, std::vector<RefEdge>* out) {
  out->clear();
  HM_ASSIGN_OR_RETURN(NodeRecord rec, ReadNode(node));
  uint64_t current = rec.first_refto;
  while (current != 0) {
    HM_ASSIGN_OR_RETURN(LinkRecord link, ReadLink(current));
    out->push_back(RefEdge{link.member, link.offset_from, link.offset_to});
    current = link.owner_next;
  }
  return util::Status::Ok();
}

util::Status NetStore::RefsFrom(NodeRef node, std::vector<RefEdge>* out) {
  out->clear();
  HM_ASSIGN_OR_RETURN(NodeRecord rec, ReadNode(node));
  uint64_t current = rec.first_reffrom;
  while (current != 0) {
    HM_ASSIGN_OR_RETURN(LinkRecord link, ReadLink(current));
    out->push_back(RefEdge{link.owner, link.offset_from, link.offset_to});
    current = link.member_next;
  }
  return util::Status::Ok();
}

util::Result<uint64_t> NetStore::StorageBytes() {
  return file_.page_count() * static_cast<uint64_t>(storage::kPageSize);
}

}  // namespace hm::backends
