#include "hypermodel/backends/rel_store.h"

#include <filesystem>

#include "storage/slotted_page.h"
#include "telemetry/metrics.h"
#include "util/check.h"
#include "util/coding.h"

namespace hm::backends {

namespace {

using index::BPlusTree;
using index::Key128;
using relstore::Column;
using relstore::ColumnType;
using relstore::Rid;
using relstore::Schema;
using relstore::Table;
using relstore::Tuple;
using storage::PageId;

constexpr uint64_t kMagic = 0x484D52454C535431ULL;  // "HMRELST1"

// Keep form chunks comfortably under the slotted-page record cap,
// leaving room for the two integer columns and length prefix.
constexpr size_t kFormChunkBytes = 6000;

Schema NodeSchema() {
  return Schema{{"uid", ColumnType::kInt64},     {"ten", ColumnType::kInt64},
                {"hundred", ColumnType::kInt64}, {"thousand", ColumnType::kInt64},
                {"million", ColumnType::kInt64}, {"kind", ColumnType::kInt64}};
}
Schema TextSchema() {
  return Schema{{"uid", ColumnType::kInt64}, {"contents", ColumnType::kString}};
}
Schema FormChunkSchema() {
  return Schema{{"uid", ColumnType::kInt64},
                {"chunk", ColumnType::kInt64},
                {"bytes", ColumnType::kBytes}};
}
Schema ChildrenSchema() {
  return Schema{{"parent", ColumnType::kInt64},
                {"child", ColumnType::kInt64},
                {"seq", ColumnType::kInt64}};
}
Schema PartsSchema() {
  return Schema{{"owner", ColumnType::kInt64}, {"part", ColumnType::kInt64}};
}
Schema RefsSchema() {
  return Schema{{"from", ColumnType::kInt64},
                {"to", ColumnType::kInt64},
                {"offsetFrom", ColumnType::kInt64},
                {"offsetTo", ColumnType::kInt64}};
}

}  // namespace

util::Result<std::unique_ptr<RelStore>> RelStore::Open(
    const RelOptions& options, const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return util::Status::IoError("create_directories '" + dir +
                                 "': " + ec.message());
  }
  std::unique_ptr<RelStore> rel(new RelStore(options.group_commit_us));
  HM_RETURN_IF_ERROR(rel->file_.Open(dir + "/relational.db"));
  rel->pool_ = std::make_unique<storage::BufferPool>(&rel->file_,
                                                     options.cache_pages);

  rel->node_table_.emplace(rel->pool_.get(), NodeSchema());
  rel->text_table_.emplace(rel->pool_.get(), TextSchema());
  rel->formchunk_table_.emplace(rel->pool_.get(), FormChunkSchema());
  rel->children_table_.emplace(rel->pool_.get(), ChildrenSchema());
  rel->parts_table_.emplace(rel->pool_.get(), PartsSchema());
  rel->refs_table_.emplace(rel->pool_.get(), RefsSchema());

  if (rel->file_.page_count() <= 1) {
    HM_RETURN_IF_ERROR(rel->InitFresh());
  } else {
    HM_RETURN_IF_ERROR(rel->LoadMeta());
  }
  return rel;
}

RelStore::RelStore(uint32_t group_commit_us)
    : group_commit_([this] { return file_.Sync(); }, group_commit_us) {}

RelStore::~RelStore() {
  // Best-effort teardown: a destructor has no caller to report to.
  (void)group_commit_.Drain();
  if (pool_ != nullptr) {
    (void)SaveMeta();
    (void)pool_->FlushAll();
  }
}

util::Status RelStore::InitFresh() {
  if (file_.page_count() == 0) {
    HM_ASSIGN_OR_RETURN(storage::PageGuard meta,
                        pool_->New(storage::PageType::kMeta));
    HM_CHECK(meta.id() == 0);
    meta.MarkDirty();
  }
  HM_RETURN_IF_ERROR(node_table_->CreateNew());
  HM_RETURN_IF_ERROR(text_table_->CreateNew());
  HM_RETURN_IF_ERROR(formchunk_table_->CreateNew());
  HM_RETURN_IF_ERROR(children_table_->CreateNew());
  HM_RETURN_IF_ERROR(parts_table_->CreateNew());
  HM_RETURN_IF_ERROR(refs_table_->CreateNew());

  for (auto* idx :
       {&idx_node_uid_, &idx_node_hundred_, &idx_node_million_,
        &idx_children_parent_, &idx_children_child_, &idx_parts_owner_,
        &idx_parts_part_, &idx_refs_from_, &idx_refs_to_, &idx_text_uid_,
        &idx_formchunk_}) {
    HM_ASSIGN_OR_RETURN(BPlusTree tree, BPlusTree::Create(pool_.get()));
    idx->emplace(tree);
  }
  HM_RETURN_IF_ERROR(SaveMeta());
  return pool_->FlushAll();
}

util::Status RelStore::SaveMeta() {
  HM_ASSIGN_OR_RETURN(storage::PageGuard meta, pool_->Fetch(0));
  char* p = meta.page()->payload();
  size_t off = 0;
  util::EncodeFixed64(p + off, kMagic);
  off += 8;
  const PageId firsts[] = {
      node_table_->first_page(),     text_table_->first_page(),
      formchunk_table_->first_page(), children_table_->first_page(),
      parts_table_->first_page(),    refs_table_->first_page()};
  for (PageId id : firsts) {
    util::EncodeFixed32(p + off, id);
    off += 4;
  }
  const PageId roots[] = {
      idx_node_uid_->root_id(),        idx_node_hundred_->root_id(),
      idx_node_million_->root_id(),    idx_children_parent_->root_id(),
      idx_children_child_->root_id(),  idx_parts_owner_->root_id(),
      idx_parts_part_->root_id(),      idx_refs_from_->root_id(),
      idx_refs_to_->root_id(),         idx_text_uid_->root_id(),
      idx_formchunk_->root_id()};
  for (PageId id : roots) {
    util::EncodeFixed32(p + off, id);
    off += 4;
  }
  meta.MarkDirty();
  return util::Status::Ok();
}

util::Status RelStore::LoadMeta() {
  HM_ASSIGN_OR_RETURN(storage::PageGuard meta, pool_->Fetch(0));
  const char* p = meta.page()->payload();
  size_t off = 0;
  if (util::DecodeFixed64(p) != kMagic) {
    return util::Status::Corruption("bad relational store magic");
  }
  off += 8;
  Table* tables[] = {&*node_table_,     &*text_table_, &*formchunk_table_,
                     &*children_table_, &*parts_table_, &*refs_table_};
  for (Table* table : tables) {
    HM_RETURN_IF_ERROR(table->OpenExisting(util::DecodeFixed32(p + off)));
    off += 4;
  }
  std::optional<BPlusTree>* indexes[] = {
      &idx_node_uid_,        &idx_node_hundred_, &idx_node_million_,
      &idx_children_parent_, &idx_children_child_, &idx_parts_owner_,
      &idx_parts_part_,      &idx_refs_from_,    &idx_refs_to_,
      &idx_text_uid_,        &idx_formchunk_};
  for (auto* idx : indexes) {
    idx->emplace(pool_.get(), util::DecodeFixed32(p + off));
    off += 4;
  }
  return util::Status::Ok();
}

util::Status RelStore::Commit() {
  HM_ASSIGN_OR_RETURN(uint64_t ticket, CommitBegin());
  return CommitWait(ticket);
}

util::Result<uint64_t> RelStore::CommitBegin() {
  // FORCE policy: durability by flushing every dirty page at commit.
  // The flush runs under commit_mu_ so concurrent committers do not
  // interleave SaveMeta; the coordinator batches the fsync with other
  // committers'.
  util::MutexLock lock(commit_mu_);
  HM_RETURN_IF_ERROR(SaveMeta());
  HM_RETURN_IF_ERROR(pool_->FlushAll());
  return group_commit_.Enroll();
}

util::Status RelStore::CommitWait(uint64_t ticket) {
  return group_commit_.WaitDurable(ticket);
}

util::Status RelStore::CloseReopen() {
  HM_RETURN_IF_ERROR(SaveMeta());
  return pool_->DropAll();
}

util::Result<Rid> RelStore::NodeRid(NodeRef node) const {
  return idx_node_uid_->Get(Key128{node, 0});
}

util::Result<Tuple> RelStore::NodeRow(NodeRef node) const {
  HM_ASSIGN_OR_RETURN(Rid rid, NodeRid(node));
  return node_table_->Read(rid);
}

namespace {

// Live node/edge totals (`backend.rel.*`); see mem_store.cc.
void CountNodes(int64_t n) {
  static telemetry::Gauge* nodes =
      telemetry::Registry::Global().GetGauge("backend.rel.nodes");
  nodes->Add(n);
}

void CountEdges(int64_t n) {
  static telemetry::Gauge* edges =
      telemetry::Registry::Global().GetGauge("backend.rel.edges");
  edges->Add(n);
}

}  // namespace

util::Result<NodeRef> RelStore::CreateNode(const NodeAttrs& attrs,
                                           NodeRef near) {
  (void)near;  // no clustering in the relational mapping
  NodeRef uid = static_cast<NodeRef>(attrs.unique_id);
  if (NodeRid(uid).ok()) {
    return util::Status::AlreadyExists("uniqueId already in use");
  }
  Tuple row({attrs.unique_id, attrs.ten, attrs.hundred, attrs.thousand,
             attrs.million, static_cast<int64_t>(attrs.kind)});
  HM_ASSIGN_OR_RETURN(Rid rid, node_table_->Insert(row));
  HM_RETURN_IF_ERROR(idx_node_uid_->Insert(Key128{uid, 0}, rid));
  HM_RETURN_IF_ERROR(idx_node_hundred_->Insert(
      Key128{static_cast<uint64_t>(attrs.hundred), uid}, rid));
  HM_RETURN_IF_ERROR(idx_node_million_->Insert(
      Key128{static_cast<uint64_t>(attrs.million), uid}, rid));
  CountNodes(1);
  return uid;
}

util::Status RelStore::UpsertTextRow(NodeRef node, std::string_view data) {
  Tuple row({static_cast<int64_t>(node), std::string(data)});
  auto existing = idx_text_uid_->Get(Key128{node, 0});
  if (existing.ok()) {
    HM_ASSIGN_OR_RETURN(Rid new_rid, text_table_->Update(*existing, row));
    if (new_rid != *existing) {
      HM_RETURN_IF_ERROR(idx_text_uid_->Update(Key128{node, 0}, new_rid));
    }
    return util::Status::Ok();
  }
  HM_ASSIGN_OR_RETURN(Rid rid, text_table_->Insert(row));
  return idx_text_uid_->Insert(Key128{node, 0}, rid);
}

util::Status RelStore::ReplaceChunks(NodeRef node, std::string_view bytes) {
  std::vector<Key128> stale_keys;
  std::vector<Rid> stale_rids;
  HM_RETURN_IF_ERROR(idx_formchunk_->ScanRange(
      Key128{node, 0}, Key128{node, ~0ULL}, [&](Key128 key, uint64_t rid) {
        stale_keys.push_back(key);
        stale_rids.push_back(rid);
        return true;
      }));
  for (size_t i = 0; i < stale_keys.size(); ++i) {
    HM_RETURN_IF_ERROR(formchunk_table_->Delete(stale_rids[i]));
    HM_RETURN_IF_ERROR(idx_formchunk_->Delete(stale_keys[i]));
  }
  uint64_t chunk = 0;
  for (size_t pos = 0; pos < bytes.size() || chunk == 0;
       pos += kFormChunkBytes) {
    size_t len = std::min(kFormChunkBytes, bytes.size() - pos);
    Tuple row({static_cast<int64_t>(node), static_cast<int64_t>(chunk),
               std::string(bytes.substr(pos, len))});
    HM_ASSIGN_OR_RETURN(Rid rid, formchunk_table_->Insert(row));
    HM_RETURN_IF_ERROR(idx_formchunk_->Insert(Key128{node, chunk}, rid));
    ++chunk;
  }
  return util::Status::Ok();
}

util::Result<std::string> RelStore::ReadChunks(NodeRef node) {
  std::string bytes;
  std::vector<Rid> rids;
  HM_RETURN_IF_ERROR(idx_formchunk_->ScanRange(
      Key128{node, 0}, Key128{node, ~0ULL}, [&](Key128, uint64_t rid) {
        rids.push_back(rid);
        return true;
      }));
  if (rids.empty()) {
    return util::Status::NotFound("no chunked contents for node");
  }
  for (Rid rid : rids) {
    HM_ASSIGN_OR_RETURN(Tuple row, formchunk_table_->Read(rid));
    bytes.append(row.GetString(2));
  }
  return bytes;
}

util::Status RelStore::SetText(NodeRef node, std::string_view text) {
  HM_ASSIGN_OR_RETURN(NodeKind kind, GetKind(node));
  if (kind != NodeKind::kText) {
    return util::Status::InvalidArgument("node is not a TextNode");
  }
  return UpsertTextRow(node, text);
}

util::Status RelStore::SetForm(NodeRef node, const util::Bitmap& form) {
  HM_ASSIGN_OR_RETURN(NodeKind kind, GetKind(node));
  if (kind != NodeKind::kForm) {
    return util::Status::InvalidArgument("node is not a FormNode");
  }
  return ReplaceChunks(node, form.Serialize());
}

util::Status RelStore::SetContents(NodeRef node, std::string_view data) {
  HM_ASSIGN_OR_RETURN(NodeKind kind, GetKind(node));
  switch (kind) {
    case NodeKind::kInternal:
      return util::Status::InvalidArgument(
          "internal nodes carry no contents");
    case NodeKind::kForm:
      return ReplaceChunks(node, data);
    default:
      return UpsertTextRow(node, data);
  }
}

util::Result<std::string> RelStore::GetContents(NodeRef node) {
  HM_ASSIGN_OR_RETURN(NodeKind kind, GetKind(node));
  switch (kind) {
    case NodeKind::kInternal:
      return util::Status::InvalidArgument(
          "internal nodes carry no contents");
    case NodeKind::kForm:
      return ReadChunks(node);
    default: {
      auto rid = idx_text_uid_->Get(Key128{node, 0});
      if (!rid.ok()) return std::string();
      HM_ASSIGN_OR_RETURN(Tuple row, text_table_->Read(*rid));
      return row.GetString(1);
    }
  }
}

util::Status RelStore::AddChild(NodeRef parent, NodeRef child) {
  if (parent == child) {
    return util::Status::InvalidArgument("a node cannot be its own child");
  }
  if (idx_children_child_->Get(Key128{child, 0}).ok()) {
    return util::Status::InvalidArgument("node already has a parent");
  }
  // Sequence number = current fan-out of the parent.
  uint64_t seq = 0;
  HM_RETURN_IF_ERROR(idx_children_parent_->ScanRange(
      Key128{parent, 0}, Key128{parent, ~0ULL}, [&](Key128, uint64_t) {
        ++seq;
        return true;
      }));
  Tuple row({static_cast<int64_t>(parent), static_cast<int64_t>(child),
             static_cast<int64_t>(seq)});
  HM_ASSIGN_OR_RETURN(Rid rid, children_table_->Insert(row));
  HM_RETURN_IF_ERROR(idx_children_parent_->Insert(Key128{parent, seq}, rid));
  HM_RETURN_IF_ERROR(idx_children_child_->Insert(Key128{child, 0}, rid));
  CountEdges(1);
  return util::Status::Ok();
}

util::Status RelStore::AddPart(NodeRef owner, NodeRef part) {
  Tuple row({static_cast<int64_t>(owner), static_cast<int64_t>(part)});
  HM_ASSIGN_OR_RETURN(Rid rid, parts_table_->Insert(row));
  // RID as key suffix: the same (owner, part) pair may repeat.
  HM_RETURN_IF_ERROR(idx_parts_owner_->Insert(Key128{owner, rid}, rid));
  HM_RETURN_IF_ERROR(idx_parts_part_->Insert(Key128{part, rid}, rid));
  CountEdges(1);
  return util::Status::Ok();
}

util::Status RelStore::AddRef(NodeRef from, NodeRef to, int64_t offset_from,
                              int64_t offset_to) {
  Tuple row({static_cast<int64_t>(from), static_cast<int64_t>(to),
             offset_from, offset_to});
  HM_ASSIGN_OR_RETURN(Rid rid, refs_table_->Insert(row));
  HM_RETURN_IF_ERROR(idx_refs_from_->Insert(Key128{from, rid}, rid));
  HM_RETURN_IF_ERROR(idx_refs_to_->Insert(Key128{to, rid}, rid));
  CountEdges(1);
  return util::Status::Ok();
}

util::Result<int64_t> RelStore::GetAttr(NodeRef node, Attr attr) {
  HM_ASSIGN_OR_RETURN(Tuple row, NodeRow(node));
  switch (attr) {
    case Attr::kUniqueId:
      return row.GetInt(0);
    case Attr::kTen:
      return row.GetInt(1);
    case Attr::kHundred:
      return row.GetInt(2);
    case Attr::kThousand:
      return row.GetInt(3);
    case Attr::kMillion:
      return row.GetInt(4);
  }
  return util::Status::InvalidArgument("unknown attribute");
}

util::Status RelStore::SetAttr(NodeRef node, Attr attr, int64_t value) {
  HM_ASSIGN_OR_RETURN(Rid rid, NodeRid(node));
  HM_ASSIGN_OR_RETURN(Tuple row, node_table_->Read(rid));
  switch (attr) {
    case Attr::kUniqueId:
      return util::Status::InvalidArgument("uniqueId is immutable");
    case Attr::kTen:
      row.value(1) = value;
      break;
    case Attr::kHundred: {
      int64_t old = row.GetInt(2);
      HM_RETURN_IF_ERROR(idx_node_hundred_->Delete(
          Key128{static_cast<uint64_t>(old), node}));
      HM_RETURN_IF_ERROR(idx_node_hundred_->Insert(
          Key128{static_cast<uint64_t>(value), node}, rid));
      row.value(2) = value;
      break;
    }
    case Attr::kThousand:
      row.value(3) = value;
      break;
    case Attr::kMillion: {
      int64_t old = row.GetInt(4);
      HM_RETURN_IF_ERROR(idx_node_million_->Delete(
          Key128{static_cast<uint64_t>(old), node}));
      HM_RETURN_IF_ERROR(idx_node_million_->Insert(
          Key128{static_cast<uint64_t>(value), node}, rid));
      row.value(4) = value;
      break;
    }
  }
  // Fixed-width columns: the row never relocates.
  HM_ASSIGN_OR_RETURN(Rid new_rid, node_table_->Update(rid, row));
  HM_CHECK(new_rid == rid);
  return util::Status::Ok();
}

util::Result<NodeKind> RelStore::GetKind(NodeRef node) {
  HM_ASSIGN_OR_RETURN(Tuple row, NodeRow(node));
  return static_cast<NodeKind>(row.GetInt(5));
}

util::Result<std::string> RelStore::GetText(NodeRef node) {
  HM_ASSIGN_OR_RETURN(NodeKind kind, GetKind(node));
  if (kind != NodeKind::kText) {
    return util::Status::InvalidArgument("node is not a TextNode");
  }
  HM_ASSIGN_OR_RETURN(Rid rid, idx_text_uid_->Get(Key128{node, 0}));
  HM_ASSIGN_OR_RETURN(Tuple row, text_table_->Read(rid));
  return row.GetString(1);
}

util::Result<util::Bitmap> RelStore::GetForm(NodeRef node) {
  HM_ASSIGN_OR_RETURN(NodeKind kind, GetKind(node));
  if (kind != NodeKind::kForm) {
    return util::Status::InvalidArgument("node is not a FormNode");
  }
  HM_ASSIGN_OR_RETURN(std::string bits, ReadChunks(node));
  return util::Bitmap::Deserialize(bits);
}

util::Result<NodeRef> RelStore::LookupUnique(int64_t unique_id) {
  HM_RETURN_IF_ERROR(NodeRid(static_cast<NodeRef>(unique_id)).status());
  return static_cast<NodeRef>(unique_id);
}

util::Status RelStore::RangeHundred(int64_t lo, int64_t hi,
                                    std::vector<NodeRef>* out) {
  out->clear();
  // Index-only scan: the uid is the key's second component.
  return idx_node_hundred_->ScanRange(
      Key128{static_cast<uint64_t>(lo), 0},
      Key128{static_cast<uint64_t>(hi), ~0ULL},
      [out](Key128 key, uint64_t) {
        out->push_back(key.secondary);
        return true;
      });
}

util::Status RelStore::RangeMillion(int64_t lo, int64_t hi,
                                    std::vector<NodeRef>* out) {
  out->clear();
  return idx_node_million_->ScanRange(
      Key128{static_cast<uint64_t>(lo), 0},
      Key128{static_cast<uint64_t>(hi), ~0ULL},
      [out](Key128 key, uint64_t) {
        out->push_back(key.secondary);
        return true;
      });
}

util::Status RelStore::Children(NodeRef node, std::vector<NodeRef>* out) {
  out->clear();
  // seq is the key's second component, so index order is child order.
  std::vector<Rid> rids;
  HM_RETURN_IF_ERROR(idx_children_parent_->ScanRange(
      Key128{node, 0}, Key128{node, ~0ULL}, [&](Key128, uint64_t rid) {
        rids.push_back(rid);
        return true;
      }));
  for (Rid rid : rids) {
    HM_ASSIGN_OR_RETURN(Tuple row, children_table_->Read(rid));
    out->push_back(static_cast<NodeRef>(row.GetInt(1)));
  }
  return util::Status::Ok();
}

util::Result<NodeRef> RelStore::Parent(NodeRef node) {
  auto rid = idx_children_child_->Get(Key128{node, 0});
  if (!rid.ok()) {
    if (rid.status().IsNotFound()) return kInvalidNode;  // the root
    return rid.status();
  }
  HM_ASSIGN_OR_RETURN(Tuple row, children_table_->Read(*rid));
  return static_cast<NodeRef>(row.GetInt(0));
}

util::Status RelStore::Parts(NodeRef node, std::vector<NodeRef>* out) {
  out->clear();
  std::vector<Rid> rids;
  HM_RETURN_IF_ERROR(idx_parts_owner_->ScanRange(
      Key128{node, 0}, Key128{node, ~0ULL}, [&](Key128, uint64_t rid) {
        rids.push_back(rid);
        return true;
      }));
  for (Rid rid : rids) {
    HM_ASSIGN_OR_RETURN(Tuple row, parts_table_->Read(rid));
    out->push_back(static_cast<NodeRef>(row.GetInt(1)));
  }
  return util::Status::Ok();
}

util::Status RelStore::PartOf(NodeRef node, std::vector<NodeRef>* out) {
  out->clear();
  std::vector<Rid> rids;
  HM_RETURN_IF_ERROR(idx_parts_part_->ScanRange(
      Key128{node, 0}, Key128{node, ~0ULL}, [&](Key128, uint64_t rid) {
        rids.push_back(rid);
        return true;
      }));
  for (Rid rid : rids) {
    HM_ASSIGN_OR_RETURN(Tuple row, parts_table_->Read(rid));
    out->push_back(static_cast<NodeRef>(row.GetInt(0)));
  }
  return util::Status::Ok();
}

util::Status RelStore::RefsTo(NodeRef node, std::vector<RefEdge>* out) {
  out->clear();
  std::vector<Rid> rids;
  HM_RETURN_IF_ERROR(idx_refs_from_->ScanRange(
      Key128{node, 0}, Key128{node, ~0ULL}, [&](Key128, uint64_t rid) {
        rids.push_back(rid);
        return true;
      }));
  for (Rid rid : rids) {
    HM_ASSIGN_OR_RETURN(Tuple row, refs_table_->Read(rid));
    out->push_back(RefEdge{static_cast<NodeRef>(row.GetInt(1)),
                           row.GetInt(2), row.GetInt(3)});
  }
  return util::Status::Ok();
}

util::Status RelStore::RefsFrom(NodeRef node, std::vector<RefEdge>* out) {
  out->clear();
  std::vector<Rid> rids;
  HM_RETURN_IF_ERROR(idx_refs_to_->ScanRange(
      Key128{node, 0}, Key128{node, ~0ULL}, [&](Key128, uint64_t rid) {
        rids.push_back(rid);
        return true;
      }));
  for (Rid rid : rids) {
    HM_ASSIGN_OR_RETURN(Tuple row, refs_table_->Read(rid));
    out->push_back(RefEdge{static_cast<NodeRef>(row.GetInt(0)),
                           row.GetInt(2), row.GetInt(3)});
  }
  return util::Status::Ok();
}

util::Result<uint64_t> RelStore::StorageBytes() {
  return file_.page_count() * static_cast<uint64_t>(storage::kPageSize);
}

}  // namespace hm::backends
