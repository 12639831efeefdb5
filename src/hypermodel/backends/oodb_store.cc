#include "hypermodel/backends/oodb_store.h"

#include <array>
#include <optional>
#include <unordered_map>
#include <utility>

#include "telemetry/metrics.h"
#include "util/check.h"
#include "util/coding.h"

namespace hm::backends {

namespace {

using index::BPlusTree;
using index::Key128;
using objstore::Oid;

// Every stored object starts with a record-type tag so index rebuilds
// can tell node records from content blobs.
constexpr uint8_t kTagNode = 0x4E;     // 'N'
constexpr uint8_t kTagContent = 0x43;  // 'C'

// Catalog slots holding the secondary index roots.
constexpr size_t kSlotUniqueRoot = 0;
constexpr size_t kSlotHundredRoot = 1;
constexpr size_t kSlotMillionRoot = 2;

// Node record fixed-header offsets (after the tag byte).
constexpr size_t kOffKind = 1;
constexpr size_t kOffUnique = 2;  // the five attributes, in Attr order
constexpr size_t kAttrCount = 5;
constexpr size_t kOffParent = 42;
constexpr size_t kOffContent = 50;
constexpr size_t kFixedHeader = 58;

// Relationship lists in record order, and each entry's encoded size.
enum class List : uint8_t { kChildren, kParts, kPartOf, kRefsTo, kRefsFrom };
constexpr size_t kListCount = 5;
constexpr size_t kEntrySize[kListCount] = {8, 8, 8, 24, 24};

void PutOidList(std::string* out, const std::vector<Oid>& oids) {
  util::PutFixed32(out, static_cast<uint32_t>(oids.size()));
  for (Oid oid : oids) util::PutFixed64(out, oid);
}

void PutEdgeList(std::string* out, const std::vector<RefEdge>& edges) {
  util::PutFixed32(out, static_cast<uint32_t>(edges.size()));
  for (const RefEdge& edge : edges) {
    util::PutFixed64(out, edge.node);
    util::PutFixed64(out, static_cast<uint64_t>(edge.offset_from));
    util::PutFixed64(out, static_cast<uint64_t>(edge.offset_to));
  }
}

static_assert(kOffParent == kOffUnique + 8 * kAttrCount);

size_t AttrOffset(Attr attr) {
  return kOffUnique + 8 * static_cast<size_t>(attr);
}

/// A node record parsed in place. Parse checks the tag and the fixed
/// header and bounds-checks all five list counts against the record's
/// length, so every accessor after it reads in range. It allocates
/// nothing; a view points into the bytes it was parsed from and lives
/// no longer than they do.
class NodeView {
 public:
  static util::Result<NodeView> Parse(std::string_view data) {
    if (data.size() < kFixedHeader ||
        static_cast<uint8_t>(data[0]) != kTagNode) {
      return util::Status::Corruption("not a node record");
    }
    NodeView view;
    view.data_ = data;
    size_t off = kFixedHeader;
    for (size_t list = 0; list < kListCount; ++list) {
      if (data.size() - off < 4) {
        return util::Status::Corruption("truncated node record");
      }
      const uint64_t bytes =
          uint64_t{util::DecodeFixed32(data.data() + off)} * kEntrySize[list];
      if (data.size() - off - 4 < bytes) {
        return util::Status::Corruption("truncated node record");
      }
      view.list_[list] = off;
      off += 4 + static_cast<size_t>(bytes);
    }
    return view;
  }

  NodeKind kind() const { return static_cast<NodeKind>(data_[kOffKind]); }
  int64_t attr(Attr attr) const {
    return static_cast<int64_t>(Fixed64(AttrOffset(attr)));
  }
  Oid parent() const { return Fixed64(kOffParent); }
  Oid content() const { return Fixed64(kOffContent); }

  /// Decodes one list into `*out`, replacing its contents and reusing
  /// its capacity.
  template <typename T>
  void DecodeList(List list, std::vector<T>* out) const {
    out->clear();
    AppendList(list, out);
  }

  /// Appends one OID list's entries to `*out`.
  void AppendList(List list, std::vector<Oid>* out) const {
    const char* p = Entries(list, out);
    for (size_t i = out->size() - Count(list); i < out->size(); ++i) {
      (*out)[i] = util::DecodeFixed64(p);
      p += 8;
    }
  }

  /// Appends one edge list's entries to `*out`.
  void AppendList(List list, std::vector<RefEdge>* out) const {
    const char* p = Entries(list, out);
    for (size_t i = out->size() - Count(list); i < out->size(); ++i) {
      (*out)[i] = RefEdge{util::DecodeFixed64(p),
                          static_cast<int64_t>(util::DecodeFixed64(p + 8)),
                          static_cast<int64_t>(util::DecodeFixed64(p + 16))};
      p += 24;
    }
  }

 private:
  uint64_t Fixed64(size_t off) const {
    return util::DecodeFixed64(data_.data() + off);
  }

  size_t Count(List list) const {
    return util::DecodeFixed32(data_.data() +
                               list_[static_cast<size_t>(list)]);
  }

  /// Grows `*out` by the list's count; returns the list's first entry.
  template <typename T>
  const char* Entries(List list, std::vector<T>* out) const {
    out->resize(out->size() + Count(list));
    return data_.data() + list_[static_cast<size_t>(list)] + 4;
  }

  std::string_view data_;
  size_t list_[kListCount] = {};  // offset of each list's count
};

/// Returns `get(view)` for node `node`'s record, parsed in place on
/// its pinned page. `get` returns a value, never a pointer into the
/// view.
template <typename Get>
auto ReadField(const objstore::ObjectStore& store, Oid node, Get get)
    -> util::Result<decltype(get(std::declval<const NodeView&>()))> {
  decltype(get(std::declval<const NodeView&>())) value{};
  HM_RETURN_IF_ERROR(
      store.View(node, [&](std::string_view data) -> util::Status {
        HM_ASSIGN_OR_RETURN(NodeView view, NodeView::Parse(data));
        value = get(view);
        return util::Status::Ok();
      }));
  return value;
}

/// Decodes one of node `node`'s lists into `*out`.
template <typename T>
util::Status ReadList(const objstore::ObjectStore& store, Oid node, List list,
                      std::vector<T>* out) {
  return store.View(node, [&](std::string_view data) -> util::Status {
    HM_ASSIGN_OR_RETURN(NodeView view, NodeView::Parse(data));
    view.DecodeList(list, out);
    return util::Status::Ok();
  });
}

/// Runs `visit(i, view)` on node nodes[i]'s record, parsed in place,
/// for every i: one ObjectStore::ViewMany, so the calls arrive in page
/// order, not input order.
template <typename Visit>
util::Status ViewNodes(const objstore::ObjectStore& store,
                       std::span<const NodeRef> nodes, Visit visit) {
  return store.ViewMany(
      nodes, [&visit](size_t i, std::string_view data) -> util::Status {
        HM_ASSIGN_OR_RETURN(NodeView view, NodeView::Parse(data));
        return visit(i, view);
      });
}

/// Decodes list `list` of every node in `nodes` into `*out`, list i
/// for node i, and node i's `attr` into (*values)[i] unless `values`
/// is null. The lists are appended in the order the records are
/// visited, then laid out in input order if that differs.
template <typename T>
util::Status ReadLists(const objstore::ObjectStore& store,
                       std::span<const NodeRef> nodes, List list,
                       FlatLists<T>* out, Attr attr = Attr::kUniqueId,
                       std::vector<int64_t>* values = nullptr) {
  const size_t n = nodes.size();
  out->clear();
  if (values != nullptr) values->assign(n, 0);
  // While visiting, out->ends holds where each list landed in
  // out->items, [2i] its begin and [2i + 1] its end: room that
  // a caller reusing its output already has.
  std::vector<size_t>& at = out->ends;
  at.resize(2 * n);
  HM_RETURN_IF_ERROR(
      ViewNodes(store, nodes, [&](size_t i, const NodeView& view) {
        at[2 * i] = out->items.size();
        view.AppendList(list, &out->items);
        at[2 * i + 1] = out->items.size();
        if (values != nullptr) (*values)[i] = view.attr(attr);
        return util::Status::Ok();
      }));
  bool in_order = true;
  for (size_t i = 1; i < n && in_order; ++i) {
    in_order = at[2 * i] == at[2 * i - 1];
  }
  if (in_order) {
    for (size_t i = 0; i < n; ++i) at[i] = at[2 * i + 1];
    at.resize(n);
    return util::Status::Ok();
  }
  std::vector<size_t> spans;
  spans.swap(at);
  std::vector<T> visited;
  visited.swap(out->items);
  out->items.reserve(visited.size());
  for (size_t i = 0; i < n; ++i) {
    out->Append(std::span<const T>(visited).subspan(
        spans[2 * i], spans[2 * i + 1] - spans[2 * i]));
  }
  return util::Status::Ok();
}

/// A content object holding `bytes`: the tag, then the bytes.
std::string ContentBlob(std::string_view bytes) {
  return std::string(1, static_cast<char>(kTagContent)).append(bytes);
}

/// The contents kind rule: SetText/GetText take a text node and
/// SetForm/GetForm a form node; SetContents/GetContents (no `want`)
/// take any node but an internal one.
util::Status CheckContentKind(NodeKind kind, std::optional<NodeKind> want) {
  if (!want.has_value()) {
    if (kind != NodeKind::kInternal) return util::Status::Ok();
    return util::Status::InvalidArgument("internal nodes carry no contents");
  }
  if (kind == *want) return util::Status::Ok();
  return util::Status::InvalidArgument(*want == NodeKind::kText
                                           ? "node is not a TextNode"
                                           : "node is not a FormNode");
}

/// The bytes of content object `content`, without its tag.
util::Result<std::string> ReadContent(const objstore::ObjectStore& store,
                                      Oid content) {
  // Not HM_ASSIGN_OR_RETURN: GCC 12 flags the moved-out string with a
  // false -Wmaybe-uninitialized.
  util::Result<std::string> blob = store.Read(content);
  if (!blob.ok()) return blob.status();
  if (blob->empty() || static_cast<uint8_t>((*blob)[0]) != kTagContent) {
    return util::Status::Corruption("bad content object");
  }
  return blob->substr(1);
}

/// What the content accessors read of a node: its kind and content
/// object.
struct ContentRef {
  NodeKind kind = NodeKind::kInternal;
  Oid content = objstore::kInvalidOid;
};

/// Node `node`'s kind and content object, after the kind rule.
util::Result<ContentRef> ReadContentRef(const objstore::ObjectStore& store,
                                        Oid node,
                                        std::optional<NodeKind> want) {
  HM_ASSIGN_OR_RETURN(ContentRef ref,
                      ReadField(store, node, [](const NodeView& view) {
                        return ContentRef{view.kind(), view.content()};
                      }));
  HM_RETURN_IF_ERROR(CheckContentKind(ref.kind, want));
  return ref;
}

/// GetText and GetContents: the node's contents, empty if it has none.
util::Result<std::string> ReadContents(const objstore::ObjectStore& store,
                                       Oid node,
                                       std::optional<NodeKind> want) {
  HM_ASSIGN_OR_RETURN(ContentRef ref, ReadContentRef(store, node, want));
  if (ref.content == objstore::kInvalidOid) return std::string();
  return ReadContent(store, ref.content);
}

}  // namespace

/// Wire format of one node object:
///   [tag:1='N'][kind:1][unique:8][ten:8][hundred:8][thousand:8]
///   [million:8][parent:8][content:8]
///   [children oid-list][parts oid-list][partOf oid-list]
///   [refsTo edge-list][refsFrom edge-list]
/// Content objects are `[tag:1='C'][bytes...]`. Reads go through
/// NodeView; the decoded NodeRecord serves the write paths, which
/// re-encode the whole record.
struct OodbStore::NodeRecord {
  NodeKind kind = NodeKind::kInternal;
  std::array<int64_t, kAttrCount> attrs = {};  // indexed by Attr
  Oid parent = objstore::kInvalidOid;
  Oid content = objstore::kInvalidOid;
  std::vector<Oid> children;
  std::vector<Oid> parts;
  std::vector<Oid> part_of;
  std::vector<RefEdge> refs_to;
  std::vector<RefEdge> refs_from;

  std::string Encode() const {
    std::string out;
    out.reserve(kFixedHeader + 20 + 8 * (children.size() + parts.size() +
                                         part_of.size()) +
                24 * (refs_to.size() + refs_from.size()));
    out.push_back(static_cast<char>(kTagNode));
    out.push_back(static_cast<char>(kind));
    for (int64_t value : attrs) {
      util::PutFixed64(&out, static_cast<uint64_t>(value));
    }
    util::PutFixed64(&out, parent);
    util::PutFixed64(&out, content);
    PutOidList(&out, children);
    PutOidList(&out, parts);
    PutOidList(&out, part_of);
    PutEdgeList(&out, refs_to);
    PutEdgeList(&out, refs_from);
    return out;
  }

  static util::Result<NodeRecord> Decode(std::string_view data) {
    HM_ASSIGN_OR_RETURN(NodeView view, NodeView::Parse(data));
    NodeRecord rec;
    rec.kind = view.kind();
    for (size_t i = 0; i < kAttrCount; ++i) {
      rec.attrs[i] = view.attr(static_cast<Attr>(i));
    }
    rec.parent = view.parent();
    rec.content = view.content();
    view.DecodeList(List::kChildren, &rec.children);
    view.DecodeList(List::kParts, &rec.parts);
    view.DecodeList(List::kPartOf, &rec.part_of);
    view.DecodeList(List::kRefsTo, &rec.refs_to);
    view.DecodeList(List::kRefsFrom, &rec.refs_from);
    return rec;
  }
};

util::Result<std::unique_ptr<OodbStore>> OodbStore::Open(
    const OodbOptions& options, const std::string& dir) {
  std::unique_ptr<OodbStore> oodb(new OodbStore());
  HM_ASSIGN_OR_RETURN(oodb->store_, objstore::ObjectStore::Open(options, dir));
  objstore::ObjectStore* store = oodb->store_.get();

  if (store->GetCatalog(kSlotUniqueRoot) == 0) {
    // Fresh database: create the three secondary indexes.
    HM_ASSIGN_OR_RETURN(BPlusTree uniq,
                        BPlusTree::Create(store->buffer_pool()));
    HM_ASSIGN_OR_RETURN(BPlusTree hundred,
                        BPlusTree::Create(store->buffer_pool()));
    HM_ASSIGN_OR_RETURN(BPlusTree million,
                        BPlusTree::Create(store->buffer_pool()));
    oodb->by_unique_.emplace(uniq);
    oodb->by_hundred_.emplace(hundred);
    oodb->by_million_.emplace(million);
    HM_RETURN_IF_ERROR(oodb->PersistIndexRoots());
    HM_RETURN_IF_ERROR(store->Checkpoint());
  } else {
    oodb->by_unique_.emplace(
        store->buffer_pool(),
        static_cast<storage::PageId>(store->GetCatalog(kSlotUniqueRoot)));
    oodb->by_hundred_.emplace(
        store->buffer_pool(),
        static_cast<storage::PageId>(store->GetCatalog(kSlotHundredRoot)));
    oodb->by_million_.emplace(
        store->buffer_pool(),
        static_cast<storage::PageId>(store->GetCatalog(kSlotMillionRoot)));
    if (store->recovered_records() > 0) {
      // WAL replay re-applied object mutations the checkpointed index
      // pages never saw; re-derive the indexes from the objects.
      HM_RETURN_IF_ERROR(oodb->RebuildIndexes());
      HM_RETURN_IF_ERROR(store->Checkpoint());
    }
  }
  return oodb;
}

OodbStore::~OodbStore() {
  if (store_ != nullptr) {
    // Best-effort teardown: a destructor has no caller to report to.
    (void)PersistIndexRoots();
    (void)store_->Close();
  }
}

util::Status OodbStore::PersistIndexRoots() {
  store_->SetCatalog(kSlotUniqueRoot, by_unique_->root_id());
  store_->SetCatalog(kSlotHundredRoot, by_hundred_->root_id());
  store_->SetCatalog(kSlotMillionRoot, by_million_->root_id());
  return util::Status::Ok();
}

util::Status OodbStore::IndexNode(Oid oid, int64_t unique_id,
                                  int64_t hundred, int64_t million) {
  HM_RETURN_IF_ERROR(
      by_unique_->Insert(Key128{static_cast<uint64_t>(unique_id), 0}, oid));
  HM_RETURN_IF_ERROR(
      by_hundred_->Insert(Key128{static_cast<uint64_t>(hundred), oid}, oid));
  return by_million_->Insert(Key128{static_cast<uint64_t>(million), oid}, oid);
}

util::Status OodbStore::RebuildIndexes() {
  HM_ASSIGN_OR_RETURN(BPlusTree uniq, BPlusTree::Create(store_->buffer_pool()));
  HM_ASSIGN_OR_RETURN(BPlusTree hundred,
                      BPlusTree::Create(store_->buffer_pool()));
  HM_ASSIGN_OR_RETURN(BPlusTree million,
                      BPlusTree::Create(store_->buffer_pool()));
  by_unique_.emplace(uniq);
  by_hundred_.emplace(hundred);
  by_million_.emplace(million);
  for (Oid oid = 1; oid < store_->next_oid(); ++oid) {
    if (!store_->Exists(oid)) continue;
    // The keys are copied out so the index inserts, which fetch pages,
    // run after the record's page is unpinned.
    bool is_node = false;
    int64_t unique_id = 0, hundred = 0, million = 0;
    HM_RETURN_IF_ERROR(
        store_->View(oid, [&](std::string_view data) -> util::Status {
          if (data.empty() || static_cast<uint8_t>(data[0]) != kTagNode) {
            return util::Status::Ok();  // a content object
          }
          HM_ASSIGN_OR_RETURN(NodeView view, NodeView::Parse(data));
          is_node = true;
          unique_id = view.attr(Attr::kUniqueId);
          hundred = view.attr(Attr::kHundred);
          million = view.attr(Attr::kMillion);
          return util::Status::Ok();
        }));
    if (!is_node) continue;
    HM_RETURN_IF_ERROR(IndexNode(oid, unique_id, hundred, million));
  }
  // No checkpoint here: rebuilds may run inside an open transaction
  // (GC) — the caller decides when the new baseline is durable.
  return PersistIndexRoots();
}

util::Status OodbStore::ApplyReplicated(
    const std::vector<std::string>& payloads) {
  if (txn_.has_value() && txn_->active()) {
    return util::Status::InvalidArgument(
        "cannot apply replicated records with a local transaction open");
  }
  for (const std::string& payload : payloads) {
    HM_RETURN_IF_ERROR(store_->ApplyReplicatedRecord(payload));
  }
  // One index re-derivation per batch: the shipped logical records
  // carry no index maintenance, exactly like crash-recovery redo.
  return RebuildIndexes();
}

util::Status OodbStore::RequireActiveTxn() {
  if (!txn_.has_value() || !txn_->active()) {
    return util::Status::InvalidArgument(
        "no active transaction: call Begin() first");
  }
  return util::Status::Ok();
}

util::Status OodbStore::Begin() {
  if (txn_.has_value() && txn_->active()) {
    return util::Status::InvalidArgument("transaction already active");
  }
  HM_ASSIGN_OR_RETURN(objstore::Transaction txn, store_->Begin());
  txn_.emplace(std::move(txn));
  return util::Status::Ok();
}

util::Status OodbStore::Commit() {
  HM_ASSIGN_OR_RETURN(uint64_t ticket, CommitBegin());
  return CommitWait(ticket);
}

util::Result<uint64_t> OodbStore::CommitBegin() {
  HM_RETURN_IF_ERROR(RequireActiveTxn());
  HM_RETURN_IF_ERROR(PersistIndexRoots());
  util::Result<uint64_t> ticket = store_->CommitAsync(&*txn_);
  // The transaction ends here either way: a failed CommitAsync rolled
  // it back. Its index entries are not part of that object-level undo,
  // so re-derive them, as Abort does.
  txn_.reset();
  if (!ticket.ok()) HM_RETURN_IF_ERROR(RebuildIndexes());
  return ticket;
}

util::Status OodbStore::CommitWait(uint64_t ticket) {
  return store_->WaitCommitDurable(ticket);
}

util::Status OodbStore::Abort() {
  HM_RETURN_IF_ERROR(RequireActiveTxn());
  util::Status s = store_->Abort(&*txn_);
  txn_.reset();
  // Index entries added by the aborted transaction are NOT rolled back
  // by the object-level undo; re-derive them.
  if (s.ok()) s = RebuildIndexes();
  return s;
}

util::Status OodbStore::CloseReopen() {
  if (txn_.has_value() && txn_->active()) {
    return util::Status::InvalidArgument(
        "cannot close with an active transaction");
  }
  HM_RETURN_IF_ERROR(PersistIndexRoots());
  HM_RETURN_IF_ERROR(store_->Checkpoint());
  return store_->DropCaches();
}

util::Status OodbStore::WriteNode(NodeRef node, const NodeRecord& record) {
  return store_->Update(&*txn_, node, record.Encode());
}

template <typename Change>
util::Status OodbStore::ModifyNode(NodeRef node, Change change) {
  return store_->Modify(
      &*txn_, node,
      [&change](std::string_view data) -> util::Result<std::string> {
        HM_ASSIGN_OR_RETURN(NodeRecord rec, NodeRecord::Decode(data));
        HM_RETURN_IF_ERROR(change(&rec));
        return rec.Encode();
      });
}

util::Status OodbStore::WriteContents(NodeRef node,
                                      std::optional<NodeKind> want,
                                      std::string_view bytes) {
  HM_RETURN_IF_ERROR(RequireActiveTxn());
  HM_ASSIGN_OR_RETURN(ContentRef ref, ReadContentRef(*store_, node, want));
  if (ref.kind == NodeKind::kForm && !want.has_value()) {
    // SetContents on a form node: the bytes must decode as a bitmap.
    HM_RETURN_IF_ERROR(util::Bitmap::Deserialize(bytes).status());
  }
  const std::string blob = ContentBlob(bytes);
  if (ref.content != objstore::kInvalidOid) {
    return store_->Update(&*txn_, ref.content, blob);
  }
  HM_ASSIGN_OR_RETURN(Oid content, store_->Create(&*txn_, blob, node));
  return ModifyNode(node, [content](NodeRecord* rec) {
    rec->content = content;
    return util::Status::Ok();
  });
}

namespace {

// Live node/edge totals (`backend.oodb.*`); see mem_store.cc.
void CountNodes(int64_t n) {
  static telemetry::Gauge* nodes =
      telemetry::Registry::Global().GetGauge("backend.oodb.nodes");
  nodes->Add(n);
}

void CountEdges(int64_t n) {
  static telemetry::Gauge* edges =
      telemetry::Registry::Global().GetGauge("backend.oodb.edges");
  edges->Add(n);
}

}  // namespace

util::Result<NodeRef> OodbStore::CreateNode(const NodeAttrs& attrs,
                                            NodeRef near) {
  HM_RETURN_IF_ERROR(RequireActiveTxn());
  return CreateRecord(attrs, near, {});
}

util::Result<NodeRef> OodbStore::CreateRecord(const NodeAttrs& attrs,
                                              NodeRef near,
                                              std::string_view blob) {
  NodeRecord rec;
  rec.kind = attrs.kind;
  rec.attrs = {attrs.unique_id, attrs.ten, attrs.hundred, attrs.thousand,
               attrs.million};
  HM_ASSIGN_OR_RETURN(Oid oid, store_->Create(&*txn_, rec.Encode(), near));
  HM_RETURN_IF_ERROR(IndexNode(oid, attrs.unique_id, attrs.hundred,
                               attrs.million));
  CountNodes(1);
  if (!blob.empty()) {
    HM_ASSIGN_OR_RETURN(rec.content, store_->Create(&*txn_, blob, oid));
    HM_RETURN_IF_ERROR(WriteNode(oid, rec));
  }
  return oid;
}

util::Status OodbStore::SetText(NodeRef node, std::string_view text) {
  return WriteContents(node, NodeKind::kText, text);
}

util::Status OodbStore::SetForm(NodeRef node, const util::Bitmap& form) {
  return WriteContents(node, NodeKind::kForm, form.Serialize());
}

util::Status OodbStore::AddChild(NodeRef parent, NodeRef child) {
  return AddChildrenMulti({&parent, 1}, {&child, 1});
}

util::Status OodbStore::AddPart(NodeRef owner, NodeRef part) {
  return AddPartsMulti({&owner, 1}, {&part, 1});
}

util::Status OodbStore::AddRef(NodeRef from, NodeRef to, int64_t offset_from,
                               int64_t offset_to) {
  return AddRefsMulti({&from, 1}, {&to, 1}, {&offset_from, 1},
                      {&offset_to, 1});
}

util::Result<int64_t> OodbStore::GetAttr(NodeRef node, Attr attr) {
  return ReadField(*store_, node,
                   [attr](const NodeView& view) { return view.attr(attr); });
}

util::Status OodbStore::SetAttr(NodeRef node, Attr attr, int64_t value) {
  return SetAttrsMulti({&node, 1}, attr, {&value, 1});
}

util::Result<NodeKind> OodbStore::GetKind(NodeRef node) {
  return ReadField(*store_, node,
                   [](const NodeView& view) { return view.kind(); });
}

util::Result<std::string> OodbStore::GetText(NodeRef node) {
  return ReadContents(*store_, node, NodeKind::kText);
}

util::Result<util::Bitmap> OodbStore::GetForm(NodeRef node) {
  HM_ASSIGN_OR_RETURN(ContentRef ref,
                      ReadContentRef(*store_, node, NodeKind::kForm));
  if (ref.content == objstore::kInvalidOid) return util::Bitmap();
  HM_ASSIGN_OR_RETURN(std::string bits, ReadContent(*store_, ref.content));
  return util::Bitmap::Deserialize(bits);
}

util::Status OodbStore::SetContents(NodeRef node, std::string_view data) {
  return WriteContents(node, std::nullopt, data);
}

util::Result<std::string> OodbStore::GetContents(NodeRef node) {
  return ReadContents(*store_, node, std::nullopt);
}

util::Result<NodeRef> OodbStore::LookupUnique(int64_t unique_id) {
  HM_ASSIGN_OR_RETURN(
      uint64_t oid,
      by_unique_->Get(Key128{static_cast<uint64_t>(unique_id), 0}));
  return oid;
}

util::Status OodbStore::RangeHundred(int64_t lo, int64_t hi,
                                     std::vector<NodeRef>* out) {
  out->clear();
  return by_hundred_->ScanRange(
      Key128{static_cast<uint64_t>(lo), 0},
      Key128{static_cast<uint64_t>(hi), ~0ULL},
      [out](Key128, uint64_t oid) {
        out->push_back(oid);
        return true;
      });
}

util::Status OodbStore::RangeMillion(int64_t lo, int64_t hi,
                                     std::vector<NodeRef>* out) {
  out->clear();
  return by_million_->ScanRange(
      Key128{static_cast<uint64_t>(lo), 0},
      Key128{static_cast<uint64_t>(hi), ~0ULL},
      [out](Key128, uint64_t oid) {
        out->push_back(oid);
        return true;
      });
}

util::Status OodbStore::Children(NodeRef node, std::vector<NodeRef>* out) {
  return ReadList(*store_, node, List::kChildren, out);
}

util::Status OodbStore::ChildrenAndAttr(NodeRef node, Attr attr,
                                        std::vector<NodeRef>* out,
                                        int64_t* value) {
  return store_->View(node, [&](std::string_view data) -> util::Status {
    HM_ASSIGN_OR_RETURN(NodeView view, NodeView::Parse(data));
    *value = view.attr(attr);
    view.DecodeList(List::kChildren, out);
    return util::Status::Ok();
  });
}

util::Result<NodeRef> OodbStore::Parent(NodeRef node) {
  return ReadField(*store_, node,
                   [](const NodeView& view) { return view.parent(); });
}

util::Status OodbStore::Parts(NodeRef node, std::vector<NodeRef>* out) {
  return ReadList(*store_, node, List::kParts, out);
}

util::Status OodbStore::PartOf(NodeRef node, std::vector<NodeRef>* out) {
  return ReadList(*store_, node, List::kPartOf, out);
}

util::Status OodbStore::RefsTo(NodeRef node, std::vector<RefEdge>* out) {
  return ReadList(*store_, node, List::kRefsTo, out);
}

util::Status OodbStore::RefsFrom(NodeRef node, std::vector<RefEdge>* out) {
  return ReadList(*store_, node, List::kRefsFrom, out);
}

util::Status OodbStore::ChildrenMulti(std::span<const NodeRef> nodes,
                                      RefLists* out) {
  return ReadLists(*store_, nodes, List::kChildren, out);
}

util::Status OodbStore::PartsMulti(std::span<const NodeRef> nodes,
                                   RefLists* out) {
  return ReadLists(*store_, nodes, List::kParts, out);
}

util::Status OodbStore::RefsToMulti(std::span<const NodeRef> nodes,
                                    EdgeLists* out) {
  return ReadLists(*store_, nodes, List::kRefsTo, out);
}

util::Status OodbStore::ChildrenAttrsMulti(std::span<const NodeRef> nodes,
                                           Attr attr, RefLists* children,
                                           std::vector<int64_t>* values) {
  return ReadLists(*store_, nodes, List::kChildren, children, attr, values);
}

util::Status OodbStore::GetAttrsMulti(std::span<const NodeRef> nodes,
                                      Attr attr,
                                      std::vector<int64_t>* values) {
  values->assign(nodes.size(), 0);
  return ViewNodes(*store_, nodes, [&](size_t i, const NodeView& view) {
    (*values)[i] = view.attr(attr);
    return util::Status::Ok();
  });
}

util::Status OodbStore::SetAttrsMulti(std::span<const NodeRef> nodes,
                                      Attr attr,
                                      std::span<const int64_t> values) {
  HM_RETURN_IF_ERROR(
      CheckPositional("SetAttrsMulti", nodes.size(), {values.size()}));
  HM_RETURN_IF_ERROR(RequireActiveTxn());
  HM_RETURN_IF_ERROR(CheckWritableAttr(attr));
  // The range index on `attr`, if it has one: its (value, oid) key
  // moves once the record holds the new value.
  BPlusTree* index = attr == Attr::kHundred   ? &*by_hundred_
                     : attr == Attr::kMillion ? &*by_million_
                                              : nullptr;
  for (size_t i = 0; i < nodes.size(); ++i) {
    int64_t old = 0;
    HM_RETURN_IF_ERROR(ModifyNode(nodes[i], [&](NodeRecord* rec) {
      old = std::exchange(rec->attrs[static_cast<size_t>(attr)], values[i]);
      return util::Status::Ok();
    }));
    if (index == nullptr) continue;
    HM_RETURN_IF_ERROR(
        index->Delete(Key128{static_cast<uint64_t>(old), nodes[i]}));
    HM_RETURN_IF_ERROR(index->Insert(
        Key128{static_cast<uint64_t>(values[i]), nodes[i]}, nodes[i]));
  }
  return util::Status::Ok();
}

util::Status OodbStore::CreateNodesMulti(
    std::span<const NodeAttrs> attrs, std::span<const NodeRef> near,
    std::span<const std::string_view> contents, std::vector<NodeRef>* refs) {
  HM_RETURN_IF_ERROR(CheckPositional("CreateNodesMulti", attrs.size(),
                                     {near.size(), contents.size()}));
  HM_RETURN_IF_ERROR(RequireActiveTxn());
  // Every node's contents are checked before the first create. A form
  // is stored as SetForm stores it: its bytes decoded and re-encoded.
  std::vector<std::string> forms;
  for (size_t i = 0; i < attrs.size(); ++i) {
    if (contents[i].empty()) continue;
    if (attrs[i].kind == NodeKind::kInternal) {
      return util::Status::InvalidArgument("internal nodes carry no contents");
    }
    if (attrs[i].kind == NodeKind::kForm) {
      HM_ASSIGN_OR_RETURN(util::Bitmap form,
                          util::Bitmap::Deserialize(contents[i]));
      forms.push_back(form.Serialize());
    }
  }
  refs->clear();
  refs->reserve(attrs.size());
  size_t form = 0;
  for (size_t i = 0; i < attrs.size(); ++i) {
    std::string blob;
    if (!contents[i].empty()) {
      blob = ContentBlob(attrs[i].kind == NodeKind::kForm ? forms[form++]
                                                          : contents[i]);
    }
    HM_ASSIGN_OR_RETURN(NodeRef node, CreateRecord(attrs[i], near[i], blob));
    refs->push_back(node);
  }
  return util::Status::Ok();
}

template <typename Append>
util::Status OodbStore::WriteEdges(std::span<const NodeRef> a,
                                   std::span<const NodeRef> b,
                                   Append append) {
  HM_RETURN_IF_ERROR(RequireActiveTxn());
  // The touched records in first-touch order, and each one's slot.
  std::vector<std::pair<Oid, NodeRecord>> records;
  std::unordered_map<Oid, size_t> slots;
  auto touch = [&](Oid oid) -> util::Result<size_t> {
    auto [it, fresh] = slots.try_emplace(oid, records.size());
    if (fresh) {
      HM_ASSIGN_OR_RETURN(std::string data, store_->Read(oid));
      HM_ASSIGN_OR_RETURN(NodeRecord rec, NodeRecord::Decode(data));
      records.emplace_back(oid, std::move(rec));
    }
    return it->second;
  };
  for (size_t i = 0; i < a.size(); ++i) {
    HM_ASSIGN_OR_RETURN(size_t x, touch(a[i]));
    HM_ASSIGN_OR_RETURN(size_t y, touch(b[i]));
    HM_RETURN_IF_ERROR(append(i, records[x].second, records[y].second));
  }
  for (const auto& [oid, rec] : records) {
    HM_RETURN_IF_ERROR(WriteNode(oid, rec));
  }
  CountEdges(static_cast<int64_t>(a.size()));
  return util::Status::Ok();
}

util::Status OodbStore::AddChildrenMulti(std::span<const NodeRef> parents,
                                         std::span<const NodeRef> children) {
  HM_RETURN_IF_ERROR(CheckPositional("AddChildrenMulti", parents.size(),
                                     {children.size()}));
  return WriteEdges(
      parents, children,
      [&](size_t i, NodeRecord& parent, NodeRecord& child) -> util::Status {
        HM_RETURN_IF_ERROR(CheckNotOwnChild(parents[i], children[i]));
        if (child.parent != objstore::kInvalidOid) {
          return util::Status::InvalidArgument("node already has a parent");
        }
        parent.children.push_back(children[i]);
        child.parent = parents[i];
        return util::Status::Ok();
      });
}

util::Status OodbStore::AddPartsMulti(std::span<const NodeRef> owners,
                                      std::span<const NodeRef> parts) {
  HM_RETURN_IF_ERROR(
      CheckPositional("AddPartsMulti", owners.size(), {parts.size()}));
  return WriteEdges(
      owners, parts,
      [&](size_t i, NodeRecord& owner, NodeRecord& part) -> util::Status {
        owner.parts.push_back(parts[i]);
        part.part_of.push_back(owners[i]);
        return util::Status::Ok();
      });
}

util::Status OodbStore::AddRefsMulti(std::span<const NodeRef> from,
                                     std::span<const NodeRef> to,
                                     std::span<const int64_t> offset_from,
                                     std::span<const int64_t> offset_to) {
  HM_RETURN_IF_ERROR(
      CheckPositional("AddRefsMulti", from.size(),
                      {to.size(), offset_from.size(), offset_to.size()}));
  return WriteEdges(
      from, to,
      [&](size_t i, NodeRecord& source, NodeRecord& target) -> util::Status {
        source.refs_to.push_back(RefEdge{to[i], offset_from[i], offset_to[i]});
        target.refs_from.push_back(
            RefEdge{from[i], offset_from[i], offset_to[i]});
        return util::Status::Ok();
      });
}

util::Result<uint64_t> OodbStore::StorageBytes() {
  return store_->page_count() * static_cast<uint64_t>(storage::kPageSize);
}

util::Result<uint64_t> OodbStore::CollectGarbage(
    const std::vector<NodeRef>& roots) {
  HM_RETURN_IF_ERROR(RequireActiveTxn());
  auto trace = [](objstore::Oid,
                  const std::string& data)
      -> util::Result<std::vector<objstore::Oid>> {
    if (data.empty()) return std::vector<objstore::Oid>{};
    if (static_cast<uint8_t>(data[0]) == kTagContent) {
      return std::vector<objstore::Oid>{};  // content objects are leaves
    }
    HM_ASSIGN_OR_RETURN(NodeRecord rec, NodeRecord::Decode(data));
    std::vector<objstore::Oid> refs;
    refs.reserve(2 + rec.children.size() + rec.parts.size() +
                 rec.part_of.size() + rec.refs_to.size() +
                 rec.refs_from.size());
    if (rec.parent != objstore::kInvalidOid) refs.push_back(rec.parent);
    if (rec.content != objstore::kInvalidOid) refs.push_back(rec.content);
    refs.insert(refs.end(), rec.children.begin(), rec.children.end());
    refs.insert(refs.end(), rec.parts.begin(), rec.parts.end());
    refs.insert(refs.end(), rec.part_of.begin(), rec.part_of.end());
    for (const RefEdge& edge : rec.refs_to) refs.push_back(edge.node);
    for (const RefEdge& edge : rec.refs_from) refs.push_back(edge.node);
    return refs;
  };
  HM_ASSIGN_OR_RETURN(uint64_t collected,
                      store_->CollectGarbage(&*txn_, roots, trace));
  if (collected > 0) {
    // Collected nodes leave stale index entries; re-derive.
    HM_RETURN_IF_ERROR(RebuildIndexes());
  }
  return collected;
}

}  // namespace hm::backends
