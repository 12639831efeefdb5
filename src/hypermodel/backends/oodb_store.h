#ifndef HM_HYPERMODEL_BACKENDS_OODB_STORE_H_
#define HM_HYPERMODEL_BACKENDS_OODB_STORE_H_

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "hypermodel/store.h"
#include "hypermodel/traversal.h"
#include "index/bptree.h"
#include "objstore/object_store.h"

namespace hm::backends {

/// Options for the persistent object-oriented backend: the object
/// store's own (cache_pages is the workstation cache in 8 KiB pages;
/// placement off the clustered default is the E10 ablation).
using OodbOptions = objstore::ObjectStoreOptions;

/// The persistent OODB backend — the architecture class the paper's
/// Vbase/GemStone measurements represent. Every HyperModel node is one
/// object in an `objstore::ObjectStore`; NodeRef IS the object id, so
/// `nameOIDLookup` is a direct directory dereference. Text and bitmap
/// contents live in separate content objects, keeping node records at
/// roughly the paper's ~80-byte size. Secondary B+tree indexes on
/// uniqueId / hundred / million back the name and range lookups; their
/// roots persist in the store catalog. Relationships are embedded in
/// the node record (forward and inverse), so traversal is a pointer
/// chase — clustered along the 1-N hierarchy when enabled.
///
/// Every read accessor decodes only the field it returns, in place on
/// the pinned page (`ObjectStore::View`): the record is validated in
/// full (tag, fixed header, all five list bounds) without allocating,
/// then one attribute, kind, parent, content OID or list is read. The
/// list accessors overwrite the caller's vector, reusing its capacity.
/// The fully decoded `NodeRecord` serves the write paths only, which
/// re-encode the whole record. A change to one record (an attribute,
/// a content OID) is one `ObjectStore::Modify`, which reads the record
/// once.
///
/// Its whole FrontierFetch surface is native: the §5.2 load's
/// set-at-a-time writes, SetAttrsMulti, and the closure engine's
/// set-at-a-time reads, where a tier is one `ObjectStore::ViewMany`,
/// which pins each directory and data page the tier touches once.
class OodbStore : public HyperStore,
                  public PipelinedCommitCapable,
                  public FrontierFetch {
 public:
  /// Opens (creating or recovering) a store under `dir`. After WAL
  /// replay the secondary indexes are rebuilt from the objects.
  static util::Result<std::unique_ptr<OodbStore>> Open(
      const OodbOptions& options, const std::string& dir);

  ~OodbStore() override;

  std::string name() const override { return "oodb"; }

  // Reads latch-crawl under shared per-frame latches (buffer pool
  // shards + PinMode::kRead), so concurrent readers are safe as long
  // as no mutation runs — exactly the contract this flag advertises.
  bool SupportsConcurrentReads() const override { return true; }

  util::Status Begin() override;
  util::Status Commit() override;
  util::Status Abort() override;
  util::Status CloseReopen() override;

  // PipelinedCommitCapable: CommitBegin logs the commit record (and
  // ends the API-level transaction) under the store's write lock;
  // CommitWait blocks on the group-commit coordinator's fsync.
  util::Result<uint64_t> CommitBegin() override;
  util::Status CommitWait(uint64_t ticket) override;

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
  /// One record read for both.
  util::Status ChildrenAndAttr(NodeRef node, Attr attr,
                               std::vector<NodeRef>* out,
                               int64_t* value) override;
  util::Result<NodeRef> Parent(NodeRef node) override;
  util::Status Parts(NodeRef node, std::vector<NodeRef>* out) override;
  util::Status PartOf(NodeRef node, std::vector<NodeRef>* out) override;
  util::Status RefsTo(NodeRef node, std::vector<RefEdge>* out) override;
  util::Status RefsFrom(NodeRef node, std::vector<RefEdge>* out) override;

  util::Result<uint64_t> StorageBytes() override;

  // FrontierFetch: the reads, native. Each is one ViewMany over the
  // tier, with every record parsed in place as the per-item reads parse
  // it; output i is node i's although records are visited in page
  // order, so the results equal the per-item loop's.
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
  /// One ModifyNode per item, in input order, each followed by its
  /// index update, so a node named twice ends as SetAttr twice leaves
  /// it. uniqueId is refused before the first write. SetAttr is this
  /// call with one item.
  util::Status SetAttrsMulti(std::span<const NodeRef> nodes, Attr attr,
                             std::span<const int64_t> values) override;

  // FrontierFetch: the load's writes, native. An edge write reads each
  // record it touches once, applies that record's appends in input
  // order and writes it once, in first-touch order: every list matches
  // a serial build, and a record takes one update per call, not one per
  // edge. The per-item AddChild/AddPart/AddRef are edge writes of one.
  // Each write checks its inputs (span sizes, an active transaction,
  // every node's contents; for an edge write every record it touches
  // and the parent check) before its first write, so a call refused
  // there writes nothing. A failure while writing leaves a prefix of
  // the call's records written; the caller aborts the transaction, as
  // the generator's phase does.

  /// The same ObjectStore creates, in the same order, as CreateNode
  /// then SetText/SetForm/SetContents per node: the record, then its
  /// contents object near it. The record is then written once with
  /// its content OID, without being read back.
  util::Status CreateNodesMulti(std::span<const NodeAttrs> attrs,
                                std::span<const NodeRef> near,
                                std::span<const std::string_view> contents,
                                std::vector<NodeRef>* refs) override;
  /// Fails with "node already has a parent" for a child that has one,
  /// including a child named twice in one call, and refuses a node as
  /// its own child.
  util::Status AddChildrenMulti(std::span<const NodeRef> parents,
                                std::span<const NodeRef> children) override;
  util::Status AddPartsMulti(std::span<const NodeRef> owners,
                             std::span<const NodeRef> parts) override;
  /// A self-ref appends both entries to the one record.
  util::Status AddRefsMulti(std::span<const NodeRef> from,
                            std::span<const NodeRef> to,
                            std::span<const int64_t> offset_from,
                            std::span<const int64_t> offset_to) override;

  /// Underlying object store (stats, tests).
  objstore::ObjectStore* object_store() { return store_.get(); }

  /// Applies a batch of logical WAL records shipped from a replication
  /// primary, then re-derives the secondary indexes once for the whole
  /// batch. Used by the follower replayer (DESIGN.md §16) — never
  /// concurrently with local transactions; the server's exclusive
  /// dispatch lock provides that.
  util::Status ApplyReplicated(const std::vector<std::string>& payloads);

  /// Garbage-collects nodes unreachable from `roots` through any
  /// relationship (children, parts, refs — forward and inverse — and
  /// content objects), then rebuilds the secondary indexes (R10:
  /// "garbage collection of non-referenced objects"). Must be called
  /// inside a transaction. Returns the number of objects collected.
  util::Result<uint64_t> CollectGarbage(const std::vector<NodeRef>& roots);

 private:
  OodbStore() = default;

  /// Decoded node record (see oodb_store.cc for the wire format);
  /// write paths only.
  struct NodeRecord;

  util::Status WriteNode(NodeRef node, const NodeRecord& record);
  /// Decodes node `node`'s record, runs `change(&record)` and writes
  /// the record back, all inside one ObjectStore::Modify: one read.
  /// If `change` fails, nothing is written. It must not call the store.
  template <typename Change>
  util::Status ModifyNode(NodeRef node, Change change);
  /// SetText, SetForm and SetContents (no `want`): the kind rule (and,
  /// for SetContents on a form node, `bytes` must decode as a bitmap),
  /// then `bytes` replace the contents object's, or a new contents
  /// object near the node holds them and its OID goes into the node's
  /// record.
  util::Status WriteContents(NodeRef node, std::optional<NodeKind> want,
                             std::string_view bytes);
  util::Status RequireActiveTxn();
  /// Creates one node record near `near` and indexes it; a non-empty
  /// `blob` (tagged contents) becomes its contents object.
  util::Result<NodeRef> CreateRecord(const NodeAttrs& attrs, NodeRef near,
                                     std::string_view blob);
  /// One edge write: edge i joins records a[i] and b[i], and
  /// `append(i, a_record, b_record)` adds its entries (one record
  /// passed twice for a self-edge).
  template <typename Append>
  util::Status WriteEdges(std::span<const NodeRef> a,
                          std::span<const NodeRef> b, Append append);
  /// Adds node `oid`'s entries to the three secondary indexes.
  util::Status IndexNode(objstore::Oid oid, int64_t unique_id,
                         int64_t hundred, int64_t million);
  /// Drops and re-derives all three secondary indexes from the
  /// objects; called after WAL replay.
  util::Status RebuildIndexes();
  util::Status PersistIndexRoots();

  std::unique_ptr<objstore::ObjectStore> store_;
  std::optional<index::BPlusTree> by_unique_;
  std::optional<index::BPlusTree> by_hundred_;
  std::optional<index::BPlusTree> by_million_;
  std::optional<objstore::Transaction> txn_;
};

}  // namespace hm::backends

#endif  // HM_HYPERMODEL_BACKENDS_OODB_STORE_H_
