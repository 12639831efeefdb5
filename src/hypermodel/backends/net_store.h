#ifndef HM_HYPERMODEL_BACKENDS_NET_STORE_H_
#define HM_HYPERMODEL_BACKENDS_NET_STORE_H_

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "hypermodel/store.h"
#include "storage/buffer_pool.h"
#include "storage/file_manager.h"

namespace hm::backends {

/// Options for the network-model backend.
struct NetOptions {
  size_t cache_pages = 2048;
};

/// The network-model (CODASYL / PCTE-OMS style) backend — the paper's
/// §7 names Damokles and PCTE-OMS as planned targets; this backend
/// stands in for that architecture class:
///
///  * Nodes are **fixed-size records** with direct addressing: a
///    NodeRef is the record number, locating its page and slot by
///    arithmetic — no OID directory, no key index on the access path.
///  * Relationships are **set occurrences**: 1-N children form a
///    sibling ring threaded through the child records (owner keeps
///    first/last for ordered O(1) append); the M-N sets (parts, refs)
///    use separate fixed-size **link records**, each threaded into two
///    rings at once — the owner's chain and the member's chain — the
///    classic multi-ring structure. Traversal is pure pointer chasing.
///  * Variable contents (text, bitmaps) live in chained blob pages
///    referenced from the node record.
///  * There are **no secondary indexes**: uniqueId lookup goes through
///    an in-memory CALC-style map rebuilt by scanning at open, and the
///    range lookups scan every record — the behaviour that made
///    network databases fast at navigation and slow at ad-hoc queries,
///    which is precisely the contrast the benchmark probes.
///
/// Commit uses FORCE (flush all dirty pages + fsync), like the rel
/// backend; there is no rollback.
class NetStore : public HyperStore {
 public:
  static util::Result<std::unique_ptr<NetStore>> Open(
      const NetOptions& options, const std::string& dir);

  ~NetStore() override;

  std::string name() const override { return "net"; }

  util::Status Begin() override { return util::Status::Ok(); }
  util::Status Commit() override;
  util::Status Abort() override {
    return util::Status::NotSupported(
        "net backend uses FORCE commits; no rollback");
  }
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

  storage::BufferPool* buffer_pool() { return pool_.get(); }

 private:
  NetStore() = default;

  struct NodeRecord;  // fixed-size, see net_store.cc
  struct LinkRecord;  // fixed-size multi-ring link

  util::Status InitFresh();
  util::Status LoadMeta();
  util::Status SaveMeta();
  /// Rebuilds the in-memory uid map by scanning all node records.
  util::Status RebuildUidMap();

  util::Result<NodeRecord> ReadNode(NodeRef ref) const;
  util::Status WriteNode(NodeRef ref, const NodeRecord& record);
  util::Result<LinkRecord> ReadLink(uint64_t link) const;
  util::Status WriteLink(uint64_t link, const LinkRecord& record);
  /// Allocates the next node / link record (extending page tables).
  util::Result<NodeRef> AllocNode();
  util::Result<uint64_t> AllocLink();

  /// Scans all live node records, invoking `fn(ref, record)`.
  util::Status ScanNodes(
      const std::function<bool(NodeRef, const NodeRecord&)>& fn) const;

  storage::FileManager file_;
  std::unique_ptr<storage::BufferPool> pool_;
  uint64_t node_count_ = 0;
  uint64_t link_count_ = 0;
  std::vector<storage::PageId> node_pages_;
  std::vector<storage::PageId> link_pages_;
  std::unordered_map<int64_t, NodeRef> uid_map_;  // CALC-key lookup
};

}  // namespace hm::backends

#endif  // HM_HYPERMODEL_BACKENDS_NET_STORE_H_
