#ifndef HM_HYPERMODEL_BACKENDS_MEM_STORE_H_
#define HM_HYPERMODEL_BACKENDS_MEM_STORE_H_

#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "hypermodel/store.h"

namespace hm::backends {

/// Transient in-memory HyperStore — the "workstation image" comparator
/// (the paper's Smalltalk-80 configuration): every object lives in the
/// application's address space, commits are no-ops, nothing survives
/// the process. It bounds what any persistent backend can hope to
/// reach warm, and gives the benchmark its zero-I/O baseline.
class MemStore : public HyperStore {
 public:
  MemStore() = default;

  std::string name() const override { return "mem"; }

  /// Reads touch only const vectors/maps — no buffer pool, no pin
  /// counts — so parallel readers are safe between mutations.
  bool SupportsConcurrentReads() const override { return true; }

  util::Status Begin() override { return util::Status::Ok(); }
  util::Status Commit() override { return util::Status::Ok(); }
  util::Status Abort() override {
    return util::Status::NotSupported(
        "mem backend has no transaction rollback (image semantics)");
  }
  util::Status CloseReopen() override { return util::Status::Ok(); }

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
  /// One node lookup for both.
  util::Status ChildrenAndAttr(NodeRef node, Attr attr,
                               std::vector<NodeRef>* out,
                               int64_t* value) override;
  util::Result<NodeRef> Parent(NodeRef node) override;
  util::Status Parts(NodeRef node, std::vector<NodeRef>* out) override;
  util::Status PartOf(NodeRef node, std::vector<NodeRef>* out) override;
  util::Status RefsTo(NodeRef node, std::vector<RefEdge>* out) override;
  util::Status RefsFrom(NodeRef node, std::vector<RefEdge>* out) override;

  util::Result<uint64_t> StorageBytes() override;

  /// Number of nodes ever created (diagnostics).
  size_t node_count() const { return nodes_.size(); }

  /// Smalltalk-80 image semantics: snapshots the entire store into one
  /// binary image file (varint-compressed), and restores from it. This
  /// is how the paper's third system persisted at all — by saving the
  /// whole workstation image, not by transactional I/O.
  util::Status SaveImage(const std::string& path) const;
  util::Status LoadImage(const std::string& path);

 private:
  struct MemNode {
    NodeAttrs attrs;
    std::string text;
    util::Bitmap form;
    NodeRef parent = kInvalidNode;
    std::vector<NodeRef> children;
    std::vector<NodeRef> parts;
    std::vector<NodeRef> part_of;
    std::vector<RefEdge> refs_to;
    std::vector<RefEdge> refs_from;
  };

  util::Result<MemNode*> Find(NodeRef node);
  /// Removes `node` from the per-value bucket of an attribute index.
  static void IndexErase(std::map<int64_t, std::vector<NodeRef>>* index,
                         int64_t value, NodeRef node);

  std::vector<MemNode> nodes_;
  std::unordered_map<int64_t, NodeRef> by_unique_;
  std::map<int64_t, std::vector<NodeRef>> by_hundred_;
  std::map<int64_t, std::vector<NodeRef>> by_million_;
};

}  // namespace hm::backends

#endif  // HM_HYPERMODEL_BACKENDS_MEM_STORE_H_
