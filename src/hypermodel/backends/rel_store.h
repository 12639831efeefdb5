#ifndef HM_HYPERMODEL_BACKENDS_REL_STORE_H_
#define HM_HYPERMODEL_BACKENDS_REL_STORE_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "hypermodel/store.h"
#include "index/bptree.h"
#include "relstore/table.h"
#include "storage/buffer_pool.h"
#include "storage/commit_pipeline/group_commit.h"
#include "storage/file_manager.h"
#include "util/thread_annotations.h"

namespace hm::backends {

/// Options for the relational comparator backend.
struct RelOptions {
  size_t cache_pages = 2048;
  /// Group-commit window in microseconds: how long a solo committer
  /// waits for a companion to share its fsync (0 = not at all). The
  /// FORCE flush still happens per commit; only the fsync is batched.
  uint32_t group_commit_us = 0;
};

/// The relational-mapping backend, following the /BLAH88/ methodology
/// the paper cites for its relational implementation: the HyperModel
/// schema becomes six normalized tables
///
///   node(uid, ten, hundred, thousand, million, kind)
///   text(uid, contents)
///   formchunk(uid, chunk, bytes)      -- bitmaps chunked to page size
///   children(parent, child, seq)      -- 1-N, seq preserves order
///   parts(owner, part)                -- M-N
///   refs(from, to, offsetFrom, offsetTo)
///
/// with eleven B+tree indexes covering both directions of every
/// relationship. A NodeRef here is the uniqueId key value ("in a
/// relational system it would typically be the value of a key
/// attribute", §6). Traversals therefore pay an index lookup plus a
/// heap fetch per edge — the join cost the paper expects to dominate
/// closure operations — and there is no clustering along the
/// hierarchy. Commit uses a FORCE policy (flush all dirty pages +
/// fsync); there is no rollback.
class RelStore : public HyperStore, public PipelinedCommitCapable {
 public:
  static util::Result<std::unique_ptr<RelStore>> Open(
      const RelOptions& options, const std::string& dir);

  ~RelStore() override;

  std::string name() const override { return "rel"; }

  // Table scans and index probes take shared per-frame latches only,
  // so read-only operations may run concurrently between commits.
  bool SupportsConcurrentReads() const override { return true; }

  util::Status Begin() override { return util::Status::Ok(); }
  util::Status Commit() override;
  util::Status Abort() override {
    return util::Status::NotSupported(
        "rel backend uses FORCE commits; no rollback");
  }
  util::Status CloseReopen() override;

  // PipelinedCommitCapable: CommitBegin runs the FORCE flush (all
  // dirty pages written) and enrolls for the shared fsync; CommitWait
  // blocks on the coordinator.
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
  util::Result<NodeRef> Parent(NodeRef node) override;
  util::Status Parts(NodeRef node, std::vector<NodeRef>* out) override;
  util::Status PartOf(NodeRef node, std::vector<NodeRef>* out) override;
  util::Status RefsTo(NodeRef node, std::vector<RefEdge>* out) override;
  util::Status RefsFrom(NodeRef node, std::vector<RefEdge>* out) override;

  util::Result<uint64_t> StorageBytes() override;

 private:
  explicit RelStore(uint32_t group_commit_us);

  util::Status InitFresh();
  util::Status LoadMeta();
  util::Status SaveMeta();

  /// RID of the node row keyed by uid.
  util::Result<relstore::Rid> NodeRid(NodeRef node) const;
  /// Reads the node row.
  util::Result<relstore::Tuple> NodeRow(NodeRef node) const;
  /// Inserts or rewrites the text-table row for `node`.
  util::Status UpsertTextRow(NodeRef node, std::string_view data);
  /// Replaces the formchunk rows for `node` with `bytes`, re-chunked.
  util::Status ReplaceChunks(NodeRef node, std::string_view bytes);
  /// Concatenates the formchunk rows for `node`.
  util::Result<std::string> ReadChunks(NodeRef node);

  storage::FileManager file_;
  std::unique_ptr<storage::BufferPool> pool_;
  /// Makes every commit durable, batching the commit fsync.
  storage::GroupCommitCoordinator group_commit_;
  /// Serializes the SaveMeta+FlushAll phase of concurrent committers
  /// (the rel backend has no finer-grained write lock of its own). A
  /// pure phase lock: it guards a critical *section*, not any member,
  /// so nothing carries HM_GUARDED_BY on it.
  util::Mutex commit_mu_;

  std::optional<relstore::Table> node_table_;
  std::optional<relstore::Table> text_table_;
  std::optional<relstore::Table> formchunk_table_;
  std::optional<relstore::Table> children_table_;
  std::optional<relstore::Table> parts_table_;
  std::optional<relstore::Table> refs_table_;

  std::optional<index::BPlusTree> idx_node_uid_;
  std::optional<index::BPlusTree> idx_node_hundred_;
  std::optional<index::BPlusTree> idx_node_million_;
  std::optional<index::BPlusTree> idx_children_parent_;
  std::optional<index::BPlusTree> idx_children_child_;
  std::optional<index::BPlusTree> idx_parts_owner_;
  std::optional<index::BPlusTree> idx_parts_part_;
  std::optional<index::BPlusTree> idx_refs_from_;
  std::optional<index::BPlusTree> idx_refs_to_;
  std::optional<index::BPlusTree> idx_text_uid_;
  std::optional<index::BPlusTree> idx_formchunk_;
};

}  // namespace hm::backends

#endif  // HM_HYPERMODEL_BACKENDS_REL_STORE_H_
