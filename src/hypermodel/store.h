#ifndef HM_HYPERMODEL_STORE_H_
#define HM_HYPERMODEL_STORE_H_

#include <string>
#include <string_view>
#include <vector>

#include "hypermodel/types.h"
#include "util/bitmap.h"
#include "util/status.h"

namespace hm {

/// Abstract database interface the HyperModel benchmark runs against.
/// One implementation per evaluated system (the paper ran Vbase,
/// GemStone and Smalltalk-80; this repo provides `oodb`, `rel` and
/// `mem`). All operations of §6 are expressed in terms of this API, so
/// adding a backend means implementing exactly this surface.
///
/// Every method with a `std::vector* out` replaces `*out` with its
/// result: it never appends to what the vector held, on any stack.
///
/// Transactions are single-threaded and coarse: Begin/Commit bracket
/// the benchmark protocol's update batches. CloseReopen() is the
/// protocol's "close the database" step — it must defeat any caching
/// so the next access sequence runs cold.
class HyperStore {
 public:
  virtual ~HyperStore() = default;

  /// Short backend tag for reports ("oodb", "rel", "mem").
  virtual std::string name() const = 0;

  /// True when every read-path method (Get*, Lookup*, Range*,
  /// navigation) is safe to call from multiple threads concurrently as
  /// long as no mutation runs — lets the server dispatch read-only
  /// requests under a shared lock. Backends with internally mutable
  /// read paths (buffer-pool eviction, pin counts) stay at the safe
  /// default.
  virtual bool SupportsConcurrentReads() const { return false; }

  // --- Transaction protocol -------------------------------------------
  virtual util::Status Begin() = 0;
  virtual util::Status Commit() = 0;
  virtual util::Status Abort() = 0;
  /// Drops all caches (and persists state), making the next run cold.
  virtual util::Status CloseReopen() = 0;

  // --- Creation (used by the §5.2 generator) --------------------------
  /// Creates a node with the given attributes. `near` is the
  /// clustering hint: backends that support physical clustering place
  /// the node near it (the paper: cluster along the 1-N hierarchy).
  virtual util::Result<NodeRef> CreateNode(const NodeAttrs& attrs,
                                           NodeRef near) = 0;
  /// Sets the text contents of a TextNode.
  virtual util::Status SetText(NodeRef node, std::string_view text) = 0;
  /// Sets the bitmap contents of a FormNode.
  virtual util::Status SetForm(NodeRef node, const util::Bitmap& form) = 0;
  /// Appends `child` to `parent`'s ordered children (1-N aggregation).
  /// InvalidArgument, writing nothing, when `child` already has a
  /// parent or is `parent` itself.
  virtual util::Status AddChild(NodeRef parent, NodeRef child) = 0;
  /// Adds `part` to `owner`'s parts (M-N aggregation).
  virtual util::Status AddPart(NodeRef owner, NodeRef part) = 0;
  /// Adds a refTo edge with offset attributes (M-N association).
  virtual util::Status AddRef(NodeRef from, NodeRef to, int64_t offset_from,
                              int64_t offset_to) = 0;

  // --- Attribute access ------------------------------------------------
  virtual util::Result<int64_t> GetAttr(NodeRef node, Attr attr) = 0;
  /// Writes an attribute, maintaining any secondary indexes on it.
  virtual util::Status SetAttr(NodeRef node, Attr attr, int64_t value) = 0;
  virtual util::Result<NodeKind> GetKind(NodeRef node) = 0;
  virtual util::Result<std::string> GetText(NodeRef node) = 0;
  virtual util::Result<util::Bitmap> GetForm(NodeRef node) = 0;

  /// Raw, kind-agnostic contents access. SetText/SetForm are the
  /// kind-checked views; these let dynamically added node types (R4 —
  /// e.g. the DrawNode extension) store serialized contents through
  /// any backend without new storage code. Rejected only for plain
  /// internal nodes, which carry no contents.
  virtual util::Status SetContents(NodeRef node, std::string_view data) = 0;
  virtual util::Result<std::string> GetContents(NodeRef node) = 0;

  // --- Lookups (§6.1 / §6.2) --------------------------------------------
  /// Key lookup by the uniqueId attribute (op /*01*/).
  virtual util::Result<NodeRef> LookupUnique(int64_t unique_id) = 0;
  /// All nodes with hundred in [lo, hi] (op /*03*/).
  virtual util::Status RangeHundred(int64_t lo, int64_t hi,
                                    std::vector<NodeRef>* out) = 0;
  /// All nodes with million in [lo, hi] (op /*04*/).
  virtual util::Status RangeMillion(int64_t lo, int64_t hi,
                                    std::vector<NodeRef>* out) = 0;

  // --- Relationship traversal (§6.3 / §6.4) ------------------------------
  /// Ordered children of `node` (1-N).
  virtual util::Status Children(NodeRef node,
                                std::vector<NodeRef>* out) = 0;
  /// Parent in the 1-N hierarchy; kInvalidNode for the root.
  virtual util::Result<NodeRef> Parent(NodeRef node) = 0;
  /// Parts of `node` (M-N, forward).
  virtual util::Status Parts(NodeRef node, std::vector<NodeRef>* out) = 0;
  /// Owners `node` is part of (M-N, inverse).
  virtual util::Status PartOf(NodeRef node, std::vector<NodeRef>* out) = 0;
  /// Outgoing refTo edges with offsets (M-N attributed, forward).
  virtual util::Status RefsTo(NodeRef node, std::vector<RefEdge>* out) = 0;
  /// Incoming refFrom edges (M-N attributed, inverse).
  virtual util::Status RefsFrom(NodeRef node, std::vector<RefEdge>* out) = 0;

  /// Children(node) and GetAttr(node, attr) in one call: the ordered
  /// children in `*out` and the value in `*value`, or the status the
  /// first of the two would fail with. The closure engine's
  /// per-node read; a backend that keeps both in one record overrides
  /// it to read that record once.
  virtual util::Status ChildrenAndAttr(NodeRef node, Attr attr,
                                       std::vector<NodeRef>* out,
                                       int64_t* value) {
    HM_RETURN_IF_ERROR(Children(node, out));
    HM_ASSIGN_OR_RETURN(*value, GetAttr(node, attr));
    return util::Status::Ok();
  }

  // --- Bulk / diagnostics ----------------------------------------------
  /// Approximate bytes of stored data (for the §5.2 size report).
  virtual util::Result<uint64_t> StorageBytes() = 0;
};

/// Optional backend capability: split commit into a cheap logging phase
/// and a (possibly group-amortised) durability wait. Discovered via
/// dynamic_cast, like the other *Capable interfaces. Backends whose
/// storage layer batches fsyncs across concurrent committers expose it
/// so callers can release their own locks between the two phases —
/// otherwise every committer serialises on one fsync and group commit
/// never forms a group.
///
/// `CommitBegin()` logs the commit record and ends the transaction in
/// the API sense (a new Begin() may start immediately); the returned
/// ticket is not durable yet. `CommitWait(ticket)` blocks until the
/// batch containing the ticket has been fsynced and returns the sync
/// outcome. `Commit()` on such a backend is equivalent to the pair.
class PipelinedCommitCapable {
 public:
  virtual ~PipelinedCommitCapable() = default;

  /// Logs the commit and returns a durability ticket.
  virtual util::Result<uint64_t> CommitBegin() = 0;
  /// Blocks until `ticket` is durable; returns the fsync outcome.
  virtual util::Status CommitWait(uint64_t ticket) = 0;
};

}  // namespace hm

#endif  // HM_HYPERMODEL_STORE_H_
