#ifndef HM_HYPERMODEL_TRAVERSAL_H_
#define HM_HYPERMODEL_TRAVERSAL_H_

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string_view>
#include <vector>

#include "hypermodel/store.h"
#include "hypermodel/types.h"
#include "util/status.h"

namespace hm {

/// Optional HyperStore capability: whole-traversal execution. A store
/// that implements this (the `remote` backend pushes the walk to the
/// server; the `shard://` and replicated clients route it) is
/// discovered by `ops::` via dynamic_cast and receives the §6.6
/// closure kernels as single calls. Every method must produce
/// byte-identical results to the kernels in `traversal::` below —
/// `store_contract_test` enforces this.
class TraversalCapable {
 public:
  virtual ~TraversalCapable() = default;

  /// GetAttr over many nodes at once; `values` is resized to match
  /// `nodes` and filled positionally. Used by ops::SeqScan.
  virtual util::Status BulkGetAttr(std::span<const NodeRef> nodes, Attr attr,
                                   std::vector<int64_t>* values) = 0;

  // One method per §6.6 kernel; contracts mirror traversal::* exactly
  // (output containers are replaced, not appended to).
  virtual util::Status TravClosure1N(NodeRef start,
                                     std::vector<NodeRef>* out) = 0;
  virtual util::Result<int64_t> TravClosure1NAttSum(NodeRef start,
                                                    uint64_t* visited) = 0;
  virtual util::Result<uint64_t> TravClosure1NAttSet(NodeRef start) = 0;
  virtual util::Status TravClosure1NPred(NodeRef start, int64_t lo, int64_t hi,
                                         std::vector<NodeRef>* out) = 0;
  virtual util::Status TravClosureMN(NodeRef start,
                                     std::vector<NodeRef>* out) = 0;
  virtual util::Status TravClosureMNAtt(NodeRef start, int depth,
                                        std::vector<NodeRef>* out) = 0;
  virtual util::Status TravClosureMNAttLinkSum(
      NodeRef start, int depth, std::vector<NodeDistance>* out) = 0;
};

/// One list per frontier node, stored flat: list i is
/// items[Begin(i), ends[i]). Fetches close one list per input node, in
/// input order, so a whole level costs two allocations, not one per
/// node.
template <typename T>
struct FlatLists {
  std::vector<T> items;
  std::vector<size_t> ends;

  size_t size() const { return ends.size(); }
  size_t Begin(size_t i) const { return i == 0 ? 0 : ends[i - 1]; }
  std::span<const T> operator[](size_t i) const {
    return std::span<const T>(items).subspan(Begin(i), ends[i] - Begin(i));
  }
  void clear() {
    items.clear();
    ends.clear();
  }
  /// Ends the current list: the items appended since the previous
  /// Close() form it.
  void Close() { ends.push_back(items.size()); }
  void Append(std::span<const T> list) {
    items.insert(items.end(), list.begin(), list.end());
    Close();
  }

  bool operator==(const FlatLists&) const = default;
};

using RefLists = FlatLists<NodeRef>;
using EdgeLists = FlatLists<RefEdge>;

/// The set-at-a-time surface of the store: the reads the closure engine
/// is written against, and the writes the §5.2 generator loads the
/// database with. Each frontier step is one fetch, i.e. a join of the
/// frontier with one edge relation (children, parts, refTo), with the
/// children relation and one attribute column together, or with an
/// attribute column; each load step is one write of a whole level of
/// nodes or a whole edge phase. Every method is positional — output i
/// belongs to input i, and every input span holds one entry per item —
/// and replaces its output. `oodb` answers every call natively, mem,
/// rel and net run a loop of the per-item calls (StoreFetch), the
/// `remote` client sends fused requests, the `shard://` client one
/// fused request per owning shard, all sent before any reply is read. The writes are not atomic: a
/// failure part-way leaves a prefix per shard written (a single store
/// is one shard), and on a fleet possibly one half of a cross-shard
/// edge (DESIGN.md §14).
class FrontierFetch {
 public:
  virtual ~FrontierFetch() = default;

  virtual util::Status ChildrenMulti(std::span<const NodeRef> nodes,
                                     RefLists* out) = 0;
  virtual util::Status PartsMulti(std::span<const NodeRef> nodes,
                                  RefLists* out) = 0;
  virtual util::Status RefsToMulti(std::span<const NodeRef> nodes,
                                   EdgeLists* out) = 0;
  /// Node i's children and its `attr` value, at position i of
  /// `children` and `values`: the 1-N engine's fetch whenever its
  /// kernel reads an attribute, so a tier costs one read per node.
  virtual util::Status ChildrenAttrsMulti(std::span<const NodeRef> nodes,
                                          Attr attr, RefLists* children,
                                          std::vector<int64_t>* values) = 0;
  /// The attribute column alone: BulkGetAttr and seqScan, not the
  /// closure engine.
  virtual util::Status GetAttrsMulti(std::span<const NodeRef> nodes,
                                     Attr attr,
                                     std::vector<int64_t>* values) = 0;
  /// Writes values[i] to node i. Not atomic: a failure part-way leaves
  /// a prefix per shard written (a single store is one shard), like
  /// one SetAttr loop per shard.
  virtual util::Status SetAttrsMulti(std::span<const NodeRef> nodes,
                                     Attr attr,
                                     std::span<const int64_t> values) = 0;

  /// Creates node i from attrs[i] near near[i] (CreateNode's clustering
  /// hint), then stores contents[i] unless it is empty: SetText for a
  /// text node, SetForm of the Bitmap::Serialize() bytes for a form
  /// node, SetContents otherwise. Node i is created and filled before
  /// node i + 1; `refs` receives the new refs in input order.
  virtual util::Status CreateNodesMulti(
      std::span<const NodeAttrs> attrs, std::span<const NodeRef> near,
      std::span<const std::string_view> contents,
      std::vector<NodeRef>* refs) = 0;
  /// AddChild(parents[i], children[i]) for each i, in input order.
  virtual util::Status AddChildrenMulti(std::span<const NodeRef> parents,
                                        std::span<const NodeRef> children) = 0;
  /// AddPart(owners[i], parts[i]) for each i, in input order.
  virtual util::Status AddPartsMulti(std::span<const NodeRef> owners,
                                     std::span<const NodeRef> parts) = 0;
  /// AddRef(from[i], to[i], offset_from[i], offset_to[i]) for each i, in
  /// input order.
  virtual util::Status AddRefsMulti(std::span<const NodeRef> from,
                                    std::span<const NodeRef> to,
                                    std::span<const int64_t> offset_from,
                                    std::span<const int64_t> offset_to) = 0;

  /// CreateNode as a one-entry CreateNodesMulti with no contents: the
  /// per-item create of a client whose only write is the fused one.
  util::Result<NodeRef> CreateOne(const NodeAttrs& attrs, NodeRef near);
};

/// InvalidArgument naming `method` unless every size in `sizes` equals
/// `n`: the positional spans of a FrontierFetch write must line up.
util::Status CheckPositional(std::string_view method, size_t n,
                             std::initializer_list<size_t> sizes);

/// FrontierFetch over any HyperStore: one store call per node or edge,
/// in input order. It serves only the stores with no set-at-a-time
/// surface of their own (mem, rel, net), through FetchFor.
class StoreFetch final : public FrontierFetch {
 public:
  explicit StoreFetch(HyperStore* store) : store_(store) {}

  util::Status ChildrenMulti(std::span<const NodeRef> nodes,
                             RefLists* out) override;
  util::Status PartsMulti(std::span<const NodeRef> nodes,
                          RefLists* out) override;
  util::Status RefsToMulti(std::span<const NodeRef> nodes,
                           EdgeLists* out) override;
  /// One ChildrenAndAttr per node.
  util::Status ChildrenAttrsMulti(std::span<const NodeRef> nodes, Attr attr,
                                  RefLists* children,
                                  std::vector<int64_t>* values) override;
  util::Status GetAttrsMulti(std::span<const NodeRef> nodes, Attr attr,
                             std::vector<int64_t>* values) override;
  util::Status SetAttrsMulti(std::span<const NodeRef> nodes, Attr attr,
                             std::span<const int64_t> values) override;
  /// One CreateNode per node, each followed by its contents call.
  util::Status CreateNodesMulti(std::span<const NodeAttrs> attrs,
                                std::span<const NodeRef> near,
                                std::span<const std::string_view> contents,
                                std::vector<NodeRef>* refs) override;
  util::Status AddChildrenMulti(std::span<const NodeRef> parents,
                                std::span<const NodeRef> children) override;
  util::Status AddPartsMulti(std::span<const NodeRef> owners,
                             std::span<const NodeRef> parts) override;
  util::Status AddRefsMulti(std::span<const NodeRef> from,
                            std::span<const NodeRef> to,
                            std::span<const int64_t> offset_from,
                            std::span<const int64_t> offset_to) override;

 private:
  HyperStore* store_;
};

/// The fetch to run over a store: the store itself when it implements
/// FrontierFetch (`oodb`, `remote`, `shard://`), else a StoreFetch over
/// it. `ops::`, the generator and the server's call context choose it
/// here.
class FetchFor {
 public:
  explicit FetchFor(HyperStore* store)
      : per_item_(store), fetch_(dynamic_cast<FrontierFetch*>(store)) {
    if (fetch_ == nullptr) fetch_ = &per_item_;
  }
  FetchFor(const FetchFor&) = delete;
  FetchFor& operator=(const FetchFor&) = delete;

  FrontierFetch* get() const { return fetch_; }

 private:
  StoreFetch per_item_;
  FrontierFetch* fetch_;
};

/// The §6.6 closure kernels, written once as level-synchronous walks
/// over a FrontierFetch: each level of the walk is one fetch, and the
/// result order is rebuilt locally from the fetched lists. Every
/// caller — `ops::` for in-process stores, the server for the pushdown
/// opcodes, the remote, sharded and replicated clients — runs these,
/// so results are identical across stacks by construction. Each
/// visited node is fetched exactly once: its list alone for closure1N,
/// its list with the attribute the kernel reads (ChildrenAttrsMulti)
/// for the other 1-N kernels. A node closure1NPred prunes is still
/// fetched, list and value together, but its list is never followed.
namespace traversal {

/// Pre-order walk of the 1-N hierarchy, children order preserved.
util::Status Closure1N(FrontierFetch* fetch, NodeRef start,
                       std::vector<NodeRef>* out);

/// Sums Attr::kHundred over the closure, each node's value read with
/// its list; `visited` (may be null) receives the node count.
util::Result<int64_t> Closure1NAttSum(FrontierFetch* fetch, NodeRef start,
                                      uint64_t* visited);

/// Rewrites hundred := 99 - hundred over the pre-order closure;
/// returns the update count. The only mutating kernel: it enumerates
/// the closure and its hundreds first, then writes them in pre-order.
util::Result<uint64_t> Closure1NAttSet(FrontierFetch* fetch, NodeRef start);

/// Pre-order closure pruned at nodes with million in [lo, hi]: an
/// excluded node is skipped AND its subtree is never visited (§6.6
/// op /*13*/ semantics — recursion terminates at the predicate). Its
/// own list arrives with its million and is dropped.
util::Status Closure1NPred(FrontierFetch* fetch, NodeRef start, int64_t lo,
                           int64_t hi, std::vector<NodeRef>* out);

/// DFS over the M-N parts DAG, first-encounter order, shared
/// sub-parts listed once.
util::Status ClosureMN(FrontierFetch* fetch, NodeRef start,
                       std::vector<NodeRef>* out);

/// BFS over refTo edges to `depth` levels, first-encounter order.
util::Status ClosureMNAtt(FrontierFetch* fetch, NodeRef start, int depth,
                          std::vector<NodeRef>* out);

/// BFS over refTo edges accumulating offset_to distances (op /*18*/).
util::Status ClosureMNAttLinkSum(FrontierFetch* fetch, NodeRef start,
                                 int depth, std::vector<NodeDistance>* out);

}  // namespace traversal
}  // namespace hm

#endif  // HM_HYPERMODEL_TRAVERSAL_H_
