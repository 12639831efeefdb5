#include "hypermodel/operations.h"

#include "hypermodel/traversal.h"
#include "util/text.h"

namespace hm::ops {

namespace {

/// Stores may opt into whole-traversal execution (the `remote` backend
/// runs the walk server-side); everything else runs the traversal
/// engine in-process over FetchFor's choice of fetch: the store's own
/// set-at-a-time reads (`oodb`), else one navigation call per node.
TraversalCapable* AsTraversal(HyperStore* store) {
  return dynamic_cast<TraversalCapable*>(store);
}

}  // namespace

util::Result<int64_t> NameLookup(HyperStore* store, int64_t unique_id) {
  HM_ASSIGN_OR_RETURN(NodeRef node, store->LookupUnique(unique_id));
  return store->GetAttr(node, Attr::kHundred);
}

util::Result<int64_t> NameOidLookup(HyperStore* store, NodeRef ref) {
  return store->GetAttr(ref, Attr::kHundred);
}

util::Status RangeLookupHundred(HyperStore* store, int64_t x,
                                std::vector<NodeRef>* out) {
  return store->RangeHundred(x, x + 9, out);
}

util::Status RangeLookupMillion(HyperStore* store, int64_t x,
                                std::vector<NodeRef>* out) {
  return store->RangeMillion(x, x + 9999, out);
}

util::Status GroupLookup1N(HyperStore* store, NodeRef node,
                           std::vector<NodeRef>* out) {
  return store->Children(node, out);
}

util::Status GroupLookupMN(HyperStore* store, NodeRef node,
                           std::vector<NodeRef>* out) {
  return store->Parts(node, out);
}

util::Status GroupLookupMNAtt(HyperStore* store, NodeRef node,
                              std::vector<NodeRef>* out) {
  out->clear();
  std::vector<RefEdge> edges;
  HM_RETURN_IF_ERROR(store->RefsTo(node, &edges));
  for (const RefEdge& edge : edges) out->push_back(edge.node);
  return util::Status::Ok();
}

util::Result<NodeRef> RefLookup1N(HyperStore* store, NodeRef node) {
  return store->Parent(node);
}

util::Status RefLookupMN(HyperStore* store, NodeRef node,
                         std::vector<NodeRef>* out) {
  return store->PartOf(node, out);
}

util::Status RefLookupMNAtt(HyperStore* store, NodeRef node,
                            std::vector<NodeRef>* out) {
  out->clear();
  std::vector<RefEdge> edges;
  HM_RETURN_IF_ERROR(store->RefsFrom(node, &edges));
  for (const RefEdge& edge : edges) out->push_back(edge.node);
  return util::Status::Ok();
}

util::Result<uint64_t> SeqScan(HyperStore* store,
                               std::span<const NodeRef> nodes) {
  // "the ten-attribute would be retrieved and assigned to a variable
  // for each node sequentially" — read and discard.
  std::vector<int64_t> values;
  if (TraversalCapable* trav = AsTraversal(store)) {
    HM_RETURN_IF_ERROR(trav->BulkGetAttr(nodes, Attr::kTen, &values));
  } else {
    HM_RETURN_IF_ERROR(
        FetchFor(store).get()->GetAttrsMulti(nodes, Attr::kTen, &values));
  }
  volatile int64_t sink = 0;
  for (int64_t ten : values) sink = ten;
  (void)sink;
  return static_cast<uint64_t>(nodes.size());
}

util::Status Closure1N(HyperStore* store, NodeRef start,
                       std::vector<NodeRef>* out) {
  if (TraversalCapable* trav = AsTraversal(store)) {
    return trav->TravClosure1N(start, out);
  }
  FetchFor fetch(store);
  return traversal::Closure1N(fetch.get(), start, out);
}

util::Status ClosureMN(HyperStore* store, NodeRef start,
                       std::vector<NodeRef>* out) {
  if (TraversalCapable* trav = AsTraversal(store)) {
    return trav->TravClosureMN(start, out);
  }
  FetchFor fetch(store);
  return traversal::ClosureMN(fetch.get(), start, out);
}

util::Status ClosureMNAtt(HyperStore* store, NodeRef start, int depth,
                          std::vector<NodeRef>* out) {
  if (TraversalCapable* trav = AsTraversal(store)) {
    return trav->TravClosureMNAtt(start, depth, out);
  }
  FetchFor fetch(store);
  return traversal::ClosureMNAtt(fetch.get(), start, depth, out);
}

util::Result<int64_t> Closure1NAttSum(HyperStore* store, NodeRef start,
                                      uint64_t* visited) {
  if (TraversalCapable* trav = AsTraversal(store)) {
    return trav->TravClosure1NAttSum(start, visited);
  }
  FetchFor fetch(store);
  return traversal::Closure1NAttSum(fetch.get(), start, visited);
}

util::Result<uint64_t> Closure1NAttSet(HyperStore* store, NodeRef start) {
  if (TraversalCapable* trav = AsTraversal(store)) {
    return trav->TravClosure1NAttSet(start);
  }
  FetchFor fetch(store);
  return traversal::Closure1NAttSet(fetch.get(), start);
}

util::Status Closure1NPred(HyperStore* store, NodeRef start, int64_t x,
                           std::vector<NodeRef>* out) {
  if (TraversalCapable* trav = AsTraversal(store)) {
    return trav->TravClosure1NPred(start, x, x + 9999, out);
  }
  FetchFor fetch(store);
  return traversal::Closure1NPred(fetch.get(), start, x, x + 9999, out);
}

util::Status ClosureMNAttLinkSum(HyperStore* store, NodeRef start, int depth,
                                 std::vector<NodeDistance>* out) {
  if (TraversalCapable* trav = AsTraversal(store)) {
    return trav->TravClosureMNAttLinkSum(start, depth, out);
  }
  FetchFor fetch(store);
  return traversal::ClosureMNAttLinkSum(fetch.get(), start, depth, out);
}

util::Result<uint64_t> TextNodeEdit(HyperStore* store, NodeRef text_node,
                                    std::string_view from,
                                    std::string_view to) {
  HM_ASSIGN_OR_RETURN(std::string text, store->GetText(text_node));
  uint64_t replaced = util::ReplaceAll(&text, from, to);
  HM_RETURN_IF_ERROR(store->SetText(text_node, text));
  return replaced;
}

util::Status FormNodeEdit(HyperStore* store, NodeRef form_node, uint32_t x,
                          uint32_t y, uint32_t width, uint32_t height) {
  HM_ASSIGN_OR_RETURN(util::Bitmap form, store->GetForm(form_node));
  // Clamp the rectangle into the bitmap (dims vary 100x100..400x400).
  if (x + width > form.width()) x = form.width() - width;
  if (y + height > form.height()) y = form.height() - height;
  HM_RETURN_IF_ERROR(form.InvertRect(x, y, width, height));
  return store->SetForm(form_node, form);
}

}  // namespace hm::ops
