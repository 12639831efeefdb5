#include "hypermodel/traversal.h"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>

namespace hm {

namespace {

/// One store call per node, each list appended as it arrives.
template <typename T, typename Read>
util::Status LoopLists(std::span<const NodeRef> nodes, FlatLists<T>* out,
                       Read read) {
  out->clear();
  std::vector<T> list;
  for (NodeRef node : nodes) {
    HM_RETURN_IF_ERROR(read(node, &list));
    out->Append(list);
  }
  return util::Status::Ok();
}

}  // namespace

util::Status StoreFetch::ChildrenMulti(std::span<const NodeRef> nodes,
                                       RefLists* out) {
  return LoopLists(nodes, out, [this](NodeRef node, std::vector<NodeRef>* l) {
    return store_->Children(node, l);
  });
}

util::Status StoreFetch::PartsMulti(std::span<const NodeRef> nodes,
                                    RefLists* out) {
  return LoopLists(nodes, out, [this](NodeRef node, std::vector<NodeRef>* l) {
    return store_->Parts(node, l);
  });
}

util::Status StoreFetch::RefsToMulti(std::span<const NodeRef> nodes,
                                     EdgeLists* out) {
  return LoopLists(nodes, out, [this](NodeRef node, std::vector<RefEdge>* l) {
    return store_->RefsTo(node, l);
  });
}

util::Status StoreFetch::ChildrenAttrsMulti(std::span<const NodeRef> nodes,
                                            Attr attr, RefLists* children,
                                            std::vector<int64_t>* values) {
  children->clear();
  values->clear();
  values->reserve(nodes.size());
  std::vector<NodeRef> list;
  for (NodeRef node : nodes) {
    int64_t value = 0;
    HM_RETURN_IF_ERROR(store_->ChildrenAndAttr(node, attr, &list, &value));
    children->Append(list);
    values->push_back(value);
  }
  return util::Status::Ok();
}

util::Status StoreFetch::GetAttrsMulti(std::span<const NodeRef> nodes,
                                       Attr attr,
                                       std::vector<int64_t>* values) {
  values->clear();
  values->reserve(nodes.size());
  for (NodeRef node : nodes) {
    HM_ASSIGN_OR_RETURN(int64_t value, store_->GetAttr(node, attr));
    values->push_back(value);
  }
  return util::Status::Ok();
}

util::Status CheckPositional(std::string_view method, size_t n,
                             std::initializer_list<size_t> sizes) {
  for (size_t size : sizes) {
    if (size != n) {
      return util::Status::InvalidArgument(std::string(method) +
                                           ": input spans differ in size");
    }
  }
  return util::Status::Ok();
}

util::Status StoreFetch::SetAttrsMulti(std::span<const NodeRef> nodes,
                                       Attr attr,
                                       std::span<const int64_t> values) {
  HM_RETURN_IF_ERROR(
      CheckPositional("SetAttrsMulti", nodes.size(), {values.size()}));
  for (size_t i = 0; i < nodes.size(); ++i) {
    HM_RETURN_IF_ERROR(store_->SetAttr(nodes[i], attr, values[i]));
  }
  return util::Status::Ok();
}

util::Result<NodeRef> FrontierFetch::CreateOne(const NodeAttrs& attrs,
                                               NodeRef near) {
  const std::string_view no_contents;
  std::vector<NodeRef> refs;
  HM_RETURN_IF_ERROR(
      CreateNodesMulti({&attrs, 1}, {&near, 1}, {&no_contents, 1}, &refs));
  return refs.front();
}

util::Status StoreFetch::CreateNodesMulti(
    std::span<const NodeAttrs> attrs, std::span<const NodeRef> near,
    std::span<const std::string_view> contents, std::vector<NodeRef>* refs) {
  HM_RETURN_IF_ERROR(CheckPositional("CreateNodesMulti", attrs.size(),
                                     {near.size(), contents.size()}));
  refs->clear();
  refs->reserve(attrs.size());
  for (size_t i = 0; i < attrs.size(); ++i) {
    HM_ASSIGN_OR_RETURN(NodeRef node, store_->CreateNode(attrs[i], near[i]));
    refs->push_back(node);
    if (contents[i].empty()) continue;
    if (attrs[i].kind == NodeKind::kText) {
      HM_RETURN_IF_ERROR(store_->SetText(node, contents[i]));
    } else if (attrs[i].kind == NodeKind::kForm) {
      HM_ASSIGN_OR_RETURN(util::Bitmap form,
                          util::Bitmap::Deserialize(contents[i]));
      HM_RETURN_IF_ERROR(store_->SetForm(node, form));
    } else {
      HM_RETURN_IF_ERROR(store_->SetContents(node, contents[i]));
    }
  }
  return util::Status::Ok();
}

util::Status StoreFetch::AddChildrenMulti(std::span<const NodeRef> parents,
                                          std::span<const NodeRef> children) {
  HM_RETURN_IF_ERROR(CheckPositional("AddChildrenMulti", parents.size(),
                                     {children.size()}));
  for (size_t i = 0; i < parents.size(); ++i) {
    HM_RETURN_IF_ERROR(store_->AddChild(parents[i], children[i]));
  }
  return util::Status::Ok();
}

util::Status StoreFetch::AddPartsMulti(std::span<const NodeRef> owners,
                                       std::span<const NodeRef> parts) {
  HM_RETURN_IF_ERROR(
      CheckPositional("AddPartsMulti", owners.size(), {parts.size()}));
  for (size_t i = 0; i < owners.size(); ++i) {
    HM_RETURN_IF_ERROR(store_->AddPart(owners[i], parts[i]));
  }
  return util::Status::Ok();
}

util::Status StoreFetch::AddRefsMulti(std::span<const NodeRef> from,
                                      std::span<const NodeRef> to,
                                      std::span<const int64_t> offset_from,
                                      std::span<const int64_t> offset_to) {
  HM_RETURN_IF_ERROR(
      CheckPositional("AddRefsMulti", from.size(),
                      {to.size(), offset_from.size(), offset_to.size()}));
  for (size_t i = 0; i < from.size(); ++i) {
    HM_RETURN_IF_ERROR(
        store_->AddRef(from[i], to[i], offset_from[i], offset_to[i]));
  }
  return util::Status::Ok();
}

namespace traversal {

namespace {

/// Closed million band of op /*13*/.
struct Band {
  int64_t lo;
  int64_t hi;
};

/// One tier of a fetched 1-N hierarchy.
struct Level {
  std::vector<NodeRef> nodes;
  /// With an attribute: values[i] is node i's.
  std::vector<int64_t> values;
  /// With a band: pruned[i] says node i is inside it. Empty otherwise.
  std::vector<bool> pruned;
  /// List i is node i's children, emptied when node i is pruned;
  /// concatenated they are the next tier's nodes (its items move there,
  /// only the list bounds stay).
  RefLists children;
};

/// Marks the tier's nodes inside `band` and empties their lists in
/// place, moving each kept list down over the dropped ones.
void Prune(const Band& band, Level* level) {
  RefLists& lists = level->children;
  level->pruned.assign(level->nodes.size(), false);
  size_t begin = 0;  // node i's list before the move
  size_t kept = 0;   // items kept so far
  for (size_t i = 0; i < level->nodes.size(); ++i) {
    const size_t end = lists.ends[i];
    if (level->values[i] >= band.lo && level->values[i] <= band.hi) {
      level->pruned[i] = true;
    } else {
      if (kept != begin) {
        std::copy(lists.items.begin() + begin, lists.items.begin() + end,
                  lists.items.begin() + kept);
      }
      kept += end - begin;
    }
    lists.ends[i] = kept;
    begin = end;
  }
  lists.items.resize(kept);
}

/// The fetch half of the 1-N engine behind ops 10-13: the hierarchy
/// below `start`, one fetch per tier. With an attribute that fetch is
/// ChildrenAttrsMulti, which brings every node's value with its list;
/// else ChildrenMulti. With a `band` (the attribute is then kMillion)
/// nodes inside it are pruned: their lists come with their values but
/// are never followed.
util::Status FetchTiers(FrontierFetch* fetch, NodeRef start,
                        std::optional<Attr> attr, const Band* band,
                        std::vector<Level>* levels) {
  std::vector<NodeRef> frontier{start};
  while (!frontier.empty()) {
    Level& level = levels->emplace_back();
    level.nodes = std::move(frontier);
    if (attr.has_value()) {
      HM_RETURN_IF_ERROR(fetch->ChildrenAttrsMulti(
          level.nodes, *attr, &level.children, &level.values));
    } else {
      HM_RETURN_IF_ERROR(fetch->ChildrenMulti(level.nodes, &level.children));
    }
    if (band != nullptr) Prune(*band, &level);
    frontier = std::move(level.children.items);
  }
  return util::Status::Ok();
}

/// The replay half: the pre-order walk over fetched tiers, children
/// order preserved, pruned nodes skipped with their subtrees. `values`
/// (may be null) receives each listed node's value, in the same order.
void Replay(const std::vector<Level>& levels, std::vector<NodeRef>* out,
            std::vector<int64_t>* values) {
  size_t total = 0;
  for (const Level& level : levels) total += level.nodes.size();
  out->clear();
  out->reserve(total);
  if (values != nullptr) {
    values->clear();
    values->reserve(total);
  }
  // (depth, index) pairs; children are pushed in reverse so the first
  // child pops first, reproducing the recursive pre-order exactly.
  std::vector<std::pair<size_t, size_t>> stack{{0, 0}};
  while (!stack.empty()) {
    auto [depth, i] = stack.back();
    stack.pop_back();
    const Level& level = levels[depth];
    if (!level.pruned.empty() && level.pruned[i]) continue;
    out->push_back(level.nodes[i]);
    if (values != nullptr) values->push_back(level.values[i]);
    for (size_t j = level.children.ends[i]; j > level.children.Begin(i);
         --j) {
      stack.emplace_back(depth + 1, j - 1);
    }
  }
}

/// Both halves: the listed nodes in pre-order and, with an attribute,
/// their values in `values`.
util::Status Walk1N(FrontierFetch* fetch, NodeRef start,
                    std::optional<Attr> attr, const Band* band,
                    std::vector<NodeRef>* out, std::vector<int64_t>* values) {
  std::vector<Level> levels;
  HM_RETURN_IF_ERROR(FetchTiers(fetch, start, attr, band, &levels));
  Replay(levels, out, values);
  return util::Status::Ok();
}

/// The refTo engine behind ops 15 and 18: breadth-first to `depth`
/// levels, one RefsToMulti per level, first encounter wins.
util::Status WalkRefs(FrontierFetch* fetch, NodeRef start, int depth,
                      std::vector<NodeDistance>* out) {
  out->clear();
  out->push_back({start, 0});
  std::unordered_set<NodeRef> visited{start};
  std::vector<NodeRef> frontier{start};
  EdgeLists edges;
  // The current frontier is (*out)[level_begin, out->size()).
  size_t level_begin = 0;
  for (int level = 0; level < depth && !frontier.empty(); ++level) {
    HM_RETURN_IF_ERROR(fetch->RefsToMulti(frontier, &edges));
    const size_t next_begin = out->size();
    for (size_t i = 0; i < frontier.size(); ++i) {
      const int64_t distance = (*out)[level_begin + i].distance;
      for (const RefEdge& edge : edges[i]) {
        if (visited.insert(edge.node).second) {
          out->push_back({edge.node, distance + edge.offset_to});
        }
      }
    }
    level_begin = next_begin;
    frontier.clear();
    for (size_t i = level_begin; i < out->size(); ++i) {
      frontier.push_back((*out)[i].node);
    }
  }
  return util::Status::Ok();
}

}  // namespace

util::Status Closure1N(FrontierFetch* fetch, NodeRef start,
                       std::vector<NodeRef>* out) {
  return Walk1N(fetch, start, std::nullopt, nullptr, out, nullptr);
}

util::Result<int64_t> Closure1NAttSum(FrontierFetch* fetch, NodeRef start,
                                      uint64_t* visited) {
  // Order does not change a sum: no replay, each tier's values added
  // as fetched.
  std::vector<Level> levels;
  HM_RETURN_IF_ERROR(
      FetchTiers(fetch, start, Attr::kHundred, nullptr, &levels));
  int64_t sum = 0;
  uint64_t nodes = 0;
  for (const Level& level : levels) {
    for (int64_t value : level.values) sum += value;
    nodes += level.nodes.size();
  }
  if (visited != nullptr) *visited = nodes;
  return sum;
}

util::Result<uint64_t> Closure1NAttSet(FrontierFetch* fetch, NodeRef start) {
  std::vector<NodeRef> nodes;
  std::vector<int64_t> values;
  HM_RETURN_IF_ERROR(
      Walk1N(fetch, start, Attr::kHundred, nullptr, &nodes, &values));
  for (int64_t& value : values) value = 99 - value;
  HM_RETURN_IF_ERROR(fetch->SetAttrsMulti(nodes, Attr::kHundred, values));
  return nodes.size();
}

util::Status Closure1NPred(FrontierFetch* fetch, NodeRef start, int64_t lo,
                           int64_t hi, std::vector<NodeRef>* out) {
  const Band band{lo, hi};
  return Walk1N(fetch, start, Attr::kMillion, &band, out, nullptr);
}

util::Status ClosureMN(FrontierFetch* fetch, NodeRef start,
                       std::vector<NodeRef>* out) {
  // Fetch the parts list of every reachable node once, level by level,
  // numbering nodes in discovery order; then replay the DFS over those
  // numbers: shared sub-parts are listed at their first encounter only.
  std::unordered_map<NodeRef, uint32_t> number{{start, 0}};
  std::vector<NodeRef> nodes{start};  // number -> ref
  std::vector<uint32_t> parts;        // every fetched list, as numbers
  std::vector<size_t> parts_end;      // number -> end of its list
  RefLists lists;
  for (size_t level_begin = 0; level_begin < nodes.size();) {
    const size_t level_end = nodes.size();
    HM_RETURN_IF_ERROR(fetch->PartsMulti(
        std::span<const NodeRef>(nodes).subspan(level_begin,
                                                level_end - level_begin),
        &lists));
    for (size_t i = 0; i < lists.size(); ++i) {
      for (NodeRef part : lists[i]) {
        auto [it, fresh] =
            number.try_emplace(part, static_cast<uint32_t>(nodes.size()));
        if (fresh) nodes.push_back(part);
        parts.push_back(it->second);
      }
      parts_end.push_back(parts.size());
    }
    level_begin = level_end;
  }

  out->clear();
  out->reserve(nodes.size());
  std::vector<bool> listed(nodes.size());
  std::vector<uint32_t> stack{0};
  while (!stack.empty()) {
    const uint32_t n = stack.back();
    stack.pop_back();
    if (listed[n]) continue;
    listed[n] = true;
    out->push_back(nodes[n]);
    // Reverse so the first part is popped (and listed) first.
    for (size_t j = parts_end[n]; j > (n == 0 ? 0 : parts_end[n - 1]); --j) {
      if (!listed[parts[j - 1]]) stack.push_back(parts[j - 1]);
    }
  }
  return util::Status::Ok();
}

util::Status ClosureMNAtt(FrontierFetch* fetch, NodeRef start, int depth,
                          std::vector<NodeRef>* out) {
  std::vector<NodeDistance> reached;
  HM_RETURN_IF_ERROR(WalkRefs(fetch, start, depth, &reached));
  out->clear();
  out->reserve(reached.size());
  for (const NodeDistance& d : reached) out->push_back(d.node);
  return util::Status::Ok();
}

util::Status ClosureMNAttLinkSum(FrontierFetch* fetch, NodeRef start,
                                 int depth, std::vector<NodeDistance>* out) {
  return WalkRefs(fetch, start, depth, out);
}

}  // namespace traversal
}  // namespace hm
