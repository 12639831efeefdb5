#include "hypermodel/traversal.h"

#include <cstdint>
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
    list.clear();
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

util::Status StoreFetch::SetAttrsMulti(std::span<const NodeRef> nodes,
                                       Attr attr,
                                       std::span<const int64_t> values) {
  if (nodes.size() != values.size()) {
    return util::Status::InvalidArgument(
        "SetAttrsMulti: nodes/values size mismatch");
  }
  for (size_t i = 0; i < nodes.size(); ++i) {
    HM_RETURN_IF_ERROR(store_->SetAttr(nodes[i], attr, values[i]));
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

/// The 1-N engine behind ops 10-13. Fetches the hierarchy below
/// `start` one level per ChildrenMulti, then replays the pre-order
/// walk over the fetched lists. With a `band`, each level's million
/// values are fetched first and nodes inside the band are pruned:
/// they are not listed and their children are never fetched.
util::Status Walk1N(FrontierFetch* fetch, NodeRef start, const Band* band,
                    std::vector<NodeRef>* out) {
  constexpr uint32_t kPruned = UINT32_MAX;
  struct Level {
    std::vector<NodeRef> nodes;
    /// With a band: rank[i] numbers node i among the level's kept
    /// nodes, or is kPruned. Without one every node is kept, rank i.
    std::vector<uint32_t> rank;
    /// One list per kept node, in rank order; concatenated they are
    /// the next level's nodes (its items move there, only the list
    /// bounds stay).
    RefLists children;
  };
  std::vector<Level> levels;
  std::vector<NodeRef> frontier{start};
  std::vector<int64_t> millions;
  std::vector<NodeRef> kept;
  size_t total = 0;
  while (!frontier.empty()) {
    Level& level = levels.emplace_back();
    level.nodes = std::move(frontier);
    std::span<const NodeRef> parents = level.nodes;
    if (band != nullptr) {
      HM_RETURN_IF_ERROR(
          fetch->GetAttrsMulti(level.nodes, Attr::kMillion, &millions));
      kept.clear();
      level.rank.resize(level.nodes.size());
      for (size_t i = 0; i < level.nodes.size(); ++i) {
        if (millions[i] >= band->lo && millions[i] <= band->hi) {
          level.rank[i] = kPruned;
        } else {
          level.rank[i] = static_cast<uint32_t>(kept.size());
          kept.push_back(level.nodes[i]);
        }
      }
      if (kept.empty()) break;
      parents = kept;
    }
    total += parents.size();
    HM_RETURN_IF_ERROR(fetch->ChildrenMulti(parents, &level.children));
    frontier = std::move(level.children.items);
  }

  out->clear();
  out->reserve(total);
  // (depth, index) pairs; children are pushed in reverse so the first
  // child pops first, reproducing the recursive pre-order exactly.
  std::vector<std::pair<size_t, size_t>> stack{{0, 0}};
  while (!stack.empty()) {
    auto [depth, i] = stack.back();
    stack.pop_back();
    const Level& level = levels[depth];
    const size_t r = level.rank.empty() ? i : level.rank[i];
    if (r == kPruned) continue;
    out->push_back(level.nodes[i]);
    if (r >= level.children.size()) continue;  // the walk stopped here
    for (size_t j = level.children.ends[r]; j > level.children.Begin(r);
         --j) {
      stack.emplace_back(depth + 1, j - 1);
    }
  }
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
  return Walk1N(fetch, start, nullptr, out);
}

util::Result<int64_t> Closure1NAttSum(FrontierFetch* fetch, NodeRef start,
                                      uint64_t* visited) {
  std::vector<NodeRef> nodes;
  HM_RETURN_IF_ERROR(Walk1N(fetch, start, nullptr, &nodes));
  std::vector<int64_t> values;
  HM_RETURN_IF_ERROR(fetch->GetAttrsMulti(nodes, Attr::kHundred, &values));
  int64_t sum = 0;
  for (int64_t value : values) sum += value;
  if (visited != nullptr) *visited = nodes.size();
  return sum;
}

util::Result<uint64_t> Closure1NAttSet(FrontierFetch* fetch, NodeRef start) {
  std::vector<NodeRef> nodes;
  HM_RETURN_IF_ERROR(Walk1N(fetch, start, nullptr, &nodes));
  std::vector<int64_t> values;
  HM_RETURN_IF_ERROR(fetch->GetAttrsMulti(nodes, Attr::kHundred, &values));
  for (int64_t& value : values) value = 99 - value;
  HM_RETURN_IF_ERROR(fetch->SetAttrsMulti(nodes, Attr::kHundred, values));
  return nodes.size();
}

util::Status Closure1NPred(FrontierFetch* fetch, NodeRef start, int64_t lo,
                           int64_t hi, std::vector<NodeRef>* out) {
  const Band band{lo, hi};
  return Walk1N(fetch, start, &band, out);
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
