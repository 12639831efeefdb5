#include "hypermodel/backends/sharded_store.h"

#include <algorithm>
#include <utility>

#include "cluster/shard_local_store.h"
#include "cluster/shard_map.h"
#include "hypermodel/backends/mem_store.h"
#include "server/server.h"

namespace hm::backends {

namespace calls = server::calls;

namespace {

const util::Status& StatusOf(const util::Status& status) { return status; }
template <typename T>
const util::Status& StatusOf(const util::Result<T>& result) {
  return result.status();
}

/// in[i] for each i of `picks`, in order: one shard's slice of a fused
/// write's positional input.
template <typename T>
std::vector<T> Pick(std::span<const T> in, std::span<const size_t> picks) {
  std::vector<T> out;
  out.reserve(picks.size());
  for (size_t i : picks) out.push_back(in[i]);
  return out;
}

/// Fresh shard-k-of-n backend for the loopback fleet (also its
/// kReset rebuild path).
util::Result<std::unique_ptr<HyperStore>> MakeLoopbackShard(
    uint32_t shard_id, uint32_t shard_count) {
  auto wrapped = cluster::ShardLocalStore::Wrap(
      {shard_id, shard_count}, std::make_unique<MemStore>());
  if (!wrapped.ok()) return wrapped.status();
  return std::unique_ptr<HyperStore>(std::move(*wrapped));
}

}  // namespace

ShardedStore::ShardedStore(std::vector<std::unique_ptr<RemoteStore>> shards)
    : shards_(std::move(shards)) {
  auto& registry = telemetry::Registry::Global();
  rpcs_.reserve(shards_.size());
  for (size_t k = 0; k < shards_.size(); ++k) {
    rpcs_.push_back(registry.GetCounter("cluster.shard" +
                                        std::to_string(k) + ".rpcs"));
  }
  fanout_ = registry.GetHistogram("cluster.fanout");
  rounds_ = registry.GetCounter("cluster.rounds");
  cross_edges_ = registry.GetCounter("cluster.cross_shard_edges");
}

util::Result<std::unique_ptr<ShardedStore>> ShardedStore::Connect(
    const std::string& addr_list, RemoteOptions base_options) {
  HM_ASSIGN_OR_RETURN(std::vector<std::string> addrs,
                      cluster::SplitShardAddrs(addr_list));
  std::vector<std::unique_ptr<RemoteStore>> shards;
  shards.reserve(addrs.size());
  for (size_t k = 0; k < addrs.size(); ++k) {
    HM_ASSIGN_OR_RETURN(RemoteOptions parsed, ParseRemoteAddr(addrs[k]));
    RemoteOptions options = base_options;
    options.host = parsed.host;
    options.port = parsed.port;
    // Name the member in every transport error this client surfaces,
    // so losing one shard reads "shard 2 at host:port ..." instead of
    // an anonymous "remote ...".
    options.peer_label = "shard " + std::to_string(k) + " at " + addrs[k];
    HM_ASSIGN_OR_RETURN(std::unique_ptr<RemoteStore> client,
                        RemoteStore::Connect(options));
    shards.push_back(std::move(client));
  }
  std::unique_ptr<ShardedStore> store(new ShardedStore(std::move(shards)));
  std::vector<server::ShardPlacement> placements;
  HM_RETURN_IF_ERROR(store->Broadcast<calls::ShardInfo>(&placements, nullptr));
  for (size_t k = 0; k < addrs.size(); ++k) {
    if (placements[k].shard_id != k ||
        placements[k].shard_count != addrs.size()) {
      return util::Status::InvalidArgument(
          "mis-wired fleet: " + addrs[k] + " claims shard " +
          std::to_string(placements[k].shard_id) + "/" +
          std::to_string(placements[k].shard_count) + ", expected " +
          std::to_string(k) + "/" + std::to_string(addrs.size()));
    }
  }
  return store;
}

util::Result<std::unique_ptr<ShardedStore>> ShardedStore::Loopback(
    uint32_t shard_count, RemoteMode mode, RemoteOptions client_options) {
  if (shard_count < 1 || shard_count > cluster::kMaxShards) {
    return util::Status::InvalidArgument("bad loopback shard count " +
                                         std::to_string(shard_count));
  }
  std::vector<std::unique_ptr<RemoteStore>> shards;
  shards.reserve(shard_count);
  for (uint32_t k = 0; k < shard_count; ++k) {
    HM_ASSIGN_OR_RETURN(std::unique_ptr<HyperStore> backend,
                        MakeLoopbackShard(k, shard_count));
    server::ServerOptions server_options;
    server_options.shard_id = k;
    server_options.shard_count = shard_count;
    server_options.reset_factory = [k, shard_count] {
      return MakeLoopbackShard(k, shard_count);
    };
    RemoteOptions labeled = client_options;
    labeled.peer_label = "shard " + std::to_string(k) + " (loopback)";
    HM_ASSIGN_OR_RETURN(
        std::unique_ptr<RemoteStore> client,
        RemoteStore::Loopback(std::move(backend), server_options, mode,
                              labeled));
    shards.push_back(std::move(client));
  }
  return std::unique_ptr<ShardedStore>(
      new ShardedStore(std::move(shards)));
}

RemoteStore* ShardedStore::At(size_t k) {
  rpcs_[k]->Add();
  return shards_[k].get();
}

util::Status ShardedStore::OwnerOf(NodeRef node, size_t* shard) const {
  size_t k = cluster::ShardOf(node);
  if (node == kInvalidNode || k >= shards_.size()) {
    return util::Status::NotFound("no shard owns ref " +
                                  std::to_string(node));
  }
  *shard = k;
  return util::Status::Ok();
}

util::Status ShardedStore::Round(std::span<Frame* const> frames,
                                 std::vector<util::Status>* statuses) {
  size_t fanout = 0;
  for (size_t k = 0; k < shards_.size(); ++k) {
    if (frames[k] == nullptr) continue;
    ++fanout;
    rpcs_[k]->Add();
  }
  rounds_->Add();
  fanout_->Record(fanout);
  std::vector<util::Status> local;
  if (statuses == nullptr) statuses = &local;
  FanOut(shards_, frames, statuses);
  for (const util::Status& status : *statuses) {
    if (!status.ok()) return status;
  }
  return util::Status::Ok();
}

util::Status ShardedStore::Rounds(std::vector<Frames>* frames) {
  size_t rounds = 0;
  for (const Frames& mine : *frames) rounds = std::max(rounds, mine.size());
  std::vector<Frame*> round(shards_.size());
  for (size_t r = 0; r < rounds; ++r) {
    for (size_t k = 0; k < shards_.size(); ++k) {
      round[k] = r < (*frames)[k].size() ? &(*frames)[k][r] : nullptr;
    }
    HM_RETURN_IF_ERROR(Round(round));
  }
  return util::Status::Ok();
}

template <typename C, typename... A>
util::Status ShardedStore::Broadcast(std::vector<typename C::Reply>* replies,
                                     std::vector<util::Status>* statuses,
                                     const A&... args) {
  replies->assign(shards_.size(), {});
  Frames frames;
  frames.reserve(shards_.size());
  std::vector<Frame*> round;
  for (size_t k = 0; k < shards_.size(); ++k) {
    frames.push_back(CallFrame<C>(&(*replies)[k], args...));
    round.push_back(&frames.back());
  }
  return Round(round, statuses);
}

template <typename C>
util::Status ShardedStore::Broadcast() {
  std::vector<typename C::Reply> none;
  return Broadcast<C>(&none, nullptr);
}

util::Status ShardedStore::ResetServer() {
  HM_RETURN_IF_ERROR(Broadcast<calls::Reset>());
  root_ = kInvalidNode;
  return util::Status::Ok();
}

util::Status ShardedStore::Begin() { return Broadcast<calls::Begin>(); }

util::Status ShardedStore::Commit() {
  // One commit per shard, all sent at once — §14's explicit non-goal is
  // atomicity across shards: a failure on one shard can leave the
  // others committed.
  return Broadcast<calls::Commit>();
}

util::Status ShardedStore::Abort() { return Broadcast<calls::Abort>(); }

util::Status ShardedStore::CloseReopen() {
  return Broadcast<calls::CloseReopen>();
}

util::Status ShardedStore::PlaceOf(const NodeAttrs& attrs, NodeRef near,
                                   size_t* shard) const {
  if (near == kInvalidNode) {
    *shard = 0;  // the root (and rootless creations) anchor shard 0
    return util::Status::Ok();
  }
  if (near == root_) {
    // Children of the root are the top-level subtrees — the placement
    // unit. Spread them by uniqueId so the fleet shares the load.
    *shard = static_cast<uint64_t>(attrs.unique_id) % shards_.size();
    return util::Status::Ok();
  }
  return OwnerOf(near, shard);
}

util::Result<NodeRef> ShardedStore::CreateNode(const NodeAttrs& attrs,
                                               NodeRef near) {
  return CreateOne(attrs, near);
}

util::Status ShardedStore::SetText(NodeRef node, std::string_view text) {
  size_t k = 0;
  HM_RETURN_IF_ERROR(OwnerOf(node, &k));
  return At(k)->SetText(node, text);
}

util::Status ShardedStore::SetForm(NodeRef node, const util::Bitmap& form) {
  size_t k = 0;
  HM_RETURN_IF_ERROR(OwnerOf(node, &k));
  return At(k)->SetForm(node, form);
}

util::Status ShardedStore::AddChild(NodeRef parent, NodeRef child) {
  return AddChildrenMulti({&parent, 1}, {&child, 1});
}

util::Status ShardedStore::AddPart(NodeRef owner, NodeRef part) {
  return AddPartsMulti({&owner, 1}, {&part, 1});
}

util::Status ShardedStore::AddRef(NodeRef from, NodeRef to,
                                  int64_t offset_from, int64_t offset_to) {
  return AddRefsMulti({&from, 1}, {&to, 1}, {&offset_from, 1},
                      {&offset_to, 1});
}

util::Result<int64_t> ShardedStore::GetAttr(NodeRef node, Attr attr) {
  size_t k = 0;
  HM_RETURN_IF_ERROR(OwnerOf(node, &k));
  return At(k)->GetAttr(node, attr);
}

util::Status ShardedStore::SetAttr(NodeRef node, Attr attr, int64_t value) {
  size_t k = 0;
  HM_RETURN_IF_ERROR(OwnerOf(node, &k));
  return At(k)->SetAttr(node, attr, value);
}

util::Result<NodeKind> ShardedStore::GetKind(NodeRef node) {
  size_t k = 0;
  HM_RETURN_IF_ERROR(OwnerOf(node, &k));
  return At(k)->GetKind(node);
}

util::Result<std::string> ShardedStore::GetText(NodeRef node) {
  size_t k = 0;
  HM_RETURN_IF_ERROR(OwnerOf(node, &k));
  return At(k)->GetText(node);
}

util::Result<util::Bitmap> ShardedStore::GetForm(NodeRef node) {
  size_t k = 0;
  HM_RETURN_IF_ERROR(OwnerOf(node, &k));
  return At(k)->GetForm(node);
}

util::Status ShardedStore::SetContents(NodeRef node, std::string_view data) {
  size_t k = 0;
  HM_RETURN_IF_ERROR(OwnerOf(node, &k));
  return At(k)->SetContents(node, data);
}

util::Result<std::string> ShardedStore::GetContents(NodeRef node) {
  size_t k = 0;
  HM_RETURN_IF_ERROR(OwnerOf(node, &k));
  return At(k)->GetContents(node);
}

util::Result<NodeRef> ShardedStore::LookupUnique(int64_t unique_id) {
  // uniqueIds carry no placement information, so probe every shard at
  // once; the first hit in shard order wins (uniqueIds are globally
  // unique — each shard enforces them locally and the generator never
  // reuses one across shards), and an earlier shard's error other than
  // NotFound is the answer.
  std::vector<uint64_t> found;
  std::vector<util::Status> statuses;
  (void)Broadcast<calls::LookupUnique>(&found, &statuses, unique_id);
  for (size_t k = 0; k < shards_.size(); ++k) {
    if (statuses[k].ok()) return NodeRef{found[k]};
    if (!statuses[k].IsNotFound()) return statuses[k];
  }
  return util::Status::NotFound("no node with uniqueId " +
                                std::to_string(unique_id));
}

util::Status ShardedStore::FanRange(bool hundred, int64_t lo, int64_t hi,
                                    std::vector<NodeRef>* out) {
  // Each shard scans its own index; the client merges in canonical
  // (value, uniqueId) order. This is the documented cluster scan
  // order: within one value, single-store backends surface their own
  // insertion order, which is not reconstructible across shards. Three
  // rounds: the scans, then every shard's values, then its uniqueIds.
  std::vector<std::vector<NodeRef>> refs;
  HM_RETURN_IF_ERROR(
      hundred ? Broadcast<calls::RangeHundred>(&refs, nullptr, lo, hi)
              : Broadcast<calls::RangeMillion>(&refs, nullptr, lo, hi));
  std::vector<std::vector<int64_t>> values(shards_.size());
  std::vector<std::vector<int64_t>> uids(shards_.size());
  HM_RETURN_IF_ERROR(
      Scatter(refs, [&](size_t k, std::span<const NodeRef> mine) {
        return shards_[k]->GetAttrsFrames(
            mine, hundred ? Attr::kHundred : Attr::kMillion, &values[k]);
      }));
  HM_RETURN_IF_ERROR(
      Scatter(refs, [&](size_t k, std::span<const NodeRef> mine) {
        return shards_[k]->GetAttrsFrames(mine, Attr::kUniqueId, &uids[k]);
      }));
  struct Hit {
    NodeRef ref;
    int64_t value;
    int64_t uid;
  };
  std::vector<Hit> hits;
  for (size_t k = 0; k < shards_.size(); ++k) {
    for (size_t i = 0; i < refs[k].size(); ++i) {
      hits.push_back({refs[k][i], values[k][i], uids[k][i]});
    }
  }
  std::sort(hits.begin(), hits.end(), [](const Hit& a, const Hit& b) {
    return a.value != b.value ? a.value < b.value : a.uid < b.uid;
  });
  out->clear();
  out->reserve(hits.size());
  for (const Hit& hit : hits) out->push_back(hit.ref);
  return util::Status::Ok();
}

util::Status ShardedStore::RangeHundred(int64_t lo, int64_t hi,
                                        std::vector<NodeRef>* out) {
  if (Single()) return At(0)->RangeHundred(lo, hi, out);
  return FanRange(/*hundred=*/true, lo, hi, out);
}

util::Status ShardedStore::RangeMillion(int64_t lo, int64_t hi,
                                        std::vector<NodeRef>* out) {
  if (Single()) return At(0)->RangeMillion(lo, hi, out);
  return FanRange(/*hundred=*/false, lo, hi, out);
}

util::Status ShardedStore::Children(NodeRef node,
                                    std::vector<NodeRef>* out) {
  size_t k = 0;
  HM_RETURN_IF_ERROR(OwnerOf(node, &k));
  return At(k)->Children(node, out);
}

util::Result<NodeRef> ShardedStore::Parent(NodeRef node) {
  size_t k = 0;
  HM_RETURN_IF_ERROR(OwnerOf(node, &k));
  return At(k)->Parent(node);
}

util::Status ShardedStore::Parts(NodeRef node, std::vector<NodeRef>* out) {
  size_t k = 0;
  HM_RETURN_IF_ERROR(OwnerOf(node, &k));
  return At(k)->Parts(node, out);
}

util::Status ShardedStore::PartOf(NodeRef node, std::vector<NodeRef>* out) {
  size_t k = 0;
  HM_RETURN_IF_ERROR(OwnerOf(node, &k));
  return At(k)->PartOf(node, out);
}

util::Status ShardedStore::RefsTo(NodeRef node, std::vector<RefEdge>* out) {
  size_t k = 0;
  HM_RETURN_IF_ERROR(OwnerOf(node, &k));
  return At(k)->RefsTo(node, out);
}

util::Status ShardedStore::RefsFrom(NodeRef node,
                                    std::vector<RefEdge>* out) {
  size_t k = 0;
  HM_RETURN_IF_ERROR(OwnerOf(node, &k));
  return At(k)->RefsFrom(node, out);
}

util::Result<uint64_t> ShardedStore::StorageBytes() {
  std::vector<uint64_t> bytes;
  HM_RETURN_IF_ERROR(Broadcast<calls::StorageBytes>(&bytes, nullptr));
  uint64_t total = 0;
  for (uint64_t shard_bytes : bytes) total += shard_bytes;
  return total;
}

// --- FrontierFetch ---------------------------------------------------

util::Status ShardedStore::SplitByOwner(std::span<const NodeRef> nodes,
                                        Split* split) const {
  split->nodes.assign(shards_.size(), {});
  split->where.resize(nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    size_t k = 0;
    HM_RETURN_IF_ERROR(OwnerOf(nodes[i], &k));
    split->where[i] = {k, split->nodes[k].size()};
    split->nodes[k].push_back(nodes[i]);
  }
  return util::Status::Ok();
}

template <typename T, typename Build>
util::Status ShardedStore::Scatter(const std::vector<std::vector<T>>& items,
                                   Build build) {
  std::vector<Frames> frames(shards_.size());
  for (size_t k = 0; k < shards_.size(); ++k) {
    if (!items[k].empty()) frames[k] = build(k, std::span<const T>(items[k]));
  }
  return Rounds(&frames);
}

template <typename T>
util::Status ShardedStore::GatherLists(
    std::span<const NodeRef> nodes, FlatLists<T>* out,
    Frames (RemoteStore::*make)(std::span<const NodeRef>, FlatLists<T>*)) {
  Split split;
  HM_RETURN_IF_ERROR(SplitByOwner(nodes, &split));
  std::vector<FlatLists<T>> per(shards_.size());
  HM_RETURN_IF_ERROR(
      Scatter(split.nodes, [&](size_t k, std::span<const NodeRef> mine) {
        return (shards_[k].get()->*make)(mine, &per[k]);
      }));
  out->clear();
  for (auto [k, j] : split.where) out->Append(per[k][j]);
  return util::Status::Ok();
}

util::Status ShardedStore::ChildrenMulti(std::span<const NodeRef> nodes,
                                         RefLists* out) {
  return GatherLists(nodes, out, &RemoteStore::ChildrenFrames);
}

util::Status ShardedStore::PartsMulti(std::span<const NodeRef> nodes,
                                      RefLists* out) {
  return GatherLists(nodes, out, &RemoteStore::PartsFrames);
}

util::Status ShardedStore::RefsToMulti(std::span<const NodeRef> nodes,
                                       EdgeLists* out) {
  return GatherLists(nodes, out, &RemoteStore::RefsToFrames);
}

util::Status ShardedStore::ChildrenAttrsMulti(std::span<const NodeRef> nodes,
                                              Attr attr, RefLists* children,
                                              std::vector<int64_t>* values) {
  Split split;
  HM_RETURN_IF_ERROR(SplitByOwner(nodes, &split));
  std::vector<server::ListsAndValues> per(shards_.size());
  HM_RETURN_IF_ERROR(
      Scatter(split.nodes, [&](size_t k, std::span<const NodeRef> mine) {
        return shards_[k]->ChildrenAttrsFrames(mine, attr, &per[k]);
      }));
  children->clear();
  values->clear();
  values->reserve(nodes.size());
  for (auto [k, j] : split.where) {
    children->Append(per[k].lists[j]);
    values->push_back(per[k].values[j]);
  }
  return util::Status::Ok();
}

util::Status ShardedStore::GetAttrsMulti(std::span<const NodeRef> nodes,
                                         Attr attr,
                                         std::vector<int64_t>* values) {
  Split split;
  HM_RETURN_IF_ERROR(SplitByOwner(nodes, &split));
  std::vector<std::vector<int64_t>> per(shards_.size());
  HM_RETURN_IF_ERROR(
      Scatter(split.nodes, [&](size_t k, std::span<const NodeRef> mine) {
        return shards_[k]->GetAttrsFrames(mine, attr, &per[k]);
      }));
  values->clear();
  values->reserve(nodes.size());
  for (auto [k, j] : split.where) values->push_back(per[k][j]);
  return util::Status::Ok();
}

util::Status ShardedStore::SetAttrsMulti(std::span<const NodeRef> nodes,
                                         Attr attr,
                                         std::span<const int64_t> values) {
  HM_RETURN_IF_ERROR(
      CheckPositional("SetAttrsMulti", nodes.size(), {values.size()}));
  Split split;
  HM_RETURN_IF_ERROR(SplitByOwner(nodes, &split));
  std::vector<std::vector<int64_t>> per(shards_.size());
  for (size_t i = 0; i < values.size(); ++i) {
    per[split.where[i].first].push_back(values[i]);
  }
  return Scatter(split.nodes, [&](size_t k, std::span<const NodeRef> mine) {
    return shards_[k]->SetAttrsFrames(mine, attr, per[k]);
  });
}

// The load writes. Every ordered list a shard keeps — children, parts,
// partOf, refsTo, refsFrom — receives its entries in input order, as
// the serial calls give them. The rounds are not atomic: a failure
// leaves a prefix of each shard's entries written and, on a cross-shard
// edge, possibly one half (DESIGN.md §14).

util::Status ShardedStore::CreateNodesMulti(
    std::span<const NodeAttrs> attrs, std::span<const NodeRef> near,
    std::span<const std::string_view> contents, std::vector<NodeRef>* refs) {
  HM_RETURN_IF_ERROR(CheckPositional("CreateNodesMulti", attrs.size(),
                                     {near.size(), contents.size()}));
  std::vector<std::vector<size_t>> picks(shards_.size());
  for (size_t i = 0; i < attrs.size(); ++i) {
    size_t k = 0;
    HM_RETURN_IF_ERROR(PlaceOf(attrs[i], near[i], &k));
    picks[k].push_back(i);
  }
  std::vector<std::vector<NodeRef>> refs_of(shards_.size());
  HM_RETURN_IF_ERROR(
      Scatter(picks, [&](size_t k, std::span<const size_t> mine) {
        return shards_[k]->CreateNodesFrames(
            Pick(attrs, mine), Pick(near, mine), Pick(contents, mine),
            &refs_of[k]);
      }));
  refs->assign(attrs.size(), kInvalidNode);
  for (size_t k = 0; k < shards_.size(); ++k) {
    for (size_t j = 0; j < picks[k].size(); ++j) {
      (*refs)[picks[k][j]] = refs_of[k][j];
    }
  }
  if (root_ == kInvalidNode && !refs->empty()) root_ = refs->front();
  return util::Status::Ok();
}

template <typename Make>
util::Status ShardedStore::WriteEdges(std::span<const NodeRef> a,
                                      std::span<const NodeRef> b,
                                      bool b_first, Make make) {
  std::vector<std::vector<size_t>> a_side(shards_.size());
  std::vector<std::vector<size_t>> b_side(shards_.size());
  std::vector<std::vector<size_t>>& b_halves = b_first ? b_side : a_side;
  uint64_t cross = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    size_t ak = 0;
    size_t bk = 0;
    HM_RETURN_IF_ERROR(OwnerOf(a[i], &ak));
    HM_RETURN_IF_ERROR(OwnerOf(b[i], &bk));
    a_side[ak].push_back(i);
    if (bk != ak) {
      b_halves[bk].push_back(i);
      ++cross;
    }
  }
  HM_RETURN_IF_ERROR(Scatter(b_side, make));  // empty unless b_first
  HM_RETURN_IF_ERROR(Scatter(a_side, make));
  cross_edges_->Add(cross);
  return util::Status::Ok();
}

util::Status ShardedStore::AddChildrenMulti(std::span<const NodeRef> parents,
                                            std::span<const NodeRef> children) {
  HM_RETURN_IF_ERROR(CheckPositional("AddChildrenMulti", parents.size(),
                                     {children.size()}));
  // The child's shard goes first: it holds the real child node, so its
  // single-parent check is the authoritative one, and a second parent
  // is refused before the parent's shard hears of it. A shard's
  // children lists fill in the second round alone, in input order; the
  // first only sets parents.
  return WriteEdges(parents, children, /*b_first=*/true,
                    [&](size_t k, std::span<const size_t> mine) {
                      return shards_[k]->AddChildrenFrames(
                          Pick(parents, mine), Pick(children, mine));
                    });
}

util::Status ShardedStore::AddPartsMulti(std::span<const NodeRef> owners,
                                         std::span<const NodeRef> parts) {
  HM_RETURN_IF_ERROR(
      CheckPositional("AddPartsMulti", owners.size(), {parts.size()}));
  return WriteEdges(owners, parts, /*b_first=*/false,
                    [&](size_t k, std::span<const size_t> mine) {
                      return shards_[k]->AddPartsFrames(Pick(owners, mine),
                                                        Pick(parts, mine));
                    });
}

util::Status ShardedStore::AddRefsMulti(std::span<const NodeRef> from,
                                        std::span<const NodeRef> to,
                                        std::span<const int64_t> offset_from,
                                        std::span<const int64_t> offset_to) {
  HM_RETURN_IF_ERROR(
      CheckPositional("AddRefsMulti", from.size(),
                      {to.size(), offset_from.size(), offset_to.size()}));
  return WriteEdges(from, to, /*b_first=*/false,
                    [&](size_t k, std::span<const size_t> mine) {
                      return shards_[k]->AddRefsFrames(
                          Pick(from, mine), Pick(to, mine),
                          Pick(offset_from, mine), Pick(offset_to, mine));
                    });
}

// --- TraversalCapable ------------------------------------------------
//
// A read-only kernel first tries the start node's owner shard (one
// pushdown round trip — exact whenever the walk never leaves that
// shard, e.g. any traversal inside one top-level subtree). kOutOfRange
// is ShardLocalStore's "the walk crossed a shard boundary" answer and
// sends that call — and only that call — through the engine over the
// partitioned fetches; any other status is the real answer or a real
// error.

template <typename Pushed, typename Engine>
auto ShardedStore::Closure(NodeRef start, Pushed pushed, Engine engine)
    -> decltype(engine()) {
  size_t k = 0;
  HM_RETURN_IF_ERROR(OwnerOf(start, &k));
  if (shards_[k]->mode() == RemoteMode::kPushdown) {
    auto result = pushed(At(k));
    if (StatusOf(result).code() != util::StatusCode::kOutOfRange) {
      return result;
    }
  }
  return engine();
}

util::Status ShardedStore::BulkGetAttr(std::span<const NodeRef> nodes,
                                       Attr attr,
                                       std::vector<int64_t>* values) {
  return GetAttrsMulti(nodes, attr, values);
}

util::Status ShardedStore::TravClosure1N(NodeRef start,
                                         std::vector<NodeRef>* out) {
  return Closure(
      start, [&](RemoteStore* s) { return s->TravClosure1N(start, out); },
      [&] { return traversal::Closure1N(this, start, out); });
}

util::Result<int64_t> ShardedStore::TravClosure1NAttSum(NodeRef start,
                                                        uint64_t* visited) {
  return Closure(
      start,
      [&](RemoteStore* s) { return s->TravClosure1NAttSum(start, visited); },
      [&] { return traversal::Closure1NAttSum(this, start, visited); });
}

util::Result<uint64_t> ShardedStore::TravClosure1NAttSet(NodeRef start) {
  // Never pushed down on a fleet: the server-side kernel writes as it
  // walks, so a shard crossing would abort after mutating a prefix of
  // the subtree. The engine enumerates first, then writes per shard.
  if (Single()) return At(0)->TravClosure1NAttSet(start);
  return traversal::Closure1NAttSet(this, start);
}

util::Status ShardedStore::TravClosure1NPred(NodeRef start, int64_t lo,
                                             int64_t hi,
                                             std::vector<NodeRef>* out) {
  return Closure(
      start,
      [&](RemoteStore* s) { return s->TravClosure1NPred(start, lo, hi, out); },
      [&] { return traversal::Closure1NPred(this, start, lo, hi, out); });
}

util::Status ShardedStore::TravClosureMN(NodeRef start,
                                         std::vector<NodeRef>* out) {
  return Closure(
      start, [&](RemoteStore* s) { return s->TravClosureMN(start, out); },
      [&] { return traversal::ClosureMN(this, start, out); });
}

util::Status ShardedStore::TravClosureMNAtt(NodeRef start, int depth,
                                            std::vector<NodeRef>* out) {
  return Closure(
      start,
      [&](RemoteStore* s) { return s->TravClosureMNAtt(start, depth, out); },
      [&] { return traversal::ClosureMNAtt(this, start, depth, out); });
}

util::Status ShardedStore::TravClosureMNAttLinkSum(
    NodeRef start, int depth, std::vector<NodeDistance>* out) {
  return Closure(
      start,
      [&](RemoteStore* s) {
        return s->TravClosureMNAttLinkSum(start, depth, out);
      },
      [&] { return traversal::ClosureMNAttLinkSum(this, start, depth, out); });
}

}  // namespace hm::backends
