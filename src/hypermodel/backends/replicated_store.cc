#include "hypermodel/backends/replicated_store.h"

#include <algorithm>
#include <utility>

#include "telemetry/metrics.h"

namespace hm::backends {
namespace {

// replication::Role wire bytes (kReplStatus responses, append-only).
// Spelled as constants so hm_core does not link hm_replication.
constexpr uint8_t kRolePrimary = 1;
constexpr uint8_t kRoleReplica = 2;

const util::Status& StatusOf(const util::Status& status) { return status; }
template <typename T>
const util::Status& StatusOf(const util::Result<T>& result) {
  return result.status();
}

// Transport-level failure: the peer may be dead (vs a typed answer
// from a live peer).
bool IsPeerFailure(const util::Status& status) {
  return status.IsUnavailable() || status.IsDeadlineExceeded();
}

}  // namespace

util::Result<ReplicatedOptions> ParseReplicatedAddrs(const std::string& spec) {
  ReplicatedOptions options;
  size_t start = 0;
  while (start <= spec.size()) {
    size_t semi = spec.find(';', start);
    std::string one = spec.substr(
        start, semi == std::string::npos ? std::string::npos : semi - start);
    if (one.empty()) {
      return util::Status::InvalidArgument(
          "replicated: empty peer in '" + spec + "'");
    }
    auto parsed = ParseRemoteAddr(one);
    if (!parsed.ok()) return parsed.status();
    RemoteOptions peer = *parsed;
    // Fail fast: the routing layer above does its own peer failover, so
    // a long in-client reconnect loop would just stall it.
    peer.max_retries = 1;
    peer.peer_label = "replicated peer " +
                      std::to_string(options.peers.size()) + " at " +
                      peer.host + ":" + std::to_string(peer.port);
    options.peers.push_back(std::move(peer));
    if (semi == std::string::npos) break;
    start = semi + 1;
  }
  if (options.peers.empty()) {
    return util::Status::InvalidArgument("replicated: no peers in '" + spec +
                                         "'");
  }
  return options;
}

ReplicatedStore::ReplicatedStore(ReplicatedOptions options)
    : options_(std::move(options)),
      conns_(options_.peers.size()),
      down_(options_.peers.size(), false),
      replayed_(options_.peers.size(), 0) {
  auto& reg = telemetry::Registry::Global();
  replica_reads_ = reg.GetCounter("replicated.replica_reads");
  primary_reads_ = reg.GetCounter("replicated.primary_reads");
  failovers_ = reg.GetCounter("replicated.failovers");
  fences_sent_ = reg.GetCounter("replicated.fences_sent");
}

util::Result<std::unique_ptr<ReplicatedStore>> ReplicatedStore::Connect(
    const ReplicatedOptions& options) {
  if (options.peers.empty()) {
    return util::Status::InvalidArgument("replicated: no peers");
  }
  auto store =
      std::unique_ptr<ReplicatedStore>(new ReplicatedStore(options));
  // The configured primary may already be dead or demoted (a client
  // can start after a failover): run the sweep up front so the first
  // write does not trip over kReadOnly or a dead socket.
  server::ReplPeer peer;
  if (!store->ProbePeer(0, &peer) || peer.role != kRolePrimary) {
    util::Status fo = store->Failover();
    if (!fo.ok()) return fo;
  }
  return store;
}

RemoteStore* ReplicatedStore::Peer(size_t i) {
  if (conns_[i] != nullptr) return conns_[i].get();
  auto connected = RemoteStore::Connect(options_.peers[i]);
  if (!connected.ok()) {
    down_[i] = true;
    return nullptr;
  }
  down_[i] = false;
  conns_[i] = std::move(*connected);
  return conns_[i].get();
}

bool ReplicatedStore::ProbePeer(size_t i, server::ReplPeer* out) {
  const size_t one[] = {i};
  std::vector<server::ReplPeer> peers;
  if (!Probe(one, &peers)[i]) return false;
  *out = peers[i];
  return true;
}

std::vector<bool> ReplicatedStore::Probe(
    std::span<const size_t> targets, std::vector<server::ReplPeer>* peers) {
  const size_t n = options_.peers.size();
  peers->assign(n, {});
  Frames frames;
  frames.reserve(targets.size());
  std::vector<Frame*> round(n, nullptr);
  for (size_t i : targets) {
    if (Peer(i) == nullptr) continue;
    frames.push_back(CallFrame<server::calls::ReplStatus>(
        &(*peers)[i], uint64_t{0}, uint64_t{0}));
    round[i] = &frames.back();
  }
  std::vector<util::Status> statuses;
  FanOut(conns_, round, &statuses);
  std::vector<bool> answered(n, false);
  std::vector<size_t> stale;
  for (size_t i : targets) {
    if (round[i] == nullptr) continue;
    if (!statuses[i].ok()) {
      if (IsPeerFailure(statuses[i])) {
        down_[i] = true;
        conns_[i].reset();
        replayed_[i] = 0;
      }
      // A typed failure (e.g. NotSupported from a server with no
      // replication role) also disqualifies the peer as a routing
      // target.
      continue;
    }
    const server::ReplPeer& peer = (*peers)[i];
    answered[i] = true;
    down_[i] = false;
    replayed_[i] = peer.durable_lsn;
    if (peer.epoch > epoch_) epoch_ = peer.epoch;
    // A resurrected old primary: fence it so it stops taking writes
    // from clients that have not heard about the failover.
    if (peer.role == kRolePrimary && peer.epoch < epoch_) stale.push_back(i);
  }
  Fence(stale);
  return answered;
}

void ReplicatedStore::Fence(std::span<const size_t> targets) {
  const size_t n = options_.peers.size();
  std::vector<uint64_t> now(n);
  Frames frames;
  frames.reserve(targets.size());
  std::vector<Frame*> round(n, nullptr);
  for (size_t i : targets) {
    if (Peer(i) == nullptr) continue;
    frames.push_back(CallFrame<server::calls::ReplFence>(&now[i], epoch_));
    round[i] = &frames.back();
  }
  std::vector<util::Status> statuses;
  FanOut(conns_, round, &statuses);
  for (size_t i = 0; i < n; ++i) {
    if (round[i] != nullptr && statuses[i].ok()) fences_sent_->Add();
  }
}

void ReplicatedStore::RefreshWatermark() {
  server::ReplPeer peer;
  if (!ProbePeer(primary_, &peer)) return;  // stays stale
  if (peer.role != kRolePrimary) return;    // demoted under us
  watermark_ = peer.durable_lsn;
  watermark_stale_ = false;
}

util::Status ReplicatedStore::Failover() {
  const size_t n = options_.peers.size();
  uint64_t max_epoch = epoch_;
  std::vector<size_t> everyone(n);
  for (size_t i = 0; i < n; ++i) everyone[i] = i;
  std::vector<server::ReplPeer> peers;
  const std::vector<bool> answered = Probe(everyone, &peers);

  size_t adopt = SIZE_MAX;
  uint64_t adopt_epoch = 0;
  size_t best_replica = SIZE_MAX;
  uint64_t best_lsn = 0;
  for (size_t i = 0; i < n; ++i) {
    if (!answered[i]) continue;
    const server::ReplPeer& peer = peers[i];
    // The highest epoch seen up to and including peer i.
    max_epoch = std::max(max_epoch, peer.epoch);
    if (peer.role == kRolePrimary && peer.epoch >= max_epoch &&
        (adopt == SIZE_MAX || peer.epoch > adopt_epoch)) {
      adopt = i;
      adopt_epoch = peer.epoch;
    } else if (peer.role == kRoleReplica &&
               (best_replica == SIZE_MAX || peer.durable_lsn > best_lsn)) {
      best_replica = i;
      best_lsn = peer.durable_lsn;
    }
  }
  if (adopt != SIZE_MAX) {
    // Someone (another client, an operator) already completed the
    // failover — or the old primary recovered. Follow them.
    primary_ = adopt;
    epoch_ = adopt_epoch;
    watermark_stale_ = true;
    return util::Status::Ok();
  }
  if (best_replica == SIZE_MAX) {
    return util::Status::Unavailable(
        "replicated: primary unreachable and no promotable replica");
  }
  RemoteStore* target = Peer(best_replica);
  if (target == nullptr) {
    return util::Status::Unavailable(
        "replicated: promotion target went away mid-failover");
  }
  uint64_t proposed = max_epoch + 1;
  uint64_t now = 0;
  util::Status promoted = target->ReplPromote(proposed, &now);
  if (!promoted.ok()) {
    return util::Status::Unavailable("replicated: promotion failed: " +
                                     std::string(promoted.message()));
  }
  primary_ = best_replica;
  epoch_ = std::max(proposed, now);
  watermark_stale_ = true;
  failovers_->Add();
  // Best-effort fence: any peer still reachable learns the new epoch
  // now instead of at its next client contact.
  std::vector<size_t> others;
  for (size_t i = 0; i < n; ++i) {
    if (i != primary_ && !down_[i]) others.push_back(i);
  }
  Fence(others);
  return util::Status::Ok();
}

RemoteStore* ReplicatedStore::PickReadPeer(size_t* index_out) {
  ++reads_;
  const size_t n = options_.peers.size();
  if ((txn_active_ && txn_dirty_) || n == 1) {
    *index_out = primary_;
    return Primary();
  }
  if (watermark_stale_) RefreshWatermark();
  if (!watermark_stale_) {
    // Revive a down peer only occasionally — a reconnect attempt per
    // read against a dead host would stall the read path.
    auto candidate = [&](size_t i) {
      return i != primary_ && (!down_[i] || reads_ % 32 == 0);
    };
    auto lags = [&](size_t i) {
      return replayed_[i] < watermark_;
    };
    // Re-read every lagging candidate's LSN in one round.
    std::vector<size_t> lagging;
    for (size_t i = 0; i < n; ++i) {
      if (candidate(i) && lags(i)) lagging.push_back(i);
    }
    if (!lagging.empty()) {
      std::vector<server::ReplPeer> peers;
      Probe(lagging, &peers);
    }
    for (size_t k = 0; k < n; ++k) {
      size_t i = (rr_ + k) % n;
      if (!candidate(i) || lags(i)) continue;
      RemoteStore* conn = Peer(i);
      if (conn == nullptr) continue;
      rr_ = i + 1;
      *index_out = i;
      return conn;
    }
  }
  // No caught-up replica (or the watermark is unknown): fall back to
  // the primary rather than serve a possibly-stale read.
  *index_out = primary_;
  return Primary();
}

util::Status ReplicatedStore::MaterializeTxn(RemoteStore* primary) {
  util::Status status = primary->Begin();
  if (status.ok()) txn_dirty_ = true;
  return status;
}

template <typename Fn>
auto ReplicatedStore::WriteOp(Fn&& fn) -> decltype(fn(*(RemoteStore*)nullptr)) {
  using R = decltype(fn(*(RemoteStore*)nullptr));
  for (int attempt = 0; attempt < 2; ++attempt) {
    RemoteStore* primary = Primary();
    if (primary == nullptr) {
      util::Status fo = Failover();
      if (!fo.ok()) return R(fo);
      primary = Primary();
      if (primary == nullptr) {
        return R(util::Status::Unavailable(
            "replicated: new primary unreachable right after failover"));
      }
    }
    const bool materialized_here = txn_active_ && txn_dirty_;
    if (txn_active_ && !txn_dirty_) {
      util::Status began = MaterializeTxn(primary);
      if (!began.ok()) {
        if ((IsPeerFailure(began) || began.IsReadOnly() ||
             began.IsFencedOff()) &&
            attempt == 0) {
          if (IsPeerFailure(began)) {
            down_[primary_] = true;
            conns_[primary_].reset();
          }
          util::Status fo = Failover();
          if (!fo.ok()) return R(fo);
          continue;  // clean txn: safe to rematerialize elsewhere
        }
        return R(began);
      }
    }
    R result = fn(*primary);
    const util::Status& status = StatusOf(result);
    if (status.ok() || !(IsPeerFailure(status) || status.IsReadOnly() ||
                         status.IsFencedOff())) {
      if (status.ok()) watermark_stale_ = true;
      return result;
    }
    if (IsPeerFailure(status)) {
      down_[primary_] = true;
      conns_[primary_].reset();
      replayed_[primary_] = 0;
    }
    // Run the sweep now so the *next* write finds a primary, whatever
    // we end up returning for this one.
    util::Status fo = Failover();
    if (materialized_here) {
      // The transaction (and any writes it buffered) lived on the old
      // primary; it cannot continue on the new one.
      txn_lost_ = true;
      return R(util::Status::Unavailable(
          "replicated: transaction lost to primary failover"));
    }
    if (status.IsReadOnly() || status.IsFencedOff()) {
      // The peer we believed primary is a replica / fenced: the write
      // definitively did not apply, so one retry against the real
      // primary is safe.
      if (!fo.ok()) return R(fo);
      continue;
    }
    // Transport failure: the write's fate on the old primary is
    // unknown — never re-send it.
    return result;
  }
  return R(util::Status::Unavailable(
      "replicated: could not find a writable primary"));
}

template <typename Fn>
auto ReplicatedStore::ReadOp(Fn&& fn) -> decltype(fn(*(RemoteStore*)nullptr)) {
  using R = decltype(fn(*(RemoteStore*)nullptr));
  if (txn_lost_) {
    return R(util::Status::Unavailable(
        "replicated: transaction lost to primary failover"));
  }
  for (int attempt = 0; attempt < 3; ++attempt) {
    size_t index = primary_;
    RemoteStore* target = PickReadPeer(&index);
    if (target != nullptr) {
      R result = fn(*target);
      const util::Status& status = StatusOf(result);
      if (!IsPeerFailure(status)) {
        (index == primary_ ? primary_reads_ : replica_reads_)->Add();
        return result;
      }
      down_[index] = true;
      conns_[index].reset();
      replayed_[index] = 0;
      if (index != primary_) continue;  // next attempt picks another peer
    }
    // The primary itself is unusable: elect a new one, then retry the
    // read (reads are always safe to re-issue).
    util::Status fo = Failover();
    if (!fo.ok()) return R(fo);
    if (txn_active_ && txn_dirty_) {
      txn_lost_ = true;
      return R(util::Status::Unavailable(
          "replicated: transaction lost to primary failover"));
    }
  }
  return R(util::Status::Unavailable(
      "replicated: no peer could serve the read"));
}

util::Status ReplicatedStore::ResetServer() {
  return WriteOp([](RemoteStore& s) { return s.ResetServer(); });
}

util::Status ReplicatedStore::Begin() {
  if (txn_active_) {
    return util::Status::InvalidArgument("replicated: Begin inside txn");
  }
  // Deferred: the txn materializes on the primary at the first write,
  // so read-only brackets scale across replicas.
  txn_active_ = true;
  txn_dirty_ = false;
  txn_lost_ = false;
  return util::Status::Ok();
}

util::Status ReplicatedStore::Commit() {
  if (!txn_active_) {
    return util::Status::InvalidArgument("replicated: Commit outside txn");
  }
  txn_active_ = false;
  if (txn_lost_) {
    txn_lost_ = false;
    txn_dirty_ = false;
    return util::Status::Unavailable(
        "replicated: transaction lost to primary failover");
  }
  if (!txn_dirty_) return util::Status::Ok();  // never materialized
  txn_dirty_ = false;
  RemoteStore* primary = Primary();
  if (primary == nullptr) {
    return util::Status::Unavailable(
        "replicated: primary lost before commit");
  }
  util::Status status = primary->Commit();
  if (status.ok()) watermark_stale_ = true;
  if (IsPeerFailure(status)) {
    down_[primary_] = true;
    conns_[primary_].reset();
    (void)Failover();
  }
  return status;
}

util::Status ReplicatedStore::Abort() {
  if (!txn_active_) {
    return util::Status::InvalidArgument("replicated: Abort outside txn");
  }
  txn_active_ = false;
  bool was_dirty = txn_dirty_;
  bool was_lost = txn_lost_;
  txn_dirty_ = false;
  txn_lost_ = false;
  if (!was_dirty || was_lost) return util::Status::Ok();
  RemoteStore* primary = Primary();
  if (primary == nullptr) return util::Status::Ok();  // txn died with it
  return primary->Abort();
}

util::Status ReplicatedStore::CloseReopen() {
  // The cold-start chill must reach every peer that serves our reads;
  // replicas gate kCloseReopen as a mutation, so only the primary gets
  // it (a replica's cache is invalidated by its own replay stream).
  return WriteOp([](RemoteStore& s) { return s.CloseReopen(); });
}

util::Result<NodeRef> ReplicatedStore::CreateNode(const NodeAttrs& attrs,
                                                  NodeRef near) {
  return WriteOp([&](RemoteStore& s) { return s.CreateNode(attrs, near); });
}

util::Status ReplicatedStore::SetText(NodeRef node, std::string_view text) {
  return WriteOp([&](RemoteStore& s) { return s.SetText(node, text); });
}

util::Status ReplicatedStore::SetForm(NodeRef node, const util::Bitmap& form) {
  return WriteOp([&](RemoteStore& s) { return s.SetForm(node, form); });
}

util::Status ReplicatedStore::AddChild(NodeRef parent, NodeRef child) {
  return WriteOp([&](RemoteStore& s) { return s.AddChild(parent, child); });
}

util::Status ReplicatedStore::AddPart(NodeRef owner, NodeRef part) {
  return WriteOp([&](RemoteStore& s) { return s.AddPart(owner, part); });
}

util::Status ReplicatedStore::AddRef(NodeRef from, NodeRef to,
                                     int64_t offset_from, int64_t offset_to) {
  return WriteOp([&](RemoteStore& s) {
    return s.AddRef(from, to, offset_from, offset_to);
  });
}

util::Result<int64_t> ReplicatedStore::GetAttr(NodeRef node, Attr attr) {
  return ReadOp([&](RemoteStore& s) { return s.GetAttr(node, attr); });
}

util::Status ReplicatedStore::SetAttr(NodeRef node, Attr attr, int64_t value) {
  return WriteOp([&](RemoteStore& s) { return s.SetAttr(node, attr, value); });
}

util::Result<NodeKind> ReplicatedStore::GetKind(NodeRef node) {
  return ReadOp([&](RemoteStore& s) { return s.GetKind(node); });
}

util::Result<std::string> ReplicatedStore::GetText(NodeRef node) {
  return ReadOp([&](RemoteStore& s) { return s.GetText(node); });
}

util::Result<util::Bitmap> ReplicatedStore::GetForm(NodeRef node) {
  return ReadOp([&](RemoteStore& s) { return s.GetForm(node); });
}

util::Status ReplicatedStore::SetContents(NodeRef node,
                                          std::string_view data) {
  return WriteOp([&](RemoteStore& s) { return s.SetContents(node, data); });
}

util::Result<std::string> ReplicatedStore::GetContents(NodeRef node) {
  return ReadOp([&](RemoteStore& s) { return s.GetContents(node); });
}

util::Result<NodeRef> ReplicatedStore::LookupUnique(int64_t unique_id) {
  return ReadOp([&](RemoteStore& s) { return s.LookupUnique(unique_id); });
}

util::Status ReplicatedStore::RangeHundred(int64_t lo, int64_t hi,
                                           std::vector<NodeRef>* out) {
  return ReadOp([&](RemoteStore& s) { return s.RangeHundred(lo, hi, out); });
}

util::Status ReplicatedStore::RangeMillion(int64_t lo, int64_t hi,
                                           std::vector<NodeRef>* out) {
  return ReadOp([&](RemoteStore& s) { return s.RangeMillion(lo, hi, out); });
}

util::Status ReplicatedStore::Children(NodeRef node,
                                       std::vector<NodeRef>* out) {
  return ReadOp([&](RemoteStore& s) { return s.Children(node, out); });
}

util::Result<NodeRef> ReplicatedStore::Parent(NodeRef node) {
  return ReadOp([&](RemoteStore& s) { return s.Parent(node); });
}

util::Status ReplicatedStore::Parts(NodeRef node, std::vector<NodeRef>* out) {
  return ReadOp([&](RemoteStore& s) { return s.Parts(node, out); });
}

util::Status ReplicatedStore::PartOf(NodeRef node, std::vector<NodeRef>* out) {
  return ReadOp([&](RemoteStore& s) { return s.PartOf(node, out); });
}

util::Status ReplicatedStore::RefsTo(NodeRef node, std::vector<RefEdge>* out) {
  return ReadOp([&](RemoteStore& s) { return s.RefsTo(node, out); });
}

util::Status ReplicatedStore::RefsFrom(NodeRef node,
                                       std::vector<RefEdge>* out) {
  return ReadOp([&](RemoteStore& s) { return s.RefsFrom(node, out); });
}

util::Result<uint64_t> ReplicatedStore::StorageBytes() {
  return ReadOp([&](RemoteStore& s) { return s.StorageBytes(); });
}

util::Status ReplicatedStore::BulkGetAttr(std::span<const NodeRef> nodes,
                                          Attr attr,
                                          std::vector<int64_t>* values) {
  return ReadOp(
      [&](RemoteStore& s) { return s.BulkGetAttr(nodes, attr, values); });
}

util::Status ReplicatedStore::TravClosure1N(NodeRef start,
                                            std::vector<NodeRef>* out) {
  return ReadOp([&](RemoteStore& s) { return s.TravClosure1N(start, out); });
}

util::Result<int64_t> ReplicatedStore::TravClosure1NAttSum(
    NodeRef start, uint64_t* visited) {
  return ReadOp(
      [&](RemoteStore& s) { return s.TravClosure1NAttSum(start, visited); });
}

util::Result<uint64_t> ReplicatedStore::TravClosure1NAttSet(NodeRef start) {
  return WriteOp(
      [&](RemoteStore& s) { return s.TravClosure1NAttSet(start); });
}

util::Status ReplicatedStore::TravClosure1NPred(NodeRef start, int64_t lo,
                                                int64_t hi,
                                                std::vector<NodeRef>* out) {
  return ReadOp(
      [&](RemoteStore& s) { return s.TravClosure1NPred(start, lo, hi, out); });
}

util::Status ReplicatedStore::TravClosureMN(NodeRef start,
                                            std::vector<NodeRef>* out) {
  return ReadOp([&](RemoteStore& s) { return s.TravClosureMN(start, out); });
}

util::Status ReplicatedStore::TravClosureMNAtt(NodeRef start, int depth,
                                               std::vector<NodeRef>* out) {
  return ReadOp(
      [&](RemoteStore& s) { return s.TravClosureMNAtt(start, depth, out); });
}

util::Status ReplicatedStore::TravClosureMNAttLinkSum(
    NodeRef start, int depth, std::vector<NodeDistance>* out) {
  return ReadOp([&](RemoteStore& s) {
    return s.TravClosureMNAttLinkSum(start, depth, out);
  });
}

}  // namespace hm::backends
