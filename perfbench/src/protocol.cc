#include "protocol.h"

#include <algorithm>
#include <chrono>

#include "hypermodel/operations.h"
#include "util/random.h"

namespace hm::perfbench {

namespace {

double MicrosSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

size_t PickIndex(util::Rng* rng, size_t size) {
  return static_cast<size_t>(
      rng->UniformInt(0, static_cast<int64_t>(size) - 1));
}

/// Closures start "on level three" (§6.5); smaller trees start at
/// their deepest internal level.
size_t ClosureLevel(const TestDatabase& db) {
  return std::min<size_t>(
      3, db.nodes_by_level.size() >= 2 ? db.nodes_by_level.size() - 2 : 0);
}

/// The pool an op's position inputs index into.
const std::vector<NodeRef>& PoolOf(const TestDatabase& db, OpId op) {
  switch (op) {
    case OpId::kGroupLookup1N:
    case OpId::kGroupLookupMN:
      return db.internal_nodes;
    case OpId::kClosure1N:
    case OpId::kClosure1NAttSum:
    case OpId::kClosure1NAttSet:
    case OpId::kClosure1NPred:
    case OpId::kClosureMN:
    case OpId::kClosureMNAtt:
    case OpId::kClosureMNAttLinkSum:
      return db.level(ClosureLevel(db));
    case OpId::kTextNodeEdit:
      return db.text_nodes;
    case OpId::kFormNodeEdit:
      return db.form_nodes;
    default:
      return db.all_nodes;
  }
}

bool IsSetValued(OpId op) {
  switch (op) {
    case OpId::kRangeLookupHundred:
    case OpId::kRangeLookupMillion:
    case OpId::kGroupLookupMN:
    case OpId::kGroupLookupMNAtt:
    case OpId::kRefLookupMN:
    case OpId::kRefLookupMNAtt:
      return true;
    default:
      return false;
  }
}

uint64_t Mix(uint64_t hash, uint64_t value) {
  hash ^= value + 0x9E3779B97F4A7C15ULL + (hash << 6) + (hash >> 2);
  return hash;
}

}  // namespace

OpGroup GroupOf(OpId op) {
  switch (op) {
    case OpId::kSeqScan:
      return OpGroup::kScan;
    case OpId::kClosure1N:
    case OpId::kClosure1NAttSum:
    case OpId::kClosure1NPred:
    case OpId::kClosureMN:
    case OpId::kClosureMNAtt:
    case OpId::kClosureMNAttLinkSum:
      return OpGroup::kClosure;
    case OpId::kClosure1NAttSet:
    case OpId::kTextNodeEdit:
    case OpId::kFormNodeEdit:
      return OpGroup::kEdit;
    default:
      return OpGroup::kLookup;
  }
}

PhaseInputs SelectInputs(const TestDatabase& db, OpId op, int iterations,
                         uint64_t seed) {
  util::Rng rng(seed * 1000003 + static_cast<uint64_t>(op));
  PhaseInputs inputs;
  const std::vector<NodeRef>& pool = PoolOf(db, op);
  for (int i = 0; i < iterations; ++i) {
    switch (op) {
      case OpId::kNameLookup:
        inputs.values.push_back(
            rng.UniformInt(1, static_cast<int64_t>(db.node_count())));
        break;
      case OpId::kRangeLookupHundred:
        inputs.values.push_back(rng.UniformInt(1, 90));
        break;
      case OpId::kRangeLookupMillion:
        inputs.values.push_back(rng.UniformInt(1, 990000));
        break;
      case OpId::kClosure1NPred:
        inputs.values.push_back(rng.UniformInt(1, 990000));
        inputs.starts.push_back(PickIndex(&rng, pool.size()));
        break;
      case OpId::kRefLookup1N:
      case OpId::kRefLookupMN: {
        // "A random node, except the root-node."
        size_t index;
        do {
          index = PickIndex(&rng, pool.size());
        } while (pool[index] == db.root);
        inputs.values.push_back(static_cast<int64_t>(index));
        break;
      }
      case OpId::kSeqScan:
        inputs.values.push_back(0);
        break;
      case OpId::kFormNodeEdit:
        // "The same form node is used for the fifty repetitions."
        inputs.values.push_back(
            inputs.values.empty()
                ? static_cast<int64_t>(PickIndex(&rng, pool.size()))
                : inputs.values.front());
        break;
      default:
        inputs.values.push_back(
            static_cast<int64_t>(PickIndex(&rng, pool.size())));
        break;
    }
  }
  return inputs;
}

double PhaseRun::total_ms() const {
  double us = begin_us + commit_us;
  for (double call : call_us) us += call;
  return us / 1000.0;
}

double PhaseRun::ms_per_node() const {
  return nodes == 0 ? 0 : total_ms() / static_cast<double>(nodes);
}

util::Status PhaseRunner::Call(OpId op, const PhaseInputs& inputs, size_t i,
                               bool warm, util::Rng* rects, int closure_depth,
                               CallOutput* out) {
  const int64_t value = inputs.values[i];
  const std::vector<NodeRef>& pool = PoolOf(*db_, op);
  const NodeRef node =
      op == OpId::kClosure1NPred
          ? pool[inputs.starts[i]]
          : (value >= 0 && static_cast<size_t>(value) < pool.size()
                 ? pool[static_cast<size_t>(value)]
                 : kInvalidNode);
  switch (op) {
    case OpId::kNameLookup: {
      HM_ASSIGN_OR_RETURN(out->scalar, ops::NameLookup(store_, value));
      out->nodes = 1;
      return util::Status::Ok();
    }
    case OpId::kNameOidLookup: {
      HM_ASSIGN_OR_RETURN(out->scalar, ops::NameOidLookup(store_, node));
      out->nodes = 1;
      return util::Status::Ok();
    }
    case OpId::kRangeLookupHundred:
      HM_RETURN_IF_ERROR(ops::RangeLookupHundred(store_, value, &out->refs));
      break;
    case OpId::kRangeLookupMillion:
      HM_RETURN_IF_ERROR(ops::RangeLookupMillion(store_, value, &out->refs));
      break;
    case OpId::kGroupLookup1N:
      HM_RETURN_IF_ERROR(ops::GroupLookup1N(store_, node, &out->refs));
      break;
    case OpId::kGroupLookupMN:
      HM_RETURN_IF_ERROR(ops::GroupLookupMN(store_, node, &out->refs));
      break;
    case OpId::kGroupLookupMNAtt:
      HM_RETURN_IF_ERROR(ops::GroupLookupMNAtt(store_, node, &out->refs));
      break;
    case OpId::kRefLookup1N: {
      HM_ASSIGN_OR_RETURN(out->ref, ops::RefLookup1N(store_, node));
      out->nodes = 1;
      return util::Status::Ok();
    }
    case OpId::kRefLookupMN:
      HM_RETURN_IF_ERROR(ops::RefLookupMN(store_, node, &out->refs));
      break;
    case OpId::kRefLookupMNAtt:
      HM_RETURN_IF_ERROR(ops::RefLookupMNAtt(store_, node, &out->refs));
      break;
    case OpId::kSeqScan: {
      HM_ASSIGN_OR_RETURN(uint64_t visited,
                          ops::SeqScan(store_, db_->all_nodes));
      out->scalar = static_cast<int64_t>(visited);
      out->nodes = visited;
      return util::Status::Ok();
    }
    case OpId::kClosure1N:
      HM_RETURN_IF_ERROR(ops::Closure1N(store_, node, &out->refs));
      break;
    case OpId::kClosure1NAttSum: {
      uint64_t visited = 0;
      HM_ASSIGN_OR_RETURN(out->scalar,
                          ops::Closure1NAttSum(store_, node, &visited));
      out->nodes = visited;
      return util::Status::Ok();
    }
    case OpId::kClosure1NAttSet: {
      HM_ASSIGN_OR_RETURN(uint64_t updated,
                          ops::Closure1NAttSet(store_, node));
      out->scalar = static_cast<int64_t>(updated);
      out->nodes = updated;
      return util::Status::Ok();
    }
    case OpId::kClosure1NPred:
      HM_RETURN_IF_ERROR(
          ops::Closure1NPred(store_, node, value, &out->refs));
      break;
    case OpId::kClosureMN:
      HM_RETURN_IF_ERROR(ops::ClosureMN(store_, node, &out->refs));
      break;
    case OpId::kClosureMNAtt:
      HM_RETURN_IF_ERROR(
          ops::ClosureMNAtt(store_, node, closure_depth, &out->refs));
      break;
    case OpId::kTextNodeEdit: {
      std::string_view from = warm ? "version-2" : "version1";
      std::string_view to = warm ? "version1" : "version-2";
      HM_ASSIGN_OR_RETURN(uint64_t replaced,
                          ops::TextNodeEdit(store_, node, from, to));
      out->scalar = static_cast<int64_t>(replaced);
      out->nodes = 1;
      return util::Status::Ok();
    }
    case OpId::kFormNodeEdit: {
      uint32_t w = static_cast<uint32_t>(rects->UniformInt(25, 50));
      uint32_t h = static_cast<uint32_t>(rects->UniformInt(25, 50));
      uint32_t x = static_cast<uint32_t>(rects->UniformInt(0, 49));
      uint32_t y = static_cast<uint32_t>(rects->UniformInt(0, 49));
      HM_RETURN_IF_ERROR(ops::FormNodeEdit(store_, node, x, y, w, h));
      out->nodes = 1;
      return util::Status::Ok();
    }
    case OpId::kClosureMNAttLinkSum:
      HM_RETURN_IF_ERROR(ops::ClosureMNAttLinkSum(store_, node, closure_depth,
                                                  &out->distances));
      out->nodes = out->distances.size();
      return util::Status::Ok();
  }
  out->nodes = out->refs.size();
  return util::Status::Ok();
}

util::Result<PhaseRun> PhaseRunner::Run(OpId op, const PhaseInputs& inputs,
                                        bool warm, uint64_t rect_seed,
                                        int closure_depth) {
  const size_t n = inputs.values.size();
  PhaseRun run;
  run.call_us.reserve(n);
  run.outputs.resize(n);
  util::Rng rects(rect_seed);
  const bool trace = tracer_ != nullptr && tracer_->enabled();

  auto begin = std::chrono::steady_clock::now();
  HM_RETURN_IF_ERROR(store_->Begin());
  run.begin_us = MicrosSince(begin);
  for (size_t i = 0; i < n; ++i) {
    int64_t span_start = trace ? Tracer::NowNs() : 0;
    auto start = std::chrono::steady_clock::now();
    util::Status status =
        Call(op, inputs, i, warm, &rects, closure_depth, &run.outputs[i]);
    run.call_us.push_back(MicrosSince(start));
    if (trace) {
      tracer_->Record({span_start, Tracer::NowNs(), static_cast<uint16_t>(op),
                       Layer::kOp, kNoParent});
    }
    if (!status.ok()) {
      (void)store_->Abort();
      return status;
    }
    run.nodes += run.outputs[i].nodes;
  }
  // (c) "database-commit-time should be included in the measurement".
  auto commit = std::chrono::steady_clock::now();
  HM_RETURN_IF_ERROR(store_->Commit());
  run.commit_us = MicrosSince(commit);

  if (op == OpId::kFormNodeEdit && n > 0) {
    HM_ASSIGN_OR_RETURN(
        util::Bitmap form,
        store_->GetForm(PoolOf(*db_, op)[static_cast<size_t>(
            inputs.values.front())]));
    run.form_after = form.Serialize();
  }
  return run;
}

PositionKeys::PositionKeys(const TestDatabase& db) {
  position_.reserve(db.all_nodes.size());
  for (size_t i = 0; i < db.all_nodes.size(); ++i) {
    position_.emplace(db.all_nodes[i], static_cast<int64_t>(i) + 1);
  }
}

util::Result<int64_t> PositionKeys::operator()(NodeRef ref) const {
  if (ref == kInvalidNode) return int64_t{0};
  auto it = position_.find(ref);
  if (it == position_.end()) {
    return util::Status::NotFound("ref " + std::to_string(ref) +
                                  " is not a generated node");
  }
  return it->second;
}

KeyFn UidKeys(HyperStore* store) {
  return [store](NodeRef ref) -> util::Result<int64_t> {
    if (ref == kInvalidNode) return int64_t{0};
    return store->GetAttr(ref, Attr::kUniqueId);
  };
}

util::Result<CallDigest> Digest(OpId op, const CallOutput& output,
                                const KeyFn& keys) {
  CallDigest digest;
  digest.nodes = output.nodes;
  digest.scalar = output.scalar;
  std::vector<int64_t> list;
  for (NodeRef ref : output.refs) {
    HM_ASSIGN_OR_RETURN(int64_t key, keys(ref));
    list.push_back(key);
  }
  for (const NodeDistance& entry : output.distances) {
    HM_ASSIGN_OR_RETURN(int64_t key, keys(entry.node));
    list.push_back(key);
    list.push_back(entry.distance);
  }
  if (output.ref != kInvalidNode) {
    HM_ASSIGN_OR_RETURN(int64_t key, keys(output.ref));
    list.push_back(key);
  }
  if (IsSetValued(op)) std::sort(list.begin(), list.end());
  uint64_t hash = list.size();
  for (int64_t key : list) hash = Mix(hash, static_cast<uint64_t>(key));
  digest.keys_hash = hash;
  return digest;
}

uint64_t CountMismatches(OpId op, const PhaseRun& a, const KeyFn& keys_a,
                         const PhaseRun& b, const KeyFn& keys_b) {
  uint64_t mismatches = 0;
  if (a.outputs.size() != b.outputs.size()) {
    return std::max(a.outputs.size(), b.outputs.size());
  }
  for (size_t i = 0; i < a.outputs.size(); ++i) {
    util::Result<CallDigest> da = Digest(op, a.outputs[i], keys_a);
    util::Result<CallDigest> db = Digest(op, b.outputs[i], keys_b);
    if (!da.ok() || !db.ok() || !(*da == *db)) ++mismatches;
  }
  if (a.form_after != b.form_after) ++mismatches;
  return mismatches;
}

}  // namespace hm::perfbench
