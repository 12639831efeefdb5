#include "hypermodel/driver.h"

#include <algorithm>

#include "hypermodel/operations.h"
#include "util/random.h"
#include "util/timer.h"

namespace hm {

std::string_view OpName(OpId op) {
  switch (op) {
    case OpId::kNameLookup:
      return "01  nameLookup";
    case OpId::kNameOidLookup:
      return "02  nameOIDLookup";
    case OpId::kRangeLookupHundred:
      return "03  rangeLookupHundred";
    case OpId::kRangeLookupMillion:
      return "04  rangeLookupMillion";
    case OpId::kGroupLookup1N:
      return "05A groupLookup1N";
    case OpId::kGroupLookupMN:
      return "05B groupLookupMN";
    case OpId::kGroupLookupMNAtt:
      return "06  groupLookupMNATT";
    case OpId::kRefLookup1N:
      return "07A refLookup1N";
    case OpId::kRefLookupMN:
      return "07B refLookupMN";
    case OpId::kRefLookupMNAtt:
      return "08  refLookupMNATT";
    case OpId::kSeqScan:
      return "09  seqScan";
    case OpId::kClosure1N:
      return "10  closure1N";
    case OpId::kClosure1NAttSum:
      return "11  closure1NAttSum";
    case OpId::kClosure1NAttSet:
      return "12  closure1NAttSet";
    case OpId::kClosure1NPred:
      return "13  closure1NPred";
    case OpId::kClosureMN:
      return "14  closureMN";
    case OpId::kClosureMNAtt:
      return "15  closureMNATT";
    case OpId::kTextNodeEdit:
      return "16  textNodeEdit";
    case OpId::kFormNodeEdit:
      return "17  formNodeEdit";
    case OpId::kClosureMNAttLinkSum:
      return "18  closureMNATTLINKSUM";
  }
  return "??";
}

const std::vector<OpId>& AllOps() {
  static const std::vector<OpId> ops = {
      OpId::kNameLookup,        OpId::kNameOidLookup,
      OpId::kRangeLookupHundred, OpId::kRangeLookupMillion,
      OpId::kGroupLookup1N,     OpId::kGroupLookupMN,
      OpId::kGroupLookupMNAtt,  OpId::kRefLookup1N,
      OpId::kRefLookupMN,       OpId::kRefLookupMNAtt,
      OpId::kSeqScan,           OpId::kClosure1N,
      OpId::kClosure1NAttSum,   OpId::kClosure1NAttSet,
      OpId::kClosure1NPred,     OpId::kClosureMN,
      OpId::kClosureMNAtt,      OpId::kTextNodeEdit,
      OpId::kFormNodeEdit,      OpId::kClosureMNAttLinkSum,
  };
  return ops;
}

namespace {

/// Uniform pick from a non-empty vector.
NodeRef Pick(util::Rng* rng, const std::vector<NodeRef>& pool) {
  return pool[static_cast<size_t>(
      rng->UniformInt(0, static_cast<int64_t>(pool.size()) - 1))];
}

}  // namespace

util::Result<std::vector<uint64_t>> Driver::SelectInputs(OpId op) const {
  // Seed depends on the operation so different operations draw
  // different inputs, but every backend draws the same ones.
  util::Rng rng(config_.seed * 1000003 + static_cast<uint64_t>(op));
  std::vector<uint64_t> inputs;
  inputs.reserve(static_cast<size_t>(config_.iterations));

  // Closures start "on level three" (§6.5); smaller trees start at
  // their deepest internal level.
  size_t closure_level =
      std::min<size_t>(3, db_->nodes_by_level.size() >= 2
                              ? db_->nodes_by_level.size() - 2
                              : 0);

  // Every generated tree has a root, an internal level and leaves, so
  // only the leaf-kind pools can be empty: a level-2 tree has 25
  // leaves and no form node (one per `leaves_per_form` leaves).
  std::string_view missing;
  if (op == OpId::kTextNodeEdit && db_->text_nodes.empty()) {
    missing = "text node";
  } else if (op == OpId::kFormNodeEdit && db_->form_nodes.empty()) {
    missing = "form node";
  }
  if (!missing.empty()) {
    return util::Status::FailedPrecondition(
        std::string(OpName(op)) + " needs a " + std::string(missing) +
        " and this database has none");
  }

  for (int i = 0; i < config_.iterations; ++i) {
    switch (op) {
      case OpId::kNameLookup:
        inputs.push_back(static_cast<uint64_t>(
            rng.UniformInt(1, static_cast<int64_t>(db_->node_count()))));
        break;
      case OpId::kNameOidLookup:
      case OpId::kGroupLookupMNAtt:
      case OpId::kRefLookupMNAtt:
        inputs.push_back(Pick(&rng, db_->all_nodes));
        break;
      case OpId::kRangeLookupHundred:
        inputs.push_back(static_cast<uint64_t>(rng.UniformInt(1, 90)));
        break;
      case OpId::kRangeLookupMillion:
      case OpId::kClosure1NPred:
        inputs.push_back(static_cast<uint64_t>(rng.UniformInt(1, 990000)));
        break;
      case OpId::kGroupLookup1N:
      case OpId::kGroupLookupMN:
        inputs.push_back(Pick(&rng, db_->internal_nodes));
        break;
      case OpId::kRefLookup1N:
      case OpId::kRefLookupMN: {
        // "A random node, except the root-node."
        NodeRef node;
        do {
          node = Pick(&rng, db_->all_nodes);
        } while (node == db_->root);
        inputs.push_back(node);
        break;
      }
      case OpId::kSeqScan:
        inputs.push_back(0);  // no per-iteration input
        break;
      case OpId::kClosure1N:
      case OpId::kClosure1NAttSum:
      case OpId::kClosure1NAttSet:
      case OpId::kClosureMN:
      case OpId::kClosureMNAtt:
      case OpId::kClosureMNAttLinkSum:
        inputs.push_back(Pick(&rng, db_->level(closure_level)));
        break;
      case OpId::kTextNodeEdit:
        inputs.push_back(Pick(&rng, db_->text_nodes));
        break;
      case OpId::kFormNodeEdit: {
        // "The same form node is used for the fifty repetitions."
        if (inputs.empty()) {
          inputs.push_back(Pick(&rng, db_->form_nodes));
        } else {
          inputs.push_back(inputs.front());
        }
        break;
      }
    }
  }

  // closure1NPred needs a start node alongside the range bound; pack a
  // second stream of inputs after the first (bounds then starts).
  if (op == OpId::kClosure1NPred) {
    for (int i = 0; i < config_.iterations; ++i) {
      inputs.push_back(Pick(&rng, db_->level(closure_level)));
    }
  }
  return inputs;
}

util::Status Driver::TimedRun(OpId op, bool warm, RunTotals* totals) {
  HM_ASSIGN_OR_RETURN(std::vector<uint64_t> inputs, SelectInputs(op));
  const int n = config_.iterations;
  // Deterministic per-run randomness for formNodeEdit rectangles; the
  // warm run replays the same rectangles, restoring the bitmap (an
  // inversion is self-inverse).
  util::Rng rect_rng(config_.seed ^ 0xF0F0F0F0ULL);

  util::Timer timer;
  uint64_t nodes = 0;
  HM_RETURN_IF_ERROR(store_->Begin());
  for (int i = 0; i < n; ++i) {
    uint64_t input = inputs[static_cast<size_t>(i)];
    switch (op) {
      case OpId::kNameLookup: {
        HM_ASSIGN_OR_RETURN(
            int64_t hundred,
            ops::NameLookup(store_, static_cast<int64_t>(input)));
        (void)hundred;
        nodes += 1;
        break;
      }
      case OpId::kNameOidLookup: {
        HM_ASSIGN_OR_RETURN(int64_t hundred,
                            ops::NameOidLookup(store_, input));
        (void)hundred;
        nodes += 1;
        break;
      }
      case OpId::kRangeLookupHundred: {
        std::vector<NodeRef> out;
        HM_RETURN_IF_ERROR(ops::RangeLookupHundred(
            store_, static_cast<int64_t>(input), &out));
        nodes += out.size();
        break;
      }
      case OpId::kRangeLookupMillion: {
        std::vector<NodeRef> out;
        HM_RETURN_IF_ERROR(ops::RangeLookupMillion(
            store_, static_cast<int64_t>(input), &out));
        nodes += out.size();
        break;
      }
      case OpId::kGroupLookup1N: {
        std::vector<NodeRef> out;
        HM_RETURN_IF_ERROR(ops::GroupLookup1N(store_, input, &out));
        nodes += out.size();
        break;
      }
      case OpId::kGroupLookupMN: {
        std::vector<NodeRef> out;
        HM_RETURN_IF_ERROR(ops::GroupLookupMN(store_, input, &out));
        nodes += out.size();
        break;
      }
      case OpId::kGroupLookupMNAtt: {
        std::vector<NodeRef> out;
        HM_RETURN_IF_ERROR(ops::GroupLookupMNAtt(store_, input, &out));
        nodes += out.size();
        break;
      }
      case OpId::kRefLookup1N: {
        HM_ASSIGN_OR_RETURN(NodeRef parent, ops::RefLookup1N(store_, input));
        (void)parent;
        nodes += 1;
        break;
      }
      case OpId::kRefLookupMN: {
        std::vector<NodeRef> out;
        HM_RETURN_IF_ERROR(ops::RefLookupMN(store_, input, &out));
        nodes += out.size();
        break;
      }
      case OpId::kRefLookupMNAtt: {
        std::vector<NodeRef> out;
        HM_RETURN_IF_ERROR(ops::RefLookupMNAtt(store_, input, &out));
        // Possibly empty (§6.4 op /*08*/); normalization guards /0.
        nodes += out.size();
        break;
      }
      case OpId::kSeqScan: {
        HM_ASSIGN_OR_RETURN(uint64_t visited,
                            ops::SeqScan(store_, db_->all_nodes));
        nodes += visited;
        break;
      }
      case OpId::kClosure1N: {
        std::vector<NodeRef> out;
        HM_RETURN_IF_ERROR(ops::Closure1N(store_, input, &out));
        nodes += out.size();
        break;
      }
      case OpId::kClosure1NAttSum: {
        uint64_t visited = 0;
        HM_ASSIGN_OR_RETURN(int64_t sum,
                            ops::Closure1NAttSum(store_, input, &visited));
        (void)sum;
        nodes += visited;
        break;
      }
      case OpId::kClosure1NAttSet: {
        HM_ASSIGN_OR_RETURN(uint64_t updated,
                            ops::Closure1NAttSet(store_, input));
        nodes += updated;
        break;
      }
      case OpId::kClosure1NPred: {
        uint64_t start = inputs[static_cast<size_t>(n + i)];
        std::vector<NodeRef> out;
        HM_RETURN_IF_ERROR(ops::Closure1NPred(
            store_, start, static_cast<int64_t>(input), &out));
        nodes += out.size();
        break;
      }
      case OpId::kClosureMN: {
        std::vector<NodeRef> out;
        HM_RETURN_IF_ERROR(ops::ClosureMN(store_, input, &out));
        nodes += out.size();
        break;
      }
      case OpId::kClosureMNAtt: {
        std::vector<NodeRef> out;
        HM_RETURN_IF_ERROR(
            ops::ClosureMNAtt(store_, input, config_.closure_depth, &out));
        nodes += out.size();
        break;
      }
      case OpId::kTextNodeEdit: {
        // Cold run: version1 -> version-2; warm run: back again.
        std::string_view from = warm ? "version-2" : "version1";
        std::string_view to = warm ? "version1" : "version-2";
        HM_ASSIGN_OR_RETURN(uint64_t replaced,
                            ops::TextNodeEdit(store_, input, from, to));
        (void)replaced;
        nodes += 1;
        break;
      }
      case OpId::kFormNodeEdit: {
        uint32_t w = static_cast<uint32_t>(rect_rng.UniformInt(25, 50));
        uint32_t h = static_cast<uint32_t>(rect_rng.UniformInt(25, 50));
        uint32_t x = static_cast<uint32_t>(rect_rng.UniformInt(0, 49));
        uint32_t y = static_cast<uint32_t>(rect_rng.UniformInt(0, 49));
        HM_RETURN_IF_ERROR(ops::FormNodeEdit(store_, input, x, y, w, h));
        nodes += 1;
        break;
      }
      case OpId::kClosureMNAttLinkSum: {
        std::vector<NodeDistance> out;
        HM_RETURN_IF_ERROR(ops::ClosureMNAttLinkSum(
            store_, input, config_.closure_depth, &out));
        nodes += out.size();
        break;
      }
    }
  }
  // (c) Commit inside the timed region: "database-commit-time should
  // be included in the measurement" (§6).
  HM_RETURN_IF_ERROR(store_->Commit());
  totals->total_ms = timer.ElapsedMillis();
  totals->nodes = nodes;
  return util::Status::Ok();
}

util::Result<OpResult> Driver::Run(OpId op) {
  OpResult result;
  result.op = op;
  result.op_name = std::string(OpName(op));
  result.backend = store_->name();
  result.level = static_cast<int>(db_->nodes_by_level.size()) - 1;

  // Ensure the cold run really is cold.
  HM_RETURN_IF_ERROR(store_->CloseReopen());

  // Bracket each phase with registry snapshots; the diffs carry the
  // cache-hit evidence for the cold/warm protocol. (Loopback remote
  // servers live in this process, so their counters land here too.)
  telemetry::Registry& registry = telemetry::Registry::Global();
  telemetry::Snapshot before = registry.TakeSnapshot();
  RunTotals cold;
  HM_RETURN_IF_ERROR(TimedRun(op, /*warm=*/false, &cold));
  result.cold_total_ms = cold.total_ms;
  result.cold_nodes = cold.nodes;
  telemetry::Snapshot mid = registry.TakeSnapshot();
  result.cold_stats = mid.DiffSince(before);

  RunTotals warm;
  HM_RETURN_IF_ERROR(TimedRun(op, /*warm=*/true, &warm));
  result.warm_total_ms = warm.total_ms;
  result.warm_nodes = warm.nodes;
  result.warm_stats = registry.TakeSnapshot().DiffSince(mid);

  // (e) Close the database so this operation's cache contents cannot
  // help the next one.
  HM_RETURN_IF_ERROR(store_->CloseReopen());
  return result;
}

util::Result<std::vector<OpResult>> Driver::RunAll() {
  std::vector<OpResult> results;
  results.reserve(AllOps().size());
  for (OpId op : AllOps()) {
    HM_ASSIGN_OR_RETURN(OpResult result, Run(op));
    results.push_back(std::move(result));
  }
  return results;
}

}  // namespace hm
