#include "analysis/compare.h"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <string>
#include <utility>

#include "hypermodel/operations.h"
#include "util/random.h"

namespace hm::analysis {

util::Result<std::vector<int64_t>> Uids(HyperStore* store,
                                        const std::vector<NodeRef>& refs) {
  std::vector<int64_t> uids;
  uids.reserve(refs.size());
  for (NodeRef ref : refs) {
    HM_ASSIGN_OR_RETURN(int64_t uid, store->GetAttr(ref, Attr::kUniqueId));
    uids.push_back(uid);
  }
  return uids;
}

util::Result<NodeImage> ImageOf(HyperStore* store, NodeRef node) {
  NodeImage image;
  for (size_t i = 0; i < image.attrs.size(); ++i) {  // Attr's order
    HM_ASSIGN_OR_RETURN(image.attrs[i],
                        store->GetAttr(node, static_cast<Attr>(i)));
  }
  HM_ASSIGN_OR_RETURN(image.kind, store->GetKind(node));
  if (image.kind != NodeKind::kInternal) {
    HM_ASSIGN_OR_RETURN(image.contents, store->GetContents(node));
  }
  HM_ASSIGN_OR_RETURN(NodeRef parent, store->Parent(node));
  if (parent != kInvalidNode) {
    HM_ASSIGN_OR_RETURN(image.parent, store->GetAttr(parent, Attr::kUniqueId));
  }
  using ListRead = util::Status (HyperStore::*)(NodeRef, std::vector<NodeRef>*);
  std::vector<NodeRef> refs;
  for (auto [read, out] : {std::pair<ListRead, std::vector<int64_t>*>{
                               &HyperStore::Children, &image.children},
                           {&HyperStore::Parts, &image.parts},
                           {&HyperStore::PartOf, &image.part_of}}) {
    HM_RETURN_IF_ERROR((store->*read)(node, &refs));
    HM_ASSIGN_OR_RETURN(*out, Uids(store, refs));
  }
  using EdgeRead = util::Status (HyperStore::*)(NodeRef, std::vector<RefEdge>*);
  std::vector<RefEdge> edges;
  for (auto [read, out] :
       {std::pair<EdgeRead, decltype(&image.refs_to)>{&HyperStore::RefsTo,
                                                      &image.refs_to},
        {&HyperStore::RefsFrom, &image.refs_from}}) {
    HM_RETURN_IF_ERROR((store->*read)(node, &edges));
    for (const RefEdge& edge : edges) {
      HM_ASSIGN_OR_RETURN(int64_t uid,
                          store->GetAttr(edge.node, Attr::kUniqueId));
      out->emplace_back(uid, edge.offset_from, edge.offset_to);
    }
  }
  return image;
}

util::Result<std::vector<NodeImage>> ImageOf(HyperStore* store,
                                             const TestDatabase& db) {
  std::vector<NodeImage> images;
  images.reserve(db.all_nodes.size());
  for (NodeRef node : db.all_nodes) {
    HM_ASSIGN_OR_RETURN(NodeImage image, ImageOf(store, node));
    images.push_back(std::move(image));
  }
  return images;
}

std::vector<int64_t> DifferingUids(const std::vector<NodeImage>& expected,
                                   const std::vector<NodeImage>& got) {
  std::vector<int64_t> uids;
  for (size_t i = 0; i < std::max(expected.size(), got.size()); ++i) {
    if (i < expected.size() && i < got.size() && expected[i] == got[i]) {
      continue;
    }
    uids.push_back(i < expected.size() ? expected[i].uid() : got[i].uid());
  }
  return uids;
}

std::vector<std::string> CompareReport::Failed() const {
  std::vector<std::string> names;
  for (const CompareRecord& record : records) {
    if (!record.ok) names.push_back(record.name);
  }
  return names;
}

void CompareReport::PrintTo(std::ostream& os) const {
  for (size_t i = 0; i < records.size(); ++i) {
    const CompareRecord& record = records[i];
    if (i == 0 || records[i - 1].probe != record.probe) {
      os << " probe " << record.probe << "/" << inputs.size();
      if (std::any_of(records.begin(), records.end(), [&](const auto& r) {
            return r.probe == record.probe && !r.ok;
          })) {
        const ProbeInputs& in = inputs[static_cast<size_t>(record.probe - 1)];
        os << " (uids: any=" << in.any << " internal=" << in.internal
           << " closure_start=" << in.closure_start << " text=" << in.text
           << " form=" << in.form << "; hundred_x=" << in.hundred_x
           << " million_x=" << in.million_x << ")";
      }
      os << "\n";
    }
    os << "  " << std::left << std::setw(28) << record.name
       << (record.ok ? "PASS" : "FAIL");
    if (!record.ok) os << "  " << record.detail;
    os << "\n";
  }
}

namespace {

// One side of the comparison. Its output containers are reused across
// ops without clearing: every list output replaces what it held
// (store.h), so the comparison exercises that contract too.
struct Side {
  HyperStore* store;
  const TestDatabase& db;
  std::vector<NodeRef> refs;
  std::vector<NodeDistance> dists;
};

// One side's answer to a check, in uid space.
using Answer = util::Result<std::vector<int64_t>>;

// Ordered results (1-N children, every closure) compare exactly; sets
// (M-N relationships, index scans) compare sorted.
enum Order { kExact, kSorted };

template <typename T>
Answer Scalar(const util::Result<T>& value) {
  if (!value.ok()) return value.status();
  return std::vector<int64_t>{static_cast<int64_t>(*value)};
}

Answer RefList(const Side& side, const util::Status& status) {
  if (!status.ok()) return status;
  return Uids(side.store, side.refs);
}

Answer Bytes(const util::Result<std::string>& bytes) {
  if (!bytes.ok()) return bytes.status();
  return std::vector<int64_t>(bytes->begin(), bytes->end());
}

std::string Mismatch(const std::vector<int64_t>& expected,
                     const std::vector<int64_t>& got) {
  if (expected.size() == 1 && got.size() == 1) {
    return "expected=" + std::to_string(expected[0]) +
           " got=" + std::to_string(got[0]);
  }
  const auto diff = std::mismatch(expected.begin(), expected.end(),
                                  got.begin(), got.end());
  return "expected=" + std::to_string(expected.size()) + " items, got=" +
         std::to_string(got.size()) + " items; first diff at [" +
         std::to_string(diff.first - expected.begin()) + "]";
}

}  // namespace

CompareReport CompareOps(HyperStore* expected, const TestDatabase& db_expected,
                         HyperStore* got, const TestDatabase& db_got,
                         int probes) {
  CompareReport report;
  Side sides[2] = {{expected, db_expected, {}, {}}, {got, db_got, {}, {}}};
  int probe = 0;
  // Runs `op` on both sides and records whether they agree.
  auto check = [&](const char* name, Order order, const auto& op) {
    Answer a = op(sides[0]);
    Answer b = op(sides[1]);
    CompareRecord& record = report.records.emplace_back();
    record.probe = probe;
    record.name = name;
    if (!a.ok() || !b.ok()) {
      record.detail = "expected: " + a.status().ToString() +
                      "; got: " + b.status().ToString();
      return;
    }
    if (order == kSorted) {
      std::sort(a->begin(), a->end());
      std::sort(b->begin(), b->end());
    }
    record.ok = *a == *b;
    if (!record.ok) record.detail = Mismatch(*a, *b);
  };
  auto uid_of = [expected](NodeRef ref) {
    return expected->GetAttr(ref, Attr::kUniqueId).ValueOr(0);
  };

  util::Rng rng(0xC1A57E12);
  auto pick = [&rng](size_t size) {
    return static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(size) - 1));
  };
  const size_t closure_level =
      std::min<size_t>(3, db_expected.nodes_by_level.size() - 2);
  const int depth = 25;

  for (probe = 1; probe <= probes; ++probe) {
    const size_t any = pick(db_expected.all_nodes.size());
    const size_t internal = pick(db_expected.internal_nodes.size());
    const size_t closure_start = pick(db_expected.level(closure_level).size());
    ProbeInputs& in = report.inputs.emplace_back();
    in.hundred_x = rng.UniformInt(1, 91);
    in.million_x = rng.UniformInt(1, 990001);
    in.any = uid_of(db_expected.all_nodes[any]);
    in.internal = uid_of(db_expected.internal_nodes[internal]);
    in.closure_start = uid_of(db_expected.level(closure_level)[closure_start]);
    auto node = [&](const Side& s) { return s.db.all_nodes[any]; };
    auto inner = [&](const Side& s) { return s.db.internal_nodes[internal]; };
    auto start = [&](const Side& s) {
      return s.db.level(closure_level)[closure_start];
    };

    // /*01*/ + /*02*/ — name lookups, by uid and by ref.
    check("01 nameLookup", kExact, [&](Side& s) {
      return Scalar(ops::NameLookup(s.store, in.any));
    });
    check("02 nameOIDLookup", kExact, [&](Side& s) {
      return Scalar(ops::NameOidLookup(s.store, node(s)));
    });
    // /*03*/ + /*04*/ — index range scans (before the editing ops, so
    // both sides still hold creation-time values).
    check("03 rangeLookupHundred", kSorted, [&](Side& s) {
      return RefList(s,
                     ops::RangeLookupHundred(s.store, in.hundred_x, &s.refs));
    });
    check("04 rangeLookupMillion", kSorted, [&](Side& s) {
      return RefList(s,
                     ops::RangeLookupMillion(s.store, in.million_x, &s.refs));
    });
    // /*05A*/../*08*/ — group and reference lookups.
    check("05A groupLookup1N", kExact, [&](Side& s) {
      return RefList(s, ops::GroupLookup1N(s.store, inner(s), &s.refs));
    });
    check("05B groupLookupMN", kSorted, [&](Side& s) {
      return RefList(s, ops::GroupLookupMN(s.store, inner(s), &s.refs));
    });
    check("06 groupLookupMNATT", kSorted, [&](Side& s) {
      return RefList(s, ops::GroupLookupMNAtt(s.store, node(s), &s.refs));
    });
    check("07A refLookup1N", kExact, [&](Side& s) -> Answer {
      HM_ASSIGN_OR_RETURN(NodeRef parent, ops::RefLookup1N(s.store, node(s)));
      if (parent == kInvalidNode) return std::vector<int64_t>{0};  // root
      return Scalar(s.store->GetAttr(parent, Attr::kUniqueId));
    });
    check("07B refLookupMN", kSorted, [&](Side& s) {
      return RefList(s, ops::RefLookupMN(s.store, node(s), &s.refs));
    });
    check("08 refLookupMNATT", kSorted, [&](Side& s) {
      return RefList(s, ops::RefLookupMNAtt(s.store, node(s), &s.refs));
    });
    // /*10*/, /*13*/../*15*/, /*18*/ — read-only closures, exact order.
    check("10 closure1N", kExact, [&](Side& s) {
      return RefList(s, ops::Closure1N(s.store, start(s), &s.refs));
    });
    check("13 closure1NPred", kExact, [&](Side& s) {
      return RefList(
          s, ops::Closure1NPred(s.store, start(s), in.million_x, &s.refs));
    });
    check("14 closureMN", kExact, [&](Side& s) {
      return RefList(s, ops::ClosureMN(s.store, start(s), &s.refs));
    });
    check("15 closureMNATT", kExact, [&](Side& s) {
      return RefList(s, ops::ClosureMNAtt(s.store, node(s), depth, &s.refs));
    });
    check("18 closureMNATTLINKSUM", kExact, [&](Side& s) -> Answer {
      HM_RETURN_IF_ERROR(
          ops::ClosureMNAttLinkSum(s.store, node(s), depth, &s.dists));
      std::vector<int64_t> flat;  // (uid, distance) pairs
      for (const NodeDistance& nd : s.dists) {
        HM_ASSIGN_OR_RETURN(int64_t uid,
                            s.store->GetAttr(nd.node, Attr::kUniqueId));
        flat.insert(flat.end(), {uid, nd.distance});
      }
      return flat;
    });
    // /*11*/ + /*12*/ — attribute closures. closure1NAttSet runs twice
    // (it is self-inverse), restoring the hundred values it flipped.
    check("11 closure1NAttSum", kExact, [&](Side& s) {
      return Scalar(ops::Closure1NAttSum(s.store, start(s), nullptr));
    });
    check("11 closure1NAttSum visited", kExact, [&](Side& s) -> Answer {
      uint64_t visited = 0;
      HM_RETURN_IF_ERROR(
          ops::Closure1NAttSum(s.store, start(s), &visited).status());
      return std::vector<int64_t>{static_cast<int64_t>(visited)};
    });
    for (const char* pass : {"12 closure1NAttSet", "12 (inverse pass)"}) {
      check(pass, kExact, [&](Side& s) {
        return Scalar(ops::Closure1NAttSet(s.store, start(s)));
      });
    }
    check("12 post-restore sum", kExact, [&](Side& s) {
      return Scalar(ops::Closure1NAttSum(s.store, start(s), nullptr));
    });
    // /*09*/ — sequential scan of the whole test structure.
    check("09 seqScan", kExact, [&](Side& s) {
      return Scalar(ops::SeqScan(s.store, s.db.all_nodes));
    });
    // /*16*/ — text edit there and back, then compare the bytes.
    if (!db_expected.text_nodes.empty()) {
      const size_t text = pick(db_expected.text_nodes.size());
      in.text = uid_of(db_expected.text_nodes[text]);
      check("16 textNodeEdit", kExact, [&](Side& s) {
        return Scalar(ops::TextNodeEdit(s.store, s.db.text_nodes[text],
                                        "version1", "version-2"));
      });
      check("16 post-edit text bytes", kExact, [&](Side& s) -> Answer {
        const NodeRef node = s.db.text_nodes[text];
        HM_RETURN_IF_ERROR(
            ops::TextNodeEdit(s.store, node, "version-2", "version1")
                .status());
        return Bytes(s.store->GetText(node));
      });
    }
    // /*17*/ — form edit (a self-inverse invert): the serialized bitmap
    // after one application, restored by a second.
    if (!db_expected.form_nodes.empty()) {
      const size_t form = pick(db_expected.form_nodes.size());
      in.form = uid_of(db_expected.form_nodes[form]);
      check("17 formNodeEdit bitmap", kExact, [&](Side& s) -> Answer {
        const NodeRef node = s.db.form_nodes[form];
        HM_RETURN_IF_ERROR(ops::FormNodeEdit(s.store, node, 5, 7, 30, 25));
        auto bitmap = s.store->GetForm(node);
        HM_RETURN_IF_ERROR(ops::FormNodeEdit(s.store, node, 5, 7, 30, 25));
        if (!bitmap.ok()) return bitmap.status();
        return Bytes(bitmap->Serialize());
      });
    }
  }
  return report;
}

}  // namespace hm::analysis
