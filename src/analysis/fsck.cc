#include "analysis/fsck.h"

#include <algorithm>
#include <ostream>
#include <unordered_set>

namespace hm::analysis {

namespace {

/// Per-level shape derived from the GeneratorConfig: level l holds
/// fanout^l nodes whose uniqueIds form the contiguous block
/// [uid_start, uid_start + size) — the generator numbers nodes in
/// level order, parent by parent.
struct LevelPlan {
  uint64_t size = 0;
  int64_t uid_start = 0;
};

std::vector<LevelPlan> PlanLevels(const GeneratorConfig& config) {
  std::vector<LevelPlan> plan(static_cast<size_t>(config.levels) + 1);
  uint64_t size = 1;
  int64_t uid = 1;
  for (auto& level : plan) {
    level.size = size;
    level.uid_start = uid;
    uid += static_cast<int64_t>(size);
    size *= static_cast<uint64_t>(config.fanout);
  }
  return plan;
}

/// The tree walk with all per-node checks. Collects violations until
/// the cap; `full()` turning true aborts outer loops.
class Checker {
 public:
  Checker(HyperStore* store, const FsckOptions& options)
      : store_(store), options_(options),
        plan_(PlanLevels(options.config)) {}

  FsckReport Run() {
    WalkTree();
    if (!full()) CheckDensity();
    report_.truncated = full();
    return std::move(report_);
  }

 private:
  struct Visit {
    NodeRef ref;
    std::string path;
  };

  bool full() const {
    return report_.violations.size() >= options_.max_violations;
  }

  void Add(InvariantClass cls, int64_t uid, const std::string& path,
           std::string detail) {
    if (full()) return;
    report_.violations.push_back(
        Violation{cls, uid, path, std::move(detail)});
  }

  /// GetAttr(kUniqueId) with a kStructure violation on failure.
  int64_t UidOf(NodeRef ref, const std::string& path) {
    auto uid = store_->GetAttr(ref, Attr::kUniqueId);
    if (!uid.ok()) {
      Add(InvariantClass::kStructure, 0, path,
          "GetAttr(uniqueId) failed: " + uid.status().ToString());
      return 0;
    }
    return *uid;
  }

  void WalkTree() {
    const GeneratorConfig& config = options_.config;
    auto root = store_->LookupUnique(1);
    if (!root.ok()) {
      Add(InvariantClass::kStructure, 1, "root",
          "no root: LookupUnique(1) failed: " + root.status().ToString());
      return;
    }
    std::vector<Visit> current{{*root, "root"}};
    for (int level = 0; level <= config.levels && !full(); ++level) {
      std::vector<Visit> next;
      next.reserve(current.size() * static_cast<size_t>(config.fanout));
      for (size_t i = 0; i < current.size() && !full(); ++i) {
        CheckNode(level, static_cast<int64_t>(i), current[i], &next);
      }
      current = std::move(next);
    }
  }

  /// All checks for the node at `visit`, position `index` of `level`
  /// (level order). Appends its children to `next`.
  void CheckNode(int level, int64_t index, const Visit& visit,
                 std::vector<Visit>* next) {
    const GeneratorConfig& config = options_.config;
    const bool is_leaf = level == config.levels;
    const NodeRef ref = visit.ref;
    const std::string& path = visit.path;
    const int64_t uid = UidOf(ref, path);
    ++report_.nodes_checked;

    // --- uniqueId: range, uniqueness, index inversion ----------------
    const int64_t total =
        plan_.back().uid_start + static_cast<int64_t>(plan_.back().size) - 1;
    if (uid < 1 || uid > total) {
      Add(InvariantClass::kUniqueId, uid, path,
          "uniqueId " + std::to_string(uid) + " outside dense range 1.." +
              std::to_string(total));
    } else if (!seen_uids_.insert(uid).second) {
      Add(InvariantClass::kUniqueId, uid, path,
          "duplicate uniqueId " + std::to_string(uid));
    } else {
      auto looked_up = store_->LookupUnique(uid);
      if (!looked_up.ok() || *looked_up != ref) {
        Add(InvariantClass::kUniqueId, uid, path,
            "LookupUnique(" + std::to_string(uid) +
                ") does not invert GetAttr(uniqueId)");
      }
    }

    // --- kind: internal levels vs. text/form leaf spacing ------------
    auto kind = store_->GetKind(ref);
    if (!kind.ok()) {
      Add(InvariantClass::kStructure, uid, path,
          "GetKind failed: " + kind.status().ToString());
    } else if (!is_leaf) {
      if (*kind != NodeKind::kInternal) {
        Add(InvariantClass::kLeafKind, uid, path,
            std::string("non-leaf node has kind ") +
                std::string(NodeKindName(*kind)));
      }
    } else {
      // Leaf-level position == global leaf creation index, so the
      // form spacing is a pure function of `index`.
      const bool expect_form =
          (index % config.leaves_per_form) == (config.leaves_per_form - 1);
      const NodeKind expected =
          expect_form ? NodeKind::kForm : NodeKind::kText;
      if (*kind != expected) {
        Add(InvariantClass::kLeafKind, uid, path,
            std::string("leaf ") + std::to_string(index) + " should be " +
                std::string(NodeKindName(expected)) + ", found " +
                std::string(NodeKindName(*kind)));
      } else if (config.generate_contents) {
        CheckContents(ref, uid, path, expected);
      }
    }

    if (options_.check_attr_ranges) CheckAttrRanges(ref, uid, path);
    CheckChildren(level, index, visit, uid, next);
    CheckParts(level, visit, uid);
    CheckRefs(visit, uid);
  }

  void CheckContents(NodeRef ref, int64_t uid, const std::string& path,
                     NodeKind kind) {
    if (kind == NodeKind::kText) {
      auto text = store_->GetText(ref);
      if (!text.ok()) {
        Add(InvariantClass::kContents, uid, path,
            "text node has no text: " + text.status().ToString());
      } else if (text->empty()) {
        Add(InvariantClass::kContents, uid, path, "text node is empty");
      }
      return;
    }
    auto form = store_->GetForm(ref);
    if (!form.ok()) {
      Add(InvariantClass::kContents, uid, path,
          "form node has no bitmap: " + form.status().ToString());
      return;
    }
    const GeneratorConfig& config = options_.config;
    for (uint32_t dim : {form->width(), form->height()}) {
      if (dim < config.form_min_dim || dim > config.form_max_dim) {
        Add(InvariantClass::kContents, uid, path,
            "bitmap dimension " + std::to_string(dim) + " outside " +
                std::to_string(config.form_min_dim) + ".." +
                std::to_string(config.form_max_dim));
      }
    }
  }

  void CheckAttrRanges(NodeRef ref, int64_t uid, const std::string& path) {
    static constexpr struct {
      Attr attr;
      const char* name;
      int64_t lo, hi;
    } kRanges[] = {
        {Attr::kTen, "ten", 1, 10},
        {Attr::kHundred, "hundred", 1, 100},
        {Attr::kThousand, "thousand", 1, 1000},
        {Attr::kMillion, "million", 1, 1000000},
    };
    for (const auto& range : kRanges) {
      auto value = store_->GetAttr(ref, range.attr);
      if (!value.ok()) {
        Add(InvariantClass::kStructure, uid, path,
            std::string("GetAttr(") + range.name +
                ") failed: " + value.status().ToString());
      } else if (*value < range.lo || *value > range.hi) {
        Add(InvariantClass::kAttrRange, uid, path,
            std::string(range.name) + " = " + std::to_string(*value) +
                " outside [" + std::to_string(range.lo) + ", " +
                std::to_string(range.hi) + "]");
      }
    }
  }

  void CheckChildren(int level, int64_t index, const Visit& visit,
                     int64_t uid, std::vector<Visit>* next) {
    const GeneratorConfig& config = options_.config;
    const bool is_leaf = level == config.levels;
    std::vector<NodeRef> children;
    util::Status status = store_->Children(visit.ref, &children);
    if (!status.ok()) {
      Add(InvariantClass::kStructure, uid, visit.path,
          "Children failed: " + status.ToString());
      return;
    }
    if (is_leaf) {
      if (!children.empty()) {
        Add(InvariantClass::kTree, uid, visit.path,
            "leaf has " + std::to_string(children.size()) + " children");
      }
      return;
    }
    if (children.size() != static_cast<size_t>(config.fanout)) {
      Add(InvariantClass::kTree, uid, visit.path,
          "fan-out " + std::to_string(children.size()) + ", expected " +
              std::to_string(config.fanout));
    }
    // The generator creates the children of the i-th node of a level
    // consecutively, so child c's uniqueId is exactly
    // next_level.uid_start + i * fanout + c; any shuffle, gap or
    // cross-parent swap shows up here.
    const int64_t block_start =
        plan_[static_cast<size_t>(level) + 1].uid_start +
        index * config.fanout;
    for (size_t c = 0; c < children.size() && !full(); ++c) {
      const std::string child_path =
          visit.path + "/" + std::to_string(c);
      const int64_t child_uid = UidOf(children[c], child_path);
      if (c < static_cast<size_t>(config.fanout) &&
          child_uid != block_start + static_cast<int64_t>(c)) {
        Add(InvariantClass::kTree, child_uid, child_path,
            "child index " + std::to_string(c) + " holds uid " +
                std::to_string(child_uid) + ", creation order expects " +
                std::to_string(block_start + static_cast<int64_t>(c)));
      }
      auto parent = store_->Parent(children[c]);
      if (!parent.ok()) {
        Add(InvariantClass::kStructure, child_uid, child_path,
            "Parent failed: " + parent.status().ToString());
      } else if (*parent != visit.ref) {
        Add(InvariantClass::kTree, child_uid, child_path,
            "Parent() does not return the structural parent (uid=" +
                std::to_string(uid) + ")");
      }
      next->push_back(Visit{children[c], child_path});
    }
    if (level == 0) {
      auto parent = store_->Parent(visit.ref);
      if (parent.ok() && *parent != kInvalidNode) {
        Add(InvariantClass::kTree, uid, visit.path,
            "root has a parent");
      }
    }
  }

  void CheckParts(int level, const Visit& visit, int64_t uid) {
    const GeneratorConfig& config = options_.config;
    std::vector<NodeRef> parts;
    util::Status status = store_->Parts(visit.ref, &parts);
    if (!status.ok()) {
      Add(InvariantClass::kStructure, uid, visit.path,
          "Parts failed: " + status.ToString());
      return;
    }
    if (level == config.levels) {
      if (!parts.empty()) {
        Add(InvariantClass::kParts, uid, visit.path,
            "leaf owns " + std::to_string(parts.size()) + " parts");
      }
      return;
    }
    if (parts.size() != static_cast<size_t>(config.parts_per_node)) {
      Add(InvariantClass::kParts, uid, visit.path,
          "owns " + std::to_string(parts.size()) + " parts, expected " +
              std::to_string(config.parts_per_node));
    }
    const LevelPlan& below = plan_[static_cast<size_t>(level) + 1];
    for (NodeRef part : parts) {
      if (full()) return;
      const int64_t part_uid = UidOf(part, visit.path);
      if (part_uid < below.uid_start ||
          part_uid >= below.uid_start + static_cast<int64_t>(below.size)) {
        Add(InvariantClass::kParts, uid, visit.path,
            "part uid " + std::to_string(part_uid) +
                " is not on the next level (uids " +
                std::to_string(below.uid_start) + ".." +
                std::to_string(below.uid_start +
                               static_cast<int64_t>(below.size) - 1) +
                ")");
      }
      std::vector<NodeRef> owners;
      util::Status inverse = store_->PartOf(part, &owners);
      if (!inverse.ok()) {
        Add(InvariantClass::kStructure, part_uid, visit.path,
            "PartOf failed: " + inverse.ToString());
      } else if (std::find(owners.begin(), owners.end(), visit.ref) ==
                 owners.end()) {
        Add(InvariantClass::kParts, uid, visit.path,
            "part uid " + std::to_string(part_uid) +
                " does not list this node in PartOf (broken inverse)");
      }
    }
  }

  void CheckRefs(const Visit& visit, int64_t uid) {
    std::vector<RefEdge> edges;
    util::Status status = store_->RefsTo(visit.ref, &edges);
    if (!status.ok()) {
      Add(InvariantClass::kStructure, uid, visit.path,
          "RefsTo failed: " + status.ToString());
      return;
    }
    if (edges.size() != 1) {
      Add(InvariantClass::kRefs, uid, visit.path,
          "refTo out-degree " + std::to_string(edges.size()) +
              ", expected 1");
    }
    for (const RefEdge& edge : edges) {
      if (full()) return;
      for (int64_t offset : {edge.offset_from, edge.offset_to}) {
        if (offset < 0 || offset > 9) {
          Add(InvariantClass::kRefs, uid, visit.path,
              "ref offset " + std::to_string(offset) + " outside 0..9");
        }
      }
      std::vector<RefEdge> inverse;
      util::Status from = store_->RefsFrom(edge.node, &inverse);
      if (!from.ok()) {
        Add(InvariantClass::kStructure, uid, visit.path,
            "RefsFrom failed: " + from.ToString());
        continue;
      }
      bool found = false;
      for (const RefEdge& back : inverse) {
        if (back.node == visit.ref) {
          found = true;
          break;
        }
      }
      if (!found) {
        Add(InvariantClass::kRefs, uid, visit.path,
            "ref target does not list this node in RefsFrom "
            "(broken inverse)");
      }
    }
  }

  /// After a complete walk, every uniqueId 1..N must have been seen.
  void CheckDensity() {
    const int64_t total =
        plan_.back().uid_start + static_cast<int64_t>(plan_.back().size) - 1;
    if (static_cast<int64_t>(seen_uids_.size()) == total) return;
    for (int64_t uid = 1; uid <= total && !full(); ++uid) {
      if (!seen_uids_.contains(uid)) {
        Add(InvariantClass::kUniqueId, uid, "",
            "uniqueId " + std::to_string(uid) +
                " missing from the tree (density broken)");
      }
    }
  }

  HyperStore* store_;
  const FsckOptions& options_;
  std::vector<LevelPlan> plan_;
  FsckReport report_;
  std::unordered_set<int64_t> seen_uids_;
};

}  // namespace

const char* InvariantClassName(InvariantClass cls) {
  switch (cls) {
    case InvariantClass::kStructure:
      return "structure";
    case InvariantClass::kUniqueId:
      return "unique-id";
    case InvariantClass::kTree:
      return "tree";
    case InvariantClass::kParts:
      return "parts";
    case InvariantClass::kRefs:
      return "refs";
    case InvariantClass::kLeafKind:
      return "leaf-kind";
    case InvariantClass::kContents:
      return "contents";
    case InvariantClass::kAttrRange:
      return "attr-range";
  }
  return "?";
}

std::string Violation::ToString() const {
  std::string out = InvariantClassName(cls);
  out += " at ";
  out += path.empty() ? "?" : path;
  out += " (uid=" + std::to_string(unique_id) + "): ";
  out += detail;
  return out;
}

size_t FsckReport::CountOf(InvariantClass cls) const {
  size_t n = 0;
  for (const Violation& v : violations) {
    if (v.cls == cls) ++n;
  }
  return n;
}

void FsckReport::PrintTo(std::ostream& os) const {
  os << "fsck: " << nodes_checked << " nodes checked, "
     << violations.size() << " violation(s)"
     << (truncated ? " (truncated)" : "") << "\n";
  for (const Violation& v : violations) {
    os << "  " << v.ToString() << "\n";
  }
}

util::Result<FsckReport> RunFsck(HyperStore* store,
                                 const FsckOptions& options) {
  if (store == nullptr) {
    return util::Status::InvalidArgument("fsck requires a store");
  }
  if (options.config.levels < 1 || options.config.fanout < 1) {
    return util::Status::InvalidArgument(
        "fsck config needs levels and fanout >= 1");
  }
  Checker checker(store, options);
  return checker.Run();
}

}  // namespace hm::analysis
