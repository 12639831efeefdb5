#ifndef HM_ANALYSIS_FSCK_H_
#define HM_ANALYSIS_FSCK_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "hypermodel/generator.h"
#include "hypermodel/store.h"
#include "util/status.h"

namespace hm::analysis {

/// Invariant classes of the §5.2 generated database. Each fsck
/// violation names exactly one class, so corruption tests can assert
/// that a seeded defect is detected *as itself* and not as collateral
/// noise from a different check.
enum class InvariantClass : uint8_t {
  /// The walk itself failed: missing root, unreachable node, or a
  /// store operation returning an error mid-check.
  kStructure = 0,
  /// uniqueId must number the nodes densely 1..N, and LookupUnique
  /// must invert GetAttr(kUniqueId).
  kUniqueId = 1,
  /// The 1-N hierarchy must be a strict tree: every internal node has
  /// exactly `fanout` children stored in creation order (ascending,
  /// contiguous uniqueIds), every child's Parent() is its structural
  /// parent, and leaves have no children.
  kTree = 2,
  /// M-N parts: every internal node owns exactly `parts_per_node`
  /// parts, each targeting a node of the next level down; leaves own
  /// none; PartOf must be the exact inverse of Parts.
  kParts = 3,
  /// M-N attributed refs: every node has exactly one outgoing refTo
  /// edge, offsets lie in 0..9, and RefsFrom inverts RefsTo.
  kRefs = 4,
  /// Leaf typing: internal levels hold kInternal nodes; the leaf level
  /// holds TextNodes with every `leaves_per_form`-th a FormNode.
  kLeafKind = 5,
  /// Contents: text nodes carry text, form nodes carry a bitmap whose
  /// edge lengths lie within [form_min_dim, form_max_dim].
  kContents = 6,
  /// Attribute intervals of Figure 1: ten in [1,10], hundred in
  /// [1,100], thousand in [1,1000], million in [1,1000000]. Editing
  /// ops (/*16*/) legitimately move `hundred` out of range, so this
  /// class is gated by FsckOptions::check_attr_ranges.
  kAttrRange = 7,
};

const char* InvariantClassName(InvariantClass cls);

/// One detected invariant violation, anchored to a node by its path of
/// child indices from the root (e.g. "root/3/2") and its uniqueId.
struct Violation {
  InvariantClass cls;
  /// uniqueId of the offending node; 0 when unknown (walk failures).
  int64_t unique_id = 0;
  /// "root/3/2"-style location in the 1-N tree; empty when unknown.
  std::string path;
  std::string detail;

  /// "kTree at root/3/2 (uid=17): ..." one-liner.
  std::string ToString() const;
};

struct FsckOptions {
  /// Shape the database was generated with; all expectations (level
  /// sizes, fan-out, parts cardinality, form spacing) derive from it.
  GeneratorConfig config;
  /// Verify the Figure 1 attribute intervals. Disable after running
  /// editing operations (/*16*/ rewrites `hundred`).
  bool check_attr_ranges = true;
  /// Stop recording (and walking) after this many violations.
  size_t max_violations = 64;
};

struct FsckReport {
  std::vector<Violation> violations;
  /// Nodes visited by the tree walk.
  uint64_t nodes_checked = 0;
  /// True when the walk stopped early at max_violations.
  bool truncated = false;

  bool ok() const { return violations.empty(); }
  /// Violations of one class (mutation tests assert on exactness).
  size_t CountOf(InvariantClass cls) const;
  void PrintTo(std::ostream& os) const;
};

/// Walks the whole store through the public HyperStore surface (so it
/// runs identically against mem, oodb, rel and remote backends) and
/// checks every §4/§5.2 schema invariant. Returns a non-OK status only
/// when the check itself could not run (bad arguments); everything
/// found in the database — including a missing root — is reported as a
/// violation through the FsckReport.
util::Result<FsckReport> RunFsck(HyperStore* store,
                                 const FsckOptions& options);

}  // namespace hm::analysis

#endif  // HM_ANALYSIS_FSCK_H_
