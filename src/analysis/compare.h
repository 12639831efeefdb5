#ifndef HM_ANALYSIS_COMPARE_H_
#define HM_ANALYSIS_COMPARE_H_

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <tuple>
#include <vector>

#include "hypermodel/generator.h"
#include "hypermodel/store.h"
#include "util/status.h"

namespace hm::analysis {

// Two stores built from the same Generator seed hold the same logical
// database: position i of every TestDatabase vector, and each
// uniqueId, names the same node on both. Refs differ between stores (a
// fleet's carry a shard byte), so everything here compares uniqueIds.

/// The uniqueIds of `refs`, in order; the first failed read's status.
util::Result<std::vector<int64_t>> Uids(HyperStore* store,
                                        const std::vector<NodeRef>& refs);

/// Everything observable about one node, each ref written as its
/// uniqueId (0 for no node).
struct NodeImage {
  std::array<int64_t, 5> attrs{};  // uniqueId, ten, hundred, thousand, million
  NodeKind kind = NodeKind::kInternal;
  std::string contents;  // GetContents' bytes; empty for internal nodes
  int64_t parent = 0;
  std::vector<int64_t> children, parts, part_of;
  /// (uniqueId, offset_from, offset_to) per edge.
  std::vector<std::tuple<int64_t, int64_t, int64_t>> refs_to, refs_from;

  int64_t uid() const { return attrs[0]; }
  bool operator==(const NodeImage&) const = default;
};

/// The image of one node, or of every node of `db` in creation order;
/// the first failed read's status.
util::Result<NodeImage> ImageOf(HyperStore* store, NodeRef node);
util::Result<std::vector<NodeImage>> ImageOf(HyperStore* store,
                                             const TestDatabase& db);
/// The uniqueIds of the nodes whose images differ position by
/// position, in order; a node present on one side only counts.
std::vector<int64_t> DifferingUids(const std::vector<NodeImage>& expected,
                                   const std::vector<NodeImage>& got);

/// One check line of CompareOps.
struct CompareRecord {
  int probe = 0;  // 1-based
  std::string name;  // "05A groupLookup1N"
  bool ok = false;
  std::string detail;  // why not ok
};

/// What one probe drew, as the expected side's uniqueIds (0 when the
/// database has no such node).
struct ProbeInputs {
  int64_t any = 0, internal = 0, closure_start = 0, text = 0, form = 0;
  int64_t hundred_x = 0, million_x = 0;
};

struct CompareReport {
  std::vector<CompareRecord> records;  // probe by probe, in run order
  std::vector<ProbeInputs> inputs;     // one per probe

  /// The failed records' names, in order.
  std::vector<std::string> Failed() const;
  int failures() const { return static_cast<int>(Failed().size()); }
  bool ok() const { return failures() == 0; }
  /// " probe k/N" (with its inputs if one of its checks failed) before
  /// each probe's records, then "  <name> PASS" or
  /// "  <name> FAIL  <detail>" per record.
  void PrintTo(std::ostream& os) const;
};

/// Runs the twenty §6 operations `probes` times on both stores and
/// compares the answers: ordered results (children, closures) in
/// order, M-N and index results as sorted sets, scalars equal. Each
/// probe draws its inputs from one fixed-seed RNG as positions into
/// the TestDatabase vectors. The editing ops (11/12, 16, 17) run there
/// and back, so both stores end as they began. An op that fails on
/// either side is a FAIL record naming both statuses; nothing is
/// printed. A store that writes only inside a transaction needs the
/// caller's open.
CompareReport CompareOps(HyperStore* expected, const TestDatabase& db_expected,
                         HyperStore* got, const TestDatabase& db_got,
                         int probes);

}  // namespace hm::analysis

#endif  // HM_ANALYSIS_COMPARE_H_
