#ifndef HM_PERFBENCH_PROTOCOL_H_
#define HM_PERFBENCH_PROTOCOL_H_

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "hypermodel/driver.h"
#include "hypermodel/generator.h"
#include "hypermodel/store.h"
#include "tracer.h"
#include "util/random.h"
#include "util/status.h"

namespace hm::perfbench {

/// The end-to-end metric group an operation reports into: lookups are
/// ops 01-08, the scan is op 09, the read-only closures are 10, 11, 13,
/// 14, 15 and 18, and the edits are 12, 16 and 17.
enum class OpGroup { kLookup, kScan, kClosure, kEdit };
OpGroup GroupOf(OpId op);

/// Inputs of one phase, as positions into the TestDatabase vectors (or
/// plain values), so two stores generated from the same seed receive
/// the same logical inputs whatever their refs look like.
struct PhaseInputs {
  std::vector<int64_t> values;
  std::vector<size_t> starts;  // closure1NPred's start nodes
};

/// Draws `iterations` inputs for `op` the way §6 specifies (a random
/// node, a random level-3 node, ...). Deterministic in `seed`.
PhaseInputs SelectInputs(const TestDatabase& db, OpId op, int iterations,
                         uint64_t seed);

/// What one call returned.
struct CallOutput {
  std::vector<NodeRef> refs;
  std::vector<NodeDistance> distances;  // op 18
  NodeRef ref = kInvalidNode;           // op 07A
  int64_t scalar = 0;
  uint64_t nodes = 0;
};

/// One timed phase (§6 steps b or d): Begin, the calls, Commit.
struct PhaseRun {
  std::vector<double> call_us;
  std::vector<CallOutput> outputs;
  double begin_us = 0;
  double commit_us = 0;
  uint64_t nodes = 0;
  /// op 17: the edited form's serialized bitmap after the phase.
  std::string form_after;

  /// The paper's phase time: every call plus Begin and the commit.
  double total_ms() const;
  /// ms per node returned; 0 when the phase returned no node.
  double ms_per_node() const;
};

/// Runs phases of the protocol against one store. With a non-null
/// tracer that is enabled, each call is recorded as an op span.
class PhaseRunner {
 public:
  PhaseRunner(HyperStore* store, const TestDatabase* db, Tracer* tracer)
      : store_(store), db_(db), tracer_(tracer) {}

  /// Runs `op` over `inputs`. `warm` selects the text-edit direction
  /// (version1 -> version-2 cold, back warm) and `rect_seed` the form
  /// rectangles, so a cold+warm pair leaves the database unchanged.
  util::Result<PhaseRun> Run(OpId op, const PhaseInputs& inputs, bool warm,
                             uint64_t rect_seed, int closure_depth = 25);

 private:
  util::Status Call(OpId op, const PhaseInputs& inputs, size_t i, bool warm,
                    util::Rng* rects, int closure_depth, CallOutput* out);

  HyperStore* store_;
  const TestDatabase* db_;
  Tracer* tracer_;
};

/// Maps a ref to a store-independent key (its position in the
/// generated database, or its uniqueId).
using KeyFn = std::function<util::Result<int64_t>(NodeRef)>;

/// KeyFn by position in `db.all_nodes` (1-based; 0 for kInvalidNode).
class PositionKeys {
 public:
  explicit PositionKeys(const TestDatabase& db);
  util::Result<int64_t> operator()(NodeRef ref) const;

 private:
  std::unordered_map<NodeRef, int64_t> position_;
};

/// KeyFn by the uniqueId attribute read through `store`.
KeyFn UidKeys(HyperStore* store);

/// A store-independent digest of one call: node count, scalar result
/// and an order-preserving (or, for set-valued ops, sorted) hash of
/// the keys of the refs it returned.
struct CallDigest {
  uint64_t nodes = 0;
  int64_t scalar = 0;
  uint64_t keys_hash = 0;

  bool operator==(const CallDigest&) const = default;
};

util::Result<CallDigest> Digest(OpId op, const CallOutput& output,
                                const KeyFn& keys);

/// Number of calls of `a` and `b` (same op, same inputs, different
/// stores) whose digests differ, plus one when the op-17 bitmaps do.
/// A call whose refs cannot be keyed counts as a mismatch.
uint64_t CountMismatches(OpId op, const PhaseRun& a, const KeyFn& keys_a,
                         const PhaseRun& b, const KeyFn& keys_b);

}  // namespace hm::perfbench

#endif  // HM_PERFBENCH_PROTOCOL_H_
