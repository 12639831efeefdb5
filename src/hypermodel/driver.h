#ifndef HM_HYPERMODEL_DRIVER_H_
#define HM_HYPERMODEL_DRIVER_H_

#include <string>
#include <string_view>
#include <vector>

#include "hypermodel/generator.h"
#include "hypermodel/store.h"
#include "telemetry/metrics.h"
#include "util/status.h"

namespace hm {

/// The twenty benchmark operations, in the paper's numbering.
enum class OpId {
  kNameLookup = 0,        // /*01*/
  kNameOidLookup,         // /*02*/
  kRangeLookupHundred,    // /*03*/
  kRangeLookupMillion,    // /*04*/
  kGroupLookup1N,         // /*05A*/
  kGroupLookupMN,         // /*05B*/
  kGroupLookupMNAtt,      // /*06*/
  kRefLookup1N,           // /*07A*/
  kRefLookupMN,           // /*07B*/
  kRefLookupMNAtt,        // /*08*/
  kSeqScan,               // /*09*/
  kClosure1N,             // /*10*/
  kClosure1NAttSum,       // /*11*/
  kClosure1NAttSet,       // /*12*/
  kClosure1NPred,         // /*13*/
  kClosureMN,             // /*14*/
  kClosureMNAtt,          // /*15*/
  kTextNodeEdit,          // /*16*/
  kFormNodeEdit,          // /*17*/
  kClosureMNAttLinkSum,   // /*18*/
};

/// "01 nameLookup", "05A groupLookup1N", ...
std::string_view OpName(OpId op);

/// All operations in paper order.
const std::vector<OpId>& AllOps();

/// Protocol parameters (§6 steps a-e).
struct DriverConfig {
  /// Operations per run; the paper uses 50.
  int iterations = 50;
  /// Seed for input selection — the same seed selects the same inputs
  /// on every backend, making runs comparable.
  uint64_t seed = 7;
  /// Traversal depth for the M-N-attribute closures (run-time
  /// parameter; the paper uses 25).
  int closure_depth = 25;
};

/// Timing for one operation: the cold run (fresh caches), the commit,
/// and the warm repetition of the same inputs, normalized to
/// milliseconds per node returned/involved as the paper specifies.
struct OpResult {
  OpId op;
  std::string op_name;
  std::string backend;
  int level = 0;
  double cold_total_ms = 0;
  double warm_total_ms = 0;
  uint64_t cold_nodes = 0;
  uint64_t warm_nodes = 0;
  /// Telemetry registry deltas over each timed phase (what the run
  /// did, not process totals): the §5.3 cold/warm claim is checkable
  /// here — a cold run shows `storage.buffer_pool.misses`, the warm
  /// re-run mostly hits. Embedded per result by Report::PrintJson.
  telemetry::Snapshot cold_stats;
  telemetry::Snapshot warm_stats;

  double cold_ms_per_node() const {
    return cold_nodes == 0 ? 0 : cold_total_ms / static_cast<double>(cold_nodes);
  }
  double warm_ms_per_node() const {
    return warm_nodes == 0 ? 0 : warm_total_ms / static_cast<double>(warm_nodes);
  }
};

/// Executes the benchmark protocol against one backend and one
/// generated test database:
///   (a) select `iterations` random inputs,
///   (b) run the operation over them — the cold run,
///   (c) commit,
///   (d) repeat with the same inputs — the warm run (cache effect),
///   (e) close the database (drop caches) before the next operation.
class Driver {
 public:
  Driver(HyperStore* store, const TestDatabase* db, DriverConfig config)
      : store_(store), db_(db), config_(config) {}

  /// Runs a single operation through the full protocol.
  util::Result<OpResult> Run(OpId op);

  /// Runs every operation in paper order.
  util::Result<std::vector<OpResult>> RunAll();

 private:
  struct RunTotals {
    double total_ms = 0;
    uint64_t nodes = 0;
  };

  /// Executes one timed run (50 iterations + commit). `warm` selects
  /// the edit direction for textNodeEdit.
  util::Status TimedRun(OpId op, bool warm, RunTotals* totals);

  /// Deterministic input refs for the operation (step a), or
  /// FailedPrecondition when the database has no node the op can
  /// start from.
  util::Result<std::vector<uint64_t>> SelectInputs(OpId op) const;

  HyperStore* store_;
  const TestDatabase* db_;
  DriverConfig config_;
};

}  // namespace hm

#endif  // HM_HYPERMODEL_DRIVER_H_
