#ifndef HM_HYPERMODEL_REPORT_H_
#define HM_HYPERMODEL_REPORT_H_

#include <iosfwd>
#include <string>
#include <vector>

#include "hypermodel/driver.h"
#include "hypermodel/generator.h"

namespace hm {

/// One row of the §5.3 database-creation table.
struct CreationRow {
  std::string backend;
  int level = 0;
  uint64_t nodes = 0;
  CreationTiming timing;
};

/// Formats benchmark output as the tables the paper's protocol
/// defines: operation x {cold, warm} ms-per-node, per level and
/// backend, plus the creation-time table of §5.3.
class Report {
 public:
  void AddOpResult(const OpResult& result) { op_results_.push_back(result); }
  void AddCreation(CreationRow row) {
    creation_rows_.push_back(std::move(row));
  }

  /// §5.3 table: ms per node / relationship for each creation phase.
  void PrintCreationTable(std::ostream& os) const;

  /// Operation table: one row per op, columns cold/warm ms-per-node
  /// grouped by backend, one block per database level.
  void PrintOpTable(std::ostream& os) const;

  /// Machine-readable CSV of every op result.
  void PrintCsv(std::ostream& os) const;

  /// Machine-readable JSON: `{"creation": [...], "results": [...]}`,
  /// one object per creation row / op result, same fields as the CSV.
  /// This is what `--json=<path>` writes and what the committed
  /// BENCH_*.json baselines contain.
  void PrintJson(std::ostream& os) const;

  const std::vector<OpResult>& op_results() const { return op_results_; }

 private:
  std::vector<OpResult> op_results_;
  std::vector<CreationRow> creation_rows_;
};

}  // namespace hm

#endif  // HM_HYPERMODEL_REPORT_H_
