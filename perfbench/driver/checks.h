#ifndef PERFBENCH_DRIVER_CHECKS_H_
#define PERFBENCH_DRIVER_CHECKS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "storage/record_batch.h"

namespace perfbench {

/// Which closed-form check a query's result gets.
enum class CheckKind {
  kNone,       // no closed form (ad-hoc serving templates): reference only
  kWindow,     // date-window projection: row count, every f0/f1/f2 cell
  kTopTen,     // Q1: window projection ordered by f2 DESC LIMIT 10
  kCategorySum,  // Q2: per-category count and sum of f2 above a bound
  kIdsAbove,   // Q9: exact id set above a bound, p0 = id
  kSelectAll,  // F1: every row, f1 and f2 cells
  kGroupCount,  // F2: per-category counts over every row
  kJoinBelow,  // F3: each id below a bound exactly once
};

/// One query the benchmark runs, with what its checks need to know. The
/// expected values come from the generator's definitions alone:
///   $.f0 = row id, $.f1 = "cat" + id mod 10, $.f2 = (7 id + 2) mod 1000,
///   date = 20190101 + id mod 3.
struct BenchQuery {
  std::string name;  // "Q1".."Q10", "F1".."F3", "A1".."A3"
  std::string sql;
  std::string table;  // database.table
  uint64_t table_rows = 0;
  CheckKind check = CheckKind::kNone;
  /// JSONPath of each projected pN column, in order (window kinds).
  std::vector<std::string> column_paths;
  /// Bound literal of the query's predicate (kCategorySum, kIdsAbove,
  /// kJoinBelow).
  int64_t bound = 0;
};

/// Checks `batch` against the closed form of `query`. Returns an empty
/// string when it holds, else a description of the first mismatch.
std::string CheckClosedForm(const BenchQuery& query,
                            const maxson::storage::RecordBatch& batch);

/// Copies of `batch` with one cell changed (in the column `column`, at the
/// middle row) and with the middle row dropped; the self-test feeds these
/// to every check and requires each to report them.
maxson::storage::RecordBatch WithOneCellChanged(
    const maxson::storage::RecordBatch& batch, size_t column);
maxson::storage::RecordBatch WithOneRowDropped(
    const maxson::storage::RecordBatch& batch);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_CHECKS_H_
