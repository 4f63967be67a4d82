#include "driver/checks.h"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <set>

namespace perfbench {

using maxson::storage::RecordBatch;
using maxson::storage::Value;

namespace {

std::string F0(uint64_t id) { return std::to_string(id); }
std::string F1(uint64_t id) { return "cat" + std::to_string(id % 10); }
std::string F2(uint64_t id) { return std::to_string((7 * id + 2) % 1000); }
bool InWindow(uint64_t id) { return id % 3 != 2; }  // dates 20190101..02

std::string Cell(const RecordBatch& b, size_t col, size_t row) {
  return b.column(col).GetValue(row).ToString();
}

bool ParseInt(const std::string& s, int64_t* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (end == nullptr || *end != '\0') return false;
  *out = v;
  return true;
}

std::string Where(const BenchQuery& q, size_t row) {
  return q.name + " row " + std::to_string(row) + ": ";
}

/// Reads column 0 of `row` as a row id of `q`'s table.
bool RowId(const BenchQuery& q, const RecordBatch& b, size_t row,
           uint64_t* id, std::string* error) {
  int64_t v = 0;
  if (!ParseInt(Cell(b, 0, row), &v) || v < 0 ||
      static_cast<uint64_t>(v) >= q.table_rows) {
    *error = Where(q, row) + "id '" + Cell(b, 0, row) + "' out of range";
    return false;
  }
  *id = static_cast<uint64_t>(v);
  return true;
}

/// Checks every projected $.f0/$.f1/$.f2 cell of `row` (columns 1..n map
/// to q.column_paths) against the row's id.
std::string CheckPathCells(const BenchQuery& q, const RecordBatch& b,
                           size_t row, uint64_t id) {
  for (size_t i = 0; i < q.column_paths.size(); ++i) {
    const std::string& path = q.column_paths[i];
    std::string want;
    if (path == "$.f0") {
      want = F0(id);
    } else if (path == "$.f1") {
      want = F1(id);
    } else if (path == "$.f2") {
      want = F2(id);
    } else {
      continue;
    }
    const std::string got = Cell(b, i + 1, row);
    if (got != want) {
      return Where(q, row) + path + " of id " + std::to_string(id) + " is '" +
             got + "', expected '" + want + "'";
    }
  }
  return "";
}

/// Checks that the ids in column 0 are exactly `expected` (each once) and
/// that every path cell matches its id.
std::string CheckIdSet(const BenchQuery& q, const RecordBatch& b,
                       const std::set<uint64_t>& expected) {
  if (b.num_rows() != expected.size()) {
    return q.name + ": " + std::to_string(b.num_rows()) + " rows, expected " +
           std::to_string(expected.size());
  }
  std::set<uint64_t> seen;
  for (size_t r = 0; r < b.num_rows(); ++r) {
    uint64_t id = 0;
    std::string error;
    if (!RowId(q, b, r, &id, &error)) return error;
    if (expected.count(id) == 0) {
      return Where(q, r) + "id " + std::to_string(id) + " not expected";
    }
    if (!seen.insert(id).second) {
      return Where(q, r) + "id " + std::to_string(id) + " repeated";
    }
    if (std::string e = CheckPathCells(q, b, r, id); !e.empty()) return e;
  }
  return "";
}

/// Checks per-category rows: column 0 the category, column 1 the count,
/// column 2 (when `sums` is non-empty) the sum.
std::string CheckCategories(const BenchQuery& q, const RecordBatch& b,
                            const std::map<std::string, int64_t>& counts,
                            const std::map<std::string, int64_t>& sums) {
  if (b.num_rows() != counts.size()) {
    return q.name + ": " + std::to_string(b.num_rows()) +
           " groups, expected " + std::to_string(counts.size());
  }
  std::set<std::string> seen;
  for (size_t r = 0; r < b.num_rows(); ++r) {
    const std::string cat = Cell(b, 0, r);
    auto it = counts.find(cat);
    if (it == counts.end() || !seen.insert(cat).second) {
      return Where(q, r) + "unexpected or repeated group '" + cat + "'";
    }
    int64_t n = 0;
    if (!ParseInt(Cell(b, 1, r), &n) || n != it->second) {
      return Where(q, r) + "count of " + cat + " is '" + Cell(b, 1, r) +
             "', expected " + std::to_string(it->second);
    }
    if (!sums.empty()) {
      int64_t s = 0;
      if (b.num_columns() < 3 || !ParseInt(Cell(b, 2, r), &s) ||
          s != sums.at(cat)) {
        return Where(q, r) + "sum of " + cat + " is '" +
               (b.num_columns() < 3 ? "" : Cell(b, 2, r)) + "', expected " +
               std::to_string(sums.at(cat));
      }
    }
  }
  return "";
}

}  // namespace

std::string CheckClosedForm(const BenchQuery& q, const RecordBatch& b) {
  const uint64_t n = q.table_rows;
  switch (q.check) {
    case CheckKind::kNone:
      return "";
    case CheckKind::kWindow: {
      std::set<uint64_t> expected;
      for (uint64_t id = 0; id < n; ++id) {
        if (InWindow(id)) expected.insert(id);
      }
      return CheckIdSet(q, b, expected);
    }
    case CheckKind::kTopTen: {
      std::vector<int64_t> f2;
      for (uint64_t id = 0; id < n; ++id) {
        if (InWindow(id)) {
          f2.push_back(static_cast<int64_t>((7 * id + 2) % 1000));
        }
      }
      std::sort(f2.rbegin(), f2.rend());
      f2.resize(std::min<size_t>(f2.size(), 10));
      if (b.num_rows() != f2.size()) {
        return q.name + ": " + std::to_string(b.num_rows()) +
               " rows, expected " + std::to_string(f2.size());
      }
      const auto f2_col = std::find(q.column_paths.begin(),
                                    q.column_paths.end(), "$.f2");
      if (f2_col == q.column_paths.end()) return q.name + ": no $.f2 column";
      const size_t col =
          1 + static_cast<size_t>(f2_col - q.column_paths.begin());
      std::set<uint64_t> seen;
      for (size_t r = 0; r < b.num_rows(); ++r) {
        uint64_t id = 0;
        std::string error;
        if (!RowId(q, b, r, &id, &error)) return error;
        if (!InWindow(id) || !seen.insert(id).second) {
          return Where(q, r) + "id " + std::to_string(id) +
                 " outside the window or repeated";
        }
        if (std::string e = CheckPathCells(q, b, r, id); !e.empty()) return e;
        if (Cell(b, col, r) != std::to_string(f2[r])) {
          return Where(q, r) + "top-ten $.f2 is '" + Cell(b, col, r) +
                 "', expected " + std::to_string(f2[r]);
        }
      }
      return "";
    }
    case CheckKind::kCategorySum: {
      std::map<std::string, int64_t> counts;
      std::map<std::string, int64_t> sums;
      for (uint64_t id = 0; id < n; ++id) {
        if (static_cast<int64_t>(id) <= q.bound) continue;
        ++counts[F1(id)];
        sums[F1(id)] += static_cast<int64_t>((7 * id + 2) % 1000);
      }
      return CheckCategories(q, b, counts, sums);
    }
    case CheckKind::kIdsAbove: {
      std::set<uint64_t> expected;
      for (uint64_t id = 0; id < n; ++id) {
        if (static_cast<int64_t>(id) > q.bound) expected.insert(id);
      }
      return CheckIdSet(q, b, expected);
    }
    case CheckKind::kSelectAll: {
      std::set<uint64_t> expected;
      for (uint64_t id = 0; id < n; ++id) expected.insert(id);
      return CheckIdSet(q, b, expected);
    }
    case CheckKind::kGroupCount: {
      std::map<std::string, int64_t> counts;
      for (uint64_t id = 0; id < n; ++id) ++counts[F1(id)];
      return CheckCategories(q, b, counts, {});
    }
    case CheckKind::kJoinBelow: {
      std::set<uint64_t> expected;
      for (uint64_t id = 0; id < n && static_cast<int64_t>(id) < q.bound;
           ++id) {
        expected.insert(id);
      }
      return CheckIdSet(q, b, expected);
    }
  }
  return q.name + ": unknown check";
}

RecordBatch WithOneCellChanged(const RecordBatch& batch, size_t column) {
  RecordBatch out(batch.schema());
  const size_t target = batch.num_rows() / 2;
  for (size_t r = 0; r < batch.num_rows(); ++r) {
    std::vector<Value> row = batch.GetRow(r);
    if (r == target && column < row.size()) {
      Value& v = row[column];
      if (v.is_int64()) {
        v = Value::Int64(v.int64_value() + 1);
      } else if (v.is_double()) {
        v = Value::Double(v.double_value() + 1);
      } else if (v.is_null()) {
        v = batch.column(column).type() == maxson::storage::TypeKind::kInt64
                ? Value::Int64(-1)
                : Value::String("x");
      } else {
        v = Value::String(v.ToString() + "x");
      }
    }
    out.AppendRow(row);
  }
  return out;
}

RecordBatch WithOneRowDropped(const RecordBatch& batch) {
  RecordBatch out(batch.schema());
  const size_t target = batch.num_rows() / 2;
  for (size_t r = 0; r < batch.num_rows(); ++r) {
    if (r != target) out.AppendRow(batch.GetRow(r));
  }
  return out;
}

}  // namespace perfbench
