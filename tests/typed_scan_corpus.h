// A physical-column table for the differential suites' typed-scan tests.
//
// The scan walks a filter's physical columns straight into typed arrays (text
// and bytes as views into the row bytes) and boxes only its survivors, so
// this corpus aims at what that walk and the typed VM kernels can get wrong:
//   - every physical type: INT, DOUBLE, BOOL, TEXT, BYTES;
//   - NULL-heavy rows and a 300-row block where every filterable column is
//     NULL (all-NULL batches at every batch size up to 256);
//   - text of at most 15 characters (inline std::string), longer text and
//     the empty string;
//   - NaN, -0.0, +0.0 and INT64_MIN (compared and offset by +1 only:
//     negating it or subtracting from it overflows on both evaluators);
//   - rows written before an ADD COLUMN, which encode fewer slots than the
//     schema has (short arity), and a middle column dropped after rows were
//     written with values in it;
//   - enough rows (2,600) for several scan chunks and Gather morsels, and
//     filters passing about half the rows, so a probe round's survivors
//     overflow the batch and the scan rewinds.
// `Queries` lists filters over those columns that run on the typed
// kernels (col-cmp-literal, BETWEEN, IS NULL, numeric col-col and
// arithmetic), on the boxed paths (LIKE, IN, text col-col, NOT, ||) and
// through fork/join regions (CASE, COALESCE, IN with computed items), each
// with NULL semantics on both sides.

#ifndef SINEW_TESTS_TYPED_SCAN_CORPUS_H_
#define SINEW_TESTS_TYPED_SCAN_CORPUS_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/database.h"
#include "engine/table.h"

namespace sinew::typed_scan {

inline constexpr const char* kTable = "typed_scan";
inline constexpr int kRows = 2600;

/// The value of column `name` in row `i`, or NULL.
inline engine::Datum Cell(const std::string& name, int i) {
  using engine::Datum;
  const bool null_block = i >= 700 && i < 1000;
  if (name == "i") {
    if (null_block || i % 7 == 3) return Datum::Null();
    if (i % 11 == 5) return Datum::Int(std::numeric_limits<int64_t>::min());
    return Datum::Int(i % 2 == 0 ? i : -i);
  }
  if (name == "d") {
    if (null_block || i % 5 == 1) return Datum::Null();
    switch (i % 9) {
      case 0: return Datum::Double(std::numeric_limits<double>::quiet_NaN());
      case 2: return Datum::Double(-0.0);
      case 4: return Datum::Double(0.0);
      default: return Datum::Double(i * 0.5 - 600);
    }
  }
  if (name == "b") {
    if (null_block || i % 4 == 2) return Datum::Null();
    return Datum::Bool(i % 3 == 0);
  }
  if (name == "s") {
    if (null_block || i % 6 == 4) return Datum::Null();
    switch (i % 5) {
      case 0: return Datum::Text("");
      case 1: return Datum::Text("s" + std::to_string(i % 13));
      case 2: return Datum::Text("exactly15chars_");
      default:
        return Datum::Text("a longer text value, row " +
                           std::to_string(i % 17));
    }
  }
  if (name == "mid") {
    return i % 2 == 0 ? Datum::Int(i) : Datum::Null();
  }
  if (name == "raw") {
    if (null_block || i % 3 == 1) return Datum::Null();
    return Datum::Bytes(std::string(static_cast<size_t>(i % 40), 'x'));
  }
  if (name == "late") {
    if (i % 4 == 0) return Datum::Null();
    return Datum::Int(i % 100);
  }
  if (name == "late_s") {
    if (i % 3 == 0) return Datum::Null();
    if (i % 2 == 0) return Datum::Text("s" + std::to_string(i % 13));
    return Datum::Text("a longer late text " + std::to_string(i % 5));
  }
  return Datum::Null();
}

/// Appends rows [from, to) with a cell for every live column of `table`.
inline Status AppendRows(engine::Table* table, int from, int to) {
  const engine::Schema schema = table->SchemaSnapshot();
  for (int i = from; i < to; ++i) {
    engine::DatumRow row;
    for (const engine::Column& col : schema.columns()) {
      row.push_back(col.dropped ? engine::Datum::Null() : Cell(col.name, i));
    }
    RETURN_NOT_OK(table->AppendRow(row).status());
  }
  return Status::OK();
}

/// Builds the table in `db`: rows [0, 900) before `late`/`late_s` exist,
/// [900, 1800) with them, and the rest after `mid`, a middle column, is
/// dropped; `raw` sits after `mid`, so walks to it skip `mid`'s old values.
inline Status Build(engine::Database* db) {
  using engine::Column;
  using engine::ColumnType;
  engine::Schema schema;
  RETURN_NOT_OK(schema.AddColumn(Column{"i", ColumnType::kInt, false}));
  RETURN_NOT_OK(schema.AddColumn(Column{"s", ColumnType::kText, false}));
  RETURN_NOT_OK(schema.AddColumn(Column{"mid", ColumnType::kInt, false}));
  RETURN_NOT_OK(schema.AddColumn(Column{"raw", ColumnType::kBytes, false}));
  RETURN_NOT_OK(schema.AddColumn(Column{"d", ColumnType::kDouble, false}));
  RETURN_NOT_OK(schema.AddColumn(Column{"b", ColumnType::kBool, false}));
  ASSIGN_OR_RETURN(engine::Table * table,
                   db->catalog()->CreateTable(kTable, std::move(schema)));
  RETURN_NOT_OK(AppendRows(table, 0, 900));
  RETURN_NOT_OK(table->AddColumn(Column{"late", ColumnType::kInt, false}));
  RETURN_NOT_OK(table->AddColumn(Column{"late_s", ColumnType::kText, false}));
  RETURN_NOT_OK(AppendRows(table, 900, 1800));
  RETURN_NOT_OK(table->DropColumn("mid"));
  RETURN_NOT_OK(AppendRows(table, 1800, kRows));
  return table->Analyze();
}

/// Scan filters (pushed into the scan) over every column and data shape
/// above; single-table, so the scalar oracle answers each one.
inline std::vector<std::string> Queries() {
  const std::string from = std::string(" FROM ") + kTable + " WHERE ";
  const char* filters[] = {
      // Typed kernels: col-cmp-literal, BETWEEN, IS [NOT] NULL.
      "i = 42", "i <> 42", "i >= 0", "i < -9000000000000000000",
      "i BETWEEN -100 AND 100", "i NOT BETWEEN -100 AND 100", "i IS NULL",
      "d = 0", "d < 0", "d <> 1.5", "d BETWEEN -1 AND 1", "d IS NOT NULL",
      "b = true", "b IS NULL", "s = ''", "s = 'exactly15chars_'",
      "s = 'a longer text value, row 3'", "s > 'b'", "s IS NULL",
      "raw IS NOT NULL", "late IS NULL", "late > 50", "late_s = 's3'",
      "late BETWEEN 10 AND 20",
      // Numeric col-col and arithmetic (typed when both sides are proven).
      "late < i", "i + 1 > 100", "d * 2 < 10", "i + late > 0",
      // Boxed paths: LIKE, IN, text col-col, NOT, ||.
      "s LIKE 'a longer%'", "s LIKE '%1'",
      "s IN ('', 's3', 'exactly15chars_')", "i IN (2, 4, -5, 42)",
      "s = late_s", "NOT b", "s || 'x' = 'x'",
      // Fork/join regions (CASE, COALESCE, IN with computed items) over
      // typed-primary columns.
      "CASE WHEN i < 0 THEN s ELSE late_s END = 's3'",
      "COALESCE(late_s, s, 'none') = 'none'", "COALESCE(i, late) > 10",
      "i IN (late, i + 1, 42)", "s NOT IN (late_s, s || 'x')",
      // Kleene logic over NULL-heavy columns; about half the rows survive.
      "i >= 0 AND s IS NOT NULL", "i > 10 OR s IS NULL",
      "b = false OR d IS NULL",
  };
  std::vector<std::string> out;
  for (const char* f : filters) {
    out.push_back("SELECT *" + from + f);
    out.push_back("SELECT i, s, raw" + from + f);
  }
  return out;
}

}  // namespace sinew::typed_scan

#endif  // SINEW_TESTS_TYPED_SCAN_CORPUS_H_
