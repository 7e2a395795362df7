// Column strip: the unit of a table's columnar segment. A strip covers a
// fixed-size run of rows for one (attribute, type) pair, or for one
// physical column, and holds, column-major:
//
//   - a presence bitmap (bit i set = row first_row+i has a value),
//   - a rank-dense typed value vector (fixed-width bools/ints/doubles, or
//     offset+blob packed strings) holding only the present rows' values,
//   - a zone map: the min/max value among present rows, plus a has_nan
//     flag for double strips (NaN poisons ordered comparison, so a strip
//     containing NaN is never zone-skippable).
//
// Strips live only in memory: they are rebuilt from the rows, never
// written to disk. The struct is engine-agnostic (no Datum/Table types):
// the engine layer wraps strips with rank indexes and Datum zone bounds
// (engine/columnar.h).

#ifndef SINEW_COMMON_COLUMN_STRIP_H_
#define SINEW_COMMON_COLUMN_STRIP_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/value.h"

namespace sinew {

/// One column strip. Only scalar types are strippable — objects, arrays
/// and multi-typed attributes stay in the row reservoir.
struct ColumnStrip {
  uint64_t first_row = 0;  ///< rid of the strip's first covered row
  uint32_t row_count = 0;  ///< rows covered (present or not), >= 1

  ValueType type = ValueType::kNull;  ///< kBool/kInt/kDouble/kString only

  /// Presence bitmap, ceil(row_count/64) words; bit i of word i/64 set when
  /// row first_row+i carries a value in this strip.
  std::vector<uint64_t> presence;

  /// Rank-dense values: exactly one entry per set presence bit, in row
  /// order. Only the vector matching `type` is populated.
  std::vector<uint8_t> bools;
  std::vector<int64_t> ints;
  std::vector<double> doubles;
  /// Strings pack as non_null+1 offsets into str_blob (offsets[0] == 0,
  /// monotone, offsets.back() == str_blob.size()); empty when non_null == 0.
  std::vector<uint32_t> str_offsets;
  std::string str_blob;

  /// True when a double strip contains any NaN value; such strips are never
  /// zone-skippable because NaN breaks ordered comparison.
  bool has_nan = false;

  /// Zone map over present rows; meaningless when the strip is all-null.
  /// For strings these hold the raw bytes.
  bool zone_valid = false;
  uint8_t zone_min_bool = 0, zone_max_bool = 0;
  int64_t zone_min_int = 0, zone_max_int = 0;
  double zone_min_double = 0, zone_max_double = 0;
  std::string zone_min_str, zone_max_str;

  void SetPresent(uint32_t i) { presence[i / 64] |= uint64_t{1} << (i % 64); }
};

}  // namespace sinew

#endif  // SINEW_COMMON_COLUMN_STRIP_H_
