// Columnar segment: the engine-side view of a table's shredded column
// strips, an in-memory index over its rows. The sinew layer shreds rows
// [0, row_count) into kStripRows-sized ColumnStrips of two kinds:
//
//   - reservoir strips: one per frequent single-typed scalar attribute that
//     lives in the document reservoir, keyed by (source column, prefix
//     chain, attribute id, type) exactly as plan ExtractTargets name it;
//   - physical strips: one per clean scalar schema column (a materialized
//     attribute such as NoBench's str1 or num), keyed by column name.
//
// This header wraps the strips with rank indexes and Datum zone bounds so
// the executor can
//
//   - fill a cold chunk's typed columns, in the filter and the output phase
//     alike, straight from the strips' value vectors (presence-bitmap
//     scatter, text as views into the strip blob) without touching row
//     bytes — physical columns and strip-served virtual columns alike; this
//     typed fill is the only way a strip value reaches a scan batch, and
//   - skip whole strips whose zone map proves no row can match a pushed
//     comparison predicate (ZoneCanSkip).
//
// The row bytes stay authoritative: any attribute/row not covered here (hot
// memtable tail, rows written since the shred, rare or multi-typed
// attributes, columns dirty at shred time, a table not shredded since it
// was loaded) is read from the row, so a segment is purely an accelerator
// and dropping it is always correct. Segments never reach disk: a reopened
// store shreds its tables again (DurableDb::Open).

#ifndef SINEW_ENGINE_COLUMNAR_H_
#define SINEW_ENGINE_COLUMNAR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/column_strip.h"
#include "engine/datum.h"
#include "engine/expr.h"
#include "engine/row_batch.h"
#include "engine/type.h"

namespace sinew::engine {

/// Rows per strip. Matches kScanChunk so one scan chunk is one strip and the
/// zone-map check in the scan loop lands exactly on strip boundaries.
inline constexpr uint32_t kStripRows = 1024;

/// A strip plus the access structures the executor needs: Datum zone
/// bounds and a per-word rank index into the rank-dense value vectors.
struct StripRef {
  ColumnStrip strip;
  Datum zone_min;  ///< NULL when the strip is all-null
  Datum zone_max;
  /// rank[w] = number of presence bits set in words [0, w).
  std::vector<uint32_t> rank;
  uint32_t non_null = 0;

  bool AllPresent() const { return non_null == strip.row_count; }

  /// Index into the rank-dense value vectors of row (strip.first_row + i),
  /// or -1 when the row holds no value. `i` must be < strip.row_count.
  int64_t DenseIndex(uint32_t i) const {
    const uint64_t word = strip.presence[i / 64];
    const uint32_t bit = i % 64;
    if (((word >> bit) & 1) == 0) return -1;
    if (AllPresent()) return i;
    return rank[i / 64] + __builtin_popcountll(
                              word & ((uint64_t{1} << bit) - 1));
  }

  /// Text value `dense` of a string strip, as a view into its blob.
  std::string_view TextAt(int64_t dense) const {
    const uint32_t begin = strip.str_offsets[dense];
    return std::string_view(strip.str_blob)
        .substr(begin, strip.str_offsets[dense + 1] - begin);
  }

  /// Value of row (strip.first_row + i), NULL when absent. `i` must be
  /// < strip.row_count.
  Datum GetDatum(uint32_t i) const;
};

/// Builds the rank index and zone Datums for a finished strip.
StripRef MakeStripRef(ColumnStrip strip);

/// Append helpers for strip construction (shredder, tests): mark row-offset
/// `i` present, push the value rank-dense, and fold it into the zone map.
/// The strip's presence vector must already be sized for its row_count.
void StripAppend(ColumnStrip* s, uint32_t i, bool v);
void StripAppend(ColumnStrip* s, uint32_t i, int64_t v);
void StripAppend(ColumnStrip* s, uint32_t i, double v);
void StripAppend(ColumnStrip* s, uint32_t i, std::string_view v);

/// True when the zone map proves no row of the strip can satisfy
/// `value <op> literal` (op a comparison; everything else returns false).
/// Sound against the executor's SQL comparison semantics: all-null strips
/// and kind-incomparable literals always skip (the comparison is NULL for
/// every row), double strips containing NaN and NaN literals never skip
/// (NaN defeats ordered bounds), and the bound checks reuse Datum::Compare
/// exactly as SqlCompare does.
bool ZoneCanSkip(const StripRef& strip, BinaryOp op, const Datum& literal);

/// All strips of one shredded attribute or physical column. A reservoir
/// strip column is keyed by the reservoir source column plus the canonical
/// attribute-id descent chain, so lookups from plan ExtractTargets are
/// exact: an ancestor-sourced chain (different source column / suffix
/// chain) simply misses and falls back to the row reservoir. A physical
/// strip column is keyed by its schema column's name alone (no prefix
/// chain, attribute id 0).
struct StripColumn {
  std::string source_column;        ///< "_data", or the physical column
  std::vector<uint32_t> prefix_ids; ///< object-typed ids of dotted prefixes
  uint32_t attr_id = 0;
  ValueType type = ValueType::kNull;
  /// strips[s] covers rows [s*kStripRows, min((s+1)*kStripRows, row_count)).
  std::vector<StripRef> strips;
};

/// Maps a strip's declared value type onto the batch ColTag domain: the
/// type of the typed-primary column a covered scan chunk fills from strips
/// of this column. Types without a monomorphic kernel map to kUnknown (no
/// strip holds one).
inline ColTag::Type StripTagType(ValueType type) {
  switch (type) {
    case ValueType::kBool: return ColTag::Type::kBool;
    case ValueType::kInt: return ColTag::Type::kInt;
    case ValueType::kDouble: return ColTag::Type::kDouble;
    case ValueType::kString: return ColTag::Type::kText;
    default: return ColTag::Type::kUnknown;
  }
}

/// Maps a schema column type onto the strip value type that shreds it
/// (kNull for kBytes: serialized documents and objects are never strips).
inline ValueType StripValueType(ColumnType type) {
  switch (type) {
    case ColumnType::kBool: return ValueType::kBool;
    case ColumnType::kInt: return ValueType::kInt;
    case ColumnType::kDouble: return ValueType::kDouble;
    case ColumnType::kText: return ValueType::kString;
    case ColumnType::kBytes: break;
  }
  return ValueType::kNull;
}

/// Immutable shredded image of rows [0, row_count) of one table, attached to
/// the Table as a shared_ptr snapshot together with the mutation version it
/// was shredded at. Readers snapshot both under the table latch. A write to
/// a covered row leaves the segment attached and stamps the row newer than
/// that version under the same exclusive latch (Table::RowStampUnlocked), so
/// under the shared latch each covered row either agrees with its strips or
/// is stale and is read from its bytes; DropColumn still detaches the whole
/// segment (a deleted row's bytes are empty; readers skip it before
/// consulting any strip).
class ColumnarSegment {
 public:
  ColumnarSegment(uint64_t row_count, std::vector<StripColumn> columns,
                  std::vector<StripColumn> physical = {});

  uint64_t row_count() const { return row_count_; }
  /// Reservoir strip columns.
  const std::vector<StripColumn>& columns() const { return columns_; }
  /// Physical strip columns, ascending by name.
  const std::vector<StripColumn>& physical() const { return physical_; }

  /// Exact-key lookup; nullptr = not shredded, use the row reservoir.
  /// O(log columns) through the (attr id, type) index.
  const StripColumn* Find(std::string_view source_column,
                          const std::vector<uint32_t>& prefix_ids,
                          uint32_t attr_id, ValueType type) const;

  /// The physical strip column of schema column `column` holding `type`;
  /// nullptr = not shredded, read the row bytes. A physical strip exists
  /// only for a column whose attribute was clean (not mid-move) when the
  /// rows were shredded, so a covered row that is not stale holds that
  /// attribute in this column and in no reservoir: a one-variant virtual
  /// column over it reads the strip alone.
  const StripColumn* FindPhysical(std::string_view column,
                                  ValueType type) const;

 private:
  uint64_t row_count_ = 0;
  std::vector<StripColumn> columns_;
  std::vector<StripColumn> physical_;
  /// Positions in columns_ sorted by (attr id, type): Find binary-searches
  /// the key and compares source column and prefix chain only within it.
  std::vector<uint32_t> by_attr_;
};

}  // namespace sinew::engine

#endif  // SINEW_ENGINE_COLUMNAR_H_
