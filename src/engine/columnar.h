// Columnar segment: the engine-side view of a cold table segment's shredded
// column strips. At flush/compaction time the sinew layer shreds frequent
// reservoir attributes of rows [0, row_count) into kStripRows-sized
// ColumnStrips; this header wraps the decoded strips with rank indexes and
// Datum zone bounds so the executor can
//
//   - serve SinewExtract targets for cold rows straight out of the typed
//     value vectors (dense move when a strip has no nulls, bitmap-rank
//     scatter otherwise) without touching the row reservoir, and
//   - skip whole strips whose zone map proves no row can match a pushed
//     comparison predicate (ZoneCanSkip).
//
// The row reservoir stays authoritative: any attribute/row not covered here
// (hot memtable tail, rare or multi-typed attributes, a missing or corrupt
// sidecar) falls back to reservoir decode, so a segment is purely an
// accelerator and dropping it is always correct.

#ifndef SINEW_ENGINE_COLUMNAR_H_
#define SINEW_ENGINE_COLUMNAR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/column_strip.h"
#include "common/result.h"
#include "engine/datum.h"
#include "engine/expr.h"
#include "engine/row_batch.h"

namespace sinew::engine {

/// Rows per strip. Matches kScanChunk so one scan chunk is one strip and the
/// zone-map check in the scan loop lands exactly on strip boundaries.
inline constexpr uint32_t kStripRows = 1024;

/// A decoded strip plus the access structures the executor needs: Datum zone
/// bounds and a per-word rank index into the rank-dense value vectors.
struct StripRef {
  ColumnStrip strip;
  Datum zone_min;  ///< NULL when the strip is all-null
  Datum zone_max;
  /// rank[w] = number of presence bits set in words [0, w).
  std::vector<uint32_t> rank;
  uint32_t non_null = 0;

  bool AllPresent() const { return non_null == strip.row_count; }

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

/// All strips of one shredded attribute. Keyed by the reservoir source
/// column plus the canonical attribute-id descent chain, so lookups from
/// plan ExtractTargets are exact: an ancestor-sourced chain (different
/// source column / suffix chain) simply misses and falls back to the row
/// reservoir.
struct StripColumn {
  std::string source_column;        ///< reservoir column, e.g. "_data"
  std::vector<uint32_t> prefix_ids; ///< object-typed ids of dotted prefixes
  uint32_t attr_id = 0;
  ValueType type = ValueType::kNull;
  /// strips[s] covers rows [s*kStripRows, min((s+1)*kStripRows, row_count)).
  std::vector<StripRef> strips;

  Datum GetDatum(uint64_t rid) const;
};

/// Maps a strip's declared value type onto the batch ColTag domain, for
/// seeding RowBatch type tags when an extract output column is filled
/// entirely from strips of this column (plus NULLs for uncovered lanes).
/// Types without a monomorphic kernel map to kUnknown so the VM's profile
/// pass classifies on its own.
inline ColTag::Type StripTagType(ValueType type) {
  switch (type) {
    case ValueType::kBool: return ColTag::Type::kBool;
    case ValueType::kInt: return ColTag::Type::kInt;
    case ValueType::kDouble: return ColTag::Type::kDouble;
    case ValueType::kString: return ColTag::Type::kText;
    default: return ColTag::Type::kUnknown;
  }
}

/// Immutable shredded image of rows [0, row_count) of one table, attached to
/// the Table as a shared_ptr snapshot. Readers snapshot the pointer under
/// the table latch; UpdateRow detaches the whole segment before mutating any
/// covered row, so a non-null snapshot is always consistent with the row
/// bytes it was shredded from.
class ColumnarSegment {
 public:
  ColumnarSegment(uint64_t row_count, std::vector<StripColumn> columns);

  uint64_t row_count() const { return row_count_; }
  const std::vector<StripColumn>& columns() const { return columns_; }

  /// Exact-key lookup; nullptr = not shredded, use the row reservoir.
  /// O(log columns) through the (attr id, type) index.
  const StripColumn* Find(std::string_view source_column,
                          const std::vector<uint32_t>& prefix_ids,
                          uint32_t attr_id, ValueType type) const;

  /// Payload for the generation sidecar (persistence wraps it in a
  /// checksummed image footer; each strip additionally carries its own CRC).
  std::string Serialize() const;

  /// Strict inverse of Serialize: any corruption or inconsistency rejects
  /// the whole segment (callers fall back to the row reservoir).
  static Result<std::shared_ptr<const ColumnarSegment>> Deserialize(
      std::string_view payload);

 private:
  uint64_t row_count_ = 0;
  std::vector<StripColumn> columns_;
  /// Positions in columns_ sorted by (attr id, type): Find binary-searches
  /// the key and compares source column and prefix chain only within it.
  std::vector<uint32_t> by_attr_;
};

}  // namespace sinew::engine

#endif  // SINEW_ENGINE_COLUMNAR_H_
