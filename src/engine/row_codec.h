// Packed on-heap row encoding, in the spirit of a row-store tuple:
//
//   [varint ncols] [null bitmap, ceil(ncols/8) bytes] [values...]
//
// Values appear for non-null slots only, in slot order:
//   bool    1 byte
//   int     8-byte little-endian
//   double  8-byte little-endian
//   text    varint length + bytes
//   bytes   varint length + bytes
//
// The per-row ncols makes rows self-describing under schema evolution: a row
// encoded before AddColumn simply lacks the trailing slots, which decode as
// NULL — the property Sinew's incremental materializer depends on. Per the
// paper's Postgres rationale (Section 5), a NULL costs one bitmap bit, not
// column width.

#ifndef SINEW_ENGINE_ROW_CODEC_H_
#define SINEW_ENGINE_ROW_CODEC_H_

#include <string>
#include <string_view>

#include "common/result.h"
#include "engine/datum.h"
#include "engine/schema.h"

namespace sinew::engine {

/// Encodes a row. `row.size()` must equal `schema.num_slots()`; datum kinds
/// must match column types (or be null).
Result<std::string> EncodeRow(const Schema& schema, const DatumRow& row);

/// Decodes a row into exactly `schema.num_slots()` datums; slots beyond the
/// encoded ncols come back NULL.
Result<DatumRow> DecodeRow(const Schema& schema, std::string_view data);

/// Decodes a single slot without materializing the whole row (O(slot) walk).
Result<Datum> DecodeRowColumn(const Schema& schema, std::string_view data,
                              size_t slot);

/// The byte range of BYTES (or TEXT) slot `slot` inside `data`, without
/// copying it; a NULL slot (or one beyond the encoded arity) returns a view
/// with a null data pointer. Walks the row like DecodeRowSlots.
Result<std::string_view> RowSlotBytes(const Schema& schema,
                                      std::string_view data, size_t slot);

/// Projection-pushdown decode: fills only `slots` (ascending, unique) of
/// `row` (which must be pre-sized to schema.num_slots()); other slots are
/// left untouched. One sequential walk that stops after the last requested
/// slot and skips (without copying) everything in between.
Status DecodeRowSlots(const Schema& schema, std::string_view data,
                      const std::vector<size_t>& slots, DatumRow* row);

}  // namespace sinew::engine

#endif  // SINEW_ENGINE_ROW_CODEC_H_
