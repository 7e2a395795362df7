// Columnar shredder: builds a table's ColumnarSegment, the in-memory strip
// index over its rows (paper hybrid thesis at segment granularity —
// frequent attributes go columnar, the row bytes stay authoritative for
// everything else). It runs wherever SinewDb::BuildColumnarSegments does:
// on demand, at each DurableDb flush, and once per DurableDb::Open. One
// walk per covered row feeds two kinds of strips:
//
//   - Reservoir strips. An attribute qualifies when it is
//     reservoir-resident (not materialized, not dirty), scalar-typed and
//     single-typed (a key observed with more than one type is excluded — its
//     comparisons are type-dependent and its values would split across
//     strips); past kMaxShredColumns the densest win. The shredder replays
//     the exact chain-extraction the executor performs — canonical object-id
//     prefix descent plus one ExtractMany header pass per row — so a strip
//     value is byte-for-byte what the batched extractor would have decoded.
//   - Physical strips. Every live kBool/kInt/kDouble/kText schema column
//     whose attribute is not mid-(de)materialization (NoBench's str1, str2,
//     num, thousandth once materialized) gets one strip column keyed by its
//     name, holding exactly the values the row bytes hold.
//
// Strips are never written to disk.

#ifndef SINEW_SINEW_COLUMNAR_SHREDDER_H_
#define SINEW_SINEW_COLUMNAR_SHREDDER_H_

#include <cstddef>
#include <memory>
#include <string>

#include "common/result.h"
#include "engine/columnar.h"
#include "engine/table.h"
#include "sinew/catalog.h"

namespace sinew {

/// Cap on shredded reservoir attributes per table, densest first.
inline constexpr size_t kMaxShredColumns = 4096;

/// Shreds rows [0, RowSlotCount) of `table` into a ColumnarSegment and
/// attaches it. Returns the attached segment, or nullptr when there is
/// nothing to shred (no rows, no reservoir column, no qualifying attribute
/// or physical column) or the table mutated while shredding (the stale
/// segment is discarded — shredding is an accelerator, never a correctness
/// requirement).
Result<std::shared_ptr<const engine::ColumnarSegment>> ShredAndAttachSegment(
    engine::Table* table, const AttributeCatalog& catalog,
    const std::string& table_name);

}  // namespace sinew

#endif  // SINEW_SINEW_COLUMNAR_SHREDDER_H_
