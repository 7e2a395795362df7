// Columnar shredder: builds a table's ColumnarSegment at flush/compaction
// time (paper hybrid thesis at segment granularity — frequent attributes go
// columnar, the row bytes stay authoritative for everything else). One walk
// per covered row feeds two kinds of strips:
//
//   - Reservoir strips. An attribute qualifies when it is
//     reservoir-resident (not materialized, not dirty), scalar-typed,
//     single-typed (a key observed with more than one type is excluded — its
//     comparisons are type-dependent and its values would split across
//     strips), and at least `min_density` dense. The shredder replays the
//     exact chain-extraction the executor performs — canonical object-id
//     prefix descent plus one ExtractMany header pass per row — so a strip
//     value is byte-for-byte what the batched extractor would have decoded.
//   - Physical strips. Every live kBool/kInt/kDouble/kText schema column
//     whose attribute is not mid-(de)materialization (NoBench's str1, str2,
//     num, thousandth once materialized) gets one strip column keyed by its
//     name, holding exactly the values the row bytes hold.
//
// Physical strips duplicate the table image, so the generation sidecar
// keeps only the reservoir strips; ShredPhysicalColumns rebuilds the
// physical ones from the loaded rows.

#ifndef SINEW_SINEW_COLUMNAR_SHREDDER_H_
#define SINEW_SINEW_COLUMNAR_SHREDDER_H_

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "engine/columnar.h"
#include "engine/table.h"
#include "sinew/catalog.h"

namespace sinew {

struct ShredOptions {
  /// Minimum fraction of rows carrying the attribute. 0 shreds every
  /// qualifying attribute — sparse attributes benefit most from zone-map
  /// skipping (an all-null strip skips for free), so the default is 0.
  double min_density = 0.0;
  /// Cap on shredded attributes per table, densest first.
  size_t max_columns = 4096;
};

/// Shreds rows [0, RowSlotCount) of `table` into a ColumnarSegment and
/// attaches it. Returns the attached segment, or nullptr when there is
/// nothing to shred (no rows, no reservoir column, no qualifying attribute
/// or physical column) or the table mutated while shredding (the stale
/// segment is discarded — shredding is an accelerator, never a correctness
/// requirement).
Result<std::shared_ptr<const engine::ColumnarSegment>> ShredAndAttachSegment(
    engine::Table* table, const AttributeCatalog& catalog,
    const std::string& table_name, const ShredOptions& options = {});

/// The physical strips ShredAndAttachSegment would build for rows
/// [0, row_count) of `table`, read under one shared latch acquisition: how a
/// segment loaded from a sidecar gets them back.
Result<std::vector<engine::StripColumn>> ShredPhysicalColumns(
    const engine::Table& table, const AttributeCatalog& catalog,
    const std::string& table_name, uint64_t row_count);

}  // namespace sinew

#endif  // SINEW_SINEW_COLUMNAR_SHREDDER_H_
