// RowBatch: the unit of work on the vectorized execution path.
//
// A batch holds up to ExecOptions.batch_size rows in column-major order:
// cols[c][r] is column c of physical row r. The selection vector `sel` lists
// the physical rows that are logically alive, in ascending order — filters
// shrink it instead of compacting the columns, so a predicate pass touches
// only the selection vector and downstream operators skip dead lanes for
// free. Column vectors are reused across batches (Reset clears without
// freeing), so the steady-state pipeline allocates nothing per batch.
//
// The `tags` sidecar carries per-column, per-batch type evidence for the
// bytecode VM's monomorphic kernels: a column proven to hold exactly one
// value kind (plus NULLs) for the whole batch gets a ColTag with a null
// bitmap and the raw values rebucketed into a dense int64/double/bool array,
// so kernel loops run over 8-byte strides with no per-lane Datum kind
// dispatch. Tags are a pure cache over `cols` — producers seed them (the
// scan from strip metadata, the VM from a one-pass profile) and every
// mutation of the column data must invalidate them (Reset, AppendRow and
// MoveRow do; operators that write `cols` directly are responsible for
// their own columns).

#ifndef SINEW_ENGINE_ROW_BATCH_H_
#define SINEW_ENGINE_ROW_BATCH_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "engine/datum.h"

namespace sinew::engine {

/// Batch-scoped type evidence for one column. `kUnknown` means "not yet
/// profiled"; `kMixed` is a profiled negative (more than one non-null kind,
/// or a kind without a kernel) cached so the batch is never re-scanned.
struct ColTag {
  enum class Type : uint8_t { kUnknown = 0, kMixed, kInt, kDouble, kBool, kText };
  Type type = Type::kUnknown;
  bool has_nulls = false;
  /// Bit r set = physical row r is NULL. Sized (size+63)/64 when typed.
  std::vector<uint64_t> nulls;
  /// Row-dense raw values (NULL rows hold zero), one array per proven type;
  /// kText keeps no raw copy — string kernels read the Datum column.
  std::vector<int64_t> ints;
  std::vector<double> doubles;
  std::vector<uint8_t> bools;

  /// True when the column is proven monomorphic (kernel-eligible).
  bool typed() const { return type >= Type::kInt; }
  bool IsNull(uint32_t r) const {
    return has_nulls && ((nulls[r >> 6] >> (r & 63)) & 1) != 0;
  }
};

struct RowBatch {
  /// Column-major values; every column has `size` entries.
  std::vector<std::vector<Datum>> cols;
  /// Physical row indices that are logically alive, ascending.
  std::vector<uint32_t> sel;
  /// Physical row count (appended rows, dead or alive).
  size_t size = 0;

  /// Per-column type tags, parallel to `cols` (may be shorter: untagged
  /// suffix). Mutable because profiling is a cache fill over logically-const
  /// column data; batches are single-owner, never profiled concurrently.
  mutable std::vector<ColTag> tags;

  size_t num_cols() const { return cols.size(); }
  /// Logically alive rows.
  size_t active() const { return sel.size(); }

  /// The tag for column `c` if it has been profiled or seeded, else nullptr.
  const ColTag* TagFor(size_t c) const {
    if (c >= tags.size() || tags[c].type == ColTag::Type::kUnknown) {
      return nullptr;
    }
    return &tags[c];
  }

  /// Drops every tag (column data is about to change).
  void InvalidateTags() {
    if (!tags.empty()) tags.clear();
  }

  /// Drops column `c`'s tag only (a single column is about to change).
  void InvalidateTag(size_t c) {
    if (c < tags.size()) tags[c] = ColTag{};
  }

  /// One-pass type profile of column `c`: proves it monomorphic (one
  /// non-null kind) for this batch, filling the null bitmap and the raw
  /// value array, or caches kMixed so the scan never repeats. `want` seeds
  /// the expected type when the producer already knows it (strip-served
  /// columns) — the pass then only validates, it never classifies. The
  /// result is cached; returns the tag (never nullptr for a valid column).
  const ColTag* ProfileColumn(size_t c,
                              ColTag::Type want = ColTag::Type::kUnknown) const {
    if (c >= cols.size()) return nullptr;
    // Only as long as needed — wide batches (a scan's virtual columns) would
    // otherwise build and drop a tag per column every batch — but with room
    // for every column, so tags handed out earlier never move.
    if (tags.size() <= c) {
      tags.reserve(cols.size());
      tags.resize(c + 1);
    }
    ColTag& t = tags[c];
    if (t.type != ColTag::Type::kUnknown) return &t;
    const std::vector<Datum>& col = cols[c];
    t.has_nulls = false;
    t.nulls.assign((size + 63) / 64, 0);
    t.ints.clear();
    t.doubles.clear();
    t.bools.clear();
    ColTag::Type ty = want;
    for (size_t r = 0; r < size; ++r) {
      const Datum& d = col[r];
      if (d.is_null()) {
        t.nulls[r >> 6] |= uint64_t{1} << (r & 63);
        t.has_nulls = true;
        // Raw arrays stay row-dense: NULL rows hold a zero placeholder.
        switch (ty) {
          case ColTag::Type::kInt: t.ints.push_back(0); break;
          case ColTag::Type::kDouble: t.doubles.push_back(0); break;
          case ColTag::Type::kBool: t.bools.push_back(0); break;
          default: break;  // leading nulls backfill when the type is known
        }
        continue;
      }
      ColTag::Type m;
      switch (d.kind()) {
        case Datum::Kind::kInt: m = ColTag::Type::kInt; break;
        case Datum::Kind::kDouble: m = ColTag::Type::kDouble; break;
        case Datum::Kind::kBool: m = ColTag::Type::kBool; break;
        case Datum::Kind::kText: m = ColTag::Type::kText; break;
        default: m = ColTag::Type::kMixed; break;  // kBytes: no kernel
      }
      if (ty == ColTag::Type::kUnknown) {
        ty = m;
        // Backfill zero placeholders for the all-NULL prefix.
        if (ty == ColTag::Type::kInt) t.ints.assign(r, 0);
        if (ty == ColTag::Type::kDouble) t.doubles.assign(r, 0);
        if (ty == ColTag::Type::kBool) t.bools.assign(r, 0);
      }
      if (m != ty) {
        t = ColTag{};
        t.type = ColTag::Type::kMixed;
        return &t;
      }
      switch (ty) {
        case ColTag::Type::kInt: t.ints.push_back(d.int_value()); break;
        case ColTag::Type::kDouble: t.doubles.push_back(d.double_value()); break;
        case ColTag::Type::kBool:
          t.bools.push_back(d.bool_value() ? 1 : 0);
          break;
        default: break;  // kText: no raw copy
      }
    }
    // An all-NULL column is monomorphic under any type; kText avoids
    // allocating a raw array nobody will read.
    t.type = ty == ColTag::Type::kUnknown ? ColTag::Type::kText : ty;
    return &t;
  }

  /// Empties the batch and sets the column count, keeping the column
  /// vectors' capacity for reuse.
  void Reset(size_t num_columns) {
    cols.resize(num_columns);
    for (std::vector<Datum>& c : cols) c.clear();
    sel.clear();
    size = 0;
    tags.clear();
  }

  /// Appends one row (selected). On the first append the batch adopts the
  /// row's width, so row→batch adapters need not know the schema up front.
  void AppendRow(DatumRow&& row) {
    if (size == 0 && cols.size() != row.size()) {
      cols.assign(row.size(), {});
    }
    for (size_t c = 0; c < cols.size(); ++c) {
      cols[c].push_back(std::move(row[c]));
    }
    sel.push_back(static_cast<uint32_t>(size));
    ++size;
    InvalidateTags();
  }

  /// Moves physical row `r` out into `*out` (row r's cells are left
  /// moved-from; callers only move each selected lane once).
  void MoveRow(uint32_t r, DatumRow* out) {
    InvalidateTags();
    out->clear();
    out->reserve(cols.size());
    for (std::vector<Datum>& c : cols) out->push_back(std::move(c[r]));
  }

  /// Copies physical row `r` into `*out`.
  void CopyRow(uint32_t r, DatumRow* out) const {
    out->clear();
    out->reserve(cols.size());
    for (const std::vector<Datum>& c : cols) out->push_back(c[r]);
  }
};

}  // namespace sinew::engine

#endif  // SINEW_ENGINE_ROW_BATCH_H_
