// RowBatch: the unit of work on the vectorized execution path.
//
// A batch holds up to ExecOptions.batch_size rows in column-major order:
// cols[c][r] is column c of physical row r. The selection vector `sel` lists
// the physical rows that are logically alive, in ascending order — filters
// shrink it instead of compacting the columns, so a predicate pass touches
// only the selection vector and downstream operators skip dead lanes for
// free. Column vectors are reused across batches (Reset clears without
// freeing), so the operators below the root allocate nothing per batch. The
// root batch is the exception: ExecutePlan moves a dense root batch's
// column vectors into the result (engine/result_rows.h), and its producer
// allocates new ones for the next batch.
//
// The `tags` sidecar carries per-column, per-batch type evidence for the
// bytecode VM's monomorphic kernels: a column proven to hold exactly one value
// kind (plus NULLs) for the whole batch gets a ColTag with a null bitmap and
// the raw values rebucketed into a dense int64/double/bool array (text: a
// view array), so kernel loops run over fixed strides with no per-lane Datum
// kind dispatch. For most columns tags are a cache over `cols` — the VM fills
// them with a one-pass profile, which a producer that knows a column's type
// (the scan, from the physical column type) turns into a validation by
// declaring it in `col_types`; every mutation of the column data must
// invalidate them (Reset, AppendRow and MoveRow do; operators that write
// `cols` directly are responsible for their own columns).
//
// A column can instead be typed-primary (ColTag::primary): its values live
// only in the tag, and its Datum vector is filled on demand by Box, a cache
// fill like ProfileColumn. The scan's probe batch is built this way, text
// and bytes as views into row bytes that stay valid under the table latch
// the scan holds for the batch's whole life; such a batch never leaves the
// operator that built it.

#ifndef SINEW_ENGINE_ROW_BATCH_H_
#define SINEW_ENGINE_ROW_BATCH_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "engine/datum.h"

namespace sinew::engine {

/// Batch-scoped type evidence for one column. `kUnknown` means "not yet
/// profiled"; `kMixed` is a profiled negative (more than one non-null kind,
/// or a kind without a kernel) cached so the batch is never re-scanned.
/// `kBytes` occurs on typed-primary columns only; it has no kernel either.
struct ColTag {
  enum class Type : uint8_t {
    kUnknown = 0, kMixed, kBytes, kInt, kDouble, kBool, kText
  };
  Type type = Type::kUnknown;
  bool has_nulls = false;
  /// The values live here, not in RowBatch::cols (see RowBatch::Box).
  bool primary = false;
  /// Bit r set = physical row r is NULL. At least (size+63)/64 words.
  std::vector<uint64_t> nulls;
  /// Row-dense raw values (NULL rows hold zero), one array per proven type.
  std::vector<int64_t> ints;
  std::vector<double> doubles;
  std::vector<uint8_t> bools;
  /// kText / kBytes: row-dense views (NULL rows hold an empty view). A
  /// profiled column's point into its own Datums, so they live as long as
  /// the column is unchanged; a typed-primary column's into storage its
  /// producer keeps alive.
  std::vector<std::string_view> views;

  /// True when the column is proven monomorphic (kernel-eligible).
  bool typed() const { return type >= Type::kInt; }
  bool IsNull(uint32_t r) const {
    return has_nulls && ((nulls[r >> 6] >> (r & 63)) & 1) != 0;
  }
  /// Marks row r NULL, zeroing its value slot.
  void SetNull(uint32_t r) {
    nulls[r >> 6] |= uint64_t{1} << (r & 63);
    has_nulls = true;
    switch (type) {
      case Type::kInt: ints[r] = 0; break;
      case Type::kDouble: doubles[r] = 0; break;
      case Type::kBool: bools[r] = 0; break;
      case Type::kText:
      case Type::kBytes: views[r] = {}; break;
      default: break;
    }
  }
  /// Row r's value boxed (text and bytes are copied out of their views).
  Datum Get(uint32_t r) const {
    if (IsNull(r)) return Datum::Null();
    switch (type) {
      case Type::kInt: return Datum::Int(ints[r]);
      case Type::kDouble: return Datum::Double(doubles[r]);
      case Type::kBool: return Datum::Bool(bools[r] != 0);
      case Type::kText: return Datum::Text(std::string(views[r]));
      case Type::kBytes: return Datum::Bytes(std::string(views[r]));
      default: return Datum::Null();
    }
  }
};

struct RowBatch {
  /// Column-major values; every column has `size` entries, except a
  /// typed-primary column's, which holds them only once Box ran. Mutable
  /// because Box is a cache fill over logically-const column data.
  mutable std::vector<std::vector<Datum>> cols;
  /// Physical row indices that are logically alive, ascending.
  std::vector<uint32_t> sel;
  /// Physical row count (appended rows, dead or alive).
  size_t size = 0;

  /// Per-column type tags, parallel to `cols` (may be shorter: untagged
  /// suffix). Mutable because profiling is a cache fill over logically-const
  /// column data; batches are single-owner, never profiled concurrently.
  mutable std::vector<ColTag> tags;
  /// Producer-declared value type per column (may be shorter; kUnknown =
  /// undeclared): ProfileColumn takes it as the expected type, so the VM
  /// never classifies such a column. Reset clears it.
  std::vector<ColTag::Type> col_types;

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

  /// True when column `c` is typed-primary: its values live in its tag.
  bool IsPrimary(size_t c) const { return c < tags.size() && tags[c].primary; }

  /// The Datum vector of column `c`, filled from its tag first when the
  /// column is typed-primary and not yet boxed. Every boxed read of a
  /// column that may be typed-primary goes through here.
  const std::vector<Datum>& Box(size_t c) const {
    std::vector<Datum>& col = cols[c];
    if (IsPrimary(c) && col.size() < size) {
      const ColTag& t = tags[c];
      col.clear();
      col.reserve(size);
      for (size_t r = 0; r < size; ++r) {
        col.push_back(t.Get(static_cast<uint32_t>(r)));
      }
    }
    return col;
  }

  /// Empties the batch for a producer that writes the columns of `primary`
  /// (position, type) typed-primary, at most `capacity` rows: their tags are
  /// sized for `capacity` rows with no NULLs, keeping the arrays' capacity
  /// across calls. Every other column is empty and untagged. A producer
  /// that never writes, boxes or profiles a column outside `touched` (a
  /// superset of `primary`'s positions) passes it, and only those columns
  /// are cleared once the batch has `num_columns`: the rest are still as the
  /// first, full reset left them, so a reset costs the columns a producer
  /// writes, not the batch's width.
  void ResetPrimary(size_t num_columns,
                    std::span<const std::pair<size_t, ColTag::Type>> primary,
                    size_t capacity, std::span<const size_t> touched = {}) {
    auto clear_tag = [](ColTag& t) {
      t.type = ColTag::Type::kUnknown;
      t.has_nulls = false;
      t.primary = false;
    };
    if (touched.empty() || cols.size() != num_columns) {
      cols.resize(num_columns);
      for (std::vector<Datum>& c : cols) c.clear();
      for (ColTag& t : tags) clear_tag(t);
    } else {
      for (size_t c : touched) {
        cols[c].clear();
        if (c < tags.size()) clear_tag(tags[c]);
      }
    }
    sel.clear();
    size = 0;
    col_types.clear();
    // Room for every column, so the tags handed out never move.
    tags.reserve(num_columns);
    for (const auto& [c, type] : primary) {
      if (tags.size() <= c) tags.resize(c + 1);
      ColTag& t = tags[c];
      t.type = type;
      t.primary = true;
      t.nulls.assign((capacity + 63) / 64, 0);
      switch (type) {
        case ColTag::Type::kInt: t.ints.resize(capacity); break;
        case ColTag::Type::kDouble: t.doubles.resize(capacity); break;
        case ColTag::Type::kBool: t.bools.resize(capacity); break;
        default: t.views.resize(capacity); break;
      }
    }
  }

  /// One-pass type profile of column `c`: proves it monomorphic (one
  /// non-null kind) for this batch, filling the null bitmap and the raw
  /// value array, or caches kMixed so the scan never repeats. `want` (or
  /// else the column's col_types entry) seeds the expected type when the
  /// producer already knows it — the pass then only validates, it never
  /// classifies; a declared kMixed caches without a pass. The result is
  /// cached; returns the tag (never nullptr for a valid column).
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
    if (want == ColTag::Type::kUnknown && c < col_types.size()) {
      want = col_types[c];
    }
    if (want == ColTag::Type::kMixed) {
      t = ColTag{};
      t.type = ColTag::Type::kMixed;
      return &t;
    }
    const std::vector<Datum>& col = cols[c];
    t.has_nulls = false;
    t.nulls.assign((size + 63) / 64, 0);
    t.ints.clear();
    t.doubles.clear();
    t.bools.clear();
    t.views.clear();
    ColTag::Type ty = want;
    for (size_t r = 0; r < size; ++r) {
      const Datum& d = col[r];
      if (d.is_null()) {
        t.nulls[r >> 6] |= uint64_t{1} << (r & 63);
        t.has_nulls = true;
        // Value arrays stay row-dense: NULL rows hold a zero placeholder.
        switch (ty) {
          case ColTag::Type::kInt: t.ints.push_back(0); break;
          case ColTag::Type::kDouble: t.doubles.push_back(0); break;
          case ColTag::Type::kBool: t.bools.push_back(0); break;
          case ColTag::Type::kText: t.views.emplace_back(); break;
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
        // Backfill placeholders for the all-NULL prefix.
        if (ty == ColTag::Type::kInt) t.ints.assign(r, 0);
        if (ty == ColTag::Type::kDouble) t.doubles.assign(r, 0);
        if (ty == ColTag::Type::kBool) t.bools.assign(r, 0);
        if (ty == ColTag::Type::kText) t.views.assign(r, {});
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
        default: t.views.emplace_back(d.str()); break;  // kText
      }
    }
    // An all-NULL column is monomorphic under any type; an undeclared one
    // reads as text, whose placeholder views are already in place.
    if (ty == ColTag::Type::kUnknown) {
      ty = ColTag::Type::kText;
      t.views.assign(size, {});
    }
    t.type = ty;
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
    col_types.clear();
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
