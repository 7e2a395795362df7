// Table: an append-oriented heap of packed rows with a row-id address space,
// logical deletes, online schema evolution and chunked latching.
//
// Concurrency contract (documented in DESIGN.md):
//  - readers take the latch shared, and long scans re-acquire it every
//    kScanChunk rows so background row updates (the column materializer)
//    can interleave;
//  - writers (append / update / delete / schema change) take it exclusive
//    per operation, making every row update atomic — the granularity the
//    paper requires for incremental materialization;
//  - every in-place row write (UpdateRow, PatchRow) stamps the row with the
//    mutation version it made, under the same exclusive acquisition. A
//    stamp newer than the columnar segment's shred version marks the row
//    stale (its strips no longer describe it), and a stamp newer than a
//    version a reader saw tells a read-modify-write that the row moved.

#ifndef SINEW_ENGINE_TABLE_H_
#define SINEW_ENGINE_TABLE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "engine/datum.h"
#include "engine/row_codec.h"
#include "engine/schema.h"
#include "engine/stats.h"

namespace sinew::engine {

inline constexpr size_t kScanChunk = 1024;

/// A `read_at`/`found_at` that every row stamp satisfies: write regardless.
inline constexpr uint64_t kAnyVersion = UINT64_MAX;

class ColumnarSegment;

class Table {
 public:
  Table(std::string name, Schema schema)
      : name_(std::move(name)), schema_(std::move(schema)) {}

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  const std::string& name() const { return name_; }
  /// Unsynchronized schema reference. Safe only when no concurrent schema
  /// evolution is possible (single-threaded use, or the caller holds the
  /// maintenance latch that serializes DDL). Read paths that can race with
  /// the background materializer must use SchemaSnapshot /
  /// FindColumnLatched instead.
  const Schema& schema() const { return schema_; }

  /// Copy of the schema taken under the shared latch — for read paths
  /// (planner, rewriter, DML planning) that race with online ADD/DROP
  /// COLUMN by the materializer.
  Schema SchemaSnapshot() const {
    std::shared_lock lock(latch_);
    return schema_;
  }
  /// Latched point lookup of a live column's slot.
  std::optional<size_t> FindColumnLatched(std::string_view column) const {
    std::shared_lock lock(latch_);
    return schema_.FindColumn(column);
  }

  // --- schema evolution (exclusive) ---
  Status AddColumn(Column column);
  Status DropColumn(std::string_view column);

  // --- row access ---
  /// Appends a row; returns its row id.
  Result<uint64_t> AppendRow(const DatumRow& row);
  /// Appends a row that is NULL except for `value` in `column`. The slot is
  /// resolved and the row sized under the append's own exclusive latch
  /// acquisition, so a concurrent AddColumn cannot leave it a slot short.
  Result<uint64_t> AppendRowWith(std::string_view column, Datum value);
  /// Number of row-id slots (including deleted rows).
  uint64_t RowSlotCount() const;
  /// Live rows.
  uint64_t LiveRowCount() const;
  /// Decodes a live row; NotFound for deleted/out-of-range ids. With
  /// `read_at`, also the mutation version at the read: an UpdateRow or
  /// PatchRow passed it fails if the row was written since.
  Result<DatumRow> ReadRow(uint64_t rid, uint64_t* read_at = nullptr) const;
  /// Atomically replaces a live row. With `read_at` (a version ReadRow or
  /// MutationVersion returned), Aborted — and nothing written — when the row
  /// was written in place after that version.
  Status UpdateRow(uint64_t rid, const DatumRow& row,
                   uint64_t read_at = kAnyVersion);
  /// Overwrites `slots` of a live row with `values` (one per slot, already
  /// coerced to the column types) under one exclusive latch acquisition. The
  /// row is decoded and re-encoded against the schema current at that
  /// moment, so a concurrent AddColumn cannot leave it a slot short.
  /// NotFound for deleted/out-of-range ids; Aborted, as UpdateRow, when
  /// `found_at` is given and the row was written in place after it.
  Status PatchRow(uint64_t rid, const std::vector<size_t>& slots,
                  DatumRow values, uint64_t found_at = kAnyVersion);
  /// Logical delete.
  Status DeleteRow(uint64_t rid);
  /// Logical delete of every live row under one exclusive latch acquisition.
  /// Row ids stay allocated, so scans already open keep valid bounds.
  void DeleteAllRows();

  /// Sum of encoded row bytes (the Table 3 "storage size" measure).
  uint64_t DataBytes() const;

  /// Monotonic counter bumped by every successful mutation (append, update,
  /// delete, schema change, raw restore). Persistence compares snapshots of
  /// it to skip re-serializing tables unchanged since the last generation
  /// image. Latch-free read; only equality of two snapshots is meaningful.
  uint64_t MutationVersion() const {
    return mutation_version_.load(std::memory_order_acquire);
  }

  /// Monotonic counter bumped by every change a plan over the table is
  /// built from, and by nothing else: a column added or dropped, new
  /// ANALYZE statistics. Appends, updates and deletes leave it alone. A
  /// cached plan (sinew/plan_cache.h) is reused only while it is unchanged.
  uint64_t PlanVersion() const {
    return plan_version_.load(std::memory_order_acquire);
  }

  /// Restores a row image verbatim at the next row id (persist/load path);
  /// an empty string restores a deleted slot. Validates decodability.
  Status RestoreRawRow(std::string encoded);

  // --- statistics ---
  /// Recomputes ANALYZE statistics for all live columns.
  Status Analyze();
  /// Snapshot of current statistics (copy; cheap at our scales).
  TableStats GetStats() const;

  /// Raises the row-move epoch to `epoch` under the exclusive latch. A
  /// writer that moves values between a row's slots on behalf of a changed
  /// physical design (the column materializer) calls it before its first
  /// move, with the design's epoch; a scan whose plan predates that epoch
  /// sees it at its next chunk and aborts with "replan".
  void RaiseMoveEpoch(uint64_t epoch) {
    std::unique_lock lock(latch_);
    move_epoch_ = std::max(move_epoch_, epoch);
  }
  /// For readers holding the latch (the scan's per-chunk check).
  uint64_t MoveEpochUnlocked() const { return move_epoch_; }

  /// Raw latch, exposed for the scan iterator's chunked locking.
  std::shared_mutex& latch() const { return latch_; }

  /// Unsynchronized access used by the scan iterator while holding the
  /// latch shared: encoded row bytes or empty string for deleted rows.
  const std::string& RawRowUnlocked(uint64_t rid) const { return rows_[rid]; }
  uint64_t RowSlotCountUnlocked() const { return rows_.size(); }
  const Schema& SchemaUnlocked() const { return schema_; }
  /// Mutation version of row `rid`'s last in-place write (UpdateRow,
  /// PatchRow); 0 for a row only ever appended or restored.
  uint64_t RowStampUnlocked(uint64_t rid) const {
    return rid < stamps_.size() ? stamps_[rid] : 0;
  }
  /// True when a row in [first, end) may be stale: some kScanChunk-row
  /// chunk overlapping the range holds a row stamped newer than the
  /// attached segment's shred version. False for an empty range.
  bool MayHoldStaleUnlocked(uint64_t first, uint64_t end) const {
    if (first >= end) return false;
    for (uint64_t c = first / kScanChunk; c <= (end - 1) / kScanChunk; ++c) {
      if (c >= chunk_stamps_.size()) break;
      if (chunk_stamps_[c] > columnar_version_) return true;
    }
    return false;
  }

  // --- columnar segment (shredded cold-rows accelerator) ---
  /// Attaches (or detaches, with nullptr) the shredded image of this table's
  /// cold rows, as they are now: rows written in place later are stale.
  /// Takes the latch exclusive but deliberately does NOT bump the mutation
  /// version: the segment is derived read-only state, and bumping would
  /// defeat persistence's unchanged-table verbatim-copy fast path.
  void SetColumnarSegment(std::shared_ptr<const ColumnarSegment> segment) {
    std::unique_lock lock(latch_);
    columnar_ = std::move(segment);
    columnar_version_ = mutation_version_.load(std::memory_order_acquire);
  }
  /// Attach only if no mutation happened since `expected_version` was
  /// snapshotted (i.e. since the shredder read the rows). Returns false —
  /// leaving the current segment untouched — when the table changed
  /// underneath the shred, so a stale segment can never be published.
  bool SetColumnarSegmentIfUnchanged(
      std::shared_ptr<const ColumnarSegment> segment,
      uint64_t expected_version) {
    std::unique_lock lock(latch_);
    if (mutation_version_.load(std::memory_order_acquire) !=
        expected_version) {
      return false;
    }
    columnar_ = std::move(segment);
    columnar_version_ = expected_version;
    return true;
  }
  /// Latched snapshot for readers outside a scan's chunk lock.
  std::shared_ptr<const ColumnarSegment> ColumnarSegmentSnapshot() const {
    std::shared_lock lock(latch_);
    return columnar_;
  }
  /// For readers already holding the latch (scan chunk loop).
  const std::shared_ptr<const ColumnarSegment>& ColumnarSegmentUnlocked()
      const {
    return columnar_;
  }
  /// The mutation version the attached segment was shredded at: a covered
  /// row whose stamp is newer is stale and is read from its bytes.
  uint64_t ColumnarVersionUnlocked() const { return columnar_version_; }

 private:
  /// Bump under the exclusive latch after a successful mutation.
  void BumpVersion() {
    mutation_version_.fetch_add(1, std::memory_order_acq_rel);
  }
  /// Bump under the exclusive latch after a schema or statistics change.
  void BumpPlanVersion() {
    plan_version_.fetch_add(1, std::memory_order_acq_rel);
  }
  /// Replaces live row `rid` with `row` and stamps it; the caller holds the
  /// latch exclusive.
  Status ReplaceRowLocked(uint64_t rid, const DatumRow& row);
  /// NotFound unless `rid` is live; Aborted when it was written in place
  /// after `read_at`. The caller holds the latch exclusive.
  Status CheckWritableLocked(uint64_t rid, uint64_t read_at) const;

  std::string name_;
  Schema schema_;
  std::vector<std::string> rows_;  // empty string = deleted
  uint64_t live_rows_ = 0;
  uint64_t data_bytes_ = 0;
  std::atomic<uint64_t> mutation_version_{0};
  std::atomic<uint64_t> plan_version_{0};
  TableStats stats_;
  /// Per row, the version of its last in-place write, and per kScanChunk
  /// rows their greatest stamp, so clean chunks cost one compare. Both reach only as far as the last row ever
  /// written in place: rows past them are stamped 0.
  std::vector<uint64_t> stamps_;
  std::vector<uint64_t> chunk_stamps_;
  /// Shredded strips over rows [0, segment row_count), and the mutation
  /// version they were shredded at. A write to a covered row stamps it
  /// newer than that version under the exclusive latch, so under the shared
  /// latch every covered row is either as the segment describes it or
  /// stale, and the scan reads a stale row from its bytes.
  std::shared_ptr<const ColumnarSegment> columnar_;
  uint64_t columnar_version_ = 0;
  uint64_t move_epoch_ = 0;  // see RaiseMoveEpoch
  mutable std::shared_mutex latch_;
};

}  // namespace sinew::engine

#endif  // SINEW_ENGINE_TABLE_H_
