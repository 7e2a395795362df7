#include "engine/exec.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <iomanip>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <sstream>
#include <unordered_map>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "engine/bytecode.h"
#include "engine/columnar.h"

namespace sinew::engine {

namespace {

uint64_t RowBytes(const DatumRow& row) {
  uint64_t bytes = sizeof(DatumRow) + row.capacity() * sizeof(Datum);
  for (const Datum& d : row) bytes += d.str().size();
  return bytes;
}

struct ExecContext {
  const UdfRegistry* udfs = nullptr;
  uint64_t mem_limit = 0;
  ThreadPool* pool = nullptr;
  // Per-node actuals (EXPLAIN ANALYZE); nullptr = don't instrument.
  PlanStats* stats = nullptr;
  // Rows per RowBatch (see ExecOptions).
  size_t batch_size = 1;
  // Record per-call wall clock into OperatorStats.next_ns.
  bool time_ops = false;
  // Shared across Gather workers, so the budget covers the whole query.
  std::atomic<uint64_t> mem_used{0};

  Status Charge(uint64_t bytes) {
    uint64_t used =
        mem_used.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    if (mem_limit != 0 && used > mem_limit) {
      return Status::Aborted(
          "query aborted: intermediate results exceeded the ", mem_limit,
          "-byte budget (needed more scratch space)");
    }
    return Status::OK();
  }
};

/// Shared work queue of row ranges for a parallel base-table scan: worker
/// pipelines claim fixed-size morsels from an atomic cursor, so fast workers
/// steal the tail instead of idling behind a static partition.
struct MorselSource {
  std::atomic<uint64_t> next{0};
  std::atomic<uint64_t> claims{0};  // successful claims, across all workers
  uint64_t end = 0;  // set once by GatherOp before workers start

  bool Claim(uint64_t* lo, uint64_t* hi) {
    uint64_t claimed = next.fetch_add(kMorselRows, std::memory_order_relaxed);
    if (claimed >= end) return false;
    claims.fetch_add(1, std::memory_order_relaxed);
    *lo = claimed;
    *hi = std::min(end, claimed + kMorselRows);
    return true;
  }
};

/// The one streaming protocol: every operator produces RowBatches.
class Operator {
 public:
  virtual ~Operator() = default;
  virtual Status Open() = 0;

  /// Fills `batch` with up to the batch capacity of rows and returns true, or
  /// returns false at end-of-stream. Batches may return with an empty
  /// selection (every row filtered out); callers keep pulling until false.
  virtual Result<bool> NextBatch(RowBatch* batch) = 0;

  void set_batch_capacity(size_t rows) {
    batch_capacity_ = std::max<size_t>(1, rows);
  }

 protected:
  size_t batch_capacity_ = 1;
};

using OperatorPtr = std::unique_ptr<Operator>;

/// Base of the blocking operators (sort, joins, aggregation, DISTINCT),
/// which compute one output row at a time: NextBatch packs NextRow's rows.
class RowOperator : public Operator {
 public:
  Result<bool> NextBatch(RowBatch* batch) final {
    batch->Reset(batch->num_cols());
    while (batch->size < batch_capacity_) {
      ASSIGN_OR_RETURN(bool has, NextRow(&row_));
      if (!has) break;
      batch->AppendRow(std::move(row_));
    }
    return batch->size > 0;
  }

 protected:
  /// Fills `row` and returns true, or returns false at end-of-stream.
  virtual Result<bool> NextRow(DatumRow* row) = 0;

 private:
  DatumRow row_;
};

/// Row-at-a-time view over a child's batches: the one adapter through which
/// the blocking operators consume their inputs.
class RowReader {
 public:
  explicit RowReader(Operator* child) : child_(child) {}

  Result<bool> Next(DatumRow* row) {
    while (pos_ >= batch_.active()) {
      ASSIGN_OR_RETURN(bool has, child_->NextBatch(&batch_));
      if (!has) return false;
      pos_ = 0;
    }
    batch_.MoveRow(batch_.sel[pos_++], row);
    return true;
  }

 private:
  Operator* child_;
  RowBatch batch_;
  size_t pos_ = 0;
};

/// EXPLAIN ANALYZE shim: times Open/NextBatch and counts emitted rows into
/// the plan node's shared OperatorStats. Gather worker clones of the same
/// plan subtree all wrap the same stats object (fields are atomic), so
/// per-worker activity aggregates onto the one printed tree node. Times are
/// inclusive of children, PostgreSQL-style.
class InstrumentedOp : public Operator {
 public:
  InstrumentedOp(OperatorPtr inner, OperatorStats* stats, bool time_ops)
      : inner_(std::move(inner)), stats_(stats), time_(time_ops) {}

  Status Open() override {
    stats_->instances.fetch_add(1, std::memory_order_relaxed);
    const uint64_t start = metrics::NowNanos();
    Status st = inner_->Open();
    stats_->open_ns.fetch_add(metrics::NowNanos() - start,
                              std::memory_order_relaxed);
    return st;
  }

  /// Batch-granularity accounting: one next_calls tick, one timing pair and
  /// one rows/batches update per batch, not per row.
  Result<bool> NextBatch(RowBatch* batch) override {
    stats_->next_calls.fetch_add(1, std::memory_order_relaxed);
    const uint64_t start = time_ ? metrics::NowNanos() : 0;
    Result<bool> has = inner_->NextBatch(batch);
    if (time_) {
      stats_->next_ns.fetch_add(metrics::NowNanos() - start,
                                std::memory_order_relaxed);
    }
    if (has.ok() && *has) {
      stats_->rows.fetch_add(batch->active(), std::memory_order_relaxed);
      stats_->batches.fetch_add(1, std::memory_order_relaxed);
    }
    return has;
  }

 private:
  OperatorPtr inner_;
  OperatorStats* stats_;
  bool time_;
};

/// ExecState scratch above this many datums of capacity is released at
/// operator close instead of kept; register vectors high-water to the widest
/// batch ever executed, so without the cap a pooled operator (or a session
/// reusing plans) pins that memory forever. One default batch is the natural
/// working set.
constexpr size_t kExecStateShrinkThreshold = 4096;

/// Drains an operator's bytecode lane counters into its plan node's stats
/// and returns the state's scratch memory; operators with a compiled program
/// call this from their destructor.
void FlushBytecodeState(const PlanNode& node, ExecContext* ctx,
                        bytecode::ExecState* st) {
  if (ctx->stats != nullptr &&
      (st->fallback_lanes != 0 || st->typed_lanes != 0 ||
       st->boxed_lanes != 0)) {
    if (OperatorStats* s = ctx->stats->For(node)) {
      s->bc_fallback_lanes.fetch_add(st->fallback_lanes,
                                     std::memory_order_relaxed);
      s->bc_typed_lanes.fetch_add(st->typed_lanes, std::memory_order_relaxed);
      s->bc_boxed_lanes.fetch_add(st->boxed_lanes, std::memory_order_relaxed);
    }
  }
  st->Reset(kExecStateShrinkThreshold);
}

// ---------------------------------------------------------------- SeqScan

class ScanOp : public Operator {
 public:
  /// With a MorselSource the scan claims row ranges from it instead of
  /// walking the whole table — the shape each Gather worker runs.
  ScanOp(const PlanNode& node, ExecContext* ctx,
         MorselSource* morsels = nullptr)
      : node_(node), ctx_(ctx), morsels_(morsels) {}

  ~ScanOp() override {
    if (ctx_->stats != nullptr && zone_skips_ != 0) {
      if (OperatorStats* s = ctx_->stats->For(node_)) {
        s->zone_skips.fetch_add(zone_skips_, std::memory_order_relaxed);
      }
    }
    FlushBytecodeState(node_, ctx_, &bc_state_);
  }

  Status Open() override {
    Table* table = node_.table;
    std::shared_lock lock(table->latch());
    schema_ = table->SchemaUnlocked();  // snapshot
    live_slots_ = schema_.LiveSlots();
    end_ = morsels_ != nullptr ? 0 : table->RowSlotCountUnlocked();
    rid_ = 0;
    rid_position_ = live_slots_.size();
    if (node_.scan_filter != nullptr && node_.scan_filter_program == nullptr) {
      return Status::Internal("scan filter has no compiled program");
    }
    // The plan was built against an earlier schema snapshot; if a
    // concurrent ADD/DROP COLUMN changed the live layout in between,
    // silently decoding would misalign columns — fail fast instead (the
    // caller retries with a fresh plan).
    if (node_.scan_projected) {
      if (live_slots_.size() + 1 != node_.output_schema.cols.size()) {
        return Status::Aborted("schema changed concurrently; replan");
      }
      for (size_t i = 0; i < live_slots_.size(); ++i) {
        if (schema_.columns()[live_slots_[i]].name !=
            node_.output_schema.cols[i].name) {
          return Status::Aborted("schema changed concurrently; replan");
        }
      }
    }
    // Map scan output positions to physical table slots for the pushed-down
    // projection (the __rid pseudo-column is computed, not decoded).
    auto to_table_slots = [&](const std::vector<size_t>& positions) {
      std::vector<size_t> slots;
      for (size_t pos : positions) {
        if (pos < rid_position_) slots.push_back(live_slots_[pos]);
      }
      std::sort(slots.begin(), slots.end());
      return slots;
    };
    if (node_.scan_projected) {
      filter_slots_ = to_table_slots(node_.scan_filter_cols);
      output_slots_ = to_table_slots(node_.scan_output_cols);
    } else {
      filter_slots_ = live_slots_;
      std::sort(filter_slots_.begin(), filter_slots_.end());
      output_slots_.clear();
    }
    // Deferred-bytes pushdown: a lazy source survives Open only when its
    // column is decoded exclusively in phase 2 (the pushed-down filter never
    // reads it), so skipping the decode cannot change which rows survive.
    lazy_eligible_ = false;
    lazy_positions_.clear();
    lazy_req_.clear();
    output_slots_lazy_.clear();
    for (const LazyScanSource& src : node_.lazy_sources) {
      if (src.output_pos < 0 ||
          static_cast<size_t>(src.output_pos) >= live_slots_.size()) {
        continue;
      }
      const size_t table_slot = live_slots_[src.output_pos];
      if (std::binary_search(filter_slots_.begin(), filter_slots_.end(),
                             table_slot) ||
          !std::binary_search(output_slots_.begin(), output_slots_.end(),
                              table_slot)) {
        continue;
      }
      lazy_positions_.push_back(src.output_pos);
      lazy_req_.emplace_back(node_.output_schema.cols[src.output_pos].name,
                             &src);
      lazy_table_slots_.push_back(table_slot);
    }
    if (!lazy_req_.empty()) {
      lazy_eligible_ = true;
      for (size_t s : output_slots_) {
        if (std::find(lazy_table_slots_.begin(), lazy_table_slots_.end(),
                      s) == lazy_table_slots_.end()) {
          output_slots_lazy_.push_back(s);
        }
      }
    }
    auto sources_for = [&](const std::vector<size_t>& out_slots) {
      std::vector<Source> sources(rid_position_, Source::kNull);
      for (size_t i = 0; i < rid_position_; ++i) {
        const size_t slot = live_slots_[i];
        if (std::binary_search(filter_slots_.begin(), filter_slots_.end(),
                               slot)) {
          sources[i] = Source::kFilter;
        } else if (std::binary_search(out_slots.begin(), out_slots.end(),
                                      slot)) {
          sources[i] = Source::kOutput;
        }
      }
      return sources;
    };
    sources_ = sources_for(output_slots_);
    sources_lazy_ = sources_for(output_slots_lazy_);
    filter_positions_.clear();
    for (size_t i = 0; i < rid_position_; ++i) {
      if (sources_[i] == Source::kFilter) filter_positions_.push_back(i);
    }
    scratch_.assign(schema_.num_slots(), Datum());
    return Status::OK();
  }

  /// Chunked shared latching: one latch acquisition covers up to kScanChunk
  /// rows (one strip), so the background materializer's row updates can
  /// interleave between chunks. Batches carry surviving rows only.
  Result<bool> NextBatch(RowBatch* batch) override {
    Table* table = node_.table;
    batch->Reset(rid_position_ + 1);
    while (batch->size < batch_capacity_ &&
           (rid_ < end_ ||
            (morsels_ != nullptr && morsels_->Claim(&rid_, &end_)))) {
      std::shared_lock lock(table->latch());
      if (!node_.zone_filters.empty()) {
        SkipZonedStripsUnlocked(table);
        if (rid_ >= end_) continue;
      }
      RefreshLazyStateUnlocked(table, batch);
      const uint64_t chunk_end = std::min(end_, rid_ + kScanChunk);
      while (rid_ < chunk_end && batch->size < batch_capacity_) {
        RETURN_NOT_OK(node_.scan_filter == nullptr
                          ? DecodeUnlocked(chunk_end, batch)
                          : DecodeFilteredUnlocked(chunk_end, batch));
      }
    }
    lazy_active_ = false;
    return batch->size > 0;
  }

 private:
  /// Advances rid_ past leading column strips whose zone maps prove no row
  /// can pass the pushed-down filter. Caller holds the table latch, which is
  /// what makes the consult sound: mutators detach the columnar segment
  /// before rewriting a covered row, so under one latch acquisition an
  /// attached segment and the row bytes it summarizes agree.
  void SkipZonedStripsUnlocked(Table* table) {
    static metrics::Counter* zonemap_skips =
        metrics::GetCounter("strips.skipped_by_zonemap");
    const std::shared_ptr<const ColumnarSegment>& seg =
        table->ColumnarSegmentUnlocked();
    if (seg == nullptr || rid_ >= seg->row_count()) return;
    resolved_zones_.clear();
    for (const ZoneFilter& zf : node_.zone_filters) {
      const StripColumn* col =
          seg->Find(zf.source_column, zf.prefix_ids, zf.attr_id,
                    static_cast<ValueType>(zf.type_tag));
      if (col != nullptr) resolved_zones_.emplace_back(col, &zf);
    }
    if (resolved_zones_.empty()) return;
    while (rid_ < end_ && rid_ < seg->row_count()) {
      const size_t strip = static_cast<size_t>(rid_ / kStripRows);
      bool skip = false;
      for (const auto& [col, zf] : resolved_zones_) {
        if (strip >= col->strips.size()) continue;
        if (ZoneCanSkip(col->strips[strip], zf->op, zf->literal)) {
          skip = true;
          break;
        }
      }
      if (!skip) return;
      ++zone_skips_;
      zonemap_skips->Increment();
      rid_ = std::min(
          end_, std::min<uint64_t>(
                    static_cast<uint64_t>(strip + 1) * kStripRows,
                    seg->row_count()));
    }
  }

  /// Decides, per latch chunk, whether phase-2 decode may skip the lazy
  /// bytes columns: the attached columnar segment must resolve every
  /// extract target the plan routed through them, and one batch defers
  /// against exactly one segment (pointer identity, recorded on the batch —
  /// the extract above re-verifies it before serving). Caller holds the
  /// table latch.
  void RefreshLazyStateUnlocked(Table* table, RowBatch* batch) {
    lazy_active_ = false;
    if (!lazy_eligible_) return;
    const std::shared_ptr<const ColumnarSegment>& seg =
        table->ColumnarSegmentUnlocked();
    if (seg == nullptr) return;
    if (batch->lazy_seg != nullptr && batch->lazy_seg != seg.get()) return;
    if (seg != lazy_resolved_hold_) {
      lazy_resolved_hold_ = seg;  // pins the address the cache is keyed on
      lazy_resolved_ok_ = true;
      for (const auto& [name, src] : lazy_req_) {
        for (const ExtractTarget& t : src->targets) {
          if (seg->Find(name, t.prefix_ids, t.attr_id,
                        static_cast<ValueType>(t.type_tag)) == nullptr) {
            lazy_resolved_ok_ = false;
            break;
          }
        }
        if (!lazy_resolved_ok_) break;
      }
    }
    if (!lazy_resolved_ok_) return;
    lazy_active_ = true;
    lazy_limit_ = seg->row_count();
    if (batch->lazy_seg == nullptr) {
      batch->lazy_seg = seg.get();
      batch->lazy_limit = seg->row_count();
      batch->lazy_cols.assign(lazy_positions_.begin(), lazy_positions_.end());
    }
  }

  /// Unfiltered scan: decodes the live rows of [rid_, chunk_end) straight
  /// into `batch` until it is full. Caller holds the table latch.
  Status DecodeUnlocked(uint64_t chunk_end, RowBatch* batch) {
    for (; rid_ < chunk_end && batch->size < batch_capacity_; ++rid_) {
      const std::string& raw = node_.table->RawRowUnlocked(rid_);
      if (raw.empty()) continue;  // deleted
      const bool lazy = DefersRow(rid_);
      RETURN_NOT_OK(DecodeRowSlots(schema_, raw, filter_slots_, &scratch_));
      RETURN_NOT_OK(DecodeRowSlots(
          schema_, raw, lazy ? output_slots_lazy_ : output_slots_, &scratch_));
      const std::vector<Source>& sources = lazy ? sources_lazy_ : sources_;
      for (size_t i = 0; i < rid_position_; ++i) {
        if (sources[i] == Source::kNull) {
          batch->cols[i].emplace_back();
        } else {
          batch->cols[i].push_back(std::move(scratch_[live_slots_[i]]));
        }
      }
      AppendRid(rid_, batch);
    }
    return Status::OK();
  }

  /// Filtered scan, one round: phase 1 decodes only the filter columns of up
  /// to a batch's worth of live rows into the probe batch (its other columns
  /// stay empty — the compiled filter reads only the filter columns and
  /// __rid); the filter refines the probe's selection in one select-mode
  /// call, so typed kernels apply; phase 2 decodes the survivors' remaining
  /// columns and appends them to `batch`. Survivors that do not fit are
  /// rescanned by the next call: rid_ rewinds to the first of them. Caller
  /// holds the table latch, which keeps the raw row bytes the probe lanes
  /// point at stable across phases.
  Status DecodeFilteredUnlocked(uint64_t chunk_end, RowBatch* batch) {
    probe_.Reset(rid_position_ + 1);
    probe_raws_.clear();
    for (; rid_ < chunk_end && probe_.size < batch_capacity_; ++rid_) {
      const std::string& raw = node_.table->RawRowUnlocked(rid_);
      if (raw.empty()) continue;  // deleted
      RETURN_NOT_OK(DecodeRowSlots(schema_, raw, filter_slots_, &scratch_));
      for (size_t i : filter_positions_) {
        probe_.cols[i].push_back(std::move(scratch_[live_slots_[i]]));
      }
      AppendRid(rid_, &probe_);
      probe_raws_.push_back(&raw);
    }
    RETURN_NOT_OK(bytecode::ExecPredicateBatch(*node_.scan_filter_program,
                                               probe_, ctx_->udfs,
                                               &bc_state_, &probe_.sel));
    for (uint32_t lane : probe_.sel) {
      const auto rid =
          static_cast<uint64_t>(probe_.cols[rid_position_][lane].int_value());
      if (batch->size == batch_capacity_) {
        rid_ = rid;
        break;
      }
      const bool lazy = DefersRow(rid);
      RETURN_NOT_OK(DecodeRowSlots(schema_, *probe_raws_[lane],
                                   lazy ? output_slots_lazy_ : output_slots_,
                                   &scratch_));
      const std::vector<Source>& sources = lazy ? sources_lazy_ : sources_;
      for (size_t i = 0; i < rid_position_; ++i) {
        switch (sources[i]) {
          case Source::kFilter:
            batch->cols[i].push_back(std::move(probe_.cols[i][lane]));
            break;
          case Source::kOutput:
            batch->cols[i].push_back(std::move(scratch_[live_slots_[i]]));
            break;
          case Source::kNull:
            batch->cols[i].emplace_back();
            break;
        }
      }
      AppendRid(rid, batch);
    }
    return Status::OK();
  }

  /// True when a deferring chunk (RefreshLazyStateUnlocked) skips the lazy
  /// columns of row `rid`: the strips above serve them instead.
  bool DefersRow(uint64_t rid) const {
    return lazy_active_ && rid < lazy_limit_;
  }

  /// Completes a row appended column by column: its __rid and selection.
  void AppendRid(uint64_t rid, RowBatch* batch) const {
    batch->cols[rid_position_].push_back(
        Datum::Int(static_cast<int64_t>(rid)));
    batch->sel.push_back(static_cast<uint32_t>(batch->size++));
  }

  const PlanNode& node_;
  ExecContext* ctx_;
  MorselSource* morsels_;
  Schema schema_;
  std::vector<size_t> live_slots_;
  size_t rid_position_ = 0;  // scan output position of __rid
  std::vector<size_t> filter_slots_;
  std::vector<size_t> output_slots_;
  /// Where each output position's value comes from: the phase-1 (filter)
  /// decode, the phase-2 (output) decode, or nowhere (unreferenced, NULL).
  /// The lazy variant applies to rows a deferring chunk covers.
  enum class Source : uint8_t { kNull, kFilter, kOutput };
  std::vector<Source> sources_, sources_lazy_;
  std::vector<size_t> filter_positions_;  // positions with Source::kFilter
  /// Table-slot-indexed decode buffer, reused across rows: DecodeRowSlots
  /// rewrites every requested slot, and values move out into batch columns.
  DatumRow scratch_;
  /// Filtered scans: phase-1 rows awaiting the filter, and the raw bytes of
  /// each probe lane for phase 2.
  RowBatch probe_;
  std::vector<const std::string*> probe_raws_;
  uint64_t rid_ = 0;
  uint64_t end_ = 0;
  /// Zone filter -> strip column resolution, rebuilt per latch acquisition
  /// (the attached segment may change between acquisitions, never within).
  std::vector<std::pair<const StripColumn*, const ZoneFilter*>>
      resolved_zones_;
  uint64_t zone_skips_ = 0;  // strips skipped; flushed to stats on destroy
  /// Bytecode scratch for the compiled scan filter (per operator instance;
  /// the program itself is shared across Gather workers via the plan node).
  bytecode::ExecState bc_state_;
  // Deferred-bytes pushdown state (node_.lazy_sources).
  bool lazy_eligible_ = false;      // Open-time checks passed
  bool lazy_active_ = false;        // current chunk skips the lazy columns
  uint64_t lazy_limit_ = 0;         // segment row_count for current chunk
  std::vector<int> lazy_positions_;        // scan output positions deferred
  std::vector<size_t> lazy_table_slots_;   // their physical table slots
  std::vector<std::pair<std::string, const LazyScanSource*>> lazy_req_;
  std::vector<size_t> output_slots_lazy_;  // output_slots_ minus lazy slots
  /// Target-resolution cache, keyed on (and pinning) the segment snapshot.
  std::shared_ptr<const ColumnarSegment> lazy_resolved_hold_;
  bool lazy_resolved_ok_ = false;
};

// ---------------------------------------------------------------- Filter

class FilterOp : public Operator {
 public:
  FilterOp(const PlanNode& node, OperatorPtr child, ExecContext* ctx)
      : node_(node), child_(std::move(child)), ctx_(ctx) {}

  ~FilterOp() override { FlushBytecodeState(node_, ctx_, &bc_state_); }

  Status Open() override {
    if (node_.predicate_program == nullptr) {
      return Status::Internal("filter predicate has no compiled program");
    }
    return child_->Open();
  }

  /// Refines the selection vector in place. Batches that end up with an
  /// empty selection are still passed through (downstream operators must
  /// handle them; the root drain skips them).
  Result<bool> NextBatch(RowBatch* batch) override {
    ASSIGN_OR_RETURN(bool has, child_->NextBatch(batch));
    if (!has) return false;
    RETURN_NOT_OK(bytecode::ExecPredicateBatch(*node_.predicate_program,
                                               *batch, ctx_->udfs, &bc_state_,
                                               &batch->sel));
    return true;
  }

 private:
  const PlanNode& node_;
  OperatorPtr child_;
  ExecContext* ctx_;
  bytecode::ExecState bc_state_;
};

// ---------------------------------------------------------------- Project

class ProjectOp : public Operator {
 public:
  ProjectOp(const PlanNode& node, OperatorPtr child, ExecContext* ctx)
      : node_(node), child_(std::move(child)), ctx_(ctx) {}

  ~ProjectOp() override { FlushBytecodeState(node_, ctx_, &bc_state_); }

  Status Open() override {
    if (node_.projection_programs.size() != node_.projections.size()) {
      return Status::Internal("projections have no compiled programs");
    }
    return child_->Open();
  }

  /// Each projection expression runs once over the input batch's selected
  /// lanes into one output column. The output batch is compacted (identity
  /// selection), since dead input lanes carry nothing worth preserving past
  /// a projection.
  Result<bool> NextBatch(RowBatch* batch) override {
    ASSIGN_OR_RETURN(bool has, child_->NextBatch(&in_));
    if (!has) return false;
    batch->Reset(node_.projections.size());
    // Dense input (selection vector == identity, the no-filter common case):
    // a bare column-ref projection can take the whole input column instead
    // of copying per lane — moved on its last referencing projection, copied
    // before that. The selection vector is always an ascending subset of the
    // physical lanes, so dense implies identity.
    const bool dense = in_.active() == in_.size;
    for (size_t c = 0; c < node_.projections.size(); ++c) {
      const Expr& p = *node_.projections[c];
      if (dense && p.kind == ExprKind::kColumnRef && p.bound_slot >= 0 &&
          static_cast<size_t>(p.bound_slot) < in_.num_cols()) {
        // The column travels verbatim (dense implies identical physical
        // rows), so its batch type proof stays valid — carry the tag across
        // and downstream programs skip re-profiling.
        const bool used_after = SlotUsedAfter(c, p.bound_slot);
        const ColTag* tag = in_.TagFor(p.bound_slot);
        if (tag != nullptr && batch->tags.size() < node_.projections.size()) {
          batch->tags.resize(node_.projections.size());
        }
        if (used_after) {
          batch->cols[c] = in_.cols[p.bound_slot];
          if (tag != nullptr) batch->tags[c] = *tag;
        } else {
          batch->cols[c] = std::move(in_.cols[p.bound_slot]);
          if (tag != nullptr) {
            batch->tags[c] = std::move(in_.tags[p.bound_slot]);
            in_.InvalidateTag(p.bound_slot);
          }
        }
        continue;
      }
      RETURN_NOT_OK(bytecode::ExecBatch(*node_.projection_programs[c], in_,
                                        in_.sel, ctx_->udfs, &bc_state_,
                                        &batch->cols[c]));
    }
    batch->size = in_.active();
    batch->sel.resize(batch->size);
    for (size_t i = 0; i < batch->size; ++i) {
      batch->sel[i] = static_cast<uint32_t>(i);
    }
    return true;
  }

 private:
  static bool UsesSlot(const Expr& e, int slot) {
    if (e.kind == ExprKind::kColumnRef) return e.bound_slot == slot;
    for (const ExprPtr& a : e.args) {
      if (UsesSlot(*a, slot)) return true;
    }
    return false;
  }

  bool SlotUsedAfter(size_t c, int slot) const {
    for (size_t k = c + 1; k < node_.projections.size(); ++k) {
      if (UsesSlot(*node_.projections[k], slot)) return true;
    }
    return false;
  }

  const PlanNode& node_;
  OperatorPtr child_;
  ExecContext* ctx_;
  RowBatch in_;
  bytecode::ExecState bc_state_;
};

// ---------------------------------------------------------------- Extract

// Batched virtual-attribute extraction (kExtract): appends one computed
// column per target to each child row, decoding every serialized source
// column once per row through the registered batch-extract function. The
// operator itself is stateless across rows, so Gather worker clones are
// safe; decode tallies accumulate locally and flush into the plan node's
// OperatorStats on destruction (like GatherOp's morsel counts).
class ExtractOp : public Operator {
 public:
  ExtractOp(const PlanNode& node, OperatorPtr child, ExecContext* ctx)
      : node_(node), child_(std::move(child)), ctx_(ctx) {}

  ~ExtractOp() override {
    if (ctx_->stats != nullptr) {
      if (OperatorStats* s = ctx_->stats->For(node_)) {
        s->decodes.fetch_add(stats_.decodes, std::memory_order_relaxed);
        s->attrs.fetch_add(stats_.attrs, std::memory_order_relaxed);
        s->columnar_hits.fetch_add(columnar_hits_,
                                   std::memory_order_relaxed);
      }
    }
    FlushHeat();
  }

  Status Open() override {
    fn_ = ctx_->udfs == nullptr
              ? nullptr
              : ctx_->udfs->FindBatchExtract(node_.extract_fn);
    if (fn_ == nullptr) {
      return Status::Internal("batch extract function ", node_.extract_fn,
                              " is not registered");
    }
    BindColumnarSegment();
    // Attribute heat telemetry is armed only when a sink is installed and
    // the extraction is attributable to a base table; otherwise every
    // per-batch accounting branch below is a single predicted-false check.
    heat_enabled_ = node_.extract_table != nullptr &&
                    ctx_->udfs->heat_sink() != nullptr;
    if (heat_enabled_) {
      heat_.assign(node_.extract_targets.size(), TargetHeat{});
    }
    return child_->Open();
  }

  /// One batch-extract call serves every selected lane (amortizing the
  /// std::function dispatch and, per source column, decoding each reservoir
  /// once). Extracted values scatter into full-size NULL-padded output
  /// columns so physical lane indices stay aligned with the child batch —
  /// the selection vector may be sparse here when the extraction sits above
  /// a filter.
  Result<bool> NextBatch(RowBatch* batch) override {
    ASSIGN_OR_RETURN(bool has, child_->NextBatch(batch));
    if (!has) return false;
    const size_t num_targets = node_.extract_targets.size();
    if (batch->active() == 0) {
      for (size_t t = 0; t < num_targets; ++t) {
        batch->cols.emplace_back(batch->size);  // all-NULL, width stays right
      }
      return true;
    }
    ASSIGN_OR_RETURN(bool columnar, TryServeFromStrips(batch));
    // Every selected lane either came from a strip or is NULL (no hot
    // reservoir rows): servable output columns carry the strip's declared
    // type, so the batch tags can be seeded below.
    strips_pure_ = columnar && hot_k_.empty();
    if (!columnar) {
      const uint64_t heat_t0 = heat_enabled_ ? metrics::NowNanos() : 0;
      RETURN_NOT_OK((*fn_)(*batch, batch->sel, node_.extract_targets,
                           &out_cols_, &stats_));
      if (heat_enabled_) {
        decode_ns_ += metrics::NowNanos() - heat_t0;
        for (TargetHeat& h : heat_) {
          h.requests += batch->sel.size();
          h.reservoir_served += batch->sel.size();
        }
      }
    }
    // Dense selection (no filter below): the per-lane outputs already sit in
    // physical order, so the extractor's columns append wholesale.
    if (batch->active() == batch->size) {
      const size_t base = batch->cols.size();
      for (size_t t = 0; t < num_targets; ++t) {
        batch->cols.push_back(std::move(out_cols_[t]));
      }
      if (strips_pure_) {
        // Seed the batch type tags from the strips' declared types. The
        // profile pass still validates every lane (a mismatched strip type
        // just degrades to kMixed), but it never has to classify.
        for (const auto& [t, col] : servable_) {
          const ColTag::Type want = StripTagType(col->type);
          if (want != ColTag::Type::kUnknown) {
            batch->ProfileColumn(base + t, want);
          }
        }
      }
      return true;
    }
    for (size_t t = 0; t < num_targets; ++t) {
      std::vector<Datum> col(batch->size);
      for (size_t k = 0; k < batch->sel.size(); ++k) {
        col[batch->sel[k]] = std::move(out_cols_[t][k]);
      }
      batch->cols.push_back(std::move(col));
    }
    return true;
  }

 private:
  /// Snapshots the source table's columnar segment and partitions the
  /// targets into strip-servable (a matching strip column exists) and
  /// reservoir-only. The mutation version is read *before* the segment
  /// snapshot: re-checking it per batch then proves the table — and hence
  /// both the segment and every row byte the scan decodes — unchanged
  /// since this instant, so strip values and row values agree per row.
  void BindColumnarSegment() {
    seg_.reset();
    servable_.clear();
    servable_targets_.clear();
    unservable_targets_.clear();
    unservable_index_.clear();
    if (node_.extract_table == nullptr || node_.extract_rid_slot < 0 ||
        node_.children.empty()) {
      return;
    }
    open_version_ = node_.extract_table->MutationVersion();
    seg_ = node_.extract_table->ColumnarSegmentSnapshot();
    if (seg_ == nullptr) return;
    const auto& child_cols = node_.children[0]->output_schema.cols;
    for (size_t t = 0; t < node_.extract_targets.size(); ++t) {
      const ExtractTarget& target = node_.extract_targets[t];
      const StripColumn* col = nullptr;
      if (!target.raw_bytes && target.source_slot >= 0 &&
          static_cast<size_t>(target.source_slot) < child_cols.size()) {
        col = seg_->Find(child_cols[target.source_slot].name,
                         target.prefix_ids, target.attr_id,
                         static_cast<ValueType>(target.type_tag));
      }
      if (col != nullptr) {
        servable_.emplace_back(t, col);
        servable_targets_.push_back(target);
      } else {
        unservable_index_.push_back(t);
        unservable_targets_.push_back(target);
      }
    }
    if (servable_.empty()) seg_.reset();
    // When an unservable target shares its source column with servable
    // ones, the reservoir decode of that column is paid for every lane
    // anyway, and the extra attributes ride the same merge-join header pass
    // almost for free — strip serving would only stack per-lane overhead on
    // top. Serve the whole node from rows. (A deferring scan cannot reach
    // this shape: it defers only when the same segment resolves every
    // target on the column, which puts them all in the servable set.)
    for (const ExtractTarget& u : unservable_targets_) {
      if (seg_ == nullptr) break;
      for (const ExtractTarget& s : servable_targets_) {
        if (u.source_slot == s.source_slot) {
          seg_.reset();
          break;
        }
      }
    }
  }

  /// True when any extract target reads a column the scan deferred in this
  /// batch (scan output positions; the child's column prefix preserves
  /// them, so source_slot compares directly).
  bool SourcesLazyColumn(const RowBatch& batch) const {
    for (const ExtractTarget& t : node_.extract_targets) {
      for (int pos : batch.lazy_cols) {
        if (t.source_slot == pos) return true;
      }
    }
    return false;
  }

  /// Serves strip-resident targets for cold lanes (rid inside the segment)
  /// straight from the columnar segment — a typed copy instead of a
  /// reservoir header walk — and routes everything else (hot-tail lanes,
  /// reservoir-only targets) through the registered extractor on subset
  /// lane/target lists. Subsets preserve the grouped-by-source /
  /// sorted-by-(prefix, id) contract because they preserve relative order.
  /// Returns false when strip serving is off for this operator; the caller
  /// then runs the plain reservoir path.
  Result<bool> TryServeFromStrips(RowBatch* batch) {
    static metrics::Counter* strip_hits =
        metrics::GetCounter("extract.columnar_hits");
    // Deferred-bytes batches: the scan left reservoir bytes undecoded for
    // segment-covered rows on the promise that this operator serves those
    // columns from the very same segment. Anything voiding the promise — a
    // different (or never bound) segment, a table mutation since Open —
    // makes the batch unextractable; abort for a replan (the retry rebinds
    // everything) rather than ever serving NULLs for real values.
    if (batch->lazy_seg != nullptr && SourcesLazyColumn(*batch)) {
      if (seg_ == nullptr || batch->lazy_seg != seg_.get() ||
          node_.extract_table->MutationVersion() != open_version_) {
        return Status::Aborted(
            "columnar segment changed concurrently; replan");
      }
    }
    if (seg_ == nullptr) return false;
    // Any table mutation since Open — value update, append, maintenance —
    // permanently disables strip serving for this operator instance; the
    // reservoir path is always correct, strips are only an accelerator.
    if (node_.extract_table->MutationVersion() != open_version_) {
      seg_.reset();
      return false;
    }
    const size_t num_targets = node_.extract_targets.size();
    const std::vector<Datum>& rid_col =
        batch->cols[static_cast<size_t>(node_.extract_rid_slot)];
    const uint64_t cold_rows = seg_->row_count();
    cold_k_.clear();
    hot_k_.clear();
    for (size_t k = 0; k < batch->sel.size(); ++k) {
      const Datum& rid = rid_col[batch->sel[k]];
      if (rid.is_int() && static_cast<uint64_t>(rid.int_value()) < cold_rows) {
        cold_k_.push_back(k);
      } else {
        hot_k_.push_back(k);
      }
    }
    out_cols_.resize(num_targets);
    for (std::vector<Datum>& col : out_cols_) {
      col.assign(batch->sel.size(), Datum::Null());
    }
    for (const auto& [t, col] : servable_) {
      std::vector<Datum>& out = out_cols_[t];
      for (size_t k : cold_k_) {
        out[k] = col->GetDatum(
            static_cast<uint64_t>(rid_col[batch->sel[k]].int_value()));
      }
    }
    const uint64_t hits = cold_k_.size() * servable_.size();
    columnar_hits_ += hits;
    if (hits != 0) strip_hits->Add(hits);
    if (!unservable_targets_.empty()) {
      const uint64_t heat_t0 = heat_enabled_ ? metrics::NowNanos() : 0;
      RETURN_NOT_OK((*fn_)(*batch, batch->sel, unservable_targets_,
                           &sub_cols_, &stats_));
      if (heat_enabled_) decode_ns_ += metrics::NowNanos() - heat_t0;
      for (size_t u = 0; u < unservable_index_.size(); ++u) {
        out_cols_[unservable_index_[u]] = std::move(sub_cols_[u]);
      }
    }
    if (!hot_k_.empty()) {
      hot_lanes_.clear();
      for (size_t k : hot_k_) hot_lanes_.push_back(batch->sel[k]);
      const uint64_t heat_t0 = heat_enabled_ ? metrics::NowNanos() : 0;
      RETURN_NOT_OK((*fn_)(*batch, hot_lanes_, servable_targets_,
                           &sub_cols_, &stats_));
      if (heat_enabled_) decode_ns_ += metrics::NowNanos() - heat_t0;
      for (size_t v = 0; v < servable_.size(); ++v) {
        std::vector<Datum>& out = out_cols_[servable_[v].first];
        for (size_t j = 0; j < hot_k_.size(); ++j) {
          out[hot_k_[j]] = std::move(sub_cols_[v][j]);
        }
      }
    }
    if (heat_enabled_) {
      // Per-target lane accounting for this batch: every active lane asked
      // for every target; strip-resident targets answered cold lanes from
      // strips and hot lanes from the reservoir, the rest went all-reservoir.
      for (TargetHeat& h : heat_) h.requests += batch->sel.size();
      for (const auto& [t, col] : servable_) {
        (void)col;
        heat_[t].strip_served += cold_k_.size();
        heat_[t].reservoir_served += hot_k_.size();
      }
      for (size_t u : unservable_index_) {
        heat_[u].reservoir_served += batch->sel.size();
      }
    }
    return true;
  }

  /// Flushes accumulated attribute-heat samples to the registry's sink.
  /// Reservoir decode time is shared across targets in proportion to their
  /// reservoir-served lanes (one decode pass serves all targets at once, so
  /// a per-target clock would double-count).
  void FlushHeat() {
    if (!heat_enabled_ || heat_.empty()) return;
    uint64_t reservoir_total = 0;
    for (const TargetHeat& h : heat_) reservoir_total += h.reservoir_served;
    std::vector<AttrAccessSample> samples;
    samples.reserve(heat_.size());
    const std::string& table = node_.extract_table->name();
    for (size_t t = 0; t < heat_.size(); ++t) {
      if (heat_[t].requests == 0) continue;
      AttrAccessSample s;
      s.table = table;
      s.attr_id = node_.extract_targets[t].attr_id;
      s.requests = heat_[t].requests;
      s.strip_served = heat_[t].strip_served;
      s.reservoir_served = heat_[t].reservoir_served;
      s.decode_ns = reservoir_total == 0
                        ? 0
                        : decode_ns_ * heat_[t].reservoir_served /
                              reservoir_total;
      samples.push_back(std::move(s));
    }
    if (!samples.empty()) (*ctx_->udfs->heat_sink())(samples);
  }

  const PlanNode& node_;
  OperatorPtr child_;
  ExecContext* ctx_;
  const BatchExtractFn* fn_ = nullptr;
  std::vector<std::vector<Datum>> out_cols_;
  BatchExtractStats stats_;
  // Columnar strip serving state (BindColumnarSegment).
  std::shared_ptr<const ColumnarSegment> seg_;
  uint64_t open_version_ = 0;
  std::vector<std::pair<size_t, const StripColumn*>> servable_;
  std::vector<ExtractTarget> servable_targets_;
  std::vector<ExtractTarget> unservable_targets_;
  std::vector<size_t> unservable_index_;
  std::vector<size_t> cold_k_;
  std::vector<size_t> hot_k_;
  std::vector<uint32_t> hot_lanes_;
  /// Last batch came entirely from strips (no hot reservoir lanes), so
  /// servable output columns can seed batch type tags from the strip type.
  bool strips_pure_ = false;
  std::vector<std::vector<Datum>> sub_cols_;
  uint64_t columnar_hits_ = 0;
  // Attribute heat accounting (FlushHeat), one entry per extract target.
  struct TargetHeat {
    uint64_t requests = 0;
    uint64_t strip_served = 0;
    uint64_t reservoir_served = 0;
  };
  bool heat_enabled_ = false;
  std::vector<TargetHeat> heat_;
  uint64_t decode_ns_ = 0;
};

// ---------------------------------------------------------------- Sort

class SortOp : public RowOperator {
 public:
  SortOp(const PlanNode& node, OperatorPtr child, ExecContext* ctx)
      : node_(node), child_(std::move(child)), ctx_(ctx) {}

  Status Open() override {
    RETURN_NOT_OK(child_->Open());
    RowReader in(child_.get());
    DatumRow row;
    while (true) {
      ASSIGN_OR_RETURN(bool has, in.Next(&row));
      if (!has) break;
      DatumRow keys;
      keys.reserve(node_.sort_keys.size());
      for (const ExprPtr& k : node_.sort_keys) {
        ASSIGN_OR_RETURN(Datum v, EvalExpr(*k, row, ctx_->udfs));
        keys.push_back(std::move(v));
      }
      RETURN_NOT_OK(ctx_->Charge(RowBytes(row) + RowBytes(keys)));
      rows_.emplace_back(std::move(keys), std::move(row));
    }
    const std::vector<bool>& desc = node_.sort_desc;
    std::stable_sort(rows_.begin(), rows_.end(),
                     [&desc](const auto& a, const auto& b) {
                       for (size_t i = 0; i < a.first.size(); ++i) {
                         int c = Datum::Compare(a.first[i], b.first[i]);
                         if (c != 0) {
                           return (i < desc.size() && desc[i]) ? c > 0 : c < 0;
                         }
                       }
                       return false;
                     });
    pos_ = 0;
    return Status::OK();
  }

  Result<bool> NextRow(DatumRow* out) override {
    if (pos_ >= rows_.size()) return false;
    *out = std::move(rows_[pos_].second);
    ++pos_;
    return true;
  }

 private:
  const PlanNode& node_;
  OperatorPtr child_;
  ExecContext* ctx_;
  std::vector<std::pair<DatumRow, DatumRow>> rows_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------- Joins

struct RowHasher {
  size_t operator()(const DatumRow& row) const { return HashDatums(row); }
};
struct RowEq {
  bool operator()(const DatumRow& a, const DatumRow& b) const {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (Datum::Compare(a[i], b[i]) != 0) return false;
    }
    return true;
  }
};

class HashJoinOp : public RowOperator {
 public:
  HashJoinOp(const PlanNode& node, OperatorPtr probe, OperatorPtr build,
             ExecContext* ctx)
      : node_(node),
        probe_(std::move(probe)),
        build_(std::move(build)),
        ctx_(ctx) {}

  ~HashJoinOp() override { FlushBytecodeState(node_, ctx_, &bc_state_); }

  Status Open() override {
    if (node_.probe_key_programs.size() != node_.left_keys.size()) {
      return Status::Internal("join probe keys have no compiled programs");
    }
    RETURN_NOT_OK(build_->Open());
    RowReader build(build_.get());
    DatumRow row;
    while (true) {
      ASSIGN_OR_RETURN(bool has, build.Next(&row));
      if (!has) break;
      DatumRow keys;
      keys.reserve(node_.right_keys.size());
      bool has_null = false;
      for (const ExprPtr& k : node_.right_keys) {
        ASSIGN_OR_RETURN(Datum v, EvalExpr(*k, row, ctx_->udfs));
        has_null |= v.is_null();
        keys.push_back(std::move(v));
      }
      if (has_null) continue;  // NULL never equi-joins
      RETURN_NOT_OK(ctx_->Charge(RowBytes(row) + RowBytes(keys)));
      table_[std::move(keys)].push_back(std::move(row));
    }
    return probe_->Open();
  }

  Result<bool> NextRow(DatumRow* out) override {
    while (true) {
      if (matches_ != nullptr && match_pos_ < matches_->size()) {
        DatumRow combined = probe_row_;
        const DatumRow& build_row = (*matches_)[match_pos_++];
        combined.insert(combined.end(), build_row.begin(), build_row.end());
        if (node_.residual != nullptr) {
          ASSIGN_OR_RETURN(
              bool keep,
              EvalPredicate(*node_.residual, combined, ctx_->udfs));
          if (!keep) continue;
        }
        *out = std::move(combined);
        return true;
      }
      matches_ = nullptr;
      ASSIGN_OR_RETURN(bool found, NextProbeMatch());
      if (!found) return false;
    }
  }

 private:
  /// Positions the probe side at its next row whose keys hit the hash table.
  /// Probe keys evaluate a batch at a time through their compiled programs,
  /// so only matching lanes are ever materialized as rows.
  Result<bool> NextProbeMatch() {
    while (true) {
      while (probe_pos_ < probe_batch_.sel.size()) {
        const size_t k = probe_pos_++;
        keys_.clear();
        bool has_null = false;
        for (std::vector<Datum>& col : key_cols_) {
          has_null |= col[k].is_null();
          keys_.push_back(std::move(col[k]));
        }
        if (has_null) continue;  // NULL never equi-joins
        auto it = table_.find(keys_);
        if (it == table_.end()) continue;
        probe_batch_.MoveRow(probe_batch_.sel[k], &probe_row_);
        matches_ = &it->second;
        match_pos_ = 0;
        return true;
      }
      ASSIGN_OR_RETURN(bool has, probe_->NextBatch(&probe_batch_));
      if (!has) return false;
      probe_pos_ = 0;
      key_cols_.resize(node_.probe_key_programs.size());
      for (size_t i = 0; i < key_cols_.size(); ++i) {
        RETURN_NOT_OK(bytecode::ExecBatch(
            *node_.probe_key_programs[i], probe_batch_, probe_batch_.sel,
            ctx_->udfs, &bc_state_, &key_cols_[i]));
      }
    }
  }

  const PlanNode& node_;
  OperatorPtr probe_;
  OperatorPtr build_;
  ExecContext* ctx_;
  std::unordered_map<DatumRow, std::vector<DatumRow>, RowHasher, RowEq> table_;
  bytecode::ExecState bc_state_;
  RowBatch probe_batch_;
  /// Probe key values, one column per key, one entry per selected lane of
  /// probe_batch_; probe_pos_ is the next lane to look up.
  std::vector<std::vector<Datum>> key_cols_;
  size_t probe_pos_ = 0;
  DatumRow keys_;
  DatumRow probe_row_;
  const std::vector<DatumRow>* matches_ = nullptr;
  size_t match_pos_ = 0;
};

/// Classic sorted merge join over duplicate key groups. Children are Sort
/// nodes keyed on the join keys. Both inputs are materialized (the right
/// group must be re-scannable anyway).
class MergeJoinOp : public RowOperator {
 public:
  MergeJoinOp(const PlanNode& node, OperatorPtr left, OperatorPtr right,
              ExecContext* ctx)
      : node_(node),
        left_(std::move(left)),
        right_(std::move(right)),
        ctx_(ctx) {}

  Status Open() override {
    RETURN_NOT_OK(Drain(left_.get(), node_.left_keys, &lrows_));
    RETURN_NOT_OK(Drain(right_.get(), node_.right_keys, &rrows_));
    li_ = ri_ = 0;
    group_end_l_ = group_end_r_ = 0;
    emit_l_ = emit_r_ = 0;
    in_group_ = false;
    return Status::OK();
  }

  Result<bool> NextRow(DatumRow* out) override {
    while (true) {
      if (in_group_) {
        if (emit_r_ < group_end_r_) {
          DatumRow combined = lrows_[emit_l_].second;
          const DatumRow& rrow = rrows_[emit_r_].second;
          combined.insert(combined.end(), rrow.begin(), rrow.end());
          ++emit_r_;
          if (node_.residual != nullptr) {
            ASSIGN_OR_RETURN(
                bool keep,
                EvalPredicate(*node_.residual, combined, ctx_->udfs));
            if (!keep) continue;
          }
          *out = std::move(combined);
          return true;
        }
        ++emit_l_;
        if (emit_l_ < group_end_l_) {
          emit_r_ = ri_;
          continue;
        }
        // Advance past this group.
        li_ = group_end_l_;
        ri_ = group_end_r_;
        in_group_ = false;
      }
      // Find the next matching key group.
      while (li_ < lrows_.size() && ri_ < rrows_.size()) {
        const DatumRow& lk = lrows_[li_].first;
        const DatumRow& rk = rrows_[ri_].first;
        if (HasNull(lk)) {
          ++li_;
          continue;
        }
        if (HasNull(rk)) {
          ++ri_;
          continue;
        }
        int c = CompareKeys(lk, rk);
        if (c < 0) {
          ++li_;
        } else if (c > 0) {
          ++ri_;
        } else {
          group_end_l_ = li_ + 1;
          while (group_end_l_ < lrows_.size() &&
                 CompareKeys(lrows_[group_end_l_].first, lk) == 0) {
            ++group_end_l_;
          }
          group_end_r_ = ri_ + 1;
          while (group_end_r_ < rrows_.size() &&
                 CompareKeys(rrows_[group_end_r_].first, rk) == 0) {
            ++group_end_r_;
          }
          emit_l_ = li_;
          emit_r_ = ri_;
          in_group_ = true;
          break;
        }
      }
      if (!in_group_) return false;
    }
  }

 private:
  static bool HasNull(const DatumRow& keys) {
    return std::any_of(keys.begin(), keys.end(),
                       [](const Datum& d) { return d.is_null(); });
  }
  static int CompareKeys(const DatumRow& a, const DatumRow& b) {
    for (size_t i = 0; i < a.size(); ++i) {
      int c = Datum::Compare(a[i], b[i]);
      if (c != 0) return c;
    }
    return 0;
  }

  Status Drain(Operator* child, const std::vector<ExprPtr>& keys,
               std::vector<std::pair<DatumRow, DatumRow>>* out) {
    RETURN_NOT_OK(child->Open());
    RowReader in(child);
    DatumRow row;
    while (true) {
      ASSIGN_OR_RETURN(bool has, in.Next(&row));
      if (!has) break;
      DatumRow key_values;
      key_values.reserve(keys.size());
      for (const ExprPtr& k : keys) {
        ASSIGN_OR_RETURN(Datum v, EvalExpr(*k, row, ctx_->udfs));
        key_values.push_back(std::move(v));
      }
      RETURN_NOT_OK(ctx_->Charge(RowBytes(row) + RowBytes(key_values)));
      out->emplace_back(std::move(key_values), std::move(row));
    }
    return Status::OK();
  }

  const PlanNode& node_;
  OperatorPtr left_;
  OperatorPtr right_;
  ExecContext* ctx_;
  std::vector<std::pair<DatumRow, DatumRow>> lrows_, rrows_;
  size_t li_ = 0, ri_ = 0;
  size_t group_end_l_ = 0, group_end_r_ = 0;
  size_t emit_l_ = 0, emit_r_ = 0;
  bool in_group_ = false;
};

class NestedLoopJoinOp : public RowOperator {
 public:
  NestedLoopJoinOp(const PlanNode& node, OperatorPtr outer, OperatorPtr inner,
                   ExecContext* ctx)
      : node_(node),
        outer_(std::move(outer)),
        inner_(std::move(inner)),
        ctx_(ctx) {}

  Status Open() override {
    RETURN_NOT_OK(inner_->Open());
    RowReader inner(inner_.get());
    DatumRow row;
    while (true) {
      ASSIGN_OR_RETURN(bool has, inner.Next(&row));
      if (!has) break;
      RETURN_NOT_OK(ctx_->Charge(RowBytes(row)));
      inner_rows_.push_back(std::move(row));
    }
    RETURN_NOT_OK(outer_->Open());
    inner_pos_ = inner_rows_.size();
    return Status::OK();
  }

  Result<bool> NextRow(DatumRow* out) override {
    while (true) {
      if (inner_pos_ < inner_rows_.size()) {
        DatumRow combined = outer_row_;
        const DatumRow& inner_row = inner_rows_[inner_pos_++];
        combined.insert(combined.end(), inner_row.begin(), inner_row.end());
        if (node_.residual != nullptr) {
          ASSIGN_OR_RETURN(
              bool keep,
              EvalPredicate(*node_.residual, combined, ctx_->udfs));
          if (!keep) continue;
        }
        *out = std::move(combined);
        return true;
      }
      ASSIGN_OR_RETURN(bool has, outer_in_.Next(&outer_row_));
      if (!has) return false;
      inner_pos_ = 0;
    }
  }

 private:
  const PlanNode& node_;
  OperatorPtr outer_;
  OperatorPtr inner_;
  ExecContext* ctx_;
  RowReader outer_in_{outer_.get()};
  std::vector<DatumRow> inner_rows_;
  DatumRow outer_row_;
  size_t inner_pos_ = 0;
};

// ---------------------------------------------------------------- Aggregation

struct Accumulator {
  int64_t count = 0;
  bool any = false;
  bool as_double = false;
  int64_t isum = 0;
  double dsum = 0;
  Datum min, max;

  void Add(const Datum& v) {
    if (v.is_null()) return;
    any = true;
    ++count;
    if (v.is_numeric()) {
      if (v.is_double()) {
        if (!as_double) {
          dsum = static_cast<double>(isum);
          as_double = true;
        }
        dsum += v.double_value();
      } else if (as_double) {
        dsum += static_cast<double>(v.int_value());
      } else {
        isum += v.int_value();
      }
    }
    if (min.is_null() || Datum::Compare(v, min) < 0) min = v;
    if (max.is_null() || Datum::Compare(v, max) > 0) max = v;
  }

  /// Folds another accumulator's state into this one (Gather merges
  /// per-worker partial aggregates with this at the barrier).
  void Merge(const Accumulator& other) {
    if (!other.any) return;
    any = true;
    count += other.count;
    if (as_double || other.as_double) {
      double mine = as_double ? dsum : static_cast<double>(isum);
      double theirs =
          other.as_double ? other.dsum : static_cast<double>(other.isum);
      dsum = mine + theirs;
      as_double = true;
    } else {
      isum += other.isum;
    }
    if (!other.min.is_null() &&
        (min.is_null() || Datum::Compare(other.min, min) < 0)) {
      min = other.min;
    }
    if (!other.max.is_null() &&
        (max.is_null() || Datum::Compare(other.max, max) > 0)) {
      max = other.max;
    }
  }

  Datum Sum() const {
    if (!any) return Datum::Null();
    return as_double ? Datum::Double(dsum) : Datum::Int(isum);
  }
  Datum Avg() const {
    if (count == 0) return Datum::Null();
    double total = as_double ? dsum : static_cast<double>(isum);
    return Datum::Double(total / static_cast<double>(count));
  }
};

struct GroupState {
  int64_t star_count = 0;
  std::vector<Accumulator> accs;

  void Merge(const GroupState& other, size_t num_aggs) {
    if (accs.size() < num_aggs) accs.resize(num_aggs);
    star_count += other.star_count;
    for (size_t i = 0; i < other.accs.size(); ++i) {
      accs[i].Merge(other.accs[i]);
    }
  }
};

Result<DatumRow> FinalizeGroup(const PlanNode& node, const DatumRow& keys,
                               const GroupState& state) {
  DatumRow row = keys;
  for (size_t i = 0; i < node.aggs.size(); ++i) {
    const AggSpec& spec = node.aggs[i];
    const Accumulator& acc = state.accs[i];
    if (spec.fn == "count") {
      row.push_back(Datum::Int(spec.is_star ? state.star_count : acc.count));
    } else if (spec.fn == "sum") {
      row.push_back(acc.Sum());
    } else if (spec.fn == "avg") {
      row.push_back(acc.Avg());
    } else if (spec.fn == "min") {
      row.push_back(acc.min);
    } else if (spec.fn == "max") {
      row.push_back(acc.max);
    } else {
      return Status::NotImplemented("aggregate ", spec.fn);
    }
  }
  return row;
}

Status AccumulateRow(const PlanNode& node, const DatumRow& row,
                     GroupState* state, ExecContext* ctx) {
  if (state->accs.size() != node.aggs.size()) {
    state->accs.resize(node.aggs.size());
  }
  ++state->star_count;
  for (size_t i = 0; i < node.aggs.size(); ++i) {
    const AggSpec& spec = node.aggs[i];
    if (spec.is_star || spec.arg == nullptr) continue;
    ASSIGN_OR_RETURN(Datum v, EvalExpr(*spec.arg, row, ctx->udfs));
    state->accs[i].Add(v);
  }
  return Status::OK();
}

class HashAggregateOp : public RowOperator {
 public:
  HashAggregateOp(const PlanNode& node, OperatorPtr child, ExecContext* ctx)
      : node_(node), child_(std::move(child)), ctx_(ctx) {}

  Status Open() override {
    RETURN_NOT_OK(child_->Open());
    RowReader in(child_.get());
    DatumRow row;
    bool saw_rows = false;
    while (true) {
      ASSIGN_OR_RETURN(bool has, in.Next(&row));
      if (!has) break;
      saw_rows = true;
      DatumRow keys;
      keys.reserve(node_.group_keys.size());
      for (const ExprPtr& k : node_.group_keys) {
        ASSIGN_OR_RETURN(Datum v, EvalExpr(*k, row, ctx_->udfs));
        keys.push_back(std::move(v));
      }
      auto [it, inserted] = groups_.try_emplace(std::move(keys));
      if (inserted) {
        RETURN_NOT_OK(ctx_->Charge(RowBytes(it->first) + 64));
      }
      RETURN_NOT_OK(AccumulateRow(node_, row, &it->second, ctx_));
    }
    // Aggregate without GROUP BY over empty input: one row of initial
    // accumulator values (COUNT(*) = 0 etc.).
    if (!saw_rows && node_.group_keys.empty()) {
      GroupState empty;
      empty.accs.resize(node_.aggs.size());
      ASSIGN_OR_RETURN(DatumRow out, FinalizeGroup(node_, {}, empty));
      results_.push_back(std::move(out));
    }
    for (const auto& [keys, state] : groups_) {
      ASSIGN_OR_RETURN(DatumRow out, FinalizeGroup(node_, keys, state));
      results_.push_back(std::move(out));
    }
    pos_ = 0;
    return Status::OK();
  }

  Result<bool> NextRow(DatumRow* out) override {
    if (pos_ >= results_.size()) return false;
    *out = std::move(results_[pos_]);
    ++pos_;
    return true;
  }

 private:
  const PlanNode& node_;
  OperatorPtr child_;
  ExecContext* ctx_;
  std::unordered_map<DatumRow, GroupState, RowHasher, RowEq> groups_;
  std::vector<DatumRow> results_;
  size_t pos_ = 0;
};

/// Aggregation over input sorted by the group keys (the planner puts a Sort
/// underneath). Streams one group at a time — the memory-safe plan shape for
/// high-cardinality grouping.
class GroupAggregateOp : public RowOperator {
 public:
  GroupAggregateOp(const PlanNode& node, OperatorPtr child, ExecContext* ctx)
      : node_(node), child_(std::move(child)), ctx_(ctx) {}

  Status Open() override {
    RETURN_NOT_OK(child_->Open());
    ASSIGN_OR_RETURN(pending_, ReadOne());
    return Status::OK();
  }

  Result<bool> NextRow(DatumRow* out) override {
    if (!pending_.has_value()) return false;
    DatumRow group_keys = pending_->first;
    GroupState state;
    state.accs.resize(node_.aggs.size());
    while (pending_.has_value() &&
           RowEq()(pending_->first, group_keys)) {
      RETURN_NOT_OK(AccumulateRow(node_, pending_->second, &state, ctx_));
      ASSIGN_OR_RETURN(pending_, ReadOne());
    }
    ASSIGN_OR_RETURN(*out, FinalizeGroup(node_, group_keys, state));
    return true;
  }

 private:
  Result<std::optional<std::pair<DatumRow, DatumRow>>> ReadOne() {
    DatumRow row;
    ASSIGN_OR_RETURN(bool has, in_.Next(&row));
    if (!has) return std::optional<std::pair<DatumRow, DatumRow>>();
    DatumRow keys;
    keys.reserve(node_.group_keys.size());
    for (const ExprPtr& k : node_.group_keys) {
      ASSIGN_OR_RETURN(Datum v, EvalExpr(*k, row, ctx_->udfs));
      keys.push_back(std::move(v));
    }
    return std::make_optional(std::make_pair(std::move(keys), std::move(row)));
  }

  const PlanNode& node_;
  OperatorPtr child_;
  ExecContext* ctx_;
  RowReader in_{child_.get()};
  std::optional<std::pair<DatumRow, DatumRow>> pending_;
};

/// DISTINCT over sorted input.
class UniqueOp : public RowOperator {
 public:
  UniqueOp(OperatorPtr child) : child_(std::move(child)) {}

  Status Open() override {
    RETURN_NOT_OK(child_->Open());
    have_prev_ = false;
    return Status::OK();
  }

  Result<bool> NextRow(DatumRow* out) override {
    DatumRow row;
    while (true) {
      ASSIGN_OR_RETURN(bool has, in_.Next(&row));
      if (!has) return false;
      if (have_prev_ && RowEq()(row, prev_)) continue;
      prev_ = row;
      have_prev_ = true;
      *out = std::move(row);
      return true;
    }
  }

 private:
  OperatorPtr child_;
  RowReader in_{child_.get()};
  DatumRow prev_;
  bool have_prev_ = false;
};

class LimitOp : public Operator {
 public:
  LimitOp(const PlanNode& node, OperatorPtr child)
      : node_(node), child_(std::move(child)) {}

  Status Open() override {
    emitted_ = 0;
    return child_->Open();
  }

  /// Truncates the batch's selection vector mid-batch when the remaining
  /// quota is smaller than the batch.
  Result<bool> NextBatch(RowBatch* batch) override {
    if (emitted_ >= node_.limit) return false;
    ASSIGN_OR_RETURN(bool has, child_->NextBatch(batch));
    if (!has) return false;
    const uint64_t quota = static_cast<uint64_t>(node_.limit - emitted_);
    if (batch->sel.size() > quota) batch->sel.resize(quota);
    emitted_ += static_cast<int64_t>(batch->sel.size());
    return true;
  }

 private:
  const PlanNode& node_;
  OperatorPtr child_;
  int64_t emitted_ = 0;
};

Result<OperatorPtr> BuildOperator(const PlanNode& node, ExecContext* ctx,
                                  MorselSource* morsels);
Result<OperatorPtr> BuildOperatorInner(const PlanNode& node, ExecContext* ctx,
                                       MorselSource* morsels);

// ---------------------------------------------------------------- Gather
//
// Runs its single child pipeline on `parallel_degree` pool workers, each
// instantiating its own operator tree over a shared MorselSource, and merges
// the worker streams:
//  - streaming mode (child is a scan/filter/project chain): workers push
//    whole batches into a bounded queue; NextBatch() pops them in arrival
//    order. Row order is nondeterministic — the planner only parallelizes
//    where order is free.
//  - partial-aggregation mode (child is a HashAggregate): each worker runs
//    the aggregate's input pipeline into a private group map; Open() merges
//    the raw accumulators at the barrier (so AVG/SUM merge exactly, not via
//    finalized values) and NextBatch() drains the finalized groups.
class GatherOp : public Operator {
 public:
  GatherOp(const PlanNode& node, ExecContext* ctx) : node_(node), ctx_(ctx) {}

  ~GatherOp() override {
    // An abandoned stream (e.g. a Limit above us stopped pulling, or the
    // query aborted) must release blocked producers before the queue dies.
    {
      std::lock_guard lock(mu_);
      cancelled_ = true;
    }
    not_full_.notify_all();
    not_empty_.notify_all();
    for (std::future<Status>& f : futures_) {
      if (!f.valid()) continue;
      try {
        f.get();
      } catch (...) {  // a worker exception must not escape the destructor
      }
    }
    // Workers are done: flush morsel/backpressure tallies to the registry
    // and (for EXPLAIN ANALYZE) onto this plan node's actuals.
    const uint64_t morsels = morsels_.claims.load(std::memory_order_relaxed);
    const uint64_t stalls = stalls_.load(std::memory_order_relaxed);
    static metrics::Counter* morsels_total =
        metrics::GetCounter("exec.gather.morsels_total");
    static metrics::Counter* stalls_total =
        metrics::GetCounter("exec.gather.queue_full_stalls_total");
    morsels_total->Add(morsels);
    stalls_total->Add(stalls);
    if (ctx_->stats != nullptr) {
      if (OperatorStats* stats = ctx_->stats->For(node_)) {
        stats->morsels.fetch_add(morsels, std::memory_order_relaxed);
        stats->stalls.fetch_add(stalls, std::memory_order_relaxed);
      }
    }
  }

  Status Open() override {
    const PlanNode& child = *node_.children[0];
    partial_agg_ = child.kind == PlanKind::kHashAggregate;
    // The morsel source covers the pipeline's single base table; snapshot
    // its row count once so every worker scans the same prefix.
    const PlanNode* leaf = &child;
    while (!leaf->children.empty()) leaf = leaf->children[0].get();
    if (leaf->kind != PlanKind::kSeqScan || leaf->table == nullptr) {
      return Status::Internal("Gather child pipeline has no base-table scan");
    }
    {
      std::shared_lock lock(leaf->table->latch());
      morsels_.end = leaf->table->RowSlotCountUnlocked();
    }
    ThreadPool* pool =
        ctx_->pool != nullptr ? ctx_->pool : ThreadPool::Shared();
    size_t degree = static_cast<size_t>(std::max(1, node_.parallel_degree));
    degree = std::min(degree, std::max<size_t>(1, pool->worker_count()));
    static metrics::Counter* workers_total =
        metrics::GetCounter("exec.gather.workers_total");
    workers_total->Add(degree);
    active_workers_ = degree;
    // Capture the query thread's span identity (Open runs under the query's
    // execute span) so each worker's span lands in the same trace, parented
    // to the query rather than starting a disconnected trace of its own.
    parent_span_ids_ = metrics::CurrentSpanIds();
    futures_.reserve(degree);
    for (size_t i = 0; i < degree; ++i) {
      futures_.push_back(pool->Submit([this] { return RunWorker(); }));
    }
    if (partial_agg_) {
      // Barrier: every worker's partial state must land before finalize.
      Status first;
      for (std::future<Status>& f : futures_) {
        Status st = f.get();
        if (!st.ok() && first.ok()) first = st;
      }
      futures_.clear();
      RETURN_NOT_OK(first);
      return FinalizeAggregate();
    }
    return Status::OK();
  }

  Result<bool> NextBatch(RowBatch* batch) override {
    if (partial_agg_) {
      batch->Reset(0);
      while (batch->size < batch_capacity_ && agg_pos_ < agg_results_.size()) {
        batch->AppendRow(std::move(agg_results_[agg_pos_]));
        ++agg_pos_;
      }
      return batch->size > 0;
    }
    std::unique_lock lock(mu_);
    while (true) {
      if (!worker_status_.ok()) return worker_status_;
      if (!batch_queue_.empty()) {
        *batch = std::move(batch_queue_.front());
        batch_queue_.pop_front();
        not_full_.notify_one();
        return true;
      }
      if (active_workers_ == 0) return false;
      not_empty_.wait(lock);
    }
  }

 private:
  /// Queue depth in batches: enough buffering to decouple producers from
  /// the consumer without pinning much memory.
  static constexpr size_t kBatchQueueCap = 8;

  Status RunWorker() {
    // Adopt the parent query's trace on this pool thread for the duration
    // of the worker, and record the worker's run as a span under it.
    metrics::SpanIdScope adopt(parent_span_ids_);
    metrics::ScopedSpan span("exec.gather.worker");
    Status st = partial_agg_ ? RunAggWorker() : RunStreamWorker();
    span.End();
    std::lock_guard lock(mu_);
    if (!st.ok() && worker_status_.ok()) {
      worker_status_ = st;
      cancelled_ = true;  // stop sibling workers promptly
      not_full_.notify_all();
    }
    --active_workers_;
    not_empty_.notify_all();
    return st;
  }

  Status RunStreamWorker() {
    ASSIGN_OR_RETURN(OperatorPtr op,
                     BuildOperator(*node_.children[0], ctx_, &morsels_));
    RETURN_NOT_OK(op->Open());
    // The bounded queue carries whole RowBatches, so the mutex is taken once
    // per batch instead of once per row.
    RowBatch local;
    while (true) {
      ASSIGN_OR_RETURN(bool has, op->NextBatch(&local));
      if (!has) return Status::OK();
      if (local.active() == 0) continue;  // fully filtered batch
      std::unique_lock lock(mu_);
      if (!cancelled_ && batch_queue_.size() >= kBatchQueueCap) {
        // Consumer backpressure: the bounded queue is full.
        stalls_.fetch_add(1, std::memory_order_relaxed);
        not_full_.wait(lock, [this] {
          return cancelled_ || batch_queue_.size() < kBatchQueueCap;
        });
      }
      if (cancelled_) return Status::OK();
      batch_queue_.push_back(std::move(local));
      not_empty_.notify_one();
    }
  }

  Status RunAggWorker() {
    const PlanNode& agg = *node_.children[0];
    ASSIGN_OR_RETURN(OperatorPtr op,
                     BuildOperator(*agg.children[0], ctx_, &morsels_));
    RETURN_NOT_OK(op->Open());
    std::unordered_map<DatumRow, GroupState, RowHasher, RowEq> local;
    auto accumulate = [&](DatumRow& row) -> Status {
      DatumRow keys;
      keys.reserve(agg.group_keys.size());
      for (const ExprPtr& k : agg.group_keys) {
        ASSIGN_OR_RETURN(Datum v, EvalExpr(*k, row, ctx_->udfs));
        keys.push_back(std::move(v));
      }
      auto [it, inserted] = local.try_emplace(std::move(keys));
      if (inserted) {
        RETURN_NOT_OK(ctx_->Charge(RowBytes(it->first) + 64));
      }
      return AccumulateRow(agg, row, &it->second, ctx_);
    };
    RowReader in(op.get());
    DatumRow row;
    while (true) {
      ASSIGN_OR_RETURN(bool has, in.Next(&row));
      if (!has) break;
      RETURN_NOT_OK(accumulate(row));
    }
    std::lock_guard lock(agg_mu_);
    for (auto& [keys, state] : local) {
      auto [it, inserted] = groups_.try_emplace(keys);
      it->second.Merge(state, agg.aggs.size());
    }
    return Status::OK();
  }

  Status FinalizeAggregate() {
    const PlanNode& agg = *node_.children[0];
    // Aggregate without GROUP BY over empty input: one row of initial
    // accumulator values, matching the serial HashAggregateOp.
    if (groups_.empty() && agg.group_keys.empty()) {
      GroupState empty;
      empty.accs.resize(agg.aggs.size());
      ASSIGN_OR_RETURN(DatumRow out, FinalizeGroup(agg, {}, empty));
      agg_results_.push_back(std::move(out));
    }
    for (const auto& [keys, state] : groups_) {
      ASSIGN_OR_RETURN(DatumRow out, FinalizeGroup(agg, keys, state));
      agg_results_.push_back(std::move(out));
    }
    agg_pos_ = 0;
    // The HashAggregate node itself is never built in this mode (workers run
    // its input pipeline); credit its merged output here so EXPLAIN ANALYZE
    // doesn't print it as never-executed.
    if (ctx_->stats != nullptr) {
      if (OperatorStats* stats = ctx_->stats->For(agg)) {
        stats->instances.fetch_add(1, std::memory_order_relaxed);
        stats->rows.fetch_add(agg_results_.size(), std::memory_order_relaxed);
      }
    }
    return Status::OK();
  }

  const PlanNode& node_;
  ExecContext* ctx_;
  bool partial_agg_ = false;
  MorselSource morsels_;
  metrics::SpanIds parent_span_ids_;
  std::atomic<uint64_t> stalls_{0};
  std::vector<std::future<Status>> futures_;

  // Streaming-mode merge state (all guarded by mu_).
  std::mutex mu_;
  std::condition_variable not_empty_, not_full_;
  std::deque<RowBatch> batch_queue_;
  size_t active_workers_ = 0;
  bool cancelled_ = false;
  Status worker_status_;

  // Partial-aggregation merge state.
  std::mutex agg_mu_;
  std::unordered_map<DatumRow, GroupState, RowHasher, RowEq> groups_;
  std::vector<DatumRow> agg_results_;
  size_t agg_pos_ = 0;
};

Result<OperatorPtr> BuildOperator(const PlanNode& node, ExecContext* ctx,
                                  MorselSource* morsels) {
  ASSIGN_OR_RETURN(OperatorPtr op, BuildOperatorInner(node, ctx, morsels));
  op->set_batch_capacity(ctx->batch_size);
  if (ctx->stats != nullptr) {
    if (OperatorStats* stats = ctx->stats->For(node)) {
      OperatorPtr wrapped(
          new InstrumentedOp(std::move(op), stats, ctx->time_ops));
      wrapped->set_batch_capacity(ctx->batch_size);
      return wrapped;
    }
  }
  return op;
}

Result<OperatorPtr> BuildOperatorInner(const PlanNode& node, ExecContext* ctx,
                                       MorselSource* morsels) {
  // Gather builds its own child trees (one per worker, over a shared morsel
  // source), so don't recurse here.
  if (node.kind == PlanKind::kGather) {
    return OperatorPtr(new GatherOp(node, ctx));
  }
  std::vector<OperatorPtr> children;
  children.reserve(node.children.size());
  for (const auto& child : node.children) {
    ASSIGN_OR_RETURN(OperatorPtr op, BuildOperator(*child, ctx, morsels));
    children.push_back(std::move(op));
  }
  switch (node.kind) {
    case PlanKind::kSeqScan:
      return OperatorPtr(new ScanOp(node, ctx, morsels));
    case PlanKind::kFilter:
      return OperatorPtr(new FilterOp(node, std::move(children[0]), ctx));
    case PlanKind::kProject:
      return OperatorPtr(new ProjectOp(node, std::move(children[0]), ctx));
    case PlanKind::kExtract:
      return OperatorPtr(new ExtractOp(node, std::move(children[0]), ctx));
    case PlanKind::kSort:
      return OperatorPtr(new SortOp(node, std::move(children[0]), ctx));
    case PlanKind::kHashJoin:
      return OperatorPtr(new HashJoinOp(node, std::move(children[0]),
                                        std::move(children[1]), ctx));
    case PlanKind::kMergeJoin:
      return OperatorPtr(new MergeJoinOp(node, std::move(children[0]),
                                         std::move(children[1]), ctx));
    case PlanKind::kNestedLoopJoin:
      return OperatorPtr(new NestedLoopJoinOp(node, std::move(children[0]),
                                              std::move(children[1]), ctx));
    case PlanKind::kHashAggregate:
      return OperatorPtr(
          new HashAggregateOp(node, std::move(children[0]), ctx));
    case PlanKind::kGroupAggregate:
      return OperatorPtr(
          new GroupAggregateOp(node, std::move(children[0]), ctx));
    case PlanKind::kUnique:
      return OperatorPtr(new UniqueOp(std::move(children[0])));
    case PlanKind::kLimit:
      return OperatorPtr(new LimitOp(node, std::move(children[0])));
    case PlanKind::kGather:
      break;  // handled above
  }
  return Status::Internal("unknown plan node kind");
}

}  // namespace

Result<QueryResult> ExecutePlan(const PlanNode& plan, const UdfRegistry* udfs,
                                const ExecOptions& options) {
  static metrics::Counter* queries_total =
      metrics::GetCounter("exec.queries_total");
  static metrics::Counter* rows_out_total =
      metrics::GetCounter("exec.rows_out_total");
  static metrics::Histogram* query_hist =
      metrics::GetHistogram("exec.query_ns");
  const uint64_t start = metrics::NowNanos();

  ExecContext ctx;
  ctx.udfs = udfs;
  ctx.mem_limit = options.max_intermediate_bytes;
  ctx.pool = options.pool;
  ctx.stats = options.stats;
  ctx.batch_size = std::max<size_t>(1, options.batch_size);
  ctx.time_ops = options.time_operators;
  QueryResult result;
  {
    // Scope: the root operator (and any GatherOp inside it, which flushes
    // its morsel/stall tallies from its destructor) must be gone before the
    // caller reads options.stats.
    ASSIGN_OR_RETURN(OperatorPtr root, BuildOperator(plan, &ctx, nullptr));
    RETURN_NOT_OK(root->Open());
    for (const ExecSchema::Col& col : plan.output_schema.cols) {
      result.column_names.push_back(col.name);
      result.column_types.push_back(col.type);
    }
    static metrics::Counter* batches_total =
        metrics::GetCounter("exec.batches_total");
    static metrics::Histogram* batch_rows_hist =
        metrics::GetHistogram("exec.batch_rows");
    RowBatch batch;
    DatumRow row;
    while (true) {
      ASSIGN_OR_RETURN(bool has, root->NextBatch(&batch));
      if (!has) break;
      batches_total->Increment();
      batch_rows_hist->Observe(batch.active());
      for (uint32_t lane : batch.sel) {
        batch.MoveRow(lane, &row);
        result.rows.push_back(std::move(row));
      }
    }
  }

  const uint64_t elapsed = metrics::NowNanos() - start;
  queries_total->Increment();
  rows_out_total->Add(result.rows.size());
  query_hist->Observe(elapsed);
  if (options.stats != nullptr) options.stats->total_ns = elapsed;
  return result;
}

namespace {

void AppendAnalyzedNode(const PlanNode& node, const PlanStats& stats,
                        int depth, std::ostringstream* out) {
  for (int i = 0; i < depth; ++i) *out << "  ";
  if (depth > 0) *out << "-> ";
  *out << node.Summary();
  if (const OperatorStats* s = stats.For(node)) {
    const uint64_t loops = s->instances.load(std::memory_order_relaxed);
    if (loops == 0) {
      *out << " (never executed)";
    } else {
      const uint64_t ns = s->open_ns.load(std::memory_order_relaxed) +
                          s->next_ns.load(std::memory_order_relaxed);
      *out << " (actual rows=" << s->rows.load(std::memory_order_relaxed)
           << " loops=" << loops << " time=" << std::fixed
           << std::setprecision(3) << static_cast<double>(ns) / 1e6 << " ms)";
      if (node.kind == PlanKind::kGather) {
        *out << " (morsels=" << s->morsels.load(std::memory_order_relaxed)
             << " stalls=" << s->stalls.load(std::memory_order_relaxed)
             << ")";
      }
      if (node.kind == PlanKind::kExtract) {
        *out << " (decodes=" << s->decodes.load(std::memory_order_relaxed)
             << " attrs=" << s->attrs.load(std::memory_order_relaxed)
             << " columnar_hits="
             << s->columnar_hits.load(std::memory_order_relaxed) << ")";
      }
      if (node.kind == PlanKind::kSeqScan && !node.zone_filters.empty()) {
        *out << " (zone_skips="
             << s->zone_skips.load(std::memory_order_relaxed) << ")";
      }
      // Compiled-expression shape: static opcode counts from the attached
      // program(s) plus the lanes that escaped to the scalar evaluator.
      {
        uint64_t ops = 0, fused = 0;
        bool compiled = false;
        auto add = [&](const bytecode::Program* p) {
          if (p == nullptr) return;
          compiled = true;
          ops += p->num_instrs;
          fused += p->num_fused;
        };
        add(node.predicate_program.get());
        add(node.scan_filter_program.get());
        for (const auto& p : node.projection_programs) add(p.get());
        for (const auto& p : node.probe_key_programs) add(p.get());
        if (compiled) {
          *out << " (bytecode ops=" << ops << " fused=" << fused
               << " typed=" << s->bc_typed_lanes.load(std::memory_order_relaxed)
               << " fallback_lanes="
               << s->bc_fallback_lanes.load(std::memory_order_relaxed) << ")";
        }
      }
      const uint64_t batches = s->batches.load(std::memory_order_relaxed);
      if (batches > 0) {
        *out << " (batches=" << batches
             << " avg_rows=" << s->rows.load(std::memory_order_relaxed) /
                                    batches
             << ")";
      }
    }
  }
  *out << "\n";
  for (const auto& child : node.children) {
    AppendAnalyzedNode(*child, stats, depth + 1, out);
  }
}

}  // namespace

std::string ExplainAnalyzeText(const PlanNode& plan, const PlanStats& stats) {
  std::ostringstream out;
  AppendAnalyzedNode(plan, stats, 0, &out);
  return out.str();
}

}  // namespace sinew::engine
