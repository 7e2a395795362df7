#include "engine/exec.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <iomanip>
#include <limits>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <sstream>
#include <unordered_map>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "engine/bytecode.h"
#include "engine/columnar.h"
#include "engine/row_codec.h"

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
  // Values bound to the plan's parameter slots (Expr::param), or nullptr.
  const std::vector<Datum>* params = nullptr;
  // See QueryExecInfo::move_epoch_bound.
  uint64_t move_epoch_bound = UINT64_MAX;
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

/// Raises `*stat` to `v` if it is lower.
void FetchMax(std::atomic<uint64_t>* stat, uint64_t v) {
  uint64_t cur = stat->load(std::memory_order_relaxed);
  while (cur < v &&
         !stat->compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

/// Drains an operator's bytecode lane counters into its plan node's stats
/// and returns the state's scratch memory; operators with a compiled program
/// call this from their destructor.
void FlushBytecodeState(const PlanNode& node, ExecContext* ctx,
                        bytecode::ExecState* st) {
  if (ctx->stats != nullptr &&
      (st->typed_lanes != 0 || st->boxed_lanes != 0)) {
    if (OperatorStats* s = ctx->stats->For(node)) {
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
      : node_(node), ctx_(ctx), morsels_(morsels) {
    bc_state_.params = ctx->params;
  }

  ~ScanOp() override {
    if (ctx_->stats != nullptr) {
      if (OperatorStats* s = ctx_->stats->For(node_)) {
        s->zone_skips.fetch_add(zone_skips_, std::memory_order_relaxed);
        s->visited.fetch_add(visited_, std::memory_order_relaxed);
        s->filter_walked.fetch_add(filter_walked_, std::memory_order_relaxed);
        s->output_walked.fetch_add(output_walked_, std::memory_order_relaxed);
        s->stale.fetch_add(stale_walked_, std::memory_order_relaxed);
        FetchMax(&s->filter_strip_cols, filter_strip_cols_);
        FetchMax(&s->output_strip_cols, output_strip_cols_);
        s->decodes.fetch_add(extract_stats_.decodes,
                             std::memory_order_relaxed);
        s->attrs.fetch_add(extract_stats_.attrs, std::memory_order_relaxed);
        s->columnar_hits.fetch_add(columnar_hits_,
                                   std::memory_order_relaxed);
        s->extract_ns.fetch_add(extract_ns_, std::memory_order_relaxed);
      }
    }
    FlushHeat();
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
    const size_t width = node_.output_schema.cols.size();
    // The plan was built against an earlier schema snapshot; if a
    // concurrent ADD/DROP COLUMN changed the live layout in between,
    // silently decoding would misalign columns — fail fast instead (the
    // caller retries with a fresh plan).
    bool same_layout =
        rid_position_ + 1 + node_.virtual_columns.size() == width;
    for (size_t i = 0; same_layout && i < rid_position_; ++i) {
      same_layout = schema_.columns()[live_slots_[i]].name ==
                    node_.output_schema.cols[i].name;
    }
    if (!same_layout) {
      return Status::Aborted("schema changed concurrently; replan");
    }
    // Which phase produces each output position: the filter columns before
    // the pushed-down filter runs, the output columns for survivors only.
    // Every probe lane carries __rid, and a virtual column not read by the
    // filter is resolved for survivors.
    sources_.assign(width, Source::kNull);
    for (size_t pos : node_.scan_output_cols) sources_[pos] = Source::kOutput;
    for (size_t pos : node_.scan_filter_cols) sources_[pos] = Source::kFilter;
    sources_[rid_position_] = Source::kFilter;
    filter_ = Phase{};
    output_ = Phase{};
    const std::vector<ExprPtr>& virtuals = node_.virtual_columns;
    for (size_t v = 0; v < virtuals.size(); ++v) {
      const size_t pos = rid_position_ + 1 + v;
      if (sources_[pos] != Source::kFilter) sources_[pos] = Source::kOutput;
      RETURN_NOT_OK(AddVirtual(
          *virtuals[v], pos,
          sources_[pos] == Source::kFilter ? &filter_ : &output_));
    }
    FinishGroups(&filter_);
    FinishGroups(&output_);
    PlanWalk(Source::kFilter, &filter_);
    PlanWalk(Source::kOutput, &output_);
    for (Phase* phase : {&filter_, &output_}) {
      std::vector<size_t>& touched = phase->touched;
      for (const auto& [pos, type] : phase->walk.columns) {
        touched.push_back(pos);
      }
      for (const VirtualCol& v : phase->cols) touched.push_back(v.pos);
      if (phase == &filter_) {
        touched.insert(touched.end(), node_.scan_filter_cols.begin(),
                       node_.scan_filter_cols.end());
      }
      std::sort(touched.begin(), touched.end());
      touched.erase(std::unique(touched.begin(), touched.end()),
                    touched.end());
    }
    // Columns that leave the scan declare their physical type, so the VM
    // validates them instead of classifying; virtual columns are untyped.
    col_types_.assign(width, ColTag::Type::kUnknown);
    for (size_t i = 0; i < rid_position_; ++i) {
      const ColTag::Type t = TagType(schema_.columns()[live_slots_[i]].type);
      col_types_[i] = t == ColTag::Type::kBytes ? ColTag::Type::kMixed : t;
    }
    col_types_[rid_position_] = ColTag::Type::kInt;
    if (!virtuals.empty()) {
      fn_ = ctx_->udfs == nullptr ? nullptr : ctx_->udfs->batch_extract();
      if (fn_ == nullptr) {
        return Status::Internal("no batch extractor is registered");
      }
      // Attribute heat telemetry is armed only when a sink is installed;
      // otherwise every accounting branch is a predicted-false check.
      heat_enabled_ = ctx_->udfs->heat_sink() != nullptr;
    }
    seg_.reset();
    seg_rows_ = 0;
    return Status::OK();
  }

  /// Chunked shared latching: one latch acquisition covers up to kScanChunk
  /// rows, so the background materializer's row updates can interleave
  /// between chunks. Everything read from the table — row bytes, row
  /// stamps, strips, zone maps — is read under that one acquisition, so it
  /// all describes the same table state. A chunk never straddles the
  /// attached segment's end: the segment covers all of it or none of it,
  /// and a covered chunk whose stamps are newer than the segment may hold
  /// stale rows (ProbeUnlocked). A scan whose plan predates
  /// rows moved to a new physical design aborts with "replan" at its next
  /// chunk. Batches carry surviving rows only.
  Result<bool> NextBatch(RowBatch* batch) override {
    Table* table = node_.table;
    batch->Reset(node_.output_schema.cols.size());
    batch->col_types = col_types_;
    while (batch->size < batch_capacity_ &&
           (rid_ < end_ ||
            (morsels_ != nullptr && morsels_->Claim(&rid_, &end_)))) {
      std::shared_lock lock(table->latch());
      if (table->MoveEpochUnlocked() > ctx_->move_epoch_bound) {
        return Status::Aborted(
            "rows moved to a new physical design concurrently; replan");
      }
      if (!node_.zone_filters.empty()) {
        SkipZonedStripsUnlocked(table);
        if (rid_ >= end_) continue;
      }
      RefreshStripsUnlocked(table);
      uint64_t chunk_end = std::min(end_, rid_ + kScanChunk);
      chunk_covered_ = rid_ < seg_rows_;
      if (chunk_covered_) chunk_end = std::min(chunk_end, seg_rows_);
      chunk_stale_ =
          chunk_covered_ && table->MayHoldStaleUnlocked(rid_, chunk_end);
      while (rid_ < chunk_end && batch->size < batch_capacity_) {
        RETURN_NOT_OK(ProbeUnlocked(chunk_end, batch));
      }
    }
    // Lanes no round set (AppendLanes) are NULL.
    for (std::vector<Datum>& col : batch->cols) col.resize(batch->size);
    return batch->size > 0;
  }

 private:
  /// Where an output position's value comes from: the phase-1 (filter)
  /// pass, the phase-2 (output) pass, or nowhere (unreferenced, NULL).
  enum class Source : uint8_t { kNull, kFilter, kOutput };

  /// A virtual column's reader of an extraction target: (column index in
  /// its phase, index of the source the target belongs to).
  using Reader = std::pair<uint32_t, uint8_t>;

  /// One virtual column of a phase: PlanNode::virtual_columns[pos - first].
  struct VirtualCol {
    size_t pos = 0;  // scan output position
    const Expr* ref = nullptr;
    /// Index in Phase::source_groups of the group reading its first source.
    size_t first_source = 0;
    bool ranked = false;  // some source holds several typed variants
    /// Reads a lone extraction source: every lane reads it, so no lane
    /// picks a source.
    bool simple = false;
    /// Per segment (RefreshStripsUnlocked), multi-source columns only: a
    /// covered round fills it from its own column's physical strip, and
    /// none of its sources is read (OwnStrip).
    bool filled = false;
    /// Per lane of the batch being filled, unless simple: the source the
    /// lane reads (-1: none is non-NULL).
    std::vector<int8_t> pick;
    /// Per lane, ranked columns only: type tag of the variant held; empty
    /// until the round's first value lands.
    std::vector<int64_t> rank;
  };

  /// The extraction targets one phase reads from one source column.
  struct ExtractGroup {
    int source_slot = -1;  // scan output position of the source
    /// Distinct targets in ExtractTarget order (the BatchExtractFn
    /// argument); the readers of targets[t] are
    /// readers[reader_begin[t], reader_begin[t + 1]).
    std::vector<ExtractTarget> targets;
    std::vector<uint32_t> reader_begin;
    std::vector<Reader> readers;
    /// (target, reader) pairs of the columns added so far (AddVirtual);
    /// FinishGroups folds them into the three vectors above.
    std::vector<std::pair<const ExtractTarget*, Reader>> pending;
    /// Every lane is extracted when a simple column reads the group;
    /// otherwise only lanes some other reader picked it for.
    bool every_lane = false;
    std::vector<Reader> pickers;
    /// Strip column per target in the current segment; empty unless the
    /// group is strip-served (ResolveStrips): a covered chunk then fills
    /// its readers from these and extracts nothing.
    std::vector<const StripColumn*> strips;
    /// Per segment: a covered round extracts from this group, because it is
    /// not strip-served and some reader is not `filled`. Its source column
    /// is then walked in covered rounds too.
    bool covered_reads = true;
    /// Values found but not yet in the batch, `doc` being the batch lane.
    std::vector<ExtractedValue> values;
    /// Attribute heat accounting (FlushHeat), parallel to `targets`.
    struct Heat {
      uint64_t requests = 0;
      uint64_t strip_served = 0;
      uint64_t reservoir_served = 0;
    };
    std::vector<Heat> heat;
  };

  /// One decode phase's row walk: the table slots it reads (ascending), the
  /// typed-primary columns (scan position, type) they land in — __rid
  /// last — and per slot that column's tag in the batch being filled.
  struct Walk {
    std::vector<size_t> slots;
    std::vector<std::pair<size_t, ColTag::Type>> columns;
    std::vector<ColTag*> dst;
    size_t first_offset = 0;  // see LaneSink
  };

  /// A scan column that a chunk the attached segment covers reads from a
  /// strip column instead of the row bytes.
  struct StripFill {
    size_t pos = 0;  // scan output position
    const StripColumn* col = nullptr;
    bool physical = false;  // a physical column, else a virtual one
  };

  /// The columns one decode phase produces and the row walks that read
  /// them: `walk` for an uncovered round (a chunk the attached segment does
  /// not cover, or stale rows of one it does), and `seg_walk` for a covered
  /// round. `seg_walk` leaves out the slots strips serve: the physical
  /// columns with a strip, the sources of multi-source columns filled from
  /// their own column's strip, and the source columns only strip-served
  /// extraction groups read. A covered round whose every slot strips serve
  /// reads no row bytes at all.
  struct Phase {
    Walk walk, seg_walk;
    /// The positions the phase produces itself (PlanWalk).
    std::vector<size_t> own_positions;
    /// Per segment (RefreshStripsUnlocked): the columns a covered chunk
    /// fills from strips, and the typed-primary columns of its batch —
    /// seg_walk.columns plus one per fill; `own_fills` of the fills are
    /// multi-source columns filled from their own column's strip.
    std::vector<StripFill> fills;
    size_t own_fills = 0;
    std::vector<std::pair<size_t, ColTag::Type>> seg_columns;
    std::vector<VirtualCol> cols;
    std::vector<ExtractGroup> groups;
    /// Per column source, in column order: the group reading it (-1: the
    /// attribute's own column, read as is).
    std::vector<int> source_groups;
    /// Every position a round of the phase writes, boxes or profiles: its
    /// walk's columns (__rid included; strip fills are a subset of them and
    /// of `cols`), its virtual columns and, for the filter phase, the
    /// columns the filter reads. ReadPhase resets only these.
    std::vector<size_t> touched;
  };

  /// Adds virtual column `ref` (output position `pos`) to `phase`, its
  /// extraction sources joining the phase's group for each source column.
  Status AddVirtual(const Expr& ref, size_t pos, Phase* phase) {
    VirtualCol& col = phase->cols.emplace_back();
    col.pos = pos;
    col.ref = &ref;
    col.first_source = phase->source_groups.size();
    col.simple = ref.args.size() == 1;
    const auto index = static_cast<uint32_t>(phase->cols.size() - 1);
    for (size_t i = 0; i < ref.args.size(); ++i) {
      const int src = ref.args[i]->bound_slot;
      if (src < 0 || static_cast<size_t>(src) >= rid_position_) {
        return Status::Internal("virtual column reads scan position ", src);
      }
      const std::vector<ExtractTarget>& targets = (*ref.virtual_sources)[i];
      if (targets.empty()) {
        col.simple = false;
        phase->source_groups.push_back(-1);
        continue;
      }
      if (schema_.columns()[live_slots_[src]].type != ColumnType::kBytes) {
        return Status::TypeError(
            "virtual column source must be serialized data");
      }
      std::vector<ExtractGroup>& groups = phase->groups;
      auto g = std::find_if(groups.begin(), groups.end(),
                            [src](const ExtractGroup& group) {
                              return group.source_slot == src;
                            });
      if (g == groups.end()) {
        g = groups.emplace(groups.end());
        g->source_slot = src;
      }
      const Reader reader(index, static_cast<uint8_t>(i));
      for (const ExtractTarget& t : targets) {
        g->pending.emplace_back(&t, reader);
      }
      if (ref.args.size() == 1) {
        g->every_lane = true;
      } else {
        g->pickers.push_back(reader);
      }
      col.ranked |= targets.size() > 1;
      phase->source_groups.push_back(static_cast<int>(g - groups.begin()));
    }
    return Status::OK();
  }

  /// Dedupes each group's pending (target, reader) pairs into its sorted
  /// targets and their readers. Planner-sorted columns arrive mostly in
  /// target order already.
  static void FinishGroups(Phase* phase) {
    for (ExtractGroup& g : phase->groups) {
      auto less = [](const auto& a, const auto& b) {
        return *a.first < *b.first;
      };
      if (!std::is_sorted(g.pending.begin(), g.pending.end(), less)) {
        std::stable_sort(g.pending.begin(), g.pending.end(), less);
      }
      for (const auto& [target, reader] : g.pending) {
        if (g.targets.empty() || g.targets.back() != *target) {
          g.targets.push_back(*target);
          g.reader_begin.push_back(static_cast<uint32_t>(g.readers.size()));
        }
        g.readers.push_back(reader);
      }
      g.reader_begin.push_back(static_cast<uint32_t>(g.readers.size()));
      g.heat.resize(g.targets.size());
      g.pending = {};
    }
  }

  static ColTag::Type TagType(ColumnType type) {
    switch (type) {
      case ColumnType::kBool: return ColTag::Type::kBool;
      case ColumnType::kInt: return ColTag::Type::kInt;
      case ColumnType::kDouble: return ColTag::Type::kDouble;
      case ColumnType::kText: return ColTag::Type::kText;
      case ColumnType::kBytes: break;
    }
    return ColTag::Type::kBytes;
  }

  /// Plans `phase`'s uncovered row walk: the positions `source` produces
  /// plus every source its virtual columns read (their documents and
  /// own-column values come from the same walk), and __rid. A covered
  /// round's walk leaves out what strips serve (RefreshStripsUnlocked).
  void PlanWalk(Source source, Phase* phase) {
    for (size_t i = 0; i < rid_position_; ++i) {
      if (sources_[i] == source) phase->own_positions.push_back(i);
    }
    std::vector<size_t> positions = phase->own_positions;
    for (const VirtualCol& v : phase->cols) {
      for (const ExprPtr& arg : v.ref->args) {
        positions.push_back(static_cast<size_t>(arg->bound_slot));
      }
    }
    std::sort(positions.begin(), positions.end());
    positions.erase(std::unique(positions.begin(), positions.end()),
                    positions.end());
    BuildWalk(positions, &phase->walk);
  }

  /// Sets `w` to walk the slots of `positions` (ascending) into their
  /// typed-primary columns, __rid last.
  void BuildWalk(const std::vector<size_t>& positions, Walk* w) const {
    w->slots.clear();
    w->columns.clear();
    // Live slots ascend with position, so the slots come out ascending.
    for (size_t pos : positions) {
      w->slots.push_back(live_slots_[pos]);
      w->columns.emplace_back(
          pos, TagType(schema_.columns()[w->slots.back()].type));
    }
    w->columns.emplace_back(rid_position_, ColTag::Type::kInt);
    w->dst.resize(positions.size());
  }

  /// Fills every lane of `phase`'s strip-served columns in `b` from the
  /// strips, lane k holding the row of b's __rid lane k — every one of them
  /// below the segment's row count. Ints, doubles and bools scatter by
  /// presence; text lands as views into the strip blob, which seg_ keeps
  /// alive.
  void FillStrips(const Phase& phase, RowBatch* b) {
    static metrics::Counter* strip_lanes =
        metrics::GetCounter("scan.strip_filled_lanes");
    const int64_t* rids = b->tags[rid_position_].ints.data();
    const size_t n = b->size;
    uint64_t physical = 0;
    for (const StripFill& f : phase.fills) {
      ColTag* dst = &b->tags[f.pos];
      auto scatter = [&](auto store) {
        for (size_t j = 0; j < n; ++j) {
          const auto rid = static_cast<uint64_t>(rids[j]);
          const StripRef& s = f.col->strips[rid / kStripRows];
          const int64_t dense =
              s.DenseIndex(static_cast<uint32_t>(rid - s.strip.first_row));
          const auto lane = static_cast<uint32_t>(j);
          if (dense < 0) {
            dst->SetNull(lane);
          } else {
            store(lane, s, dense);
          }
        }
      };
      switch (f.col->type) {
        case ValueType::kInt:
          scatter([dst](uint32_t lane, const StripRef& s, int64_t d) {
            dst->ints[lane] = s.strip.ints[d];
          });
          break;
        case ValueType::kDouble:
          scatter([dst](uint32_t lane, const StripRef& s, int64_t d) {
            dst->doubles[lane] = s.strip.doubles[d];
          });
          break;
        case ValueType::kBool:
          scatter([dst](uint32_t lane, const StripRef& s, int64_t d) {
            dst->bools[lane] = s.strip.bools[d];
          });
          break;
        default:  // kString: the only other strip type
          scatter([dst](uint32_t lane, const StripRef& s, int64_t d) {
            dst->views[lane] = s.TextAt(d);
          });
          break;
      }
      if (f.physical) physical += n;
    }
    strip_lanes->Add(physical);
  }

  /// WalkRow sink writing one row into lane `lane` of a phase's columns. It
  /// also records where the row held its first requested value: the
  /// prefetch target for the rows ahead (PrefetchRow).
  struct LaneSink {
    Walk* walk;
    uint32_t lane;
    void Null(size_t k) const { walk->dst[k]->SetNull(lane); }
    void Int(size_t k, int64_t v) const { walk->dst[k]->ints[lane] = v; }
    void Double(size_t k, double v) const {
      walk->dst[k]->doubles[lane] = v;
    }
    void Bool(size_t k, bool v) const {
      walk->dst[k]->bools[lane] = v ? 1 : 0;
    }
    void Str(size_t k, std::string_view v) const {
      walk->dst[k]->views[lane] = v;
    }
    void Offset(size_t k, size_t offset) const {
      if (k == 0) walk->first_offset = offset;
    }
  };

  /// How many rows ahead of the one being walked PrefetchRow runs.
  static constexpr uint64_t kPrefetchRows = 16;

  /// Rows are separate heap strings, so each walk would otherwise wait on
  /// up to two cache misses: the row's header, and the line holding its
  /// first requested value, usually hundreds of bytes in (past the
  /// reservoir). Prefetches both for a row walked soon, the second at the
  /// offset where `walk` last found that value: rows of one table differ
  /// there by their variable-length values only.
  static void PrefetchRow(const std::string& row, const Walk& walk) {
    const size_t at = std::min(walk.first_offset, row.size());
    __builtin_prefetch(row.data());
    __builtin_prefetch(row.data() + (at > 32 ? at - 32 : 0));
    __builtin_prefetch(row.data() + std::min(at + 32, row.size()));
  }

  /// Advances rid_ past leading column strips whose zone maps prove no row
  /// can pass the pushed-down filter. Caller holds the table latch, which is
  /// what makes the consult sound: a write to a covered row stamps it under
  /// the exclusive latch, so under one shared acquisition a strip whose
  /// chunk stamp is no newer than the segment bounds every row it covers,
  /// and a strip holding a stale row is never skipped.
  void SkipZonedStripsUnlocked(Table* table) {
    static metrics::Counter* zonemap_skips =
        metrics::GetCounter("strips.skipped_by_zonemap");
    const std::shared_ptr<const ColumnarSegment>& seg =
        table->ColumnarSegmentUnlocked();
    if (seg == nullptr || rid_ >= seg->row_count()) return;
    resolved_zones_.clear();
    for (const ZoneFilter& zf : node_.zone_filters) {
      const auto type = static_cast<ValueType>(zf.type_tag);
      const StripColumn* col =
          zf.physical
              ? seg->FindPhysical(zf.source_column, type)
              : seg->Find(zf.source_column, zf.prefix_ids, zf.attr_id, type);
      if (col != nullptr) resolved_zones_.emplace_back(col, &zf);
    }
    if (resolved_zones_.empty()) return;
    while (rid_ < end_ && rid_ < seg->row_count()) {
      const size_t strip = static_cast<size_t>(rid_ / kStripRows);
      if (table->MayHoldStaleUnlocked(
              rid_, std::min<uint64_t>((strip + 1) * kStripRows,
                                       seg->row_count()))) {
        return;
      }
      bool skip = false;
      for (const auto& [col, zf] : resolved_zones_) {
        if (strip >= col->strips.size()) continue;
        const Datum& literal =
            zf->param >= 0 && ctx_->params != nullptr
                ? (*ctx_->params)[static_cast<size_t>(zf->param)]
                : zf->literal;
        if (ZoneCanSkip(col->strips[strip], zf->op, literal)) {
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

  /// Resolves the scan against the table's attached columnar segment, once
  /// per segment (the held pointer pins the address the resolution is keyed
  /// on and keeps the strips text views point into alive): per phase, the
  /// multi-source columns filled from their own column's strip, each
  /// extraction group's strips, the columns a covered chunk fills from
  /// strips and the walk left for its row bytes. Caller holds the table
  /// latch: under it the segment agrees with every covered row that is not
  /// stale, so a covered round's lanes may be served from the strips
  /// instead of their row bytes.
  void RefreshStripsUnlocked(Table* table) {
    const std::shared_ptr<const ColumnarSegment>& seg =
        table->ColumnarSegmentUnlocked();
    if (seg == seg_) return;
    seg_ = seg;
    seg_rows_ = seg == nullptr ? 0 : seg->row_count();
    for (Phase* phase : {&filter_, &output_}) {
      phase->fills.clear();
      phase->own_fills = 0;
      std::vector<size_t> rest = phase->own_positions;
      for (VirtualCol& v : phase->cols) {
        const StripColumn* own =
            v.simple ? nullptr : OwnStrip(seg.get(), *phase, v);
        v.filled = own != nullptr;
        if (v.filled) {
          phase->fills.push_back({v.pos, own, false});
          ++phase->own_fills;
        } else if (!v.simple) {
          for (const ExprPtr& arg : v.ref->args) {
            rest.push_back(static_cast<size_t>(arg->bound_slot));
          }
        }
      }
      for (ExtractGroup& g : phase->groups) {
        ResolveStrips(seg.get(), *phase, &g);
        g.covered_reads =
            g.strips.empty() &&
            std::any_of(g.readers.begin(), g.readers.end(),
                        [phase](const Reader& r) {
                          return !phase->cols[r.first].filled;
                        });
        if (g.covered_reads) rest.push_back(static_cast<size_t>(g.source_slot));
        if (g.strips.empty()) continue;
        for (size_t t = 0; t < g.targets.size(); ++t) {
          for (uint32_t r = g.reader_begin[t]; r < g.reader_begin[t + 1];
               ++r) {
            phase->fills.push_back(
                {phase->cols[g.readers[r].first].pos, g.strips[t], false});
          }
        }
      }
      if (seg == nullptr) continue;
      std::sort(rest.begin(), rest.end());
      rest.erase(std::unique(rest.begin(), rest.end()), rest.end());
      std::erase_if(rest, [&](size_t pos) {
        const Column& c = schema_.columns()[live_slots_[pos]];
        const StripColumn* col =
            seg->FindPhysical(c.name, StripValueType(c.type));
        if (col != nullptr) phase->fills.push_back({pos, col, true});
        return col != nullptr;
      });
      BuildWalk(rest, &phase->seg_walk);
      phase->seg_columns = phase->seg_walk.columns;
      for (const StripFill& f : phase->fills) {
        phase->seg_columns.emplace_back(f.pos, StripTagType(f.col->type));
      }
    }
    filter_strip_cols_ = std::max(filter_strip_cols_, filter_.fills.size());
    output_strip_cols_ = std::max(output_strip_cols_, output_.fills.size());
  }

  /// The physical strip a covered round fills multi-source column `v` from,
  /// or nullptr. `v` must read one variant, its first source must be the
  /// attribute's own column (read as is), and that column must have a
  /// strip of the variant's type, which it has only if the attribute was
  /// clean when it was shredded (ColumnarSegment::FindPhysical). Then no
  /// covered row that is not stale holds the variant anywhere but in its
  /// own column, so the column's strip is the whole answer and no other
  /// source is read.
  const StripColumn* OwnStrip(const ColumnarSegment* seg, const Phase& phase,
                              const VirtualCol& v) const {
    if (seg == nullptr || v.ranked || phase.source_groups[v.first_source] >= 0) {
      return nullptr;
    }
    const size_t own = static_cast<size_t>(v.ref->args[0]->bound_slot);
    const Column& c = schema_.columns()[live_slots_[own]];
    const StripColumn* col = seg->FindPhysical(c.name, StripValueType(c.type));
    if (col == nullptr) return nullptr;
    for (const std::vector<ExtractTarget>& targets : *v.ref->virtual_sources) {
      for (const ExtractTarget& t : targets) {
        if (t.raw_bytes || t.type_tag != static_cast<int64_t>(col->type)) {
          return nullptr;
        }
      }
    }
    return col;
  }

  /// Sets `g`'s strips from `seg`, or empties them. A group is strip-served
  /// only when every target has a strip and every reader is a simple
  /// one-variant column: a covered chunk then fills each reader from its
  /// target's strip, like a physical column. Any other group reads the
  /// reservoir for every lane, which is always correct: the row bytes are
  /// authoritative.
  void ResolveStrips(const ColumnarSegment* seg, const Phase& phase,
                     ExtractGroup* g) const {
    g->strips.clear();
    if (seg == nullptr) return;
    for (const auto& [index, source] : g->readers) {
      const VirtualCol& v = phase.cols[index];
      if (!v.simple || v.ranked) return;
    }
    const std::string& source =
        node_.output_schema.cols[static_cast<size_t>(g->source_slot)].name;
    for (const ExtractTarget& t : g->targets) {
      const StripColumn* col =
          t.raw_bytes ? nullptr
                      : seg->Find(source, t.prefix_ids, t.attr_id,
                                  static_cast<ValueType>(t.type_tag));
      if (col == nullptr) {
        g->strips.clear();
        return;
      }
      g->strips.push_back(col);
    }
  }

  /// Resolves, per lane of `b`, the source each virtual column not reading
  /// a lone extraction source reads: the first that is not NULL in b's
  /// walk. A value read from the attribute's own column lands in the column
  /// right away. A covered round skips the columns strips filled. Drops the
  /// previous round's variant ranks.
  void PickSources(Phase* phase, RowBatch* b) const {
    for (VirtualCol& v : phase->cols) {
      v.rank.clear();
      if (v.simple || (covered_ && v.filled)) continue;
      v.pick.assign(b->size, -1);
      std::vector<Datum>& col = b->cols[v.pos];
      col.resize(b->size);
      const std::vector<ExprPtr>& sources = v.ref->args;
      for (size_t lane = 0; lane < b->size; ++lane) {
        const auto k = static_cast<uint32_t>(lane);
        int8_t pick = -1;
        for (size_t i = 0; i < sources.size() && pick < 0; ++i) {
          const ColTag& source = b->tags[sources[i]->bound_slot];
          if (source.IsNull(k)) continue;
          if (phase->source_groups[v.first_source + i] < 0) {
            col[lane] = source.Get(k);
          }
          pick = static_cast<int8_t>(i);
        }
        v.pick[lane] = pick;
      }
    }
  }

  /// True if some virtual column reads group `g` at `lane`.
  bool LaneReads(const Phase& phase, const ExtractGroup& g,
                 size_t lane) const {
    if (g.every_lane) return true;
    for (const auto& [v, source] : g.pickers) {
      const VirtualCol& col = phase.cols[v];
      if (!(covered_ && col.filled) && col.pick[lane] == source) return true;
    }
    return false;
  }

  /// Resolves the virtual columns of `phase` that strips did not fill, for
  /// every lane of `b`, which holds the phase's walk: picks each
  /// multi-source column's source, then extracts into each group's pending
  /// values (MaterializeExtracted moves them into b's columns). A
  /// strip-served group of a covered chunk extracts nothing: FillStrips
  /// filled its readers. Every other group hands the extractor the walk's
  /// view of the source column inside the row bytes, so the reservoir is
  /// never copied — a null view for a lane no column reads the source at.
  /// Caller holds the table latch the views depend on.
  Status ExtractUnlocked(Phase* phase, RowBatch* b) {
    static metrics::Counter* strip_hits =
        metrics::GetCounter("extract.columnar_hits");
    const size_t n = b->size;
    if (phase->cols.empty() || n == 0) return Status::OK();
    const uint64_t start = ctx_->stats != nullptr ? metrics::NowNanos() : 0;
    PickSources(phase, b);
    if (covered_ && phase->own_fills != 0) {
      columnar_hits_ += n * phase->own_fills;
      strip_hits->Add(n * phase->own_fills);
    }
    for (ExtractGroup& g : phase->groups) {
      uint64_t served = 0;  // lanes strips served
      uint64_t hot = 0;     // lanes handed to the extractor
      if (covered_ && !g.covered_reads) {
        served = n;
        columnar_hits_ += n * g.strips.size();
        strip_hits->Add(n * g.strips.size());
      } else {
        docs_.clear();
        const ColTag& source = b->tags[g.source_slot];
        for (size_t k = 0; k < n; ++k) {
          const auto lane = static_cast<uint32_t>(k);
          if (source.IsNull(lane) || !LaneReads(*phase, g, k)) {
            docs_.emplace_back();
            continue;
          }
          docs_.push_back(source.views[lane]);
          ++hot;
        }
        if (hot != 0) {
          const uint64_t t0 = heat_enabled_ ? metrics::NowNanos() : 0;
          RETURN_NOT_OK(
              (*fn_)(docs_, g.targets, &g.values, &extract_stats_));
          if (heat_enabled_) decode_ns_ += metrics::NowNanos() - t0;
        }
      }
      if (heat_enabled_) {
        for (ExtractGroup::Heat& h : g.heat) {
          h.requests += served + hot;
          h.strip_served += served;
          h.reservoir_served += hot;
        }
      }
    }
    if (ctx_->stats != nullptr) extract_ns_ += metrics::NowNanos() - start;
    return Status::OK();
  }

  /// Moves every group's pending values into b's virtual columns: a
  /// multi-source column takes values from the source its lane picked
  /// only, and a column of several variants the one of lowest type tag. A
  /// column is sized to the batch when its first value lands, so one that
  /// got none stays empty: every lane NULL (AppendLanes). A wide `SELECT *`
  /// survivor holds a few dozen of its ~1000 columns, so a round touches
  /// only those. A covered round leaves the columns strips filled alone.
  void MaterializeExtracted(Phase* phase, RowBatch* b) const {
    for (ExtractGroup& g : phase->groups) {
      for (ExtractedValue& e : g.values) {
        const uint32_t last = g.reader_begin[e.target + 1];
        for (uint32_t r = g.reader_begin[e.target]; r < last; ++r) {
          const auto [index, source] = g.readers[r];
          VirtualCol& v = phase->cols[index];
          if (covered_ && v.filled) continue;
          if (!v.simple && v.pick[e.doc] != source) continue;
          if (v.ranked) {
            if (v.rank.empty()) {
              v.rank.assign(b->size, std::numeric_limits<int64_t>::max());
            }
            const int64_t tag = g.targets[e.target].type_tag;
            if (v.rank[e.doc] <= tag) continue;
            v.rank[e.doc] = tag;
          }
          std::vector<Datum>& col = b->cols[v.pos];
          if (col.empty()) col.resize(b->size);
          col[e.doc] = r + 1 == last ? std::move(e.value) : e.value;
        }
      }
      g.values.clear();
    }
  }

  /// Reads `n` rows of the round into `b` for `phase`, lane k holding row
  /// rows_[row_of(k)], typed-primary — no Datum per lane, text as views
  /// into the row bytes or strips: walks the phase's row slots (in a
  /// covered chunk only those strips do not serve), fills the strip-served
  /// columns, then extracts the virtual columns strips did not fill. Both
  /// phases read this way: the filter phase every probed row, the output
  /// phase the survivors. Adds n to `*walked` when row bytes were walked.
  template <typename RowOf>
  Status ReadPhase(Phase* phase, size_t n, RowOf row_of, RowBatch* b,
                   uint64_t* walked) {
    Walk* w = covered_ ? &phase->seg_walk : &phase->walk;
    b->ResetPrimary(node_.output_schema.cols.size(),
                    covered_ ? phase->seg_columns : phase->walk.columns, n,
                    phase->touched);
    for (size_t k = 0; k < w->dst.size(); ++k) {
      w->dst[k] = &b->tags[w->columns[k].first];
    }
    int64_t* rids = b->tags[rid_position_].ints.data();
    for (size_t k = 0; k < n; ++k) {
      if (!w->slots.empty() && k + kPrefetchRows < n) {
        PrefetchRow(*rows_[row_of(k + kPrefetchRows)].bytes, *w);
      }
      const ProbedRow& row = rows_[row_of(k)];
      RETURN_NOT_OK(WalkRow(schema_, *row.bytes, w->slots,
                            LaneSink{w, static_cast<uint32_t>(k)}));
      rids[k] = row.rid;
    }
    b->size = n;
    b->sel.resize(n);
    for (uint32_t k = 0; k < n; ++k) b->sel[k] = k;
    if (!w->slots.empty()) *walked += n;
    if (covered_) FillStrips(*phase, b);
    RETURN_NOT_OK(ExtractUnlocked(phase, b));
    MaterializeExtracted(phase, b);
    return Status::OK();
  }

  /// Sets lanes [base, base + n) of `dst` to lanes lane_of(0), ...,
  /// lane_of(n - 1) of column `pos` of `src`: boxed from its tag when
  /// typed-primary (text copied out), else moved out of its Datums. An
  /// empty Datum column is all NULL and leaves `dst` alone; lanes `dst`
  /// lacks are NULL, filled when its batch is complete (NextBatch).
  template <typename LaneOf>
  static void AppendLanes(const RowBatch& src, size_t pos, size_t base,
                          size_t n, LaneOf lane_of, std::vector<Datum>* dst) {
    if (!src.IsPrimary(pos) && src.cols[pos].empty()) return;
    dst->resize(base + n);
    Datum* out = dst->data() + base;
    if (src.IsPrimary(pos)) {
      const ColTag& tag = src.tags[pos];
      for (size_t j = 0; j < n; ++j) {
        const auto lane = static_cast<uint32_t>(lane_of(j));
        if (!tag.IsNull(lane)) out[j] = tag.Get(lane);
      }
      return;
    }
    std::vector<Datum>& col = src.cols[pos];
    for (size_t j = 0; j < n; ++j) {
      Datum& d = col[lane_of(j)];
      if (!d.is_null()) out[j] = std::move(d);
    }
  }

  /// One probe round over the live rows of [rid_, chunk_end). The filter
  /// phase reads them into probe_ and the compiled filter refines its
  /// selection in one select-mode call; the output phase reads each
  /// survivor that fits in `batch` into walked_; then one loop over
  /// positions boxes the survivors into `batch`. In a covered chunk a
  /// filtered round probes as many rows as the selectivity seen so far
  /// takes to fill the batch's room, up to the chunk, so a selective
  /// filter's output phase runs about once per chunk; a hot chunk probes a
  /// batch's worth, whose row bytes the filter's text views point into stay
  /// in cache from walk to filter. An unfiltered round probes only as many
  /// rows as fit.
  /// Survivors that do not fit are rescanned by the next call: rid_ rewinds
  /// to the first of them. A deleted row's bytes are empty; the segment may
  /// still cover it (a delete does not detach it), so it is skipped before
  /// any strip is read for it. In a covered chunk holding stale rows, a
  /// round is all stale or all not: it ends before the first row of the
  /// other kind, and a stale round reads its rows from their bytes, as in
  /// an uncovered chunk, so no round mixes strip lanes and walked lanes.
  /// Caller holds the table latch, which keeps the row bytes, stamps and
  /// strips every view points into stable for the whole round.
  Status ProbeUnlocked(uint64_t chunk_end, RowBatch* batch) {
    static metrics::Counter* stale_walks =
        metrics::GetCounter("strips.stale_rows_walked");
    const bool filtered = node_.scan_filter != nullptr;
    const size_t room = batch_capacity_ - batch->size;
    const size_t capacity =
        !filtered ? room
        : chunk_covered_ ? std::max<size_t>(
                               room, std::min<uint64_t>(kScanChunk,
                                                        room * (visited_ + 1) /
                                                            (passed_ + 1)))
                         : batch_capacity_;
    const Table& table = *node_.table;
    const uint64_t shred_version = table.ColumnarVersionUnlocked();
    bool stale = false;  // the round's kind, set by its first live row
    rows_.clear();
    for (; rid_ < chunk_end && rows_.size() < capacity; ++rid_) {
      const std::string& bytes = table.RawRowUnlocked(rid_);
      if (bytes.empty()) continue;  // deleted
      if (chunk_stale_) {
        const bool row_stale = table.RowStampUnlocked(rid_) > shred_version;
        if (rows_.empty()) {
          stale = row_stale;
        } else if (row_stale != stale) {
          break;
        }
      }
      rows_.push_back({&bytes, static_cast<int64_t>(rid_)});
    }
    covered_ = chunk_covered_ && !stale;
    if (stale) {
      stale_walked_ += rows_.size();
      stale_walks->Add(rows_.size());
    }
    visited_ += rows_.size();
    RETURN_NOT_OK(ReadPhase(
        &filter_, rows_.size(), [](size_t k) { return k; }, &probe_,
        &filter_walked_));
    if (filtered) {
      // The compiled filter reads every lane of its virtual columns.
      for (const VirtualCol& v : filter_.cols) {
        if (!probe_.IsPrimary(v.pos)) probe_.cols[v.pos].resize(probe_.size);
      }
      RETURN_NOT_OK(bytecode::ExecPredicateBatch(
          *node_.scan_filter_program, probe_, &bc_state_, &probe_.sel));
    }
    const std::vector<uint32_t>& sel = probe_.sel;
    passed_ += sel.size();
    size_t fit = sel.size();
    if (fit > room) {
      fit = room;
      rid_ = static_cast<uint64_t>(rows_[sel[fit]].rid);
    }
    if (fit == 0) return Status::OK();
    auto survivor = [&sel](size_t j) { return sel[j]; };
    RETURN_NOT_OK(
        ReadPhase(&output_, fit, survivor, &walked_, &output_walked_));
    const size_t base = batch->size;
    for (size_t pos = 0; pos < sources_.size(); ++pos) {
      std::vector<Datum>* col = &batch->cols[pos];
      switch (sources_[pos]) {
        case Source::kFilter:
          AppendLanes(probe_, pos, base, fit, survivor, col);
          break;
        case Source::kOutput:
          if (base == 0 && !walked_.IsPrimary(pos)) {
            col->swap(walked_.cols[pos]);  // the batch's first lanes
            break;
          }
          AppendLanes(walked_, pos, base, fit, [](size_t j) { return j; },
                      col);
          break;
        case Source::kNull:  // padded when the batch is complete
          break;
      }
    }
    for (size_t j = 0; j < fit; ++j) {
      batch->sel.push_back(static_cast<uint32_t>(batch->size++));
    }
    return Status::OK();
  }

  /// Flushes accumulated attribute-heat samples to the registry's sink.
  /// Reservoir decode time is shared across targets in proportion to their
  /// reservoir-served lanes (one decode pass serves all targets at once, so
  /// a per-target clock would double-count).
  void FlushHeat() {
    if (!heat_enabled_) return;
    uint64_t reservoir_total = 0;
    for (const Phase* phase : {&filter_, &output_}) {
      for (const ExtractGroup& g : phase->groups) {
        for (const ExtractGroup::Heat& h : g.heat) {
          reservoir_total += h.reservoir_served;
        }
      }
    }
    std::vector<AttrAccessSample> samples;
    for (const Phase* phase : {&filter_, &output_}) {
      for (const ExtractGroup& g : phase->groups) {
        for (size_t t = 0; t < g.heat.size(); ++t) {
          const ExtractGroup::Heat& h = g.heat[t];
          if (h.requests == 0) continue;
          AttrAccessSample s;
          s.table = node_.table->name();
          s.attr_id = g.targets[t].attr_id;
          s.requests = h.requests;
          s.strip_served = h.strip_served;
          s.reservoir_served = h.reservoir_served;
          s.decode_ns = reservoir_total == 0
                            ? 0
                            : decode_ns_ * h.reservoir_served /
                                  reservoir_total;
          samples.push_back(std::move(s));
        }
      }
    }
    if (!samples.empty()) (*ctx_->udfs->heat_sink())(samples);
  }

  const PlanNode& node_;
  ExecContext* ctx_;
  MorselSource* morsels_;
  Schema schema_;
  std::vector<size_t> live_slots_;
  size_t rid_position_ = 0;  // scan output position of __rid
  std::vector<Source> sources_;  // per output position
  /// Declared types of the output batch's columns (RowBatch::col_types).
  std::vector<ColTag::Type> col_types_;
  /// The live rows a probe round reads: their bytes and row ids.
  struct ProbedRow {
    const std::string* bytes;
    int64_t rid;
  };
  std::vector<ProbedRow> rows_;
  /// The filter phase's lanes of the round's rows, and the output phase's
  /// of its survivors (lane j = survivor j), both typed-primary where
  /// walked or strip-filled. Their views are valid only under the chunk
  /// latch.
  RowBatch probe_;
  RowBatch walked_;
  uint64_t rid_ = 0;
  uint64_t end_ = 0;
  /// Zone filter -> strip column resolution, rebuilt per latch acquisition
  /// (the attached segment may change between acquisitions, never within).
  std::vector<std::pair<const StripColumn*, const ZoneFilter*>>
      resolved_zones_;
  uint64_t zone_skips_ = 0;  // strips skipped; flushed to stats on destroy
  uint64_t visited_ = 0;     // live rows scanned; flushed likewise
  uint64_t passed_ = 0;      // of which the filter passed
  /// Rows whose bytes each phase walked, and the most columns a covered
  /// chunk of each phase read from strips; flushed likewise.
  uint64_t filter_walked_ = 0, output_walked_ = 0;
  uint64_t filter_strip_cols_ = 0, output_strip_cols_ = 0;
  /// Bytecode scratch for the compiled scan filter (per operator instance;
  /// the program itself is shared across Gather workers via the plan node).
  bytecode::ExecState bc_state_;
  // Virtual columns (node_.virtual_columns), by decode phase.
  const BatchExtractFn* fn_ = nullptr;
  Phase filter_, output_;
  std::shared_ptr<const ColumnarSegment> seg_;  // strips resolve here
  uint64_t seg_rows_ = 0;
  bool chunk_covered_ = false;  // the segment covers the current chunk
  bool chunk_stale_ = false;    // ... and some row of it may be stale
  bool covered_ = false;        // the current round reads strips
  uint64_t stale_walked_ = 0;   // stale rows walked; flushed to stats
  std::vector<std::string_view> docs_;
  BatchExtractStats extract_stats_;
  uint64_t columnar_hits_ = 0;
  uint64_t extract_ns_ = 0;
  bool heat_enabled_ = false;
  uint64_t decode_ns_ = 0;
};

// ---------------------------------------------------------------- Filter

class FilterOp : public Operator {
 public:
  FilterOp(const PlanNode& node, OperatorPtr child, ExecContext* ctx)
      : node_(node), child_(std::move(child)), ctx_(ctx) {
    bc_state_.params = ctx->params;
  }

  ~FilterOp() override { FlushBytecodeState(node_, ctx_, &bc_state_); }

  Status Open() override { return child_->Open(); }

  /// Refines the selection vector in place. Batches that end up with an
  /// empty selection are still passed through (downstream operators must
  /// handle them; the root drain skips them).
  Result<bool> NextBatch(RowBatch* batch) override {
    ASSIGN_OR_RETURN(bool has, child_->NextBatch(batch));
    if (!has) return false;
    RETURN_NOT_OK(bytecode::ExecPredicateBatch(
        *node_.predicate_program, *batch, &bc_state_, &batch->sel));
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
      : node_(node), child_(std::move(child)), ctx_(ctx) {
    bc_state_.params = ctx->params;
  }

  ~ProjectOp() override { FlushBytecodeState(node_, ctx_, &bc_state_); }

  Status Open() override {
    const size_t n = node_.projections.size();
    // Which bare column-ref projections are the last reader of their input
    // slot (their column can then be moved rather than copied): one
    // reverse pass marking the slots every later projection reads.
    last_reader_.assign(n, false);
    std::vector<bool> read_later;
    for (size_t c = n; c-- > 0;) {
      const Expr& p = *node_.projections[c];
      if (p.IsBoundColumnRef()) {
        const size_t slot = static_cast<size_t>(p.bound_slot);
        last_reader_[c] = slot >= read_later.size() || !read_later[slot];
      }
      MarkReadSlots(p, &read_later);
    }
    return child_->Open();
  }

  /// Each projection runs once over the input batch's selected lanes into
  /// one output column: a bare column ref moves (last reader) or copies
  /// the input column, gathering the selected lanes when the selection is
  /// sparse; anything else runs its compiled program. The output batch is
  /// compacted (identity selection), since dead input lanes carry nothing
  /// worth preserving past a projection.
  Result<bool> NextBatch(RowBatch* batch) override {
    ASSIGN_OR_RETURN(bool has, child_->NextBatch(&in_));
    if (!has) return false;
    const size_t n = node_.projections.size();
    batch->Reset(n);
    // The selection vector is always an ascending subset of the physical
    // lanes, so a dense selection is the identity.
    const size_t active = in_.active();
    const bool dense = active == in_.size;
    for (size_t c = 0; c < n; ++c) {
      const Expr& p = *node_.projections[c];
      if (!p.IsBoundColumnRef()) {
        RETURN_NOT_OK(bytecode::ExecBatch(*node_.projection_programs[c], in_,
                                          in_.sel, &bc_state_,
                                          &batch->cols[c]));
        continue;
      }
      const size_t slot = static_cast<size_t>(p.bound_slot);
      if (slot >= in_.num_cols()) {
        return Status::Internal("projection ", c, " reads slot ", slot,
                                " of a ", in_.num_cols(), "-column batch");
      }
      std::vector<Datum>& src = in_.cols[slot];
      std::vector<Datum>& dst = batch->cols[c];
      if (!dense) {
        dst.reserve(active);
        for (uint32_t r : in_.sel) {
          dst.push_back(last_reader_[c] ? std::move(src[r]) : src[r]);
        }
        continue;
      }
      // Dense: the column travels verbatim (identical physical rows), so
      // its batch type proof stays valid — carry the tag across and
      // downstream programs skip re-profiling.
      const ColTag* tag = in_.TagFor(slot);
      if (tag != nullptr && batch->tags.size() < n) batch->tags.resize(n);
      if (!last_reader_[c]) {
        dst = src;
        // A text tag's views point into the source column's strings.
        if (tag != nullptr && tag->type != ColTag::Type::kText) {
          batch->tags[c] = *tag;
        }
      } else {
        dst = std::move(src);
        if (tag != nullptr) {
          batch->tags[c] = std::move(in_.tags[slot]);
          in_.InvalidateTag(slot);
        }
      }
    }
    batch->size = active;
    batch->sel.resize(active);
    for (size_t i = 0; i < active; ++i) {
      batch->sel[i] = static_cast<uint32_t>(i);
    }
    return true;
  }

 private:
  static void MarkReadSlots(const Expr& e, std::vector<bool>* read) {
    if (e.IsBoundColumnRef()) {
      const size_t slot = static_cast<size_t>(e.bound_slot);
      if (slot >= read->size()) read->resize(slot + 1, false);
      (*read)[slot] = true;
    }
    for (const ExprPtr& a : e.args) MarkReadSlots(*a, read);
  }

  const PlanNode& node_;
  OperatorPtr child_;
  ExecContext* ctx_;
  RowBatch in_;
  bytecode::ExecState bc_state_;
  /// Per projection: a bare column ref no later projection reads (Open).
  std::vector<bool> last_reader_;
};

// ---------------------------------------------------------------- Blocking
//
// Sort, the joins, aggregation and DISTINCT read their children's batches
// and fill their own output batches. Keys and aggregate arguments are
// compiled programs, each run once per input batch (EvalColumns). What they
// materialize goes through one drain (DrainKeyed); hash aggregation keeps
// one group table (GroupTable), and sorted input one run loop
// (SortedGroupOp).

using ProgramList = std::vector<PlanNode::ProgramPtr>;

/// Runs `programs` over the selected lanes of `batch`: (*out)[i][k] is
/// program i's value at lane batch.sel[k]. A null program (the argument of
/// COUNT(*)) leaves its column empty.
Status EvalColumns(const ProgramList& programs, const RowBatch& batch,
                   bytecode::ExecState* st,
                   std::vector<std::vector<Datum>>* out) {
  out->resize(programs.size());
  for (size_t i = 0; i < programs.size(); ++i) {
    if (programs[i] == nullptr) {
      (*out)[i].clear();
      continue;
    }
    RETURN_NOT_OK(
        bytecode::ExecBatch(*programs[i], batch, batch.sel, st, &(*out)[i]));
  }
  return Status::OK();
}

/// Moves entry k of every evaluated column into `row`; true if one is NULL.
bool TakeLane(std::vector<std::vector<Datum>>* cols, size_t k,
              DatumRow* row) {
  row->clear();
  row->reserve(cols->size());
  bool has_null = false;
  for (std::vector<Datum>& col : *cols) {
    has_null |= col[k].is_null();
    row->push_back(std::move(col[k]));
  }
  return has_null;
}

/// A materialized input row and its key values.
struct KeyedRow {
  DatumRow keys;
  DatumRow row;
};

/// The one materializing drain (sort, hash-join build, both merge-join
/// inputs, nested-loop inner): opens `child`, reads it to the end and turns
/// every selected lane into a keyed row. Each row charges the budget its
/// own bytes plus its keys' (a keyless drain charges the row alone). With
/// `skip_null_keys`, a row with a NULL key is dropped uncharged: it can
/// never equi-join.
Status DrainKeyed(Operator* child, const ProgramList& key_programs,
                  bool skip_null_keys, ExecContext* ctx,
                  bytecode::ExecState* st, std::vector<KeyedRow>* out) {
  RETURN_NOT_OK(child->Open());
  RowBatch batch;
  std::vector<std::vector<Datum>> keys;
  while (true) {
    ASSIGN_OR_RETURN(bool has, child->NextBatch(&batch));
    if (!has) return Status::OK();
    RETURN_NOT_OK(EvalColumns(key_programs, batch, st, &keys));
    for (size_t k = 0; k < batch.sel.size(); ++k) {
      KeyedRow kr;
      if (TakeLane(&keys, k, &kr.keys) && skip_null_keys) continue;
      batch.MoveRow(batch.sel[k], &kr.row);
      RETURN_NOT_OK(ctx->Charge(RowBytes(kr.row) +
                                (kr.keys.empty() ? 0 : RowBytes(kr.keys))));
      out->push_back(std::move(kr));
    }
  }
}

/// Moves rows[*pos, ...) into `out`, reset to `width` columns, until it
/// holds `capacity` rows. False once every row has been emitted.
bool EmitRows(std::vector<DatumRow>* rows, size_t* pos, size_t width,
              size_t capacity, RowBatch* out) {
  out->Reset(width);
  while (out->size < capacity && *pos < rows->size()) {
    out->AppendRow(std::move((*rows)[(*pos)++]));
  }
  return out->size > 0;
}

/// Appends one join output row to `out`: `left_width` cells left(c), then
/// the cells of `right`.
template <typename LeftCell>
void AppendJoined(size_t left_width, const LeftCell& left,
                  const DatumRow& right, RowBatch* out) {
  for (size_t c = 0; c < left_width; ++c) out->cols[c].push_back(left(c));
  for (size_t c = 0; c < right.size(); ++c) {
    out->cols[left_width + c].push_back(right[c]);
  }
  out->sel.push_back(static_cast<uint32_t>(out->size++));
}

int CompareKeys(const DatumRow& a, const DatumRow& b) {
  for (size_t i = 0; i < a.size(); ++i) {
    int c = Datum::Compare(a[i], b[i]);
    if (c != 0) return c;
  }
  return 0;
}

struct RowHasher {
  size_t operator()(const DatumRow& row) const { return HashDatums(row); }
};
struct RowEq {
  bool operator()(const DatumRow& a, const DatumRow& b) const {
    return a.size() == b.size() && CompareKeys(a, b) == 0;
  }
};

// ---------------------------------------------------------------- Sort

class SortOp : public Operator {
 public:
  SortOp(const PlanNode& node, OperatorPtr child, ExecContext* ctx)
      : node_(node), child_(std::move(child)), ctx_(ctx) {
    bc_state_.params = ctx->params;
  }

  ~SortOp() override { FlushBytecodeState(node_, ctx_, &bc_state_); }

  Status Open() override {
    std::vector<KeyedRow> keyed;
    RETURN_NOT_OK(DrainKeyed(child_.get(), node_.sort_key_programs,
                             /*skip_null_keys=*/false, ctx_, &bc_state_,
                             &keyed));
    const std::vector<bool>& desc = node_.sort_desc;
    std::stable_sort(keyed.begin(), keyed.end(),
                     [&desc](const KeyedRow& a, const KeyedRow& b) {
                       for (size_t i = 0; i < a.keys.size(); ++i) {
                         int c = Datum::Compare(a.keys[i], b.keys[i]);
                         if (c != 0) {
                           return (i < desc.size() && desc[i]) ? c > 0 : c < 0;
                         }
                       }
                       return false;
                     });
    rows_.reserve(keyed.size());
    for (KeyedRow& r : keyed) rows_.push_back(std::move(r.row));
    return Status::OK();
  }

  Result<bool> NextBatch(RowBatch* batch) override {
    return EmitRows(&rows_, &pos_, node_.output_schema.cols.size(),
                    batch_capacity_, batch);
  }

 private:
  const PlanNode& node_;
  OperatorPtr child_;
  ExecContext* ctx_;
  bytecode::ExecState bc_state_;
  std::vector<DatumRow> rows_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------- Joins
//
// A join writes each match straight into its output batch's columns: the
// left input's cells, then the right's. Rows with a NULL key never
// equi-join.

/// Hash join: the right (build) input is drained into a table keyed on its
/// join keys, and each left (probe) lane joins the rows under its keys. A
/// nested-loop join is the same operator with no keys: the whole inner
/// input is one bucket, and every outer lane joins all of it.
class HashJoinOp : public Operator {
 public:
  HashJoinOp(const PlanNode& node, OperatorPtr probe, OperatorPtr build,
             ExecContext* ctx)
      : node_(node),
        probe_(std::move(probe)),
        build_(std::move(build)),
        ctx_(ctx) {
    bc_state_.params = ctx->params;
  }

  ~HashJoinOp() override { FlushBytecodeState(node_, ctx_, &bc_state_); }

  Status Open() override {
    std::vector<KeyedRow> build;
    RETURN_NOT_OK(DrainKeyed(build_.get(), node_.right_key_programs,
                             /*skip_null_keys=*/true, ctx_, &bc_state_,
                             &build));
    for (KeyedRow& r : build) {
      table_[std::move(r.keys)].push_back(std::move(r.row));
    }
    probe_width_ = node_.children[0]->output_schema.cols.size();
    return probe_->Open();
  }

  Result<bool> NextBatch(RowBatch* out) override {
    out->Reset(node_.output_schema.cols.size());
    while (out->size < batch_capacity_) {
      if (matches_ != nullptr && match_pos_ < matches_->size()) {
        const uint32_t lane = probe_batch_.sel[probe_lane_];
        AppendJoined(
            probe_width_,
            [&](size_t c) -> const Datum& { return probe_batch_.cols[c][lane]; },
            (*matches_)[match_pos_++], out);
        continue;
      }
      ASSIGN_OR_RETURN(bool found, NextProbeMatch());
      if (!found) break;
    }
    return out->size > 0;
  }

 private:
  /// Positions the probe side at its next lane whose keys hit the hash
  /// table. Probe keys evaluate a batch at a time, so non-matching lanes
  /// are never copied.
  Result<bool> NextProbeMatch() {
    matches_ = nullptr;
    while (true) {
      while (probe_pos_ < probe_batch_.sel.size()) {
        const size_t k = probe_pos_++;
        if (TakeLane(&key_cols_, k, &keys_)) continue;
        auto it = table_.find(keys_);
        if (it == table_.end()) continue;
        probe_lane_ = k;
        matches_ = &it->second;
        match_pos_ = 0;
        return true;
      }
      ASSIGN_OR_RETURN(bool has, probe_->NextBatch(&probe_batch_));
      if (!has) return false;
      probe_pos_ = 0;
      RETURN_NOT_OK(EvalColumns(node_.left_key_programs, probe_batch_,
                                &bc_state_, &key_cols_));
    }
  }

  const PlanNode& node_;
  OperatorPtr probe_;
  OperatorPtr build_;
  ExecContext* ctx_;
  std::unordered_map<DatumRow, std::vector<DatumRow>, RowHasher, RowEq> table_;
  bytecode::ExecState bc_state_;
  size_t probe_width_ = 0;
  RowBatch probe_batch_;
  /// Probe key values, one column per key, one entry per selected lane of
  /// probe_batch_; probe_pos_ is the next lane to look up.
  std::vector<std::vector<Datum>> key_cols_;
  size_t probe_pos_ = 0;
  DatumRow keys_;
  size_t probe_lane_ = 0;  // selection index of the lane being joined
  const std::vector<DatumRow>* matches_ = nullptr;
  size_t match_pos_ = 0;
};

/// Classic sorted merge join over duplicate key groups. Children are Sort
/// nodes keyed on the join keys. Both inputs are materialized (the right
/// group must be re-scannable anyway).
class MergeJoinOp : public Operator {
 public:
  MergeJoinOp(const PlanNode& node, OperatorPtr left, OperatorPtr right,
              ExecContext* ctx)
      : node_(node),
        left_(std::move(left)),
        right_(std::move(right)),
        ctx_(ctx) {
    bc_state_.params = ctx->params;
  }

  ~MergeJoinOp() override { FlushBytecodeState(node_, ctx_, &bc_state_); }

  Status Open() override {
    RETURN_NOT_OK(DrainKeyed(left_.get(), node_.left_key_programs,
                             /*skip_null_keys=*/true, ctx_, &bc_state_,
                             &lrows_));
    return DrainKeyed(right_.get(), node_.right_key_programs,
                      /*skip_null_keys=*/true, ctx_, &bc_state_, &rrows_);
  }

  Result<bool> NextBatch(RowBatch* out) override {
    out->Reset(node_.output_schema.cols.size());
    while (out->size < batch_capacity_) {
      if (in_group_) {
        if (emit_r_ < group_end_r_) {
          const DatumRow& left = lrows_[emit_l_].row;
          AppendJoined(
              left.size(), [&](size_t c) -> const Datum& { return left[c]; },
              rrows_[emit_r_++].row, out);
          continue;
        }
        if (++emit_l_ < group_end_l_) {
          emit_r_ = ri_;
          continue;
        }
        // Advance past this group.
        li_ = group_end_l_;
        ri_ = group_end_r_;
        in_group_ = false;
      }
      if (!NextGroup()) break;
    }
    return out->size > 0;
  }

 private:
  /// Finds the next key group present on both sides.
  bool NextGroup() {
    while (li_ < lrows_.size() && ri_ < rrows_.size()) {
      const DatumRow& lk = lrows_[li_].keys;
      const DatumRow& rk = rrows_[ri_].keys;
      const int c = CompareKeys(lk, rk);
      if (c < 0) {
        ++li_;
      } else if (c > 0) {
        ++ri_;
      } else {
        group_end_l_ = li_ + 1;
        while (group_end_l_ < lrows_.size() &&
               CompareKeys(lrows_[group_end_l_].keys, lk) == 0) {
          ++group_end_l_;
        }
        group_end_r_ = ri_ + 1;
        while (group_end_r_ < rrows_.size() &&
               CompareKeys(rrows_[group_end_r_].keys, rk) == 0) {
          ++group_end_r_;
        }
        emit_l_ = li_;
        emit_r_ = ri_;
        in_group_ = true;
        return true;
      }
    }
    return false;
  }

  const PlanNode& node_;
  OperatorPtr left_;
  OperatorPtr right_;
  ExecContext* ctx_;
  bytecode::ExecState bc_state_;
  std::vector<KeyedRow> lrows_, rrows_;
  size_t li_ = 0, ri_ = 0;
  size_t group_end_l_ = 0, group_end_r_ = 0;
  size_t emit_l_ = 0, emit_r_ = 0;
  bool in_group_ = false;
};

// ---------------------------------------------------------------- Aggregation

struct Accumulator {
  int64_t count = 0;
  bool any = false;
  bool as_double = false;
  eval_detail::IntSum isum;
  double dsum = 0;
  Datum min, max;

  void Add(const Datum& v) {
    if (v.is_null()) return;
    any = true;
    ++count;
    if (v.is_numeric()) {
      if (v.is_double()) {
        if (!as_double) {
          dsum = isum.AsDouble();
          as_double = true;
        }
        dsum += v.double_value();
      } else if (as_double) {
        dsum += static_cast<double>(v.int_value());
      } else {
        isum.Add(v.int_value());
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
      double mine = as_double ? dsum : isum.AsDouble();
      double theirs = other.as_double ? other.dsum : other.isum.AsDouble();
      dsum = mine + theirs;
      as_double = true;
    } else {
      isum.Merge(other.isum);
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

  /// An integer total outside int64 fails as integer arithmetic does.
  Result<Datum> Sum() const {
    if (!any) return Datum::Null();
    if (as_double) return Datum::Double(dsum);
    int64_t total;
    const eval_detail::ArithFault fault = isum.Narrow(&total);
    if (fault != eval_detail::ArithFault::kNone) {
      return eval_detail::ArithFaultStatus(fault);
    }
    return Datum::Int(total);
  }
  Datum Avg() const {
    if (count == 0) return Datum::Null();
    double total = as_double ? dsum : isum.AsDouble();
    return Datum::Double(total / static_cast<double>(count));
  }
};

/// One group's state: its row count and one accumulator per aggregate.
struct GroupState {
  explicit GroupState(size_t num_aggs = 0) : accs(num_aggs) {}

  int64_t star_count = 0;
  std::vector<Accumulator> accs;

  void Merge(const GroupState& other) {
    star_count += other.star_count;
    for (size_t i = 0; i < other.accs.size(); ++i) {
      accs[i].Merge(other.accs[i]);
    }
  }
};

/// One group's output row: its keys, then each aggregate's value.
Result<DatumRow> FinalizeGroup(const PlanNode& node, DatumRow keys,
                               const GroupState& state) {
  DatumRow row = std::move(keys);
  for (size_t i = 0; i < node.aggs.size(); ++i) {
    const AggSpec& spec = node.aggs[i];
    const Accumulator& acc = state.accs[i];
    if (spec.fn == "count") {
      row.push_back(Datum::Int(spec.is_star ? state.star_count : acc.count));
    } else if (spec.fn == "sum") {
      ASSIGN_OR_RETURN(Datum sum, acc.Sum());
      row.push_back(std::move(sum));
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

/// One input batch's group keys and aggregate arguments, one column per
/// expression and one entry per selected lane (COUNT(*)'s column is empty).
struct AggInputs {
  std::vector<std::vector<Datum>> keys;
  std::vector<std::vector<Datum>> args;

  Status Eval(const PlanNode& node, const RowBatch& batch,
              bytecode::ExecState* st) {
    RETURN_NOT_OK(EvalColumns(node.group_key_programs, batch, st, &keys));
    return EvalColumns(node.agg_programs, batch, st, &args);
  }

  /// Folds entry k's arguments into `state`.
  void Accumulate(size_t k, GroupState* state) const {
    ++state->star_count;
    for (size_t i = 0; i < args.size(); ++i) {
      if (!args[i].empty()) state->accs[i].Add(args[i][k]);
    }
  }
};

/// The one hash group table, of HashAggregate and of Gather's partial
/// aggregation: consumes input batches, merges another table in (raw
/// accumulators, so SUM and AVG merge exactly, not via finalized values),
/// and finalizes into output rows.
class GroupTable {
 public:
  explicit GroupTable(const PlanNode& node) : node_(node) {}

  /// Reads `child` to the end, folding every selected lane into its group.
  /// A new group charges the budget its key bytes plus 64.
  Status Consume(Operator* child, ExecContext* ctx, bytecode::ExecState* st) {
    RowBatch batch;
    while (true) {
      ASSIGN_OR_RETURN(bool has, child->NextBatch(&batch));
      if (!has) return Status::OK();
      RETURN_NOT_OK(inputs_.Eval(node_, batch, st));
      for (size_t k = 0; k < batch.active(); ++k) {
        TakeLane(&inputs_.keys, k, &keys_);
        auto [it, inserted] =
            groups_.try_emplace(std::move(keys_), node_.aggs.size());
        if (inserted) RETURN_NOT_OK(ctx->Charge(RowBytes(it->first) + 64));
        inputs_.Accumulate(k, &it->second);
      }
    }
  }

  void Merge(const GroupTable& other) {
    for (const auto& [keys, state] : other.groups_) {
      groups_.try_emplace(keys, node_.aggs.size()).first->second.Merge(state);
    }
  }

  /// One row per group. An aggregate without GROUP BY over empty input
  /// still yields one row of initial values (COUNT(*) = 0, SUM NULL).
  Result<std::vector<DatumRow>> Finalize() const {
    std::vector<DatumRow> rows;
    if (groups_.empty() && node_.group_keys.empty()) {
      ASSIGN_OR_RETURN(DatumRow row,
                       FinalizeGroup(node_, {}, GroupState(node_.aggs.size())));
      rows.push_back(std::move(row));
    }
    for (const auto& [keys, state] : groups_) {
      ASSIGN_OR_RETURN(DatumRow row, FinalizeGroup(node_, keys, state));
      rows.push_back(std::move(row));
    }
    return rows;
  }

 private:
  const PlanNode& node_;
  std::unordered_map<DatumRow, GroupState, RowHasher, RowEq> groups_;
  AggInputs inputs_;
  DatumRow keys_;
};

class HashAggregateOp : public Operator {
 public:
  HashAggregateOp(const PlanNode& node, OperatorPtr child, ExecContext* ctx)
      : node_(node), child_(std::move(child)), ctx_(ctx) {
    bc_state_.params = ctx->params;
  }

  ~HashAggregateOp() override { FlushBytecodeState(node_, ctx_, &bc_state_); }

  Status Open() override {
    RETURN_NOT_OK(child_->Open());
    GroupTable table(node_);
    RETURN_NOT_OK(table.Consume(child_.get(), ctx_, &bc_state_));
    ASSIGN_OR_RETURN(rows_, table.Finalize());
    return Status::OK();
  }

  Result<bool> NextBatch(RowBatch* batch) override {
    return EmitRows(&rows_, &pos_, node_.output_schema.cols.size(),
                    batch_capacity_, batch);
  }

 private:
  const PlanNode& node_;
  OperatorPtr child_;
  ExecContext* ctx_;
  bytecode::ExecState bc_state_;
  std::vector<DatumRow> rows_;
  size_t pos_ = 0;
};

/// The sorted-run loop, of GroupAggregate (input sorted by the group keys:
/// the planner puts a Sort underneath) and of Unique (DISTINCT over sorted
/// input: every column a key, no aggregates). Folds one run of equal keys
/// at a time — the memory-safe plan shape for high-cardinality grouping.
class SortedGroupOp : public Operator {
 public:
  SortedGroupOp(const PlanNode& node, OperatorPtr child, ExecContext* ctx)
      : node_(node), child_(std::move(child)), ctx_(ctx) {
    bc_state_.params = ctx->params;
  }

  ~SortedGroupOp() override { FlushBytecodeState(node_, ctx_, &bc_state_); }

  Status Open() override { return child_->Open(); }

  Result<bool> NextBatch(RowBatch* out) override {
    out->Reset(node_.output_schema.cols.size());
    while (!done_ && out->size < batch_capacity_) {
      if (pos_ == in_.active()) {
        ASSIGN_OR_RETURN(bool has, child_->NextBatch(&in_));
        if (!has) {
          done_ = true;
          if (in_group_) RETURN_NOT_OK(EmitGroup(out));
          break;
        }
        RETURN_NOT_OK(inputs_.Eval(node_, in_, &bc_state_));
        pos_ = 0;
        continue;
      }
      TakeLane(&inputs_.keys, pos_, &keys_);
      if (!in_group_ || !RowEq()(keys_, group_keys_)) {
        if (in_group_) RETURN_NOT_OK(EmitGroup(out));
        std::swap(group_keys_, keys_);
        group_ = GroupState(node_.aggs.size());
        in_group_ = true;
      }
      inputs_.Accumulate(pos_++, &group_);
    }
    return out->size > 0;
  }

 private:
  Status EmitGroup(RowBatch* out) {
    ASSIGN_OR_RETURN(DatumRow row,
                     FinalizeGroup(node_, std::move(group_keys_), group_));
    out->AppendRow(std::move(row));
    return Status::OK();
  }

  const PlanNode& node_;
  OperatorPtr child_;
  ExecContext* ctx_;
  bytecode::ExecState bc_state_;
  RowBatch in_;
  AggInputs inputs_;
  size_t pos_ = 0;  // next selection index of in_
  DatumRow keys_;
  DatumRow group_keys_;  // the run being folded
  GroupState group_;
  bool in_group_ = false;
  bool done_ = false;
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

/// Fails unless the planner's compile pass attached a program to every
/// expression slot of the plan: null only for a bare column-ref projection
/// (the project operator moves the column) and for COUNT(*)'s argument.
Status CheckPrograms(const PlanNode& n) {
  bool ok = (n.scan_filter == nullptr) == (n.scan_filter_program == nullptr) &&
            (n.predicate == nullptr) == (n.predicate_program == nullptr) &&
            n.projection_programs.size() == n.projections.size() &&
            n.left_key_programs.size() == n.left_keys.size() &&
            n.right_key_programs.size() == n.right_keys.size() &&
            n.sort_key_programs.size() == n.sort_keys.size() &&
            n.group_key_programs.size() == n.group_keys.size() &&
            n.agg_programs.size() == n.aggs.size();
  for (size_t i = 0; ok && i < n.projections.size(); ++i) {
    ok = n.projection_programs[i] != nullptr ||
         n.projections[i]->IsBoundColumnRef();
  }
  if (!ok) {
    return Status::Internal(PlanKindName(n.kind),
                            " node has no compiled programs");
  }
  for (const auto& child : n.children) RETURN_NOT_OK(CheckPrograms(*child));
  return Status::OK();
}

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
//    the aggregate's input pipeline into a private GroupTable; Open() merges
//    them at the barrier and NextBatch() drains the finalized groups.
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
      return EmitRows(&agg_results_, &agg_pos_, node_.output_schema.cols.size(),
                      batch_capacity_, batch);
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
    GroupTable local(agg);
    bytecode::ExecState st;
    st.params = ctx_->params;
    Status consumed = local.Consume(op.get(), ctx_, &st);
    FlushBytecodeState(agg, ctx_, &st);
    RETURN_NOT_OK(consumed);
    std::lock_guard lock(agg_mu_);
    groups_.Merge(local);
    return Status::OK();
  }

  Status FinalizeAggregate() {
    const PlanNode& agg = *node_.children[0];
    ASSIGN_OR_RETURN(agg_results_, groups_.Finalize());
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
  GroupTable groups_{*node_.children[0]};
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
    case PlanKind::kSort:
      return OperatorPtr(new SortOp(node, std::move(children[0]), ctx));
    case PlanKind::kHashJoin:
    case PlanKind::kNestedLoopJoin:
      return OperatorPtr(new HashJoinOp(node, std::move(children[0]),
                                        std::move(children[1]), ctx));
    case PlanKind::kMergeJoin:
      return OperatorPtr(new MergeJoinOp(node, std::move(children[0]),
                                         std::move(children[1]), ctx));
    case PlanKind::kHashAggregate:
      return OperatorPtr(
          new HashAggregateOp(node, std::move(children[0]), ctx));
    case PlanKind::kGroupAggregate:
    case PlanKind::kUnique:
      return OperatorPtr(new SortedGroupOp(node, std::move(children[0]), ctx));
    case PlanKind::kLimit:
      return OperatorPtr(new LimitOp(node, std::move(children[0])));
    case PlanKind::kGather:  // handled above
    case PlanKind::kExtract:  // never planned
      break;
  }
  return Status::Internal("unknown plan node kind");
}

/// A node's inclusive time: its operators' Open and NextBatch wall clock.
uint64_t InclusiveNs(const PlanNode& node, const PlanStats& stats) {
  const OperatorStats* s = stats.For(node);
  if (s == nullptr) return 0;
  return s->open_ns.load(std::memory_order_relaxed) +
         s->next_ns.load(std::memory_order_relaxed);
}

/// Hands the root batch's selected lanes to `rows` without a row apiece: a
/// dense batch gives up its column vectors as they are, and a sparse one
/// moves its selected lanes into new columns of exactly that many entries,
/// keeping its own vectors for its producer's next batch.
Status AdoptRootBatch(RowBatch* batch, ResultRows* rows) {
  const size_t active = batch->active();
  if (active == 0) return Status::OK();
  const size_t width = batch->num_cols();
  for (size_t c = 0; c < width; ++c) batch->Box(c);
  ResultRows::Columns cols;
  if (active == batch->size) {
    cols = std::move(batch->cols);
  } else {
    cols.resize(width);
    for (size_t c = 0; c < width; ++c) {
      std::vector<Datum>& src = batch->cols[c];
      cols[c].reserve(active);
      for (uint32_t lane : batch->sel) cols[c].push_back(std::move(src[lane]));
    }
  }
  batch->InvalidateTags();
  for (const std::vector<Datum>& col : cols) {
    if (col.size() != active) {
      return Status::Internal("root batch column holds ", col.size(),
                              " of ", active, " rows");
    }
  }
  rows->AdoptColumns(std::move(cols), active);
  return Status::OK();
}

}  // namespace

Result<QueryResult> ExecutePlan(const PlanNode& plan, const UdfRegistry* udfs,
                                const ExecOptions& options) {
  return ExecutePlan(plan, udfs, options, nullptr);
}

Result<QueryResult> ExecutePlan(const PlanNode& plan, const UdfRegistry* udfs,
                                const ExecOptions& options,
                                const std::vector<Datum>* params,
                                uint64_t move_epoch_bound) {
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
  ctx.params = params;
  ctx.move_epoch_bound = move_epoch_bound;
  QueryResult result;
  {
    // Scope: the root operator (and any GatherOp inside it, which flushes
    // its morsel/stall tallies from its destructor) must be gone before the
    // caller reads options.stats.
    RETURN_NOT_OK(CheckPrograms(plan));
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
    while (true) {
      ASSIGN_OR_RETURN(bool has, root->NextBatch(&batch));
      if (!has) break;
      batches_total->Increment();
      batch_rows_hist->Observe(batch.active());
      RETURN_NOT_OK(AdoptRootBatch(&batch, &result.rows));
    }
  }

  const uint64_t elapsed = metrics::NowNanos() - start;
  queries_total->Increment();
  rows_out_total->Add(result.rows.size());
  query_hist->Observe(elapsed);
  if (options.stats != nullptr) {
    options.stats->total_ns = elapsed;
    if (options.time_operators) {
      const uint64_t root_ns = InclusiveNs(plan, *options.stats);
      options.stats->assembly_ns = elapsed > root_ns ? elapsed - root_ns : 0;
    }
  }
  return result;
}

namespace {

/// Inclusive time minus the children's. A Gather's children run on pool
/// workers, so its whole inclusive time — the query thread waiting on
/// them — is its self time.
uint64_t SelfNs(const PlanNode& node, const PlanStats& stats) {
  const uint64_t inclusive = InclusiveNs(node, stats);
  if (node.kind == PlanKind::kGather) return inclusive;
  uint64_t children = 0;
  for (const auto& child : node.children) {
    children += InclusiveNs(*child, stats);
  }
  return inclusive > children ? inclusive - children : 0;
}

void AppendAnalyzedNode(const PlanNode& node, const PlanStats& stats,
                        const std::vector<Datum>* params, int depth,
                        std::ostringstream* out) {
  for (int i = 0; i < depth; ++i) *out << "  ";
  if (depth > 0) *out << "-> ";
  *out << node.Summary(params);
  if (const OperatorStats* s = stats.For(node)) {
    const uint64_t loops = s->instances.load(std::memory_order_relaxed);
    if (loops == 0) {
      *out << " (never executed)";
    } else {
      *out << " (actual rows=" << s->rows.load(std::memory_order_relaxed)
           << " loops=" << loops << " time=" << std::fixed
           << std::setprecision(3)
           << static_cast<double>(InclusiveNs(node, stats)) / 1e6
           << " ms self="
           << static_cast<double>(SelfNs(node, stats)) / 1e6 << " ms)";
      if (node.kind == PlanKind::kSeqScan) {
        *out << " (visited=" << s->visited.load(std::memory_order_relaxed)
             << ")";
        // Per phase (filter+output): rows whose bytes were walked, and the
        // columns a segment-covered chunk read from strips instead; then the
        // covered rows walked because they were stale.
        *out << " (walked="
             << s->filter_walked.load(std::memory_order_relaxed) << "+"
             << s->output_walked.load(std::memory_order_relaxed)
             << " strip_cols="
             << s->filter_strip_cols.load(std::memory_order_relaxed) << "+"
             << s->output_strip_cols.load(std::memory_order_relaxed)
             << " stale=" << s->stale.load(std::memory_order_relaxed) << ")";
      }
      if (node.kind == PlanKind::kGather) {
        *out << " (morsels=" << s->morsels.load(std::memory_order_relaxed)
             << " stalls=" << s->stalls.load(std::memory_order_relaxed)
             << ")";
      }
      if (node.kind == PlanKind::kSeqScan && !node.zone_filters.empty()) {
        *out << " (zone_skips="
             << s->zone_skips.load(std::memory_order_relaxed) << ")";
      }
      if (node.kind == PlanKind::kSeqScan && !node.virtual_columns.empty()) {
        *out << " (decodes=" << s->decodes.load(std::memory_order_relaxed)
             << " attrs=" << s->attrs.load(std::memory_order_relaxed)
             << " columnar_hits="
             << s->columnar_hits.load(std::memory_order_relaxed)
             << " extract_time=" << std::fixed << std::setprecision(3)
             << static_cast<double>(
                    s->extract_ns.load(std::memory_order_relaxed)) /
                    1e6
             << " ms)";
      }
      // Compiled-expression shape: static instruction count of the
      // attached program(s) plus the lanes the typed kernels served and the
      // specializable lanes left boxed.
      {
        uint64_t ops = 0;
        bool compiled = false;
        auto add = [&](const bytecode::Program* p) {
          if (p == nullptr) return;
          compiled = true;
          ops += p->num_instrs;
        };
        add(node.predicate_program.get());
        add(node.scan_filter_program.get());
        for (const auto& p : node.projection_programs) add(p.get());
        for (const auto* list :
             {&node.left_key_programs, &node.right_key_programs,
              &node.sort_key_programs, &node.group_key_programs,
              &node.agg_programs}) {
          for (const auto& p : *list) add(p.get());
        }
        if (compiled) {
          *out << " (bytecode ops=" << ops
               << " typed=" << s->bc_typed_lanes.load(std::memory_order_relaxed)
               << " boxed=" << s->bc_boxed_lanes.load(std::memory_order_relaxed)
               << ")";
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
    AppendAnalyzedNode(*child, stats, params, depth + 1, out);
  }
}

}  // namespace

std::string ExplainAnalyzeText(const PlanNode& plan, const PlanStats& stats,
                               const std::vector<Datum>* params) {
  std::ostringstream out;
  AppendAnalyzedNode(plan, stats, params, 0, &out);
  return out.str();
}

}  // namespace sinew::engine
