#include "sinew/materializer.h"

#include <algorithm>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "engine/table.h"
#include "serial/sinew_format.h"
#include "sinew/loader.h"

namespace sinew {

namespace {

/// Encodes a physical column datum back into the reservoir value encoding
/// for its attribute type.
Result<std::string> EncodeDatumForAttribute(const serial::Attribute& attr,
                                            const engine::Datum& value) {
  switch (attr.type) {
    case ValueType::kBool:
    case ValueType::kInt:
    case ValueType::kDouble:
    case ValueType::kString: {
      Value v = value.ToValue();
      return serial::EncodeValueBody(v, nullptr, "");
    }
    case ValueType::kObject:
    case ValueType::kArray:
      // BYTES columns hold the serialized body verbatim.
      return value.str();
    case ValueType::kNull:
      return std::string();
  }
  return Status::Internal("bad attribute type");
}

/// Decodes a reservoir value into the physical column representation.
Result<engine::Datum> DecodeAttributeValue(const serial::Attribute& attr,
                                           std::string_view bytes,
                                           const AttributeCatalog& catalog) {
  switch (attr.type) {
    case ValueType::kObject:
    case ValueType::kArray:
      return engine::Datum::Bytes(std::string(bytes));
    default: {
      ASSIGN_OR_RETURN(Value v,
                       serial::DecodeValueBody(attr.type, bytes, catalog));
      return engine::Datum::FromValue(v);
    }
  }
}

}  // namespace

Result<ColumnMaterializer::Pass*> ColumnMaterializer::StartPassIfNeeded(
    const std::string& table) {
  {
    std::lock_guard lock(passes_mu_);
    auto it = passes_.find(table);
    if (it != passes_.end()) return &it->second;  // pass already in flight
  }
  std::vector<uint32_t> dirty = catalog_->DirtyAttributes(table);
  if (dirty.empty()) return static_cast<Pass*>(nullptr);
  ASSIGN_OR_RETURN(engine::Table * engine_table,
                   db_->catalog()->GetTable(table));
  // Ensure physical columns exist for attributes being materialized.
  for (uint32_t id : dirty) {
    std::optional<AttributeState> state = catalog_->GetState(table, id);
    if (!state.has_value()) continue;
    ASSIGN_OR_RETURN(serial::Attribute attr, catalog_->Lookup(id));
    std::optional<size_t> slot = engine_table->FindColumnLatched(attr.key);
    if (state->materialized && !slot.has_value()) {
      // A concurrent query's rewriter may add the same column first.
      Status added = engine_table->AddColumn(engine::Column{
          attr.key, engine::ColumnTypeForValueType(attr.type), false});
      if (!added.ok() && !added.IsAlreadyExists()) return added;
      static metrics::Counter* promoted =
          metrics::GetCounter("materializer.columns_promoted_total");
      promoted->Increment();
    }
  }
  Pass pass;
  pass.cursor = 0;
  pass.end = engine_table->RowSlotCount();
  pass.attr_ids = std::move(dirty);
  std::lock_guard lock(passes_mu_);
  return &passes_.emplace(table, std::move(pass)).first->second;
}

Result<uint64_t> ColumnMaterializer::Step(const std::string& table,
                                          uint64_t max_rows) {
  metrics::ScopedSpan step_span("materializer.step", table);
  // Exclude the loader while we move data (paper Section 3.1.4).
  std::lock_guard maintenance(catalog_->MaintenanceLatch(table));
  ASSIGN_OR_RETURN(Pass * pass_ptr, StartPassIfNeeded(table));
  if (pass_ptr == nullptr) return 0;
  static metrics::Counter* steps_total =
      metrics::GetCounter("materializer.steps_total");
  steps_total->Increment();
  Pass& pass = *pass_ptr;
  ASSIGN_OR_RETURN(engine::Table * engine_table,
                   db_->catalog()->GetTable(table));

  struct Work {
    serial::Attribute attr;
    bool materialize;  // direction
    size_t slot;
    uint32_t id;
  };
  std::vector<Work> work;
  for (uint32_t id : pass.attr_ids) {
    std::optional<AttributeState> state = catalog_->GetState(table, id);
    if (!state.has_value() || !state->dirty) continue;
    ASSIGN_OR_RETURN(serial::Attribute attr, catalog_->Lookup(id));
    std::optional<size_t> slot = engine_table->FindColumnLatched(attr.key);
    if (!slot.has_value()) continue;
    work.push_back(Work{std::move(attr), state->materialized, *slot, id});
  }
  std::optional<size_t> data_slot =
      engine_table->FindColumnLatched(kReservoirColumn);
  if (!data_slot.has_value()) {
    return Status::InvalidArgument("table ", table, " has no reservoir");
  }
  // Before any row moves, publish the attribute-state epoch the moves
  // follow (read after the states above): a scan planned before that state
  // reads where the values are leaving, so it aborts and replans.
  if (!work.empty()) {
    engine_table->RaiseMoveEpoch(catalog_->StateEpoch(table));
  }

  // Each row move is an independent read-modify-write of one row, idempotent
  // on retry (re-extracting an attribute already moved is a no-op extract
  // miss), so the increment can fan out over the shared pool. The cursor
  // only advances after the whole range succeeds.
  const uint64_t lo = pass.cursor;
  const uint64_t hi = std::min(pass.end, lo + max_rows);
  // Moves row `rid`'s values; Aborted, with nothing written, when the row
  // was written (an UPDATE's patch) between the read and the write.
  auto move_row = [&](uint64_t rid) -> Status {
    uint64_t read_at = 0;
    Result<engine::DatumRow> row_or = engine_table->ReadRow(rid, &read_at);
    if (!row_or.ok()) return Status::OK();  // deleted row
    engine::DatumRow row = std::move(*row_or);
    engine::Datum& data = row[*data_slot];
    bool changed = false;
    std::string reservoir = data.is_null() ? std::string() : data.str();
    for (const Work& w : work) {
      if (w.materialize) {
        // reservoir -> physical column. Top-level attributes are moved out
        // of the reservoir; attributes nested inside an object (dotted key)
        // are copied from their enclosing serialized document — either the
        // reservoir (via path descent) or an already-materialized ancestor
        // column — and the parent document stays authoritative.
        std::optional<std::string_view> bytes;
        bool top_level = w.attr.key.find('.') == std::string::npos;
        if (!reservoir.empty()) {
          serial::DocumentView view(reservoir);
          if (top_level) {
            bytes = view.Extract(w.id);
          } else {
            bytes = view.ExtractPath(w.attr.key, w.attr.type, *catalog_);
          }
        }
        if (!bytes.has_value() && !top_level) {
          // Look inside materialized ancestor columns of this row.
          size_t dot = w.attr.key.rfind('.');
          while (dot != std::string::npos && !bytes.has_value()) {
            std::string prefix = w.attr.key.substr(0, dot);
            std::optional<size_t> pslot =
                engine_table->FindColumnLatched(prefix);
            if (pslot.has_value() && !row[*pslot].is_null() &&
                row[*pslot].is_bytes()) {
              serial::DocumentView pview(row[*pslot].str());
              bytes = pview.ExtractPath(w.attr.key, w.attr.type, *catalog_);
            }
            dot = dot == 0 ? std::string::npos
                           : w.attr.key.rfind('.', dot - 1);
          }
        }
        if (!bytes.has_value()) continue;
        ASSIGN_OR_RETURN(engine::Datum v,
                         DecodeAttributeValue(w.attr, *bytes, *catalog_));
        row[w.slot] = std::move(v);
        if (top_level) {
          ASSIGN_OR_RETURN(reservoir,
                           serial::RemoveAttribute(reservoir, w.id));
        }
        changed = true;
      } else {
        // physical column -> reservoir
        if (row[w.slot].is_null()) continue;
        ASSIGN_OR_RETURN(std::string encoded,
                         EncodeDatumForAttribute(w.attr, row[w.slot]));
        if (reservoir.empty()) {
          // Start from an empty document.
          ASSIGN_OR_RETURN(
              reservoir,
              serial::SerializeDocument(Value::Object({}), catalog_));
        }
        ASSIGN_OR_RETURN(reservoir,
                         serial::SetAttribute(reservoir, w.id, encoded));
        row[w.slot] = engine::Datum::Null();
        changed = true;
      }
    }
    if (changed) {
      data = engine::Datum::Bytes(std::move(reservoir));
      // Atomic single-row update; queries interleave freely.
      RETURN_NOT_OK(engine_table->UpdateRow(rid, row, read_at));
      // Thread-safe: process_row fans out over the shared pool.
      static metrics::Counter* backfilled =
          metrics::GetCounter("materializer.rows_backfilled_total");
      backfilled->Increment();
    }
    return Status::OK();
  };
  auto process_row = [&](uint64_t rid) -> Status {
    Status moved = move_row(rid);
    while (moved.IsAborted()) moved = move_row(rid);  // re-read the new row
    return moved;
  };
  auto process_range = [&](uint64_t a, uint64_t b) -> Status {
    for (uint64_t rid = a; rid < b; ++rid) {
      RETURN_NOT_OK(process_row(rid));
    }
    return Status::OK();
  };
  if (parallelism_ > 1 && hi - lo >= 2048) {
    RETURN_NOT_OK(ThreadPool::Shared()->ParallelFor(
        lo, hi, 512, static_cast<size_t>(parallelism_), process_range));
  } else {
    RETURN_NOT_OK(process_range(lo, hi));
  }
  pass.cursor = hi;

  if (pass.cursor >= pass.end) {
    RETURN_NOT_OK(FinishPass(table));
  }
  return hi - lo;
}

Status ColumnMaterializer::FinishPass(const std::string& table) {
  static metrics::Counter* passes_total =
      metrics::GetCounter("materializer.passes_total");
  passes_total->Increment();
  Pass pass;
  {
    std::lock_guard lock(passes_mu_);
    pass = std::move(passes_[table]);
    passes_.erase(table);
  }
  ASSIGN_OR_RETURN(engine::Table * engine_table,
                   db_->catalog()->GetTable(table));
  // Rows the loader appended after this pass snapshotted its end still hold
  // their values in the reservoir (the loader re-flags affected columns
  // dirty as it appends). Clearing the flag here would clobber that
  // re-dirty and leave those rows unpromoted forever, so promoted columns
  // stay dirty and the next pass covers the new rows (re-examining old rows
  // is a no-op: their reservoir entries were already removed).
  // Dematerialization is unaffected — appended rows only ever write the
  // reservoir, which is where a dematerialized column lives anyway.
  const bool grew = engine_table->RowSlotCount() > pass.end;
  for (uint32_t id : pass.attr_ids) {
    std::optional<AttributeState> state = catalog_->GetState(table, id);
    if (!state.has_value()) continue;
    if (!state->materialized || !grew) {
      RETURN_NOT_OK(catalog_->SetDirty(table, id, false));
    }
    if (!state->materialized) {
      // Dematerialization completed: drop the physical column.
      ASSIGN_OR_RETURN(serial::Attribute attr, catalog_->Lookup(id));
      if (engine_table->FindColumnLatched(attr.key).has_value()) {
        RETURN_NOT_OK(engine_table->DropColumn(attr.key));
        static metrics::Counter* demoted =
            metrics::GetCounter("materializer.columns_demoted_total");
        demoted->Increment();
      }
    }
  }
  return Status::OK();
}

Status ColumnMaterializer::RunToCompletion(const std::string& table) {
  while (true) {
    ASSIGN_OR_RETURN(uint64_t examined, Step(table, 1 << 16));
    if (examined == 0) break;
  }
  // Refresh optimizer statistics now that the physical schema changed.
  ASSIGN_OR_RETURN(engine::Table * engine_table,
                   db_->catalog()->GetTable(table));
  return engine_table->Analyze();
}

}  // namespace sinew
