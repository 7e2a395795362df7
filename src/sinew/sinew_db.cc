#include "sinew/sinew_db.h"

#include <algorithm>
#include <fstream>

#include "common/query_log.h"
#include "engine/parser.h"
#include "engine/table.h"
#include "json/json.h"
#include "serial/sinew_format.h"
#include "sinew/extract_functions.h"

namespace sinew {

namespace {

engine::PlannerOptions WithParallelism(engine::PlannerOptions planner,
                                       int parallelism) {
  planner.parallelism = std::max(planner.parallelism, parallelism);
  return planner;
}

bool IsDmlStatement(engine::StatementKind kind) {
  switch (kind) {
    case engine::StatementKind::kCreateTable:
    case engine::StatementKind::kInsert:
    case engine::StatementKind::kUpdate:
    case engine::StatementKind::kDelete:
      return true;
    default:
      return false;
  }
}

std::string DmlTargetTable(const engine::Statement& stmt) {
  switch (stmt.kind) {
    case engine::StatementKind::kCreateTable:
      return stmt.create_table->table;
    case engine::StatementKind::kInsert:
      return stmt.insert->table;
    case engine::StatementKind::kUpdate:
      return stmt.update->table;
    case engine::StatementKind::kDelete:
      return stmt.del->table;
    default:
      return "";
  }
}

/// Times SinewDb::Query runs a statement: replans, and UPDATE passes over
/// rows that moved while it ran.
constexpr int kMaxAttempts = 4;

/// A query aborted because a background schema change overtook its plan:
/// rewrite, plan and run it again.
bool IsReplan(const Result<engine::QueryResult>& result) {
  return !result.ok() && result.status().IsAborted() &&
         result.status().message().find("replan") != std::string::npos;
}

}  // namespace

SinewDb::SinewDb(SinewOptions options)
    : options_(options),
      db_(WithParallelism(options.planner, options.parallelism),
          options.exec),
      loader_(&db_, &catalog_),
      analyzer_(&db_, &catalog_, options.analyzer),
      materializer_(&db_, &catalog_),
      rewriter_(&db_, &catalog_, &indexes_) {
  loader_.SetParallelism(options.parallelism);
  materializer_.SetParallelism(options.parallelism);
  RegisterSinewFunctions(db_.udfs(), &catalog_);
  db_.set_slow_query_threshold_ns(options.slow_query_threshold_ns);
}

SinewDb::~SinewDb() { StopBackgroundMaintenance(); }

Result<uint64_t> SinewDb::LoadJsonLines(const std::string& table,
                                        std::string_view jsonl) {
  ASSIGN_OR_RETURN(std::vector<Value> docs, json::ParseLines(jsonl));
  return LoadDocuments(table, docs);
}

Result<uint64_t> SinewDb::LoadDocuments(const std::string& table,
                                        const std::vector<Value>& docs) {
  // Log the batch before applying it; the hook holds its commit lock from
  // Before* to AfterWrite, so log order matches apply order.
  if (write_hook_ != nullptr) {
    RETURN_NOT_OK(write_hook_->BeforeLoad(table, docs));
  }
  Result<uint64_t> loaded = LoadDocumentsUnlogged(table, docs);
  if (write_hook_ != nullptr) write_hook_->AfterWrite(loaded.status());
  return loaded;
}

Result<uint64_t> SinewDb::LoadDocumentsUnlogged(const std::string& table,
                                                const std::vector<Value>& docs) {
  bool fresh = !catalog_.HasTable(table);
  textindex::InvertedIndex* index = nullptr;
  auto it = indexes_.find(table);
  if (it != indexes_.end()) index = it->second.get();
  ASSIGN_OR_RETURN(uint64_t loaded, loader_.LoadDocuments(table, docs, index));
  if (fresh) {
    std::lock_guard lock(tables_mutex_);
    if (std::find(tables_.begin(), tables_.end(), table) == tables_.end()) {
      tables_.push_back(table);
    }
  }
  return loaded;
}

Result<engine::QueryResult> SinewDb::Query(std::string_view sql) {
  query_trace_.Clear();
  // One outer span per Query call: the rewrite/execute phase spans, every
  // Gather worker span and any background work this statement triggers
  // (durable flush, shred) nest under it and share its trace ID — the
  // identity the query-log record carries for joining log rows to traces.
  metrics::TraceContext::Span query_span = query_trace_.StartSpan("query");
  qlog::QueryRecord record;
  record.ordinal = qlog::QueryLog::Global()->BeginQuery();
  record.trace_id = query_span.ids().trace_id;
  const uint64_t total_start = metrics::NowNanos();
  // A query planned just before a background schema change (column added by
  // the materializer, dropped by dematerialization) fails fast with
  // kAborted instead of misreading rows; rewrite + replan and try again.
  // An UPDATE whose rows moved between its find and its patch is rewritten
  // and run again on those rows alone (QueryExecInfo::unpatched_rids); each
  // such pass is an attempt too.
  // Mutating statements are logged through the write-ahead hook exactly once
  // (before the first execution attempt), and the hook's AfterWrite fires
  // exactly once with the final outcome regardless of which exit is taken.
  Status last;
  bool logged = false;
  int attempts = 0;
  engine::QueryExecInfo info;
  std::vector<int64_t> pending_rids;  // rows the last UPDATE pass handed back
  int64_t updated = 0;                // rows earlier UPDATE passes updated
  auto finish = [&](Result<engine::QueryResult> r) {
    // AfterWrite runs before the query span closes so flush work it
    // triggers (durable layer) parents under this query's trace.
    if (logged) write_hook_->AfterWrite(r.status());
    // The query-log work — fingerprint, plan hash, the record — is its own
    // span, so a trace shows what the query costs past its execution.
    metrics::ScopedSpan finish_span("query.finish");
    record.fingerprint = qlog::NormalizeFingerprint(sql);
    record.fingerprint_hash = qlog::HashFingerprint(record.fingerprint);
    if (info.plan != nullptr) {
      record.plan_hash = qlog::HashFingerprint(info.plan->DebugString());
      info.plan.reset();
    }
    if (r.ok() && updated > 0) {
      // The count of every UPDATE pass.
      const int64_t total = updated + r->rows[0][0].int_value();
      r->rows = engine::ResultRows();
      r->rows.AppendRow({engine::Datum::Int(total)});
      info.rows_out = static_cast<uint64_t>(total);
    }
    record.plan_ns = info.plan_ns;
    record.exec_ns = info.exec_ns;
    record.rows_in = info.rows_in;
    record.rows_examined = info.rows_examined;
    record.rows_out = info.rows_out;
    record.batches = info.batches;
    record.zone_skips = info.zone_skips;
    record.replans = attempts > 0 ? static_cast<uint64_t>(attempts - 1) : 0;
    record.total_ns = metrics::NowNanos() - total_start;
    if (r.ok()) {
      record.status = "ok";
      query_span.SetRows(r->rows.size());
    } else {
      record.status = StatusCodeToString(r.status().code());
      record.error = r.status().message();
      query_span.SetDetail(record.error);
    }
    qlog::QueryLog::Global()->Append(std::move(record));
    finish_span.End();
    query_span.End();
    return r;
  };
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    const uint64_t parse_start = metrics::NowNanos();
    Result<engine::Statement> stmt_or = engine::ParseSql(sql);
    const uint64_t rewrite_start = metrics::NowNanos();
    record.parse_ns += rewrite_start - parse_start;
    if (!stmt_or.ok()) return finish(stmt_or.status());
    // A SELECT's first attempt goes through the plan cache; a replan retry
    // rewrites and plans afresh.
    if (attempt == 0) {
      if (std::optional<StatementShape> shape =
              ParameterizeStatement(sql, &*stmt_or)) {
        ++attempts;
        Result<engine::QueryResult> result =
            RunCached(&*stmt_or, *shape, &record, &info);
        if (!IsReplan(result)) return finish(std::move(result));
        last = result.status();
        continue;
      }
    }
    record.plan_cache = "bypass";
    // Read before the rewrite reads the attribute states: rows moved for a
    // later state abort the scans (engine::QueryExecInfo::move_epoch_bound).
    const uint64_t move_epoch_bound = catalog_.LastEpoch();
    metrics::TraceContext::Span rewrite_span =
        query_trace_.StartSpan("query.rewrite");
    Status rewritten = rewriter_.RewriteStatement(&*stmt_or);
    rewrite_span.End();
    record.rewrite_ns += metrics::NowNanos() - rewrite_start;
    if (!rewritten.ok()) return finish(rewritten);
    Status stats_refresh = MaybeRefreshAttributeStatsTable(*stmt_or);
    if (!stats_refresh.ok()) return finish(stats_refresh);
    if (write_hook_ != nullptr && !logged && IsDmlStatement(stmt_or->kind)) {
      // A non-OK Before* means the write was never logged: reject it without
      // applying (and without AfterWrite, per the hook contract).
      Status before =
          write_hook_->BeforeDml(sql, DmlTargetTable(*stmt_or), stmt_or->kind);
      if (!before.ok()) {
        // Skip the AfterWrite pairing but still close the span and log.
        logged = false;
        return finish(before);
      }
      logged = true;
    }
    ++attempts;
    info = engine::QueryExecInfo{};  // per-attempt; finish reads the last one
    info.rewrite_ns = record.rewrite_ns;
    info.move_epoch_bound = move_epoch_bound;
    info.only_rids = pending_rids;
    metrics::TraceContext::Span exec_span =
        query_trace_.StartSpan("query.execute");
    Result<engine::QueryResult> result = db_.ExecuteStatement(*stmt_or, &info);
    if (result.ok()) exec_span.SetRows(result->rows.size());
    if (!result.ok()) exec_span.SetDetail(std::string(result.status().message()));
    exec_span.End();
    if (result.ok() && !info.unpatched_rids.empty()) {
      updated += result->rows[0][0].int_value();
      pending_rids = std::move(info.unpatched_rids);
      last = Status::Aborted("UPDATE of ", DmlTargetTable(*stmt_or),
                             " applied to ", updated, " rows; ",
                             pending_rids.size(),
                             " rows kept moving while being updated");
      continue;
    }
    if (!IsReplan(result)) return finish(std::move(result));
    last = result.status();
  }
  return finish(last);
}

Result<engine::QueryResult> SinewDb::RunCached(engine::Statement* stmt,
                                               const StatementShape& shape,
                                               qlog::QueryRecord* record,
                                               engine::QueryExecInfo* info) {
  *info = engine::QueryExecInfo{};
  // Read before the entry's states are checked or rewritten from: rows
  // moved for a later state abort the scans with "replan".
  info->move_epoch_bound = catalog_.LastEpoch();
  const uint64_t text_indexes = text_index_version_.load();
  const uint64_t lookup_start = metrics::NowNanos();
  std::shared_ptr<const PlanCache::Entry> entry =
      plan_cache_.Lookup(shape.key, &db_, catalog_, text_indexes);
  uint64_t planning_ns = 0;
  std::optional<metrics::TraceContext::Span> exec_span;
  if (entry != nullptr) {
    record->plan_cache = "hit";
    info->plan_ns = metrics::NowNanos() - lookup_start;
    planning_ns = info->plan_ns;
    record->plan_hash = entry->plan_hash;
    QueryRewriter::Replay(entry->counts);
    exec_span.emplace(query_trace_.StartSpan("query.execute"));
  } else {
    record->plan_cache = "miss";
    // The versions are read before the rewrite reads what they version: a
    // change racing the rewrite leaves the entry stale, never wrong.
    const std::optional<PlanEpochs> before = PlanEpochs::Snapshot(
        &db_, catalog_, text_indexes, *stmt->select);
    const uint64_t rewrite_start = metrics::NowNanos();
    metrics::TraceContext::Span rewrite_span =
        query_trace_.StartSpan("query.rewrite");
    RewriteCounts counts;
    Status rewritten = rewriter_.RewriteStatement(stmt, &counts);
    rewrite_span.End();
    record->rewrite_ns += metrics::NowNanos() - rewrite_start;
    RETURN_NOT_OK(rewritten);
    exec_span.emplace(query_trace_.StartSpan("query.execute"));
    const uint64_t plan_start = metrics::NowNanos();
    Result<engine::PlanPtr> planned = db_.PlanStatement(*stmt->select);
    info->plan_ns = metrics::NowNanos() - plan_start;
    if (!planned.ok()) {
      exec_span->SetDetail(std::string(planned.status().message()));
      return planned.status();
    }
    auto fresh = std::make_shared<PlanCache::Entry>();
    fresh->key = shape.key;
    fresh->plan = std::move(*planned);
    fresh->plan_hash = qlog::HashFingerprint(fresh->plan->DebugString());
    fresh->counts = counts;
    record->plan_hash = fresh->plan_hash;
    planning_ns = record->rewrite_ns + info->plan_ns;
    // Cached only when nothing moved while it was planned: a rewrite that
    // added a column itself is planned again by the next run.
    if (before.has_value() &&
        PlanEpochs::Snapshot(&db_, catalog_, text_indexes, *stmt->select) ==
            *before) {
      fresh->epochs = *before;
      plan_cache_.Insert(fresh);
    }
    entry = std::move(fresh);
  }
  Result<engine::QueryResult> result = Status::OK();
  if (stmt->kind == engine::StatementKind::kExplain) {
    const uint64_t start = metrics::NowNanos();
    result = db_.ExplainAnalyzePlanned(*entry->plan, &shape.params,
                                       planning_ns, record->plan_cache);
    info->exec_ns = metrics::NowNanos() - start;
    if (result.ok()) info->rows_out = result->rows.size();
  } else {
    result = db_.ExecutePlanned(*entry->plan, &shape.params, info);
  }
  if (result.ok()) {
    exec_span->SetRows(result->rows.size());
  } else {
    exec_span->SetDetail(std::string(result.status().message()));
  }
  exec_span->End();
  // The plan met a schema it was not built for: its entry is stale.
  if (IsReplan(result)) plan_cache_.Evict(*entry);
  return result;
}

Result<std::string> SinewDb::Explain(std::string_view sql) {
  ASSIGN_OR_RETURN(engine::Statement stmt, rewriter_.Rewrite(sql));
  if (stmt.kind != engine::StatementKind::kSelect &&
      stmt.kind != engine::StatementKind::kExplain) {
    return Status::InvalidArgument("EXPLAIN requires a SELECT");
  }
  RETURN_NOT_OK(MaybeRefreshAttributeStatsTable(stmt));
  ASSIGN_OR_RETURN(engine::PlanPtr plan, db_.PlanStatement(*stmt.select));
  return plan->DebugString();
}

Status SinewDb::DumpTrace(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("cannot open trace output ", path);
  out << metrics::MetricsRegistry::Global()->DumpChromeTrace();
  out.flush();
  if (!out) return Status::IOError("failed writing trace output ", path);
  return Status::OK();
}

Status SinewDb::MaybeRefreshAttributeStatsTable(const engine::Statement& stmt) {
  constexpr std::string_view kAttrStatsTable = "sinew_attribute_stats";
  if ((stmt.kind != engine::StatementKind::kSelect &&
       stmt.kind != engine::StatementKind::kExplain) ||
      !engine::ReferencesTable(*stmt.select, kAttrStatsTable)) {
    return Status::OK();
  }
  std::vector<engine::DatumRow> rows;
  auto append = [&](const std::string& t, uint32_t attr_id, uint64_t count,
                    bool materialized, bool dirty, const AttrHeat& heat) {
    std::string key = "?";
    std::string type = "?";
    Result<serial::Attribute> attr = catalog_.Lookup(attr_id);
    if (attr.ok()) {
      key = attr->key;
      type = ValueTypeName(attr->type);
    }
    auto as_int = [](uint64_t v) {
      return engine::Datum::Int(static_cast<int64_t>(v));
    };
    rows.push_back({engine::Datum::Text(t),
                    engine::Datum::Text(std::move(key)),
                    engine::Datum::Text(std::move(type)), as_int(attr_id),
                    as_int(count), as_int(materialized ? 1 : 0),
                    as_int(dirty ? 1 : 0), as_int(heat.extract_requests),
                    as_int(heat.strip_served), as_int(heat.reservoir_served),
                    as_int(heat.decode_ns), as_int(heat.last_touched_ordinal)});
  };
  for (const std::string& t : Tables()) {
    std::map<uint32_t, AttrHeat> heat = catalog_.HeatSnapshot(t);
    for (const AttributeState& state : catalog_.TableAttributes(t)) {
      AttrHeat h;
      auto hit = heat.find(state.attr_id);
      if (hit != heat.end()) {
        h = hit->second;
        heat.erase(hit);
      }
      append(t, state.attr_id, state.count, state.materialized, state.dirty,
             h);
    }
    // Heat recorded for attributes with no catalog state (e.g. state was
    // cleared between queries): surface it rather than dropping silently.
    for (const auto& [id, h] : heat) append(t, id, 0, false, false, h);
  }
  auto col = [](const char* name, engine::ColumnType type) {
    return engine::Column{name, type};
  };
  using engine::ColumnType;
  return db_.RefreshSystemTable(
      kAttrStatsTable,
      {col("table_name", ColumnType::kText), col("attr_key", ColumnType::kText),
       col("attr_type", ColumnType::kText), col("attr_id", ColumnType::kInt),
       col("row_count", ColumnType::kInt),
       col("materialized", ColumnType::kInt), col("dirty", ColumnType::kInt),
       col("extract_requests", ColumnType::kInt),
       col("strip_served", ColumnType::kInt),
       col("reservoir_served", ColumnType::kInt),
       col("decode_ns", ColumnType::kInt),
       col("last_touched_ordinal", ColumnType::kInt)},
      rows);
}

Result<std::vector<SchemaAnalyzer::Decision>> SinewDb::AnalyzeSchema(
    const std::string& table) {
  return analyzer_.AnalyzeTable(table);
}

Result<uint64_t> SinewDb::MaterializeStep(const std::string& table,
                                          uint64_t max_rows) {
  return materializer_.Step(table, max_rows);
}

Status SinewDb::MaterializeAll(const std::string& table) {
  return materializer_.RunToCompletion(table);
}

Status SinewDb::AnalyzeAndMaterialize(const std::string& table) {
  RETURN_NOT_OK(analyzer_.AnalyzeTable(table).status());
  return materializer_.RunToCompletion(table);
}

Status SinewDb::BuildColumnarSegments(const std::string& table) {
  if (!options_.enable_columnar_segments) return Status::OK();
  if (!catalog_.HasTable(table)) {
    return Status::NotFound("table ", table, " is not a Sinew table");
  }
  ASSIGN_OR_RETURN(engine::Table * engine_table,
                   db_.catalog()->GetTable(table));
  // Serialize against the loader/materializer: both rewrite rows, and a
  // shred racing them would only build a segment it then has to discard.
  std::lock_guard lock(catalog_.MaintenanceLatch(table));
  return ShredAndAttachSegment(engine_table, catalog_, table).status();
}

Status SinewDb::ForceMaterialization(const std::string& table,
                                     const std::string& key,
                                     bool materialized) {
  std::vector<serial::Attribute> attrs = catalog_.FindAllTypes(key);
  bool any = false;
  for (const serial::Attribute& attr : attrs) {
    std::optional<AttributeState> state = catalog_.GetState(table, attr.id);
    if (!state.has_value()) continue;
    any = true;
    RETURN_NOT_OK(catalog_.SetMaterialized(table, attr.id, materialized));
  }
  if (!any) {
    return Status::NotFound("attribute ", key, " not observed in table ",
                            table);
  }
  return Status::OK();
}

Result<std::vector<LogicalColumn>> SinewDb::LogicalSchema(
    const std::string& table) {
  if (!catalog_.HasTable(table)) {
    return Status::NotFound("table ", table, " is not a Sinew table");
  }
  std::vector<LogicalColumn> out;
  std::map<std::string, size_t> by_name;
  for (const AttributeState& state : catalog_.TableAttributes(table)) {
    ASSIGN_OR_RETURN(serial::Attribute attr, catalog_.Lookup(state.attr_id));
    auto [it, inserted] = by_name.try_emplace(attr.key, out.size());
    if (inserted) {
      LogicalColumn col;
      col.name = attr.key;
      out.push_back(std::move(col));
    }
    LogicalColumn& col = out[it->second];
    col.types.push_back(attr.type);
    col.count = std::max(col.count, state.count);
    col.materialized |= state.materialized;
    col.dirty |= state.dirty;
  }
  return out;
}

Status SinewDb::EnableTextIndex(const std::string& table) {
  if (!catalog_.HasTable(table)) {
    return Status::NotFound("table ", table, " is not a Sinew table");
  }
  ASSIGN_OR_RETURN(engine::Table * engine_table,
                   db_.catalog()->GetTable(table));
  auto index = std::make_unique<textindex::InvertedIndex>();
  std::optional<size_t> data_slot =
      engine_table->FindColumnLatched(kReservoirColumn);
  if (!data_slot.has_value()) {
    return Status::InvalidArgument("table has no reservoir column");
  }
  // Index existing rows: reconstruct each document (values may be split
  // between reservoir and physical columns mid-materialization, so extract
  // through the logical view).
  uint64_t slots = engine_table->RowSlotCount();
  for (uint64_t rid = 0; rid < slots; ++rid) {
    Result<engine::DatumRow> row = engine_table->ReadRow(rid);
    if (!row.ok()) continue;
    // Reservoir attributes.
    const engine::Datum& data = (*row)[*data_slot];
    Value doc = Value::Object({});
    if (!data.is_null() && !data.str().empty()) {
      ASSIGN_OR_RETURN(doc,
                       serial::DeserializeDocument(data.str(), catalog_));
    }
    // Physical columns overlay.
    const engine::Schema schema = engine_table->SchemaSnapshot();
    for (size_t slot : schema.LiveSlots()) {
      const engine::Column& col = schema.columns()[slot];
      if (col.name == kReservoirColumn) continue;
      const engine::Datum& v = (*row)[slot];
      if (v.is_null()) continue;
      if (col.type == engine::ColumnType::kBytes) {
        // Serialized nested object or array: decode per the attribute's
        // catalog type and index its scalar leaves.
        if (catalog_.FindId(col.name, ValueType::kArray).has_value()) {
          Result<Value> arr =
              serial::DecodeValueBody(ValueType::kArray, v.str(), catalog_);
          if (arr.ok()) doc.Set(col.name, std::move(*arr));
        } else {
          Result<Value> sub = serial::DeserializeDocument(v.str(), catalog_);
          if (sub.ok()) doc.Set(col.name, std::move(*sub));
        }
        continue;
      }
      doc.Set(col.name, v.ToValue());
    }
    // Reuse the loader's traversal by inlining a minimal version here.
    struct Walker {
      textindex::InvertedIndex* index;
      uint64_t rid;
      void Walk(const Value& node, const std::string& prefix) {
        for (const auto& [key, value] : node.members()) {
          std::string path = prefix + key;
          if (value.is_string()) {
            index->AddText(rid, path, value.string_value());
          } else if (value.is_number()) {
            index->AddNumber(rid, path, value.AsDouble());
          } else if (value.is_bool()) {
            index->AddText(rid, path, value.bool_value() ? "true" : "false");
          } else if (value.is_object()) {
            Walk(value, path + ".");
          } else if (value.is_array()) {
            for (const Value& e : value.array()) {
              if (e.is_string()) {
                index->AddText(rid, path, e.string_value());
              } else if (e.is_number()) {
                index->AddNumber(rid, path, e.AsDouble());
              } else if (e.is_object()) {
                Walk(e, path + ".");
              }
            }
          }
        }
      }
    };
    Walker{index.get(), rid}.Walk(doc, "");
  }
  indexes_[table] = std::move(index);
  text_index_version_.fetch_add(1);
  return Status::OK();
}

bool SinewDb::HasTextIndex(const std::string& table) const {
  return indexes_.count(table) != 0;
}

std::vector<std::string> SinewDb::Tables() const {
  std::lock_guard lock(tables_mutex_);
  return tables_;
}

void SinewDb::NoteTable(const std::string& table) {
  std::lock_guard lock(tables_mutex_);
  if (std::find(tables_.begin(), tables_.end(), table) == tables_.end()) {
    tables_.push_back(table);
  }
}

void SinewDb::ResetForRecovery() {
  std::vector<std::string> tables;
  {
    std::lock_guard lock(tables_mutex_);
    tables.swap(tables_);
  }
  // Tables registered in the catalog but whose engine table was never
  // created (restore failed in between) yield NotFound here; that is fine.
  for (const std::string& table : tables) {
    (void)db_.catalog()->DropTable(table);
  }
  indexes_.clear();
  text_index_version_.fetch_add(1);
  catalog_.Clear();
  plan_cache_.Clear();
}

void SinewDb::StartBackgroundMaintenance(std::chrono::milliseconds period) {
  StopBackgroundMaintenance();
  background_stop_ = false;
  background_ = std::thread([this, period] { BackgroundLoop(period); });
}

void SinewDb::StopBackgroundMaintenance() {
  background_stop_ = true;
  if (background_.joinable()) background_.join();
}

void SinewDb::BackgroundLoop(std::chrono::milliseconds period) {
  while (!background_stop_.load()) {
    for (const std::string& table : Tables()) {
      if (background_stop_.load()) break;
      // Analyzer pass, then a bounded materializer increment — the
      // "background process running when there are spare resources".
      (void)analyzer_.AnalyzeTable(table);
      (void)materializer_.Step(table, 4096);
    }
    for (int i = 0; i < 10 && !background_stop_.load(); ++i) {
      std::this_thread::sleep_for(period / 10);
    }
  }
}

}  // namespace sinew
