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
  if (options.query_log_capacity > 0) {
    qlog::QueryLog::Global()->SetCapacity(options.query_log_capacity);
  }
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
  record.fingerprint = qlog::NormalizeFingerprint(sql);
  record.fingerprint_hash = qlog::HashFingerprint(record.fingerprint);
  const uint64_t total_start = metrics::NowNanos();
  // A query planned just before a background schema change (column added by
  // the materializer, dropped by dematerialization) fails fast with
  // kAborted instead of misreading rows; rewrite + replan and try again.
  // Mutating statements are logged through the write-ahead hook exactly once
  // (before the first execution attempt), and the hook's AfterWrite fires
  // exactly once with the final outcome regardless of which exit is taken.
  Status last;
  bool logged = false;
  int attempts = 0;
  engine::QueryExecInfo info;
  auto finish = [&](Result<engine::QueryResult> r) {
    // AfterWrite runs before the query span closes so flush work it
    // triggers (durable layer) parents under this query's trace.
    if (logged) write_hook_->AfterWrite(r.status());
    record.plan_hash = info.plan_hash;
    record.plan_ns = info.plan_ns;
    record.exec_ns = info.exec_ns;
    record.rows_in = info.rows_in;
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
    query_span.End();
    return r;
  };
  for (int attempt = 0; attempt < 4; ++attempt) {
    const uint64_t parse_start = metrics::NowNanos();
    Result<engine::Statement> stmt_or = engine::ParseSql(sql);
    const uint64_t rewrite_start = metrics::NowNanos();
    record.parse_ns += rewrite_start - parse_start;
    if (!stmt_or.ok()) return finish(stmt_or.status());
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
    metrics::TraceContext::Span exec_span =
        query_trace_.StartSpan("query.execute");
    Result<engine::QueryResult> result = db_.ExecuteStatement(*stmt_or, &info);
    if (result.ok()) exec_span.SetRows(result->rows.size());
    if (!result.ok()) exec_span.SetDetail(std::string(result.status().message()));
    exec_span.End();
    if (result.ok() || !result.status().IsAborted() ||
        result.status().message().find("replan") == std::string::npos) {
      return finish(std::move(result));
    }
    last = result.status();
  }
  return finish(last);
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
  if (stmt.kind != engine::StatementKind::kSelect &&
      stmt.kind != engine::StatementKind::kExplain) {
    return Status::OK();
  }
  const engine::SelectStatement& sel = *stmt.select;
  const bool referenced =
      std::any_of(sel.from.begin(), sel.from.end(),
                  [kAttrStatsTable](const engine::TableRef& ref) {
                    return ref.table_name == kAttrStatsTable;
                  });
  if (!referenced) return Status::OK();
  std::lock_guard lock(stats_table_mutex_);
  engine::Table* table = nullptr;
  Result<engine::Table*> existing =
      db_.catalog()->GetTable(std::string(kAttrStatsTable));
  if (existing.ok()) {
    table = *existing;
  } else {
    engine::Schema schema;
    auto add = [&schema](const char* name, engine::ColumnType type) {
      return schema.AddColumn(engine::Column{name, type, false});
    };
    RETURN_NOT_OK(add("table_name", engine::ColumnType::kText));
    RETURN_NOT_OK(add("attr_key", engine::ColumnType::kText));
    RETURN_NOT_OK(add("attr_type", engine::ColumnType::kText));
    RETURN_NOT_OK(add("attr_id", engine::ColumnType::kInt));
    RETURN_NOT_OK(add("row_count", engine::ColumnType::kInt));
    RETURN_NOT_OK(add("materialized", engine::ColumnType::kInt));
    RETURN_NOT_OK(add("dirty", engine::ColumnType::kInt));
    RETURN_NOT_OK(add("extract_requests", engine::ColumnType::kInt));
    RETURN_NOT_OK(add("strip_served", engine::ColumnType::kInt));
    RETURN_NOT_OK(add("reservoir_served", engine::ColumnType::kInt));
    RETURN_NOT_OK(add("decode_ns", engine::ColumnType::kInt));
    RETURN_NOT_OK(add("last_touched_ordinal", engine::ColumnType::kInt));
    ASSIGN_OR_RETURN(table,
                     db_.catalog()->CreateTable(std::string(kAttrStatsTable),
                                                std::move(schema)));
  }
  // Refresh in place (delete + append): concurrent readers may hold the
  // Table*, and plans are built against it.
  const uint64_t end = table->RowSlotCount();
  for (uint64_t rid = 0; rid < end; ++rid) {
    if (table->IsLive(rid)) RETURN_NOT_OK(table->DeleteRow(rid));
  }
  auto append = [&](const std::string& t, uint32_t attr_id, uint64_t count,
                    bool materialized, bool dirty,
                    const AttrHeat& heat) -> Status {
    std::string key = "?";
    std::string type = "?";
    Result<serial::Attribute> attr = catalog_.Lookup(attr_id);
    if (attr.ok()) {
      key = attr->key;
      type = ValueTypeName(attr->type);
    }
    engine::DatumRow row;
    row.push_back(engine::Datum::Text(t));
    row.push_back(engine::Datum::Text(std::move(key)));
    row.push_back(engine::Datum::Text(std::move(type)));
    row.push_back(engine::Datum::Int(static_cast<int64_t>(attr_id)));
    row.push_back(engine::Datum::Int(static_cast<int64_t>(count)));
    row.push_back(engine::Datum::Int(materialized ? 1 : 0));
    row.push_back(engine::Datum::Int(dirty ? 1 : 0));
    row.push_back(
        engine::Datum::Int(static_cast<int64_t>(heat.extract_requests)));
    row.push_back(engine::Datum::Int(static_cast<int64_t>(heat.strip_served)));
    row.push_back(
        engine::Datum::Int(static_cast<int64_t>(heat.reservoir_served)));
    row.push_back(engine::Datum::Int(static_cast<int64_t>(heat.decode_ns)));
    row.push_back(
        engine::Datum::Int(static_cast<int64_t>(heat.last_touched_ordinal)));
    return table->AppendRow(row).status();
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
      RETURN_NOT_OK(
          append(t, state.attr_id, state.count, state.materialized,
                 state.dirty, h));
    }
    // Heat recorded for attributes with no catalog state (e.g. state was
    // cleared between queries): surface it rather than dropping silently.
    for (const auto& [id, h] : heat) {
      RETURN_NOT_OK(append(t, id, 0, false, false, h));
    }
  }
  return Status::OK();
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
  return ShredAndAttachSegment(engine_table, catalog_, table, options_.shred)
      .status();
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
  catalog_.Clear();
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
