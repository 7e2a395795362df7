#include "engine/database.h"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "common/metrics.h"
#include "common/query_log.h"
#include "engine/bytecode.h"

namespace sinew::engine {

namespace {

/// Virtual system tables: SELECT-ing from them serves a snapshot of the
/// global metrics registry / workload query log through the ordinary
/// planner/executor. `sinew_attribute_stats` is refreshed by the Sinew
/// layer (it owns the attribute dictionary), but its name is reserved here
/// so user DDL can never squat on it.
constexpr std::string_view kMetricsTableName = "sinew_metrics";
constexpr std::string_view kQueryLogTableName = "sinew_query_log";
constexpr std::string_view kAttributeStatsTableName = "sinew_attribute_stats";

/// Walks the plan tree summing base-scan actuals into the exec info.
void AccumulateScanStats(const PlanNode& node, const PlanStats& stats,
                         QueryExecInfo* info) {
  if (node.kind == PlanKind::kSeqScan) {
    if (OperatorStats* s = stats.For(node)) {
      info->rows_in += s->rows.load(std::memory_order_relaxed);
      info->rows_examined += s->visited.load(std::memory_order_relaxed);
      info->zone_skips += s->zone_skips.load(std::memory_order_relaxed);
    }
  }
  for (const auto& child : node.children) {
    AccumulateScanStats(*child, stats, info);
  }
}

/// Splits multi-line text into one QueryResult text row per line, the shape
/// EXPLAIN output takes.
QueryResult TextResult(const std::string& column, const std::string& text) {
  QueryResult result;
  result.column_names.push_back(column);
  result.column_types.push_back(ColumnType::kText);
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    result.rows.AppendRow({Datum::Text(text.substr(start, end - start))});
    start = end + 1;
  }
  return result;
}

QueryResult CountResult(int64_t n) {
  QueryResult result;
  result.column_names.push_back("count");
  result.column_types.push_back(ColumnType::kInt);
  result.rows.AppendRow({Datum::Int(n)});
  return result;
}

/// Times an UPDATE run without QueryExecInfo finds again the rows written
/// between its find and its patch before it gives up.
constexpr int kMaxRefinds = 8;

/// Implicit store coercions (int literal into a double column, text into
/// bytes). Anything else is left for the row codec to type-check.
Datum CoerceForColumn(Datum value, ColumnType type) {
  if (value.is_null()) return value;
  if (type == ColumnType::kDouble && value.is_int()) {
    return Datum::Double(static_cast<double>(value.int_value()));
  }
  if (type == ColumnType::kBytes && value.is_text()) {
    return Datum::Bytes(value.str());
  }
  if (type == ColumnType::kText && value.is_bytes()) {
    return Datum::Text(value.str());
  }
  return value;
}

/// The find phase of UPDATE/DELETE as a query over the target table:
/// `SELECT <table>.__rid, <outputs...> FROM <table> [WHERE <where>]`.
SelectStatement FindRowsStatement(const std::string& table, const Expr* where,
                                  std::vector<ExprPtr> outputs) {
  SelectStatement find;
  find.from.push_back(TableRef{table, ""});
  find.items.push_back(SelectItem{Expr::Column(table, "__rid"), ""});
  for (ExprPtr& e : outputs) find.items.push_back(SelectItem{std::move(e), ""});
  if (where != nullptr) find.where = where->Clone();
  return find;
}

/// DML evaluates its WHERE and SET expressions once per row: an aggregate
/// there has no group to range over.
Status RejectAggregate(const Expr* e, std::string_view statement) {
  if (e != nullptr && e->ContainsAggregate()) {
    return Status::InvalidArgument("aggregate functions are not allowed in ",
                                   statement);
  }
  return Status::OK();
}

/// The count row a DML statement returns. The apply phase's time joins the
/// find phase's in exec_ns, and rows_out is the affected count.
QueryResult DmlResult(int64_t affected, uint64_t apply_start,
                      QueryExecInfo* info) {
  if (info != nullptr) {
    info->exec_ns += metrics::NowNanos() - apply_start;
    info->rows_out = static_cast<uint64_t>(affected);
  }
  return CountResult(affected);
}

}  // namespace

bool ReferencesTable(const SelectStatement& stmt, std::string_view table) {
  return std::any_of(stmt.from.begin(), stmt.from.end(),
                     [table](const TableRef& ref) {
                       return ref.table_name == table;
                     });
}

bool ReferencesSystemTable(const SelectStatement& stmt) {
  return ReferencesTable(stmt, kMetricsTableName) ||
         ReferencesTable(stmt, kQueryLogTableName) ||
         ReferencesTable(stmt, kAttributeStatsTableName);
}

Database::Database(PlannerOptions planner_options, ExecOptions exec_options)
    : planner_options_(planner_options), exec_options_(exec_options) {
  RegisterBuiltinFunctions(&udfs_);
}

Result<QueryResult> Database::Execute(std::string_view sql) {
  ASSIGN_OR_RETURN(Statement stmt, ParseSql(sql));
  return ExecuteStatement(stmt);
}

Result<PlanPtr> Database::PlanStatement(const SelectStatement& stmt) {
  RETURN_NOT_OK(MaybeRefreshSystemTables(stmt));
  Planner planner(&catalog_, &udfs_, planner_options_);
  return planner.PlanSelect(stmt);
}

Result<QueryResult> Database::ExecuteStatement(const Statement& stmt) {
  return ExecuteStatement(stmt, nullptr);
}

Result<QueryResult> Database::ExecuteStatement(const Statement& stmt,
                                               QueryExecInfo* info) {
  if (info != nullptr && stmt.kind != StatementKind::kSelect &&
      stmt.kind != StatementKind::kUpdate &&
      stmt.kind != StatementKind::kDelete) {
    // Statements that run no plan get wall-clock + affected-rows telemetry.
    const uint64_t start = metrics::NowNanos();
    Result<QueryResult> result = stmt.kind == StatementKind::kExplain
                                     ? ExecuteExplain(stmt, info->rewrite_ns)
                                     : ExecuteStatement(stmt);
    info->exec_ns = metrics::NowNanos() - start;
    if (result.ok()) {
      if (result->rows.size() == 1 && result->column_names.size() == 1 &&
          result->column_names[0] == "count" &&
          result->rows[0][0].is_int()) {
        info->rows_out =
            static_cast<uint64_t>(result->rows[0][0].int_value());
      } else {
        info->rows_out = result->rows.size();
      }
    }
    return result;
  }
  switch (stmt.kind) {
    case StatementKind::kSelect:
      RETURN_NOT_OK(MaybeRefreshSystemTables(*stmt.select));
      return ExecuteSelect(*stmt.select, info);
    case StatementKind::kExplain:
      return ExecuteExplain(stmt, /*rewrite_ns=*/0);
    case StatementKind::kCreateTable:
      return ExecuteCreateTable(*stmt.create_table);
    case StatementKind::kInsert:
      return ExecuteInsert(*stmt.insert);
    case StatementKind::kUpdate:
      return ExecuteUpdate(*stmt.update, info);
    case StatementKind::kDelete:
      return ExecuteDelete(*stmt.del, info);
    case StatementKind::kAnalyze: {
      ASSIGN_OR_RETURN(Table * table, catalog_.GetTable(stmt.analyze->table));
      RETURN_NOT_OK(table->Analyze());
      return CountResult(static_cast<int64_t>(table->LiveRowCount()));
    }
  }
  return Status::Internal("unknown statement kind");
}

Result<PlanPtr> Database::Plan(std::string_view sql) {
  ASSIGN_OR_RETURN(Statement stmt, ParseSql(sql));
  if (stmt.kind != StatementKind::kSelect &&
      stmt.kind != StatementKind::kExplain) {
    return Status::InvalidArgument("Plan() requires a SELECT");
  }
  return PlanStatement(*stmt.select);
}

Result<std::string> Database::Explain(std::string_view sql) {
  ASSIGN_OR_RETURN(PlanPtr plan, Plan(sql));
  return plan->DebugString();
}

Result<QueryResult> Database::ExecuteSelect(const SelectStatement& stmt,
                                            QueryExecInfo* info) {
  const uint64_t plan_start = metrics::NowNanos();
  Planner planner(&catalog_, &udfs_, planner_options_);
  ASSIGN_OR_RETURN(PlanPtr plan, planner.PlanSelect(stmt));
  const uint64_t plan_ns = metrics::NowNanos() - plan_start;
  if (info == nullptr) {
    return ExecutePlan(*plan, &udfs_, exec_options_);
  }
  info->plan_ns = plan_ns;
  Result<QueryResult> result = ExecutePlanned(*plan, nullptr, info);
  info->plan = std::move(plan);
  return result;
}

Result<QueryResult> Database::ExecutePlanned(const PlanNode& plan,
                                             const std::vector<Datum>* params,
                                             QueryExecInfo* info) {
  // Collect per-node actuals with counters only; operator wall-clock timing
  // (time_operators) stays off — two clock reads per batch per operator is
  // the overhead the telemetry budget doesn't spend on every query.
  PlanStats stats(plan);
  ExecOptions options = exec_options_;
  options.stats = &stats;
  const uint64_t exec_start = metrics::NowNanos();
  Result<QueryResult> result =
      ExecutePlan(plan, &udfs_, options, params, info->move_epoch_bound);
  info->exec_ns = metrics::NowNanos() - exec_start;
  AccumulateScanStats(plan, stats, info);
  if (OperatorStats* root = stats.For(plan)) {
    info->batches = root->batches.load(std::memory_order_relaxed);
  }
  if (result.ok()) info->rows_out = result->rows.size();
  if (slow_query_threshold_ns_ > 0 &&
      info->exec_ns > slow_query_threshold_ns_ && result.ok()) {
    // Slow query: dump the annotated plan tree into the trace ring. Per-op
    // times print as 0 (timing off, see above); cardinality actuals are live.
    metrics::MetricsRegistry::Global()->AddTrace(metrics::TraceEvent{
        "query.slow", ExplainAnalyzeText(plan, stats, params), exec_start,
        info->exec_ns, info->rows_out});
  }
  return result;
}

Result<QueryResult> Database::ExecuteExplain(const Statement& stmt,
                                             uint64_t rewrite_ns) {
  const uint64_t plan_start = metrics::NowNanos();
  ASSIGN_OR_RETURN(PlanPtr plan, PlanStatement(*stmt.select));
  const uint64_t plan_ns = metrics::NowNanos() - plan_start;
  if (!stmt.explain_analyze) {
    return TextResult("QUERY PLAN", plan->DebugString());
  }
  return ExplainAnalyzePlanned(*plan, nullptr, rewrite_ns + plan_ns,
                               "bypass");
}

Result<QueryResult> Database::ExplainAnalyzePlanned(
    const PlanNode& plan, const std::vector<Datum>* params,
    uint64_t planning_ns, std::string_view plan_cache) {
  // Run the plan for real, with every operator wrapped to record actuals,
  // then print the tree annotated with them. Result rows are discarded —
  // side effects (metric counters) still land.
  PlanStats stats(plan);
  ExecOptions options = exec_options_;
  options.stats = &stats;
  options.time_operators = true;
  RETURN_NOT_OK(ExecutePlan(plan, &udfs_, options, params).status());
  std::ostringstream text;
  text << ExplainAnalyzeText(plan, stats, params);
  text << "Plan cache: " << plan_cache << "\n";
  text << "Planning Time: " << std::fixed << std::setprecision(3)
       << static_cast<double>(planning_ns) / 1e6 << " ms\n";
  text << "Execution Time: " << std::fixed << std::setprecision(3)
       << static_cast<double>(stats.total_ns) / 1e6 << " ms\n";
  text << "Assembly Time: " << std::fixed << std::setprecision(3)
       << static_cast<double>(stats.assembly_ns) / 1e6 << " ms\n";
  return TextResult("QUERY PLAN", text.str());
}

Status Database::MaybeRefreshSystemTables(const SelectStatement& stmt) {
  if (ReferencesTable(stmt, kMetricsTableName)) {
    RETURN_NOT_OK(RefreshMetricsTable());
  }
  if (ReferencesTable(stmt, kQueryLogTableName)) {
    RETURN_NOT_OK(RefreshQueryLogTable());
  }
  return Status::OK();
}

Status Database::RefreshSystemTable(std::string_view name,
                                    const std::vector<Column>& columns,
                                    const std::vector<DatumRow>& rows) {
  std::lock_guard lock(system_table_mu_);
  Table* table = nullptr;
  Result<Table*> existing = catalog_.GetTable(std::string(name));
  if (existing.ok()) {
    table = *existing;
  } else {
    Schema schema;
    for (const Column& col : columns) RETURN_NOT_OK(schema.AddColumn(col));
    ASSIGN_OR_RETURN(table,
                     catalog_.CreateTable(std::string(name), std::move(schema)));
  }
  table->DeleteAllRows();
  for (const DatumRow& row : rows) {
    RETURN_NOT_OK(table->AppendRow(row).status());
  }
  return Status::OK();
}

Status Database::RefreshMetricsTable() {
  std::vector<DatumRow> rows;
  for (const metrics::Sample& s : metrics::MetricsRegistry::Global()
                                      ->Snapshot()) {
    rows.push_back(
        {Datum::Text(s.name), Datum::Text(s.type), Datum::Double(s.value)});
  }
  return RefreshSystemTable(kMetricsTableName,
                            {{"name", ColumnType::kText},
                             {"type", ColumnType::kText},
                             {"value", ColumnType::kDouble}},
                            rows);
}

Status Database::RefreshQueryLogTable() {
  auto int_col = [](const char* name) {
    return Column{name, ColumnType::kInt};
  };
  auto text_col = [](const char* name) {
    return Column{name, ColumnType::kText};
  };
  // uint64 hashes are stored as the bit-equivalent signed value; joins and
  // equality comparisons against other logged hashes stay exact.
  auto as_int = [](uint64_t v) {
    return Datum::Int(static_cast<int64_t>(v));
  };
  std::vector<DatumRow> rows;
  for (const qlog::QueryRecord& r : qlog::QueryLog::Global()->Records()) {
    rows.push_back({as_int(r.ordinal), Datum::Text(r.fingerprint),
                    as_int(r.fingerprint_hash), as_int(r.plan_hash),
                    as_int(r.trace_id), as_int(r.parse_ns),
                    as_int(r.rewrite_ns), as_int(r.plan_ns),
                    as_int(r.exec_ns), as_int(r.total_ns), as_int(r.rows_in),
                    as_int(r.rows_examined), as_int(r.rows_out),
                    as_int(r.batches), as_int(r.zone_skips),
                    as_int(r.replans), Datum::Text(r.status),
                    Datum::Text(r.error), Datum::Text(r.plan_cache)});
  }
  return RefreshSystemTable(
      kQueryLogTableName,
      {int_col("ordinal"), text_col("fingerprint"), int_col("fingerprint_hash"),
       int_col("plan_hash"), int_col("trace_id"), int_col("parse_ns"),
       int_col("rewrite_ns"), int_col("plan_ns"), int_col("exec_ns"),
       int_col("total_ns"), int_col("rows_in"), int_col("rows_examined"),
       int_col("rows_out"), int_col("batches"), int_col("zone_skips"),
       int_col("replans"), text_col("status"), text_col("error"),
       text_col("plan_cache")},
      rows);
}

Result<QueryResult> Database::ExecuteCreateTable(
    const CreateTableStatement& stmt) {
  if (stmt.table == kMetricsTableName || stmt.table == kQueryLogTableName ||
      stmt.table == kAttributeStatsTableName) {
    return Status::InvalidArgument(stmt.table,
                                   " is a reserved system table name");
  }
  Schema schema;
  for (const Column& col : stmt.columns) {
    RETURN_NOT_OK(schema.AddColumn(col));
  }
  RETURN_NOT_OK(catalog_.CreateTable(stmt.table, std::move(schema)).status());
  return CountResult(0);
}

Result<QueryResult> Database::ExecuteInsert(const InsertStatement& stmt) {
  ASSIGN_OR_RETURN(Table * table, catalog_.GetTable(stmt.table));
  const Schema schema = table->SchemaSnapshot();
  std::vector<size_t> live = schema.LiveSlots();
  // Target slots, in VALUES order.
  std::vector<size_t> targets;
  if (stmt.columns.empty()) {
    targets = live;
  } else {
    for (const std::string& name : stmt.columns) {
      std::optional<size_t> slot = schema.FindColumn(name);
      if (!slot.has_value()) {
        return Status::NotFound("column ", name, " does not exist");
      }
      targets.push_back(*slot);
    }
  }
  int64_t inserted = 0;
  for (const std::vector<ExprPtr>& value_row : stmt.values) {
    if (value_row.size() != targets.size()) {
      return Status::InvalidArgument("INSERT value count mismatch");
    }
    DatumRow row(schema.num_slots());
    for (size_t i = 0; i < targets.size(); ++i) {
      ASSIGN_OR_RETURN(Datum v,
                       bytecode::EvalConstant(*value_row[i], &udfs_));
      row[targets[i]] =
          CoerceForColumn(std::move(v), schema.columns()[targets[i]].type);
    }
    RETURN_NOT_OK(table->AppendRow(row).status());
    ++inserted;
  }
  return CountResult(inserted);
}

Result<QueryResult> Database::ExecuteUpdate(const UpdateStatement& stmt,
                                            QueryExecInfo* info) {
  ASSIGN_OR_RETURN(Table * table, catalog_.GetTable(stmt.table));
  RETURN_NOT_OK(RejectAggregate(stmt.where.get(), "UPDATE"));
  const Schema schema = table->SchemaSnapshot();
  std::vector<size_t> slots;  // physical target slots, in SET order
  std::vector<ExprPtr> values;
  for (const auto& [column, expr] : stmt.assignments) {
    RETURN_NOT_OK(RejectAggregate(expr.get(), "UPDATE"));
    std::optional<size_t> slot = schema.FindColumn(column);
    if (!slot.has_value()) {
      return Status::NotFound("column ", column, " does not exist");
    }
    slots.push_back(*slot);
    values.push_back(expr->Clone());
  }
  auto clone_values = [&values] {
    std::vector<ExprPtr> out;
    out.reserve(values.size());
    for (const ExprPtr& e : values) out.push_back(e->Clone());
    return out;
  };
  auto rid_filter = [&stmt](const Expr* where, std::vector<ExprPtr> rids) {
    ExprPtr in = Expr::InList(Expr::Column(stmt.table, "__rid"),
                              std::move(rids), false);
    if (where == nullptr) return in;
    return Expr::Binary(BinaryOp::kAnd, where->Clone(), std::move(in));
  };
  ExprPtr where = stmt.where == nullptr ? nullptr : stmt.where->Clone();
  if (info != nullptr && !info->only_rids.empty()) {
    std::vector<ExprPtr> rids;
    for (int64_t rid : info->only_rids) {
      rids.push_back(Expr::Literal(Datum::Int(rid)));
    }
    where = rid_filter(where.get(), std::move(rids));
  }
  // Find: the plan yields each matching rid with its new values, computed
  // from the pre-update row image, and is closed before any row is written.
  // Rows written in place after `found_at` (a materializer move, another
  // UPDATE) are not patched from that image.
  uint64_t found_at = table->MutationVersion();
  ASSIGN_OR_RETURN(
      QueryResult found,
      ExecuteSelect(FindRowsStatement(stmt.table, where.get(), clone_values()),
                    info));
  // Apply: one latched patch per row, refused if the row moved since it was
  // found; a row deleted since the scan is skipped.
  const uint64_t apply_start = metrics::NowNanos();
  int64_t updated = 0;
  for (int round = 0;; ++round) {
    std::vector<ExprPtr> moved;
    for (const ResultRows::Row row : found.rows) {
      DatumRow patch;
      patch.reserve(slots.size());
      for (size_t i = 0; i < slots.size(); ++i) {
        patch.push_back(
            CoerceForColumn(row[i + 1], schema.columns()[slots[i]].type));
      }
      const auto rid = static_cast<uint64_t>(row[0].int_value());
      Status patched = table->PatchRow(rid, slots, std::move(patch), found_at);
      if (patched.IsNotFound()) continue;
      if (patched.IsAborted()) {
        if (info != nullptr) {
          info->unpatched_rids.push_back(static_cast<int64_t>(rid));
        } else {
          moved.push_back(Expr::Literal(row[0]));
        }
        continue;
      }
      RETURN_NOT_OK(patched);
      ++updated;
    }
    // A caller that rewrote the statement gets the moved rows back
    // (QueryExecInfo::unpatched_rids): the attributes its WHERE and SET read
    // may have moved out of the places they were rewritten to read. Without
    // one, the expressions name physical columns only and hold for what the
    // moved rows hold now: find them again and patch them in the next round.
    if (moved.empty()) break;
    if (round == kMaxRefinds) {
      return Status::Aborted("UPDATE of ", stmt.table, ": ", moved.size(),
                             " rows kept changing while being updated");
    }
    found_at = table->MutationVersion();
    ExprPtr refind = rid_filter(where.get(), std::move(moved));
    ASSIGN_OR_RETURN(
        found, ExecuteSelect(FindRowsStatement(stmt.table, refind.get(),
                                               clone_values()),
                             nullptr));
  }
  return DmlResult(updated, apply_start, info);
}

Result<QueryResult> Database::ExecuteDelete(const DeleteStatement& stmt,
                                            QueryExecInfo* info) {
  ASSIGN_OR_RETURN(Table * table, catalog_.GetTable(stmt.table));
  RETURN_NOT_OK(RejectAggregate(stmt.where.get(), "DELETE"));
  ASSIGN_OR_RETURN(
      QueryResult found,
      ExecuteSelect(FindRowsStatement(stmt.table, stmt.where.get(), {}),
                    info));
  const uint64_t apply_start = metrics::NowNanos();
  int64_t deleted = 0;
  for (const ResultRows::Row row : found.rows) {
    Status removed =
        table->DeleteRow(static_cast<uint64_t>(row[0].int_value()));
    if (removed.IsNotFound()) continue;  // deleted since the scan
    RETURN_NOT_OK(removed);
    ++deleted;
  }
  return DmlResult(deleted, apply_start, info);
}

}  // namespace sinew::engine
