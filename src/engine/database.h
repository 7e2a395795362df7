// Database: the embeddable facade over microdb — catalog + UDF registry +
// parser + planner + executor. This is the component Sinew treats as "the
// RDBMS" (paper Figure 1): Sinew sits above it and never reaches around it.

#ifndef SINEW_ENGINE_DATABASE_H_
#define SINEW_ENGINE_DATABASE_H_

#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "engine/catalog.h"
#include "engine/exec.h"
#include "engine/parser.h"
#include "engine/planner.h"
#include "engine/udf.h"

namespace sinew::engine {

/// Per-execution telemetry filled by the ExecuteStatement overload that
/// takes one; the Sinew layer folds it into the workload query log
/// (common/query_log.h). SELECT, UPDATE and DELETE run a plan and fill every
/// field: for DML the plan is the find phase, exec_ns also covers the apply
/// phase, and rows_out is the affected row count. Other statements fill
/// exec_ns/rows_out only. The inputs come first.
struct QueryExecInfo {
  /// Input: the caller's rewrite time, which EXPLAIN ANALYZE counts in its
  /// Planning Time.
  uint64_t rewrite_ns = 0;
  /// Input: the statement's scans abort with "replan" once a scanned
  /// table's row-move epoch (Table::RaiseMoveEpoch) exceeds this. The caller
  /// reads it before it rewrites the statement for the physical design, so
  /// rows moved since are where the plan does not look. UINT64_MAX never
  /// aborts.
  uint64_t move_epoch_bound = UINT64_MAX;
  /// Input, UPDATE: when non-empty, only these rows are updated (those an
  /// earlier pass of the statement handed back in unpatched_rids).
  std::vector<int64_t> only_rids;
  /// Output, UPDATE: rows found but written in place between the find and
  /// their patch (a materializer move, another UPDATE), so not updated.
  /// Their WHERE and SET may read attributes that have moved out of the
  /// places this statement was rewritten to read, so the caller rewrites it
  /// for the current physical design and runs it again with only_rids set
  /// to these. The count returned covers the rows this pass updated.
  std::vector<int64_t> unpatched_rids;
  /// The plan that ran, kept for the query log's plan hash (hashing the
  /// plan text is query-log work, done after execution).
  PlanPtr plan;
  uint64_t plan_ns = 0;
  uint64_t exec_ns = 0;
  uint64_t rows_in = 0;     // rows produced by base-table scans
  uint64_t rows_examined = 0;  // live rows those scans visited (pre-filter)
  uint64_t rows_out = 0;
  uint64_t batches = 0;     // batches emitted by the plan root
  uint64_t zone_skips = 0;  // strips skipped via zone maps
};

/// True when the SELECT's FROM list names `table`.
bool ReferencesTable(const SelectStatement& stmt, std::string_view table);

/// True when the SELECT's FROM list names a system table (`sinew_metrics`,
/// `sinew_query_log`, `sinew_attribute_stats`): its rows are refreshed
/// before every statement that reads it.
bool ReferencesSystemTable(const SelectStatement& stmt);

class Database {
 public:
  explicit Database(PlannerOptions planner_options = {},
                    ExecOptions exec_options = {});

  Catalog* catalog() { return &catalog_; }
  UdfRegistry* udfs() { return &udfs_; }
  const PlannerOptions& planner_options() const { return planner_options_; }
  void set_planner_options(PlannerOptions options) {
    planner_options_ = options;
    ++planner_options_version_;
  }

  /// Changes whenever what the planner reads outside the tables changes: a
  /// table created or dropped, the planner options, the function registry.
  /// With each scanned table's PlanVersion, this is what a cached plan is
  /// checked against (sinew/plan_cache.h).
  uint64_t PlanEpoch() const {
    return catalog_.version() + planner_options_version_ + udfs_.version();
  }
  void set_exec_options(ExecOptions options) { exec_options_ = options; }

  /// Parses and executes one SQL statement. DML statements return a single
  /// "count" row with the number of affected rows; EXPLAIN returns one text
  /// row per plan line.
  Result<QueryResult> Execute(std::string_view sql);

  /// Executes an already-parsed (possibly rewritten) statement.
  Result<QueryResult> ExecuteStatement(const Statement& stmt);

  /// As above, but also reports execution telemetry into *info. SELECTs run
  /// with per-node stats collection (cheap relaxed-atomic counters; operator
  /// wall-clock timing stays off) so cardinality actuals reach the query
  /// log. When a slow-query threshold is set and exec time exceeds it, the
  /// full EXPLAIN ANALYZE tree is emitted into the metrics trace ring.
  Result<QueryResult> ExecuteStatement(const Statement& stmt,
                                       QueryExecInfo* info);

  /// Queries slower than this (exec wall clock, nanoseconds) dump their
  /// EXPLAIN ANALYZE tree as a "query.slow" trace event. 0 disables.
  void set_slow_query_threshold_ns(uint64_t ns) {
    slow_query_threshold_ns_ = ns;
  }
  uint64_t slow_query_threshold_ns() const { return slow_query_threshold_ns_; }

  /// Plans an already-parsed SELECT.
  Result<PlanPtr> PlanStatement(const SelectStatement& stmt);

  /// Runs a SELECT plan built earlier — by PlanStatement, possibly for a
  /// statement with other literals — with `params` bound to its parameter
  /// slots (nullptr: the values it was built with), reporting into *info
  /// as ExecuteStatement does, except for plan_ns and plan, which stay the
  /// caller's.
  Result<QueryResult> ExecutePlanned(const PlanNode& plan,
                                     const std::vector<Datum>* params,
                                     QueryExecInfo* info);

  /// EXPLAIN ANALYZE of such a plan: runs it with operator timing and
  /// prints the annotated tree, the plan-cache outcome `plan_cache`
  /// ("hit", "miss" or "bypass"), `planning_ns` as the Planning Time and
  /// the Execution Time. Node summaries show the bound values.
  Result<QueryResult> ExplainAnalyzePlanned(const PlanNode& plan,
                                            const std::vector<Datum>* params,
                                            uint64_t planning_ns,
                                            std::string_view plan_cache);

  /// Plans a SELECT without running it.
  Result<PlanPtr> Plan(std::string_view sql);

  /// EXPLAIN convenience: the plan tree as text.
  Result<std::string> Explain(std::string_view sql);

  /// Replaces the rows of the system table `name` with `rows`, creating it
  /// with `columns` on first use. Refreshes of every system table share one
  /// mutex. The Table object survives them: concurrent readers may hold it,
  /// and plans are built against it.
  Status RefreshSystemTable(std::string_view name,
                            const std::vector<Column>& columns,
                            const std::vector<DatumRow>& rows);

 private:
  /// Plans (without the system-table refresh) and drains a SELECT: every
  /// SELECT, and the find phase of every UPDATE and DELETE, runs here.
  Result<QueryResult> ExecuteSelect(const SelectStatement& stmt,
                                    QueryExecInfo* info);
  /// `rewrite_ns`: time the statement spent in rewrite before it arrived,
  /// printed as part of the Planning Time.
  Result<QueryResult> ExecuteExplain(const Statement& stmt,
                                     uint64_t rewrite_ns);
  Result<QueryResult> ExecuteCreateTable(const CreateTableStatement& stmt);
  Result<QueryResult> ExecuteInsert(const InsertStatement& stmt);
  /// UPDATE/DELETE: find the rows (and SET values) with ExecuteSelect, then
  /// write each under one exclusive latch acquisition (DESIGN.md §9).
  Result<QueryResult> ExecuteUpdate(const UpdateStatement& stmt,
                                    QueryExecInfo* info);
  Result<QueryResult> ExecuteDelete(const DeleteStatement& stmt,
                                    QueryExecInfo* info);

  /// If the SELECT references a system table (`sinew_metrics`,
  /// `sinew_query_log`), (lazily creates it and) replaces its rows with a
  /// fresh snapshot, so a plain scan — with any WHERE / join / projection on
  /// top — sees current values. Must run before the statement is planned.
  Status MaybeRefreshSystemTables(const SelectStatement& stmt);
  Status RefreshMetricsTable();
  Status RefreshQueryLogTable();

  Catalog catalog_;
  UdfRegistry udfs_;
  PlannerOptions planner_options_;
  ExecOptions exec_options_;
  uint64_t planner_options_version_ = 0;
  uint64_t slow_query_threshold_ns_ = 0;
  std::mutex system_table_mu_;  // serializes system-table refreshes
};

}  // namespace sinew::engine

#endif  // SINEW_ENGINE_DATABASE_H_
