// SinewDb: the public API of the system (paper Figure 1).
//
// A SinewDb owns one embedded microdb instance plus the Sinew components
// layered over it: attribute catalog, loader, schema analyzer, column
// materializer, query rewriter and optional per-table inverted text indexes.
//
// Typical use:
//
//   sinew::SinewDb db;
//   db.LoadJsonLines("webrequests", jsonl);
//   auto result = db.Query(
//       "SELECT url, owner FROM webrequests WHERE hits > 20");
//   db.AnalyzeSchema("webrequests");       // decide physical columns
//   db.MaterializeAll("webrequests");      // move the data, refresh stats
//
// or enable background maintenance and let the analyzer/materializer run as
// an invisible process, as the paper deploys them.

#ifndef SINEW_SINEW_SINEW_DB_H_
#define SINEW_SINEW_SINEW_DB_H_

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/query_log.h"
#include "common/result.h"
#include "engine/database.h"
#include "sinew/catalog.h"
#include "sinew/columnar_shredder.h"
#include "sinew/loader.h"
#include "sinew/materializer.h"
#include "sinew/plan_cache.h"
#include "sinew/rewriter.h"
#include "sinew/schema_analyzer.h"
#include "textindex/inverted_index.h"

namespace sinew {

struct SinewOptions {
  engine::PlannerOptions planner;
  engine::ExecOptions exec;
  AnalyzerOptions analyzer;
  /// Degree of intra-query / maintenance parallelism. Values > 1 enable
  /// morsel-driven parallel scans and aggregation in the planner (capped by
  /// the shared pool's worker count), parallel document serialization in the
  /// loader, and parallel row movement in the materializer. 1 = serial
  /// (the default; identical behavior to prior releases).
  int parallelism = 1;
  /// Columnar reservoir segments: when true, BuildColumnarSegments (called
  /// explicitly, or by DurableDb at each flush and once per Open) shreds
  /// frequent reservoir attributes and clean scalar columns into in-memory
  /// column strips with zone maps. false = pure row-reservoir behavior.
  bool enable_columnar_segments = true;
  /// Queries whose execution exceeds this wall clock (nanoseconds) dump
  /// their EXPLAIN ANALYZE tree into the metrics trace ring as a
  /// "query.slow" event. 0 (the default) disables slow-query capture.
  uint64_t slow_query_threshold_ns = 0;
};

/// Intercepts every mutating entry point of a SinewDb *before* the mutation
/// is applied in memory — the seam the write-ahead log hangs off
/// (sinew/durable_db.h). The contract is strictly paired: when a Before*
/// call returns OK, SinewDb applies the write and then calls AfterWrite
/// exactly once with the apply outcome (every return path, success or
/// failure); when Before* returns non-OK the write is rejected without
/// being applied and AfterWrite is NOT called. Implementations may hold a
/// lock across the Before*/AfterWrite pair to serialize commits against
/// memtable flushes.
class WriteAheadHook {
 public:
  virtual ~WriteAheadHook() = default;
  /// A document batch about to be loaded into `table`.
  virtual Status BeforeLoad(const std::string& table,
                            const std::vector<Value>& docs) = 0;
  /// A mutating SQL statement (INSERT/UPDATE/DELETE/CREATE TABLE) about to
  /// execute. `table` is the statement's target ("" when unknown).
  virtual Status BeforeDml(std::string_view sql, const std::string& table,
                           engine::StatementKind kind) = 0;
  /// The paired completion callback; `apply_status` is the in-memory apply
  /// outcome. Runs on the writer's thread — may trigger a memtable flush.
  virtual void AfterWrite(const Status& apply_status) = 0;
};

/// One logical column of the user-facing universal relation view.
struct LogicalColumn {
  std::string name;
  std::vector<ValueType> types;  // >1 entry for multi-typed keys
  uint64_t count = 0;            // rows containing the key (max over types)
  bool materialized = false;
  bool dirty = false;
};

class SinewDb {
 public:
  explicit SinewDb(SinewOptions options = {});
  ~SinewDb();

  SinewDb(const SinewDb&) = delete;
  SinewDb& operator=(const SinewDb&) = delete;

  engine::Database* engine() { return &db_; }
  AttributeCatalog* catalog() { return &catalog_; }
  ColumnMaterializer* materializer() { return &materializer_; }
  SchemaAnalyzer* analyzer() { return &analyzer_; }
  const QueryRewriter& rewriter() const { return rewriter_; }

  // --- loading ---
  Result<uint64_t> LoadJsonLines(const std::string& table,
                                 std::string_view jsonl);
  Result<uint64_t> LoadDocuments(const std::string& table,
                                 const std::vector<Value>& docs);
  /// LoadDocuments minus the write-ahead hook — the WAL replay path, where
  /// the records being applied came *from* the log and must not re-enter it.
  Result<uint64_t> LoadDocumentsUnlogged(const std::string& table,
                                         const std::vector<Value>& docs);

  // --- querying (standard SQL over the logical schema) ---
  /// Runs one statement. A SELECT (or EXPLAIN ANALYZE) goes through the
  /// plan cache (sinew/plan_cache.h): a statement whose shape ran before,
  /// with nothing it was planned from changed since, skips rewrite and
  /// planning and runs the cached plan with its own literals bound.
  Result<engine::QueryResult> Query(std::string_view sql);
  /// EXPLAIN of the rewritten query.
  Result<std::string> Explain(std::string_view sql);

  /// Spans recorded by the most recent Query() call (rewrite / plan+execute
  /// phases, with wall clock and row counts). The trace is cleared at the
  /// start of each Query(); with concurrent callers it holds an interleaving
  /// of their spans — per-query isolation is not promised, observability is.
  std::vector<metrics::TraceEvent> LastQueryTrace() const {
    return query_trace_.events();
  }

  /// Writes every span in the global span ring (query phases, Gather
  /// workers, background flush/shred/materializer work) to `path` as Chrome
  /// trace-event JSON — the file loads directly in Perfetto / about:tracing.
  Status DumpTrace(const std::string& path) const;

  // --- schema maintenance ---
  /// One schema-analyzer pass (threshold evaluation; flags columns dirty).
  Result<std::vector<SchemaAnalyzer::Decision>> AnalyzeSchema(
      const std::string& table);
  /// Bounded materializer increment; returns rows examined.
  Result<uint64_t> MaterializeStep(const std::string& table,
                                   uint64_t max_rows);
  /// Runs the materializer until clean and refreshes engine statistics.
  Status MaterializeAll(const std::string& table);
  /// Analyzer pass + full materialization (the common pairing).
  Status AnalyzeAndMaterialize(const std::string& table);

  /// Shreds the table's current cold rows into a columnar segment and
  /// attaches it (sinew/columnar_shredder.h). No-op when
  /// enable_columnar_segments is false or nothing qualifies. DurableDb
  /// calls this at each flush and once per Open (segments are never
  /// persisted); tests and benches may call it directly to treat the loaded
  /// rows as a cold segment.
  Status BuildColumnarSegments(const std::string& table);

  bool columnar_segments_enabled() const {
    return options_.enable_columnar_segments;
  }

  /// Explicitly set one attribute's target representation (used by tests,
  /// benchmarks and ablations to pin a physical design).
  Status ForceMaterialization(const std::string& table,
                              const std::string& key, bool materialized);

  /// The user-facing logical schema (universal relation view, Figure 3).
  Result<std::vector<LogicalColumn>> LogicalSchema(const std::string& table);

  // --- text search (Section 4.3) ---
  /// Builds an inverted index over the table's current rows; matches() in
  /// queries over this table resolves through it. Note: the index reflects
  /// load-time contents (like the paper's external Solr index).
  Status EnableTextIndex(const std::string& table);
  bool HasTextIndex(const std::string& table) const;

  // --- background maintenance (paper Section 5: Postgres background
  //     workers running the analyzer and materializer) ---
  void StartBackgroundMaintenance(std::chrono::milliseconds period);
  void StopBackgroundMaintenance();

  /// Tables managed by Sinew.
  std::vector<std::string> Tables() const;

  /// Registers a table name in the managed list (persistence restore path).
  void NoteTable(const std::string& table);

  /// Installs (or clears, with nullptr) the write-ahead hook. Not
  /// synchronized: install before concurrent use — the durable layer does it
  /// once at Open, after WAL replay, before handing the db out.
  void SetWriteAheadHook(WriteAheadHook* hook) { write_hook_ = hook; }
  WriteAheadHook* write_ahead_hook() const { return write_hook_; }

  /// Drops every managed table and all catalog state, returning the instance
  /// to freshly-constructed. Used by persistence to make a failed restore
  /// failure-atomic: after a non-OK LoadDatabase the db is reset rather than
  /// left half-populated. Must not race loads/queries/maintenance.
  void ResetForRecovery();

 private:
  void BackgroundLoop(std::chrono::milliseconds period);

  /// One attempt of a cacheable statement (ParameterizeStatement marked
  /// its parameters): a hit runs the cached plan; a miss rewrites, plans,
  /// caches and runs. Fills the record's plan_cache, rewrite_ns and
  /// plan_hash, and *info.
  Result<engine::QueryResult> RunCached(engine::Statement* stmt,
                                        const StatementShape& shape,
                                        qlog::QueryRecord* record,
                                        engine::QueryExecInfo* info);

  /// If the statement references `sinew_attribute_stats`, (lazily creates
  /// and) refreshes it from the catalog's heat + attribute state. The Sinew
  /// layer owns this table (not engine/database.cc) because resolving
  /// attribute IDs to key names requires the attribute dictionary.
  Status MaybeRefreshAttributeStatsTable(const engine::Statement& stmt);

  SinewOptions options_;
  engine::Database db_;
  AttributeCatalog catalog_;
  TextIndexMap indexes_;
  Loader loader_;
  SchemaAnalyzer analyzer_;
  ColumnMaterializer materializer_;
  QueryRewriter rewriter_;
  PlanCache plan_cache_;
  /// Bumped whenever the set of text indexes changes.
  std::atomic<uint64_t> text_index_version_{0};
  metrics::TraceContext query_trace_;
  WriteAheadHook* write_hook_ = nullptr;
  std::vector<std::string> tables_;
  mutable std::mutex tables_mutex_;

  std::thread background_;
  std::atomic<bool> background_stop_{false};
};

}  // namespace sinew

#endif  // SINEW_SINEW_SINEW_DB_H_
