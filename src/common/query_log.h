// Workload telemetry: a bounded ring of per-query records, the signal the
// workload-adaptive materializer (ROADMAP item 3) and any external tooling
// read to learn what the workload actually does.
//
// Each record carries a literal-normalized statement fingerprint (so
// parameter-varied statements collapse onto one workload class), a plan
// hash, the parse/rewrite/plan/exec timing breakdown, cardinality actuals
// (rows in/out, batches, zone skips), the replan-retry count and the final
// status. SinewDb::Query appends one record per call; the engine surfaces
// the ring as the queryable `sinew_query_log` system table next to
// `sinew_metrics` (engine/database.cc).
//
// Compile-out: under SINEW_METRICS_DISABLED the ring keeps its API but
// stores nothing (the system table plans against an empty relation).
// NormalizeFingerprint/HashFingerprint are pure string functions with no
// retained state and stay live in every build.

#ifndef SINEW_COMMON_QUERY_LOG_H_
#define SINEW_COMMON_QUERY_LOG_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace sinew::qlog {

/// One executed statement, as remembered by the query log.
struct QueryRecord {
  uint64_t ordinal = 0;        // global query sequence number (from 1)
  std::string fingerprint;     // NormalizeFingerprint(sql)
  uint64_t fingerprint_hash = 0;
  uint64_t plan_hash = 0;      // hash of the plan tree text; 0 = no plan
  uint64_t trace_id = 0;       // joins against the span ring / trace export
  uint64_t parse_ns = 0;       // SQL text -> statement
  uint64_t rewrite_ns = 0;     // logical -> physical schema (sinew rewriter)
  uint64_t plan_ns = 0;
  uint64_t exec_ns = 0;
  uint64_t total_ns = 0;
  uint64_t rows_in = 0;        // rows produced by base-table scans
  uint64_t rows_examined = 0;  // live rows those scans visited (pre-filter)
  uint64_t rows_out = 0;
  uint64_t batches = 0;        // RowBatches emitted by the plan root
  uint64_t zone_skips = 0;     // strips skipped via zone maps
  // Runs before the last one: aborted-for-replan retries, and UPDATE passes
  // over rows that moved while it ran.
  uint64_t replans = 0;
  std::string status;          // "ok" or the Status code name
  std::string error;           // message when status != "ok"
  std::string plan_cache;      // "hit", "miss" or "bypass" (SinewDb::Query)
};

/// Literal-normalized statement fingerprint: whitespace collapsed, keywords
/// and bare identifiers case-folded, single-quoted string and numeric
/// literals replaced by '?'. Double-quoted identifiers stay verbatim.
/// Statements differing only in parameter values share a fingerprint.
std::string NormalizeFingerprint(std::string_view sql);

/// FNV-1a 64-bit over the fingerprint (stable across runs and platforms).
uint64_t HashFingerprint(std::string_view fingerprint);

class QueryLog {
 public:
  /// Claims the next global query ordinal (monotone from 1). Works in every
  /// build mode — attribute heat stats stamp it even when the ring is
  /// compiled out.
  uint64_t BeginQuery() {
    return ordinal_.fetch_add(1, std::memory_order_relaxed) + 1;
  }
  /// The ordinal of the most recently begun query (0 before any).
  uint64_t CurrentOrdinal() const {
    return ordinal_.load(std::memory_order_relaxed);
  }

#if !defined(SINEW_METRICS_DISABLED)
  void Append(QueryRecord record);
  /// Records oldest-first (at most `capacity` of them).
  std::vector<QueryRecord> Records() const;
  uint64_t dropped() const;
  /// Resizes the ring (drops current contents; tests and long-running
  /// servers tune this before traffic).
  void SetCapacity(size_t capacity);
  void Clear();
#else
  void Append(QueryRecord) {}
  std::vector<QueryRecord> Records() const { return {}; }
  uint64_t dropped() const { return 0; }
  void SetCapacity(size_t) {}
  void Clear() {}
#endif

  /// The process-wide log SinewDb::Query appends to.
  static QueryLog* Global();

 private:
  std::atomic<uint64_t> ordinal_{0};
#if !defined(SINEW_METRICS_DISABLED)
  static constexpr size_t kDefaultCapacity = 1024;

  mutable std::mutex mu_;
  size_t capacity_ = kDefaultCapacity;
  std::vector<QueryRecord> ring_;  // ring; next_ is the write cursor
  size_t next_ = 0;
  uint64_t dropped_ = 0;
#endif
};

}  // namespace sinew::qlog

#endif  // SINEW_COMMON_QUERY_LOG_H_
