// Workload telemetry (PR 8): statement-fingerprint goldens, the query-log
// ring, the sinew_query_log / sinew_attribute_stats system tables, span-ID
// propagation into Gather workers, and the Chrome trace export (checked
// against bench/validate_trace.py, the same validator CI runs).
//
// Registered with the `observability` ctest label; the Gather span test is
// part of the SINEW_SANITIZE=thread configuration, where it races worker
// span adoption against the coordinator's span stack.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/query_log.h"
#include "sinew/sinew_db.h"

namespace sinew {
namespace {

using qlog::HashFingerprint;
using qlog::NormalizeFingerprint;

// ---- fingerprint normalization goldens ----

TEST(Fingerprint, GoldenForms) {
  // Numeric comparison literal; whitespace collapses at token boundaries.
  EXPECT_EQ(NormalizeFingerprint("SELECT url FROM logs WHERE hits > 20"),
            "select url from logs where hits>?");
  // String literal (with doubled-quote escape) becomes '?'.
  EXPECT_EQ(NormalizeFingerprint("SELECT a FROM t WHERE name = 'Bob''s'"),
            "select a from t where name=?");
  // Numeric literal after a keyword (whitespace is a token break).
  EXPECT_EQ(NormalizeFingerprint("SELECT a FROM t LIMIT 10"),
            "select a from t limit ?");
  // Digits inside identifiers survive; they are not literals.
  EXPECT_EQ(NormalizeFingerprint("SELECT col_3 FROM t2"),
            "select col_3 from t2");
  // Double-quoted identifiers stay verbatim (case, dots and all).
  EXPECT_EQ(NormalizeFingerprint(
                "SELECT \"nested_obj.str\" , \"Num\" FROM t WHERE s = 'x'"),
            "select \"nested_obj.str\",\"Num\" from t where s=?");
  EXPECT_EQ(NormalizeFingerprint("SELECT \"a\"\"b\" FROM t"),
            "select \"a\"\"b\" from t");
}

TEST(Fingerprint, QuotedAttributesDoNotCollide) {
  // Queries over different nested attributes are different workload
  // classes; the same attribute with different literals is one class.
  EXPECT_NE(NormalizeFingerprint("SELECT \"nested_obj.str\" FROM t"),
            NormalizeFingerprint("SELECT \"nested_obj.num\" FROM t"));
  EXPECT_NE(
      NormalizeFingerprint("SELECT a FROM t WHERE \"nested_obj.str\" = 'x'"),
      NormalizeFingerprint("SELECT a FROM t WHERE \"nested_obj.num\" = 'x'"));
  EXPECT_EQ(
      NormalizeFingerprint("SELECT a FROM t WHERE \"nested_obj.num\" > 5"),
      NormalizeFingerprint("SELECT a FROM t WHERE \"nested_obj.num\" > 77"));
}

TEST(Fingerprint, ParameterVariedStatementsCollapse) {
  const std::string canonical =
      NormalizeFingerprint("SELECT url FROM logs WHERE hits > 20");
  // Different literal value, extra whitespace, different case, trailing
  // terminator — one workload class.
  EXPECT_EQ(NormalizeFingerprint("select   URL\n FROM  logs   WHERE "
                                 "hits > 999  ;"),
            canonical);
  EXPECT_EQ(HashFingerprint(NormalizeFingerprint(
                "SELECT url FROM logs WHERE hits > 7")),
            HashFingerprint(canonical));
  // Negative literal folds its unary minus: -5 and 7 share a class.
  EXPECT_EQ(NormalizeFingerprint("SELECT a FROM t WHERE x > -5"),
            NormalizeFingerprint("SELECT a FROM t WHERE x > 7"));
  // Float/scientific forms collapse too.
  EXPECT_EQ(NormalizeFingerprint("SELECT a FROM t WHERE x > 1.5e-3"),
            NormalizeFingerprint("SELECT a FROM t WHERE x > 2"));
  // Different statement shapes stay distinct.
  EXPECT_NE(NormalizeFingerprint("SELECT a FROM t WHERE x > 1"),
            NormalizeFingerprint("SELECT a FROM t WHERE y > 1"));
}

TEST(Fingerprint, HashIsStableFnv1a) {
  // FNV-1a 64 published test vectors — the hash must stay identical across
  // runs, platforms and releases (it is persisted in bench sidecars and
  // joined against from SQL).
  EXPECT_EQ(HashFingerprint(""), 14695981039346656037ull);
  EXPECT_EQ(HashFingerprint("a"), 12638187200555641996ull);
  EXPECT_NE(HashFingerprint("select ?"), HashFingerprint("select ??"));
}

#if !defined(SINEW_METRICS_DISABLED)

// ---- the query-log ring (a local instance; the global one is shared) ----

TEST(QueryLogRing, BoundedOldestFirstWithDropCount) {
  qlog::QueryLog log;
  log.SetCapacity(4);
  for (uint64_t i = 1; i <= 6; ++i) {
    qlog::QueryRecord r;
    r.ordinal = i;
    log.Append(std::move(r));
  }
  const std::vector<qlog::QueryRecord> records = log.Records();
  ASSERT_EQ(records.size(), 4u);
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].ordinal, i + 3);  // 3,4,5,6 oldest-first
  }
  EXPECT_EQ(log.dropped(), 2u);
  log.Clear();
  EXPECT_TRUE(log.Records().empty());
  EXPECT_EQ(log.dropped(), 0u);
}

// ---- the system tables, end to end through SQL ----

class TelemetryTablesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    metrics::MetricsRegistry::Global()->Reset();
    qlog::QueryLog::Global()->Clear();
    ASSERT_TRUE(db_.LoadJsonLines("logs", R"(
{"url": "a.com", "hits": 22, "country": "pl"}
{"url": "b.com", "hits": 15, "ip": "1.1.1.1"}
{"url": "c.com", "hits": 7, "country": "pl"}
{"url": "d.com", "hits": 41, "country": "de"}
)")
                    .ok());
  }

  engine::QueryResult Q(const std::string& sql) {
    auto result = db_.Query(sql);
    EXPECT_TRUE(result.ok()) << sql << " -> " << result.status().ToString();
    return result.ok() ? std::move(*result) : engine::QueryResult{};
  }

  SinewDb db_;
};

TEST_F(TelemetryTablesTest, QueryLogTableIsWhereAndJoinComposable) {
  // A parameter-varied workload class, twice, plus a distinct shape.
  Q("SELECT url FROM logs WHERE hits > 20");
  Q("SELECT url FROM logs WHERE hits > 10");
  Q("SELECT country FROM logs WHERE country = 'pl'");

  const std::string fp = NormalizeFingerprint(
      "SELECT url FROM logs WHERE hits > 20");
  // WHERE-composable: filter the log down to one workload class.
  auto r = Q("SELECT ordinal, exec_ns, rows_out, status FROM sinew_query_log "
             "WHERE fingerprint = '" + fp + "' ORDER BY ordinal");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_LT(r.rows[0][0].int_value(), r.rows[1][0].int_value());
  for (const auto& row : r.rows) {
    EXPECT_GT(row[1].int_value(), 0);  // exec_ns was measured
    EXPECT_EQ(row[3].str(), "ok");
  }
  EXPECT_EQ(r.rows[0][2].int_value(), 2);  // hits > 20 -> a.com, d.com
  EXPECT_EQ(r.rows[1][2].int_value(), 3);  // hits > 10 adds b.com

  // Join-composable: self-join pairs up repeats of the same fingerprint.
  auto pairs = Q(
      "SELECT a.ordinal, b.ordinal FROM sinew_query_log a, sinew_query_log b "
      "WHERE a.fingerprint = b.fingerprint AND a.ordinal < b.ordinal");
  ASSERT_EQ(pairs.rows.size(), 1u);

  // Failed statements are logged with their status code, not lost.
  auto bad = db_.Query("SELECT url FROM no_such_table");
  EXPECT_FALSE(bad.ok());
  auto errs = Q("SELECT status, error FROM sinew_query_log "
                "WHERE status <> 'ok'");
  ASSERT_GE(errs.rows.size(), 1u);
  EXPECT_NE(errs.rows[0][1].str(), "");
}

TEST_F(TelemetryTablesTest, QueryLogSplitsParseFromRewrite) {
  Q("SELECT url FROM logs WHERE hits > 20");
  auto r = Q("SELECT parse_ns, rewrite_ns, plan_ns, exec_ns, total_ns "
             "FROM sinew_query_log WHERE rows_out = 2");
  ASSERT_EQ(r.column_names,
            (std::vector<std::string>{"parse_ns", "rewrite_ns", "plan_ns",
                                      "exec_ns", "total_ns"}));
  ASSERT_GE(r.rows.size(), 1u);
  const auto& row = r.rows[0];
  EXPECT_GT(row[0].int_value(), 0);  // parse measured on its own
  EXPECT_GT(row[1].int_value(), 0);  // rewrite measured on its own
  // The phases are disjoint parts of the whole.
  EXPECT_LE(row[0].int_value() + row[1].int_value() + row[2].int_value() +
                row[3].int_value(),
            row[4].int_value());
}

TEST_F(TelemetryTablesTest, QueryLogRecordsTraceAndPlanIdentity) {
  Q("SELECT url FROM logs WHERE hits > 20");
  auto r = Q("SELECT fingerprint_hash, plan_hash, trace_id, total_ns "
             "FROM sinew_query_log WHERE rows_out = 2");
  ASSERT_GE(r.rows.size(), 1u);
  const std::string fp = NormalizeFingerprint(
      "SELECT url FROM logs WHERE hits > 20");
  // uint64 hashes are stored bit-equivalent in int64 columns.
  EXPECT_EQ(static_cast<uint64_t>(r.rows[0][0].int_value()),
            HashFingerprint(fp));
  EXPECT_NE(r.rows[0][1].int_value(), 0);  // plan hash assigned
  EXPECT_NE(r.rows[0][2].int_value(), 0);  // trace id joins the span ring
  EXPECT_GT(r.rows[0][3].int_value(), 0);
}

TEST_F(TelemetryTablesTest, AttributeStatsTrackExtractionHeat) {
  // Heat is accounted wherever the scan extracts a virtual column: the
  // filtered query heats hits (every row, before the filter) and url (the
  // survivors), the pure projection heats url and country over all 4 rows.
  Q("SELECT url FROM logs WHERE hits > 20");
  Q("SELECT url, country FROM logs");

  auto r = Q("SELECT attr_key, extract_requests, reservoir_served, "
             "strip_served, last_touched_ordinal FROM sinew_attribute_stats "
             "WHERE table_name = 'logs' AND extract_requests > 0 "
             "ORDER BY attr_key");
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.rows[0][0].str(), "country");
  EXPECT_EQ(r.rows[1][0].str(), "hits");
  EXPECT_EQ(r.rows[2][0].str(), "url");
  for (const auto& row : r.rows) {
    EXPECT_GE(row[1].int_value(), 4);  // one request per row of the table
    // Every served request came from somewhere.
    EXPECT_GE(row[2].int_value() + row[3].int_value(), row[1].int_value());
    EXPECT_GT(row[4].int_value(), 0);  // stamped with a query ordinal
  }

  // Untouched tables stay absent; the stats table itself is never tracked.
  auto none = Q("SELECT attr_key FROM sinew_attribute_stats "
                "WHERE table_name = 'sinew_attribute_stats'");
  EXPECT_TRUE(none.rows.empty());
}

TEST_F(TelemetryTablesTest, AttributeStatsSeeAttributesReadThroughJoins) {
  // A join input's scan extracts its virtual columns like any other scan:
  // ip is read only as a join key here, and its heat is accounted.
  auto pairs = Q("SELECT a.url, b.url FROM logs a, logs b WHERE a.ip = b.ip");
  ASSERT_EQ(pairs.rows.size(), 1u);

  auto r = Q("SELECT extract_requests, reservoir_served + strip_served "
             "FROM sinew_attribute_stats "
             "WHERE table_name = 'logs' AND attr_key = 'ip'");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_GE(r.rows[0][0].int_value(), 8);  // every row of both inputs
  EXPECT_GE(r.rows[0][1].int_value(), r.rows[0][0].int_value());
}

TEST_F(TelemetryTablesTest, DmlRecordsItsFindScan) {
  // UPDATE and DELETE find their rows with a planned scan, so their log
  // records carry the SELECT telemetry. rows_in counts the rows the scans
  // produce, after the predicate the scan runs itself.
  constexpr int kRows = 2048;  // two strips
  std::string jsonl;
  for (int i = 0; i < kRows; ++i) {
    jsonl += "{\"id\": " + std::to_string(i) + ", \"key\": \"v" +
             std::to_string(i % 100) + "\", \"other\": \"x\"}\n";
  }
  ASSERT_TRUE(db_.LoadJsonLines("docs", jsonl).ok());
  ASSERT_TRUE(db_.BuildColumnarSegments("docs").ok());
  // Q12's shape on a freshly shredded table: the predicate key is served
  // from strips.
  const std::string update = "UPDATE docs SET other = 'DUMMY' WHERE key = 'v7'";
  EXPECT_EQ(Q(update).rows[0][0].int_value(), 21);  // ids 7, 107, ..., 2007
  // The ids below 100 lie in the first strip: the zone maps skip the second.
  ASSERT_TRUE(db_.BuildColumnarSegments("docs").ok());
  const std::string del = "DELETE FROM docs WHERE id < 100";
  EXPECT_EQ(Q(del).rows[0][0].int_value(), 100);
  // Unfiltered, the scan produces every live row.
  const std::string update_all = "UPDATE docs SET other = 'all'";
  EXPECT_EQ(Q(update_all).rows[0][0].int_value(), kRows - 100);

  auto log_of = [&](const std::string& sql) {
    const int64_t hash =
        static_cast<int64_t>(HashFingerprint(NormalizeFingerprint(sql)));
    return Q("SELECT rows_in, rows_out, plan_ns, plan_hash, batches, "
             "zone_skips FROM sinew_query_log WHERE fingerprint_hash = " +
             std::to_string(hash));
  };
  auto u = log_of(update);
  ASSERT_EQ(u.rows.size(), 1u);
  EXPECT_EQ(u.rows[0][0].int_value(), 21);
  EXPECT_EQ(u.rows[0][1].int_value(), 21);  // affected rows
  EXPECT_GT(u.rows[0][2].int_value(), 0);
  EXPECT_NE(u.rows[0][3].int_value(), 0);
  EXPECT_GT(u.rows[0][4].int_value(), 0);
  auto d = log_of(del);
  ASSERT_EQ(d.rows.size(), 1u);
  EXPECT_EQ(d.rows[0][0].int_value(), 100);
  EXPECT_EQ(d.rows[0][1].int_value(), 100);
  EXPECT_EQ(d.rows[0][5].int_value(), 1);
  auto all = log_of(update_all);
  ASSERT_EQ(all.rows.size(), 1u);
  EXPECT_EQ(all.rows[0][0].int_value(), kRows - 100);
  EXPECT_EQ(all.rows[0][1].int_value(), kRows - 100);

  auto heat = Q("SELECT strip_served FROM sinew_attribute_stats "
                "WHERE table_name = 'docs' AND attr_key = 'key'");
  ASSERT_EQ(heat.rows.size(), 1u);
  EXPECT_GT(heat.rows[0][0].int_value(), 0);
}

TEST_F(TelemetryTablesTest, ScansLogTheRowsTheyExamined) {
  // rows_in counts the rows the scans produce, after the predicate they run
  // themselves; rows_examined counts the live rows they visited to find
  // them, so a filtered statement's selectivity shows in the log.
  constexpr int kRows = 2048;
  std::string jsonl;
  for (int i = 0; i < kRows; ++i) {
    jsonl += "{\"id\": " + std::to_string(i) + ", \"key\": \"v" +
             std::to_string(i % 100) + "\", \"other\": \"x\"}\n";
  }
  ASSERT_TRUE(db_.LoadJsonLines("examined", jsonl).ok());
  const std::string update =
      "UPDATE examined SET other = 'DUMMY' WHERE key = 'v7'";
  EXPECT_EQ(Q(update).rows[0][0].int_value(), 21);
  const std::string del = "DELETE FROM examined WHERE id < 100";
  EXPECT_EQ(Q(del).rows[0][0].int_value(), 100);
  // Deleted rows are not visited: 1,948 live rows remain.
  const std::string select = "SELECT id FROM examined WHERE key = 'v8'";
  EXPECT_EQ(Q(select).rows.size(), 20u);

  auto log_of = [&](const std::string& sql) {
    const int64_t hash =
        static_cast<int64_t>(HashFingerprint(NormalizeFingerprint(sql)));
    return Q("SELECT rows_in, rows_examined, rows_out FROM sinew_query_log "
             "WHERE fingerprint_hash = " +
             std::to_string(hash));
  };
  auto u = log_of(update);
  ASSERT_EQ(u.rows.size(), 1u);
  EXPECT_EQ(u.rows[0][0].int_value(), 21);
  EXPECT_EQ(u.rows[0][1].int_value(), kRows);
  auto d = log_of(del);
  ASSERT_EQ(d.rows.size(), 1u);
  EXPECT_EQ(d.rows[0][0].int_value(), 100);
  EXPECT_EQ(d.rows[0][1].int_value(), kRows);
  auto s = log_of(select);
  ASSERT_EQ(s.rows.size(), 1u);
  EXPECT_EQ(s.rows[0][0].int_value(), 20);
  EXPECT_EQ(s.rows[0][1].int_value(), kRows - 100);
  EXPECT_EQ(s.rows[0][2].int_value(), 20);
}

TEST_F(TelemetryTablesTest, ReservedSystemTableNames) {
  for (const char* name :
       {"sinew_metrics", "sinew_query_log", "sinew_attribute_stats"}) {
    auto r = db_.Query(std::string("CREATE TABLE ") + name + " (x INT)");
    EXPECT_FALSE(r.ok()) << name;
  }
}

// ---- cross-thread span propagation (TSan races this under
//      SINEW_SANITIZE=thread: N workers adopt the coordinator's span) ----

TEST(TraceSpans, GatherWorkersCarryTheQueryTraceId) {
  metrics::MetricsRegistry::Global()->Reset();
  SinewOptions options;
  options.parallelism = 4;
  options.planner.parallelism = 4;
  options.planner.parallel_min_rows = 16;  // force Gather on a small table
  SinewDb db(options);
  std::string jsonl;
  for (int i = 0; i < 512; ++i) {
    jsonl += "{\"seq\": " + std::to_string(i) + ", \"tag\": \"t" +
             std::to_string(i % 7) + "\"}\n";
  }
  ASSERT_TRUE(db.LoadJsonLines("docs", jsonl).ok());
  auto result = db.Query("SELECT tag, COUNT(*) c FROM docs GROUP BY tag");
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // The most recent "query" span is the root of this query's trace.
  const std::vector<metrics::TraceEvent> spans =
      metrics::MetricsRegistry::Global()->SpanEvents();
  const metrics::TraceEvent* query_span = nullptr;
  for (const metrics::TraceEvent& ev : spans) {
    if (ev.name == "query") query_span = &ev;  // ring is oldest-first
  }
  ASSERT_NE(query_span, nullptr);
  ASSERT_NE(query_span->trace_id, 0u);
  EXPECT_EQ(query_span->parent_span_id, 0u);  // root span

  size_t workers = 0;
  for (const metrics::TraceEvent& ev : spans) {
    if (ev.name != "exec.gather.worker") continue;
    ++workers;
    // Every worker span joined the query's trace, not a fresh one.
    EXPECT_EQ(ev.trace_id, query_span->trace_id);
    EXPECT_NE(ev.parent_span_id, 0u);
    // ... and its parent is a span that exists in the same trace.
    bool parent_found = false;
    for (const metrics::TraceEvent& other : spans) {
      if (other.trace_id == ev.trace_id &&
          other.span_id == ev.parent_span_id) {
        parent_found = true;
        break;
      }
    }
    EXPECT_TRUE(parent_found);
  }
  EXPECT_GE(workers, 2u);  // Gather actually fanned out
}

TEST(TraceSpans, PlanAndCompileNestUnderExecute) {
  metrics::MetricsRegistry::Global()->Reset();
  SinewDb db;
  ASSERT_TRUE(db.LoadJsonLines("t", "{\"a\": 1}\n{\"a\": 2}\n").ok());
  ASSERT_TRUE(db.Query("SELECT a FROM t WHERE a > 1").ok());

  // The last span of each name belongs to this query (the ring is
  // oldest-first).
  const std::vector<metrics::TraceEvent> spans =
      metrics::MetricsRegistry::Global()->SpanEvents();
  auto last = [&](const std::string& name) -> const metrics::TraceEvent* {
    const metrics::TraceEvent* found = nullptr;
    for (const metrics::TraceEvent& ev : spans) {
      if (ev.name == name) found = &ev;
    }
    return found;
  };
  const metrics::TraceEvent* query = last("query");
  const metrics::TraceEvent* execute = last("query.execute");
  const metrics::TraceEvent* plan = last("query.plan");
  const metrics::TraceEvent* compile = last("query.compile");
  ASSERT_NE(query, nullptr);
  ASSERT_NE(execute, nullptr);
  ASSERT_NE(plan, nullptr);
  ASSERT_NE(compile, nullptr);
  EXPECT_EQ(execute->parent_span_id, query->span_id);
  EXPECT_EQ(plan->parent_span_id, execute->span_id);
  EXPECT_EQ(compile->parent_span_id, plan->span_id);
  for (const metrics::TraceEvent* ev : {execute, plan, compile}) {
    EXPECT_EQ(ev->trace_id, query->trace_id) << ev->name;
  }
  // Each child lies inside its parent's interval.
  EXPECT_GE(plan->start_ns, execute->start_ns);
  EXPECT_LE(plan->start_ns + plan->duration_ns,
            execute->start_ns + execute->duration_ns);
  EXPECT_GE(compile->start_ns, plan->start_ns);
  EXPECT_LE(compile->start_ns + compile->duration_ns,
            plan->start_ns + plan->duration_ns);
}

TEST(TraceSpans, QueryLogWorkHasItsOwnSpanUnderQuery) {
  // The fingerprint, plan hash and query-log record run in query.finish,
  // a child of the query span that starts after query.execute ends.
  metrics::MetricsRegistry::Global()->Reset();
  SinewDb db;
  ASSERT_TRUE(db.LoadJsonLines("t", "{\"a\": 1}\n{\"a\": 2}\n").ok());
  ASSERT_TRUE(db.Query("SELECT a FROM t WHERE a > 1").ok());
  const std::vector<metrics::TraceEvent> spans =
      metrics::MetricsRegistry::Global()->SpanEvents();
  auto last = [&](const std::string& name) -> const metrics::TraceEvent* {
    const metrics::TraceEvent* found = nullptr;
    for (const metrics::TraceEvent& ev : spans) {
      if (ev.name == name) found = &ev;
    }
    return found;
  };
  const metrics::TraceEvent* query = last("query");
  const metrics::TraceEvent* execute = last("query.execute");
  const metrics::TraceEvent* finish = last("query.finish");
  ASSERT_NE(query, nullptr);
  ASSERT_NE(execute, nullptr);
  ASSERT_NE(finish, nullptr);
  EXPECT_EQ(finish->parent_span_id, query->span_id);
  EXPECT_EQ(finish->trace_id, query->trace_id);
  EXPECT_GE(finish->start_ns, execute->start_ns + execute->duration_ns);
  EXPECT_LE(finish->start_ns + finish->duration_ns,
            query->start_ns + query->duration_ns);
  // The record it wrote carries the plan hash computed there.
  Result<engine::QueryResult> logged = db.Query(
      "SELECT plan_hash FROM sinew_query_log WHERE trace_id = " +
      std::to_string(static_cast<int64_t>(query->trace_id)));
  ASSERT_TRUE(logged.ok()) << logged.status().ToString();
  ASSERT_EQ(logged->rows.size(), 1u);
  EXPECT_NE(logged->rows[0][0].int_value(), 0);
}

// ---- trace export + the bench/validate_trace.py contract ----

TEST(TraceExport, DumpTracePassesTheValidator) {
  metrics::MetricsRegistry::Global()->Reset();
  SinewDb db;
  ASSERT_TRUE(db.LoadJsonLines("t", "{\"a\": 1}\n{\"a\": 2}\n").ok());
  ASSERT_TRUE(db.Query("SELECT a FROM t WHERE a > 1").ok());

  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("sinew_trace_" + std::to_string(::testing::UnitTest::GetInstance()
                                            ->random_seed()) +
        ".json"))
          .string();
  ASSERT_TRUE(db.DumpTrace(path).ok());

  if (std::system("python3 --version > /dev/null 2>&1") != 0) {
    std::filesystem::remove(path);
    GTEST_SKIP() << "python3 not available";
  }
  const std::string cmd =
      std::string("python3 ") + SINEW_REPO_DIR "/bench/validate_trace.py " +
      path;
  EXPECT_EQ(std::system(cmd.c_str()), 0) << cmd;
  std::filesystem::remove(path);
}

#endif  // !SINEW_METRICS_DISABLED

}  // namespace
}  // namespace sinew
