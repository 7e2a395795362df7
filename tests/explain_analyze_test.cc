// EXPLAIN / EXPLAIN ANALYZE and the sinew_metrics virtual table.
//
// The golden test pins the full Gather plan shape (worker count, morsel
// size, merge path) so a planner change that silently alters the parallel
// plan fails loudly. EXPLAIN ANALYZE assertions compare reported actuals
// against hand-computed row counts. The sinew-level test checks the
// acceptance query: after a parallel aggregate over virtual columns,
// `SELECT * FROM sinew_metrics` reports nonzero rewriter and Gather
// counters.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>

#include "common/metrics.h"
#include "common/query_log.h"
#include "engine/database.h"
#include "engine/table.h"
#include "sinew/sinew_db.h"

namespace sinew {
namespace {

/// Concatenates the text rows an EXPLAIN statement returns.
std::string ExplainText(const engine::QueryResult& result) {
  std::string out;
  for (const auto& row : result.rows) {
    out += row[0].str();
    out += "\n";
  }
  return out;
}

/// The inclusive and self milliseconds an analyzed line prints
/// ("time=T ms self=S ms"), as printed.
std::pair<std::string, std::string> TimeAndSelf(const std::string& line) {
  const size_t t = line.find("time=");
  const size_t s = line.find(" ms self=");
  if (t == std::string::npos || s == std::string::npos) return {};
  const size_t end = line.find(" ms)", s + 1);
  return {line.substr(t + 5, s - t - 5), line.substr(s + 9, end - s - 9)};
}

/// The milliseconds a summary line ("<label>: X ms") prints; -1 when the
/// text has no such line.
double SummaryMs(const std::string& text, const std::string& label) {
  const size_t at = text.find(label + ": ");
  if (at == std::string::npos) return -1;
  return std::stod(text.substr(at + label.size() + 2));
}

/// Creates table t(a INT, b INT) with rows (i, i % 10) for i in [0, n).
void FillTable(engine::Database* db, uint64_t n) {
  engine::Schema schema;
  ASSERT_TRUE(schema
                  .AddColumn(engine::Column{"a", engine::ColumnType::kInt,
                                            false})
                  .ok());
  ASSERT_TRUE(schema
                  .AddColumn(engine::Column{"b", engine::ColumnType::kInt,
                                            false})
                  .ok());
  auto table = db->catalog()->CreateTable("t", std::move(schema));
  ASSERT_TRUE(table.ok());
  for (uint64_t i = 0; i < n; ++i) {
    ASSERT_TRUE((*table)
                    ->AppendRow(engine::DatumRow{
                        engine::Datum::Int(static_cast<int64_t>(i)),
                        engine::Datum::Int(static_cast<int64_t>(i % 10))})
                    .ok());
  }
  ASSERT_TRUE((*table)->Analyze().ok());
}

TEST(ExplainTest, GatherPlanGoldenShape) {
  engine::PlannerOptions planner;
  planner.parallelism = 4;
  planner.parallel_min_rows = 1000;
  engine::Database db(planner);
  FillTable(&db, 20000);

  // Streaming Gather: filter pushed into the scan, rows stream through the
  // bounded queue (no aggregate child).
  auto streaming = db.Explain("SELECT a FROM t WHERE a >= 0");
  ASSERT_TRUE(streaming.ok()) << streaming.status().ToString();
  EXPECT_EQ(*streaming,
            "Gather (workers=4, morsel=4096, merge=streaming) (rows=20000)\n"
            "  -> Project [t.\"a\"] (rows=20000)\n"
            "    -> Seq Scan on t (filter: (t.\"a\" >= 0)) (rows=20000)\n")
      << *streaming;

  // A hash-aggregate child flips the merge path to per-worker partial
  // aggregation.
  auto agg = db.Explain("SELECT b, COUNT(*) AS c FROM t GROUP BY b");
  ASSERT_TRUE(agg.ok()) << agg.status().ToString();
  EXPECT_NE(agg->find("merge=partial-agg"), std::string::npos) << *agg;
  EXPECT_NE(agg->find("HashAggregate"), std::string::npos) << *agg;
}

TEST(ExplainTest, ExplainAnalyzeReportsActualRows) {
  engine::Database db;
  FillTable(&db, 100);

  auto result = db.Execute("EXPLAIN ANALYZE SELECT a FROM t WHERE a < 50");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  std::string text = ExplainText(*result);
  // 50 of 100 rows pass the filter; every operator in this serial plan saw
  // exactly those 50 rows once.
  EXPECT_NE(text.find("actual rows=50 loops=1"), std::string::npos) << text;
  EXPECT_NE(text.find("Planning Time:"), std::string::npos) << text;
  EXPECT_NE(text.find("Execution Time:"), std::string::npos) << text;
  // The time outside the root operator (build, the hand-off of its batches
  // into the result, teardown) follows, and is part of the execution.
  const size_t exec_at = text.find("Execution Time:");
  const size_t assembly_at = text.find("Assembly Time:");
  ASSERT_NE(assembly_at, std::string::npos) << text;
  EXPECT_GT(assembly_at, exec_at) << text;
  const double assembly = SummaryMs(text, "Assembly Time");
  EXPECT_GE(assembly, 0) << text;
  EXPECT_LE(assembly, SummaryMs(text, "Execution Time")) << text;
  // Plain EXPLAIN never executes and so never reports actuals.
  auto plain = db.Execute("EXPLAIN SELECT a FROM t WHERE a < 50");
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(ExplainText(*plain).find("actual rows"), std::string::npos);
}

TEST(ExplainTest, ExplainAnalyzeThroughGatherWorkers) {
  engine::PlannerOptions planner;
  planner.parallelism = 4;
  planner.parallel_min_rows = 1000;
  engine::Database db(planner);
  FillTable(&db, 20000);

  auto result = db.Execute("EXPLAIN ANALYZE SELECT a FROM t WHERE a >= 0");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  std::string text = ExplainText(*result);
  // All 20000 rows pass; worker clones share the node's stats, so the
  // per-node total is exact even though each clone saw only a share. The
  // clone count (loops) depends on the shared pool's size, so it is not
  // pinned here.
  EXPECT_NE(text.find("actual rows=20000 loops="), std::string::npos)
      << text;
  EXPECT_NE(text.find("morsels="), std::string::npos) << text;
  // The workers' scans visited every row between them.
  EXPECT_NE(text.find("(visited=20000)"), std::string::npos) << text;
  // A Gather's children run on pool workers, so its self time is its whole
  // time: the query thread waiting on them.
  std::istringstream lines(text);
  std::string line;
  bool saw_gather = false;
  while (std::getline(lines, line)) {
    if (line.rfind("Gather", 0) != 0) continue;
    saw_gather = true;
    const auto [time, self] = TimeAndSelf(line);
    ASSERT_FALSE(time.empty()) << line;
    EXPECT_EQ(self, time) << line;
  }
  EXPECT_TRUE(saw_gather) << text;
}

TEST(ExplainTest, ExplainAnalyzePrintsSelfTimeAndVisitedRows) {
  engine::Database db;
  FillTable(&db, 100);
  auto result = db.Execute(
      "EXPLAIN ANALYZE SELECT b, COUNT(*) FROM t WHERE a < 50 GROUP BY b "
      "ORDER BY b");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const std::string text = ExplainText(*result);
  // Every executed node prints its self time, its inclusive time minus its
  // children's, beside the inclusive time; the leaf scan's is all of it.
  int analyzed = 0;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.find("actual rows=") == std::string::npos) continue;
    ++analyzed;
    const auto [time, self] = TimeAndSelf(line);
    ASSERT_FALSE(time.empty()) << line;
    EXPECT_LE(std::stod(self), std::stod(time)) << line;
    if (line.find("Seq Scan") != std::string::npos) {
      EXPECT_EQ(self, time) << line;
      // The scan visited all 100 rows; its filter let 50 through.
      EXPECT_NE(line.find("actual rows=50 "), std::string::npos) << line;
      EXPECT_NE(line.find("(visited=100)"), std::string::npos) << line;
    }
  }
  EXPECT_GE(analyzed, 3) << text;
}

TEST(ExplainTest, ExplainAnalyzeReportsBytecodeShape) {
  engine::Database db;
  FillTable(&db, 100);

  // The pushed-down scan filter compiles to one comparison of a column with
  // a literal; it runs in select mode over each probe batch of decoded
  // filter columns, and column `a` is a monomorphic int column, so all 100
  // scanned lanes run on the typed kernel (typed=100). The projection
  // `a + 1` compiles to one arithmetic op over the 50 surviving lanes, also
  // typed (typed=50). No specializable lane stays boxed.
  auto result =
      db.Execute("EXPLAIN ANALYZE SELECT a + 1 AS x FROM t WHERE a < 50");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  std::string text = ExplainText(*result);
  EXPECT_NE(text.find("(bytecode ops=1 typed=100 boxed=0)"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("(bytecode ops=1 typed=50 boxed=0)"), std::string::npos)
      << text;

  // A CASE projection runs on the VM: the typed comparison over all 100
  // rows, then a fork/join pair for the THEN lanes and one for the rest.
  auto case_result = db.Execute(
      "EXPLAIN ANALYZE SELECT CASE WHEN a < 50 THEN 1 ELSE 2 END AS x "
      "FROM t");
  ASSERT_TRUE(case_result.ok()) << case_result.status().ToString();
  std::string case_text = ExplainText(*case_result);
  EXPECT_NE(case_text.find("(bytecode ops=5 typed=100 boxed=0)"),
            std::string::npos)
      << case_text;
}

TEST(ExplainTest, CreateTableRejectsReservedMetricsName) {
  engine::Database db;
  auto result = db.Execute("CREATE TABLE sinew_metrics (x INT)");
  EXPECT_FALSE(result.ok());
}

TEST(SinewExtractExplainTest, GoldenNodeAndAnalyzeStats) {
  SinewDb db;
  std::ostringstream jsonl;
  for (int i = 0; i < 100; ++i) {
    jsonl << "{\"a\": " << i << ", \"b\": " << i % 10 << ", \"c\": \"s"
          << i % 3 << "\"}\n";
  }
  ASSERT_TRUE(db.LoadJsonLines("docs", jsonl.str()).ok());

  // EXPLAIN pins the scan's extraction and its resolved-attribute count:
  // three virtual references over one scan are three scan columns.
  auto plan = db.Explain("SELECT a AS x, b AS y, c AS z FROM docs");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan->find("Seq Scan on docs SinewExtract (attrs=3, sources=1)"),
            std::string::npos)
      << *plan;

  // EXPLAIN ANALYZE reports the scan's extraction actuals: one reservoir
  // decode per row, three attributes served per decode, and the time spent.
  auto analyzed =
      db.Query("EXPLAIN ANALYZE SELECT a AS x, b AS y, c AS z FROM docs");
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  std::string text = ExplainText(*analyzed);
  EXPECT_NE(text.find("Seq Scan on docs SinewExtract (attrs=3, sources=1)"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("(decodes=100 attrs=300 columnar_hits=0 extract_time="),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("actual rows=100"), std::string::npos) << text;

#if !defined(SINEW_METRICS_DISABLED)
  // Planning Time counts the rewrite the query log recorded for this
  // statement; the text carries microseconds, hence the half-unit slack.
  const std::vector<qlog::QueryRecord> log =
      qlog::QueryLog::Global()->Records();
  ASSERT_FALSE(log.empty());
  const qlog::QueryRecord& record = log.back();
  EXPECT_EQ(record.fingerprint,
            qlog::NormalizeFingerprint(
                "EXPLAIN ANALYZE SELECT a AS x, b AS y, c AS z FROM docs"));
  const size_t at = text.find("Planning Time: ");
  ASSERT_NE(at, std::string::npos) << text;
  const double planning_ns =
      std::stod(text.substr(at + std::string("Planning Time: ").size())) * 1e6;
  EXPECT_GT(record.rewrite_ns, 0u);
  EXPECT_GE(planning_ns + 500, static_cast<double>(record.rewrite_ns))
      << text;
#endif
}

TEST(SinewMetricsTableTest, ParallelQueryPopulatesCounters) {
  SinewOptions options;
  options.parallelism = 4;
  options.planner.parallel_min_rows = 64;
  SinewDb db(options);

  std::ostringstream jsonl;
  for (int i = 0; i < 1000; ++i) {
    jsonl << "{\"num\": " << i << ", \"grp\": " << i % 10 << "}\n";
  }
  auto loaded = db.LoadJsonLines("docs", jsonl.str());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(*loaded, 1000u);

  // Parallel aggregate over virtual columns: every column reference resolves
  // through the reservoir (virtual), and the scan fans out over morsels.
  auto agg = db.Query(
      "SELECT grp AS g, COUNT(*) AS c, SUM(num) AS s FROM docs GROUP BY grp");
  ASSERT_TRUE(agg.ok()) << agg.status().ToString();
  EXPECT_EQ(agg->rows.size(), 10u);

#if !defined(SINEW_METRICS_DISABLED)
  auto metric = [&](const std::string& name) -> double {
    auto r = db.Query("SELECT value FROM sinew_metrics WHERE name = '" +
                      name + "'");
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (!r.ok() || r->rows.size() != 1) return -1;
    return r->rows[0][0].double_value();
  };

  EXPECT_GT(metric("rewriter.virtual_refs_total"), 0) << "virtual refs";
  EXPECT_GT(metric("exec.gather.morsels_total"), 0) << "gather morsels";
  EXPECT_GT(metric("loader.docs_total"), 0) << "loader docs";
  EXPECT_GT(metric("exec.queries_total"), 0) << "queries";

  // The snapshot refreshes per query: counters must not go backwards.
  double before = metric("exec.queries_total");
  ASSERT_TRUE(db.Query("SELECT num AS n FROM docs WHERE num < 10").ok());
  EXPECT_GT(metric("exec.queries_total"), before);

  // The per-query trace recorded the rewrite and execute phases.
  bool saw_rewrite = false, saw_execute = false;
  for (const metrics::TraceEvent& e : db.LastQueryTrace()) {
    if (e.name == "query.rewrite") saw_rewrite = true;
    if (e.name == "query.execute") saw_execute = true;
  }
  EXPECT_TRUE(saw_rewrite);
  EXPECT_TRUE(saw_execute);
#else
  // Compiled-out builds still expose the (empty) table.
  auto r = db.Query("SELECT name FROM sinew_metrics");
  EXPECT_TRUE(r.ok()) << r.status().ToString();
#endif
}

}  // namespace
}  // namespace sinew
