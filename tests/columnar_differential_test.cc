// Columnar-segment differential tests: every query must return the same
// multiset of rows whether cold-segment extraction is served from shredded
// column strips (enable_columnar_segments + BuildColumnarSegments) or purely
// from the row reservoir — the scalar oracle's (tests/scalar_oracle.h)
// wherever its reach allows. The corpus is NoBench-shaped: multi-typed keys
// (excluded from strips, always reservoir-served), nested objects, arrays,
// sparse/absent paths — so each query mixes strip-served and
// reservoir-served attributes in one plan.
//
// Each equivalence is checked serially AND under Gather (parallel scan
// clones resolve the attached segment on their own);
// SINEW_DIFF_PARALLELISM overrides the parallel degree (default 4), and
// CMake registers the suite a second time at degree 2.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "scalar_oracle.h"
#include "sinew/sinew_db.h"
#include "workloads/nobench/generator.h"

namespace sinew {
namespace {

namespace nb = workloads::nobench;

int ParallelDegree() {
  if (const char* env = std::getenv("SINEW_DIFF_PARALLELISM")) {
    int parsed = std::atoi(env);
    if (parsed > 1) return parsed;
  }
  return 4;
}

/// Canonical row text: "name=value" pairs sorted by column name, NULLs
/// dropped — insensitive to row order, column order and attribute-id
/// interning order. Doubles rounded to 9 significant digits.
std::string CanonicalRow(const engine::QueryResult& result,
                         const engine::DatumRow& row) {
  std::vector<std::string> parts;
  for (size_t i = 0; i < row.size(); ++i) {
    const engine::Datum& d = row[i];
    if (d.is_null()) continue;
    std::string value;
    if (d.is_double()) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.9g", d.double_value());
      value = buf;
    } else {
      value = d.ToString();
    }
    parts.push_back(result.column_names[i] + "=" + value);
  }
  std::sort(parts.begin(), parts.end());
  std::string out;
  for (const std::string& p : parts) {
    out += p;
    out += '|';
  }
  return out;
}

std::vector<std::string> CanonicalRows(const engine::QueryResult& result) {
  std::vector<std::string> rows;
  rows.reserve(result.rows.size());
  for (const engine::DatumRow& row : result.rows) {
    rows.push_back(CanonicalRow(result, row));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// Concatenates the text rows of an EXPLAIN ANALYZE result and parses the
/// first occurrence of `key` (e.g. "columnar_hits=") as an integer; 0 when
/// the key is absent.
uint64_t AnalyzeCounter(const engine::QueryResult& result,
                        const std::string& key) {
  std::string text;
  for (const engine::DatumRow& row : result.rows) {
    text += row[0].str();
    text += "\n";
  }
  size_t pos = text.find(key);
  if (pos == std::string::npos) return 0;
  return std::strtoull(text.c_str() + pos + key.size(), nullptr, 10);
}

class ColumnarDifferentialTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kRecords = 3000;  // ~3 strips of 1024 rows
  static constexpr const char* kTable = "docs";

  static void SetUpTestSuite() {
    nb::Config config;
    config.num_records = kRecords;
    config.seed = 20140622;  // deterministic corpus
    docs_ = new std::vector<Value>(nb::Generate(config));
    params_ = new nb::QueryParams(nb::MakeQueryParams(config));

    strips_serial_ = new SinewDb(MakeOptions(1, /*strips=*/true));
    rows_serial_ = new SinewDb(MakeOptions(1, /*strips=*/false));
    strips_parallel_ =
        new SinewDb(MakeOptions(ParallelDegree(), /*strips=*/true));
    rows_parallel_ =
        new SinewDb(MakeOptions(ParallelDegree(), /*strips=*/false));
    for (SinewDb* db : AllDbs()) {
      ASSERT_TRUE(db->LoadDocuments(kTable, *docs_).ok());
      // All attributes stay virtual: every reference extracts from the
      // reservoir, so the strip-serving path (or its absence) is the only
      // difference between the configurations.
      Status built = db->BuildColumnarSegments(kTable);
      ASSERT_TRUE(built.ok()) << built.ToString();
    }
  }

  static void TearDownTestSuite() {
    for (SinewDb* db : AllDbs()) delete db;
    strips_serial_ = rows_serial_ = nullptr;
    strips_parallel_ = rows_parallel_ = nullptr;
    delete params_;
    delete docs_;
    params_ = nullptr;
    docs_ = nullptr;
  }

  static std::vector<SinewDb*> AllDbs() {
    return {strips_serial_, rows_serial_, strips_parallel_, rows_parallel_};
  }

  static SinewOptions MakeOptions(int parallelism, bool strips) {
    SinewOptions options;
    options.parallelism = parallelism;
    options.enable_columnar_segments = strips;
    // Force parallel plans at test scale.
    options.planner.parallel_min_rows = 1;
    return options;
  }

  /// Asserts the strip-serving and row-reservoir paths, serially and under
  /// Gather, all return the golden multiset: the scalar oracle's
  /// (tests/scalar_oracle.h), or the rows configuration's for LIMIT.
  void ExpectSameResults(const std::string& sql) {
    SCOPED_TRACE(sql);
    Result<engine::QueryResult> golden = oracle::GoldenQuery(rows_serial_, sql);
    Result<engine::QueryResult> ss = strips_serial_->Query(sql);
    Result<engine::QueryResult> rs = rows_serial_->Query(sql);
    Result<engine::QueryResult> sp = strips_parallel_->Query(sql);
    Result<engine::QueryResult> rp = rows_parallel_->Query(sql);
    ASSERT_TRUE(golden.ok()) << golden.status().ToString();
    ASSERT_TRUE(ss.ok()) << ss.status().ToString();
    ASSERT_TRUE(rs.ok()) << rs.status().ToString();
    ASSERT_TRUE(sp.ok()) << sp.status().ToString();
    ASSERT_TRUE(rp.ok()) << rp.status().ToString();
    const std::vector<std::string> golden_rows = CanonicalRows(*golden);
    EXPECT_EQ(CanonicalRows(*ss), golden_rows) << "strips, serial";
    EXPECT_EQ(CanonicalRows(*rs), golden_rows) << "rows, serial";
    EXPECT_EQ(CanonicalRows(*sp), golden_rows) << "strips, parallel";
    EXPECT_EQ(CanonicalRows(*rp), golden_rows) << "rows, parallel";
  }

  static std::vector<Value>* docs_;
  static nb::QueryParams* params_;
  static SinewDb* strips_serial_;
  static SinewDb* rows_serial_;
  static SinewDb* strips_parallel_;
  static SinewDb* rows_parallel_;
};

std::vector<Value>* ColumnarDifferentialTest::docs_ = nullptr;
nb::QueryParams* ColumnarDifferentialTest::params_ = nullptr;
SinewDb* ColumnarDifferentialTest::strips_serial_ = nullptr;
SinewDb* ColumnarDifferentialTest::rows_serial_ = nullptr;
SinewDb* ColumnarDifferentialTest::strips_parallel_ = nullptr;
SinewDb* ColumnarDifferentialTest::rows_parallel_ = nullptr;

TEST_F(ColumnarDifferentialTest, ConfigurationsActuallyDiffer) {
  // Guard against comparing the row path to itself: the strips-on db must
  // report strip-served extractions in EXPLAIN ANALYZE, the strips-off db
  // must report none (BuildColumnarSegments is a no-op when disabled).
  const char* sql = "EXPLAIN ANALYZE SELECT str1 AS s, num AS n FROM docs";
  Result<engine::QueryResult> on = strips_serial_->Query(sql);
  ASSERT_TRUE(on.ok()) << on.status().ToString();
  EXPECT_GT(AnalyzeCounter(*on, "columnar_hits="), 0u);
  Result<engine::QueryResult> off = rows_serial_->Query(sql);
  ASSERT_TRUE(off.ok()) << off.status().ToString();
  EXPECT_EQ(AnalyzeCounter(*off, "columnar_hits="), 0u);
  // The parallel strips plan serves from strips below Gather too.
  Result<engine::QueryResult> par = strips_parallel_->Query(sql);
  ASSERT_TRUE(par.ok()) << par.status().ToString();
  EXPECT_GT(AnalyzeCounter(*par, "columnar_hits="), 0u);
}

TEST_F(ColumnarDifferentialTest, Fig6Projections) {
  // NoBench Q1-Q4: top-level, nested and sparse projections.
  ExpectSameResults("SELECT str1 AS a, num AS b FROM docs");
  ExpectSameResults(
      "SELECT \"nested_obj.str\" AS a, \"nested_obj.num\" AS b FROM docs");
  ExpectSameResults("SELECT sparse_110 AS a, sparse_119 AS b FROM docs");
  ExpectSameResults("SELECT sparse_110 AS a, sparse_220 AS b FROM docs");
}

TEST_F(ColumnarDifferentialTest, Fig6Predicates) {
  // NoBench Q5/Q6: string equality and int range — both shapes feed the
  // scan's zone-map check as well as the extraction node.
  ExpectSameResults("SELECT * FROM docs WHERE str1 = '" + params_->q5_str1 +
                    "'");
  ExpectSameResults("SELECT * FROM docs WHERE num BETWEEN " +
                    std::to_string(params_->q6_lo) + " AND " +
                    std::to_string(params_->q6_hi));
}

TEST_F(ColumnarDifferentialTest, MultiTypedKeyFallsBackToReservoir) {
  // dyn1 is int / string / bool across rows: the shredder excludes it, so
  // these queries mix strip-served (num) and reservoir-served (dyn1) lanes.
  ExpectSameResults("SELECT dyn1 AS d, num AS n FROM docs");
  ExpectSameResults("SELECT * FROM docs WHERE dyn1 BETWEEN " +
                    std::to_string(params_->q7_lo) + " AND " +
                    std::to_string(params_->q7_hi));
}

TEST_F(ColumnarDifferentialTest, ArraysAndContainment) {
  // Arrays are not strippable; the containment filter runs on reservoir
  // bytes while the projection's scalar lanes may serve from strips.
  ExpectSameResults(
      "SELECT nested_arr AS arr, str1 AS s FROM docs "
      "WHERE array_contains(nested_arr, '" +
      params_->q8_arr_value + "')");
}

TEST_F(ColumnarDifferentialTest, SparseKeyPredicate) {
  ExpectSameResults("SELECT * FROM docs WHERE " + params_->q9_sparse_key +
                    " = '" + params_->q9_value + "'");
  // Sparse keys are absent in ~99% of rows: strips are mostly-null and the
  // IS NOT NULL shape must agree with the reservoir's absent-vs-null view.
  ExpectSameResults("SELECT " + params_->q9_sparse_key +
                    " AS k, num AS n FROM docs WHERE " +
                    params_->q9_sparse_key + " IS NOT NULL");
}

TEST_F(ColumnarDifferentialTest, AggregationOverStrips) {
  // NoBench Q10: grouped aggregate above a zone-checked range filter.
  ExpectSameResults("SELECT thousandth AS g, COUNT(*) AS c FROM docs "
                    "WHERE num BETWEEN " +
                    std::to_string(params_->q10_lo) + " AND " +
                    std::to_string(params_->q10_hi) + " GROUP BY thousandth");
  ExpectSameResults(
      "SELECT thousandth AS g, COUNT(*) AS c, SUM(num) AS s FROM docs "
      "GROUP BY thousandth");
}

TEST_F(ColumnarDifferentialTest, OrderByAndBoolStrips) {
  ExpectSameResults(
      "SELECT str1 AS s, thousandth AS t FROM docs "
      "ORDER BY thousandth, str1 LIMIT 50");
  ExpectSameResults("SELECT bool AS b, num AS n FROM docs WHERE bool = TRUE");
}

TEST_F(ColumnarDifferentialTest, HotTailAfterSegmentBuild) {
  // Rows appended after the shred are beyond the segment's row_count: the
  // executor must split each batch into strip-served cold rows and
  // reservoir-served hot rows. Fresh dbs so the shared fixture stays cold.
  nb::Config config;
  config.num_records = 1500;
  config.seed = 7;
  std::vector<Value> cold = nb::Generate(config);
  config.seed = 8;
  std::vector<Value> hot = nb::Generate(config);

  SinewDb strips(MakeOptions(1, /*strips=*/true));
  SinewDb rows(MakeOptions(1, /*strips=*/false));
  for (SinewDb* db : {&strips, &rows}) {
    ASSERT_TRUE(db->LoadDocuments(kTable, cold).ok());
    ASSERT_TRUE(db->BuildColumnarSegments(kTable).ok());
    ASSERT_TRUE(db->LoadDocuments(kTable, hot).ok());
  }
  for (const std::string& sql : {
           std::string("SELECT str1 AS a, num AS b FROM docs"),
           std::string("SELECT thousandth AS g, COUNT(*) AS c FROM docs "
                       "GROUP BY thousandth"),
           std::string("SELECT * FROM docs WHERE num < 100"),
       }) {
    SCOPED_TRACE(sql);
    Result<engine::QueryResult> s = strips.Query(sql);
    Result<engine::QueryResult> r = rows.Query(sql);
    ASSERT_TRUE(s.ok()) << s.status().ToString();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(CanonicalRows(*s), CanonicalRows(*r));
  }
}

TEST_F(ColumnarDifferentialTest, ZoneSkipsVisibleAndSound) {
  // NoBench's num is uniform, so its zone maps never exclude a strip. A
  // rid-correlated key gives tight per-strip bounds: a narrow range must
  // skip whole strips (visible in EXPLAIN ANALYZE) without losing rows.
  std::ostringstream jsonl;
  for (int i = 0; i < 4096; ++i) {
    jsonl << "{\"seq\": " << i << ", \"tag\": \"t" << i % 7 << "\"}\n";
  }
  SinewDb strips(MakeOptions(1, /*strips=*/true));
  SinewDb rows(MakeOptions(1, /*strips=*/false));
  for (SinewDb* db : {&strips, &rows}) {
    ASSERT_TRUE(db->LoadJsonLines(kTable, jsonl.str()).ok());
    ASSERT_TRUE(db->BuildColumnarSegments(kTable).ok());
  }

  const std::string sql =
      "SELECT seq AS s, tag AS t FROM docs WHERE seq BETWEEN 2100 AND 2150";
  Result<engine::QueryResult> on = strips.Query("EXPLAIN ANALYZE " + sql);
  ASSERT_TRUE(on.ok()) << on.status().ToString();
  // Rows [2100, 2150] live entirely in strip 2; strips 0, 1 and 3 skip.
  EXPECT_GE(AnalyzeCounter(*on, "zone_skips="), 3u);
  Result<engine::QueryResult> off = rows.Query("EXPLAIN ANALYZE " + sql);
  ASSERT_TRUE(off.ok()) << off.status().ToString();
  EXPECT_EQ(AnalyzeCounter(*off, "zone_skips="), 0u);

  // Skipping must not change results: 51 rows either way.
  Result<engine::QueryResult> s = strips.Query(sql);
  Result<engine::QueryResult> r = rows.Query(sql);
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(s->rows.size(), 51u);
  EXPECT_EQ(CanonicalRows(*s), CanonicalRows(*r));
}

TEST_F(ColumnarDifferentialTest, DistinctDisablesDeferredBytes) {
  // DISTINCT over strip-servable attributes: the scan never decodes the
  // reservoir for them, and the deduplication must still see every value.
  ExpectSameResults("SELECT DISTINCT str1 AS s FROM docs");
  ExpectSameResults("SELECT DISTINCT thousandth AS t, bool AS b FROM docs");
}

TEST_F(ColumnarDifferentialTest, UpdateDetachesSegmentAndStaysCorrect) {
  // A value update detaches the columnar segment: queries planned before or
  // after must fall back to reservoir bytes (never serving stale strip
  // values).
  // Fresh dbs so the shared fixture's segments stay attached.
  std::ostringstream jsonl;
  for (int i = 0; i < 2500; ++i) {
    jsonl << "{\"seq\": " << i << ", \"tag\": \"t" << i % 7 << "\"}\n";
  }
  SinewDb strips(MakeOptions(1, /*strips=*/true));
  SinewDb rows(MakeOptions(1, /*strips=*/false));
  const std::string sql = "SELECT seq AS s, tag AS t FROM docs";
  for (SinewDb* db : {&strips, &rows}) {
    ASSERT_TRUE(db->LoadJsonLines(kTable, jsonl.str()).ok());
    ASSERT_TRUE(db->BuildColumnarSegments(kTable).ok());
  }
  // Before the update the strips db serves the projection from strips.
  Result<engine::QueryResult> probe =
      strips.Query("EXPLAIN ANALYZE " + sql);
  ASSERT_TRUE(probe.ok()) << probe.status().ToString();
  EXPECT_GT(AnalyzeCounter(*probe, "columnar_hits="), 0u);

  for (SinewDb* db : {&strips, &rows}) {
    Result<engine::QueryResult> updated =
        db->Query("UPDATE docs SET tag = 'updated' WHERE seq = 1000");
    ASSERT_TRUE(updated.ok()) << updated.status().ToString();
  }
  Result<engine::QueryResult> s = strips.Query(sql);
  Result<engine::QueryResult> r = rows.Query(sql);
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(s->rows.size(), 2500u);
  EXPECT_EQ(CanonicalRows(*s), CanonicalRows(*r));
  Result<engine::QueryResult> hit =
      strips.Query("SELECT tag AS t FROM docs WHERE seq = 1000");
  ASSERT_TRUE(hit.ok()) << hit.status().ToString();
  ASSERT_EQ(hit->rows.size(), 1u);
  EXPECT_EQ(hit->rows[0][0].str(), "updated");
}

}  // namespace
}  // namespace sinew
