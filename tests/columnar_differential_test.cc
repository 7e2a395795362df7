// Columnar-segment differential tests: every query must return the same
// multiset of rows whether cold-segment extraction is served from shredded
// column strips (enable_columnar_segments + BuildColumnarSegments) or purely
// from the row reservoir — the scalar oracle's (tests/scalar_oracle.h)
// wherever its reach allows. The corpus is NoBench-shaped: multi-typed keys
// (excluded from strips, always reservoir-served), nested objects, arrays,
// sparse/absent paths — so each query mixes strip-served and
// reservoir-served attributes in one plan. PhysicalStripsTest covers
// materialized columns read from their physical strips, against the oracle
// in every storage state.
//
// Each equivalence is checked serially AND under Gather (parallel scan
// clones resolve the attached segment on their own);
// SINEW_DIFF_PARALLELISM overrides the parallel degree (default 4), and
// CMake registers the suite a second time at degree 2.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "engine/columnar.h"
#include "cached_rerun.h"
#include "scalar_oracle.h"
#include "sinew/durable_db.h"
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
                         const engine::ResultRows::Row& row) {
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
  for (const auto& row : result.rows) {
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
  for (const auto& row : result.rows) {
    text += row[0].str();
    text += "\n";
  }
  size_t pos = text.find(key);
  if (pos == std::string::npos) return 0;
  return std::strtoull(text.c_str() + pos + key.size(), nullptr, 10);
}

/// The text rows of an EXPLAIN ANALYZE result, concatenated.
std::string AnalyzeText(const engine::QueryResult& result) {
  std::string text;
  for (const auto& row : result.rows) text += row[0].str();
  return text;
}

/// `sql` on `db` gives the scalar oracle's multiset of rows.
/// Twice: the second time with other literals through the plan cache
/// (tests/cached_rerun.h).
void ExpectOracleAnswer(SinewDb* db, const std::string& sql) {
  for (const oracle::CachedRun& run : oracle::CachedRuns(sql)) {
    SCOPED_TRACE(run.sql);
    Result<engine::QueryResult> golden = oracle::GoldenQuery(db, run.sql);
    Result<engine::QueryResult> got = run.Query(db);
    ASSERT_TRUE(golden.ok()) << golden.status().ToString();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(CanonicalRows(*got), CanonicalRows(*golden));
  }
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
  /// Each statement runs twice, the second time with other literals
  /// through the plan cache (tests/cached_rerun.h).
  void ExpectSameResults(const std::string& sql) {
    for (const oracle::CachedRun& run : oracle::CachedRuns(sql)) {
      SCOPED_TRACE(run.sql);
      Result<engine::QueryResult> golden =
          oracle::GoldenQuery(rows_serial_, run.sql);
      Result<engine::QueryResult> ss = run.Query(strips_serial_);
      Result<engine::QueryResult> rs = run.Query(rows_serial_);
      Result<engine::QueryResult> sp = run.Query(strips_parallel_);
      Result<engine::QueryResult> rp = run.Query(rows_parallel_);
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

TEST_F(ColumnarDifferentialTest, SparseProjectionFillsTypedFromStrips) {
  // NoBench Q3/Q4: two sparse keys, both strip-served reservoir targets of
  // one group. A covered chunk fills them typed, like physical columns,
  // and walks no row bytes in either phase; each row counts one columnar
  // hit per key, serially and under Gather.
  const std::string sql = "SELECT sparse_110 AS a, sparse_119 AS b FROM docs";
  for (SinewDb* db : {strips_serial_, strips_parallel_}) {
    Result<engine::QueryResult> analyzed = db->Query("EXPLAIN ANALYZE " + sql);
    ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
    const std::string text = AnalyzeText(*analyzed);
    EXPECT_NE(text.find("walked=0+0 strip_cols=0+2"), std::string::npos)
        << text;
    EXPECT_EQ(AnalyzeCounter(*analyzed, "columnar_hits="), kRecords * 2)
        << text;
    EXPECT_EQ(AnalyzeCounter(*analyzed, "decodes="), 0u) << text;
  }
  ExpectSameResults(sql);
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

TEST_F(ColumnarDifferentialTest, HotRowsPastAnUnalignedSegmentEnd) {
  // The segment ends mid-strip (1500 rows) and rows appended after the
  // shred lie past it. A chunk stops at the segment's end, so each is
  // served wholly from strips or wholly from row bytes, in the filter and
  // the output phase: the oracle's answers at Gather degree 1 and
  // ParallelDegree(), and one columnar hit per covered row and key.
  nb::Config config;
  config.num_records = 1500;
  config.seed = 11;
  const std::vector<Value> cold = nb::Generate(config);
  config.num_records = 700;
  config.seed = 12;
  const std::vector<Value> hot = nb::Generate(config);
  for (int degree : {1, ParallelDegree()}) {
    SCOPED_TRACE("degree " + std::to_string(degree));
    SinewDb db(MakeOptions(degree, /*strips=*/true));
    ASSERT_TRUE(db.LoadDocuments(kTable, cold).ok());
    ASSERT_TRUE(db.BuildColumnarSegments(kTable).ok());
    ASSERT_TRUE(db.LoadDocuments(kTable, hot).ok());
    for (const std::string& sql : {
             std::string("SELECT str1 AS a, num AS b FROM docs"),
             std::string("SELECT str1 AS a, thousandth AS t FROM docs "
                         "WHERE num < 40000"),
             std::string("SELECT sparse_110 AS a, num AS n FROM docs "
                         "WHERE sparse_110 IS NOT NULL"),
             std::string("SELECT thousandth AS g, COUNT(*) AS c FROM docs "
                         "GROUP BY thousandth"),
             std::string("SELECT * FROM docs WHERE num < 3000"),
         }) {
      ExpectOracleAnswer(&db, sql);
    }
    Result<engine::QueryResult> analyzed =
        db.Query("EXPLAIN ANALYZE SELECT str1 AS a, num AS b FROM docs");
    ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
    EXPECT_EQ(AnalyzeCounter(*analyzed, "columnar_hits="), 1500u * 2)
        << AnalyzeText(*analyzed);
  }
}

TEST_F(ColumnarDifferentialTest, StripTargetsUnderMultiSourceOrRankedReads) {
  // A covered chunk serves an extraction group from strips only when every
  // reader is a simple one-variant column. Here str1 and num have strips,
  // but one of them is read by a multi-source column (num flipped to
  // materialized and dirty: its empty column, then the reservoir) or by a
  // ranked one (str1 gained an int variant after the shred), so the group
  // reads the reservoir for every lane, the simple columns beside it too.
  nb::Config config;
  config.num_records = 2500;
  config.seed = 13;
  const std::vector<Value> docs = nb::Generate(config);
  for (int degree : {1, ParallelDegree()}) {
    SCOPED_TRACE("degree " + std::to_string(degree));
    SinewDb db(MakeOptions(degree, /*strips=*/true));
    ASSERT_TRUE(db.LoadDocuments(kTable, docs).ok());
    ASSERT_TRUE(db.BuildColumnarSegments(kTable).ok());
    const std::vector<std::string> queries = {
        "SELECT num AS n, str1 AS s, thousandth AS t FROM docs",
        "SELECT str1 AS s, thousandth AS t FROM docs WHERE num < 30000",
        "SELECT thousandth AS t, COUNT(*) AS c FROM docs "
        "WHERE num >= 0 GROUP BY thousandth",
    };
    for (const std::string& sql : queries) ExpectOracleAnswer(&db, sql);

    ASSERT_TRUE(db.ForceMaterialization(kTable, "num", true).ok());
    Result<engine::Table*> table = db.engine()->catalog()->GetTable(kTable);
    ASSERT_TRUE(table.ok()) << table.status().ToString();
    ASSERT_NE((*table)->ColumnarSegmentSnapshot(), nullptr);
    const std::string mixed = queries[0];
    Result<engine::QueryResult> analyzed =
        db.Query("EXPLAIN ANALYZE " + mixed);
    ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
    EXPECT_NE(AnalyzeText(*analyzed).find("coalesced=1"), std::string::npos)
        << AnalyzeText(*analyzed);
    EXPECT_EQ(AnalyzeCounter(*analyzed, "columnar_hits="), 0u)
        << AnalyzeText(*analyzed);
    for (const std::string& sql : queries) ExpectOracleAnswer(&db, sql);

    ASSERT_TRUE(db.ForceMaterialization(kTable, "num", false).ok());
    ASSERT_TRUE(
        db.LoadJsonLines(kTable, "{\"str1\": 5, \"num\": 7}\n").ok());
    ASSERT_NE((*table)->ColumnarSegmentSnapshot(), nullptr);
    for (const std::string& sql : queries) ExpectOracleAnswer(&db, sql);
    ExpectOracleAnswer(&db, "SELECT str1 AS s, num AS n FROM docs "
                            "WHERE str1 IS NOT NULL AND num < 5000");
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
  // The name is the old contract's, under which a value update detached
  // the columnar segment. It now stays attached: the updated row is stale
  // and read from its bytes (never from its strip values), and every other
  // row still reads strips. Fresh dbs so the shared fixture stays cold.
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
  Result<engine::QueryResult> after = strips.Query("EXPLAIN ANALYZE " + sql);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(AnalyzeCounter(*after, "stale="), 1u) << AnalyzeText(*after);
  EXPECT_EQ(AnalyzeCounter(*after, "columnar_hits="), 2u * 2499)
      << AnalyzeText(*after);
}

// ---- stale rows: covered rows written since the shred ----
//
// A write to a covered row leaves the segment attached and marks the row
// stale; the scan reads stale rows from their bytes and every other covered
// row from strips. Each case runs at Gather degree 1 and ParallelDegree(),
// and where it says so over reservoir strips (the keys stay virtual) and
// over physical strips (the keys materialized), against the oracle.

/// A rid-correlated corpus: seq = row id, tag cycling through seven values.
std::string SeqDocs(int from, int to) {
  std::ostringstream jsonl;
  for (int i = from; i < to; ++i) {
    jsonl << "{\"seq\": " << i << ", \"tag\": \"t" << i % 7 << "\"}\n";
  }
  return jsonl.str();
}

/// Loads SeqDocs(0, rows) into `db`, materializes seq and tag when
/// `physical`, and shreds.
void LoadAndShredSeq(SinewDb* db, int rows, bool physical) {
  ASSERT_TRUE(db->LoadJsonLines("docs", SeqDocs(0, rows)).ok());
  if (physical) {
    for (const char* key : {"seq", "tag"}) {
      ASSERT_TRUE(db->ForceMaterialization("docs", key, true).ok());
    }
    ASSERT_TRUE(db->MaterializeAll("docs").ok());
  }
  ASSERT_TRUE(db->BuildColumnarSegments("docs").ok());
}

std::shared_ptr<const engine::ColumnarSegment> DocsSegment(SinewDb* db) {
  Result<engine::Table*> table = db->engine()->catalog()->GetTable("docs");
  return table.ok() ? (*table)->ColumnarSegmentSnapshot() : nullptr;
}

TEST_F(ColumnarDifferentialTest, StaleRowMovedIntoASkippableStripRange) {
  // Every strip's zone map excludes [5000, 5010] until an UPDATE moves one
  // row of strip 0 into it: that strip now holds a stale row and is never
  // skipped, and the others still are.
  const std::string sql =
      "SELECT seq AS s, tag AS t FROM docs WHERE seq BETWEEN 5000 AND 5010";
  for (bool physical : {false, true}) {
    for (int degree : {1, ParallelDegree()}) {
      SCOPED_TRACE(std::string(physical ? "physical" : "reservoir") +
                   " strips, degree " + std::to_string(degree));
      SinewDb db(MakeOptions(degree, /*strips=*/true));
      ASSERT_NO_FATAL_FAILURE(LoadAndShredSeq(&db, 4096, physical));
      Result<engine::QueryResult> before = db.Query("EXPLAIN ANALYZE " + sql);
      ASSERT_TRUE(before.ok()) << before.status().ToString();
      EXPECT_EQ(AnalyzeCounter(*before, "zone_skips="), 4u)
          << AnalyzeText(*before);
      Result<engine::QueryResult> updated =
          db.Query("UPDATE docs SET seq = 5005 WHERE seq = 100");
      ASSERT_TRUE(updated.ok()) << updated.status().ToString();
      ASSERT_NE(DocsSegment(&db), nullptr);
      Result<engine::QueryResult> after = db.Query("EXPLAIN ANALYZE " + sql);
      ASSERT_TRUE(after.ok()) << after.status().ToString();
      EXPECT_EQ(AnalyzeCounter(*after, "zone_skips="), 3u)
          << AnalyzeText(*after);
      EXPECT_EQ(AnalyzeCounter(*after, "stale="), 1u) << AnalyzeText(*after);
      Result<engine::QueryResult> got = db.Query(sql);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(got->rows.size(), 1u);
      ExpectOracleAnswer(&db, sql);
      ExpectOracleAnswer(&db, "SELECT COUNT(*) FROM docs WHERE seq < 200");
    }
  }
}

TEST_F(ColumnarDifferentialTest, StaleRowsAtChunkAndSegmentEdges) {
  // The segment covers 2500 rows (its last strip partial) and 700 hot rows
  // lie past it. Rows at both edges of every covered chunk and of the
  // segment are updated, and two hot rows too: a covered round ends before
  // each stale row, which is read from its bytes in a round of its own.
  const std::vector<int> edges = {0,    1,    1023, 1024, 1025,
                                  2047, 2048, 2498, 2499};
  std::string in_list;
  for (int seq : edges) {
    in_list += (in_list.empty() ? "" : ", ") + std::to_string(seq);
  }
  for (bool physical : {false, true}) {
    for (int degree : {1, ParallelDegree()}) {
      SCOPED_TRACE(std::string(physical ? "physical" : "reservoir") +
                   " strips, degree " + std::to_string(degree));
      SinewDb db(MakeOptions(degree, /*strips=*/true));
      ASSERT_NO_FATAL_FAILURE(LoadAndShredSeq(&db, 2500, physical));
      ASSERT_TRUE(db.LoadJsonLines("docs", SeqDocs(2500, 3200)).ok());
      Result<engine::QueryResult> updated = db.Query(
          "UPDATE docs SET tag = 'edge' WHERE seq IN (" + in_list +
          ", 2500, 3199)");
      ASSERT_TRUE(updated.ok()) << updated.status().ToString();
      EXPECT_EQ(updated->rows[0][0].int_value(),
                static_cast<int64_t>(edges.size()) + 2);
      ASSERT_NE(DocsSegment(&db), nullptr);
      EXPECT_EQ(DocsSegment(&db)->row_count(), 2500u);
      const std::string projection = "SELECT seq AS s, tag AS t FROM docs";
      Result<engine::QueryResult> analyzed =
          db.Query("EXPLAIN ANALYZE " + projection);
      ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
      EXPECT_EQ(AnalyzeCounter(*analyzed, "stale="), edges.size())
          << AnalyzeText(*analyzed);
#if !defined(SINEW_METRICS_DISABLED)
      Result<engine::QueryResult> walked = db.Query(
          "SELECT value FROM sinew_metrics "
          "WHERE name = 'strips.stale_rows_walked'");
      ASSERT_TRUE(walked.ok()) << walked.status().ToString();
      ASSERT_EQ(walked->rows.size(), 1u);
      EXPECT_GE(walked->rows[0][0].AsDouble(),
                static_cast<double>(edges.size()));
#endif
      for (const std::string& sql : {
               projection,
               std::string("SELECT seq AS s FROM docs WHERE tag = 'edge'"),
               std::string("SELECT * FROM docs WHERE tag = 'edge' OR "
                           "seq BETWEEN 1020 AND 1030"),
               std::string("SELECT tag AS t, COUNT(*) AS c FROM docs "
                           "GROUP BY tag"),
               std::string("SELECT seq AS s, tag AS t FROM docs "
                           "WHERE seq >= 2040 AND tag <> 't3'"),
           }) {
        ExpectOracleAnswer(&db, sql);
      }
    }
  }
}

TEST_F(ColumnarDifferentialTest, MaterializerMovesCoveredRows) {
  // The materializer moves num out of the reservoir of the covered rows it
  // reaches, one row write each: those rows are stale, the segment stays
  // attached, and every answer matches the oracle part way through the
  // move, after it, and back the other way.
  nb::Config config;
  config.num_records = 2500;
  config.seed = 17;
  const std::vector<Value> docs = nb::Generate(config);
  const std::vector<std::string> queries = {
      "SELECT num AS n, str1 AS s, thousandth AS t FROM docs",
      "SELECT str1 AS s FROM docs WHERE num < 20000",
      "SELECT str2 AS s, dyn1 AS d FROM docs WHERE num BETWEEN 100 AND 9000",
      "SELECT thousandth AS t, COUNT(*) AS c FROM docs GROUP BY thousandth",
  };
  for (int degree : {1, ParallelDegree()}) {
    SCOPED_TRACE("degree " + std::to_string(degree));
    SinewDb db(MakeOptions(degree, /*strips=*/true));
    ASSERT_TRUE(db.LoadDocuments(kTable, docs).ok());
    ASSERT_TRUE(db.BuildColumnarSegments(kTable).ok());
    ASSERT_TRUE(db.ForceMaterialization(kTable, "num", true).ok());
    Result<uint64_t> moved = db.MaterializeStep(kTable, 1500);
    ASSERT_TRUE(moved.ok()) << moved.status().ToString();
    ASSERT_NE(DocsSegment(&db), nullptr);
    Result<engine::QueryResult> analyzed =
        db.Query("EXPLAIN ANALYZE " + queries[0]);
    ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
    EXPECT_GT(AnalyzeCounter(*analyzed, "stale="), 1000u)
        << AnalyzeText(*analyzed);
    for (const std::string& sql : queries) ExpectOracleAnswer(&db, sql);
    ASSERT_TRUE(db.MaterializeAll(kTable).ok());
    for (const std::string& sql : queries) ExpectOracleAnswer(&db, sql);
    ASSERT_TRUE(db.ForceMaterialization(kTable, "num", false).ok());
    ASSERT_TRUE(db.MaterializeStep(kTable, 700).ok());
    for (const std::string& sql : queries) ExpectOracleAnswer(&db, sql);
  }
}

TEST_F(ColumnarDifferentialTest, DirtyColumnAfterAHotLoadReadsItsStrip) {
  // str1 and num are materialized and clean when the segment is shredded,
  // so each has a physical strip. Loading H more documents leaves both
  // dirty (their values land in the reservoir of the new rows), and k
  // covered rows are updated. A covered row that is not stale holds str1
  // in its column only, so its filter lane reads the column's strip with
  // no reservoir walk: the filter phase walks and decodes the hot and the
  // stale rows alone.
  constexpr uint64_t kHot = 300;
  nb::Config config;
  config.num_records = 2500;
  config.seed = 19;
  const std::vector<Value> cold = nb::Generate(config);
  config.num_records = kHot;
  config.seed = 20;
  const std::vector<Value> hot = nb::Generate(config);
  auto str1 = [](const Value& doc) { return doc.Find("str1")->string_value(); };
  for (int degree : {1, ParallelDegree()}) {
    SCOPED_TRACE("degree " + std::to_string(degree));
    SinewDb db(MakeOptions(degree, /*strips=*/true));
    ASSERT_TRUE(db.LoadDocuments(kTable, cold).ok());
    for (const char* key : {"str1", "num"}) {
      ASSERT_TRUE(db.ForceMaterialization(kTable, key, true).ok());
    }
    ASSERT_TRUE(db.MaterializeAll(kTable).ok());
    ASSERT_TRUE(db.BuildColumnarSegments(kTable).ok());
    // The covered rows the UPDATE below writes: the hot rows it also
    // matches lie past the segment and are never stale.
    const std::string where = "str1 IN ('" + str1(cold[10]) + "', '" +
                              str1(cold[1500]) + "', '" + str1(cold[2400]) +
                              "')";
    Result<engine::QueryResult> covered =
        db.Query("SELECT COUNT(*) FROM docs WHERE " + where);
    ASSERT_TRUE(covered.ok()) << covered.status().ToString();
    const uint64_t k = static_cast<uint64_t>(covered->rows[0][0].int_value());
    ASSERT_GE(k, 3u);
    ASSERT_TRUE(db.LoadDocuments(kTable, hot).ok());
    Result<engine::QueryResult> updated =
        db.Query("UPDATE docs SET num = 5 WHERE " + where);
    ASSERT_TRUE(updated.ok()) << updated.status().ToString();
    ASSERT_GE(static_cast<uint64_t>(updated->rows[0][0].int_value()), k);
    const std::string q5 =
        "SELECT * FROM docs WHERE str1 = '" + str1(cold[700]) + "'";
    Result<engine::QueryResult> analyzed = db.Query("EXPLAIN ANALYZE " + q5);
    ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
    const std::string text = AnalyzeText(*analyzed);
    EXPECT_LE(AnalyzeCounter(*analyzed, "walked="), kHot + k) << text;
    EXPECT_LE(AnalyzeCounter(*analyzed, "decodes="), kHot + k) << text;
    EXPECT_EQ(AnalyzeCounter(*analyzed, "stale="), k) << text;
    EXPECT_GE(AnalyzeCounter(*analyzed, "strip_cols="), 1u) << text;
    for (const std::string& sql : {
             q5,
             "SELECT * FROM docs WHERE str1 = '" + str1(hot[5]) + "'",
             std::string("SELECT str1 AS s, num AS n FROM docs "
                         "WHERE num < 3000"),
             std::string("SELECT num AS n, COUNT(*) AS c FROM docs "
                         "WHERE num = 5 GROUP BY num"),
         }) {
      ExpectOracleAnswer(&db, sql);
    }
  }
}

TEST_F(ColumnarDifferentialTest, ReopenShredsOverReplayedUpdates) {
  // A flushed store, then updated on covered rows with those updates only
  // in its WAL. Reopening replays the updates and then shreds the table;
  // the answers must be the updated rows', served from strips.
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("sinew_stale_reopen_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);
  DurableDbOptions options;
  options.compact_on_flush = false;  // keep seq/tag in reservoir strips
  {
    options.sinew = MakeOptions(1, /*strips=*/true);
    Result<std::unique_ptr<DurableDb>> db = DurableDb::Open(dir, options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE((*db)->LoadJsonLines(kTable, SeqDocs(0, 3000)).ok());
    ASSERT_TRUE((*db)->Flush().ok());
    for (const char* sql :
         {"UPDATE docs SET tag = 'replayed' WHERE seq IN (5, 1500, 2999)",
          "UPDATE docs SET seq = seq + 10000 WHERE seq BETWEEN 1000 AND 1010"}) {
      ASSERT_TRUE((*db)->Query(sql).ok()) << sql;
    }
    ASSERT_TRUE((*db)->Close().ok());  // the updates stay in the WAL
  }
  for (int degree : {1, ParallelDegree()}) {
    SCOPED_TRACE("degree " + std::to_string(degree));
    const std::string copy = dir + "_" + std::to_string(degree);
    std::filesystem::remove_all(copy);
    std::filesystem::copy(dir, copy,
                          std::filesystem::copy_options::recursive);
    options.sinew = MakeOptions(degree, /*strips=*/true);
    Result<std::unique_ptr<DurableDb>> db = DurableDb::Open(copy, options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    EXPECT_EQ((*db)->open_info().replayed_records, 2u);
    Result<engine::QueryResult> analyzed = (*db)->Query(
        "EXPLAIN ANALYZE SELECT seq AS s, tag AS t FROM docs");
    ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
    EXPECT_NE(AnalyzeText(*analyzed).find("walked=0+0 strip_cols=0+2"),
              std::string::npos)
        << AnalyzeText(*analyzed);
    for (const std::string& sql : {
             std::string("SELECT seq AS s, tag AS t FROM docs"),
             std::string("SELECT seq AS s FROM docs WHERE tag = 'replayed'"),
             std::string("SELECT COUNT(*) FROM docs WHERE seq >= 10000"),
             std::string("SELECT tag AS t FROM docs WHERE seq BETWEEN 995 "
                         "AND 1015"),
         }) {
      ExpectOracleAnswer((*db)->db(), sql);
    }
    Result<engine::QueryResult> tagged = (*db)->Query(
        "SELECT COUNT(*) FROM docs WHERE tag = 'replayed'");
    ASSERT_TRUE(tagged.ok()) << tagged.status().ToString();
    EXPECT_EQ(tagged->rows[0][0].int_value(), 3);
    ASSERT_TRUE((*db)->Close().ok());
    std::filesystem::remove_all(copy);
  }
  std::filesystem::remove_all(dir);
}

// ---- physical strips: materialized scalar columns read from strips ----

/// Materialized str1/str2/num/thousandth and the NULL-heavy text column
/// sparse_110 (present in ~1% of rows) become physical columns, which the
/// shredder strips by column name. Q1/Q5/Q6/Q11-shaped queries over them
/// must give the scalar oracle's answer (it reads stored rows only) at
/// Gather degree 1 and ParallelDegree(), in every state a physical strip
/// can be in: attached over cold rows, with a hot tail past it, next to a
/// dirty column, detached by an UPDATE, still attached over a deleted row,
/// rebuilt after a dematerialization and rebuilt by a reopen.
class PhysicalStripsTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kRecords = 2500;  // 3 strips, the last partial
  static constexpr const char* kTable = "docs";

  void SetUp() override {
    nb::Config config;
    config.num_records = kRecords;
    config.seed = 20141117;
    docs_ = nb::Generate(config);
    params_ = nb::MakeQueryParams(config);
    for (int degree : {1, ParallelDegree()}) {
      dbs_.push_back(std::make_unique<SinewDb>(
          PhysicalOptions(degree)));
      SinewDb* db = dbs_.back().get();
      ASSERT_TRUE(db->LoadDocuments(kTable, docs_).ok());
      Materialize(db, kPhysicalKeys, true);
      ASSERT_TRUE(db->BuildColumnarSegments(kTable).ok());
    }
  }

  static SinewOptions PhysicalOptions(int parallelism) {
    SinewOptions options;
    options.parallelism = parallelism;
    options.planner.parallel_min_rows = 1;  // parallel plans at test scale
    return options;
  }

  static void Materialize(SinewDb* db, const std::vector<std::string>& keys,
                          bool materialized) {
    for (const std::string& key : keys) {
      Status st = db->ForceMaterialization(kTable, key, materialized);
      ASSERT_TRUE(st.ok()) << key << ": " << st.ToString();
    }
    Status moved = db->MaterializeAll(kTable);
    ASSERT_TRUE(moved.ok()) << moved.ToString();
  }

  static std::shared_ptr<const engine::ColumnarSegment> Segment(SinewDb* db) {
    Result<engine::Table*> table = db->engine()->catalog()->GetTable(kTable);
    return table.ok() ? (*table)->ColumnarSegmentSnapshot() : nullptr;
  }

  static bool HasPhysicalStrip(SinewDb* db, const std::string& column) {
    std::shared_ptr<const engine::ColumnarSegment> seg = Segment(db);
    if (seg == nullptr) return false;
    for (const engine::StripColumn& col : seg->physical()) {
      if (col.source_column == column) return true;
    }
    return false;
  }

  std::vector<std::string> Queries() const {
    const std::string q6 = std::to_string(params_.q6_lo) + " AND " +
                           std::to_string(params_.q6_hi);
    return {
        // Q1: physical columns in the output phase only.
        "SELECT str1, num FROM docs",
        // Q5 / Q6: SELECT * behind a physical text / int filter.
        "SELECT * FROM docs WHERE str1 = '" + params_.q5_str1 + "'",
        "SELECT * FROM docs WHERE num BETWEEN " + q6,
        // A wider range mixing both phases, and a conjunct on two columns.
        "SELECT str2, thousandth, num FROM docs WHERE num < 20000 AND "
        "thousandth >= 500",
        // Q11: a self-join whose t2 side scans every row.
        "SELECT t1.num, t1.\"nested_obj.str\", t2.num "
        "FROM docs t1, docs t2 "
        "WHERE t1.\"nested_obj.str\" = t2.str1 AND t1.num BETWEEN " +
            std::to_string(params_.q11_lo) + " AND " +
            std::to_string(params_.q11_hi),
        // The NULL-heavy text column: equality, presence and absence.
        "SELECT * FROM docs WHERE sparse_110 = '" + params_.q9_value + "'",
        "SELECT sparse_110, num FROM docs WHERE sparse_110 IS NOT NULL",
        "SELECT COUNT(*) FROM docs WHERE sparse_110 IS NULL AND num >= 0",
    };
  }

  /// Every query on every db gives the oracle's multiset of rows.
  void ExpectOracleAnswers(const std::string& state) {
    for (size_t d = 0; d < dbs_.size(); ++d) {
      SinewDb* db = dbs_[d].get();
      for (const std::string& sql : Queries()) {
        SCOPED_TRACE(state + " / degree " + std::to_string(d == 0 ? 1 : ParallelDegree()) +
                     ": " + sql);
        Result<engine::QueryResult> golden = oracle::GoldenQuery(db, sql);
        Result<engine::QueryResult> got = db->Query(sql);
        ASSERT_TRUE(golden.ok()) << golden.status().ToString();
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        EXPECT_EQ(CanonicalRows(*got), CanonicalRows(*golden));
      }
    }
  }

  void ApplyEverywhere(const std::string& sql) {
    for (const std::unique_ptr<SinewDb>& db : dbs_) {
      Result<engine::QueryResult> r = db->Query(sql);
      ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    }
  }

  static const std::vector<std::string> kPhysicalKeys;
  std::vector<Value> docs_;
  nb::QueryParams params_;
  std::vector<std::unique_ptr<SinewDb>> dbs_;
};

const std::vector<std::string> PhysicalStripsTest::kPhysicalKeys = {
    "str1", "str2", "num", "thousandth", "sparse_110"};

TEST_F(PhysicalStripsTest, ColdRowsReadFromStrips) {
  for (const std::unique_ptr<SinewDb>& db : dbs_) {
    for (const std::string& key : kPhysicalKeys) {
      EXPECT_TRUE(HasPhysicalStrip(db.get(), key)) << key;
    }
  }
  ExpectOracleAnswers("cold");
  // Q5's filter column comes from its strip: the filter phase walks no row
  // bytes at all; only the survivors' output columns are walked.
  Result<engine::QueryResult> analyzed = dbs_[0]->Query(
      "EXPLAIN ANALYZE SELECT * FROM docs WHERE str1 = '" + params_.q5_str1 +
      "'");
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  std::string text;
  for (const auto& row : analyzed->rows) text += row[0].str();
  EXPECT_NE(text.find("walked=0+"), std::string::npos) << text;
  EXPECT_EQ(AnalyzeCounter(*analyzed, "strip_cols="), 1u) << text;
  // Q1 reads both its columns from strips in the output phase.
  Result<engine::QueryResult> q1 =
      dbs_[0]->Query("EXPLAIN ANALYZE SELECT str1, num FROM docs");
  ASSERT_TRUE(q1.ok()) << q1.status().ToString();
  text.clear();
  for (const auto& row : q1->rows) text += row[0].str();
  EXPECT_NE(text.find("walked=0+0 strip_cols=0+2"), std::string::npos)
      << text;
}

TEST_F(PhysicalStripsTest, HotTailPastTheSegment) {
  nb::Config config;
  config.num_records = 700;
  config.seed = 99;
  const std::vector<Value> hot = nb::Generate(config);
  for (const std::unique_ptr<SinewDb>& db : dbs_) {
    ASSERT_TRUE(db->LoadDocuments(kTable, hot).ok());
    ASSERT_NE(Segment(db.get()), nullptr);
    EXPECT_EQ(Segment(db.get())->row_count(), kRecords);
  }
  ExpectOracleAnswers("hot tail");
}

TEST_F(PhysicalStripsTest, DirtyColumnMidMaterialization) {
  // "bool" gets a physical column but only half its values move before the
  // re-shred: the dirty column has no strip (its value is split between
  // the column and the reservoir), while the clean columns keep theirs.
  for (const std::unique_ptr<SinewDb>& db : dbs_) {
    ASSERT_TRUE(db->ForceMaterialization(kTable, "bool", true).ok());
    Result<uint64_t> moved = db->MaterializeStep(kTable, kRecords / 2);
    ASSERT_TRUE(moved.ok()) << moved.status().ToString();
    ASSERT_TRUE(db->BuildColumnarSegments(kTable).ok());
    EXPECT_FALSE(HasPhysicalStrip(db.get(), "bool"));
    EXPECT_TRUE(HasPhysicalStrip(db.get(), "str1"));
  }
  ExpectOracleAnswers("dirty column");
  for (const std::unique_ptr<SinewDb>& db : dbs_) {
    for (const std::string& sql :
         {std::string("SELECT bool, num FROM docs WHERE num < 30000"),
          std::string("SELECT str1 FROM docs WHERE bool = TRUE AND "
                      "thousandth < 100")}) {
      SCOPED_TRACE(sql);
      Result<engine::QueryResult> golden = oracle::GoldenQuery(db.get(), sql);
      Result<engine::QueryResult> got = db->Query(sql);
      ASSERT_TRUE(golden.ok()) << golden.status().ToString();
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(CanonicalRows(*got), CanonicalRows(*golden));
    }
  }
}

TEST_F(PhysicalStripsTest, UpdateDetachesTheSegment) {
  // The name is the old contract's, under which an UPDATE detached the
  // segment. It now stays attached: the k updated rows are stale and read
  // from their bytes, and the re-shred makes them cold again.
  const std::string where = "num BETWEEN " + std::to_string(params_.q6_lo) +
                            " AND " + std::to_string(params_.q6_hi);
  Result<engine::QueryResult> matching =
      dbs_[0]->Query("SELECT COUNT(*) FROM docs WHERE " + where);
  ASSERT_TRUE(matching.ok()) << matching.status().ToString();
  const uint64_t k = static_cast<uint64_t>(matching->rows[0][0].int_value());
  ASSERT_GT(k, 0u);
  ApplyEverywhere("UPDATE docs SET str1 = 'changed', num = 7 WHERE " + where);
  for (const std::unique_ptr<SinewDb>& db : dbs_) {
    EXPECT_NE(Segment(db.get()), nullptr);
    EXPECT_TRUE(HasPhysicalStrip(db.get(), "str1"));
    // Q1 reads both columns from strips but walks the stale rows' bytes.
    Result<engine::QueryResult> q1 =
        db->Query("EXPLAIN ANALYZE SELECT str1, num FROM docs");
    ASSERT_TRUE(q1.ok()) << q1.status().ToString();
    const std::string text = AnalyzeText(*q1);
    EXPECT_NE(text.find("walked=0+" + std::to_string(k) +
                        " strip_cols=0+2 stale=" + std::to_string(k) + ")"),
              std::string::npos)
        << text;
  }
  ExpectOracleAnswers("after update");
  // Re-shredding picks the new values up.
  for (const std::unique_ptr<SinewDb>& db : dbs_) {
    ASSERT_TRUE(db->BuildColumnarSegments(kTable).ok());
    EXPECT_TRUE(HasPhysicalStrip(db.get(), "str1"));
    Result<engine::QueryResult> changed =
        db->Query("SELECT num FROM docs WHERE str1 = 'changed'");
    ASSERT_TRUE(changed.ok()) << changed.status().ToString();
    for (const auto& row : changed->rows) {
      EXPECT_EQ(row[0].int_value(), 7);
    }
  }
  ExpectOracleAnswers("re-shredded after update");
}

TEST_F(PhysicalStripsTest, DeletedCoveredRowsStayDeleted) {
  // A delete leaves the segment attached; the strips still hold the deleted
  // rows' values, so the scan must skip those rows before reading strips.
  ApplyEverywhere("DELETE FROM docs WHERE str1 = '" + params_.q5_str1 + "'");
  ApplyEverywhere("DELETE FROM docs WHERE thousandth < 10");
  for (const std::unique_ptr<SinewDb>& db : dbs_) {
    EXPECT_TRUE(HasPhysicalStrip(db.get(), "str1"));
    Result<engine::QueryResult> gone = db->Query(
        "SELECT * FROM docs WHERE str1 = '" + params_.q5_str1 + "'");
    ASSERT_TRUE(gone.ok()) << gone.status().ToString();
    EXPECT_TRUE(gone->rows.empty());
  }
  ExpectOracleAnswers("after delete");
}

TEST_F(PhysicalStripsTest, DematerializedColumnLosesItsStrip) {
  // Moving str2 back into the reservoir drops its column, which detaches
  // the segment; the re-shred strips it as a reservoir attribute instead.
  for (const std::unique_ptr<SinewDb>& db : dbs_) {
    Materialize(db.get(), {"str2"}, false);
    ASSERT_TRUE(db->BuildColumnarSegments(kTable).ok());
    EXPECT_FALSE(HasPhysicalStrip(db.get(), "str2"));
    EXPECT_TRUE(HasPhysicalStrip(db.get(), "str1"));
  }
  ExpectOracleAnswers("after dematerialization");
}

TEST_F(PhysicalStripsTest, ReopenRebuildsPhysicalStripsFromTheImage) {
  // Strips never reach disk; a reopened store shreds the physical columns
  // from the loaded rows.
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("sinew_physical_strips_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);
  DurableDbOptions options;
  options.sinew = PhysicalOptions(1);
  options.compact_on_flush = false;  // keep the forced physical design
  {
    Result<std::unique_ptr<DurableDb>> db = DurableDb::Open(dir, options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE((*db)->LoadDocuments(kTable, docs_).ok());
    Materialize((*db)->db(), kPhysicalKeys, true);
    ASSERT_TRUE((*db)->Flush().ok());
    ASSERT_TRUE((*db)->Close().ok());
  }
  dbs_.clear();
  for (int degree : {1, ParallelDegree()}) {
    options.sinew = PhysicalOptions(degree);
    Result<std::unique_ptr<DurableDb>> db = DurableDb::Open(dir, options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    EXPECT_EQ((*db)->open_info().replayed_records, 0u);
    for (const std::string& key : kPhysicalKeys) {
      EXPECT_TRUE(HasPhysicalStrip((*db)->db(), key)) << key;
    }
    for (const std::string& sql : Queries()) {
      SCOPED_TRACE("reopened / degree " + std::to_string(degree) + ": " + sql);
      Result<engine::QueryResult> golden =
          oracle::GoldenQuery((*db)->db(), sql);
      Result<engine::QueryResult> got = (*db)->Query(sql);
      ASSERT_TRUE(golden.ok()) << golden.status().ToString();
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(CanonicalRows(*got), CanonicalRows(*golden));
    }
    ASSERT_TRUE((*db)->Close().ok());
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace sinew
