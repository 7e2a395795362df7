// Extraction differential tests: every query must return the scalar
// oracle's multiset of rows (tests/scalar_oracle.h: rewritten expressions
// and scalar EvalExpr over every stored row) while the executor
// produces each virtual attribute as a scan column. The corpus is
// NoBench-shaped — multi-typed keys, nested objects, arrays, sparse/absent
// paths — and its physical design mixes every storage state a scan column
// can come from: dirty partially-materialized columns (the column, falling
// back to the reservoir), the children of a dirty materialized object,
// strips over the cold rows, a hot tail appended past the segment, and a
// second table whose covered rows an UPDATE made stale.
//
// UPDATE and DELETE find their rows with the same scans: each predicate's
// affected count must equal the oracle's row count, and the table must
// diff clean against the oracle afterwards.
//
// Joins are covered too: every join input's scan produces its own virtual
// columns, whether they feed a scan filter, a join key, a residual, a sort
// or the projection above the join. Join queries list a filtered input
// first: the oracle's nested loops run in FROM order.
//
// Each query runs at batch sizes 1, 3 and 1024, serially AND under Gather
// (parallel scan clones extract on their own); SINEW_DIFF_PARALLELISM
// overrides the parallel degree (default 4), and CMake registers the suite a
// second time at degree 2.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "cached_rerun.h"
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
/// dropped — insensitive to row order, column order and (via aliases in the
/// corpus) attribute-id interning order. Doubles rounded to 9 significant
/// digits.
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

class ExtractionDifferentialTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kRecords = 2000;  // ~2 strips of 1024 rows
  static constexpr uint64_t kHotRecords = 300;
  static constexpr const char* kTable = "docs";
  static constexpr const char* kUpdated = "upd";

  static void SetUpTestSuite() {
    nb::Config config;
    config.num_records = kRecords;
    config.seed = 20140622;  // deterministic corpus
    docs_ = new std::vector<Value>(nb::Generate(config));
    params_ = new nb::QueryParams(nb::MakeQueryParams(config));
    config.num_records = kHotRecords;
    config.seed = 8;
    hot_ = new std::vector<Value>(nb::Generate(config));

    dbs_ = new std::vector<Config>();
    for (size_t batch : {1, 3, 1024}) {
      for (int parallelism : {1, ParallelDegree()}) {
        dbs_->push_back(
            Config{new SinewDb(MakeOptions(parallelism, batch)),
                   "batch=" + std::to_string(batch) +
                       (parallelism > 1 ? ", parallel" : ", serial")});
      }
    }
    for (const Config& c : *dbs_) {
      SinewDb* db = c.db;
      ASSERT_NO_FATAL_FAILURE(LoadMixedStorage(db, kTable));
      // A shredded table whose covered rows an UPDATE later makes stale
      // (see RowsAfterUpdateDetachesSegment).
      ASSERT_TRUE(db->LoadDocuments(kUpdated, *docs_).ok());
      Status built = db->BuildColumnarSegments(kUpdated);
      ASSERT_TRUE(built.ok()) << built.ToString();
    }
  }

  static void TearDownTestSuite() {
    for (const Config& c : *dbs_) delete c.db;
    delete dbs_;
    delete params_;
    delete hot_;
    delete docs_;
    dbs_ = nullptr;
    params_ = nullptr;
    hot_ = nullptr;
    docs_ = nullptr;
  }

  /// Loads the corpus into `table` with every storage state: num, str1, the
  /// nested_obj object and the nested_arr array are partially materialized
  /// (a bounded materializer step moves only a prefix of the rows, leaving
  /// the attributes dirty). The shred then covers the cold rows; the hot
  /// tail lands past the segment.
  static void LoadMixedStorage(SinewDb* db, const std::string& table) {
    ASSERT_TRUE(db->LoadDocuments(table, *docs_).ok());
    for (const char* key : {"num", "str1", "nested_obj", "nested_arr"}) {
      ASSERT_TRUE(db->ForceMaterialization(table, key, true).ok());
    }
    Result<uint64_t> moved = db->MaterializeStep(table, kRecords / 4);
    ASSERT_TRUE(moved.ok()) << moved.status().ToString();
    Status built = db->BuildColumnarSegments(table);
    ASSERT_TRUE(built.ok()) << built.ToString();
    ASSERT_TRUE(db->LoadDocuments(table, *hot_).ok());
  }

  static SinewOptions MakeOptions(int parallelism, size_t batch_size) {
    SinewOptions options;
    options.parallelism = parallelism;
    options.exec.batch_size = batch_size;
    // Force parallel plans at test scale.
    options.planner.parallel_min_rows = 1;
    return options;
  }

  static SinewDb* Reference() { return dbs_->front().db; }

  /// Asserts every configuration returns `golden_rows`, and that the plan
  /// leaves no virtual-column reference for the executor to evaluate per
  /// row: every one is a scan column.
  void ExpectRows(const oracle::CachedRun& run,
                  const std::vector<std::string>& golden_rows) {
    const std::string& sql = run.sql;
    for (const Config& c : *dbs_) {
      Result<engine::QueryResult> got = run.Query(c.db);
      ASSERT_TRUE(got.ok()) << c.name << ": " << got.status().ToString();
      EXPECT_EQ(CanonicalRows(*got), golden_rows) << c.name;
      Result<std::string> plan = c.db->Explain(sql);
      ASSERT_TRUE(plan.ok()) << plan.status().ToString();
      EXPECT_EQ(plan->find("->["), std::string::npos)
          << c.name << "\n" << *plan;
    }
  }

  /// Asserts the scan of `sql` runs a compiled filter in every
  /// configuration exactly when `filtered`: the predicate over the virtual
  /// or dirty columns was pushed into the scan and reads them there.
  void ExpectScanFilter(const std::string& sql, bool filtered) {
    for (const Config& c : *dbs_) {
      Result<engine::QueryResult> r = c.db->Query("EXPLAIN ANALYZE " + sql);
      ASSERT_TRUE(r.ok()) << c.name << ": " << r.status().ToString();
      bool scan_filtered = false;
      for (const auto& row : r->rows) {
        const std::string& line = row[0].str();
        scan_filtered |= line.find("Seq Scan") != std::string::npos &&
                         line.find("(bytecode ops=") != std::string::npos;
      }
      EXPECT_EQ(scan_filtered, filtered) << c.name << ": " << sql;
    }
  }

  /// Asserts every configuration returns the golden multiset: the scalar
  /// oracle's, or the reference configuration's for LIMIT.
  /// Each statement runs twice, the second time with other literals
  /// through the plan cache (tests/cached_rerun.h).
  void ExpectSameResults(const std::string& sql) {
    for (const oracle::CachedRun& run : oracle::CachedRuns(sql)) {
      SCOPED_TRACE(run.sql);
      Result<engine::QueryResult> golden =
          oracle::GoldenQuery(Reference(), run.sql);
      ASSERT_TRUE(golden.ok()) << golden.status().ToString();
      ExpectRows(run, CanonicalRows(*golden));
    }
  }

  /// Rows in the golden answer of `sql`: agreement on an empty answer
  /// proves little.
  static size_t GoldenRows(const std::string& sql) {
    Result<engine::QueryResult> golden = oracle::GoldenQuery(Reference(), sql);
    return golden.ok() ? golden->rows.size() : 0;
  }

  /// EXPLAIN ANALYZE counter `key` (e.g. "columnar_hits=") of `sql` on the
  /// reference configuration.
  static uint64_t AnalyzeCounter(const std::string& sql,
                                 const std::string& key) {
    Result<engine::QueryResult> r =
        Reference()->Query("EXPLAIN ANALYZE " + sql);
    if (!r.ok()) return 0;
    std::string text;
    for (const auto& row : r->rows) text += row[0].str() + "\n";
    const size_t pos = text.find(key);
    if (pos == std::string::npos) return 0;
    return std::strtoull(text.c_str() + pos + key.size(), nullptr, 10);
  }

  struct Config {
    SinewDb* db;
    std::string name;
  };
  /// DELETE then UPDATE over `where` on `table`, a fresh mixed-storage
  /// copy of the corpus, in every configuration. The DELETE takes the
  /// matches with bool = true (a delete leaves the segment attached, so the
  /// UPDATE's scan is strip-served too), the UPDATE every match left. Each
  /// affected count must equal the oracle's row count for the same WHERE,
  /// and afterwards the table must diff clean against the oracle.
  void ExpectDml(const std::string& table, const std::string& where) {
    SCOPED_TRACE(where);
    const std::string some = "(" + where + ") AND bool = true";
    for (const Config& c : *dbs_) {
      ASSERT_NO_FATAL_FAILURE(LoadMixedStorage(c.db, table));
    }
    // The find scan mixes strip-served cold lanes with decoded ones.
    const std::string find =
        "SELECT thousandth AS k FROM " + table + " WHERE " + where;
    EXPECT_GT(AnalyzeCounter(find, "columnar_hits="), 0u);
    EXPECT_GT(AnalyzeCounter(find, "decodes="), 0u);
    for (const Config& c : *dbs_) {
      auto expect_count = [&](const std::string& dml,
                              const std::string& match) {
        Result<engine::QueryResult> golden = oracle::ScalarOracleQuery(
            c.db, "SELECT thousandth AS k FROM " + table + " WHERE " + match);
        ASSERT_TRUE(golden.ok()) << golden.status().ToString();
        EXPECT_GT(golden->rows.size(), 0u) << c.name << ": " << dml;
        Result<engine::QueryResult> affected = c.db->Query(dml);
        ASSERT_TRUE(affected.ok()) << c.name << ": " << dml << " -> "
                                   << affected.status().ToString();
        EXPECT_EQ(affected->rows[0][0].int_value(),
                  static_cast<int64_t>(golden->rows.size()))
            << c.name << ": " << dml;
      };
      expect_count("DELETE FROM " + table + " WHERE " + some, some);
      expect_count("UPDATE " + table +
                       " SET str2 = 'dml', num = num + 1000000 WHERE " + where,
                   where);
    }
    ExpectSameResults("SELECT * FROM " + table + " WHERE " + where);
    ExpectSameResults("SELECT str2 AS s, num AS n, thousandth AS k FROM " +
                      table);
  }

  static std::vector<Value>* docs_;
  static std::vector<Value>* hot_;
  static nb::QueryParams* params_;
  static std::vector<Config>* dbs_;
};

std::vector<Value>* ExtractionDifferentialTest::docs_ = nullptr;
std::vector<Value>* ExtractionDifferentialTest::hot_ = nullptr;
nb::QueryParams* ExtractionDifferentialTest::params_ = nullptr;
std::vector<ExtractionDifferentialTest::Config>*
    ExtractionDifferentialTest::dbs_ = nullptr;

TEST_F(ExtractionDifferentialTest, ConfigurationsActuallyDiffer) {
  // Guard against comparing one plan with itself: every configuration's
  // scan carries the virtual columns, and the parallel ones run it below
  // Gather. The fixture's cold rows are served from strips.
  const std::string sql = "SELECT str2 AS a, thousandth AS b FROM docs";
  for (const Config& c : *dbs_) {
    Result<std::string> plan = c.db->Explain(sql);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    EXPECT_NE(plan->find("Seq Scan on docs SinewExtract (attrs=2, sources=1)"),
              std::string::npos)
        << c.name << "\n" << *plan;
    const bool parallel = c.name.find("parallel") != std::string::npos;
    EXPECT_EQ(plan->find("Gather (workers=") != std::string::npos, parallel)
        << c.name << "\n" << *plan;
  }
  EXPECT_GT(AnalyzeCounter(sql, "columnar_hits="), 0u);
}

TEST_F(ExtractionDifferentialTest, MultiAttributeProjection) {
  ExpectSameResults("SELECT str2 AS a, bool AS b, thousandth AS c FROM docs");
}

TEST_F(ExtractionDifferentialTest, NestedObjectProjection) {
  ExpectSameResults(
      "SELECT \"nested_obj.str\" AS ns, \"nested_obj.num\" AS nn, "
      "str2 AS s FROM docs");
}

TEST_F(ExtractionDifferentialTest, MultiTypedKeyProjectionAndFilter) {
  // dyn1 is int / string / bool across rows; dyn2 is string / int.
  ExpectSameResults("SELECT dyn1 AS d1, dyn2 AS d2 FROM docs");
  ExpectSameResults("SELECT dyn1 AS d, str2 AS s FROM docs WHERE dyn1 BETWEEN " +
                    std::to_string(params_->q7_lo) + " AND " +
                    std::to_string(params_->q7_hi));
}

TEST_F(ExtractionDifferentialTest, SparseAndAbsentPaths) {
  // Sparse keys are absent in most rows; a never-interned path is absent in
  // all of them and must come back NULL everywhere, not error.
  ExpectSameResults(
      "SELECT sparse_110 AS a, sparse_119 AS b, str2 AS s FROM docs");
  ExpectSameResults("SELECT " + params_->q9_sparse_key +
                    " AS k, thousandth AS t FROM docs WHERE " +
                    params_->q9_sparse_key + " IS NOT NULL");
}

TEST_F(ExtractionDifferentialTest, FilterSharesDecodeWithProjection) {
  // str2 and thousandth are predicate columns, extracted for every row; the
  // projection reuses str2's column, and bool is extracted for survivors.
  ExpectSameResults("SELECT str2 AS s, bool AS b FROM docs WHERE str2 = '" +
                    params_->q5_str1 + "' OR thousandth < 100");
}

TEST_F(ExtractionDifferentialTest, LoneVirtualPredicateAndLoneProjection) {
  // One predicate site and one projection site, each alone on its side of
  // the filter; and a lone predicate under SELECT *.
  ExpectSameResults("SELECT str2 AS s FROM docs WHERE thousandth < 50");
  ExpectSameResults("SELECT thousandth AS t FROM docs");
  ExpectSameResults("SELECT * FROM docs WHERE " + params_->q9_sparse_key +
                    " = '" + params_->q9_value + "'");
}

TEST_F(ExtractionDifferentialTest, PredicateAndProjectionShareOneAttribute) {
  ExpectSameResults("SELECT thousandth AS t FROM docs WHERE thousandth < 50");
  ExpectSameResults("SELECT str2 AS s, str2 AS again FROM docs WHERE str2 = '" +
                    params_->q5_str1 + "'");
}

TEST_F(ExtractionDifferentialTest, DynBetween) {
  // The multi-typed key has no strips: every lane decodes the reservoir,
  // and the string and bool variants must not satisfy the int range.
  ExpectSameResults("SELECT dyn1 AS d FROM docs WHERE dyn1 BETWEEN " +
                    std::to_string(params_->q7_lo) + " AND " +
                    std::to_string(params_->q7_hi));
  ExpectSameResults("SELECT * FROM docs WHERE dyn1 BETWEEN " +
                    std::to_string(params_->q7_lo) + " AND " +
                    std::to_string(params_->q7_hi));
}

TEST_F(ExtractionDifferentialTest, ArraysAndContainment) {
  ExpectSameResults(
      "SELECT nested_arr AS arr, str2 AS s FROM docs "
      "WHERE array_contains(nested_arr, '" +
      params_->q8_arr_value + "')");
}

TEST_F(ExtractionDifferentialTest, DirtyColumnCoalesce) {
  // str1 is materialized but dirty: its reference reads the physical
  // column, then the reservoir where the column is NULL, and is a scan
  // column like any other.
  ExpectSameResults("SELECT str1 AS s, num AS n FROM docs WHERE str1 = '" +
                    params_->q5_str1 + "'");
  ExpectSameResults(
      "SELECT str1 AS s, str2 AS t, thousandth AS k FROM docs "
      "WHERE num >= 0");
}

TEST_F(ExtractionDifferentialTest, ChildOfDirtyObjectColumn) {
  // nested_obj is mid-materialization: its children read the object column
  // and fall back to the reservoir where the column is NULL — one scan
  // column, no per-row evaluation.
  const std::string sql =
      "SELECT \"nested_obj.str\" AS ns, \"nested_obj.num\" AS nn, "
      "str2 AS s FROM docs WHERE \"nested_obj.num\" < 500";
  ExpectSameResults(sql);
  EXPECT_GT(GoldenRows(sql), 0u);
  ExpectScanFilter(sql, /*filtered=*/true);
  ExpectSameResults("SELECT \"nested_obj.str\" AS ns FROM docs");
  ExpectScanFilter("SELECT \"nested_obj.str\" AS ns FROM docs",
                        /*filtered=*/false);
}

TEST_F(ExtractionDifferentialTest, MultiTypedKeyIsOneScanColumn) {
  // dyn1 in the WHERE clause and the select list: each reference is one
  // scan column taking whichever typed variant a row holds.
  const std::string range = std::to_string(params_->q7_lo) + " AND " +
                            std::to_string(params_->q7_hi);
  for (const std::string& sql : std::vector<std::string>{
           "SELECT dyn1 AS d, str2 AS s FROM docs WHERE dyn1 BETWEEN " + range,
           "SELECT dyn1 AS d, dyn2 AS e FROM docs WHERE dyn1 IS NOT NULL AND "
           "thousandth < 100"}) {
    SCOPED_TRACE(sql);
    ExpectSameResults(sql);
    EXPECT_GT(GoldenRows(sql), 0u);
    ExpectScanFilter(sql, /*filtered=*/true);
  }
  ExpectScanFilter("SELECT dyn1 AS d FROM docs", /*filtered=*/false);
}

TEST_F(ExtractionDifferentialTest, ArrayContainsOverDirtyColumn) {
  // nested_arr is mid-materialization: containment reads the column's
  // serialized array, else the reservoir's, through one raw-bytes column.
  const std::string sql =
      "SELECT str2 AS s, nested_arr AS arr FROM docs "
      "WHERE array_contains(nested_arr, '" +
      params_->q8_arr_value + "')";
  ExpectSameResults(sql);
  EXPECT_GT(GoldenRows(sql), 0u);
  ExpectScanFilter(sql, /*filtered=*/true);
}

TEST_F(ExtractionDifferentialTest, HotTailRowsPastSegment) {
  // The hot tail lies past the segment: each batch splits into
  // strip-served cold lanes and reservoir-served hot lanes, in predicate
  // and projection columns alike.
  ExpectSameResults("SELECT str2 AS s, thousandth AS t FROM docs");
  ExpectSameResults("SELECT str2 AS s, bool AS b FROM docs WHERE "
                    "thousandth >= 990");
  ExpectSameResults("SELECT * FROM docs WHERE thousandth = 7");
  EXPECT_GT(AnalyzeCounter("SELECT str2 AS s FROM docs", "decodes="), 0u);
}

TEST_F(ExtractionDifferentialTest, RowsAfterUpdateDetachesSegment) {
  // The name is the old contract's, under which an UPDATE detached the
  // whole segment. The segment now stays attached: the updated rows are
  // stale and read from their bytes, every other covered row from strips.
  const std::string sql = "SELECT str2 AS s, thousandth AS t FROM upd";
  const uint64_t hits_before = AnalyzeCounter(sql, "columnar_hits=");
  ASSERT_EQ(hits_before, 2 * kRecords);  // two strip-served keys per row
  const uint64_t k = GoldenRows("SELECT thousandth FROM upd WHERE "
                                "thousandth < 20");
  ASSERT_GT(k, 0u);
  for (const Config& c : *dbs_) {
    Result<engine::QueryResult> updated = c.db->Query(
        "UPDATE upd SET str2 = 'updated' WHERE thousandth < 20");
    ASSERT_TRUE(updated.ok()) << updated.status().ToString();
    Result<engine::Table*> table = c.db->engine()->catalog()->GetTable("upd");
    ASSERT_TRUE(table.ok()) << table.status().ToString();
    EXPECT_NE((*table)->ColumnarSegmentSnapshot(), nullptr) << c.name;
  }
  EXPECT_EQ(AnalyzeCounter(sql, "stale="), k);
  EXPECT_EQ(AnalyzeCounter(sql, "columnar_hits="), hits_before - 2 * k);
  ExpectSameResults(sql);
  ExpectSameResults("SELECT * FROM upd WHERE str2 = 'updated'");
  ExpectSameResults("SELECT thousandth AS t FROM upd WHERE str2 = 'updated'");
}

TEST_F(ExtractionDifferentialTest, DmlOverDirtyColumn) {
  // str1 is mid-materialization: the find scan reads the column, then the
  // reservoir where the column is NULL.
  ExpectDml("dml_dirty", "str1 >= 'P'");
}

TEST_F(ExtractionDifferentialTest, DmlOverMultiTypedKey) {
  ExpectDml("dml_dyn", "dyn1 BETWEEN " + std::to_string(params_->q7_lo) +
                           " AND " + std::to_string(params_->q7_hi));
}

TEST_F(ExtractionDifferentialTest, DmlOverChildOfDirtyObject) {
  ExpectDml("dml_child", "\"nested_obj.num\" < 500");
}

TEST_F(ExtractionDifferentialTest, DmlOverStripServedSparseKey) {
  ExpectDml("dml_sparse", "sparse_110 IS NOT NULL");
}

TEST_F(ExtractionDifferentialTest, DmlOverHotTailRows) {
  // The hot tail lies past the segment: the find scan serves cold rows
  // from strips and hot rows from the reservoir.
  ExpectDml("dml_hot", "thousandth >= 950");
}

TEST_F(ExtractionDifferentialTest, DistinctOverStripServedAttributes) {
  for (const char* list : {"thousandth AS t, bool AS b", "str2 AS s"}) {
    const std::string sql =
        std::string("SELECT DISTINCT ") + list + " FROM docs";
    ExpectSameResults(sql);
  }
  EXPECT_GT(AnalyzeCounter("SELECT DISTINCT thousandth AS t FROM docs",
                           "columnar_hits="),
            0u);
}

TEST_F(ExtractionDifferentialTest, AggregationOverVirtualAttributes) {
  ExpectSameResults(
      "SELECT thousandth AS g, COUNT(*) AS c, SUM(num) AS s FROM docs "
      "GROUP BY thousandth");
  ExpectSameResults(
      "SELECT \"nested_obj.str\" AS g, COUNT(*) AS c FROM docs "
      "GROUP BY \"nested_obj.str\"");
}

TEST_F(ExtractionDifferentialTest, OrderByVirtualAttribute) {
  ExpectSameResults(
      "SELECT str2 AS s, thousandth AS t FROM docs "
      "ORDER BY thousandth, str2 LIMIT 50");
}

TEST_F(ExtractionDifferentialTest, SelfJoinOnVirtualKey) {
  // NoBench Q11's shape over the all-virtual table: the filter, both join
  // keys and every projection are scan columns of their own join input.
  const std::string sql =
      "SELECT t1.num AS n1, t1.\"nested_obj.str\" AS ns, t2.num AS n2 "
      "FROM upd t1, upd t2 "
      "WHERE t1.\"nested_obj.str\" = t2.str1 AND t1.num BETWEEN " +
      std::to_string(params_->q11_lo) + " AND " +
      std::to_string(params_->q11_lo + 60);
  ExpectSameResults(sql);
  EXPECT_GT(GoldenRows(sql), 0u);
  Result<std::string> plan = Reference()->Explain(sql);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan->find("Seq Scan on upd t1 (filter: "), std::string::npos)
      << *plan;
  EXPECT_NE(plan->find("Seq Scan on upd t2 SinewExtract (attrs=2"),
            std::string::npos)
      << *plan;
}

TEST_F(ExtractionDifferentialTest, JoinKeyServedFromStrips) {
  const std::string sql =
      "SELECT t1.str2 AS a, t2.str2 AS b, t2.thousandth AS k "
      "FROM docs t1, docs t2 "
      "WHERE t1.thousandth = t2.thousandth AND t1.thousandth < 5";
  ExpectSameResults(sql);
  EXPECT_GT(GoldenRows(sql), 0u);
  EXPECT_GT(AnalyzeCounter(sql, "columnar_hits="), 0u);
}

TEST_F(ExtractionDifferentialTest, JoinInputWithDirtyColumn) {
  // docs.str1 is mid-materialization: its join key reads the column, then
  // the reservoir, as one scan column.
  const std::string sql =
      "SELECT t1.str1 AS s, t1.str2 AS s2, t2.num AS n "
      "FROM upd t2, docs t1 "
      "WHERE t1.str1 = t2.str1 AND t2.thousandth < 10";
  ExpectSameResults(sql);
  EXPECT_GT(GoldenRows(sql), 0u);
}

TEST_F(ExtractionDifferentialTest, VirtualPredicateOnJoinInput) {
  // The multi-typed dyn1 has no strips; its predicate runs in the build
  // input's scan, below the join.
  const std::string sql =
      "SELECT t1.\"nested_obj.num\" AS nn, t2.bool AS b, t2.dyn1 AS d "
      "FROM upd t2, docs t1 "
      "WHERE t1.num = t2.num AND t2.dyn1 BETWEEN " +
      std::to_string(params_->q7_lo) + " AND " +
      std::to_string(params_->q7_hi);
  ExpectSameResults(sql);
  EXPECT_GT(GoldenRows(sql), 0u);
}

TEST_F(ExtractionDifferentialTest, NonEquiResidualOverVirtualColumns) {
  // No equi-join edge: a nested-loop join with the residual on top, reading
  // one virtual column of each input.
  const std::string sql =
      "SELECT t1.num AS a, t2.num AS b FROM upd t1, upd t2 "
      "WHERE t1.thousandth < 3 AND t2.thousandth < 3 AND t1.num < t2.num";
  ExpectSameResults(sql);
  EXPECT_GT(GoldenRows(sql), 0u);
}

TEST_F(ExtractionDifferentialTest, OrderByVirtualAttributeOverJoin) {
  const std::string sql =
      "SELECT t1.str2 AS s, t2.thousandth AS t FROM docs t1, upd t2 "
      "WHERE t1.num = t2.num AND t1.num < 40 ORDER BY t2.thousandth, t1.str2";
  ExpectSameResults(sql);
  EXPECT_GT(GoldenRows(sql), 0u);
  for (const Config& c : *dbs_) {
    Result<engine::QueryResult> got = c.db->Query(sql);
    ASSERT_TRUE(got.ok()) << c.name << ": " << got.status().ToString();
    for (size_t i = 1; i < got->rows.size(); ++i) {
      EXPECT_LE(engine::Datum::Compare(got->rows[i - 1][1], got->rows[i][1]),
                0)
          << c.name << " row " << i;
    }
  }
}

}  // namespace
}  // namespace sinew
