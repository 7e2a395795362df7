// Serial/parallel differential tests: every query in the corpus must return
// the same multiset of rows at parallelism 1 and parallelism N — the scalar
// oracle's (tests/scalar_oracle.h) wherever its reach allows. The corpus
// covers the shapes the Gather operator parallelizes (scans, filters,
// virtual-column extraction through the reservoir, hash aggregation) plus
// shapes that stay serial (joins, ORDER BY) but read through the same
// loader/materializer state.
//
// The parallel degree of the "N" side comes from SINEW_DIFF_PARALLELISM
// (default 4); CMake registers the suite once with the default and once at
// degree 2 so both fan-outs are exercised by ctest.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "engine/table.h"
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

/// One result row as a canonical string: "name=value" pairs sorted by column
/// name, so neither row order nor column order (which depends on attribute
/// interning order, nondeterministic under the parallel loader) matters.
/// Doubles are rounded to 9 significant digits to absorb merge-order
/// differences in parallel SUM/AVG.
///
/// Queries in the corpus alias every projected expression: an unaliased
/// virtual-column projection is named after its rewritten extract call,
/// which embeds the attribute id — and ids are interning-order-dependent.
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

class ParallelDifferentialTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kRecords = 2000;
  static constexpr const char* kTable = "docs";

  static void SetUpTestSuite() {
    nb::Config config;
    config.num_records = kRecords;
    config.seed = 20140622;  // deterministic corpus
    docs_ = new std::vector<Value>(nb::Generate(config));
    params_ = new nb::QueryParams(nb::MakeQueryParams(config));

    serial_ = new SinewDb(MakeOptions(1));
    parallel_ = new SinewDb(MakeOptions(ParallelDegree()));
    for (SinewDb* db : {serial_, parallel_}) {
      ASSERT_TRUE(db->LoadDocuments(kTable, *docs_).ok());
      // Materialize the analyzer's picks so queries read a mix of physical
      // columns and reservoir extraction — the representative state.
      ASSERT_TRUE(db->AnalyzeAndMaterialize(kTable).ok());
    }
  }

  static void TearDownTestSuite() {
    delete parallel_;
    delete serial_;
    delete params_;
    delete docs_;
    parallel_ = serial_ = nullptr;
    params_ = nullptr;
    docs_ = nullptr;
  }

  static SinewOptions MakeOptions(int parallelism) {
    SinewOptions options;
    options.parallelism = parallelism;
    // Force parallel plans at test scale (the default threshold of 8192
    // rows would keep this corpus serial).
    options.planner.parallel_min_rows = 1;
    return options;
  }

  /// Runs `sql` on both instances and asserts each returns the golden
  /// multiset: the scalar oracle's (tests/scalar_oracle.h), or the serial
  /// instance's for LIMIT.
  /// Each statement runs twice, the second time with other literals
  /// through the plan cache (tests/cached_rerun.h).
  void ExpectSameResults(const std::string& sql) {
    for (const oracle::CachedRun& run : oracle::CachedRuns(sql)) {
      SCOPED_TRACE(run.sql);
      Result<engine::QueryResult> golden =
          oracle::GoldenQuery(serial_, run.sql);
      Result<engine::QueryResult> s = run.Query(serial_);
      Result<engine::QueryResult> p = run.Query(parallel_);
      ASSERT_TRUE(golden.ok()) << golden.status().ToString();
      ASSERT_TRUE(s.ok()) << s.status().ToString();
      ASSERT_TRUE(p.ok()) << p.status().ToString();
      EXPECT_EQ(s->rows.size(), p->rows.size());
      const std::vector<std::string> golden_rows = CanonicalRows(*golden);
      EXPECT_EQ(CanonicalRows(*s), golden_rows) << "serial";
      EXPECT_EQ(CanonicalRows(*p), golden_rows) << "parallel";
    }
  }

  static std::vector<Value>* docs_;
  static nb::QueryParams* params_;
  static SinewDb* serial_;
  static SinewDb* parallel_;
};

std::vector<Value>* ParallelDifferentialTest::docs_ = nullptr;
nb::QueryParams* ParallelDifferentialTest::params_ = nullptr;
SinewDb* ParallelDifferentialTest::serial_ = nullptr;
SinewDb* ParallelDifferentialTest::parallel_ = nullptr;

TEST_F(ParallelDifferentialTest, ParallelPlanIsActuallyChosen) {
  // Guard against the whole suite silently comparing serial to serial.
  Result<std::string> plan =
      parallel_->Explain("SELECT str1, num FROM docs WHERE num >= 0");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan->find("Gather (workers="), std::string::npos) << *plan;
  Result<std::string> serial_plan =
      serial_->Explain("SELECT str1, num FROM docs WHERE num >= 0");
  ASSERT_TRUE(serial_plan.ok());
  EXPECT_EQ(serial_plan->find("Gather"), std::string::npos) << *serial_plan;
}

TEST_F(ParallelDifferentialTest, FullProjection) {
  ExpectSameResults("SELECT str1 AS s, num AS n FROM docs");
}

TEST_F(ParallelDifferentialTest, NestedVirtualProjection) {
  ExpectSameResults(
      "SELECT \"nested_obj.str\" AS ns, \"nested_obj.num\" AS nn FROM docs");
}

TEST_F(ParallelDifferentialTest, SparseProjection) {
  ExpectSameResults("SELECT sparse_110 AS a, sparse_119 AS b FROM docs");
  ExpectSameResults("SELECT sparse_110 AS a, sparse_220 AS b FROM docs");
}

TEST_F(ParallelDifferentialTest, StringEqualityFilter) {
  ExpectSameResults("SELECT * FROM docs WHERE str1 = '" + params_->q5_str1 +
                    "'");
}

TEST_F(ParallelDifferentialTest, NumericRangeFilter) {
  ExpectSameResults("SELECT * FROM docs WHERE num BETWEEN " +
                    std::to_string(params_->q6_lo) + " AND " +
                    std::to_string(params_->q6_hi));
}

TEST_F(ParallelDifferentialTest, DynamicTypeFilter) {
  ExpectSameResults("SELECT * FROM docs WHERE dyn1 BETWEEN " +
                    std::to_string(params_->q7_lo) + " AND " +
                    std::to_string(params_->q7_hi));
}

TEST_F(ParallelDifferentialTest, ArrayContainsFilter) {
  ExpectSameResults(
      "SELECT * FROM docs WHERE array_contains(nested_arr, '" +
      params_->q8_arr_value + "')");
}

TEST_F(ParallelDifferentialTest, SparseKeyFilter) {
  ExpectSameResults("SELECT * FROM docs WHERE " + params_->q9_sparse_key +
                    " = '" + params_->q9_value + "'");
}

TEST_F(ParallelDifferentialTest, GroupByCount) {
  ExpectSameResults(
      "SELECT thousandth AS th, COUNT(*) AS c FROM docs WHERE num BETWEEN " +
      std::to_string(params_->q10_lo) + " AND " +
      std::to_string(params_->q10_hi) + " GROUP BY thousandth");
}

TEST_F(ParallelDifferentialTest, GlobalAggregates) {
  // SUM/AVG/MIN/MAX merge per-worker accumulators; COUNT(*) crosses the
  // empty-input path when the filter matches nothing.
  ExpectSameResults(
      "SELECT COUNT(*) AS c, SUM(num) AS s, AVG(num) AS a, MIN(num) AS lo, "
      "MAX(num) AS hi FROM docs");
  ExpectSameResults("SELECT COUNT(*) AS c, SUM(num) AS s FROM docs "
                    "WHERE num < -1");  // empty input
  ExpectSameResults(
      "SELECT bool AS b, COUNT(*) AS c, SUM(thousandth) AS s, "
      "MIN(str1) AS lo, MAX(str1) AS hi FROM docs GROUP BY bool");
}

TEST_F(ParallelDifferentialTest, GroupByHighCardinality) {
  // One group per str1 pool value: exercises the per-worker map merge with
  // many groups rather than a handful.
  ExpectSameResults("SELECT str1 AS k, COUNT(*) AS c, SUM(num) AS s "
                    "FROM docs GROUP BY str1");
}

TEST_F(ParallelDifferentialTest, SelfJoin) {
  ExpectSameResults(
      "SELECT t1.num AS n1, t1.\"nested_obj.str\" AS ns, t2.num AS n2 "
      "FROM docs t1, docs t2 "
      "WHERE t1.\"nested_obj.num\" = t2.num AND t1.num BETWEEN " +
      std::to_string(params_->q11_lo) + " AND " +
      std::to_string(params_->q11_hi));
}

TEST_F(ParallelDifferentialTest, OrderByWithLimitOverParallelScan) {
  // ORDER BY num (unique enough per row id tiebreak not needed: num is not
  // unique, so order only by a deterministic key pair).
  ExpectSameResults(
      "SELECT num AS n, str1 AS s FROM docs ORDER BY num, str1 LIMIT 50");
}

TEST_F(ParallelDifferentialTest, DegreeOneParallelOptionMatchesSerial) {
  // parallelism=1 through the public option must not plan a Gather at all.
  SinewDb db(MakeOptions(1));
  ASSERT_TRUE(db.LoadDocuments(kTable, *docs_).ok());
  Result<std::string> plan = db.Explain("SELECT str1 FROM docs");
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->find("Gather"), std::string::npos);
}

}  // namespace
}  // namespace sinew
