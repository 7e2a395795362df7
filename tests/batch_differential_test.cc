// Batch-size differential tests: every query must return the same multiset
// of rows at every batch size, serially and under Gather, and match the
// scalar oracle (tests/scalar_oracle.h) wherever its reach allows. The
// corpus is the NoBench generator's, and the query set is every NoBench task
// shape (Q1..Q11: projections, deep paths, multi-typed filters, array
// containment, group-by, joins) plus targeted shapes batching could get
// wrong: LIMIT truncating mid-batch, predicates that empty a batch's
// selection vector entirely, DISTINCT, ORDER BY, and plan-time-folded
// constant predicates.
//
// Batch size 3 is deliberately adversarial at 2000 rows: every morsel ends
// in a partial batch, LIMIT 7 splits a batch, and the queue fills. 1024 is
// oversized; 1 makes one-row batches through the same code.
// SINEW_DIFF_PARALLELISM overrides the Gather degree (default 4), and CMake
// registers the suite a second time at degree 2. Under SINEW_SANITIZE=thread
// builds the suite doubles as a race detector for the batch queue.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "cached_rerun.h"
#include "scalar_oracle.h"
#include "typed_scan_corpus.h"
#include "sinew/sinew_db.h"
#include "workloads/nobench/generator.h"
#include "workloads/nobench/runners.h"

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
/// dropped — insensitive to row and column order. Doubles rounded to 9
/// significant digits.
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

std::vector<std::string> RenderValues(const std::vector<Value>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const Value& v : rows) out.push_back(v.ToJson());
  return out;
}

class BatchDifferentialTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kRecords = 2000;

  struct NamedRunner {
    std::string label;
    size_t batch_size = 1;
    int parallelism = 1;
    nb::SinewRunner* runner = nullptr;
  };

  static void SetUpTestSuite() {
    nb::Config config;
    config.num_records = kRecords;
    config.seed = 20140622;  // deterministic corpus
    docs_ = new std::vector<Value>(nb::Generate(config));
    params_ = new nb::QueryParams(nb::MakeQueryParams(config));

    const int deg = ParallelDegree();
    configs_ = new std::vector<NamedRunner>{
        // Index 0 answers LIMIT, the one shape outside the oracle.
        {"batch1-serial", 1, 1},
        {"batch3-serial", 3, 1},
        {"batch1024-serial", 1024, 1},
        {"batch1-parallel", 1, deg},
        {"batch3-parallel", 3, deg},
        {"batch1024-parallel", 1024, deg},
    };
    for (NamedRunner& c : *configs_) {
      SinewOptions options;
      options.parallelism = c.parallelism;
      options.planner.parallel_min_rows = 1;  // force Gather at test scale
      options.exec.batch_size = c.batch_size;
      c.runner = new nb::SinewRunner(options);
      ASSERT_TRUE(c.runner->Load(*docs_).ok()) << c.label;
      ASSERT_TRUE(c.runner->Prepare().ok()) << c.label;
    }
  }

  static void TearDownTestSuite() {
    for (NamedRunner& c : *configs_) delete c.runner;
    delete configs_;
    configs_ = nullptr;
    delete params_;
    params_ = nullptr;
    delete docs_;
    docs_ = nullptr;
  }

  /// Asserts every configuration returns the golden multiset for a direct
  /// SQL query: the scalar oracle's, or configuration 0's for LIMIT.
  /// Each statement runs twice, the second time with other literals
  /// through the plan cache (tests/cached_rerun.h).
  void ExpectSameAcrossConfigs(const std::string& sql) {
    for (const oracle::CachedRun& run : oracle::CachedRuns(sql)) {
      SCOPED_TRACE(run.sql);
      Result<engine::QueryResult> golden =
          oracle::GoldenQuery((*configs_)[0].runner->db(), run.sql);
      ASSERT_TRUE(golden.ok()) << golden.status().ToString();
      const std::vector<std::string> golden_rows = CanonicalRows(*golden);
      for (NamedRunner& c : *configs_) {
        Result<engine::QueryResult> got = run.Query(c.runner->db());
        ASSERT_TRUE(got.ok()) << c.label << ": " << got.status().ToString();
        EXPECT_EQ(CanonicalRows(*got), golden_rows) << c.label << " drifted";
      }
    }
  }

  /// Same, but only across the serial configurations — for LIMIT-without-
  /// ORDER-BY queries, where *which* rows survive is defined by scan order
  /// (deterministic serially, racy under Gather in every executor mode).
  /// The rerun with other literals (tests/cached_rerun.h) checks the
  /// configurations agree, not the row count.
  void ExpectSameAcrossSerialConfigs(const std::string& sql,
                                     size_t expect_rows) {
    for (const oracle::CachedRun& run : oracle::CachedRuns(sql)) {
      SCOPED_TRACE(run.sql);
      std::vector<std::string> golden;
      bool first = true;
      for (const NamedRunner& c : *configs_) {
        if (c.parallelism != 1) continue;
        Result<engine::QueryResult> got = run.Query(c.runner->db());
        ASSERT_TRUE(got.ok()) << c.label << ": " << got.status().ToString();
        if (!run.rerun) {
          EXPECT_EQ(got->rows.size(), expect_rows) << c.label;
        }
        if (first) {
          golden = CanonicalRows(*got);
          first = false;
        } else {
          EXPECT_EQ(CanonicalRows(*got), golden) << c.label << " drifted";
        }
      }
    }
  }

  static std::vector<Value>* docs_;
  static nb::QueryParams* params_;
  static std::vector<NamedRunner>* configs_;
};

std::vector<Value>* BatchDifferentialTest::docs_ = nullptr;
nb::QueryParams* BatchDifferentialTest::params_ = nullptr;
std::vector<BatchDifferentialTest::NamedRunner>*
    BatchDifferentialTest::configs_ = nullptr;

TEST_F(BatchDifferentialTest, AllNoBenchQueryShapes) {
  // Q12 is the random-update task; it mutates the table, so the differential
  // stops at Q11 to keep every configuration's data identical.
  for (int q = 1; q < nb::kNumTasks; ++q) {
    SCOPED_TRACE("Q" + std::to_string(q));
    Result<std::vector<Value>> golden =
        (*configs_)[0].runner->Run(q, *params_);
    ASSERT_TRUE(golden.ok()) << golden.status().ToString();
    std::vector<std::string> golden_rows = RenderValues(*golden);
    for (size_t i = 1; i < configs_->size(); ++i) {
      NamedRunner& c = (*configs_)[i];
      Result<std::vector<Value>> got = c.runner->Run(q, *params_);
      ASSERT_TRUE(got.ok()) << c.label << ": " << got.status().ToString();
      EXPECT_EQ(RenderValues(*got), golden_rows) << c.label << " drifted";
    }
  }
}

TEST_F(BatchDifferentialTest, LimitTruncatesMidBatch) {
  // With batch_size=3 and 2000 qualifying rows, LIMIT 7 cuts the third
  // batch to a single lane and LIMIT 5 the second to two; the batch path
  // must resize the selection vector, not round up to batch granularity.
  ExpectSameAcrossSerialConfigs(
      "SELECT num AS n, str1 AS s FROM nobench_main LIMIT 7", 7);
  ExpectSameAcrossSerialConfigs("SELECT num AS n FROM nobench_main LIMIT 5",
                                5);
  ExpectSameAcrossSerialConfigs(
      "SELECT num AS n FROM nobench_main WHERE num >= 0 LIMIT 1", 1);
  // LIMIT larger than the table: no truncation, all rows flow.
  ExpectSameAcrossSerialConfigs(
      "SELECT num AS n FROM nobench_main LIMIT 100000", kRecords);
}

TEST_F(BatchDifferentialTest, EmptySelectionBatches) {
  // num is non-negative in the corpus, so the filter empties every batch's
  // selection vector; extraction/projection above must pass the empty
  // batches through (with the right width) rather than hang or error.
  ExpectSameAcrossConfigs(
      "SELECT num AS n, str1 AS s FROM nobench_main WHERE num < -1");
  // A filter that empties most batches but not all.
  ExpectSameAcrossConfigs(
      "SELECT num AS n FROM nobench_main WHERE num < 3");
}

TEST_F(BatchDifferentialTest, OrderByLimitAndDistinct) {
  ExpectSameAcrossConfigs(
      "SELECT str2 AS s, thousandth AS t FROM nobench_main "
      "ORDER BY thousandth, str2 LIMIT 50");
  ExpectSameAcrossConfigs("SELECT DISTINCT thousandth AS t FROM nobench_main");
}

TEST_F(BatchDifferentialTest, AggregationAndGroupBy) {
  ExpectSameAcrossConfigs(
      "SELECT thousandth AS g, COUNT(*) AS c, SUM(num) AS s "
      "FROM nobench_main GROUP BY thousandth");
  ExpectSameAcrossConfigs("SELECT COUNT(*) AS c FROM nobench_main");
}

TEST_F(BatchDifferentialTest, ScalarOracleAnswersAggregationAndDistinct) {
  // Grouped and DISTINCT shapes diff against the scalar oracle itself, not
  // against configuration 0: the oracle answers every one of them. Group
  // runs and duplicate runs straddle the 1- and 3-row batch boundaries.
  const char* queries[] = {
      "SELECT thousandth AS g, COUNT(*) AS c, SUM(num) AS s, AVG(num) AS a, "
      "MIN(str1) AS lo, MAX(str1) AS hi FROM nobench_main GROUP BY thousandth",
      "SELECT bool AS b, COUNT(*) AS c FROM nobench_main GROUP BY bool "
      "HAVING COUNT(*) > 10",
      "SELECT thousandth, COUNT(*), SUM(num) + 1 FROM nobench_main "
      "GROUP BY thousandth",
      "SELECT sparse_110 AS k, COUNT(*) AS c, COUNT(sparse_110) AS n "
      "FROM nobench_main GROUP BY sparse_110",
      "SELECT COUNT(*) AS c, SUM(num) AS s, AVG(num) AS a, MIN(num) AS lo, "
      "MAX(num) AS hi FROM nobench_main WHERE num < 0",
      "SELECT DISTINCT bool AS b, thousandth AS t FROM nobench_main",
      "SELECT DISTINCT t1.thousandth AS t FROM nobench_main t1, "
      "nobench_main t2 WHERE t1.str1 = t2.str1 AND t1.num < 100",
  };
  for (const char* sql : queries) {
    Result<engine::QueryResult> answer =
        oracle::ScalarOracleQuery((*configs_)[0].runner->db(), sql);
    ASSERT_TRUE(answer.ok()) << sql << ": " << answer.status().ToString();
    ExpectSameAcrossConfigs(sql);
  }
  // Without GROUP BY, empty input is one row of initial values.
  Result<engine::QueryResult> empty = oracle::ScalarOracleQuery(
      (*configs_)[0].runner->db(),
      "SELECT COUNT(*) AS c, SUM(num) AS s FROM nobench_main WHERE num < 0");
  ASSERT_TRUE(empty.ok()) << empty.status().ToString();
  ASSERT_EQ(empty->rows.size(), 1u);
  EXPECT_EQ(empty->rows[0][0].int_value(), 0);
  EXPECT_TRUE(empty->rows[0][1].is_null());
}

TEST_F(BatchDifferentialTest, FoldedConstantPredicatesKeepSemantics) {
  // These predicates fold at plan time (planner constant folding); the
  // folded plans must agree with the oracle, which never folds.
  ExpectSameAcrossConfigs(
      "SELECT num AS n FROM nobench_main WHERE 1 + 1 = 2 AND num < 10");
  ExpectSameAcrossConfigs(
      "SELECT num AS n FROM nobench_main WHERE 'a' = 'b' OR num < 5");
  ExpectSameAcrossConfigs(
      "SELECT num AS n FROM nobench_main WHERE 1 = 2 AND num < 10");
  ExpectSameAcrossConfigs(
      "SELECT num + 0 * 2 AS n FROM nobench_main WHERE num < 4");
}

#if !defined(SINEW_METRICS_DISABLED)
TEST_F(BatchDifferentialTest, BatchedConfigsActuallyBatch) {
  // Guard against diffing one batch size against itself: batch_size=1024
  // delivers the 2000 rows in two batches, batch_size=1 in one batch per row.
  metrics::Counter* batches = metrics::GetCounter("exec.batches_total");
  const uint64_t before = batches->value();
  ASSERT_TRUE((*configs_)[2]
                  .runner->db()
                  ->Query("SELECT num AS n FROM nobench_main")
                  .ok());
  EXPECT_EQ(batches->value() - before, 2u) << "batch1024-serial";
  const uint64_t mid = batches->value();
  ASSERT_TRUE((*configs_)[0]
                  .runner->db()
                  ->Query("SELECT num AS n FROM nobench_main")
                  .ok());
  EXPECT_EQ(batches->value() - mid, kRecords) << "batch1-serial";
}
#endif

TEST_F(BatchDifferentialTest, TypedScanOverPhysicalColumns) {
  // The scan walks filter columns into typed arrays (text as views) and
  // boxes only survivors. Every physical type and data shape of
  // tests/typed_scan_corpus.h — NULL-heavy and all-NULL batches, short and
  // long text, NaN, -0.0, INT64_MIN, short-arity rows, a dropped middle
  // column, survivors overflowing the batch — through the typed kernels and
  // the boxed paths, against the scalar oracle in every configuration.
  for (NamedRunner& c : *configs_) {
    Status built = typed_scan::Build(c.runner->db()->engine());
    ASSERT_TRUE(built.ok()) << c.label << ": " << built.ToString();
  }
  for (const std::string& sql : typed_scan::Queries()) {
    Result<engine::QueryResult> answer =
        oracle::ScalarOracleQuery((*configs_)[0].runner->db(), sql);
    ASSERT_TRUE(answer.ok()) << sql << ": " << answer.status().ToString();
    ExpectSameAcrossConfigs(sql);
  }
}

}  // namespace
}  // namespace sinew
