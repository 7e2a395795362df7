// The plan cache (sinew/plan_cache.h) against the scalar oracle: one case
// per transition a cached plan must notice (re-plan) or survive (keep
// serving, still correct), plus the literal kinds that key it. Every answer
// is checked against the oracle, and every outcome against the query log.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "cached_rerun.h"
#include "common/metrics.h"
#include "engine/table.h"
#include "scalar_oracle.h"
#include "sinew/durable_db.h"
#include "sinew/sinew_db.h"

namespace sinew {
namespace {

std::vector<std::string> Canonical(const engine::QueryResult& result) {
  std::vector<std::string> rows;
  for (const auto& row : result.rows) {
    std::string text;
    for (const engine::Datum& d : row) text += d.ToString() + "|";
    rows.push_back(std::move(text));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

std::string Docs(int from, int to) {
  std::ostringstream out;
  for (int i = from; i < to; ++i) {
    out << "{\"id\": " << i << ", \"num\": " << i % 50 << ", \"str1\": \"s"
        << i % 10 << "\", \"dbl\": " << i * 0.5 << ", \"flag\": "
        << (i % 2 == 0 ? "true" : "false") << ", \"dyn1\": ";
    if (i % 3 == 0) {
      out << "\"x" << i % 5 << "\"";
    } else {
      out << i % 7;
    }
    out << ", \"nested\": {\"a\": " << i % 5 << "}}\n";
  }
  return out.str();
}

/// Runs `sql` on `db`, expects `outcome` in the query log and the oracle's
/// answer; returns the row count.
size_t RunOn(SinewDb* db, const std::string& sql, const std::string& outcome) {
  SCOPED_TRACE(sql);
  Result<engine::QueryResult> got = db->Query(sql);
  EXPECT_TRUE(got.ok()) << got.status().ToString();
  if (!got.ok()) return 0;
  EXPECT_EQ(oracle::LastPlanCache(), outcome);
  Result<engine::QueryResult> golden = oracle::ScalarOracleQuery(db, sql);
  EXPECT_TRUE(golden.ok()) << golden.status().ToString();
  if (golden.ok()) {
    EXPECT_EQ(Canonical(*got), Canonical(*golden));
  }
  return got->rows.size();
}

class PlanCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
#if defined(SINEW_METRICS_DISABLED)
    GTEST_SKIP() << "the plan-cache outcome is read from the query log";
#endif
    ASSERT_TRUE(db_.LoadJsonLines("t", Docs(0, 400)).ok());
  }

  size_t Run(const std::string& sql, const std::string& outcome) {
    return RunOn(&db_, sql, outcome);
  }

  static uint64_t Counter(const char* name) {
    return metrics::GetCounter(name)->value();
  }

  SinewDb db_;
};

TEST_F(PlanCacheTest, RepeatedShapeHitsWithItsOwnLiterals) {
  EXPECT_GT(Run("SELECT id, str1 FROM t WHERE num = 5", "miss"), 0u);
  EXPECT_GT(Run("SELECT id, str1 FROM t WHERE num = 7", "hit"), 0u);
  EXPECT_GT(Run("SELECT id FROM t WHERE num BETWEEN 3 AND 9 AND str1 = 's3'",
                "miss"),
            0u);
  EXPECT_GT(Run("SELECT id FROM t WHERE num BETWEEN 10 AND 20 AND "
                "str1 = 's2'",
                "hit"),
            0u);
  // A literal on the left, and a function argument beside a column.
  // A function's result compared with a literal is no column: that literal
  // stays in the key.
  EXPECT_GT(Run("SELECT id FROM t WHERE 10 < num AND substr(str1, 2, 1) = '1'",
                "miss"),
            0u);
  EXPECT_GT(Run("SELECT id FROM t WHERE 40 < num AND substr(str1, 2, 2) = '1'",
                "hit"),
            0u);
  Run("SELECT id FROM t WHERE 40 < num AND substr(str1, 1, 2) = 's1'",
      "miss");
  // Whitespace is part of the key: another text is another entry.
  Run("SELECT id, str1 FROM t WHERE  num = 9", "miss");
}

TEST_F(PlanCacheTest, ConstantsStayInTheKey) {
  // IN lists, LIKE patterns, LIMIT and literal-only subtrees are constants.
  Run("SELECT id FROM t WHERE num IN (1, 2, 3)", "miss");
  Run("SELECT id FROM t WHERE num IN (1, 2, 4)", "miss");
  Run("SELECT id FROM t WHERE str1 LIKE 's1%'", "miss");
  Run("SELECT id FROM t WHERE str1 LIKE 's2%'", "miss");
  Run("SELECT id FROM t WHERE num > 1 + 1", "miss");
  Run("SELECT id FROM t WHERE num > 1 + 2", "miss");
  Run("SELECT id FROM t WHERE num > 1 + 2", "hit");
  Result<engine::QueryResult> limited =
      db_.Query("SELECT id FROM t WHERE num = 3 LIMIT 2");
  ASSERT_TRUE(limited.ok());
  EXPECT_EQ(limited->rows.size(), 2u);
  limited = db_.Query("SELECT id FROM t WHERE num = 4 LIMIT 5");
  ASSERT_TRUE(limited.ok());
  EXPECT_EQ(oracle::LastPlanCache(), "miss");
  EXPECT_EQ(limited->rows.size(), 5u);
}

TEST_F(PlanCacheTest, LiteralKindsKeySeparateEntries) {
  // dyn1 holds ints and strings: the kind picks the variants read.
  EXPECT_GT(Run("SELECT id FROM t WHERE dyn1 = 5", "miss"), 0u);
  EXPECT_GT(Run("SELECT id FROM t WHERE dyn1 = 'x1'", "miss"), 0u);
  EXPECT_GT(Run("SELECT id FROM t WHERE dyn1 = 6", "hit"), 0u);
  EXPECT_GT(Run("SELECT id FROM t WHERE dyn1 = 'x2'", "hit"), 0u);
  EXPECT_GT(Run("SELECT id FROM t WHERE num = 5", "miss"), 0u);
  Run("SELECT id FROM t WHERE num = 5.5", "miss");
  EXPECT_GT(Run("SELECT id FROM t WHERE num = 6.0", "hit"), 0u);
  EXPECT_GT(Run("SELECT id FROM t WHERE flag = TRUE", "miss"), 0u);
  EXPECT_GT(Run("SELECT id FROM t WHERE flag = FALSE", "hit"), 0u);
  // NULL is no parameter: it stays in the key and matches nothing.
  EXPECT_EQ(Run("SELECT id FROM t WHERE num = NULL", "miss"), 0u);
  EXPECT_EQ(Run("SELECT id FROM t WHERE num = NULL", "hit"), 0u);
}

TEST_F(PlanCacheTest, NewAttributeIsInterned) {
  const std::string star = "SELECT * FROM t WHERE num = 4";
  Run(star, "miss");
  Run("SELECT * FROM t WHERE num = 5", "hit");
  ASSERT_TRUE(db_.LoadJsonLines("t", "{\"id\": 1000, \"num\": 4, "
                                   "\"fresh\": 1}\n")
                  .ok());
  Result<engine::QueryResult> got = db_.Query(star);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(oracle::LastPlanCache(), "miss");
  EXPECT_NE(std::find(got->column_names.begin(), got->column_names.end(),
                      "fresh"),
            got->column_names.end());
  Run(star, "hit");
}

TEST_F(PlanCacheTest, MaterializeDirtyCleanAndDematerialize) {
  const std::string q = "SELECT id, num FROM t WHERE num < 7";
  Run(q, "miss");
  Run(q, "hit");
  // Materialize: the column is added and half the rows move (dirty).
  ASSERT_TRUE(db_.ForceMaterialization("t", "num", true).ok());
  Run(q, "miss");
  ASSERT_TRUE(db_.MaterializeStep("t", 200).ok());
  Run(q, "miss");
  Run("SELECT id, num FROM t WHERE num < 9", "hit");
  // Clean.
  ASSERT_TRUE(db_.MaterializeAll("t").ok());
  Run(q, "miss");
  Run(q, "hit");
  // A load puts new values in the reservoir: dirty again.
  ASSERT_TRUE(db_.LoadJsonLines("t", Docs(400, 450)).ok());
  EXPECT_GT(Run(q, "miss"), 0u);
  Run(q, "hit");
  ASSERT_TRUE(db_.MaterializeAll("t").ok());
  Run(q, "miss");
  // Dematerialize: values move back and the column is dropped.
  ASSERT_TRUE(db_.ForceMaterialization("t", "num", false).ok());
  Run(q, "miss");
  ASSERT_TRUE(db_.MaterializeAll("t").ok());
  Run(q, "miss");
  Run(q, "hit");
}

TEST_F(PlanCacheTest, SegmentDetachAndReshredAreSurvived) {
  // The name is the old contract's, under which an UPDATE detached the
  // segment. It now stays attached with the updated row stale, and the
  // cached plan reads that row from its bytes and the rest from strips.
  const std::string q = "SELECT id, str1 FROM t WHERE num = 8";
  ASSERT_TRUE(db_.BuildColumnarSegments("t").ok());
  Run(q, "miss");
  Run(q, "hit");
  Result<engine::QueryResult> updated =
      db_.Query("UPDATE t SET str1 = 'changed' WHERE id = 8");
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();
  ASSERT_EQ(updated->rows[0][0].int_value(), 1);
  Result<engine::Table*> table = db_.engine()->catalog()->GetTable("t");
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_NE((*table)->ColumnarSegmentSnapshot(), nullptr);
  Run(q, "hit");
  Result<engine::QueryResult> analyzed = db_.Query("EXPLAIN ANALYZE " + q);
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  std::string text;
  for (const auto& row : analyzed->rows) text += row[0].str();
  EXPECT_NE(text.find("stale=1)"), std::string::npos) << text;
  EXPECT_EQ(text.find("columnar_hits=0 "), std::string::npos) << text;
  ASSERT_TRUE(db_.BuildColumnarSegments("t").ok());
  Run(q, "hit");
  Result<engine::QueryResult> got = db_.Query(q);
  ASSERT_TRUE(got.ok());
  bool changed = false;
  for (const auto& row : got->rows) {
    changed |= row[1].is_text() && row[1].str() == "changed";
  }
  EXPECT_TRUE(changed);
}

TEST_F(PlanCacheTest, AnalyzeReplans) {
  ASSERT_TRUE(db_.ForceMaterialization("t", "num", true).ok());
  ASSERT_TRUE(db_.MaterializeAll("t").ok());
  const std::string q = "SELECT id FROM t WHERE num = 12";
  Run(q, "miss");
  Run(q, "hit");
  ASSERT_TRUE(db_.Query("ANALYZE t").ok());
  Run(q, "miss");
  Run(q, "hit");
}

TEST_F(PlanCacheTest, DropAndRecreateSameName) {
  ASSERT_TRUE(db_.Query("CREATE TABLE p (a INT, b TEXT)").ok());
  ASSERT_TRUE(db_.Query("INSERT INTO p VALUES (1, 'x'), (2, 'y')").ok());
  const std::string q = "SELECT a, b FROM p WHERE b = 'x'";
  EXPECT_EQ(Run(q, "miss"), 1u);
  EXPECT_EQ(Run(q, "hit"), 1u);
  ASSERT_TRUE(db_.engine()->catalog()->DropTable("p").ok());
  ASSERT_TRUE(db_.Query("CREATE TABLE p (b TEXT, c INT, a INT)").ok());
  ASSERT_TRUE(
      db_.Query("INSERT INTO p VALUES ('x', 0, 7), ('x', 0, 8), ('z', 0, 9)")
          .ok());
  EXPECT_EQ(Run(q, "miss"), 2u);
  EXPECT_EQ(Run("SELECT a, b FROM p WHERE b = 'z'", "hit"), 1u);
}

TEST_F(PlanCacheTest, TextIndexCreationReplans) {
  const std::string q = "SELECT id FROM t WHERE str1 = 's4'";
  Run(q, "miss");
  Run(q, "hit");
  ASSERT_TRUE(db_.EnableTextIndex("t").ok());
  Run(q, "miss");
  Run(q, "hit");
  // matches() resolves against the index at rewrite time: never cached.
  Result<engine::QueryResult> found =
      db_.Query("SELECT id FROM t WHERE matches('str1', 's4')");
  ASSERT_TRUE(found.ok()) << found.status().ToString();
  EXPECT_EQ(oracle::LastPlanCache(), "bypass");
  EXPECT_EQ(found->rows.size(), 40u);
}

TEST_F(PlanCacheTest, SystemTablesAndDmlBypass) {
  ASSERT_TRUE(db_.Query("SELECT COUNT(*) FROM sinew_metrics").ok());
  EXPECT_EQ(oracle::LastPlanCache(), "bypass");
  ASSERT_TRUE(db_.Query("DELETE FROM t WHERE id = 1").ok());
  EXPECT_EQ(oracle::LastPlanCache(), "bypass");
  ASSERT_TRUE(db_.Query("EXPLAIN SELECT id FROM t WHERE num = 1").ok());
  EXPECT_EQ(oracle::LastPlanCache(), "bypass");
  Result<engine::QueryResult> log = db_.Query(
      "SELECT plan_cache FROM sinew_query_log WHERE plan_cache = 'bypass'");
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  EXPECT_GE(log->rows.size(), 3u);
}

TEST_F(PlanCacheTest, CountersAndExplainAnalyzeShowTheBoundLiterals) {
  const uint64_t hits = Counter("plan_cache.hits");
  const uint64_t misses = Counter("plan_cache.misses");
  const uint64_t invalidations = Counter("plan_cache.invalidations");
  auto text = [&](const std::string& sql) {
    Result<engine::QueryResult> r = db_.Query(sql);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    std::string out;
    if (r.ok()) {
      for (const auto& row : r->rows) out += row[0].str() + "\n";
    }
    return out;
  };
  const std::string miss =
      text("EXPLAIN ANALYZE SELECT id FROM t WHERE str1 = 's5'");
  EXPECT_NE(miss.find("Plan cache: miss"), std::string::npos) << miss;
  const std::string hit =
      text("EXPLAIN ANALYZE SELECT id FROM t WHERE str1 = 's6'");
  EXPECT_NE(hit.find("Plan cache: hit"), std::string::npos) << hit;
  EXPECT_NE(hit.find("'s6'"), std::string::npos) << hit;
  EXPECT_EQ(hit.find("'s5'"), std::string::npos) << hit;
  EXPECT_NE(hit.find("actual rows=40"), std::string::npos) << hit;
  ASSERT_TRUE(db_.LoadJsonLines("t", "{\"id\": 7, \"other\": 1}\n").ok());
  text("EXPLAIN ANALYZE SELECT id FROM t WHERE str1 = 's6'");
  EXPECT_EQ(Counter("plan_cache.hits"), hits + 1);
  EXPECT_EQ(Counter("plan_cache.misses"), misses + 2);
  EXPECT_EQ(Counter("plan_cache.invalidations"), invalidations + 1);
  Result<engine::QueryResult> metric = db_.Query(
      "SELECT value FROM sinew_metrics WHERE name = 'plan_cache.hits'");
  ASSERT_TRUE(metric.ok());
  ASSERT_EQ(metric->rows.size(), 1u);
  EXPECT_GE(metric->rows[0][0].double_value(), 1.0);
}

TEST_F(PlanCacheTest, CapacityEvictsLeastRecentlyUsed) {
  const uint64_t evictions = Counter("plan_cache.evictions");
  for (size_t i = 0; i <= PlanCache::kCapacity; ++i) {
    Run("SELECT id FROM t WHERE num = 1 AND id > " + std::to_string(i) +
            " + 0",
        "miss");
  }
  EXPECT_EQ(Counter("plan_cache.evictions"), evictions + 1);
  Run("SELECT id FROM t WHERE num = 1 AND id > 0 + 0", "miss");
  Run("SELECT id FROM t WHERE num = 2 AND id > 3 + 0", "hit");
}

TEST(PlanCacheGatherTest, CrossingParallelMinRowsReplans) {
#if defined(SINEW_METRICS_DISABLED)
  GTEST_SKIP() << "the plan-cache outcome is read from the query log";
#endif
  // An entry keeps the Gather degree the planner gave its scan
  // (engine::GatherDegreeFor over the live rows). Growing the table within
  // one degree keeps it; crossing parallel_min_rows replans under Gather.
  SinewOptions options;
  options.parallelism = 2;
  options.planner.parallel_min_rows = 300;
  SinewDb db(options);
  ASSERT_TRUE(db.LoadJsonLines("t", Docs(0, 250)).ok());
  const std::string q = "SELECT id, str1 FROM t WHERE num = 4";
  RunOn(&db, q, "miss");
  RunOn(&db, q, "hit");
  ASSERT_TRUE(db.LoadJsonLines("t", Docs(250, 300)).ok());
  RunOn(&db, q, "hit");
  ASSERT_TRUE(db.LoadJsonLines("t", Docs(300, 310)).ok());
  RunOn(&db, q, "miss");
  RunOn(&db, q, "hit");
  Result<engine::QueryResult> explained = db.Query("EXPLAIN " + q);
  ASSERT_TRUE(explained.ok()) << explained.status().ToString();
  std::string text;
  for (const auto& row : explained->rows) text += row[0].str();
  EXPECT_NE(text.find("Gather (workers=2,"), std::string::npos) << text;
}

TEST(PlanCacheDurableTest, ReopenPlansAgain) {
#if defined(SINEW_METRICS_DISABLED)
  GTEST_SKIP() << "the plan-cache outcome is read from the query log";
#endif
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("sinew_plan_cache_test_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);
  const std::string q = "SELECT id, str1 FROM t WHERE num = 3";
  const std::string other = "SELECT id, str1 FROM t WHERE num = 4";
  {
    Result<std::unique_ptr<DurableDb>> db = DurableDb::Open(dir);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE((*db)->db()->LoadJsonLines("t", Docs(0, 300)).ok());
    RunOn((*db)->db(), q, "miss");
    RunOn((*db)->db(), other, "hit");
    ASSERT_TRUE((*db)->Close().ok());
  }
  Result<std::unique_ptr<DurableDb>> db = DurableDb::Open(dir);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ(RunOn((*db)->db(), other, "miss"), 6u);
  EXPECT_EQ(RunOn((*db)->db(), q, "hit"), 6u);
  ASSERT_TRUE((*db)->Close().ok());
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace sinew
