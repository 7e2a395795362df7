// The result store (engine/result_rows.h): ExecutePlan adopts each root
// batch's columns as one chunk, and rows are views into the chunks. Every
// case reads the answer cell by cell through rows[i][j] (and by range-for)
// and compares it with the scalar oracle's (tests/scalar_oracle.h): across
// many batches at batch sizes 1, 7 and 256, from a Gather at degree 2, from
// roots whose selection is sparse, for an empty result, for the count and
// text results that are built a row at a time, and after the result moved.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "scalar_oracle.h"
#include "sinew/sinew_db.h"

namespace sinew {
namespace {

constexpr const char* kTable = "t";

/// {"k": i, "s": "s<i>", "g": i % 7, "d": i / 4.0}; every fifth document
/// lacks "s", so its column holds NULLs.
std::vector<Value> Documents(int64_t n) {
  std::vector<Value> docs;
  docs.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    std::vector<Value::Member> members = {
        {"k", Value::Int(i)},
        {"g", Value::Int(i % 7)},
        {"d", Value::Double(static_cast<double>(i) / 4.0)}};
    if (i % 5 != 0) {
      members.emplace_back("s", Value::String("s" + std::to_string(i)));
    }
    docs.push_back(Value::Object(std::move(members)));
  }
  return docs;
}

SinewOptions Options(size_t batch_size, int parallelism) {
  SinewOptions options;
  options.exec.batch_size = batch_size;
  options.parallelism = parallelism;
  options.planner.parallel_min_rows = 1;  // Gather at test scale
  return options;
}

std::string Cell(const engine::Datum& d) {
  return std::to_string(static_cast<int>(d.kind())) + ":" + d.ToString();
}

/// Every row rendered through rows[i][j]; range-for must see the same.
std::vector<std::string> Rendered(const engine::QueryResult& result) {
  std::vector<std::string> out;
  for (size_t i = 0; i < result.rows.size(); ++i) {
    std::string line;
    for (size_t j = 0; j < result.rows[i].size(); ++j) {
      line += Cell(result.rows[i][j]) + "|";
    }
    out.push_back(std::move(line));
  }
  size_t i = 0;
  for (const auto& row : result.rows) {
    std::string line;
    for (const engine::Datum& d : row) line += Cell(d) + "|";
    EXPECT_LT(i, out.size());
    if (i < out.size()) {
      EXPECT_EQ(line, out[i]) << "row " << i;
    }
    ++i;
  }
  EXPECT_EQ(i, result.rows.size());
  return out;
}

std::vector<std::string> Sorted(std::vector<std::string> rows) {
  std::sort(rows.begin(), rows.end());
  return rows;
}

engine::QueryResult MustQuery(SinewDb* db, const std::string& sql) {
  Result<engine::QueryResult> r = db->Query(sql);
  EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
  return r.ok() ? std::move(*r) : engine::QueryResult{};
}

engine::QueryResult MustOracle(SinewDb* db, const std::string& sql) {
  Result<engine::QueryResult> r = oracle::ScalarOracleQuery(db, sql);
  EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
  return r.ok() ? std::move(*r) : engine::QueryResult{};
}

std::string ExplainText(SinewDb* db, const std::string& sql) {
  std::string text;
  for (const auto& row : MustQuery(db, "EXPLAIN " + sql).rows) {
    text += row[0].str() + "\n";
  }
  return text;
}

TEST(QueryResultTest, ManyBatchesMatchOracleInRowOrder) {
  for (size_t batch_size : {size_t{1}, size_t{7}, size_t{256}}) {
    SCOPED_TRACE("batch_size=" + std::to_string(batch_size));
    SinewDb db(Options(batch_size, 1));
    ASSERT_TRUE(db.LoadDocuments(kTable, Documents(3000)).ok());
    // A serial scan emits rows in row order, as the oracle's loop does, so
    // the rows compare position by position across every chunk boundary.
    for (const char* sql :
         {"SELECT k, s, g, d FROM t", "SELECT k, s FROM t WHERE g <> 3",
          "SELECT * FROM t WHERE k >= 100"}) {
      SCOPED_TRACE(sql);
      const engine::QueryResult got = MustQuery(&db, sql);
      const engine::QueryResult want = MustOracle(&db, sql);
      ASSERT_GT(got.rows.size(), 2 * batch_size);
      EXPECT_EQ(got.column_names, want.column_names);
      EXPECT_EQ(Rendered(got), Rendered(want));
      EXPECT_EQ(Cell(got.rows.back()[0]), Cell(want.rows.back()[0]));
    }
  }
}

TEST(QueryResultTest, GatherAtDegreeTwoStreams32kRows) {
  SinewDb db(Options(256, 2));
  ASSERT_TRUE(db.LoadDocuments(kTable, Documents(32000)).ok());
  const std::string sql = "SELECT k, s FROM t";
  ASSERT_NE(ExplainText(&db, sql).find("Gather (workers=2"),
            std::string::npos)
      << ExplainText(&db, sql);
  const engine::QueryResult got = MustQuery(&db, sql);
  const engine::QueryResult want = MustOracle(&db, sql);
  ASSERT_EQ(got.rows.size(), 32000u);
  // Worker batches arrive in any order: compare multisets.
  EXPECT_EQ(Sorted(Rendered(got)), Sorted(Rendered(want)));
}

TEST(QueryResultTest, SparseRootSelectionKeepsOnlySelectedLanes) {
  SinewDb db(Options(7, 1));
  ASSERT_TRUE(db.LoadDocuments(kTable, Documents(500)).ok());
  const engine::QueryResult all = MustOracle(&db, "SELECT k, s FROM t");
  const std::vector<std::string> want = Rendered(all);
  // LIMIT cuts the selection of its last batch short: 10 rows are one full
  // 7-row batch and 3 lanes of the next.
  for (int limit : {1, 3, 10, 13, 200}) {
    const std::string sql =
        "SELECT k, s FROM t LIMIT " + std::to_string(limit);
    SCOPED_TRACE(sql);
    ASSERT_EQ(ExplainText(&db, sql).rfind("Limit", 0), 0u)
        << ExplainText(&db, sql);
    const engine::QueryResult got = MustQuery(&db, sql);
    ASSERT_EQ(got.rows.size(), static_cast<size_t>(limit));
    EXPECT_EQ(Rendered(got),
              std::vector<std::string>(want.begin(), want.begin() + limit));
  }
  // HAVING filters above the aggregate: a filter the scan cannot take.
  const std::string having =
      "SELECT g, COUNT(*) AS c FROM t GROUP BY g HAVING COUNT(*) > 71";
  EXPECT_EQ(Sorted(Rendered(MustQuery(&db, having))),
            Sorted(Rendered(MustOracle(&db, having))));
}

TEST(QueryResultTest, FilterRootKeepsScatteredLanes) {
  SinewDb db(Options(7, 1));
  ASSERT_TRUE(db.Query("CREATE TABLE p (a INT, b TEXT)").ok());
  for (int i = 0; i < 200; ++i) {
    const std::string b = i % 4 == 0 ? "NULL" : "'b" + std::to_string(i) + "'";
    ASSERT_TRUE(db.Query("INSERT INTO p VALUES (" + std::to_string(i) +
                         ", " + b + ")")
                    .ok());
  }
  // The planner puts a projection over every SELECT, which compacts; the
  // filter above the join, run as the root, leaves the lanes of each join
  // batch that pass scattered through its selection.
  const std::string sql =
      "SELECT * FROM p x, p y WHERE x.a = y.a AND (x.a % 3 = 1 OR y.a % 5 = 0)";
  Result<engine::PlanPtr> plan = db.engine()->Plan(sql);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ((*plan)->kind, engine::PlanKind::kProject);
  const engine::PlanNode& filter = *(*plan)->children[0];
  ASSERT_EQ(filter.kind, engine::PlanKind::kFilter);
  engine::ExecOptions options;
  options.batch_size = 7;
  Result<engine::QueryResult> got =
      engine::ExecutePlan(filter, db.engine()->udfs(), options);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_EQ(got->rows.size(), 94u);
  // The filter's rows also carry each table's __rid: read the projected
  // slots.
  std::vector<std::string> projected;
  for (size_t i = 0; i < got->rows.size(); ++i) {
    std::string line;
    for (const engine::ExprPtr& e : (*plan)->projections) {
      ASSERT_TRUE(e->IsBoundColumnRef());
      line += Cell(got->rows[i][static_cast<size_t>(e->bound_slot)]) + "|";
    }
    projected.push_back(std::move(line));
  }
  EXPECT_EQ(Sorted(projected), Sorted(Rendered(MustOracle(&db, sql))));
}

TEST(QueryResultTest, EmptyResultKeepsColumnNamesAndTypes) {
  SinewDb db(Options(256, 1));
  ASSERT_TRUE(db.LoadDocuments(kTable, Documents(100)).ok());
  ASSERT_TRUE(db.AnalyzeAndMaterialize(kTable).ok());
  const std::string sql = "SELECT k, d FROM t WHERE k < 0";
  const engine::QueryResult got = MustQuery(&db, sql);
  const engine::QueryResult want = MustOracle(&db, sql);
  EXPECT_TRUE(got.rows.empty());
  EXPECT_EQ(got.rows.size(), want.rows.size());
  EXPECT_TRUE(got.rows.begin() == got.rows.end());
  EXPECT_EQ(got.column_names, (std::vector<std::string>{"k", "d"}));
  EXPECT_EQ(got.column_types,
            (std::vector<engine::ColumnType>{engine::ColumnType::kInt,
                                             engine::ColumnType::kDouble}));
}

TEST(QueryResultTest, CountAndExplainResultsAreBuiltRowByRow) {
  SinewDb db(Options(256, 1));
  ASSERT_TRUE(db.LoadDocuments(kTable, Documents(300)).ok());
  const engine::QueryResult matching =
      MustOracle(&db, "SELECT COUNT(*) FROM t WHERE g = 2");
  const engine::QueryResult updated =
      MustQuery(&db, "UPDATE t SET d = 0.5 WHERE g = 2");
  ASSERT_EQ(updated.rows.size(), 1u);
  ASSERT_EQ(updated.rows[0].size(), 1u);
  EXPECT_EQ(Cell(updated.rows[0][0]), Cell(matching.rows[0][0]));
  EXPECT_EQ(Cell(MustOracle(&db, "SELECT COUNT(*) FROM t WHERE d = 0.5")
                     .rows[0][0]),
            Cell(matching.rows[0][0]));

  const engine::QueryResult doomed =
      MustOracle(&db, "SELECT COUNT(*) FROM t WHERE k < 40");
  const engine::QueryResult deleted =
      MustQuery(&db, "DELETE FROM t WHERE k < 40");
  ASSERT_EQ(deleted.rows.size(), 1u);
  EXPECT_EQ(Cell(deleted.rows.back()[0]), Cell(doomed.rows[0][0]));
  EXPECT_EQ(Rendered(MustQuery(&db, "SELECT k FROM t")),
            Rendered(MustOracle(&db, "SELECT k FROM t")));

  // EXPLAIN: one text row per plan line, the last one the scan.
  const engine::QueryResult plan = MustQuery(&db, "EXPLAIN SELECT k FROM t");
  ASSERT_FALSE(plan.rows.empty());
  EXPECT_EQ(plan.column_names, (std::vector<std::string>{"QUERY PLAN"}));
  for (const auto& row : plan.rows) {
    ASSERT_EQ(row.size(), 1u);
    EXPECT_TRUE(row[0].is_text());
    EXPECT_EQ(row[0].str().find('\n'), std::string::npos);
  }
  EXPECT_NE(plan.rows.back()[0].str().find("Seq Scan"), std::string::npos)
      << plan.rows.back()[0].str();
}

TEST(QueryResultTest, MovedResultStillReads) {
  SinewDb db(Options(7, 1));
  ASSERT_TRUE(db.LoadDocuments(kTable, Documents(400)).ok());
  const std::string sql = "SELECT k, s, d FROM t WHERE g < 5";
  const engine::QueryResult want = MustOracle(&db, sql);
  Result<engine::QueryResult> got = db.Query(sql);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  // A view taken before the move reads the same chunk after it.
  const engine::ResultRows::Row early = got->rows[100];
  const std::string early_text = Cell(early[0]) + Cell(early[1]);
  engine::QueryResult moved = std::move(*got);
  EXPECT_EQ(Cell(early[0]) + Cell(early[1]), early_text);
  std::vector<engine::QueryResult> held;
  held.push_back(std::move(moved));
  held.push_back(MustQuery(&db, sql));  // reallocates `held`
  EXPECT_EQ(Rendered(held[0]), Rendered(want));
  EXPECT_EQ(Rendered(held[1]), Rendered(want));
  EXPECT_EQ(Cell(held[0].rows[100][0]), Cell(want.rows[100][0]));
}

}  // namespace
}  // namespace sinew
