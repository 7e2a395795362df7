// Plan-shape equivalence: the same query executed under hash-favouring and
// sort-favouring planner options, serially and under Gather, at batch sizes
// 1, 3 and 1024 must return identical results. This is the property that
// makes the Table 2 plan flips safe, and it exercises the MergeJoin /
// GroupAggregate / Unique operators end-to-end, with key groups, group runs
// and duplicate runs straddling batch boundaries.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "engine/database.h"

namespace sinew::engine {
namespace {

void Populate(Database* db, uint64_t seed) {
  ASSERT_TRUE(db->Execute("CREATE TABLE l (k int, v text)").ok());
  ASSERT_TRUE(db->Execute("CREATE TABLE r (k int, w double)").ok());
  Rng rng(seed);
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(db->Execute("INSERT INTO l VALUES (" +
                            std::to_string(rng.Uniform(40)) + ", 'v" +
                            std::to_string(rng.Uniform(8)) + "')")
                    .ok());
  }
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(db->Execute("INSERT INTO r VALUES (" +
                            std::to_string(rng.Uniform(40)) + ", " +
                            std::to_string(rng.Uniform(100)) + ".5)")
                    .ok());
  }
  // Runs of 1..7 equal keys (and a NULL run), so that sorted group runs,
  // duplicate runs and merge-join key groups cross every batch boundary.
  ASSERT_TRUE(db->Execute("CREATE TABLE runs (k int, x int)").ok());
  for (int k = 1; k <= 7; ++k) {
    for (int i = 0; i < k; ++i) {
      ASSERT_TRUE(db->Execute("INSERT INTO runs VALUES (" +
                              std::to_string(k) + ", " +
                              std::to_string(k * 10 + i) + ")")
                      .ok());
    }
  }
  ASSERT_TRUE(db->Execute("INSERT INTO runs VALUES (NULL, 1), (NULL, 2)").ok());
  ASSERT_TRUE(db->Execute("CREATE TABLE empty (x int)").ok());
  for (const char* table : {"l", "r", "runs", "empty"}) {
    ASSERT_TRUE(db->Execute(std::string("ANALYZE ") + table).ok());
  }
}

std::vector<std::string> Rows(Database* db, const std::string& sql) {
  auto result = db->Execute(sql);
  EXPECT_TRUE(result.ok()) << sql << " -> " << result.status().ToString();
  std::vector<std::string> out;
  if (!result.ok()) return out;
  for (const auto& row : result->rows) {
    std::string line;
    for (const auto& cell : row) line += cell.ToString() + "|";
    out.push_back(line);
  }
  std::sort(out.begin(), out.end());
  return out;
}

PlannerOptions HashOptions(int parallelism) {
  PlannerOptions options;  // generous budgets: hash join + hash aggregate
  options.parallelism = parallelism;
  options.parallel_min_rows = 1;  // Gather at test scale when parallel
  return options;
}

PlannerOptions SortOptions(int parallelism) {
  // Zero budgets: merge join + sort-based aggregation and DISTINCT.
  PlannerOptions options = HashOptions(parallelism);
  options.hash_agg_max_groups = 0;
  options.hash_join_max_build_rows = 0;
  return options;
}

class PlanEquivalenceTest : public ::testing::TestWithParam<const char*> {
 protected:
  static void SetUpTestSuite() {
    db_ = new Database();
    Populate(db_, 5);
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }

  /// Rows of `sql` under the given planner options and batch size.
  static std::vector<std::string> RowsUnder(const PlannerOptions& planner,
                                            size_t batch_size,
                                            const std::string& sql) {
    db_->set_planner_options(planner);
    ExecOptions exec;
    exec.batch_size = batch_size;
    db_->set_exec_options(exec);
    return Rows(db_, sql);
  }

  static Database* db_;
};

Database* PlanEquivalenceTest::db_ = nullptr;

TEST_P(PlanEquivalenceTest, HashAndSortPlansAgree) {
  const std::string sql = GetParam();
  // Sanity: the sort-favouring plan really uses no hash operator (a
  // keyless aggregate is always a HashAggregate).
  db_->set_planner_options(SortOptions(1));
  auto sort_plan = db_->Explain(sql);
  ASSERT_TRUE(sort_plan.ok()) << sort_plan.status().ToString();
  std::string keyed = *sort_plan;
  for (size_t at; (at = keyed.find("HashAggregate (keys: )")) !=
                  std::string::npos;) {
    keyed.erase(at, 13);
  }
  EXPECT_EQ(keyed.find("Hash Join"), std::string::npos) << *sort_plan;
  EXPECT_EQ(keyed.find("HashAggregate"), std::string::npos) << *sort_plan;

  const std::vector<std::string> golden = RowsUnder(HashOptions(1), 1024, sql);
  for (int parallelism : {1, 2}) {
    for (const PlannerOptions& planner :
         {HashOptions(parallelism), SortOptions(parallelism)}) {
      for (size_t batch_size : {1, 3, 1024}) {
        EXPECT_EQ(RowsUnder(planner, batch_size, sql), golden)
            << sql << " (parallelism " << parallelism << ", hash agg groups "
            << planner.hash_agg_max_groups << ", batch " << batch_size
            << ")";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Queries, PlanEquivalenceTest,
    ::testing::Values(
        "SELECT l.v, r.w FROM l, r WHERE l.k = r.k",
        "SELECT l.k, COUNT(*), SUM(r.w) FROM l, r WHERE l.k = r.k GROUP BY l.k",
        "SELECT DISTINCT v FROM l",
        "SELECT DISTINCT l.v, r.w FROM l, r WHERE l.k = r.k AND r.w > 50",
        "SELECT a.k FROM l a, l b, r c "
        "WHERE a.k = b.k AND b.k = c.k AND a.v = 'v1' AND c.w < 20",
        "SELECT k, COUNT(*) c FROM l GROUP BY k HAVING COUNT(*) > 5 "
        "ORDER BY c DESC, k",
        // A group run, a duplicate run and a merge-join key group per key
        // of `runs`, each longer than a 1- or 3-row batch.
        "SELECT k, COUNT(*), COUNT(x), SUM(x), AVG(x), MIN(x), MAX(x) "
        "FROM runs GROUP BY k",
        "SELECT DISTINCT k FROM runs",
        "SELECT a.k, a.x, b.x FROM runs a, runs b WHERE a.k = b.k",
        // Nested loops (no equi edge): the cross-table conjunct runs as the
        // Filter above the join, over an empty and a non-empty inner.
        "SELECT l.k, e.x FROM l, empty e WHERE l.k < e.x",
        "SELECT a.k, b.x FROM l a, runs b WHERE a.k < b.x AND b.k = 7",
        // Aggregates without GROUP BY over empty input: one row of initial
        // values, serially and under Gather.
        "SELECT COUNT(*), SUM(k), MIN(v) FROM l WHERE k < 0",
        "SELECT COUNT(*), SUM(x), AVG(x) FROM empty"));

TEST(PlanEquivalence, EmptyInputAggregateIsOneRowUnderGather) {
  Database db;
  Populate(&db, 5);
  db.set_planner_options(HashOptions(2));
  const std::string sql = "SELECT COUNT(*), SUM(k), MIN(v) FROM l WHERE k < 0";
  auto plan = db.Explain(sql);
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("merge=partial-agg"), std::string::npos) << *plan;
  EXPECT_EQ(Rows(&db, sql), std::vector<std::string>{"0|NULL|NULL|"});
}

TEST(PlanEquivalence, NestedLoopJoinsWithoutAnEquiEdge) {
  Database db;
  Populate(&db, 5);
  for (const char* sql : {"SELECT l.k, e.x FROM l, empty e WHERE l.k < e.x",
                          "SELECT a.k, b.x FROM l a, runs b "
                          "WHERE a.k < b.x AND b.k = 7"}) {
    auto plan = db.Explain(sql);
    ASSERT_TRUE(plan.ok());
    EXPECT_NE(plan->find("Nested Loop"), std::string::npos) << *plan;
  }
  EXPECT_TRUE(Rows(&db, "SELECT l.k, e.x FROM l, empty e WHERE l.k < e.x")
                  .empty());
  // Every l row has k < 40 < 70..76: all 7 runs rows join all 400 of them.
  EXPECT_EQ(
      Rows(&db, "SELECT a.k, b.x FROM l a, runs b WHERE a.k < b.x AND b.k = 7")
          .size(),
      2800u);
}

TEST(PlanEquivalence, MergeJoinHandlesDuplicateKeyGroups) {
  // Dedicated check of duplicate-heavy merge join: every key collides.
  Database db;
  PlannerOptions options;
  options.hash_join_max_build_rows = 0;
  db.set_planner_options(options);
  ASSERT_TRUE(db.Execute("CREATE TABLE d (k int, tag text)").ok());
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(db.Execute("INSERT INTO d VALUES (" + std::to_string(i % 3) +
                           ", 't" + std::to_string(i) + "')")
                    .ok());
  }
  ASSERT_TRUE(db.Execute("ANALYZE d").ok());
  auto plan = db.Explain("SELECT COUNT(*) FROM d a, d b WHERE a.k = b.k");
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("Merge Join"), std::string::npos) << *plan;
  auto result = db.Execute("SELECT COUNT(*) FROM d a, d b WHERE a.k = b.k");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows[0][0].int_value(), 3 * 10 * 10);
}

}  // namespace
}  // namespace sinew::engine
