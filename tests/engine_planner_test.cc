// Planner behaviour: the statistics-driven plan shapes behind the paper's
// Table 2 and the projection pushdown.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "engine/database.h"

namespace sinew::engine {
namespace {

class PlannerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    PlannerOptions options;
    options.hash_agg_max_groups = 100;
    options.hash_join_max_build_rows = 150;
    db_.set_planner_options(options);
    ASSERT_TRUE(db_.Execute("CREATE TABLE events (id int, kind text, "
                            "amount double, payload bytes)")
                    .ok());
    Rng rng(11);
    for (int i = 0; i < 1000; ++i) {
      std::string sql =
          "INSERT INTO events VALUES (" + std::to_string(i) + ", 'k" +
          std::to_string(i % 5) + "', " + std::to_string(i % 100) + ".0, 'x')";
      ASSERT_TRUE(db_.Execute(sql).ok());
    }
  }

  std::string Plan(const std::string& sql) {
    auto text = db_.Explain(sql);
    EXPECT_TRUE(text.ok()) << text.status().ToString();
    return text.ok() ? *text : "";
  }

  Database db_;
};

TEST_F(PlannerTest, FilterIsPushedIntoScan) {
  std::string plan = Plan("SELECT id FROM events WHERE kind = 'k1'");
  EXPECT_NE(plan.find("Seq Scan on events (filter:"), std::string::npos);
  // No standalone Filter node remains.
  EXPECT_EQ(plan.find("-> Filter"), std::string::npos);
}

TEST_F(PlannerTest, StatsFlipAggregateStrategy) {
  // Without ANALYZE: default distinct estimate (200) exceeds the 100-group
  // hash budget -> sort-based aggregation.
  std::string before = Plan("SELECT id, COUNT(*) FROM events GROUP BY id");
  EXPECT_NE(before.find("GroupAggregate"), std::string::npos) << before;
  // kind has 5 distinct values but the planner cannot know that yet either.
  ASSERT_TRUE(db_.Execute("ANALYZE events").ok());
  std::string low = Plan("SELECT kind, COUNT(*) FROM events GROUP BY kind");
  EXPECT_NE(low.find("HashAggregate"), std::string::npos) << low;
  // id has 1000 distinct values > 100 -> still sort-based.
  std::string high = Plan("SELECT id, COUNT(*) FROM events GROUP BY id");
  EXPECT_NE(high.find("GroupAggregate"), std::string::npos) << high;
}

TEST_F(PlannerTest, StatsFlipDistinctStrategy) {
  ASSERT_TRUE(db_.Execute("ANALYZE events").ok());
  EXPECT_NE(Plan("SELECT DISTINCT kind FROM events").find("HashAggregate"),
            std::string::npos);
  std::string unique = Plan("SELECT DISTINCT id FROM events");
  EXPECT_NE(unique.find("Unique"), std::string::npos) << unique;
  EXPECT_NE(unique.find("Sort"), std::string::npos) << unique;
}

TEST_F(PlannerTest, HashVsMergeJoinByBuildSize) {
  ASSERT_TRUE(db_.Execute("CREATE TABLE small (kind text, label text)").ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(db_.Execute("INSERT INTO small VALUES ('k" +
                            std::to_string(i) + "', 'L')")
                    .ok());
  }
  ASSERT_TRUE(db_.Execute("ANALYZE events").ok());
  ASSERT_TRUE(db_.Execute("ANALYZE small").ok());
  // Build side (small, 5 rows) fits the 150-row budget -> hash join.
  std::string hash = Plan(
      "SELECT e.id FROM events e, small s WHERE e.kind = s.kind");
  EXPECT_NE(hash.find("Hash Join"), std::string::npos) << hash;
  // Self-join of events: both sides are 1000 rows > 150 -> merge join.
  std::string merge = Plan(
      "SELECT a.id FROM events a, events b WHERE a.id = b.id");
  EXPECT_NE(merge.find("Merge Join"), std::string::npos) << merge;
}

TEST_F(PlannerTest, UdfPredicatesGetFixedDefaultEstimate) {
  // The paper's fixed 200-row default for statistics-less predicates.
  ASSERT_TRUE(db_.Execute("ANALYZE events").ok());
  auto plan = db_.Plan("SELECT id FROM events WHERE lower(kind) = 'k1'");
  ASSERT_TRUE(plan.ok());
  EXPECT_DOUBLE_EQ((*plan)->children.empty()
                       ? (*plan)->est_rows
                       : (*plan)->children[0]->est_rows,
                   200.0);
}

TEST_F(PlannerTest, StatsDriveSelectivityEstimates) {
  ASSERT_TRUE(db_.Execute("ANALYZE events").ok());
  // kind = 'k1': ndistinct 5 -> ~200 of 1000 rows.
  auto eq = db_.Plan("SELECT id FROM events WHERE kind = 'k1'");
  double eq_rows = (*eq)->children[0]->est_rows;
  EXPECT_NEAR(eq_rows, 200.0, 30.0);
  // amount < 50: histogram -> ~half.
  auto range = db_.Plan("SELECT id FROM events WHERE amount < 50");
  double range_rows = (*range)->children[0]->est_rows;
  EXPECT_NEAR(range_rows, 500.0, 100.0);
  // BETWEEN narrow range.
  auto between = db_.Plan(
      "SELECT id FROM events WHERE amount BETWEEN 10 AND 19");
  EXPECT_NEAR((*between)->children[0]->est_rows, 100.0, 50.0);
}

TEST_F(PlannerTest, ProjectionPushdownMarksOnlyReferencedColumns) {
  auto plan = db_.Plan("SELECT kind FROM events WHERE id < 10");
  ASSERT_TRUE(plan.ok());
  const PlanNode* scan = plan->get();
  while (!scan->children.empty()) scan = scan->children[0].get();
  ASSERT_EQ(scan->kind, PlanKind::kSeqScan);
  // Filter needs id (slot 0); output needs kind (slot 1); payload/amount
  // are never decoded.
  EXPECT_EQ(scan->scan_filter_cols, std::vector<size_t>{0});
  EXPECT_EQ(scan->scan_output_cols, std::vector<size_t>{1});
}

TEST_F(PlannerTest, CountStarNeedsNoColumns) {
  auto plan = db_.Plan("SELECT COUNT(*) FROM events");
  const PlanNode* scan = plan->get();
  while (!scan->children.empty()) scan = scan->children[0].get();
  ASSERT_EQ(scan->kind, PlanKind::kSeqScan);
  EXPECT_TRUE(scan->scan_filter_cols.empty());
  EXPECT_TRUE(scan->scan_output_cols.empty());
}

TEST_F(PlannerTest, JoinOrderPrefersFilteredSide) {
  // With a highly selective filter on one side, the filtered scan should be
  // the hash-join build side (smaller input).
  ASSERT_TRUE(db_.Execute("ANALYZE events").ok());
  auto plan = db_.Plan(
      "SELECT a.id FROM events a, events b "
      "WHERE a.id = b.id AND a.id = 7");
  ASSERT_TRUE(plan.ok());
  std::string text = (*plan)->DebugString();
  // Build side (second child of the join) carries the filter.
  size_t join_pos = text.find("Join");
  ASSERT_NE(join_pos, std::string::npos);
  size_t filter_pos = text.find("filter:");
  ASSERT_NE(filter_pos, std::string::npos);
  EXPECT_GT(filter_pos, join_pos);
}

}  // namespace
}  // namespace sinew::engine
